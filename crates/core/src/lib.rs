//! Spire: network-attack-resilient intrusion-tolerant SCADA for the power
//! grid — a from-scratch reproduction of Babay et al., DSN 2018.
//!
//! Spire keeps a SCADA system operating through **both** system-level
//! intrusions (up to `f` compromised SCADA-master replicas, plus `k`
//! replicas down for proactive recovery) **and** network attacks (DoS
//! against a control center, loss of an entire site). It composes:
//!
//! * the **Prime** BFT replication engine with performance guarantees under
//!   attack ([`spire_prime`]),
//! * the **Spines** intrusion-tolerant overlay network ([`spire_spines`]),
//! * replicated **SCADA masters**, RTU proxies, field devices and HMIs
//!   ([`spire_scada`]),
//! * **proactive recovery** with proof-carrying state transfer,
//!
//! over the deterministic simulation substrate ([`spire_sim`]).
//!
//! This crate ties the pieces into deployable systems:
//!
//! * [`config`] — the `3f + 2k + 1` resource analysis and site placement.
//! * [`deployment`] — builds the full wide-area system (one replication
//!   group or several) in a simulator and moves it to the real-clock
//!   runtime; the one orchestrator every experiment goes through.
//! * [`sharded`] — the configuration and constructor of a multi-group
//!   deployment with a cross-shard coordinator.
//! * [`attack`] — the attack vocabulary and red-team scenario suite.
//! * [`chaos`] — the seeded chaos adversary with an `f`-budget accountant.
//! * [`invariant`] — online safety-invariant checking during every run.
//! * [`baseline`] — the traditional single-master SCADA comparison system.
//! * [`health`] — live SLO grading and the performance-attack detector.
//! * [`report`] — latency/availability/safety metrics extraction.
//!
//! # Quickstart
//!
//! ```
//! use spire::deployment::{Deployment, DeploymentConfig};
//! use spire_sim::Span;
//!
//! let mut system = Deployment::build(DeploymentConfig::wide_area(7));
//! system.run_for(Span::secs(20));
//! let report = system.report();
//! assert!(report.safety_ok);
//! assert!(report.updates_confirmed > 0);
//! ```

pub mod attack;
pub mod baseline;
pub mod chaos;
pub mod config;
pub mod deployment;
pub mod health;
pub mod invariant;
pub mod report;
pub mod sharded;

pub use attack::{Attack, Scenario};
pub use baseline::BaselineDeployment;
pub use chaos::{ChaosPlan, FaultBudget};
pub use config::{required_replicas, SiteKind, SpireConfig};
pub use deployment::{
    build_group, AppFactory, Deployment, DeploymentConfig, GroupParts, GroupSpec, HealthOptions,
    RollingRecoveryConfig, RtDeployment, RunOutcome, Substrate, WanModel, XShard,
};
pub use health::{
    parse_prometheus, prometheus_text, AlarmKind, AttackDetector, BreachClass, HealthConfig,
    HealthMonitor, HealthTick, MetricsSnapshot, SloTracker, WindowStats,
};
pub use invariant::{InvariantChecker, Violation};
pub use report::{
    ChaosStats, HealthStats, PhaseStat, Provenance, RecoveryStats, Report, ShardStat, XShardStats,
    SLA_MS,
};
pub use sharded::ShardedConfig;
