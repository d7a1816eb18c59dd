//! Schedule exploration harness over the Prime model seam and the
//! cross-shard coordinator machine.
//!
//! `spire-prime`'s [`ModelReplica`](spire_prime::ModelReplica) turns a
//! replica into a pure transition function: the caller injects every
//! nondeterministic event (message delivery, timer firing, clock reads)
//! and receives the side effects back as data. This crate drives such
//! machines through *schedules* — explicit sequences of [`Choice`]s — and
//! checks the model's safety oracle after every step.
//!
//! A [`Model`] builds [`Run`]s; a run applies choices, exposes its
//! nondeterminism pool (pending messages, armed timers, uninjected ops)
//! and says whether its oracle still holds. Two models implement the
//! pair:
//!
//! - [`Harness`] / [`Cluster`] — a Prime cluster of model replicas judged
//!   by the shared [`InvariantChecker`](spire::invariant::InvariantChecker);
//! - [`xshard::XHarness`] / [`xshard::XCluster`] — one cross-shard 2PC
//!   coordinator against model participant groups, judged by the
//!   atomicity ledger and a premature-`Done` oracle.
//!
//! The drivers are written once, generic over the model:
//!
//! - [`random::explore`] / [`random::hunt`] — seeded randomized
//!   exploration with weighted adversarial choices (reorder, duplicate,
//!   drop, timer skew, partition bursts; each model carries its own
//!   weight table) for larger configs and longer horizons;
//! - [`shrink::shrink`] — greedy delta debugging over a failing schedule,
//!   exploiting that choices referencing vanished messages/timers are
//!   no-ops (so removing a cause silently disables its dependents);
//! - [`Model::replay`] — deterministic re-execution of a schedule.
//!
//! [`exhaustive::explore`] — bounded breadth-first interleaving with
//! state-hash deduplication (so commuting delivery orders collapse) — is
//! typed to the Prime cluster: the cross-shard model has no state hash,
//! and its coordinator's timer space makes prefix enumeration useless.
//!
//! Failing schedules serialize to a self-describing JSON replay artifact
//! ([`Artifact`]); `exp_x1_explore --replay=PATH` in `spire-bench`
//! re-executes one deterministically.

pub mod cluster;
pub mod exhaustive;
pub mod model;
pub mod random;
pub mod schedule;
pub mod shrink;
pub mod xshard;

pub use cluster::{Bounds, Cluster, Harness, Scenario};
pub use exhaustive::{ExhaustiveReport, FoundViolation};
pub use model::{Adversary, MessagePool, Model, Run};
pub use random::{RandomParams, RandomReport};
pub use schedule::{Artifact, Choice, MsgKey};

/// The stable 64-bit content digest that addresses pending messages and
/// folds per-replica state digests into a cluster hash (FNV-1a; a
/// collision merely merges exploration states or schedule keys).
pub use spire_sim::fnv64;
