//! Prime: Byzantine fault-tolerant state-machine replication with
//! performance guarantees under attack — the replication engine of Spire
//! (Babay et al., DSN 2018), reproduced from scratch.
//!
//! Classic leader-based BFT protocols stay *safe* under a malicious leader
//! but can be slowed to a crawl: a leader that delays proposals just below
//! the crash-detection timeout is never replaced. Prime (Amir, Coan,
//! Kirsch, Lane) adds three mechanisms that this crate reproduces:
//!
//! 1. **Pre-ordering**: clients' operations are disseminated and
//!    acknowledged by all replicas *before* the leader is involved, so the
//!    leader's only job is periodically proposing a matrix of signed
//!    cumulative acknowledgements — it cannot reorder or censor individual
//!    operations.
//! 2. **Suspect-leader**: replicas continuously measure round-trip times
//!    and the leader's turnaround, and replace any leader slower than a
//!    correct one could be (bounded-delay guarantee).
//! 3. **Proactive recovery support**: with `n = 3f + 2k + 1` replicas the
//!    system tolerates `f` compromised **and** `k` simultaneously
//!    recovering replicas; recovering replicas rejoin via proof-carrying
//!    state transfer.
//!
//! The [`config::ProtocolMode::PbftLike`] mode disables mechanism 2 (and
//! pings), providing the baseline the paper compares against.
//!
//! Replicas are [`spire_sim::Process`]es; they communicate over direct sim
//! links ([`net::DirectNet`]) or over Spines overlays ([`net::SpinesNet`]).

pub mod application;
pub mod behavior;
pub mod cert;
pub mod client;
pub mod config;
pub mod inspect;
pub mod kv;
pub mod model;
pub mod msg;
pub mod net;
pub mod replica;

pub use application::{Application, CounterApp, ExecResult, HashChainApp, Notification};
pub use behavior::ByzBehavior;
pub use cert::ReplyCert;
pub use client::{Accepted, ClientRouting, ClientSession, QuorumTracker, ReplicaKeys, TestClient};
pub use config::{ClientId, PrimeConfig, ProtocolMode, ReplicaId, SUMMARY_INTERVAL};
pub use inspect::Inspection;
pub use kv::{KvApp, KvOp, KvReply};
pub use model::{Effect, Input, ModelReplica, RecordingBackend};
pub use msg::{decode_enclosed, ClientOp, PrimeMsg};
pub use net::{DirectNet, ReplicaNet, SpinesNet};
pub use replica::Replica;
