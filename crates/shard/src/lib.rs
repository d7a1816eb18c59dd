//! Multi-group sharding for Spire: partition grid state by substation /
//! region into independent Prime replication groups.
//!
//! One Prime RSM caps out at hundreds of confirmed updates/s no matter how
//! fast the hot path gets — ordering is sequential and every replica sees
//! every operation. This crate breaks the paper's single-control-center
//! assumption (following the DER-fleet line of work): RTUs are partitioned
//! across N groups by a deterministic [`ShardMap`], each group is built
//! with the proxies of the RTUs it owns ([`ShardMap::partition`]) and its
//! own HMIs, and the rare supervisory command spanning regions runs as an ordered 2PC-over-BFT
//! transaction ([`XCoord`] / [`XParticipant`]):
//!
//! 1. the coordinator client submits `XPrepare` to the *coordinator
//!    group* (the owner of the lowest participant shard), which orders it
//!    and replies with prepare votes;
//! 2. `f + 1` matching votes form a portable [`spire_prime::ReplyCert`];
//! 3. the coordinator client submits `XCommit` (carrying the certificate)
//!    to every participant group, which verifies the certificate, orders
//!    the commit, applies its own shard's commands, and acks; the decision
//!    is re-sent to a group until `f + 1` of its replicas ack it;
//! 4. an `XPrepare` rejected by `f + 1` replicas (infeasible command) or
//!    timed out past its retry budget aborts: `XAbort` to all
//!    participants. Once a certificate exists the transaction is
//!    commit-only — the commit phase retries forever (blocking 2PC), so
//!    atomicity never depends on the coordinator's patience. Every vote
//!    the coordinator counts goes through [`spire_prime::QuorumTracker`].
//!
//! Safety relies on each *group* being a BFT RSM: a group never issues
//! both commit and abort for one transaction, and the certificate makes
//! prepare decisions transferable. The [`XShardLedger`] checks the
//! resulting invariant online (all participants commit XOR all abort).

pub mod coordinator;
pub mod ledger;
pub mod map;
pub mod msg;
pub mod participant;
pub mod router;

pub use coordinator::{CoordinatorProcess, GroupLink, XAction, XCoord, XCoordConfig};
pub use ledger::{LedgerCounts, XShardLedger};
pub use map::ShardMap;
pub use msg::{ShardCmd, ShardMsg, XReply};
pub use participant::{CertVerifier, XOutcome, XParticipant};

/// Key-id stride between groups: group `g` uses node ids
/// `g * SHARD_KEY_STRIDE + base` for every role (daemons, replicas,
/// clients), so one [`spire_crypto::KeyStore`] covers the whole sharded
/// deployment and certificates verify across group boundaries.
pub const SHARD_KEY_STRIDE: u32 = 4096;

/// Client id of the cross-shard coordinator within every group's client
/// id space (distinct from RTUs `0..` and HMIs `1000..`).
pub const COORD_CLIENT_ID: u32 = 999;

/// External-overlay port the coordinator client binds at each group's
/// HMI site daemon.
pub const COORD_CLIENT_PORT: u16 = 99;

/// True when this build carries the deliberate cross-shard atomicity bug
/// (feature `seeded-xshard-bug`); replay artifacts record it so a clean
/// build can detect a stale expectation.
pub const SEEDED_XSHARD_BUG_ACTIVE: bool = cfg!(feature = "seeded-xshard-bug");
