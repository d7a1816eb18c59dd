//! Prime replication parameters.

use spire_sim::Span;

/// Identifies a replica (0-based, dense).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ReplicaId(pub u32);

spire_sim::impl_wire!(struct ReplicaId(id));

impl std::fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifies a client of the replicated service (proxy or HMI).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClientId(pub u32);

spire_sim::impl_wire!(struct ClientId(id));

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Protocol mode: full Prime, or a PBFT-style baseline without Prime's
/// performance-under-attack defenses (used for the paper's comparisons).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ProtocolMode {
    /// Prime: pre-ordering fairness + suspect-leader turnaround monitoring.
    #[default]
    Prime,
    /// Leader-based BFT with only a conservative crash timeout; a malicious
    /// leader can delay every proposal just below the timeout indefinitely.
    PbftLike,
}

// Protocol parameters with one value in use anywhere in the tree. Each was a
// `PrimeConfig` field nobody assigned; `PrimeConfig` keeps what a deployment,
// a test or the benchmark actually varies.

/// Batch flush interval for PO-Requests.
pub(crate) const PO_INTERVAL: Span = Span::millis(5);

/// Maximum ops per PO-Request batch.
pub(crate) const PO_BATCH: usize = 64;

/// PO-Summary broadcast interval. With batch signing on, a summary that
/// is due while a batch flush is pending leaves with that flush instead
/// of on this tick.
pub const SUMMARY_INTERVAL: Span = Span::millis(10);

/// Leader's pre-prepare (proposal) interval, Δpp.
pub(crate) const PRE_PREPARE_INTERVAL: Span = Span::millis(30);

/// Ping interval for RTT measurement (suspect-leader).
pub(crate) const PING_INTERVAL: Span = Span::millis(500);

/// Multiplier over the measured network round trip allowed to the
/// leader before suspicion (Prime's K_lat).
pub(crate) const TAT_ALLOWANCE: f64 = 2.5;

/// The reconciliation tick: it retries fetching missing PO-Requests and
/// runs the state-request schedule.
pub(crate) const RECON_INTERVAL: Span = Span::millis(50);

/// State transfer splits the execution snapshot into chunks of this
/// many bytes; each chunk's digest is in the attested layout, so a
/// recovering replica checks every chunk on its own, from any responder.
pub(crate) const STATE_CHUNK_BYTES: usize = 1024;

/// A replica that is behind asks for state (or missing chunks) again this
/// long after its first ask, doubling per ask up to [`ASK_BACKOFF_MAX`].
pub(crate) const ASK_BACKOFF: Span = Span::millis(200);

/// Ceiling of the state-request backoff.
pub(crate) const ASK_BACKOFF_MAX: Span = Span::secs(2);

/// A pinned transfer that made no progress for this long is evicted
/// (bounds memory when responders go mute or serve garbage).
pub(crate) const STATE_ACCUM_DEADLINE: Span = Span::secs(2);

/// Capacity of each bounded verification cache (client ops, summary
/// rows, batch roots); 0 disables caching. The smallest power of two at
/// which the benchmark's workloads and the 240 s soak verify and hit
/// exactly as often as at 4,096 (at 512 `sim_attack` verifies 8 more).
pub(crate) const VERIFY_CACHE: usize = 1024;

/// Minimum gap between consecutive eager proposals, bounding the
/// leader's proposal rate (and thus matrix-broadcast load) under
/// heavy summary churn.
pub(crate) const EAGER_PROPOSE_GAP: Span = Span::millis(5);

/// Static configuration shared by all replicas of one Prime instance.
#[derive(Clone, Debug)]
pub struct PrimeConfig {
    /// Number of replicas (`n`).
    pub n: u32,
    /// Tolerated Byzantine replicas (`f`).
    pub f: u32,
    /// Tolerated simultaneously recovering replicas (`k`).
    pub k: u32,
    /// Protocol mode.
    pub mode: ProtocolMode,
    /// Hard timeout with no ordering progress before suspecting the leader
    /// (the only defense in [`ProtocolMode::PbftLike`]).
    pub progress_timeout: Span,
    /// Take a checkpoint every this many committed matrices.
    pub checkpoint_interval: u64,
    /// Crypto id base for replicas in the key store.
    pub replica_key_base: u32,
    /// Crypto id base for clients in the key store.
    pub client_key_base: u32,
    /// Amortize signatures: queue PO-Acks/Prepares/Commits/Replies and
    /// sign a single Merkle root over the batch, attaching per-message
    /// inclusion proofs instead of individual signatures.
    pub batch_sign: bool,
    /// Maximum time queued messages wait for their Merkle root signature:
    /// the batch flushes this long after its first message is queued (or
    /// immediately once 64 messages accumulate). Longer windows amortize
    /// better at the cost of up to this much latency per protocol hop.
    pub batch_interval: Span,
    /// How far ahead of the committed prefix the leader may propose: the
    /// number of ordering sequences that may be in flight (pre-prepared
    /// but not yet committed) at once. 1 degenerates to strictly serial
    /// ordering; wider windows pipeline the Prepare/Commit rounds.
    pub proposal_window: u64,
}

impl PrimeConfig {
    /// A configuration for `n = 3f + 2k + 1` replicas with sane defaults.
    pub fn new(f: u32, k: u32) -> PrimeConfig {
        PrimeConfig {
            n: 3 * f + 2 * k + 1,
            f,
            k,
            mode: ProtocolMode::Prime,
            progress_timeout: Span::secs(5),
            checkpoint_interval: 50,
            replica_key_base: 1000,
            client_key_base: 2000,
            batch_sign: false,
            batch_interval: Span::millis(2),
            proposal_window: 8,
        }
    }

    /// Quorum needed to order (prepare/commit/new-view): `2f + k + 1`.
    pub fn ordering_quorum(&self) -> usize {
        (2 * self.f + self.k + 1) as usize
    }

    /// Summaries that must cover an op before execution: `f + k + 1`
    /// (guarantees a correct, currently-up replica can supply the content).
    pub fn cover_quorum(&self) -> usize {
        (self.f + self.k + 1) as usize
    }

    /// Suspicions needed to change view: `f + k + 1` (at least one correct
    /// up replica among them).
    pub fn suspect_quorum(&self) -> usize {
        (self.f + self.k + 1) as usize
    }

    /// The leader of a view.
    pub fn leader_of(&self, view: u64) -> ReplicaId {
        ReplicaId((view % self.n as u64) as u32)
    }

    /// Validates the resilience inequality `n >= 3f + 2k + 1`.
    pub fn is_valid(&self) -> bool {
        self.n > 3 * self.f + 2 * self.k && self.n > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorums_f1_k1() {
        let c = PrimeConfig::new(1, 1);
        assert_eq!(c.n, 6);
        assert!(c.is_valid());
        assert_eq!(c.ordering_quorum(), 4);
        assert_eq!(c.cover_quorum(), 3);
        assert_eq!(c.suspect_quorum(), 3);
    }

    #[test]
    fn quorums_f1_k0() {
        let c = PrimeConfig::new(1, 0);
        assert_eq!(c.n, 4); // classic PBFT sizing
        assert_eq!(c.ordering_quorum(), 3);
    }

    #[test]
    fn leader_rotation() {
        let c = PrimeConfig::new(1, 1);
        assert_eq!(c.leader_of(0), ReplicaId(0));
        assert_eq!(c.leader_of(7), ReplicaId(1));
    }

    #[test]
    fn quorum_intersection_property() {
        // Any two ordering quorums intersect in at least f+1 replicas, and
        // the system stays live with f faulty + k recovering.
        for f in 0..4u32 {
            for k in 0..3u32 {
                let c = PrimeConfig::new(f, k);
                let q = c.ordering_quorum() as u32;
                assert!(2 * q > c.n + f, "quorum intersection violated");
                assert!(c.n - f - k >= q, "liveness violated");
            }
        }
    }
}
