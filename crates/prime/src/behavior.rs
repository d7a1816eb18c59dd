//! Byzantine fault models used in tests, the red-team scenario suite and
//! the paper's attack experiments.

use spire_sim::Span;

/// How a (possibly compromised) replica deviates from the protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ByzBehavior {
    /// Follows the protocol.
    #[default]
    Honest,
    /// Processes nothing (crash-like while the process stays up).
    Mute,
    /// When leader, delays every proposal by the given span — Prime's
    /// signature *performance attack*: throughput-preserving but
    /// latency-degrading, invisible to crash timeouts.
    LeaderDelay(Span),
    /// When leader, proposes conflicting matrices to different halves of
    /// the cluster (a safety attack; must be contained by quorums).
    Equivocate,
    /// Withholds all acknowledgements and votes (liveness attack).
    AckWithhold,
    /// As an originator, sends *different* PO-Request contents under the
    /// same sequence number to different halves of the cluster (an attempt
    /// to make correct replicas execute different operations; defeated by
    /// digest-certified pre-ordering).
    EquivocatePo,
    /// Executes corrupted operations, silently diverging its own state
    /// (caught end-to-end by `f + 1` matching replies).
    DivergentExec,
    /// Serves bit-flipped snapshot chunks during state transfer (an attack
    /// on recovering replicas; defeated by per-chunk digest checks against
    /// the attested layout plus retries against alternate responders).
    CorruptChunks,
}

impl ByzBehavior {
    /// True for behaviours that count against the `f` budget.
    pub fn is_byzantine(&self) -> bool {
        !matches!(self, ByzBehavior::Honest)
    }
}
