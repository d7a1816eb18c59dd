//! Pure-step seam over [`Replica`]: `(state, input) -> (state', outputs)`.
//!
//! The replica's `Process` implementation funnels every side effect —
//! message sends, timer arming/cancellation, metric updates — through the
//! [`Backend`] behind its `Context`, and reads time only via `ctx.now()`.
//! That makes the replica a deterministic state machine whose only inputs
//! are `on_start` / `on_message` / `on_timer` invocations at explicit
//! times. [`ModelReplica`] exploits this: it owns a recording backend with
//! an *injected* clock and a seeded RNG, so a single call to
//! [`ModelReplica::step`] is a pure transition — all nondeterminism
//! (delivery order, timer firing order, wall time) is chosen by the
//! caller, and all outputs come back as an explicit [`Effect`] list
//! instead of being written into a live network substrate.
//!
//! The schedule explorer in `crates/explore` drives clusters of
//! `ModelReplica`s exhaustively (tiny configs) or randomly (adversarial
//! schedules), checking safety invariants after every step. Because the
//! transition is pure, any interleaving it finds is replayable bit-for-bit
//! from the recorded choice sequence alone.

use crate::replica::Replica;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spire_sim::{Backend, Context, Process, ProcessId, Span, Time, TimerId, Tracer};
use std::collections::BTreeMap;

/// Whether the intentionally-seeded ordering-quorum bug is compiled in
/// (feature `seeded-commit-bug`). The explorer records this in replay
/// artifacts so a reproduction knows which build to use.
pub const SEEDED_BUG_ACTIVE: bool = cfg!(feature = "seeded-commit-bug");

/// One injected nondeterministic event.
#[derive(Clone, Debug)]
pub enum Input {
    /// The process starts (fires `on_start`; arms the initial timers).
    Start,
    /// A frame is delivered from `from`.
    Deliver { from: ProcessId, bytes: Bytes },
    /// The pending timer with this tag fires.
    Timer { tag: u64 },
}

/// One captured side effect of a step.
#[derive(Clone, Debug)]
pub enum Effect {
    /// A frame sent to `to` (replica or client process).
    Send { to: ProcessId, bytes: Bytes },
    /// A timer armed `delay` after the step's injected time.
    SetTimer { delay: Span, tag: u64, id: TimerId },
    /// A pending timer cancelled (no-op if it already fired).
    CancelTimer { id: TimerId },
}

/// A [`Backend`] that records effects instead of performing them. Time is
/// whatever the caller injected; the RNG is seeded (the replica itself
/// never consults it, but the trait requires one); metrics aggregate into
/// a counter map so protocol instrumentation stays observable (the tracer
/// stays off). Unit tests of any process (a client, the cross-shard
/// coordinator) run over one.
pub struct RecordingBackend {
    /// The injected clock.
    pub now: Time,
    rng: StdRng,
    next_timer: u64,
    /// Effects not yet taken, in emission order.
    pub effects: Vec<Effect>,
    /// Every counter bumped so far.
    pub counters: BTreeMap<String, u64>,
    tracer: Tracer,
}

impl RecordingBackend {
    /// A backend at time zero with an RNG seeded from `seed`.
    pub fn new(seed: u64) -> RecordingBackend {
        RecordingBackend {
            now: Time::ZERO,
            rng: StdRng::seed_from_u64(seed),
            next_timer: 0,
            effects: Vec::new(),
            counters: BTreeMap::new(),
            tracer: Tracer::default(),
        }
    }
}

impl Backend for RecordingBackend {
    fn now(&self) -> Time {
        self.now
    }

    fn send_from(&mut self, _from: ProcessId, to: ProcessId, bytes: Bytes) {
        self.effects.push(Effect::Send { to, bytes });
    }

    fn set_timer(&mut self, _me: ProcessId, delay: Span, tag: u64) -> TimerId {
        self.next_timer += 1;
        let id = TimerId::from_raw(self.next_timer);
        self.effects.push(Effect::SetTimer { delay, tag, id });
        id
    }

    fn cancel_timer(&mut self, _me: ProcessId, timer: TimerId) {
        self.effects.push(Effect::CancelTimer { id: timer });
    }

    fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    fn count(&mut self, name: &str, delta: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    fn record(&mut self, _name: &str, _value: f64) {}

    fn observe(&mut self, _name: &str, _value: u64) {}

    fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }
}

/// A [`Replica`] wrapped behind the pure step seam.
pub struct ModelReplica {
    replica: Replica,
    pid: ProcessId,
    backend: RecordingBackend,
}

impl ModelReplica {
    /// Wraps `replica`, which will observe itself running as process
    /// `pid`. `seed` initialises the injected RNG (per-replica, so two
    /// model replicas never share randomness).
    pub fn new(replica: Replica, pid: ProcessId, seed: u64) -> ModelReplica {
        ModelReplica {
            replica,
            pid,
            backend: RecordingBackend::new(seed),
        }
    }

    /// The process id this replica believes it runs as.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Applies one input at the injected time and returns every side
    /// effect the replica produced, in emission order. The caller owns the
    /// clock: `now` must be monotonically non-decreasing across steps.
    pub fn step(&mut self, now: Time, input: Input) -> Vec<Effect> {
        debug_assert!(now >= self.backend.now, "model clock must not regress");
        self.backend.now = now;
        let mut ctx = Context::new(&mut self.backend, self.pid);
        match input {
            Input::Start => self.replica.on_start(&mut ctx),
            Input::Deliver { from, bytes } => self.replica.on_message(&mut ctx, from, &bytes),
            Input::Timer { tag } => self.replica.on_timer(&mut ctx, tag),
        }
        std::mem::take(&mut self.backend.effects)
    }

    /// A 64-bit digest of the replica's protocol-relevant state (see
    /// [`Replica::state_digest`]); the explorer's interleaving
    /// deduplication hashes these across the cluster.
    pub fn state_digest(&self) -> u64 {
        self.replica.state_digest()
    }

    /// Aggregated counter metrics recorded so far.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.backend.counters
    }

    /// Read access to the wrapped replica.
    pub fn replica(&self) -> &Replica {
        &self.replica
    }
}
