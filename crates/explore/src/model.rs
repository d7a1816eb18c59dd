//! What the drivers explore: a [`Model`] builds [`Run`]s, a run applies
//! [`Choice`]s and answers the questions the random driver and the
//! shrinker ask. The Prime cluster ([`crate::cluster`]) and the
//! cross-shard 2PC machine ([`crate::xshard`]) are the two models.

use crate::fnv64;
use crate::schedule::{Choice, MsgKey};
use bytes::Bytes;
use spire_sim::Time;
use std::collections::BTreeMap;

/// One category of the random driver's adversary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Adversary {
    /// Inject a fresh client op.
    Inject,
    /// FIFO delivery: the common case, keeps episodes making progress.
    Fifo,
    /// Reorder: deliver a uniformly random pending message.
    Reorder,
    /// Fire the earliest-due timer (realistic clock progression).
    FireNext,
    /// Duplicate a random pending message.
    Duplicate,
    /// Drop a random pending message.
    Drop,
    /// Partition burst: pick a random side-assignment and drop every
    /// pending message that crosses the cut.
    Partition,
    /// Timing skew: fire a uniformly random armed timer.
    Skew,
}

/// An explorable system: immutable per-scenario state (keys, pre-signed
/// ops) from which fresh runs are built, so episodes are cheap.
pub trait Model {
    /// One execution of the model, borrowing its immutable state.
    type Run<'a>: Run
    where
        Self: 'a;

    /// The random driver's adversary for this model: categories in roll
    /// order with their percent weights (summing to 100).
    const WEIGHTS: &'static [(Adversary, u32)];

    /// What [`Run::progress`] counts, for report lines.
    const PROGRESS: &'static str;

    /// A fresh run at genesis. Deterministic: two builds from the same
    /// model are bit-for-bit identical.
    fn build(&self) -> Self::Run<'_>;

    /// Builds a run and applies `events` in order (unreplayable choices
    /// are skipped as no-ops). This is the replay primitive the explorer,
    /// the shrinker and `--replay` all share.
    fn replay(&self, events: &[Choice]) -> Self::Run<'_> {
        let mut run = self.build();
        for choice in events {
            run.apply(choice);
        }
        run
    }
}

/// A running model plus its explicit nondeterminism pool.
pub trait Run {
    /// Applies one choice. Returns `false` (and changes nothing — the
    /// choice is *not* appended to the schedule) when it references an op
    /// already injected, a message no longer pending, or a timer not
    /// armed: the property that makes shrinking by plain event removal
    /// sound.
    fn apply(&mut self, choice: &Choice) -> bool;

    /// True while every invariant of the model's oracle holds.
    fn ok(&self) -> bool;

    /// Distinct kinds of the violations recorded so far.
    fn violation_kinds(&self) -> Vec<String>;

    /// The applied schedule, replayable via [`Model::replay`].
    fn schedule(&self) -> &[Choice];

    /// The pending messages.
    fn pool(&self) -> &MessagePool;

    /// Armed timers worth firing as `(process, tag, due)`, earliest due
    /// first.
    fn armed_timers(&self) -> Vec<(u32, u64, Time)>;

    /// Ops not yet injected.
    fn uninjected_ops(&self) -> Vec<u32>;

    /// Progress evidence (see [`Model::PROGRESS`]).
    fn progress(&self) -> u64;

    /// Pending message keys in key order (deterministic).
    fn pending_keys(&self) -> Vec<MsgKey> {
        self.pool().keys().cloned().collect()
    }

    /// The pending message emitted longest ago, if any (FIFO delivery).
    fn oldest_pending(&self) -> Option<MsgKey> {
        self.pool().oldest_where(|_, _| true)
    }
}

/// The in-flight messages of a run, content-addressed by [`MsgKey`].
#[derive(Default)]
pub struct MessagePool {
    /// key -> (emission order, frame bytes).
    pending: BTreeMap<MsgKey, (u64, Bytes)>,
    /// (from, to, digest) -> emission count, for `MsgKey::nth`.
    emitted: BTreeMap<(u32, u32, u64), u32>,
    emit_seq: u64,
}

impl MessagePool {
    /// Adds a frame travelling `from` -> `to`.
    pub fn enqueue(&mut self, from: u32, to: u32, bytes: Bytes) {
        let digest = fnv64(&bytes);
        let nth = self.emitted.entry((from, to, digest)).or_insert(0);
        let key = MsgKey {
            from,
            to,
            digest,
            nth: *nth,
        };
        *nth += 1;
        self.emit_seq += 1;
        self.pending.insert(key, (self.emit_seq, bytes));
    }

    /// Removes a pending message (delivery or drop) and returns its bytes.
    pub fn take(&mut self, key: &MsgKey) -> Option<Bytes> {
        self.pending.remove(key).map(|(_, bytes)| bytes)
    }

    /// Enqueues a second copy of a pending message; false if it is gone.
    pub fn duplicate(&mut self, key: &MsgKey) -> bool {
        let Some(bytes) = self.pending.get(key).map(|(_, bytes)| bytes.clone()) else {
            return false;
        };
        self.enqueue(key.from, key.to, bytes);
        true
    }

    /// Pending keys in key order.
    pub fn keys(&self) -> impl Iterator<Item = &MsgKey> {
        self.pending.keys()
    }

    /// The pending message enqueued earliest among those `pick` accepts
    /// (a schedule may hold some traffic back).
    pub fn oldest_where(&self, pick: impl Fn(&MsgKey, &Bytes) -> bool) -> Option<MsgKey> {
        self.pending
            .iter()
            .filter(|(key, (_, bytes))| pick(key, bytes))
            .min_by_key(|(_, (seq, _))| *seq)
            .map(|(key, _)| key.clone())
    }
}
