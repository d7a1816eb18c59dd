//! Structured tracing: flight recorder, causal spans, histograms, exporters.
//!
//! The paper's headline claims are latency-shaped — supervisory updates must
//! beat a 100 ms SLA even during view changes, proactive recovery and overlay
//! DoS — so end-to-end samples alone are not enough: this module shows *where*
//! the time goes. Four pieces, all zero-external-dependency:
//!
//! * Typed [`TraceKind`] events recorded into a bounded ring-buffer
//!   [`FlightRecorder`], whose tail is dumped on safety-check failure or
//!   panic for postmortems.
//! * Causal spans keyed by `(client, cseq)` via [`span_key`] that follow one
//!   supervisory update across protocol phases ([`SpanPhase`]): proxy submit →
//!   replica receive → pre-order certification → ordering → execution →
//!   f+1 confirmation. Phase marks are first-wins, so the span measures the
//!   fastest correct replica through each phase — the quantity the SLA sees.
//! * Log-bucketed [`Histogram`]s (32 sub-buckets per octave, ≤ ~1.6 %
//!   relative error) replacing raw sample vectors for high-volume series.
//! * Exporters: human-readable tail dump, JSONL event dump, and Chrome
//!   `trace_event` JSON loadable in `chrome://tracing` or Perfetto.
//!
//! The disabled mode is compile-cheap: every recording entry point checks one
//! `bool` and returns; event payloads are `Copy` scalars and `&'static str`,
//! so a disabled hook performs no heap allocation.

use crate::json::ObjWriter;
use crate::metrics::Metrics;
use crate::time::{Span, Time};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// A typed trace event. All payloads are `Copy` so constructing one on a
/// disabled tracer allocates nothing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceKind {
    /// A message left a process onto a link.
    MsgSend { from: u32, to: u32, len: u32 },
    /// A message was delivered to an up process.
    MsgRecv { to: u32, from: u32, len: u32 },
    /// A timer fired (possibly suppressed as stale at dispatch).
    TimerFire { pid: u32, tag: u64 },
    /// A process crashed.
    Crash { pid: u32 },
    /// A process restarted with a fresh state machine.
    Restart { pid: u32 },
    /// A replica installed a new view.
    ViewChange { replica: u32, view: u64 },
    /// A replica sent a suspect-leader message for its current view.
    SuspectLeader { replica: u32, view: u64 },
    /// A recovering replica began state transfer.
    RecoveryStart { replica: u32 },
    /// A recovering replica finished state transfer and rejoined.
    RecoveryDone { replica: u32 },
    /// A checkpoint became stable at a replica.
    Checkpoint { replica: u32, seq: u64 },
    /// A Spines daemon forwarded a data frame one hop.
    OverlayHop {
        daemon: u32,
        src: u16,
        dst: u16,
        ttl: u8,
    },
    /// A span phase mark (also kept in the tracer's span table).
    PhaseMark {
        pid: u32,
        key: u64,
        phase: SpanPhase,
    },
    /// A free-form labelled point event.
    Mark {
        pid: u32,
        label: &'static str,
        value: u64,
    },
}

impl TraceKind {
    /// Short machine-readable event name.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::MsgSend { .. } => "msg_send",
            TraceKind::MsgRecv { .. } => "msg_recv",
            TraceKind::TimerFire { .. } => "timer_fire",
            TraceKind::Crash { .. } => "crash",
            TraceKind::Restart { .. } => "restart",
            TraceKind::ViewChange { .. } => "view_change",
            TraceKind::SuspectLeader { .. } => "suspect_leader",
            TraceKind::RecoveryStart { .. } => "recovery_start",
            TraceKind::RecoveryDone { .. } => "recovery_done",
            TraceKind::Checkpoint { .. } => "checkpoint",
            TraceKind::OverlayHop { .. } => "overlay_hop",
            TraceKind::PhaseMark { .. } => "phase_mark",
            TraceKind::Mark { .. } => "mark",
        }
    }

    /// The process the event is attributed to (the sender for sends, the
    /// receiver for receives).
    pub fn pid(&self) -> u32 {
        match *self {
            TraceKind::MsgSend { from, .. } => from,
            TraceKind::MsgRecv { to, .. } => to,
            TraceKind::TimerFire { pid, .. }
            | TraceKind::Crash { pid }
            | TraceKind::Restart { pid }
            | TraceKind::PhaseMark { pid, .. }
            | TraceKind::Mark { pid, .. } => pid,
            TraceKind::ViewChange { replica, .. }
            | TraceKind::SuspectLeader { replica, .. }
            | TraceKind::RecoveryStart { replica }
            | TraceKind::RecoveryDone { replica }
            | TraceKind::Checkpoint { replica, .. } => replica,
            TraceKind::OverlayHop { daemon, .. } => daemon,
        }
    }

    /// Writes the event payload as fields of an open JSON object.
    fn write_json_args(&self, obj: &mut ObjWriter<'_>) {
        match *self {
            TraceKind::MsgSend { from, to, len } | TraceKind::MsgRecv { to, from, len } => {
                obj.num("from", from).num("to", to).num("len", len);
            }
            TraceKind::TimerFire { pid, tag } => {
                obj.num("pid", pid).num("tag", tag);
            }
            TraceKind::Crash { pid } | TraceKind::Restart { pid } => {
                obj.num("pid", pid);
            }
            TraceKind::ViewChange { replica, view }
            | TraceKind::SuspectLeader { replica, view } => {
                obj.num("replica", replica).num("view", view);
            }
            TraceKind::RecoveryStart { replica } | TraceKind::RecoveryDone { replica } => {
                obj.num("replica", replica);
            }
            TraceKind::Checkpoint { replica, seq } => {
                obj.num("replica", replica).num("seq", seq);
            }
            TraceKind::OverlayHop {
                daemon,
                src,
                dst,
                ttl,
            } => {
                obj.num("daemon", daemon)
                    .num("src", src)
                    .num("dst", dst)
                    .num("ttl", ttl);
            }
            TraceKind::PhaseMark { pid, key, phase } => {
                obj.num("pid", pid)
                    .num("key", key)
                    .str("phase", phase.name());
            }
            TraceKind::Mark { pid, label, value } => {
                obj.num("pid", pid).str("label", label).num("value", value);
            }
        }
    }

    /// Writes a terse human-readable description (for the tail dump).
    fn write_human(&self, out: &mut String) {
        match *self {
            TraceKind::MsgSend { from, to, len } => {
                let _ = write!(out, "send -> p{to} ({len} B) from p{from}");
            }
            TraceKind::MsgRecv { to, from, len } => {
                let _ = write!(out, "recv <- p{from} ({len} B) at p{to}");
            }
            TraceKind::TimerFire { tag, .. } => {
                let _ = write!(out, "timer fire tag={tag}");
            }
            TraceKind::Crash { .. } => {
                let _ = write!(out, "CRASH");
            }
            TraceKind::Restart { .. } => {
                let _ = write!(out, "restart");
            }
            TraceKind::ViewChange { view, .. } => {
                let _ = write!(out, "view change -> view {view}");
            }
            TraceKind::SuspectLeader { view, .. } => {
                let _ = write!(out, "suspect leader of view {view}");
            }
            TraceKind::RecoveryStart { .. } => {
                let _ = write!(out, "recovery start");
            }
            TraceKind::RecoveryDone { .. } => {
                let _ = write!(out, "recovery done");
            }
            TraceKind::Checkpoint { seq, .. } => {
                let _ = write!(out, "checkpoint stable at seq {seq}");
            }
            TraceKind::OverlayHop { src, dst, ttl, .. } => {
                let _ = write!(out, "overlay hop {src}->{dst} ttl={ttl}");
            }
            TraceKind::PhaseMark { key, phase, .. } => {
                let _ = write!(out, "span {key:#x} phase {}", phase.name());
            }
            TraceKind::Mark { label, value, .. } => {
                let _ = write!(out, "{label}={value}");
            }
        }
    }
}

/// A timestamped trace event.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Virtual time the event happened.
    pub at: Time,
    /// What happened.
    pub kind: TraceKind,
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// Bounded ring buffer of recent trace events.
///
/// When full, the oldest event is evicted and counted in
/// [`FlightRecorder::dropped`], so the recorder always holds the most recent
/// window — exactly what a postmortem needs.
#[derive(Clone, Debug, Default)]
pub struct FlightRecorder {
    buf: VecDeque<TraceEvent>,
    cap: usize,
    dropped: u64,
}

impl FlightRecorder {
    /// Creates a recorder holding at most `cap` events.
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder {
            buf: VecDeque::with_capacity(cap.min(1 << 20)),
            cap,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest when at capacity.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of events evicted (oldest-first) since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates the held events oldest-first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Iterates the most recent `n` events oldest-first.
    pub fn tail(&self, n: usize) -> impl Iterator<Item = &TraceEvent> {
        let skip = self.buf.len().saturating_sub(n);
        self.buf.iter().skip(skip)
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Protocol phases a supervisory update passes through, in causal order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum SpanPhase {
    /// Client (RTU proxy or HMI) signed and sent the operation.
    Submit,
    /// A replica accepted the operation (signature + dedup passed).
    Recv,
    /// The operation's PO-Request became certified (2f+k+1 acks).
    Preorder,
    /// The containing matrix slot was globally ordered (committed).
    Order,
    /// A replica executed the operation against the application.
    Execute,
    /// The client collected f+1 matching replies.
    Confirm,
}

/// Number of [`SpanPhase`] variants.
pub const SPAN_PHASES: usize = 6;

impl SpanPhase {
    /// Every phase, in causal order.
    pub const ALL: [SpanPhase; SPAN_PHASES] = [
        SpanPhase::Submit,
        SpanPhase::Recv,
        SpanPhase::Preorder,
        SpanPhase::Order,
        SpanPhase::Execute,
        SpanPhase::Confirm,
    ];

    /// Index into a per-span phase-time array.
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Short phase name.
    pub fn name(self) -> &'static str {
        match self {
            SpanPhase::Submit => "submit",
            SpanPhase::Recv => "recv",
            SpanPhase::Preorder => "preorder",
            SpanPhase::Order => "order",
            SpanPhase::Execute => "execute",
            SpanPhase::Confirm => "confirm",
        }
    }
}

/// Packs a client id and client sequence number into a span key.
///
/// Client ids fit in 24 bits and sequence numbers in 40 bits for any run this
/// simulator can complete, so the packing is collision-free in practice.
pub fn span_key(client: u32, cseq: u64) -> u64 {
    ((client as u64) << 40) | (cseq & 0xFF_FFFF_FFFF)
}

/// Histogram names for each adjacent phase delta plus the end-to-end total,
/// as `(histogram name, start phase, end phase)`.
pub const SPAN_DELTAS: [(&str, SpanPhase, SpanPhase); 6] = [
    ("span.overlay_in_us", SpanPhase::Submit, SpanPhase::Recv),
    ("span.preorder_us", SpanPhase::Recv, SpanPhase::Preorder),
    ("span.order_us", SpanPhase::Preorder, SpanPhase::Order),
    ("span.execute_us", SpanPhase::Order, SpanPhase::Execute),
    ("span.confirm_us", SpanPhase::Execute, SpanPhase::Confirm),
    ("span.total_us", SpanPhase::Submit, SpanPhase::Confirm),
];

/// One span's first-wins timestamps per phase.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    /// Key from [`span_key`].
    pub key: u64,
    /// First time each phase was reached, indexed by [`SpanPhase::idx`].
    pub at: [Option<Time>; SPAN_PHASES],
}

impl SpanRecord {
    /// The client id encoded in the key.
    pub fn client(&self) -> u32 {
        (self.key >> 40) as u32
    }

    /// The client sequence number encoded in the key.
    pub fn cseq(&self) -> u64 {
        self.key & 0xFF_FFFF_FFFF
    }

    /// When the span reached `phase`, unless that was after its
    /// [`SpanPhase::Confirm`]: a slower replica's late mark does not count.
    fn reached(&self, phase: SpanPhase) -> Option<Time> {
        let confirm = self.at[SpanPhase::Confirm.idx()];
        self.at[phase.idx()].filter(|at| confirm.is_none_or(|confirm| *at <= confirm))
    }

    /// `(start, end)` of the interval from phase `a` to phase `b`, when
    /// the span reached both, in that order.
    fn interval(&self, a: SpanPhase, b: SpanPhase) -> Option<(Time, Time)> {
        let (start, end) = (self.reached(a)?, self.reached(b)?);
        (end >= start).then_some((start, end))
    }

    /// Phase deltas in microseconds, for each [`SPAN_DELTAS`] entry whose
    /// endpoints were both reached.
    pub fn phase_deltas(&self) -> Vec<(&'static str, u64)> {
        let delta = |(start, end): (Time, Time)| end.0 - start.0;
        (SPAN_DELTAS.iter())
            .filter_map(|&(name, a, b)| Some((name, delta(self.interval(a, b)?))))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Sub-bucket resolution: 2^5 = 32 sub-buckets per power of two.
const HIST_SUB_BITS: u32 = 5;
const HIST_SUB: u64 = 1 << HIST_SUB_BITS;

/// Log-bucketed histogram of `u64` values (typically microseconds).
///
/// Values below 32 get exact unit buckets; above that, each power of two is
/// split into 32 sub-buckets, bounding relative error at 1/64 (~1.6 %).
/// Memory is O(buckets touched), growing on demand; merging is element-wise.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

fn bucket_index(v: u64) -> usize {
    if v < HIST_SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as u64;
    let shift = msb - HIST_SUB_BITS as u64;
    let sub = (v >> shift) & (HIST_SUB - 1);
    ((msb - HIST_SUB_BITS as u64 + 1) * HIST_SUB + sub) as usize
}

/// Lowest value mapping to bucket `idx`.
fn bucket_lo(idx: usize) -> u64 {
    if idx < HIST_SUB as usize {
        return idx as u64;
    }
    let q = (idx as u64) >> HIST_SUB_BITS;
    let sub = (idx as u64) & (HIST_SUB - 1);
    // u128 intermediate: the topmost buckets' bounds would wrap in u64.
    let lo = ((HIST_SUB + sub) as u128) << (q - 1);
    lo.min(u64::MAX as u128) as u64
}

/// Midpoint of bucket `idx`, the representative value for percentiles.
fn bucket_mid(idx: usize) -> f64 {
    if idx < HIST_SUB as usize {
        return idx as f64;
    }
    let q = (idx as u64) >> HIST_SUB_BITS;
    let width = 1u64 << (q - 1);
    bucket_lo(idx) as f64 + (width - 1) as f64 / 2.0
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one value.
    pub fn observe(&mut self, value: u64) {
        let idx = bucket_index(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value as u128;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded value (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 if empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Mean of recorded values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate percentile (`pct` in 0..=100; clamped outside).
    ///
    /// Exact at the extremes (`min`/`max`); elsewhere accurate to the bucket
    /// width, i.e. within ~1.6 % relative error.
    pub fn percentile(&self, pct: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if pct <= 0.0 {
            return self.min as f64;
        }
        if pct >= 100.0 {
            return self.max as f64;
        }
        let target = ((pct / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (idx, c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_mid(idx).clamp(self.min as f64, self.max as f64);
            }
        }
        self.max as f64
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (slot, c) in self.counts.iter_mut().zip(other.counts.iter()) {
            *slot += c;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

/// Spans kept in the table; beyond this the span with the oldest first
/// mark is evicted (clients that never confirm must not leak memory).
const MAX_SPANS: usize = 200_000;

/// One span's entry in the table.
#[derive(Clone, Copy, Debug, Default)]
struct SpanEntry {
    /// First-wins timestamp of each phase, indexed by [`SpanPhase::idx`].
    at: [Option<Time>; SPAN_PHASES],
    /// Whether [`Tracer::fold_spans`] has counted the span.
    folded: bool,
}

/// A backend's tracing front end: flight recorder, span table (first-wins
/// phase marks) and the names of the processes both refer to. Each
/// real-clock worker records into a clone of the fabric's, merged back
/// ([`Tracer::merge`]) when the runtime shuts down.
///
/// Disabled by default. Every recording method begins with a single branch on
/// `enabled`, so the disabled hot path does no work and no allocation.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    enabled: bool,
    recorder: FlightRecorder,
    spans: BTreeMap<u64, SpanEntry>,
    /// The table's keys by first mark, oldest first: the eviction order.
    span_order: VecDeque<u64>,
    overlay: HashSet<u32>,
    /// Process names, indexed by pid.
    pub(crate) names: Vec<String>,
}

impl Tracer {
    /// Enables tracing in place with a flight recorder of `cap` events.
    /// Overlay-pid marks and process names made earlier are preserved.
    pub fn enable(&mut self, cap: usize) {
        self.enabled = true;
        self.recorder = FlightRecorder::new(cap);
    }

    /// Whether tracing is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event into the flight recorder. No-op (and no allocation)
    /// when disabled.
    #[inline]
    pub fn record(&mut self, at: Time, kind: TraceKind) {
        if !self.enabled {
            return;
        }
        self.recorder.push(TraceEvent { at, kind });
    }

    /// Marks a span phase (first-wins: the earliest mark of a phase is
    /// kept). Marks arrive in time order, so a new key is the youngest
    /// entry; past the table's bound (200 000 spans) the oldest is evicted.
    #[inline]
    pub fn mark(&mut self, at: Time, pid: u32, key: u64, phase: SpanPhase) {
        if !self.enabled {
            return;
        }
        self.record(at, TraceKind::PhaseMark { pid, key, phase });
        let entry = self.spans.entry(key).or_insert_with(|| {
            self.span_order.push_back(key);
            SpanEntry::default()
        });
        entry.at[phase.idx()].get_or_insert(at);
        self.evict();
    }

    /// Drops the oldest spans until the table fits [`MAX_SPANS`].
    fn evict(&mut self) {
        while self.spans.len() > MAX_SPANS {
            let oldest = self.span_order.pop_front().expect("order lists every key");
            self.spans.remove(&oldest);
        }
    }

    /// Merges another tracer's recording into this one: one ring in time
    /// order, cut to this one's capacity, and span marks phase by phase
    /// (the earlier mark wins). Settings and process names stay this
    /// tracer's.
    pub fn merge(&mut self, other: Tracer) {
        // Each ring held the latest window of its own stream, so cutting
        // the merged one from the oldest end keeps the latest of both.
        let (ring, theirs) = (&mut self.recorder, other.recorder);
        let mut all: Vec<TraceEvent> = ring.buf.drain(..).chain(theirs.buf).collect();
        all.sort_by_key(|ev| ev.at);
        let cut = all.len().saturating_sub(ring.cap);
        ring.dropped += theirs.dropped + cut as u64;
        ring.buf.extend(all.drain(cut..));
        for (key, entry) in other.spans {
            let mine = self.spans.entry(key).or_default();
            for (slot, at) in mine.at.iter_mut().zip(entry.at) {
                *slot = (*slot).into_iter().chain(at).min();
            }
            mine.folded |= entry.folded;
        }
        let mut order: Vec<(Option<Time>, u64)> = (self.spans.iter())
            .map(|(key, entry)| (entry.at.iter().flatten().min().copied(), *key))
            .collect();
        order.sort_unstable();
        self.span_order = order.into_iter().map(|(_, key)| key).collect();
        self.evict();
    }

    /// Turns every confirmed span not yet counted into the `span.*_us`
    /// histograms ([`SPAN_DELTAS`]), each span once. The simulator folds
    /// when a run segment ends; the real-clock runtime after merging its
    /// workers' tracers, since a span's marks are spread across them.
    pub fn fold_spans(&mut self, metrics: &mut Metrics) {
        for (&key, entry) in self.spans.iter_mut() {
            if !entry.folded && entry.at[SpanPhase::Confirm.idx()].is_some() {
                entry.folded = true;
                for (name, delta) in (SpanRecord { key, at: entry.at }).phase_deltas() {
                    metrics.observe(name, delta);
                }
            }
        }
    }

    /// Records a frame `[from, to, len]` sent, due `hop` later. The hop of
    /// a daemon-to-daemon frame also goes to `overlay.hop_us`.
    #[inline]
    pub fn record_send(&mut self, at: Time, [from, to, len]: [u32; 3], hop: Span, m: &mut Metrics) {
        self.record(at, TraceKind::MsgSend { from, to, len });
        if self.enabled && self.overlay.contains(&from) && self.overlay.contains(&to) {
            m.observe("overlay.hop_us", hop.0);
        }
    }

    /// Marks a process as an overlay daemon, for
    /// [`Tracer::record_send`]. Works before `enable` so deployments can
    /// mark at build time.
    pub fn mark_overlay(&mut self, pid: u32) {
        self.overlay.insert(pid);
    }

    /// The name of process `pid` (`p<pid>` for one never named).
    pub fn process_name(&self, pid: u32) -> String {
        (self.names.get(pid as usize)).map_or_else(|| format!("p{pid}"), String::clone)
    }

    /// The flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The table's entry for span `key`, confirmed or not.
    fn span(&self, key: u64) -> Option<SpanRecord> {
        (self.spans.get(&key)).map(|entry| SpanRecord { key, at: entry.at })
    }

    /// Every confirmed span in the table, in confirmation order.
    pub(crate) fn confirmed_spans(&self) -> Vec<SpanRecord> {
        let mut spans: Vec<SpanRecord> = (self.span_order.iter())
            .filter_map(|&key| self.span(key))
            .filter(|rec| rec.at[SpanPhase::Confirm.idx()].is_some())
            .collect();
        spans.sort_by_key(|rec| rec.at[SpanPhase::Confirm.idx()]);
        spans
    }

    // -- Exporters ----------------------------------------------------------

    /// Human-readable dump of the last `n` events, one per line, for
    /// postmortems (safety-check failure, replica panic).
    pub fn dump_tail(&self, n: usize) -> String {
        let mut out = String::new();
        let total = self.recorder.len();
        let shown = n.min(total);
        let _ = writeln!(
            out,
            "flight recorder: showing last {shown} of {total} held events ({} evicted)",
            self.recorder.dropped()
        );
        for ev in self.recorder.tail(n) {
            let pid = ev.kind.pid();
            let _ = write!(
                out,
                "[{:>12.6}s] {:<12} {:<14} ",
                ev.at.0 as f64 / 1e6,
                self.process_name(pid),
                ev.kind.name()
            );
            ev.kind.write_human(&mut out);
            out.push('\n');
        }
        out
    }

    /// JSONL export: one JSON object per line — every held event, then every
    /// confirmed span. Process names are escaped like any other string.
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.recorder.events() {
            let mut obj = ObjWriter::new(&mut out);
            obj.num("ts_us", ev.at.0)
                .str("ev", ev.kind.name())
                .str("proc", &self.process_name(ev.kind.pid()));
            ev.kind.write_json_args(&mut obj);
            obj.end();
            out.push('\n');
        }
        for rec in self.confirmed_spans() {
            let mut obj = ObjWriter::new(&mut out);
            obj.str("ev", "span")
                .num("client", rec.client())
                .num("cseq", rec.cseq());
            for phase in SpanPhase::ALL {
                if let Some(t) = rec.reached(phase) {
                    obj.num(&format!("{}_us", phase.name()), t.0);
                }
            }
            obj.end();
            out.push('\n');
        }
        out
    }

    /// Chrome `trace_event` JSON (array form), loadable in `chrome://tracing`
    /// or Perfetto.
    ///
    /// Layout: trace pid 0 carries instant events, one lane (tid) per
    /// process, named via metadata records; trace pid 1 carries one lane per
    /// confirmed supervisory update with an `X` (complete) slice per phase.
    /// Substrate microseconds (virtual on the simulator, since start on rt)
    /// map directly to the `ts`/`dur` fields.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("[");
        // Starts the next array element: one object per line.
        fn element(out: &mut String) -> ObjWriter<'_> {
            if out.len() > 1 {
                out.push(',');
            }
            out.push('\n');
            ObjWriter::new(out)
        }
        let lane_name = |out: &mut String, kind: &str, pid: u64, tid: u64, name: &str| {
            let mut obj = element(out);
            obj.str("name", kind)
                .str("ph", "M")
                .num("pid", pid)
                .num("tid", tid);
            let mut args = obj.obj("args");
            args.str("name", name);
            args.end();
            obj.end();
        };
        lane_name(&mut out, "process_name", 0, 0, "sim events");
        lane_name(&mut out, "process_name", 1, 0, "supervisory updates");
        let mut pids: Vec<u32> = self.recorder.events().map(|e| e.kind.pid()).collect();
        pids.sort_unstable();
        pids.dedup();
        for pid in pids {
            lane_name(
                &mut out,
                "thread_name",
                0,
                pid.into(),
                &self.process_name(pid),
            );
        }
        for ev in self.recorder.events() {
            let mut obj = element(&mut out);
            obj.str("name", ev.kind.name())
                .str("ph", "i")
                .str("s", "t")
                .num("pid", 0u64)
                .num("tid", ev.kind.pid())
                .num("ts", ev.at.0);
            let mut args = obj.obj("args");
            ev.kind.write_json_args(&mut args);
            args.end();
            obj.end();
        }
        for rec in self.confirmed_spans() {
            let slice = |out: &mut String, &(name, a, b): &(&str, SpanPhase, SpanPhase)| {
                let Some((start, end)) = rec.interval(a, b) else {
                    return false;
                };
                let mut obj = element(out);
                obj.str("name", name)
                    .str("cat", "update")
                    .str("ph", "X")
                    .num("pid", 1u64)
                    .num("tid", rec.key % 1_000_000)
                    .num("ts", start.0)
                    .num("dur", end.0 - start.0);
                let mut args = obj.obj("args");
                args.num("client", rec.client()).num("cseq", rec.cseq());
                args.end();
                obj.end();
                true
            };
            // One slice per adjacent phase pair (skip the total — it would
            // just shadow the others on the same lane). A span too sparse for
            // any adjacent pair still gets its end-to-end slice.
            let (total, adjacent) = SPAN_DELTAS.split_last().expect("SPAN_DELTAS is non-empty");
            let mut sliced = false;
            for delta in adjacent {
                sliced |= slice(&mut out, delta);
            }
            if !sliced {
                slice(&mut out, total);
            }
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::default();
        t.record(
            Time(1),
            TraceKind::MsgSend {
                from: 0,
                to: 1,
                len: 8,
            },
        );
        t.mark(Time(2), 0, span_key(1, 1), SpanPhase::Confirm);
        assert_eq!(t.recorder().len(), 0);
        assert!(t.span(span_key(1, 1)).is_none());
    }

    #[test]
    fn ring_buffer_keeps_tail_and_counts_drops() {
        let mut r = FlightRecorder::new(3);
        for i in 0..5u64 {
            r.push(mark_event(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let times: Vec<u64> = r.events().map(|e| e.at.0).collect();
        assert_eq!(times, vec![2, 3, 4]);
        let tail: Vec<u64> = r.tail(2).map(|e| e.at.0).collect();
        assert_eq!(tail, vec![3, 4]);
    }

    fn mark_event(at: u64) -> TraceEvent {
        TraceEvent {
            at: Time(at),
            kind: TraceKind::Mark {
                pid: 0,
                label: "x",
                value: at,
            },
        }
    }

    #[test]
    fn span_phases_first_wins_and_complete_on_confirm() {
        let mut t = Tracer::default();
        t.enable(64);
        let key = span_key(7, 42);
        t.mark(Time(10), 1, key, SpanPhase::Submit);
        t.mark(Time(20), 2, key, SpanPhase::Recv);
        // A slower replica's re-mark must not move the phase time.
        t.mark(Time(25), 3, key, SpanPhase::Recv);
        t.mark(Time(30), 2, key, SpanPhase::Preorder);
        t.mark(Time(40), 2, key, SpanPhase::Order);
        t.mark(Time(50), 2, key, SpanPhase::Execute);
        let mut m = Metrics::new();
        t.fold_spans(&mut m);
        assert!(m.histogram("span.total_us").is_none(), "not confirmed yet");
        t.mark(Time(60), 1, key, SpanPhase::Confirm);
        let rec = t.span(key).unwrap();
        assert_eq!(rec.client(), 7);
        assert_eq!(rec.cseq(), 42);
        let deltas = rec.phase_deltas();
        assert_eq!(
            deltas,
            vec![
                ("span.overlay_in_us", 10),
                ("span.preorder_us", 10),
                ("span.order_us", 10),
                ("span.execute_us", 10),
                ("span.confirm_us", 10),
                ("span.total_us", 50),
            ]
        );
        // Folding counts the span once, however often it runs.
        t.fold_spans(&mut m);
        t.mark(Time(70), 4, key, SpanPhase::Execute);
        t.fold_spans(&mut m);
        for (name, delta) in deltas {
            let h = m.histogram(name).unwrap();
            assert_eq!((h.count(), h.min()), (1, delta), "{name}");
        }
        assert_eq!(t.confirmed_spans().len(), 1);
    }

    #[test]
    fn partial_span_reports_only_known_deltas() {
        let mut t = Tracer::default();
        t.enable(64);
        let key = span_key(3, 9);
        t.mark(Time(5), 0, key, SpanPhase::Execute);
        t.mark(Time(9), 0, key, SpanPhase::Confirm);
        // A phase first reached after the confirmation does not count.
        t.mark(Time(12), 1, key, SpanPhase::Order);
        let rec = t.span(key).unwrap();
        assert_eq!(rec.phase_deltas(), vec![("span.confirm_us", 4)]);
    }

    /// Every confirmed update leaves slower replicas' marks behind it. Two
    /// clients run past the table's bound: the eviction takes the oldest
    /// spans, never the lowest client's live one.
    #[test]
    fn late_replica_marks_do_not_evict_a_live_span() {
        let mut t = Tracer::default();
        t.enable(16);
        let ops = MAX_SPANS as u64 / 2 + 10_000;
        let mut now = 0;
        for cseq in 0..ops {
            for client in [0, 1] {
                let key = span_key(client, cseq);
                for phase in SpanPhase::ALL {
                    now += 1;
                    t.mark(Time(now), 1, key, phase);
                }
                t.mark(Time(now + 1), 2, key, SpanPhase::Recv);
            }
        }
        let last = t.span(span_key(0, ops - 1)).expect("client 0's last span");
        assert!(last.at.iter().all(Option::is_some), "{last:?}");
        assert!(
            t.span(span_key(0, 0)).is_none(),
            "the oldest span was evicted"
        );
        assert_eq!(t.confirmed_spans().len(), MAX_SPANS);
    }

    /// On rt a span's marks are spread across workers: merged, they fold
    /// into the histograms one tracer that saw every mark folds into, and
    /// the earlier mark of a phase wins.
    #[test]
    fn marks_split_across_tracers_fold_like_one() {
        let (mut whole, mut proxy, mut replicas) =
            (Tracer::default(), Tracer::default(), Tracer::default());
        for t in [&mut whole, &mut proxy, &mut replicas] {
            t.enable(64);
        }
        for cseq in 0..5u64 {
            let key = span_key(4, cseq);
            let base = cseq * 1_000;
            for (i, phase) in SpanPhase::ALL.into_iter().enumerate() {
                let at = Time(base + 10 * i as u64 + cseq);
                whole.mark(at, 0, key, phase);
                let worker = if matches!(phase, SpanPhase::Submit | SpanPhase::Confirm) {
                    &mut proxy
                } else {
                    &mut replicas
                };
                worker.mark(at, 0, key, phase);
            }
            // A later Recv on the proxy's worker loses to the replica's.
            proxy.mark(Time(base + 15), 1, key, SpanPhase::Recv);
            whole.mark(Time(base + 15), 1, key, SpanPhase::Recv);
        }
        let mut merged = proxy;
        merged.merge(replicas);
        let (mut one, mut two) = (Metrics::new(), Metrics::new());
        whole.fold_spans(&mut one);
        merged.fold_spans(&mut two);
        for (name, _, _) in SPAN_DELTAS {
            let (a, b) = (one.histogram(name).unwrap(), two.histogram(name).unwrap());
            assert_eq!(a.count(), 5, "{name}");
            assert_eq!(
                (a.count(), a.min(), a.max()),
                (b.count(), b.min(), b.max()),
                "{name}"
            );
            assert_eq!(a.percentile(50.0), b.percentile(50.0), "{name}");
        }
        let first = merged.span(span_key(4, 0)).unwrap();
        assert_eq!(first.at[SpanPhase::Recv.idx()], Some(Time(10)));
        assert_eq!(merged.recorder().len(), whole.recorder().len());
    }

    #[test]
    fn merged_ring_keeps_time_order_and_capacity() {
        let (mut a, mut b) = (Tracer::default(), Tracer::default());
        for (t, times) in [
            (&mut a, [1, 4, 6, 7, 9].as_slice()),
            (&mut b, &[2, 3, 5, 8]),
        ] {
            t.enable(4);
            for &at in times {
                t.record(Time(at), mark_event(at).kind);
            }
        }
        a.merge(b);
        let times: Vec<u64> = a.recorder().events().map(|e| e.at.0).collect();
        assert_eq!(times, vec![6, 7, 8, 9]);
        // One evicted by `a` itself, four cut by the merge.
        assert_eq!(a.recorder().dropped(), 5);
    }

    #[test]
    fn span_key_round_trips() {
        let rec = SpanRecord {
            key: span_key(1000, 123_456),
            at: [None; SPAN_PHASES],
        };
        assert_eq!(rec.client(), 1000);
        assert_eq!(rec.cseq(), 123_456);
    }

    #[test]
    fn histogram_buckets_are_consistent() {
        // Every bucket's lo bound maps back to that bucket, and values are
        // never placed below their bucket's lo. The largest reachable index
        // is bucket_index(u64::MAX) = 1919.
        assert_eq!(bucket_index(u64::MAX), 1919);
        for idx in 0..=1919usize {
            let lo = bucket_lo(idx);
            assert_eq!(bucket_index(lo), idx, "lo of bucket {idx}");
        }
        for v in [0u64, 1, 31, 32, 63, 64, 100, 1_000, 123_456, u64::MAX / 2] {
            let idx = bucket_index(v);
            assert!(bucket_lo(idx) <= v);
            assert!(v < bucket_lo(idx + 1), "v={v} idx={idx}");
        }
    }

    #[test]
    fn histogram_percentiles_close_to_exact() {
        // Uniform 1..=100_000: bucketed percentiles must be within a few
        // percent of the exact order statistics.
        let mut h = Histogram::new();
        let mut exact: Vec<u64> = Vec::new();
        for v in 1..=100_000u64 {
            h.observe(v);
            exact.push(v);
        }
        assert_eq!(h.count(), 100_000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100_000);
        for pct in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9] {
            let approx = h.percentile(pct);
            let rank = ((pct / 100.0) * exact.len() as f64).ceil().max(1.0) as usize - 1;
            let truth = exact[rank] as f64;
            let rel = (approx - truth).abs() / truth;
            assert!(rel < 0.03, "pct={pct} approx={approx} truth={truth}");
        }
        assert_eq!(h.percentile(0.0), 1.0);
        assert_eq!(h.percentile(100.0), 100_000.0);
        let mean = h.mean();
        assert!((mean - 50_000.5).abs() < 1e-6, "mean={mean}");
    }

    #[test]
    fn histogram_merge_matches_combined() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in 0..1000u64 {
            a.observe(v * 3);
            both.observe(v * 3);
        }
        for v in 0..500u64 {
            b.observe(v * 7 + 1);
            both.observe(v * 7 + 1);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
        for pct in [5.0, 50.0, 95.0] {
            assert_eq!(a.percentile(pct), both.percentile(pct));
        }
        // Merging into an empty histogram copies.
        let mut empty = Histogram::new();
        empty.merge(&both);
        assert_eq!(empty.count(), both.count());
        assert_eq!(empty.min(), both.min());
    }

    #[test]
    fn chrome_trace_is_wellformed_array() {
        let mut t = Tracer::default();
        t.enable(64);
        t.record(
            Time(100),
            TraceKind::MsgSend {
                from: 0,
                to: 1,
                len: 16,
            },
        );
        let key = span_key(2, 1);
        t.mark(Time(100), 0, key, SpanPhase::Submit);
        t.mark(Time(300), 1, key, SpanPhase::Confirm);
        t.names.push("proc-0".into());
        let json = t.chrome_trace();
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("proc-0"));
        // No empty elements / trailing commas.
        assert!(!json.contains(",,"));
        assert!(!json.contains(",]"));
        assert!(!json.contains(",\n]"));
    }

    #[test]
    fn jsonl_one_object_per_line() {
        let mut t = Tracer::default();
        t.enable(64);
        t.record(Time(1), TraceKind::Crash { pid: 3 });
        let key = span_key(1, 1);
        t.mark(Time(2), 0, key, SpanPhase::Submit);
        t.mark(Time(8), 0, key, SpanPhase::Confirm);
        let jsonl = t.events_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        // crash + two phase marks + one span line
        assert_eq!(lines.len(), 4);
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(jsonl.contains("\"ev\":\"span\""));
        assert!(jsonl.contains("\"submit_us\":2"));
        assert!(jsonl.contains("\"confirm_us\":8"));
    }

    #[test]
    fn dump_tail_is_human_readable() {
        let mut t = Tracer::default();
        t.enable(8);
        t.record(
            Time(1_500_000),
            TraceKind::ViewChange {
                replica: 2,
                view: 3,
            },
        );
        t.names = ["replica-0", "replica-1", "replica-2"]
            .map(String::from)
            .into();
        let dump = t.dump_tail(10);
        assert!(dump.contains("view_change"));
        assert!(dump.contains("replica-2"));
        assert!(dump.contains("view 3"));
    }
}
