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
use crate::time::Time;
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
    /// A span phase mark (also fed to the span tracker).
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

/// A completed (or abandoned) span: first-wins timestamps per phase.
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

    /// Phase deltas in microseconds, for each [`SPAN_DELTAS`] entry whose
    /// endpoints were both reached.
    pub fn phase_deltas(&self) -> Vec<(&'static str, u64)> {
        let mut out = Vec::with_capacity(SPAN_DELTAS.len());
        for (name, a, b) in SPAN_DELTAS {
            if let (Some(start), Some(end)) = (self.at[a.idx()], self.at[b.idx()]) {
                if end >= start {
                    out.push((name, end.0 - start.0));
                }
            }
        }
        out
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

/// Spans still collecting phase marks are capped; beyond this the oldest is
/// abandoned (clients that never confirm must not leak memory).
const MAX_OPEN_SPANS: usize = 1 << 16;
/// Completed spans kept for export.
const MAX_COMPLETED_SPANS: usize = 200_000;

/// The per-world tracing front end: flight recorder + span tracker.
///
/// Disabled by default. Every recording method begins with a single branch on
/// `enabled`, so the disabled hot path does no work and no allocation.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    recorder: FlightRecorder,
    open: BTreeMap<u64, [Option<Time>; SPAN_PHASES]>,
    completed: Vec<SpanRecord>,
    overlay: HashSet<u32>,
}

impl Tracer {
    /// Creates a disabled tracer (the [`crate::World`] default).
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// Enables tracing in place with a flight recorder of `cap` events.
    /// Overlay-pid marks made earlier are preserved.
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

    /// Marks a span phase (first-wins). Returns the completed record when the
    /// mark is [`SpanPhase::Confirm`], so the caller can feed histograms.
    #[inline]
    pub fn mark(&mut self, at: Time, pid: u32, key: u64, phase: SpanPhase) -> Option<SpanRecord> {
        if !self.enabled {
            return None;
        }
        self.recorder.push(TraceEvent {
            at,
            kind: TraceKind::PhaseMark { pid, key, phase },
        });
        let times = self.open.entry(key).or_default();
        if times[phase.idx()].is_none() {
            times[phase.idx()] = Some(at);
        }
        if phase == SpanPhase::Confirm {
            let at = self.open.remove(&key).unwrap_or_default();
            let rec = SpanRecord { key, at };
            if self.completed.len() < MAX_COMPLETED_SPANS {
                self.completed.push(rec);
            }
            return Some(rec);
        }
        if self.open.len() > MAX_OPEN_SPANS {
            self.open.pop_first();
        }
        None
    }

    /// Marks a process as an overlay daemon, so [`crate::World`] attributes
    /// daemon-to-daemon transit to the overlay-hop histogram. Works before
    /// `enable` so deployments can mark at build time.
    pub fn mark_overlay(&mut self, pid: u32) {
        self.overlay.insert(pid);
    }

    /// Whether a process was marked as an overlay daemon.
    #[inline]
    pub fn is_overlay(&self, pid: u32) -> bool {
        self.overlay.contains(&pid)
    }

    /// The flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Completed spans, in completion order.
    pub fn completed_spans(&self) -> &[SpanRecord] {
        &self.completed
    }

    /// Spans that collected at least one mark but never confirmed.
    pub fn open_span_count(&self) -> usize {
        self.open.len()
    }

    // -- Exporters ----------------------------------------------------------

    /// Human-readable dump of the last `n` events, one per line, for
    /// postmortems (safety-check failure, replica panic).
    pub fn dump_tail(&self, n: usize, name_of: &dyn Fn(u32) -> String) -> String {
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
                name_of(pid),
                ev.kind.name()
            );
            ev.kind.write_human(&mut out);
            out.push('\n');
        }
        out
    }

    /// JSONL export: one JSON object per line — every held event, then every
    /// completed span. Process names are escaped like any other string.
    pub fn events_jsonl(&self, name_of: &dyn Fn(u32) -> String) -> String {
        let mut out = String::new();
        for ev in self.recorder.events() {
            let mut obj = ObjWriter::new(&mut out);
            obj.num("ts_us", ev.at.0)
                .str("ev", ev.kind.name())
                .str("proc", &name_of(ev.kind.pid()));
            ev.kind.write_json_args(&mut obj);
            obj.end();
            out.push('\n');
        }
        for rec in &self.completed {
            let mut obj = ObjWriter::new(&mut out);
            obj.str("ev", "span")
                .num("client", rec.client())
                .num("cseq", rec.cseq());
            for phase in SpanPhase::ALL {
                if let Some(t) = rec.at[phase.idx()] {
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
    /// simulated process, named via metadata records; trace pid 1 carries one
    /// lane per supervisory update with an `X` (complete) slice per phase.
    /// Virtual microseconds map directly to the `ts`/`dur` fields.
    pub fn chrome_trace(&self, name_of: &dyn Fn(u32) -> String) -> String {
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
            lane_name(&mut out, "thread_name", 0, pid.into(), &name_of(pid));
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
        for rec in &self.completed {
            let slice = |out: &mut String, (name, a, b): &(&str, SpanPhase, SpanPhase)| {
                let (Some(start), Some(end)) = (rec.at[a.idx()], rec.at[b.idx()]) else {
                    return false;
                };
                if end < start {
                    return false;
                }
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
        let mut t = Tracer::disabled();
        t.record(
            Time(1),
            TraceKind::MsgSend {
                from: 0,
                to: 1,
                len: 8,
            },
        );
        assert!(t
            .mark(Time(2), 0, span_key(1, 1), SpanPhase::Confirm)
            .is_none());
        assert_eq!(t.recorder().len(), 0);
        assert!(t.completed_spans().is_empty());
    }

    #[test]
    fn ring_buffer_keeps_tail_and_counts_drops() {
        let mut r = FlightRecorder::new(3);
        for i in 0..5u64 {
            r.push(TraceEvent {
                at: Time(i),
                kind: TraceKind::Mark {
                    pid: 0,
                    label: "x",
                    value: i,
                },
            });
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let times: Vec<u64> = r.events().map(|e| e.at.0).collect();
        assert_eq!(times, vec![2, 3, 4]);
        let tail: Vec<u64> = r.tail(2).map(|e| e.at.0).collect();
        assert_eq!(tail, vec![3, 4]);
    }

    #[test]
    fn span_phases_first_wins_and_complete_on_confirm() {
        let mut t = Tracer::default();
        t.enable(64);
        let key = span_key(7, 42);
        assert!(t.mark(Time(10), 1, key, SpanPhase::Submit).is_none());
        assert!(t.mark(Time(20), 2, key, SpanPhase::Recv).is_none());
        // A slower replica's re-mark must not move the phase time.
        assert!(t.mark(Time(25), 3, key, SpanPhase::Recv).is_none());
        assert!(t.mark(Time(30), 2, key, SpanPhase::Preorder).is_none());
        assert!(t.mark(Time(40), 2, key, SpanPhase::Order).is_none());
        assert!(t.mark(Time(50), 2, key, SpanPhase::Execute).is_none());
        let rec = t.mark(Time(60), 1, key, SpanPhase::Confirm).unwrap();
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
        assert_eq!(t.open_span_count(), 0);
        assert_eq!(t.completed_spans().len(), 1);
    }

    #[test]
    fn partial_span_reports_only_known_deltas() {
        let mut t = Tracer::default();
        t.enable(64);
        let key = span_key(3, 9);
        t.mark(Time(5), 0, key, SpanPhase::Execute);
        let rec = t.mark(Time(9), 0, key, SpanPhase::Confirm).unwrap();
        assert_eq!(rec.phase_deltas(), vec![("span.confirm_us", 4)]);
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
        let json = t.chrome_trace(&|pid| format!("proc-{pid}"));
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
        let jsonl = t.events_jsonl(&|pid| format!("p{pid}"));
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
        let dump = t.dump_tail(10, &|pid| format!("replica-{pid}"));
        assert!(dump.contains("view_change"));
        assert!(dump.contains("replica-2"));
        assert!(dump.contains("view 3"));
    }
}
