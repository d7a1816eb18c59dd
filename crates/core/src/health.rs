//! Live health telemetry: snapshot engine, SLO tracker and
//! performance-attack detector.
//!
//! The paper's core claim is *bounded performance under network attack* —
//! Prime catches a malicious leader by monitoring turnaround times, and a
//! grid operator must see an attack eroding the 100 ms SLA while it
//! happens, not in a post-mortem report. This module turns the end-of-run
//! [`Metrics`] store into an in-flight instrument:
//!
//! * a **snapshot engine** — [`HealthMonitor::observe`] diffs the live
//!   counters/series against the previous observation, producing a
//!   [`MetricsSnapshot`] with per-window rates and percentiles, kept in a
//!   bounded ring;
//! * a **rolling-window SLO tracker** — every window is graded against
//!   the 100 ms latency SLA, a delivery-ratio floor and a no-silence
//!   requirement, with breaches counted per class ([`SloTracker`]);
//! * a **performance-attack detector** — window signatures grounded in
//!   Prime's turnaround-time monitoring flag a slow leader (suspects or
//!   inflated TAT against a learned baseline), a site DoS (link-level
//!   loss drops, which are zero on clean links, or a collapsed delivery
//!   ratio) and a partition (consecutive silent windows), as
//!   [`AlarmKind`] alarms with first-fire timestamps.
//!
//! The monitor is substrate-agnostic: it only reads a [`Metrics`] view —
//! the simulator hands it the world's store on a control tick, the
//! real-clock runtime hands it [`spire_rt::Runtime::live_metrics`]. Every
//! verdict is also *published back* as `health.*` counters and series
//! ([`HealthMonitor::publish`]), so [`crate::report::Report`] and the
//! exporters read one vocabulary regardless of substrate. Prometheus
//! text-exposition rendering ([`prometheus_text`]) and a strict parser
//! for golden tests ([`parse_prometheus`]) live here too.

use spire_sim::stats::percentile;
use spire_sim::{Metrics, Span, Time};
use std::collections::VecDeque;

/// Tuning for the health monitor. Defaults fit the paper's setting: 1 s
/// windows against a 100 ms SLA, a couple of warmup windows while the
/// overlay converges, and thresholds calibrated so the clean multi-seed
/// matrix stays quiet.
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// Snapshot cadence.
    pub interval: Span,
    /// Snapshots retained in the ring.
    pub ring: usize,
    /// Windows skipped before SLO grading and detection start (system
    /// start-up: overlay route convergence, first view establishment).
    pub warmup: u32,
    /// Latency SLO: window p99 must stay at or under this (ms).
    pub sla_ms: f64,
    /// Windows the delivery ratio is pooled over (the current window
    /// plus up to `delivery_windows - 1` preceding ones), absorbing
    /// confirm/send boundary jitter at 1 s window sizes.
    pub delivery_windows: usize,
    /// Partition signature: consecutive fully-silent windows (traffic
    /// expected, nothing confirmed) before the alarm fires.
    pub partition_windows: u32,
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig {
            interval: Span::secs(1),
            ring: 120,
            warmup: 3,
            sla_ms: crate::report::SLA_MS,
            delivery_windows: 5,
            partition_windows: 2,
        }
    }
}

/// Delivery SLO: the trailing delivery ratio must stay at or above this.
/// Updates in flight at a window edge plus the rt substrate's per-worker
/// metrics publish cadence (sent and confirmed counters live in different
/// workers' slots, skewed by up to `rate × 250 ms`) make clean ratios read
/// as low as ~0.92, so the floor leaves real slack; a
/// redundancy-exhausting attack halves or zeroes delivery and clears it by
/// a wide margin.
const DELIVERY_SLO: f64 = 0.90;
/// Site-DoS signature: trailing delivery ratio below this is attack-grade
/// degradation, not SLO jitter.
const DOS_DELIVERY: f64 = 0.75;
/// Site-DoS signature: link-level loss drops per window at or above this
/// fire the alarm (clean links are lossless, so any sustained value is
/// injected).
const DOS_MIN_LINK_DROPS: u64 = 25;
/// Slow-leader signature: window TAT p99 above this factor times the
/// baseline fires (baseline is a learned EWMA of clean windows).
const SLOW_TAT_FACTOR: f64 = 3.0;
/// Slow-leader signature: absolute TAT floor (ms) below which the factor
/// test never fires, so micro-TATs cannot alarm on noise.
const SLOW_TAT_FLOOR_MS: f64 = 150.0;

/// Per-window deltas and rates computed by the snapshot engine.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WindowStats {
    /// Updates submitted this window.
    pub sent: u64,
    /// Updates confirmed this window.
    pub confirmed: u64,
    /// Confirmations per second over the window.
    pub rate: f64,
    /// Delivery ratio pooled over the trailing `delivery_windows`
    /// windows, clamped to 1.0 (1.0 when nothing was sent).
    pub delivery: f64,
    /// Window p50 confirm latency, ms (None when nothing confirmed).
    pub p50_ms: Option<f64>,
    /// Window p99 confirm latency, ms.
    pub p99_ms: Option<f64>,
    /// Window p99 of Prime's leader turnaround time, ms.
    pub tat_p99_ms: Option<f64>,
    /// View changes this window.
    pub view_changes: u64,
    /// Suspect-leader messages sent this window.
    pub suspects: u64,
    /// Link-level loss drops this window (sim + rt counters).
    pub link_drops: u64,
    /// Replicas inside an announced proactive-recovery window at the
    /// snapshot instant. A window with `recovering > 0` is graded
    /// *degraded*: expected silence feeds neither the no-silence SLO nor
    /// the partition streak.
    pub recovering: u64,
}

/// One observation of the live metrics: absolute totals plus the
/// [`WindowStats`] delta against the previous snapshot.
#[derive(Clone, Copy, Debug)]
pub struct MetricsSnapshot {
    /// When the snapshot was taken (substrate time).
    pub at: Time,
    /// Monotone snapshot number (0-based).
    pub seq: u64,
    /// Absolute updates submitted since run start.
    pub updates_sent: u64,
    /// Absolute updates confirmed since run start.
    pub updates_confirmed: u64,
    /// Deltas and rates over the window ending at `at`.
    pub window: WindowStats,
}

/// SLO breach classes graded per window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreachClass {
    /// Window p99 confirm latency exceeded the SLA.
    Latency,
    /// Window delivery ratio fell below the SLO floor.
    Delivery,
    /// Traffic was expected but nothing was confirmed all window.
    Silence,
}

impl BreachClass {
    /// Counter the breach is published under.
    pub fn metric(self) -> &'static str {
        match self {
            BreachClass::Latency => "health.slo_breach.latency",
            BreachClass::Delivery => "health.slo_breach.delivery",
            BreachClass::Silence => "health.slo_breach.silence",
        }
    }
}

/// Attack signatures the detector can flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlarmKind {
    /// Leader ordering turnaround inflated (or replicas already sent
    /// suspects) while throughput persists — Prime's latency attack.
    SlowLeader,
    /// Link-level injected loss or collapsed delivery — DoS against a
    /// site's WAN links.
    SiteDos,
    /// Consecutive windows with traffic expected and nothing confirmed.
    Partition,
}

impl AlarmKind {
    /// Counter the alarm is published under.
    pub fn metric(self) -> &'static str {
        match self {
            AlarmKind::SlowLeader => "health.alarm.slow_leader",
            AlarmKind::SiteDos => "health.alarm.site_dos",
            AlarmKind::Partition => "health.alarm.partition",
        }
    }

    /// Static label for trace `Mark` events and watch lines.
    pub fn label(self) -> &'static str {
        match self {
            AlarmKind::SlowLeader => "health.slow_leader",
            AlarmKind::SiteDos => "health.site_dos",
            AlarmKind::Partition => "health.partition",
        }
    }
}

/// Rolling SLO accounting: windows graded and breaches per class.
#[derive(Clone, Copy, Debug, Default)]
pub struct SloTracker {
    /// Windows graded (post-warmup).
    pub windows: u64,
    /// Windows whose p99 exceeded the SLA.
    pub latency_breaches: u64,
    /// Windows whose delivery ratio fell below the floor.
    pub delivery_breaches: u64,
    /// Windows with expected traffic and zero confirmations.
    pub silence_breaches: u64,
    /// Windows graded degraded instead: a replica was inside its
    /// announced recovery window, so reduced throughput or silence was
    /// expected and is not held against the SLOs.
    pub degraded_windows: u64,
}

impl SloTracker {
    fn grade(&mut self, cfg: &HealthConfig, w: &WindowStats, started: bool) -> Vec<BreachClass> {
        self.windows += 1;
        let mut breaches = Vec::new();
        if let Some(p99) = w.p99_ms {
            if p99 > cfg.sla_ms {
                self.latency_breaches += 1;
                breaches.push(BreachClass::Latency);
            }
        }
        if w.sent > 0 && w.delivery < DELIVERY_SLO {
            self.delivery_breaches += 1;
            breaches.push(BreachClass::Delivery);
        }
        if w.recovering > 0 {
            // An announced recovery is in flight: silence is expected
            // (the recovering replica is re-fetching state), so the
            // window is degraded, not in breach of the no-silence SLO.
            self.degraded_windows += 1;
        } else if started && w.confirmed == 0 {
            self.silence_breaches += 1;
            breaches.push(BreachClass::Silence);
        }
        breaches
    }

    /// Total breaches across all classes.
    pub fn breaches(&self) -> u64 {
        self.latency_breaches + self.delivery_breaches + self.silence_breaches
    }
}

/// The performance-attack detector: per-window signature checks against
/// a baseline learned from clean windows.
#[derive(Clone, Debug, Default)]
pub struct AttackDetector {
    /// EWMA of clean-window TAT p99 (ms) — the slow-leader baseline.
    baseline_tat_ms: Option<f64>,
    silent_windows: u32,
    /// Every alarm fired, with the snapshot time it fired at.
    pub alarms: Vec<(Time, AlarmKind)>,
    /// Windows that flagged a slow leader.
    pub slow_leader_windows: u64,
    /// Windows that flagged a site DoS.
    pub site_dos_windows: u64,
    /// Windows that flagged a partition.
    pub partition_windows: u64,
}

impl AttackDetector {
    fn scan(
        &mut self,
        cfg: &HealthConfig,
        at: Time,
        w: &WindowStats,
        started: bool,
    ) -> Vec<AlarmKind> {
        let mut fired = Vec::new();

        // Slow leader: replicas already suspecting is definitive; else an
        // inflated TAT p99 against the learned baseline (with an absolute
        // floor so clean LAN-grade turnarounds never trip the factor).
        let tat_limit = self
            .baseline_tat_ms
            .map(|b| (b * SLOW_TAT_FACTOR).max(SLOW_TAT_FLOOR_MS))
            .unwrap_or(SLOW_TAT_FLOOR_MS);
        let tat_high = w.tat_p99_ms.is_some_and(|t| t > tat_limit);
        if w.suspects > 0 || tat_high {
            self.slow_leader_windows += 1;
            fired.push(AlarmKind::SlowLeader);
        } else if let Some(t) = w.tat_p99_ms {
            // Learn only from quiet windows so an ongoing attack cannot
            // drag the baseline up and mask itself.
            self.baseline_tat_ms = Some(match self.baseline_tat_ms {
                Some(b) => 0.8 * b + 0.2 * t,
                None => t,
            });
        }

        // Site DoS: injected link loss (clean links are lossless) or a
        // collapsed window delivery ratio on real traffic.
        if w.link_drops >= DOS_MIN_LINK_DROPS || (w.sent >= 8 && w.delivery < DOS_DELIVERY) {
            self.site_dos_windows += 1;
            fired.push(AlarmKind::SiteDos);
        }

        // Partition: sustained total silence while traffic is expected.
        // Silence inside an announced recovery window is *degraded*, not
        // partition evidence: the streak neither grows (the quiet window
        // is explained) nor resets (a real partition that outlives the
        // recovery window keeps accumulating afterwards).
        if started && w.confirmed == 0 {
            if w.recovering == 0 {
                self.silent_windows += 1;
                if self.silent_windows >= cfg.partition_windows {
                    self.partition_windows += 1;
                    fired.push(AlarmKind::Partition);
                }
            }
        } else {
            self.silent_windows = 0;
        }

        for kind in &fired {
            self.alarms.push((at, *kind));
        }
        fired
    }

    /// When an alarm of `kind` first fired, if ever.
    pub fn first_alarm(&self, kind: AlarmKind) -> Option<Time> {
        self.alarms
            .iter()
            .find(|(_, k)| *k == kind)
            .map(|(t, _)| *t)
    }

    /// True when no alarm of any kind ever fired.
    pub fn quiet(&self) -> bool {
        self.alarms.is_empty()
    }
}

/// What one observation produced: the snapshot plus this window's SLO
/// breaches and detector alarms.
#[derive(Clone, Debug)]
pub struct HealthTick {
    /// The snapshot appended to the ring.
    pub snapshot: MetricsSnapshot,
    /// SLO breach classes this window (empty during warmup).
    pub breaches: Vec<BreachClass>,
    /// Alarms fired this window (empty during warmup).
    pub alarms: Vec<AlarmKind>,
}

/// Absolute counter values carried between observations for delta math.
#[derive(Clone, Copy, Debug, Default)]
struct Absolutes {
    at: Time,
    sent: u64,
    confirmed: u64,
    view_changes: u64,
    suspects: u64,
    link_drops: u64,
}

impl Absolutes {
    fn read(at: Time, m: &Metrics) -> Absolutes {
        Absolutes {
            at,
            sent: m.counter("scada.updates_sent"),
            confirmed: m.counter("scada.updates_confirmed"),
            view_changes: m.counter("prime.view_changes"),
            suspects: m.counter("prime.suspects_sent"),
            link_drops: m.counter("sim.loss_drop") + m.counter("rt.loss_drop"),
        }
    }
}

/// The live health monitor: snapshot engine + SLO tracker + attack
/// detector, with a bounded ring of recent snapshots.
#[derive(Clone, Debug)]
pub struct HealthMonitor {
    cfg: HealthConfig,
    prev: Option<Absolutes>,
    seq: u64,
    ring: VecDeque<MetricsSnapshot>,
    /// Announced proactive-recovery windows `(replica, start, end)`; a
    /// snapshot taken inside one grades the window degraded instead of
    /// silent/partitioned.
    recovery_windows: Vec<(u32, Time, Time)>,
    /// Rolling SLO accounting.
    pub slo: SloTracker,
    /// The attack detector's state and alarm log.
    pub detector: AttackDetector,
}

impl HealthMonitor {
    /// A monitor with the given tuning.
    pub fn new(cfg: HealthConfig) -> HealthMonitor {
        HealthMonitor {
            cfg,
            prev: None,
            seq: 0,
            ring: VecDeque::new(),
            recovery_windows: Vec::new(),
            slo: SloTracker::default(),
            detector: AttackDetector::default(),
        }
    }

    /// The monitor's tuning.
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// Announces the schedule of proactive-recovery windows so silence
    /// from a recovering replica is graded `degraded` rather than fed to
    /// the no-silence SLO and the partition detector.
    pub fn with_recovery_windows(mut self, windows: Vec<(u32, Time, Time)>) -> HealthMonitor {
        self.recovery_windows = windows;
        self
    }

    /// Takes one snapshot of the live metrics: computes the window delta
    /// against the previous observation, grades the SLOs, runs the
    /// detector, and appends to the ring.
    pub fn observe(&mut self, now: Time, metrics: &Metrics) -> HealthTick {
        let abs = Absolutes::read(now, metrics);
        let prev = self.prev.unwrap_or(Absolutes {
            at: Time(0),
            ..Absolutes::default()
        });
        let window_span = now.since(prev.at);
        let sent = abs.sent.saturating_sub(prev.sent);
        let confirmed = abs.confirmed.saturating_sub(prev.confirmed);
        let lat: Vec<f64> = metrics
            .series_window("scada.update_latency_ms", prev.at, now)
            .iter()
            .map(|(_, v)| *v)
            .collect();
        let tat: Vec<f64> = metrics
            .series_window("prime.tat_ms", prev.at, now)
            .iter()
            .map(|(_, v)| *v)
            .collect();
        // Delivery is pooled over the trailing windows: at 1 s windows a
        // dozen updates are in flight across each edge, so instantaneous
        // confirmed/sent ratios swing wildly even on clean runs.
        let (mut pooled_sent, mut pooled_confirmed) = (sent, confirmed);
        for past in self
            .ring
            .iter()
            .rev()
            .take(self.cfg.delivery_windows.saturating_sub(1))
        {
            pooled_sent += past.window.sent;
            pooled_confirmed += past.window.confirmed;
        }
        let window = WindowStats {
            sent,
            confirmed,
            rate: if window_span.0 == 0 {
                0.0
            } else {
                confirmed as f64 / (window_span.0 as f64 / 1e6)
            },
            delivery: if pooled_sent == 0 {
                1.0
            } else {
                (pooled_confirmed as f64 / pooled_sent as f64).min(1.0)
            },
            p50_ms: (!lat.is_empty()).then(|| percentile(&lat, 50.0)),
            p99_ms: (!lat.is_empty()).then(|| percentile(&lat, 99.0)),
            tat_p99_ms: (!tat.is_empty()).then(|| percentile(&tat, 99.0)),
            view_changes: abs.view_changes.saturating_sub(prev.view_changes),
            suspects: abs.suspects.saturating_sub(prev.suspects),
            link_drops: abs.link_drops.saturating_sub(prev.link_drops),
            recovering: self
                .recovery_windows
                .iter()
                .filter(|(_, start, end)| *start <= now && now < *end)
                .count() as u64,
        };
        let snapshot = MetricsSnapshot {
            at: now,
            seq: self.seq,
            updates_sent: abs.sent,
            updates_confirmed: abs.confirmed,
            window,
        };
        self.prev = Some(abs);
        self.seq += 1;
        self.ring.push_back(snapshot);
        while self.ring.len() > self.cfg.ring.max(1) {
            self.ring.pop_front();
        }
        // `started`: the system has confirmed work before, so a silent
        // window is a real outage, not a not-yet-running system.
        let started = abs.confirmed > confirmed || (abs.confirmed > 0 && confirmed > 0);
        let warm = snapshot.seq >= self.cfg.warmup as u64;
        let (breaches, alarms) = if warm {
            (
                self.slo.grade(&self.cfg, &window, started),
                self.detector.scan(&self.cfg, now, &window, started),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        HealthTick {
            snapshot,
            breaches,
            alarms,
        }
    }

    /// Publishes one tick's verdicts into a metric store as `health.*`
    /// counters and series — the single vocabulary [`crate::Report`] and
    /// the exporters read on every substrate.
    pub fn publish(tick: &HealthTick, m: &mut Metrics) {
        let at = tick.snapshot.at;
        let w = &tick.snapshot.window;
        m.count("health.snapshots", 1);
        m.record("health.window_rate", at, w.rate);
        m.record("health.window_delivery", at, w.delivery);
        if let Some(p99) = w.p99_ms {
            m.record("health.window_p99_ms", at, p99);
        }
        if let Some(tat) = w.tat_p99_ms {
            m.record("health.window_tat_p99_ms", at, tat);
        }
        m.record("health.recovering", at, w.recovering as f64);
        if w.recovering > 0 {
            m.count("health.degraded_windows", 1);
        }
        for b in &tick.breaches {
            m.count(b.metric(), 1);
        }
        for a in &tick.alarms {
            m.count(a.metric(), 1);
        }
    }

    /// Recent snapshots, oldest first (bounded by `cfg.ring`).
    pub fn snapshots(&self) -> impl Iterator<Item = &MetricsSnapshot> {
        self.ring.iter()
    }

    /// The most recent snapshot, if any.
    pub fn latest(&self) -> Option<&MetricsSnapshot> {
        self.ring.back()
    }

    /// The current detector verdict as a short status word.
    pub fn verdict(&self) -> &'static str {
        // Most-specific signature wins for display; any alarm at all
        // makes the run non-quiet either way.
        if self.detector.partition_windows > 0 {
            "PARTITION"
        } else if self.detector.site_dos_windows > 0 {
            "SITE-DOS"
        } else if self.detector.slow_leader_windows > 0 {
            "SLOW-LEADER"
        } else if self.latest().is_some_and(|s| s.window.recovering > 0) {
            "degraded"
        } else {
            "ok"
        }
    }

    /// One-line live status for `run_scenario --watch`.
    pub fn watch_line(&self, tick: &HealthTick) -> String {
        let w = &tick.snapshot.window;
        let p99 = w
            .p99_ms
            .map(|v| format!("{v:.1}ms"))
            .unwrap_or_else(|| "-".to_string());
        format!(
            "[{:>6.1}s] rate={:>6.1}/s p99={:>8} delivery={:>5.3} slo_breaches={} verdict={}",
            tick.snapshot.at.as_secs_f64(),
            w.rate,
            p99,
            w.delivery,
            self.slo.breaches(),
            self.verdict(),
        )
    }
}

// ===================== Prometheus text exposition =====================

/// Sanitizes a metric name into the Prometheus name alphabet and applies
/// the `spire_` namespace prefix.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("spire_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn prom_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

/// Renders a metric store as Prometheus text exposition (format 0.0.4):
/// counters as `counter`, histograms as `summary` (count/sum plus the
/// 0.5 and 0.99 quantiles), and the last value of every time series as a
/// `gauge`. All names are namespaced `spire_` and sanitized.
pub fn prometheus_text(m: &Metrics) -> String {
    let mut out = String::new();
    for (name, value) in m.counters() {
        let p = prom_name(name);
        out.push_str(&format!("# TYPE {p} counter\n{p} {value}\n"));
    }
    for name in m.series_names() {
        let samples = m.series(name);
        let Some((at, last)) = samples.last() else {
            continue;
        };
        let p = prom_name(name);
        out.push_str(&format!(
            "# TYPE {p} gauge\n{p} {} {}\n",
            prom_num(*last),
            at.0 / 1_000 // Prometheus timestamps are milliseconds.
        ));
    }
    for name in m.histogram_names() {
        let Some(h) = m.histogram(name) else { continue };
        if h.count() == 0 {
            continue;
        }
        let p = prom_name(name);
        out.push_str(&format!("# TYPE {p} summary\n"));
        out.push_str(&format!(
            "{p}{{quantile=\"0.5\"}} {}\n",
            prom_num(h.percentile(50.0))
        ));
        out.push_str(&format!(
            "{p}{{quantile=\"0.99\"}} {}\n",
            prom_num(h.percentile(99.0))
        ));
        out.push_str(&format!(
            "{p}_sum {}\n",
            prom_num(h.mean() * h.count() as f64)
        ));
        out.push_str(&format!("{p}_count {}\n", h.count()));
    }
    out
}

/// One parsed Prometheus sample.
#[derive(Clone, Debug, PartialEq)]
pub struct PromSample {
    /// Metric name (with any `{labels}` suffix stripped).
    pub name: String,
    /// Raw label block without braces (empty when unlabelled).
    pub labels: String,
    /// Sample value.
    pub value: f64,
}

/// Strictly parses Prometheus text exposition as produced by
/// [`prometheus_text`]: `# TYPE` comments must be well-formed, every
/// sample line must be `name[{labels}] value [timestamp]` with a finite
/// or ±Inf/NaN value and an integer timestamp. Returns the samples or
/// the first offending line.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(t) = rest.strip_prefix("TYPE ") {
                let mut parts = t.split_whitespace();
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if name.is_empty()
                    || !matches!(
                        kind,
                        "counter" | "gauge" | "summary" | "histogram" | "untyped"
                    )
                {
                    return Err(format!("line {}: malformed TYPE comment: {line}", i + 1));
                }
            }
            continue;
        }
        let (ident, rest) = match line.find(|c: char| c.is_whitespace()) {
            Some(pos) if !line[..pos].contains('{') => (&line[..pos], &line[pos..]),
            _ => match line.find('}') {
                // A labelled sample: the name+labels end at the brace.
                Some(end) => (&line[..=end], &line[end + 1..]),
                None => return Err(format!("line {}: malformed sample: {line}", i + 1)),
            },
        };
        let (name, labels) = match ident.find('{') {
            Some(b) => {
                let Some(stripped) = ident[b..]
                    .strip_prefix('{')
                    .and_then(|s| s.strip_suffix('}'))
                else {
                    return Err(format!("line {}: malformed labels: {line}", i + 1));
                };
                (&ident[..b], stripped)
            }
            None => (ident, ""),
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {}: bad metric name: {line}", i + 1));
        }
        let mut fields = rest.split_whitespace();
        let Some(value_str) = fields.next() else {
            return Err(format!("line {}: missing value: {line}", i + 1));
        };
        let value = match value_str {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v
                .parse::<f64>()
                .map_err(|_| format!("line {}: bad value: {line}", i + 1))?,
        };
        if let Some(ts) = fields.next() {
            ts.parse::<i64>()
                .map_err(|_| format!("line {}: bad timestamp: {line}", i + 1))?;
        }
        if fields.next().is_some() {
            return Err(format!("line {}: trailing tokens: {line}", i + 1));
        }
        samples.push(PromSample {
            name: name.to_string(),
            labels: labels.to_string(),
            value,
        });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(m: &mut Metrics, at: Time, sent: u64, confirmed: u64, lat_ms: f64) {
        m.count("scada.updates_sent", sent);
        m.count("scada.updates_confirmed", confirmed);
        for _ in 0..confirmed {
            m.record("scada.update_latency_ms", at, lat_ms);
        }
    }

    #[test]
    fn snapshot_engine_computes_window_deltas() {
        let mut mon = HealthMonitor::new(HealthConfig {
            warmup: 0,
            ..HealthConfig::default()
        });
        let mut m = Metrics::new();
        feed(&mut m, Time(500_000), 10, 10, 30.0);
        let t1 = mon.observe(Time(1_000_000), &m);
        assert_eq!(t1.snapshot.window.sent, 10);
        assert_eq!(t1.snapshot.window.confirmed, 10);
        assert!((t1.snapshot.window.rate - 10.0).abs() < 1e-9);
        feed(&mut m, Time(1_500_000), 5, 4, 40.0);
        let t2 = mon.observe(Time(2_000_000), &m);
        // Second window sees only the delta, not the absolute totals.
        assert_eq!(t2.snapshot.window.sent, 5);
        assert_eq!(t2.snapshot.window.confirmed, 4);
        assert_eq!(t2.snapshot.updates_sent, 15);
        // Delivery pools the trailing windows: (10 + 4) / (10 + 5).
        assert!((t2.snapshot.window.delivery - 14.0 / 15.0).abs() < 1e-9);
        assert_eq!(t2.snapshot.window.p99_ms.map(|v| v.round()), Some(40.0));
        assert_eq!(mon.snapshots().count(), 2);
        assert_eq!(mon.latest().unwrap().seq, 1);
    }

    #[test]
    fn snapshot_delta_math_survives_merged_worker_metrics() {
        // Two workers record interleaved samples; after merge+sort the
        // windowed percentile must see exactly the window's samples.
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        a.count("scada.updates_sent", 4);
        a.count("scada.updates_confirmed", 2);
        b.count("scada.updates_sent", 2);
        b.count("scada.updates_confirmed", 2);
        a.record("scada.update_latency_ms", Time(1_200_000), 20.0);
        a.record("scada.update_latency_ms", Time(1_900_000), 60.0);
        b.record("scada.update_latency_ms", Time(1_500_000), 40.0);
        b.record("scada.update_latency_ms", Time(2_500_000), 500.0); // next window
        a.merge(&b);
        a.sort_series();
        let mut mon = HealthMonitor::new(HealthConfig {
            warmup: 0,
            ..HealthConfig::default()
        });
        // Baseline observation at t=1s against an empty store start.
        let empty = Metrics::new();
        mon.observe(Time(1_000_000), &empty);
        let tick = mon.observe(Time(2_000_000), &a);
        let w = tick.snapshot.window;
        assert_eq!(w.sent, 6);
        assert_eq!(w.confirmed, 4);
        // Window (1s, 2s] holds 20/40/60 but not the 500 ms outlier.
        assert_eq!(w.p50_ms.map(|v| v.round()), Some(40.0));
        assert!(w.p99_ms.unwrap() < 100.0);
    }

    #[test]
    fn slo_tracker_counts_breach_classes() {
        let cfg = HealthConfig {
            warmup: 0,
            ..HealthConfig::default()
        };
        let mut mon = HealthMonitor::new(cfg);
        let mut m = Metrics::new();
        // Window 1: healthy.
        feed(&mut m, Time(500_000), 10, 10, 20.0);
        let t = mon.observe(Time(1_000_000), &m);
        assert!(t.breaches.is_empty());
        // Window 2: p99 blows the SLA and delivery dips.
        feed(&mut m, Time(1_500_000), 10, 5, 300.0);
        let t = mon.observe(Time(2_000_000), &m);
        assert!(t.breaches.contains(&BreachClass::Latency));
        assert!(t.breaches.contains(&BreachClass::Delivery));
        // Window 3: total silence after traffic had flowed.
        m.count("scada.updates_sent", 10);
        let t = mon.observe(Time(3_000_000), &m);
        assert!(t.breaches.contains(&BreachClass::Silence));
        assert_eq!(mon.slo.latency_breaches, 1);
        assert_eq!(mon.slo.delivery_breaches, 2); // window 3 also missed delivery
        assert_eq!(mon.slo.silence_breaches, 1);
        assert_eq!(mon.slo.windows, 3);
    }

    #[test]
    fn detector_flags_slow_leader_on_suspects_and_tat() {
        let cfg = HealthConfig {
            warmup: 0,
            ..HealthConfig::default()
        };
        let mut mon = HealthMonitor::new(cfg);
        let mut m = Metrics::new();
        // Clean window establishes a TAT baseline around 40 ms.
        feed(&mut m, Time(500_000), 10, 10, 20.0);
        m.record("prime.tat_ms", Time(600_000), 40.0);
        let t = mon.observe(Time(1_000_000), &m);
        assert!(t.alarms.is_empty());
        // TAT p99 jumps past max(3×40, 150) = 150 ms.
        feed(&mut m, Time(1_500_000), 10, 10, 20.0);
        m.record("prime.tat_ms", Time(1_600_000), 800.0);
        let t = mon.observe(Time(2_000_000), &m);
        assert_eq!(t.alarms, vec![AlarmKind::SlowLeader]);
        // A suspect alone also fires, even with quiet TATs.
        feed(&mut m, Time(2_500_000), 10, 10, 20.0);
        m.count("prime.suspects_sent", 1);
        let t = mon.observe(Time(3_000_000), &m);
        assert_eq!(t.alarms, vec![AlarmKind::SlowLeader]);
        assert_eq!(
            mon.detector.first_alarm(AlarmKind::SlowLeader),
            Some(Time(2_000_000))
        );
        assert!(!mon.detector.quiet());
        assert_eq!(mon.verdict(), "SLOW-LEADER");
    }

    #[test]
    fn detector_flags_site_dos_on_link_drops_or_delivery_collapse() {
        let cfg = HealthConfig {
            warmup: 0,
            ..HealthConfig::default()
        };
        let mut mon = HealthMonitor::new(cfg);
        let mut m = Metrics::new();
        feed(&mut m, Time(500_000), 10, 10, 20.0);
        assert!(mon.observe(Time(1_000_000), &m).alarms.is_empty());
        // Injected link loss (clean links never drop).
        feed(&mut m, Time(1_500_000), 10, 10, 20.0);
        m.count("sim.loss_drop", 40);
        let t = mon.observe(Time(2_000_000), &m);
        assert_eq!(t.alarms, vec![AlarmKind::SiteDos]);
        // Collapsed delivery with enough traffic to judge.
        feed(&mut m, Time(2_500_000), 20, 2, 20.0);
        let t = mon.observe(Time(3_000_000), &m);
        assert!(t.alarms.contains(&AlarmKind::SiteDos));
    }

    #[test]
    fn detector_flags_partition_after_consecutive_silence() {
        let cfg = HealthConfig {
            warmup: 0,
            partition_windows: 2,
            // Unpooled delivery isolates the silence streak from the DoS
            // delivery-collapse signature once traffic resumes.
            delivery_windows: 1,
            ..HealthConfig::default()
        };
        let mut mon = HealthMonitor::new(cfg);
        let mut m = Metrics::new();
        feed(&mut m, Time(500_000), 10, 10, 20.0);
        assert!(mon.observe(Time(1_000_000), &m).alarms.is_empty());
        // Two fully-silent windows with pending traffic. (A silent
        // window with traffic also matches the DoS delivery-collapse
        // signature; only the partition verdict needs the streak.)
        m.count("scada.updates_sent", 10);
        let t = mon.observe(Time(2_000_000), &m);
        assert!(
            !t.alarms.contains(&AlarmKind::Partition),
            "one silent window must not flag a partition"
        );
        m.count("scada.updates_sent", 10);
        let t = mon.observe(Time(3_000_000), &m);
        assert!(t.alarms.contains(&AlarmKind::Partition));
        // Traffic resumes: the streak resets.
        feed(&mut m, Time(3_500_000), 10, 10, 20.0);
        assert!(mon.observe(Time(4_000_000), &m).alarms.is_empty());
    }

    #[test]
    fn recovery_window_grades_degraded_not_silent() {
        let cfg = HealthConfig {
            warmup: 0,
            partition_windows: 2,
            delivery_windows: 1,
            ..HealthConfig::default()
        };
        let mut mon = HealthMonitor::new(cfg)
            // Replica 2 recovers between 1.5 s and 4 s.
            .with_recovery_windows(vec![(2, Time(1_500_000), Time(4_000_000))]);
        let mut m = Metrics::new();
        feed(&mut m, Time(500_000), 10, 10, 20.0);
        assert!(mon.observe(Time(1_000_000), &m).alarms.is_empty());
        // Two fully-silent windows inside the announced recovery: no
        // silence breach, no partition alarm — degraded instead. (Traffic
        // kept under the DoS judging threshold to isolate the signatures.)
        m.count("scada.updates_sent", 4);
        let t = mon.observe(Time(2_000_000), &m);
        assert!(!t.breaches.contains(&BreachClass::Silence));
        assert_eq!(t.snapshot.window.recovering, 1);
        m.count("scada.updates_sent", 4);
        let t = mon.observe(Time(3_000_000), &m);
        assert!(!t.alarms.contains(&AlarmKind::Partition));
        assert_eq!(mon.slo.silence_breaches, 0);
        assert_eq!(mon.slo.degraded_windows, 2);
        assert_eq!(mon.verdict(), "degraded");
        // Publish surfaces the gauge and the degraded counter.
        let mut out = Metrics::new();
        HealthMonitor::publish(&t, &mut out);
        assert_eq!(out.values("health.recovering").len(), 1);
        assert_eq!(out.counter("health.degraded_windows"), 1);
        // Past the window, silence counts again and the streak starts
        // from zero (recovery windows never mask a later partition).
        m.count("scada.updates_sent", 4);
        let t = mon.observe(Time(5_000_000), &m);
        assert!(t.breaches.contains(&BreachClass::Silence));
        assert!(!t.alarms.contains(&AlarmKind::Partition));
        m.count("scada.updates_sent", 4);
        let t = mon.observe(Time(6_000_000), &m);
        assert!(t.alarms.contains(&AlarmKind::Partition));
    }

    #[test]
    fn warmup_windows_are_never_graded() {
        let cfg = HealthConfig {
            warmup: 2,
            ..HealthConfig::default()
        };
        let mut mon = HealthMonitor::new(cfg);
        let mut m = Metrics::new();
        // A window that would breach everything.
        feed(&mut m, Time(500_000), 20, 1, 900.0);
        m.count("sim.loss_drop", 100);
        let t = mon.observe(Time(1_000_000), &m);
        assert!(t.breaches.is_empty() && t.alarms.is_empty());
        let t = mon.observe(Time(2_000_000), &m);
        assert!(t.breaches.is_empty() && t.alarms.is_empty());
        assert_eq!(mon.slo.windows, 0);
    }

    #[test]
    fn ring_is_bounded() {
        let cfg = HealthConfig {
            ring: 3,
            warmup: 0,
            ..HealthConfig::default()
        };
        let mut mon = HealthMonitor::new(cfg);
        let m = Metrics::new();
        for i in 1..=10u64 {
            mon.observe(Time(i * 1_000_000), &m);
        }
        assert_eq!(mon.snapshots().count(), 3);
        assert_eq!(mon.latest().unwrap().seq, 9);
    }

    #[test]
    fn publish_writes_health_vocabulary() {
        let mut mon = HealthMonitor::new(HealthConfig {
            warmup: 0,
            ..HealthConfig::default()
        });
        let mut m = Metrics::new();
        feed(&mut m, Time(500_000), 10, 2, 400.0);
        m.count("sim.loss_drop", 50);
        let tick = mon.observe(Time(1_000_000), &m);
        let mut out = Metrics::new();
        HealthMonitor::publish(&tick, &mut out);
        assert_eq!(out.counter("health.snapshots"), 1);
        assert_eq!(out.counter("health.slo_breach.latency"), 1);
        assert_eq!(out.counter("health.slo_breach.delivery"), 1);
        assert_eq!(out.counter("health.alarm.site_dos"), 1);
        assert_eq!(out.values("health.window_rate").len(), 1);
        assert_eq!(out.values("health.window_p99_ms").len(), 1);
    }

    #[test]
    fn watch_line_mentions_verdict() {
        let mut mon = HealthMonitor::new(HealthConfig {
            warmup: 0,
            ..HealthConfig::default()
        });
        let mut m = Metrics::new();
        feed(&mut m, Time(500_000), 10, 10, 20.0);
        let tick = mon.observe(Time(1_000_000), &m);
        let line = mon.watch_line(&tick);
        assert!(line.contains("verdict=ok"), "{line}");
        assert!(line.contains("rate="), "{line}");
    }

    #[test]
    fn prometheus_round_trips_through_parser() {
        let mut m = Metrics::new();
        m.count("health.snapshots", 12);
        m.count("rt.drop.client", 3);
        m.record("health.window_rate", Time(1_000_000), 49.5);
        m.observe("span.total_us", 42_000);
        m.observe("span.total_us", 55_000);
        let text = prometheus_text(&m);
        let samples = parse_prometheus(&text).expect("export must parse");
        let get = |n: &str| {
            samples
                .iter()
                .find(|s| s.name == n && s.labels.is_empty())
                .map(|s| s.value)
        };
        assert_eq!(get("spire_health_snapshots"), Some(12.0));
        assert_eq!(get("spire_rt_drop_client"), Some(3.0));
        assert_eq!(get("spire_health_window_rate"), Some(49.5));
        assert_eq!(get("spire_span_total_us_count"), Some(2.0));
        let q99 = samples
            .iter()
            .find(|s| s.name == "spire_span_total_us" && s.labels.contains("0.99"))
            .expect("quantile sample");
        assert!(q99.value >= 42_000.0);
    }

    #[test]
    fn prometheus_parser_rejects_garbage() {
        assert!(parse_prometheus("not a metric line at all !!").is_err());
        assert!(parse_prometheus("name{unclosed 1").is_err());
        assert!(parse_prometheus("ok_name abc").is_err());
        assert!(parse_prometheus("# TYPE x bogus\n").is_err());
        assert!(parse_prometheus("# HELP anything goes\nx 1\n").is_ok());
    }
}
