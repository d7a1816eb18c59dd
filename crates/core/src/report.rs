//! Evaluation report extracted from a deployment run: the latency,
//! availability and safety numbers the paper's tables and figures are
//! built from.

use spire_sim::json::Json;
use spire_sim::stats::{fraction_within, Summary};
use spire_sim::Time;

/// The grid operators' latency requirement used throughout the paper.
pub const SLA_MS: f64 = 100.0;

/// Version stamp for the report/bench JSON schema; bump when fields
/// change shape so the bench-trajectory tooling can diff runs across
/// PRs. v2 added `health`, provenance fields and this stamp. v3 added
/// `shards` (per-group workload stats) and `xshard` (cross-shard 2PC
/// outcomes) for sharded deployments. v4 added `recovery` (chunked state
/// transfer + log compaction) and `health.degraded_windows`.
pub const REPORT_SCHEMA_VERSION: u32 = 4;

/// Where a report came from: the run substrate and the hardware/build
/// identity — the same provenance the experiment summaries carry.
#[derive(Clone, Debug)]
pub struct Provenance {
    /// `"sim"`, `"rt"` or `"rt:<threads>"`.
    pub substrate: String,
    /// CPU cores available on the host.
    pub cores: usize,
    /// Worker threads the run used (1 for the simulator).
    pub threads: usize,
    /// Git revision the binary was built from (`unknown` outside a
    /// checkout).
    pub git_rev: String,
}

/// CPU cores available on the host, recorded with every wall-clock figure.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Provenance {
    /// Provenance for a run, resolving `cores` from the host.
    pub fn of(substrate: &str, threads: usize, git_rev: &str) -> Provenance {
        Provenance {
            substrate: substrate.to_string(),
            cores: host_cores(),
            threads,
            git_rev: git_rev.to_string(),
        }
    }
}

/// Live health-telemetry verdicts aggregated over the run, read from the
/// `health.*` counters the [`crate::health::HealthMonitor`] publishes on
/// either substrate (all-zero when no monitor was installed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthStats {
    /// Snapshot windows taken.
    pub snapshots: u64,
    /// Windows whose p99 confirm latency exceeded the SLA.
    pub latency_breaches: u64,
    /// Windows whose delivery ratio fell below the SLO floor.
    pub delivery_breaches: u64,
    /// Windows with expected traffic and zero confirmations.
    pub silence_breaches: u64,
    /// Windows that flagged the slow-leader signature.
    pub slow_leader_alarms: u64,
    /// Windows that flagged the site-DoS signature.
    pub site_dos_alarms: u64,
    /// Windows that flagged the partition signature.
    pub partition_alarms: u64,
    /// Windows graded degraded (a replica was inside its announced
    /// proactive-recovery window) instead of silent/partitioned.
    pub degraded_windows: u64,
}

impl HealthStats {
    /// Total SLO breach windows across classes.
    pub fn breaches(&self) -> u64 {
        self.latency_breaches + self.delivery_breaches + self.silence_breaches
    }

    /// Total detector alarm windows across signatures.
    pub fn alarms(&self) -> u64 {
        self.slow_leader_alarms + self.site_dos_alarms + self.partition_alarms
    }

    /// True when the monitor ran and nothing breached or alarmed.
    pub fn quiet(&self) -> bool {
        self.snapshots > 0 && self.breaches() == 0 && self.alarms() == 0
    }
}

/// Proactive-recovery and log-compaction statistics, read from the
/// `prime.recovery_*` / `prime.compaction.*` metrics replicas publish
/// (all-zero when no recovery ran).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RecoveryStats {
    /// Recoveries the scheduler started (`spire.recoveries_started`).
    pub started: u64,
    /// Recoveries that completed state transfer.
    pub completed: u64,
    /// Snapshot chunks received that matched their pinned digest.
    pub chunks: u64,
    /// Per-chunk retry rounds against alternate responders.
    pub chunk_retries: u64,
    /// Stale/poisoned transfer accumulators evicted.
    pub accums_evicted: u64,
    /// Median recovery duration, ms (NaN when none completed).
    pub duration_p50_ms: f64,
    /// 99th-percentile recovery duration, ms (NaN when none completed).
    pub duration_p99_ms: f64,
    /// Log-compaction passes across all replicas.
    pub compaction_runs: u64,
    /// Total log entries garbage-collected by compaction.
    pub compaction_evicted: u64,
    /// Final retained PO-Request-store size (last gauge sample).
    pub retained_po: f64,
    /// Final retained preorder-slot count (last gauge sample).
    pub retained_slots: f64,
    /// Final retained ordering-matrix count (last gauge sample).
    pub retained_matrices: f64,
}

impl RecoveryStats {
    /// Fraction of started recoveries that completed (NaN when none
    /// started).
    pub fn completion_rate(&self) -> f64 {
        if self.started == 0 {
            return f64::NAN;
        }
        self.completed as f64 / self.started as f64
    }
}

/// Span-phase histograms to surface in the per-phase latency breakdown,
/// as `(metric name, display label)`. The `span.*` histograms are fed by
/// the tracer when a causal span completes; `overlay.hop_us` is fed per
/// Spines hop. All record microseconds.
const PHASE_METRICS: [(&str, &str); 7] = [
    ("span.overlay_in_us", "submit -> replica recv"),
    ("span.preorder_us", "recv -> preordered"),
    ("span.order_us", "preordered -> ordered"),
    ("span.execute_us", "ordered -> executed"),
    ("span.confirm_us", "executed -> f+1 confirm"),
    ("span.total_us", "submit -> confirm (total)"),
    ("overlay.hop_us", "spines per-hop forward"),
];

/// Latency statistics for one protocol phase (from a log-bucketed
/// histogram; values converted from recorded microseconds).
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseStat {
    /// Human-readable phase label.
    pub phase: String,
    /// Histogram metric the stats came from.
    pub metric: String,
    /// Number of samples.
    pub count: u64,
    /// Mean, milliseconds.
    pub mean_ms: f64,
    /// Median, milliseconds.
    pub p50_ms: f64,
    /// 99th percentile, milliseconds.
    pub p99_ms: f64,
    /// Maximum, milliseconds.
    pub max_ms: f64,
}

/// Authentication-cost counters aggregated over all replicas, for
/// measuring the signature-amortization factor of batch signing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuthStats {
    /// Signature operations performed (one per Merkle batch when batch
    /// signing is on, one per message otherwise).
    pub sign_ops: u64,
    /// Full signature verifications performed.
    pub verify_ops: u64,
    /// Verifications answered from the bounded caches.
    pub verify_cache_hits: u64,
    /// Batch flushes (Merkle roots signed).
    pub batch_flushes: u64,
    /// Vote messages covered by batch signatures.
    pub batched_msgs: u64,
    /// Per-link session MACs computed (seal + verify sides).
    pub mac_ops: u64,
    /// Signature verifications replaced by link-MAC authentication.
    pub mac_auth_hits: u64,
    /// Frames rejected for a bad or unknown link MAC.
    pub mac_fail: u64,
}

impl AuthStats {
    /// Average number of votes covered by one batch signature.
    pub fn amortization_factor(&self) -> f64 {
        if self.batch_flushes == 0 {
            return 1.0;
        }
        self.batched_msgs as f64 / self.batch_flushes as f64
    }
}

/// Per-shard workload statistics from a sharded deployment, read from
/// the `shard{N}.*` metrics each group's scoped proxies publish (empty
/// for single-group deployments).
#[derive(Clone, Debug, PartialEq)]
pub struct ShardStat {
    /// Shard (replication group) index.
    pub shard: u32,
    /// Updates submitted by this shard's proxies.
    pub sent: u64,
    /// Updates confirmed by f+1 of this shard's replicas.
    pub confirmed: u64,
    /// Median confirm latency, ms (NaN with no samples).
    pub p50_ms: f64,
    /// 99th-percentile confirm latency, ms (NaN with no samples).
    pub p99_ms: f64,
}

impl ShardStat {
    /// The per-shard JSON row of a report (and of the shard-scaling
    /// experiment summary).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("shard", self.shard.into()),
            ("sent", self.sent.into()),
            ("confirmed", self.confirmed.into()),
            ("p50_ms", self.p50_ms.into()),
            ("p99_ms", self.p99_ms.into()),
        ])
    }
}

/// Cross-shard 2PC-over-BFT outcomes, read from the `xshard.*` metrics
/// the coordinator publishes (all-zero without a coordinator workload).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct XShardStats {
    /// Cross-shard transactions begun.
    pub commands: u64,
    /// Transactions committed at every participant.
    pub committed: u64,
    /// Transactions aborted at every participant.
    pub aborted: u64,
    /// Prepare/decision retry rounds across all transactions.
    pub retries: u64,
    /// Median end-to-end commit latency, ms (NaN with no commits).
    pub commit_p50_ms: f64,
    /// 99th-percentile commit latency, ms (NaN with no commits).
    pub commit_p99_ms: f64,
}

impl XShardStats {
    /// Fraction of finished transactions that committed (NaN when none
    /// finished).
    pub fn commit_rate(&self) -> f64 {
        let done = self.committed + self.aborted;
        if done == 0 {
            return f64::NAN;
        }
        self.committed as f64 / done as f64
    }
}

/// Fault-injection and robustness counters: what the chaos layer did to
/// the run and how the system absorbed it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Invariant-checker passes executed during the run.
    pub invariant_checks: u64,
    /// Safety-invariant violations detected (must be 0 within budget).
    pub invariant_violations: u64,
    /// Client-side quorums that accepted two conflicting values.
    pub conflicting_accepts: u64,
    /// Frames rejected by the total decoders (malformed/truncated).
    pub decode_failures: u64,
    /// Frames bit-flipped in flight by the wire-fault injector.
    pub corrupted_frames: u64,
    /// Frames duplicated in flight by the wire-fault injector.
    pub duplicated_frames: u64,
    /// rt mailbox sends that were parked and retried with backoff.
    pub mailbox_retries: u64,
    /// rt frames dropped after exhausting retries, per message class
    /// (sorted by class name).
    pub mailbox_dropped: Vec<(String, u64)>,
}

impl ChaosStats {
    /// Total frames dropped after mailbox retry exhaustion.
    pub fn mailbox_dropped_total(&self) -> u64 {
        self.mailbox_dropped.iter().map(|(_, n)| n).sum()
    }
}

fn field_list<const N: usize>(fields: [(&str, Json); N]) -> Vec<(String, Json)> {
    fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// Metrics extracted from a run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Per-update latency samples (proxy submit -> f+1 confirmations), ms.
    pub update_latencies_ms: Vec<f64>,
    /// Timestamped latency samples for timelines, (time, ms).
    pub update_timeline: Vec<(Time, f64)>,
    /// Summary of update latencies.
    pub update_summary: Option<Summary>,
    /// Fraction of updates within the 100 ms SLA.
    pub sla_fraction: f64,
    /// Updates submitted by proxies.
    pub updates_sent: u64,
    /// Updates confirmed by f+1 replicas.
    pub updates_confirmed: u64,
    /// Supervisory commands issued / actuated at devices.
    pub commands_issued: u64,
    /// Commands actually actuated at field devices.
    pub commands_actuated: u64,
    /// End-to-end command latency samples (HMI -> device), ms.
    pub command_latencies_ms: Vec<f64>,
    /// Prime view changes observed.
    pub view_changes: u64,
    /// Proactive recoveries started / completed.
    pub recoveries: (u64, u64),
    /// Result of the safety check over correct replicas.
    pub safety_ok: bool,
    /// Updates confirmed per second (for availability timelines).
    pub throughput_timeline: Vec<(u64, u64)>,
    /// Per-phase latency breakdown from the tracing spans (empty unless
    /// the deployment ran with tracing enabled).
    pub phase_breakdown: Vec<PhaseStat>,
    /// Aggregate signing/verification cost counters.
    pub auth: AuthStats,
    /// Fault-injection and robustness counters.
    pub chaos: ChaosStats,
    /// Live health-telemetry verdicts (zeros when no monitor ran).
    pub health: HealthStats,
    /// Proactive-recovery + log-compaction stats (zeros without any).
    pub recovery: RecoveryStats,
    /// Per-shard workload stats (empty for single-group deployments).
    pub shards: Vec<ShardStat>,
    /// Cross-shard 2PC outcomes (zeros without a coordinator workload).
    pub xshard: XShardStats,
}

impl Report {
    /// Builds the report from raw run metrics plus the safety verdict —
    /// the substrate-independent path shared by the simulator
    /// ([`Deployment::report`](crate::deployment::Deployment::report)) and
    /// the real-clock runtime.
    pub fn from_metrics(metrics: &spire_sim::Metrics, safety_ok: bool) -> Report {
        let series = metrics.series("scada.update_latency_ms");
        let update_latencies_ms: Vec<f64> = series.iter().map(|(_, v)| *v).collect();
        let update_timeline = series.to_vec();
        let mut phase_breakdown = Vec::new();
        for (name, label) in PHASE_METRICS {
            let Some(h) = metrics.histogram(name) else {
                continue;
            };
            if h.count() == 0 {
                continue;
            }
            phase_breakdown.push(PhaseStat {
                phase: label.to_string(),
                metric: name.to_string(),
                count: h.count(),
                mean_ms: h.mean() / 1000.0,
                p50_ms: h.percentile(50.0) / 1000.0,
                p99_ms: h.percentile(99.0) / 1000.0,
                max_ms: h.max() as f64 / 1000.0,
            });
        }
        let mut throughput: std::collections::BTreeMap<u64, u64> = Default::default();
        for (t, _) in series {
            *throughput.entry(t.0 / 1_000_000).or_insert(0) += 1;
        }
        let mut mailbox_dropped: Vec<(String, u64)> = metrics
            .counter_names()
            .filter(|n| n.starts_with("rt.drop."))
            .map(|n| (n["rt.drop.".len()..].to_string(), metrics.counter(n)))
            .collect();
        mailbox_dropped.sort();
        let chaos = ChaosStats {
            invariant_checks: metrics.counter("invariant.checks"),
            invariant_violations: metrics.counter("invariant.violations"),
            conflicting_accepts: metrics.counter("scada.conflicting_accept"),
            decode_failures: metrics.counter("prime.decode_fail")
                + metrics.counter("spines.decode_fail")
                + metrics.counter("spines.client_decode_fail"),
            corrupted_frames: metrics.counter("sim.corrupted") + metrics.counter("rt.corrupted"),
            duplicated_frames: metrics.counter("sim.dup") + metrics.counter("rt.dup"),
            mailbox_retries: metrics.counter("rt.mailbox_retry"),
            mailbox_dropped,
        };
        let mut shard_ids: Vec<u32> = metrics
            .counter_names()
            .filter_map(|n| {
                n.strip_prefix("shard")?
                    .strip_suffix(".updates_sent")?
                    .parse()
                    .ok()
            })
            .collect();
        shard_ids.sort_unstable();
        let shards = shard_ids
            .into_iter()
            .map(|g| {
                let lat = metrics.values(&format!("shard{g}.update_latency_ms"));
                let summary = Summary::of(&lat);
                ShardStat {
                    shard: g,
                    sent: metrics.counter(&format!("shard{g}.updates_sent")),
                    confirmed: metrics.counter(&format!("shard{g}.updates_confirmed")),
                    p50_ms: summary.as_ref().map_or(f64::NAN, |s| s.p50),
                    p99_ms: summary.as_ref().map_or(f64::NAN, |s| s.p99),
                }
            })
            .collect();
        let commit_lat = metrics.values("xshard.commit_latency_ms");
        let commit_summary = Summary::of(&commit_lat);
        let xshard = XShardStats {
            commands: metrics.counter("xshard.commands"),
            committed: metrics.counter("xshard.commits"),
            aborted: metrics.counter("xshard.aborts"),
            retries: metrics.counter("xshard.retries"),
            commit_p50_ms: commit_summary.as_ref().map_or(f64::NAN, |s| s.p50),
            commit_p99_ms: commit_summary.as_ref().map_or(f64::NAN, |s| s.p99),
        };
        let health = HealthStats {
            snapshots: metrics.counter("health.snapshots"),
            latency_breaches: metrics.counter("health.slo_breach.latency"),
            delivery_breaches: metrics.counter("health.slo_breach.delivery"),
            silence_breaches: metrics.counter("health.slo_breach.silence"),
            slow_leader_alarms: metrics.counter("health.alarm.slow_leader"),
            site_dos_alarms: metrics.counter("health.alarm.site_dos"),
            partition_alarms: metrics.counter("health.alarm.partition"),
            degraded_windows: metrics.counter("health.degraded_windows"),
        };
        let last_gauge = |name: &str| metrics.series(name).last().map_or(f64::NAN, |(_, v)| *v);
        let duration = metrics.histogram("prime.recovery_duration_us");
        let recovery = RecoveryStats {
            started: metrics.counter("spire.recoveries_started"),
            completed: metrics.counter("prime.recovery_completed"),
            chunks: metrics.counter("prime.recovery_chunks"),
            chunk_retries: metrics.counter("prime.recovery_chunk_retries"),
            accums_evicted: metrics.counter("prime.state_accums_evicted"),
            duration_p50_ms: duration
                .filter(|h| h.count() > 0)
                .map_or(f64::NAN, |h| h.percentile(50.0) / 1000.0),
            duration_p99_ms: duration
                .filter(|h| h.count() > 0)
                .map_or(f64::NAN, |h| h.percentile(99.0) / 1000.0),
            compaction_runs: metrics.counter("prime.compaction.runs"),
            compaction_evicted: metrics.counter("prime.compaction.evicted"),
            retained_po: last_gauge("prime.compaction.po_retained"),
            retained_slots: last_gauge("prime.compaction.slots_retained"),
            retained_matrices: last_gauge("prime.compaction.matrices_retained"),
        };
        Report {
            update_summary: Summary::of(&update_latencies_ms),
            sla_fraction: fraction_within(&update_latencies_ms, SLA_MS),
            updates_sent: metrics.counter("scada.updates_sent"),
            updates_confirmed: metrics.counter("scada.updates_confirmed"),
            commands_issued: metrics.counter("hmi.commands_sent"),
            commands_actuated: metrics.counter("scada.commands_actuated"),
            command_latencies_ms: metrics.values("scada.command_latency_ms"),
            view_changes: metrics.counter("prime.view_changes"),
            recoveries: (
                metrics.counter("spire.recoveries_started"),
                metrics.counter("prime.recovery_completed"),
            ),
            safety_ok,
            throughput_timeline: throughput.into_iter().collect(),
            phase_breakdown,
            auth: AuthStats {
                sign_ops: metrics.counter("prime.sign_ops"),
                verify_ops: metrics.counter("prime.verify_ops"),
                verify_cache_hits: metrics.counter("prime.verify_cache_hits"),
                batch_flushes: metrics.counter("prime.batch_flushes"),
                batched_msgs: metrics.counter("prime.batched_msgs"),
                mac_ops: metrics.counter("prime.mac_ops"),
                mac_auth_hits: metrics.counter("prime.mac_auth_hits"),
                mac_fail: metrics.counter("prime.mac_fail"),
            },
            chaos,
            health,
            recovery,
            shards,
            xshard,
            update_latencies_ms,
            update_timeline,
        }
    }

    /// Signature operations (across all replicas) per confirmed update —
    /// the quantity batch signing amortizes.
    pub fn signs_per_update(&self) -> f64 {
        if self.updates_confirmed == 0 {
            return f64::NAN;
        }
        self.auth.sign_ops as f64 / self.updates_confirmed as f64
    }

    /// Full signature verifications per confirmed update — the quantity
    /// per-link session MACs amortize.
    pub fn verifies_per_update(&self) -> f64 {
        if self.updates_confirmed == 0 {
            return f64::NAN;
        }
        self.auth.verify_ops as f64 / self.updates_confirmed as f64
    }

    /// Fraction of submitted updates that were confirmed.
    pub fn delivery_ratio(&self) -> f64 {
        if self.updates_sent == 0 {
            return 0.0;
        }
        self.updates_confirmed as f64 / self.updates_sent as f64
    }

    /// Whole seconds (within `[first, last]` confirmation) during which no
    /// update was confirmed — a coarse unavailability measure.
    pub fn silent_seconds(&self) -> u64 {
        if self.throughput_timeline.len() < 2 {
            return 0;
        }
        let first = self.throughput_timeline.first().unwrap().0;
        let last = self.throughput_timeline.last().unwrap().0;
        let covered: std::collections::BTreeSet<u64> =
            self.throughput_timeline.iter().map(|(s, _)| *s).collect();
        (first..=last).filter(|s| !covered.contains(s)).count() as u64
    }

    /// Renders the per-phase latency breakdown as an aligned text table
    /// (empty string when the run was not traced).
    pub fn phase_table(&self) -> String {
        if self.phase_breakdown.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{:<26} {:>8} {:>9} {:>9} {:>9} {:>9}\n",
            "phase", "count", "mean_ms", "p50_ms", "p99_ms", "max_ms"
        ));
        for p in &self.phase_breakdown {
            out.push_str(&format!(
                "{:<26} {:>8} {:>9.3} {:>9.3} {:>9.3} {:>9.3}\n",
                p.phase, p.count, p.mean_ms, p.p50_ms, p.p99_ms, p.max_ms
            ));
        }
        out
    }

    /// Serializes the full report as one JSON object. Non-finite floats
    /// become `null`.
    pub fn to_json(&self) -> String {
        Json::Obj(self.json_fields()).to_string()
    }

    /// Like [`Report::to_json`], with run provenance as the leading
    /// top-level fields — report JSON then carries the same
    /// `substrate`/`cores`/`threads`/`git_rev` identity as the experiment
    /// summaries.
    pub fn to_json_with(&self, prov: &Provenance) -> String {
        let mut fields = field_list([
            ("substrate", prov.substrate.as_str().into()),
            ("cores", prov.cores.into()),
            ("threads", prov.threads.into()),
            ("git_rev", prov.git_rev.as_str().into()),
        ]);
        fields.extend(self.json_fields());
        Json::Obj(fields).to_string()
    }

    /// The report's top-level JSON fields, in schema order.
    fn json_fields(&self) -> Vec<(String, Json)> {
        let summary = match &self.update_summary {
            Some(s) => Json::obj([
                ("count", s.count.into()),
                ("mean", s.mean.into()),
                ("min", s.min.into()),
                ("p50", s.p50.into()),
                ("p90", s.p90.into()),
                ("p99", s.p99.into()),
                ("p999", s.p999.into()),
                ("max", s.max.into()),
            ]),
            None => Json::Null,
        };
        let auth = Json::obj([
            ("sign_ops", self.auth.sign_ops.into()),
            ("verify_ops", self.auth.verify_ops.into()),
            ("verify_cache_hits", self.auth.verify_cache_hits.into()),
            ("batch_flushes", self.auth.batch_flushes.into()),
            ("batched_msgs", self.auth.batched_msgs.into()),
            ("mac_ops", self.auth.mac_ops.into()),
            ("mac_auth_hits", self.auth.mac_auth_hits.into()),
            ("mac_fail", self.auth.mac_fail.into()),
            (
                "amortization_factor",
                self.auth.amortization_factor().into(),
            ),
            ("signs_per_update", self.signs_per_update().into()),
            ("verifies_per_update", self.verifies_per_update().into()),
        ]);
        let dropped = self.chaos.mailbox_dropped.iter().map(|(class, n)| {
            Json::obj([("class", class.as_str().into()), ("dropped", (*n).into())])
        });
        let chaos = Json::obj([
            ("invariant_checks", self.chaos.invariant_checks.into()),
            (
                "invariant_violations",
                self.chaos.invariant_violations.into(),
            ),
            ("conflicting_accepts", self.chaos.conflicting_accepts.into()),
            ("decode_failures", self.chaos.decode_failures.into()),
            ("corrupted_frames", self.chaos.corrupted_frames.into()),
            ("duplicated_frames", self.chaos.duplicated_frames.into()),
            ("mailbox_retries", self.chaos.mailbox_retries.into()),
            ("mailbox_dropped", Json::Arr(dropped.collect())),
        ]);
        let health = Json::obj([
            ("snapshots", self.health.snapshots.into()),
            ("latency_breaches", self.health.latency_breaches.into()),
            ("delivery_breaches", self.health.delivery_breaches.into()),
            ("silence_breaches", self.health.silence_breaches.into()),
            ("slow_leader_alarms", self.health.slow_leader_alarms.into()),
            ("site_dos_alarms", self.health.site_dos_alarms.into()),
            ("partition_alarms", self.health.partition_alarms.into()),
            ("degraded_windows", self.health.degraded_windows.into()),
        ]);
        let recovery = Json::obj([
            ("started", self.recovery.started.into()),
            ("completed", self.recovery.completed.into()),
            ("completion_rate", self.recovery.completion_rate().into()),
            ("chunks", self.recovery.chunks.into()),
            ("chunk_retries", self.recovery.chunk_retries.into()),
            ("accums_evicted", self.recovery.accums_evicted.into()),
            ("duration_p50_ms", self.recovery.duration_p50_ms.into()),
            ("duration_p99_ms", self.recovery.duration_p99_ms.into()),
            ("compaction_runs", self.recovery.compaction_runs.into()),
            (
                "compaction_evicted",
                self.recovery.compaction_evicted.into(),
            ),
            ("retained_po", self.recovery.retained_po.into()),
            ("retained_slots", self.recovery.retained_slots.into()),
            ("retained_matrices", self.recovery.retained_matrices.into()),
        ]);
        let xshard = Json::obj([
            ("commands", self.xshard.commands.into()),
            ("committed", self.xshard.committed.into()),
            ("aborted", self.xshard.aborted.into()),
            ("retries", self.xshard.retries.into()),
            ("commit_rate", self.xshard.commit_rate().into()),
            ("commit_p50_ms", self.xshard.commit_p50_ms.into()),
            ("commit_p99_ms", self.xshard.commit_p99_ms.into()),
        ]);
        let phases = self.phase_breakdown.iter().map(|p| {
            Json::obj([
                ("phase", p.phase.as_str().into()),
                ("metric", p.metric.as_str().into()),
                ("count", p.count.into()),
                ("mean_ms", p.mean_ms.into()),
                ("p50_ms", p.p50_ms.into()),
                ("p99_ms", p.p99_ms.into()),
                ("max_ms", p.max_ms.into()),
            ])
        });
        let throughput = self
            .throughput_timeline
            .iter()
            .map(|(s, n)| Json::Arr(vec![(*s).into(), (*n).into()]));
        field_list([
            ("schema_version", REPORT_SCHEMA_VERSION.into()),
            ("updates_sent", self.updates_sent.into()),
            ("updates_confirmed", self.updates_confirmed.into()),
            ("delivery_ratio", self.delivery_ratio().into()),
            ("sla_fraction", self.sla_fraction.into()),
            ("sla_ms", SLA_MS.into()),
            ("update_summary", summary),
            ("commands_issued", self.commands_issued.into()),
            ("commands_actuated", self.commands_actuated.into()),
            ("view_changes", self.view_changes.into()),
            ("recoveries_started", self.recoveries.0.into()),
            ("recoveries_completed", self.recoveries.1.into()),
            ("safety_ok", self.safety_ok.into()),
            ("silent_seconds", self.silent_seconds().into()),
            ("auth", auth),
            ("chaos", chaos),
            ("health", health),
            ("recovery", recovery),
            (
                "shards",
                Json::Arr(self.shards.iter().map(ShardStat::to_json).collect()),
            ),
            ("xshard", xshard),
            ("phase_breakdown", Json::Arr(phases.collect())),
            ("throughput_timeline", Json::Arr(throughput.collect())),
        ])
    }

    /// One-line health summary for text reports (present even when no
    /// monitor ran, so its absence is visible too).
    pub fn health_line(&self) -> String {
        let h = &self.health;
        if h.snapshots == 0 {
            return "health: no monitor installed".to_string();
        }
        format!(
            "health: windows={} breaches[lat={} del={} sil={}] alarms[slow_leader={} site_dos={} partition={}]",
            h.snapshots,
            h.latency_breaches,
            h.delivery_breaches,
            h.silence_breaches,
            h.slow_leader_alarms,
            h.site_dos_alarms,
            h.partition_alarms,
        )
    }

    /// One-line human-readable summary.
    pub fn one_line(&self) -> String {
        match &self.update_summary {
            Some(s) => format!(
                "updates {}/{} ({:.2}% <= {}ms) mean={:.1}ms p99={:.1}ms max={:.1}ms vc={} safety={}",
                self.updates_confirmed,
                self.updates_sent,
                self.sla_fraction * 100.0,
                SLA_MS,
                s.mean,
                s.p99,
                s.max,
                self.view_changes,
                if self.safety_ok { "OK" } else { "VIOLATED" },
            ),
            None => "no updates confirmed".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(timeline: Vec<(u64, u64)>, sent: u64, confirmed: u64) -> Report {
        Report {
            update_latencies_ms: vec![],
            update_timeline: vec![],
            update_summary: None,
            sla_fraction: 0.0,
            updates_sent: sent,
            updates_confirmed: confirmed,
            commands_issued: 0,
            commands_actuated: 0,
            command_latencies_ms: vec![],
            view_changes: 0,
            recoveries: (0, 0),
            safety_ok: true,
            throughput_timeline: timeline,
            phase_breakdown: vec![],
            auth: AuthStats::default(),
            chaos: ChaosStats::default(),
            health: HealthStats::default(),
            recovery: RecoveryStats::default(),
            shards: vec![],
            xshard: XShardStats::default(),
        }
    }

    #[test]
    fn delivery_ratio_handles_zero_sent() {
        assert_eq!(report_with(vec![], 0, 0).delivery_ratio(), 0.0);
        assert!((report_with(vec![], 10, 9).delivery_ratio() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn silent_seconds_counts_gaps() {
        // Confirmations in seconds 0, 1, 4: seconds 2 and 3 are silent.
        let r = report_with(vec![(0, 5), (1, 5), (4, 5)], 0, 0);
        assert_eq!(r.silent_seconds(), 2);
        // No gap.
        let r = report_with(vec![(0, 5), (1, 5), (2, 5)], 0, 0);
        assert_eq!(r.silent_seconds(), 0);
        // Degenerate timelines.
        assert_eq!(report_with(vec![], 0, 0).silent_seconds(), 0);
        assert_eq!(report_with(vec![(3, 1)], 0, 0).silent_seconds(), 0);
    }

    #[test]
    fn one_line_mentions_safety() {
        let r = report_with(vec![], 0, 0);
        assert_eq!(r.one_line(), "no updates confirmed");
    }

    #[test]
    fn phase_table_empty_without_tracing() {
        assert!(report_with(vec![], 0, 0).phase_table().is_empty());
    }

    #[test]
    fn amortization_factor_defaults_to_one() {
        assert_eq!(AuthStats::default().amortization_factor(), 1.0);
        let a = AuthStats {
            batch_flushes: 4,
            batched_msgs: 32,
            ..AuthStats::default()
        };
        assert_eq!(a.amortization_factor(), 8.0);
        assert!(report_with(vec![], 0, 0).signs_per_update().is_nan());
    }

    #[test]
    fn to_json_carries_counts_and_phases() {
        let mut r = report_with(vec![(0, 2), (1, 3)], 4, 3);
        r.phase_breakdown.push(PhaseStat {
            phase: "submit -> confirm (total)".to_string(),
            metric: "span.total_us".to_string(),
            count: 7,
            mean_ms: 12.5,
            p50_ms: 11.0,
            p99_ms: 40.0,
            max_ms: 55.0,
        });
        r.auth = AuthStats {
            sign_ops: 20,
            verify_ops: 50,
            verify_cache_hits: 30,
            batch_flushes: 5,
            batched_msgs: 40,
            mac_ops: 100,
            mac_auth_hits: 60,
            mac_fail: 1,
        };
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"sign_ops\":20"));
        assert!(json.contains("\"amortization_factor\":8"));
        assert!(json.contains("\"updates_sent\":4"));
        assert!(json.contains("\"updates_confirmed\":3"));
        assert!(json.contains("\"metric\":\"span.total_us\""));
        assert!(json.contains("\"throughput_timeline\":[[0,2],[1,3]]"));
        assert!(!r.phase_table().is_empty());
    }

    #[test]
    fn to_json_carries_chaos_section() {
        let mut r = report_with(vec![], 0, 0);
        r.chaos = ChaosStats {
            invariant_checks: 60,
            invariant_violations: 0,
            conflicting_accepts: 0,
            decode_failures: 3,
            corrupted_frames: 12,
            duplicated_frames: 40,
            mailbox_retries: 7,
            mailbox_dropped: vec![("liveness".to_string(), 2), ("ordering".to_string(), 1)],
        };
        let json = r.to_json();
        assert!(json.contains("\"chaos\":{\"invariant_checks\":60"));
        assert!(json.contains("{\"class\":\"liveness\",\"dropped\":2}"));
        assert_eq!(r.chaos.mailbox_dropped_total(), 3);
    }

    #[test]
    fn to_json_carries_health_and_schema_version() {
        let mut r = report_with(vec![], 0, 0);
        r.health = HealthStats {
            snapshots: 30,
            latency_breaches: 1,
            delivery_breaches: 0,
            silence_breaches: 0,
            slow_leader_alarms: 4,
            site_dos_alarms: 0,
            partition_alarms: 0,
            degraded_windows: 0,
        };
        let json = r.to_json();
        assert!(json.starts_with(&format!("{{\"schema_version\":{REPORT_SCHEMA_VERSION},")));
        assert!(json.contains("\"health\":{\"snapshots\":30,\"latency_breaches\":1"));
        assert!(json.contains("\"slow_leader_alarms\":4"));
        assert_eq!(r.health.breaches(), 1);
        assert_eq!(r.health.alarms(), 4);
        assert!(!r.health.quiet());
        assert!(r.health_line().contains("slow_leader=4"));
        assert_eq!(
            report_with(vec![], 0, 0).health_line(),
            "health: no monitor installed"
        );
    }

    #[test]
    fn to_json_carries_recovery_section() {
        let mut r = report_with(vec![], 0, 0);
        r.recovery = RecoveryStats {
            started: 10,
            completed: 9,
            chunks: 180,
            chunk_retries: 12,
            accums_evicted: 1,
            duration_p50_ms: 350.0,
            duration_p99_ms: 1200.0,
            compaction_runs: 40,
            compaction_evicted: 5000,
            retained_po: 48.0,
            retained_slots: 25.0,
            retained_matrices: 25.0,
        };
        let json = r.to_json();
        assert!(json.contains("\"recovery\":{\"started\":10,\"completed\":9"));
        assert!(json.contains("\"chunk_retries\":12"));
        assert!(json.contains("\"compaction_evicted\":5000"));
        assert!((r.recovery.completion_rate() - 0.9).abs() < 1e-9);
        // A run without recoveries serializes cleanly: zeros + null rate.
        let plain = report_with(vec![], 0, 0);
        assert!(plain.to_json().contains("\"recovery\":{\"started\":0"));
        assert!(plain.to_json().contains("\"completion_rate\":null"));
        assert!(plain.recovery.completion_rate().is_nan());
    }

    #[test]
    fn to_json_carries_shard_and_xshard_sections() {
        let mut r = report_with(vec![], 20, 18);
        r.shards = vec![
            ShardStat {
                shard: 0,
                sent: 12,
                confirmed: 11,
                p50_ms: 60.0,
                p99_ms: 95.0,
            },
            ShardStat {
                shard: 1,
                sent: 8,
                confirmed: 7,
                p50_ms: 58.0,
                p99_ms: 90.0,
            },
        ];
        r.xshard = XShardStats {
            commands: 10,
            committed: 8,
            aborted: 2,
            retries: 3,
            commit_p50_ms: 250.0,
            commit_p99_ms: 600.0,
        };
        let json = r.to_json();
        assert!(json.contains("\"shards\":[{\"shard\":0,\"sent\":12"));
        assert!(json.contains("{\"shard\":1,\"sent\":8"));
        assert!(json.contains("\"xshard\":{\"commands\":10,\"committed\":8,\"aborted\":2"));
        assert!(json.contains("\"commit_rate\":0.8"));
        assert!((r.xshard.commit_rate() - 0.8).abs() < 1e-9);
        // Single-group reports stay clean: empty array, NaN rate -> null.
        let plain = report_with(vec![], 0, 0);
        assert!(plain.to_json().contains("\"shards\":[]"));
        assert!(plain.to_json().contains("\"commit_rate\":null"));
        assert!(plain.xshard.commit_rate().is_nan());
    }

    #[test]
    fn to_json_with_splices_provenance_fields() {
        let r = report_with(vec![], 2, 1);
        let prov = Provenance::of("rt:4", 4, "abc123def456");
        let json = r.to_json_with(&prov);
        assert!(json.starts_with("{\"substrate\":\"rt:4\",\"cores\":"));
        assert!(json.contains("\"threads\":4"));
        assert!(json.contains("\"git_rev\":\"abc123def456\""));
        assert!(json.contains("\"updates_sent\":2"));
        assert!(json.ends_with('}'));
        assert!(prov.cores >= 1);
    }

    #[test]
    fn health_stats_quiet_requires_a_running_monitor() {
        assert!(!HealthStats::default().quiet(), "no monitor is not quiet");
        let h = HealthStats {
            snapshots: 10,
            ..HealthStats::default()
        };
        assert!(h.quiet());
        let h = HealthStats {
            snapshots: 10,
            site_dos_alarms: 1,
            ..HealthStats::default()
        };
        assert!(!h.quiet());
    }
}
