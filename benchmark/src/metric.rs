//! The metric vocabulary: every name the benchmark prints, with its unit,
//! in the order `BENCHMARK.json` declares them (a test keeps the two in
//! step).

use crate::json::Json;

/// End-to-end metrics `(name, unit)`; lower is better for all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("confirm_p50_ms", "ms"),
    ("confirm_p90_ms", "ms"),
    ("command_p50_ms", "ms"),
    ("msgs_per_op", "1/op"),
    ("service_gap_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit)`, grouped by layer (= crate).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("crypto.sign_us", "us"),
    ("crypto.verify_us", "us"),
    ("crypto.batch_sign16_us", "us"),
    ("crypto.proof_verify_us", "us"),
    ("crypto.hmac_256b_ns", "ns"),
    ("crypto.sha256_1k_ns", "ns"),
    ("crypto.signs_per_op", "1/op"),
    ("crypto.verifies_per_op", "1/op"),
    ("crypto.macs_per_op", "1/op"),
    ("crypto.verify_cache_hit_ratio", "ratio"),
    ("crypto.batch_amortization", "ratio"),
    ("crypto.est_cpu_ms_per_op", "ms"),
    ("prime.step_us_per_op", "us"),
    ("prime.steps_per_op", "1/op"),
    ("prime.codec_encode_ns", "ns"),
    ("prime.codec_decode_ns", "ns"),
    ("prime.ops_per_preprepare", "ratio"),
    ("prime.link_frames_per_batch", "ratio"),
    ("prime.po_retries", "count"),
    ("prime.view_changes", "count"),
    ("prime.recovery_ms", "ms"),
    ("prime.retained_po", "count"),
    ("spines.cpu_us_per_msg", "us"),
    ("spines.frames_per_msg", "ratio"),
    ("spines.codec_ns", "ns"),
    ("spines.frames_per_op", "1/op"),
    ("spines.frames_per_batch", "ratio"),
    ("spines.retx_ratio", "ratio"),
    ("spines.hop_p50_us", "us"),
    ("spines.hop_p99_us", "us"),
    ("sim.events_per_s", "1/s"),
    ("sim.wire_ns", "ns"),
    ("sim.metrics_count_ns", "ns"),
    ("sim.msgs_per_op", "1/op"),
    ("sim.trace_overhead_frac", "ratio"),
    ("rt.hop_p50_us", "us"),
    ("rt.hop_p99_us", "us"),
    ("rt.timer_late_p50_us", "us"),
    ("rt.timer_late_p99_us", "us"),
    ("rt.frames_per_s", "1/s"),
    ("rt.busy_frac", "ratio"),
    ("rt.msgs_per_op", "1/op"),
    ("rt.frames_per_envelope", "ratio"),
    ("rt.drops", "count"),
    ("rt.mailbox_retries", "count"),
    ("rt.overhead_p50_ms", "ms"),
    ("scada.apply_ns", "ns"),
    ("scada.op_codec_ns", "ns"),
    ("scada.gen_late_frac", "ratio"),
    ("scada.cmd_actuated_ratio", "ratio"),
    ("core.confirm_p99_ms", "ms"),
    ("core.sla_fraction", "ratio"),
    ("core.delivery_ratio", "ratio"),
    ("core.report_ms", "ms"),
    ("core.cpu_ms_per_op", "ms"),
    ("phase.samples", "count"),
    ("phase.overlay_in_p50_ms", "ms"),
    ("phase.preorder_p50_ms", "ms"),
    ("phase.order_p50_ms", "ms"),
    ("phase.execute_p50_ms", "ms"),
    ("phase.reply_p50_ms", "ms"),
    ("phase.overlay_in_p99_ms", "ms"),
    ("phase.preorder_p99_ms", "ms"),
    ("phase.order_p99_ms", "ms"),
    ("phase.execute_p99_ms", "ms"),
    ("phase.reply_p99_ms", "ms"),
    ("phase.sum_over_total", "ratio"),
];

/// One measured value. `value` is `None` when the measurement does not
/// exist (an empty sample): printed as `null`, and the run counts as
/// failed. `samples` is the sample count behind a timing.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Option<f64>,
    pub samples: Option<usize>,
}

/// All metrics of one list, in declaration order; filled in by name.
pub struct MetricSet(Vec<Metric>);

impl MetricSet {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> MetricSet {
        MetricSet(
            table
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    unit,
                    value: None,
                    samples: None,
                })
                .collect(),
        )
    }

    fn slot(&mut self, name: &str) -> &mut Metric {
        self.0
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"))
    }

    /// Sets a metric; a non-finite value stays unmeasured.
    pub fn set(&mut self, name: &str, value: f64) {
        self.slot(name).value = Some(value).filter(|v| v.is_finite());
    }

    /// Sets a timing summarised from `samples` samples (`None` if empty).
    pub fn set_sampled(&mut self, name: &str, value: Option<f64>, samples: usize) {
        let slot = self.slot(name);
        slot.value = value.filter(|v| v.is_finite());
        slot.samples = Some(samples);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name)?.value
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }

    /// Names that were never measured.
    pub fn missing(&self) -> Vec<&'static str> {
        self.iter()
            .filter(|m| m.value.is_none())
            .map(|m| m.name)
            .collect()
    }

    /// Every metric by name with its unit, one per line.
    pub fn render(&self) -> String {
        self.iter()
            .map(|m| {
                let value = m.value.map_or("null".to_string(), |v| format!("{v:.4}"));
                let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
                format!("  {:<32} {:>14} {}{}\n", m.name, value, m.unit, samples)
            })
            .collect()
    }

    /// `{"name": {"value": v, "unit": u}, ...}` — the contract's shape.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|m| {
                    let entry =
                        Json::obj([("value", Json::opt(m.value)), ("unit", Json::str(m.unit))]);
                    (m.name.to_string(), entry)
                })
                .collect(),
        )
    }
}
