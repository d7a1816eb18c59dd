//! Sample summaries that never panic on an empty sample.
//!
//! `spire_sim::stats::percentile` asserts on an empty slice, and a
//! collapsed rt run can actuate no command at all; here an empty sample is
//! `None`, which the caller reports as `null` and counts as a failed run.

/// Sorted copy of `values` (samples are finite by construction: they are
/// latencies and timer readings).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// `spire_sim::stats::percentile` (linear interpolation between closest
/// ranks); `None` for no samples.
pub fn percentile(values: &[f64], pct: f64) -> Option<f64> {
    (!values.is_empty()).then(|| spire_sim::stats::percentile(values, pct))
}

pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// The distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's `statistics.quantiles(v, n=4)`
/// (its default "exclusive" method) — the spread the acceptance rule uses.
/// `None` below two samples or when the median is zero.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let mid = median(&v)?;
    (mid != 0.0).then(|| (quartile(3) - quartile(1)) / mid.abs())
}

/// The share of the measured window that [`service_gap_ms`] lets the
/// longest confirm-free intervals cover before it reports one.
pub const GAP_SHARE: f64 = 0.05;

/// How long service is away when it is away: the confirm-free intervals
/// inside `[from_us, to_us]` (both edges included) are taken longest first
/// until they cover [`GAP_SHARE`] of the window, and the last one taken is
/// reported, in milliseconds. An outage longer than that share — the
/// 2.2 s of `sim_attack` in 38 s — is reported as itself; on a steady run
/// the result is the fifth or so longest gap between report bursts, which
/// repeats from run to run where the single longest (a maximum) does not.
/// `confirmed_us` are confirmation times in ascending order; those outside
/// the window are ignored. With none inside, the whole window is the gap.
pub fn service_gap_ms(confirmed_us: &[u64], from_us: u64, to_us: u64) -> f64 {
    let mut gaps = Vec::new();
    let mut last = from_us;
    for &t in confirmed_us
        .iter()
        .filter(|t| (from_us..=to_us).contains(t))
    {
        gaps.push(t - last);
        last = t;
    }
    gaps.push(to_us.saturating_sub(last));
    gaps.sort_unstable_by(|a, b| b.cmp(a));
    let quota = GAP_SHARE * to_us.saturating_sub(from_us) as f64;
    let mut covered = 0.0;
    for gap in gaps {
        covered += gap as f64;
        if covered >= quota {
            return gap as f64 / 1000.0;
        }
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_empty_and_single_samples() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), None);
        for pct in [0.0, 50.0, 90.0, 100.0] {
            assert_eq!(percentile(&[42.0], pct), Some(42.0));
        }
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 50.0), Some(2.5));
    }

    #[test]
    fn quartile_spread_matches_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&ten).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12], n=4) == [9.5, 11.0, 12.5]
        assert!((quartile_spread(&[12.0, 10.0]).unwrap() - 3.0 / 11.0).abs() < 1e-12);
        // statistics.quantiles([3, 3, 3, 3, 3], n=4) == [3, 3, 3]
        assert_eq!(quartile_spread(&[3.0; 5]), Some(0.0));
        assert_eq!(quartile_spread(&[1.0]), None);
        assert_eq!(quartile_spread(&[]), None);
        assert_eq!(quartile_spread(&[0.0, 0.0]), None);
    }

    #[test]
    fn service_gap_reports_an_outage_and_ignores_a_lone_hiccup() {
        // 100 s window, a confirmation every 200 ms: every gap is 200 ms.
        let steady: Vec<u64> = (1..=500).map(|i| i * 200_000).collect();
        assert_eq!(service_gap_ms(&steady, 0, 100_000_000), 200.0);
        // One 3 s hiccup is 3 % of the window: under the 5 % share, so the
        // next-longest gaps are reached.
        let hiccup: Vec<u64> = steady
            .iter()
            .map(|t| t + if *t > 50_000_000 { 2_800_000 } else { 0 })
            .collect();
        assert_eq!(service_gap_ms(&hiccup, 0, 102_800_000), 200.0);
        // A 6 s outage is more than 5 %: reported as itself.
        let outage: Vec<u64> = steady
            .iter()
            .map(|t| t + if *t > 50_000_000 { 5_800_000 } else { 0 })
            .collect();
        assert_eq!(service_gap_ms(&outage, 0, 105_800_000), 6000.0);
    }

    #[test]
    fn service_gap_counts_both_edges_and_ignores_outside_samples() {
        // The leading edge: nothing confirmed until 0.9 s of 1 s.
        assert_eq!(service_gap_ms(&[900_000], 0, 1_000_000), 900.0);
        // The trailing edge: service stopped at 3.2 s and never came back.
        let t = [1_000_000, 1_200_000, 3_200_000];
        assert_eq!(service_gap_ms(&t, 1_000_000, 9_200_000), 6000.0);
        // Samples outside the window are ignored; none inside = all of it.
        assert_eq!(service_gap_ms(&[1, 9_999_999], 1_000, 2_000), 1.0);
        assert_eq!(service_gap_ms(&[], 0, 5_000), 5.0);
    }
}
