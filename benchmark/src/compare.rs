//! `compare A.json B.json`: is B worse than A?
//!
//! For every pairing of workload and end-to-end metric that
//! `BENCHMARK.json` names, B's value is set against A's (the base of every
//! ratio) under a bound. `BENCHMARK.json` has one bound per metric, set by
//! the workload on which the metric is noisiest; the calibration file
//! records one per pairing (twice the calibrated spread, with a floor), and
//! the tighter of the two applies. A pairing whose recorded run-to-run
//! spread is wider than its bound cannot be told apart from noise and is
//! reported as unresolved, not as unchanged. The spread is the largest of
//! those the two result files and the calibration file carry.

use crate::json::{self, Json};
use crate::Args;
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Unresolved,
    Worse,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "WORSE",
        }
    }
}

#[derive(Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: Option<f64>,
    pub b: Option<f64>,
    /// How much worse B is than A, as a share of A (negative = better).
    pub worse_by: Option<f64>,
    pub bound: f64,
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

/// The verdict for one pairing. `worse_by` is B's change in the bad
/// direction as a share of A.
pub fn verdict(worse_by: Option<f64>, bound: f64, spread: Option<f64>) -> Verdict {
    match worse_by {
        // B has no value: the run behind it failed.
        None => Verdict::Worse,
        Some(_) if spread.is_some_and(|s| s > bound) => Verdict::Unresolved,
        Some(w) if w > bound => Verdict::Worse,
        Some(w) if w < -bound => Verdict::Better,
        Some(_) => Verdict::WithinBound,
    }
}

fn pairing<'a>(file: &'a Json, workload: &str, metric: &str) -> Option<&'a Json> {
    file.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)
}

fn number(entry: Option<&Json>, key: &str) -> Option<f64> {
    entry?.get(key)?.as_f64()
}

/// One row per (workload, end-to-end metric) of `spec`, in its order.
pub fn compare(
    spec: &Json,
    a: &Json,
    b: &Json,
    calibration: Option<&Json>,
) -> Result<Vec<Row>, String> {
    let list = |key: &str| {
        spec.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json has no {key} list"))
    };
    let field = |entry: &Json, key: &str| {
        entry
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("BENCHMARK.json entry without {key}"))
    };
    let mut rows = Vec::new();
    for w in list("workloads")? {
        let workload = field(w, "name")?;
        for m in list("end_to_end")? {
            let metric = field(m, "name")?;
            let metric_bound = number(Some(m), "bound").ok_or(format!("{metric} has no bound"))?;
            let higher_is_better = field(m, "better")? == "higher";
            let entries = [
                pairing(a, &workload, &metric),
                pairing(b, &workload, &metric),
                calibration.and_then(|c| pairing(c, &workload, &metric)),
            ];
            let (va, vb) = (number(entries[0], "value"), number(entries[1], "value"));
            let worse_by = va.zip(vb).filter(|(va, _)| *va != 0.0).map(|(va, vb)| {
                let change = (vb - va) / va.abs();
                if higher_is_better {
                    -change
                } else {
                    change
                }
            });
            let spread = entries
                .iter()
                .filter_map(|e| number(*e, "spread"))
                .reduce(f64::max);
            let bound = number(entries[2], "bound").map_or(metric_bound, |b| b.min(metric_bound));
            let verdict = match (va, vb) {
                // Nothing to set B against.
                (None, Some(_)) => Verdict::Unresolved,
                _ => verdict(worse_by, bound, spread),
            };
            rows.push(Row {
                unit: field(m, "unit")?,
                workload: workload.clone(),
                metric,
                a: va,
                b: vb,
                worse_by,
                bound,
                spread,
                verdict,
            });
        }
    }
    Ok(rows)
}

fn render(row: &Row) -> String {
    let value = |v: Option<f64>| v.map_or("null".to_string(), |v| format!("{v:.4}"));
    let percent =
        |v: Option<f64>| v.map_or("   n/a".to_string(), |v| format!("{:+6.2} %", v * 100.0));
    format!(
        "{:<13} {:<15} A {:>11} B {:>11} {:<4} B worse by {} of A | bound {:>5.1} % | spread {} | {}",
        row.workload,
        row.metric,
        value(row.a),
        value(row.b),
        row.unit,
        percent(row.worse_by),
        row.bound * 100.0,
        percent(row.spread),
        row.verdict.label()
    )
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Exit code: 1 when a pairing is worse or a workload of B that
/// `BENCHMARK.json` lists failed its checks, else 0. Unresolved pairings are listed and counted but cannot
/// be judged either way, so they do not fail the comparison.
pub fn main(args: &Args) -> Result<ExitCode, String> {
    args.only(&["--spec", "--calibration"])?;
    let [_, a, b] = args.positional.as_slice() else {
        return Err("compare takes two result files".to_string());
    };
    let spec = load(args.text("--spec").unwrap_or("BENCHMARK.json"))?;
    let calibration_path = args
        .text("--calibration")
        .unwrap_or("benchmark/calibration.json");
    // The calibration file is optional evidence, not an input.
    let calibration = load(calibration_path).ok();
    let (a, b) = (load(a)?, load(b)?);
    let rows = compare(&spec, &a, &b, calibration.as_ref())?;
    for row in &rows {
        println!("{}", render(row));
    }
    let failed: Vec<&str> = b
        .get("workloads")
        .and_then(Json::as_obj)
        .unwrap_or_default()
        .iter()
        .filter(|(name, _)| rows.iter().any(|r| r.workload == *name))
        .filter(|(_, w)| w.get("correct").and_then(Json::as_bool) != Some(true))
        .map(|(name, _)| name.as_str())
        .collect();
    for name in &failed {
        println!("{name}: B failed its output checks");
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} pairings: {} better, {} within bound, {} unresolved, {} worse",
        rows.len(),
        count(Verdict::Better),
        count(Verdict::WithinBound),
        count(Verdict::Unresolved),
        count(Verdict::Worse)
    );
    Ok(if failed.is_empty() && count(Verdict::Worse) == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "workloads": [{"name": "w1", "why": "x"}, {"name": "w2", "why": "y"}],
        "end_to_end": [
            {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.05}
        ]
    }"#;

    fn result(w1: (f64, f64), w2: (Option<f64>, f64), spread: Option<f64>) -> Json {
        let entry =
            |v: Option<f64>| Json::obj([("value", Json::opt(v)), ("spread", Json::opt(spread))]);
        let workload = |lat: Option<f64>, rate: f64| {
            Json::obj([
                ("correct", Json::Bool(true)),
                (
                    "end_to_end",
                    Json::obj([("lat_ms", entry(lat)), ("rate", entry(Some(rate)))]),
                ),
            ])
        };
        Json::obj([(
            "workloads",
            Json::obj([
                ("w1", workload(Some(w1.0), w1.1)),
                ("w2", workload(w2.0, w2.1)),
            ]),
        )])
    }

    fn verdicts(a: &Json, b: &Json, calibration: Option<&Json>) -> Vec<Verdict> {
        compare(&json::parse(SPEC).unwrap(), a, b, calibration)
            .unwrap()
            .iter()
            .map(|r| r.verdict)
            .collect()
    }

    #[test]
    fn verdict_respects_direction_bound_and_base() {
        let a = result((100.0, 50.0), (Some(10.0), 1000.0), None);
        // w1: latency +9 % (inside 10 %), rate -6 % (outside 5 %, and lower
        // is worse). w2: latency -20 % (better), rate +2 % (inside).
        let b = result((109.0, 47.0), (Some(8.0), 1020.0), None);
        use Verdict::*;
        assert_eq!(
            verdicts(&a, &b, None),
            [WithinBound, Worse, Better, WithinBound]
        );
        // The other way round the base changes: 100 against 109 is -8.3 %.
        assert_eq!(
            verdicts(&b, &a, None),
            [WithinBound, Better, Worse, WithinBound]
        );
        let rows = compare(&json::parse(SPEC).unwrap(), &a, &b, None).unwrap();
        assert!((rows[0].worse_by.unwrap() - 0.09).abs() < 1e-12);
        assert!((rows[1].worse_by.unwrap() - 0.06).abs() < 1e-12);
        assert_eq!(rows[1].unit, "1/s");
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = result((100.0, 50.0), (Some(10.0), 1000.0), Some(0.07));
        let b = result((150.0, 50.0), (Some(10.0), 1000.0), None);
        use Verdict::*;
        // 7 % spread: inside lat_ms's 10 % bound, outside rate's 5 %.
        assert_eq!(
            verdicts(&a, &b, None),
            [Worse, Unresolved, WithinBound, Unresolved]
        );
        // The calibration file's spread counts when it is the largest.
        let calibration = result((1.0, 1.0), (Some(1.0), 1.0), Some(0.5));
        assert_eq!(
            verdicts(&b, &b, Some(&calibration)),
            [Unresolved, Unresolved, Unresolved, Unresolved]
        );
    }

    #[test]
    fn the_tighter_of_metric_bound_and_calibrated_pairing_bound_applies() {
        let a = result((100.0, 50.0), (Some(10.0), 1000.0), None);
        let b = result((104.0, 50.0), (Some(10.4), 1000.0), None);
        // +4 % is inside lat_ms's 10 % ...
        assert_eq!(verdicts(&a, &b, None)[0], Verdict::WithinBound);
        // ... but outside a calibrated 2 % for the pairing (w1, lat_ms); a
        // calibrated bound looser than the metric's changes nothing.
        let entry = |bound: f64| {
            Json::obj([(
                "end_to_end",
                Json::obj([("lat_ms", Json::obj([("bound", Json::Num(bound))]))]),
            )])
        };
        let calibration = Json::obj([(
            "workloads",
            Json::obj([("w1", entry(0.02)), ("w2", entry(0.5))]),
        )]);
        let rows = compare(&json::parse(SPEC).unwrap(), &a, &b, Some(&calibration)).unwrap();
        assert_eq!((rows[0].bound, rows[0].verdict), (0.02, Verdict::Worse));
        assert_eq!(
            (rows[2].bound, rows[2].verdict),
            (0.1, Verdict::WithinBound)
        );
    }

    #[test]
    fn a_missing_value_is_worse_in_b_and_unresolved_in_a() {
        let a = result((100.0, 50.0), (Some(10.0), 1000.0), None);
        let b = result((100.0, 50.0), (None, 1000.0), None);
        assert_eq!(verdicts(&a, &b, None)[2], Verdict::Worse);
        assert_eq!(verdicts(&b, &a, None)[2], Verdict::Unresolved);
        // A workload that is absent altogether reads the same way.
        let empty = Json::obj([("workloads", Json::obj([]))]);
        assert!(verdicts(&a, &empty, None)
            .iter()
            .all(|v| *v == Verdict::Worse));
    }

    #[test]
    fn a_spec_without_bounds_is_an_error() {
        let a = result((1.0, 1.0), (Some(1.0), 1.0), None);
        let spec =
            json::parse(r#"{"workloads": [{"name": "w1", "why": "x"}], "end_to_end": 3}"#).unwrap();
        assert!(compare(&spec, &a, &a, None).is_err());
    }
}
