//! The repository benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! spire-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--spans FILE]
//! spire-benchmark run [--seed N] [--seconds S] [--reps R] [--out DIR] [--smoke]
//! spire-benchmark compare A.json B.json [--spec BENCHMARK.json] [--calibration FILE]
//! ```
//!
//! The first form runs one workload in this process and prints, as its last
//! line, one JSON object `{correct, attempted, failed, metrics}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `run` calls the first form in a child process per workload
//! and pass (so CPU time and peak RSS are per workload) and writes one
//! result file; `compare` applies the bounds of `BENCHMARK.json` to two
//! result files.

mod compare;
mod json;
mod layers;
mod metric;
mod run;
mod spans;
mod stats;
mod sys;
mod workload;

use json::Json;
use layers::Effort;
use metric::{MetricSet, PER_LAYER};
use spans::Spans;
use std::process::ExitCode;
use workload::{Finished, Plan, Substrate, Workload};

pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Command-line arguments as `--name value` pairs, bare `--flag`s and
/// positional words.
pub struct Args {
    options: Vec<(String, String)>,
    flags: Vec<String>,
    pub positional: Vec<String>,
}

impl Args {
    const FLAGS: [&'static str; 1] = ["--smoke"];

    fn parse(mut words: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            options: Vec::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        while let Some(word) = words.next() {
            if Args::FLAGS.contains(&word.as_str()) {
                args.flags.push(word);
            } else if word.starts_with("--") {
                let value = words.next().ok_or(format!("{word} needs a value"))?;
                args.options.push((word, value));
            } else {
                args.positional.push(word);
            }
        }
        Ok(args)
    }

    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    pub fn text(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.text(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name} takes a whole number, got {v:?}")),
        }
    }

    /// Rejects options this sub-command does not know.
    pub fn only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .options
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown option {k}")),
            None => Ok(()),
        }
    }
}

/// `setup_s` is the median of this many consecutive builds.
const SETUP_BUILDS: usize = 5;

/// What one workload run reports.
struct Outcome {
    metrics: MetricSet,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// One build-schedule-run of `w` (a single build: `setup_s` belongs to the
/// untraced pass).
fn one_run(w: &Workload, seed: u64, trace: bool, plan: &Plan, spans: &mut Spans) -> Finished {
    let cfg = workload::configure(w, seed, trace);
    let (mut d, _) = workload::build(&cfg, 1, spans);
    workload::schedule(w, &mut d, plan);
    workload::run(w, d, plan, spans)
}

/// The untraced pass: the end-to-end metrics.
fn end_to_end_pass(w: &Workload, seed: u64, seconds: u64, spans: &mut Spans) -> Outcome {
    let plan = Plan::new(w, seconds, false);
    let cfg = workload::configure(w, seed, false);
    let (mut d, setup_s) = workload::build(&cfg, SETUP_BUILDS, spans);
    workload::schedule(w, &mut d, &plan);
    let fin = workload::run(w, d, &plan, spans);
    let metrics = workload::end_to_end(&fin, &plan, setup_s);
    println!(
        "  sla_met {} (confirm_p90_ms <= 100 ms and nothing failed)",
        workload::sla_met(&metrics, &fin)
    );
    Outcome {
        attempted: fin.attempted(),
        failed: fin.failed(),
        problems: workload::check(w, &fin),
        metrics,
    }
}

/// The traced pass: the per-layer metrics. On sim the workload runs twice
/// at half length with the same seed, tracing off then on: the pair must
/// agree on every virtual-time sample and counter (the determinism check),
/// their CPU ratio is the tracing overhead, and the traced run fills
/// `phase.*` and the hop histogram. On rt `trace` is a no-op, so the
/// workload runs once at full length and a short sim run of the same
/// traffic gives the reference for `rt.overhead_p50_ms`.
fn per_layer_pass(
    w: &Workload,
    seed: u64,
    seconds: u64,
    effort: Effort,
    spans: &mut Spans,
) -> Outcome {
    let mut m = MetricSet::new(PER_LAYER);
    layers::harnesses(&mut m, effort, spans);
    let mut problems = Vec::new();
    let fin = match w.substrate {
        Substrate::Sim => {
            let plan = Plan::new(w, seconds, true);
            let untraced = spans.scope("untraced", |s| one_run(w, seed, false, &plan, s));
            let traced = spans.scope("traced", |s| one_run(w, seed, true, &plan, s));
            if untraced.virtual_fingerprint() != traced.virtual_fingerprint() {
                problems.push(format!(
                    "seed {seed} run twice gave different virtual-time samples or counters"
                ));
            }
            let untraced_problems = workload::check(w, &untraced);
            problems.extend(
                untraced_problems
                    .iter()
                    .map(|p| format!("untraced run: {p}")),
            );
            layers::from_run(&mut m, w, &traced, &plan);
            if let (Some(off), Some(on)) = (untraced.cpu_ms_per_op(), traced.cpu_ms_per_op()) {
                m.set("sim.trace_overhead_frac", on / off - 1.0);
                m.set("core.cpu_ms_per_op", off);
            }
            m.set("rt.overhead_p50_ms", 0.0);
            traced
        }
        Substrate::Rt => {
            let plan = Plan::new(w, seconds, false);
            let fin = one_run(w, seed, false, &plan, spans);
            layers::from_run(&mut m, w, &fin, &plan);
            if let Some(cpu) = fin.cpu_ms_per_op() {
                m.set("core.cpu_ms_per_op", cpu);
            }
            m.set("sim.trace_overhead_frac", 0.0);
            let reference = Workload {
                substrate: Substrate::Sim,
                length: (1, 6),
                warmup: (1, 10),
                ..*w
            };
            let ref_plan = Plan::new(&reference, seconds, false);
            let on_sim = spans.scope("sim-reference", |s| {
                one_run(&reference, seed, false, &ref_plan, s)
            });
            let p50 = |f: &Finished, p: &Plan| stats::median(&f.window_update_ms(p));
            if let (Some(rt), Some(sim)) = (p50(&fin, &plan), p50(&on_sim, &ref_plan)) {
                m.set("rt.overhead_p50_ms", rt - sim);
            }
            fin
        }
    };
    if w.attack == (m.get("prime.view_changes") == Some(0.0)) {
        println!(
            "  FLAG prime.view_changes = {:?} on {}: expected {}",
            m.get("prime.view_changes"),
            w.name,
            if w.attack { "some" } else { "none" }
        );
    }
    problems.extend(workload::check(w, &fin));
    Outcome {
        metrics: m,
        attempted: fin.attempted(),
        failed: fin.failed(),
        problems,
    }
}

/// The contract's form: one workload, one pass, one JSON line at the end.
fn single(args: &Args) -> Result<ExitCode, String> {
    args.only(&["--workload", "--seed", "--seconds", "--trace", "--spans"])?;
    let name = args.text("--workload").ok_or("--workload is required")?;
    let w = workload::find(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = args.number("--seed", run::DEFAULT_SEED)?;
    let smoke = args.flag("--smoke");
    let default_seconds = if smoke {
        run::SMOKE_SECONDS
    } else {
        run::SECONDS
    };
    let seconds = args.number("--seconds", default_seconds)?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds must be 1..=60, got {seconds}"));
    }
    let trace = match args.number("--trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let effort = if smoke { Effort::SMOKE } else { Effort::FULL };

    println!(
        "workload {} seed {seed} seconds {seconds} trace {} (nproc {}, rt workers {})",
        w.name,
        trace as u8,
        sys::nproc(),
        sys::rt_workers()
    );
    let mut spans = Spans::new();
    spans.enter(w.name);
    let mut outcome = if trace {
        per_layer_pass(w, seed, seconds, effort, &mut spans)
    } else {
        end_to_end_pass(w, seed, seconds, &mut spans)
    };
    spans.exit();
    for name in outcome.metrics.missing() {
        outcome
            .problems
            .push(format!("{name} could not be measured (no samples)"));
    }
    print!("{}{}", spans.render(), outcome.metrics.render());
    println!(
        "  ops attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    for problem in &outcome.problems {
        println!("  FAILED CHECK: {problem}");
    }
    if let Some(path) = args.text("--spans") {
        std::fs::write(path, spans.chrome_trace().pretty())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let correct = outcome.problems.is_empty();
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(outcome.attempted as f64)),
            ("failed", Json::Num(outcome.failed as f64)),
            ("metrics", outcome.metrics.to_json()),
        ])
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let result = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.positional.first().map(String::as_str) {
            None => single(&args),
            Some("run") => run::run(&args),
            Some("compare") => compare::main(&args),
            Some(other) => Err(format!("unknown sub-command {other:?}")),
        }
    });
    result.unwrap_or_else(|usage| {
        eprintln!("spire-benchmark: {usage}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use metric::END_TO_END;

    fn args(words: &[&str]) -> Result<Args, String> {
        Args::parse(words.iter().map(|w| w.to_string()))
    }

    #[test]
    fn args_split_options_flags_and_positionals() {
        let a = args(&["compare", "a.json", "--spec", "S", "b.json", "--smoke"]).unwrap();
        assert_eq!(a.positional, ["compare", "a.json", "b.json"]);
        assert_eq!(a.text("--spec"), Some("S"));
        assert!(a.flag("--smoke"));
        assert_eq!(a.number("--seed", 7), Ok(7));
        assert!(a.only(&["--spec"]).is_ok());
        assert!(a.only(&["--seed"]).is_err());
        assert!(args(&["--seed"]).is_err(), "an option needs its value");
        let bad = args(&["--seed", "x"]).unwrap();
        assert!(bad.number("--seed", 1).is_err());
    }

    /// `BENCHMARK.json` and the code name the same workloads and metrics,
    /// in the same order, within the limits its schema sets.
    #[test]
    fn benchmark_json_matches_the_code() {
        let spec = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = spec
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            spec.get("run_seconds").unwrap().as_f64(),
            Some(run::SECONDS as f64)
        );
        assert_eq!(
            spec.get("paths").unwrap().as_arr().unwrap(),
            [Json::str("benchmark")]
        );

        let text = |e: &Json, k: &str| e.get(k).unwrap().as_str().unwrap().to_string();
        let list = |key: &str| spec.get(key).unwrap().as_arr().unwrap().to_vec();
        let names: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        let gated: Vec<&str> = workload::WORKLOADS
            .iter()
            .filter(|w| w.gated)
            .map(|w| w.name)
            .collect();
        assert_eq!(names, gated);
        for w in list("workloads") {
            let why = text(&w, "why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = list(key)
                .iter()
                .map(|m| (text(m, "name"), text(m, "unit")))
                .collect();
            let coded: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, coded, "{key}");
            for m in list(key) {
                assert!(["lower", "higher"].contains(&text(&m, "better").as_str()));
                assert!(text(&m, "name").len() <= 64 && text(&m, "unit").len() <= 16);
            }
        }
        for m in list("end_to_end") {
            let bound = m.get("bound").unwrap().as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{m}");
        }
        let setup = &list("end_to_end")[END_TO_END.len() - 1];
        assert_eq!(
            (text(setup, "name"), text(setup, "unit")),
            ("setup_s".into(), "s".into())
        );
    }

    #[test]
    fn plans_scale_with_seconds_and_keep_their_order() {
        for w in &workload::WORKLOADS {
            for seconds in [1, 3, 30, 60] {
                for halved in [false, true] {
                    let p = Plan::new(w, seconds, halved);
                    assert!(p.warmup < p.stop && p.stop < p.total);
                }
            }
        }
        let attack = workload::find("sim_attack").unwrap();
        assert_eq!(
            Plan::new(attack, 30, false).total,
            spire_sim::Span::secs(40)
        );
        assert_eq!(Plan::new(attack, 30, false).stop, spire_sim::Span::secs(38));
        assert_eq!(Plan::new(attack, 30, true).total, spire_sim::Span::secs(20));
    }
}
