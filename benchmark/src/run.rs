//! `run`: every workload, both passes, one result file.
//!
//! Each workload pass runs in its own child process (this executable in its
//! single-workload form), so CPU time and peak RSS are per workload. With
//! `--reps R` the untraced pass is repeated on seeds `seed .. seed+R`, the
//! reported value is the median and the spread between the quartiles is
//! recorded beside it — that is how `calibration.json` was made.

use crate::json::{self, Json};
use crate::metric::{END_TO_END, PER_LAYER};
use crate::stats::{median, quartile_spread};
use crate::workload::{Substrate, WORKLOADS};
use crate::{sys, Args, VERSION};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// The seed results are quoted on. A claim must also hold on
/// [`HELD_OUT_SEED`], which nobody tunes against.
pub const DEFAULT_SEED: u64 = 2018;
pub const HELD_OUT_SEED: u64 = 1806;
/// `run_seconds` of `BENCHMARK.json`.
pub const SECONDS: u64 = 30;
pub const SMOKE_SECONDS: u64 = 3;

/// Runs one pass in a child process, echoing its output; returns the parsed
/// last line. A child that prints no result is an error.
fn child(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    spans: &Path,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--spans")
        .arg(spans)
        .stdout(Stdio::piped());
    if smoke {
        cmd.arg("--smoke");
    }
    let mut process = cmd
        .spawn()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = process.stdout.take().expect("stdout was piped");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("cannot read child output: {e}"))?;
        // The result line is machine food; the file keeps it.
        if !line.starts_with('{') {
            println!("{line}");
        }
        last = line;
    }
    let status = process
        .wait()
        .map_err(|e| format!("cannot wait for child: {e}"))?;
    json::parse(&last).map_err(|e| format!("{workload} printed no result ({status}): {e}"))
}

/// The tightest bound a pairing of workload and end-to-end metric is ever
/// given, whatever its calibrated spread: virtual-time metrics on sim are
/// functions of the seed, memory moves a little with the host, rt latencies
/// a little more, and set-up time most.
fn bound_floor(metric: &str, substrate: Substrate) -> f64 {
    match metric {
        "setup_s" => 0.25,
        "peak_rss_mb" => 0.06,
        _ if substrate == Substrate::Rt => 0.10,
        _ => 0.02,
    }
}

/// Median and quartile spread of one metric over the repetitions; a metric
/// any repetition could not measure stays `null`. With a `floor` (end-to-end
/// metrics) and a spread, the pairing's own bound is recorded too: twice
/// the spread, at least the floor. `compare` uses it when it is tighter
/// than the metric's bound in `BENCHMARK.json`.
fn summarise(name: &str, unit: &str, runs: &[Json], floor: Option<f64>) -> (String, Json) {
    let values: Option<Vec<f64>> = runs
        .iter()
        .map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
        .collect();
    let values = values.unwrap_or_default();
    let spread = quartile_spread(&values);
    let mut entry = vec![
        ("value", Json::opt(median(&values))),
        ("unit", Json::str(unit)),
        ("spread", Json::opt(spread)),
        (
            "runs",
            Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
        ),
    ];
    if let Some((floor, spread)) = floor.zip(spread) {
        entry.push(("bound", Json::Num(floor.max(2.0 * spread))));
    }
    (name.to_string(), Json::obj(entry))
}

fn total(runs: &[Json], key: &str) -> f64 {
    runs.iter().filter_map(|r| r.get(key)?.as_f64()).sum()
}

pub fn run(args: &Args) -> Result<ExitCode, String> {
    args.only(&["--seed", "--seconds", "--reps", "--out"])?;
    let smoke = args.flag("--smoke");
    let seed = args.number("--seed", DEFAULT_SEED)?;
    let seconds = args.number("--seconds", if smoke { SMOKE_SECONDS } else { SECONDS })?;
    let reps = args.number("--reps", 1)?.max(1);
    let out = Path::new(args.text("--out").unwrap_or("benchmark/results"));
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;

    println!(
        "benchmark {VERSION}: seed {seed} (quote results on {DEFAULT_SEED}; a claim must also \
         hold on the held-out seed {HELD_OUT_SEED}), {seconds} s per pass, {reps} rep(s)"
    );
    let started = Instant::now();
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let spans = |pass: &str| out.join(format!("spans-{}-{pass}.json", w.name));
        let mut untraced = Vec::new();
        for rep in 0..reps {
            untraced.push(child(
                w.name,
                seed + rep,
                seconds,
                false,
                smoke,
                &spans("trace0"),
            )?);
        }
        let traced = [child(w.name, seed, seconds, true, smoke, &spans("trace1"))?];
        let correct = untraced
            .iter()
            .chain(&traced)
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
        // A workload `BENCHMARK.json` does not list is measured and its
        // failure printed, but it decides nothing.
        if w.gated {
            all_correct &= correct;
        } else if !correct {
            println!("{} (not gated) failed its output checks", w.name);
        }
        let table = |metrics: &'static [(&str, &str)], runs: &[Json], gated: bool| {
            let row = |(name, unit): &(&str, &str)| {
                let floor = gated.then(|| bound_floor(name, w.substrate));
                summarise(name, unit, runs, floor)
            };
            Json::Obj(metrics.iter().map(row).collect())
        };
        workloads.push((
            w.name.to_string(),
            Json::obj([
                ("correct", Json::Bool(correct)),
                ("gated", Json::Bool(w.gated)),
                ("attempted", Json::Num(total(&untraced, "attempted"))),
                ("failed", Json::Num(total(&untraced, "failed"))),
                ("end_to_end", table(END_TO_END, &untraced, true)),
                ("per_layer", table(PER_LAYER, &traced, false)),
            ]),
        ));
    }

    let workloads = Json::Obj(workloads);
    let p50 = |w: &str| {
        workloads
            .get(w)?
            .get("end_to_end")?
            .get("confirm_p50_ms")?
            .get("value")?
            .as_f64()
    };
    // What the real-clock substrate adds over the simulator on the same
    // traffic, from the untraced passes of two workloads.
    let overhead = p50("rt_paper")
        .zip(p50("sim_crypto"))
        .map(|(rt, sim)| rt - sim);
    println!(
        "derived rt.overhead_p50_ms (rt_paper - sim_crypto confirm_p50_ms) {}",
        overhead.map_or("null".to_string(), |v| format!("{v:.4} ms"))
    );

    let result = Json::obj([
        ("benchmark_version", Json::str(VERSION)),
        (
            "provenance",
            Json::obj([
                ("nproc", Json::Num(sys::nproc() as f64)),
                ("rt_workers", Json::Num(sys::rt_workers() as f64)),
                (
                    "git_rev",
                    Json::Str(sys::command_line(
                        "git",
                        &["rev-parse", "--short=12", "HEAD"],
                    )),
                ),
                (
                    "rustc",
                    Json::Str(sys::command_line("rustc", &["--version"])),
                ),
                ("seed", Json::Num(seed as f64)),
                ("seconds", Json::Num(seconds as f64)),
                ("reps", Json::Num(reps as f64)),
                ("smoke", Json::Bool(smoke)),
                ("wall_s", Json::Num(started.elapsed().as_secs_f64())),
            ]),
        ),
        ("workloads", workloads),
        (
            "derived",
            Json::obj([(
                "rt.overhead_p50_ms",
                Json::obj([("value", Json::opt(overhead)), ("unit", Json::str("ms"))]),
            )]),
        ),
    ]);
    let path = out.join(format!("result-{seed}.json"));
    std::fs::write(&path, result.pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "{} in {:.1} s -> {}",
        if all_correct {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        },
        started.elapsed().as_secs_f64(),
        path.display()
    );
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
