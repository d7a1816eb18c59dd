//! Operator tool: run one red-team scenario (by index or name) or a
//! seeded chaos run, on either substrate, and print its report.
//!
//! Usage:
//!   `run_scenario [index] [--scenario=NAME] [--chaos=SEED] [--list]`
//!   `             [--duration=SECS] [--substrate=sim|rt|rt:N]`
//!   `             [--recovery-period=SECS] [--recovery-concurrent=K]`
//!   `             [--shards=N] [--cross-shard-rate=R]`
//!   `             [--json[=PATH]] [--trace=PATH] [--watch] [--prom=PATH]`
//!
//! * `--list` (or no selector) — lists the red-team suite;
//! * `index` / `--scenario=NAME` — picks a suite entry by index or by
//!   (case-insensitive substring) name;
//! * `--chaos=SEED` — instead of a suite entry, generates the seeded
//!   chaos plan (reproducible: same seed, same plan) and runs it;
//! * `--duration=SECS` — chaos plan horizon (default 60 s);
//! * `--substrate=` — host the system on the deterministic simulator
//!   (default) or the real-clock multi-threaded runtime (`rt`, or `rt:N`
//!   to pin the worker count). Attack schedules are recorded as a
//!   substrate-agnostic control plan, so scenarios run unchanged on
//!   either substrate (rt runs take the scenario duration in wall time);
//! * `--json` — serializes the full [`spire::Report`] (including the
//!   per-phase latency breakdown, the chaos counters, the `health`
//!   section and `substrate`/`cores`/`threads`/`git_rev` provenance) as
//!   JSON to stdout, or to `PATH` with `--json=PATH`;
//! * `--trace=PATH` — enables structured tracing and writes a Chrome
//!   `trace_event` file loadable in `chrome://tracing` / Perfetto, on
//!   either substrate (on rt each worker records its own trace, merged
//!   when the run ends);
//! * `--watch` — one-line health status (rate / p99 / SLO breaches /
//!   detector verdict) to stderr at every snapshot interval of the
//!   substrate's clock: live on rt, as fast as the simulator runs on sim;
//! * `--prom=PATH` — rewrite a Prometheus text-exposition snapshot of the
//!   run's metrics to `PATH` at every snapshot interval and once more
//!   with the final metrics; a failed final write exits 1;
//! * `--shards=N` — instead of a suite entry, run an N-group sharded
//!   deployment (the RTU fleet partitioned across N independent Prime
//!   groups plus the cross-shard 2PC coordinator) for `--duration`
//!   seconds on the chosen substrate; the report gains per-shard and
//!   `xshard` sections, and `--json`/`--trace`/`--watch`/`--prom` apply
//!   as for any other run;
//! * `--cross-shard-rate=R` — with `--shards`, make a fraction `R`
//!   (0..1) of supervisory commands span two groups (default 0.1);
//! * `--recovery-period=SECS` — overlay a rolling proactive-recovery
//!   rotation on the scenario: every `SECS` the next replica(s)
//!   round-robin restart with a clean state machine and re-join via
//!   chunked, retried state transfer. Each restart is announced as a
//!   recovery window, so the health monitor grades it `degraded` and the
//!   invariant checker reports `recovery-stalled` if the replica misses
//!   its catch-up deadline. With `--shards` the rotation restarts group
//!   0's replicas, like every replica-indexed scheduler;
//! * `--recovery-concurrent=K` — replicas restarted per rotation round
//!   (default 1; clamped to the layout's `k`).
//!
//! The online invariant checker and the live health monitor run during
//! every scenario; if the checker finds a safety violation the tool
//! prints the reproducing seed and exits nonzero.

use spire::attack::Scenario;
use spire::chaos::ChaosPlan;
use spire::deployment::{
    Deployment, DeploymentConfig, HealthOptions, RollingRecoveryConfig, Substrate,
};
use spire::health::HealthConfig;
use spire::report::{Provenance, Report};
use spire::sharded::ShardedConfig;
use spire_scada::WorkloadConfig;
use spire_sim::{Span, Time};

fn list_suite(suite: &[Scenario]) {
    println!("red-team scenario suite:");
    for (i, s) in suite.iter().enumerate() {
        println!(
            "  {i}: {} ({} attacks, {})",
            s.name,
            s.attacks.len(),
            s.duration
        );
    }
    println!(
        "\nrun one with: run_scenario <index|--scenario=NAME> [--substrate=sim|rt|rt:N] \
         [--json[=PATH]] [--trace=PATH]\n\
         or a seeded chaos run: run_scenario --chaos=SEED [--duration=SECS]"
    );
}

fn main() {
    let suite = Scenario::red_team_suite();
    let mut index: Option<usize> = None;
    let mut by_name: Option<String> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut duration_s: u64 = 60;
    let mut list = false;
    // `Some(None)` = JSON to stdout, `Some(Some(path))` = JSON to a file.
    let mut json: Option<Option<String>> = None;
    let mut trace_path: Option<String> = None;
    let mut substrate = Substrate::Sim;
    let mut watch = false;
    let mut prom_path: Option<String> = None;
    let mut shards: Option<u32> = None;
    let mut cross_rate: f64 = 0.1;
    let mut recovery_period: Option<u64> = None;
    let mut recovery_concurrent: u32 = 1;
    for arg in std::env::args().skip(1) {
        if arg == "--json" {
            json = Some(None);
        } else if arg == "--list" {
            list = true;
        } else if arg == "--watch" {
            watch = true;
        } else if let Some(path) = arg.strip_prefix("--prom=") {
            if path.is_empty() {
                eprintln!("--prom= requires a path");
                std::process::exit(2);
            }
            prom_path = Some(path.to_string());
        } else if let Some(path) = arg.strip_prefix("--json=") {
            if path.is_empty() {
                eprintln!("--json= requires a path");
                std::process::exit(2);
            }
            json = Some(Some(path.to_string()));
        } else if let Some(path) = arg.strip_prefix("--trace=") {
            if path.is_empty() {
                eprintln!("--trace= requires a path");
                std::process::exit(2);
            }
            trace_path = Some(path.to_string());
        } else if let Some(name) = arg.strip_prefix("--scenario=") {
            by_name = Some(name.to_string());
        } else if let Some(seed) = arg.strip_prefix("--chaos=") {
            let Ok(seed) = seed.parse::<u64>() else {
                eprintln!("bad chaos seed {seed:?}: expected an unsigned integer");
                std::process::exit(2);
            };
            chaos_seed = Some(seed);
        } else if let Some(secs) = arg.strip_prefix("--duration=") {
            let Ok(secs) = secs.parse::<u64>() else {
                eprintln!("bad duration {secs:?}: expected seconds");
                std::process::exit(2);
            };
            duration_s = secs;
        } else if let Some(n) = arg.strip_prefix("--shards=") {
            let Ok(n) = n.parse::<u32>() else {
                eprintln!("bad shard count {n:?}: expected an unsigned integer");
                std::process::exit(2);
            };
            if n == 0 {
                eprintln!("--shards needs at least 1 group");
                std::process::exit(2);
            }
            shards = Some(n);
        } else if let Some(r) = arg.strip_prefix("--cross-shard-rate=") {
            let Ok(r) = r.parse::<f64>() else {
                eprintln!("bad cross-shard rate {r:?}: expected a fraction in 0..1");
                std::process::exit(2);
            };
            if !(0.0..1.0).contains(&r) {
                eprintln!("cross-shard rate {r} out of range [0, 1)");
                std::process::exit(2);
            }
            cross_rate = r;
        } else if let Some(secs) = arg.strip_prefix("--recovery-period=") {
            let Ok(secs) = secs.parse::<u64>() else {
                eprintln!("bad recovery period {secs:?}: expected seconds");
                std::process::exit(2);
            };
            if secs == 0 {
                eprintln!("--recovery-period needs at least 1 second");
                std::process::exit(2);
            }
            recovery_period = Some(secs);
        } else if let Some(k) = arg.strip_prefix("--recovery-concurrent=") {
            let Ok(k) = k.parse::<u32>() else {
                eprintln!("bad recovery concurrency {k:?}: expected an unsigned integer");
                std::process::exit(2);
            };
            if k == 0 {
                eprintln!("--recovery-concurrent needs at least 1 replica");
                std::process::exit(2);
            }
            recovery_concurrent = k;
        } else if let Some(which) = arg.strip_prefix("--substrate=") {
            let Some(parsed) = Substrate::parse(which) else {
                eprintln!("bad substrate {which:?}: expected sim, rt or rt:N");
                std::process::exit(2);
            };
            substrate = parsed;
        } else if let Ok(i) = arg.parse::<usize>() {
            index = Some(i);
        } else {
            eprintln!("unknown argument: {arg}");
            eprintln!(
                "usage: run_scenario [index] [--scenario=NAME] [--chaos=SEED] [--list] \
                 [--duration=SECS] [--substrate=sim|rt|rt:N] [--shards=N] \
                 [--cross-shard-rate=R] [--recovery-period=SECS] \
                 [--recovery-concurrent=K] [--json[=PATH]] [--trace=PATH] \
                 [--watch] [--prom=PATH]"
            );
            std::process::exit(2);
        }
    }
    if list {
        list_suite(&suite);
        return;
    }
    if let Some(name) = &by_name {
        let needle = name.to_lowercase();
        let matches: Vec<usize> = suite
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name.to_lowercase().contains(&needle))
            .map(|(i, _)| i)
            .collect();
        match matches.as_slice() {
            [i] => index = Some(*i),
            [] => {
                eprintln!("no scenario matches {name:?}; use --list to see the suite");
                std::process::exit(1);
            }
            many => {
                eprintln!("{name:?} is ambiguous; it matches:");
                for i in many {
                    eprintln!("  {i}: {}", suite[*i].name);
                }
                std::process::exit(1);
            }
        }
    }
    let seed = chaos_seed.unwrap_or(9000 + index.unwrap_or(0) as u64);
    // JSON-to-stdout runs must emit nothing but the report object.
    let quiet = matches!(json, Some(None));
    if shards.is_some() && (index.is_some() || by_name.is_some() || chaos_seed.is_some()) {
        eprintln!("--shards runs its own workload; drop the scenario/chaos selector");
        std::process::exit(2);
    }
    let scenario = match (shards, chaos_seed, index) {
        // A sharded run is an attack-free scenario of `--duration`.
        (Some(n), _, _) => Scenario {
            name: format!(
                "sharded deployment: {n} group(s), {} RTUs, {:.0}% cross-shard",
                6 * n,
                cross_rate * 100.0
            ),
            attacks: Vec::new(),
            duration: Span::secs(duration_s),
        },
        (None, Some(seed), _) => {
            let cfg = DeploymentConfig::wide_area(seed);
            let plan = ChaosPlan::generate(seed, &cfg.spire, Span::secs(duration_s));
            if !quiet {
                println!("chaos plan for seed {seed} ({} events):", plan.log.len());
                for line in &plan.log {
                    println!("  {line}");
                }
            }
            plan.scenario()
        }
        (None, None, Some(i)) => {
            let Some(scenario) = suite.get(i) else {
                eprintln!("no scenario {i} (suite has {})", suite.len());
                std::process::exit(1);
            };
            scenario.clone()
        }
        (None, None, None) => {
            list_suite(&suite);
            return;
        }
    };
    let mut cfg = DeploymentConfig::wide_area(seed);
    cfg.workload = WorkloadConfig {
        rtus: 6 * shards.unwrap_or(1),
        update_interval: Span::millis(500),
        ..Default::default()
    };
    if trace_path.is_some() {
        cfg.trace = true;
    }
    // A sharded run stops at `--duration`; suite and chaos scenarios get
    // 5 s to drain after their last attack.
    let duration = if shards.is_some() {
        scenario.duration
    } else {
        scenario.duration + Span::secs(5)
    };
    if !quiet {
        println!(
            "running scenario: {} on {substrate} ({duration} of its clock)",
            scenario.name
        );
    }
    let mut system = match shards {
        Some(n) => Deployment::build_sharded(ShardedConfig {
            base: cfg,
            cross_rate,
            ..ShardedConfig::wide_area(n, seed)
        }),
        None => Deployment::build(cfg),
    };
    if let Some(secs) = recovery_period {
        let rcfg = RollingRecoveryConfig {
            period: Span::secs(secs),
            concurrent: recovery_concurrent,
            ..RollingRecoveryConfig::default()
        };
        // The rotation spans the scenario but not the run's last instant:
        // a sharded run has no drain, and a restart as it stops cannot
        // complete.
        let horizon = Time(scenario.duration.0.min(duration.0.saturating_sub(1)));
        let windows = system.schedule_rolling_recovery(Time(rcfg.period.0), horizon, rcfg);
        if !quiet {
            println!(
                "rolling recovery: {} window(s) announced (period {}s, {} concurrent)",
                windows.len(),
                secs,
                recovery_concurrent
            );
        }
    }
    scenario.apply(&mut system);
    let opts = HealthOptions {
        config: HealthConfig::default(),
        watch,
        prom_path: prom_path.clone(),
    };
    let outcome = system.run(substrate, duration, Some(opts));
    if let Some(path) = &trace_path {
        match std::fs::write(path, outcome.run.trace.chrome_trace()) {
            Ok(()) if quiet => {}
            Ok(()) => println!("chrome trace written to {path}"),
            Err(e) => eprintln!("failed to write trace to {path}: {e}"),
        }
    }
    if let Some(path) = &prom_path {
        if let Err(e) = &outcome.exported {
            eprintln!("failed to write Prometheus export to {path}: {e}");
            std::process::exit(1);
        }
        if !quiet {
            println!("prometheus export written to {path}");
        }
    }
    finish(&outcome.report, substrate, outcome.run.threads, &json, seed);
}

/// Emits the report (text or JSON) and exits: 0 on success, 3 on any
/// safety/invariant violation.
fn finish(
    report: &Report,
    substrate: Substrate,
    threads_used: usize,
    json: &Option<Option<String>>,
    seed: u64,
) -> ! {
    let provenance = Provenance::of(&substrate.to_string(), threads_used, spire_bench::git_rev());
    match json {
        Some(Some(path)) => {
            if let Err(e) = std::fs::write(path, report.to_json_with(&provenance)) {
                eprintln!("failed to write report to {path}: {e}");
                std::process::exit(1);
            }
            println!("report written to {path}");
        }
        Some(None) => println!("{}", report.to_json_with(&provenance)),
        None => {
            println!("{}", report.one_line());
            println!("{}", report.health_line());
            println!("silent seconds: {}", report.silent_seconds());
            println!(
                "commands: {} issued / {} actuated; recoveries {:?}",
                report.commands_issued, report.commands_actuated, report.recoveries
            );
            if report.recovery.started > 0 {
                println!(
                    "recovery: {}/{} completed, {} chunks transferred ({} retry rounds), \
                     duration p50={:.0}ms p99={:.0}ms; compaction: {} runs, {} entries evicted",
                    report.recovery.completed,
                    report.recovery.started,
                    report.recovery.chunks,
                    report.recovery.chunk_retries,
                    report.recovery.duration_p50_ms,
                    report.recovery.duration_p99_ms,
                    report.recovery.compaction_runs,
                    report.recovery.compaction_evicted,
                );
            }
            println!(
                "chaos: {} invariant checks, {} violations, {} corrupted / {} duplicated frames, \
                 {} decode failures",
                report.chaos.invariant_checks,
                report.chaos.invariant_violations,
                report.chaos.corrupted_frames,
                report.chaos.duplicated_frames,
                report.chaos.decode_failures,
            );
            for s in &report.shards {
                println!(
                    "shard {}: {}/{} confirmed, p50={:.1}ms p99={:.1}ms",
                    s.shard, s.confirmed, s.sent, s.p50_ms, s.p99_ms
                );
            }
            if report.xshard.commands > 0 {
                println!(
                    "cross-shard: {} commands, {} committed / {} aborted ({} retries), \
                     commit p50={:.1}ms p99={:.1}ms",
                    report.xshard.commands,
                    report.xshard.committed,
                    report.xshard.aborted,
                    report.xshard.retries,
                    report.xshard.commit_p50_ms,
                    report.xshard.commit_p99_ms,
                );
            }
            let table = report.phase_table();
            if !table.is_empty() {
                println!("\nper-phase latency breakdown:\n{table}");
            }
        }
    }
    if !report.safety_ok || report.chaos.invariant_violations > 0 {
        eprintln!(
            "SAFETY FAILURE: {} invariant violation(s); reproduce with seed {seed} \
             on --substrate=sim",
            report.chaos.invariant_violations
        );
        std::process::exit(3);
    }
    std::process::exit(0);
}
