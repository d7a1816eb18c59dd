//! Schedule exploration driver (`spire-explore`) over the Prime model
//! seam and the cross-shard 2PC machine: bounded exhaustive interleaving,
//! seeded randomized adversarial exploration, and deterministic replay of
//! failure artifacts. The scenario name picks the model; everything after
//! that is shared.
//!
//! Usage:
//!   `exp_x1_explore --exhaustive [--scenario=NAME] [--ops=N]`
//!   `              [--depth=D] [--max-states=S] [--min-states=S]`
//!   `exp_x1_explore --random [--scenario=NAME] [--ops=N] [--seed=S]`
//!   `              [--secs=S | --episodes=N] [--steps=N] [--rounds=R]`
//!   `              [--artifact=PATH] [--expect-violation]`
//!   `              [--max-shrunk=N]`
//!   `exp_x1_explore --replay=PATH [--expect-violation]`
//!
//! * `--scenario` — behavior assignment: `honest`, `equivocating-leader`,
//!   `leader-delay`, `mute-replica`, `po-equivocation` (f=1, k=0,
//!   n=4 throughout), or `xshard-commit` (cross-shard 2PC over two model
//!   groups; `--random` and `--replay` only, with `--ops` transactions)
//!   and `xshard-early-ack` (the same, with replica 0 of every group
//!   acking each decision without executing it);
//! * `--min-states` — exhaustive mode exits 1 unless at least this many
//!   distinct states were visited (CI coverage floor);
//! * `--expect-violation` — invert the verdict: exit 1 unless a
//!   violation was found (random mode hunts + shrinks it first) or, for
//!   `--replay`, unless the artifact still reproduces one;
//! * `--artifact` — where random mode writes the shrunk replay artifact
//!   when a violation is found (also written on unexpected violations, so
//!   CI can upload it);
//! * `--max-shrunk` — with `--expect-violation`: exit 1 if the shrunk
//!   schedule still exceeds this many events.
//!
//! Replays are deterministic: the artifact pins the scenario and the
//! exact choice sequence, and the model seam leaves no other
//! nondeterminism. An artifact produced under `--features
//! seeded-commit-bug` records that (`"seeded_bug": true`); replay it
//! against a build with the same feature set.

use spire_explore::xshard::{XHarness, XScenario, SEEDED_XSHARD_BUG_ACTIVE};
use spire_explore::{
    exhaustive, random, shrink, Artifact, Bounds, FoundViolation, Harness, Model, RandomParams,
    Run, Scenario,
};
use spire_prime::model::SEEDED_BUG_ACTIVE;
use std::time::Duration;

fn fail(msg: &str) -> ! {
    eprintln!("explore FAIL: {msg}");
    std::process::exit(1);
}

#[derive(PartialEq)]
enum Mode {
    Exhaustive,
    Random,
    Replay(Artifact),
}

/// Everything the command line sets besides the mode and the scenario.
struct Args {
    depth: usize,
    max_states: u64,
    min_states: u64,
    params: RandomParams,
    rounds: u64,
    artifact_path: Option<String>,
    expect_violation: bool,
    max_shrunk: usize,
}

fn main() {
    let mut mode: Option<Mode> = None;
    let mut scenario = "honest".to_string();
    let mut ops: u32 = 2;
    let mut args = Args {
        depth: 14,
        max_states: 250_000,
        min_states: 0,
        params: RandomParams {
            seed: 0,
            episodes: 64,
            steps_per_episode: 600,
            wall_limit: None,
        },
        rounds: 16,
        artifact_path: None,
        expect_violation: false,
        max_shrunk: usize::MAX,
    };
    for arg in std::env::args().skip(1) {
        if arg == "--exhaustive" {
            mode = Some(Mode::Exhaustive);
        } else if arg == "--random" {
            mode = Some(Mode::Random);
        } else if let Some(path) = arg.strip_prefix("--replay=") {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
            mode = Some(Mode::Replay(
                Artifact::from_json_str(&text).unwrap_or_else(|e| fail(&e)),
            ));
        } else if let Some(v) = arg.strip_prefix("--scenario=") {
            scenario = v.to_string();
        } else if let Some(v) = arg.strip_prefix("--ops=") {
            ops = v.parse().unwrap_or_else(|_| fail("bad --ops"));
        } else if let Some(v) = arg.strip_prefix("--depth=") {
            args.depth = v.parse().unwrap_or_else(|_| fail("bad --depth"));
        } else if let Some(v) = arg.strip_prefix("--max-states=") {
            args.max_states = v.parse().unwrap_or_else(|_| fail("bad --max-states"));
        } else if let Some(v) = arg.strip_prefix("--min-states=") {
            args.min_states = v.parse().unwrap_or_else(|_| fail("bad --min-states"));
        } else if let Some(v) = arg.strip_prefix("--seed=") {
            args.params.seed = v.parse().unwrap_or_else(|_| fail("bad --seed"));
        } else if let Some(v) = arg.strip_prefix("--secs=") {
            let secs = v.parse().unwrap_or_else(|_| fail("bad --secs"));
            args.params.wall_limit = Some(Duration::from_secs(secs));
        } else if let Some(v) = arg.strip_prefix("--episodes=") {
            args.params.episodes = v.parse().unwrap_or_else(|_| fail("bad --episodes"));
        } else if let Some(v) = arg.strip_prefix("--steps=") {
            args.params.steps_per_episode = v.parse().unwrap_or_else(|_| fail("bad --steps"));
        } else if let Some(v) = arg.strip_prefix("--rounds=") {
            args.rounds = v.parse().unwrap_or_else(|_| fail("bad --rounds"));
        } else if let Some(v) = arg.strip_prefix("--artifact=") {
            args.artifact_path = Some(v.to_string());
        } else if arg == "--expect-violation" {
            args.expect_violation = true;
        } else if let Some(v) = arg.strip_prefix("--max-shrunk=") {
            args.max_shrunk = v.parse().unwrap_or_else(|_| fail("bad --max-shrunk"));
        } else {
            fail(&format!("unknown argument {arg}"));
        }
    }
    let Some(mode) = mode else {
        fail("pick a mode: --exhaustive, --random, or --replay=PATH");
    };

    println!(
        "exp_x1_explore: seeded_bug_active={SEEDED_BUG_ACTIVE} \
         seeded_xshard_bug_active={SEEDED_XSHARD_BUG_ACTIVE}"
    );
    // The scenario name picks the model; a replayed artifact pins the
    // scenario itself. The recovering-replica scenario spends the k
    // budget; every other Prime scenario explores the tight k = 0 cluster.
    let (name, f, k, ops) = match &mode {
        Mode::Replay(artifact) => (
            artifact.scenario.clone(),
            artifact.f,
            artifact.k,
            artifact.ops,
        ),
        _ => {
            let k = u32::from(scenario == "recovering-replica");
            (scenario, 1, k, ops)
        }
    };
    if name.starts_with("xshard") {
        let scenario = XScenario::named(&name, ops).unwrap_or_else(|e| fail(&e));
        let bug = SEEDED_XSHARD_BUG_ACTIVE;
        let header = artifact_header(&scenario.name, scenario.f, 0, scenario.ops, bug);
        drive(&XHarness::new(scenario), header, mode, &args);
    } else {
        let scenario = Scenario::named(&name, f, k, ops).unwrap_or_else(|e| fail(&e));
        let bug = SEEDED_BUG_ACTIVE;
        let header = artifact_header(&scenario.name, scenario.f, scenario.k, scenario.ops, bug);
        let harness = Harness::new(scenario);
        if mode == Mode::Exhaustive {
            run_exhaustive(&harness, header, &args);
        } else {
            drive(&harness, header, mode, &args);
        }
    }
}

/// The artifact fields a scenario fixes (`seeded_bug`: whether the seeded
/// bug its model answers to is compiled in); seed, violations and events
/// are filled in when one is written.
fn artifact_header(scenario: &str, f: u32, k: u32, ops: u32, seeded_bug: bool) -> Artifact {
    Artifact {
        scenario: scenario.to_string(),
        f,
        k,
        ops,
        seed: 0,
        seeded_bug,
        violations: Vec::new(),
        events: Vec::new(),
    }
}

/// Bounded exhaustive interleaving — Prime only: the cross-shard model has
/// no state hash, and its coordinator's timer space makes prefix
/// enumeration useless.
fn run_exhaustive(harness: &Harness, header: Artifact, args: &Args) {
    let mut bounds = if header.scenario == "recovering-replica" {
        Bounds::recovery()
    } else {
        Bounds::tiny()
    };
    bounds.max_depth = args.depth;
    bounds.max_states = args.max_states;
    let report = exhaustive::explore(harness, &bounds);
    println!(
        "exhaustive: scenario={} ops={} depth<={} states_visited={} \
         states_deduped={} replays={} deepest={} frontier_exhausted={}",
        header.scenario,
        header.ops,
        args.depth,
        report.states_visited,
        report.states_deduped,
        report.replays,
        report.deepest,
        report.frontier_exhausted,
    );
    if let Some(violation) = &report.violation {
        println!(
            "violation: kinds={:?} schedule_len={}",
            violation.kinds,
            violation.schedule.len()
        );
        write_artifact(&args.artifact_path, header, 0, violation);
        if !args.expect_violation {
            fail("exhaustive exploration found an invariant violation");
        }
        check_shrunk_len(violation.schedule.len(), args.max_shrunk);
        println!("explore OK (expected violation found)");
        return;
    }
    if args.expect_violation {
        fail("expected a violation; exhaustive pass was clean");
    }
    if report.states_visited < args.min_states {
        fail(&format!(
            "visited {} distinct states, below the --min-states floor {}",
            report.states_visited, args.min_states
        ));
    }
    println!("explore OK (0 violations)");
}

/// The randomized and replay legs, shared by both models. `header` carries
/// the scenario's artifact fields, including which seeded-bug feature the
/// model answers to.
fn drive<M: Model>(model: &M, header: Artifact, mode: Mode, args: &Args) {
    let params = &args.params;
    let seed = params.seed;
    match mode {
        // Only the Prime cluster has an exhaustive driver (see
        // `run_exhaustive`), and `main` sends it there.
        Mode::Exhaustive => fail("xshard scenarios support --random and --replay only"),
        Mode::Random if args.expect_violation => {
            let target = args.max_shrunk.min(1 << 20);
            let Some(found) = random::hunt(model, params, args.rounds, target) else {
                fail("expected a violation; randomized exploration found none");
            };
            println!(
                "violation: kinds={:?} shrunk_len={}",
                found.kinds,
                found.schedule.len()
            );
            write_artifact(&args.artifact_path, header, seed, &found);
            check_shrunk_len(found.schedule.len(), args.max_shrunk);
            println!("explore OK (expected violation found and shrunk)");
        }
        Mode::Random => {
            let report = random::explore(model, params);
            println!(
                "random: scenario={} ops={} seed={seed} episodes={} steps={} {}={}",
                header.scenario,
                header.ops,
                report.episodes,
                report.steps,
                M::PROGRESS,
                report.max_executed
            );
            if let Some(found) = &report.violation {
                let shrunk = shrink::shrink(model, &found.schedule);
                let kinds =
                    shrink::reproduces(model, &shrunk).unwrap_or_else(|| found.kinds.clone());
                let shrunk = FoundViolation {
                    schedule: shrunk,
                    kinds,
                };
                write_artifact(&args.artifact_path, header, seed, &shrunk);
                fail(&format!(
                    "randomized exploration found an invariant violation: {:?}",
                    shrunk.kinds
                ));
            }
            println!("explore OK (0 violations)");
        }
        Mode::Replay(artifact) => {
            if artifact.seeded_bug != header.seeded_bug {
                fail(&format!(
                    "artifact was produced with seeded_bug={} but this build has {}; \
                     rebuild with the matching seeded-bug feature set",
                    artifact.seeded_bug, header.seeded_bug
                ));
            }
            let run = model.replay(&artifact.events);
            let kinds = run.violation_kinds();
            println!(
                "replay: scenario={} events={} applied={} violations={kinds:?}",
                artifact.scenario,
                artifact.events.len(),
                run.schedule().len()
            );
            if args.expect_violation && kinds.is_empty() {
                fail("artifact did not reproduce a violation");
            }
            if !args.expect_violation && !kinds.is_empty() {
                fail("replay hit an invariant violation");
            }
            println!("replay OK");
        }
    }
}

fn write_artifact(path: &Option<String>, header: Artifact, seed: u64, violation: &FoundViolation) {
    let Some(path) = path else {
        return;
    };
    let artifact = Artifact {
        seed,
        violations: violation.kinds.clone(),
        events: violation.schedule.clone(),
        ..header
    };
    std::fs::write(path, artifact.to_json_string())
        .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
    println!("artifact written: {path}");
}

fn check_shrunk_len(len: usize, max_shrunk: usize) {
    if len > max_shrunk {
        fail(&format!(
            "shrunk schedule has {len} events, above the --max-shrunk bound {max_shrunk}"
        ));
    }
}
