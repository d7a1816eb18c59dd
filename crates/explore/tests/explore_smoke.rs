//! End-to-end smoke tests for the exploration harness, over both models
//! (the Prime cluster and the cross-shard 2PC machine): liveness under
//! the randomized driver, exhaustive-search accounting, replay
//! determinism, and (under `--features seeded-commit-bug` /
//! `seeded-xshard-bug`) bug-catching + shrinking.

use spire_explore::xshard::{XHarness, XScenario, SEEDED_XSHARD_BUG_ACTIVE};
use spire_explore::{
    exhaustive, random, shrink, Artifact, Bounds, Choice, Harness, Model, RandomParams, Run,
    Scenario,
};
use spire_prime::model::SEEDED_BUG_ACTIVE;

fn harness(name: &str, ops: u32) -> Harness {
    Harness::new(Scenario::named(name, 1, 0, ops).expect("known scenario"))
}

fn xharness(ops: u32) -> XHarness {
    XHarness::new(XScenario::named("xshard-commit", ops).expect("known scenario"))
}

/// The honest build survives the adversarial driver and makes progress.
fn random_is_clean(model: &impl Model, params: &RandomParams) {
    let report = random::explore(model, params);
    assert!(
        report.violation.is_none(),
        "honest run violated invariants: {:?}",
        report.violation
    );
    assert!(report.episodes == params.episodes && report.steps > 0);
    assert!(report.max_executed > 0, "no episode made any progress");
}

#[test]
fn random_honest_executes_ops_without_violations() {
    // Under the correct build this also holds for every adversarial
    // scenario; the honest one additionally demonstrates liveness.
    let params = RandomParams {
        seed: 0xA11CE,
        episodes: 8,
        steps_per_episode: 600,
        wall_limit: None,
    };
    random_is_clean(&harness("honest", 3), &params);
}

#[test]
fn random_xshard_commits_without_violations() {
    // With the seeded bug compiled in the driver would (rightly) find the
    // violation instead.
    if SEEDED_XSHARD_BUG_ACTIVE {
        return;
    }
    let params = RandomParams {
        seed: 7,
        episodes: 40,
        steps_per_episode: 300,
        wall_limit: None,
    };
    random_is_clean(&xharness(2), &params);
}

/// The artifact fields of an f = 1, two-op scenario.
fn header(scenario: &str, k: u32, seeded_bug: bool) -> Artifact {
    Artifact {
        scenario: scenario.to_string(),
        f: 1,
        k,
        ops: 2,
        seed: 0,
        seeded_bug,
        violations: Vec::new(),
        events: Vec::new(),
    }
}

/// Hunts the seeded bug, checks the shrunk schedule is small, and that it
/// reproduces deterministically — including after a JSON roundtrip (the
/// exact `--replay` path). `header` carries the model's artifact fields.
fn hunt_shrinks_and_replays(
    model: &impl Model,
    header: Artifact,
    params: &RandomParams,
    rounds: u64,
    target_len: usize,
    max_len: usize,
) -> Vec<String> {
    let violation = random::hunt(model, params, rounds, target_len)
        .expect("randomized exploration must catch the seeded bug");
    let shrunk = violation.schedule;
    assert!(
        shrunk.len() <= max_len,
        "shrunk schedule still has {} events",
        shrunk.len()
    );
    let kinds = shrink::reproduces(model, &shrunk).expect("shrunk schedule must still fail");
    let artifact = Artifact {
        seed: params.seed,
        violations: kinds.clone(),
        events: shrunk,
        ..header
    };
    let parsed = Artifact::from_json_str(&artifact.to_json_string()).expect("parses");
    assert_eq!(parsed, artifact);
    assert_eq!(
        shrink::reproduces(model, &parsed.events).expect("replay must fail"),
        kinds
    );
    kinds
}

#[test]
#[cfg_attr(
    not(feature = "seeded-commit-bug"),
    ignore = "needs the seeded bug build"
)]
fn seeded_bug_is_caught_and_shrinks_small() {
    if !SEEDED_BUG_ACTIVE {
        panic!("test ran without the seeded-commit-bug feature");
    }
    let h = harness("equivocating-leader", 2);
    let header = header(&h.scenario.name, h.scenario.k, SEEDED_BUG_ACTIVE);
    let params = RandomParams {
        seed: 0,
        episodes: 512,
        steps_per_episode: 600,
        wall_limit: None,
    };
    hunt_shrinks_and_replays(&h, header, &params, 16, 25, 25);
}

#[test]
#[cfg_attr(
    not(feature = "seeded-xshard-bug"),
    ignore = "needs the seeded bug build"
)]
fn seeded_xshard_bug_is_found_and_shrinks() {
    if !SEEDED_XSHARD_BUG_ACTIVE {
        panic!("test ran without the seeded-xshard-bug feature");
    }
    let h = xharness(2);
    let header = header(&h.scenario.name, 0, SEEDED_XSHARD_BUG_ACTIVE);
    let params = RandomParams {
        seed: 1,
        episodes: 200,
        steps_per_episode: 400,
        wall_limit: Some(std::time::Duration::from_secs(120)),
    };
    let kinds = hunt_shrinks_and_replays(&h, header, &params, 8, 12, 40);
    assert!(kinds.iter().any(|k| k.starts_with("xshard")));
}

#[test]
fn random_recovering_replica_rejoins_without_violations() {
    // k = 1: the last replica starts mid-state-transfer and its rejoin
    // (state requests, chunk fetches, and the quorum of replies it waits
    // for) is interleaved with ordering and view changes by the explorer. No
    // schedule may produce divergence, and the healthy quorum must still
    // order ops while the recovering replica is out.
    let h = Harness::new(Scenario::named("recovering-replica", 1, 1, 3).expect("known scenario"));
    let params = RandomParams {
        seed: 0x4EC,
        episodes: 6,
        steps_per_episode: 600,
        wall_limit: None,
    };
    let report = random::explore(&h, &params);
    assert!(
        report.violation.is_none(),
        "recovering-replica run violated invariants: {:?}",
        report.violation
    );
    assert!(
        report.max_executed > 0,
        "healthy quorum failed to order ops around the recovering replica"
    );
}

#[test]
fn recovering_replica_scenario_requires_k() {
    assert!(Scenario::named("recovering-replica", 1, 0, 2).is_err());
}

#[test]
fn exhaustive_tiny_config_is_clean_and_deduplicates() {
    if SEEDED_BUG_ACTIVE {
        // Under the bug build the exhaustive pass may legitimately find a
        // violation; the gated test above covers that path.
        return;
    }
    let h = harness("honest", 2);
    let mut bounds = Bounds::tiny();
    bounds.max_states = 3_000;
    bounds.max_depth = 10;
    let report = exhaustive::explore(&h, &bounds);
    assert!(
        report.violation.is_none(),
        "exhaustive exploration violated invariants: {:?}",
        report.violation
    );
    assert_eq!(report.states_visited, 3_000, "should reach the state cap");
    assert!(
        report.states_deduped > 0,
        "dedup should collapse interleavings"
    );
    assert!(report.deepest > 2);
}

/// Drives `model` greedily (inject everything, then FIFO delivery /
/// earliest timer) and checks that replaying the applied schedule — and
/// re-running a seeded random exploration — reproduces it exactly.
/// Returns the driven run and its replay for model-specific comparisons.
fn replay_is_deterministic<M: Model>(model: &M) -> (M::Run<'_>, M::Run<'_>) {
    let mut cluster = model.build();
    for op in cluster.uninjected_ops() {
        cluster.apply(&Choice::Inject { op });
    }
    for _ in 0..60 {
        let choice = if let Some(key) = cluster.oldest_pending() {
            Choice::Deliver { key }
        } else if let Some(&(replica, tag, _)) = cluster.armed_timers().first() {
            Choice::Fire { replica, tag }
        } else {
            break;
        };
        cluster.apply(&choice);
    }
    assert!(cluster.schedule().len() > 10);
    let replayed = model.replay(cluster.schedule());
    assert_eq!(replayed.schedule(), cluster.schedule());
    assert_eq!(replayed.progress(), cluster.progress());
    assert_eq!(replayed.violation_kinds(), cluster.violation_kinds());
    assert_eq!(replayed.pending_keys(), cluster.pending_keys());
    assert_eq!(replayed.armed_timers(), cluster.armed_timers());
    // Seeded randomized runs are reproducible end to end as well.
    let params = RandomParams {
        seed: 99,
        episodes: 2,
        steps_per_episode: 200,
        wall_limit: None,
    };
    let r1 = random::explore(model, &params);
    let r2 = random::explore(model, &params);
    assert_eq!(r1.steps, r2.steps);
    assert_eq!(r1.max_executed, r2.max_executed);
    assert_eq!(
        r1.violation.map(|v| v.schedule),
        r2.violation.map(|v| v.schedule)
    );
    (cluster, replayed)
}

#[test]
fn replays_are_deterministic() {
    let h = harness("equivocating-leader", 2);
    let (cluster, replayed) = replay_is_deterministic(&h);
    // For Prime, the replay reproduces the exact cluster state.
    assert_eq!(replayed.state_hash(), cluster.state_hash());
    let xh = xharness(2);
    let (xcluster, xreplayed) = replay_is_deterministic(&xh);
    assert_eq!(xreplayed.completed, xcluster.completed);
}

#[test]
fn both_adversary_weight_tables_cover_every_roll() {
    for weights in [Harness::WEIGHTS, XHarness::WEIGHTS] {
        assert_eq!(weights.iter().map(|(_, w)| w).sum::<u32>(), 100);
    }
}
