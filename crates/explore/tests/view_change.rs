//! Schedule-driven regression tests for the view-change path
//! (`on_suspect` -> `on_view_state` -> `on_new_view`), the least-tested
//! region of `replica/view_change.rs`. Every test drives explicit schedules through
//! the model seam, so the exact interleaving is pinned — including the
//! ViewState *join* path, which wall-clock tests rarely isolate.

use spire_explore::{Artifact, Choice, Cluster, Harness, Model, Run, Scenario};
use spire_prime::model::SEEDED_BUG_ACTIVE;
use spire_prime::replica::TIMER_PROGRESS;

fn harness() -> Harness {
    Harness::new(Scenario::named("honest", 1, 0, 2).expect("known scenario"))
}

/// FIFO-delivers pending messages until quiescent (up to `max` steps).
fn drain(cluster: &mut Cluster<'_>, max: usize) {
    for _ in 0..max {
        let Some(key) = cluster.oldest_pending() else {
            return;
        };
        cluster.apply(&Choice::Deliver { key });
    }
}

fn views(cluster: &Cluster<'_>) -> Vec<u64> {
    let records = cluster.inspection.records();
    (0..4)
        .map(|i| records.get(&i).map(|r| r.view).unwrap_or(0))
        .collect()
}

/// Drives a view change where only replicas 0 and 1 time out (exactly the
/// `f + k + 1 = 2` suspect quorum), replica 2 is convinced by the Suspect
/// quorum alone, and replica 3 never sees any Suspect message — it must
/// install view 1 purely through the `on_view_state` join path (which
/// needs the full `2f + k + 1 = 3` ViewState quorum), after which the new
/// leader's NewView reaches everyone.
///
/// Progress suspicion requires outstanding work (`work_pending`), so the
/// schedule first injects one op at replica 0 and one at replica 1 (the
/// honest round-robin targets); the ops sit un-flushed in `pending_ops`
/// while the progress timeouts expire — a pure ordering stall.
fn drive_view_change(cluster: &mut Cluster<'_>) {
    cluster.apply(&Choice::Inject { op: 0 });
    cluster.apply(&Choice::Inject { op: 1 });
    cluster.apply(&Choice::Fire {
        replica: 0,
        tag: TIMER_PROGRESS,
    });
    cluster.apply(&Choice::Fire {
        replica: 1,
        tag: TIMER_PROGRESS,
    });
    // Drop the Suspect broadcasts addressed to replica 3 before anything
    // is delivered: the only pending traffic is the suspects.
    for key in cluster.pending_keys() {
        if key.to == 3 {
            cluster.apply(&Choice::Drop { key });
        }
    }
    drain(cluster, 300);
}

#[test]
fn suspect_quorum_then_viewstate_join_installs_new_view() {
    let h = harness();
    let mut cluster = h.build();
    drive_view_change(&mut cluster);
    assert_eq!(
        views(&cluster),
        vec![1, 1, 1, 1],
        "all replicas must reach view 1"
    );
    assert!(cluster.checker.ok(), "{:?}", cluster.checker.violations());
    // Replica 3 joined without ever observing a Suspect: the only route
    // is the ViewState-quorum join inside `on_view_state`.
}

#[test]
fn new_leader_orders_ops_after_view_change() {
    if SEEDED_BUG_ACTIVE {
        // The weakened-quorum build changes commit behavior; the bug legs
        // in explore_smoke.rs cover it.
        return;
    }
    let h = harness();
    let mut cluster = h.build();
    drive_view_change(&mut cluster);
    assert_eq!(views(&cluster), vec![1, 1, 1, 1]);
    // The injected op is still unexecuted; let view 1 (leader =
    // replica 1) order it: FIFO delivery plus earliest-due protocol
    // timers, but never another progress expiry (which would start
    // view 2).
    for _ in 0..600 {
        if cluster.inspection.max_executed() >= 1 {
            break;
        }
        if let Some(key) = cluster.oldest_pending() {
            cluster.apply(&Choice::Deliver { key });
            continue;
        }
        let Some(&(replica, tag, _)) = cluster
            .armed_timers()
            .iter()
            .find(|(_, tag, _)| *tag != TIMER_PROGRESS)
        else {
            break;
        };
        cluster.apply(&Choice::Fire { replica, tag });
    }
    assert!(
        cluster.inspection.max_executed() >= 1,
        "view-1 leader never ordered the injected op"
    );
    assert_eq!(
        views(&cluster),
        vec![1, 1, 1, 1],
        "no spurious further view change"
    );
    assert!(cluster.checker.ok(), "{:?}", cluster.checker.violations());
}

#[test]
fn view_change_schedule_replays_deterministically_via_artifact() {
    let h = harness();
    let mut cluster = h.build();
    drive_view_change(&mut cluster);
    let reference_hash = cluster.state_hash();
    // The applied schedule serializes into a replay artifact, survives the
    // JSON roundtrip, and replaying it reproduces the exact state.
    let artifact = Artifact {
        scenario: h.scenario.name.clone(),
        f: h.scenario.f,
        k: h.scenario.k,
        ops: h.scenario.ops,
        seed: 0,
        seeded_bug: SEEDED_BUG_ACTIVE,
        violations: Vec::new(),
        events: cluster.schedule.clone(),
    };
    let parsed = Artifact::from_json_str(&artifact.to_json_string()).expect("parses");
    assert_eq!(parsed, artifact);
    let replayed = h.replay(&parsed.events);
    assert_eq!(replayed.state_hash(), reference_hash);
    assert_eq!(views(&replayed), vec![1, 1, 1, 1]);
}
