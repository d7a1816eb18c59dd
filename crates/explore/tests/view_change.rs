//! Schedule-driven regression tests for the view-change path
//! (`on_suspect` -> `on_view_state` -> `on_new_view`), the least-tested
//! region of `replica/view_change.rs`. Every test drives explicit schedules through
//! the model seam, so the exact interleaving is pinned — including the
//! ViewState *join* path, which wall-clock tests rarely isolate.

use bytes::Bytes;
use spire_explore::{Artifact, Choice, Cluster, Harness, Model, MsgKey, Run, Scenario};
use spire_prime::model::SEEDED_BUG_ACTIVE;
use spire_prime::msg::{decode_enclosed, decode_multi};
use spire_prime::replica::TIMER_PROGRESS;
use spire_prime::PrimeMsg;

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

/// The messages a pending frame carries, its link container and batch
/// attestation looked through.
fn carried(bytes: &Bytes) -> Vec<PrimeMsg> {
    let frames = decode_multi(bytes).ok().flatten();
    let frames = frames.unwrap_or_else(|| vec![bytes.clone()]);
    frames
        .iter()
        .filter_map(|f| decode_enclosed(f).ok())
        .collect()
}

/// Delivers the oldest pending message that `hold` does not hold back;
/// with none, fires the earliest-due timer other than the progress timer.
fn step(cluster: &mut Cluster<'_>, hold: impl Fn(&MsgKey, &[PrimeMsg]) -> bool) {
    let pick = |key: &MsgKey, bytes: &Bytes| !hold(key, &carried(bytes));
    if let Some(key) = cluster.pool().oldest_where(pick) {
        cluster.apply(&Choice::Deliver { key });
        return;
    }
    let timers = cluster.armed_timers();
    if let Some(&(replica, tag, _)) = timers.iter().find(|(_, tag, _)| *tag != TIMER_PROGRESS) {
        cluster.apply(&Choice::Fire { replica, tag });
    }
}

fn executed(cluster: &Cluster<'_>) -> Vec<u64> {
    let records = cluster.inspection.records();
    (0..4)
        .map(|i| records.get(&i).map_or(0, |r| r.ops_executed))
        .collect()
}

/// One replica alone holds a commit certificate when the view changes.
/// Every replica prepares the op's sequence, but only replica 0 receives
/// the Commits; replicas 1–3 receive theirs only after entering view 1,
/// where `on_vote` discards them. View 1's state quorum has replica 0 in
/// it, so the plan's base is replica 0's commit point and nothing below
/// it is re-proposed: the others can reach it only by catching up from
/// replica 0, a single responder, fewer than `f + 1`.
#[test]
fn a_suffix_held_by_one_replica_reaches_the_others() {
    if SEEDED_BUG_ACTIVE {
        return; // the weakened quorum commits on one vote
    }
    let h = harness();
    let mut cluster = h.build();
    let commit =
        |msg: &PrimeMsg| matches!(msg, PrimeMsg::Commit { .. } | PrimeMsg::CommitMulti { .. });
    cluster.apply(&Choice::Inject { op: 0 });
    for _ in 0..2000 {
        if executed(&cluster)[0] >= 1 {
            break;
        }
        step(&mut cluster, |key, msgs| {
            key.to != 0 && msgs.iter().any(commit)
        });
    }
    assert_eq!(
        executed(&cluster),
        vec![1, 0, 0, 0],
        "only replica 0 committed"
    );

    // Replicas 1 and 2 time out (the `f + k + 1` suspect quorum); replica
    // 3's view-1 report never reaches the new leader, replica 1, so its
    // state quorum is replicas 0, 1 and 2.
    for replica in [1, 2] {
        cluster.apply(&Choice::Fire {
            replica,
            tag: TIMER_PROGRESS,
        });
    }
    for _ in 0..5000 {
        if executed(&cluster).iter().all(|ops| *ops >= 1) {
            break;
        }
        let views = views(&cluster);
        step(&mut cluster, |key, msgs| {
            let to = key.to as usize;
            let stale_commit = to != 0 && views[to] < 1 && msgs.iter().any(commit);
            let report = |msg: &PrimeMsg| matches!(msg, PrimeMsg::ViewState(s) if s.view == 1);
            stale_commit || (key.from == 3 && key.to == 1 && msgs.iter().any(report))
        });
    }
    assert!(
        views(&cluster).iter().all(|v| *v >= 1),
        "{:?}",
        views(&cluster)
    );
    assert_eq!(executed(&cluster), vec![1, 1, 1, 1]);
    assert!(cluster.checker.ok(), "{:?}", cluster.checker.violations());
}
