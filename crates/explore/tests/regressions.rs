//! Committed replay artifacts from real violations the explorers found.
//!
//! Each artifact pins the exact schedule that broke an invariant on an
//! earlier revision; the regression test replays it and asserts the
//! schedule stays clean. The artifact's own `violations` field records
//! what it used to trigger, for the archaeology.

use spire_explore::{xshard, Artifact, Harness, Model, Run, Scenario};

/// Replays a committed artifact and returns the violation kinds the
/// schedule produces on the current code.
fn replay_kinds(artifact_json: &str) -> Vec<String> {
    let artifact = Artifact::from_json_str(artifact_json).expect("artifact parses");
    let scenario = Scenario::named(&artifact.scenario, artifact.f, artifact.k, artifact.ops)
        .expect("known scenario");
    let harness = Harness::new(scenario);
    let cluster = harness.replay(&artifact.events);
    cluster.violation_kinds()
}

/// Found by the randomized explorer (honest scenario, seed 0) while
/// validating the pipelined ordering path: `ViewStateMsg` reported only
/// the *highest* prepared sequence, so with several sequences in flight a
/// lower prepared-and-elsewhere-committed matrix could be dropped from
/// the new-view plan and replaced, committing two different matrices at
/// one sequence. ViewState now carries every prepared claim above the
/// committed prefix; this schedule must stay violation-free.
#[test]
fn viewstate_single_claim_schedule_stays_safe() {
    let kinds = replay_kinds(include_str!(
        "../artifacts/viewstate_single_claim_conflicting_commit.json"
    ));
    assert!(
        kinds.is_empty(),
        "replayed schedule violated invariants: {kinds:?}"
    );
}

/// Hunted and shrunk by `random::hunt` against the planted
/// `seeded-xshard-bug` coordinator (an "impatient" commit phase that
/// aborts unacked groups after three retries while acked groups stay
/// committed — a textbook 2PC atomicity break). On an honest build the
/// schedule must stay clean; with the seeded feature compiled in it must
/// still reproduce the mixed decision, proving the ledger oracle and the
/// deterministic replay path both work end to end.
#[test]
fn xshard_impatient_coordinator_schedule() {
    let artifact = Artifact::from_json_str(include_str!(
        "../artifacts/xshard_impatient_coordinator_mixed_decision.json"
    ))
    .expect("artifact parses");
    assert!(
        artifact.seeded_bug,
        "artifact must record it was hunted under the seeded feature"
    );
    let harness = xshard::XHarness::new(
        xshard::XScenario::named(&artifact.scenario, artifact.ops).expect("known scenario"),
    );
    let kinds = harness.replay(&artifact.events).violation_kinds();
    if xshard::SEEDED_XSHARD_BUG_ACTIVE {
        assert_eq!(
            kinds,
            vec!["xshard-atomicity".to_string()],
            "seeded build must reproduce the committed violation"
        );
    } else {
        assert!(
            kinds.is_empty(),
            "honest build replayed the schedule into a violation: {kinds:?}"
        );
    }
}

/// Found by `exp_x1_explore --random --scenario=xshard-early-ack` (seed 0,
/// 9 events): replica 0 of every group acks each decision without
/// executing it, and a coordinator that believed one `Ack` per group
/// finished the transaction while group 0 had decided nothing — and
/// stopped re-sending it the commit. A group is now acked on `f + 1`
/// matching acks, so the schedule must stay clean.
#[test]
fn xshard_early_ack_schedule_stays_clean() {
    let artifact = Artifact::from_json_str(include_str!(
        "../artifacts/xshard_early_ack_premature_done.json"
    ))
    .expect("artifact parses");
    let harness = xshard::XHarness::new(
        xshard::XScenario::named(&artifact.scenario, artifact.ops).expect("known scenario"),
    );
    let kinds = harness.replay(&artifact.events).violation_kinds();
    assert!(
        kinds.is_empty(),
        "replayed schedule violated invariants: {kinds:?}"
    );
}

/// Every committed artifact is a fixed point of the JSON module: it parses,
/// and both the value and the `Artifact` read from it serialize back to
/// the bytes on disk — so a replay file written by one revision is read
/// unchanged by the next.
#[test]
fn committed_artifacts_reserialize_to_the_bytes_on_disk() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("artifacts");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("artifacts directory") {
        let path = entry.expect("directory entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("artifact reads");
        let value = spire_sim::json::parse(&text).expect("artifact is JSON");
        assert_eq!(value.to_string(), text, "{}", path.display());
        let artifact = Artifact::from_json_str(&text).expect("artifact parses");
        assert_eq!(artifact.to_json_string(), text, "{}", path.display());
        seen += 1;
    }
    assert!(seen >= 2, "expected the committed artifacts, found {seen}");
}
