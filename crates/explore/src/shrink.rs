//! Greedy delta-debugging over failing schedules.
//!
//! Works because [`Run::apply`] makes choices that reference vanished
//! state no-ops: removing the event that
//! *produced* a message silently disables every later event that touches
//! it, so plain subsequence removal never desynchronizes a replay. The
//! shrinker removes chunks at halving granularity (classic ddmin shape),
//! keeping any candidate that still trips the model's oracle, then
//! drops the trailing no-ops from the surviving schedule.

use crate::model::{Model, Run};
use crate::schedule::Choice;

/// Replays `events` from genesis; returns the violation kinds if the
/// schedule still fails, `None` if it is now clean.
pub fn reproduces<M: Model>(model: &M, events: &[Choice]) -> Option<Vec<String>> {
    let cluster = model.replay(events);
    if cluster.ok() {
        None
    } else {
        Some(cluster.violation_kinds())
    }
}

/// Shrinks a failing schedule to a (locally) 1-minimal failing
/// subsequence. The input must fail; the result is the *applied* schedule
/// of the final replay, so no-op remnants are already pruned.
pub fn shrink<M: Model>(model: &M, events: &[Choice]) -> Vec<Choice> {
    debug_assert!(
        reproduces(model, events).is_some(),
        "shrink() requires a failing schedule"
    );
    // Start from the applied projection: events that were already no-ops
    // in the original replay carry no information.
    let mut current: Vec<Choice> = model.replay(events).schedule().to_vec();
    // Each full halving descent changes which other removals succeed (a
    // removed delivery turns its dependents into removable no-ops), so
    // repeat descents until a whole pass makes no progress.
    loop {
        let before = current.len();
        let mut chunk = (current.len() / 2).max(1);
        loop {
            let mut start = 0;
            while start < current.len() {
                let end = (start + chunk).min(current.len());
                let mut candidate = current.clone();
                candidate.drain(start..end);
                if !candidate.is_empty() && reproduces(model, &candidate).is_some() {
                    current = candidate;
                    // Re-test the same offset: the next chunk slid into it.
                } else {
                    start = end;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk = (chunk / 2).max(1);
        }
        // Project back to applied choices before measuring progress.
        current = model.replay(&current).schedule().to_vec();
        if current.len() >= before {
            break;
        }
    }
    current
}
