//! Bounded exhaustive interleaving for tiny configs.
//!
//! Breadth-first search over schedule prefixes. Clusters are not clonable
//! (replicas own live state plus a shared inspection registry), so each
//! frontier node is a *prefix of choices* replayed from genesis — replay
//! is deterministic, so a prefix is a perfect, compact state snapshot.
//! Child states hash into a seen-set
//! ([`Cluster::state_hash`](crate::cluster::Cluster::state_hash));
//! commuting delivery orders collapse into one state, which is what makes
//! n=4 configs tractable.

use crate::cluster::{Bounds, Harness};
use crate::model::{Model, Run};
use crate::schedule::Choice;
use std::collections::{HashSet, VecDeque};

/// A schedule that trips the invariant checker.
#[derive(Clone, Debug)]
pub struct FoundViolation {
    /// The full (unshrunk) failing schedule.
    pub schedule: Vec<Choice>,
    /// Distinct violation kinds it triggers.
    pub kinds: Vec<String>,
}

/// Outcome of one exhaustive run.
#[derive(Clone, Debug, Default)]
pub struct ExhaustiveReport {
    /// Distinct states visited (after dedup), including the initial state.
    pub states_visited: u64,
    /// Transitions that landed on an already-seen state.
    pub states_deduped: u64,
    /// Full genesis replays performed (the dominant cost).
    pub replays: u64,
    /// Longest schedule expanded.
    pub deepest: usize,
    /// True if the frontier emptied before `max_states` was hit.
    pub frontier_exhausted: bool,
    /// The first violating schedule found, if any (search stops on it).
    pub violation: Option<FoundViolation>,
}

/// Explores every schedule under `bounds`, stopping at the first
/// invariant violation, at `max_states` distinct states, or when the
/// frontier is exhausted.
pub fn explore(harness: &Harness, bounds: &Bounds) -> ExhaustiveReport {
    let mut report = ExhaustiveReport::default();
    let mut seen: HashSet<u64> = HashSet::new();
    let root = harness.build();
    if !root.ok() {
        report.states_visited = 1;
        report.violation = Some(FoundViolation {
            kinds: root.violation_kinds(),
            schedule: Vec::new(),
        });
        return report;
    }
    seen.insert(root.state_hash());
    report.states_visited = 1;
    let mut frontier: VecDeque<Vec<Choice>> = VecDeque::new();
    frontier.push_back(Vec::new());
    while let Some(prefix) = frontier.pop_front() {
        if prefix.len() >= bounds.max_depth {
            continue;
        }
        let base = harness.replay(&prefix);
        report.replays += 1;
        for choice in base.enabled_choices(bounds) {
            if report.states_visited >= bounds.max_states {
                return report;
            }
            let mut child = harness.replay(&prefix);
            report.replays += 1;
            child.apply(&choice);
            if !child.ok() {
                report.violation = Some(FoundViolation {
                    kinds: child.violation_kinds(),
                    schedule: child.schedule,
                });
                return report;
            }
            let hash = child.state_hash();
            if seen.insert(hash) {
                report.states_visited += 1;
                let mut extended = prefix.clone();
                extended.push(choice);
                report.deepest = report.deepest.max(extended.len());
                frontier.push_back(extended);
            } else {
                report.states_deduped += 1;
            }
        }
    }
    report.frontier_exhausted = true;
    report
}
