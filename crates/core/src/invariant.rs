//! Online safety-invariant checking.
//!
//! The paper's correctness claim is that up to `f` intrusions and `k`
//! simultaneously-recovering replicas never produce an inconsistent or
//! unsafe SCADA state. The [`InvariantChecker`] verifies that claim
//! *while* a scenario runs (not post-mortem): a periodic tick — virtual
//! time on the simulator, the control thread on the rt substrate —
//! cross-checks every correct replica's published [`Inspection`] record:
//!
//! 1. **Execution-prefix consistency** — all correct replicas' execution
//!    hash chains are prefix-compatible over their overlapping ranges.
//! 2. **At-most-one commit per `(view, seq)`** — no two correct replicas
//!    commit different matrices at the same global sequence (checked via
//!    the chain head after that matrix, which any two honest replicas
//!    with the same history must share).
//! 3. **View monotonicity** — a replica's view never regresses within
//!    one incarnation (restarts legitimately rewind it).
//! 4. **Checkpoint-chain validity** — checkpoints at the same sequence
//!    carry the same digest across correct replicas.
//! 5. **Client-reply `f + 1` agreement** — no client-side quorum tracker
//!    observed two conflicting values each gathering a full quorum
//!    (surfaced through the `scada.conflicting_accept` counter).
//!
//! Replicas declared faulty (configured or scheduled compromises) are
//! exempt: a Byzantine replica may publish anything. A violation among
//! the *correct* set is a genuine safety break — the runner counts it
//! under `invariant.violations`, prints the reproducing seed, and fails.

use spire_crypto::Digest;
use spire_prime::Inspection;
use spire_sim::Time;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// Bounds on the checker's cross-replica history maps; oldest sequences
/// are evicted first (they are settled and can no longer conflict with
/// the bounded per-replica rings feeding the checker).
const COMMITTED_CAP: usize = 8_192;
const CHECKPOINTS_CAP: usize = 1_024;

/// One detected safety violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Stable kind tag (`exec-prefix-divergence`, `conflicting-commit`,
    /// `view-regression`, `checkpoint-divergence`,
    /// `conflicting-client-accept`).
    pub kind: &'static str,
    /// Human-readable description with the replicas/sequences involved.
    pub detail: String,
}

#[derive(Default)]
struct CheckerState {
    checks: u64,
    violations: Vec<Violation>,
    /// replica -> (incarnation, view) seen at the last tick.
    last_view: BTreeMap<u32, (u64, u64)>,
    /// seq -> (view, chain head, first reporter).
    committed: BTreeMap<u64, (u64, Digest, u32)>,
    /// seq -> (digest, first reporter).
    checkpoints: BTreeMap<u64, (Digest, u32)>,
    /// Deduplication so a persistent divergence is reported once.
    reported_pairs: BTreeSet<(u32, u32)>,
    reported_commits: BTreeSet<(u64, u32)>,
    reported_checkpoints: BTreeSet<(u64, u32)>,
    accepts_seen: u64,
    /// Indices into the announced recovery-window schedule that have been
    /// judged (either caught up in time or reported stalled).
    settled_recoveries: BTreeSet<usize>,
}

/// An externally-supplied invariant: drained on every tick, each returned
/// string is one new violation detail.
type ExternalCheck = (&'static str, Arc<dyn Fn() -> Vec<String> + Send + Sync>);

/// The online checker. Cheap to share (`Arc`); every method takes `&self`.
pub struct InvariantChecker {
    inspection: Inspection,
    faulty: Arc<Mutex<BTreeSet<u32>>>,
    n_replicas: u32,
    state: Mutex<CheckerState>,
    external: Mutex<Vec<ExternalCheck>>,
}

impl InvariantChecker {
    /// Creates a checker over `n_replicas` replicas publishing into
    /// `inspection`, excluding the shared `faulty` set (which may grow as
    /// compromises are scheduled).
    pub fn new(
        inspection: Inspection,
        faulty: Arc<Mutex<BTreeSet<u32>>>,
        n_replicas: u32,
    ) -> InvariantChecker {
        InvariantChecker {
            inspection,
            faulty,
            n_replicas,
            state: Mutex::new(CheckerState::default()),
            external: Mutex::new(Vec::new()),
        }
    }

    /// Registers an external invariant run on every [`InvariantChecker::check`]
    /// pass: `drain` returns the details of violations found since its last
    /// call (e.g. the cross-shard atomicity ledger). `kind` tags them in
    /// [`Violation::kind`].
    pub fn add_external(
        &self,
        kind: &'static str,
        drain: Arc<dyn Fn() -> Vec<String> + Send + Sync>,
    ) {
        self.external.lock().expect("poisoned").push((kind, drain));
    }

    /// Runs invariants 1–4 over the current inspection snapshot; returns
    /// the number of *new* violations found by this pass.
    pub fn check(&self) -> usize {
        let faulty = self.faulty.lock().expect("poisoned").clone();
        let correct: Vec<u32> = (0..self.n_replicas)
            .filter(|r| !faulty.contains(r))
            .collect();
        // Drain external invariants before taking the state lock.
        let mut external_hits: Vec<Violation> = Vec::new();
        for (kind, drain) in self.external.lock().expect("poisoned").iter() {
            for detail in drain() {
                external_hits.push(Violation { kind, detail });
            }
        }
        let mut st = self.state.lock().expect("poisoned");
        st.checks += 1;
        let before = st.violations.len();
        st.violations.append(&mut external_hits);

        // 1. Execution-prefix consistency across correct replicas.
        match self.inspection.check_safety(&correct) {
            Ok(floor) => self.inspection.trim(&correct, floor),
            Err((a, b)) => {
                let key = (a.min(b), a.max(b));
                if st.reported_pairs.insert(key) {
                    st.violations.push(Violation {
                        kind: "exec-prefix-divergence",
                        detail: format!("replicas {a} and {b} executed different op sequences"),
                    });
                }
            }
        }

        let records = self.inspection.records();
        for (&id, rec) in &records {
            if faulty.contains(&id) || id >= self.n_replicas {
                continue;
            }
            // 3. View monotonicity within an incarnation.
            if let Some(&(inc, view)) = st.last_view.get(&id) {
                if inc == rec.incarnation && rec.view < view {
                    st.violations.push(Violation {
                        kind: "view-regression",
                        detail: format!(
                            "replica {id} moved from view {view} back to {} in incarnation {inc}",
                            rec.view
                        ),
                    });
                }
            }
            st.last_view.insert(id, (rec.incarnation, rec.view));
            // 2. At most one committed matrix per sequence: the chain
            // head after matrix `seq` is a deterministic function of the
            // full agreed history, so two correct replicas disagreeing on
            // it committed different operations somewhere at or before
            // `seq`.
            for &(view, seq, head) in &rec.recent_commits {
                match st.committed.get(&seq).copied() {
                    Some((pview, phead, prep)) => {
                        if phead != head && st.reported_commits.insert((seq, id)) {
                            st.violations.push(Violation {
                                kind: "conflicting-commit",
                                detail: format!(
                                    "seq {seq}: replica {prep} (view {pview}) and replica {id} \
                                     (view {view}) committed different matrices"
                                ),
                            });
                        }
                    }
                    None => {
                        st.committed.insert(seq, (view, head, id));
                    }
                }
            }
            // 4. Checkpoint agreement at equal sequences.
            for &(seq, digest) in &rec.recent_checkpoints {
                match st.checkpoints.get(&seq).copied() {
                    Some((pd, prep)) => {
                        if pd != digest && st.reported_checkpoints.insert((seq, id)) {
                            st.violations.push(Violation {
                                kind: "checkpoint-divergence",
                                detail: format!(
                                    "checkpoint at seq {seq}: replica {prep} and replica {id} \
                                     disagree on the snapshot digest"
                                ),
                            });
                        }
                    }
                    None => {
                        st.checkpoints.insert(seq, (digest, id));
                    }
                }
            }
        }
        while st.committed.len() > COMMITTED_CAP {
            st.committed.pop_first();
        }
        while st.checkpoints.len() > CHECKPOINTS_CAP {
            st.checkpoints.pop_first();
        }
        st.violations.len() - before
    }

    /// Invariant 6: bounded recovery. Every announced proactive-recovery
    /// window `(replica, start, end)` is a promise: by `end` the replica
    /// must have rejoined on a quorum of replies to its state requests and
    /// cleared its published `recovering` flag — i.e. it re-joined the
    /// execution quorum. Called on every checker tick with the current
    /// substrate time; each window is judged once, after it closes.
    /// A replica inside a *later* announced window at judgement time is
    /// deferred (a fresh rotation legitimately re-raises the flag), and
    /// declared-faulty replicas are exempt as everywhere else. Returns
    /// the number of new violations.
    pub fn note_recovery_windows(&self, now: Time, windows: &[(u32, Time, Time)]) -> usize {
        let faulty = self.faulty.lock().expect("poisoned").clone();
        let records = self.inspection.records();
        let mut st = self.state.lock().expect("poisoned");
        let before = st.violations.len();
        for (idx, &(id, start, end)) in windows.iter().enumerate() {
            if now < end || st.settled_recoveries.contains(&idx) {
                continue;
            }
            if faulty.contains(&id) {
                st.settled_recoveries.insert(idx);
                continue;
            }
            // Defer judgement while the replica sits inside another
            // announced window (the next rotation already started it).
            let in_other = windows
                .iter()
                .any(|&(oid, s, e)| oid == id && s <= now && now < e && s != start);
            if in_other {
                continue;
            }
            let Some(rec) = records.get(&id) else {
                continue;
            };
            st.settled_recoveries.insert(idx);
            if rec.recovering {
                st.violations.push(Violation {
                    kind: "recovery-stalled",
                    detail: format!(
                        "replica {id} entered proactive recovery at {:.1}s and was still \
                         recovering past the {:.1}s window deadline",
                        start.as_secs_f64(),
                        end.as_secs_f64()
                    ),
                });
            }
        }
        st.violations.len() - before
    }

    /// Invariant 5: feeds the cumulative `scada.conflicting_accept`
    /// counter; any increase since the last call means a client-side
    /// quorum accepted two conflicting values. Returns the number of new
    /// violation entries (0 or 1).
    pub fn note_conflicting_accepts(&self, total: u64) -> usize {
        let mut st = self.state.lock().expect("poisoned");
        let fresh = total.saturating_sub(st.accepts_seen);
        st.accepts_seen = st.accepts_seen.max(total);
        if fresh > 0 {
            st.violations.push(Violation {
                kind: "conflicting-client-accept",
                detail: format!("{fresh} client quorum(s) accepted two conflicting values"),
            });
            1
        } else {
            0
        }
    }

    /// How many check passes have run.
    pub fn checks(&self) -> u64 {
        self.state.lock().expect("poisoned").checks
    }

    /// All violations found so far (oldest first).
    pub fn violations(&self) -> Vec<Violation> {
        self.state.lock().expect("poisoned").violations.clone()
    }

    /// The most recent `n` violations (oldest of those first).
    pub fn recent_violations(&self, n: usize) -> Vec<Violation> {
        let st = self.state.lock().expect("poisoned");
        let skip = st.violations.len().saturating_sub(n);
        st.violations[skip..].to_vec()
    }

    /// Total violation count.
    pub fn violation_count(&self) -> usize {
        self.state.lock().expect("poisoned").violations.len()
    }

    /// True when no violation has ever been observed.
    pub fn ok(&self) -> bool {
        self.violation_count() == 0
    }
}

impl std::fmt::Debug for InvariantChecker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock().expect("poisoned");
        f.debug_struct("InvariantChecker")
            .field("checks", &st.checks)
            .field("violations", &st.violations.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker_with(n: u32, faulty: &[u32]) -> InvariantChecker {
        InvariantChecker::new(
            Inspection::new(),
            Arc::new(Mutex::new(faulty.iter().copied().collect())),
            n,
        )
    }

    #[test]
    fn clean_records_pass() {
        let c = checker_with(3, &[]);
        c.inspection.update(0, |r| {
            r.exec_chain = vec![[1; 32], [2; 32]];
            r.push_commit(0, 1, [2; 32]);
            r.push_checkpoint(25, [7; 32]);
        });
        c.inspection.update(1, |r| {
            r.exec_chain = vec![[1; 32], [2; 32]];
            r.push_commit(0, 1, [2; 32]);
            r.push_checkpoint(25, [7; 32]);
        });
        assert_eq!(c.check(), 0);
        assert!(c.ok());
        assert_eq!(c.checks(), 1);
    }

    #[test]
    fn detects_conflicting_commit_and_dedups() {
        let c = checker_with(2, &[]);
        c.inspection.update(0, |r| r.push_commit(0, 5, [1; 32]));
        c.inspection.update(1, |r| r.push_commit(0, 5, [9; 32]));
        assert_eq!(c.check(), 1);
        assert_eq!(c.violations()[0].kind, "conflicting-commit");
        // A second pass over the same records does not re-report.
        assert_eq!(c.check(), 0);
    }

    #[test]
    fn faulty_replicas_are_exempt() {
        let c = checker_with(2, &[1]);
        c.inspection.update(0, |r| r.push_commit(0, 5, [1; 32]));
        c.inspection.update(1, |r| r.push_commit(0, 5, [9; 32]));
        assert_eq!(c.check(), 0, "declared-faulty replica may equivocate");
    }

    #[test]
    fn detects_view_regression_within_incarnation_only() {
        let c = checker_with(2, &[]);
        c.inspection.update(0, |r| r.view = 3);
        assert_eq!(c.check(), 0);
        c.inspection.update(0, |r| r.view = 1);
        assert_eq!(c.check(), 1);
        assert_eq!(c.violations()[0].kind, "view-regression");
        // A restart (new incarnation) may rewind the view freely.
        c.inspection.update(1, |r| r.view = 4);
        assert_eq!(c.check(), 0);
        c.inspection.update(1, |r| {
            r.incarnation += 1;
            r.view = 0;
        });
        assert_eq!(c.check(), 0);
    }

    #[test]
    fn detects_checkpoint_divergence() {
        let c = checker_with(2, &[]);
        c.inspection.update(0, |r| r.push_checkpoint(25, [1; 32]));
        c.inspection.update(1, |r| r.push_checkpoint(25, [2; 32]));
        assert_eq!(c.check(), 1);
        assert_eq!(c.violations()[0].kind, "checkpoint-divergence");
    }

    #[test]
    fn recovery_windows_are_judged_once_after_close() {
        let c = checker_with(3, &[]);
        let windows = vec![(1u32, Time(1_000_000), Time(5_000_000))];
        c.inspection.update(1, |r| r.recovering = true);
        // Window still open: no judgement.
        assert_eq!(c.note_recovery_windows(Time(3_000_000), &windows), 0);
        // Deadline passed with the flag still up: one violation, once.
        assert_eq!(c.note_recovery_windows(Time(5_000_000), &windows), 1);
        assert_eq!(c.violations()[0].kind, "recovery-stalled");
        assert_eq!(c.note_recovery_windows(Time(6_000_000), &windows), 0);
    }

    #[test]
    fn completed_recovery_passes_and_later_window_defers() {
        let c = checker_with(3, &[]);
        let windows = vec![
            (1u32, Time(1_000_000), Time(5_000_000)),
            (1u32, Time(6_000_000), Time(9_000_000)),
        ];
        // Caught up in time: no violation.
        c.inspection.update(1, |r| r.recovering = false);
        assert_eq!(c.note_recovery_windows(Time(5_500_000), &windows), 0);
        // The next rotation raised the flag again; judging the first
        // window now (inside the second) must not misfire, and the
        // second window is graded on its own deadline.
        c.inspection.update(1, |r| r.recovering = true);
        assert_eq!(c.note_recovery_windows(Time(7_000_000), &windows), 0);
        assert_eq!(c.note_recovery_windows(Time(9_000_000), &windows), 1);
    }

    #[test]
    fn conflicting_accepts_counter_is_edge_triggered() {
        let c = checker_with(2, &[]);
        assert_eq!(c.note_conflicting_accepts(0), 0);
        assert_eq!(c.note_conflicting_accepts(2), 1);
        assert_eq!(c.note_conflicting_accepts(2), 0, "no new accepts");
        assert_eq!(c.note_conflicting_accepts(3), 1);
    }
}
