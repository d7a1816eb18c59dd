//! White-box inspection of replica state for invariant checking.
//!
//! Replicas publish their execution history into a shared registry after
//! every executed operation; tests and the red-team harness use it to check
//! **safety** (all correct replicas execute the same op sequence — their
//! execution hash chains are prefix-compatible) and **liveness** (the
//! executed-op counts advance).

use spire_crypto::Digest;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Execution record of one replica.
///
/// `exec_chain[i]` is the chain head after global op number
/// `chain_offset + i + 1`. A replica that state-transferred resumes its
/// chain at the checkpoint's op count (the head survives inside the
/// snapshot), so prefix comparisons remain sound across recoveries.
#[derive(Clone, Debug, Default)]
pub struct ReplicaRecord {
    /// Current view.
    pub view: u64,
    /// Highest executed matrix sequence.
    pub last_executed: u64,
    /// Total ops executed since genesis (including pre-recovery history).
    pub ops_executed: u64,
    /// Global op index before the first entry of `exec_chain`.
    pub chain_offset: u64,
    /// Hash chain value after each executed op from `chain_offset`.
    pub exec_chain: Vec<Digest>,
    /// Application digest after the latest execution.
    pub app_digest: Digest,
    /// Restart count of this replica process. A recovery legitimately
    /// rewinds `view`/`last_executed`, so monotonicity invariants only
    /// apply within one incarnation.
    pub incarnation: u64,
    /// Recent committed matrices as `(view, seq, chain_head)` — the chain
    /// head after executing matrix `seq`. Bounded ring (newest last); the
    /// invariant checker cross-references these for at-most-one commit
    /// per `(view, seq)` and per `seq` across replicas.
    pub recent_commits: Vec<(u64, u64, Digest)>,
    /// Recent checkpoints as `(seq, digest)`, bounded ring (newest last).
    /// Correct replicas checkpointing at the same seq must agree on the
    /// digest, and each replica's checkpoint seqs must advance.
    pub recent_checkpoints: Vec<(u64, Digest)>,
    /// Whether the replica is currently in state-transfer recovery. Set on
    /// recovery start, cleared when it rejoins on a quorum of replies to
    /// its state requests; the health engine grades such replicas `degraded` and
    /// the invariant checker bounds how long the flag may stay up.
    pub recovering: bool,
    /// Highest contiguously committed matrix sequence (ordering progress;
    /// execution may trail this while pre-order data is reconciled).
    pub commit_aru: u64,
    /// Highest sequence this replica has proposed (leaders only advance it;
    /// a gap of `proposal_window` above `commit_aru` blocks new proposals).
    pub last_proposed: u64,
    /// Pre-order entries currently known-missing (awaiting reconciliation).
    pub missing_po: u64,
    /// Whether a view change is in progress on this replica.
    pub in_view_change: bool,
    /// Why execution trails `commit_aru`, if it does: 0 = it does not
    /// (idle), 1 = the committed matrix for `last_executed + 1` is absent
    /// (ordering hole), 2 = the matrix is present but pre-order data is
    /// still being reconciled.
    pub exec_stall: u8,
}

/// Bounded history sizes for the per-replica rings above. Large enough
/// that a 1 s-cadence checker never misses entries, small enough that
/// inspection snapshots stay cheap.
pub const RECENT_COMMITS_CAP: usize = 512;
pub const RECENT_CHECKPOINTS_CAP: usize = 64;

impl ReplicaRecord {
    /// Appends a commit record, evicting the oldest past the cap.
    pub fn push_commit(&mut self, view: u64, seq: u64, head: Digest) {
        if self.recent_commits.len() >= RECENT_COMMITS_CAP {
            let excess = self.recent_commits.len() + 1 - RECENT_COMMITS_CAP;
            self.recent_commits.drain(..excess);
        }
        self.recent_commits.push((view, seq, head));
    }

    /// Appends a checkpoint record, evicting the oldest past the cap.
    pub fn push_checkpoint(&mut self, seq: u64, digest: Digest) {
        if self.recent_checkpoints.len() >= RECENT_CHECKPOINTS_CAP {
            let excess = self.recent_checkpoints.len() + 1 - RECENT_CHECKPOINTS_CAP;
            self.recent_checkpoints.drain(..excess);
        }
        self.recent_checkpoints.push((seq, digest));
    }
}

/// Shared registry: replica id -> record.
#[derive(Clone, Debug, Default)]
pub struct Inspection {
    inner: Arc<Mutex<BTreeMap<u32, ReplicaRecord>>>,
}

impl Inspection {
    /// Creates an empty registry.
    pub fn new() -> Inspection {
        Inspection::default()
    }

    /// Updates a replica's record (called by the replica itself).
    pub fn update(&self, replica: u32, f: impl FnOnce(&mut ReplicaRecord)) {
        let mut map = self.inner.lock().expect("poisoned");
        f(map.entry(replica).or_default())
    }

    /// Reads a snapshot of all records.
    pub fn records(&self) -> BTreeMap<u32, ReplicaRecord> {
        self.inner.lock().expect("poisoned").clone()
    }

    /// Checks pairwise prefix-compatibility of the execution chains of the
    /// given replicas over their overlapping global op range; returns the
    /// violating pair if safety was broken, and otherwise the lowest chain
    /// end among them: every entry below it that two of them hold was
    /// compared.
    pub fn check_safety(&self, replicas: &[u32]) -> Result<u64, (u32, u32)> {
        let map = self.inner.lock().expect("poisoned");
        let end = |r: &ReplicaRecord| r.chain_offset + r.exec_chain.len() as u64;
        for (idx, a) in replicas.iter().enumerate() {
            for b in &replicas[idx + 1..] {
                let (Some(ra), Some(rb)) = (map.get(a), map.get(b)) else {
                    continue;
                };
                for i in ra.chain_offset.max(rb.chain_offset)..end(ra).min(end(rb)) {
                    let da = ra.exec_chain[(i - ra.chain_offset) as usize];
                    if da != rb.exec_chain[(i - rb.chain_offset) as usize] {
                        return Err((*a, *b));
                    }
                }
            }
        }
        let ends = replicas.iter().filter_map(|id| map.get(id)).map(end);
        Ok(ends.min().unwrap_or(0))
    }

    /// Drops from the given replicas' chains the entries below `floor`, the
    /// result of a [`Inspection::check_safety`] that found them agreeing:
    /// later checks start above it, so a record is bounded by how far the
    /// replicas are apart.
    pub fn trim(&self, replicas: &[u32], floor: u64) {
        let mut map = self.inner.lock().expect("poisoned");
        for id in replicas {
            if let Some(r) = map.get_mut(id).filter(|r| r.chain_offset < floor) {
                r.exec_chain.drain(..(floor - r.chain_offset) as usize);
                r.chain_offset = floor;
            }
        }
    }

    /// The minimum ops-executed count across the given replicas.
    pub fn min_executed(&self, replicas: &[u32]) -> u64 {
        let map = self.inner.lock().expect("poisoned");
        replicas
            .iter()
            .map(|r| map.get(r).map(|rec| rec.ops_executed).unwrap_or(0))
            .min()
            .unwrap_or(0)
    }

    /// The maximum ops-executed count across all replicas.
    pub fn max_executed(&self) -> u64 {
        self.inner
            .lock()
            .expect("poisoned")
            .values()
            .map(|r| r.ops_executed)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safety_check_detects_divergence() {
        let insp = Inspection::new();
        insp.update(0, |r| {
            r.exec_chain = vec![[1; 32], [2; 32]];
        });
        insp.update(1, |r| {
            r.exec_chain = vec![[1; 32], [2; 32], [3; 32]];
        });
        insp.update(2, |r| {
            r.exec_chain = vec![[1; 32], [9; 32]];
        });
        assert!(insp.check_safety(&[0, 1]).is_ok());
        assert_eq!(insp.check_safety(&[0, 1, 2]), Err((0, 2)));
        assert!(insp.check_safety(&[7, 8]).is_ok()); // unknown replicas skip
    }

    #[test]
    fn safety_check_respects_chain_offsets() {
        let insp = Inspection::new();
        // Replica 0 has the full history; replica 1 recovered at op 2 and
        // only has entries from there.
        insp.update(0, |r| {
            r.exec_chain = vec![[1; 32], [2; 32], [3; 32], [4; 32]];
        });
        insp.update(1, |r| {
            r.chain_offset = 2;
            r.exec_chain = vec![[3; 32], [4; 32]];
        });
        assert!(insp.check_safety(&[0, 1]).is_ok());
        // A divergence inside the overlap is still caught.
        insp.update(1, |r| r.exec_chain[1] = [9; 32]);
        assert_eq!(insp.check_safety(&[0, 1]), Err((0, 1)));
    }

    /// Three agreeing chains of lengths 5, 7 and 9 keep only the entries
    /// from index 5, and a later divergence at index 8 is still caught.
    #[test]
    fn an_agreeing_check_drops_what_every_chain_has_passed() {
        let insp = Inspection::new();
        let chain = |len: u8| (0..len).map(|i| [i; 32]).collect::<Vec<_>>();
        for (id, len) in [(0, 5), (1, 7), (2, 9)] {
            insp.update(id, |r| r.exec_chain = chain(len));
        }
        insp.trim(&[0, 1, 2], insp.check_safety(&[0, 1, 2]).expect("agreeing"));
        let records = insp.records();
        for (id, kept) in [
            (0, chain(0)),
            (1, chain(7)[5..].to_vec()),
            (2, chain(9)[5..].to_vec()),
        ] {
            assert_eq!(records[&id].chain_offset, 5);
            assert_eq!(records[&id].exec_chain, kept);
        }
        insp.update(1, |r| r.exec_chain.extend([[7; 32], [99; 32]]));
        assert_eq!(insp.check_safety(&[0, 1, 2]), Err((1, 2)));
    }

    #[test]
    fn executed_counters() {
        let insp = Inspection::new();
        insp.update(0, |r| r.ops_executed = 5);
        insp.update(1, |r| r.ops_executed = 9);
        assert_eq!(insp.min_executed(&[0, 1]), 5);
        assert_eq!(insp.max_executed(), 9);
        assert_eq!(insp.min_executed(&[2]), 0);
    }
}
