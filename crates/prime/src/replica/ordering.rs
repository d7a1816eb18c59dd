//! Ordering: the leader's matrix proposals, the PBFT-style Prepare/Commit
//! rounds over them and the committed prefix; pre-prepares stashed across
//! a view installation; committed-suffix adoption when catching up.

use super::io::{Io, Metric, Retain};
use super::preorder::PreOrder;
use super::StateHasher;
use crate::behavior::ByzBehavior;
use crate::config::ReplicaId;
use crate::msg::{Matrix, PreparedClaim, PrimeMsg, SummaryRow};
use bytes::Bytes;
use spire_crypto::Digest;
use spire_sim::{Context, Time};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hash;

#[derive(Default)]
pub(super) struct OrderingSlot {
    /// (view, matrix, digest) of the accepted pre-prepare.
    pre_prepare: Option<(u64, Matrix, Digest)>,
    prepares: BTreeMap<u32, Digest>,
    commits: BTreeMap<u32, Digest>,
    prepared: bool,
    committed: bool,
}

#[derive(Default)]
pub(super) struct Ordering {
    pub(super) slots: BTreeMap<u64, OrderingSlot>,
    pub(super) commit_aru: u64,
    pub(super) committed_matrices: BTreeMap<u64, Matrix>,
    pub(super) last_proposed: u64,
    /// When this replica, as leader, last sent a pre-prepare — feeds the
    /// `leader_gap_us` ordering-cadence histogram the health layer's
    /// slow-leader detector reads.
    pub(super) last_preprepare_at: Option<Time>,
    /// Verified pre-prepares for the current/future view that arrived while
    /// a view change was still in progress. A fresh leader broadcasts its
    /// NewView and first pre-prepares back to back, and flood paths plus
    /// link batching give no cross-message FIFO, so the first pre-prepare of
    /// a view can overtake the NewView that installs it. Dropping it would
    /// leave a permanent hole in the sequence space (pre-prepares are never
    /// retransmitted); instead it is stashed here and replayed on install.
    pub(super) stashed_pps: BTreeMap<(u64, u64), Matrix>,
    /// Commit votes `(view, seq, digest)` produced during the current
    /// activation; a wide proposal window prepares several sequences per
    /// arrival, flushed as one cumulative commit per view.
    pending_commits: Vec<(u64, u64, Digest)>,
    /// Attack modelling: proposals a delaying leader is holding back, as
    /// `(release time, view, seq, matrix, signed frame)`.
    delayed_proposals: Vec<(Time, u64, u64, Matrix, Bytes)>,
    pub(super) max_seen_commit: u64,
    pub(super) suffix_votes: BTreeMap<(u64, Digest), (Matrix, BTreeSet<u32>)>,
}

impl Ordering {
    /// Returns the pre-prepare to accept locally and broadcast;
    /// equivocating and delaying leaders dispose of theirs here. An
    /// `eager` proposal (one made between `PRE_PREPARE_INTERVAL` ticks) is
    /// made only if it advances execution; the tick proposes any change.
    pub(super) fn propose(
        &mut self,
        io: &mut Io,
        ctx: &mut Context<'_>,
        view: u64,
        rows: &BTreeMap<u32, SummaryRow>,
        eager: bool,
    ) -> Option<(u64, Matrix, Bytes)> {
        if self.last_proposed >= self.commit_aru + io.cfg.proposal_window {
            io.count(ctx, Metric::ProposeWindowStall, 1);
            return None;
        }
        let matrix = Matrix {
            rows: rows.values().cloned().collect(),
        };
        // Skip proposals that cannot make progress: identical to the last
        // proposed matrix.
        if self.proposed_matrix(self.last_proposed) == Some(&matrix) || matrix.rows.is_empty() {
            return None;
        }
        if eager && !self.advances_execution(io, view, &matrix) {
            return None;
        }
        let seq = self.last_proposed + 1;
        self.last_proposed = seq;
        // Ordering-cadence instrumentation: the gap between consecutive
        // pre-prepares from this leader. A performance-attacking leader
        // (LeaderDelay) stretches this without tripping crash timeouts.
        let now = ctx.now();
        if let Some(prev) = self.last_preprepare_at {
            io.observe(ctx, Metric::LeaderGapUs, now.since(prev).0);
        }
        self.last_preprepare_at = Some(now);
        io.count(ctx, Metric::PrepreparesSent, 1);
        let pre_prepare = |matrix: Matrix| PrimeMsg::PrePrepare {
            view,
            seq,
            matrix,
            sig: [0; 64],
        };
        if io.behavior == ByzBehavior::Equivocate {
            // Send conflicting proposals to the two halves of the cluster.
            let mut alt = matrix.clone();
            alt.rows.remove(0);
            let mut msg_a = pre_prepare(matrix);
            let mut msg_b = pre_prepare(alt);
            io.sign(ctx, &mut msg_a);
            io.sign(ctx, &mut msg_b);
            io.broadcast_split(msg_a.encode(), msg_b.encode());
            return None;
        }
        let mut msg = pre_prepare(matrix);
        io.sign(ctx, &mut msg);
        let bytes = msg.encode();
        let PrimeMsg::PrePrepare { matrix, .. } = msg else {
            unreachable!("built above")
        };
        // A delaying leader (performance attack) postpones the broadcast;
        // deferred frames are released from the pre-prepare timer.
        if let ByzBehavior::LeaderDelay(extra) = io.behavior {
            self.delayed_proposals
                .push((now + extra, view, seq, matrix, bytes));
            return None;
        }
        Some((seq, matrix, bytes))
    }

    /// Whether `matrix` raises some origin's `f + k + 1` coverage above the
    /// last matrix proposed in `view` — that is, whether ordering it makes
    /// anything newly executable. With no such matrix (a fresh view, or
    /// held-back proposals that have no slot yet) every matrix does.
    fn advances_execution(&self, io: &Io, view: u64, matrix: &Matrix) -> bool {
        let last = self.slots.get(&self.last_proposed);
        let Some((_, last, _)) = last.and_then(|s| s.pre_prepare.as_ref().filter(|p| p.0 == view))
        else {
            return true;
        };
        let quorum = io.cfg.cover_quorum();
        (0..io.cfg.n as usize).any(|i| matrix.covered_aru(i, quorum) > last.covered_aru(i, quorum))
    }

    /// Delayed (attacked) proposals whose release time has come.
    pub(super) fn take_due_proposals(&mut self, now: Time) -> Vec<(u64, u64, Matrix, Bytes)> {
        let (ready, later): (Vec<_>, Vec<_>) = std::mem::take(&mut self.delayed_proposals)
            .into_iter()
            .partition(|due| due.0 <= now);
        self.delayed_proposals = later;
        ready
            .into_iter()
            .map(|(_, v, s, m, b)| (v, s, m, b))
            .collect()
    }

    /// Prunes stashed pre-prepares the installed `view` obsoleted; returns
    /// the keys of those ready for replay.
    pub(super) fn ready_stashed(&mut self, view: u64) -> Vec<(u64, u64)> {
        self.stashed_pps.retain(|(v, _), _| *v >= view);
        self.stashed_pps
            .range((view, 0)..=(view, u64::MAX))
            .map(|(k, _)| *k)
            .collect()
    }

    /// Validates and records a pre-prepare of the current view; returns
    /// the matrix digest to vote for.
    pub(super) fn admit_pre_prepare(
        &mut self,
        io: &mut Io,
        ctx: &mut Context<'_>,
        pre: &mut PreOrder,
        view: u64,
        seq: u64,
        matrix: Matrix,
    ) -> Option<Digest> {
        // Validate every row signature so a lying leader cannot fabricate
        // other replicas' summaries. Rows recur across proposals, so the
        // bounded cache makes re-validation a hash lookup.
        let rows_ok = matrix
            .rows
            .iter()
            .all(|row| io.verify_summary_row(ctx, row));
        if !rows_ok {
            io.count(ctx, Metric::BadMatrixRow, 1);
            return None;
        }
        // At most one row per replica.
        let mut seen = BTreeSet::new();
        if !matrix.rows.iter().all(|row| seen.insert(row.replica.0)) {
            io.count(ctx, Metric::DupMatrixRow, 1);
            return None;
        }
        for row in &matrix.rows {
            pre.observe_row_sseq(io.me, row);
        }
        let digest = matrix.digest();
        let slot = self.slots.entry(seq).or_default();
        if let Some((v, _, existing)) = &slot.pre_prepare {
            if *v == view && *existing != digest {
                // Leader equivocation detected locally.
                io.count(ctx, Metric::EquivocationDetected, 1);
                return None;
            }
            if *v >= view {
                return None;
            }
        }
        slot.pre_prepare = Some((view, matrix, digest));
        Some(digest)
    }

    pub(super) fn proposed_matrix(&self, seq: u64) -> Option<&Matrix> {
        let (_, matrix, _) = self.slots.get(&seq)?.pre_prepare.as_ref()?;
        Some(matrix)
    }

    pub(super) fn record_vote(&mut self, seq: u64, from: ReplicaId, digest: Digest, commit: bool) {
        let slot = self.slots.entry(seq).or_default();
        let votes = if commit {
            &mut slot.commits
        } else {
            &mut slot.prepares
        };
        votes.insert(from.0, digest);
    }

    /// Returns whether `seq` just committed.
    pub(super) fn try_prepare_commit(&mut self, io: &Io, ctx: &mut Context<'_>, seq: u64) -> bool {
        // Intentionally-seeded safety bug for the exploration harness
        // (feature `seeded-commit-bug`, never enabled in normal builds):
        // the Prepare/Commit certificates trip on a single vote instead of
        // the 2f + k + 1 ordering quorum. The explorer's CI leg proves the
        // harness catches the resulting divergence and shrinks a
        // reproducing schedule to a replayable artifact.
        let quorum = if cfg!(feature = "seeded-commit-bug") {
            1
        } else {
            io.cfg.ordering_quorum()
        };
        let Some(slot) = self.slots.get_mut(&seq) else {
            return false;
        };
        let Some((view, matrix, digest)) = &slot.pre_prepare else {
            return false;
        };
        let votes = |votes: &BTreeMap<u32, Digest>| votes.values().filter(|d| *d == digest).count();
        if !slot.prepared && votes(&slot.prepares) >= quorum {
            slot.prepared = true;
            if io.behavior != ByzBehavior::AckWithhold {
                slot.commits.insert(io.me.0, *digest);
                // Staged: pipelined windows prepare several sequences
                // per activation, flushed as one cumulative commit.
                self.pending_commits.push((*view, seq, *digest));
            }
        }
        if slot.prepared && !slot.committed && votes(&slot.commits) >= quorum {
            slot.committed = true;
            self.committed_matrices.insert(seq, matrix.clone());
            io.count(ctx, Metric::Committed, 1);
            return true;
        }
        false
    }

    /// Returns whether the contiguous committed prefix moved.
    pub(super) fn advance_commit_aru(&mut self) -> bool {
        let before = self.commit_aru;
        while self.committed_matrices.contains_key(&(self.commit_aru + 1))
            || self
                .slots
                .get(&(self.commit_aru + 1))
                .is_some_and(|s| s.committed)
        {
            self.commit_aru += 1;
        }
        self.commit_aru > before
    }

    /// Sends the staged commit votes, one message per view: a lone commit
    /// in its classic form, several as one cumulative vote.
    pub(super) fn flush_commits(&mut self, io: &mut Io, ctx: &mut Context<'_>, pre: &mut PreOrder) {
        if self.pending_commits.is_empty() {
            return;
        }
        // Group by view: a view change mid-activation can split them.
        let mut by_view: BTreeMap<u64, Vec<(u64, Digest)>> = BTreeMap::new();
        for (view, seq, digest) in std::mem::take(&mut self.pending_commits) {
            by_view.entry(view).or_default().push((seq, digest));
        }
        for (view, entries) in by_view {
            let msg = if let [(seq, digest)] = entries[..] {
                PrimeMsg::Commit {
                    replica: io.me,
                    view,
                    seq,
                    digest,
                    sig: [0; 64],
                }
            } else {
                io.count(ctx, Metric::MultiCommits, 1);
                PrimeMsg::CommitMulti {
                    replica: io.me,
                    view,
                    entries,
                    sig: [0; 64],
                }
            };
            io.send_vote(ctx, pre, msg, Retain::None);
        }
    }

    /// Every prepared sequence above the committed prefix (bounded by the
    /// proposal window), lowest first — what a view-state report carries.
    /// Any one of them may have gathered a commit quorum at a replica
    /// outside the eventual state quorum, so none can be omitted.
    pub(super) fn prepared_claims(&self) -> Vec<PreparedClaim> {
        self.slots
            .range(self.commit_aru + 1..)
            .filter(|(_, slot)| slot.prepared)
            .filter_map(|(s, slot)| {
                slot.pre_prepare.as_ref().map(|(v, m, _)| PreparedClaim {
                    view: *v,
                    seq: *s,
                    matrix: m.clone(),
                })
            })
            .collect()
    }

    /// Resets ordering state above the committed prefix for a new view.
    pub(super) fn reset_for_view(&mut self, top: u64) {
        let commit_aru = self.commit_aru;
        self.slots
            .retain(|s, slot| *s <= commit_aru || slot.committed);
        self.last_proposed = top.max(commit_aru);
    }

    /// Sends `to` the committed suffix from `from_seq` so it can catch up
    /// to the present (adopted there once f+1 responders agree).
    pub(super) fn send_suffix(&self, io: &mut Io, to: ReplicaId, from_seq: u64) {
        for (seq, matrix) in self.committed_matrices.range(from_seq..).take(200) {
            let msg = PrimeMsg::SuffixVote {
                replica: io.me,
                seq: *seq,
                matrix: matrix.clone(),
            };
            io.send_to(to, &msg);
        }
    }

    /// Returns whether `needed` responders now agree and it was adopted.
    pub(super) fn on_suffix_vote(
        &mut self,
        needed: usize,
        from: ReplicaId,
        seq: u64,
        matrix: Matrix,
    ) -> bool {
        // One live candidate per (seq, voter), so the map stays bounded
        // between checkpoints: a voter's newer claim replaces its older one.
        let digest = matrix.digest();
        self.suffix_votes.retain(|(s, d), (_, voters)| {
            if *s == seq && *d != digest {
                voters.remove(&from.0);
            }
            !voters.is_empty()
        });
        let (matrix, voters) = self
            .suffix_votes
            .entry((seq, digest))
            .or_insert_with(|| (matrix, BTreeSet::new()));
        voters.insert(from.0);
        let adopt = voters.len() >= needed && !self.committed_matrices.contains_key(&seq);
        if adopt {
            self.committed_matrices.insert(seq, matrix.clone());
        }
        adopt
    }

    /// Drops matrices, certificate slots and suffix votes at or below the
    /// stable checkpoint (suffix votes there can never be adopted again:
    /// `last_executed >= stable_seq` once restored).
    pub(super) fn compact(&mut self, stable_seq: u64) {
        self.committed_matrices.retain(|s, _| *s > stable_seq);
        self.slots.retain(|s, _| *s > stable_seq);
        self.suffix_votes.retain(|(s, _), _| *s > stable_seq);
    }

    pub(super) fn digest(&self, h: &mut StateHasher) {
        (self.last_proposed, self.commit_aru, self.max_seen_commit).hash(h);
        for (seq, slot) in &self.slots {
            let proposal = slot
                .pre_prepare
                .as_ref()
                .map(|(view, _, digest)| (view, digest));
            (seq, slot.prepared, slot.committed, proposal).hash(h);
            (&slot.prepares, &slot.commits).hash(h);
        }
        for (seq, matrix) in &self.committed_matrices {
            (seq, matrix.digest()).hash(h);
        }
        for (at, _, _, _, bytes) in &self.delayed_proposals {
            (at.0, bytes).hash(h);
        }
        // `last_preprepare_at` gates eager proposals.
        self.last_preprepare_at.map(|at| at.0).hash(h);
        for (key, matrix) in &self.stashed_pps {
            (key, matrix.digest()).hash(h);
        }
        for (key, (_, voters)) in &self.suffix_votes {
            (key, voters).hash(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::AruVector;
    use crate::replica::io::testkit::{backend, io, run, sent, signer};

    /// Votes for `digest` at sequence 1 from each of `voters`.
    fn votes(ord: &mut Ordering, voters: &[u32], digest: Digest, commit: bool) {
        for from in voters {
            ord.record_vote(1, ReplicaId(*from), digest, commit);
        }
    }

    /// One slot, as replica 0 of four (ordering quorum `2f + k + 1 = 3`):
    /// it prepares on the third matching Prepare, stages our Commit, and
    /// commits on the third matching Commit — never on votes for another
    /// digest, and once only.
    #[test]
    fn a_slot_prepares_and_commits_from_votes_alone() {
        let (mut io, mut pre) = (io(0, ByzBehavior::Honest), PreOrder::new(4));
        let (mut ord, mut backend) = (Ordering::default(), backend());
        run(&mut backend, 0, |ctx| {
            let matrix = Matrix::default();
            let digest = ord
                .admit_pre_prepare(&mut io, ctx, &mut pre, 0, 1, matrix.clone())
                .expect("an empty matrix of the current view is admitted");
            let other = spire_crypto::digest(b"another matrix");

            votes(&mut ord, &[0, 1], digest, false);
            votes(&mut ord, &[2, 3], other, false);
            assert!(!ord.try_prepare_commit(&io, ctx, 1));
            assert!(ord.prepared_claims().is_empty(), "two of three Prepares");
            votes(&mut ord, &[2], digest, false);
            assert!(
                !ord.try_prepare_commit(&io, ctx, 1),
                "prepared, not committed"
            );
            let claims = ord.prepared_claims();
            assert_eq!((claims.len(), claims[0].seq, claims[0].view), (1, 1, 0));

            // Our own Commit was recorded with the prepare and goes out once.
            ord.flush_commits(&mut io, ctx, &mut pre);
            ord.flush_commits(&mut io, ctx, &mut pre);
            votes(&mut ord, &[1], digest, true);
            votes(&mut ord, &[3], other, true);
            assert!(!ord.try_prepare_commit(&io, ctx, 1), "two of three Commits");
            assert!(!ord.advance_commit_aru());
            votes(&mut ord, &[2], digest, true);
            assert!(ord.try_prepare_commit(&io, ctx, 1));
            assert!(!ord.try_prepare_commit(&io, ctx, 1), "a slot commits once");
            assert!(ord.advance_commit_aru());
            assert_eq!(ord.commit_aru, 1);
            assert_eq!(ord.committed_matrices.get(&1), Some(&matrix));
            assert!(ord.prepared_claims().is_empty(), "nothing above the prefix");
        });
        let commits = sent(&mut backend, &mut io);
        assert_eq!(commits.len(), 3, "one Commit to each peer");
        let ours =
            |m: &PrimeMsg| matches!(m, PrimeMsg::Commit { replica, seq: 1, .. } if replica.0 == 0);
        assert!(commits.iter().all(|(_, m)| ours(m)));
        assert_eq!(backend.counters.get("prime.committed"), Some(&1));
    }

    /// `rows[r]` is replica `r`'s row (sequence `sseq`) reporting `aru` for
    /// origin 0 and nothing for the others; `None` sends no row.
    fn rows(sseq: u64, rows: [Option<u64>; 4]) -> BTreeMap<u32, SummaryRow> {
        let row = |r: u32, aru: u64| {
            let vector = AruVector(vec![aru, 0, 0, 0]);
            SummaryRow::signed(ReplicaId(r), sseq, vector, &signer(r))
        };
        let reported = (0..4)
            .zip(rows)
            .filter_map(|(r, aru)| Some((r, row(r, aru?))));
        reported.collect()
    }

    /// As leader of view 0 in a group of four (`f + k + 1 = 2` rows cover
    /// an op): an eager proposal is made only when its matrix raises some
    /// origin's coverage over the last proposed one; the periodic tick
    /// proposes any changed matrix.
    #[test]
    fn an_eager_proposal_is_made_only_when_it_advances_execution() {
        let (mut io, mut pre) = (io(0, ByzBehavior::Honest), PreOrder::new(4));
        let (mut ord, mut backend) = (Ordering::default(), backend());
        run(&mut backend, 0, |ctx| {
            let mut propose = |ord: &mut Ordering, rows, eager| {
                let (seq, matrix, _) = ord.propose(&mut io, ctx, 0, &rows, eager)?;
                ord.admit_pre_prepare(&mut io, ctx, &mut pre, 0, seq, matrix.clone())?;
                Some((seq, matrix))
            };
            // Nothing proposed yet in this view: an eager proposal goes.
            let first = rows(1, [Some(1), Some(1), None, None]);
            let (seq, matrix) = propose(&mut ord, first, true).expect("first proposal");
            assert_eq!((seq, matrix.covered_aru(0, 2)), (1, 1));

            // Replica 1 reports more, but only one row does: origin 0's
            // coverage stays at 1.
            let fresh = rows(2, [Some(1), Some(2), None, None]);
            assert_eq!(propose(&mut ord, fresh.clone(), true), None);
            assert_eq!(ord.last_proposed, 1);
            // The tick proposes that same matrix.
            let (seq, matrix) = propose(&mut ord, fresh, false).expect("periodic proposal");
            assert_eq!((seq, matrix.covered_aru(0, 2)), (2, 1));

            // A second row at 2 raises origin 0's coverage: eager goes.
            let advancing = rows(3, [Some(2), Some(2), None, None]);
            let (seq, matrix) = propose(&mut ord, advancing, true).expect("eager proposal");
            assert_eq!((seq, matrix.covered_aru(0, 2)), (3, 2));
        });
        assert_eq!(backend.counters.get("prime.preprepares_sent"), Some(&3));
    }
}
