//! Ordering: the leader's matrix proposals, the PBFT-style Prepare/Commit
//! rounds over them and the committed prefix; pre-prepares stashed across
//! a view installation; catching up by commit certificate. A committed
//! sequence is stored once, as its slot: the matrix and its voters'
//! self-contained Commit frames, its certificate, which a replica that is
//! behind adopts from one responder once `2f + k + 1` voters' frames
//! verify ([`PrimeMsg::CommitCert`]), and can serve on.

use super::io::{Io, Metric, Retain};
use super::preorder::PreOrder;
use super::StateHasher;
use crate::behavior::ByzBehavior;
use crate::config::ReplicaId;
use crate::msg::{self, Matrix, PreparedClaim, PrimeMsg, SummaryRow};
use bytes::Bytes;
use spire_crypto::Digest;
use spire_sim::{Context, Time};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hash;

#[derive(Default)]
pub(super) struct OrderingSlot {
    /// (view, matrix, digest) of the accepted pre-prepare. Once committed,
    /// the committed matrix and the view its certificate was formed in.
    pre_prepare: Option<(u64, Matrix, Digest)>,
    prepares: BTreeMap<u32, Digest>,
    /// Each voter's Commit digest and self-contained frame (ours is empty
    /// until flushed). A committed slot takes votes of its own view only,
    /// so the frames for its digest are its certificate.
    commits: BTreeMap<u32, (Digest, Bytes)>,
    prepared: bool,
    /// The `(view, matrix)` this slot prepared in an earlier view, still
    /// claimed until it prepares again in a later one.
    superseded: Option<(u64, Matrix)>,
    pub(super) committed: bool,
}

#[derive(Default)]
pub(super) struct Ordering {
    pub(super) slots: BTreeMap<u64, OrderingSlot>,
    pub(super) commit_aru: u64,
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
            if slot.committed {
                // A committed slot keeps the matrix and view its
                // certificate names: a later view's re-proposal of that
                // matrix is voted for, nothing else.
                return (*v < view && *existing == digest).then_some(digest);
            }
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

    /// The matrix committed at `seq`, if it is.
    pub(super) fn committed_matrix(&self, seq: u64) -> Option<&Matrix> {
        let slot = self.slots.get(&seq).filter(|slot| slot.committed)?;
        slot.pre_prepare.as_ref().map(|(_, matrix, _)| matrix)
    }

    /// Whether `seq` committed in `view` and its certificate lacks `from`.
    pub(super) fn lacks_frame(&self, seq: u64, view: u64, from: ReplicaId) -> bool {
        self.slots.get(&seq).is_some_and(|slot| {
            let in_view = slot.pre_prepare.as_ref().is_some_and(|p| p.0 == view);
            slot.committed && in_view && !slot.commits.contains_key(&from.0)
        })
    }

    /// Records `from`'s vote in `view`: a Prepare, or a Commit with the
    /// frame that carries it.
    pub(super) fn record_vote(
        &mut self,
        (seq, view): (u64, u64),
        from: ReplicaId,
        digest: Digest,
        commit: Option<&Bytes>,
    ) {
        let slot = self.slots.entry(seq).or_default();
        let in_view = slot.pre_prepare.as_ref().is_some_and(|p| p.0 == view);
        match commit {
            None => {
                slot.prepares.insert(from.0, digest);
            }
            Some(frame) if !slot.committed || in_view => {
                slot.commits.insert(from.0, (digest, frame.clone()));
            }
            Some(_) => {}
        }
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
        let Some((view, _, digest)) = &slot.pre_prepare else {
            return false;
        };
        let prepares = slot.prepares.values().filter(|d| *d == digest).count();
        if !slot.prepared && prepares >= quorum {
            slot.prepared = true;
            slot.superseded = None;
            if io.behavior != ByzBehavior::AckWithhold {
                slot.commits.insert(io.me.0, (*digest, Bytes::new()));
                // Staged: pipelined windows prepare several sequences
                // per activation, flushed as one cumulative commit.
                self.pending_commits.push((*view, seq, *digest));
            }
        }
        let commits = slot.commits.values().filter(|(d, _)| d == digest).count();
        if slot.prepared && !slot.committed && commits >= quorum {
            slot.committed = true;
            io.count(ctx, Metric::Committed, 1);
            return true;
        }
        false
    }

    /// Returns whether the contiguous committed prefix moved.
    pub(super) fn advance_commit_aru(&mut self) -> bool {
        let before = self.commit_aru;
        while self.committed_matrix(self.commit_aru + 1).is_some() {
            self.commit_aru += 1;
        }
        self.commit_aru > before
    }

    /// Sends the staged commit votes, one message per view: a lone commit
    /// in its classic form, several as one cumulative vote. Then files our
    /// own Commit frames flushed during this activation in their slots.
    pub(super) fn flush_commits(&mut self, io: &mut Io, ctx: &mut Context<'_>, pre: &mut PreOrder) {
        // Group by view: a view change mid-activation can split them.
        let mut by_view: BTreeMap<u64, Vec<(u64, Digest)>> = BTreeMap::new();
        for (view, seq, digest) in self.pending_commits.drain(..) {
            by_view.entry(view).or_default().push((seq, digest));
        }
        for (view, entries) in by_view {
            let retain = Retain::Commits(entries.clone());
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
            io.send_vote(ctx, pre, msg, retain);
        }
        let me = io.me.0;
        for (entries, frame) in io.own_commits.drain(..) {
            for (seq, digest) in entries {
                let ours = self
                    .slots
                    .get_mut(&seq)
                    .and_then(|s| s.commits.get_mut(&me));
                if let Some(ours) = ours.filter(|(voted, _)| *voted == digest) {
                    ours.1 = frame.clone();
                }
            }
        }
    }

    /// Every prepared sequence above the committed prefix (bounded by the
    /// proposal window), lowest first, with the latest view it prepared in
    /// — what a view-state report carries. Any one of them may have
    /// gathered a commit quorum at a replica outside the eventual state
    /// quorum, so none can be omitted.
    pub(super) fn prepared_claims(&self) -> Vec<PreparedClaim> {
        let slots = self.slots.range(self.commit_aru + 1..);
        let claims = slots.filter_map(|(&seq, slot)| {
            let current = slot.pre_prepare.as_ref().filter(|_| slot.prepared);
            let current = current.map(|(view, matrix, _)| (*view, matrix));
            let (view, matrix) = current.or(slot.superseded.as_ref().map(|(v, m)| (*v, m)))?;
            let matrix = matrix.clone();
            Some(PreparedClaim { view, seq, matrix })
        });
        claims.collect()
    }

    /// Resets ordering state above the committed prefix for a new view. A
    /// slot that prepared keeps its claim, without the old view's proposal
    /// or votes, so the next view change still reports it until it commits
    /// or prepares again in a later view: a plan whose base is above our
    /// commit point re-proposes nothing below it, and a quorum that forgot
    /// those claims could re-order sequences a replica outside it committed.
    pub(super) fn reset_for_view(&mut self, top: u64) {
        let commit_aru = self.commit_aru;
        self.slots.retain(|s, slot| {
            if *s <= commit_aru || slot.committed {
                return true;
            }
            let prepared = slot.pre_prepare.take().filter(|_| slot.prepared);
            let claim = prepared.map(|(v, m, _)| (v, m)).or(slot.superseded.take());
            *slot = OrderingSlot {
                superseded: claim,
                ..OrderingSlot::default()
            };
            slot.superseded.is_some()
        });
        self.last_proposed = top.max(commit_aru);
    }

    /// Sends `to` the committed matrices from `from_seq` (at most 200),
    /// each with `2f + k + 1` frames of its certificate that verify as the
    /// requester will check them. A frame our link MAC let through may not
    /// (a Byzantine voter's zero signature), so one that fails is dropped.
    pub(super) fn send_suffix(
        &mut self,
        io: &mut Io,
        ctx: &mut Context<'_>,
        to: ReplicaId,
        from_seq: u64,
    ) {
        let quorum = io.cfg.ordering_quorum();
        let slots = self.slots.range_mut(from_seq..);
        for (&seq, slot) in slots.filter(|(_, s)| s.committed).take(200) {
            let Some((view, matrix, digest)) = &slot.pre_prepare else {
                continue;
            };
            let (view, matrix, mut frames) = (*view, matrix.clone(), Vec::new());
            let vote = (seq, view, *digest);
            slot.commits.retain(|&author, (_, frame)| {
                let open = frames.len() < quorum && !frame.is_empty();
                let valid = open && certifier(io, ctx, frame, vote) == Some(ReplicaId(author));
                if valid {
                    frames.push(frame.clone());
                }
                valid || !open
            });
            let cert = PrimeMsg::CommitCert {
                seq,
                view,
                matrix,
                frames,
            };
            io.send_to(to, &cert);
        }
    }

    /// A committed matrix with its certificate, from any one responder:
    /// adopted as a committed slot holding the frames that proved it once
    /// `2f + k + 1` distinct voters' frames for `(seq, matrix.digest())` in
    /// `view` verify ([`certifier`]). Returns whether it was.
    pub(super) fn on_commit_cert(
        &mut self,
        io: &mut Io,
        ctx: &mut Context<'_>,
        (seq, view, matrix): (u64, u64, Matrix),
        frames: Vec<Bytes>,
    ) -> bool {
        if seq <= self.commit_aru
            || frames.len() > io.cfg.n as usize
            || self.committed_matrix(seq).is_some()
        {
            return false;
        }
        let vote = (seq, view, matrix.digest());
        let mut certificate = BTreeMap::new();
        for frame in frames {
            if let Some(author) = certifier(io, ctx, &frame, vote) {
                certificate.entry(author.0).or_insert((vote.2, frame));
            }
        }
        if certificate.len() < io.cfg.ordering_quorum() {
            return false;
        }
        let slot = self.slots.entry(seq).or_default();
        slot.pre_prepare = Some((view, matrix, vote.2));
        slot.commits = certificate;
        slot.prepared = true;
        slot.committed = true;
        true
    }

    /// Drops the slots at or below the stable checkpoint.
    pub(super) fn compact(&mut self, stable_seq: u64) {
        self.slots.retain(|s, _| *s > stable_seq);
    }

    pub(super) fn digest(&self, h: &mut StateHasher) {
        (self.last_proposed, self.commit_aru, self.max_seen_commit).hash(h);
        for (seq, slot) in &self.slots {
            let proposal = slot
                .pre_prepare
                .as_ref()
                .map(|(view, _, digest)| (view, digest));
            let superseded = slot.superseded.as_ref().map(|(v, m)| (v, m.digest()));
            (seq, slot.prepared, slot.committed, proposal, superseded).hash(h);
            slot.prepares.hash(h);
            h.all(
                slot.commits
                    .iter()
                    .map(|(voter, (digest, _))| (voter, digest)),
            );
        }
        for (at, _, _, _, bytes) in &self.delayed_proposals {
            (at.0, bytes).hash(h);
        }
        // `last_preprepare_at` gates eager proposals.
        self.last_preprepare_at.map(|at| at.0).hash(h);
        for (key, matrix) in &self.stashed_pps {
            (key, matrix.digest()).hash(h);
        }
    }
}

/// The author of a self-contained `Commit` or `CommitMulti` frame that
/// votes for `(seq, digest)` in `view` and verifies without a link MAC:
/// signed plain, or batch-attested. A container or a seal proves nothing.
fn certifier(
    io: &mut Io,
    ctx: &mut Context<'_>,
    frame: &Bytes,
    (seq, view, digest): (u64, u64, Digest),
) -> Option<ReplicaId> {
    let (vote, attested) = io.open_frame(ctx, msg::decode_frame(frame).ok()?, None)?;
    let author = vote.claimed_sender().filter(|a| a.0 < io.cfg.n)?;
    let (voted, entries) = vote
        .votes()
        .filter(|_| !matches!(vote, PrimeMsg::Prepare { .. }))?;
    let certifies = voted == view && entries.contains(&(seq, digest));
    (certifies && io.verify_replica_msg(ctx, &vote, author, attested)).then_some(author)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::AruVector;
    use crate::replica::io::testkit::{backend, io, run, sent, signer};

    /// Votes of view 0 for `digest` at sequence 1 from each of `voters`.
    fn votes(ord: &mut Ordering, voters: &[u32], digest: Digest, commit: bool) {
        let frame = Bytes::new();
        for from in voters {
            ord.record_vote((1, 0), ReplicaId(*from), digest, commit.then_some(&frame));
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
            assert_eq!(ord.committed_matrix(1), Some(&matrix));
            assert!(ord.prepared_claims().is_empty(), "nothing above the prefix");
        });
        let commits = sent(&mut backend, &mut io);
        assert_eq!(commits.len(), 3, "one Commit to each peer");
        let ours =
            |m: &PrimeMsg| matches!(m, PrimeMsg::Commit { replica, seq: 1, .. } if replica.0 == 0);
        assert!(commits.iter().all(|(_, m)| ours(m)));
        assert_eq!(backend.counters.get("prime.committed"), Some(&1));

        // Served, the committed slot carries the frames that verify: the
        // peers' here are empty stand-ins, ours is the flushed Commit.
        run(&mut backend, 0, |ctx| {
            ord.send_suffix(&mut io, ctx, ReplicaId(1), 1)
        });
        let served = sent(&mut backend, &mut io);
        let [(
            1,
            PrimeMsg::CommitCert {
                seq: 1,
                view: 0,
                frames,
                ..
            },
        )] = &served[..]
        else {
            panic!("one certificate to replica 1, got {served:?}");
        };
        assert_eq!(frames.len(), 1);
        assert!(ours(&PrimeMsg::decode(&frames[0]).expect("our own Commit")));
    }

    /// A matrix prepared in view 0 is still claimed after a view whose
    /// plan re-proposed nothing at its sequence (the plan's base was above
    /// our commit point), without view 0's votes, and after a view that
    /// re-proposed it but never prepared it; only preparing in a later view
    /// replaces the claim.
    #[test]
    fn a_prepared_claim_survives_a_view_that_does_not_repropose_it() {
        let (mut io, mut pre) = (io(0, ByzBehavior::Honest), PreOrder::new(4));
        let (mut ord, mut backend) = (Ordering::default(), backend());
        run(&mut backend, 0, |ctx| {
            let digest = ord
                .admit_pre_prepare(&mut io, ctx, &mut pre, 0, 1, Matrix::default())
                .expect("admitted");
            votes(&mut ord, &[0, 1, 2], digest, false);
            votes(&mut ord, &[1], digest, true);
            assert!(!ord.try_prepare_commit(&io, ctx, 1));
            let claimed = |ord: &Ordering| {
                let claims = ord.prepared_claims();
                assert_eq!((claims.len(), claims[0].seq), (1, 1));
                claims[0].view
            };
            ord.reset_for_view(1);
            assert_eq!(claimed(&ord), 0);
            let slot = &ord.slots[&1];
            assert!(slot.prepares.is_empty() && slot.commits.is_empty());

            let again = ord.admit_pre_prepare(&mut io, ctx, &mut pre, 2, 1, Matrix::default());
            assert_eq!(again, Some(digest));
            assert_eq!(claimed(&ord), 0, "view 2 has not prepared it");
            ord.reset_for_view(1);
            assert_eq!(claimed(&ord), 0, "nor has a view change since");

            ord.admit_pre_prepare(&mut io, ctx, &mut pre, 3, 1, Matrix::default());
            for voter in 0..3 {
                ord.record_vote((1, 3), ReplicaId(voter), digest, None);
            }
            assert!(!ord.try_prepare_commit(&io, ctx, 1));
            assert_eq!(claimed(&ord), 3, "prepared in view 3");
        });
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
