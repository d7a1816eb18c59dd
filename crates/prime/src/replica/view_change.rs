//! Suspect-leader monitoring and view changes: turnaround-time and
//! progress-timeout suspicion, RTT probing, Suspect / ViewState / NewView
//! exchange, and joining a view the rest of the cluster already runs.

use super::io::{Io, Metric};
use super::ordering::Ordering;
use super::StateHasher;
use crate::config::{self, ProtocolMode, ReplicaId};
use crate::msg::{Matrix, PreparedClaim, PrimeMsg, SummaryRow, ViewStateMsg};
use bytes::Bytes;
use spire_sim::{Context, Span, Time, TraceKind};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

#[derive(Default)]
pub(super) struct ViewChange {
    pub(super) view: u64,
    pub(super) in_view_change: bool,
    /// When the current view was entered (for view-change timeouts).
    view_entered_at: Time,
    /// Grows on every view change without intervening progress (capped),
    /// doubling the progress timeout each time so cascades of failed view
    /// changes damp out instead of thrashing (standard PBFT-style backoff).
    timeout_doublings: u32,
    suspects: BTreeMap<u64, BTreeSet<u32>>,
    suspected_views: BTreeSet<u64>,
    pub(super) view_states: BTreeMap<u64, BTreeMap<u32, ViewStateMsg>>,
    /// Highest view each replica has claimed in any signed message; a
    /// replica that fell behind joins view `v` once `f + k + 1` replicas
    /// claim `>= v` (at least one of them is correct).
    claimed_views: BTreeMap<u32, u64>,

    // ---- suspect-leader ----
    rtt_us: BTreeMap<u32, f64>,
    ping_nonce: u64,
    outstanding_pings: BTreeMap<u64, (u32, Time)>,
    outstanding_summary: Option<(u64, Time)>,
    last_progress: Time,
}

impl ViewChange {
    pub(super) fn is_leader(&self, io: &Io) -> bool {
        io.cfg.leader_of(self.view) == io.me
    }

    pub(super) fn note_progress(&mut self, now: Time) {
        self.last_progress = now;
        self.timeout_doublings = 0;
    }

    /// Starts the turnaround clock, unless one runs or we lead.
    pub(super) fn summary_sent(&mut self, io: &Io, sseq: u64, now: Time) {
        if self.outstanding_summary.is_none() && !self.is_leader(io) {
            self.outstanding_summary = Some((sseq, now));
        }
    }

    /// TAT measurement: if `proposal` covers our outstanding summary, stops
    /// the clock; returns whether the leader took longer than a correct one
    /// could have, given the measured round trip to it.
    pub(super) fn leader_too_slow(
        &mut self,
        io: &Io,
        ctx: &mut Context<'_>,
        proposal: Option<&Matrix>,
    ) -> bool {
        let (Some((sseq, sent)), Some(matrix)) = (self.outstanding_summary, proposal) else {
            return false;
        };
        let mine = |row: &SummaryRow| row.replica == io.me && row.sseq >= sseq;
        if !matrix.rows.iter().any(mine) {
            return false;
        }
        self.outstanding_summary = None;
        let Some(rtt) = self.rtt_us.get(&io.cfg.leader_of(self.view).0) else {
            return false;
        };
        if io.cfg.mode != ProtocolMode::Prime || self.in_view_change {
            return false;
        }
        let tat_us = ctx.now().since(sent).0 as f64;
        let allowed = config::TAT_ALLOWANCE * (rtt + 2.0 * config::PRE_PREPARE_INTERVAL.0 as f64);
        io.record(ctx, Metric::TatMs, tat_us / 1000.0);
        tat_us > allowed
    }

    fn signed_suspect(&self, io: &mut Io, ctx: &mut Context<'_>) -> Bytes {
        let mut msg = PrimeMsg::Suspect {
            replica: io.me,
            view: self.view,
            sig: [0; 64],
        };
        io.sign(ctx, &mut msg);
        msg.encode()
    }

    /// Accuses the current leader, once per view; returns whether it did.
    pub(super) fn suspect_current_view(&mut self, io: &mut Io, ctx: &mut Context<'_>) -> bool {
        if !self.suspected_views.insert(self.view) {
            return false;
        }
        let suspect = self.signed_suspect(io, ctx);
        self.suspects.entry(self.view).or_default().insert(io.me.0);
        io.count(ctx, Metric::SuspectsSent, 1);
        ctx.trace(TraceKind::SuspectLeader {
            replica: io.me.0,
            view: self.view,
        });
        io.broadcast(suspect);
        true
    }

    /// Re-broadcasts the current view's change artifacts: our Suspect,
    /// our ViewState while the change is in flight, and — from a new
    /// leader already holding a state quorum — the NewView itself. Every
    /// one of those messages is otherwise sent exactly once; a loss
    /// window that swallows them (site DoS, disconnection) would leave
    /// all replicas waiting forever on a quorum that can no longer form.
    /// Receivers treat each as an idempotent set-insert, so resending is
    /// safe.
    pub(super) fn rebroadcast_view_change(&mut self, io: &mut Io, ctx: &mut Context<'_>) {
        let suspect = self.signed_suspect(io, ctx);
        io.broadcast(suspect);
        if self.in_view_change {
            let own_state = self
                .view_states
                .get(&self.view)
                .and_then(|m| m.get(&io.me.0));
            if let Some(state) = own_state {
                io.broadcast(PrimeMsg::ViewState(state.clone()).encode());
            }
        } else {
            self.new_view(io, ctx, false);
        }
        io.count(ctx, Metric::VcRebroadcasts, 1);
    }

    /// The new leader installs the view once it holds a quorum of state
    /// reports: broadcasts the NewView and returns the reports to apply.
    /// (`installing = false`: re-broadcast for an already installed view.)
    pub(super) fn new_view(
        &self,
        io: &mut Io,
        ctx: &mut Context<'_>,
        installing: bool,
    ) -> Option<Vec<ViewStateMsg>> {
        let states = self.view_states.get(&self.view)?;
        if self.in_view_change != installing
            || !self.is_leader(io)
            || states.len() < io.cfg.ordering_quorum()
        {
            return None;
        }
        let mut msg = PrimeMsg::NewView {
            view: self.view,
            states: states.values().cloned().collect(),
            sig: [0; 64],
        };
        io.sign(ctx, &mut msg);
        io.broadcast(msg.encode());
        let PrimeMsg::NewView { states, .. } = msg else {
            unreachable!("built above")
        };
        Some(states)
    }

    /// Returns whether the accusation was accepted.
    pub(super) fn on_suspect(
        &mut self,
        io: &mut Io,
        ctx: &mut Context<'_>,
        msg: &PrimeMsg,
    ) -> bool {
        let PrimeMsg::Suspect { replica, view, .. } = *msg else {
            return false;
        };
        if view < self.view || !io.verify_replica_msg(ctx, msg, replica, None) {
            return false;
        }
        self.suspects.entry(view).or_default().insert(replica.0);
        true
    }

    /// The highest view at or above ours that a suspect quorum accuses.
    pub(super) fn suspected_by_quorum(&self, io: &Io) -> Option<u64> {
        let quorum = io.cfg.suspect_quorum();
        self.suspects
            .range(self.view..)
            .filter(|(_, set)| set.len() >= quorum)
            .map(|(v, _)| *v)
            .max()
    }

    /// Moves to `new_view` (unless we are already changing into it, or past
    /// it) and reports our state for it; returns whether it did.
    pub(super) fn enter_view(
        &mut self,
        io: &mut Io,
        ctx: &mut Context<'_>,
        new_view: u64,
        ord: &Ordering,
    ) -> bool {
        if new_view < self.view || (new_view == self.view && self.in_view_change) {
            return false;
        }
        self.view = new_view;
        io.inspect(|rec| rec.view = new_view);
        self.in_view_change = true;
        self.view_entered_at = ctx.now();
        self.timeout_doublings = (self.timeout_doublings + 1).min(3);
        self.outstanding_summary = None;
        io.count(ctx, Metric::ViewChanges, 1);
        ctx.trace(TraceKind::ViewChange {
            replica: io.me.0,
            view: new_view,
        });
        let mut state = ViewStateMsg {
            replica: io.me,
            view: new_view,
            last_committed: ord.commit_aru,
            prepared: ord.prepared_claims(),
            sig: [0; 64],
        };
        io.count(ctx, Metric::SignOps, 1);
        state.sig = io.signer.sign64(&state.signing_bytes());
        self.view_states
            .entry(new_view)
            .or_default()
            .insert(io.me.0, state.clone());
        io.broadcast(PrimeMsg::ViewState(state).encode());
        true
    }

    /// `None` if the state report was dropped; else whether a quorum of
    /// reports for a higher view shows a view change in progress to join.
    pub(super) fn on_view_state(
        &mut self,
        io: &Io,
        ctx: &mut Context<'_>,
        state: ViewStateMsg,
    ) -> Option<bool> {
        if state.view < self.view || !io.verify_view_state(ctx, &state) {
            return None;
        }
        let ahead = state.view > self.view;
        let states = self.view_states.entry(state.view).or_default();
        states.insert(state.replica.0, state);
        Some(ahead && states.len() >= io.cfg.ordering_quorum())
    }

    /// Validates a NewView and moves to its view; returns whether to apply it.
    pub(super) fn on_new_view(
        &mut self,
        io: &mut Io,
        ctx: &mut Context<'_>,
        msg: &PrimeMsg,
    ) -> bool {
        let PrimeMsg::NewView { view, states, .. } = msg else {
            return false;
        };
        let view = *view;
        let leader = io.cfg.leader_of(view);
        if view < self.view || !io.verify_replica_msg(ctx, msg, leader, None) {
            return false;
        }
        // Validate the quorum of states.
        let mut signers = BTreeSet::new();
        for state in states {
            if state.view == view && state.replica.0 < io.cfg.n && io.verify_view_state(ctx, state)
            {
                signers.insert(state.replica.0);
            }
        }
        if signers.len() < io.cfg.ordering_quorum() {
            io.count(ctx, Metric::BadNewView, 1);
            return false;
        }
        if view > self.view {
            self.view = view;
            io.inspect(|rec| rec.view = view);
            self.in_view_change = true;
        }
        true
    }

    pub(super) fn installed(&mut self, now: Time) {
        self.in_view_change = false;
        self.last_progress = now;
    }

    /// Records that `replica` operates in `view`; if a quorum of f+k+1
    /// replicas claim a higher view than ours, adopt it (we were left
    /// behind by a view change we missed, e.g. during recovery). Returns
    /// whether we joined.
    pub(super) fn note_claimed_view(&mut self, io: &Io, replica: ReplicaId, view: u64) -> bool {
        let entry = self.claimed_views.entry(replica.0).or_insert(0);
        *entry = (*entry).max(view);
        let mut views: Vec<u64> = self.claimed_views.values().copied().collect();
        views.sort_unstable();
        let Some(at) = views.len().checked_sub(io.cfg.suspect_quorum()) else {
            return false;
        };
        let joinable = views[at];
        // Prepare/Commit messages only flow in *installed* views, so a
        // quorum of them proves the view is active: join it directly.
        let join = joinable > self.view || (joinable == self.view && self.in_view_change);
        if join {
            self.view = joinable;
            io.inspect(|rec| rec.view = joinable);
            self.in_view_change = false;
            self.outstanding_summary = None;
        }
        join
    }

    pub(super) fn send_pings(&mut self, io: &mut Io, ctx: &mut Context<'_>) {
        let me = io.me.0;
        for r in (0..io.cfg.n).filter(|r| *r != me) {
            self.ping_nonce += 1;
            self.outstanding_pings
                .insert(self.ping_nonce, (r, ctx.now()));
            let ping = PrimeMsg::Ping {
                replica: io.me,
                nonce: self.ping_nonce,
            };
            io.send_to(ReplicaId(r), &ping);
        }
        // Cap the outstanding map.
        while self.outstanding_pings.len() > 4 * io.cfg.n as usize {
            self.outstanding_pings.pop_first();
        }
    }

    pub(super) fn on_pong(&mut self, now: Time, replica: ReplicaId, nonce: u64) {
        if let Some((target, sent)) = self.outstanding_pings.remove(&nonce) {
            if target == replica.0 {
                let rtt = now.since(sent).0 as f64;
                let entry = self.rtt_us.entry(replica.0).or_insert(rtt);
                *entry = 0.8 * *entry + 0.2 * rtt;
            }
        }
    }

    /// The progress-timer verdict. A view change that never completes (its
    /// new leader is also faulty or unreachable) must itself time out, or
    /// the whole cluster waits forever for a NewView that will never come.
    pub(super) fn stalled(&self, io: &Io, now: Time, work_pending: bool) -> bool {
        let timeout = Span::micros(io.cfg.progress_timeout.0 << self.timeout_doublings);
        if self.in_view_change {
            now.since(self.view_entered_at) >= timeout
        } else {
            work_pending && now.since(self.last_progress) >= timeout
        }
    }

    /// Drops view-change state for long-dead views (suspicions are only
    /// counted for views >= ours; view states only install view + 1).
    pub(super) fn compact(&mut self) {
        let view = self.view;
        self.suspects.retain(|v, _| *v >= view);
        self.suspected_views.retain(|v| *v >= view);
        self.view_states.retain(|v, _| *v + 1 >= view);
    }

    /// Deliberately excluded: RTT estimates and outstanding pings (the
    /// explorer never fires ping timers).
    pub(super) fn digest(&self, h: &mut StateHasher) {
        let summary = self.outstanding_summary.map(|(sseq, sent)| (sseq, sent.0));
        (self.view, self.in_view_change, self.view_entered_at.0).hash(h);
        (self.timeout_doublings, self.last_progress.0, summary).hash(h);
        (&self.suspects, &self.suspected_views, &self.claimed_views).hash(h);
        for (view, states) in &self.view_states {
            h.all(states.keys()).write_u64(*view);
        }
    }
}

/// Derives the deterministic view-change plan from a quorum of state
/// reports: the committed base and the (seq, matrix) reproposals preserving
/// every prepared matrix above it, highest-view claim winning per sequence,
/// with explicit empty matrices filling holes.
///
/// Every replica recomputes this from the same `NewView` quorum, so a
/// Byzantine new leader cannot silently drop a prepared matrix.
pub fn plan_new_view(states: &[ViewStateMsg]) -> (u64, Vec<(u64, Matrix)>) {
    let base = states.iter().map(|s| s.last_committed).max().unwrap_or(0);
    let mut claims: BTreeMap<u64, &PreparedClaim> = BTreeMap::new();
    let above_base = states
        .iter()
        .flat_map(|s| &s.prepared)
        .filter(|c| c.seq > base);
    for claim in above_base {
        let held = claims.entry(claim.seq).or_insert(claim);
        if claim.view > held.view {
            *held = claim;
        }
    }
    let top = claims.keys().next_back().copied().unwrap_or(base);
    let matrix = |seq| claims.get(&seq).map(|c| c.matrix.clone());
    let reproposals = (base + 1)..=top;
    (
        base,
        reproposals
            .map(|seq| (seq, matrix(seq).unwrap_or_default()))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::ByzBehavior;
    use crate::msg::AruVector;
    use crate::replica::io::testkit::{backend, io, run, sent, signer};
    use crate::replica::preorder::PreOrder;

    /// A one-row matrix told apart by `mark`.
    fn matrix(mark: u64) -> Matrix {
        let row = SummaryRow::signed(ReplicaId(2), mark, AruVector(vec![mark; 4]), &signer(2));
        Matrix { rows: vec![row] }
    }

    /// Replica `from`'s signed report for view 1: nothing committed, nothing
    /// prepared.
    fn empty_state(from: u32) -> ViewStateMsg {
        let mut state = ViewStateMsg {
            replica: ReplicaId(from),
            view: 1,
            last_committed: 0,
            prepared: Vec::new(),
            sig: [0; 64],
        };
        state.sig = signer(from).sign64(&state.signing_bytes());
        state
    }

    /// Replica 1 leads view 1 of four. It prepared sequences 1 and 3 in
    /// view 0 (not 2), reports both on entering the view, installs it at a
    /// quorum of three reports, and the plan every replica derives from its
    /// NewView reproposes both matrices with a no-op in the hole.
    #[test]
    fn the_new_leader_reproposes_every_claim_its_ordering_prepared() {
        let (mut io, mut pre) = (io(1, ByzBehavior::Honest), PreOrder::new(4));
        let (mut ord, mut vc) = (Ordering::default(), ViewChange::default());
        let mut backend = backend();
        let states = run(&mut backend, 1, |ctx| {
            for seq in [1, 2, 3] {
                let digest = ord
                    .admit_pre_prepare(&mut io, ctx, &mut pre, 0, seq, matrix(seq))
                    .expect("admitted");
                let voters = if seq == 2 { 0..2 } else { 0..3 };
                for from in voters {
                    ord.record_vote((seq, 0), ReplicaId(from), digest, None);
                }
                ord.try_prepare_commit(&io, ctx, seq);
            }
            assert!(vc.enter_view(&mut io, ctx, 1, &ord));
            assert!(!vc.enter_view(&mut io, ctx, 1, &ord), "already changing");
            assert_eq!(vc.on_view_state(&io, ctx, empty_state(2)), Some(false));
            assert!(vc.new_view(&mut io, ctx, true).is_none(), "two of three");
            let mut forged = empty_state(3);
            forged.last_committed = 9;
            assert_eq!(vc.on_view_state(&io, ctx, forged), None);
            assert_eq!(vc.on_view_state(&io, ctx, empty_state(3)), Some(false));
            vc.new_view(&mut io, ctx, true)
                .expect("a quorum of reports")
        });
        let (base, plan) = plan_new_view(&states);
        assert_eq!(base, 0);
        assert_eq!(
            plan,
            [(1, matrix(1)), (2, Matrix::default()), (3, matrix(3))]
        );

        let frames = sent(&mut backend, &mut io);
        let reports = |m: &PrimeMsg| matches!(m, PrimeMsg::ViewState(s) if s.prepared.len() == 2);
        let installs = |m: &PrimeMsg| matches!(m, PrimeMsg::NewView { view: 1, states, .. } if states.len() == 3);
        assert_eq!(frames.iter().filter(|(_, m)| reports(m)).count(), 3);
        assert_eq!(frames.iter().filter(|(_, m)| installs(m)).count(), 3);
    }
}
