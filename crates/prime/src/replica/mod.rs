//! The Prime replica: pre-ordering, ordering, suspect-leader monitoring,
//! view changes, checkpointing, reconciliation and state transfer.
//!
//! # Protocol summary
//!
//! *Pre-ordering.* Client ops reach any replica, which batches them into
//! signed `PO-Request(origin, po_seq)` broadcasts. Replicas acknowledge
//! with `PO-Ack`; a request is **pre-ordered** once `2f + k + 1` distinct
//! replicas (counting the originator and the acker itself) vouch for one
//! digest. Each replica tracks, per originator, the highest contiguously
//! pre-ordered sequence (its *ARU vector*) and broadcasts it as a signed
//! `PO-Summary` once it has advanced: with the next batch-sign flush when
//! one is pending, so one group send carries votes and summary, otherwise
//! on the summary tick.
//!
//! *Ordering.* The leader proposes a **matrix** of the latest signed
//! summary rows (`Pre-Prepare`) every `Δpp` if any row changed, and in
//! between as soon as fresh rows make more requests executable; it is
//! ordered with PBFT-style `Prepare`/`Commit` rounds under quorum
//! `2f + k + 1`. Executing a matrix means executing every pre-ordered
//! request newly covered by at least `f + k + 1` rows, in deterministic
//! `(origin, po_seq)` order — so a malicious leader cannot reorder or
//! starve any originator's requests; at most it can delay the whole batch,
//! which the next mechanism bounds.
//!
//! *Suspect-leader.* Replicas measure the leader's **turnaround time**
//! (from sending a summary until a proposal covers it) and compare it with
//! what a correct leader could achieve given measured round-trip times. A
//! leader that delays beyond `tat_allowance * (rtt + 2·Δpp)` is suspected;
//! `f + k + 1` suspicions trigger a view change. In
//! [`ProtocolMode::PbftLike`] this monitoring is disabled and only the
//! coarse progress timeout remains — reproducing the attack Prime defends
//! against.
//!
//! *Recovery.* Replicas checkpoint every `checkpoint_interval` matrices.
//! A replica that is behind — (re)starting, cut off, or installing a view
//! whose base is above its commit point — asks its peers for state, and
//! each answers with a signed reply bound to the request's nonce, a
//! checkpoint whose attestations sign its transfer layout, and the
//! committed matrices above it with their commit certificates. A
//! (re)starting replica rejoins on `2f + k + 1` such replies once its
//! commit point reaches the `(f + 1)`-th highest they report; never on
//! silence.
//!
//! # Layout
//!
//! Each mechanism is a state machine in its own file that owns its fields
//! and sees only them plus the shared `io` core. Where a step continues in
//! another sub-protocol it returns a small outcome and [`Replica`] — which
//! is only dispatch and that glue — makes the next call (DESIGN.md §2).

mod checkpoints;
mod execution;
mod io;
mod ordering;
mod preorder;
mod state_transfer;
mod view_change;

pub use execution::CseqWindow;
pub use view_change::plan_new_view;

use crate::application::Application;
use crate::behavior::ByzBehavior;
use crate::config::{self, PrimeConfig, ProtocolMode, ReplicaId};
use crate::inspect::Inspection;
use crate::msg::{self, Frame, Matrix, PrimeMsg, ViewStateMsg};
use crate::net::ReplicaNet;
use bytes::Bytes;
use checkpoints::Checkpoints;
use execution::Execution;
use io::{Io, Metric, Retain};
use ordering::Ordering;
use preorder::PreOrder;
use spire_crypto::keys::Signer;
use spire_crypto::KeyStore;
use spire_sim::{Context, Process, ProcessId, Span};
use state_transfer::StateTransfer;
use std::hash::Hash;
use std::sync::Arc;
use view_change::ViewChange;

/// Timer tags. Public so the schedule explorer (`crates/explore`) can
/// name timer-firing choices symbolically.
pub const TIMER_PO_FLUSH: u64 = 1;
pub const TIMER_SUMMARY: u64 = 2;
pub const TIMER_PRE_PREPARE: u64 = 3;
pub const TIMER_PING: u64 = 4;
pub const TIMER_PROGRESS: u64 = 5;
pub const TIMER_RECON: u64 = 6;
pub const TIMER_BATCH: u64 = 8;

/// The Prime replica process.
pub struct Replica {
    io: Io,
    pre: PreOrder,
    ord: Ordering,
    exe: Execution,
    vc: ViewChange,
    ckpt: Checkpoints,
    xfer: StateTransfer,
}

impl Replica {
    /// Creates a replica.
    ///
    /// `recovering` starts the replica in recovery (used after a proactive
    /// recovery): it asks for state and rejoins on a quorum of replies.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: PrimeConfig,
        me: ReplicaId,
        behavior: ByzBehavior,
        keystore: Arc<KeyStore>,
        signer: Signer,
        net: Box<dyn ReplicaNet>,
        app: Box<dyn Application>,
        recovering: bool,
    ) -> Replica {
        let n = cfg.n as usize;
        let mut xfer = StateTransfer::default();
        xfer.recovering = recovering;
        Replica {
            io: Io::new(cfg, me, behavior, keystore, signer, net),
            pre: PreOrder::new(n),
            ord: Ordering::default(),
            exe: Execution::new(app, n),
            vc: ViewChange::default(),
            ckpt: Checkpoints::default(),
            xfer,
        }
    }

    /// Attaches a shared inspection registry (for invariant checking).
    pub fn with_inspection(mut self, inspection: Inspection) -> Replica {
        self.io.inspection = Some(inspection);
        self
    }

    /// Installs per-peer link session keys (index = peer replica id, one
    /// entry per replica; the self slot is unused). Every outgoing
    /// replica-to-replica frame is then sealed under the pair's symmetric
    /// key, and incoming MAC-authenticated frames skip per-hop signature
    /// verification — the paper's Spines-level session authentication.
    pub fn with_session_keys(mut self, keys: Vec<[u8; 32]>) -> Replica {
        assert_eq!(keys.len(), self.io.cfg.n as usize, "one key per replica");
        self.io.session_keys = Some(keys);
        self
    }

    /// Overrides the metric label (default `"prime"`).
    pub fn with_label(mut self, label: &str) -> Replica {
        self.io.metric_keys = io::metric_keys(label);
        self
    }

    // ================= pre-ordering → ordering =================

    fn maybe_send_summary(&mut self, ctx: &mut Context<'_>) {
        if self.xfer.recovering || self.io.behavior == ByzBehavior::AckWithhold {
            return;
        }
        let Some(row) = self.pre.make_summary(&self.io, ctx) else {
            return;
        };
        self.vc.summary_sent(&self.io, row.sseq, ctx.now());
        self.io.broadcast(PrimeMsg::PoSummary(row).encode());
        self.maybe_eager_propose(ctx);
    }

    fn can_propose(&self) -> bool {
        self.vc.is_leader(&self.io) && !self.vc.in_view_change && !self.xfer.recovering
    }

    /// Event-driven proposing: fresh summary rows (or a reopened proposal
    /// window) trigger a pre-prepare immediately instead of waiting for
    /// the next `PRE_PREPARE_INTERVAL` tick, so ordering latency tracks
    /// message arrival rather than the timer quantum — but only when the
    /// matrix makes more requests executable (`Ordering::propose`), so a
    /// row that advances nothing costs no ordering round before the tick.
    /// Rate-limited by `EAGER_PROPOSE_GAP`; the periodic timer proposes
    /// any changed matrix.
    fn maybe_eager_propose(&mut self, ctx: &mut Context<'_>) {
        let gap = config::EAGER_PROPOSE_GAP.0;
        let last = self.ord.last_preprepare_at;
        if !self.can_propose() || last.is_some_and(|prev| ctx.now().since(prev).0 < gap) {
            return;
        }
        let before = self.ord.last_proposed;
        self.propose(ctx, true);
        if self.ord.last_proposed > before {
            self.io.count(ctx, Metric::EagerProposals, 1);
        }
    }

    fn propose(&mut self, ctx: &mut Context<'_>, eager: bool) {
        if !self.can_propose() {
            return;
        }
        let view = self.vc.view;
        let rows = &self.pre.latest_rows;
        if let Some((seq, matrix, bytes)) = self.ord.propose(&mut self.io, ctx, view, rows, eager) {
            self.accept_pre_prepare(ctx, view, seq, matrix);
            self.io.broadcast(bytes);
        }
    }

    // ================= ordering =================

    fn accept_pre_prepare(&mut self, ctx: &mut Context<'_>, view: u64, seq: u64, matrix: Matrix) {
        let Replica {
            io, pre, ord, vc, ..
        } = self;
        if view != vc.view || vc.in_view_change || seq <= ord.commit_aru {
            // Not installable right now — but if it belongs to the view we
            // are changing into (or a later one), keep it for replay; see
            // `stashed_pps`. Stale ones (old view / already committed) drop.
            let pending =
                view >= vc.view && seq > ord.commit_aru && (vc.in_view_change || view > vc.view);
            if pending && ord.stashed_pps.len() < 64 {
                io.count(ctx, Metric::PrepreparesStashed, 1);
                ord.stashed_pps.insert((view, seq), matrix);
            }
            return;
        }
        let Some(digest) = ord.admit_pre_prepare(io, ctx, pre, view, seq, matrix) else {
            return;
        };
        if vc.leader_too_slow(io, ctx, ord.proposed_matrix(seq)) {
            self.suspect_current_view(ctx);
        }
        let Replica { io, pre, ord, .. } = self;
        if io.behavior != ByzBehavior::AckWithhold {
            ord.record_vote((seq, view), io.me, digest, None);
            let prepare = PrimeMsg::Prepare {
                replica: io.me,
                view,
                seq,
                digest,
                sig: [0; 64],
            };
            io.send_vote(ctx, pre, prepare, Retain::None);
        }
        self.try_prepare_commit(ctx, seq);
    }

    /// A Prepare or Commit vote; one verification covers a cumulative
    /// commit's votes for every sequence its sender prepared at once. A
    /// Commit's frame is kept, copied out of its receive buffer, as part of
    /// the commit certificate of each sequence it votes for, also after the
    /// sequence committed, so the certificate holds every voter's frame.
    fn on_vote(
        &mut self,
        ctx: &mut Context<'_>,
        msg: &PrimeMsg,
        env_auth: Option<ReplicaId>,
        frame: &Bytes,
    ) {
        let (Some((view, entries)), Some(replica)) = (msg.votes(), msg.claimed_sender()) else {
            return;
        };
        let commit = !matches!(msg, PrimeMsg::Prepare { .. });
        let ord = &self.ord;
        let wanted = |seq| seq > ord.commit_aru || commit && ord.lacks_frame(seq, view, replica);
        // A lone vote with nothing left to record is dropped before paying
        // for its signature check.
        if !matches!(msg, PrimeMsg::CommitMulti { .. }) && !wanted(entries[0].0) {
            return;
        }
        if !self.io.verify_replica_msg(ctx, msg, replica, env_auth) {
            let metric = if commit {
                Metric::BadCommitSig
            } else {
                Metric::BadPrepareSig
            };
            self.io.count(ctx, metric, 1);
            return;
        }
        self.note_claimed_view(ctx, replica, view);
        let frame = commit.then(|| Bytes::copy_from_slice(frame));
        for &(seq, digest) in entries.iter() {
            if commit {
                self.ord.max_seen_commit = self.ord.max_seen_commit.max(seq);
            }
            let live = view == self.vc.view && seq > self.ord.commit_aru;
            if live || commit && self.ord.lacks_frame(seq, view, replica) {
                self.ord
                    .record_vote((seq, view), replica, digest, frame.as_ref());
                self.try_prepare_commit(ctx, seq);
            }
        }
    }

    fn try_prepare_commit(&mut self, ctx: &mut Context<'_>, seq: u64) {
        if self.ord.try_prepare_commit(&self.io, ctx, seq) {
            self.advance_commit_aru(ctx);
        }
    }

    fn advance_commit_aru(&mut self, ctx: &mut Context<'_>) {
        if self.ord.advance_commit_aru() {
            self.vc.note_progress(ctx.now());
        }
        self.try_execute(ctx);
        // Commits reopen the proposal window; a leader stalled on it can
        // resume pipelining right away.
        self.maybe_eager_propose(ctx);
    }

    // ================= execution, checkpoints, compaction =================

    fn try_execute(&mut self, ctx: &mut Context<'_>) {
        let view = self.vc.view;
        while let Some(seq) =
            self.exe
                .execute_next(&mut self.io, ctx, &mut self.pre, &self.ord, view)
        {
            if seq.is_multiple_of(self.io.cfg.checkpoint_interval) {
                let snapshot = self.exe.snapshot();
                self.ckpt.take(&mut self.io, ctx, seq, snapshot);
                self.check_checkpoint_stable(ctx, seq);
            }
        }
    }

    fn check_checkpoint_stable(&mut self, ctx: &mut Context<'_>, seq: u64) {
        let cover = &self.exe.state.exec_cover;
        if self.ckpt.check_stable(&self.io, ctx, seq, cover) {
            self.garbage_collect(ctx, seq);
        }
    }

    /// Compacts every log indexed below the stable checkpoint: ordering
    /// slots with their certificates, checkpoint votes, pre-ordering
    /// entries below the stable execution cover, stale view-change state
    /// and reconciliation requests. Emits
    /// `compaction.*` counters plus retained-size gauges so endurance
    /// runs can assert the plateau.
    fn garbage_collect(&mut self, ctx: &mut Context<'_>, stable_seq: u64) {
        let before = self.retained_entries();
        self.ord.compact(stable_seq);
        self.ckpt.compact(stable_seq);
        self.pre.compact(&self.ckpt.stable_exec_cover);
        self.vc.compact();
        let evicted = before.saturating_sub(self.retained_entries());
        let (io, ord) = (&self.io, &self.ord);
        io.count(ctx, Metric::CompactionRuns, 1);
        io.count(ctx, Metric::CompactionEvicted, evicted as u64);
        io.record(ctx, Metric::CompactionPoRetained, self.pre.po.len() as f64);
        io.record(ctx, Metric::CompactionSlotsRetained, ord.slots.len() as f64);
        let matrices = ord.slots.values().filter(|slot| slot.committed).count();
        io.record(ctx, Metric::CompactionMatricesRetained, matrices as f64);
    }

    fn retained_entries(&self) -> usize {
        let pre = &self.pre;
        self.ord.slots.len() + pre.po.len() + pre.missing.len() + self.vc.view_states.len()
    }

    // ================= state transfer =================

    fn on_state_req(&mut self, ctx: &mut Context<'_>, msg: &PrimeMsg, env_auth: Option<ReplicaId>) {
        let PrimeMsg::StateReq {
            replica: from,
            have_seq,
            commit_aru,
            nonce,
            ..
        } = *msg
        else {
            return;
        };
        if from == self.io.me {
            return;
        }
        if !self.io.verify_replica_msg(ctx, msg, from, env_auth) {
            self.io.count(ctx, Metric::BadStateReqSig, 1);
            return;
        }
        // A recovering replica cannot lead: if the requester is the current
        // leader, replace it immediately instead of waiting for the
        // progress timeout.
        if from == self.io.cfg.leader_of(self.vc.view) && !self.vc.in_view_change {
            self.suspect_current_view(ctx);
        }
        let Replica {
            io, pre, ord, ckpt, ..
        } = self;
        // Answer, then send the committed suffix so the requester can
        // catch up to the present, also when no checkpoint exists yet: it
        // starts above both the checkpoint served and the requester's
        // commit point, since the requester holds every commit below.
        let stable = ckpt.stable.as_ref().filter(|s| s.0 > have_seq);
        let highs = (pre.po_high[from.0 as usize], pre.sseq_high[from.0 as usize]);
        state_transfer::answer(io, ctx, from, (nonce, ord.commit_aru, highs), stable);
        let served = stable.map_or(have_seq, |s| s.0);
        ord.send_suffix(io, ctx, from, served.max(commit_aru) + 1);
    }

    /// Runs the state-request schedule, raising the commit point it asks
    /// toward to `target`.
    fn ask_for_state(&mut self, ctx: &mut Context<'_>, target: u64) {
        let progress = (self.ord.commit_aru, self.exe.last_executed);
        self.xfer.tick(&mut self.io, ctx, target, progress);
    }

    /// Installs a completed state transfer, and the certificates adopted
    /// above its checkpoint with it; a recovering replica may then rejoin.
    fn finalize_transfer(&mut self, ctx: &mut Context<'_>) {
        let last_executed = self.exe.last_executed;
        let Some((manifest, snapshot)) = self.xfer.take_complete(last_executed) else {
            return self.maybe_rejoin(ctx);
        };
        if !self.exe.restore(&self.io, &snapshot) {
            self.io.count(ctx, Metric::BadStateSnapshot, 1);
            return;
        }
        let seq = manifest.checkpoint_seq;
        let cover = &self.exe.state.exec_cover;
        self.exe.last_executed = seq;
        self.ord.commit_aru = self.ord.commit_aru.max(seq);
        self.ord.last_proposed = self.ord.last_proposed.max(seq);
        self.ckpt.stable = Some((seq, Bytes::from(snapshot), manifest.proof));
        self.ckpt.stable_exec_cover = cover.clone();
        self.pre.adopt_checkpoint(cover);
        self.garbage_collect(ctx, seq);
        self.advance_commit_aru(ctx);
        self.maybe_rejoin(ctx);
    }

    /// A recovering replica rejoins on evidence ([`StateTransfer::rejoin`])
    /// and resumes origination past what those peers saw from it, so fresh
    /// PO-Requests do not collide with pre-recovery certificates. (The ARU
    /// is *not* bumped: we claim only what we can re-certify.)
    fn maybe_rejoin(&mut self, ctx: &mut Context<'_>) {
        if let Some((po_high, sseq_high)) = self.xfer.rejoin(&self.io, ctx, self.ord.commit_aru) {
            self.pre.my_po_seq = self.pre.my_po_seq.max(po_high);
            self.pre.my_sseq = self.pre.my_sseq.max(sseq_high);
        }
    }

    // ================= suspect-leader & view changes =================

    fn suspect_current_view(&mut self, ctx: &mut Context<'_>) {
        if self.vc.suspect_current_view(&mut self.io, ctx) {
            self.check_suspect_quorum(ctx);
        }
    }

    fn check_suspect_quorum(&mut self, ctx: &mut Context<'_>) {
        if let Some(view) = self.vc.suspected_by_quorum(&self.io) {
            self.enter_view(ctx, view + 1);
        }
    }

    fn enter_view(&mut self, ctx: &mut Context<'_>, new_view: u64) {
        if self.vc.enter_view(&mut self.io, ctx, new_view, &self.ord) {
            self.maybe_install_view(ctx);
        }
    }

    fn maybe_install_view(&mut self, ctx: &mut Context<'_>) {
        if let Some(states) = self.vc.new_view(&mut self.io, ctx, true) {
            self.apply_new_view(ctx, self.vc.view, &states);
        }
    }

    /// Deterministically derives the reproposal plan from a state quorum and
    /// installs the view. Nothing at or below the plan's base is
    /// re-proposed, so a replica whose commit point is below it asks for
    /// the committed suffix until it holds it.
    fn apply_new_view(&mut self, ctx: &mut Context<'_>, view: u64, states: &[ViewStateMsg]) {
        let (base, reproposals) = plan_new_view(states);
        if base > self.ord.commit_aru {
            self.ask_for_state(ctx, base);
        }
        let top = reproposals.last().map_or(base, |(s, _)| *s);
        self.ord.reset_for_view(top);
        self.vc.installed(ctx.now());
        // Re-propose prepared matrices (and explicit no-ops for holes).
        for (seq, matrix) in reproposals {
            self.accept_pre_prepare(ctx, view, seq, matrix);
        }
        self.io.count(ctx, Metric::ViewsInstalled, 1);
        self.replay_stashed_pps(ctx);
    }

    /// Replays pre-prepares that overtook the view installation (see
    /// `Ordering::stashed_pps`).
    fn replay_stashed_pps(&mut self, ctx: &mut Context<'_>) {
        if self.vc.in_view_change {
            return;
        }
        for key in self.ord.ready_stashed(self.vc.view) {
            if let Some(matrix) = self.ord.stashed_pps.remove(&key) {
                self.accept_pre_prepare(ctx, key.0, key.1, matrix);
            }
        }
    }

    fn note_claimed_view(&mut self, ctx: &mut Context<'_>, replica: ReplicaId, view: u64) {
        if self.vc.note_claimed_view(&self.io, replica, view) {
            self.replay_stashed_pps(ctx);
        }
    }

    /// Mirrors ordering-layer progress variables into the inspection record
    /// (published from the progress timer, so snapshots stay fresh even when
    /// execution is stalled and the per-op update path never runs).
    fn publish_ordering_health(&self) {
        self.io.inspect(|rec| {
            rec.commit_aru = self.ord.commit_aru;
            rec.last_proposed = self.ord.last_proposed;
            rec.missing_po = self.pre.missing.len() as u64;
            rec.in_view_change = self.vc.in_view_change;
            let next = self.exe.last_executed + 1;
            rec.exec_stall = if next > self.ord.commit_aru {
                0 // idle: nothing committed beyond execution
            } else if self.ord.committed_matrix(next).is_none() {
                1 // committed matrix itself absent (ordering hole)
            } else {
                2 // matrix present: waiting on pre-order reconciliation
            };
        });
    }

    /// A 64-bit digest over the protocol-relevant state, used by the
    /// schedule explorer (`crates/explore`) to deduplicate interleavings:
    /// two cluster states whose replicas all hash equal behave identically
    /// on every future input, so only one needs exploring. A hash
    /// collision merely prunes one branch (coverage loss, never a false
    /// violation).
    ///
    /// Composed from each sub-protocol's `digest`, next to the fields it
    /// covers. Deliberately excluded: the verify caches and batch signer
    /// (pure performance state), RTT estimates and outstanding pings (the
    /// explorer never fires ping timers), metric bookkeeping, the staged
    /// acks / commits / link frames (empty at every activation boundary),
    /// and the bytes behind what is hashed by key or digest only (stored
    /// frames, view-state and checkpoint-vote bodies).
    pub fn state_digest(&self) -> u64 {
        let mut h = StateHasher::default();
        (self.io.me, self.io.outbox.len(), self.io.batch_timer_armed).hash(&mut h);
        self.pre.digest(&mut h);
        self.ord.digest(&mut h);
        self.exe.digest(&mut h);
        self.vc.digest(&mut h);
        self.ckpt.digest(&mut h);
        self.xfer.digest(&mut h);
        h.0
    }
}

/// Explorer state deduplication hashes with FNV-1a, fed through `Hash`:
/// fast and the same on every run, never for security.
type StateHasher = spire_sim::Fnv64;

impl Process for Replica {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let cfg = &self.io.cfg;
        self.io.net.start(ctx);
        self.vc.note_progress(ctx.now());
        ctx.set_timer(config::PO_INTERVAL, TIMER_PO_FLUSH);
        ctx.set_timer(config::SUMMARY_INTERVAL, TIMER_SUMMARY);
        ctx.set_timer(config::PRE_PREPARE_INTERVAL, TIMER_PRE_PREPARE);
        ctx.set_timer(config::PING_INTERVAL, TIMER_PING);
        ctx.set_timer(cfg.progress_timeout, TIMER_PROGRESS);
        ctx.set_timer(config::RECON_INTERVAL, TIMER_RECON);
        if self.xfer.recovering {
            self.xfer.start_recovery(&self.io, ctx);
            self.ask_for_state(ctx, 0);
        }
        self.end_activation(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: ProcessId, bytes: &Bytes) {
        if self.io.behavior == ByzBehavior::Mute {
            return;
        }
        // Per-link session authentication: a MAC-sealed frame proves
        // which peer sent it before any signature inside is decoded.
        let unsealed = self.io.net.unwrap(from, bytes);
        if let Some((payload, link_auth)) = unsealed.and_then(|p| self.io.unseal(ctx, p)) {
            // A multi-frame container carries everything one peer
            // staged for us during a single activation, sealed once;
            // each subframe inherits the container's link auth.
            match msg::decode_multi(&payload) {
                Ok(Some(frames)) => {
                    for frame in frames {
                        self.dispatch(ctx, frame, link_auth);
                    }
                }
                Ok(None) => self.dispatch(ctx, payload, link_auth),
                Err(_) => self.io.count(ctx, Metric::DecodeFail, 1),
            }
        }
        self.end_activation(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        if self.io.behavior == ByzBehavior::Mute {
            return;
        }
        self.handle_timer(ctx, tag);
        self.end_activation(ctx);
    }
}

impl Replica {
    /// Staged votes, then staged link frames, flush once per activation.
    fn end_activation(&mut self, ctx: &mut Context<'_>) {
        self.pre.flush_acks(&mut self.io, ctx);
        self.ord.flush_commits(&mut self.io, ctx, &mut self.pre);
        self.io.flush_links(ctx);
    }

    /// Decodes one unsealed wire frame, authenticates its envelope and
    /// hands the message, by value, to the sub-protocol that owns it.
    fn dispatch(&mut self, ctx: &mut Context<'_>, payload: Bytes, link_auth: Option<ReplicaId>) {
        let Ok(frame) = msg::decode_frame(&payload) else {
            self.io.count(ctx, Metric::DecodeFail, 1);
            return;
        };
        // While recovering, only the answers to its state requests are
        // processed (never batch-attested, so only plain frames matter).
        let state_traffic = matches!(
            frame,
            Frame::Plain(
                PrimeMsg::StateMeta { .. }
                    | PrimeMsg::StateChunk { .. }
                    | PrimeMsg::CommitCert { .. }
            )
        );
        if self.xfer.recovering && !state_traffic {
            return;
        }
        let io = &mut self.io;
        let Some((msg, env_auth)) = io.open_frame(ctx, frame, link_auth) else {
            return;
        };
        // The one range check on the replica a message claims to be from.
        if msg.claimed_sender().is_some_and(|r| r.0 >= io.cfg.n) {
            if matches!(msg, PrimeMsg::PoSummary(_)) {
                io.count(ctx, Metric::BadSummarySig, 1);
            }
            return;
        }
        // An unsigned message that names a sender speaks only for whoever
        // sent it: with session keys it must arrive authenticated as that
        // sender. (A `CommitCert` and a `StateChunk` name none: their
        // content proves them.)
        let unsigned = matches!(
            msg,
            PrimeMsg::StateChunkReq { .. }
                | PrimeMsg::ReconReq { .. }
                | PrimeMsg::Ping { .. }
                | PrimeMsg::Pong { .. }
        );
        if unsigned && io.session_keys.is_some() && env_auth != msg.claimed_sender() {
            io.count(ctx, Metric::BadLinkSender, 1);
            return;
        }
        let last_executed = self.exe.last_executed;
        match msg {
            PrimeMsg::Op(op) => self.pre.on_client_op(io, ctx, op),
            PrimeMsg::PoRequest { .. } => {
                self.pre.accept_po_request(io, ctx, msg, env_auth, &payload)
            }
            PrimeMsg::PoAck { .. } | PrimeMsg::PoAckMulti { .. } => {
                self.pre.on_po_ack(io, ctx, &msg, env_auth, &payload)
            }
            PrimeMsg::PoSummary(row) => {
                if self.pre.on_summary(io, ctx, row) {
                    self.maybe_eager_propose(ctx);
                }
            }
            PrimeMsg::PrePrepare { view, .. } => {
                let leader = io.cfg.leader_of(view);
                if !io.verify_replica_msg(ctx, &msg, leader, env_auth) {
                    io.count(ctx, Metric::BadPreprepareSig, 1);
                } else if let PrimeMsg::PrePrepare { seq, matrix, .. } = msg {
                    self.accept_pre_prepare(ctx, view, seq, matrix);
                }
            }
            PrimeMsg::Prepare { .. } | PrimeMsg::Commit { .. } | PrimeMsg::CommitMulti { .. } => {
                self.on_vote(ctx, &msg, env_auth, &payload)
            }
            PrimeMsg::Ping { replica, nonce } => {
                let pong = PrimeMsg::Pong {
                    replica: io.me,
                    nonce,
                };
                io.send_to(replica, &pong);
            }
            PrimeMsg::Pong { replica, nonce } => self.vc.on_pong(ctx.now(), replica, nonce),
            PrimeMsg::Suspect { .. } => {
                if self.vc.on_suspect(io, ctx, &msg) {
                    self.check_suspect_quorum(ctx);
                }
            }
            PrimeMsg::ViewState(state) => {
                let view = state.view;
                if let Some(join) = self.vc.on_view_state(io, ctx, state) {
                    if join {
                        self.enter_view(ctx, view);
                    }
                    self.maybe_install_view(ctx);
                }
            }
            PrimeMsg::NewView {
                view, ref states, ..
            } => {
                if self.vc.on_new_view(io, ctx, &msg) {
                    self.apply_new_view(ctx, view, states);
                }
            }
            PrimeMsg::Checkpoint(attestation) => {
                if let Some(seq) = self.ckpt.on_checkpoint(io, ctx, attestation) {
                    self.check_checkpoint_stable(ctx, seq);
                }
            }
            PrimeMsg::StateReq { .. } => self.on_state_req(ctx, &msg, env_auth),
            PrimeMsg::StateMeta { .. } => {
                self.xfer
                    .on_state_meta(io, ctx, (msg, env_auth), last_executed);
                self.finalize_transfer(ctx);
            }
            PrimeMsg::StateChunk { .. } => {
                self.xfer.on_state_chunk(io, ctx, msg);
                self.finalize_transfer(ctx);
            }
            PrimeMsg::StateChunkReq {
                replica,
                checkpoint_seq,
                chunks,
            } => {
                // A requester re-asking alternate responders for chunks it
                // still misses: serve only from the matching checkpoint.
                let wanted = replica != io.me && chunks.len() <= 512;
                let stable = self.ckpt.stable.as_ref().filter(|_| wanted);
                if let Some(stable) = stable.filter(|s| s.0 == checkpoint_seq) {
                    state_transfer::send_chunks(io, replica, stable, Some(&chunks));
                }
            }
            PrimeMsg::CommitCert {
                seq,
                view,
                matrix,
                frames,
            } => {
                if self
                    .ord
                    .on_commit_cert(io, ctx, (seq, view, matrix), frames)
                {
                    self.advance_commit_aru(ctx);
                    self.maybe_rejoin(ctx);
                }
            }
            PrimeMsg::ReconReq {
                replica,
                origin,
                po_seq,
            } => self.pre.on_recon_req(io, replica, origin.0, po_seq),
            // Reply and Notify are client-bound.
            PrimeMsg::Reply { .. } | PrimeMsg::Notify { .. } => {}
        }
    }

    /// The timer body, wrapped by `on_timer` so staged votes and link
    /// batches flush once per activation. Periodic timers re-arm.
    fn handle_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        let recovering = self.xfer.recovering;
        let rearm = match tag {
            TIMER_PO_FLUSH => {
                if !recovering {
                    self.pre.flush_po_batch(&mut self.io, ctx);
                }
                config::PO_INTERVAL
            }
            TIMER_SUMMARY => {
                // A pending batch flush carries the summary (below).
                if !self.io.batch_timer_armed {
                    self.maybe_send_summary(ctx);
                }
                config::SUMMARY_INTERVAL
            }
            TIMER_PRE_PREPARE => {
                // Release any delayed (attacked) proposals first.
                for (view, seq, matrix, bytes) in self.ord.take_due_proposals(ctx.now()) {
                    self.accept_pre_prepare(ctx, view, seq, matrix);
                    self.io.broadcast(bytes);
                }
                self.propose(ctx, false);
                config::PRE_PREPARE_INTERVAL
            }
            TIMER_PING => {
                if self.io.cfg.mode == ProtocolMode::Prime && !recovering {
                    self.vc.send_pings(&mut self.io, ctx);
                }
                config::PING_INTERVAL
            }
            TIMER_PROGRESS => {
                self.publish_ordering_health();
                let work_pending = self.pre.work_pending(&self.exe.state.exec_cover);
                if !recovering && self.vc.stalled(&self.io, ctx.now(), work_pending) {
                    if self.vc.suspect_current_view(&mut self.io, ctx) {
                        self.check_suspect_quorum(ctx);
                    } else {
                        // Already suspected this view once: the one-shot
                        // Suspect (or our ViewState, or the leader's
                        // NewView) may have been lost to an attack window,
                        // and nobody else will resend it. A stall that
                        // persists past the timeout re-sends the artifacts
                        // instead of just re-detecting.
                        self.vc.rebroadcast_view_change(&mut self.io, ctx);
                    }
                }
                // Check twice per timeout window so stalls are caught
                // promptly regardless of timer phase.
                Span::micros((self.io.cfg.progress_timeout.0 / 2).max(1))
            }
            TIMER_RECON => {
                // A replica that fell far behind (partition, long outage)
                // catches up via state transfer instead of waiting forever.
                let (ord, interval) = (&self.ord, self.io.cfg.checkpoint_interval);
                let seen = ord.max_seen_commit;
                let target = if seen > ord.commit_aru + interval {
                    seen
                } else {
                    0
                };
                self.ask_for_state(ctx, target);
                self.pre.recon_tick(&mut self.io, ctx);
                self.try_execute(ctx);
                config::RECON_INTERVAL
            }
            TIMER_BATCH => {
                self.io.batch_timer_armed = false;
                self.io.flush_outbox(ctx, &mut self.pre);
                // Staged behind the flushed votes, the summary shares
                // their link container: one group send for both.
                return self.maybe_send_summary(ctx);
            }
            _ => return,
        };
        ctx.set_timer(rearm, tag);
    }
}
