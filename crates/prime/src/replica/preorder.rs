//! Pre-ordering: PO-Request dissemination and acknowledgement, the
//! per-origin certification ARU, PO-Summary rows, and reconciliation of
//! missing or never-certified requests.

use super::io::{Io, Metric, Retain};
use super::{CseqWindow, StateHasher};
use crate::behavior::ByzBehavior;
use crate::config::{self, ReplicaId};
use crate::msg::{AruVector, ClientOp, PrimeMsg, SummaryRow};
use bytes::Bytes;
use spire_crypto::Digest;
use spire_sim::{span_key, Context, SpanPhase};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

#[derive(Default)]
pub(super) struct PoEntry {
    /// Ops by digest actually held (origin equivocation can give us content
    /// that never certifies; we only execute certified content).
    content: Option<(Digest, Vec<ClientOp>, Bytes)>,
    /// Signed PO-Ack messages per digest, keyed by acking replica. The
    /// origin's vote is implicit in the signed request itself. Storing the
    /// full messages lets reconciliation forward the *certificate*, so a
    /// replica that lost its pre-ordering state (recovery, long partition)
    /// can re-certify historical requests.
    acks: BTreeMap<Digest, BTreeMap<u32, Bytes>>,
    /// Digest that reached the pre-order quorum, if any.
    certified: Option<Digest>,
    /// Whether we have already broadcast our own ack.
    acked: Option<Digest>,
}

#[derive(Default)]
pub(super) struct PreOrder {
    pending_ops: Vec<ClientOp>,
    seen_ops: BTreeMap<u32, CseqWindow>, // per-client batching dedup
    pub(super) my_po_seq: u64,
    pub(super) po: BTreeMap<(u32, u64), PoEntry>,
    /// Highest PO sequence ever seen per origin (for post-recovery resume).
    pub(super) po_high: Vec<u64>,
    /// Highest summary sequence ever seen per replica (for post-recovery
    /// resume: peers discard summaries with non-increasing sseq).
    pub(super) sseq_high: Vec<u64>,
    po_aru: Vec<u64>,

    // ---- summaries ----
    pub(super) latest_rows: BTreeMap<u32, SummaryRow>,
    pub(super) my_sseq: u64,
    last_summary_vector: AruVector,

    /// PO-Acks produced during the current activation; one arrival can
    /// carry many PO-Requests (a coalesced container), and flushing them
    /// as a single cumulative vote amortizes the signature, the frame
    /// and the receiver-side verification.
    pending_acks: Vec<(ReplicaId, u64, Digest)>,

    // ---- reconciliation ----
    pub(super) missing: BTreeSet<(u32, u64)>,
    recon_rotor: u32,
    /// `po_aru` snapshot from the previous recon tick: a per-origin
    /// certification aru that sits below `po_high` across two ticks is a
    /// hole (lost request or lost acks), not in-flight traffic, and gets
    /// actively repaired (see `retry_uncertified_po`).
    po_gap_snapshot: Vec<u64>,
}

fn recon_req(io: &Io, origin: u32, po_seq: u64) -> PrimeMsg {
    PrimeMsg::ReconReq {
        replica: io.me,
        origin: ReplicaId(origin),
        po_seq,
    }
}

impl PreOrder {
    pub(super) fn new(n: usize) -> PreOrder {
        PreOrder {
            po_high: vec![0; n],
            sseq_high: vec![0; n],
            po_aru: vec![0; n],
            last_summary_vector: AruVector::zeros(n),
            po_gap_snapshot: vec![0; n],
            ..PreOrder::default()
        }
    }

    pub(super) fn on_client_op(&mut self, io: &mut Io, ctx: &mut Context<'_>, op: ClientOp) {
        if !io.verify_client_op(ctx, &op) {
            io.count(ctx, Metric::BadClientSig, 1);
            return;
        }
        let seen = self.seen_ops.entry(op.client.0).or_default();
        if !seen.try_mark(op.cseq) {
            return; // duplicate submission
        }
        ctx.span_mark(span_key(op.client.0, op.cseq), SpanPhase::Recv);
        self.pending_ops.push(op);
        if self.pending_ops.len() >= config::PO_BATCH {
            self.flush_po_batch(io, ctx);
        }
    }

    /// Never while recovering: neither caller runs then.
    pub(super) fn flush_po_batch(&mut self, io: &mut Io, ctx: &mut Context<'_>) {
        if self.pending_ops.is_empty() {
            return;
        }
        self.my_po_seq += 1;
        let ops = std::mem::take(&mut self.pending_ops);
        let request = |ops: Vec<ClientOp>| PrimeMsg::PoRequest {
            origin: io.me,
            po_seq: self.my_po_seq,
            ops,
            sig: [0; 64],
        };
        if io.behavior == ByzBehavior::EquivocatePo && ops.len() >= 2 {
            // Same po_seq, different contents to the two halves.
            let half = ops.len() / 2;
            let mut msg_a = request(ops[..half].to_vec());
            let mut msg_b = request(ops[half..].to_vec());
            io.sign(ctx, &mut msg_a);
            io.sign(ctx, &mut msg_b);
            io.broadcast_split(msg_a.encode(), msg_b.encode());
            return;
        }
        let mut msg = request(ops);
        if io.cfg.batch_sign {
            // Our own zero-signature encoding is accepted directly (we
            // trivially authenticated ourselves); the attested frame
            // replaces the stored bytes at flush time.
            let retain = Retain::Request {
                po_seq: self.my_po_seq,
            };
            let payload = msg.encode();
            self.accept_po_request(io, ctx, msg, Some(io.me), &payload);
            io.queue_outbox(ctx, self, payload, None, retain);
            return;
        }
        io.sign(ctx, &mut msg);
        // Record our own request locally (we are origin and first acker).
        let bytes = msg.encode();
        self.accept_po_request(io, ctx, msg, None, &bytes);
        io.broadcast(bytes);
    }

    /// Handles a PO-Request (from the origin, from our own flush, or
    /// re-broadcast through reconciliation). `frame` is the self-contained
    /// wire form the request arrived in (attested when batched); it is
    /// what reconciliation stores and forwards.
    pub(super) fn accept_po_request(
        &mut self,
        io: &mut Io,
        ctx: &mut Context<'_>,
        msg: PrimeMsg,
        env_auth: Option<ReplicaId>,
        frame: &Bytes,
    ) {
        let PrimeMsg::PoRequest {
            origin,
            po_seq,
            ops,
            ..
        } = &msg
        else {
            return;
        };
        let (origin, po_seq) = (*origin, *po_seq);
        if !io.verify_replica_msg(ctx, &msg, origin, env_auth) {
            io.count(ctx, Metric::BadPoSig, 1);
            return;
        }
        let ops_ok = ops.iter().all(|op| io.verify_client_op(ctx, op));
        if !ops_ok {
            io.count(ctx, Metric::BadOpInBatch, 1);
            return;
        }
        let digest = spire_crypto::digest(&msg.signing_bytes());
        self.po_high[origin.0 as usize] = self.po_high[origin.0 as usize].max(po_seq);
        let entry = self.po.entry((origin.0, po_seq)).or_default();
        let replace = match (&entry.content, &entry.certified) {
            (None, _) => true,
            // An equivocating origin gave us content that never certified;
            // adopt the certified version fetched via reconciliation.
            (Some((held, _, _)), Some(cert)) => held != cert && *cert == digest,
            _ => false,
        };
        if replace {
            if let PrimeMsg::PoRequest { ops, .. } = msg {
                entry.content = Some((digest, ops, frame.clone()));
            }
        }
        // Vouch: the origin implicitly acks via its signed request; we ack
        // once (unless we are the origin, whose request is its vote).
        let ack_now = entry.acked.is_none() && origin != io.me;
        if ack_now {
            entry.acked = Some(digest);
        }
        // A duplicate of a still-uncertified request is a retry: our first
        // ack may have been lost (links give up after bounded
        // retransmission), so vote again. Acks are idempotent at the
        // receiver, and the re-ack stops once the entry certifies.
        let re_ack =
            !ack_now && origin != io.me && entry.certified.is_none() && entry.acked == Some(digest);
        if (ack_now || re_ack) && io.behavior != ByzBehavior::AckWithhold {
            // Staged, not sent: every request acknowledged within this
            // activation (a coalesced arrival can carry many) shares one
            // cumulative vote at the activation boundary.
            self.pending_acks.push((origin, po_seq, digest));
        }
        self.missing.remove(&(origin.0, po_seq));
        self.check_certified(io, ctx, origin.0, po_seq);
    }

    /// A PO-Ack, single or cumulative: one signature vouches for every
    /// `(origin, po_seq, digest)` entry. The whole frame (plain or
    /// batch-attested) is stored per entry as certificate material —
    /// forwarded verbatim during reconciliation it re-verifies and
    /// re-derives each entry at the receiver.
    pub(super) fn on_po_ack(
        &mut self,
        io: &mut Io,
        ctx: &mut Context<'_>,
        msg: &PrimeMsg,
        env_auth: Option<ReplicaId>,
        frame: &Bytes,
    ) {
        let single;
        let (replica, entries) = match msg {
            PrimeMsg::PoAck {
                replica,
                origin,
                po_seq,
                digest,
                ..
            } => {
                single = [(*origin, *po_seq, *digest)];
                (*replica, &single[..])
            }
            PrimeMsg::PoAckMulti {
                replica, entries, ..
            } => (*replica, &entries[..]),
            _ => return,
        };
        if entries.iter().any(|(origin, _, _)| origin.0 >= io.cfg.n) {
            return;
        }
        if !io.verify_replica_msg(ctx, msg, replica, env_auth) {
            io.count(ctx, Metric::BadAckSig, 1);
            return;
        }
        for (origin, po_seq, digest) in entries {
            if replica == *origin {
                continue; // the origin's vote is its signed request
            }
            let entry = self.po.entry((origin.0, *po_seq)).or_default();
            entry
                .acks
                .entry(*digest)
                .or_default()
                .insert(replica.0, frame.clone());
            self.check_certified(io, ctx, origin.0, *po_seq);
        }
    }

    /// Keeps what `retain` asks of one of our own frames now that its
    /// self-contained form exists; a vote may complete pre-order quorums.
    /// Our own Commit frames are parked on `io` for ordering to file.
    pub(super) fn retain_own(
        &mut self,
        io: &mut Io,
        ctx: &mut Context<'_>,
        retain: Retain,
        frame: &Bytes,
    ) {
        match retain {
            Retain::None => {}
            Retain::Commits(entries) => io.own_commits.push((entries, frame.clone())),
            Retain::Acks(entries) => {
                for (origin, po_seq, digest) in entries {
                    if let Some(entry) = self.po.get_mut(&(origin.0, po_seq)) {
                        entry
                            .acks
                            .entry(digest)
                            .or_default()
                            .insert(io.me.0, frame.clone());
                    }
                    self.check_certified(io, ctx, origin.0, po_seq);
                }
            }
            Retain::Request { po_seq } => {
                // Swap the zero-signature encoding stored at queue time
                // for the attested frame reconciliation will forward (our
                // own content is never replaced in between).
                let entry = self.po.get_mut(&(io.me.0, po_seq));
                if let Some((_, _, raw)) = entry.and_then(|e| e.content.as_mut()) {
                    *raw = frame.clone();
                }
            }
        }
    }

    /// Converts the activation's staged PO-Acks into one wire message: a
    /// lone ack goes out in its classic form, while several coalesce into
    /// one cumulative vote — one signature (or Merkle leaf), one frame,
    /// one receiver-side verification for the lot.
    pub(super) fn flush_acks(&mut self, io: &mut Io, ctx: &mut Context<'_>) {
        if self.pending_acks.is_empty() {
            return;
        }
        let acks = std::mem::take(&mut self.pending_acks);
        let msg = if let [(origin, po_seq, digest)] = acks[..] {
            PrimeMsg::PoAck {
                replica: io.me,
                origin,
                po_seq,
                digest,
                sig: [0; 64],
            }
        } else {
            io.count(ctx, Metric::MultiAcks, 1);
            PrimeMsg::PoAckMulti {
                replica: io.me,
                entries: acks.clone(),
                sig: [0; 64],
            }
        };
        io.send_vote(ctx, self, msg, Retain::Acks(acks));
    }

    fn check_certified(&mut self, io: &Io, ctx: &mut Context<'_>, origin: u32, po_seq: u64) {
        let quorum = io.cfg.ordering_quorum(); // 2f + k + 1 vouchers
        let entry = self.po.entry((origin, po_seq)).or_default();
        if entry.certified.is_none() {
            let content_digest = entry.content.as_ref().map(|(d, _, _)| *d);
            let winner = entry
                .acks
                .iter()
                .find(|(digest, votes)| {
                    // Count distinct non-origin ackers plus the origin's
                    // implicit vote when we hold matching content.
                    let origin_vote = (content_digest == Some(**digest)) as usize;
                    votes.keys().filter(|r| **r != origin).count() + origin_vote >= quorum
                })
                .map(|(digest, _)| *digest);
            entry.certified = winner;
            if winner.is_some() {
                io.count(ctx, Metric::Certified, 1);
                if ctx.tracing_enabled() {
                    let held = entry.content.iter().filter(|(d, _, _)| Some(*d) == winner);
                    for op in held.flat_map(|(_, ops, _)| ops) {
                        ctx.span_mark(span_key(op.client.0, op.cseq), SpanPhase::Preorder);
                    }
                }
            }
        }
        if entry.certified.is_some() {
            let aru = &mut self.po_aru[origin as usize];
            while self
                .po
                .get(&(origin, *aru + 1))
                .is_some_and(|e| e.certified.is_some())
            {
                *aru += 1;
            }
        }
    }

    /// Our next signed summary row, if the ARU vector moved since the last.
    pub(super) fn make_summary(&mut self, io: &Io, ctx: &mut Context<'_>) -> Option<SummaryRow> {
        let vector = AruVector(self.po_aru.clone());
        if vector == self.last_summary_vector {
            return None;
        }
        self.my_sseq += 1;
        io.count(ctx, Metric::SummariesSent, 1);
        io.count(ctx, Metric::SignOps, 1);
        let row = SummaryRow::signed(io.me, self.my_sseq, vector.clone(), &io.signer);
        self.last_summary_vector = vector;
        self.latest_rows.insert(io.me.0, row.clone());
        Some(row)
    }

    /// Returns whether the row is the freshest from its replica.
    pub(super) fn on_summary(
        &mut self,
        io: &mut Io,
        ctx: &mut Context<'_>,
        row: SummaryRow,
    ) -> bool {
        if !io.verify_summary_row(ctx, &row) {
            io.count(ctx, Metric::BadSummarySig, 1);
            return false;
        }
        self.observe_row_sseq(io.me, &row);
        let current = self.latest_rows.get(&row.replica.0).map_or(0, |r| r.sseq);
        let fresh = row.sseq > current;
        if fresh {
            self.latest_rows.insert(row.replica.0, row);
        }
        fresh
    }

    /// Tracks the highest summary sequence seen per replica; observing our
    /// *own* pre-recovery rows bumps our counter past them so our fresh
    /// summaries are not discarded as stale replays.
    pub(super) fn observe_row_sseq(&mut self, me: ReplicaId, row: &SummaryRow) {
        let idx = row.replica.0 as usize;
        if idx < self.sseq_high.len() {
            self.sseq_high[idx] = self.sseq_high[idx].max(row.sseq);
        }
        if row.replica == me && row.sseq >= self.my_sseq {
            self.my_sseq = row.sseq;
        }
    }

    /// The ops of `(origin, po_seq)` if we hold its certified content.
    pub(super) fn certified_ops(&self, origin: u32, po_seq: u64) -> Option<&[ClientOp]> {
        let entry = self.po.get(&(origin, po_seq))?;
        match (&entry.certified, &entry.content) {
            (Some(cert), Some((digest, ops, _))) if cert == digest => Some(ops),
            _ => None,
        }
    }

    /// Asks everyone, once each, for requests execution found absent.
    pub(super) fn request_missing(
        &mut self,
        io: &mut Io,
        ctx: &mut Context<'_>,
        absent: Vec<(u32, u64)>,
    ) {
        for key in absent {
            if self.missing.insert(key) {
                io.broadcast(recon_req(io, key.0, key.1).encode());
                io.count(ctx, Metric::ReconRequested, 1);
            }
        }
    }

    /// Fetches a bounded window of missing PO-Requests (execution needs
    /// them in order anyway), then repairs certification holes.
    pub(super) fn recon_tick(&mut self, io: &mut Io, ctx: &mut Context<'_>) {
        let missing: Vec<(u32, u64)> = self.missing.iter().copied().take(32).collect();
        for (i, (origin, po_seq)) in missing.into_iter().enumerate() {
            let req = recon_req(io, origin, po_seq);
            io.ask_two_peers(i as u32, self.recon_rotor, &req);
        }
        self.retry_uncertified_po(io, ctx);
        self.recon_rotor = self.recon_rotor.wrapping_add(1);
    }

    /// Actively repairs certification holes in the pre-order layer.
    ///
    /// A PO-Request and its acks are each sent once, but the overlay gives
    /// up on a frame after bounded retransmission, so an attack window can
    /// permanently lose either direction. The per-origin certification aru
    /// is contiguous, so one lost entry wedges it forever: summary vectors
    /// stop changing, leaders stop proposing (or propose identical
    /// matrices), and ordering starves even after the network heals —
    /// execution-driven reconciliation never fires because the hole never
    /// reaches a committed matrix. Two complementary retries, both driven
    /// from the recon tick and both quiet in steady state:
    ///
    /// - the *origin* re-broadcasts its own oldest still-uncertified
    ///   requests (receivers re-ack duplicates of uncertified entries, so
    ///   this regenerates lost acks too);
    /// - everyone else recon-requests the first certification gap per
    ///   origin once the gap has survived two ticks (repairs a hole that
    ///   some peer has already certified when the origin's retry cannot
    ///   reach us directly).
    fn retry_uncertified_po(&mut self, io: &mut Io, ctx: &mut Context<'_>) {
        let me = io.me.0;
        let frames: Vec<Bytes> = ((self.po_aru[me as usize] + 1)..=self.my_po_seq)
            .filter_map(|s| self.po.get(&(me, s)))
            .filter(|entry| entry.certified.is_none())
            .filter_map(|entry| entry.content.as_ref().map(|(_, _, raw)| raw.clone()))
            .take(8)
            .collect();
        if !frames.is_empty() {
            io.count(ctx, Metric::PoRetries, frames.len() as u64);
            for frame in frames {
                io.broadcast(frame);
            }
        }
        for origin in (0..io.cfg.n).filter(|o| *o != me) {
            let aru = self.po_aru[origin as usize];
            let stuck =
                aru < self.po_high[origin as usize] && aru == self.po_gap_snapshot[origin as usize];
            if stuck {
                let req = recon_req(io, origin, aru + 1);
                io.ask_two_peers(origin, self.recon_rotor, &req);
                io.count(ctx, Metric::PoGapRecon, 1);
            }
            self.po_gap_snapshot[origin as usize] = aru;
        }
    }

    pub(super) fn on_recon_req(&mut self, io: &mut Io, from: ReplicaId, origin: u32, po_seq: u64) {
        let Some(entry) = self.po.get(&(origin, po_seq)) else {
            return;
        };
        let Some((digest, _, raw)) = &entry.content else {
            return;
        };
        if entry.certified.as_ref() != Some(digest) || from == io.me {
            return;
        }
        // Forward the origin's original signed PO-Request plus the stored
        // pre-order certificate (signed acks), so even a requester with no
        // prior state can re-certify and execute.
        let acks = entry.acks.get(digest).into_iter().flat_map(|m| m.values());
        for frame in std::iter::once(raw).chain(acks) {
            io.net_send(from, frame.clone());
        }
    }

    /// Ops waiting, or certified requests (ours or reported) unexecuted?
    pub(super) fn work_pending(&self, exec_cover: &[u64]) -> bool {
        if !self.pending_ops.is_empty() || !self.missing.is_empty() {
            return true;
        }
        let behind = |aru: &[u64]| aru.iter().zip(exec_cover).any(|(aru, cover)| aru > cover);
        behind(&self.po_aru) || self.latest_rows.values().any(|row| behind(&row.vector.0))
    }

    /// Restarts certification from a restored checkpoint's cover.
    pub(super) fn adopt_checkpoint(&mut self, exec_cover: &[u64]) {
        self.missing.clear();
        self.po_aru = exec_cover.to_vec();
        self.last_summary_vector = AruVector(self.po_aru.clone());
    }

    pub(super) fn compact(&mut self, cover: &[u64]) {
        self.po
            .retain(|(origin, s), _| *s > cover[*origin as usize]);
        // Reconciliation requests below the stable cover are satisfied by
        // state transfer, never by per-request recon.
        self.missing
            .retain(|(origin, s)| *s > cover[*origin as usize]);
    }

    pub(super) fn digest(&self, h: &mut StateHasher) {
        (self.my_po_seq, self.my_sseq, self.recon_rotor).hash(h);
        (&self.po_aru, &self.po_high, &self.sseq_high).hash(h);
        self.po_gap_snapshot.hash(h);
        (&self.last_summary_vector.0, &self.seen_ops, &self.missing).hash(h);
        for op in &self.pending_ops {
            (op.client, op.cseq, &op.payload).hash(h);
        }
        for (key, entry) in &self.po {
            let content = entry.content.as_ref().map(|(digest, _, _)| digest);
            (key, content, entry.acked, entry.certified).hash(h);
            for (digest, votes) in &entry.acks {
                h.all(votes.keys()).write(digest);
            }
        }
        for row in self.latest_rows.values() {
            (row.replica, row.sseq, &row.vector.0).hash(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClientId;
    use crate::model::RecordingBackend;
    use crate::replica::io::testkit::{backend, client_signer, io, run, sent, signer};

    /// A signed PO-Request from `origin` carrying one op per `cseq`, with
    /// its wire frame and the digest acks vouch for.
    fn request(origin: u32, po_seq: u64, cseqs: &[u8]) -> (PrimeMsg, Bytes, Digest) {
        let op = |c: &u8| {
            let payload = Bytes::from(vec![*c]);
            ClientOp::signed(ClientId(1), u64::from(*c), payload, &client_signer(1))
        };
        let mut msg = PrimeMsg::PoRequest {
            origin: ReplicaId(origin),
            po_seq,
            ops: cseqs.iter().map(op).collect(),
            sig: [0; 64],
        };
        msg.sign(&signer(origin));
        let digest = spire_crypto::digest(&msg.signing_bytes());
        (msg.clone(), msg.encode(), digest)
    }

    /// A signed PO-Ack from `from`: the classic form for one entry, the
    /// cumulative form for several.
    fn ack(from: u32, entries: &[(u32, u64, Digest)]) -> PrimeMsg {
        let replica = ReplicaId(from);
        let entries: Vec<_> = entries
            .iter()
            .map(|(o, s, d)| (ReplicaId(*o), *s, *d))
            .collect();
        let mut msg = match entries[..] {
            [(origin, po_seq, digest)] => PrimeMsg::PoAck {
                replica,
                origin,
                po_seq,
                digest,
                sig: [0; 64],
            },
            _ => PrimeMsg::PoAckMulti {
                replica,
                entries,
                sig: [0; 64],
            },
        };
        msg.sign(&signer(from));
        msg
    }

    /// Pre-ordering alone, as replica 0 of four (`2f + k + 1 = 3`).
    struct Bench {
        io: Io,
        pre: PreOrder,
        backend: RecordingBackend,
    }

    impl Bench {
        fn new() -> Bench {
            Bench {
                io: io(0, ByzBehavior::Honest),
                pre: PreOrder::new(4),
                backend: backend(),
            }
        }

        /// Delivers a request, then ends the activation (our ack goes out).
        fn request(&mut self, (msg, frame, _): &(PrimeMsg, Bytes, Digest)) -> usize {
            let Bench { io, pre, backend } = self;
            run(backend, 0, |ctx| {
                pre.accept_po_request(io, ctx, msg.clone(), None, frame);
                let staged = pre.pending_acks.len();
                pre.flush_acks(io, ctx);
                staged
            })
        }

        fn ack(&mut self, msg: &PrimeMsg) {
            let Bench { io, pre, backend } = self;
            run(backend, 0, |ctx| {
                pre.on_po_ack(io, ctx, msg, None, &msg.encode())
            });
        }

        fn certified(&self) -> u64 {
            self.backend
                .counters
                .get("prime.certified")
                .copied()
                .unwrap_or(0)
        }
    }

    #[test]
    fn an_equivocating_origins_two_contents_never_both_certify() {
        let (a, b) = (request(1, 1, &[1]), request(1, 1, &[2]));
        let mut bench = Bench::new();
        bench.request(&a);
        bench.ack(&ack(2, &[(1, 1, a.2)]));
        let held = |bench: &Bench| bench.pre.certified_ops(1, 1).map(<[ClientOp]>::to_vec);
        let PrimeMsg::PoRequest { ops, .. } = &a.0 else {
            unreachable!()
        };
        // Origin (its request) + us + replica 2 vouch for A.
        assert_eq!(held(&bench).as_ref(), Some(ops));
        // The other half of the cluster got B and says so; B's content
        // reaches us too. Nothing about (1, 1) moves.
        bench.request(&b);
        bench.ack(&ack(2, &[(1, 1, b.2)]));
        bench.ack(&ack(3, &[(1, 1, b.2)]));
        assert_eq!(held(&bench).as_ref(), Some(ops));
        assert_eq!(
            (bench.certified(), &bench.pre.po_aru[..]),
            (1, &[0, 1, 0, 0][..])
        );
    }

    #[test]
    fn a_duplicate_is_re_acked_until_its_request_certifies() {
        let a = request(1, 1, &[1]);
        let mut bench = Bench::new();
        assert_eq!(bench.request(&a), 1, "first sight: ack");
        assert_eq!(
            bench.request(&a),
            1,
            "uncertified duplicate: our ack may be lost"
        );
        let acks = sent(&mut bench.backend, &mut bench.io);
        assert_eq!(acks.len(), 6, "two acks to each of three peers");
        assert!(acks
            .iter()
            .all(|(_, m)| matches!(m, PrimeMsg::PoAck { .. })));
        bench.ack(&ack(2, &[(1, 1, a.2)]));
        assert_eq!(bench.certified(), 1);
        assert_eq!(
            bench.request(&a),
            0,
            "certified duplicate: nothing to repair"
        );
    }

    #[test]
    fn one_entry_and_n_entry_acks_certify_identically() {
        let (a, b) = (request(1, 1, &[1]), request(1, 2, &[2]));
        let (mut singles, mut multi) = (Bench::new(), Bench::new());
        for bench in [&mut singles, &mut multi] {
            bench.request(&a);
            bench.request(&b);
        }
        singles.ack(&ack(2, &[(1, 1, a.2)]));
        singles.ack(&ack(2, &[(1, 2, b.2)]));
        multi.ack(&ack(2, &[(1, 1, a.2), (1, 2, b.2)]));
        for bench in [&singles, &multi] {
            assert_eq!(
                (bench.certified(), &bench.pre.po_aru[..]),
                (2, &[0, 2, 0, 0][..])
            );
        }
        for po_seq in [1, 2] {
            let ops = singles.pre.certified_ops(1, po_seq).expect("certified");
            assert_eq!(multi.pre.certified_ops(1, po_seq), Some(ops));
        }
    }
}
