//! State transfer. Every state request, asked on one backed-off schedule,
//! is answered with a signed `StateMeta` bound to its nonce and, when the
//! requester lacks the responder's stable checkpoint, that checkpoint's
//! proven layout and its chunks, each of which proves itself against its
//! attested digest, so one responder suffices. A recovering replica
//! rejoins only on a quorum of replies to its nonce, once its commit point
//! reaches what `f + 1` of them report.

use super::checkpoints;
use super::io::{Io, Metric};
use super::StateHasher;
use crate::behavior::ByzBehavior;
use crate::config::{self, ReplicaId};
use crate::msg::{CheckpointMsg, PrimeMsg};
use bytes::Bytes;
use spire_crypto::Digest;
use spire_sim::{Context, Span, Time, TraceKind};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hash;

/// A stable checkpoint: `(seq, snapshot, proof)`.
type Stable = (u64, Bytes, Vec<CheckpointMsg>);

// ================= responder side =================

/// Answers a state request from `to` with a signed `StateMeta` that
/// echoes its `nonce` and carries our `commit_aru` and the highest PO and
/// summary sequences we have seen from `to`. With a `stable` checkpoint,
/// it also describes the chunk layout (per-chunk digests pin what each
/// chunk must hash to, and the proof attests the layout) and every chunk
/// follows; a lost or corrupt chunk costs one chunk retry, not the whole
/// snapshot.
pub(super) fn answer(
    io: &mut Io,
    ctx: &mut Context<'_>,
    to: ReplicaId,
    (nonce, commit_aru, highs): (u64, u64, (u64, u64)),
    stable: Option<&Stable>,
) {
    let layout = stable.map(|(seq, snapshot, proof)| {
        let digests = checkpoints::chunk_digests(snapshot);
        (*seq, snapshot.len() as u64, digests, proof.clone())
    });
    let (checkpoint_seq, total_len, chunk_digests, proof) = layout.unwrap_or_default();
    let mut meta = PrimeMsg::StateMeta {
        replica: io.me,
        nonce,
        commit_aru,
        checkpoint_seq,
        total_len,
        chunk_digests,
        proof,
        requester_po_high: highs.0,
        requester_sseq_high: highs.1,
        sig: [0; 64],
    };
    io.sign(ctx, &mut meta);
    io.send_to(to, &meta);
    if let Some(stable) = stable {
        send_chunks(io, to, stable, None);
    }
}

/// Sends each requested chunk of the stable snapshot as is (all chunks
/// when `wanted` is None). A responder with [`ByzBehavior::CorruptChunks`]
/// flips bits in every chunk it serves: the requester's per-chunk digest
/// check drops these.
pub(super) fn send_chunks(
    io: &mut Io,
    to: ReplicaId,
    (seq, snapshot, _): &Stable,
    wanted: Option<&[u32]>,
) {
    let corrupt = io.behavior == ByzBehavior::CorruptChunks;
    for (i, chunk) in snapshot.chunks(config::STATE_CHUNK_BYTES).enumerate() {
        if wanted.is_some_and(|w| !w.contains(&(i as u32))) {
            continue;
        }
        let data = match corrupt {
            true => chunk.iter().map(|b| b ^ 0xA5).collect(),
            false => Bytes::copy_from_slice(chunk),
        };
        let msg = PrimeMsg::StateChunk {
            checkpoint_seq: *seq,
            chunk: i as u32,
            data,
        };
        io.send_to(to, &msg);
    }
}

// ================= requester side =================

/// The pinned in-flight chunked state transfer: a proven manifest's layout
/// and proof, and the chunks held so far, each of which hashed to its
/// pinned digest.
pub(super) struct ChunkTransfer {
    pub(super) checkpoint_seq: u64,
    chunk_digests: Vec<Digest>,
    pub(super) proof: Vec<CheckpointMsg>,
    /// Chunks held, by index.
    chunks: BTreeMap<u32, Vec<u8>>,
}

#[derive(Default)]
pub(super) struct StateTransfer {
    /// In recovery: nothing but state transfer is processed until a quorum
    /// of replies to `nonce` vouches for the commit point reached.
    pub(super) recovering: bool,
    /// The current recovery's start time in microseconds: every request
    /// carries it and only replies that echo it count. Fresh per
    /// incarnation, and drawn from no RNG.
    nonce: u64,
    /// Replies to `nonce` by responder, the latest from each: its commit
    /// point and the resume hints (PO and summary sequence) it holds for us.
    replies: BTreeMap<u32, (u64, u64, u64)>,
    /// The commit point the request schedule is asking toward.
    target: u64,
    /// When the next ask is due; `None` while nothing is being asked for,
    /// so that the next trigger asks at once.
    next_ask: Option<Time>,
    /// Asks since this replica last caught up: sets the backoff and
    /// rotates the alternates asked for missing chunks.
    asks: u32,
    /// The pinned in-flight chunked transfer, if any.
    transfer: Option<ChunkTransfer>,
    /// Last time the pinned transfer made progress; a stalled one is
    /// evicted after `STATE_ACCUM_DEADLINE`.
    accum_touched: Time,
}

impl StateTransfer {
    /// A rebuilt replica executes from genesis until a checkpoint installs,
    /// and so does the record it publishes.
    pub(super) fn start_recovery(&mut self, io: &Io, ctx: &mut Context<'_>) {
        (self.recovering, self.nonce) = (true, ctx.now().0);
        io.inspect(|rec| {
            rec.recovering = true;
            rec.exec_chain.clear();
            (rec.chain_offset, rec.ops_executed) = (0, 0);
        });
        ctx.trace(TraceKind::RecoveryStart { replica: io.me.0 });
    }

    /// Leaves recovery, returning the highest resume hints the replies hold,
    /// once no transfer is pinned, `2f + k + 1` distinct peers have answered
    /// the current nonce, and `commit_aru` has reached the `(f + 1)`-th
    /// highest commit point they report: at least one correct replica
    /// committed through it, and no single liar can raise it.
    pub(super) fn rejoin(
        &mut self,
        io: &Io,
        ctx: &mut Context<'_>,
        commit_aru: u64,
    ) -> Option<(u64, u64)> {
        let quorum = io.cfg.ordering_quorum();
        if !self.recovering || self.transfer.is_some() || self.replies.len() < quorum {
            return None;
        }
        let mut reported: Vec<u64> = self.replies.values().map(|r| r.0).collect();
        reported.sort_unstable_by(|a, b| b.cmp(a));
        if commit_aru < reported[io.cfg.f as usize] {
            return None;
        }
        self.recovering = false;
        io.count(ctx, Metric::RecoveryCompleted, 1);
        let took = ctx.now().since(Time(self.nonce)).0;
        io.observe(ctx, Metric::RecoveryDurationUs, took);
        ctx.trace(TraceKind::RecoveryDone { replica: io.me.0 });
        io.inspect(|rec| rec.recovering = false);
        let hints = |(po, sseq), &(_, p, s): &(u64, u64, u64)| (p.max(po), s.max(sseq));
        Some(
            std::mem::take(&mut self.replies)
                .values()
                .fold((0, 0), hints),
        )
    }

    /// The one request schedule, run on every reconciliation tick and on
    /// every trigger (which raises `target`); it evicts a stalled transfer.
    /// While recovering, short of `target`, or executing a checkpoint
    /// interval behind, it asks when an ask is due: a pinned transfer's
    /// missing chunks from two rotating alternates, else state from all.
    /// Each ask doubles the delay to the next, 200 ms up to 2 s; once
    /// caught up, it stops and starts over.
    pub(super) fn tick(
        &mut self,
        io: &mut Io,
        ctx: &mut Context<'_>,
        target: u64,
        (commit_aru, last_executed): (u64, u64),
    ) {
        let now = ctx.now();
        self.target = self.target.max(target);
        let stalled = now.since(self.accum_touched) >= config::STATE_ACCUM_DEADLINE;
        if stalled && self.transfer.take().is_some() {
            io.count(ctx, Metric::StateAccumsEvicted, 1);
        }
        let lagging = commit_aru > last_executed + io.cfg.checkpoint_interval;
        if !(self.recovering || commit_aru < self.target || lagging) {
            (self.asks, self.next_ask) = (0, None);
            return;
        }
        if self.next_ask.is_some_and(|due| now < due) {
            return;
        }
        let backoff = config::ASK_BACKOFF.0 << self.asks.min(16);
        self.next_ask = Some(now + Span(backoff.min(config::ASK_BACKOFF_MAX.0)));
        self.asks += 1;
        let Some(t) = &self.transfer else {
            let mut req = PrimeMsg::StateReq {
                replica: io.me,
                have_seq: last_executed,
                commit_aru,
                nonce: self.nonce,
                sig: [0; 64],
            };
            io.sign(ctx, &mut req);
            return io.broadcast(req.encode());
        };
        let missing: Vec<u32> = (0..t.chunk_digests.len() as u32)
            .filter(|c| !t.chunks.contains_key(c))
            .take(256)
            .collect();
        io.count(ctx, Metric::RecoveryChunkRetries, 1);
        let req = PrimeMsg::StateChunkReq {
            replica: io.me,
            checkpoint_seq: t.checkpoint_seq,
            chunks: missing,
        };
        let n = io.cfg.n;
        for offset in 0..2u32.min(n - 1) {
            let slot = (self.asks + offset) % (n - 1);
            io.send_to(ReplicaId((io.me.0 + 1 + slot) % n), &req);
        }
    }

    /// A state-transfer answer from one responder, checked against its
    /// signature only when it is of use: while recovering, one that echoes
    /// the current nonce counts toward the rejoin quorum; one that
    /// describes a checkpoint above `last_executed` may pin it. Its layout
    /// proves itself: the embedded proof must carry `f + 1` valid
    /// attestations, at this sequence, of the digest that `total_len` and
    /// `chunk_digests` hash to. The first manifest that passes pins.
    pub(super) fn on_state_meta(
        &mut self,
        io: &mut Io,
        ctx: &mut Context<'_>,
        (msg, env_auth): (PrimeMsg, Option<ReplicaId>),
        last_executed: u64,
    ) {
        let PrimeMsg::StateMeta {
            replica: from,
            nonce,
            commit_aru,
            checkpoint_seq,
            total_len,
            ref chunk_digests,
            ref proof,
            requester_po_high,
            requester_sseq_high,
            ..
        } = msg
        else {
            return;
        };
        let counts = self.recovering && nonce == self.nonce;
        let pinned = self.transfer.as_ref().map_or(0, |t| t.checkpoint_seq);
        let pins = checkpoint_seq > last_executed.max(pinned);
        if from == io.me || !(counts || pins) {
            return;
        } else if !io.verify_replica_msg(ctx, &msg, from, env_auth) {
            return io.count(ctx, Metric::BadStateMetaSig, 1);
        } else if counts {
            let reply = (commit_aru, requester_po_high, requester_sseq_high);
            self.replies.insert(from.0, reply);
        }
        if !pins {
            return;
        }
        // Only attestations of this very layout are verified, so a made-up
        // layout costs no signature check.
        let layout = checkpoints::layout_digest(total_len, chunk_digests);
        let mut provers = BTreeSet::new();
        for attestation in proof {
            if attestation.seq == checkpoint_seq
                && attestation.digest == layout
                && attestation.replica.0 < io.cfg.n
                && !provers.contains(&attestation.replica.0)
                && io.verify_checkpoint(ctx, attestation)
            {
                provers.insert(attestation.replica.0);
            }
        }
        if provers.len() < (io.cfg.f + 1) as usize {
            io.count(ctx, Metric::BadStateProof, 1);
            return;
        }
        self.transfer = Some(ChunkTransfer {
            checkpoint_seq,
            chunk_digests: chunk_digests.clone(),
            proof: proof.clone(),
            chunks: BTreeMap::new(),
        });
        self.accum_touched = ctx.now();
    }

    /// One chunk of the pinned transfer, from whoever relays it: its content
    /// is its proof. A chunk not yet held is kept when its index is in the
    /// layout, it is at most `STATE_CHUNK_BYTES` long and it hashes to the
    /// pinned digest, else dropped and counted. A chunk of another
    /// checkpoint, or one already held (every responder sends them all), is
    /// dropped uncounted. A responder's chunks travel in the same link
    /// container as the manifest before them, so none arrives ahead of a
    /// pin it needs.
    pub(super) fn on_state_chunk(&mut self, io: &Io, ctx: &mut Context<'_>, msg: PrimeMsg) {
        let PrimeMsg::StateChunk {
            checkpoint_seq,
            chunk,
            data,
        } = msg
        else {
            return;
        };
        let Some(t) = self
            .transfer
            .as_mut()
            .filter(|t| t.checkpoint_seq == checkpoint_seq && !t.chunks.contains_key(&chunk))
        else {
            return;
        };
        let want = t.chunk_digests.get(chunk as usize);
        if data.len() > config::STATE_CHUNK_BYTES || want != Some(&spire_crypto::digest(&data)) {
            return io.count(ctx, Metric::BadStateChunk, 1);
        }
        t.chunks.insert(chunk, data.to_vec());
        self.accum_touched = ctx.now();
        io.count(ctx, Metric::RecoveryChunks, 1);
    }

    /// Once every chunk is held, reassembles the snapshot; returns it
    /// for installation unless execution has meanwhile passed its
    /// checkpoint. Each chunk matched its digest and the digests are the
    /// attested layout, so the whole is the attested snapshot.
    pub(super) fn take_complete(&mut self, last_executed: u64) -> Option<(ChunkTransfer, Vec<u8>)> {
        let done = |t: &ChunkTransfer| t.chunks.len() == t.chunk_digests.len();
        let mut t = self.transfer.take_if(|t| done(t))?;
        let snapshot = std::mem::take(&mut t.chunks)
            .into_values()
            .flatten()
            .collect();
        (t.checkpoint_seq > last_executed).then_some((t, snapshot))
    }

    pub(super) fn digest(&self, h: &mut StateHasher) {
        (self.accum_touched.0, self.nonce).hash(h);
        (self.target, self.next_ask.map(|at| at.0), self.asks).hash(h);
        h.all(self.replies.iter());
        let pinned = self.transfer.as_ref();
        (
            self.recovering,
            pinned.map(|t| (t.checkpoint_seq, t.chunks.len())),
        )
            .hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RecordingBackend;
    use crate::replica::io::testkit::{backend, io, run, sent, signer};

    /// The nonce of the recovery [`Requester::new`] starts.
    const NONCE: u64 = 1_000_000;

    /// A stable checkpoint over a three-chunk snapshot, proven by replicas
    /// 1 and 2.
    fn stable(seq: u64) -> Stable {
        let snapshot: Vec<u8> = (0..2500u32).map(|i| (i % 251) as u8).collect();
        let digest = checkpoints::snapshot_digest(&snapshot);
        let attest = |r| CheckpointMsg::signed(ReplicaId(r), seq, digest, &signer(r));
        (seq, Bytes::from(snapshot), vec![attest(1), attest(2)])
    }

    /// What responder `r` sends replica 0 answering `nonce`, at commit point
    /// `commit_aru`, with `stable` when given: its signed `StateMeta`, then
    /// every chunk.
    fn answered(
        r: u32,
        behavior: ByzBehavior,
        (nonce, commit_aru): (u64, u64),
        stable: Option<&Stable>,
    ) -> Vec<PrimeMsg> {
        let (mut io, mut backend) = (io(r, behavior), backend());
        let reply = (nonce, commit_aru, (7, 9));
        run(&mut backend, r, |ctx| {
            answer(&mut io, ctx, ReplicaId(0), reply, stable)
        });
        let frames = sent(&mut backend, &mut io).into_iter();
        frames
            .map(|(to, msg)| (to == 0).then_some(msg).expect("to replica 0"))
            .collect()
    }

    /// Responder `r`'s answer to the current recovery, at commit point
    /// `commit_aru`, without a checkpoint.
    fn reply(r: u32, commit_aru: u64) -> PrimeMsg {
        answered(r, ByzBehavior::Honest, (NONCE, commit_aru), None).remove(0)
    }

    fn manifest(r: u32, stable: &Stable) -> PrimeMsg {
        answered(r, ByzBehavior::Honest, (NONCE, stable.0), Some(stable)).remove(0)
    }

    fn chunks(r: u32, behavior: ByzBehavior, stable: &Stable) -> Vec<PrimeMsg> {
        answered(r, behavior, (NONCE, stable.0), Some(stable)).split_off(1)
    }

    /// One ask of the schedule: when (ms since the recovery started), whom
    /// and what.
    #[derive(Debug)]
    struct Ask {
        at: u64,
        to: Vec<u32>,
        msg: PrimeMsg,
    }

    /// The requester side alone: replica 0 of four (`2f + k + 1 = 3`
    /// replies rejoin), recovering since 1 s.
    struct Requester {
        io: Io,
        xfer: StateTransfer,
        backend: RecordingBackend,
    }

    impl Requester {
        fn new() -> Requester {
            let mut r = Requester {
                io: io(0, ByzBehavior::Honest),
                xfer: StateTransfer::default(),
                backend: backend(),
            };
            r.backend.now = Time(NONCE);
            let Requester { io, xfer, backend } = &mut r;
            run(backend, 0, |ctx| xfer.start_recovery(io, ctx));
            r
        }

        fn deliver(&mut self, msgs: impl IntoIterator<Item = PrimeMsg>) {
            let Requester { io, xfer, backend } = self;
            for msg in msgs {
                run(backend, 0, |ctx| match msg {
                    PrimeMsg::StateMeta { .. } => xfer.on_state_meta(io, ctx, (msg, None), 0),
                    _ => xfer.on_state_chunk(io, ctx, msg),
                });
            }
        }

        /// Runs the schedule every 50 ms from now through `until` (ms since
        /// the recovery started), at commit point `commit_aru` with nothing
        /// executed; returns each ask: its time in ms since the start, what
        /// it asked for and whom.
        fn ticks(&mut self, until: u64, target: u64, commit_aru: u64) -> Vec<Ask> {
            let mut asks: Vec<Ask> = Vec::new();
            while self.backend.now.0 <= NONCE + until * 1000 {
                let Requester { io, xfer, backend } = self;
                run(backend, 0, |ctx| {
                    xfer.tick(io, ctx, target, (commit_aru, 0))
                });
                let at = (self.backend.now.0 - NONCE) / 1000;
                for (to, msg) in sent(&mut self.backend, &mut self.io) {
                    match asks.last_mut() {
                        Some(ask) if ask.at == at && ask.msg == msg => ask.to.push(to),
                        _ => asks.push(Ask {
                            at,
                            to: vec![to],
                            msg,
                        }),
                    }
                }
                self.backend.now = self.backend.now + Span::millis(50);
            }
            asks
        }

        fn complete(&mut self) -> Option<Vec<u8>> {
            let done = self.xfer.take_complete(0);
            done.map(|(_, snapshot)| snapshot)
        }

        fn rejoin_at(&mut self, commit_aru: u64) -> Option<(u64, u64)> {
            let Requester { io, xfer, backend } = self;
            run(backend, 0, |ctx| xfer.rejoin(io, ctx, commit_aru))
        }

        fn count(&self, name: &str) -> u64 {
            let key = format!("prime.{name}");
            self.backend.counters.get(&key).copied().unwrap_or(0)
        }
    }

    /// A manifest whose layout its proof does not attest is refused and
    /// counted, whoever sends it; one correct manifest then pins at once.
    #[test]
    fn a_manifest_pins_when_its_proof_attests_its_layout() {
        let stable = stable(50);
        let mut r = Requester::new();
        let mut forged = manifest(1, &stable);
        if let PrimeMsg::StateMeta { chunk_digests, .. } = &mut forged {
            chunk_digests[0][0] ^= 1;
        }
        let mut truncated = manifest(2, &stable);
        if let PrimeMsg::StateMeta { total_len, .. } = &mut truncated {
            *total_len += 1024;
        }
        r.deliver([forged, truncated]);
        assert!(r.xfer.transfer.is_none());
        // Both were altered after signing.
        assert_eq!(r.count("bad_state_meta_sig"), 2);

        let (mut io, mut backend) = (io(2, ByzBehavior::Honest), backend());
        let mut resigned = manifest(2, &stable);
        if let PrimeMsg::StateMeta { total_len, .. } = &mut resigned {
            *total_len += 1024;
        }
        run(&mut backend, 2, |ctx| io.sign(ctx, &mut resigned));
        r.deliver([resigned]);
        assert!(r.xfer.transfer.is_none());
        assert_eq!(r.count("bad_state_proof"), 1, "a signed lie is still a lie");

        r.deliver([manifest(3, &stable)]);
        let pinned = r.xfer.transfer.as_ref().expect("one proven layout pins");
        assert_eq!(pinned.checkpoint_seq, 50);
        r.deliver(chunks(3, ByzBehavior::Honest, &stable));
        assert_eq!(r.complete().as_deref(), Some(&stable.1[..]));
    }

    /// One manifest pins and only that responder's chunks arrive: each
    /// proves itself against the attested layout, so the transfer completes
    /// with nothing asked again.
    #[test]
    fn a_transfer_completes_from_one_responder() {
        let stable = stable(50);
        let mut r = Requester::new();
        r.deliver([manifest(2, &stable)]);
        r.deliver(chunks(2, ByzBehavior::Honest, &stable));
        let counts = ["recovery_chunks", "bad_state_chunk"].map(|c| r.count(c));
        assert_eq!(counts, [3, 0]);
        assert_eq!(r.complete().as_deref(), Some(&stable.1[..]));
        assert_eq!(r.count("recovery_chunk_retries"), 0);
    }

    /// A chunk names no sender, so a relay is taken at its content alone:
    /// one whose bytes miss the pinned digest, whose index is outside the
    /// layout, or that is longer than a chunk is refused and counted; the
    /// right bytes are kept, and a chunk already held is dropped uncounted.
    #[test]
    fn a_chunk_that_misses_its_pinned_digest_is_refused_whoever_relays_it() {
        let stable = stable(50);
        let mut r = Requester::new();
        r.deliver([manifest(1, &stable)]);
        let relayed = |chunk: u32, data: &[u8]| PrimeMsg::StateChunk {
            checkpoint_seq: 50,
            chunk,
            data: Bytes::copy_from_slice(data),
        };
        let first = &stable.1[..config::STATE_CHUNK_BYTES];
        let mut flipped = first.to_vec();
        flipped[7] ^= 1;
        let long = [first, &[0u8][..]].concat();
        r.deliver([relayed(0, &flipped), relayed(3, first), relayed(0, &long)]);
        let counts = ["recovery_chunks", "bad_state_chunk"].map(|c| r.count(c));
        assert_eq!(counts, [0, 3]);
        r.deliver([relayed(0, first), relayed(0, &flipped)]);
        let counts = ["recovery_chunks", "bad_state_chunk"].map(|c| r.count(c));
        assert_eq!(counts, [1, 3]);
    }

    /// The schedule asks for state at once; once a manifest pins, each due
    /// ask is for the missing chunks instead, from two alternates, and the
    /// delay between asks doubles from 200 ms up to 2 s.
    #[test]
    fn a_corrupt_chunk_is_caught_and_re_requested_with_doubling_backoff() {
        let stable = stable(50);
        let mut r = Requester::new();
        let [first] = &r.ticks(0, 0, 0)[..] else {
            panic!("one ask");
        };
        assert!(matches!(first.msg, PrimeMsg::StateReq { nonce: NONCE, .. }));
        assert_eq!((first.at, &first.to[..]), (0, &[1, 2, 3][..]));
        r.deliver([manifest(1, &stable), manifest(2, &stable)]);
        r.deliver(chunks(2, ByzBehavior::CorruptChunks, &stable));
        // Every chunk arrived, and none hashes to its pinned digest.
        let counts = ["recovery_chunks", "bad_state_chunk"].map(|c| r.count(c));
        assert_eq!(counts, [0, 3]);
        let mut asks = Vec::new();
        for until in [1500, 3000, 4500, 5000] {
            asks.extend(r.ticks(until, 0, 0));
            // Chunks still arriving keep the transfer from stalling.
            r.xfer.accum_touched = r.backend.now;
        }
        let mut times = Vec::new();
        for Ask { at, to, msg } in asks {
            let PrimeMsg::StateChunkReq { chunks, .. } = msg else {
                panic!("a chunk request, got {msg:?}");
            };
            assert_eq!(chunks, [0, 1, 2]);
            // Two alternates per round, rotating.
            assert!(to.len() == 2 && to[0] != to[1] && !to.contains(&0));
            times.push((at, to));
        }
        let at: Vec<u64> = times.iter().map(|(at, _)| *at).collect();
        assert_eq!(at, [200, 600, 1400, 3000, 5000]);
        assert_ne!(times[0].1, times[1].1);
        assert_eq!(r.count("recovery_chunk_retries"), 5);
        // One honest responder's chunks complete it.
        r.deliver(chunks(3, ByzBehavior::Honest, &stable));
        assert_eq!(r.complete().as_deref(), Some(&stable.1[..]));
    }

    #[test]
    fn a_stalled_transfer_is_evicted_at_the_accumulator_deadline() {
        let stable = stable(50);
        let mut r = Requester::new();
        r.deliver([manifest(1, &stable), manifest(2, &stable)]);
        assert!(r.xfer.transfer.is_some());
        r.backend.now = r.backend.now + config::STATE_ACCUM_DEADLINE;
        let asks = r.ticks(2000, 0, 0);
        assert!(r.xfer.transfer.is_none());
        assert_eq!(r.count("state_accums_evicted"), 1);
        assert!(
            matches!(
                &asks[..],
                [Ask {
                    msg: PrimeMsg::StateReq { .. },
                    ..
                }]
            ),
            "an evicted transfer asks for state afresh: {asks:?}"
        );
    }

    /// Silence never ends a recovery: with no replies at all, the replica
    /// is still recovering 5 s in, asking on the backoff.
    #[test]
    fn silence_leaves_the_replica_recovering() {
        let mut r = Requester::new();
        let asks = r.ticks(5000, 0, 0);
        let times: Vec<u64> = asks.iter().map(|ask| ask.at).collect();
        assert_eq!(times, [0, 200, 600, 1400, 3000, 5000]);
        assert!(r.xfer.recovering);
        assert_eq!(r.rejoin_at(u64::MAX), None);
    }

    /// Only replies that echo the current nonce count toward the quorum.
    #[test]
    fn replies_to_a_stale_nonce_do_not_count() {
        let mut r = Requester::new();
        let stale = |from| answered(from, ByzBehavior::Honest, (NONCE - 1, 10), None).remove(0);
        r.deliver([stale(1), stale(2), stale(3)]);
        assert_eq!(r.rejoin_at(10), None);
        r.deliver([reply(1, 10), reply(2, 10)]);
        assert_eq!(r.rejoin_at(10), None, "two of three");
        r.deliver([reply(3, 10)]);
        assert_eq!(r.rejoin_at(10), Some((7, 9)));
    }

    /// The rejoin point is the `(f + 1)`-th highest commit point reported:
    /// one liar reporting a huge one does not raise it, and a replica short
    /// of it waits, however many replies it holds.
    #[test]
    fn one_inflated_commit_point_does_not_raise_the_rejoin_point() {
        let mut r = Requester::new();
        r.deliver([reply(1, 1_000_000), reply(2, 40), reply(3, 38)]);
        assert_eq!(r.rejoin_at(39), None);
        assert_eq!(r.rejoin_at(40), Some((7, 9)));
    }

    /// A young group: no responder has a checkpoint, so the quorum's
    /// replies carry none and the replica catches up by certificates alone
    /// (each advancing its commit point) until it reaches the rejoin point.
    #[test]
    fn a_quorum_without_a_checkpoint_rejoins_at_its_commit_point() {
        let mut r = Requester::new();
        r.deliver([reply(1, 12), reply(2, 12), reply(3, 11)]);
        assert!(r.xfer.transfer.is_none());
        assert_eq!(r.rejoin_at(0), None);
        assert_eq!(r.rejoin_at(11), None);
        assert_eq!(r.rejoin_at(12), Some((7, 9)));
        assert!(!r.xfer.recovering);
        assert_eq!(r.count("recovery_completed"), 1);
    }

    /// The resume hints are the highest any reply of the quorum carried.
    #[test]
    fn the_resume_hints_are_the_highest_the_quorum_reports() {
        let mut r = Requester::new();
        let hints = |from: u32, po: u64, sseq: u64| {
            let mut meta = reply(from, 5);
            if let PrimeMsg::StateMeta {
                requester_po_high,
                requester_sseq_high,
                ..
            } = &mut meta
            {
                (*requester_po_high, *requester_sseq_high) = (po, sseq);
            }
            let (mut io, mut backend) = (io(from, ByzBehavior::Honest), backend());
            run(&mut backend, from, |ctx| io.sign(ctx, &mut meta));
            meta
        };
        r.deliver([hints(1, 7, 9), hints(2, 12, 3), hints(3, 5, 11)]);
        assert_eq!(r.rejoin_at(5), Some((12, 11)));
    }

    /// A replica that is behind but not recovering, whose peers answer
    /// without the state it lacks, asks on the backoff: six times in 5 s,
    /// where a 50 ms cadence would ask a hundred times. Once caught up it
    /// stops, and the next trigger asks at once.
    #[test]
    fn a_lagging_replica_asks_on_the_backoff() {
        let mut r = Requester::new();
        r.xfer.recovering = false;
        let asks = r.ticks(5000, 40, 10);
        let times: Vec<u64> = asks.iter().map(|ask| ask.at).collect();
        assert_eq!(times, [0, 200, 600, 1400, 3000, 5000]);
        assert!(r.ticks(5100, 40, 40).is_empty(), "caught up");
        let again = r.ticks(5150, 80, 40);
        assert_eq!(again.iter().map(|ask| ask.at).collect::<Vec<_>>(), [5150]);
    }
}
