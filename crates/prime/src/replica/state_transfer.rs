//! Chunked state transfer. A responder serves its stable checkpoint as a
//! manifest plus per-chunk erasure shares; the requester (recovering or
//! behind) pins the first manifest whose layout its embedded checkpoint
//! proof attests, reconstructs chunk by chunk and retries the rest
//! against alternate responders. One responder suffices: what it serves
//! proves itself, and what does not prove itself is refused.

use super::checkpoints;
use super::io::{Io, Metric};
use super::{StateHasher, TIMER_CHUNK, TIMER_STATE_REQ};
use crate::behavior::ByzBehavior;
use crate::config::{self, ReplicaId};
use crate::msg::{CheckpointMsg, PrimeMsg};
use bytes::Bytes;
use spire_crypto::erasure::{self, Share};
use spire_crypto::Digest;
use spire_sim::{Context, Span, Time, TraceKind};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

/// Shares stashed before a manifest pins (links reorder the manifest and
/// the share stream); hard bound on pre-pin memory.
const EARLY_SHARE_CAP: usize = 4096;

/// A stable checkpoint: `(seq, snapshot, proof)`.
type Stable = (u64, Bytes, Vec<CheckpointMsg>);

// ================= responder side =================

pub(super) fn request_state(io: &mut Io, ctx: &mut Context<'_>, have_seq: u64) {
    let mut req = PrimeMsg::StateReq {
        replica: io.me,
        have_seq,
        sig: [0; 64],
    };
    io.sign(ctx, &mut req);
    io.broadcast(req.encode());
}

/// Chunked transfer of the stable checkpoint to `to`: describe the layout
/// (per-chunk digests pin what a correct reconstruction must hash to, and
/// the proof attests the layout), then stream this replica's erasure
/// share of every chunk. Each chunk is coded with k = f + 1, so any f+1
/// correct responders let the requester
/// reconstruct it at 1/(f+1) the bandwidth each; a lost or corrupt share
/// costs one chunk retry, not the whole snapshot. `highs`: the highest PO
/// and summary sequences seen from the requester.
pub(super) fn serve_checkpoint(
    io: &mut Io,
    to: ReplicaId,
    stable @ (seq, snapshot, proof): &Stable,
    highs: (u64, u64),
) {
    let meta = PrimeMsg::StateMeta {
        replica: io.me,
        checkpoint_seq: *seq,
        total_len: snapshot.len() as u64,
        chunk_digests: checkpoints::chunk_digests(snapshot),
        proof: proof.clone(),
        requester_po_high: highs.0,
        requester_sseq_high: highs.1,
    };
    io.send_to(to, &meta);
    send_chunk_shares(io, to, stable, None);
}

/// Sends this replica's erasure share of each requested chunk of the
/// stable snapshot (all chunks when `wanted` is None). A responder
/// with [`ByzBehavior::CorruptShares`] flips bits in every share it
/// serves — the requester's per-chunk digest check weeds these out.
pub(super) fn send_chunk_shares(
    io: &mut Io,
    to: ReplicaId,
    (seq, snapshot, _): &Stable,
    wanted: Option<&[u32]>,
) {
    let k = (io.cfg.f + 1) as usize;
    let n = (io.cfg.n as usize).max(k);
    let corrupt = io.behavior == ByzBehavior::CorruptShares;
    for (i, chunk) in snapshot.chunks(config::STATE_CHUNK_BYTES).enumerate() {
        if wanted.is_some_and(|w| !w.contains(&(i as u32))) {
            continue;
        }
        let Ok(shares) = erasure::encode(chunk, k, n) else {
            continue;
        };
        let share = &shares[io.me.0 as usize];
        let mut data = share.data.clone();
        if corrupt {
            for b in &mut data {
                *b ^= 0xA5;
            }
        }
        let msg = PrimeMsg::StateChunk {
            replica: io.me,
            checkpoint_seq: *seq,
            chunk: i as u32,
            share_index: share.index,
            share: Bytes::from(data),
        };
        io.send_to(to, &msg);
    }
}

// ================= requester side =================

/// The pinned in-flight chunked state transfer: a proven manifest's layout
/// and proof, and per-chunk shares that accumulate until any `f + 1` of
/// them reconstruct to the pinned chunk digest; missing chunks are
/// re-requested from rotating alternate responders with exponential
/// backoff.
pub(super) struct ChunkTransfer {
    pub(super) checkpoint_seq: u64,
    chunk_digests: Vec<Digest>,
    pub(super) proof: Vec<CheckpointMsg>,
    /// The highest resume hints any manifest for this checkpoint carried
    /// before install; each is its sender's word.
    pub(super) po_high: u64,
    pub(super) sseq_high: u64,
    /// Reconstructed chunks by index.
    chunks: BTreeMap<u32, Vec<u8>>,
    /// Collected shares for not-yet-reconstructed chunks.
    shares: BTreeMap<u32, BTreeMap<u8, Vec<u8>>>,
    /// Current retry delay (doubles per round, capped).
    backoff: Span,
    /// Retry rounds issued; rotates the alternate responders asked.
    retry_rotor: u32,
}

#[derive(Default)]
pub(super) struct StateTransfer {
    /// In state-transfer recovery: nothing else is processed until a
    /// checkpoint is installed.
    pub(super) recovering: bool,
    recovery_started: Time,
    /// Chunk shares that arrived before a manifest pinned, keyed by
    /// (checkpoint_seq, chunk, share index); bounded by [`EARLY_SHARE_CAP`].
    early_shares: BTreeMap<(u64, u32, u8), Vec<u8>>,
    /// The pinned in-flight chunked transfer, if any.
    transfer: Option<ChunkTransfer>,
    /// Last time any state-transfer accumulator made progress; stale
    /// accumulators are evicted after `STATE_ACCUM_DEADLINE`.
    accum_touched: Time,
    /// Whether a `TIMER_CHUNK` retry tick is already pending.
    chunk_timer_armed: bool,
}

impl StateTransfer {
    pub(super) fn start_recovery(&mut self, io: &Io, ctx: &mut Context<'_>) {
        self.recovery_started = ctx.now();
        self.accum_touched = ctx.now();
        io.inspect(|rec| rec.recovering = true);
        ctx.trace(TraceKind::RecoveryStart { replica: io.me.0 });
        ctx.set_timer(Span::millis(10), TIMER_STATE_REQ);
    }

    /// Leaves recovery mode, publishing the flag to the inspection
    /// registry so the invariant checker and health engine can tell an
    /// announced recovery from silence or attack.
    pub(super) fn finish_recovery(&mut self, io: &Io, ctx: &mut Context<'_>, transferred: bool) {
        self.recovering = false;
        io.count(ctx, Metric::RecoveryCompleted, 1);
        if transferred {
            let took = ctx.now().since(self.recovery_started).0;
            io.observe(ctx, Metric::RecoveryDurationUs, took);
        }
        ctx.trace(TraceKind::RecoveryDone { replica: io.me.0 });
        io.inspect(|rec| rec.recovering = false);
    }

    /// Returns whether to (re-)solicit manifests with a fresh StateReq.
    pub(super) fn on_state_req_timer(&mut self, io: &Io, ctx: &mut Context<'_>) -> bool {
        // If nobody has a checkpoint yet (young system), rejoin
        // from genesis; reconciliation certificates let us
        // replay everything that was ordered meanwhile. An active
        // chunked transfer defers the fallback: shares are
        // arriving, completion is a matter of retries.
        if ctx.now().since(self.recovery_started) >= config::RECOVERY_GENESIS_TIMEOUT
            && self.transfer.is_none()
        {
            self.early_shares.clear();
            io.count(ctx, Metric::RecoveryFromGenesis, 1);
            self.finish_recovery(io, ctx, false);
            return false;
        }
        // Early shares that stopped making progress are dropped; the
        // fresh StateReq re-solicits manifests.
        if ctx.now().since(self.accum_touched) >= config::STATE_ACCUM_DEADLINE
            && !self.early_shares.is_empty()
            && self.transfer.is_none()
        {
            self.early_shares.clear();
            io.count(ctx, Metric::StateAccumsEvicted, 1);
        }
        true
    }

    /// A state-transfer manifest from one responder. Unsigned, but its
    /// layout proves itself: the embedded proof must carry `f + 1` valid
    /// attestations, at this sequence, of the digest that `total_len` and
    /// `chunk_digests` hash to. The first manifest that passes pins; later
    /// ones for the pinned checkpoint only raise the resume hints.
    pub(super) fn on_state_meta(
        &mut self,
        io: &Io,
        ctx: &mut Context<'_>,
        msg: PrimeMsg,
        last_executed: u64,
    ) {
        let PrimeMsg::StateMeta {
            replica: from,
            checkpoint_seq,
            total_len,
            chunk_digests,
            proof,
            requester_po_high,
            requester_sseq_high,
            ..
        } = msg
        else {
            return;
        };
        if from == io.me || (!self.recovering && checkpoint_seq <= last_executed) {
            return;
        }
        if let Some(pinned) = &mut self.transfer {
            if pinned.checkpoint_seq == checkpoint_seq {
                pinned.po_high = pinned.po_high.max(requester_po_high);
                pinned.sseq_high = pinned.sseq_high.max(requester_sseq_high);
            }
            if pinned.checkpoint_seq >= checkpoint_seq {
                return; // already pinned this (or a newer) transfer
            }
        }
        // Only attestations of this very layout are verified, so a made-up
        // layout costs no signature check.
        let layout = checkpoints::layout_digest(total_len, &chunk_digests);
        let mut provers = BTreeSet::new();
        for attestation in &proof {
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
        let mut t = ChunkTransfer {
            checkpoint_seq,
            chunk_digests,
            proof,
            po_high: requester_po_high,
            sseq_high: requester_sseq_high,
            chunks: BTreeMap::new(),
            shares: BTreeMap::new(),
            backoff: config::CHUNK_RETRY_TIMEOUT,
            retry_rotor: 0,
        };
        // Pin: drain any early-stashed shares in and start the retry timer.
        for ((seq, chunk, idx), data) in std::mem::take(&mut self.early_shares) {
            if seq == t.checkpoint_seq && (chunk as usize) < t.chunk_digests.len() {
                t.shares.entry(chunk).or_default().insert(idx, data);
            }
        }
        let pending: Vec<u32> = t.shares.keys().copied().collect();
        self.transfer = Some(t);
        self.accum_touched = ctx.now();
        for chunk in pending {
            self.try_reconstruct_chunk(io, ctx, chunk);
        }
        if !self.chunk_timer_armed {
            self.chunk_timer_armed = true;
            ctx.set_timer(config::CHUNK_RETRY_TIMEOUT, TIMER_CHUNK);
        }
    }

    /// One erasure share of one chunk from one responder.
    pub(super) fn on_state_chunk(
        &mut self,
        io: &Io,
        ctx: &mut Context<'_>,
        msg: PrimeMsg,
        last_executed: u64,
    ) {
        let PrimeMsg::StateChunk {
            checkpoint_seq,
            chunk,
            share_index,
            share,
            ..
        } = msg
        else {
            return;
        };
        // A share is never larger than the chunk it codes (plus the
        // erasure length frame).
        if share_index as u32 >= io.cfg.n
            || share.len() > config::STATE_CHUNK_BYTES + 64
            || (!self.recovering && checkpoint_seq <= last_executed)
        {
            return;
        }
        match &mut self.transfer {
            Some(t) if t.checkpoint_seq == checkpoint_seq => {
                if t.chunks.contains_key(&chunk) || chunk as usize >= t.chunk_digests.len() {
                    return;
                }
                t.shares
                    .entry(chunk)
                    .or_default()
                    .insert(share_index, share.to_vec());
                self.accum_touched = ctx.now();
                self.try_reconstruct_chunk(io, ctx, chunk);
            }
            _ => {
                // Stash ahead of the manifest pin (bounded): responders
                // stream manifest + shares back to back and links reorder.
                if self.early_shares.len() < EARLY_SHARE_CAP {
                    self.early_shares
                        .insert((checkpoint_seq, chunk, share_index), share.to_vec());
                    self.accum_touched = ctx.now();
                }
            }
        }
    }

    /// Attempts to reconstruct one chunk from the collected shares: tries
    /// combinations of `k` shares (bounded search) until one decodes to
    /// the pinned per-chunk digest. Corrupt shares from Byzantine
    /// responders fail the digest check and other subsets are tried.
    fn try_reconstruct_chunk(&mut self, io: &Io, ctx: &mut Context<'_>, chunk: u32) {
        let Some(t) = &mut self.transfer else {
            return;
        };
        let k = (io.cfg.f + 1) as usize;
        let Some(pool) = t.shares.get(&chunk).filter(|pool| pool.len() >= k) else {
            return;
        };
        let want = t.chunk_digests[chunk as usize];
        let shares: Vec<Share> = pool
            .iter()
            .map(|(idx, data)| Share {
                index: *idx,
                data: data.clone(),
            })
            .collect();
        let m = shares.len().min(16); // responders are replicas: small
        let found = (0u32..(1 << m))
            .filter(|mask| mask.count_ones() as usize == k)
            .take(256)
            .find_map(|mask| {
                let subset: Vec<Share> = (0..m)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| shares[i].clone())
                    .collect();
                erasure::decode(&subset, k)
                    .ok()
                    .filter(|candidate| spire_crypto::digest(candidate) == want)
            });
        match found {
            Some(data) => {
                t.chunks.insert(chunk, data);
                t.shares.remove(&chunk);
                io.count(ctx, Metric::RecoveryChunks, 1);
            }
            None => io.count(ctx, Metric::StateReconstructPending, 1),
        }
    }

    /// Once every chunk reconstructed, reassembles the snapshot; returns it
    /// for installation unless execution has meanwhile passed its
    /// checkpoint. Each chunk matched its digest and the digests are the
    /// attested layout, so the whole is the attested snapshot.
    pub(super) fn take_complete(&mut self, last_executed: u64) -> Option<(ChunkTransfer, Vec<u8>)> {
        let done = |t: &ChunkTransfer| t.chunks.len() == t.chunk_digests.len();
        let mut t = self.transfer.take_if(|t| done(t))?;
        self.early_shares.clear();
        let snapshot = std::mem::take(&mut t.chunks)
            .into_values()
            .flatten()
            .collect();
        (t.checkpoint_seq > last_executed).then_some((t, snapshot))
    }

    /// Per-chunk retry tick: evicts a stalled transfer, otherwise
    /// re-requests the missing chunks from two rotating alternate
    /// responders with exponential backoff.
    pub(super) fn on_chunk_timer(&mut self, io: &mut Io, ctx: &mut Context<'_>) {
        self.chunk_timer_armed = false;
        let stalled = ctx.now().since(self.accum_touched) >= config::STATE_ACCUM_DEADLINE;
        if self.transfer.is_some() && stalled {
            // Stale or poisoned transfer: evict everything; TIMER_STATE_REQ
            // (recovering) or TIMER_RECON (catch-up) solicits fresh
            // manifests from scratch.
            self.transfer = None;
            self.early_shares.clear();
            io.count(ctx, Metric::StateAccumsEvicted, 1);
            return;
        }
        let Some(t) = &mut self.transfer else {
            return;
        };
        let missing: Vec<u32> = (0..t.chunk_digests.len() as u32)
            .filter(|c| !t.chunks.contains_key(c))
            .take(256)
            .collect();
        if missing.is_empty() {
            return; // finalize already ran (or is about to)
        }
        t.retry_rotor = t.retry_rotor.wrapping_add(1);
        let delay = t.backoff;
        t.backoff = Span((t.backoff.0 * 2).min(config::CHUNK_RETRY_MAX.0));
        io.count(ctx, Metric::RecoveryChunkRetries, 1);
        let req = PrimeMsg::StateChunkReq {
            replica: io.me,
            checkpoint_seq: t.checkpoint_seq,
            chunks: missing,
        };
        // Two rotating alternates per round: one mute or corrupt responder
        // cannot stall the transfer, and the request load spreads.
        let n = io.cfg.n;
        if n > 1 {
            for offset in 0..2u32 {
                let slot = (t.retry_rotor + offset) % (n - 1);
                io.send_to(ReplicaId((io.me.0 + 1 + slot) % n), &req);
            }
        }
        self.chunk_timer_armed = true;
        ctx.set_timer(delay, TIMER_CHUNK);
    }

    pub(super) fn digest(&self, h: &mut StateHasher) {
        (self.recovery_started.0, self.accum_touched.0).hash(h);
        self.chunk_timer_armed.hash(h);
        let pinned = self.transfer.as_ref();
        (
            self.recovering,
            pinned.map(|t| (t.checkpoint_seq, t.chunks.len(), t.retry_rotor)),
        )
            .hash(h);
        for (chunk, pool) in pinned.iter().flat_map(|t| &t.shares) {
            h.all(pool.keys()).write_u32(*chunk);
        }
        h.all(self.early_shares.keys());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Effect, RecordingBackend};
    use crate::replica::io::testkit::{backend, io, run, sent, signer};

    /// A stable checkpoint over a three-chunk snapshot, proven by replicas
    /// 1 and 2.
    fn stable(seq: u64) -> Stable {
        let snapshot: Vec<u8> = (0..2500u32).map(|i| (i % 251) as u8).collect();
        let digest = checkpoints::snapshot_digest(&snapshot);
        let attest = |r| CheckpointMsg::signed(ReplicaId(r), seq, digest, &signer(r));
        (seq, Bytes::from(snapshot), vec![attest(1), attest(2)])
    }

    /// What responder `r` sends replica 0 for `stable`: its manifest, then
    /// its share of every chunk.
    fn served(r: u32, behavior: ByzBehavior, stable: &Stable) -> Vec<PrimeMsg> {
        let mut io = io(r, behavior);
        serve_checkpoint(&mut io, ReplicaId(0), stable, (7, 9));
        let frames = sent(&mut backend(), &mut io).into_iter();
        frames
            .map(|(to, msg)| (to == 0).then_some(msg).expect("to replica 0"))
            .collect()
    }

    fn manifest(r: u32, stable: &Stable) -> PrimeMsg {
        served(r, ByzBehavior::Honest, stable).remove(0)
    }

    fn shares(r: u32, behavior: ByzBehavior, stable: &Stable) -> Vec<PrimeMsg> {
        served(r, behavior, stable).split_off(1)
    }

    /// The requester side alone: replica 0, recovering.
    struct Requester {
        io: Io,
        xfer: StateTransfer,
        backend: RecordingBackend,
    }

    impl Requester {
        fn new() -> Requester {
            Requester {
                io: io(0, ByzBehavior::Honest),
                xfer: StateTransfer {
                    recovering: true,
                    ..StateTransfer::default()
                },
                backend: backend(),
            }
        }

        fn deliver(&mut self, msgs: impl IntoIterator<Item = PrimeMsg>) {
            let Requester { io, xfer, backend } = self;
            for msg in msgs {
                run(backend, 0, |ctx| match msg {
                    PrimeMsg::StateMeta { .. } => xfer.on_state_meta(io, ctx, msg, 0),
                    _ => xfer.on_state_chunk(io, ctx, msg, 0),
                });
            }
        }

        fn chunk_timer(&mut self) {
            let Requester { io, xfer, backend } = self;
            run(backend, 0, |ctx| xfer.on_chunk_timer(io, ctx));
        }

        fn complete(&mut self) -> Option<Vec<u8>> {
            let done = self.xfer.take_complete(0);
            done.map(|(_, snapshot)| snapshot)
        }

        fn count(&self, name: &str) -> u64 {
            let key = format!("prime.{name}");
            self.backend.counters.get(&key).copied().unwrap_or(0)
        }

        fn timer_delays(&mut self) -> Vec<Span> {
            let armed = self
                .backend
                .effects
                .iter()
                .filter_map(|effect| match effect {
                    Effect::SetTimer { delay, tag, .. } if *tag == TIMER_CHUNK => Some(*delay),
                    _ => None,
                });
            armed.collect()
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
        assert_eq!(r.count("bad_state_proof"), 2);

        r.deliver([manifest(3, &stable)]);
        let pinned = r.xfer.transfer.as_ref().expect("one proven layout pins");
        assert_eq!(pinned.checkpoint_seq, 50);
        assert_eq!((pinned.po_high, pinned.sseq_high), (7, 9));
        r.deliver(shares(1, ByzBehavior::Honest, &stable));
        r.deliver(shares(3, ByzBehavior::Honest, &stable));
        assert_eq!(r.complete().as_deref(), Some(&stable.1[..]));
    }

    /// The resume hints are the highest that any manifest for the pinned
    /// checkpoint carried before install, not only the pinning one's.
    #[test]
    fn later_manifests_raise_the_resume_hints() {
        let stable = stable(50);
        let mut r = Requester::new();
        let hints = |r: u32, po: u64, sseq: u64| {
            let mut meta = manifest(r, &stable);
            if let PrimeMsg::StateMeta {
                requester_po_high,
                requester_sseq_high,
                ..
            } = &mut meta
            {
                (*requester_po_high, *requester_sseq_high) = (po, sseq);
            }
            meta
        };
        r.deliver([hints(1, 7, 9), hints(2, 12, 3), hints(3, 5, 11)]);
        let pinned = r.xfer.transfer.as_ref().expect("pinned");
        assert_eq!((pinned.po_high, pinned.sseq_high), (12, 11));
    }

    #[test]
    fn early_shares_drain_on_pin() {
        let stable = stable(50);
        let mut r = Requester::new();
        // Links reorder: both responders' shares overtake their manifests.
        r.deliver(shares(1, ByzBehavior::Honest, &stable));
        r.deliver(shares(2, ByzBehavior::Honest, &stable));
        assert_eq!(r.xfer.early_shares.len(), 6);
        r.deliver([manifest(1, &stable), manifest(2, &stable)]);
        assert!(r.xfer.early_shares.is_empty());
        assert_eq!(r.count("recovery_chunks"), 3);
        assert_eq!(r.complete().as_deref(), Some(&stable.1[..]));
    }

    #[test]
    fn a_corrupt_share_is_caught_and_re_requested_with_doubling_backoff() {
        let stable = stable(50);
        let mut r = Requester::new();
        r.deliver([manifest(1, &stable), manifest(2, &stable)]);
        r.deliver(shares(1, ByzBehavior::Honest, &stable));
        r.deliver(shares(2, ByzBehavior::CorruptShares, &stable));
        // k = 2 shares per chunk are in, but no pair decodes to the pinned
        // chunk digest.
        assert_eq!(
            (
                r.count("recovery_chunks"),
                r.count("state_reconstruct_pending")
            ),
            (0, 3)
        );
        r.backend.effects.clear();
        for _ in 0..6 {
            r.chunk_timer();
        }
        // Doubling from `chunk_retry_timeout` up to `chunk_retry_max`.
        let ms = |d: Span| d.0 / 1000;
        let delays: Vec<u64> = r.timer_delays().into_iter().map(ms).collect();
        assert_eq!(delays, [200, 400, 800, 1600, 2000, 2000]);
        assert_eq!(r.count("recovery_chunk_retries"), 6);
        // Each round asks two alternates for every missing chunk.
        let asked = sent(&mut r.backend, &mut r.io);
        assert_eq!(asked.len(), 12);
        for (to, req) in asked {
            assert_ne!(to, 0);
            assert!(matches!(req, PrimeMsg::StateChunkReq { chunks, .. } if chunks == [0, 1, 2]));
        }
        // One more honest responder and every chunk has a good pair.
        r.deliver(shares(3, ByzBehavior::Honest, &stable));
        assert_eq!(r.complete().as_deref(), Some(&stable.1[..]));
    }

    #[test]
    fn a_stalled_transfer_is_evicted_at_the_accumulator_deadline() {
        let stable = stable(50);
        let mut r = Requester::new();
        r.deliver([manifest(1, &stable), manifest(2, &stable)]);
        assert!(r.xfer.transfer.is_some());
        r.backend.effects.clear();
        r.backend.now = r.backend.now + config::STATE_ACCUM_DEADLINE;
        r.chunk_timer();
        assert!(r.xfer.transfer.is_none());
        assert_eq!(r.count("state_accums_evicted"), 1);
        assert!(
            r.timer_delays().is_empty(),
            "an evicted transfer re-arms nothing"
        );
    }
}
