//! The shared core every sub-protocol may touch: identity and keys, the
//! transport with its per-peer link stage and link-MAC envelope, metered
//! signing and cached verification, and the amortized-signature outbox.
//! Nothing here knows about views, sequences or checkpoints, with one
//! exception: a flushed batch hands our own attested frames back to
//! [`PreOrder`] for retention, so the flush-capable senders take it.

use super::preorder::PreOrder;
use super::TIMER_BATCH;
use crate::behavior::ByzBehavior;
use crate::config::{self, ClientId, PrimeConfig, ReplicaId};
use crate::inspect::{Inspection, ReplicaRecord};
use crate::msg::{self, CheckpointMsg, ClientOp, PrimeMsg, SummaryRow, ViewStateMsg};
use crate::net::ReplicaNet;
use bytes::Bytes;
use spire_crypto::batch::{self, BatchAttestation, BatchSigner};
use spire_crypto::keys::{verify64, Signer};
use spire_crypto::{Digest, KeyStore, NodeId};
use spire_sim::{BoundedSet, Context, WireWriter};
use std::sync::Arc;

/// Messages accumulated in one signing batch before the Merkle root is
/// signed: bounds both memory and the inclusion-proof length (log2(64) = 6
/// path digests).
const BATCH_CAP: usize = 64;

/// The closed set of metrics a replica emits. Keys are prefixed with the
/// instance label once, at construction, because several fire per message
/// delivery — a `format!` there dominated the metrics path.
macro_rules! metrics {
    ($($variant:ident => $name:literal,)*) => {
        #[derive(Clone, Copy)]
        pub(super) enum Metric { $($variant,)* }
        const METRIC_NAMES: &[&str] = &[$($name,)*];
    };
}

metrics! {
    BadClientSig => "bad_client_sig",
    BadPoSig => "bad_po_sig",
    BadOpInBatch => "bad_op_in_batch",
    BadAckSig => "bad_ack_sig",
    Certified => "certified",
    SummariesSent => "summaries_sent",
    BadSummarySig => "bad_summary_sig",
    ProposeWindowStall => "propose_window_stall",
    PrepreparesStashed => "preprepares_stashed",
    BadMatrixRow => "bad_matrix_row",
    DupMatrixRow => "dup_matrix_row",
    EquivocationDetected => "equivocation_detected",
    BadPrepareSig => "bad_prepare_sig",
    BadCommitSig => "bad_commit_sig",
    Committed => "committed",
    ReconRequested => "recon_requested",
    PoRetries => "po_retries",
    PoGapRecon => "po_gap_recon",
    MatricesExecuted => "matrices_executed",
    OpsExecuted => "ops_executed",
    BadCkptSig => "bad_ckpt_sig",
    CheckpointsStable => "checkpoints_stable",
    BadStateReqSig => "bad_state_req_sig",
    BadStateProof => "bad_state_proof",
    StateReconstructPending => "state_reconstruct_pending",
    BadStateSnapshot => "bad_state_snapshot",
    RecoveryCompleted => "recovery_completed",
    RecoveryFromGenesis => "recovery_from_genesis",
    TatMs => "tat_ms",
    PrepreparesSent => "preprepares_sent",
    LeaderGapUs => "leader_gap_us",
    SuspectsSent => "suspects_sent",
    VcRebroadcasts => "vc_rebroadcasts",
    BadNewView => "bad_new_view",
    ViewChanges => "view_changes",
    ViewsInstalled => "views_installed",
    DecodeFail => "decode_fail",
    BadPreprepareSig => "bad_preprepare_sig",
    SignOps => "sign_ops",
    VerifyOps => "verify_ops",
    VerifyCacheHits => "verify_cache_hits",
    BatchFlushes => "batch_flushes",
    BatchedMsgs => "batched_msgs",
    BadBatchAuth => "bad_batch_auth",
    BadLinkSender => "bad_link_sender",
    MacOps => "mac_ops",
    MacAuthHits => "mac_auth_hits",
    MacFail => "mac_fail",
    LinkBatches => "link_batches",
    LinkBatchedFrames => "link_batched_frames",
    EagerProposals => "eager_proposals",
    MultiAcks => "multi_acks",
    MultiCommits => "multi_commits",
    BadStateMeta => "bad_state_meta",
    StateAccumsEvicted => "state_accums_evicted",
    RecoveryChunks => "recovery_chunks",
    RecoveryChunkRetries => "recovery_chunk_retries",
    RecoveryDurationUs => "recovery_duration_us",
    CompactionRuns => "compaction.runs",
    CompactionEvicted => "compaction.evicted",
    CompactionPoRetained => "compaction.po_retained",
    CompactionSlotsRetained => "compaction.slots_retained",
    CompactionMatricesRetained => "compaction.matrices_retained",
    CompactionSuffixRetained => "compaction.suffix_retained",
}

pub(super) fn metric_keys(label: &str) -> Vec<String> {
    let key = |name: &&str| format!("{label}.{name}");
    METRIC_NAMES.iter().map(key).collect()
}

/// What to keep of a queued message once its attested frame exists at
/// flush time. Reconciliation later forwards retained frames verbatim, so
/// they must be self-contained (attestation included).
pub(super) enum Retain {
    /// Nothing to retain.
    None,
    /// Our own (possibly cumulative) PO-Ack: the one frame is certificate
    /// material under every covered `(origin, po_seq)`.
    Acks(Vec<(ReplicaId, u64, Digest)>),
    /// Our own PO-Request: the stored content bytes under
    /// `(me, po_seq)` are replaced with the attested frame.
    Request { po_seq: u64 },
}

/// A message queued for the next amortized-signature flush.
pub(super) struct OutboxItem {
    /// The encoded message, signature field all-zero.
    payload: Bytes,
    /// One client (replies and notifications), or `None` for a broadcast
    /// to every other replica (votes).
    client: Option<ClientId>,
    /// Certificate-material retention at flush time.
    retain: Retain,
}

pub(super) struct Io {
    pub(super) cfg: PrimeConfig,
    pub(super) me: ReplicaId,
    pub(super) behavior: ByzBehavior,
    keystore: Arc<KeyStore>,
    pub(super) signer: Signer,
    pub(super) net: Box<dyn ReplicaNet>,
    /// Per-peer symmetric link keys (indexed by replica id). When present,
    /// every replica-to-replica frame is sealed in an HMAC envelope and
    /// MAC-authenticated frames skip per-hop signature verification.
    pub(super) session_keys: Option<Vec<[u8; 32]>>,
    /// Label-prefixed metric keys, indexed by [`Metric`].
    pub(super) metric_keys: Vec<String>,
    /// White-box inspection registry (for invariant checking).
    pub(super) inspection: Option<Inspection>,

    // ---- amortized authentication ----
    /// Votes/replies queued for the amortized flush (when `batch_sign`):
    /// all messages queued within one `batch_interval` window share one
    /// batch-root signature.
    pub(super) outbox: Vec<OutboxItem>,
    /// Whether a `TIMER_BATCH` flush is already pending.
    pub(super) batch_timer_armed: bool,
    batcher: BatchSigner,
    // The verify caches hold "already verified" decisions. A key enters
    // only after its signature checked out, and it is a SHA-256 digest over
    // the full signed content (signature included), so a forgery cannot
    // alias a cached entry without a hash collision. An evicted entry is
    // simply verified again on its next sight.
    /// Verified batch roots, keyed by digest(signer || root || root_sig).
    root_cache: BoundedSet<Digest>,
    /// Verified client ops, keyed by digest over the full signed encoding.
    op_cache: BoundedSet<Digest>,
    /// Verified summary rows, keyed by [`SummaryRow::cache_key`].
    row_cache: BoundedSet<Digest>,
    /// Reusable encoding buffer for sign/verify signing bytes.
    scratch: WireWriter,

    // ---- link batching ----
    /// Frames staged per peer (index = replica id) during the current
    /// activation; flushed as one (sealed) multi-frame container per peer
    /// — or one for all peers, when they are the same — at the activation
    /// boundary.
    link_stage: Vec<Vec<Bytes>>,
    /// Peers with staged frames, in first-touch order (deterministic).
    link_stage_order: Vec<u32>,
}

impl Io {
    pub(super) fn new(
        cfg: PrimeConfig,
        me: ReplicaId,
        behavior: ByzBehavior,
        keystore: Arc<KeyStore>,
        signer: Signer,
        net: Box<dyn ReplicaNet>,
    ) -> Io {
        let cache = config::VERIFY_CACHE;
        Io {
            me,
            behavior,
            keystore,
            signer,
            net,
            session_keys: None,
            metric_keys: metric_keys("prime"),
            inspection: None,
            outbox: Vec::new(),
            batch_timer_armed: false,
            batcher: BatchSigner::new(),
            root_cache: BoundedSet::new(cache),
            op_cache: BoundedSet::new(cache),
            row_cache: BoundedSet::new(cache),
            scratch: WireWriter::with_capacity(256),
            link_stage: (0..cfg.n).map(|_| Vec::new()).collect(),
            link_stage_order: Vec::new(),
            cfg,
        }
    }

    pub(super) fn count(&self, ctx: &mut Context<'_>, metric: Metric, delta: u64) {
        ctx.count(&self.metric_keys[metric as usize], delta);
    }

    pub(super) fn record(&self, ctx: &mut Context<'_>, metric: Metric, value: f64) {
        ctx.record(&self.metric_keys[metric as usize], value);
    }

    pub(super) fn observe(&self, ctx: &mut Context<'_>, metric: Metric, value: u64) {
        ctx.observe(&self.metric_keys[metric as usize], value);
    }

    /// Updates this replica's inspection record, if a registry is attached.
    pub(super) fn inspect(&self, f: impl FnOnce(&mut ReplicaRecord)) {
        if let Some(inspection) = &self.inspection {
            inspection.update(self.me.0, f);
        }
    }

    // ================= transport =================

    /// Stages an encoded frame for a peer: every frame bound for the same
    /// peer within one activation travels in one multi-frame container,
    /// sealed once and pushed through the overlay once (see
    /// [`Io::flush_links`]). Dissemination order per peer is preserved. A
    /// destination outside the group is dropped, as the transports drop it.
    pub(super) fn net_send(&mut self, to: ReplicaId, bytes: Bytes) {
        let Some(stage) = self.link_stage.get_mut(to.0 as usize) else {
            return;
        };
        if stage.is_empty() {
            self.link_stage_order.push(to.0);
        }
        stage.push(bytes);
    }

    /// Sends a wire to a peer, sealed under the pair's link key when
    /// session MACs are on. Retained certificate material must stay
    /// unsealed (a seal is per-recipient), so sealing happens here — at the
    /// last moment before the transport — and nowhere else.
    fn ship(&mut self, ctx: &mut Context<'_>, to: ReplicaId, mut wire: Bytes) {
        let keys = self.session_keys.as_ref();
        if let Some(key) = keys.and_then(|k| k.get(to.0 as usize)) {
            self.count(ctx, Metric::MacOps, 1);
            wire = msg::seal_frame(self.me, key, &wire);
        }
        self.net.send_replica(ctx, to, wire);
    }

    /// Ships one wire to every peer as a single transport send, sealed
    /// under the group authenticator when session MACs are on: the MAC
    /// work of `n - 1` unicast seals, one envelope.
    fn ship_to_all(&mut self, ctx: &mut Context<'_>, mut wire: Bytes) {
        if let Some(keys) = &self.session_keys {
            self.count(ctx, Metric::MacOps, keys.len() as u64 - 1);
            wire = msg::seal_frame_for_all(self.me, keys, &wire);
        }
        self.net.send_all_replicas(ctx, self.me, self.cfg.n, wire);
    }

    /// A lone staged frame travels as-is; several coalesce into one
    /// multi-frame container.
    fn pack(&self, ctx: &mut Context<'_>, frames: Vec<Bytes>) -> Bytes {
        debug_assert!(!frames.is_empty());
        if frames.len() == 1 {
            return frames.into_iter().next().expect("one frame");
        }
        self.count(ctx, Metric::LinkBatches, 1);
        self.count(ctx, Metric::LinkBatchedFrames, frames.len() as u64);
        msg::encode_multi(&frames)
    }

    /// Ships every staged frame, packed per destination — one seal, one
    /// overlay dissemination, one hop-acknowledgement chain for the lot.
    /// When every peer was staged the same bytes (a broadcast, which is
    /// most of what a replica says) they go out once, to all; otherwise
    /// (an equivocator's split, reconciliation, state transfer, any
    /// unicast in the mix) once per peer. Runs at each activation boundary,
    /// so batching adds zero latency; it only removes per-frame overhead.
    pub(super) fn flush_links(&mut self, ctx: &mut Context<'_>) {
        if self.link_stage_order.is_empty() {
            return;
        }
        let order = std::mem::take(&mut self.link_stage_order);
        let stage = |peer: &u32| &self.link_stage[*peer as usize];
        let same_for_all = order.len() + 1 == self.cfg.n as usize
            && order[1..]
                .iter()
                .all(|peer| stage(peer) == stage(&order[0]));
        if same_for_all {
            let frames = std::mem::take(&mut self.link_stage[order[0] as usize]);
            for &peer in &order[1..] {
                self.link_stage[peer as usize].clear();
            }
            let wire = self.pack(ctx, frames);
            self.ship_to_all(ctx, wire);
            return;
        }
        for &peer in &order {
            let frames = std::mem::take(&mut self.link_stage[peer as usize]);
            let wire = self.pack(ctx, frames);
            self.ship(ctx, ReplicaId(peer), wire);
        }
    }

    /// Strips and checks a link-MAC envelope — the unicast seal, or our
    /// slot of a group seal. Returns the inner frame bytes plus the
    /// MAC-authenticated sender, `(payload, None)` when the frame is not
    /// sealed (client traffic, or session MACs off), or `None` for a frame
    /// whose envelope fails authentication (dropped).
    pub(super) fn unseal(
        &mut self,
        ctx: &mut Context<'_>,
        payload: Bytes,
    ) -> Option<(Bytes, Option<ReplicaId>)> {
        let tag = payload.first().copied();
        if tag != Some(msg::SEALED_FRAME_TAG) && tag != Some(msg::AUTHENTICATOR_FRAME_TAG) {
            return Some((payload, None));
        }
        // A malformed envelope, or a sealed frame from an unknown sender or
        // arriving at a replica with no session keys, cannot be
        // authenticated: drop it.
        let key_of = |sender: ReplicaId| self.session_keys.as_ref()?.get(sender.0 as usize);
        let checked = if tag == Some(msg::SEALED_FRAME_TAG) {
            let sealed = msg::decode_sealed(&payload).ok().flatten();
            sealed.and_then(|s| Some((s.sender, s.inner, s.verify(key_of(s.sender)?))))
        } else {
            let sealed = msg::decode_group_sealed(&payload).ok().flatten();
            sealed.and_then(|s| Some((s.sender, s.inner, s.verify(self.me, key_of(s.sender)?))))
        };
        let Some((sender, inner, authentic)) = checked else {
            self.count(ctx, Metric::MacFail, 1);
            return None;
        };
        self.count(ctx, Metric::MacOps, 1);
        if !authentic {
            self.count(ctx, Metric::MacFail, 1);
            return None;
        }
        self.count(ctx, Metric::MacAuthHits, 1);
        // Zero-copy: the inner frame is a subslice of the sealed buffer,
        // so reslicing the shared `Bytes` is a refcount bump, not a copy.
        let start = inner.as_ptr() as usize - payload.as_ptr() as usize;
        Some((payload.slice(start..start + inner.len()), Some(sender)))
    }

    /// Sends one encoded frame to every other replica.
    pub(super) fn broadcast(&mut self, bytes: Bytes) {
        self.broadcast_split(bytes.clone(), bytes);
    }

    pub(super) fn send_to(&mut self, to: ReplicaId, msg: &PrimeMsg) {
        if to != self.me {
            self.net_send(to, msg.encode());
        }
    }

    /// Sends `a` to even-numbered replicas and `b` to odd ones (the
    /// equivocation attack split), sharing each encoding across recipients.
    pub(super) fn broadcast_split(&mut self, a: Bytes, b: Bytes) {
        for r in 0..self.cfg.n {
            if r != self.me.0 {
                let bytes = if r % 2 == 0 { a.clone() } else { b.clone() };
                self.net_send(ReplicaId(r), bytes);
            }
        }
    }

    /// Asks two peers, rotating with `rotor` and spread by `salt`, so a
    /// large catch-up cannot melt the network.
    pub(super) fn ask_two_peers(&mut self, salt: u32, rotor: u32, msg: &PrimeMsg) {
        let n = self.cfg.n;
        for offset in 1..=2u32 {
            let target = (self.me.0 + salt + offset * (rotor % n + 1)) % n;
            self.send_to(ReplicaId(target), msg);
        }
    }

    // ================= amortized authentication =================

    /// Signs a message in place, metered and buffer-reusing.
    pub(super) fn sign(&mut self, ctx: &mut Context<'_>, msg: &mut PrimeMsg) {
        self.count(ctx, Metric::SignOps, 1);
        msg.sign_with(&self.signer, &mut self.scratch);
    }

    /// Verifies a replica-signed message, metered. `env_auth` is the
    /// replica whose batch attestation already authenticated the enclosing
    /// frame, if any: when it matches the claimed sender, the (zeroed)
    /// embedded signature needs no further checking.
    pub(super) fn verify_replica_msg(
        &mut self,
        ctx: &mut Context<'_>,
        msg: &PrimeMsg,
        claimed: ReplicaId,
        env_auth: Option<ReplicaId>,
    ) -> bool {
        if env_auth == Some(claimed) {
            return true;
        }
        self.count(ctx, Metric::VerifyOps, 1);
        let node = NodeId(self.cfg.replica_key_base + claimed.0);
        let mock = self.signer.is_mock();
        msg.verify_sig_with(&self.keystore, node, mock, &mut self.scratch)
    }

    /// A hit costs a lookup; a miss is metered, checked and, when valid,
    /// remembered.
    fn verify_cached(
        &mut self,
        ctx: &mut Context<'_>,
        cache: fn(&mut Io) -> &mut BoundedSet<Digest>,
        key: Digest,
        check: impl FnOnce(&Io) -> bool,
    ) -> bool {
        if cache(self).contains(&key) {
            self.count(ctx, Metric::VerifyCacheHits, 1);
            return true;
        }
        self.count(ctx, Metric::VerifyOps, 1);
        let ok = check(self);
        if ok {
            cache(self).insert(key);
        }
        ok
    }

    /// Verifies a client op through the bounded cache: ops re-arrive inside
    /// every PO-Request rebroadcast and reconciliation, so each distinct
    /// signed op is checked against the client key at most once per cache
    /// lifetime.
    pub(super) fn verify_client_op(&mut self, ctx: &mut Context<'_>, op: &ClientOp) -> bool {
        self.verify_cached(
            ctx,
            |io| &mut io.op_cache,
            op.digest(),
            |io| op.verify(&io.keystore, io.cfg.client_key_base, io.signer.is_mock()),
        )
    }

    /// Verifies a summary row through the bounded cache: the same signed
    /// rows recur across PO-Summary broadcasts and every Pre-Prepare matrix
    /// that embeds them.
    pub(super) fn verify_summary_row(&mut self, ctx: &mut Context<'_>, row: &SummaryRow) -> bool {
        row.replica.0 < self.cfg.n
            && self.verify_cached(
                ctx,
                |io| &mut io.row_cache,
                row.cache_key(),
                |io| row.verify(&io.keystore, io.cfg.replica_key_base, io.signer.is_mock()),
            )
    }

    pub(super) fn verify_checkpoint(&self, ctx: &mut Context<'_>, msg: &CheckpointMsg) -> bool {
        self.count(ctx, Metric::VerifyOps, 1);
        msg.verify(
            &self.keystore,
            self.cfg.replica_key_base,
            self.signer.is_mock(),
        )
    }

    pub(super) fn verify_view_state(&self, ctx: &mut Context<'_>, state: &ViewStateMsg) -> bool {
        self.count(ctx, Metric::VerifyOps, 1);
        state.verify(
            &self.keystore,
            self.cfg.replica_key_base,
            self.signer.is_mock(),
        )
    }

    /// Verifies a batch attestation (inclusion proof + root signature).
    /// All messages of one batch share the signed root, so the signature
    /// check is cached and later messages cost only hashing.
    pub(super) fn verify_batch_attestation(
        &mut self,
        ctx: &mut Context<'_>,
        signer: ReplicaId,
        attestation: &BatchAttestation,
        msg_digest: &Digest,
    ) -> bool {
        let Some(root) = attestation.compute_root(msg_digest) else {
            return false;
        };
        let sig = &attestation.root_sig;
        let key = spire_crypto::digest_parts(&[&signer.0.to_le_bytes(), &root, sig]);
        self.verify_cached(
            ctx,
            |io| &mut io.root_cache,
            key,
            |io| {
                let node = NodeId(io.cfg.replica_key_base + signer.0);
                let bytes = batch::root_signing_bytes(&root);
                verify64(&io.keystore, node, &bytes, sig, io.signer.is_mock())
            },
        )
    }

    /// Queues a zero-signature encoding for the amortized flush. The batch
    /// flushes `batch_interval` after its first message (or immediately at
    /// [`BATCH_CAP`]); authenticity comes from the batch attestation
    /// attached at flush time.
    pub(super) fn queue_outbox(
        &mut self,
        ctx: &mut Context<'_>,
        pre: &mut PreOrder,
        payload: Bytes,
        client: Option<ClientId>,
        retain: Retain,
    ) {
        self.outbox.push(OutboxItem {
            payload,
            client,
            retain,
        });
        if self.outbox.len() >= BATCH_CAP {
            self.flush_outbox(ctx, pre);
        } else if !self.batch_timer_armed {
            self.batch_timer_armed = true;
            ctx.set_timer(self.cfg.batch_interval, TIMER_BATCH);
        }
    }

    /// Queues a vote broadcast (PO-Ack / Prepare / Commit) for the
    /// amortized flush, or signs and broadcasts it immediately when batch
    /// signing is off. `retain` marks our own PO-Acks for certificate
    /// retention (see [`Retain`]).
    pub(super) fn send_vote(
        &mut self,
        ctx: &mut Context<'_>,
        pre: &mut PreOrder,
        mut msg: PrimeMsg,
        retain: Retain,
    ) {
        if self.cfg.batch_sign {
            self.queue_outbox(ctx, pre, msg.encode(), None, retain);
            return;
        }
        self.sign(ctx, &mut msg);
        let bytes = msg.encode();
        pre.retain_own(self, ctx, retain, &bytes);
        self.broadcast(bytes);
    }

    /// Sends a signed message to a client (Reply / Notify), through the
    /// amortized batch when batch signing is on.
    pub(super) fn send_client_signed(
        &mut self,
        ctx: &mut Context<'_>,
        pre: &mut PreOrder,
        client: ClientId,
        mut msg: PrimeMsg,
    ) {
        if self.cfg.batch_sign {
            self.queue_outbox(ctx, pre, msg.encode(), Some(client), Retain::None);
            return;
        }
        self.sign(ctx, &mut msg);
        self.net.send_client(ctx, client, msg.encode());
    }

    /// Signs one Merkle root over every queued message and sends each with
    /// its inclusion attestation, so everything queued during one
    /// `batch_interval` window shares a single signature.
    pub(super) fn flush_outbox(&mut self, ctx: &mut Context<'_>, pre: &mut PreOrder) {
        if self.outbox.is_empty() {
            return;
        }
        let items = std::mem::take(&mut self.outbox);
        for item in &items {
            self.batcher.push(spire_crypto::digest(&item.payload));
        }
        self.count(ctx, Metric::SignOps, 1);
        self.count(ctx, Metric::BatchFlushes, 1);
        self.count(ctx, Metric::BatchedMsgs, items.len() as u64);
        let signed = self.batcher.flush(&self.signer).expect("non-empty batch");
        for (i, item) in items.into_iter().enumerate() {
            let frame = msg::encode_batched(self.me, &signed.attestation(i), &item.payload);
            match item.client {
                None => self.broadcast(frame.clone()),
                Some(client) => self.net.send_client(ctx, client, frame.clone()),
            }
            pre.retain_own(self, ctx, item.retain, &frame);
        }
    }
}

/// Shared fixtures for the per-sub-protocol unit tests: one sub-protocol,
/// an [`Io`] over direct links and a recording backend — no cluster.
#[cfg(test)]
pub(super) mod testkit {
    use super::*;
    use crate::model::{Effect, RecordingBackend};
    use crate::net::DirectNet;
    use spire_crypto::keys::KeyMaterial;
    use spire_sim::ProcessId;

    fn material() -> KeyMaterial {
        KeyMaterial::new([9u8; 32])
    }

    /// Replica `r`'s (mock-mode) signing key, to author its messages.
    pub fn signer(r: u32) -> Signer {
        let base = PrimeConfig::new(1, 0).replica_key_base;
        Signer::new(material().signing_key(NodeId(base + r)), true)
    }

    /// Client `c`'s (mock-mode) signing key.
    pub fn client_signer(c: u32) -> Signer {
        let base = PrimeConfig::new(1, 0).client_key_base;
        Signer::new(material().signing_key(NodeId(base + c)), true)
    }

    /// Replica `me` of an `f = 1`, `n = 4` group without batch signing; a
    /// test reads what it sent with [`sent`].
    pub fn io(me: u32, behavior: ByzBehavior) -> Io {
        let cfg = PrimeConfig::new(1, 0);
        let net = DirectNet {
            replicas: (0..cfg.n).map(ProcessId).collect(),
            clients: Default::default(),
        };
        let keystore = Arc::new(KeyStore::for_nodes(&material(), 3000));
        Io::new(
            cfg,
            ReplicaId(me),
            behavior,
            keystore,
            signer(me),
            Box::new(net),
        )
    }

    /// A fresh recording backend at time zero.
    pub fn backend() -> RecordingBackend {
        RecordingBackend::new(0)
    }

    /// Runs `f` with a context over `backend`, as process `me`.
    pub fn run<R>(
        backend: &mut RecordingBackend,
        me: u32,
        f: impl FnOnce(&mut Context<'_>) -> R,
    ) -> R {
        f(&mut Context::new(backend, ProcessId(me)))
    }

    /// Ends `io`'s activation, shipping its link stage, and drains the
    /// frames sent so far as `(destination replica, message)`, every
    /// multi-frame container unpacked into the frames it carries.
    pub fn sent(backend: &mut RecordingBackend, io: &mut Io) -> Vec<(u32, PrimeMsg)> {
        run(backend, io.me.0, |ctx| io.flush_links(ctx));
        let mut frames = Vec::new();
        for effect in backend.effects.drain(..) {
            let Effect::Send { to, bytes } = effect else {
                continue;
            };
            let parts = msg::decode_multi(&bytes).expect("container");
            for frame in parts.unwrap_or_else(|| vec![bytes]) {
                frames.push((to.0, PrimeMsg::decode(&frame).expect("frame")));
            }
        }
        frames
    }
}
