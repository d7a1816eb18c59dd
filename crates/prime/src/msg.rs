//! The Prime wire protocol: message types, canonical encoding, signatures.
//!
//! Every message is signed by its sender; receivers verify against the
//! deployment [`spire_crypto::KeyStore`] before acting. The canonical
//! signing bytes of each message are its encoding with the signature field
//! zeroed, so encode/decode and sign/verify share one code path.

use crate::config::{ClientId, ReplicaId};
use bytes::Bytes;
use spire_crypto::batch::BatchAttestation;
use spire_crypto::keys::{verify64, Signer};
use spire_crypto::{Digest, KeyStore, NodeId};
use spire_sim::{impl_wire, Counted, Wire, WireError, WireReader, WireWriter};
use std::borrow::Cow;

/// An operation submitted by a client, carried inside PO-Requests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClientOp {
    /// Submitting client.
    pub client: ClientId,
    /// Client-local sequence number (for exactly-once execution).
    pub cseq: u64,
    /// Opaque application payload.
    pub payload: Bytes,
    /// Client's signature over (client, cseq, payload).
    pub sig: [u8; 64],
}

impl ClientOp {
    /// Creates and signs an op.
    pub fn signed(client: ClientId, cseq: u64, payload: Bytes, key: &Signer) -> ClientOp {
        let mut op = ClientOp {
            client,
            cseq,
            payload,
            sig: [0; 64],
        };
        op.sig = key.sign64(&op.signing_bytes());
        op
    }

    fn signing_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.raw(b"prime-op")
            .u32(self.client.0)
            .u64(self.cseq)
            .bytes(&self.payload);
        w.into_vec()
    }

    /// Verifies the client signature given the client's key-store id.
    pub fn verify(&self, keystore: &KeyStore, client_key_base: u32, mock: bool) -> bool {
        verify64(
            keystore,
            NodeId(client_key_base + self.client.0),
            &self.signing_bytes(),
            &self.sig,
            mock,
        )
    }

    /// A digest identifying this op.
    pub fn digest(&self) -> Digest {
        spire_crypto::digest(&self.encode())
    }

    fn encode(&self) -> Vec<u8> {
        self.to_wire(128).into_vec()
    }
}

impl_wire!(struct ClientOp { client, cseq, payload, sig });

/// A replica's cumulative pre-order acknowledgement vector: for each
/// originator, the highest contiguously pre-ordered sequence.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct AruVector(pub Vec<u64>);

impl AruVector {
    /// Zero vector for `n` replicas.
    pub fn zeros(n: usize) -> AruVector {
        AruVector(vec![0; n])
    }
}

impl_wire!(struct AruVector(reports));

/// A signed PO-Summary row (also embedded in pre-prepare matrices).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SummaryRow {
    /// Reporting replica.
    pub replica: ReplicaId,
    /// Monotone per-replica summary sequence.
    pub sseq: u64,
    /// The report.
    pub vector: AruVector,
    /// Signature by `replica`.
    pub sig: [u8; 64],
}

impl SummaryRow {
    /// Creates and signs a summary row.
    pub fn signed(replica: ReplicaId, sseq: u64, vector: AruVector, key: &Signer) -> SummaryRow {
        let mut row = SummaryRow {
            replica,
            sseq,
            vector,
            sig: [0; 64],
        };
        row.sig = key.sign64(&row.signing_bytes());
        row
    }

    fn signing_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.raw(b"prime-summary").u32(self.replica.0).u64(self.sseq);
        self.vector.write(&mut w);
        w.into_vec()
    }

    /// A digest identifying this row *including* its signature, used as a
    /// verification-cache key: two rows with identical content but
    /// different signature bytes hash differently, so a forged signature
    /// can never alias a cached verified row.
    pub fn cache_key(&self) -> Digest {
        spire_crypto::digest(self.to_wire(128).as_slice())
    }

    /// Verifies the row signature.
    pub fn verify(&self, keystore: &KeyStore, replica_key_base: u32, mock: bool) -> bool {
        verify64(
            keystore,
            NodeId(replica_key_base + self.replica.0),
            &self.signing_bytes(),
            &self.sig,
            mock,
        )
    }
}

impl_wire!(struct SummaryRow { replica, sseq, vector, sig });

/// The ordered unit: a matrix of signed summary rows proposed by the leader.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Matrix {
    /// One row per reporting replica (at most one per replica id).
    pub rows: Vec<SummaryRow>,
}

impl Matrix {
    /// Canonical digest of the matrix.
    pub fn digest(&self) -> Digest {
        spire_crypto::digest(self.to_wire(128).as_slice())
    }

    /// For originator column `i`, the highest value reported by at least
    /// `quorum` rows (0 if fewer than `quorum` rows).
    pub fn covered_aru(&self, origin: usize, quorum: usize) -> u64 {
        let mut column: Vec<u64> = self
            .rows
            .iter()
            .map(|row| row.vector.0.get(origin).copied().unwrap_or(0))
            .collect();
        if column.len() < quorum || quorum == 0 {
            return 0;
        }
        column.sort_unstable_by(|a, b| b.cmp(a));
        column[quorum - 1]
    }
}

impl_wire!(struct Matrix { rows });

/// A checkpoint attestation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointMsg {
    /// Attesting replica.
    pub replica: ReplicaId,
    /// Ordered sequence the checkpoint covers.
    pub seq: u64,
    /// Digest of the application snapshot plus execution metadata.
    pub digest: Digest,
    /// Signature.
    pub sig: [u8; 64],
}

impl CheckpointMsg {
    /// Creates and signs a checkpoint attestation.
    pub fn signed(replica: ReplicaId, seq: u64, digest: Digest, key: &Signer) -> CheckpointMsg {
        let mut m = CheckpointMsg {
            replica,
            seq,
            digest,
            sig: [0; 64],
        };
        m.sig = key.sign64(&m.signing_bytes());
        m
    }

    fn signing_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.raw(b"prime-ckpt")
            .u32(self.replica.0)
            .u64(self.seq)
            .raw(&self.digest);
        w.into_vec()
    }

    /// Verifies the attestation signature.
    pub fn verify(&self, keystore: &KeyStore, replica_key_base: u32, mock: bool) -> bool {
        verify64(
            keystore,
            NodeId(replica_key_base + self.replica.0),
            &self.signing_bytes(),
            &self.sig,
            mock,
        )
    }
}

impl_wire!(struct CheckpointMsg { replica, seq, digest, sig });

/// A prepared-certificate claim carried in view changes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PreparedClaim {
    /// View in which the matrix prepared.
    pub view: u64,
    /// Ordered sequence.
    pub seq: u64,
    /// The prepared matrix itself (so the new leader can re-propose it).
    pub matrix: Matrix,
}

impl_wire!(struct PreparedClaim { view, seq, matrix });

/// A replica's signed state report for a view change. The new leader
/// assembles a quorum of these into its NewView; followers recompute the
/// reproposal plan from the same quorum, so a Byzantine leader cannot drop
/// prepared matrices.
#[derive(Clone, Debug, PartialEq)]
pub struct ViewStateMsg {
    /// Reporting replica.
    pub replica: ReplicaId,
    /// The new view being entered.
    pub view: u64,
    /// Highest contiguously committed ordering sequence.
    pub last_committed: u64,
    /// Every prepared-but-possibly-uncommitted matrix above
    /// `last_committed`, lowest sequence first. Reporting only the highest
    /// one is unsound under pipelining: with several sequences in flight a
    /// lower prepared matrix may already have committed at a replica
    /// outside the state quorum, and a plan built without its claim would
    /// re-propose a different matrix at that sequence.
    pub prepared: Vec<PreparedClaim>,
    /// Signature by `replica`.
    pub sig: [u8; 64],
}

impl ViewStateMsg {
    /// Canonical signed bytes: the encoding with the trailing signature
    /// field zeroed in place (no clone, no re-encode).
    pub fn signing_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.raw(b"prime-viewstate");
        self.write(&mut w);
        w.zero_tail(64);
        w.into_vec()
    }

    /// Verifies the report signature.
    pub fn verify(&self, keystore: &KeyStore, replica_key_base: u32, mock: bool) -> bool {
        spire_crypto::keys::verify64(
            keystore,
            NodeId(replica_key_base + self.replica.0),
            &self.signing_bytes(),
            &self.sig,
            mock,
        )
    }
}

impl_wire!(struct ViewStateMsg { replica, view, last_committed, prepared, sig });

/// All Prime protocol messages.
#[derive(Clone, Debug, PartialEq)]
pub enum PrimeMsg {
    /// Client -> replica: submit an operation.
    Op(ClientOp),
    /// Originator broadcast of a batch of client ops.
    PoRequest {
        /// Originating replica.
        origin: ReplicaId,
        /// Originator-local sequence.
        po_seq: u64,
        /// The batched ops.
        ops: Vec<ClientOp>,
        /// Origin's signature.
        sig: [u8; 64],
    },
    /// Acknowledgement that a replica holds a PO-Request.
    PoAck {
        /// Acknowledging replica.
        replica: ReplicaId,
        /// Originator of the acknowledged request.
        origin: ReplicaId,
        /// Its sequence.
        po_seq: u64,
        /// Digest of the PO-Request body.
        digest: Digest,
        /// Signature.
        sig: [u8; 64],
    },
    /// Periodic cumulative pre-order report.
    PoSummary(SummaryRow),
    /// Leader proposal of a summary matrix at an ordering sequence.
    PrePrepare {
        /// Proposing view.
        view: u64,
        /// Ordering sequence.
        seq: u64,
        /// Proposed matrix.
        matrix: Matrix,
        /// Leader signature.
        sig: [u8; 64],
    },
    /// First ordering vote.
    Prepare {
        /// Voting replica.
        replica: ReplicaId,
        /// View.
        view: u64,
        /// Sequence.
        seq: u64,
        /// Matrix digest voted for.
        digest: Digest,
        /// Signature.
        sig: [u8; 64],
    },
    /// Second ordering vote.
    Commit {
        /// Voting replica.
        replica: ReplicaId,
        /// View.
        view: u64,
        /// Sequence.
        seq: u64,
        /// Matrix digest voted for.
        digest: Digest,
        /// Signature.
        sig: [u8; 64],
    },
    /// RTT probe (suspect-leader).
    Ping {
        /// Prober.
        replica: ReplicaId,
        /// Nonce echoed in the pong.
        nonce: u64,
    },
    /// RTT probe response.
    Pong {
        /// Responder.
        replica: ReplicaId,
        /// Echoed nonce.
        nonce: u64,
    },
    /// Accusation that the leader of `view` is slow or faulty.
    Suspect {
        /// Accusing replica.
        replica: ReplicaId,
        /// The suspected view.
        view: u64,
        /// Signature.
        sig: [u8; 64],
    },
    /// Per-replica state report sent on entering a new view.
    ViewState(ViewStateMsg),
    /// New leader's installation message: a quorum of view-state reports
    /// from which every replica deterministically derives the reproposals.
    NewView {
        /// The view being installed.
        view: u64,
        /// Quorum of signed state reports justifying the plan.
        states: Vec<ViewStateMsg>,
        /// Leader signature.
        sig: [u8; 64],
    },
    /// Checkpoint attestation broadcast.
    Checkpoint(CheckpointMsg),
    /// Request for state transfer from `have_seq`. Signed: a state request
    /// from the current leader doubles as an announcement that it is
    /// recovering, which immediately triggers leader replacement.
    StateReq {
        /// Requesting replica.
        replica: ReplicaId,
        /// Highest sequence the requester has executed: a responder sends
        /// its stable checkpoint only when it is above this.
        have_seq: u64,
        /// The requester's contiguous commit point: the certificates a
        /// responder serves start above it (and above the checkpoint
        /// served), since the requester holds every commit up to it.
        commit_aru: u64,
        /// The requester's current recovery, named by its start time; every
        /// [`PrimeMsg::StateMeta`] answering this request echoes it.
        nonce: u64,
        /// Signature.
        sig: [u8; 64],
    },
    /// A committed matrix with its commit certificate, served to a
    /// replica catching up. It names no sender and carries no signature of
    /// its own: it proves itself, and is adopted from any one responder
    /// once the Commit frames of `2f + k + 1` distinct replicas verify.
    CommitCert {
        /// Ordering sequence of the matrix.
        seq: u64,
        /// The view the matrix committed in.
        view: u64,
        /// The committed matrix.
        matrix: Matrix,
        /// One self-contained `Commit` or `CommitMulti` frame per voter
        /// (signed plain, or batch-attested), each voting for
        /// `(seq, matrix.digest())` in `view`.
        frames: Vec<Bytes>,
    },
    /// Request for a missing PO-Request's content (reconciliation).
    ReconReq {
        /// Requesting replica.
        replica: ReplicaId,
        /// Originator of the wanted request.
        origin: ReplicaId,
        /// Its sequence.
        po_seq: u64,
    },
    /// Replica-pushed outbound message to a client (e.g. a supervisory
    /// command for an RTU proxy); receivers act on `f + 1` matching copies.
    Notify {
        /// Pushing replica.
        replica: ReplicaId,
        /// Target client.
        client: ClientId,
        /// Deterministic per-target notification sequence.
        nseq: u64,
        /// Payload.
        payload: Bytes,
        /// Signature.
        sig: [u8; 64],
    },
    /// Reply to a client with an execution result.
    Reply {
        /// Replying replica.
        replica: ReplicaId,
        /// Target client.
        client: ClientId,
        /// The client op sequence executed.
        cseq: u64,
        /// Application result bytes.
        result: Bytes,
        /// Signature.
        sig: [u8; 64],
    },
    /// Cumulative pre-order acknowledgement: one signature vouching for
    /// several PO-Requests at once. Semantically identical to the same
    /// set of individual [`PrimeMsg::PoAck`]s; emitted when one
    /// activation acknowledges multiple requests (pipelined ordering,
    /// coalesced arrival). The whole signed frame is retained as
    /// certificate material for each covered entry, so reconciliation
    /// forwards it verbatim like a plain ack.
    PoAckMulti {
        /// Acknowledging replica.
        replica: ReplicaId,
        /// `(origin, po_seq, digest)` per acknowledged request.
        entries: Vec<(ReplicaId, u64, Digest)>,
        /// Signature over all entries.
        sig: [u8; 64],
    },
    /// Cumulative second-round ordering vote: commit votes for several
    /// ordering sequences of one view under one signature. Emitted when
    /// a wider proposal window prepares multiple sequences in one
    /// activation.
    CommitMulti {
        /// Voting replica.
        replica: ReplicaId,
        /// View.
        view: u64,
        /// `(seq, matrix digest)` per committed-to sequence.
        entries: Vec<(u64, Digest)>,
        /// Signature over all entries.
        sig: [u8; 64],
    },
    /// The answer to every [`PrimeMsg::StateReq`], signed and bound to its
    /// nonce: the responder's commit point and resume hints, and, when its
    /// stable checkpoint is above the requester's `have_seq`, that
    /// checkpoint's chunk layout (else `checkpoint_seq` 0, no layout), with
    /// every 1 KiB chunk (`STATE_CHUNK_BYTES`) following as a
    /// [`PrimeMsg::StateChunk`]. The layout proves itself: the requester
    /// pins the first one whose digest of `total_len` and `chunk_digests`
    /// its `f + 1` signed attestations prove.
    StateMeta {
        /// Responding replica.
        replica: ReplicaId,
        /// The nonce of the request this answers.
        nonce: u64,
        /// The responder's contiguous commit point.
        commit_aru: u64,
        /// Sequence of the described checkpoint (0: none).
        checkpoint_seq: u64,
        /// Total snapshot length in bytes.
        total_len: u64,
        /// Digest of each chunk, in order; a corrupt chunk is caught when
        /// it misses its pinned digest.
        chunk_digests: Vec<Digest>,
        /// `f + 1` matching signed checkpoint attestations proving the
        /// layout digest.
        proof: Vec<CheckpointMsg>,
        /// The responder's highest seen PO sequence originated by the
        /// requester, so a recovered origin resumes its numbering without
        /// colliding with its pre-recovery certificates.
        requester_po_high: u64,
        /// The responder's highest seen summary sequence from the
        /// requester: a recovered replica must resume above it or its new
        /// summaries are discarded as stale replays.
        requester_sseq_high: u64,
        /// Signature.
        sig: [u8; 64],
    },
    /// One snapshot chunk, as is. It names no sender and carries no
    /// signature: it proves itself, and is kept from whoever relays it
    /// once it hashes to its digest in the pinned, attested layout.
    StateChunk {
        /// Sequence of the checkpoint the chunk belongs to.
        checkpoint_seq: u64,
        /// Chunk index within the manifest layout.
        chunk: u32,
        /// The chunk's bytes.
        data: Bytes,
    },
    /// Re-request of specific missing chunks, sent to two alternate
    /// responders on each due ask of the state-request schedule.
    StateChunkReq {
        /// Requesting (recovering) replica.
        replica: ReplicaId,
        /// Checkpoint whose chunks are wanted.
        checkpoint_seq: u64,
        /// Indices of the chunks still missing.
        chunks: Vec<u32>,
    },
}

/// The message's own signature field, for the variants that carry one (by
/// `&` or `&mut`). Every signed variant writes its signature *last*, so
/// [`signing_bytes`](PrimeMsg::signing_bytes) zeroes it in the
/// already-encoded buffer instead of cloning the whole message.
macro_rules! own_sig {
    ($msg:expr) => {
        match $msg {
            PrimeMsg::PoRequest { sig, .. }
            | PrimeMsg::PoAck { sig, .. }
            | PrimeMsg::PrePrepare { sig, .. }
            | PrimeMsg::Prepare { sig, .. }
            | PrimeMsg::Commit { sig, .. }
            | PrimeMsg::Suspect { sig, .. }
            | PrimeMsg::ViewState(ViewStateMsg { sig, .. })
            | PrimeMsg::NewView { sig, .. }
            | PrimeMsg::Notify { sig, .. }
            | PrimeMsg::StateReq { sig, .. }
            | PrimeMsg::StateMeta { sig, .. }
            | PrimeMsg::Reply { sig, .. }
            | PrimeMsg::PoAckMulti { sig, .. }
            | PrimeMsg::CommitMulti { sig, .. } => Some(sig),
            _ => None,
        }
    };
}

/// The `(seq, digest)` entries of one vote message ([`PrimeMsg::votes`]).
pub type VoteEntries<'a> = Cow<'a, [(u64, Digest)]>;

impl PrimeMsg {
    /// The replica this message names as its author, for variants that
    /// name one. A pre-prepare and a new-view are authored by the leader of
    /// the view they carry; client ops name no replica.
    pub fn claimed_sender(&self) -> Option<ReplicaId> {
        match self {
            PrimeMsg::PoRequest { origin: r, .. }
            | PrimeMsg::PoAck { replica: r, .. }
            | PrimeMsg::PoAckMulti { replica: r, .. }
            | PrimeMsg::Prepare { replica: r, .. }
            | PrimeMsg::Commit { replica: r, .. }
            | PrimeMsg::CommitMulti { replica: r, .. }
            | PrimeMsg::Ping { replica: r, .. }
            | PrimeMsg::Pong { replica: r, .. }
            | PrimeMsg::Suspect { replica: r, .. }
            | PrimeMsg::StateReq { replica: r, .. }
            | PrimeMsg::StateMeta { replica: r, .. }
            | PrimeMsg::StateChunkReq { replica: r, .. }
            | PrimeMsg::ReconReq { replica: r, .. }
            | PrimeMsg::Notify { replica: r, .. }
            | PrimeMsg::Reply { replica: r, .. } => Some(*r),
            PrimeMsg::PoSummary(row) => Some(row.replica),
            PrimeMsg::ViewState(state) => Some(state.replica),
            PrimeMsg::Checkpoint(attestation) => Some(attestation.replica),
            PrimeMsg::Op(_)
            | PrimeMsg::PrePrepare { .. }
            | PrimeMsg::NewView { .. }
            | PrimeMsg::StateChunk { .. }
            | PrimeMsg::CommitCert { .. } => None,
        }
    }

    /// The view and `(seq, digest)` entries a Prepare, a Commit or a
    /// cumulative Commit votes for.
    pub fn votes(&self) -> Option<(u64, VoteEntries<'_>)> {
        match self {
            PrimeMsg::Prepare {
                view, seq, digest, ..
            }
            | PrimeMsg::Commit {
                view, seq, digest, ..
            } => Some((*view, Cow::Owned(vec![(*seq, *digest)]))),
            PrimeMsg::CommitMulti { view, entries, .. } => Some((*view, Cow::Borrowed(entries))),
            _ => None,
        }
    }

    /// The canonical bytes a signature covers for this message: the
    /// encoding with the trailing signature field zeroed in place.
    pub fn signing_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(128);
        self.write_signing_bytes(&mut w);
        w.into_vec()
    }

    /// Writes the canonical signing bytes into `scratch` (cleared first)
    /// and returns them — the allocation-free variant for hot sign/verify
    /// paths that reuse one buffer.
    pub fn write_signing_bytes<'a>(&self, scratch: &'a mut WireWriter) -> &'a [u8] {
        scratch.clear();
        self.write(scratch);
        if own_sig!(self).is_some() {
            scratch.zero_tail(64);
        }
        scratch.as_slice()
    }

    /// Signs the message in place (for variants carrying a signature),
    /// reusing `scratch` for the signing bytes.
    pub fn sign_with(&mut self, key: &Signer, scratch: &mut WireWriter) {
        let sig = key.sign64(self.write_signing_bytes(scratch));
        if let Some(field) = own_sig!(self) {
            *field = sig;
        }
    }

    /// Signs the message in place (for variants carrying a signature).
    pub fn sign(&mut self, key: &Signer) {
        let mut scratch = WireWriter::with_capacity(128);
        self.sign_with(key, &mut scratch);
    }

    /// Verifies the embedded signature against `signer`'s key, reusing
    /// `scratch` for the signing bytes.
    pub fn verify_sig_with(
        &self,
        keystore: &KeyStore,
        signer: NodeId,
        mock: bool,
        scratch: &mut WireWriter,
    ) -> bool {
        // Unsigned control messages (pings, state transfer, recon) rely
        // on the authenticated overlay link; their effects are
        // idempotent and validated by content.
        let Some(sig) = own_sig!(self).copied() else {
            return true;
        };
        verify64(
            keystore,
            signer,
            self.write_signing_bytes(scratch),
            &sig,
            mock,
        )
    }

    /// Verifies the embedded signature against `signer`'s key.
    pub fn verify_sig(&self, keystore: &KeyStore, signer: NodeId, mock: bool) -> bool {
        let mut scratch = WireWriter::with_capacity(128);
        self.verify_sig_with(keystore, signer, mock, &mut scratch)
    }

    /// Encodes to canonical bytes.
    pub fn encode(&self) -> Bytes {
        self.to_wire(128).finish()
    }

    /// Decodes from canonical bytes.
    pub fn decode(bytes: &[u8]) -> Result<PrimeMsg, WireError> {
        PrimeMsg::decode_all(bytes)
    }

    /// Digest of the full encoding.
    pub fn digest(&self) -> Digest {
        spire_crypto::digest(&self.encode())
    }
}

// Tag => variant and its fields in wire order. A signed variant's `sig` is
// its last field: `write_signing_bytes` zeroes it in place.
impl_wire!(enum PrimeMsg {
    1 => Op(op),
    2 => PoRequest { origin, po_seq, ops, sig },
    3 => PoAck { replica, origin, po_seq, digest, sig },
    4 => PoSummary(row),
    5 => PrePrepare { view, seq, matrix, sig },
    6 => Prepare { replica, view, seq, digest, sig },
    7 => Commit { replica, view, seq, digest, sig },
    8 => Ping { replica, nonce },
    9 => Pong { replica, nonce },
    10 => Suspect { replica, view, sig },
    11 => ViewState(state),
    12 => NewView { view, states, sig },
    13 => Checkpoint(attestation),
    14 => StateReq { replica, have_seq, commit_aru, nonce, sig },
    // 15 was `StateResp`, the whole-snapshot transfer; it stays unassigned so
    // a frame from an old build is rejected, never read as something else.
    16 => ReconReq { replica, origin, po_seq },
    17 => Reply { replica, client, cseq, result, sig },
    // 18 was the suffix vote that `CommitCert` (25) replaced; like 15, it
    // stays unassigned.
    19 => Notify { replica, client, nseq, payload, sig },
    20 => PoAckMulti { replica, entries, sig },
    21 => CommitMulti { replica, view, entries, sig },
    22 => StateMeta {
        replica, nonce, commit_aru, checkpoint_seq, total_len, chunk_digests, proof,
        requester_po_high, requester_sseq_high, sig,
    },
    23 => StateChunk { checkpoint_seq, chunk, data },
    24 => StateChunkReq { replica, checkpoint_seq, chunks },
    25 => CommitCert { seq, view, matrix, frames as Counted<u8> },
});

/// The sub-protocol the [`PrimeMsg`] behind `tag` (the table above) belongs
/// to, as a short label.
fn msg_class(tag: u8) -> &'static str {
    match tag {
        2..=4 | 20 => "preorder",
        5..=7 | 21 => "ordering",
        10..=12 => "viewchange",
        13..=15 => "checkpoint",
        1 | 17 | 19 => "client",
        8 | 9 => "liveness",
        16 | 25 => "recon",
        22..=24 => "statexfer",
        _ => "other",
    }
}

/// Frame tag marking a batch-attested message ([`PrimeMsg`] encodings start
/// with tags 1..=25 (15 and 18 retired), so the two framings share one byte
/// stream).
pub const BATCH_FRAME_TAG: u8 = 255;

/// A replica-to-replica frame as read off a link: either a plain message
/// authenticated by its own embedded signature, or a message whose
/// signature field is zero and whose authenticity comes from a shared
/// batch-root signature (see [`spire_crypto::batch`]).
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// A bare [`PrimeMsg`] encoding.
    Plain(PrimeMsg),
    /// A batch-attested message.
    Batched {
        /// The replica that signed the batch root.
        signer: ReplicaId,
        /// Inclusion proof tying `msg` to the signed root.
        attestation: BatchAttestation,
        /// The carried message (embedded signature field is all-zero).
        msg: PrimeMsg,
        /// Digest of the carried message's encoding — the Merkle leaf.
        msg_digest: Digest,
    },
}

/// Encodes a batch-attested frame around an already-encoded message.
pub fn encode_batched(signer: ReplicaId, attestation: &BatchAttestation, payload: &[u8]) -> Bytes {
    let mut w = WireWriter::with_capacity(payload.len() + 64 + 32 * attestation.path.len() + 32);
    w.u8(BATCH_FRAME_TAG)
        .u32(signer.0)
        .u32(attestation.leaf_index)
        .u32(attestation.leaf_count)
        .u8(attestation.path.len() as u8);
    for digest in &attestation.path {
        w.raw(digest);
    }
    w.raw(&attestation.root_sig).bytes(payload);
    w.finish()
}

/// Decodes a frame: a batch-attested envelope or a plain message.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, WireError> {
    if bytes.first() != Some(&BATCH_FRAME_TAG) {
        return Ok(Frame::Plain(PrimeMsg::decode(bytes)?));
    }
    let mut r = WireReader::new(bytes);
    r.u8()?; // tag
    let signer = ReplicaId(r.u32()?);
    let leaf_index = r.u32()?;
    let leaf_count = r.u32()?;
    let path_len = r.u8()? as usize;
    let mut path = Vec::with_capacity(path_len);
    for _ in 0..path_len {
        path.push(r.array()?);
    }
    let root_sig: [u8; 64] = r.array()?;
    let payload = r.bytes()?;
    let msg_digest = spire_crypto::digest(payload);
    let msg = PrimeMsg::decode(payload)?;
    r.expect_end()?;
    Ok(Frame::Batched {
        signer,
        attestation: BatchAttestation {
            leaf_index,
            leaf_count,
            path,
            root_sig,
        },
        msg,
        msg_digest,
    })
}

/// Decodes a frame and returns the enclosed message, discarding any batch
/// attestation — for callers that read content and believe nothing (models,
/// measurement harnesses). A client acting on replies goes through
/// [`crate::ClientSession`], which keeps the attestation and checks it.
pub fn decode_enclosed(bytes: &[u8]) -> Result<PrimeMsg, WireError> {
    Ok(match decode_frame(bytes)? {
        Frame::Plain(msg) => msg,
        Frame::Batched { msg, .. } => msg,
    })
}

/// Frame tag marking a link-sealed envelope: a replica-to-replica frame
/// authenticated by a per-link HMAC session key instead of (or in addition
/// to) public-key signatures. Layout: `[254][sender u32][mac 32][inner]`,
/// where `inner` is an ordinary frame (plain or batch-attested).
pub const SEALED_FRAME_TAG: u8 = 254;

/// Wraps an encoded frame in a link-MAC envelope for one recipient. The
/// MAC covers the sender id and the inner frame bytes under the symmetric
/// per-pair key, so neither can be altered in flight.
pub fn seal_frame(sender: ReplicaId, key: &[u8; 32], inner: &[u8]) -> Bytes {
    let mac = seal_mac(sender, key, inner);
    let mut w = WireWriter::with_capacity(1 + 4 + 32 + 4 + inner.len());
    w.u8(SEALED_FRAME_TAG).u32(sender.0).raw(&mac).bytes(inner);
    w.finish()
}

fn seal_mac(sender: ReplicaId, key: &[u8; 32], inner: &[u8]) -> [u8; 32] {
    let mut mac = spire_crypto::hmac::HmacSha256::new(key);
    mac.update(&sender.0.to_le_bytes());
    mac.update(inner);
    mac.finalize()
}

/// A parsed link-sealed envelope, before MAC verification. The receiver
/// looks up the pair key by `sender` and checks with [`Sealed::verify`].
#[derive(Debug)]
pub struct Sealed<'a> {
    /// The replica claiming to have sealed this frame.
    pub sender: ReplicaId,
    /// HMAC over `sender || inner` under the pair's link key.
    pub mac: [u8; 32],
    /// The enclosed frame bytes.
    pub inner: &'a [u8],
}

impl Sealed<'_> {
    /// Constant-time MAC check under the claimed sender's link key.
    pub fn verify(&self, key: &[u8; 32]) -> bool {
        spire_crypto::hmac::constant_time_eq(&seal_mac(self.sender, key, self.inner), &self.mac)
    }
}

/// Parses a sealed envelope without checking the MAC. Returns `Ok(None)`
/// when the bytes are not a sealed frame at all.
pub fn decode_sealed(bytes: &[u8]) -> Result<Option<Sealed<'_>>, WireError> {
    if bytes.first() != Some(&SEALED_FRAME_TAG) {
        return Ok(None);
    }
    let mut r = WireReader::new(bytes);
    r.u8()?; // tag
    let sender = ReplicaId(r.u32()?);
    let mac: [u8; 32] = r.array()?;
    let inner = r.bytes()?;
    r.expect_end()?;
    Ok(Some(Sealed { sender, mac, inner }))
}

/// Frame tag marking a group-sealed envelope: one frame for *every* peer,
/// carried by a single overlay dissemination, under a PBFT-style
/// authenticator — one MAC slot per replica instead of one envelope per
/// recipient. Layout: `[252][sender u32][n u8][mac_0 … mac_{n-1}][inner]`;
/// slot `r` is the very MAC [`seal_frame`] would put on a unicast envelope
/// to `r` (over `sender || inner` under the `(sender, r)` pair key), so
/// recipient `r`, checking its own slot, gets the same per-pair sender
/// authentication. The sender's own slot is zero and never checked.
pub const AUTHENTICATOR_FRAME_TAG: u8 = 252;

/// Most MAC slots a group-sealed envelope may carry; a larger count is
/// rejected before any slot is read.
pub const MAX_AUTHENTICATOR_SLOTS: usize = 64;

/// Wraps an encoded frame in a group-sealed envelope for all peers at once;
/// `keys[r]` is the sender's link key with replica `r`.
pub fn seal_frame_for_all(sender: ReplicaId, keys: &[[u8; 32]], inner: &[u8]) -> Bytes {
    let mut w = WireWriter::with_capacity(1 + 4 + 1 + 32 * keys.len() + 4 + inner.len());
    w.u8(AUTHENTICATOR_FRAME_TAG)
        .u32(sender.0)
        .u8(keys.len() as u8);
    for (r, key) in keys.iter().enumerate() {
        if r == sender.0 as usize {
            w.raw(&[0; 32]);
        } else {
            w.raw(&seal_mac(sender, key, inner));
        }
    }
    w.bytes(inner);
    w.finish()
}

/// A parsed group-sealed envelope, before MAC verification.
#[derive(Debug)]
pub struct GroupSealed<'a> {
    /// The replica claiming to have sealed this frame.
    pub sender: ReplicaId,
    /// One MAC per replica id; see [`AUTHENTICATOR_FRAME_TAG`].
    pub macs: Vec<[u8; 32]>,
    /// The enclosed frame bytes.
    pub inner: &'a [u8],
}

impl GroupSealed<'_> {
    /// Constant-time check of recipient `me`'s slot under its link key with
    /// the claimed sender. An envelope with no slot for `me` fails.
    pub fn verify(&self, me: ReplicaId, key: &[u8; 32]) -> bool {
        let expected = seal_mac(self.sender, key, self.inner);
        let slot = self.macs.get(me.0 as usize);
        slot.is_some_and(|mac| spire_crypto::hmac::constant_time_eq(&expected, mac))
    }
}

/// Parses a group-sealed envelope without checking any MAC. Returns
/// `Ok(None)` when the bytes are not one at all.
pub fn decode_group_sealed(bytes: &[u8]) -> Result<Option<GroupSealed<'_>>, WireError> {
    if bytes.first() != Some(&AUTHENTICATOR_FRAME_TAG) {
        return Ok(None);
    }
    let mut r = WireReader::new(bytes);
    r.u8()?; // tag
    let sender = ReplicaId(r.u32()?);
    let macs = Counted::<u8, MAX_AUTHENTICATOR_SLOTS>::read(&mut r)?;
    let inner = r.bytes()?;
    r.expect_end()?;
    Ok(Some(GroupSealed {
        sender,
        macs,
        inner,
    }))
}

/// Frame tag marking a multi-frame container: several ordinary frames
/// (plain or batch-attested) coalesced into one link transfer. Layout:
/// `[253][count u16][(len u32 | frame)*]`. When session MACs are on the
/// whole container is sealed once, amortizing the per-link HMAC (and the
/// overlay's per-message dissemination and hop-acknowledgement work)
/// across every frame inside. A receiver treats each inner frame exactly
/// as if it had arrived alone on the same link.
pub const MULTI_FRAME_TAG: u8 = 253;

/// Packs already-encoded frames into one multi-frame container.
pub fn encode_multi(frames: &[Bytes]) -> Bytes {
    let total: usize = frames.iter().map(|f| f.len() + 4).sum();
    let mut w = WireWriter::with_capacity(1 + 2 + total);
    w.u8(MULTI_FRAME_TAG).u16(frames.len() as u16);
    for frame in frames {
        w.bytes(frame);
    }
    w.finish()
}

/// Splits a multi-frame container into zero-copy sub-frame slices of the
/// shared buffer. Returns `Ok(None)` when the bytes are not a container.
pub fn decode_multi(bytes: &Bytes) -> Result<Option<Vec<Bytes>>, WireError> {
    if bytes.first() != Some(&MULTI_FRAME_TAG) {
        return Ok(None);
    }
    let mut r = WireReader::new(bytes);
    r.u8()?; // tag
    let count = r.u16()? as usize;
    let mut frames = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let slice = r.bytes()?;
        // Offset arithmetic against the shared buffer: each sub-frame is
        // a refcount bump, not a copy.
        let start = slice.as_ptr() as usize - bytes.as_ptr() as usize;
        frames.push(bytes.slice(start..start + slice.len()));
    }
    r.expect_end()?;
    Ok(Some(frames))
}

/// Labels a frame with its sub-protocol from its tags alone, without
/// decoding or believing it — for per-class counters (the rt substrate's
/// `rt.drop.<class>`), never for protocol decisions. Looks through a link
/// seal (unicast or group) and classifies a multi-frame container by its
/// first sub-frame (a coalesced flush is usually homogeneous vote traffic).
/// Bytes that are no Prime frame — overlay wrappers, noise — land in
/// `"other"`.
pub fn classify_frame(bytes: &[u8]) -> &'static str {
    let Some(&outer) = bytes.first() else {
        return "empty";
    };
    // Both seals end in the inner frame's u32 length; see the layouts at
    // `SEALED_FRAME_TAG` and `AUTHENTICATOR_FRAME_TAG`.
    let inner_at = match outer {
        SEALED_FRAME_TAG => 1 + 4 + 32 + 4,
        AUTHENTICATOR_FRAME_TAG => {
            let slots = bytes.get(1 + 4).map_or(0, |n| *n as usize);
            1 + 4 + 1 + 32 * slots + 4
        }
        _ => 0,
    };
    let mut frame = bytes.get(inner_at..).unwrap_or(&[]);
    if frame.first() == Some(&MULTI_FRAME_TAG) {
        // `[253][count u16][len u32][first frame]…`
        frame = frame.get(1 + 2 + 4..).unwrap_or(&[]);
    }
    match frame.first() {
        None => "other",
        Some(&BATCH_FRAME_TAG) => "batch",
        Some(&tag) => msg_class(tag),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spire_crypto::KeyMaterial;

    fn material() -> KeyMaterial {
        KeyMaterial::new([7u8; 32])
    }

    fn sample_row(replica: u32) -> SummaryRow {
        SummaryRow {
            replica: ReplicaId(replica),
            sseq: 5,
            vector: AruVector(vec![1, 2, 3]),
            sig: [9; 64],
        }
    }

    fn roundtrip(msg: PrimeMsg) {
        let bytes = msg.encode();
        assert_eq!(PrimeMsg::decode(&bytes).expect("decode"), msg);
    }

    #[test]
    fn roundtrip_all_variants() {
        let op = ClientOp {
            client: ClientId(1),
            cseq: 2,
            payload: Bytes::from_static(b"x"),
            sig: [3; 64],
        };
        roundtrip(PrimeMsg::Op(op.clone()));
        roundtrip(PrimeMsg::PoRequest {
            origin: ReplicaId(0),
            po_seq: 9,
            ops: vec![op.clone(), op.clone()],
            sig: [1; 64],
        });
        roundtrip(PrimeMsg::PoAck {
            replica: ReplicaId(1),
            origin: ReplicaId(0),
            po_seq: 9,
            digest: [5; 32],
            sig: [6; 64],
        });
        roundtrip(PrimeMsg::PoSummary(sample_row(2)));
        roundtrip(PrimeMsg::PrePrepare {
            view: 1,
            seq: 10,
            matrix: Matrix {
                rows: vec![sample_row(0), sample_row(1)],
            },
            sig: [2; 64],
        });
        roundtrip(PrimeMsg::Prepare {
            replica: ReplicaId(3),
            view: 1,
            seq: 10,
            digest: [4; 32],
            sig: [5; 64],
        });
        roundtrip(PrimeMsg::Commit {
            replica: ReplicaId(3),
            view: 1,
            seq: 10,
            digest: [4; 32],
            sig: [5; 64],
        });
        roundtrip(PrimeMsg::Ping {
            replica: ReplicaId(0),
            nonce: 77,
        });
        roundtrip(PrimeMsg::Pong {
            replica: ReplicaId(1),
            nonce: 77,
        });
        roundtrip(PrimeMsg::Suspect {
            replica: ReplicaId(2),
            view: 3,
            sig: [8; 64],
        });
        let state = ViewStateMsg {
            replica: ReplicaId(2),
            view: 4,
            last_committed: 10,
            prepared: vec![
                PreparedClaim {
                    view: 3,
                    seq: 11,
                    matrix: Matrix {
                        rows: vec![sample_row(1)],
                    },
                },
                PreparedClaim {
                    view: 2,
                    seq: 12,
                    matrix: Matrix { rows: vec![] },
                },
            ],
            sig: [1; 64],
        };
        roundtrip(PrimeMsg::ViewState(state.clone()));
        roundtrip(PrimeMsg::ViewState(ViewStateMsg {
            prepared: vec![],
            ..state.clone()
        }));
        roundtrip(PrimeMsg::NewView {
            view: 4,
            states: vec![state],
            sig: [2; 64],
        });
        roundtrip(PrimeMsg::Checkpoint(CheckpointMsg {
            replica: ReplicaId(0),
            seq: 50,
            digest: [7; 32],
            sig: [8; 64],
        }));
        roundtrip(PrimeMsg::StateReq {
            replica: ReplicaId(5),
            have_seq: 0,
            commit_aru: 3,
            nonce: 4_000_000,
            sig: [4; 64],
        });
        roundtrip(PrimeMsg::CommitCert {
            seq: 51,
            view: 3,
            matrix: Matrix {
                rows: vec![sample_row(0)],
            },
            frames: vec![Bytes::from_static(b"commit-a"), Bytes::new()],
        });
        roundtrip(PrimeMsg::ReconReq {
            replica: ReplicaId(1),
            origin: ReplicaId(0),
            po_seq: 3,
        });
        roundtrip(PrimeMsg::Notify {
            replica: ReplicaId(1),
            client: ClientId(9),
            nseq: 4,
            payload: Bytes::from_static(b"cmd"),
            sig: [3; 64],
        });
        roundtrip(PrimeMsg::Reply {
            replica: ReplicaId(1),
            client: ClientId(9),
            cseq: 4,
            result: Bytes::from_static(b"ok"),
            sig: [3; 64],
        });
        roundtrip(PrimeMsg::PoAckMulti {
            replica: ReplicaId(2),
            entries: vec![
                (ReplicaId(0), 7, [1; 32]),
                (ReplicaId(3), 9, [2; 32]),
                (ReplicaId(1), 1, [3; 32]),
            ],
            sig: [6; 64],
        });
        roundtrip(PrimeMsg::CommitMulti {
            replica: ReplicaId(4),
            view: 2,
            entries: vec![(11, [4; 32]), (12, [5; 32]), (13, [6; 32])],
            sig: [7; 64],
        });
        roundtrip(PrimeMsg::StateMeta {
            replica: ReplicaId(1),
            nonce: 4_000_000,
            commit_aru: 53,
            checkpoint_seq: 50,
            total_len: 2500,
            chunk_digests: vec![[1; 32], [2; 32], [3; 32]],
            proof: vec![CheckpointMsg {
                replica: ReplicaId(0),
                seq: 50,
                digest: [7; 32],
                sig: [8; 64],
            }],
            requester_po_high: 17,
            requester_sseq_high: 5,
            sig: [9; 64],
        });
        // The answer of a responder without a stable checkpoint above the
        // requester's: commit point and hints only.
        roundtrip(PrimeMsg::StateMeta {
            replica: ReplicaId(3),
            nonce: 0,
            commit_aru: 12,
            checkpoint_seq: 0,
            total_len: 0,
            chunk_digests: vec![],
            proof: vec![],
            requester_po_high: 0,
            requester_sseq_high: 0,
            sig: [1; 64],
        });
        roundtrip(PrimeMsg::StateChunk {
            checkpoint_seq: 50,
            chunk: 1,
            data: Bytes::from_static(b"chunk-bytes"),
        });
        roundtrip(PrimeMsg::StateChunkReq {
            replica: ReplicaId(5),
            checkpoint_seq: 50,
            chunks: vec![0, 2, 7],
        });
        roundtrip(PrimeMsg::StateChunkReq {
            replica: ReplicaId(5),
            checkpoint_seq: 50,
            chunks: vec![],
        });
    }

    #[test]
    fn multi_frame_roundtrip_is_zero_copy() {
        let a = PrimeMsg::Ping {
            replica: ReplicaId(0),
            nonce: 1,
        }
        .encode();
        let b = PrimeMsg::PoAck {
            replica: ReplicaId(1),
            origin: ReplicaId(0),
            po_seq: 3,
            digest: [8; 32],
            sig: [9; 64],
        }
        .encode();
        let container = encode_multi(&[a.clone(), b.clone()]);
        assert_eq!(container.first(), Some(&MULTI_FRAME_TAG));
        let frames = decode_multi(&container).expect("decode").expect("multi");
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], a);
        assert_eq!(frames[1], b);
        // Zero-copy: sub-frames alias the container's buffer.
        let base = container.as_ptr() as usize;
        let end = base + container.len();
        for f in &frames {
            let p = f.as_ptr() as usize;
            assert!(p >= base && p + f.len() <= end);
        }
        // Non-containers pass through untouched.
        assert!(decode_multi(&a).expect("decode").is_none());
        // A sealed container authenticates all sub-frames with one MAC.
        let key = [5u8; 32];
        let sealed = seal_frame(ReplicaId(0), &key, &container);
        let parsed = decode_sealed(&sealed).expect("parse").expect("sealed");
        assert!(parsed.verify(&key));
        assert_eq!(parsed.inner, &container[..]);
    }

    #[test]
    fn sign_and_verify() {
        let material = material();
        let keystore = spire_crypto::KeyStore::for_nodes(&material, 2000);
        let key = Signer::new(material.signing_key(NodeId(1001)), false); // replica 1
        let mut msg = PrimeMsg::Prepare {
            replica: ReplicaId(1),
            view: 0,
            seq: 1,
            digest: [0; 32],
            sig: [0; 64],
        };
        msg.sign(&key);
        assert!(msg.verify_sig(&keystore, NodeId(1001), false));
        assert!(!msg.verify_sig(&keystore, NodeId(1002), false));
        // Tampering breaks the signature.
        if let PrimeMsg::Prepare { seq, .. } = &mut msg {
            *seq = 2;
        }
        assert!(!msg.verify_sig(&keystore, NodeId(1001), false));
    }

    #[test]
    fn client_op_sign_verify() {
        let material = material();
        let keystore = spire_crypto::KeyStore::for_nodes(&material, 3000);
        let key = Signer::new(material.signing_key(NodeId(2005)), false);
        let op = ClientOp::signed(ClientId(5), 1, Bytes::from_static(b"cmd"), &key);
        assert!(op.verify(&keystore, 2000, false));
        let mut bad = op.clone();
        bad.cseq = 2;
        assert!(!bad.verify(&keystore, 2000, false));
    }

    #[test]
    fn signing_bytes_zeroes_only_the_sig_field() {
        // The zero-tail fast path must equal the old clone-and-re-encode
        // semantics: encoding of the message with sig = [0; 64].
        let mut msg = PrimeMsg::PoAck {
            replica: ReplicaId(1),
            origin: ReplicaId(0),
            po_seq: 9,
            digest: [5; 32],
            sig: [6; 64],
        };
        let zeroed = PrimeMsg::PoAck {
            replica: ReplicaId(1),
            origin: ReplicaId(0),
            po_seq: 9,
            digest: [5; 32],
            sig: [0; 64],
        };
        assert_eq!(msg.signing_bytes(), zeroed.encode().to_vec());
        // The scratch-buffer variant agrees and the buffer is reusable.
        let mut scratch = WireWriter::new();
        assert_eq!(
            msg.write_signing_bytes(&mut scratch),
            &msg.signing_bytes()[..]
        );
        assert_eq!(
            msg.write_signing_bytes(&mut scratch),
            &msg.signing_bytes()[..]
        );
        // Unsigned variants keep their full encoding.
        let ping = PrimeMsg::Ping {
            replica: ReplicaId(0),
            nonce: 7,
        };
        assert_eq!(ping.signing_bytes(), ping.encode().to_vec());
        // sign_with round-trips through the same bytes.
        let material = material();
        let keystore = spire_crypto::KeyStore::for_nodes(&material, 2000);
        let key = Signer::new(material.signing_key(NodeId(1001)), false);
        msg.sign_with(&key, &mut scratch);
        assert!(msg.verify_sig_with(&keystore, NodeId(1001), false, &mut scratch));
    }

    #[test]
    fn batched_frame_roundtrip_and_auth() {
        use spire_crypto::batch::BatchSigner;
        let material = material();
        let keystore = spire_crypto::KeyStore::for_nodes(&material, 2000);
        let key = Signer::new(material.signing_key(NodeId(1001)), false); // replica 1
        let msgs: Vec<PrimeMsg> = (0..5)
            .map(|i| PrimeMsg::Commit {
                replica: ReplicaId(1),
                view: 0,
                seq: i,
                digest: [i as u8; 32],
                sig: [0; 64],
            })
            .collect();
        let mut batch = BatchSigner::new();
        let encodings: Vec<Bytes> = msgs.iter().map(|m| m.encode()).collect();
        for enc in &encodings {
            batch.push(spire_crypto::digest(enc));
        }
        let signed = batch.flush(&key).unwrap();
        for (i, (msg, enc)) in msgs.iter().zip(&encodings).enumerate() {
            let frame = encode_batched(ReplicaId(1), &signed.attestation(i), enc);
            match decode_frame(&frame).expect("decode") {
                Frame::Batched {
                    signer,
                    attestation,
                    msg: got,
                    msg_digest,
                } => {
                    assert_eq!(signer, ReplicaId(1));
                    assert_eq!(&got, msg);
                    assert!(attestation.verify(&keystore, NodeId(1001), &msg_digest, false));
                    // The wrong replica id must not authenticate it.
                    assert!(!attestation.verify(&keystore, NodeId(1002), &msg_digest, false));
                }
                Frame::Plain(_) => panic!("expected batched frame"),
            }
        }
        // Plain encodings still decode as plain frames.
        match decode_frame(&encodings[0]).expect("decode") {
            Frame::Plain(m) => assert_eq!(m, msgs[0]),
            Frame::Batched { .. } => panic!("expected plain frame"),
        }
    }

    #[test]
    fn covered_aru_quorum_math() {
        let rows: Vec<SummaryRow> = [(5u64, 3u64), (4, 9), (7, 2), (1, 8)]
            .iter()
            .enumerate()
            .map(|(i, (a, b))| SummaryRow {
                replica: ReplicaId(i as u32),
                sseq: 1,
                vector: AruVector(vec![*a, *b]),
                sig: [0; 64],
            })
            .collect();
        let matrix = Matrix { rows };
        // Column 0 = [5,4,7,1]: 3rd largest = 4.
        assert_eq!(matrix.covered_aru(0, 3), 4);
        // Column 1 = [3,9,2,8]: 2nd largest = 8.
        assert_eq!(matrix.covered_aru(1, 2), 8);
        // Quorum larger than rows -> 0.
        assert_eq!(matrix.covered_aru(0, 5), 0);
        // Missing column -> 0.
        assert_eq!(matrix.covered_aru(7, 2), 0);
    }

    #[test]
    fn matrix_digest_changes_with_content() {
        let m1 = Matrix {
            rows: vec![sample_row(0)],
        };
        let m2 = Matrix {
            rows: vec![sample_row(1)],
        };
        assert_ne!(m1.digest(), m2.digest());
    }

    #[test]
    fn sealed_frame_roundtrip() {
        use spire_crypto::NodeId;
        let key = material().link_key(NodeId(1000), NodeId(1003));
        let inner = PrimeMsg::Ping {
            replica: ReplicaId(3),
            nonce: 17,
        }
        .encode();
        let sealed = seal_frame(ReplicaId(3), &key, &inner);
        assert_eq!(sealed.first(), Some(&SEALED_FRAME_TAG));
        let parsed = decode_sealed(&sealed).expect("decode").expect("sealed");
        assert_eq!(parsed.sender, ReplicaId(3));
        assert_eq!(parsed.inner, &inner[..]);
        assert!(parsed.verify(&key));
        // An unsealed frame parses as `None`, not an error.
        assert!(decode_sealed(&inner).expect("decode").is_none());
    }

    #[test]
    fn sealed_frame_rejects_tampering() {
        use spire_crypto::NodeId;
        let key = material().link_key(NodeId(1000), NodeId(1001));
        let inner = PrimeMsg::Ping {
            replica: ReplicaId(1),
            nonce: 1,
        }
        .encode();
        let sealed = seal_frame(ReplicaId(1), &key, &inner);

        // Flipping any byte of the envelope breaks authentication: the
        // sender id (MAC input), the MAC itself, or the payload.
        for idx in [1usize, 10, sealed.len() - 1] {
            let mut bad = sealed.to_vec();
            bad[idx] ^= 1;
            let ok = match decode_sealed(&bad) {
                Ok(Some(parsed)) => parsed.verify(&key),
                _ => false,
            };
            assert!(!ok, "tampered byte {idx} was accepted");
        }

        // The right MAC under the wrong pair key fails too.
        let other = material().link_key(NodeId(1000), NodeId(1002));
        let parsed = decode_sealed(&sealed).expect("decode").expect("sealed");
        assert!(!parsed.verify(&other));
    }

    #[test]
    fn a_commit_classifies_as_ordering_through_every_envelope() {
        let commit = PrimeMsg::Commit {
            replica: ReplicaId(2),
            view: 1,
            seq: 9,
            digest: [5; 32],
            sig: [6; 64],
        }
        .encode();
        assert_eq!(classify_frame(&commit), "ordering");
        let ping = PrimeMsg::Ping {
            replica: ReplicaId(2),
            nonce: 1,
        }
        .encode();
        let container = encode_multi(&[commit.clone(), ping.clone()]);
        assert_eq!(classify_frame(&container), "ordering");
        for inner in [&commit, &container] {
            let unicast = seal_frame(ReplicaId(2), &[1; 32], inner);
            assert_eq!(classify_frame(&unicast), "ordering");
            let group = seal_frame_for_all(ReplicaId(2), &[[1; 32]; 6], inner);
            assert_eq!(classify_frame(&group), "ordering");
        }
        assert_eq!(classify_frame(&ping), "liveness");
        assert_eq!(classify_frame(&[]), "empty");
        // A seal cut short of its inner frame, and bytes that are no Prime
        // frame at all.
        assert_eq!(classify_frame(&[SEALED_FRAME_TAG, 0, 0]), "other");
        assert_eq!(
            classify_frame(&[AUTHENTICATOR_FRAME_TAG, 0, 0, 0, 0, 200]),
            "other"
        );
        assert_eq!(classify_frame(&[0]), "other");
    }
}
