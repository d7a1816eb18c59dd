//! The client half of Prime, written once: [`ClientSession`] submits signed
//! operations to the replica group and accepts a result or a pushed
//! notification only on `f + 1` matching votes, each *provably from the
//! replica it names* — which is the whole reason up to `f` compromised
//! replicas cannot make a client act. Proxies, HMIs, the historian, the
//! example clients and [`TestClient`] own one session each and keep only
//! what is theirs; the cross-shard coordinator, which picks its own
//! sequence numbers and keeps raw frames for certificates, uses the same
//! pieces one level down ([`op_frame`], [`ClientRouting`], [`Vote`],
//! [`ReplicaKeys`], and [`QuorumTracker`] for its prepare votes and its
//! per-group acks).

use crate::config::{ClientId, PrimeConfig, ReplicaId};
use crate::msg::{decode_frame, ClientOp, Frame, PrimeMsg};
use bytes::Bytes;
use spire_crypto::keys::Signer;
use spire_crypto::{KeyStore, NodeId};
use spire_sim::{fnv64, Context, Process, ProcessId, Span, Time};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Routing used by the client to reach replicas.
pub enum ClientRouting {
    /// Direct sim links to each replica process.
    Direct(Vec<ProcessId>),
    /// Through a Spines port (payload-level addressing handled elsewhere).
    Spines {
        /// Local overlay port.
        port: spire_spines::SpinesPort,
        /// Per-replica overlay addresses.
        addrs: Vec<spire_spines::OverlayAddr>,
        /// Dissemination mode.
        mode: spire_spines::Dissemination,
    },
}

impl ClientRouting {
    /// Binds the overlay port, if there is one. Call from `on_start`.
    pub fn attach(&self, ctx: &mut Context<'_>) {
        if let ClientRouting::Spines { port, .. } = self {
            port.attach(ctx);
        }
    }

    /// Submits one encoded message to every replica. Over a flooding
    /// overlay that is a single dissemination to the replica group
    /// ([`crate::net::REPLICA_GROUP`]: the replicas at `addrs` are its
    /// members); the routed modes have no groups and send to each address.
    pub fn send_all(&self, ctx: &mut Context<'_>, msg: Bytes) {
        use spire_spines::Dissemination::Flood;
        match self {
            ClientRouting::Direct(replicas) => {
                for pid in replicas {
                    ctx.send(*pid, msg.clone());
                }
            }
            ClientRouting::Spines {
                port, mode: Flood, ..
            } => port.send_group(ctx, crate::net::REPLICA_GROUP, true, msg),
            ClientRouting::Spines { port, addrs, mode } => {
                for addr in addrs {
                    port.send(ctx, *addr, *mode, true, msg.clone());
                }
            }
        }
    }

    /// The Prime frame inside a message that arrived from `from`: the bytes
    /// themselves on direct links, the payload of a delivery from this
    /// port's own daemon on an overlay, `None` for anything else.
    pub fn unwrap(&self, from: ProcessId, bytes: &Bytes) -> Option<Bytes> {
        match self {
            ClientRouting::Direct(_) => Some(bytes.clone()),
            ClientRouting::Spines { port, .. } if from == port.daemon_pid => {
                spire_spines::SpinesPort::decode_deliver(bytes).map(|(_, payload)| payload)
            }
            ClientRouting::Spines { .. } => None,
        }
    }
}

/// The frame replicas accept as client `client`'s operation number `cseq`.
pub fn op_frame(client: ClientId, cseq: u64, payload: Bytes, signer: &Signer) -> Bytes {
    PrimeMsg::Op(ClientOp::signed(client, cseq, payload, signer)).encode()
}

/// What a vote is about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VoteKind {
    /// The result of executing one of the client's operations.
    Reply,
    /// A notification the replicated application pushed to the client.
    Notify,
}

/// One replica's word to a client, decoded but not yet believed: check it
/// with [`ReplicaKeys::authentic`] before counting it.
#[derive(Clone, Debug)]
pub struct Vote {
    /// The replica the frame names as its author.
    pub replica: ReplicaId,
    /// Reply or notification.
    pub kind: VoteKind,
    /// The operation's `cseq`, or the notification's `nseq`.
    pub seq: u64,
    /// The result, or the notification payload.
    pub payload: Bytes,
    /// The frame as decoded: the signature, or the batch attestation, that
    /// has to vouch for `replica`.
    frame: Frame,
}

impl Vote {
    /// The vote a Prime frame carries for `client`, or `None` when the bytes
    /// are anything else (malformed, another message, another client's).
    pub fn decode(bytes: &[u8], client: ClientId) -> Option<Vote> {
        let frame = decode_frame(bytes).ok()?;
        let (Frame::Plain(msg) | Frame::Batched { msg, .. }) = &frame;
        let (replica, to, kind, seq, payload) = match msg {
            PrimeMsg::Reply {
                replica,
                client,
                cseq,
                result,
                ..
            } => (*replica, *client, VoteKind::Reply, *cseq, result.clone()),
            PrimeMsg::Notify {
                replica,
                client,
                nseq,
                payload,
                ..
            } => (*replica, *client, VoteKind::Notify, *nseq, payload.clone()),
            _ => return None,
        };
        (to == client).then_some(Vote {
            replica,
            kind,
            seq,
            payload,
            frame,
        })
    }
}

/// A group's replicas as a verifier sees them: how many there are and
/// where their public keys live.
#[derive(Clone)]
pub struct ReplicaKeys {
    /// The deployment's public-key directory.
    pub keystore: Arc<KeyStore>,
    /// Replica `r` signs under node id `key_base + r`.
    pub key_base: u32,
    /// Number of replicas; ids at or above it name nobody. (Without this
    /// bound `key_base + r` reaches other roles' keys: a client could
    /// sign as "replica" `client_key_base - key_base + its id`.)
    pub n: u32,
    /// Mock-signature mode (must match the replicas').
    pub mock: bool,
}

impl ReplicaKeys {
    /// The author check — the one place a vote is tied to the replica it
    /// names, shared by [`ClientSession`], [`crate::ReplyCert::verify`] and
    /// the cross-shard coordinator. The replica must exist, and either the
    /// plain frame's embedded signature verifies under its key, or the
    /// batch-attested frame was sealed by that same replica and the
    /// attestation (inclusion path + root signature) verifies.
    pub fn authentic(&self, vote: &Vote) -> bool {
        if vote.replica.0 >= self.n {
            return false;
        }
        let node = NodeId(self.key_base + vote.replica.0);
        match &vote.frame {
            Frame::Plain(msg) => msg.verify_sig(&self.keystore, node, self.mock),
            Frame::Batched {
                signer,
                attestation,
                msg_digest,
                ..
            } => {
                *signer == vote.replica
                    && attestation.verify(&self.keystore, node, msg_digest, self.mock)
            }
        }
    }

    /// [`ReplicaKeys::authentic`], metered: `client.verify_ops` counts the
    /// checks made, `client.bad_reply_auth` the votes that failed one.
    pub fn check(&self, ctx: &mut Context<'_>, vote: &Vote) -> bool {
        ctx.count("client.verify_ops", 1);
        let ok = self.authentic(vote);
        if !ok {
            ctx.count("client.bad_reply_auth", 1);
        }
        ok
    }
}

/// Keys a [`QuorumTracker`] remembers per replica (undecided) and overall
/// (decided) before evicting the lowest.
const TRACKED_KEYS: usize = 100_000;

/// Collects per-key votes from replicas and fires once `quorum` of them
/// agree on identical bytes: the one reply tally of every Prime client. A
/// vote may carry evidence `E` (the coordinator keeps raw frames for its
/// certificates, a [`ClientSession`] nothing), returned from exactly the
/// agreeing voters when the key fires.
///
/// After a key fires, votes keep being tallied: if a *different* value
/// later gathers a full quorum for the same key, two disjoint quorums
/// accepted conflicting values — impossible with at most `f` faults, so
/// it is recorded as a conflict and surfaced to the invariant checker
/// via [`QuorumTracker::take_conflicts`].
///
/// Memory is bounded per voter: each replica's undecided votes are capped
/// (its lowest key goes first), so a compromised replica naming keys that
/// never decide grows only its own share and evicts nobody else's vote.
/// Callers pass replica ids below `n` only ([`ReplicaKeys::authentic`]).
#[derive(Clone, Debug, Default)]
pub struct QuorumTracker<E = ()> {
    /// replica -> key -> the payload it voted and its evidence, for keys
    /// still open.
    votes: BTreeMap<u32, BTreeMap<u64, (Vec<u8>, E)>>,
    /// key -> hash of the payload that won, once fired.
    fired: BTreeMap<u64, u64>,
    conflicts: u64,
}

impl<E> QuorumTracker<E> {
    /// Records `replica`'s vote for `payload` on `key`, replacing any
    /// earlier vote of its own there. The first time `quorum` matching
    /// votes exist for `key`, returns the agreed payload and the evidence
    /// of the agreeing voters, in replica order.
    pub fn vote(
        &mut self,
        key: u64,
        replica: u32,
        payload: &[u8],
        evidence: E,
        quorum: usize,
    ) -> Option<(Vec<u8>, Vec<E>)> {
        let mine = self.votes.entry(replica).or_default();
        mine.insert(key, (payload.to_vec(), evidence));
        if mine.len() > TRACKED_KEYS {
            mine.pop_first();
        }
        // Only the payload just voted can have gained a vote.
        let votes = self.votes.values().filter_map(|votes| votes.get(&key));
        if votes.filter(|(p, _)| p == payload).count() < quorum {
            return None;
        }
        let agreeing = self.votes.values_mut().filter_map(|votes| {
            let (p, evidence) = votes.remove(&key)?;
            (p == payload).then_some(evidence)
        });
        let evidence = agreeing.collect();
        if let Some(decided) = self.fired.get(&key) {
            // Already decided: a second quorum on other bytes is a conflict.
            if *decided != fnv64(payload) {
                self.conflicts += 1;
            }
            return None;
        }
        self.fired.insert(key, fnv64(payload));
        if self.fired.len() > TRACKED_KEYS {
            self.fired.pop_first();
        }
        Some((payload.to_vec(), evidence))
    }

    /// True once `key` fired (and has not been evicted since).
    pub fn decided(&self, key: u64) -> bool {
        self.fired.contains_key(&key)
    }

    /// True when this vote cannot change anything: `key` already fired on
    /// these bytes, or `replica` is already counted with them.
    pub fn settled(&self, key: u64, replica: u32, payload: &[u8]) -> bool {
        let counted = self.votes.get(&replica).and_then(|v| v.get(&key));
        self.fired.get(&key) == Some(&fnv64(payload)) || counted.is_some_and(|(p, _)| p == payload)
    }

    /// Drains the count of conflicting quorum decisions observed since
    /// the last call (each is a client-visible safety violation).
    pub fn take_conflicts(&mut self) -> u64 {
        std::mem::take(&mut self.conflicts)
    }
}

/// What a session accepted: `f + 1` replicas, each authenticated, said the
/// same thing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Accepted {
    /// The agreed result of an operation this session submitted.
    Reply {
        /// The operation's sequence number, as [`ClientSession::submit`]
        /// returned it.
        cseq: u64,
        /// The result bytes.
        result: Vec<u8>,
        /// When the operation was submitted.
        sent: Time,
    },
    /// An agreed notification pushed by the replicated application.
    Notify {
        /// The notification's per-client sequence number.
        nseq: u64,
        /// The notification bytes.
        payload: Vec<u8>,
    },
}

/// One client's conversation with a replica group.
pub struct ClientSession {
    id: ClientId,
    signer: Signer,
    routing: ClientRouting,
    keys: ReplicaKeys,
    /// Matching authenticated votes needed: `f + 1`.
    quorum: usize,
    cseq: u64,
    /// Submitted and not yet accepted.
    sent_at: BTreeMap<u64, Time>,
    replies: QuorumTracker,
    notifies: QuorumTracker,
}

impl ClientSession {
    /// A session for client `id` of the group `cfg` describes. `signer`
    /// signs its operations (and says whether the deployment runs on mock
    /// signatures); `keystore` holds the replicas' public keys.
    pub fn new(
        cfg: &PrimeConfig,
        id: ClientId,
        signer: Signer,
        routing: ClientRouting,
        keystore: Arc<KeyStore>,
    ) -> ClientSession {
        ClientSession {
            id,
            keys: ReplicaKeys {
                keystore,
                key_base: cfg.replica_key_base,
                n: cfg.n,
                mock: signer.is_mock(),
            },
            signer,
            routing,
            quorum: (cfg.f + 1) as usize,
            cseq: 0,
            sent_at: BTreeMap::new(),
            replies: QuorumTracker::default(),
            notifies: QuorumTracker::default(),
        }
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// The sequence number the next [`ClientSession::submit`] will use.
    pub fn next_cseq(&self) -> u64 {
        self.cseq + 1
    }

    /// Attaches to the transport. Call from `on_start`.
    pub fn start(&self, ctx: &mut Context<'_>) {
        self.routing.attach(ctx);
    }

    /// Signs `payload` as this client's next operation and sends it to
    /// every replica; returns its sequence number.
    pub fn submit(&mut self, ctx: &mut Context<'_>, payload: Bytes) -> u64 {
        self.cseq += 1;
        let msg = op_frame(self.id, self.cseq, payload, &self.signer);
        self.sent_at.insert(self.cseq, ctx.now());
        self.routing.send_all(ctx, msg);
        self.cseq
    }

    /// Feeds one incoming message. Returns what it completed, if anything:
    /// the `f + 1`-th matching vote on a submitted operation's result or on
    /// a notification.
    ///
    /// A frame counts only if it is addressed to this client and its author
    /// checks out ([`ReplicaKeys::authentic`]). The check is skipped — and
    /// the frame dropped — when the vote could not change anything: its key
    /// already decided on these bytes, or that replica already counted with
    /// them. An honest run therefore verifies `f + 1` votes per decision
    /// and ignores the rest unread. A reply is tallied only for an operation
    /// still outstanding or already decided, so replicas cannot open tally
    /// entries for sequence numbers this client never used.
    pub fn on_message(
        &mut self,
        ctx: &mut Context<'_>,
        from: ProcessId,
        bytes: &Bytes,
    ) -> Option<Accepted> {
        let payload = self.routing.unwrap(from, bytes)?;
        let vote = Vote::decode(&payload, self.id)?;
        let (key, replica) = (vote.seq, vote.replica.0);
        let tracker = match vote.kind {
            VoteKind::Reply => {
                if !self.sent_at.contains_key(&key) && !self.replies.decided(key) {
                    return None;
                }
                &mut self.replies
            }
            VoteKind::Notify => &mut self.notifies,
        };
        if tracker.settled(key, replica, &vote.payload) || !self.keys.check(ctx, &vote) {
            return None;
        }
        let agreed = tracker.vote(key, replica, &vote.payload, (), self.quorum);
        let conflicts = tracker.take_conflicts();
        if conflicts > 0 {
            // Under its historical name: the invariant checker and the
            // report read it for every kind of client.
            ctx.count("scada.conflicting_accept", conflicts);
        }
        let (agreed, _) = agreed?;
        ctx.count("client.quorums", 1);
        Some(match vote.kind {
            VoteKind::Reply => Accepted::Reply {
                cseq: key,
                result: agreed,
                sent: self.sent_at.remove(&key)?,
            },
            VoteKind::Notify => Accepted::Notify {
                nseq: key,
                payload: agreed,
            },
        })
    }
}

impl std::fmt::Debug for ClientSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientSession")
            .field("id", &self.id)
            .field("submitted", &self.cseq)
            .field("outstanding", &self.sent_at.len())
            .finish()
    }
}

const TIMER_SEND: u64 = 1;

/// A workload-driving client process.
///
/// Sends one signed op every `interval` (up to `count`; 0 = unlimited),
/// records end-to-end latency in the metric series `<label>.latency_ms`,
/// and counts accepted ops in `<label>.accepted`.
pub struct TestClient {
    session: ClientSession,
    interval: Span,
    count: u64,
    label: String,
}

impl TestClient {
    /// Creates a client.
    pub fn new(session: ClientSession, interval: Span, count: u64, label: &str) -> TestClient {
        TestClient {
            session,
            interval,
            count,
            label: label.to_string(),
        }
    }
}

impl Process for TestClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.session.start(ctx);
        ctx.set_timer(self.interval, TIMER_SEND);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: ProcessId, bytes: &Bytes) {
        if let Some(Accepted::Reply { sent, .. }) = self.session.on_message(ctx, from, bytes) {
            let latency_ms = ctx.now().since(sent).as_millis_f64();
            ctx.record(&format!("{}.latency_ms", self.label), latency_ms);
            ctx.count(&format!("{}.accepted", self.label), 1);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        if tag == TIMER_SEND && (self.count == 0 || self.session.next_cseq() <= self.count) {
            let mut payload = vec![0u8; 16];
            payload[..8].copy_from_slice(&ctx.now().0.to_le_bytes());
            self.session.submit(ctx, Bytes::from(payload));
            ctx.count(&format!("{}.sent", self.label), 1);
            ctx.set_timer(self.interval, TIMER_SEND);
        }
    }
}

impl std::fmt::Debug for TestClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TestClient")
            .field("session", &self.session)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Effect, RecordingBackend};
    use crate::msg::encode_batched;
    use spire_crypto::{BatchSigner, KeyMaterial};

    #[test]
    fn quorum_tracker_fires_once_at_quorum() {
        let mut t = QuorumTracker::default();
        assert!(t.vote(1, 0, b"x", (), 2).is_none());
        assert_eq!(
            t.vote(1, 1, b"x", (), 2),
            Some((b"x".to_vec(), vec![(); 2]))
        );
        assert!(t.vote(1, 2, b"x", (), 2).is_none(), "must fire only once");
    }

    #[test]
    fn quorum_tracker_requires_matching_payloads() {
        let mut t = QuorumTracker::default();
        assert!(t.vote(1, 0, b"a", (), 2).is_none());
        assert!(t.vote(1, 1, b"b", (), 2).is_none());
        assert_eq!(
            t.vote(1, 2, b"a", (), 2),
            Some((b"a".to_vec(), vec![(); 2]))
        );
    }

    #[test]
    fn quorum_tracker_replica_revote_does_not_double_count() {
        let mut t = QuorumTracker::default();
        assert!(t.vote(1, 0, b"a", (), 2).is_none());
        assert!(t.vote(1, 0, b"a", (), 2).is_none(), "same replica twice");
    }

    /// The evidence handed back is the agreeing voters' own, in replica
    /// order: never a dissenter's, and never that of a vote its replica
    /// has since replaced.
    #[test]
    fn quorum_tracker_returns_evidence_of_exactly_the_agreeing_voters() {
        let mut t = QuorumTracker::default();
        assert!(t.vote(1, 2, b"a", "2a", 2).is_none());
        assert!(t.vote(1, 2, b"b", "2b", 2).is_none(), "replaces 2a");
        assert!(t.vote(1, 1, b"a", "1a", 2).is_none(), "2a no longer counts");
        assert!(t.vote(1, 3, b"c", "3c", 2).is_none());
        let (agreed, evidence) = t.vote(1, 0, b"a", "0a", 2).expect("quorum on a");
        assert_eq!((agreed, evidence), (b"a".to_vec(), vec!["0a", "1a"]));
    }

    #[test]
    fn quorum_tracker_counts_a_second_quorum_on_other_bytes_as_a_conflict() {
        let mut t = QuorumTracker::default();
        t.vote(1, 0, b"a", (), 2);
        assert!(t.vote(1, 1, b"a", (), 2).is_some());
        assert!(t.settled(1, 2, b"a") && !t.settled(1, 2, b"b"));
        t.vote(1, 2, b"b", (), 2);
        assert!(t.settled(1, 2, b"b"), "counted with these bytes");
        assert!(t.vote(1, 3, b"b", (), 2).is_none());
        assert_eq!(t.take_conflicts(), 1);
    }

    /// A million keys that never decide, all from one replica: its share
    /// is capped, and the vote an honest replica cast first is still there
    /// to complete its quorum afterwards.
    #[test]
    fn quorum_tracker_stays_bounded_under_one_replicas_key_flood() {
        let mut t = QuorumTracker::default();
        assert!(t.vote(5, 1, b"honest", (), 2).is_none());
        for key in 0..1_000_000u64 {
            assert!(t.vote(1_000 + key, 0, b"x", (), 2).is_none());
        }
        let held: usize = t.votes.values().map(BTreeMap::len).sum();
        assert_eq!(held, TRACKED_KEYS + 1);
        assert!(t.fired.is_empty());
        assert_eq!(
            t.vote(5, 2, b"honest", (), 2),
            Some((b"honest".to_vec(), vec![(); 2]))
        );
    }

    const ME: ClientId = ClientId(7);

    /// A session of client 7 on direct links to an `f = 1`, `n = 4` group,
    /// over a recording backend.
    struct Bench {
        cfg: PrimeConfig,
        material: KeyMaterial,
        mock: bool,
        session: ClientSession,
        backend: RecordingBackend,
    }

    fn bench(mock: bool) -> Bench {
        let cfg = PrimeConfig::new(1, 0);
        let material = KeyMaterial::new([9u8; 32]);
        let keystore = Arc::new(KeyStore::for_nodes(&material, 3000));
        let signer = Signer::new(
            material.signing_key(NodeId(cfg.client_key_base + ME.0)),
            mock,
        );
        let routing = ClientRouting::Direct((0..cfg.n).map(ProcessId).collect());
        Bench {
            session: ClientSession::new(&cfg, ME, signer, routing, keystore),
            backend: RecordingBackend::new(0),
            cfg,
            material,
            mock,
        }
    }

    impl Bench {
        fn key(&self, node: u32) -> Signer {
            Signer::new(self.material.signing_key(NodeId(node)), self.mock)
        }

        fn replica_key(&self, r: u32) -> Signer {
            self.key(self.cfg.replica_key_base + r)
        }

        fn submit(&mut self) -> u64 {
            let mut ctx = Context::new(&mut self.backend, ProcessId(9));
            self.session.submit(&mut ctx, Bytes::from_static(b"op"))
        }

        fn feed(&mut self, frame: Bytes) -> Option<Accepted> {
            let mut ctx = Context::new(&mut self.backend, ProcessId(9));
            self.session.on_message(&mut ctx, ProcessId(0), &frame)
        }

        fn counter(&self, name: &str) -> u64 {
            self.backend.counters.get(name).copied().unwrap_or(0)
        }

        /// `msg` signed by replica `by`, as a plain frame.
        fn plain(&self, mut msg: PrimeMsg, by: u32) -> Bytes {
            msg.sign(&self.replica_key(by));
            msg.encode()
        }

        /// `msg` (signature left zero) as the only leaf of a batch whose
        /// root replica `by` signed, in an envelope naming `signer`.
        fn batched(&self, msg: &PrimeMsg, by: u32, signer: u32) -> Bytes {
            let payload = msg.encode();
            let mut batcher = BatchSigner::new();
            batcher.push(spire_crypto::digest(&payload));
            let batch = batcher.flush(&self.replica_key(by)).expect("one leaf");
            encode_batched(ReplicaId(signer), &batch.attestation(0), &payload)
        }
    }

    fn reply(replica: u32, client: ClientId, cseq: u64, result: &'static [u8]) -> PrimeMsg {
        PrimeMsg::Reply {
            replica: ReplicaId(replica),
            client,
            cseq,
            result: Bytes::from_static(result),
            sig: [0; 64],
        }
    }

    fn notify(replica: u32, nseq: u64) -> PrimeMsg {
        PrimeMsg::Notify {
            replica: ReplicaId(replica),
            client: ME,
            nseq,
            payload: Bytes::from_static(b"event"),
            sig: [0; 64],
        }
    }

    #[test]
    fn submit_sends_one_signed_op_to_every_replica() {
        for mock in [false, true] {
            let mut b = bench(mock);
            assert_eq!((b.session.next_cseq(), b.submit()), (1, 1));
            let sends: Vec<_> = b.backend.effects.drain(..).collect();
            assert_eq!(sends.len(), 4);
            for (r, effect) in sends.iter().enumerate() {
                let Effect::Send { to, bytes } = effect else {
                    panic!("not a send: {effect:?}");
                };
                assert_eq!(*to, ProcessId(r as u32));
                let Ok(PrimeMsg::Op(op)) = PrimeMsg::decode(bytes) else {
                    panic!("not an op");
                };
                assert_eq!((op.client, op.cseq), (ME, 1));
                assert!(op.verify(&b.session.keys.keystore, b.cfg.client_key_base, mock));
            }
        }
    }

    /// f + 1 plain replies decide; the duplicate in between and the late
    /// one after are dropped without a signature check.
    #[test]
    fn plain_replies_decide_at_f_plus_one_and_only_those_are_verified() {
        for mock in [false, true] {
            let mut b = bench(mock);
            b.backend.now = Time(1_000);
            let cseq = b.submit();
            b.backend.now = Time(5_000);
            let from = |b: &Bench, r| b.plain(reply(r, ME, cseq, b"ok"), r);
            assert_eq!(b.feed(from(&b, 0)), None);
            assert_eq!(b.counter("client.verify_ops"), 1);
            assert_eq!(b.feed(from(&b, 0)), None, "one replica, one vote");
            assert_eq!(b.counter("client.verify_ops"), 1, "duplicate re-verified");
            let accepted = Accepted::Reply {
                cseq,
                result: b"ok".to_vec(),
                sent: Time(1_000),
            };
            assert_eq!(b.feed(from(&b, 1)), Some(accepted));
            assert_eq!(b.feed(from(&b, 2)), None, "decided once");
            assert_eq!(b.counter("client.verify_ops"), 2, "late vote re-verified");
            assert_eq!(b.counter("client.quorums"), 1);
            assert_eq!(b.counter("client.bad_reply_auth"), 0);
        }
    }

    #[test]
    fn batch_attested_votes_count_like_plain_ones() {
        for mock in [false, true] {
            let mut b = bench(mock);
            assert_eq!(b.feed(b.batched(&notify(2, 4), 2, 2)), None);
            let accepted = Accepted::Notify {
                nseq: 4,
                payload: b"event".to_vec(),
            };
            // A notification needs no submission; plain and batched mix.
            assert_eq!(b.feed(b.plain(notify(3, 4), 3)), Some(accepted));
            assert_eq!(b.counter("client.verify_ops"), 2);
            assert_eq!(b.counter("client.bad_reply_auth"), 0);
        }
    }

    /// Frames the session has no business with cost it no verification:
    /// another client's reply, a reply to a sequence number never used,
    /// another message kind, junk.
    #[test]
    fn frames_not_for_this_session_are_dropped_unverified() {
        let mut b = bench(false);
        let cseq = b.submit();
        let others = b.plain(reply(0, ClientId(8), cseq, b"ok"), 0);
        let unsent = b.plain(reply(0, ME, cseq + 1, b"ok"), 0);
        let ping = PrimeMsg::Ping {
            replica: ReplicaId(0),
            nonce: 1,
        };
        for frame in [others, unsent, ping.encode(), Bytes::from_static(b"junk")] {
            assert_eq!(b.feed(frame), None);
        }
        assert_eq!(b.counter("client.verify_ops"), 0);
    }

    /// f + 1 votes under distinct replica ids, each failing the author
    /// check a different way, decide nothing — and a genuine quorum on
    /// other bytes still does, without a conflict.
    #[test]
    fn votes_that_fail_the_author_check_are_counted_and_dropped() {
        for mock in [false, true] {
            let mut b = bench(mock);
            let client0 = b.cfg.client_key_base - b.cfg.replica_key_base;
            let mut as_client = notify(client0, 1);
            as_client.sign(&b.key(b.cfg.client_key_base));
            let forged = [
                notify(2, 1).encode(),          // never signed
                b.plain(notify(3, 1), 0),       // another replica's key
                b.batched(&notify(2, 1), 0, 0), // replica 0's batch naming 2
                b.batched(&notify(3, 1), 0, 3), // envelope names 3, root by 0
                as_client.encode(),             // valid, under a client's key
            ];
            let n = forged.len() as u64;
            for frame in forged {
                assert_eq!(b.feed(frame), None);
            }
            assert_eq!(b.counter("client.bad_reply_auth"), n);
            assert_eq!(b.counter("client.verify_ops"), n);
            assert_eq!(b.feed(b.plain(notify(0, 1), 0)), None);
            assert!(b.feed(b.plain(notify(1, 1), 1)).is_some());
            assert_eq!(b.counter("client.bad_reply_auth"), n);
            assert_eq!(b.counter("scada.conflicting_accept"), 0);
        }
    }
}
