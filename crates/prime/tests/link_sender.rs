//! An unsigned message speaks for whoever *sent* it, not for whoever it
//! *names*: with session keys installed, a replica-originated unsigned
//! message is accepted only under its claimed sender's link MAC. A commit
//! certificate names no sender and counts for what its frames prove,
//! whoever serves it. And on an overlay, a delivery counts only from the
//! replica's own daemons.

use bytes::Bytes;
use spire_crypto::batch::BatchSigner;
use spire_crypto::keys::{KeyMaterial, Signer};
use spire_crypto::{Digest, KeyStore, NodeId};
use spire_prime::msg::{
    decode_enclosed, decode_multi, decode_sealed, encode_batched, encode_multi, seal_frame, Matrix,
};
use spire_prime::replica::TIMER_PROGRESS;
use spire_prime::{
    ByzBehavior, DirectNet, Effect, HashChainApp, Input, Inspection, ModelReplica, PrimeConfig,
    PrimeMsg, Replica, ReplicaId, ReplicaNet, SpinesNet,
};
use spire_sim::{ProcessId, Time};
use spire_spines::{OverlayAddr, OverlayId, OverlayMsg, SpinesPort};
use std::sync::Arc;

/// Replica 0 of an `f = 1` cluster behind the model seam, with its
/// inspection registry and its link key for each peer (installed when
/// `session_keys`).
struct Zero {
    model: ModelReplica,
    inspection: Inspection,
    keys: Vec<[u8; 32]>,
}

fn replica_zero(session_keys: bool) -> Zero {
    let net = DirectNet {
        replicas: (0..PrimeConfig::new(1, 0).n).map(ProcessId).collect(),
        clients: Default::default(),
    };
    replica_zero_on(Box::new(net), session_keys)
}

fn replica_zero_on(net: Box<dyn ReplicaNet>, session_keys: bool) -> Zero {
    let cfg = PrimeConfig::new(1, 0);
    let material = KeyMaterial::new([7u8; 32]);
    let node = |r: u32| NodeId(cfg.replica_key_base + r);
    let keys: Vec<[u8; 32]> = (0..cfg.n)
        .map(|peer| material.link_key(node(0), node(peer)))
        .collect();
    let mut replica = Replica::new(
        cfg.clone(),
        ReplicaId(0),
        ByzBehavior::Honest,
        Arc::new(KeyStore::for_nodes(&material, 3000)),
        Signer::new(material.signing_key(node(0)), true),
        net,
        Box::new(HashChainApp::new()),
        false,
    );
    let inspection = Inspection::new();
    replica = replica.with_inspection(inspection.clone());
    if session_keys {
        replica = replica.with_session_keys(keys.clone());
    }
    let mut model = ModelReplica::new(replica, ProcessId(0), 1);
    model.step(Time::ZERO, Input::Start);
    Zero {
        model,
        inspection,
        keys,
    }
}

/// Replica `r`'s signing key.
fn signer(r: u32) -> Signer {
    let node = NodeId(PrimeConfig::new(1, 0).replica_key_base + r);
    Signer::new(KeyMaterial::new([7u8; 32]).signing_key(node), true)
}

/// The digest the certificates below vote for: sequence 1's matrix.
fn voted() -> Digest {
    Matrix::default().digest()
}

/// Replica `r`'s Commit of `(view, seq, digest)`, unsigned.
fn vote(r: u32, view: u64, seq: u64, digest: Digest) -> PrimeMsg {
    PrimeMsg::Commit {
        replica: ReplicaId(r),
        view,
        seq,
        digest,
        sig: [0; 64],
    }
}

/// Replica `r`'s signed Commit for sequence 1 in view 0, as a plain frame.
fn commit(r: u32) -> Bytes {
    signed(vote(r, 0, 1, voted()), r)
}

fn signed(mut msg: PrimeMsg, r: u32) -> Bytes {
    msg.sign(&signer(r));
    msg.encode()
}

/// Replica `r`'s Commit for sequence 1, batch-attested under a root that
/// replica `root_signer` signed.
fn attested(r: u32, root_signer: u32) -> Bytes {
    let payload = vote(r, 0, 1, voted()).encode();
    let mut batch = BatchSigner::new();
    batch.push(spire_crypto::digest(&payload));
    let signed = batch.flush(&signer(root_signer)).expect("one leaf");
    encode_batched(ReplicaId(r), &signed.attestation(0), &payload)
}

/// Sequence 1's matrix of view 0 with `frames` as its certificate.
fn cert(frames: Vec<Bytes>) -> Bytes {
    PrimeMsg::CommitCert {
        seq: 1,
        view: 0,
        matrix: Matrix::default(),
        frames,
    }
    .encode()
}

/// Sequence `seq`'s matrix of view 0, certified by the signed Commits of
/// replicas 1, 2 and 3.
fn certified(seq: u64) -> Bytes {
    PrimeMsg::CommitCert {
        seq,
        view: 0,
        matrix: Matrix::default(),
        frames: (1..=3)
            .map(|r| signed(vote(r, 0, seq, voted()), r))
            .collect(),
    }
    .encode()
}

impl Zero {
    fn deliver(&mut self, from: u32, bytes: Bytes) -> Vec<Effect> {
        let from = ProcessId(from);
        self.model.step(Time(1_000), Input::Deliver { from, bytes })
    }

    /// The committed prefix, as the progress timer publishes it.
    fn commit_aru(&mut self) -> u64 {
        let tag = TIMER_PROGRESS;
        self.model.step(Time(1_000), Input::Timer { tag });
        self.inspection.records()[&0].commit_aru
    }

    fn spoofed(&self) -> u64 {
        let counters = self.model.counters();
        counters.get("prime.bad_link_sender").copied().unwrap_or(0)
    }
}

/// With `2f + k + 1 = 3` (n = 4), a certificate that falls one frame
/// short of three distinct valid voters is not adopted, whatever the
/// shortfall is made of — and replica 3's own link MAC, sealing it, adds
/// nothing.
#[test]
fn a_commit_certificate_short_of_a_quorum_is_not_adopted() {
    let mut zero = replica_zero(true);
    let key = zero.keys[3];
    let two = || vec![commit(1), attested(2, 2)];
    let with = |bad: Bytes| {
        let mut frames = two();
        frames.push(bad);
        frames
    };
    let short = [
        two(),
        with(commit(1)),
        with(attested(1, 1)),
        with(signed(vote(3, 1, 1, voted()), 3)),
        with(signed(vote(3, 0, 1, [9; 32]), 3)),
        with(signed(vote(3, 0, 2, voted()), 3)),
        with(signed(vote(3, 0, 1, voted()), 2)),
        with(attested(3, 2)),
        with(encode_multi(&[commit(3)])),
        with(seal_frame(ReplicaId(3), &key, &commit(3))),
    ];
    for frames in short {
        zero.deliver(3, seal_frame(ReplicaId(3), &key, &cert(frames)));
        assert_eq!(zero.commit_aru(), 0);
    }
    assert_eq!(zero.spoofed(), 0, "a certificate names no sender");
}

/// A certificate of three distinct voters' frames, plain or
/// batch-attested, is adopted from one responder, with session keys and
/// without.
#[test]
fn a_commit_certificate_is_adopted_from_a_single_responder() {
    for session_keys in [true, false] {
        let mut zero = replica_zero(session_keys);
        let frames = vec![commit(1), attested(2, 2), commit(3)];
        let bytes = cert(frames);
        let bytes = match session_keys {
            true => seal_frame(ReplicaId(3), &zero.keys[3], &bytes),
            false => bytes,
        };
        zero.deliver(3, bytes);
        assert_eq!(zero.commit_aru(), 1, "session keys: {session_keys}");
    }
}

/// Replica 3's Commit carries no signature, so only its link MAC vouches
/// for it, yet it counts toward replica 0's commit of sequence 1. Replica
/// 2's Commit arrives after the commit and joins the certificate, so the
/// certificate replica 0 serves still holds three frames that verify on
/// their own, and a replica that never saw sequence 1 adopts it.
#[test]
fn a_commit_counted_under_a_link_mac_alone_does_not_spoil_the_certificate() {
    let mut zero = replica_zero(true);
    let sealed = |zero: &Zero, r: u32, bytes: Bytes| {
        seal_frame(ReplicaId(r), &zero.keys[r as usize], &bytes)
    };
    let pre_prepare = PrimeMsg::PrePrepare {
        view: 0,
        seq: 1,
        matrix: Matrix::default(),
        sig: [0; 64],
    };
    zero.deliver(1, sealed(&zero, 1, signed(pre_prepare, 0)));
    for r in [1, 2] {
        let prepare = PrimeMsg::Prepare {
            replica: ReplicaId(r),
            view: 0,
            seq: 1,
            digest: voted(),
            sig: [0; 64],
        };
        zero.deliver(r, sealed(&zero, r, signed(prepare, r)));
    }
    zero.deliver(3, sealed(&zero, 3, vote(3, 0, 1, voted()).encode()));
    zero.deliver(1, sealed(&zero, 1, commit(1)));
    assert_eq!(zero.commit_aru(), 1, "committed with replica 3's vote");
    zero.deliver(2, sealed(&zero, 2, commit(2)));

    let request = PrimeMsg::StateReq {
        replica: ReplicaId(1),
        have_seq: 0,
        commit_aru: 0,
        nonce: 0,
        sig: [0; 64],
    };
    let effects = zero.deliver(1, sealed(&zero, 1, signed(request, 1)));
    let [Effect::Send { bytes, .. }] = &effects[..] else {
        panic!("one reply, got {effects:?}");
    };
    let inner = decode_sealed(bytes).expect("sealed").expect("sealed");
    let container = Bytes::copy_from_slice(inner.inner);
    let parts = decode_multi(&container).expect("container");
    let [meta, served] = &parts.expect("an answer and a certificate")[..] else {
        panic!("an answer and a certificate");
    };
    let meta = PrimeMsg::decode(meta);
    assert!(matches!(
        meta,
        Ok(PrimeMsg::StateMeta { commit_aru: 1, .. })
    ));
    let served = served.clone();
    let Ok(PrimeMsg::CommitCert { frames, .. }) = PrimeMsg::decode(&served) else {
        panic!("a commit certificate");
    };
    let voters = frames
        .iter()
        .map(|f| decode_enclosed(f).ok()?.claimed_sender());
    let voters: Vec<_> = voters.map(|r| r.map(|r| r.0)).collect();
    assert_eq!(
        voters,
        [Some(0), Some(1), Some(2)],
        "a quorum that verifies"
    );

    let mut fresh = replica_zero(true);
    fresh.deliver(3, sealed(&fresh, 3, served));
    assert_eq!(fresh.commit_aru(), 1);
}

/// A responder starts the certificates it serves above the requester's
/// commit point, which the signed request carries: the requester holds
/// every commit up to it already.
#[test]
fn a_responder_serves_no_certificate_at_or_below_the_requesters_commit_point() {
    let mut zero = replica_zero(false);
    for seq in 1..=3 {
        zero.deliver(3, certified(seq));
    }
    assert_eq!(zero.commit_aru(), 3);
    for (commit_aru, served) in [(0, &[1, 2, 3][..]), (2, &[3]), (3, &[])] {
        let request = PrimeMsg::StateReq {
            replica: ReplicaId(1),
            have_seq: 0,
            commit_aru,
            nonce: 0,
            sig: [0; 64],
        };
        let mut seqs = Vec::new();
        for effect in zero.deliver(1, signed(request, 1)) {
            let Effect::Send { to, bytes } = effect else {
                continue;
            };
            assert_eq!(to, ProcessId(1));
            let parts = decode_multi(&bytes).expect("frames");
            for part in parts.unwrap_or_else(|| vec![bytes.clone()]) {
                if let Ok(PrimeMsg::CommitCert { seq, .. }) = PrimeMsg::decode(&part) {
                    seqs.push(seq);
                }
            }
        }
        assert_eq!(seqs, served, "requester at commit point {commit_aru}");
    }
}

/// The stated limit of the `session_macs = false` ablation: without link
/// keys there is nothing to hold an unsigned message's sender to. A Ping
/// naming replica 1 is answered to replica 1, whoever sent it.
#[test]
fn without_session_keys_unsigned_messages_are_taken_at_their_word() {
    let ping = PrimeMsg::Ping {
        replica: ReplicaId(1),
        nonce: 7,
    }
    .encode();
    for session_keys in [true, false] {
        let mut zero = replica_zero(session_keys);
        let bytes = match session_keys {
            true => seal_frame(ReplicaId(3), &zero.keys[3], &ping),
            false => ping.clone(),
        };
        let answered = zero
            .deliver(3, bytes)
            .iter()
            .any(|effect| matches!(effect, Effect::Send { to, .. } if *to == ProcessId(1)));
        assert_eq!(answered, !session_keys);
        assert_eq!(zero.spoofed(), u64::from(session_keys));
    }
}

/// `SpinesNet::unwrap` takes a `ClientDeliver` from the internal and the
/// external daemon it is attached to and from no other process, as
/// `ClientRouting::unwrap` does on the client side.
#[test]
fn an_overlay_delivery_counts_only_from_the_replicas_own_daemons() {
    let (internal_daemon, external_daemon, stranger) = (50, 51, 52);
    let addr = OverlayAddr {
        node: OverlayId(0),
        port: 1,
    };
    let net = SpinesNet {
        internal: SpinesPort::new(ProcessId(internal_daemon), addr),
        replica_addrs: vec![addr; 4],
        external: Some(SpinesPort::new(ProcessId(external_daemon), addr)),
        client_addrs: Default::default(),
    };
    let mut zero = replica_zero_on(Box::new(net.clone()), false);
    let delivery = || {
        OverlayMsg::ClientDeliver {
            src: OverlayId(0),
            src_port: 1,
            payload: cert(vec![commit(1), commit(2), commit(3)]),
        }
        .encode()
    };
    let before = zero.model.state_digest();
    zero.deliver(stranger, delivery());
    assert_eq!(
        zero.model.state_digest(),
        before,
        "a stranger's frame moved state"
    );
    assert_eq!(zero.commit_aru(), 0);
    // The same frame from each of the replica's daemons.
    for daemon in [internal_daemon, external_daemon] {
        let mut zero = replica_zero_on(Box::new(net.clone()), false);
        zero.deliver(daemon, delivery());
        assert_eq!(zero.commit_aru(), 1);
    }
}
