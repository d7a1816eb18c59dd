//! With batch signing on, a PO-Summary leaves with the batch flush: an ARU
//! advance while a flush is pending goes out in the same group send as the
//! flushed votes, and the summary tick sends nothing while that flush is
//! pending.

use bytes::Bytes;
use spire_crypto::keys::{KeyMaterial, Signer};
use spire_crypto::{KeyStore, NodeId};
use spire_prime::msg::{decode_frame, decode_group_sealed, decode_multi, Frame};
use spire_prime::msg::{AruVector, AUTHENTICATOR_FRAME_TAG};
use spire_prime::replica::{TIMER_BATCH, TIMER_SUMMARY};
use spire_prime::{
    ByzBehavior, ClientId, ClientOp, DirectNet, Effect, HashChainApp, Input, ModelReplica,
    PrimeConfig, PrimeMsg, Replica, ReplicaId,
};
use spire_sim::{ProcessId, Time};
use std::sync::Arc;

fn material() -> KeyMaterial {
    KeyMaterial::new([7u8; 32])
}

fn cfg() -> PrimeConfig {
    let mut cfg = PrimeConfig::new(1, 0);
    cfg.batch_sign = true;
    cfg
}

fn signer(node: u32) -> Signer {
    Signer::new(material().signing_key(NodeId(node)), true)
}

/// Replica 1 (not the view-0 leader, so it proposes nothing) of an `f = 1`
/// group, started, with session keys installed.
fn replica_one() -> ModelReplica {
    let cfg = cfg();
    let node = |r: u32| NodeId(cfg.replica_key_base + r);
    let net = DirectNet {
        replicas: (0..cfg.n).map(ProcessId).collect(),
        clients: Default::default(),
    };
    let keys = (0..cfg.n)
        .map(|peer| material().link_key(node(1), node(peer)))
        .collect();
    let ids = (0..cfg.n).map(node).chain([NodeId(cfg.client_key_base)]);
    let replica = Replica::new(
        cfg.clone(),
        ReplicaId(1),
        ByzBehavior::Honest,
        Arc::new(KeyStore::for_ids(&material(), ids)),
        signer(node(1).0),
        Box::new(net),
        Box::new(HashChainApp::new()),
        false,
    )
    .with_session_keys(keys);
    let mut model = ModelReplica::new(replica, ProcessId(1), 1);
    model.step(Time::ZERO, Input::Start);
    model
}

fn sends(effects: Vec<Effect>) -> Vec<(u32, Bytes)> {
    let send = |effect| match effect {
        Effect::Send { to, bytes } => Some((to.0, bytes)),
        _ => None,
    };
    effects.into_iter().filter_map(send).collect()
}

fn deliver(model: &mut ModelReplica, at: u64, msg: &PrimeMsg) -> Vec<Effect> {
    let from = ProcessId(0);
    let bytes = msg.encode();
    model.step(Time(at), Input::Deliver { from, bytes })
}

fn fire(model: &mut ModelReplica, at: u64, tag: u64) -> Vec<(u32, Bytes)> {
    sends(model.step(Time(at), Input::Timer { tag }))
}

#[test]
fn an_aru_advance_during_a_pending_flush_leaves_in_the_flushs_group_send() {
    let cfg = cfg();
    let mut one = replica_one();
    // Replica 2 pre-orders one client op; we ack it, which queues the ack
    // and arms the batch flush.
    let op = ClientOp::signed(
        ClientId(0),
        1,
        Bytes::from_static(b"op"),
        &signer(cfg.client_key_base),
    );
    let mut request = PrimeMsg::PoRequest {
        origin: ReplicaId(2),
        po_seq: 1,
        ops: vec![op],
        sig: [0; 64],
    };
    request.sign(&signer(cfg.replica_key_base + 2));
    let effects = deliver(&mut one, 1_000, &request);
    let armed = |e: &Effect| matches!(e, Effect::SetTimer { tag, .. } if *tag == TIMER_BATCH);
    assert!(effects.iter().any(armed), "the ack waits for the flush");
    assert!(sends(effects).is_empty());

    // Replica 3's ack certifies (2, 1): origin, us and it make 2f + k + 1.
    let mut ack = PrimeMsg::PoAck {
        replica: ReplicaId(3),
        origin: ReplicaId(2),
        po_seq: 1,
        digest: spire_crypto::digest(&request.signing_bytes()),
        sig: [0; 64],
    };
    ack.sign(&signer(cfg.replica_key_base + 3));
    assert!(sends(deliver(&mut one, 1_200, &ack)).is_empty());

    // The summary tick leaves the new row to the pending flush.
    assert!(fire(&mut one, 1_500, TIMER_SUMMARY).is_empty());
    assert_eq!(one.counters().get("prime.summaries_sent"), None);

    // The flush: one group-sealed envelope, the same for every peer,
    // carrying our attested ack and then the summary row.
    let out = fire(&mut one, 3_000, TIMER_BATCH);
    let to: Vec<u32> = out.iter().map(|(to, _)| *to).collect();
    assert_eq!(to, [0, 2, 3]);
    assert!(out.iter().all(|(_, bytes)| *bytes == out[0].1));
    assert_eq!(out[0].1[0], AUTHENTICATOR_FRAME_TAG);
    let sealed = decode_group_sealed(&out[0].1).unwrap().unwrap();
    let container = Bytes::copy_from_slice(sealed.inner);
    let frames = decode_multi(&container)
        .unwrap()
        .expect("a multi-frame container");
    let frames: Vec<Frame> = frames.iter().map(|f| decode_frame(f).unwrap()).collect();
    let [Frame::Batched { signer, msg, .. }, Frame::Plain(PrimeMsg::PoSummary(row))] = &frames[..]
    else {
        panic!("expected the attested ack then the summary, got {frames:?}");
    };
    assert_eq!(*signer, ReplicaId(1));
    assert!(matches!(msg, PrimeMsg::PoAck { po_seq: 1, .. }));
    assert_eq!((row.replica, row.sseq), (ReplicaId(1), 1));
    assert_eq!(row.vector, AruVector(vec![0, 0, 1, 0]));
    assert_eq!(one.counters().get("prime.summaries_sent"), Some(&1));
}
