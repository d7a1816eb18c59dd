//! The group seal: a replica's broadcast leaves once, under one
//! authenticator envelope, and recipient `r` accepts it exactly when slot
//! `r` is the MAC the sender's unicast seal to `r` would carry. What is not
//! the same bytes for every peer — an equivocator's split — still goes per
//! peer under the unicast seal.

use bytes::Bytes;
use spire_crypto::keys::{KeyMaterial, Signer};
use spire_crypto::{KeyStore, NodeId};
use spire_prime::msg::{
    decode_group_sealed, seal_frame, seal_frame_for_all, AruVector, SummaryRow,
    AUTHENTICATOR_FRAME_TAG, MAX_AUTHENTICATOR_SLOTS, SEALED_FRAME_TAG,
};
use spire_prime::replica::TIMER_PO_FLUSH;
use spire_prime::{
    ByzBehavior, ClientId, ClientOp, DirectNet, Effect, HashChainApp, Input, ModelReplica,
    PrimeConfig, PrimeMsg, Replica, ReplicaId,
};
use spire_sim::{ProcessId, Time, WireError};
use std::sync::Arc;

fn material() -> KeyMaterial {
    KeyMaterial::new([7u8; 32])
}

fn cfg() -> PrimeConfig {
    PrimeConfig::new(1, 0)
}

fn node(r: u32) -> NodeId {
    NodeId(cfg().replica_key_base + r)
}

fn link_key(a: u32, b: u32) -> [u8; 32] {
    material().link_key(node(a), node(b))
}

/// Replica `me` of an `f = 1` cluster behind the model seam, started, with
/// session keys installed.
fn replica(me: u32, behavior: ByzBehavior) -> ModelReplica {
    let cfg = cfg();
    let net = DirectNet {
        replicas: (0..cfg.n).map(ProcessId).collect(),
        clients: Default::default(),
    };
    let keys = (0..cfg.n).map(|peer| link_key(me, peer)).collect();
    let ids = (0..cfg.n).map(node).chain([NodeId(cfg.client_key_base)]);
    let replica = Replica::new(
        cfg,
        ReplicaId(me),
        behavior,
        Arc::new(KeyStore::for_ids(&material(), ids)),
        Signer::new(material().signing_key(node(me)), true),
        Box::new(net),
        Box::new(HashChainApp::new()),
        false,
    )
    .with_session_keys(keys);
    let mut model = ModelReplica::new(replica, ProcessId(me), 1);
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

fn counter(model: &ModelReplica, name: &str) -> u64 {
    model.counters().get(name).copied().unwrap_or(0)
}

/// Replica 1 pre-orders one client operation: the PO-Request it broadcasts,
/// as the one group-sealed envelope every peer is sent.
fn broadcast_from_one() -> Bytes {
    let mut one = replica(1, ByzBehavior::Honest);
    let client = cfg().client_key_base;
    let signer = Signer::new(material().signing_key(NodeId(client)), true);
    let op = ClientOp::signed(ClientId(0), 1, Bytes::from_static(b"op"), &signer);
    let from = ProcessId(99);
    let bytes = PrimeMsg::Op(op).encode();
    one.step(Time(1_000), Input::Deliver { from, bytes });
    let tag = TIMER_PO_FLUSH;
    let out = sends(one.step(Time(2_000), Input::Timer { tag }));
    // One envelope, the same for peers 0, 2 and 3, for the MAC work of the
    // three unicast seals it replaces.
    let to: Vec<u32> = out.iter().map(|(to, _)| *to).collect();
    assert_eq!(to, [0, 2, 3]);
    assert!(out.iter().all(|(_, bytes)| *bytes == out[0].1));
    assert_eq!(out[0].1[0], AUTHENTICATOR_FRAME_TAG);
    assert_eq!(counter(&one, "prime.mac_ops"), 3);
    out[0].1.clone()
}

/// Delivers `envelope` to a fresh replica `to` as coming from replica 1;
/// returns `(frames it sent in response, mac_auth_hits, mac_fail)`.
fn deliver(to: u32, envelope: &Bytes) -> (usize, u64, u64) {
    let mut peer = replica(to, ByzBehavior::Honest);
    let input = Input::Deliver {
        from: ProcessId(1),
        bytes: envelope.clone(),
    };
    let out = sends(peer.step(Time(3_000), input));
    let hits = counter(&peer, "prime.mac_auth_hits");
    (out.len(), hits, counter(&peer, "prime.mac_fail"))
}

/// Byte offset of MAC slot `r`: `[tag][sender u32][n u8]` come first.
fn slot(r: usize) -> usize {
    6 + 32 * r
}

fn flipped(envelope: &Bytes, at: usize) -> Bytes {
    let mut bytes = envelope.to_vec();
    bytes[at] ^= 0x01;
    Bytes::from(bytes)
}

#[test]
fn every_peer_accepts_the_one_envelope_on_its_own_slot() {
    let envelope = broadcast_from_one();
    let parsed = decode_group_sealed(&envelope)
        .expect("parses")
        .expect("group-sealed");
    assert_eq!((parsed.sender, parsed.macs.len()), (ReplicaId(1), 4));
    for r in [0, 2, 3] {
        // Slot r is exactly the unicast seal's MAC for r, and r acts on the
        // PO-Request (it acknowledges it to everyone).
        assert!(parsed.verify(ReplicaId(r), &link_key(1, r)));
        let unicast = seal_frame(ReplicaId(1), &link_key(1, r), parsed.inner);
        assert_eq!(unicast[5..37], parsed.macs[r as usize]);
        let (sent, hits, fails) = deliver(r, &envelope);
        assert!(sent > 0, "replica {r} ignored an authentic broadcast");
        assert_eq!((hits, fails), (1, 0));
    }
}

#[test]
fn a_flipped_bit_in_the_own_slot_or_the_inner_frame_fails_the_mac_and_delivers_nothing() {
    let envelope = broadcast_from_one();
    let inner_at = envelope.len() - 1;
    for at in [slot(2), slot(2) + 31, inner_at] {
        assert_eq!(deliver(2, &flipped(&envelope, at)), (0, 0, 1), "byte {at}");
    }
    // Another recipient's slot is not replica 2's concern...
    let (sent, hits, fails) = deliver(2, &flipped(&envelope, slot(3)));
    assert!(sent > 0);
    assert_eq!((hits, fails), (1, 0));
    // ...and a valid MAC in the wrong slot is worth nothing: slots 2 and 3
    // swapped authenticate to neither.
    let mut swapped = envelope.to_vec();
    let (two, three) = (slot(2), slot(3));
    swapped[two..two + 32].copy_from_slice(&envelope[three..three + 32]);
    swapped[three..three + 32].copy_from_slice(&envelope[two..two + 32]);
    let swapped = Bytes::from(swapped);
    assert_eq!(deliver(2, &swapped), (0, 0, 1));
    assert_eq!(deliver(3, &swapped), (0, 0, 1));
}

#[test]
fn an_envelope_claiming_another_sender_or_missing_the_recipients_slot_is_rejected() {
    let inner = PrimeMsg::ReconReq {
        replica: ReplicaId(1),
        origin: ReplicaId(0),
        po_seq: 1,
    }
    .encode();
    // Replica 3 seals with its own keys but claims to be replica 1.
    let keys_of_three: Vec<[u8; 32]> = (0..4).map(|peer| link_key(3, peer)).collect();
    let forged = seal_frame_for_all(ReplicaId(1), &keys_of_three, &inner);
    assert_eq!(deliver(2, &forged), (0, 0, 1));
    // Two slots only: nothing for replica 2 to check.
    let keys_of_one: Vec<[u8; 32]> = (0..2).map(|peer| link_key(1, peer)).collect();
    let short = seal_frame_for_all(ReplicaId(1), &keys_of_one, &inner);
    assert_eq!(deliver(2, &short), (0, 0, 1));
}

#[test]
fn a_slot_count_over_the_cap_is_rejected_by_the_decoder() {
    let at_cap = vec![[1u8; 32]; MAX_AUTHENTICATOR_SLOTS];
    let over = vec![[1u8; 32]; MAX_AUTHENTICATOR_SLOTS + 1];
    assert!(decode_group_sealed(&seal_frame_for_all(ReplicaId(0), &at_cap, b"x")).is_ok());
    assert_eq!(
        decode_group_sealed(&seal_frame_for_all(ReplicaId(0), &over, b"x")).unwrap_err(),
        WireError::OversizedLength(65)
    );
}

#[test]
fn an_equivocating_leaders_split_broadcast_goes_per_peer_under_the_unicast_seal() {
    let mut leader = replica(0, ByzBehavior::Equivocate);
    // One fresh summary row is all the leader needs to propose.
    let signer = Signer::new(material().signing_key(node(1)), true);
    let row = SummaryRow::signed(ReplicaId(1), 1, AruVector::zeros(4), &signer);
    let input = Input::Deliver {
        from: ProcessId(1),
        bytes: seal_frame(
            ReplicaId(1),
            &link_key(0, 1),
            &PrimeMsg::PoSummary(row).encode(),
        ),
    };
    let out = sends(leader.step(Time(1_000), input));
    let to: Vec<u32> = out.iter().map(|(to, _)| *to).collect();
    assert_eq!(to, [1, 2, 3]);
    assert!(out.iter().all(|(_, bytes)| bytes[0] == SEALED_FRAME_TAG));
    // Odd and even peers were told different things.
    let inner = |i: usize| {
        spire_prime::msg::decode_sealed(&out[i].1)
            .unwrap()
            .unwrap()
            .inner
    };
    assert_eq!(inner(0), inner(2));
    assert_ne!(inner(0), inner(1));
}
