//! An unsigned message counts as a vote from whoever *sent* it, not from
//! whoever it *names*: with session keys installed, a replica-originated
//! unsigned message is accepted only under its claimed sender's link MAC.
//! And on an overlay, a delivery counts only from the replica's own daemons.

use bytes::Bytes;
use spire_crypto::keys::{KeyMaterial, Signer};
use spire_crypto::{KeyStore, NodeId};
use spire_prime::msg::{seal_frame, Matrix};
use spire_prime::replica::TIMER_PROGRESS;
use spire_prime::{
    ByzBehavior, DirectNet, HashChainApp, Input, Inspection, ModelReplica, PrimeConfig, PrimeMsg,
    Replica, ReplicaId, ReplicaNet, SpinesNet,
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

/// A suffix vote for sequence 1 naming `claimed` as its author.
fn suffix_vote(claimed: u32) -> Bytes {
    PrimeMsg::SuffixVote {
        replica: ReplicaId(claimed),
        seq: 1,
        matrix: Matrix::default(),
    }
    .encode()
}

impl Zero {
    fn deliver(&mut self, from: u32, bytes: Bytes) {
        let from = ProcessId(from);
        self.model.step(Time(1_000), Input::Deliver { from, bytes });
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

#[test]
fn one_peer_cannot_cast_suffix_votes_under_other_names() {
    let mut zero = replica_zero(true);
    // Replica 3 seals two votes naming replicas 1 and 2: `f + 1` distinct
    // *claimed* voters, one real sender.
    for claimed in [1, 2] {
        let sealed = seal_frame(ReplicaId(3), &zero.keys[3], &suffix_vote(claimed));
        zero.deliver(3, sealed);
    }
    assert_eq!((zero.commit_aru(), zero.spoofed()), (0, 2));
    // Unsealed copies bypass the MAC, not the rule.
    for claimed in [1, 2] {
        zero.deliver(3, suffix_vote(claimed));
    }
    assert_eq!((zero.commit_aru(), zero.spoofed()), (0, 4));
    // The same two votes, each under its author's own link MAC, are the
    // `f + 1` agreement the catch-up path is built on.
    for author in [1, 2] {
        let key = zero.keys[author as usize];
        let sealed = seal_frame(ReplicaId(author), &key, &suffix_vote(author));
        zero.deliver(author, sealed);
    }
    assert_eq!((zero.commit_aru(), zero.spoofed()), (1, 4));
}

/// The stated limit of the `session_macs = false` ablation: without link
/// keys there is nothing to hold an unsigned message's sender to.
#[test]
fn without_session_keys_unsigned_messages_are_taken_at_their_word() {
    let mut zero = replica_zero(false);
    let before = zero.model.state_digest();
    zero.deliver(3, suffix_vote(1));
    // One vote short of adoption is still state the explorer must tell apart.
    assert_ne!(zero.model.state_digest(), before);
    assert_eq!(zero.commit_aru(), 0);
    zero.deliver(3, suffix_vote(2));
    assert_eq!((zero.commit_aru(), zero.spoofed()), (1, 0));
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
    let mut zero = replica_zero_on(Box::new(net), false);
    let delivery = |claimed: u32| {
        OverlayMsg::ClientDeliver {
            src: OverlayId(0),
            src_port: 1,
            payload: suffix_vote(claimed),
        }
        .encode()
    };
    let before = zero.model.state_digest();
    zero.deliver(stranger, delivery(1));
    zero.deliver(stranger, delivery(2));
    assert_eq!(
        zero.model.state_digest(),
        before,
        "a stranger's frame moved state"
    );
    assert_eq!(zero.commit_aru(), 0);
    // The same two frames, one from each of the replica's daemons.
    zero.deliver(internal_daemon, delivery(1));
    zero.deliver(external_daemon, delivery(2));
    assert_eq!(zero.commit_aru(), 1);
}
