//! Portable reply certificates: proof that a Prime group ordered and
//! executed an operation with a given result.
//!
//! A client that collects `f + 1` replies carrying the same result knows
//! the group decided it, but that knowledge is local. A [`ReplyCert`]
//! packages the raw reply frames so a *third party* (another replication
//! group, an auditor) can re-verify the quorum offline: each frame is
//! either a plain `Reply` whose embedded signature checks out, or a
//! batch-attested `Reply` whose Merkle inclusion proof ties it to a signed
//! batch root (under batch signing the embedded signature field is zero,
//! so the raw frame — attestation included — is the only portable proof).
//!
//! This is the external-certificate hook used by the cross-shard
//! coordinator (`spire-shard`): the coordinator group orders a `Prepare`,
//! the coordinator client certifies the f+1 identical prepare votes, and
//! participant groups verify the certificate before ordering `Commit`.

use bytes::Bytes;
use spire_sim::{impl_wire, Counted, Wire, WireError};

use crate::client::{QuorumTracker, ReplicaKeys, Vote, VoteKind};
use crate::config::ClientId;

/// Upper bound on frames carried by one certificate (a quorum needs only
/// `f + 1`; anything larger is a malformed or hostile encoding).
pub const MAX_CERT_FRAMES: usize = 64;

/// An `f + 1` reply certificate: the agreed result plus the raw reply
/// frames (exactly as read off the wire) that attest to it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplyCert {
    /// The result all counted replies must carry.
    pub result: Bytes,
    /// Raw reply frames: plain (embedded signature) or batch-attested.
    pub frames: Vec<Bytes>,
}

// `frames` travels with a one-byte count, capped on decode.
impl_wire!(struct ReplyCert { result, frames as Counted<u8, MAX_CERT_FRAMES> });

impl ReplyCert {
    /// Verifies the certificate: at least `f + 1` *distinct* replicas of
    /// the issuing group (`keys`) produced an authentic `Reply` to `client`
    /// carrying exactly `self.result` — the same author check a client
    /// session applies to each vote ([`ReplicaKeys::authentic`]).
    /// Unparseable, mismatched, or badly-signed frames are skipped rather
    /// than fatal — an attacker padding a valid certificate with junk
    /// must not invalidate it.
    pub fn verify(&self, keys: &ReplicaKeys, client: ClientId, f: u32) -> bool {
        let mut tally = QuorumTracker::default();
        let quorum = f as usize + 1;
        self.frames
            .iter()
            .filter_map(|raw| Vote::decode(raw, client))
            .filter(|v| v.kind == VoteKind::Reply && v.payload == self.result)
            .filter(|v| keys.authentic(v))
            .any(|v| tally.vote(0, v.replica.0, &v.payload, (), quorum).is_some())
    }

    /// Encodes to standalone canonical bytes.
    pub fn encode(&self) -> Bytes {
        self.to_wire(256).finish()
    }

    /// Decodes standalone canonical bytes.
    pub fn decode(bytes: &[u8]) -> Result<ReplyCert, WireError> {
        ReplyCert::decode_all(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReplicaId;
    use crate::msg::PrimeMsg;
    use spire_crypto::keys::{KeyMaterial, Signer};
    use spire_crypto::{KeyStore, NodeId};
    use spire_sim::WireWriter;
    use std::sync::Arc;

    const BASE: u32 = 1000;

    fn store(n: u32) -> (KeyMaterial, ReplicaKeys) {
        let material = KeyMaterial::new([9u8; 32]);
        let keys = ReplicaKeys {
            keystore: Arc::new(KeyStore::for_nodes(&material, n)),
            key_base: BASE,
            n: 4,
            mock: true,
        };
        (material, keys)
    }

    fn signed_reply(material: &KeyMaterial, replica: u32, result: &[u8]) -> Bytes {
        let signer = Signer::new(material.signing_key(NodeId(BASE + replica)), true);
        let mut msg = PrimeMsg::Reply {
            replica: ReplicaId(replica),
            client: ClientId(7),
            cseq: 1,
            result: Bytes::copy_from_slice(result),
            sig: [0; 64],
        };
        let mut scratch = WireWriter::new();
        msg.sign_with(&signer, &mut scratch);
        msg.encode()
    }

    #[test]
    fn roundtrip() {
        let cert = ReplyCert {
            result: Bytes::from_static(b"ok"),
            frames: vec![Bytes::from_static(b"a"), Bytes::from_static(b"bb")],
        };
        let decoded = ReplyCert::decode(&cert.encode()).unwrap();
        assert_eq!(decoded, cert);
    }

    #[test]
    fn quorum_of_plain_replies_verifies() {
        let (material, keys) = store(2048);
        let cert = ReplyCert {
            result: Bytes::from_static(b"ok"),
            frames: (0..2).map(|r| signed_reply(&material, r, b"ok")).collect(),
        };
        assert!(cert.verify(&keys, ClientId(7), 1));
    }

    /// Signatures that verify under keys the store holds — a client's, at
    /// `BASE + 1000` — count for nobody: those ids are past the group.
    #[test]
    fn ids_past_the_group_size_name_no_replica() {
        let (material, keys) = store(2048);
        let frames = (1000..1002).map(|r| signed_reply(&material, r, b"ok"));
        let cert = ReplyCert {
            result: Bytes::from_static(b"ok"),
            frames: frames.collect(),
        };
        assert!(!cert.verify(&keys, ClientId(7), 1));
    }

    #[test]
    fn duplicate_replicas_do_not_count_twice() {
        let (material, keys) = store(2048);
        let frame = signed_reply(&material, 0, b"ok");
        let cert = ReplyCert {
            result: Bytes::from_static(b"ok"),
            frames: vec![frame.clone(), frame],
        };
        assert!(!cert.verify(&keys, ClientId(7), 1));
    }

    #[test]
    fn mismatched_result_rejected() {
        let (material, keys) = store(2048);
        let cert = ReplyCert {
            result: Bytes::from_static(b"other"),
            frames: (0..2).map(|r| signed_reply(&material, r, b"ok")).collect(),
        };
        assert!(!cert.verify(&keys, ClientId(7), 1));
    }

    #[test]
    fn junk_frames_are_skipped_not_fatal() {
        let (material, keys) = store(2048);
        let mut frames = vec![Bytes::from_static(&[0xde, 0xad])];
        frames.extend((0..2).map(|r| signed_reply(&material, r, b"ok")));
        let cert = ReplyCert {
            result: Bytes::from_static(b"ok"),
            frames,
        };
        assert!(cert.verify(&keys, ClientId(7), 1));
    }
}
