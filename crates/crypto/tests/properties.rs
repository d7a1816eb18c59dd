//! Property-based tests of the cryptographic primitives.

use proptest::prelude::*;
use spire_crypto::ed25519::SigningKey;
use spire_crypto::hmac::{hmac_sha256, verify_hmac_sha256};
use spire_crypto::keys::{mock_sign64, verify64, KeyMaterial, KeyStore, NodeId, Signer};
use spire_crypto::merkle::MerkleTree;
use spire_crypto::sha2::{Sha256, Sha512};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..4096),
                                         split in 0usize..4096) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn sha512_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..4096),
                                         split in 0usize..4096) {
        let split = split.min(data.len());
        let mut h = Sha512::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize().to_vec(), Sha512::digest(&data).to_vec());
    }

    #[test]
    fn distinct_inputs_distinct_digests(a in proptest::collection::vec(any::<u8>(), 0..256),
                                        b in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assume!(a != b);
        prop_assert_ne!(Sha256::digest(&a), Sha256::digest(&b));
    }

    #[test]
    fn hmac_roundtrip_and_tamper(key in proptest::collection::vec(any::<u8>(), 0..128),
                                 msg in proptest::collection::vec(any::<u8>(), 0..512),
                                 flip in 0usize..512) {
        let tag = hmac_sha256(&key, &msg);
        prop_assert!(verify_hmac_sha256(&key, &msg, &tag));
        if !msg.is_empty() {
            let mut tampered = msg.clone();
            let idx = flip % tampered.len();
            tampered[idx] ^= 1;
            prop_assert!(!verify_hmac_sha256(&key, &tampered, &tag));
        }
    }

    #[test]
    fn ed25519_sign_verify_roundtrip(seed in any::<[u8; 32]>(),
                                     msg in proptest::collection::vec(any::<u8>(), 0..256)) {
        let key = SigningKey::from_seed(&seed);
        let sig = key.sign(&msg);
        prop_assert!(key.verifying_key().verify(&msg, &sig));
    }

    #[test]
    fn ed25519_rejects_tampered_message(seed in any::<[u8; 32]>(),
                                        msg in proptest::collection::vec(any::<u8>(), 1..256),
                                        flip in 0usize..256) {
        let key = SigningKey::from_seed(&seed);
        let sig = key.sign(&msg);
        let mut tampered = msg.clone();
        let idx = flip % tampered.len();
        tampered[idx] ^= 0x40;
        prop_assert!(!key.verifying_key().verify(&tampered, &sig));
    }

    #[test]
    fn ed25519_cross_key_rejection(seed_a in any::<[u8; 32]>(), seed_b in any::<[u8; 32]>(),
                                   msg in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assume!(seed_a != seed_b);
        let a = SigningKey::from_seed(&seed_a);
        let b = SigningKey::from_seed(&seed_b);
        let sig = a.sign(&msg);
        prop_assert!(!b.verifying_key().verify(&msg, &sig));
    }

    #[test]
    fn merkle_all_proofs_verify(leaves in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..32), 1..40)) {
        let tree = MerkleTree::build(leaves.iter().map(|l| l.as_slice()));
        for (i, leaf) in leaves.iter().enumerate() {
            let proof = tree.prove(i).unwrap();
            prop_assert!(proof.verify(&tree.root(), leaf));
        }
    }

    #[test]
    fn merkle_proof_rejects_other_leaves(leaves in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 1..16), 2..20), idx in 0usize..20) {
        let tree = MerkleTree::build(leaves.iter().map(|l| l.as_slice()));
        let idx = idx % leaves.len();
        let other = (idx + 1) % leaves.len();
        prop_assume!(leaves[idx] != leaves[other]);
        let proof = tree.prove(idx).unwrap();
        prop_assert!(!proof.verify(&tree.root(), &leaves[other]));
    }

    #[test]
    fn signer_modes_bind_messages(seed in any::<u64>(),
                                  msg in proptest::collection::vec(any::<u8>(), 0..128),
                                  mock in any::<bool>()) {
        let material = KeyMaterial::new([9u8; 32]);
        let store = KeyStore::for_nodes(&material, 4);
        let node = NodeId((seed % 4) as u32);
        let signer = Signer::new(material.signing_key(node), mock);
        let sig = signer.sign64(&msg);
        prop_assert!(verify64(&store, node, &msg, &sig, mock));
        let mut other = msg.clone();
        other.push(0);
        prop_assert!(!verify64(&store, node, &other, &sig, mock));
    }
}

#[test]
fn mock_signature_is_deterministic() {
    let material = KeyMaterial::new([1u8; 32]);
    let pk = material.signing_key(NodeId(0)).verifying_key();
    assert_eq!(mock_sign64(&pk, b"x"), mock_sign64(&pk, b"x"));
    assert_ne!(mock_sign64(&pk, b"x"), mock_sign64(&pk, b"y"));
}
