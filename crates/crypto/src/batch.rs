//! Amortized authentication: one signature per batch of outgoing messages.
//!
//! Prime (and therefore Spire) meets the grid's latency bound only because
//! replicas do not sign every protocol message individually. Instead, a
//! sender accumulates the digests of the messages it wants to send during
//! one event-handling step, builds a Merkle tree over them, and signs the
//! *root* once. Each message then ships with a small inclusion proof
//! ([`BatchAttestation`]): the signed root plus `log2(batch)` sibling
//! digests. Receivers recompute the root from the message digest and the
//! path, and verify the one root signature — so a batch of 16 messages
//! costs one sign instead of sixteen.
//!
//! Verifier-side, a replica amortizes the root signature check further by
//! caching verified roots: all messages of one batch share the same signed
//! root, so after the first check the remaining proofs cost only hashing.
//!
//! # Examples
//!
//! ```
//! use spire_crypto::batch::BatchSigner;
//! use spire_crypto::keys::{KeyMaterial, KeyStore, NodeId, Signer};
//!
//! let material = KeyMaterial::new([0u8; 32]);
//! let store = KeyStore::for_nodes(&material, 4);
//! let signer = Signer::new(material.signing_key(NodeId(1)), false);
//!
//! let mut batch = BatchSigner::new();
//! let i_a = batch.push(spire_crypto::digest(b"msg-a"));
//! let i_b = batch.push(spire_crypto::digest(b"msg-b"));
//! let signed = batch.flush(&signer).unwrap();
//! let att = signed.attestation(i_b);
//! assert!(att.verify(&store, NodeId(1), &spire_crypto::digest(b"msg-b"), false));
//! assert!(!att.verify(&store, NodeId(1), &spire_crypto::digest(b"msg-a"), false));
//! # let _ = i_a;
//! ```

use crate::keys::{verify64, KeyStore, NodeId, Signer};
use crate::merkle::{self, Digest, MerkleTree};

/// Domain-separation prefix for batch-root signatures, so a signed root can
/// never be confused with the signing bytes of any protocol message.
pub const ROOT_DOMAIN: &[u8; 16] = b"spire-batch-root";

/// The canonical bytes a batch-root signature covers.
pub fn root_signing_bytes(root: &Digest) -> [u8; 48] {
    let mut out = [0u8; 48];
    out[..16].copy_from_slice(ROOT_DOMAIN);
    out[16..].copy_from_slice(root);
    out
}

/// Accumulates outgoing message digests for one amortized signature.
///
/// Push the digest of each message queued during an event-handling step,
/// then [`flush`](BatchSigner::flush) once to sign the Merkle root and mint
/// per-message [`BatchAttestation`]s.
#[derive(Debug, Default)]
pub struct BatchSigner {
    leaves: Vec<Digest>,
}

impl BatchSigner {
    /// Creates an empty batch.
    pub fn new() -> BatchSigner {
        BatchSigner::default()
    }

    /// Adds a message digest to the pending batch, returning its leaf index.
    pub fn push(&mut self, msg_digest: Digest) -> usize {
        self.leaves.push(msg_digest);
        self.leaves.len() - 1
    }

    /// Number of pending digests.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// True if no digests are pending.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Signs the Merkle root over all pending digests with one signature
    /// and resets the batch. Returns `None` if the batch is empty.
    pub fn flush(&mut self, signer: &Signer) -> Option<SignedBatch> {
        if self.leaves.is_empty() {
            return None;
        }
        let tree = MerkleTree::build(self.leaves.iter().map(|d| d.as_slice()));
        let root_sig = signer.sign64(&root_signing_bytes(&tree.root()));
        self.leaves.clear();
        Some(SignedBatch { tree, root_sig })
    }
}

/// A flushed batch: the Merkle tree over message digests plus the one root
/// signature. Mint per-message attestations with
/// [`attestation`](SignedBatch::attestation).
#[derive(Clone, Debug)]
pub struct SignedBatch {
    tree: MerkleTree,
    root_sig: [u8; 64],
}

impl SignedBatch {
    /// Number of messages covered by the signature.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// A signed batch always covers at least one message.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The signed root.
    pub fn root(&self) -> Digest {
        self.tree.root()
    }

    /// Builds the attestation for the message at `leaf_index`.
    ///
    /// # Panics
    ///
    /// Panics if `leaf_index` is out of range.
    pub fn attestation(&self, leaf_index: usize) -> BatchAttestation {
        let proof = self.tree.prove(leaf_index).expect("leaf index in range");
        BatchAttestation {
            leaf_index: leaf_index as u32,
            leaf_count: self.tree.len() as u32,
            path: proof.path_digests(),
            root_sig: self.root_sig,
        }
    }
}

/// What one batched message carries instead of its own signature: the
/// shared root signature plus an inclusion path tying the message digest to
/// the signed root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchAttestation {
    /// Position of the message digest among the batch leaves.
    pub leaf_index: u32,
    /// Total leaves in the batch (fixes the tree shape).
    pub leaf_count: u32,
    /// Sibling digests bottom-up; positions recomputed from index/count.
    pub path: Vec<Digest>,
    /// Signature over [`root_signing_bytes`] of the Merkle root.
    pub root_sig: [u8; 64],
}

impl BatchAttestation {
    /// Recomputes the root this attestation binds `msg_digest` to, or
    /// `None` if the path is structurally invalid (wrong length or index).
    pub fn compute_root(&self, msg_digest: &Digest) -> Option<Digest> {
        merkle::compute_root(
            self.leaf_index as usize,
            self.leaf_count as usize,
            &merkle::leaf_hash(msg_digest),
            &self.path,
        )
    }

    /// Verifies that `signer` signed a batch containing `msg_digest` at the
    /// claimed position.
    pub fn verify(
        &self,
        store: &KeyStore,
        signer: NodeId,
        msg_digest: &Digest,
        mock: bool,
    ) -> bool {
        match self.compute_root(msg_digest) {
            Some(root) => verify64(
                store,
                signer,
                &root_signing_bytes(&root),
                &self.root_sig,
                mock,
            ),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyMaterial;

    fn setup() -> (KeyStore, Signer, Signer) {
        let material = KeyMaterial::new([9u8; 32]);
        let store = KeyStore::for_nodes(&material, 6);
        let s1 = Signer::new(material.signing_key(NodeId(1)), false);
        let s2 = Signer::new(material.signing_key(NodeId(2)), false);
        (store, s1, s2)
    }

    fn digests(n: usize) -> Vec<Digest> {
        (0..n)
            .map(|i| crate::digest(format!("msg-{i}").as_bytes()))
            .collect()
    }

    #[test]
    fn batch_roundtrip_all_sizes() {
        let (store, s1, _) = setup();
        for n in 1..=17 {
            let ds = digests(n);
            let mut batch = BatchSigner::new();
            for d in &ds {
                batch.push(*d);
            }
            let signed = batch.flush(&s1).expect("non-empty");
            assert!(batch.is_empty(), "flush resets");
            assert_eq!(signed.len(), n);
            for (i, d) in ds.iter().enumerate() {
                let att = signed.attestation(i);
                assert!(att.verify(&store, NodeId(1), d, false), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn empty_flush_is_none() {
        let (_, s1, _) = setup();
        assert!(BatchSigner::new().flush(&s1).is_none());
    }

    #[test]
    fn mock_mode_roundtrip() {
        let material = KeyMaterial::new([9u8; 32]);
        let store = KeyStore::for_nodes(&material, 6);
        let signer = Signer::new(material.signing_key(NodeId(1)), true);
        let d = crate::digest(b"m");
        let mut batch = BatchSigner::new();
        batch.push(d);
        let att = batch.flush(&signer).unwrap().attestation(0);
        assert!(att.verify(&store, NodeId(1), &d, true));
        // Mock attestations do not pass real verification.
        assert!(!att.verify(&store, NodeId(1), &d, false));
    }

    /// Satellite coverage: flipped leaf, truncated path, wrong index, and a
    /// signature from the wrong replica must all reject.
    #[test]
    fn tampered_attestations_reject() {
        let (store, s1, s2) = setup();
        let ds = digests(8);
        let mut batch = BatchSigner::new();
        for d in &ds {
            batch.push(*d);
        }
        let signed = batch.flush(&s1).unwrap();
        let att = signed.attestation(3);
        assert!(att.verify(&store, NodeId(1), &ds[3], false));

        // Flipped leaf: digest of a message not in the batch (or a bitflip).
        let mut flipped = ds[3];
        flipped[0] ^= 1;
        assert!(!att.verify(&store, NodeId(1), &flipped, false));
        assert!(!att.verify(&store, NodeId(1), &ds[4], false));

        // Truncated path.
        let mut short = att.clone();
        short.path.pop();
        assert!(!short.verify(&store, NodeId(1), &ds[3], false));

        // Wrong index: sibling order flips, so the recomputed root differs.
        let mut wrong_idx = att.clone();
        wrong_idx.leaf_index = 2;
        assert!(!wrong_idx.verify(&store, NodeId(1), &ds[3], false));
        let mut oob = att.clone();
        oob.leaf_index = 8;
        assert!(!oob.verify(&store, NodeId(1), &ds[3], false));
        let mut wrong_count = att.clone();
        wrong_count.leaf_count = 16;
        assert!(!wrong_count.verify(&store, NodeId(1), &ds[3], false));

        // Signature attributed to (or forged by) the wrong replica.
        assert!(!att.verify(&store, NodeId(2), &ds[3], false));
        let mut batch2 = BatchSigner::new();
        for d in &ds {
            batch2.push(*d);
        }
        let att2 = batch2.flush(&s2).unwrap().attestation(3);
        assert!(!att2.verify(&store, NodeId(1), &ds[3], false));

        // Corrupted root signature.
        let mut bad_sig = att.clone();
        bad_sig.root_sig[10] ^= 1;
        assert!(!bad_sig.verify(&store, NodeId(1), &ds[3], false));
    }

    #[test]
    fn root_domain_separates_from_messages() {
        // A signed batch root must not verify as a plain 48-byte message
        // without the domain prefix, and vice versa.
        let (store, s1, _) = setup();
        let d = crate::digest(b"m");
        let mut batch = BatchSigner::new();
        batch.push(d);
        let signed = batch.flush(&s1).unwrap();
        let att = signed.attestation(0);
        assert!(!verify64(
            &store,
            NodeId(1),
            &signed.root(),
            &att.root_sig,
            false
        ));
    }
}
