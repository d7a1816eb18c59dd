//! Key management for a Spire deployment.
//!
//! Every protocol participant (replica, proxy, HMI, Spines daemon) holds an
//! Ed25519 identity key; every Spines link additionally shares a symmetric
//! HMAC key. In the real system these are provisioned offline by the
//! operator; here a deterministic [`KeyMaterial`] generator plays that role
//! so simulations are reproducible.

use crate::ed25519::{SigningKey, VerifyingKey};
use crate::sha2::Sha256;
use std::collections::BTreeMap;

/// Logical identity of a protocol participant.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// Deterministic key provisioning for a whole deployment.
///
/// Derives all keys from a master seed, mimicking an offline provisioning
/// ceremony. A given `(seed, node)` pair always yields the same keys, which
/// keeps simulation runs reproducible.
#[derive(Clone, Debug)]
pub struct KeyMaterial {
    master_seed: [u8; 32],
}

impl KeyMaterial {
    /// Creates key material from a master seed.
    pub fn new(master_seed: [u8; 32]) -> KeyMaterial {
        KeyMaterial { master_seed }
    }

    /// Derives the signing key for `node` (epoch 0).
    pub fn signing_key(&self, node: NodeId) -> SigningKey {
        self.signing_key_epoch(node, 0)
    }

    /// Derives the signing key for `node` at a given key epoch.
    ///
    /// Proactive recovery refreshes a replica's session key by bumping the
    /// epoch, so keys stolen during a compromise become useless after the
    /// replica is rejuvenated.
    pub fn signing_key_epoch(&self, node: NodeId, epoch: u64) -> SigningKey {
        let mut h = Sha256::new();
        h.update(b"spire-signing-key");
        h.update(&self.master_seed);
        h.update(&node.0.to_le_bytes());
        h.update(&epoch.to_le_bytes());
        SigningKey::from_seed(&h.finalize())
    }

    /// Derives the symmetric HMAC key for the link between two nodes
    /// (order-independent).
    pub fn link_key(&self, a: NodeId, b: NodeId) -> [u8; 32] {
        let (lo, hi) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        let mut h = Sha256::new();
        h.update(b"spire-link-key");
        h.update(&self.master_seed);
        h.update(&lo.0.to_le_bytes());
        h.update(&hi.0.to_le_bytes());
        h.finalize()
    }
}

/// Public-key directory distributed to every participant.
#[derive(Clone, Debug, Default)]
pub struct KeyStore {
    keys: BTreeMap<NodeId, VerifyingKey>,
}

impl KeyStore {
    /// Creates an empty key store.
    pub fn new() -> KeyStore {
        KeyStore::default()
    }

    /// Builds the directory for nodes `0..n` from shared key material.
    pub fn for_nodes(material: &KeyMaterial, n: u32) -> KeyStore {
        KeyStore::for_ids(material, (0..n).map(NodeId))
    }

    /// Builds the directory for exactly the given nodes. Deriving a public
    /// key costs a scalar multiplication (~80 us), so a deployment
    /// provisions the identities it assigns, not an id range around them;
    /// a signature under any other id fails [`KeyStore::verify`].
    pub fn for_ids(material: &KeyMaterial, ids: impl IntoIterator<Item = NodeId>) -> KeyStore {
        let mut store = KeyStore::new();
        for node in ids {
            store.insert(node, material.signing_key(node).verifying_key());
        }
        store
    }

    /// Registers (or replaces) a node's public key.
    pub fn insert(&mut self, node: NodeId, key: VerifyingKey) {
        self.keys.insert(node, key);
    }

    /// Looks up a node's public key.
    pub fn get(&self, node: NodeId) -> Option<&VerifyingKey> {
        self.keys.get(&node)
    }

    /// Verifies a signature attributed to `node`.
    pub fn verify(&self, node: NodeId, message: &[u8], sig: &crate::ed25519::Signature) -> bool {
        match self.keys.get(&node) {
            Some(key) => key.verify(message, sig),
            None => false,
        }
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if no keys are registered.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// Computes a simulation-only "mock signature": `SHA-256(pk || msg)`
/// repeated to 64 bytes.
///
/// Mock signatures have the same interface and message-binding behaviour as
/// real ones but **no unforgeability** — any process that knows the public
/// key can produce them. They exist so that macro-scale experiments (hours
/// of simulated traffic) do not spend wall-clock time on Ed25519 while the
/// protocol logic exercised stays identical. All adversarial *tests* use
/// real signatures.
pub fn mock_sign64(pk: &VerifyingKey, msg: &[u8]) -> [u8; 64] {
    let h = crate::digest_parts(&[b"mock-sig", &pk.to_bytes(), msg]);
    let mut out = [0u8; 64];
    out[..32].copy_from_slice(&h);
    out[32..].copy_from_slice(&h);
    out
}

/// Verifies a 64-byte signature for `node`, in either real or mock mode.
pub fn verify64(store: &KeyStore, node: NodeId, msg: &[u8], sig: &[u8; 64], mock: bool) -> bool {
    match store.get(node) {
        Some(pk) => {
            if mock {
                crate::hmac::constant_time_eq(&mock_sign64(pk, msg), sig)
            } else {
                pk.verify(msg, &crate::ed25519::Signature::from_bytes(*sig))
            }
        }
        None => false,
    }
}

/// A signing handle that produces real or mock signatures.
#[derive(Clone)]
pub struct Signer {
    key: SigningKey,
    mock: bool,
}

impl std::fmt::Debug for Signer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Signer(mock={})", self.mock)
    }
}

impl Signer {
    /// Wraps a signing key; `mock` selects the scheme (see [`mock_sign64`]).
    pub fn new(key: SigningKey, mock: bool) -> Signer {
        Signer { key, mock }
    }

    /// Signs a message, returning 64 signature bytes.
    pub fn sign64(&self, msg: &[u8]) -> [u8; 64] {
        if self.mock {
            mock_sign64(&self.key.verifying_key(), msg)
        } else {
            self.key.sign(msg).to_bytes()
        }
    }

    /// The corresponding public key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.key.verifying_key()
    }

    /// Whether this signer produces mock signatures.
    pub fn is_mock(&self) -> bool {
        self.mock
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic() {
        let m1 = KeyMaterial::new([1u8; 32]);
        let m2 = KeyMaterial::new([1u8; 32]);
        assert_eq!(
            m1.signing_key(NodeId(3)).verifying_key(),
            m2.signing_key(NodeId(3)).verifying_key()
        );
        assert_eq!(
            m1.link_key(NodeId(1), NodeId(2)),
            m2.link_key(NodeId(1), NodeId(2))
        );
    }

    #[test]
    fn distinct_nodes_distinct_keys() {
        let m = KeyMaterial::new([2u8; 32]);
        assert_ne!(
            m.signing_key(NodeId(0)).verifying_key(),
            m.signing_key(NodeId(1)).verifying_key()
        );
    }

    #[test]
    fn epoch_refresh_changes_key() {
        let m = KeyMaterial::new([3u8; 32]);
        assert_ne!(
            m.signing_key_epoch(NodeId(0), 0).verifying_key(),
            m.signing_key_epoch(NodeId(0), 1).verifying_key()
        );
    }

    #[test]
    fn link_key_is_symmetric() {
        let m = KeyMaterial::new([4u8; 32]);
        assert_eq!(
            m.link_key(NodeId(5), NodeId(9)),
            m.link_key(NodeId(9), NodeId(5))
        );
        assert_ne!(
            m.link_key(NodeId(5), NodeId(9)),
            m.link_key(NodeId(5), NodeId(8))
        );
    }

    #[test]
    fn signer_modes_roundtrip() {
        let m = KeyMaterial::new([6u8; 32]);
        let store = KeyStore::for_nodes(&m, 4);
        for mock in [false, true] {
            let signer = Signer::new(m.signing_key(NodeId(1)), mock);
            let sig = signer.sign64(b"msg");
            assert!(verify64(&store, NodeId(1), b"msg", &sig, mock));
            assert!(!verify64(&store, NodeId(1), b"other", &sig, mock));
            assert!(!verify64(&store, NodeId(2), b"msg", &sig, mock));
            assert!(!verify64(&store, NodeId(99), b"msg", &sig, mock));
            let mut bad = sig;
            bad[5] ^= 1;
            assert!(!verify64(&store, NodeId(1), b"msg", &bad, mock));
        }
        // Modes are not interchangeable.
        let signer = Signer::new(m.signing_key(NodeId(1)), true);
        let sig = signer.sign64(b"msg");
        assert!(!verify64(&store, NodeId(1), b"msg", &sig, false));
    }

    #[test]
    fn keystore_verify() {
        let m = KeyMaterial::new([5u8; 32]);
        let store = KeyStore::for_nodes(&m, 4);
        assert_eq!(store.len(), 4);
        let sk = m.signing_key(NodeId(2));
        let sig = sk.sign(b"hello");
        assert!(store.verify(NodeId(2), b"hello", &sig));
        assert!(!store.verify(NodeId(3), b"hello", &sig));
        assert!(!store.verify(NodeId(99), b"hello", &sig));
    }
}
