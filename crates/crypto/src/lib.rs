//! Cryptographic primitives for the Spire reproduction, implemented from
//! scratch on top of the standard library only.
//!
//! The original Spire system (Babay et al., DSN 2018) authenticates all
//! replica-to-replica and proxy-to-replica traffic with RSA signatures via
//! OpenSSL and authenticates Spines overlay links with HMACs. This crate
//! provides the equivalent primitives:
//!
//! * [`sha2`] — SHA-256 / SHA-512 (FIPS 180-4), with round constants
//!   *computed* from their definitions rather than transcribed.
//! * [`hmac`] — HMAC-SHA256 for overlay link authentication.
//! * [`ed25519`] — Ed25519 signatures (RFC 8032). The reproduction signs
//!   with Ed25519 wherever Spire signed with RSA; there is no RSA here.
//! * [`merkle`] — Merkle trees for state-transfer integrity and signature
//!   amortization over message batches.
//! * [`batch`] — amortized batch signing: one signature per Merkle root of
//!   outgoing message digests, plus per-message inclusion attestations and
//!   bounded verification caches.
//! * [`erasure`] — GF(256) Reed-Solomon erasure codes, as Prime/Spire use
//!   for bandwidth-efficient reconciliation and state transfer.
//! * [`keys`] — deterministic key provisioning and the public-key directory.
//!
//! # Examples
//!
//! Sign and verify a protocol message:
//!
//! ```
//! use spire_crypto::keys::{KeyMaterial, KeyStore, NodeId};
//!
//! let material = KeyMaterial::new([0u8; 32]);
//! let store = KeyStore::for_nodes(&material, 6);
//! let signer = material.signing_key(NodeId(2));
//! let sig = signer.sign(b"PO-REQUEST 17");
//! assert!(store.verify(NodeId(2), b"PO-REQUEST 17", &sig));
//! ```

pub mod batch;
pub mod ed25519;
pub mod erasure;
pub mod hmac;
pub mod keys;
pub mod merkle;
pub mod sha2;

pub use batch::{BatchAttestation, BatchSigner, SignedBatch};
pub use ed25519::{Signature, SigningKey, VerifyingKey};
pub use keys::{KeyMaterial, KeyStore, NodeId};
pub use merkle::Digest;

/// Convenience: SHA-256 digest of `data`.
pub fn digest(data: &[u8]) -> Digest {
    sha2::Sha256::digest(data)
}

/// Convenience: SHA-256 over the concatenation of several byte slices.
pub fn digest_parts(parts: &[&[u8]]) -> Digest {
    let mut h = sha2::Sha256::new();
    for part in parts {
        h.update(part);
    }
    h.finalize()
}
