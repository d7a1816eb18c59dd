//! The replicated application interface and simple reference applications.

use crate::config::ClientId;
use spire_crypto::Digest;
use spire_sim::{impl_wire, Wire, WireError};

/// A deterministic outbound message produced by executing an operation,
/// pushed by every replica to a client (e.g. a supervisory command sent to
/// an RTU proxy). Receivers act once `f + 1` replicas push matching
/// notifications.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Notification {
    /// Target client (proxy or HMI).
    pub target: ClientId,
    /// Deterministic per-target sequence number (assigned by the app).
    pub nseq: u64,
    /// Opaque payload.
    pub payload: Vec<u8>,
}

/// The outcome of executing one operation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecResult {
    /// Reply bytes sent to the submitting client.
    pub reply: Vec<u8>,
    /// Additional outbound notifications (e.g. commands to field devices).
    pub notifications: Vec<Notification>,
}

impl ExecResult {
    /// A plain reply with no notifications.
    pub fn reply(reply: Vec<u8>) -> ExecResult {
        ExecResult {
            reply,
            notifications: Vec::new(),
        }
    }
}

/// A deterministic state machine replicated by Prime.
///
/// Implementations **must** be deterministic: identical op sequences applied
/// to identical states must yield identical results, snapshots, digests and
/// notifications on every replica, or safety checking will (correctly) flag
/// divergence.
pub trait Application: Send {
    /// Executes an operation, returning the reply for the submitting client
    /// and any outbound notifications.
    fn execute(&mut self, op: &[u8]) -> ExecResult;

    /// Classifies an operation for tracing (e.g. `"scada.command"`). Only
    /// called when tracing is enabled; `None` leaves the op unlabelled.
    fn classify(&self, _op: &[u8]) -> Option<&'static str> {
        None
    }

    /// Serializes the full state.
    fn snapshot(&self) -> Vec<u8>;

    /// Replaces the state from a snapshot, all or nothing: on `Err` the
    /// state is exactly what it was.
    fn restore(&mut self, snapshot: &[u8]) -> Result<(), WireError>;

    /// A digest of the current state (for checkpoints and divergence
    /// detection): by default, of its snapshot.
    fn digest(&self) -> Digest {
        spire_crypto::digest(&self.snapshot())
    }
}

/// A trivial counter application used in tests: any op increments the
/// counter by the first payload byte and returns the new value.
#[derive(Clone, Debug, Default)]
pub struct CounterApp {
    /// Current count.
    pub value: u64,
}

impl_wire!(struct CounterApp { value });

impl Application for CounterApp {
    fn execute(&mut self, op: &[u8]) -> ExecResult {
        self.value = self
            .value
            .wrapping_add(op.first().copied().unwrap_or(1) as u64);
        ExecResult::reply(self.value.to_le_bytes().to_vec())
    }

    fn snapshot(&self) -> Vec<u8> {
        self.to_wire(8).into_vec()
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), WireError> {
        *self = CounterApp::decode_all(snapshot)?;
        Ok(())
    }
}

/// An order-sensitive register application: ops are appended to a hash
/// chain, so any divergence in execution order changes the digest. Useful
/// for safety tests.
#[derive(Clone, Debug, Default)]
pub struct HashChainApp {
    head: Digest,
    len: u64,
}

impl_wire!(struct HashChainApp { head, len });

impl HashChainApp {
    /// Creates an empty chain.
    pub fn new() -> HashChainApp {
        HashChainApp::default()
    }

    /// Number of executed ops.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if nothing was executed yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The chain head.
    pub fn head(&self) -> Digest {
        self.head
    }
}

impl Application for HashChainApp {
    fn execute(&mut self, op: &[u8]) -> ExecResult {
        self.head = spire_crypto::digest_parts(&[&self.head, op]);
        self.len += 1;
        ExecResult::reply(self.head.to_vec())
    }

    fn snapshot(&self) -> Vec<u8> {
        self.to_wire(40).into_vec()
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), WireError> {
        *self = HashChainApp::decode_all(snapshot)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_snapshot_roundtrip() {
        let mut app = CounterApp::default();
        app.execute(&[5]);
        app.execute(&[7]);
        assert_eq!(app.value, 12);
        let snap = app.snapshot();
        let mut other = CounterApp::default();
        other.restore(&snap).unwrap();
        assert_eq!(other.value, 12);
        assert_eq!(other.digest(), app.digest());
    }

    /// Every prefix of a snapshot is refused and changes nothing (both
    /// apps indexed the input and panicked on a short one).
    fn rejects_every_prefix(app: &mut dyn Application, snapshot: &[u8]) {
        let before = app.digest();
        for len in 0..snapshot.len() {
            assert!(app.restore(&snapshot[..len]).is_err(), "{len} bytes");
            assert_eq!(app.digest(), before);
        }
    }

    #[test]
    fn short_snapshots_are_refused() {
        let mut counter = CounterApp { value: 3 };
        rejects_every_prefix(&mut counter, &CounterApp { value: 9 }.snapshot());
        let mut chain = HashChainApp::new();
        chain.execute(b"1");
        let mut longer = chain.clone();
        longer.execute(b"2");
        rejects_every_prefix(&mut chain, &longer.snapshot());
    }

    #[test]
    fn hash_chain_is_order_sensitive() {
        let mut a = HashChainApp::new();
        a.execute(b"x");
        a.execute(b"y");
        let mut b = HashChainApp::new();
        b.execute(b"y");
        b.execute(b"x");
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn hash_chain_snapshot_roundtrip() {
        let mut a = HashChainApp::new();
        a.execute(b"1");
        a.execute(b"2");
        let mut b = HashChainApp::new();
        b.restore(&a.snapshot()).unwrap();
        assert_eq!(a.digest(), b.digest());
        b.execute(b"3");
        a.execute(b"3");
        assert_eq!(a.digest(), b.digest());
    }
}
