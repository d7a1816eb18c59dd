//! A replicated key-value store application.
//!
//! Spire replicates a SCADA master, but Prime is a general BFT engine;
//! this module provides a second, self-contained application — a string
//! key-value store with compare-and-swap — used by the `kv_store` example
//! and as a template for building other replicated services.

use crate::application::{Application, ExecResult};
use spire_sim::{impl_wire, Wire, WireError};
use std::collections::BTreeMap;

/// Operations of the replicated KV store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvOp {
    /// Read a key.
    Get {
        /// Key.
        key: String,
    },
    /// Write a key.
    Put {
        /// Key.
        key: String,
        /// New value.
        value: String,
    },
    /// Delete a key.
    Delete {
        /// Key.
        key: String,
    },
    /// Write `new` only if the current value equals `expected`
    /// (`None` = key absent).
    Cas {
        /// Key.
        key: String,
        /// Expected current value.
        expected: Option<String>,
        /// Value to install on match.
        new: String,
    },
}

impl_wire!(enum KvOp {
    1 => Get { key },
    2 => Put { key, value },
    3 => Delete { key },
    4 => Cas { key, expected, new },
});

impl KvOp {
    /// Encodes the op for submission as a Prime client payload.
    pub fn encode(&self) -> Vec<u8> {
        self.to_wire(16).into_vec()
    }

    /// Decodes an op.
    pub fn decode(bytes: &[u8]) -> Result<KvOp, WireError> {
        KvOp::decode_all(bytes)
    }
}

/// Replies of the KV store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvReply {
    /// Value of a key (None = absent).
    Value(Option<String>),
    /// Mutation applied.
    Ok,
    /// CAS failed: the actual current value.
    CasFailed(Option<String>),
    /// Malformed op.
    Error,
}

impl_wire!(enum KvReply {
    1 => Value(value),
    2 => Ok {},
    3 => CasFailed(actual),
    4 => Error {},
});

impl KvReply {
    /// Encodes the reply.
    pub fn encode(&self) -> Vec<u8> {
        self.to_wire(16).into_vec()
    }

    /// Decodes a reply.
    pub fn decode(bytes: &[u8]) -> Result<KvReply, WireError> {
        KvReply::decode_all(bytes)
    }
}

/// The replicated key-value state machine.
#[derive(Clone, Debug, Default)]
pub struct KvApp {
    map: BTreeMap<String, String>,
    writes: u64,
}

impl_wire!(struct KvApp { writes, map });

impl KvApp {
    /// Creates an empty store.
    pub fn new() -> KvApp {
        KvApp::default()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Direct read access (tests/inspection).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(|s| s.as_str())
    }
}

impl Application for KvApp {
    fn execute(&mut self, op: &[u8]) -> ExecResult {
        let Ok(op) = KvOp::decode(op) else {
            return ExecResult::reply(KvReply::Error.encode());
        };
        let reply = match op {
            KvOp::Get { key } => KvReply::Value(self.map.get(&key).cloned()),
            KvOp::Put { key, value } => {
                self.map.insert(key, value);
                self.writes += 1;
                KvReply::Ok
            }
            KvOp::Delete { key } => {
                self.map.remove(&key);
                self.writes += 1;
                KvReply::Ok
            }
            KvOp::Cas { key, expected, new } => {
                let current = self.map.get(&key).cloned();
                if current == expected {
                    self.map.insert(key, new);
                    self.writes += 1;
                    KvReply::Ok
                } else {
                    KvReply::CasFailed(current)
                }
            }
        };
        ExecResult::reply(reply.encode())
    }

    fn snapshot(&self) -> Vec<u8> {
        self.to_wire(64).into_vec()
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), WireError> {
        *self = KvApp::decode_all(snapshot)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec(app: &mut KvApp, op: KvOp) -> KvReply {
        KvReply::decode(&app.execute(&op.encode()).reply).unwrap()
    }

    #[test]
    fn put_get_delete() {
        let mut app = KvApp::new();
        assert_eq!(
            exec(&mut app, KvOp::Get { key: "a".into() }),
            KvReply::Value(None)
        );
        assert_eq!(
            exec(
                &mut app,
                KvOp::Put {
                    key: "a".into(),
                    value: "1".into()
                }
            ),
            KvReply::Ok
        );
        assert_eq!(
            exec(&mut app, KvOp::Get { key: "a".into() }),
            KvReply::Value(Some("1".into()))
        );
        assert_eq!(
            exec(&mut app, KvOp::Delete { key: "a".into() }),
            KvReply::Ok
        );
        assert_eq!(
            exec(&mut app, KvOp::Get { key: "a".into() }),
            KvReply::Value(None)
        );
        assert!(app.is_empty());
    }

    #[test]
    fn cas_semantics() {
        let mut app = KvApp::new();
        // CAS on an absent key with expected None succeeds.
        assert_eq!(
            exec(
                &mut app,
                KvOp::Cas {
                    key: "x".into(),
                    expected: None,
                    new: "1".into()
                }
            ),
            KvReply::Ok
        );
        // Mismatched expectation fails and reports the current value.
        assert_eq!(
            exec(
                &mut app,
                KvOp::Cas {
                    key: "x".into(),
                    expected: Some("0".into()),
                    new: "2".into()
                }
            ),
            KvReply::CasFailed(Some("1".into()))
        );
        assert_eq!(app.get("x"), Some("1"));
        // Matching expectation succeeds.
        assert_eq!(
            exec(
                &mut app,
                KvOp::Cas {
                    key: "x".into(),
                    expected: Some("1".into()),
                    new: "2".into()
                }
            ),
            KvReply::Ok
        );
        assert_eq!(app.get("x"), Some("2"));
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut app = KvApp::new();
        for i in 0..20 {
            exec(
                &mut app,
                KvOp::Put {
                    key: format!("k{i}"),
                    value: format!("v{i}"),
                },
            );
        }
        let mut other = KvApp::new();
        other.restore(&app.snapshot()).unwrap();
        assert_eq!(other.digest(), app.digest());
        assert_eq!(other.len(), 20);
        assert_eq!(other.get("k7"), Some("v7"));
    }

    #[test]
    fn op_and_reply_codecs_roundtrip() {
        for op in [
            KvOp::Get { key: "k".into() },
            KvOp::Put {
                key: "k".into(),
                value: "v".into(),
            },
            KvOp::Delete { key: "k".into() },
            KvOp::Cas {
                key: "k".into(),
                expected: Some("e".into()),
                new: "n".into(),
            },
            KvOp::Cas {
                key: "k".into(),
                expected: None,
                new: "n".into(),
            },
        ] {
            assert_eq!(KvOp::decode(&op.encode()).unwrap(), op);
        }
        for reply in [
            KvReply::Value(None),
            KvReply::Value(Some("v".into())),
            KvReply::Ok,
            KvReply::CasFailed(None),
            KvReply::CasFailed(Some("v".into())),
            KvReply::Error,
        ] {
            assert_eq!(KvReply::decode(&reply.encode()).unwrap(), reply);
        }
    }

    #[test]
    fn malformed_op_yields_error_reply() {
        let mut app = KvApp::new();
        let out = app.execute(&[0xff, 0x00]);
        assert_eq!(KvReply::decode(&out.reply).unwrap(), KvReply::Error);
    }

    #[test]
    fn digest_reflects_writes_history() {
        // Two stores with the same final map but different histories have
        // different digests (writes counter), keeping checkpoint comparison
        // strict.
        let mut a = KvApp::new();
        let mut b = KvApp::new();
        exec(
            &mut a,
            KvOp::Put {
                key: "k".into(),
                value: "v".into(),
            },
        );
        exec(
            &mut b,
            KvOp::Put {
                key: "k".into(),
                value: "v".into(),
            },
        );
        exec(
            &mut b,
            KvOp::Put {
                key: "k".into(),
                value: "v".into(),
            },
        );
        assert_ne!(a.digest(), b.digest());
    }
}
