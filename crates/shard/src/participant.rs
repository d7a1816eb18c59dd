//! The participant-side state machine for cross-shard transactions.
//!
//! Runs *inside* a group's replicated application (the SCADA master
//! embeds one), so its state is ordered, deterministic, and covered by
//! checkpoints: every replica of a group holds an identical
//! [`XParticipant`] and produces identical replies — which is what lets
//! the coordinator treat f+1 matching replies as the group's decision.

use std::fmt;
use std::sync::Arc;

use spire_crypto::{Digest, KeyStore};
use spire_prime::{ClientId, ReplicaKeys, ReplyCert};
use spire_sim::impl_wire;

use crate::msg::{
    encode_ack, encode_prepared, encode_rejected, ShardCmd, ShardMsg, DECISION_ABORT,
    DECISION_COMMIT,
};

/// Verifies prepare certificates issued by any group of the deployment.
/// Replica keys live at `coord_shard * stride + replica_base + id`; the
/// coordinator client id is the same in every group's namespace.
#[derive(Clone)]
pub struct CertVerifier {
    /// Deployment-wide key store.
    pub keystore: Arc<KeyStore>,
    /// Key-id stride between groups ([`crate::SHARD_KEY_STRIDE`]).
    pub stride: u32,
    /// Replica key base within a group's key space.
    pub replica_base: u32,
    /// Replicas per group; a vote naming an id at or above it is nobody's.
    pub n: u32,
    /// Coordinator client id (the `Reply.client` votes must target).
    pub client: ClientId,
    /// Per-group fault threshold; certificates need `f + 1` votes.
    pub f: u32,
    /// Mock-crypto mode (must match the deployment).
    pub mock: bool,
}

impl CertVerifier {
    /// True when `cert` proves the coordinator group ordered a prepare
    /// whose vote payload is exactly `expect_result`.
    pub fn verify(&self, cert: &ReplyCert, coord_shard: u32, expect_result: &[u8]) -> bool {
        cert.result.as_ref() == expect_result
            && cert.verify(
                &ReplicaKeys {
                    keystore: Arc::clone(&self.keystore),
                    key_base: coord_shard * self.stride + self.replica_base,
                    n: self.n,
                    mock: self.mock,
                },
                self.client,
                self.f,
            )
    }
}

impl fmt::Debug for CertVerifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CertVerifier")
            .field("stride", &self.stride)
            .field("replica_base", &self.replica_base)
            .field("n", &self.n)
            .field("client", &self.client)
            .field("f", &self.f)
            .field("mock", &self.mock)
            .finish_non_exhaustive()
    }
}

/// A first-time transaction decision surfaced by [`XParticipant::execute`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XDecision {
    /// Transaction id.
    pub xid: u64,
    /// Participant groups of the transaction.
    pub shards: Vec<u32>,
    /// [`DECISION_COMMIT`] or [`DECISION_ABORT`].
    pub decision: u8,
}

/// Result of executing one cross-shard operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XOutcome {
    /// Reply payload for the submitting coordinator client.
    pub reply: Vec<u8>,
    /// Own-shard commands to apply to grid state (commit only, first
    /// decision only — re-delivered commits must not re-actuate).
    pub applies: Vec<ShardCmd>,
    /// Set when this execution decided the transaction.
    pub decision: Option<XDecision>,
}

impl XOutcome {
    fn reply_only(reply: Vec<u8>) -> XOutcome {
        XOutcome {
            reply,
            applies: Vec::new(),
            decision: None,
        }
    }
}

/// Deterministic 2PC participant state for one shard, embedded in the
/// group's replicated application (and in its snapshots, as this `Wire`
/// value).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct XParticipant {
    shard: u32,
    prepared: std::collections::BTreeMap<u64, Digest>,
    decided: std::collections::BTreeMap<u64, u8>,
}

impl_wire!(struct XParticipant { shard, prepared, decided });

impl XParticipant {
    /// A fresh participant for `shard`.
    pub fn new(shard: u32) -> XParticipant {
        XParticipant {
            shard,
            ..XParticipant::default()
        }
    }

    /// This participant's shard.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Number of decided transactions (testing/inspection).
    pub fn decided_count(&self) -> usize {
        self.decided.len()
    }

    /// Executes one ordered cross-shard operation. Deterministic and
    /// idempotent per xid: a re-delivered decision re-acks without
    /// re-applying commands.
    pub fn execute(&mut self, msg: &ShardMsg, verifier: &CertVerifier) -> XOutcome {
        match msg {
            ShardMsg::XPrepare {
                xid,
                ts_us,
                shards,
                cmds,
                poison,
                ..
            } => {
                if let Some(&decision) = self.decided.get(xid) {
                    return XOutcome::reply_only(encode_ack(*xid, decision));
                }
                if *poison {
                    return XOutcome::reply_only(encode_rejected(*xid));
                }
                let digest = ShardMsg::prepare_digest(*xid, *ts_us, shards, cmds);
                self.prepared.insert(*xid, digest);
                XOutcome::reply_only(encode_prepared(*xid, &digest))
            }
            ShardMsg::XCommit {
                xid,
                coord_shard,
                ts_us,
                shards,
                cmds,
                cert,
            } => {
                if let Some(&decision) = self.decided.get(xid) {
                    return XOutcome::reply_only(encode_ack(*xid, decision));
                }
                let digest = ShardMsg::prepare_digest(*xid, *ts_us, shards, cmds);
                let expect = encode_prepared(*xid, &digest);
                if !verifier.verify(cert, *coord_shard, &expect) {
                    // Not an ack and not a decision: an unverifiable
                    // commit (forged or corrupted) is simply refused, and
                    // an honest coordinator's retry will carry a valid
                    // certificate.
                    return XOutcome::reply_only(b"err:cert".to_vec());
                }
                self.decided.insert(*xid, DECISION_COMMIT);
                self.prepared.remove(xid);
                XOutcome {
                    reply: encode_ack(*xid, DECISION_COMMIT),
                    applies: cmds
                        .iter()
                        .filter(|c| c.shard == self.shard)
                        .copied()
                        .collect(),
                    decision: Some(XDecision {
                        xid: *xid,
                        shards: shards.clone(),
                        decision: DECISION_COMMIT,
                    }),
                }
            }
            ShardMsg::XAbort { xid, shards, .. } => {
                if let Some(&decision) = self.decided.get(xid) {
                    return XOutcome::reply_only(encode_ack(*xid, decision));
                }
                self.decided.insert(*xid, DECISION_ABORT);
                self.prepared.remove(xid);
                XOutcome {
                    reply: encode_ack(*xid, DECISION_ABORT),
                    applies: Vec::new(),
                    decision: Some(XDecision {
                        xid: *xid,
                        shards: shards.clone(),
                        decision: DECISION_ABORT,
                    }),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{COORD_CLIENT_ID, SHARD_KEY_STRIDE};
    use bytes::Bytes;
    use spire_crypto::keys::{KeyMaterial, Signer};
    use spire_crypto::NodeId;
    use spire_prime::msg::PrimeMsg;
    use spire_prime::ReplicaId;
    use spire_sim::{Wire, WireWriter};

    fn setup() -> (KeyMaterial, CertVerifier) {
        let material = KeyMaterial::new([3u8; 32]);
        let keystore = Arc::new(KeyStore::for_nodes(&material, SHARD_KEY_STRIDE * 2));
        (
            material,
            CertVerifier {
                keystore,
                stride: SHARD_KEY_STRIDE,
                replica_base: 1000,
                n: 4,
                client: ClientId(COORD_CLIENT_ID),
                f: 1,
                mock: true,
            },
        )
    }

    fn tx() -> (u64, u64, Vec<u32>, Vec<ShardCmd>) {
        (
            1,
            50,
            vec![0, 1],
            vec![
                ShardCmd {
                    shard: 0,
                    rtu: 2,
                    kind: crate::msg::cmd_kind::OPEN_BREAKER,
                    a: 0,
                    b: 0,
                },
                ShardCmd {
                    shard: 1,
                    rtu: 5,
                    kind: crate::msg::cmd_kind::CLOSE_BREAKER,
                    a: 1,
                    b: 0,
                },
            ],
        )
    }

    fn cert_for(material: &KeyMaterial, coord_shard: u32, result: &[u8]) -> ReplyCert {
        let frames = (0..2)
            .map(|rep| {
                let node = NodeId(coord_shard * SHARD_KEY_STRIDE + 1000 + rep);
                let signer = Signer::new(material.signing_key(node), true);
                let mut msg = PrimeMsg::Reply {
                    replica: ReplicaId(rep),
                    client: ClientId(COORD_CLIENT_ID),
                    cseq: 1,
                    result: Bytes::copy_from_slice(result),
                    sig: [0; 64],
                };
                let mut scratch = WireWriter::new();
                msg.sign_with(&signer, &mut scratch);
                msg.encode()
            })
            .collect();
        ReplyCert {
            result: Bytes::copy_from_slice(result),
            frames,
        }
    }

    #[test]
    fn prepare_then_commit_applies_own_shard_only() {
        let (material, verifier) = setup();
        let (xid, ts, shards, cmds) = tx();
        let mut p = XParticipant::new(0);
        let digest = ShardMsg::prepare_digest(xid, ts, &shards, &cmds);
        let prep = p.execute(
            &ShardMsg::XPrepare {
                xid,
                coord_shard: 0,
                ts_us: ts,
                shards: shards.clone(),
                cmds: cmds.clone(),
                poison: false,
            },
            &verifier,
        );
        assert_eq!(prep.reply, encode_prepared(xid, &digest));
        let cert = cert_for(&material, 0, &encode_prepared(xid, &digest));
        let commit = p.execute(
            &ShardMsg::XCommit {
                xid,
                coord_shard: 0,
                ts_us: ts,
                shards: shards.clone(),
                cmds: cmds.clone(),
                cert,
            },
            &verifier,
        );
        assert_eq!(commit.reply, encode_ack(xid, DECISION_COMMIT));
        assert_eq!(commit.applies.len(), 1);
        assert_eq!(commit.applies[0].shard, 0);
        assert!(commit.decision.is_some());
    }

    #[test]
    fn redelivered_commit_acks_without_reapplying() {
        let (material, verifier) = setup();
        let (xid, ts, shards, cmds) = tx();
        let mut p = XParticipant::new(1);
        let digest = ShardMsg::prepare_digest(xid, ts, &shards, &cmds);
        let msg = ShardMsg::XCommit {
            xid,
            coord_shard: 0,
            ts_us: ts,
            shards,
            cmds,
            cert: cert_for(&material, 0, &encode_prepared(xid, &digest)),
        };
        let first = p.execute(&msg, &verifier);
        assert_eq!(first.applies.len(), 1);
        let second = p.execute(&msg, &verifier);
        assert!(second.applies.is_empty());
        assert!(second.decision.is_none());
        assert_eq!(second.reply, first.reply);
    }

    #[test]
    fn forged_cert_refused() {
        let (material, verifier) = setup();
        let (xid, ts, shards, cmds) = tx();
        let mut p = XParticipant::new(0);
        // Certificate signed by the WRONG group's replicas.
        let digest = ShardMsg::prepare_digest(xid, ts, &shards, &cmds);
        let cert = cert_for(&material, 1, &encode_prepared(xid, &digest));
        let out = p.execute(
            &ShardMsg::XCommit {
                xid,
                coord_shard: 0,
                ts_us: ts,
                shards,
                cmds,
                cert,
            },
            &verifier,
        );
        assert_eq!(out.reply, b"err:cert".to_vec());
        assert!(out.decision.is_none());
        assert_eq!(p.decided_count(), 0);
    }

    #[test]
    fn poisoned_prepare_rejected_and_abort_decides() {
        let (_, verifier) = setup();
        let (xid, ts, shards, cmds) = tx();
        let mut p = XParticipant::new(0);
        let rej = p.execute(
            &ShardMsg::XPrepare {
                xid,
                coord_shard: 0,
                ts_us: ts,
                shards: shards.clone(),
                cmds,
                poison: true,
            },
            &verifier,
        );
        assert_eq!(rej.reply, encode_rejected(xid));
        let abort = p.execute(
            &ShardMsg::XAbort {
                xid,
                coord_shard: 0,
                shards,
            },
            &verifier,
        );
        assert_eq!(abort.reply, encode_ack(xid, DECISION_ABORT));
        assert_eq!(abort.decision.as_ref().unwrap().decision, DECISION_ABORT);
    }

    #[test]
    fn snapshot_roundtrip() {
        let (material, verifier) = setup();
        let (xid, ts, shards, cmds) = tx();
        let mut p = XParticipant::new(0);
        let digest = ShardMsg::prepare_digest(xid, ts, &shards, &cmds);
        p.execute(
            &ShardMsg::XPrepare {
                xid,
                coord_shard: 0,
                ts_us: ts,
                shards: shards.clone(),
                cmds: cmds.clone(),
                poison: false,
            },
            &verifier,
        );
        p.execute(
            &ShardMsg::XCommit {
                xid,
                coord_shard: 0,
                ts_us: ts,
                shards,
                cmds,
                cert: cert_for(&material, 0, &encode_prepared(xid, &digest)),
            },
            &verifier,
        );
        let restored = XParticipant::decode_all(p.to_wire(0).as_slice()).unwrap();
        assert_eq!(restored, p);
    }
}
