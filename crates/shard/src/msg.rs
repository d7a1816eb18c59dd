//! Cross-shard wire codecs: transaction commands, the 2PC-over-BFT
//! operation payloads, and the reply payloads participants produce.
//!
//! Cross-shard operations travel as ordinary Prime client operations —
//! the payload's first byte distinguishes them from SCADA ops (SCADA uses
//! tags 1..=3, cross-shard uses 240..). Replies are likewise tagged so
//! the coordinator can parse votes and acks out of standard `Reply`
//! messages without any protocol change in `spire-prime`.

use bytes::Bytes;
use spire_crypto::Digest;
use spire_prime::ReplyCert;
use spire_sim::{impl_wire, Counted, Wire, WireError, WireWriter};

use self::op_tag::{XABORT, XCOMMIT, XPREPARE};
use self::reply_tag::{ACK, PREPARED, REJECTED};

/// Operation payload tags (first byte). SCADA ops use 1..=3; keep these
/// high so the two app namespaces never collide.
pub mod op_tag {
    /// Coordinator-group prepare order.
    pub const XPREPARE: u8 = 240;
    /// Participant-group commit order (carries the prepare certificate).
    pub const XCOMMIT: u8 = 241;
    /// Participant-group abort order.
    pub const XABORT: u8 = 242;
}

/// Reply payload tags (first byte of a `Reply.result`).
pub mod reply_tag {
    /// Prepare vote: `[tag][xid u64][digest 32]`.
    pub const PREPARED: u8 = 243;
    /// Prepare rejection: `[tag][xid u64]`.
    pub const REJECTED: u8 = 244;
    /// Decision acknowledgement: `[tag][xid u64][decision u8]`.
    pub const ACK: u8 = 245;
}

/// Transaction decision values.
pub const DECISION_COMMIT: u8 = 1;
/// See [`DECISION_COMMIT`].
pub const DECISION_ABORT: u8 = 2;

/// Command kinds inside a cross-shard transaction.
pub mod cmd_kind {
    /// Open breaker `a` on the target RTU.
    pub const OPEN_BREAKER: u8 = 1;
    /// Close breaker `a` on the target RTU.
    pub const CLOSE_BREAKER: u8 = 2;
    /// Set register `a` to value `b` on the target RTU.
    pub const SET_REGISTER: u8 = 3;
}

/// Sanity caps on vector lengths in decoded messages.
const MAX_SHARDS: usize = 64;
const MAX_CMDS: usize = 256;

/// A participant-group list: one-byte count, at most [`MAX_SHARDS`] accepted.
type ShardList = Counted<u8, MAX_SHARDS>;
/// A transaction body: at most [`MAX_CMDS`] commands accepted.
type CmdList = Counted<u16, MAX_CMDS>;

/// One supervisory command inside a cross-shard transaction, tagged with
/// the shard that must apply it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardCmd {
    /// Owning group of `rtu` (precomputed via the shard map so every
    /// participant agrees without re-deriving placement).
    pub shard: u32,
    /// Target RTU.
    pub rtu: u32,
    /// One of [`cmd_kind`].
    pub kind: u8,
    /// First argument (breaker id or register address).
    pub a: u16,
    /// Second argument (register value; unused for breakers).
    pub b: u16,
}

impl_wire!(struct ShardCmd { shard, rtu, kind, a, b });

/// A cross-shard operation payload, submitted to a group as an ordinary
/// (signed) Prime client op.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardMsg {
    /// Ordered by the coordinator group; each replica votes by replying
    /// with the prepare digest (or a rejection).
    XPrepare {
        /// Transaction id, unique per coordinator.
        xid: u64,
        /// Group acting as 2PC coordinator (owner of the lowest shard).
        coord_shard: u32,
        /// Coordinator-side issue timestamp (µs), for end-to-end latency.
        ts_us: u64,
        /// Participant groups (sorted, deduplicated).
        shards: Vec<u32>,
        /// The transaction body.
        cmds: Vec<ShardCmd>,
        /// Poisoned prepares are rejected by every honest replica — the
        /// deterministic stand-in for an infeasible command (abort path).
        poison: bool,
    },
    /// Ordered by every participant group once the coordinator holds a
    /// prepare certificate; applying replicas ack and execute their own
    /// shard's commands.
    XCommit {
        /// Transaction id.
        xid: u64,
        /// Group whose replicas signed the certificate's votes.
        coord_shard: u32,
        /// Issue timestamp copied from the prepare.
        ts_us: u64,
        /// Participant groups.
        shards: Vec<u32>,
        /// The transaction body (re-sent; its digest must match the
        /// certified vote).
        cmds: Vec<ShardCmd>,
        /// f+1 prepare votes from the coordinator group.
        cert: ReplyCert,
    },
    /// Ordered by every participant group when the prepare phase failed
    /// (rejection quorum or retry budget exhausted before a certificate).
    XAbort {
        /// Transaction id.
        xid: u64,
        /// Coordinator group.
        coord_shard: u32,
        /// Participant groups.
        shards: Vec<u32>,
    },
}

impl_wire!(enum ShardMsg {
    XPREPARE => XPrepare {
        xid, coord_shard, ts_us, shards as ShardList, cmds as CmdList, poison,
    },
    XCOMMIT => XCommit {
        xid, coord_shard, ts_us, shards as ShardList, cmds as CmdList, cert,
    },
    XABORT => XAbort { xid, coord_shard, shards as ShardList },
});

impl ShardMsg {
    /// True when a client-op payload starting with `first` is cross-shard.
    pub fn is_shard_op(first: u8) -> bool {
        (op_tag::XPREPARE..=op_tag::XABORT).contains(&first)
    }

    /// Encodes to canonical bytes.
    pub fn encode(&self) -> Bytes {
        self.to_wire(128).finish()
    }

    /// Decodes canonical bytes.
    pub fn decode(bytes: &[u8]) -> Result<ShardMsg, WireError> {
        ShardMsg::decode_all(bytes)
    }

    /// The digest every honest replica votes on in its prepare reply:
    /// a hash of the canonical transaction body, binding xid, timestamp,
    /// participant set, and every command.
    pub fn prepare_digest(xid: u64, ts_us: u64, shards: &[u32], cmds: &[ShardCmd]) -> Digest {
        let mut w = WireWriter::with_capacity(64);
        w.u64(xid).u64(ts_us);
        ShardList::write(shards, &mut w);
        CmdList::write(cmds, &mut w);
        spire_crypto::digest(w.as_slice())
    }
}

/// A parsed cross-shard reply payload (`Reply.result` bytes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum XReply {
    /// Prepare vote carrying the transaction digest.
    Prepared {
        /// Transaction id.
        xid: u64,
        /// Digest of the prepared transaction body.
        digest: Digest,
    },
    /// Prepare rejection.
    Rejected {
        /// Transaction id.
        xid: u64,
    },
    /// Commit/abort acknowledgement.
    Ack {
        /// Transaction id.
        xid: u64,
        /// [`DECISION_COMMIT`] or [`DECISION_ABORT`].
        decision: u8,
    },
}

impl_wire!(enum XReply {
    PREPARED => Prepared { xid, digest },
    REJECTED => Rejected { xid },
    ACK => Ack { xid, decision },
});

/// Encodes a prepare vote.
pub fn encode_prepared(xid: u64, digest: &Digest) -> Vec<u8> {
    XReply::Prepared {
        xid,
        digest: *digest,
    }
    .to_wire(41)
    .into_vec()
}

/// Encodes a prepare rejection.
pub fn encode_rejected(xid: u64) -> Vec<u8> {
    XReply::Rejected { xid }.to_wire(9).into_vec()
}

/// Encodes a decision acknowledgement.
pub fn encode_ack(xid: u64, decision: u8) -> Vec<u8> {
    XReply::Ack { xid, decision }.to_wire(10).into_vec()
}

/// Parses a reply payload; `None` for anything that is not a well-formed
/// cross-shard reply (e.g. SCADA `"ok"` replies).
pub fn parse_reply(bytes: &[u8]) -> Option<XReply> {
    XReply::decode_all(bytes).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmds() -> Vec<ShardCmd> {
        vec![
            ShardCmd {
                shard: 0,
                rtu: 3,
                kind: cmd_kind::OPEN_BREAKER,
                a: 1,
                b: 0,
            },
            ShardCmd {
                shard: 2,
                rtu: 17,
                kind: cmd_kind::SET_REGISTER,
                a: 40,
                b: 9000,
            },
        ]
    }

    #[test]
    fn roundtrip_all_variants() {
        let msgs = vec![
            ShardMsg::XPrepare {
                xid: 7,
                coord_shard: 0,
                ts_us: 123_456,
                shards: vec![0, 2],
                cmds: cmds(),
                poison: false,
            },
            ShardMsg::XCommit {
                xid: 7,
                coord_shard: 0,
                ts_us: 123_456,
                shards: vec![0, 2],
                cmds: cmds(),
                cert: ReplyCert {
                    result: Bytes::from_static(b"vote"),
                    frames: vec![Bytes::from_static(b"f0"), Bytes::from_static(b"f1")],
                },
            },
            ShardMsg::XAbort {
                xid: 9,
                coord_shard: 1,
                shards: vec![1, 3],
            },
        ];
        for msg in msgs {
            let bytes = msg.encode();
            assert!(ShardMsg::is_shard_op(bytes[0]));
            assert_eq!(ShardMsg::decode(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn reply_payloads_roundtrip() {
        let digest = [7u8; 32];
        assert_eq!(
            parse_reply(&encode_prepared(5, &digest)),
            Some(XReply::Prepared { xid: 5, digest })
        );
        assert_eq!(
            parse_reply(&encode_rejected(6)),
            Some(XReply::Rejected { xid: 6 })
        );
        assert_eq!(
            parse_reply(&encode_ack(8, DECISION_COMMIT)),
            Some(XReply::Ack {
                xid: 8,
                decision: DECISION_COMMIT
            })
        );
        assert_eq!(parse_reply(b"ok"), None);
        assert_eq!(parse_reply(&[]), None);
    }

    #[test]
    fn digest_binds_every_field() {
        let base = ShardMsg::prepare_digest(1, 2, &[0, 1], &cmds());
        assert_ne!(base, ShardMsg::prepare_digest(2, 2, &[0, 1], &cmds()));
        assert_ne!(base, ShardMsg::prepare_digest(1, 3, &[0, 1], &cmds()));
        assert_ne!(base, ShardMsg::prepare_digest(1, 2, &[0, 2], &cmds()));
        let mut other = cmds();
        other[0].a = 2;
        assert_ne!(base, ShardMsg::prepare_digest(1, 2, &[0, 1], &other));
    }

    #[test]
    fn truncation_and_bad_tags_rejected() {
        let bytes = ShardMsg::XAbort {
            xid: 9,
            coord_shard: 1,
            shards: vec![1, 3],
        }
        .encode();
        for cut in 0..bytes.len() {
            assert!(ShardMsg::decode(&bytes[..cut]).is_err());
        }
        assert!(ShardMsg::decode(&[1, 2, 3]).is_err());
    }
}
