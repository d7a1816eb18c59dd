//! Wire messages of the Spines overlay protocol.
//!
//! Daemon-to-daemon frames are authenticated with a per-link HMAC (see
//! [`crate::daemon`]); link-state advertisements are additionally signed by
//! their origin so a daemon cannot forge another daemon's adjacency.

use crate::topology::OverlayId;
use bytes::Bytes;
use spire_sim::{impl_wire, Counted, Wire, WireError, WireReader, WireWriter};

/// How a data message is disseminated through the overlay.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dissemination {
    /// Single copy along the shortest path.
    Shortest,
    /// One copy along each of up to `k` edge-disjoint paths (source routed).
    DisjointPaths(u8),
    /// Constrained flooding: resilient to any set of failures that leaves
    /// the graph connected; subject to per-source fair rate limits.
    Flood,
}

// Hand-written: always two bytes, `[tag][k]`, with `k` ignored unless the
// tag is `DisjointPaths` — not the tag-then-fields shape `impl_wire!` derives.
impl Wire for Dissemination {
    fn write(&self, w: &mut WireWriter) {
        let (tag, k) = match *self {
            Dissemination::Shortest => (0, 0),
            Dissemination::DisjointPaths(k) => (1, k),
            Dissemination::Flood => (2, 0),
        };
        w.u8(tag).u8(k);
    }

    fn read(r: &mut WireReader<'_>) -> Result<Dissemination, WireError> {
        let (tag, k) = (r.u8()?, r.u8()?);
        match tag {
            0 => Ok(Dissemination::Shortest),
            1 => Ok(Dissemination::DisjointPaths(k)),
            2 => Ok(Dissemination::Flood),
            other => Err(WireError::BadTag(other)),
        }
    }
}

/// An application payload travelling through the overlay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataMsg {
    /// Originating daemon.
    pub src: OverlayId,
    /// Originating client port on that daemon.
    pub src_port: u16,
    /// Destination daemon, or [`OverlayId::GROUP`] for a multicast group.
    pub dst: OverlayId,
    /// Destination client port; the group number when `dst` is
    /// [`OverlayId::GROUP`].
    pub dst_port: u16,
    /// Per-(src, src_port) sequence number for end-to-end deduplication.
    pub seq: u64,
    /// Dissemination mode.
    pub mode: Dissemination,
    /// Remaining hop budget.
    pub ttl: u8,
    /// Source route for [`Dissemination::DisjointPaths`] (empty otherwise).
    pub route: Vec<OverlayId>,
    /// Position of the *next* hop within `route`.
    pub route_idx: u8,
    /// Whether hop-by-hop reliability (ack + retransmit) is requested.
    pub reliable: bool,
    /// Application bytes.
    pub payload: Bytes,
}

// `route` travels with a one-byte count.
impl_wire!(struct DataMsg {
    src, src_port, dst, dst_port, seq, mode, ttl, route as Counted<u8>, route_idx, reliable,
    payload,
});

/// A daemon-to-daemon or client-to-daemon protocol message.
#[derive(Clone, Debug, PartialEq)]
pub enum OverlayMsg {
    /// Link liveness probe.
    Hello {
        /// Sender.
        from: OverlayId,
        /// Monotone sequence.
        seq: u64,
    },
    /// Signed link-state advertisement.
    Lsa {
        /// The daemon whose adjacency this describes.
        origin: OverlayId,
        /// Monotone LSA sequence for `origin`.
        seq: u64,
        /// `origin`'s live neighbors and link weights.
        neighbors: Vec<(OverlayId, u32)>,
        /// Ed25519 signature by `origin` over (origin, seq, neighbors).
        sig: [u8; 64],
    },
    /// Hop-scoped data frame carrying an application payload.
    Data {
        /// Hop-unique frame id (for the reliable link protocol).
        frame_id: u64,
        /// The payload and its end-to-end headers.
        msg: DataMsg,
    },
    /// Acknowledgement of a reliable data frame on a link.
    HopAck {
        /// The frame being acknowledged.
        frame_id: u64,
    },
    /// Client -> daemon: bind a local port.
    ClientAttach {
        /// Port to bind.
        port: u16,
    },
    /// Client -> daemon: send a payload through the overlay.
    ClientSend {
        /// Destination daemon, or [`OverlayId::GROUP`].
        dst: OverlayId,
        /// Destination port, or the group number.
        dst_port: u16,
        /// Dissemination mode.
        mode: Dissemination,
        /// Request hop-by-hop reliability.
        reliable: bool,
        /// Application bytes.
        payload: Bytes,
    },
    /// Daemon -> client: deliver a payload.
    ClientDeliver {
        /// Originating daemon.
        src: OverlayId,
        /// Originating port.
        src_port: u16,
        /// Application bytes.
        payload: Bytes,
    },
    /// Cumulative acknowledgement of several reliable data frames on a link.
    HopAckMulti {
        /// The frames being acknowledged.
        frame_ids: Vec<u64>,
    },
    /// A hop-level batch: several encoded messages for the same neighbor,
    /// authenticated by a single link HMAC. Batches do not nest.
    Batch {
        /// Each element is one encoded non-`Batch` [`OverlayMsg`].
        frames: Vec<Bytes>,
    },
    /// Client -> daemon: join a multicast group. A message flooded to
    /// [`OverlayId::GROUP`] with this group number is delivered to every
    /// member behind every daemon, except the client that sent it.
    ClientJoin {
        /// Group to join.
        group: u16,
    },
}

impl_wire!(enum OverlayMsg {
    1 => Hello { from, seq },
    2 => Lsa { origin, seq, neighbors, sig },
    3 => Data { frame_id, msg },
    4 => HopAck { frame_id },
    5 => ClientAttach { port },
    6 => ClientSend { dst, dst_port, mode, reliable, payload },
    7 => ClientDeliver { src, src_port, payload },
    8 => HopAckMulti { frame_ids },
    9 => Batch { frames },
    10 => ClientJoin { group },
});

impl OverlayMsg {
    /// Canonical byte encoding.
    pub fn encode(&self) -> Bytes {
        self.to_wire(64).finish()
    }

    /// Decodes a message, verifying the buffer is fully consumed.
    pub fn decode(bytes: &[u8]) -> Result<OverlayMsg, WireError> {
        OverlayMsg::decode_all(bytes)
    }
}

/// The canonical bytes signed in an LSA (everything except the signature).
pub fn lsa_signing_bytes(origin: OverlayId, seq: u64, neighbors: &[(OverlayId, u32)]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.raw(b"spines-lsa").u16(origin.0).u64(seq);
    for (n, weight) in neighbors {
        w.u16(n.0).u32(*weight);
    }
    w.finish().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: OverlayMsg) {
        let bytes = msg.encode();
        let decoded = OverlayMsg::decode(&bytes).expect("decode");
        assert_eq!(decoded, msg);
    }

    #[test]
    fn roundtrip_all_variants() {
        roundtrip(OverlayMsg::Hello {
            from: OverlayId(3),
            seq: 99,
        });
        roundtrip(OverlayMsg::Lsa {
            origin: OverlayId(1),
            seq: 5,
            neighbors: vec![(OverlayId(2), 10), (OverlayId(3), 20)],
            sig: [7u8; 64],
        });
        roundtrip(OverlayMsg::Data {
            frame_id: 42,
            msg: DataMsg {
                src: OverlayId(0),
                src_port: 10,
                dst: OverlayId(5),
                dst_port: 20,
                seq: 1234,
                mode: Dissemination::DisjointPaths(3),
                ttl: 16,
                route: vec![OverlayId(0), OverlayId(2), OverlayId(5)],
                route_idx: 1,
                reliable: true,
                payload: Bytes::from_static(b"payload"),
            },
        });
        roundtrip(OverlayMsg::HopAck { frame_id: 7 });
        roundtrip(OverlayMsg::ClientAttach { port: 80 });
        roundtrip(OverlayMsg::ClientSend {
            dst: OverlayId(9),
            dst_port: 443,
            mode: Dissemination::Flood,
            reliable: false,
            payload: Bytes::from_static(b"x"),
        });
        roundtrip(OverlayMsg::ClientDeliver {
            src: OverlayId(2),
            src_port: 7,
            payload: Bytes::new(),
        });
        roundtrip(OverlayMsg::HopAckMulti {
            frame_ids: vec![1, 99, u64::MAX],
        });
        roundtrip(OverlayMsg::ClientJoin { group: 3 });
        roundtrip(OverlayMsg::Batch {
            frames: vec![
                OverlayMsg::HopAck { frame_id: 7 }.encode(),
                OverlayMsg::Hello {
                    from: OverlayId(3),
                    seq: 99,
                }
                .encode(),
            ],
        });
    }

    #[test]
    fn decode_rejects_bad_tag() {
        assert_eq!(OverlayMsg::decode(&[99]), Err(WireError::BadTag(99)));
    }

    #[test]
    fn decode_rejects_trailing() {
        let mut bytes = OverlayMsg::Hello {
            from: OverlayId(0),
            seq: 0,
        }
        .encode()
        .to_vec();
        bytes.push(0);
        assert_eq!(OverlayMsg::decode(&bytes), Err(WireError::TrailingBytes));
    }

    #[test]
    fn decode_rejects_truncated() {
        let bytes = OverlayMsg::Hello {
            from: OverlayId(0),
            seq: 0,
        }
        .encode();
        assert_eq!(
            OverlayMsg::decode(&bytes[..bytes.len() - 1]),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn lsa_signing_bytes_depend_on_content() {
        let a = lsa_signing_bytes(OverlayId(1), 1, &[(OverlayId(2), 3)]);
        let b = lsa_signing_bytes(OverlayId(1), 2, &[(OverlayId(2), 3)]);
        let c = lsa_signing_bytes(OverlayId(1), 1, &[(OverlayId(2), 4)]);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
