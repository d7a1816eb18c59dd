//! Client-side helper for talking to a co-located Spines daemon.
//!
//! An application process (Prime replica, SCADA proxy, HMI) attaches to a
//! port on its local daemon, then sends and receives overlay messages
//! through it — mirroring the Spines client library the paper's components
//! link against.

use crate::msg::{Dissemination, OverlayMsg};
use crate::topology::OverlayId;
use bytes::Bytes;
use spire_sim::{Context, ProcessId};

/// An overlay address: daemon + client port.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OverlayAddr {
    /// The daemon the client sits behind.
    pub node: OverlayId,
    /// The client port on that daemon.
    pub port: u16,
}

impl std::fmt::Display for OverlayAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.node, self.port)
    }
}

/// Handle used by an application process to use its local daemon.
#[derive(Clone, Copy, Debug)]
pub struct SpinesPort {
    /// Simulation process id of the local daemon.
    pub daemon_pid: ProcessId,
    /// This client's address.
    pub addr: OverlayAddr,
}

impl SpinesPort {
    /// Creates a handle (the caller must also have a sim link between the
    /// client process and the daemon process).
    pub fn new(daemon_pid: ProcessId, addr: OverlayAddr) -> SpinesPort {
        SpinesPort { daemon_pid, addr }
    }

    /// Binds this client's port on the daemon. Call from `on_start`.
    pub fn attach(&self, ctx: &mut Context<'_>) {
        let msg = OverlayMsg::ClientAttach {
            port: self.addr.port,
        };
        ctx.send(self.daemon_pid, msg.encode());
    }

    /// Sends `payload` to `dst` through the overlay.
    pub fn send(
        &self,
        ctx: &mut Context<'_>,
        dst: OverlayAddr,
        mode: Dissemination,
        reliable: bool,
        payload: Bytes,
    ) {
        let msg = OverlayMsg::ClientSend {
            dst: dst.node,
            dst_port: dst.port,
            mode,
            reliable,
            payload,
        };
        ctx.send(self.daemon_pid, msg.encode());
    }

    /// Joins multicast group `group` on the daemon. Call from `on_start`,
    /// after [`SpinesPort::attach`].
    pub fn join(&self, ctx: &mut Context<'_>, group: u16) {
        ctx.send(self.daemon_pid, OverlayMsg::ClientJoin { group }.encode());
    }

    /// Sends `payload` to every member of `group` but this client, as one
    /// dissemination. Groups exist under [`Dissemination::Flood`] only.
    pub fn send_group(&self, ctx: &mut Context<'_>, group: u16, reliable: bool, payload: Bytes) {
        let dst = OverlayAddr {
            node: OverlayId::GROUP,
            port: group,
        };
        self.send(ctx, dst, Dissemination::Flood, reliable, payload);
    }

    /// Parses an incoming daemon message; returns `(source, payload)` for
    /// data deliveries and `None` for anything else.
    pub fn decode_deliver(bytes: &Bytes) -> Option<(OverlayAddr, Bytes)> {
        match OverlayMsg::decode(bytes) {
            Ok(OverlayMsg::ClientDeliver {
                src,
                src_port,
                payload,
            }) => Some((
                OverlayAddr {
                    node: src,
                    port: src_port,
                },
                payload,
            )),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_deliver_roundtrip() {
        let msg = OverlayMsg::ClientDeliver {
            src: OverlayId(3),
            src_port: 9,
            payload: Bytes::from_static(b"hi"),
        };
        let (addr, payload) = SpinesPort::decode_deliver(&msg.encode()).unwrap();
        assert_eq!(
            addr,
            OverlayAddr {
                node: OverlayId(3),
                port: 9
            }
        );
        assert_eq!(payload, Bytes::from_static(b"hi"));
    }

    #[test]
    fn decode_deliver_rejects_other_messages() {
        let msg = OverlayMsg::Hello {
            from: OverlayId(0),
            seq: 1,
        };
        assert!(SpinesPort::decode_deliver(&msg.encode()).is_none());
        assert!(SpinesPort::decode_deliver(&Bytes::from_static(b"junk")).is_none());
    }

    #[test]
    fn addr_display() {
        let addr = OverlayAddr {
            node: OverlayId(2),
            port: 80,
        };
        assert_eq!(format!("{addr}"), "ov2:80");
    }
}
