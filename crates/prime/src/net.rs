//! Transport abstraction: Prime replicas talk to each other and to clients
//! either directly over simulation links (unit tests, LAN benchmarks) or
//! through Spines overlays (full Spire deployments).

use crate::config::{ClientId, ReplicaId};
use bytes::Bytes;
use spire_sim::{Context, ProcessId};
use spire_spines::{Dissemination, OverlayAddr, SpinesPort};
use std::collections::BTreeMap;

/// The Spines multicast group every replica joins on both overlays: a
/// replica's broadcast, and a client's submission to all replicas, is one
/// dissemination to this group.
pub const REPLICA_GROUP: u16 = 1;

/// How a replica reaches peers and clients.
pub trait ReplicaNet: Send {
    /// Called from the replica's `on_start` (e.g. to attach overlay ports).
    fn start(&mut self, ctx: &mut Context<'_>);

    /// Sends a payload to another replica.
    fn send_replica(&mut self, ctx: &mut Context<'_>, to: ReplicaId, payload: Bytes);

    /// Sends one payload to each of the `n` replicas but `me`. A transport
    /// that can multicast overrides the per-peer loop.
    fn send_all_replicas(&mut self, ctx: &mut Context<'_>, me: ReplicaId, n: u32, payload: Bytes) {
        for r in (0..n).filter(|r| *r != me.0) {
            self.send_replica(ctx, ReplicaId(r), payload.clone());
        }
    }

    /// Sends a payload to a client.
    fn send_client(&mut self, ctx: &mut Context<'_>, to: ClientId, payload: Bytes);

    /// Extracts the protocol payload from a raw incoming simulation
    /// message, or `None` if it is transport noise.
    fn unwrap(&self, from: ProcessId, bytes: &Bytes) -> Option<Bytes>;
}

/// Direct links: replica and client process ids are known statically.
#[derive(Clone, Debug, Default)]
pub struct DirectNet {
    /// Replica id -> process.
    pub replicas: Vec<ProcessId>,
    /// Client id -> process.
    pub clients: BTreeMap<u32, ProcessId>,
}

impl ReplicaNet for DirectNet {
    fn start(&mut self, _ctx: &mut Context<'_>) {}

    fn send_replica(&mut self, ctx: &mut Context<'_>, to: ReplicaId, payload: Bytes) {
        if let Some(pid) = self.replicas.get(to.0 as usize) {
            ctx.send(*pid, payload);
        }
    }

    fn send_client(&mut self, ctx: &mut Context<'_>, to: ClientId, payload: Bytes) {
        if let Some(pid) = self.clients.get(&to.0) {
            ctx.send(*pid, payload);
        }
    }

    fn unwrap(&self, _from: ProcessId, bytes: &Bytes) -> Option<Bytes> {
        Some(bytes.clone())
    }
}

/// Replica and client traffic alike goes by Spines' resilient
/// dissemination (constrained flooding, the paper's choice for the internal
/// network; Spines has groups under flooding only).
const MODE: Dissemination = Dissemination::Flood;
/// Every send asks for hop-by-hop reliability.
const RELIABLE: bool = true;

/// Spines transport: replicas are clients of an internal overlay; clients
/// (proxies/HMIs) are reached through an external overlay.
#[derive(Clone, Debug)]
pub struct SpinesNet {
    /// Port on the internal overlay (replica <-> replica).
    pub internal: SpinesPort,
    /// Overlay address of each replica on the internal network.
    pub replica_addrs: Vec<OverlayAddr>,
    /// Port on the external overlay (replica <-> proxies), if any.
    pub external: Option<SpinesPort>,
    /// Overlay address of each client on the external network.
    pub client_addrs: BTreeMap<u32, OverlayAddr>,
}

impl ReplicaNet for SpinesNet {
    fn start(&mut self, ctx: &mut Context<'_>) {
        for port in std::iter::once(&self.internal).chain(&self.external) {
            port.attach(ctx);
            port.join(ctx, REPLICA_GROUP);
        }
    }

    fn send_replica(&mut self, ctx: &mut Context<'_>, to: ReplicaId, payload: Bytes) {
        if let Some(addr) = self.replica_addrs.get(to.0 as usize).copied() {
            self.internal.send(ctx, addr, MODE, RELIABLE, payload);
        }
    }

    fn send_all_replicas(&mut self, ctx: &mut Context<'_>, _: ReplicaId, _: u32, payload: Bytes) {
        self.internal
            .send_group(ctx, REPLICA_GROUP, RELIABLE, payload);
    }

    fn send_client(&mut self, ctx: &mut Context<'_>, to: ClientId, payload: Bytes) {
        let port = self.external.as_ref().unwrap_or(&self.internal);
        if let Some(addr) = self.client_addrs.get(&to.0).copied() {
            port.send(ctx, addr, MODE, RELIABLE, payload);
        }
    }

    /// A delivery counts only from one of this replica's own daemons.
    fn unwrap(&self, from: ProcessId, bytes: &Bytes) -> Option<Bytes> {
        let ours = std::iter::once(&self.internal)
            .chain(&self.external)
            .any(|port| port.daemon_pid == from);
        if !ours {
            return None;
        }
        SpinesPort::decode_deliver(bytes).map(|(_, payload)| payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_net_unwrap_is_identity() {
        let net = DirectNet::default();
        let payload = Bytes::from_static(b"abc");
        assert_eq!(net.unwrap(ProcessId(0), &payload), Some(payload.clone()));
    }
}
