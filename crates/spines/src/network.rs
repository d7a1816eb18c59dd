//! Builder that instantiates a whole Spines overlay inside a simulation
//! [`World`]: one daemon process per overlay node, HMAC-keyed links between
//! neighbors, and helpers to attach client processes.

use crate::daemon::{Daemon, DaemonBehavior, DaemonConfig};
use crate::topology::{OverlayId, Topology};
use spire_crypto::{KeyMaterial, KeyStore, NodeId};
use spire_sim::{LinkConfig, ProcessId, World};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A deployed overlay network: daemon process ids and key material.
#[derive(Debug)]
pub struct OverlayNetwork {
    /// Static topology the overlay was built from.
    pub topology: Topology,
    /// Overlay node -> simulation process.
    pub daemons: BTreeMap<OverlayId, ProcessId>,
    /// Base offset of daemon crypto ids in the key store.
    pub key_base: u32,
}

impl OverlayNetwork {
    /// Builds the overlay in `world`.
    ///
    /// * `topology` — overlay graph; edge weights become routing costs.
    /// * `link_of` — maps each overlay edge to underlay link parameters.
    /// * `behavior_of` — per-daemon fault model (honest by default).
    /// * `material`/`key_base` — provisioned keys; daemon `i` signs as
    ///   crypto node `key_base + i`.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        world: &mut World,
        topology: &Topology,
        cfg: DaemonConfig,
        material: &KeyMaterial,
        keystore: &Arc<KeyStore>,
        key_base: u32,
        link_of: impl Fn(OverlayId, OverlayId) -> LinkConfig,
        behavior_of: impl Fn(OverlayId) -> DaemonBehavior,
    ) -> OverlayNetwork {
        OverlayNetwork::build_labeled(
            world,
            "overlay",
            topology,
            cfg,
            material,
            keystore,
            key_base,
            link_of,
            behavior_of,
        )
    }

    /// [`OverlayNetwork::build`] with the daemons' attribution counters
    /// published as `spines.<label>.*`, so a deployment's two overlays can
    /// be told apart.
    #[allow(clippy::too_many_arguments)]
    pub fn build_labeled(
        world: &mut World,
        label: &str,
        topology: &Topology,
        cfg: DaemonConfig,
        material: &KeyMaterial,
        keystore: &Arc<KeyStore>,
        key_base: u32,
        link_of: impl Fn(OverlayId, OverlayId) -> LinkConfig,
        behavior_of: impl Fn(OverlayId) -> DaemonBehavior,
    ) -> OverlayNetwork {
        // First pass: allocate process ids by creating placeholder entries.
        // We must know every neighbor's pid before constructing a daemon, so
        // compute the assignment up front: processes are added in ascending
        // overlay-id order and the world assigns ids sequentially.
        let nodes: Vec<OverlayId> = topology.nodes().collect();
        let first_pid = world.process_count() as u32;
        let pid_of = |node_index: usize| ProcessId(first_pid + node_index as u32);
        let index_of: BTreeMap<OverlayId, usize> =
            nodes.iter().enumerate().map(|(i, id)| (*id, i)).collect();

        let mut daemons = BTreeMap::new();
        for (i, id) in nodes.iter().enumerate() {
            let neighbors: Vec<(OverlayId, ProcessId, u32, [u8; 32])> = topology
                .neighbors(*id)
                .map(|(n, w)| {
                    let link_key = material.link_key(
                        NodeId(key_base + id.0 as u32),
                        NodeId(key_base + n.0 as u32),
                    );
                    (n, pid_of(index_of[&n]), w, link_key)
                })
                .collect();
            let daemon = Daemon::new(
                *id,
                cfg,
                behavior_of(*id),
                material.signing_key(NodeId(key_base + id.0 as u32)),
                Arc::clone(keystore),
                key_base,
                neighbors,
            )
            .with_label(label);
            let pid = world.add_process(&format!("spines-{id}"), Box::new(daemon));
            assert_eq!(pid, pid_of(i), "process id assignment diverged");
            daemons.insert(*id, pid);
        }
        // Underlay links between neighboring daemons.
        for (a, b, _) in topology.edges() {
            world.add_link(daemons[&a], daemons[&b], link_of(a, b));
        }
        OverlayNetwork {
            topology: topology.clone(),
            daemons,
            key_base,
        }
    }

    /// The simulation process of a daemon.
    pub fn daemon_pid(&self, id: OverlayId) -> ProcessId {
        self.daemons[&id]
    }

    /// Connects a client process to its local daemon with an intra-host
    /// link. The client must still send `ClientAttach` (via
    /// [`crate::client::SpinesPort::attach`]) from its `on_start`.
    pub fn wire_client(&self, world: &mut World, daemon: OverlayId, client: ProcessId) {
        world.add_link(self.daemon_pid(daemon), client, LinkConfig::local());
    }
}
