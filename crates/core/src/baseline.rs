//! The "traditional SCADA" baseline the paper compares against: a single
//! (unreplicated) SCADA master in one control center, reached over plain
//! shortest-path networking. It meets the latency requirement in fair
//! weather and fails under intrusion or a control-center attack — the
//! contrast that motivates Spire.

use crate::deployment::key_base;
use bytes::Bytes;
use spire_crypto::keys::Signer;
use spire_crypto::{KeyMaterial, KeyStore, NodeId};
use spire_prime::{
    Application, ClientId, ClientRouting, ClientSession, PrimeConfig, PrimeMsg, ReplicaId,
};
use spire_scada::{Hmi, Rtu, RtuProxy, ScadaDirectory, ScadaMaster, WorkloadConfig};
use spire_sim::{LinkConfig, ProcessId, Span, Time, World};
use spire_spines::{
    DaemonBehavior, DaemonConfig, Dissemination, OverlayAddr, OverlayId, OverlayNetwork,
    SpinesPort, Topology,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// An unreplicated SCADA master: applies every valid signed op immediately
/// and replies. Implements the same client-facing protocol as the
/// replicated masters (so proxies and HMIs are reused unchanged, with
/// `f = 0` quorums).
pub struct SingleMaster {
    app: ScadaMaster,
    keystore: Arc<KeyStore>,
    signer: Signer,
    port: SpinesPort,
    client_addrs: BTreeMap<u32, OverlayAddr>,
    executed: BTreeMap<u32, u64>,
    mock: bool,
}

impl SingleMaster {
    /// Creates the master.
    pub fn new(
        app: ScadaMaster,
        keystore: Arc<KeyStore>,
        signer: Signer,
        port: SpinesPort,
        client_addrs: BTreeMap<u32, OverlayAddr>,
    ) -> SingleMaster {
        let mock = signer.is_mock();
        SingleMaster {
            app,
            keystore,
            signer,
            port,
            client_addrs,
            executed: BTreeMap::new(),
            mock,
        }
    }

    fn send_client(&self, ctx: &mut spire_sim::Context<'_>, client: u32, payload: Bytes) {
        if let Some(addr) = self.client_addrs.get(&client).copied() {
            self.port
                .send(ctx, addr, Dissemination::Shortest, true, payload);
        }
    }
}

impl spire_sim::Process for SingleMaster {
    fn on_start(&mut self, ctx: &mut spire_sim::Context<'_>) {
        self.port.attach(ctx);
    }

    fn on_message(&mut self, ctx: &mut spire_sim::Context<'_>, _from: ProcessId, bytes: &Bytes) {
        let Some((_, payload)) = SpinesPort::decode_deliver(bytes) else {
            return;
        };
        let Ok(PrimeMsg::Op(op)) = PrimeMsg::decode(&payload) else {
            return;
        };
        if !op.verify(&self.keystore, key_base::CLIENT, self.mock) {
            return;
        }
        let last = self.executed.entry(op.client.0).or_insert(0);
        if op.cseq <= *last {
            return;
        }
        *last = op.cseq;
        let outcome = self.app.execute(&op.payload);
        let mut reply = PrimeMsg::Reply {
            replica: ReplicaId(0),
            client: op.client,
            cseq: op.cseq,
            result: Bytes::from(outcome.reply),
            sig: [0; 64],
        };
        reply.sign(&self.signer);
        self.send_client(ctx, op.client.0, reply.encode());
        for notification in outcome.notifications {
            let mut msg = PrimeMsg::Notify {
                replica: ReplicaId(0),
                client: notification.target,
                nseq: notification.nseq,
                payload: Bytes::from(notification.payload),
                sig: [0; 64],
            };
            msg.sign(&self.signer);
            self.send_client(ctx, notification.target.0, msg.encode());
        }
        ctx.count("baseline.ops_executed", 1);
    }
}

impl std::fmt::Debug for SingleMaster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SingleMaster")
    }
}

/// A built baseline system (single control center, single master).
pub struct BaselineDeployment {
    /// The simulation world.
    pub world: World,
    /// The external overlay (CC + substation hubs).
    pub external: OverlayNetwork,
    /// Workload used.
    pub workload: WorkloadConfig,
}

/// The HMI's client id.
const HMI_CLIENT: u32 = 1000;

/// The identities a baseline with `n_rtus` substations assigns: the master,
/// one client per RTU proxy, the HMI, and the daemons of the control center
/// and of each substation hub.
fn identities(n_rtus: u32) -> impl Iterator<Item = NodeId> {
    let clients = (0..n_rtus).chain([HMI_CLIENT]);
    std::iter::once(key_base::REPLICA)
        .chain(clients.map(|c| key_base::CLIENT + c))
        .chain((0..=n_rtus).map(|d| key_base::EXTERNAL_DAEMON + d))
        .map(NodeId)
}

impl BaselineDeployment {
    /// Builds the baseline: one control center, `workload.rtus` substations
    /// single-homed to it, one HMI.
    pub fn build(seed: u64, workload: WorkloadConfig, mock_sigs: bool) -> BaselineDeployment {
        let mut world = World::new(seed);
        let material = KeyMaterial::new([0x55u8; 32]);
        let n_rtus = workload.rtus;
        let keystore = Arc::new(KeyStore::for_ids(&material, identities(n_rtus)));

        // External overlay: CC (node 0) + one hub per substation.
        let mut topology = Topology::new();
        topology.add_node(OverlayId(0));
        for r in 0..n_rtus {
            let hub = OverlayId(1 + r as u16);
            topology.add_node(hub);
            topology.add_edge(hub, OverlayId(0), 3);
        }
        let external = OverlayNetwork::build(
            &mut world,
            &topology,
            DaemonConfig::default(),
            &material,
            &keystore,
            key_base::EXTERNAL_DAEMON,
            |_, _| LinkConfig::wan(3),
            |_| DaemonBehavior::Honest,
        );

        let mut directory = ScadaDirectory::default();
        for r in 0..n_rtus {
            directory.rtu_proxy.insert(r, r);
        }
        directory.hmis.push(HMI_CLIENT);

        let mut client_addrs: BTreeMap<u32, OverlayAddr> = BTreeMap::new();
        for r in 0..n_rtus {
            client_addrs.insert(
                r,
                OverlayAddr {
                    node: OverlayId(1 + r as u16),
                    port: 40,
                },
            );
        }
        client_addrs.insert(
            HMI_CLIENT,
            OverlayAddr {
                node: OverlayId(0),
                port: 200,
            },
        );
        let master_addr = OverlayAddr {
            node: OverlayId(0),
            port: 100,
        };

        // f = 0: proxies accept a single reply.
        let mut prime = PrimeConfig::new(0, 0);
        prime.n = 1;
        prime.replica_key_base = key_base::REPLICA;
        prime.client_key_base = key_base::CLIENT;

        let master = SingleMaster::new(
            ScadaMaster::new(directory.clone()),
            Arc::clone(&keystore),
            Signer::new(material.signing_key(NodeId(key_base::REPLICA)), mock_sigs),
            SpinesPort::new(external.daemon_pid(OverlayId(0)), master_addr),
            client_addrs.clone(),
        );
        let master_pid = world.add_process("scada-master", Box::new(master));
        external.wire_client(&mut world, OverlayId(0), master_pid);

        for r in 0..n_rtus {
            let hub = OverlayId(1 + r as u16);
            let first = world.process_count() as u32;
            let proxy_pid = ProcessId(first + 1);
            let device = Rtu::new(r, proxy_pid, workload.update_interval, workload.process);
            let device_pid = world.add_process(&format!("rtu-{r}"), Box::new(device));
            let signer = Signer::new(
                material.signing_key(NodeId(key_base::CLIENT + r)),
                mock_sigs,
            );
            let session = ClientSession::new(
                &prime,
                ClientId(r),
                signer,
                ClientRouting::Spines {
                    port: SpinesPort::new(external.daemon_pid(hub), client_addrs[&r]),
                    addrs: vec![master_addr],
                    mode: Dissemination::Shortest,
                },
                Arc::clone(&keystore),
            );
            let proxy = RtuProxy::new(session, r, device_pid);
            let got = world.add_process(&format!("proxy-{r}"), Box::new(proxy));
            assert_eq!(got, proxy_pid);
            world.add_link(device_pid, proxy_pid, LinkConfig::local());
            external.wire_client(&mut world, hub, proxy_pid);
        }

        // HMI at the control center.
        let signer = Signer::new(
            material.signing_key(NodeId(key_base::CLIENT + HMI_CLIENT)),
            mock_sigs,
        );
        let session = ClientSession::new(
            &prime,
            ClientId(HMI_CLIENT),
            signer,
            ClientRouting::Spines {
                port: SpinesPort::new(external.daemon_pid(OverlayId(0)), client_addrs[&HMI_CLIENT]),
                addrs: vec![master_addr],
                mode: Dissemination::Shortest,
            },
            Arc::clone(&keystore),
        );
        let hmi = Hmi::new(session, (0..n_rtus).collect(), workload.command_interval, 0);
        let hmi_pid = world.add_process("hmi", Box::new(hmi));
        external.wire_client(&mut world, OverlayId(0), hmi_pid);

        BaselineDeployment {
            world,
            external,
            workload,
        }
    }

    /// Runs for `span`.
    pub fn run_for(&mut self, span: Span) {
        self.world.run_for(span);
    }

    /// Disconnects the control center's WAN links between `from`/`until`
    /// (the attack the baseline cannot survive).
    pub fn schedule_cc_outage(&mut self, from: Time, until: Time) {
        let cc = self.external.daemon_pid(OverlayId(0));
        let hubs: Vec<ProcessId> = (0..self.workload.rtus)
            .map(|r| self.external.daemon_pid(OverlayId(1 + r as u16)))
            .collect();
        let hubs2 = hubs.clone();
        self.world.schedule_control(from, move |w| {
            for hub in &hubs {
                w.set_link_up(cc, *hub, false);
            }
        });
        self.world.schedule_control(until, move |w| {
            for hub in &hubs2 {
                w.set_link_up(cc, *hub, true);
            }
        });
    }
}

impl std::fmt::Debug for BaselineDeployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BaselineDeployment(rtus={})", self.workload.rtus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_key_store_holds_exactly_the_identities_the_baseline_assigns() {
        let material = KeyMaterial::new([0x55u8; 32]);
        let keystore = KeyStore::for_ids(&material, identities(2));
        // The master, 2 proxies, the HMI, the CC daemon and 2 hub daemons.
        assert_eq!(keystore.len(), 1 + 2 + 1 + (1 + 2));
        let signed_by = |node: u32| {
            let sig = material.signing_key(NodeId(node)).sign(b"op");
            keystore.verify(NodeId(node), b"op", &sig)
        };
        assert!(signed_by(key_base::REPLICA) && signed_by(key_base::EXTERNAL_DAEMON + 2));
        assert!(signed_by(key_base::CLIENT + 1) && signed_by(key_base::CLIENT + HMI_CLIENT));
        // The right key for an id nobody was assigned verifies nowhere.
        for stranger in [
            key_base::REPLICA + 1,
            key_base::CLIENT + 2,
            key_base::EXTERNAL_DAEMON + 3,
        ] {
            assert!(!signed_by(stranger), "id {stranger}");
        }
    }

    /// Every identity the build hands out is one the key store holds: an
    /// update is confirmed and a command actuated end to end.
    #[test]
    fn a_baseline_built_on_those_identities_confirms_updates_and_commands() {
        let workload = WorkloadConfig {
            rtus: 2,
            update_interval: Span::millis(500),
            command_interval: Span::secs(1),
            ..Default::default()
        };
        let mut baseline = BaselineDeployment::build(3, workload, false);
        baseline.run_for(Span::secs(5));
        let m = baseline.world.metrics();
        assert!(m.counter("scada.updates_confirmed") >= 16);
        assert!(m.counter("scada.commands_actuated") >= 3);
    }
}
