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
    /// The master's process id.
    pub master_pid: ProcessId,
    /// The external overlay (CC + substation hubs).
    pub external: OverlayNetwork,
    /// Proxy process ids.
    pub proxy_pids: Vec<ProcessId>,
    /// Workload used.
    pub workload: WorkloadConfig,
}

impl BaselineDeployment {
    /// Builds the baseline: one control center, `workload.rtus` substations
    /// single-homed to it, one HMI.
    pub fn build(seed: u64, workload: WorkloadConfig, mock_sigs: bool) -> BaselineDeployment {
        let mut world = World::new(seed);
        let material = KeyMaterial::new([0x55u8; 32]);
        let keystore = Arc::new(KeyStore::for_nodes(&material, 4096));
        let n_rtus = workload.rtus;

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
        directory.hmis.push(1000);

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
            1000,
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

        let mut proxy_pids = Vec::new();
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
            proxy_pids.push(proxy_pid);
        }

        // HMI at the control center.
        let signer = Signer::new(
            material.signing_key(NodeId(key_base::CLIENT + 1000)),
            mock_sigs,
        );
        let session = ClientSession::new(
            &prime,
            ClientId(1000),
            signer,
            ClientRouting::Spines {
                port: SpinesPort::new(external.daemon_pid(OverlayId(0)), client_addrs[&1000]),
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
            master_pid,
            external,
            proxy_pids,
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

    /// Compromises the single master (it simply stops serving) at `at` —
    /// the baseline has no tolerance to offer.
    pub fn schedule_master_compromise(&mut self, at: Time) {
        let pid = self.master_pid;
        self.world.schedule_control(at, move |w| {
            w.crash(pid);
        });
    }
}

impl std::fmt::Debug for BaselineDeployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BaselineDeployment(rtus={})", self.workload.rtus)
    }
}
