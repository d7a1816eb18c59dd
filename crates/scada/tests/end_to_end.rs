//! End-to-end SCADA loop over direct links (no overlay): field devices
//! report through proxies into a replicated master group, an HMI issues a
//! breaker command, and the command round-trips back to the device only
//! after f+1 replicas agree.

use bytes::Bytes;
use spire_crypto::keys::Signer;
use spire_crypto::{BatchSigner, KeyMaterial, KeyStore, NodeId};
use spire_prime::msg::encode_batched;
use spire_prime::{
    ByzBehavior, ClientId, ClientRouting, ClientSession, Inspection, PrimeConfig, PrimeMsg,
    Replica, ReplicaId,
};
use spire_scada::{
    Archive, CommandAction, Historian, Hmi, ProcessModel, Rtu, RtuProxy, ScadaDirectory,
    ScadaMaster, ScadaNotify,
};
use spire_sim::{Context, LinkConfig, Process, ProcessId, Span, Wire, World};
use std::collections::BTreeMap;
use std::sync::Arc;

fn link() -> LinkConfig {
    LinkConfig {
        latency: Span::millis(1),
        jitter: Span::micros(200),
        loss: 0.0,
        corrupt: 0.0,
        dup: 0.0,
        bandwidth_bps: None,
        max_queue: Span::secs(1),
    }
}

struct TestBed {
    world: World,
    inspection: Inspection,
    n_rtus: u32,
    archive: Archive,
}

fn prime_config() -> PrimeConfig {
    let mut c = PrimeConfig::new(1, 0); // n = 4
    c.progress_timeout = Span::secs(2);
    c
}

fn key_material() -> KeyMaterial {
    KeyMaterial::new([7u8; 32])
}

fn build(seed: u64, n_rtus: u32, byz: BTreeMap<u32, ByzBehavior>) -> TestBed {
    let cfg = prime_config();
    let mut world = World::new(seed);
    let material = key_material();
    let keystore = Arc::new(KeyStore::for_nodes(&material, 4096));
    let inspection = Inspection::new();

    let mut directory = ScadaDirectory::default();
    for r in 0..n_rtus {
        directory.rtu_proxy.insert(r, r);
    }
    directory.hmis.push(1000);
    directory.hmis.push(1001); // the historian subscribes to events too

    // Process id layout: replicas, then per-RTU (device, proxy), then HMI.
    let first = world.process_count() as u32;
    let replica_pids: Vec<ProcessId> = (0..cfg.n).map(|i| ProcessId(first + i)).collect();
    let mut client_pids: BTreeMap<u32, ProcessId> = BTreeMap::new();
    for r in 0..n_rtus {
        client_pids.insert(r, ProcessId(first + cfg.n + 2 * r + 1)); // proxies
    }
    client_pids.insert(1000, ProcessId(first + cfg.n + 2 * n_rtus)); // HMI
    client_pids.insert(1001, ProcessId(first + cfg.n + 2 * n_rtus + 1)); // historian

    for i in 0..cfg.n {
        let signer = Signer::new(
            material.signing_key(NodeId(cfg.replica_key_base + i)),
            false,
        );
        let net = spire_prime::DirectNet {
            replicas: replica_pids.clone(),
            clients: client_pids.clone(),
        };
        let replica = Replica::new(
            cfg.clone(),
            ReplicaId(i),
            byz.get(&i).copied().unwrap_or(ByzBehavior::Honest),
            Arc::clone(&keystore),
            signer,
            Box::new(net),
            Box::new(ScadaMaster::new(directory.clone())),
            false,
        )
        .with_inspection(inspection.clone());
        world.add_process(&format!("replica-{i}"), Box::new(replica));
    }
    let session = |id: u32| {
        let key = material.signing_key(NodeId(cfg.client_key_base + id));
        let routing = ClientRouting::Direct(replica_pids.clone());
        let keystore = Arc::clone(&keystore);
        ClientSession::new(
            &cfg,
            ClientId(id),
            Signer::new(key, false),
            routing,
            keystore,
        )
    };
    for r in 0..n_rtus {
        let device_pid = ProcessId(first + cfg.n + 2 * r);
        let proxy_pid = ProcessId(first + cfg.n + 2 * r + 1);
        let device = Rtu::new(r, proxy_pid, Span::millis(250), ProcessModel::default());
        assert_eq!(
            world.add_process(&format!("rtu-{r}"), Box::new(device)),
            device_pid
        );
        let proxy = RtuProxy::new(session(r), r, device_pid);
        assert_eq!(
            world.add_process(&format!("proxy-{r}"), Box::new(proxy)),
            proxy_pid
        );
        world.add_link(device_pid, proxy_pid, LinkConfig::local());
        for rp in &replica_pids {
            world.add_link(proxy_pid, *rp, link());
        }
    }
    let hmi = Hmi::new(session(1000), (0..n_rtus).collect(), Span::secs(3), 2);
    let hmi_pid = world.add_process("hmi", Box::new(hmi));
    assert_eq!(hmi_pid, client_pids[&1000]);
    for rp in &replica_pids {
        world.add_link(hmi_pid, *rp, link());
    }
    let archive = Archive::new();
    let historian = Historian::new(session(1001), archive.clone());
    let historian_pid = world.add_process("historian", Box::new(historian));
    assert_eq!(historian_pid, client_pids[&1001]);
    for rp in &replica_pids {
        world.add_link(historian_pid, *rp, link());
    }
    // Replicas full mesh.
    for i in 0..replica_pids.len() {
        for j in (i + 1)..replica_pids.len() {
            world.add_link(replica_pids[i], replica_pids[j], link());
        }
    }
    TestBed {
        world,
        inspection,
        n_rtus,
        archive,
    }
}

#[test]
fn device_updates_flow_to_replicated_masters() {
    let mut bed = build(1, 3, BTreeMap::new());
    bed.world.run_for(Span::secs(10));
    let m = bed.world.metrics();
    let sent = m.counter("scada.updates_sent");
    let confirmed = m.counter("scada.updates_confirmed");
    // 3 RTUs at 4 reports/s for 10 s.
    assert!(sent >= 110, "sent={sent}");
    assert_eq!(confirmed, sent);
    bed.inspection.check_safety(&[0, 1, 2, 3]).expect("safety");
    // Latency well under the SLA on a LAN.
    let lats = m.values("scada.update_latency_ms");
    let mean = lats.iter().sum::<f64>() / lats.len() as f64;
    assert!(mean < 100.0, "mean={mean}");
}

#[test]
fn hmi_command_actuates_breaker_through_consensus() {
    let mut bed = build(2, 2, BTreeMap::new());
    // Inject a *spontaneous* breaker trip at the device (a grid event, not
    // an operator command) at t=6 s: coil 1 of RTU 0 opens by itself.
    let device0 = ProcessId(4); // 4 replicas, then (device, proxy) pairs
    let proxy0 = ProcessId(5);
    bed.world.inject_message(
        spire_sim::Time(6_000_000),
        proxy0,
        device0,
        spire_scada::ModbusFrame::WriteCoil {
            txn: 999,
            coil: 1,
            on: false,
        }
        .encode(),
    );
    bed.world.run_for(Span::secs(12));
    let m = bed.world.metrics();
    // The HMI issued 2 commands; each was ordered, pushed to the right
    // proxy by f+1 replicas, actuated at the device, and acknowledged.
    assert_eq!(m.counter("hmi.commands_sent"), 2);
    assert_eq!(m.counter("hmi.commands_acked"), 2);
    assert_eq!(m.counter("scada.commands_actuated"), 2);
    assert!(m.counter("rtu0.coil_writes") + m.counter("rtu1.coil_writes") == 3);
    // Command latency was recorded.
    assert_eq!(m.values("scada.command_latency_ms").len(), 2);
    // Commanded transitions are applied optimistically by the masters and
    // do not alarm; the *spontaneous* trip does, on the next report.
    assert!(
        m.counter("hmi.alarms") >= 1,
        "no alarm for spontaneous trip"
    );
    // The historian archived the same f+1-validated event and can answer
    // incident queries about it.
    assert!(!bed.archive.is_empty(), "historian archived nothing");
    let history = bed.archive.breaker_history(0, 1);
    assert_eq!(history.len(), 1);
    assert!(!history[0].closed, "the trip opened the breaker");
    assert!(history[0].archived_at.0 > 6_000_000);
}

#[test]
fn one_divergent_master_cannot_mislead_proxies_or_devices() {
    let mut byz = BTreeMap::new();
    byz.insert(1u32, ByzBehavior::DivergentExec);
    let mut bed = build(3, 2, byz);
    bed.world.run_for(Span::secs(12));
    let m = bed.world.metrics();
    // Proxies still confirm everything (f+1 honest matching replies).
    assert_eq!(
        m.counter("scada.updates_confirmed"),
        m.counter("scada.updates_sent")
    );
    // Commands still actuate exactly as issued.
    assert_eq!(
        m.counter("scada.commands_actuated"),
        m.counter("hmi.commands_sent")
    );
    bed.inspection.check_safety(&[0, 2, 3]).expect("safety");
    let _ = bed.n_rtus;
}

/// A process that is no replica: at `at` it sends each `(client, frame)`.
struct Forger {
    at: Span,
    frames: Vec<(ProcessId, Bytes)>,
}

impl Process for Forger {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.at, 1);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: ProcessId, _bytes: &Bytes) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
        for (to, frame) in self.frames.drain(..) {
            ctx.send(to, frame);
        }
    }
}

/// Adds a forger wired to every client it writes to.
fn add_forger(bed: &mut TestBed, at: Span, frames: Vec<(ProcessId, Bytes)>) {
    let targets: std::collections::BTreeSet<ProcessId> = frames.iter().map(|(to, _)| *to).collect();
    let forger = bed
        .world
        .add_process("forger", Box::new(Forger { at, frames }));
    for to in targets {
        bed.world.add_link(forger, to, LinkConfig::local());
    }
}

/// Process ids in the testbed's layout: 4 replicas, (device, proxy) pairs,
/// the HMI, the historian.
fn proxy_pid(r: u32) -> ProcessId {
    ProcessId(4 + 2 * r + 1)
}

fn notify(replica: u32, client: u32, nseq: u64, payload: &[u8]) -> PrimeMsg {
    PrimeMsg::Notify {
        replica: ReplicaId(replica),
        client: ClientId(client),
        nseq,
        payload: Bytes::copy_from_slice(payload),
        sig: [0; 64],
    }
}

/// "Open breaker 0 of `rtu`", as the masters push it to the RTU's proxy.
fn open_breaker(rtu: u32) -> Vec<u8> {
    let action = CommandAction::OpenBreaker(0);
    ScadaNotify::Command {
        rtu,
        ts_us: 1,
        action,
    }
    .to_wire(16)
    .into_vec()
}

/// "Breaker 0 of RTU 0 opened", as the masters push it to HMI-class clients.
fn breaker_opened() -> Vec<u8> {
    let event = ScadaNotify::BreakerEvent {
        rtu: 0,
        breaker: 0,
        closed: false,
    };
    event.to_wire(8).into_vec()
}

/// The probe that motivated the author check: one process, no replica's
/// key, two never-signed notifications naming replicas 2 and 3. Before the
/// check a proxy took that for f + 1 masters and opened the breaker.
#[test]
fn one_sender_naming_two_replicas_actuates_nothing() {
    let mut bed = build(4, 1, BTreeMap::new());
    let frames = [2, 3]
        .map(|replica| {
            (
                proxy_pid(0),
                notify(replica, 0, 1, &open_breaker(0)).encode(),
            )
        })
        .to_vec();
    add_forger(&mut bed, Span::millis(100), frames);
    bed.world.run_for(Span::secs(1));
    let m = bed.world.metrics();
    assert_eq!(m.counter("scada.commands_actuated"), 0);
    assert_eq!(m.counter("rtu0.coil_writes"), 0);
    assert_eq!(m.counter("client.bad_reply_auth"), 2);
}

/// `f + 1` = 2 copies of what `make(replica, variant)` builds, under
/// distinct replica ids and none of them authentic, in each of the four
/// ways a forger holding compromised replica 0's key (and two client keys)
/// can try. `make` is told the variant so that it can keep their tally
/// keys apart.
fn forgeries(make: impl Fn(u32, u64) -> PrimeMsg) -> Vec<Bytes> {
    let (cfg, material) = (prime_config(), key_material());
    let key = |node| Signer::new(material.signing_key(NodeId(node)), false);
    let replica0 = key(cfg.replica_key_base);
    let mut frames = Vec::new();
    // 0: never signed.
    frames.extend([2, 3].map(|r| make(r, 0).encode()));
    // 1: signed, by another replica's key.
    frames.extend([2, 3].map(|r| {
        let mut msg = make(r, 1);
        msg.sign(&replica0);
        msg.encode()
    }));
    // 2: inside replica 0's validly signed batch, naming other replicas.
    let inner = [2, 3].map(|r| make(r, 2).encode());
    let mut batcher = BatchSigner::new();
    for payload in &inner {
        batcher.push(spire_crypto::digest(payload));
    }
    let batch = batcher.flush(&replica0).expect("two leaves");
    for (i, payload) in inner.iter().enumerate() {
        frames.push(encode_batched(ReplicaId(0), &batch.attestation(i), payload));
    }
    // 3: a valid signature under a key the store holds, a client's, which
    // `replica_key_base + replica` reaches for a "replica" that is none.
    frames.extend([0, 1].map(|client| {
        let mut msg = make(cfg.client_key_base - cfg.replica_key_base + client, 3);
        msg.sign(&key(cfg.client_key_base + client));
        msg.encode()
    }));
    frames
}

/// Every client is sent forged quorums while the first update of each
/// proxy is in flight: nothing confirms early, nothing actuates, alarms or
/// is archived, and the honest quorums still decide everything afterwards.
#[test]
fn forged_votes_move_no_client_and_the_honest_quorum_still_confirms() {
    let mut bed = build(5, 2, BTreeMap::new());
    let (hmi, historian) = (ProcessId(4 + 2 * 2), ProcessId(4 + 2 * 2 + 1));
    let mut frames = Vec::new();
    let mut aim =
        |to: ProcessId, forged: Vec<Bytes>| frames.extend(forged.into_iter().map(|f| (to, f)));
    for rtu in 0..2 {
        // The first report goes out at 250 ms as cseq 1 and takes tens of
        // milliseconds to order.
        aim(
            proxy_pid(rtu),
            forgeries(|replica, _| PrimeMsg::Reply {
                replica: ReplicaId(replica),
                client: ClientId(rtu),
                cseq: 1,
                result: Bytes::from_static(b"forged"),
                sig: [0; 64],
            }),
        );
        aim(
            proxy_pid(rtu),
            forgeries(|replica, v| notify(replica, rtu, 1 + v, &open_breaker(rtu))),
        );
    }
    for (pid, client) in [(hmi, 1000), (historian, 1001)] {
        aim(
            pid,
            forgeries(|replica, v| notify(replica, client, 1 + v, &breaker_opened())),
        );
    }
    let forged = frames.len() as u64;
    add_forger(&mut bed, Span::millis(255), frames);

    bed.world.run_for(Span::millis(260));
    let m = bed.world.metrics();
    assert_eq!(
        m.counter("scada.updates_sent"),
        2,
        "one update per proxy in flight"
    );
    assert_eq!(
        m.counter("scada.updates_confirmed"),
        0,
        "confirmed on forged replies"
    );
    assert_eq!(m.counter("scada.commands_actuated"), 0);
    assert_eq!(m.counter("hmi.alarms"), 0);
    assert!(bed.archive.is_empty(), "forged event archived");
    assert_eq!(m.counter("client.bad_reply_auth"), forged);
    assert_eq!(m.counter("client.quorums"), 0);

    // To 12.16 s: both commands are through and no report is in flight.
    bed.world.run_for(Span::millis(11_900));
    let m = bed.world.metrics();
    assert_eq!(
        m.counter("scada.updates_confirmed"),
        m.counter("scada.updates_sent")
    );
    assert_eq!(m.counter("hmi.commands_sent"), 2);
    assert_eq!(m.counter("scada.commands_actuated"), 2);
    assert_eq!(m.counter("hmi.commands_acked"), 2);
    assert_eq!(m.counter("scada.conflicting_accept"), 0);
    assert_eq!(m.counter("client.bad_reply_auth"), forged);
    assert!(bed.archive.is_empty());
    bed.inspection.check_safety(&[0, 1, 2, 3]).expect("safety");
}
