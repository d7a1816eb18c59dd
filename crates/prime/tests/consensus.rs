//! End-to-end tests of the Prime replication engine over direct simulation
//! links: ordering under normal operation, crash faults, Byzantine leaders
//! (delay, equivocation, mute), vote withholding, execution divergence,
//! proactive recovery with state transfer, and safety invariants throughout.

use bytes::Bytes;
use spire_crypto::keys::Signer;
use spire_crypto::{KeyMaterial, KeyStore, NodeId};
use spire_prime::{
    ByzBehavior, ClientId, ClientRouting, ClientSession, CounterApp, HashChainApp, Inspection,
    PrimeConfig, ProtocolMode, Replica, ReplicaId, TestClient,
};
use spire_sim::{LinkConfig, ProcessId, Span, World};
use std::sync::Arc;

struct Cluster {
    world: World,
    replica_pids: Vec<ProcessId>,
    inspection: Inspection,
    cfg: PrimeConfig,
    material: KeyMaterial,
    keystore: Arc<KeyStore>,
}

fn link() -> LinkConfig {
    LinkConfig {
        latency: Span::millis(2),
        jitter: Span::micros(500),
        loss: 0.0,
        corrupt: 0.0,
        dup: 0.0,
        bandwidth_bps: None,
        max_queue: Span::secs(10),
    }
}

fn build_cluster(
    seed: u64,
    mut cfg: PrimeConfig,
    mock_sigs: bool,
    behavior_of: impl Fn(u32) -> ByzBehavior,
) -> Cluster {
    cfg.progress_timeout = Span::secs(2);
    let mut world = World::new(seed);
    let material = KeyMaterial::new([3u8; 32]);
    let keystore = Arc::new(KeyStore::for_nodes(&material, 3000));
    let inspection = Inspection::new();
    let n = cfg.n;
    // Allocate replica pids first (processes added in order).
    let first = world.process_count() as u32;
    let replica_pids: Vec<ProcessId> = (0..n).map(|i| ProcessId(first + i)).collect();
    for i in 0..n {
        let signer = Signer::new(
            material.signing_key(NodeId(cfg.replica_key_base + i)),
            mock_sigs,
        );
        let net = spire_prime::DirectNet {
            replicas: replica_pids.clone(),
            clients: Default::default(),
        };
        let replica = Replica::new(
            cfg.clone(),
            ReplicaId(i),
            behavior_of(i),
            Arc::clone(&keystore),
            signer,
            Box::new(net),
            Box::new(HashChainApp::new()),
            false,
        )
        .with_inspection(inspection.clone());
        let pid = world.add_process(&format!("replica-{i}"), Box::new(replica));
        assert_eq!(pid, replica_pids[i as usize]);
    }
    for i in 0..n as usize {
        for j in (i + 1)..n as usize {
            world.add_link(replica_pids[i], replica_pids[j], link());
        }
    }
    Cluster {
        world,
        replica_pids,
        inspection,
        cfg,
        material,
        keystore,
    }
}

fn add_client(cluster: &mut Cluster, id: u32, interval: Span, count: u64) -> ProcessId {
    let signer = Signer::new(
        cluster
            .material
            .signing_key(NodeId(cluster.cfg.client_key_base + id)),
        false,
    );
    let session = ClientSession::new(
        &cluster.cfg,
        ClientId(id),
        signer,
        ClientRouting::Direct(cluster.replica_pids.clone()),
        Arc::clone(&cluster.keystore),
    );
    let client = TestClient::new(session, interval, count, &format!("client{id}"));
    let pid = cluster
        .world
        .add_process(&format!("client-{id}"), Box::new(client));
    for rpid in cluster.replica_pids.clone() {
        cluster.world.add_link(pid, rpid, link());
    }
    // Register the client with every replica's DirectNet... replicas were
    // built before the client existed, so reply routing uses this link via
    // the DirectNet clients map. Rebuild is impossible; instead replicas
    // learn client pids through this helper: DirectNet is cloned into the
    // replica at construction, so instead we pre-allocate client pids.
    pid
}

// NOTE: because DirectNet's client map is fixed at construction, tests
// pre-compute the client pid (processes are added in order) and pass it in
// behavior-independent cluster builders below.

fn build_cluster_with_clients(
    seed: u64,
    cfg: PrimeConfig,
    mock_sigs: bool,
    clients: &[(u32, Span, u64)],
    behavior_of: impl Fn(u32) -> ByzBehavior,
) -> Cluster {
    let mut cluster = build_cluster_with_clients_inner(seed, cfg, mock_sigs, clients, behavior_of);
    cluster.world.run_for(Span::millis(1)); // let on_start fire
    cluster
}

fn build_cluster_with_clients_inner(
    seed: u64,
    mut cfg: PrimeConfig,
    mock_sigs: bool,
    clients: &[(u32, Span, u64)],
    behavior_of: impl Fn(u32) -> ByzBehavior,
) -> Cluster {
    cfg.progress_timeout = Span::secs(2);
    let mut world = World::new(seed);
    let material = KeyMaterial::new([3u8; 32]);
    let keystore = Arc::new(KeyStore::for_nodes(&material, 3000));
    let inspection = Inspection::new();
    let n = cfg.n;
    let first = world.process_count() as u32;
    let replica_pids: Vec<ProcessId> = (0..n).map(|i| ProcessId(first + i)).collect();
    let client_pids: std::collections::BTreeMap<u32, ProcessId> = clients
        .iter()
        .enumerate()
        .map(|(idx, (id, _, _))| (*id, ProcessId(first + n + idx as u32)))
        .collect();
    for i in 0..n {
        let signer = Signer::new(
            material.signing_key(NodeId(cfg.replica_key_base + i)),
            mock_sigs,
        );
        let net = spire_prime::DirectNet {
            replicas: replica_pids.clone(),
            clients: client_pids.clone(),
        };
        let replica = Replica::new(
            cfg.clone(),
            ReplicaId(i),
            behavior_of(i),
            Arc::clone(&keystore),
            signer,
            Box::new(net),
            Box::new(HashChainApp::new()),
            false,
        )
        .with_inspection(inspection.clone());
        world.add_process(&format!("replica-{i}"), Box::new(replica));
    }
    for (id, interval, count) in clients {
        let signer = Signer::new(
            material.signing_key(NodeId(cfg.client_key_base + id)),
            mock_sigs,
        );
        let session = ClientSession::new(
            &cfg,
            ClientId(*id),
            signer,
            ClientRouting::Direct(replica_pids.clone()),
            Arc::clone(&keystore),
        );
        let client = TestClient::new(session, *interval, *count, &format!("client{id}"));
        let pid = world.add_process(&format!("client-{id}"), Box::new(client));
        assert_eq!(pid, client_pids[id]);
    }
    // Full mesh among replicas and clients.
    for i in 0..n as usize {
        for j in (i + 1)..n as usize {
            world.add_link(replica_pids[i], replica_pids[j], link());
        }
    }
    for pid in client_pids.values() {
        for rpid in &replica_pids {
            world.add_link(*pid, *rpid, link());
        }
    }
    Cluster {
        world,
        replica_pids,
        inspection,
        cfg,
        material,
        keystore,
    }
}

fn honest(_: u32) -> ByzBehavior {
    ByzBehavior::Honest
}

fn correct_ids(cfg: &PrimeConfig, behavior_of: impl Fn(u32) -> ByzBehavior) -> Vec<u32> {
    (0..cfg.n)
        .filter(|i| !behavior_of(*i).is_byzantine())
        .collect()
}

#[test]
fn normal_operation_orders_and_executes() {
    let cfg = PrimeConfig::new(1, 1);
    let mut cluster =
        build_cluster_with_clients(1, cfg.clone(), false, &[(0, Span::millis(50), 30)], honest);
    cluster.world.run_for(Span::secs(10));
    assert_eq!(cluster.world.metrics().counter("client0.accepted"), 30);
    let all: Vec<u32> = (0..cfg.n).collect();
    cluster.inspection.check_safety(&all).expect("safety");
    assert_eq!(cluster.inspection.min_executed(&all), 30);
    // Latency should be a handful of round trips (2 ms links).
    let lats = cluster.world.metrics().values("client0.latency_ms");
    let mean = lats.iter().sum::<f64>() / lats.len() as f64;
    assert!(mean < 150.0, "mean latency {mean} ms");
    // No view changes under normal operation.
    assert_eq!(cluster.world.metrics().counter("prime.view_changes"), 0);
}

#[test]
fn mock_signatures_behave_identically() {
    let cfg = PrimeConfig::new(1, 1);
    let mut cluster =
        build_cluster_with_clients(1, cfg.clone(), true, &[(0, Span::millis(50), 30)], honest);
    cluster.world.run_for(Span::secs(10));
    assert_eq!(cluster.world.metrics().counter("client0.accepted"), 30);
    let all: Vec<u32> = (0..cfg.n).collect();
    cluster.inspection.check_safety(&all).expect("safety");
}

#[test]
fn multiple_clients_multiple_batches() {
    let cfg = PrimeConfig::new(1, 1);
    let clients: Vec<(u32, Span, u64)> = (0..4)
        .map(|i| (i, Span::millis(20 + i as u64), 25u64))
        .collect();
    let mut cluster = build_cluster_with_clients(7, cfg.clone(), false, &clients, honest);
    cluster.world.run_for(Span::secs(15));
    for i in 0..4 {
        assert_eq!(
            cluster
                .world
                .metrics()
                .counter(&format!("client{i}.accepted")),
            25,
            "client {i}"
        );
    }
    let all: Vec<u32> = (0..cfg.n).collect();
    cluster.inspection.check_safety(&all).expect("safety");
    assert_eq!(cluster.inspection.min_executed(&all), 100);
}

#[test]
fn tolerates_f_crashed_replicas() {
    let cfg = PrimeConfig::new(1, 1);
    // f=1 crash + k=1 "recovering" (also down) = 2 down, 4 of 6 remain.
    let mut cluster =
        build_cluster_with_clients(2, cfg.clone(), false, &[(0, Span::millis(50), 40)], honest);
    let victim1 = cluster.replica_pids[3];
    let victim2 = cluster.replica_pids[4];
    cluster
        .world
        .schedule_control(spire_sim::Time(500_000), move |w| {
            w.crash(victim1);
            w.crash(victim2);
        });
    cluster.world.run_for(Span::secs(15));
    assert_eq!(cluster.world.metrics().counter("client0.accepted"), 40);
    cluster
        .inspection
        .check_safety(&[0, 1, 2, 5])
        .expect("safety among survivors");
}

#[test]
fn mute_leader_triggers_view_change_and_service_continues() {
    let cfg = PrimeConfig::new(1, 1);
    let behavior = |i: u32| {
        if i == 0 {
            ByzBehavior::Mute // leader of view 0
        } else {
            ByzBehavior::Honest
        }
    };
    let mut cluster = build_cluster_with_clients(
        3,
        cfg.clone(),
        false,
        &[(0, Span::millis(50), 30)],
        behavior,
    );
    cluster.world.run_for(Span::secs(20));
    assert!(cluster.world.metrics().counter("prime.view_changes") >= 1);
    assert_eq!(cluster.world.metrics().counter("client0.accepted"), 30);
    let correct = correct_ids(&cfg, behavior);
    cluster.inspection.check_safety(&correct).expect("safety");
}

#[test]
fn equivocating_leader_cannot_break_safety() {
    let cfg = PrimeConfig::new(1, 1);
    let behavior = |i: u32| {
        if i == 0 {
            ByzBehavior::Equivocate
        } else {
            ByzBehavior::Honest
        }
    };
    let mut cluster = build_cluster_with_clients(
        4,
        cfg.clone(),
        false,
        &[(0, Span::millis(50), 30)],
        behavior,
    );
    cluster.world.run_for(Span::secs(25));
    let correct = correct_ids(&cfg, behavior);
    cluster.inspection.check_safety(&correct).expect("safety");
    // The equivocating leader is eventually replaced and service resumes.
    assert!(cluster.world.metrics().counter("prime.view_changes") >= 1);
    assert_eq!(cluster.world.metrics().counter("client0.accepted"), 30);
}

#[test]
fn ack_withholding_replica_does_not_block_progress() {
    let cfg = PrimeConfig::new(1, 1);
    let behavior = |i: u32| {
        if i == 5 {
            ByzBehavior::AckWithhold
        } else {
            ByzBehavior::Honest
        }
    };
    let mut cluster = build_cluster_with_clients(
        5,
        cfg.clone(),
        false,
        &[(0, Span::millis(50), 30)],
        behavior,
    );
    cluster.world.run_for(Span::secs(15));
    assert_eq!(cluster.world.metrics().counter("client0.accepted"), 30);
}

#[test]
fn divergent_execution_is_masked_from_clients() {
    let cfg = PrimeConfig::new(1, 1);
    let behavior = |i: u32| {
        if i == 2 {
            ByzBehavior::DivergentExec
        } else {
            ByzBehavior::Honest
        }
    };
    let mut cluster = build_cluster_with_clients(
        6,
        cfg.clone(),
        false,
        &[(0, Span::millis(50), 25)],
        behavior,
    );
    cluster.world.run_for(Span::secs(15));
    // Clients still accept (f+1 matching correct replies exist)...
    assert_eq!(cluster.world.metrics().counter("client0.accepted"), 25);
    // ...and the correct replicas agree with each other.
    let correct = correct_ids(&cfg, behavior);
    cluster.inspection.check_safety(&correct).expect("safety");
    // The divergent replica really did diverge (the attack was exercised).
    let records = cluster.inspection.records();
    assert_ne!(records[&2].app_digest, records[&0].app_digest);
}

#[test]
fn delaying_leader_in_prime_mode_is_replaced() {
    let mut cfg = PrimeConfig::new(1, 1);
    cfg.mode = ProtocolMode::Prime;
    let behavior = |i: u32| {
        if i == 0 {
            ByzBehavior::LeaderDelay(Span::millis(900))
        } else {
            ByzBehavior::Honest
        }
    };
    let mut cluster = build_cluster_with_clients(
        8,
        cfg.clone(),
        false,
        &[(0, Span::millis(50), 60)],
        behavior,
    );
    cluster.world.run_for(Span::secs(30));
    // Prime's turnaround monitoring replaces the slow leader well before the
    // 2 s progress timeout would fire per proposal.
    assert!(
        cluster.world.metrics().counter("prime.view_changes") >= 1,
        "slow leader was never suspected"
    );
    assert_eq!(cluster.world.metrics().counter("client0.accepted"), 60);
    // After the view change, latency returns to normal: overall mean stays
    // far below the 900 ms injected delay.
    let lats = cluster.world.metrics().values("client0.latency_ms");
    let p50 = spire_sim::stats::percentile(&lats, 50.0);
    assert!(p50 < 450.0, "median latency {p50} ms under Prime");
}

#[test]
fn delaying_leader_in_pbft_mode_degrades_forever() {
    let mut cfg = PrimeConfig::new(1, 1);
    cfg.mode = ProtocolMode::PbftLike;
    let behavior = |i: u32| {
        if i == 0 {
            // Just below the 2 s progress timeout.
            ByzBehavior::LeaderDelay(Span::millis(900))
        } else {
            ByzBehavior::Honest
        }
    };
    let mut cluster = build_cluster_with_clients(
        9,
        cfg.clone(),
        false,
        &[(0, Span::millis(50), 60)],
        behavior,
    );
    cluster.world.run_for(Span::secs(60));
    // The PBFT-like baseline never suspects the slow-but-not-stopped leader.
    assert_eq!(
        cluster.world.metrics().counter("prime.view_changes"),
        0,
        "pbft mode should not detect the performance attack"
    );
    let lats = cluster.world.metrics().values("client0.latency_ms");
    assert!(!lats.is_empty());
    let p50 = spire_sim::stats::percentile(&lats, 50.0);
    assert!(
        p50 > 450.0,
        "median latency {p50} ms should stay degraded in pbft mode"
    );
}

#[test]
fn proactive_recovery_rejoins_via_state_transfer() {
    let mut cfg = PrimeConfig::new(1, 1);
    cfg.checkpoint_interval = 5;
    let mut cluster =
        build_cluster_with_clients(10, cfg.clone(), false, &[(0, Span::millis(25), 0)], honest);
    // Proactively recover replica 4 at t=1.5 s (checkpoints every 5
    // matrices exist within the first second): restart with a fresh,
    // recovering state machine.
    let pid = cluster.replica_pids[4];
    let material = cluster.material.clone();
    let keystore = Arc::clone(&cluster.keystore);
    let inspection = cluster.inspection.clone();
    let replica_pids = cluster.replica_pids.clone();
    let client_pid = ProcessId(replica_pids.last().unwrap().0 + 1);
    let cfg2 = cfg.clone();
    cluster
        .world
        .schedule_control(spire_sim::Time(1_500_000), move |w| {
            let signer = Signer::new(
                material.signing_key(NodeId(cfg2.replica_key_base + 4)),
                false,
            );
            let mut clients = std::collections::BTreeMap::new();
            clients.insert(0u32, client_pid);
            let net = spire_prime::DirectNet {
                replicas: replica_pids.clone(),
                clients,
            };
            let replica = Replica::new(
                cfg2.clone(),
                ReplicaId(4),
                ByzBehavior::Honest,
                keystore,
                signer,
                Box::new(net),
                Box::new(HashChainApp::new()),
                true, // recovering
            )
            .with_inspection(inspection.clone());
            w.restart(pid, Box::new(replica));
        });
    cluster.world.run_for(Span::millis(3_500));
    // Recovery completed and the recovered replica is executing again.
    assert_eq!(
        cluster.world.metrics().counter("prime.recovery_completed"),
        1
    );
    let records = cluster.inspection.records();
    let max_exec = records.values().map(|r| r.last_executed).max().unwrap();
    assert!(
        records[&4].last_executed + 10 >= max_exec,
        "recovered replica lags: {} vs {max_exec}",
        records[&4].last_executed
    );
    // Service never stopped (k=1 budget covers the recovery).
    let accepted = cluster.world.metrics().counter("client0.accepted");
    let sent = cluster.world.metrics().counter("client0.sent");
    assert!(accepted * 100 >= sent * 95, "accepted {accepted} of {sent}");
}

#[test]
fn equivocating_po_origin_cannot_split_execution() {
    // Replica 5 equivocates at the pre-ordering layer: different batch
    // contents under the same (origin, po_seq). At most one digest can
    // certify (quorum intersection); correct replicas must stay identical
    // and service must continue (ops are also batched by honest origins).
    let cfg = PrimeConfig::new(1, 1);
    let behavior = |i: u32| {
        if i == 5 {
            ByzBehavior::EquivocatePo
        } else {
            ByzBehavior::Honest
        }
    };
    let mut cluster = build_cluster_with_clients(
        21,
        cfg.clone(),
        false,
        &[(0, Span::millis(30), 40)],
        behavior,
    );
    cluster.world.run_for(Span::secs(20));
    assert_eq!(cluster.world.metrics().counter("client0.accepted"), 40);
    let correct = correct_ids(&cfg, behavior);
    cluster.inspection.check_safety(&correct).expect("safety");
}

#[test]
fn f2_configuration_works() {
    let cfg = PrimeConfig::new(2, 1); // n = 9
    let behavior = |i: u32| {
        if i == 3 || i == 7 {
            ByzBehavior::Mute
        } else {
            ByzBehavior::Honest
        }
    };
    let mut cluster = build_cluster_with_clients(
        11,
        cfg.clone(),
        true,
        &[(0, Span::millis(50), 20)],
        behavior,
    );
    cluster.world.run_for(Span::secs(15));
    assert_eq!(cluster.world.metrics().counter("client0.accepted"), 20);
    let correct = correct_ids(&cfg, behavior);
    cluster.inspection.check_safety(&correct).expect("safety");
}

#[test]
fn deterministic_across_seeds_for_same_seed() {
    fn run(seed: u64) -> (u64, u64) {
        let cfg = PrimeConfig::new(1, 0);
        let mut cluster =
            build_cluster_with_clients(seed, cfg, false, &[(0, Span::millis(40), 15)], honest);
        cluster.world.run_for(Span::secs(8));
        (
            cluster.world.metrics().counter("client0.accepted"),
            cluster.world.metrics().counter("sim.delivered"),
        )
    }
    assert_eq!(run(42), run(42));
}

// keep the helper used (silence dead-code warnings in this test binary)
#[allow(dead_code)]
fn _unused(cluster: &mut Cluster) {
    let _ = add_client(cluster, 9, Span::secs(1), 1);
    let _ = build_cluster(0, PrimeConfig::new(1, 0), true, honest);
    let _ = Bytes::new();
    let _: Option<CounterApp> = None;
}
