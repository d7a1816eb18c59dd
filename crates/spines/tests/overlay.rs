//! End-to-end tests of the Spines overlay inside the simulator: delivery
//! under each dissemination mode, resilience to node/link failures, link
//! authentication, and per-source flooding fairness.

use bytes::Bytes;
use spire_crypto::hmac::hmac_sha256;
use spire_crypto::{KeyMaterial, KeyStore, NodeId};
use spire_sim::{Context, LinkConfig, Process, ProcessId, Span, World};
use spire_spines::{
    DaemonBehavior, DaemonConfig, DataMsg, Dissemination, OverlayAddr, OverlayId, OverlayMsg,
    OverlayNetwork, SpinesPort, Topology,
};
use std::sync::Arc;

const APP_PORT: u16 = 100;

/// A client that sends `count` messages to `dst` at a fixed interval and
/// records deliveries it receives.
struct App {
    port: SpinesPort,
    dst: Option<OverlayAddr>,
    mode: Dissemination,
    reliable: bool,
    count: u32,
    interval: Span,
    sent: u32,
    label: String,
}

impl App {
    fn sender(
        port: SpinesPort,
        dst: OverlayAddr,
        mode: Dissemination,
        reliable: bool,
        count: u32,
        interval: Span,
        label: &str,
    ) -> App {
        App {
            port,
            dst: Some(dst),
            mode,
            reliable,
            count,
            interval,
            sent: 0,
            label: label.to_string(),
        }
    }

    fn receiver(port: SpinesPort, label: &str) -> App {
        App {
            port,
            dst: None,
            mode: Dissemination::Shortest,
            reliable: false,
            count: 0,
            interval: Span::millis(100),
            sent: 0,
            label: label.to_string(),
        }
    }
}

impl Process for App {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.port.attach(ctx);
        if self.dst.is_some() && self.count > 0 {
            ctx.set_timer(Span::millis(100), 1);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ProcessId, bytes: &Bytes) {
        if let Some((_, payload)) = SpinesPort::decode_deliver(bytes) {
            ctx.count(&format!("{}.rx", self.label), 1);
            // Record latency embedded as the send timestamp.
            if payload.len() >= 8 {
                let sent_us = u64::from_le_bytes(payload[..8].try_into().unwrap());
                let latency_ms = (ctx.now().0.saturating_sub(sent_us)) as f64 / 1000.0;
                ctx.record(&format!("{}.latency_ms", self.label), latency_ms);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
        if self.sent < self.count {
            let dst = self.dst.unwrap();
            let mut payload = ctx.now().0.to_le_bytes().to_vec();
            payload.extend_from_slice(&[0u8; 56]); // pad to a realistic size
            self.port
                .send(ctx, dst, self.mode, self.reliable, Bytes::from(payload));
            self.sent += 1;
            ctx.count("app.sent", 1);
            ctx.set_timer(self.interval, 1);
        }
    }
}

struct Harness {
    world: World,
    net: OverlayNetwork,
}

/// Builds a 6-node ring-with-chords overlay (two disjoint paths between any
/// pair) with 10 ms WAN links.
fn build(seed: u64, behavior_of: impl Fn(OverlayId) -> DaemonBehavior) -> Harness {
    let mut topology = Topology::ring(6, 10);
    topology.add_edge(OverlayId(0), OverlayId(3), 10);
    let mut world = World::new(seed);
    let material = KeyMaterial::new([9u8; 32]);
    let keystore = Arc::new(KeyStore::for_nodes(&material, 64));
    let net = OverlayNetwork::build(
        &mut world,
        &topology,
        DaemonConfig::default(),
        &material,
        &keystore,
        0,
        |_, _| LinkConfig::wan(10),
        behavior_of,
    );
    Harness { world, net }
}

fn add_app(h: &mut Harness, overlay: OverlayId, app: impl FnOnce(SpinesPort) -> App) -> ProcessId {
    let daemon_pid = h.net.daemon_pid(overlay);
    let port = SpinesPort::new(
        daemon_pid,
        OverlayAddr {
            node: overlay,
            port: APP_PORT,
        },
    );
    let app = app(port);
    let label = app.label.clone();
    let pid = h.world.add_process(&label, Box::new(app));
    h.net.wire_client(&mut h.world, overlay, pid);
    pid
}

fn dst_addr(node: u16) -> OverlayAddr {
    OverlayAddr {
        node: OverlayId(node),
        port: APP_PORT,
    }
}

#[test]
fn shortest_path_delivery() {
    let mut h = build(1, |_| DaemonBehavior::Honest);
    add_app(&mut h, OverlayId(5), |p| App::receiver(p, "rx"));
    add_app(&mut h, OverlayId(2), |p| {
        App::sender(
            p,
            dst_addr(5),
            Dissemination::Shortest,
            false,
            20,
            Span::millis(50),
            "tx",
        )
    });
    h.world.run_for(Span::secs(10));
    assert_eq!(h.world.metrics().counter("rx.rx"), 20);
    // 2 -> 5 is 3 hops of 10 ms plus jitter; well under 60 ms.
    let lats = h.world.metrics().values("rx.latency_ms");
    assert!(lats.iter().all(|l| *l < 60.0), "latencies: {lats:?}");
}

#[test]
fn flood_delivers_exactly_once() {
    let mut h = build(2, |_| DaemonBehavior::Honest);
    add_app(&mut h, OverlayId(4), |p| App::receiver(p, "rx"));
    add_app(&mut h, OverlayId(0), |p| {
        App::sender(
            p,
            dst_addr(4),
            Dissemination::Flood,
            false,
            25,
            Span::millis(40),
            "tx",
        )
    });
    h.world.run_for(Span::secs(10));
    // Flooding produces many copies in the network but exactly one delivery
    // per message at the destination.
    assert_eq!(h.world.metrics().counter("rx.rx"), 25);
}

#[test]
fn disjoint_paths_survive_single_node_failure() {
    let mut h = build(3, |_| DaemonBehavior::Honest);
    add_app(&mut h, OverlayId(3), |p| App::receiver(p, "rx"));
    add_app(&mut h, OverlayId(0), |p| {
        App::sender(
            p,
            dst_addr(3),
            Dissemination::DisjointPaths(3),
            false,
            50,
            Span::millis(100),
            "tx",
        )
    });
    // Kill overlay node 1 (on one of the paths) after 1 s, before most
    // messages are sent.
    let victim = h.net.daemon_pid(OverlayId(1));
    h.world
        .schedule_control(spire_sim::Time(1_000_000), move |w| w.crash(victim));
    h.world.run_for(Span::secs(10));
    // Every message still arrives via the surviving disjoint path(s).
    assert_eq!(h.world.metrics().counter("rx.rx"), 50);
}

#[test]
fn flood_survives_any_single_failure_and_reroutes() {
    let mut h = build(4, |_| DaemonBehavior::Honest);
    add_app(&mut h, OverlayId(3), |p| App::receiver(p, "rx"));
    add_app(&mut h, OverlayId(0), |p| {
        App::sender(
            p,
            dst_addr(3),
            Dissemination::Flood,
            false,
            50,
            Span::millis(100),
            "tx",
        )
    });
    let victim = h.net.daemon_pid(OverlayId(4));
    h.world
        .schedule_control(spire_sim::Time(500_000), move |w| w.crash(victim));
    h.world.run_for(Span::secs(10));
    assert_eq!(h.world.metrics().counter("rx.rx"), 50);
}

#[test]
fn shortest_path_reroutes_after_link_failure() {
    let mut h = build(5, |_| DaemonBehavior::Honest);
    add_app(&mut h, OverlayId(2), |p| App::receiver(p, "rx"));
    add_app(&mut h, OverlayId(0), |p| {
        App::sender(
            p,
            dst_addr(2),
            Dissemination::Shortest,
            true,
            60,
            Span::millis(100),
            "tx",
        )
    });
    // Cut the 0-1 link at t=2 s: routing must fail over to the other side
    // of the ring once liveness detection fires.
    let net_a = h.net.daemon_pid(OverlayId(0));
    let net_b = h.net.daemon_pid(OverlayId(1));
    h.world
        .schedule_control(spire_sim::Time(2_000_000), move |w| {
            w.set_link_up(net_a, net_b, false)
        });
    h.world.run_for(Span::secs(15));
    let delivered = h.world.metrics().counter("rx.rx");
    // A brief outage window is allowed while the failure is detected; the
    // vast majority of messages must be delivered.
    assert!(delivered >= 50, "delivered={delivered}");
}

#[test]
fn forged_frames_are_dropped_by_hmac() {
    let mut h = build(6, |_| DaemonBehavior::Honest);
    add_app(&mut h, OverlayId(1), |p| App::receiver(p, "rx"));
    // Inject garbage "from" daemon 0's pid to daemon 1: since it is not
    // HMAC'd with the link key, daemon 1 must drop it.
    let d0 = h.net.daemon_pid(OverlayId(0));
    let d1 = h.net.daemon_pid(OverlayId(1));
    let forged = Bytes::from(vec![3u8; 200]);
    h.world
        .inject_message(spire_sim::Time(1_000_000), d0, d1, forged);
    h.world.run_for(Span::secs(3));
    assert_eq!(h.world.metrics().counter("spines.hmac_fail"), 1);
    assert_eq!(h.world.metrics().counter("rx.rx"), 0);
}

#[test]
fn blackhole_on_shortest_path_defeated_by_flooding() {
    // Daemon 1 is compromised and blackholes data. Shortest-path traffic
    // 0 -> 2 crossing node 1 is lost, but flooding still delivers.
    let behavior = |id: OverlayId| {
        if id == OverlayId(1) {
            DaemonBehavior::Blackhole
        } else {
            DaemonBehavior::Honest
        }
    };
    let mut h = build(7, behavior);
    add_app(&mut h, OverlayId(2), |p| App::receiver(p, "rx_short"));
    add_app(&mut h, OverlayId(0), |p| {
        App::sender(
            p,
            OverlayAddr {
                node: OverlayId(2),
                port: APP_PORT,
            },
            Dissemination::Shortest,
            false,
            20,
            Span::millis(50),
            "tx1",
        )
    });
    h.world.run_for(Span::secs(5));
    let via_shortest = h.world.metrics().counter("rx_short.rx");
    assert_eq!(
        via_shortest, 0,
        "blackhole should eat shortest-path traffic"
    );

    let mut h = build(8, behavior);
    add_app(&mut h, OverlayId(2), |p| App::receiver(p, "rx_flood"));
    add_app(&mut h, OverlayId(0), |p| {
        App::sender(
            p,
            OverlayAddr {
                node: OverlayId(2),
                port: APP_PORT,
            },
            Dissemination::Flood,
            false,
            20,
            Span::millis(50),
            "tx2",
        )
    });
    h.world.run_for(Span::secs(5));
    assert_eq!(h.world.metrics().counter("rx_flood.rx"), 20);
}

#[test]
fn flooding_attacker_cannot_starve_other_sources() {
    // Node 5 floods aggressively; a legitimate sender at node 0 must still
    // get its traffic through thanks to per-source fair rate limiting.
    let mut h = build(9, |_| DaemonBehavior::Honest);
    add_app(&mut h, OverlayId(3), |p| App::receiver(p, "rx"));
    add_app(&mut h, OverlayId(0), |p| {
        App::sender(
            p,
            dst_addr(3),
            Dissemination::Flood,
            false,
            30,
            Span::millis(100),
            "legit",
        )
    });
    // Attacker: 5000 msgs at 0.5 ms intervals (2000/s sustained).
    add_app(&mut h, OverlayId(5), |p| {
        App::sender(
            p,
            OverlayAddr {
                node: OverlayId(2),
                port: APP_PORT,
            },
            Dissemination::Flood,
            false,
            5_000,
            Span::micros(500),
            "attacker",
        )
    });
    h.world.run_for(Span::secs(10));
    assert_eq!(
        h.world.metrics().counter("rx.rx"),
        30,
        "legitimate traffic starved; rate-limited drops: {}",
        h.world.metrics().counter("spines.flood_rate_limited")
    );
}

#[test]
fn reliable_mode_survives_heavy_loss() {
    // 20% loss on every link; hop-by-hop retransmission must recover.
    let mut topology = Topology::ring(4, 10);
    topology.add_edge(OverlayId(0), OverlayId(2), 10);
    let mut world = World::new(11);
    let material = KeyMaterial::new([9u8; 32]);
    let keystore = Arc::new(KeyStore::for_nodes(&material, 64));
    let net = OverlayNetwork::build(
        &mut world,
        &topology,
        DaemonConfig::default(),
        &material,
        &keystore,
        0,
        |_, _| LinkConfig::wan(5).with_loss(0.2),
        |_| DaemonBehavior::Honest,
    );
    let mut h = Harness { world, net };
    add_app(&mut h, OverlayId(2), |p| App::receiver(p, "rx"));
    add_app(&mut h, OverlayId(0), |p| {
        App::sender(
            p,
            dst_addr(2),
            Dissemination::Shortest,
            true,
            100,
            Span::millis(50),
            "tx",
        )
    });
    h.world.run_for(Span::secs(20));
    let delivered = h.world.metrics().counter("rx.rx");
    assert!(
        delivered >= 97,
        "delivered={delivered}, retx={}",
        h.world.metrics().counter("spines.retx")
    );
    assert!(h.world.metrics().counter("spines.retx") > 0);
}

#[test]
fn corrupted_frames_are_detected_and_recovered_by_retransmission() {
    // 10% of frames get a flipped byte in transit: the HMAC check drops
    // them at the receiving hop and hop-by-hop reliability retransmits.
    let mut topology = Topology::ring(4, 10);
    topology.add_edge(OverlayId(0), OverlayId(2), 10);
    let mut world = World::new(77);
    let material = KeyMaterial::new([9u8; 32]);
    let keystore = Arc::new(KeyStore::for_nodes(&material, 64));
    let net = OverlayNetwork::build(
        &mut world,
        &topology,
        DaemonConfig::default(),
        &material,
        &keystore,
        0,
        |_, _| LinkConfig::wan(5).with_corruption(0.1),
        |_| DaemonBehavior::Honest,
    );
    let mut h = Harness { world, net };
    add_app(&mut h, OverlayId(2), |p| App::receiver(p, "rx"));
    add_app(&mut h, OverlayId(0), |p| {
        App::sender(
            p,
            dst_addr(2),
            Dissemination::Shortest,
            true,
            80,
            Span::millis(50),
            "tx",
        )
    });
    h.world.run_for(Span::secs(20));
    let delivered = h.world.metrics().counter("rx.rx");
    let hmac_fail = h.world.metrics().counter("spines.hmac_fail");
    assert!(hmac_fail > 0, "corruption never hit a frame");
    assert!(
        delivered >= 78,
        "delivered={delivered} despite reliability (hmac_fail={hmac_fail})"
    );
}

#[test]
fn unattached_client_sends_are_dropped() {
    struct Rogue {
        port: SpinesPort,
    }
    impl Process for Rogue {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            // Deliberately no attach: the daemon must not route for us.
            self.port.send(
                ctx,
                OverlayAddr {
                    node: OverlayId(1),
                    port: APP_PORT,
                },
                Dissemination::Shortest,
                false,
                Bytes::from_static(b"spoof"),
            );
        }
        fn on_message(&mut self, _: &mut Context<'_>, _: ProcessId, _: &Bytes) {}
    }
    let mut h = build(31, |_| DaemonBehavior::Honest);
    add_app(&mut h, OverlayId(1), |p| App::receiver(p, "rx"));
    let daemon = h.net.daemon_pid(OverlayId(0));
    let port = SpinesPort::new(
        daemon,
        OverlayAddr {
            node: OverlayId(0),
            port: 999,
        },
    );
    let rogue = h.world.add_process("rogue", Box::new(Rogue { port }));
    h.net.wire_client(&mut h.world, OverlayId(0), rogue);
    h.world.run_for(Span::secs(3));
    assert_eq!(
        h.world.metrics().counter("spines.unattached_client_drop"),
        1
    );
    assert_eq!(h.world.metrics().counter("rx.rx"), 0);
}

#[test]
fn ttl_bounds_forwarding() {
    // A TTL smaller than the path length must prevent delivery (and the
    // drop is accounted), while flooding in a connected graph with ample
    // TTL always arrives.
    let mut topology = Topology::new();
    for i in 0..5 {
        topology.add_node(OverlayId(i));
    }
    for i in 0..4 {
        topology.add_edge(OverlayId(i), OverlayId(i + 1), 10);
    }
    let mut world = World::new(41);
    let material = KeyMaterial::new([9u8; 32]);
    let keystore = Arc::new(KeyStore::for_nodes(&material, 64));
    let cfg = DaemonConfig {
        default_ttl: 2, // path 0 -> 4 needs 4 hops
        ..DaemonConfig::default()
    };
    let net = OverlayNetwork::build(
        &mut world,
        &topology,
        cfg,
        &material,
        &keystore,
        0,
        |_, _| LinkConfig::wan(5),
        |_| DaemonBehavior::Honest,
    );
    let mut h = Harness { world, net };
    add_app(&mut h, OverlayId(4), |p| App::receiver(p, "rx"));
    add_app(&mut h, OverlayId(0), |p| {
        App::sender(
            p,
            dst_addr(4),
            Dissemination::Shortest,
            false,
            5,
            Span::millis(50),
            "tx",
        )
    });
    h.world.run_for(Span::secs(5));
    assert_eq!(h.world.metrics().counter("rx.rx"), 0);
    assert!(h.world.metrics().counter("spines.ttl_drop") >= 5);
}

#[test]
fn stale_lsas_age_out_after_daemon_death() {
    // Kill a daemon and verify the rest of the overlay eventually ages its
    // advertisement out of their link-state databases (observable as an
    // aging metric plus continued correct routing).
    let mut h = build(51, |_| DaemonBehavior::Honest);
    add_app(&mut h, OverlayId(3), |p| App::receiver(p, "rx"));
    add_app(&mut h, OverlayId(0), |p| {
        App::sender(
            p,
            dst_addr(3),
            Dissemination::Shortest,
            true,
            90,
            Span::millis(500),
            "tx",
        )
    });
    let victim = h.net.daemon_pid(OverlayId(1));
    h.world
        .schedule_control(spire_sim::Time(5_000_000), move |w| w.crash(victim));
    h.world.run_for(Span::secs(50));
    assert!(
        h.world.metrics().counter("spines.lsa_aged_out") > 0,
        "dead daemon's LSA never aged out"
    );
    // Routing kept working around the death.
    let delivered = h.world.metrics().counter("rx.rx");
    assert!(delivered >= 85, "delivered={delivered}");
}

/// A triangle S(0) – X(1) – Y(2) with 5 ms links, S → Y configured as
/// `s_to_y`, and an application on S sending `count` reliable
/// shortest-path messages to Y every 20 ms.
fn triangle(seed: u64, s_to_y: LinkConfig, count: u32) -> Harness {
    let mut topology = Topology::new();
    for i in 0..3 {
        topology.add_node(OverlayId(i));
    }
    topology.add_edge(OverlayId(0), OverlayId(1), 10);
    topology.add_edge(OverlayId(1), OverlayId(2), 10);
    topology.add_edge(OverlayId(0), OverlayId(2), 10);
    let mut world = World::new(seed);
    let material = KeyMaterial::new([9u8; 32]);
    let keystore = Arc::new(KeyStore::for_nodes(&material, 64));
    let net = OverlayNetwork::build(
        &mut world,
        &topology,
        DaemonConfig::default(),
        &material,
        &keystore,
        0,
        |_, _| LinkConfig::wan(5),
        |_| DaemonBehavior::Honest,
    );
    let (s, y) = (net.daemon_pid(OverlayId(0)), net.daemon_pid(OverlayId(2)));
    world.add_link_directed(s, y, s_to_y);
    let mut h = Harness { world, net };
    add_app(&mut h, OverlayId(2), |p| App::receiver(p, "rx"));
    add_app(&mut h, OverlayId(0), |p| {
        App::sender(
            p,
            dst_addr(2),
            Dissemination::Shortest,
            true,
            count,
            Span::millis(20),
            "tx",
        )
    });
    h
}

/// The HMAC key daemons `a` and `b` of a test overlay share on their link.
fn link_key(a: u16, b: u16) -> [u8; 32] {
    KeyMaterial::new([9u8; 32]).link_key(NodeId(a as u32), NodeId(b as u32))
}

/// Encodes `msg` and appends its link HMAC, as a daemon seals a frame.
fn seal(key: &[u8; 32], msg: &OverlayMsg) -> Bytes {
    let mut framed = msg.encode().to_vec();
    framed.extend_from_slice(&hmac_sha256(key, &framed));
    Bytes::from(framed)
}

/// The first `n` frame ids daemon `node` assigns.
fn frame_ids(node: u16, n: u64) -> Vec<u64> {
    (0..n).map(|i| ((node as u64) << 40) | i).collect()
}

#[test]
fn acks_count_only_from_the_link_they_answer() {
    // S's link to Y loses one frame in five. A compromised X, holding the
    // X–S link key, acks every frame id S will use, every 10 ms: were those
    // acks believed, S would stop retransmitting the frames Y lost.
    let mut h = triangle(61, LinkConfig::wan(5).with_loss(0.2), 100);
    let (s, x) = (
        h.net.daemon_pid(OverlayId(0)),
        h.net.daemon_pid(OverlayId(1)),
    );
    let forged = seal(
        &link_key(0, 1),
        &OverlayMsg::HopAckMulti {
            frame_ids: frame_ids(0, 512),
        },
    );
    for tick in 0..400u64 {
        let at = spire_sim::Time(tick * 10_000);
        h.world.inject_message(at, x, s, forged.clone());
    }
    h.world.run_for(Span::secs(6));
    let m = h.world.metrics();
    assert_eq!(m.counter("spines.hmac_fail"), 0, "the forgery is sealed");
    assert_eq!(m.counter("rx.rx"), 100, "Y lost frames S stopped resending");
    assert!(m.counter("spines.retx") > 0, "the lossy link lost nothing");
    assert!(m.counter("spines.foreign_ack_drop") > 0);
}

#[test]
fn a_neighbor_cannot_mark_another_links_frames_seen() {
    // A compromised X sends Y reliable frames carrying S's frame-id prefix
    // before S sends anything. S's real frames to Y, on their own link,
    // must still be delivered rather than dropped as duplicates.
    let mut h = triangle(62, LinkConfig::wan(5), 50);
    let (x, y) = (
        h.net.daemon_pid(OverlayId(1)),
        h.net.daemon_pid(OverlayId(2)),
    );
    let xy_key = link_key(1, 2);
    for (i, frame_id) in frame_ids(0, 200).into_iter().enumerate() {
        let msg = DataMsg {
            src: OverlayId(1),
            src_port: 999,
            dst: OverlayId(2),
            dst_port: 999,
            seq: i as u64 + 1,
            mode: Dissemination::Shortest,
            ttl: 8,
            route: Vec::new(),
            route_idx: 0,
            reliable: true,
            payload: Bytes::from_static(b"filler"),
        };
        let forged = seal(&xy_key, &OverlayMsg::Data { frame_id, msg });
        h.world
            .inject_message(spire_sim::Time(50_000), x, y, forged);
    }
    h.world.run_for(Span::secs(3));
    let m = h.world.metrics();
    assert_eq!(m.counter("spines.hmac_fail"), 0, "the forgery is sealed");
    assert_eq!(
        m.counter("spines.no_client_drop"),
        200,
        "Y took every forged frame"
    );
    assert_eq!(
        m.counter("rx.rx"),
        50,
        "S's frames were dropped as duplicates"
    );
}

/// A sealed, unreliable flood from X to Y that claims to come from
/// `(src, src_port)` and is addressed to a port Y has no client on.
fn forged_flood(src: u16, src_port: u16, seq: u64) -> Bytes {
    let msg = DataMsg {
        src: OverlayId(src),
        src_port,
        dst: OverlayId(2),
        dst_port: 999,
        seq,
        mode: Dissemination::Flood,
        ttl: 8,
        route: Vec::new(),
        route_idx: 0,
        reliable: false,
        payload: Bytes::from_static(b"forged"),
    };
    seal(&link_key(1, 2), &OverlayMsg::Data { frame_id: 0, msg })
}

#[test]
fn a_forged_far_ahead_seq_does_not_silence_its_stream() {
    // Mid-stream, a compromised X floods one message under S's stream
    // (S, APP_PORT) with a seq near the top of the range. Y must still
    // deliver each of S's messages exactly once.
    let mut h = triangle(63, LinkConfig::wan(5), 50);
    let (x, y) = (
        h.net.daemon_pid(OverlayId(1)),
        h.net.daemon_pid(OverlayId(2)),
    );
    let forged = forged_flood(0, APP_PORT, u64::MAX - 1);
    h.world
        .inject_message(spire_sim::Time(500_000), x, y, forged);
    h.world.run_for(Span::secs(3));
    let m = h.world.metrics();
    assert_eq!(m.counter("spines.hmac_fail"), 0, "the forgery is sealed");
    assert_eq!(m.counter("spines.no_client_drop"), 1, "Y took the forgery");
    assert_eq!(m.counter("app.sent"), 50);
    assert_eq!(m.counter("rx.rx"), 50, "S's messages lost or repeated");
}

#[test]
fn forged_streams_do_not_silence_a_real_one() {
    // Before S sends, a compromised X floods 10,000 messages to Y, each
    // under a stream `(src, src_port)` of its own. Y must still deliver
    // each of S's messages exactly once.
    let mut h = triangle(64, LinkConfig::wan(5), 50);
    let (x, y) = (
        h.net.daemon_pid(OverlayId(1)),
        h.net.daemon_pid(OverlayId(2)),
    );
    for i in 0..10_000u32 {
        let forged = forged_flood(3 + (i / 1000) as u16, (i % 1000) as u16, 1);
        h.world
            .inject_message(spire_sim::Time(50_000), x, y, forged);
    }
    h.world.run_for(Span::secs(3));
    let m = h.world.metrics();
    assert_eq!(m.counter("spines.hmac_fail"), 0, "the forgery is sealed");
    assert_eq!(m.counter("spines.no_client_drop"), 10_000, "Y took each");
    assert_eq!(m.counter("app.sent"), 50);
    assert_eq!(m.counter("rx.rx"), 50, "S's messages lost or repeated");
}
