//! Multicast groups and the hop-ack policy, on a Spines-only `World`: one
//! dissemination reaches every member behind every daemon exactly once and
//! never the sender, through loss and a blackholing daemon; a group has no
//! meaning under the routed modes; and a hop ack rides the next data bound
//! back to its sender or the next retransmission scan, without ever firing
//! the retransmission timer.

use bytes::Bytes;
use spire_crypto::{KeyMaterial, KeyStore};
use spire_sim::{Context, LinkConfig, Process, ProcessId, Span, Time, World};
use spire_spines::daemon::BATCH_WINDOW;
use spire_spines::{
    DaemonBehavior, DaemonConfig, Dissemination, OverlayAddr, OverlayId, OverlayNetwork,
    SpinesPort, Topology,
};
use std::sync::Arc;

const GROUP: u16 = 7;
const TIMER_SEND: u64 = 1;

#[derive(Clone, Copy, PartialEq)]
enum Member {
    No,
    Yes,
    /// Joins before it attaches: the real-clock substrate keeps no order
    /// between the two, so the daemon must take them either way round.
    JoinedFirst,
}

/// A client that attaches, joins [`GROUP`] as `member` says, sends `to_send`
/// messages `every` apart (from 1 s, once routes have settled) to the group
/// under `mode`, and counts what it is delivered as `<label>.rx`.
struct Client {
    port: SpinesPort,
    label: &'static str,
    member: Member,
    to_send: u32,
    every: Span,
    mode: Dissemination,
}

impl Process for Client {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.member == Member::JoinedFirst {
            self.port.join(ctx, GROUP);
        }
        self.port.attach(ctx);
        if self.member == Member::Yes {
            self.port.join(ctx, GROUP);
        }
        if self.to_send > 0 {
            ctx.set_timer(Span::secs(1), TIMER_SEND);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ProcessId, bytes: &Bytes) {
        if SpinesPort::decode_deliver(bytes).is_some() {
            ctx.count(&format!("{}.rx", self.label), 1);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
        self.to_send -= 1;
        let payload = Bytes::from(vec![self.to_send as u8; 64]);
        if self.mode == Dissemination::Flood {
            self.port.send_group(ctx, GROUP, true, payload);
        } else {
            let group = OverlayAddr {
                node: OverlayId::GROUP,
                port: GROUP,
            };
            self.port.send(ctx, group, self.mode, true, payload);
        }
        if self.to_send > 0 {
            ctx.set_timer(self.every, TIMER_SEND);
        }
    }
}

struct Harness {
    world: World,
    net: OverlayNetwork,
}

impl Harness {
    fn build(
        seed: u64,
        topology: &Topology,
        link_of: impl Fn(OverlayId, OverlayId) -> LinkConfig,
        behavior_of: impl Fn(OverlayId) -> DaemonBehavior,
    ) -> Harness {
        let mut world = World::new(seed);
        let material = KeyMaterial::new([9u8; 32]);
        let keystore = Arc::new(KeyStore::for_nodes(&material, 8));
        let net = OverlayNetwork::build(
            &mut world,
            topology,
            DaemonConfig::default(),
            &material,
            &keystore,
            0,
            link_of,
            behavior_of,
        );
        Harness { world, net }
    }

    /// Six daemons in a ring with a 0–3 chord, 10 ms loss-free links.
    fn ring(seed: u64, behavior_of: impl Fn(OverlayId) -> DaemonBehavior) -> Harness {
        let mut topology = Topology::ring(6, 10);
        topology.add_edge(OverlayId(0), OverlayId(3), 10);
        Harness::build(seed, &topology, |_, _| LinkConfig::wan(10), behavior_of)
    }

    fn client(&mut self, node: u16, port: u16, label: &'static str, member: Member) {
        self.add(node, port, label, member, 0, Dissemination::Flood);
    }

    /// A member flooding `to_send` messages `every` apart.
    fn stream(&mut self, node: u16, port: u16, label: &'static str, to_send: u32, every: Span) {
        let mode = Dissemination::Flood;
        self.spawn(node, port, label, Member::Yes, to_send, every, mode);
    }

    fn add(
        &mut self,
        node: u16,
        port: u16,
        label: &'static str,
        member: Member,
        to_send: u32,
        mode: Dissemination,
    ) {
        let every = Span::millis(20);
        self.spawn(node, port, label, member, to_send, every, mode);
    }

    #[allow(clippy::too_many_arguments)]
    fn spawn(
        &mut self,
        node: u16,
        port: u16,
        label: &'static str,
        member: Member,
        to_send: u32,
        every: Span,
        mode: Dissemination,
    ) {
        let node = OverlayId(node);
        let client = Client {
            port: SpinesPort::new(self.net.daemon_pid(node), OverlayAddr { node, port }),
            label,
            member,
            to_send,
            every,
            mode,
        };
        let pid = self.world.add_process(label, Box::new(client));
        self.net.wire_client(&mut self.world, node, pid);
    }

    fn rx(&self, label: &str) -> u64 {
        self.world.metrics().counter(&format!("{label}.rx"))
    }

    fn counter(&self, name: &str) -> u64 {
        self.world.metrics().counter(name)
    }
}

#[test]
fn a_group_message_reaches_every_member_once_and_never_the_sender() {
    let mut h = Harness::ring(1, |_| DaemonBehavior::Honest);
    h.add(0, 100, "tx", Member::Yes, 20, Dissemination::Flood);
    // A second member behind the sender's own daemon, two behind one remote
    // daemon, one alone whose join overtook its attach; an attached
    // non-member; daemons 1 and 5 serve no client at all and only forward.
    h.client(0, 101, "beside_tx", Member::Yes);
    h.client(2, 100, "two_a", Member::Yes);
    h.client(2, 101, "two_b", Member::Yes);
    h.client(3, 100, "joined_first", Member::JoinedFirst);
    h.client(4, 100, "outsider", Member::No);
    h.world.run_for(Span::secs(3));
    for member in ["beside_tx", "two_a", "two_b", "joined_first"] {
        assert_eq!(h.rx(member), 20, "{member}");
    }
    assert_eq!((h.rx("tx"), h.rx("outsider")), (0, 0));
    assert_eq!(h.counter("spines.overlay.group_send"), 20);
    assert_eq!(h.counter("spines.overlay.client_send"), 0);
    assert_eq!(h.counter("spines.overlay.client_deliver"), 20 * 4);
    assert_eq!(h.counter("spines.retx"), 0);
}

#[test]
fn members_behind_a_lossy_link_are_reached_by_retransmission() {
    // A line, so the lossy 0–1 link is the only way to members 1 and 2.
    let mut topology = Topology::new();
    for i in 0..3 {
        topology.add_node(OverlayId(i));
    }
    topology.add_edge(OverlayId(0), OverlayId(1), 10);
    topology.add_edge(OverlayId(1), OverlayId(2), 10);
    let lossy = |a: OverlayId, b: OverlayId| {
        let loss = if a.0.min(b.0) == 0 { 0.3 } else { 0.0 };
        LinkConfig::wan(10).with_loss(loss)
    };
    let mut h = Harness::build(2, &topology, lossy, |_| DaemonBehavior::Honest);
    h.add(0, 100, "tx", Member::Yes, 40, Dissemination::Flood);
    h.client(1, 100, "near", Member::Yes);
    h.client(2, 100, "far", Member::Yes);
    h.world.run_for(Span::secs(8));
    assert_eq!((h.rx("near"), h.rx("far")), (40, 40));
    assert!(h.counter("spines.retx") > 0, "30 % loss lost nothing");
}

#[test]
fn a_blackhole_daemon_on_the_mesh_does_not_cut_members_off() {
    let blackhole = |id: OverlayId| match id.0 {
        1 => DaemonBehavior::Blackhole,
        _ => DaemonBehavior::Honest,
    };
    let mut h = Harness::ring(3, blackhole);
    h.add(0, 100, "tx", Member::Yes, 20, Dissemination::Flood);
    // Member 2's short way to the sender is through the blackhole.
    h.client(2, 100, "past_it", Member::Yes);
    h.client(5, 100, "other_side", Member::Yes);
    h.world.run_for(Span::secs(3));
    assert!(h.counter("spines.blackholed") > 0);
    assert_eq!((h.rx("past_it"), h.rx("other_side")), (20, 20));
}

#[test]
fn a_group_destination_under_a_routed_mode_is_dropped_and_counted() {
    for mode in [Dissemination::Shortest, Dissemination::DisjointPaths(2)] {
        let mut h = Harness::ring(4, |_| DaemonBehavior::Honest);
        h.add(0, 100, "tx", Member::Yes, 5, mode);
        h.client(0, 101, "local", Member::Yes);
        h.client(3, 100, "remote", Member::Yes);
        h.world.run_for(Span::secs(3));
        assert_eq!(h.counter("spines.group_not_flood_drop"), 5, "{mode:?}");
        assert_eq!((h.rx("local"), h.rx("remote")), (0, 0), "{mode:?}");
    }
}

/// Two daemons joined by one link.
fn pair(seed: u64, link: LinkConfig) -> Harness {
    let mut topology = Topology::new();
    topology.add_edge(OverlayId(0), OverlayId(1), 10);
    Harness::build(seed, &topology, |_, _| link, |_| DaemonBehavior::Honest)
}

/// Steps `h` to the instant `counter` next moves (within 10 s).
fn next_move(h: &mut Harness, counter: &str) -> Time {
    let from = h.counter(counter);
    loop {
        let stepped = h.world.step() && h.world.now() < Time(10_000_000);
        assert!(stepped, "{counter} never moved");
        if h.counter(counter) > from {
            return h.world.now();
        }
    }
}

#[test]
fn with_no_data_flowing_back_a_hop_ack_leaves_at_the_next_retransmission_scan() {
    // One jitter-free 10 ms link, traffic one way, a frame every 5 ms: the
    // times are exact, and two frames arrive between scans.
    let mut h = pair(5, LinkConfig::wan(10).with_jitter(Span::ZERO));
    h.stream(0, 100, "tx", 50, Span::millis(5));
    h.client(1, 100, "rx", Member::Yes);
    let data_sealed = next_move(&mut h, "spines.overlay.tx_data");
    let ack_sealed = next_move(&mut h, "spines.overlay.tx_ack_only");
    // Received one link delay (plus the frame's serialization time) after
    // it was sealed; acknowledged not at the batch flush one window later
    // but at the receiver's next scan, within one scan interval of
    // receipt. The scans run every 10 ms from the daemon's start at 0, and
    // the next scan carries the next two frames' acks.
    let arrived = data_sealed + Span::millis(10);
    let window = BATCH_WINDOW;
    assert_eq!(ack_sealed.0 % 10_000, 0, "ack left at {ack_sealed:?}");
    assert!(
        ack_sealed > arrived + window && ack_sealed <= arrived + Span::millis(10),
        "data sealed at {data_sealed:?}, ack at {ack_sealed:?}"
    );
    let next_ack = next_move(&mut h, "spines.overlay.tx_ack_only");
    assert_eq!(next_ack.since(ack_sealed), Span::millis(10));
    h.world.run_for(Span::secs(3));
    assert_eq!(h.rx("rx"), 50);
    // Each scan carries every ack staged since the last one.
    let (data, acks) = (
        h.counter("spines.overlay.tx_data"),
        h.counter("spines.overlay.tx_ack_only"),
    );
    assert_eq!(data, 50);
    assert!(acks < data, "{acks} ack-only frames for {data} data frames");
    assert_eq!(h.counter("spines.overlay.tx_mixed"), 0);
    assert_eq!(h.counter("spines.retx"), 0);
}

#[test]
fn a_hop_ack_rides_reverse_data_staged_within_its_window() {
    // Both ends send every 20 ms at the same instants over a jitter-free
    // 19 ms link: each frame arrives as the far end stages its next one,
    // so every ack leaves beside data.
    let mut h = pair(6, LinkConfig::wan(19).with_jitter(Span::ZERO));
    h.stream(0, 100, "a", 50, Span::millis(20));
    h.stream(1, 100, "b", 50, Span::millis(20));
    h.world.run_for(Span::millis(1_900));
    assert!(h.counter("spines.overlay.tx_mixed") > 0);
    assert_eq!(h.counter("spines.overlay.tx_ack_only"), 0);
    // Only the last frame each way has no data to ride back: the scan
    // carries its ack.
    h.world.run_for(Span::secs(2));
    assert_eq!((h.rx("a"), h.rx("b")), (50, 50));
    assert_eq!(h.counter("spines.overlay.tx_ack_only"), 2);
    assert_eq!(h.counter("spines.retx"), 0);
}

#[test]
fn a_sustained_flow_on_the_slowest_wan_link_never_fires_a_retransmission() {
    // The slowest link of the wide-area deployment, with its 5 ms of
    // jitter: round trip plus the scan wait stays inside the 60 ms timeout.
    let mut h = pair(7, LinkConfig::wan(15));
    h.stream(0, 100, "tx", 1_000, Span::millis(3));
    h.client(1, 100, "rx", Member::Yes);
    h.world.run_for(Span::secs(5));
    assert_eq!(h.rx("rx"), 1_000);
    assert!(h.counter("spines.overlay.tx_ack_only") > 0);
    assert_eq!(h.counter("spines.retx"), 0);
}
