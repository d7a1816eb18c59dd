//! Runtime control-plane tests: the rt half of cross-substrate fault
//! injection. Crash/respawn of live actors, runtime link-state mutation
//! (partitions, duplication), and mailbox backpressure accounting — the
//! operations `spire-core` replays from a recorded control plan so attack
//! scenarios run unchanged on the real-clock substrate.

use std::sync::Arc;

use bytes::Bytes;
use spire_rt::{RtConfig, RtHooks, Runtime};
use spire_sim::{Context, ControlOp, LinkConfig, Process, ProcessId, Span, Time, World};

/// Sends a frame to `peer` every 5 ms, forever.
struct Ping {
    peer: ProcessId,
}

impl Process for Ping {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(Span::millis(5), 1);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: ProcessId, _bytes: &Bytes) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
        ctx.send(self.peer, Bytes::from_static(b"ping"));
        ctx.count("toy.ping_sent", 1);
        ctx.set_timer(Span::millis(5), 1);
    }
}

/// Counts received frames and keeps a 50 ms periodic timer armed, so a
/// crash always leaves one in-flight timer from the old incarnation.
struct Echo;

impl Process for Echo {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.count("toy.echo_started", 1);
        ctx.set_timer(Span::millis(50), 2);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ProcessId, _bytes: &Bytes) {
        ctx.count("toy.received", 1);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
        ctx.set_timer(Span::millis(50), 2);
    }
}

fn two_actor_fabric(seed: u64) -> (spire_sim::Fabric, ProcessId, ProcessId) {
    let mut world = World::new(seed);
    let echo = ProcessId(1); // known: add order assigns 0, 1
    let ping = world.add_process("ping", Box::new(Ping { peer: echo }));
    let echo = world.add_process("echo", Box::new(Echo));
    world.add_link(ping, echo, LinkConfig::lan());
    (world.into_fabric(), ping, echo)
}

/// Crash + respawn of a live actor: the old incarnation's timers die
/// with it, frames to the down slot are counted (not misrouted), and the
/// respawned state machine runs `on_start` fresh.
#[test]
fn crash_and_restart_respawns_actor() {
    let (fabric, _ping, echo) = two_actor_fabric(7);
    let cfg = RtConfig {
        threads: 2,
        ..Default::default()
    };
    let rt = Runtime::from_fabric_with(fabric, cfg, RtHooks::default());
    let plan = vec![
        (Time(200_000), ControlOp::Crash(echo)),
        (
            Time(500_000),
            ControlOp::Restart(echo, Arc::new(|| Box::new(Echo) as Box<dyn Process>)),
        ),
    ];
    let run = rt.run_with(Span::millis(1_200), plan, |_, _| {});
    let m = &run.metrics;
    assert_eq!(m.counter("rt.crashed"), 1, "crash not applied");
    assert_eq!(m.counter("rt.restarted"), 1, "restart not applied");
    // on_start ran once at boot and once at respawn.
    assert_eq!(m.counter("toy.echo_started"), 2);
    // Pings kept flowing into the down slot for ~300 ms and were
    // accounted as drops-to-down, not misroutes.
    assert!(
        m.counter("rt.dropped_to_down_process") > 0,
        "no frames counted against the down actor"
    );
    assert_eq!(m.counter("rt.misrouted_drop"), 0);
    // The pre-crash incarnation's pending 50 ms timer was invalidated by
    // the generation bump, not delivered to the new incarnation.
    assert!(
        m.counter("rt.stale_timer_drop") >= 1,
        "old incarnation's timer leaked into the new one"
    );
    // The respawned actor receives again.
    assert!(m.counter("toy.received") > 0);
}

/// Runtime link mutation: a down window drops frames at the sender, and
/// a config swap (here dup = 1.0) takes effect mid-run.
#[test]
fn link_down_window_and_config_swap() {
    let (fabric, ping, echo) = two_actor_fabric(8);
    let cfg = RtConfig {
        threads: 2,
        ..Default::default()
    };
    let rt = Runtime::from_fabric_with(fabric, cfg, RtHooks::default());
    let dup_cfg = LinkConfig {
        dup: 1.0,
        ..LinkConfig::lan()
    };
    let plan = vec![
        (Time(200_000), ControlOp::SetLinkUp(ping, echo, false)),
        (Time(500_000), ControlOp::SetLinkUp(ping, echo, true)),
        (Time(500_000), ControlOp::SetLinkConfig(ping, echo, dup_cfg)),
    ];
    let run = rt.run_with(Span::millis(1_000), plan, |_, _| {});
    let m = &run.metrics;
    assert!(
        m.counter("rt.link_down_drop") > 0,
        "no frames dropped during the down window"
    );
    assert!(
        m.counter("rt.dup") > 0,
        "dup = 1.0 config swap produced no duplicates"
    );
    assert!(m.counter("toy.received") > 0, "link never came back up");
}

/// Floods `peer` with a burst each timer tick.
struct Burst {
    peer: ProcessId,
}

impl Process for Burst {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(Span::millis(5), 1);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: ProcessId, _bytes: &Bytes) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
        for _ in 0..64 {
            ctx.send(self.peer, Bytes::from_static(b"burst"));
        }
        ctx.set_timer(Span::millis(20), 1);
    }
}

/// Handles each frame slowly, so the owning worker cannot drain its
/// mailbox as fast as the burster fills it.
struct Slow;

impl Process for Slow {
    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ProcessId, _bytes: &Bytes) {
        ctx.count("toy.received", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}

/// Mailbox overflow is absorbed by bounded retry/backoff, and whatever
/// the retry budget cannot save is accounted per message class.
#[test]
fn tiny_mailbox_backpressure_is_counted() {
    let mut world = World::new(9);
    let slow = ProcessId(1);
    let burst = world.add_process("burst", Box::new(Burst { peer: slow }));
    let slow = world.add_process("slow", Box::new(Slow));
    world.add_link(burst, slow, LinkConfig::lan());
    let cfg = RtConfig {
        threads: 2,          // burst on worker 0, slow on worker 1: cross-worker sends
        mailbox_capacity: 4, // overflow quickly
    };
    let run = Runtime::from_fabric_with(world.into_fabric(), cfg, RtHooks::default())
        .run_for(Span::millis(500));
    let m = &run.metrics;
    assert!(
        m.counter("rt.mailbox_retry") > 0,
        "64-frame bursts into a 4-slot mailbox never triggered a retry"
    );
    // Every frame the retry budget could not save is classified; with the
    // default hooks everything lands under rt.drop.frame, so per-class
    // accounting must reconcile exactly with the total.
    assert_eq!(
        m.counter("rt.mailbox_full_drop"),
        m.counter("rt.drop.frame"),
        "per-class drop accounting disagrees with the total"
    );
    // Backpressure slowed the flood but did not wedge the receiver.
    assert!(m.counter("toy.received") > 0);
}

/// Logs each timer's tag, in firing order, into a shared log.
type FireLog = Arc<std::sync::Mutex<Vec<u64>>>;

/// Arms 1 ms and 3 ms timers; when the 1 ms one fires it arms a 200 ms
/// one. Logs how late the 3 ms timer fired, in microseconds.
struct ThreeAfterOne {
    three_due: Time,
    log: FireLog,
}

impl Process for ThreeAfterOne {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(Span::millis(1), 1);
        self.three_due = ctx.now() + Span::millis(3);
        ctx.set_timer(Span::millis(3), 3);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: ProcessId, _bytes: &Bytes) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        match tag {
            1 => {
                ctx.set_timer(Span::millis(200), 200);
            }
            3 => {
                let late = ctx.now().since(self.three_due).0;
                self.log.lock().unwrap().push(late);
            }
            _ => {}
        }
    }
}

/// A timer armed after an earlier one fired must not hide a still
/// pending, earlier deadline: the worker parks until the earliest entry,
/// not the newest one.
#[test]
fn a_later_timer_armed_after_a_fire_does_not_delay_an_earlier_one() {
    let log = FireLog::default();
    let mut world = World::new(10);
    world.add_process(
        "three-after-one",
        Box::new(ThreeAfterOne {
            three_due: Time::ZERO,
            log: Arc::clone(&log),
        }),
    );
    Runtime::from_fabric(world.into_fabric(), RtConfig::with_threads(1)).run_for(Span::millis(300));
    let late = log.lock().unwrap().clone();
    assert_eq!(late.len(), 1, "the 3 ms timer fired {} times", late.len());
    assert!(
        late[0] <= 20_000,
        "the 3 ms timer fired {} us late",
        late[0]
    );
}

/// Arms one timer per delay; each tag is the timer's own deadline, and
/// every fire appends its tag to the shared log.
struct Deadlines {
    delays: Vec<Span>,
    log: FireLog,
}

impl Process for Deadlines {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for &delay in &self.delays {
            let due = ctx.now() + delay;
            ctx.set_timer(delay, due.0);
        }
    }

    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: ProcessId, _bytes: &Bytes) {}

    fn on_timer(&mut self, _ctx: &mut Context<'_>, tag: u64) {
        self.log.lock().unwrap().push(tag);
    }
}

/// Holds its worker for 5 ms at start, so everything the other actors
/// armed for the first 2 ms is due in the same pass.
struct Sleeper;

impl Process for Sleeper {
    fn on_start(&mut self, _ctx: &mut Context<'_>) {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: ProcessId, _bytes: &Bytes) {}
}

/// Work due in one pass runs in deadline order across actors: one actor
/// with many due timers does not run ahead of another actor's earlier
/// one.
#[test]
fn due_timers_of_different_actors_fire_in_deadline_order() {
    let log = FireLog::default();
    let mut world = World::new(11);
    let many = (0..100).map(|i| Span::micros(1_000 + 10 * i)).collect();
    for (name, delays) in [("many", many), ("one", vec![Span::micros(1_500)])] {
        let log = Arc::clone(&log);
        world.add_process(name, Box::new(Deadlines { delays, log }));
    }
    world.add_process("sleeper", Box::new(Sleeper));
    Runtime::from_fabric(world.into_fabric(), RtConfig::with_threads(1)).run_for(Span::millis(100));
    let fired = log.lock().unwrap().clone();
    assert_eq!(fired.len(), 101);
    if let Some(i) = fired.windows(2).position(|w| w[1] < w[0]) {
        panic!(
            "fire {} (deadline {} us) ran after deadline {} us",
            i + 1,
            fired[i + 1],
            fired[i]
        );
    }
}

/// Sends two 1,250-byte frames to `peer` at start.
struct TwoBig {
    peer: ProcessId,
}

impl Process for TwoBig {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.send(self.peer, Bytes::from(vec![0u8; 1_250]));
        ctx.send(self.peer, Bytes::from(vec![1u8; 1_250]));
    }

    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: ProcessId, _bytes: &Bytes) {}
}

/// Logs the arrival time of every frame, in microseconds.
struct Arrivals {
    log: FireLog,
}

impl Process for Arrivals {
    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ProcessId, _bytes: &Bytes) {
        self.log.lock().unwrap().push(ctx.now().0);
    }
}

/// rt's links queue on bandwidth as the simulator's do: two 1,250-byte
/// frames over a 1 Mbps link take 10 ms each to transmit, so the second
/// arrives at least 9 ms after the first.
#[test]
fn bandwidth_queueing_serializes() {
    let log = FireLog::default();
    let mut world = World::new(12);
    let rx = ProcessId(1);
    let tx = world.add_process("tx", Box::new(TwoBig { peer: rx }));
    let log_rx = Arc::clone(&log);
    let rx = world.add_process("rx", Box::new(Arrivals { log: log_rx }));
    let link = LinkConfig {
        latency: Span::millis(5),
        jitter: Span::ZERO,
        bandwidth_bps: Some(1_000_000),
        ..LinkConfig::local()
    };
    world.add_link(tx, rx, link);
    Runtime::from_fabric(world.into_fabric(), RtConfig::with_threads(1)).run_for(Span::millis(200));
    let at = log.lock().unwrap().clone();
    assert_eq!(at.len(), 2, "{} frames arrived", at.len());
    assert!(
        at[1] - at[0] >= 9_000,
        "frames arrived {} us apart",
        at[1] - at[0]
    );
}
