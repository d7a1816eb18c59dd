//! The host both substrates run actors on: the actor table, the links,
//! timers, the send and the dispatch, written once.
//!
//! A [`Host`] owns a set of actors, their outgoing links, an
//! [`EventQueue`], a [`Clock`], an RNG, [`Metrics`] and a [`Tracer`], and
//! it is the [`Backend`] behind every [`Context`] its actors see.
//! [`World`](crate::World) is one host on a virtual clock plus control
//! closures and a modeled CPU; a `spire-rt` worker is one host on a
//! monotonic clock plus its run queue and cross-worker staging. A host may
//! know an actor it does not run (rt spreads actors over workers): a frame
//! for one leaves through [`Host::drain_outbox`] instead of the queue.

use crate::clock::Clock;
use crate::metrics::Metrics;
use crate::queue::EventQueue;
use crate::time::{Span, Time};
use crate::trace::{TraceKind, Tracer};
use crate::world::{Backend, Context, ControlOp, LinkConfig, Process, ProcessId, TimerId};
use bytes::Bytes;
use rand::rngs::StdRng;
use std::collections::{HashMap, HashSet};

/// Cap on queued events, a guard against a runaway run.
const MAX_QUEUED: usize = 50_000_000;

/// The counter names a host counts its sends and deliveries under: one
/// static table per substrate (`sim.*`, `rt.*`).
#[derive(Debug)]
pub struct Counters {
    /// Frames handed to a link that survived it.
    pub sent: &'static str,
    /// Frames handed to their actor.
    pub delivered: &'static str,
    /// Sends with no link configured.
    pub no_link_drop: &'static str,
    /// Sends over a link that is down.
    pub link_down_drop: &'static str,
    /// Sends that found the transmitter's backlog past `max_queue`.
    pub queue_drop: &'static str,
    /// Sends the link's loss draw dropped.
    pub loss_drop: &'static str,
    /// Frames delivered with one bit flipped.
    pub corrupted: &'static str,
    /// Frames the link duplicated.
    pub dup: &'static str,
    /// Frames that arrived at a crashed actor.
    pub dropped_to_down_process: &'static str,
    /// Timers and starts of an incarnation a crash or restart ended, if
    /// the substrate counts them.
    pub stale_timer_drop: Option<&'static str>,
}

/// The simulator's counter names.
pub static SIM_COUNTERS: Counters = Counters {
    sent: "sim.sent",
    delivered: "sim.delivered",
    no_link_drop: "sim.no_link_drop",
    link_down_drop: "sim.link_down_drop",
    queue_drop: "sim.queue_drop",
    loss_drop: "sim.loss_drop",
    corrupted: "sim.corrupted",
    dup: "sim.dup",
    dropped_to_down_process: "sim.dropped_to_down_process",
    stale_timer_drop: None,
};

/// A unit of work in a host's queue. `Other` carries what the substrate
/// adds (the simulator's modeled CPU and control closures, rt's mailbox
/// retries); [`Host::dispatch`] hands it back.
#[derive(Debug)]
pub enum Event<X> {
    /// Runs `on_start` if the actor is still the incarnation that queued
    /// it.
    Start { to: ProcessId, generation: u64 },
    /// Hands a frame to `to`'s `on_message`.
    Deliver {
        to: ProcessId,
        from: ProcessId,
        bytes: Bytes,
    },
    /// Fires a timer unless it was cancelled or its incarnation ended.
    Timer {
        to: ProcessId,
        generation: u64,
        timer: TimerId,
        tag: u64,
    },
    /// Substrate-specific work.
    Other(X),
}

/// A frame bound for an actor on another host, due at `deliver_at`.
#[derive(Debug)]
pub struct Frame {
    pub from: ProcessId,
    pub to: ProcessId,
    pub deliver_at: Time,
    pub bytes: Bytes,
}

impl<X> From<Frame> for Event<X> {
    fn from(f: Frame) -> Event<X> {
        let (to, from, bytes) = (f.to, f.from, f.bytes);
        Event::Deliver { to, from, bytes }
    }
}

pub(crate) struct Slot {
    /// `None` while the actor runs (it is taken out for the call) and for
    /// an actor another host runs.
    pub(crate) proc: Option<Box<dyn Process>>,
    /// Whether this host runs the actor.
    local: bool,
    up: bool,
    /// Bumped by every crash and restart; timers and starts carry the
    /// generation they were queued under.
    generation: u64,
}

pub(crate) struct LinkState {
    pub(crate) cfg: LinkConfig,
    up: bool,
    /// Earliest time the link's transmitter is free (bandwidth queueing).
    next_free: Time,
}

/// A set of actors and their links over one event queue.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use rand::SeedableRng;
/// use spire_sim::host::{Host, SIM_COUNTERS};
/// use spire_sim::{Clock, Context, LinkConfig, Process, ProcessId, Span, Tracer};
///
/// struct Hello;
/// impl Process for Hello {
///     fn on_start(&mut self, ctx: &mut Context<'_>) {
///         ctx.send(ProcessId(1), Bytes::from_static(b"hi"));
///     }
///     fn on_message(&mut self, _: &mut Context<'_>, _: ProcessId, _: &Bytes) {}
/// }
///
/// let rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut host: Host<()> = Host::new(Clock::virtual_at_zero(), rng, Tracer::default(), &SIM_COUNTERS);
/// let a = host.add_actor(Some(Box::new(Hello)));
/// let b = host.add_actor(None); // run by another host
/// host.add_link(a, b, LinkConfig::local());
/// while let Some((_, event)) = host.pop_due(host.now()) {
///     host.dispatch(event);
/// }
/// let out: Vec<_> = host.drain_outbox().collect();
/// assert_eq!((out[0].to, out[0].deliver_at), (b, host.now() + Span::micros(50)));
/// ```
pub struct Host<X> {
    pub(crate) clock: Clock,
    pub(crate) queue: EventQueue<Event<X>>,
    pub(crate) slots: Vec<Slot>,
    pub(crate) links: HashMap<(u32, u32), LinkState>,
    rng: StdRng,
    pub(crate) metrics: Metrics,
    pub(crate) tracer: Tracer,
    next_timer: u64,
    cancelled: HashSet<u64>,
    outbox: Vec<Frame>,
    counters: &'static Counters,
}

impl<X> Host<X> {
    /// An empty host.
    pub fn new(clock: Clock, rng: StdRng, tracer: Tracer, counters: &'static Counters) -> Host<X> {
        Host {
            clock,
            queue: EventQueue::new(),
            slots: Vec::new(),
            links: HashMap::new(),
            rng,
            metrics: Metrics::new(),
            tracer,
            next_timer: 0,
            cancelled: HashSet::new(),
            outbox: Vec::new(),
            counters,
        }
    }

    /// Adds the next actor id. With a state machine the host runs it and
    /// queues its `on_start` at the current time; `None` registers an
    /// actor another host runs.
    pub fn add_actor(&mut self, proc: Option<Box<dyn Process>>) -> ProcessId {
        let id = ProcessId(self.slots.len() as u32);
        let local = proc.is_some();
        self.slots.push(Slot {
            proc,
            local,
            up: local,
            generation: 0,
        });
        if local {
            let (now, generation) = (self.clock.now(), 0);
            self.push(now, Event::Start { to: id, generation });
        }
        id
    }

    /// Current time (virtual or monotonic).
    pub fn now(&self) -> Time {
        self.clock.now()
    }

    /// Whether the actor runs here and is up.
    pub fn is_up(&self, id: ProcessId) -> bool {
        self.slots.get(id.0 as usize).is_some_and(|s| s.up)
    }

    /// Number of actor ids ever added.
    pub fn process_count(&self) -> usize {
        self.slots.len()
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable access to metrics (e.g. for harness-recorded values).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// The tracing front end (flight recorder, spans, process names).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable access to the tracer.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Crashes an actor: it stops receiving messages and timers.
    pub fn crash(&mut self, id: ProcessId) {
        let slot = &mut self.slots[id.0 as usize];
        slot.up = false;
        slot.generation += 1;
        self.trace(TraceKind::Crash { pid: id.0 });
    }

    /// Restarts an actor with a fresh state machine, its `on_start` queued
    /// at the current time.
    ///
    /// The generation counter invalidates timers set by the previous
    /// incarnation; in-flight messages are still delivered (as they would be
    /// to a rebooted host on a real network).
    pub fn restart(&mut self, id: ProcessId, proc: Box<dyn Process>) {
        let slot = &mut self.slots[id.0 as usize];
        slot.proc = Some(proc);
        slot.up = true;
        slot.generation += 1;
        let generation = slot.generation;
        self.trace(TraceKind::Restart { pid: id.0 });
        self.push(self.clock.now(), Event::Start { to: id, generation });
    }

    /// Adds a bidirectional link between `a` and `b`.
    pub fn add_link(&mut self, a: ProcessId, b: ProcessId, cfg: LinkConfig) {
        self.add_link_directed(a, b, cfg);
        self.add_link_directed(b, a, cfg);
    }

    /// Adds a directed link from `a` to `b`.
    pub fn add_link_directed(&mut self, a: ProcessId, b: ProcessId, cfg: LinkConfig) {
        let link = LinkState {
            cfg,
            up: true,
            next_free: Time::ZERO,
        };
        self.links.insert((a.0, b.0), link);
    }

    /// Brings both directions of a link up or down (partition injection).
    pub fn set_link_up(&mut self, a: ProcessId, b: ProcessId, up: bool) {
        for key in [(a.0, b.0), (b.0, a.0)] {
            if let Some(link) = self.links.get_mut(&key) {
                link.up = up;
            }
        }
    }

    /// Replaces the configuration of both directions of a link (degradation
    /// injection, e.g. DoS-induced loss and queueing).
    pub fn set_link_config(&mut self, a: ProcessId, b: ProcessId, cfg: LinkConfig) {
        let now = self.clock.now();
        for key in [(a.0, b.0), (b.0, a.0)] {
            if let Some(link) = self.links.get_mut(&key) {
                link.cfg = cfg;
                // A reconfigured link starts with an empty transmit queue
                // (the old backlog is considered dropped by the old path).
                link.next_free = now;
            }
        }
    }

    /// Applies one control-plane action now.
    pub fn apply_control(&mut self, op: ControlOp) {
        match op {
            ControlOp::Crash(pid) => self.crash(pid),
            ControlOp::Restart(pid, spawn) => self.restart(pid, spawn()),
            ControlOp::SetLinkUp(a, b, up) => self.set_link_up(a, b, up),
            ControlOp::SetLinkConfig(a, b, cfg) => self.set_link_config(a, b, cfg),
            ControlOp::Count(name, delta) => self.metrics.count(&name, delta),
        }
    }

    /// Queues `event` at `at`, behind everything already queued at `at`.
    pub fn push(&mut self, at: Time, event: Event<X>) {
        assert!(
            self.queue.len() < MAX_QUEUED,
            "event queue overflow: runaway run"
        );
        self.queue.push(at, event);
    }

    /// Removes the earliest event if it is due at or before `now`.
    pub fn pop_due(&mut self, now: Time) -> Option<(Time, Event<X>)> {
        self.queue.pop_due(now)
    }

    /// The earliest queued deadline, if any.
    pub fn next_due(&self) -> Option<Time> {
        self.queue.next_due()
    }

    /// Number of queued events.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Frames sent to actors this host does not run, oldest first.
    pub fn drain_outbox(&mut self) -> std::vec::Drain<'_, Frame> {
        self.outbox.drain(..)
    }

    /// Runs one event against its actor; substrate work comes back.
    pub fn dispatch(&mut self, event: Event<X>) -> Option<X> {
        match event {
            Event::Start { to, generation } => {
                self.call(to, Some(generation), |proc, ctx| proc.on_start(ctx));
            }
            Event::Deliver { to, from, bytes } => {
                if !self.is_up(to) {
                    (self.metrics).count(self.counters.dropped_to_down_process, 1);
                    return None;
                }
                self.metrics.count(self.counters.delivered, 1);
                {
                    let (to, from, len) = (to.0, from.0, bytes.len() as u32);
                    self.trace(TraceKind::MsgRecv { to, from, len });
                }
                self.call(to, None, |proc, ctx| proc.on_message(ctx, from, &bytes));
            }
            Event::Timer {
                to,
                generation,
                timer,
                tag,
            } => {
                if !self.cancelled.remove(&timer.0) {
                    self.trace(TraceKind::TimerFire { pid: to.0, tag });
                    self.call(to, Some(generation), |proc, ctx| proc.on_timer(ctx, tag));
                }
            }
            Event::Other(x) => return Some(x),
        }
        None
    }

    /// Records a trace event now, reading the clock only when tracing is
    /// on (a monotonic read is not free).
    fn trace(&mut self, kind: TraceKind) {
        if self.tracer.enabled() {
            self.tracer.record(self.clock.now(), kind);
        }
    }

    /// Calls into an up actor, if it is still the incarnation `generation`
    /// names.
    fn call<F>(&mut self, to: ProcessId, generation: Option<u64>, f: F)
    where
        F: FnOnce(&mut Box<dyn Process>, &mut Context<'_>),
    {
        let Some(slot) = self.slots.get_mut(to.0 as usize) else {
            return;
        };
        if generation.is_some_and(|g| g != slot.generation) {
            if let Some(name) = self.counters.stale_timer_drop {
                self.metrics.count(name, 1);
            }
            return;
        }
        if !slot.up {
            return;
        }
        let Some(mut proc) = slot.proc.take() else {
            return;
        };
        f(&mut proc, &mut Context::new(self, to));
        // A re-entrant control action may have restarted the actor; only
        // put it back if the slot is still vacant.
        let slot = &mut self.slots[to.0 as usize];
        if slot.proc.is_none() {
            slot.proc = Some(proc);
        }
    }

    /// Queues a frame that left its link at `at`: here if this host runs
    /// `to`, in the outbox otherwise.
    fn route(&mut self, at: Time, from: ProcessId, to: ProcessId, bytes: Bytes) {
        if self.slots.get(to.0 as usize).is_some_and(|s| !s.local) {
            self.outbox.push(Frame {
                from,
                to,
                deliver_at: at,
                bytes,
            });
        } else {
            self.push(at, Event::Deliver { to, from, bytes });
        }
    }
}

impl<X> Backend for Host<X> {
    fn now(&self) -> Time {
        self.clock.now()
    }

    fn send_from(&mut self, from: ProcessId, to: ProcessId, bytes: Bytes) {
        let (now, counters) = (self.clock.now(), self.counters);
        let Some(link) = self.links.get_mut(&(from.0, to.0)) else {
            self.metrics.count(counters.no_link_drop, 1);
            return;
        };
        if !link.up {
            self.metrics.count(counters.link_down_drop, 1);
            return;
        }
        let cfg = link.cfg;
        // Bandwidth queueing with a finite buffer: serialize messages on
        // the transmitter; tail-drop once the backlog exceeds `max_queue`.
        let tx_done = match cfg.bandwidth_bps {
            Some(bps) if bps > 0 => {
                let backlog = link.next_free.since(now);
                if backlog > cfg.max_queue {
                    self.metrics.count(counters.queue_drop, 1);
                    return;
                }
                let tx_us = (bytes.len() as u128 * 8 * 1_000_000 / bps as u128) as u64;
                let start = link.next_free.max(now);
                let done = start + Span::micros(tx_us.max(1));
                link.next_free = done;
                done
            }
            _ => now,
        };
        let Some(transit) = cfg.transit(bytes, &mut self.rng) else {
            self.metrics.count(counters.loss_drop, 1);
            return;
        };
        let bytes = transit.bytes;
        if transit.corrupted {
            self.metrics.count(counters.corrupted, 1);
        }
        // The duplicate is queued first: on equal arrival times it is the
        // one delivered first.
        if let Some(delay) = transit.duplicate {
            self.metrics.count(counters.dup, 1);
            self.route(tx_done + delay, from, to, bytes.clone());
        }
        let arrival = tx_done + transit.delay;
        let len = bytes.len() as u32;
        self.route(arrival, from, to, bytes);
        self.metrics.count(counters.sent, 1);
        // The hop's transit includes bandwidth queueing, so the overlay-hop
        // histogram is where overlay DoS pressure becomes visible.
        let hop = arrival.since(now);
        (self.tracer).record_send(now, [from.0, to.0, len], hop, &mut self.metrics);
    }

    fn set_timer(&mut self, me: ProcessId, delay: Span, tag: u64) -> TimerId {
        let timer = TimerId(self.next_timer);
        self.next_timer += 1;
        let generation = self.slots[me.0 as usize].generation;
        let at = self.clock.now() + delay;
        let event = Event::Timer {
            to: me,
            generation,
            timer,
            tag,
        };
        self.push(at, event);
        timer
    }

    fn cancel_timer(&mut self, _me: ProcessId, timer: TimerId) {
        self.cancelled.insert(timer.0);
    }

    fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    fn count(&mut self, name: &str, delta: u64) {
        self.metrics.count(name, delta);
    }

    fn record(&mut self, name: &str, value: f64) {
        let now = self.clock.now();
        self.metrics.record(name, now, value);
    }

    fn observe(&mut self, name: &str, value: u64) {
        self.metrics.observe(name, value);
    }

    fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }
}
