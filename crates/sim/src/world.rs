//! The deterministic discrete-event world: processes, links, timers.
//!
//! `World` replaces the paper's physical testbed. Protocol logic runs as
//! event-driven state machines (the [`Process`] trait); the network model
//! applies per-link latency, jitter, loss and bandwidth queueing, and can be
//! reconfigured mid-run to emulate partitions, site disconnections and
//! denial-of-service attacks. A fixed RNG seed makes every run reproducible.

use crate::clock::Clock;
use crate::host::{Event, Host, SIM_COUNTERS};
use crate::time::{Span, Time};
use crate::trace::{SpanPhase, TraceKind, Tracer};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Identifies a process within a [`World`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcessId(pub u32);

impl std::fmt::Display for ProcessId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Handle to a pending timer, used for cancellation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerId(pub(crate) u64);

impl TimerId {
    /// Builds a handle from its raw value. Every substrate's [`Host`] mints
    /// its own; this is for a test backend that records effects instead
    /// (`prime::model`'s).
    pub fn from_raw(raw: u64) -> TimerId {
        TimerId(raw)
    }

    /// The raw id value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// An event-driven process (protocol state machine).
///
/// Implementations must be deterministic given the same event sequence and
/// RNG draws; all side effects go through the [`Context`]. `Send` is
/// required so the same state machines can be hosted on OS threads by the
/// real-clock runtime.
pub trait Process: Send {
    /// Called once when the process is added (or restarted).
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}

    /// Called when a message arrives.
    fn on_message(&mut self, ctx: &mut Context<'_>, from: ProcessId, bytes: &Bytes);

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _tag: u64) {}
}

/// Configuration of a directed network link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkConfig {
    /// Propagation delay.
    pub latency: Span,
    /// Uniform random extra delay in `[0, jitter]`.
    pub jitter: Span,
    /// Probability in `[0, 1]` that a message is dropped.
    pub loss: f64,
    /// Probability in `[0, 1]` that a delivered message has one byte
    /// flipped (bit errors / tampering en route; authenticated protocols
    /// must detect and recover).
    pub corrupt: f64,
    /// Probability in `[0, 1]` that a message is delivered twice, the
    /// copy with an independent jitter draw (route flaps / replayed
    /// frames; protocols must deduplicate).
    pub dup: f64,
    /// Transmission rate; `None` means infinite (no queueing).
    pub bandwidth_bps: Option<u64>,
    /// Maximum queueing delay before tail drop (router buffer size in
    /// time units). Messages that would wait longer are dropped.
    pub max_queue: Span,
}

impl LinkConfig {
    /// A LAN-like link: 0.5 ms latency, small jitter, lossless, 1 Gbps.
    pub fn lan() -> LinkConfig {
        LinkConfig {
            latency: Span::micros(500),
            jitter: Span::micros(100),
            loss: 0.0,
            corrupt: 0.0,
            dup: 0.0,
            bandwidth_bps: Some(1_000_000_000),
            max_queue: Span::millis(200),
        }
    }

    /// A WAN link with the given one-way latency in milliseconds (100 Mbps).
    pub fn wan(latency_ms: u64) -> LinkConfig {
        LinkConfig {
            latency: Span::millis(latency_ms),
            jitter: Span::micros(500 * latency_ms.min(10)),
            loss: 0.0,
            corrupt: 0.0,
            dup: 0.0,
            bandwidth_bps: Some(100_000_000),
            max_queue: Span::millis(200),
        }
    }

    /// An intra-host link (process to co-located daemon).
    pub fn local() -> LinkConfig {
        LinkConfig {
            latency: Span::micros(50),
            jitter: Span::ZERO,
            loss: 0.0,
            corrupt: 0.0,
            dup: 0.0,
            bandwidth_bps: None,
            max_queue: Span::millis(200),
        }
    }

    /// Returns a copy with the given loss probability.
    pub fn with_loss(mut self, loss: f64) -> LinkConfig {
        self.loss = loss;
        self
    }

    /// Returns a copy with the given bandwidth.
    pub fn with_bandwidth(mut self, bps: u64) -> LinkConfig {
        self.bandwidth_bps = Some(bps);
        self
    }

    /// Returns a copy with the given corruption probability.
    pub fn with_corruption(mut self, corrupt: f64) -> LinkConfig {
        self.corrupt = corrupt;
        self
    }

    /// Returns a copy with the given duplication probability.
    pub fn with_dup(mut self, dup: f64) -> LinkConfig {
        self.dup = dup;
        self
    }

    /// Returns a copy with the given jitter.
    pub fn with_jitter(mut self, jitter: Span) -> LinkConfig {
        self.jitter = jitter;
        self
    }

    /// One uniform draw from `[0, jitter]` (none on a jitter-free link).
    fn draw_jitter(&self, rng: &mut StdRng) -> Span {
        if self.jitter.0 > 0 {
            Span::micros(rng.gen_range(0..=self.jitter.0))
        } else {
            Span::ZERO
        }
    }

    /// The link fault model both substrates send through: what this link
    /// does to one frame, `None` being a loss. Bandwidth queueing is not
    /// part of it (the simulator puts the transmitter's backlog in front
    /// of both delays; rt has none).
    ///
    /// The draw order is fixed — loss, jitter, corruption (and the flipped
    /// byte), duplication, the duplicate's jitter — and each draw happens
    /// only on a link configured for it, so a seed's RNG stream, and with
    /// it the simulator's event order, does not depend on a fault knob the
    /// run never turns.
    pub fn transit(&self, bytes: Bytes, rng: &mut StdRng) -> Option<Transit> {
        if self.loss > 0.0 && rng.gen_bool(self.loss.min(1.0)) {
            return None;
        }
        let delay = self.latency + self.draw_jitter(rng);
        let corrupted =
            self.corrupt > 0.0 && !bytes.is_empty() && rng.gen_bool(self.corrupt.min(1.0));
        let bytes = if corrupted {
            let mut flipped = bytes.to_vec();
            let idx = rng.gen_range(0..flipped.len());
            flipped[idx] ^= 0x01;
            Bytes::from(flipped)
        } else {
            bytes
        };
        // The copy draws its own jitter, so the pair can arrive reordered.
        let duplicate = (self.dup > 0.0 && rng.gen_bool(self.dup.min(1.0)))
            .then(|| self.latency + self.draw_jitter(rng));
        Some(Transit {
            delay,
            bytes,
            corrupted,
            duplicate,
        })
    }
}

/// A frame that survived [`LinkConfig::transit`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transit {
    /// Latency plus this frame's jitter.
    pub delay: Span,
    /// What the receiver gets: the sent bytes, one bit flipped if
    /// `corrupted`.
    pub bytes: Bytes,
    pub corrupted: bool,
    /// The delay of a second copy, when the wire duplicated the frame.
    pub duplicate: Option<Span>,
}

/// A thunk producing a fresh state machine for a restarted process slot.
/// `Fn` (not `FnOnce`) so one scheduled op can be cloned across substrates,
/// and `Send + Sync` so the real-clock runtime can ship it to the worker
/// thread owning the actor.
pub type SpawnFn = Arc<dyn Fn() -> Box<dyn Process> + Send + Sync>;

/// A substrate-agnostic control-plane action: the attack/defense vocabulary
/// (crash, restart-as-recovering, link partition, link degradation) as
/// plain data rather than simulator closures, so the same scheduled plan
/// can be applied by the discrete-event [`World`] (via
/// [`World::apply_control`]) or by the real-clock `spire-rt` runtime at
/// wall-clock time.
#[derive(Clone)]
pub enum ControlOp {
    /// Crash a process: it stops receiving messages and timers.
    Crash(ProcessId),
    /// Restart a process slot with a freshly spawned state machine.
    Restart(ProcessId, SpawnFn),
    /// Bring both directions of a link up or down.
    SetLinkUp(ProcessId, ProcessId, bool),
    /// Replace both directions of a link's configuration.
    SetLinkConfig(ProcessId, ProcessId, LinkConfig),
    /// Increment a named counter (control-plane bookkeeping).
    Count(String, u64),
}

impl std::fmt::Debug for ControlOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlOp::Crash(pid) => write!(f, "Crash({pid})"),
            ControlOp::Restart(pid, _) => write!(f, "Restart({pid})"),
            ControlOp::SetLinkUp(a, b, up) => write!(f, "SetLinkUp({a}, {b}, {up})"),
            ControlOp::SetLinkConfig(a, b, _) => write!(f, "SetLinkConfig({a}, {b})"),
            ControlOp::Count(name, delta) => write!(f, "Count({name}, {delta})"),
        }
    }
}

/// Work only the simulator queues: a delivery that already paid its
/// service time at the modeled CPU (see [`World::set_service_time`]), and
/// a scheduled control closure.
pub enum WorldEvent {
    Execute {
        to: ProcessId,
        from: ProcessId,
        bytes: Bytes,
    },
    Control(Box<dyn FnOnce(&mut World)>),
}

/// A process's modeled single-threaded CPU.
#[derive(Clone, Copy, Default)]
struct Cpu {
    /// Time to handle one inbound message; zero means infinitely fast
    /// (the default — pure network model).
    per_msg: Span,
    /// When the CPU frees up; deliveries queue behind it.
    busy_until: Time,
}

/// The substrate services a [`Context`] delegates to.
///
/// [`Host`] implements this once for both substrates: the [`World`]'s host
/// runs on virtual time, each real-clock runtime (`spire-rt`) worker's on a
/// monotonic [`Clock`]. Actor code only sees [`Context`], so the same state
/// machines run on either substrate.
pub trait Backend {
    /// Current time (virtual or monotonic, measured from substrate start).
    fn now(&self) -> Time;

    /// Sends `bytes` from `from` to `to` over the configured link.
    fn send_from(&mut self, from: ProcessId, to: ProcessId, bytes: Bytes);

    /// Sets a timer for `me` that fires after `delay` with the given tag.
    fn set_timer(&mut self, me: ProcessId, delay: Span, tag: u64) -> TimerId;

    /// Cancels a pending timer (no-op if it already fired).
    fn cancel_timer(&mut self, me: ProcessId, timer: TimerId);

    /// Deterministic RNG (per-world in the sim, per-worker in the runtime).
    fn rng(&mut self) -> &mut StdRng;

    /// Increments a named counter metric.
    fn count(&mut self, name: &str, delta: u64);

    /// Records a named time-series sample at the current time.
    fn record(&mut self, name: &str, value: f64);

    /// Records one value into a named log-bucketed histogram.
    fn observe(&mut self, name: &str, value: u64);

    /// The substrate's tracer (disabled unless the run asked for a trace).
    fn tracer_mut(&mut self) -> &mut Tracer;
}

/// The deterministic discrete-event simulation world.
///
/// # Examples
///
/// ```
/// use spire_sim::{World, Process, Context, ProcessId, Span, LinkConfig};
/// use bytes::Bytes;
///
/// struct Echo;
/// impl Process for Echo {
///     fn on_message(&mut self, ctx: &mut Context<'_>, from: ProcessId, bytes: &Bytes) {
///         ctx.send(from, bytes.clone());
///     }
/// }
/// struct Probe;
/// impl Process for Probe {
///     fn on_start(&mut self, ctx: &mut Context<'_>) {
///         ctx.send(ProcessId(0), Bytes::from_static(b"ping"));
///     }
///     fn on_message(&mut self, ctx: &mut Context<'_>, _from: ProcessId, _bytes: &Bytes) {
///         ctx.count("pongs", 1);
///     }
/// }
///
/// let mut world = World::new(7);
/// let echo = world.add_process("echo", Box::new(Echo));
/// let probe = world.add_process("probe", Box::new(Probe));
/// world.add_link(echo, probe, LinkConfig::lan());
/// world.run_for(Span::secs(1));
/// assert_eq!(world.metrics().counter("pongs"), 1);
/// ```
pub struct World {
    host: Host<WorldEvent>,
    seed: u64,
    /// The modeled CPU of each process, indexed by `ProcessId`.
    cpus: Vec<Cpu>,
}

impl World {
    /// Creates a world seeded for reproducibility.
    pub fn new(seed: u64) -> World {
        let (clock, rng) = (Clock::virtual_at_zero(), StdRng::seed_from_u64(seed));
        World {
            host: Host::new(clock, rng, Tracer::default(), &SIM_COUNTERS),
            seed,
            cpus: Vec::new(),
        }
    }

    /// Adds a process; its `on_start` runs at the current time.
    pub fn add_process(&mut self, name: &str, proc: Box<dyn Process>) -> ProcessId {
        self.host.tracer.names.push(name.to_string());
        self.cpus.push(Cpu::default());
        self.host.add_actor(Some(proc))
    }

    /// Models a single-threaded CPU for the process: each inbound message
    /// occupies it for `per_msg` before the handler runs, and deliveries
    /// arriving while it is busy queue behind it. This is the graceful
    /// saturation ceiling the scaling experiments lean on — a replica that
    /// can verify/order only so many messages per second falls behind in
    /// *latency*, never by dropping protocol frames. `Span::ZERO` removes
    /// the model (the default: an infinitely fast host).
    pub fn set_service_time(&mut self, id: ProcessId, per_msg: Span) {
        self.cpus[id.0 as usize].per_msg = per_msg;
    }

    /// Restarts a process with a fresh state machine and an idle CPU (see
    /// [`Host::restart`]).
    pub fn restart(&mut self, id: ProcessId, proc: Box<dyn Process>) {
        self.cpus[id.0 as usize].busy_until = self.host.now();
        self.host.restart(id, proc);
    }

    /// Applies one substrate-agnostic control-plane action immediately.
    /// The real-clock runtime applies the same [`ControlOp`] vocabulary at
    /// wall-clock time through the same [`Host::apply_control`].
    pub fn apply_control(&mut self, op: ControlOp) {
        match op {
            ControlOp::Restart(pid, spawn) => self.restart(pid, spawn()),
            op => self.host.apply_control(op),
        }
    }

    /// Schedules a control action (attack injection, recovery, topology
    /// change) to run at virtual time `at`.
    pub fn schedule_control<F>(&mut self, at: Time, f: F)
    where
        F: FnOnce(&mut World) + 'static,
    {
        let at = at.max(self.now());
        self.host
            .push(at, Event::Other(WorldEvent::Control(Box::new(f))));
    }

    /// Injects a message directly (bypassing links); for tests and fault
    /// injection.
    pub fn inject_message(&mut self, at: Time, from: ProcessId, to: ProcessId, bytes: Bytes) {
        let at = at.max(self.now());
        self.host.push(at, Event::Deliver { to, from, bytes });
    }

    /// Runs until the queue is empty or `deadline` is passed, then folds
    /// the spans confirmed meanwhile into the `span.*_us` histograms.
    pub fn run_until(&mut self, deadline: Time) {
        while self.host.next_due().is_some_and(|at| at <= deadline) {
            self.step();
        }
        let host = &mut self.host;
        host.clock.advance_to(deadline);
        host.tracer.fold_spans(&mut host.metrics);
    }

    /// Runs for `span` of virtual time from now.
    pub fn run_for(&mut self, span: Span) {
        let deadline = self.now() + span;
        self.run_until(deadline);
    }

    /// Processes a single event; returns false if the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, event)) = self.host.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now(), "time went backwards");
        self.host.clock.advance_to(at);
        match event {
            // Modeled CPU: serialize message handling through the
            // process's single server. The handler runs when the message
            // *finishes* service; deliveries arriving while the CPU is
            // busy queue behind it (an M/D/1 mailbox — saturation shows
            // up as latency, never as loss).
            Event::Deliver { to, from, bytes }
                if self.host.is_up(to) && self.cpus[to.0 as usize].per_msg > Span::ZERO =>
            {
                let now = self.now();
                let cpu = &mut self.cpus[to.0 as usize];
                let start = cpu.busy_until.max(now);
                if start > now {
                    self.host.metrics.count("sim.cpu_queued", 1);
                }
                cpu.busy_until = start + cpu.per_msg;
                let execute = WorldEvent::Execute { to, from, bytes };
                self.host.push(cpu.busy_until, Event::Other(execute));
            }
            event => match self.host.dispatch(event) {
                Some(WorldEvent::Execute { to, from, bytes }) => {
                    self.host.dispatch(Event::Deliver { to, from, bytes });
                }
                Some(WorldEvent::Control(f)) => f(self),
                None => {}
            },
        }
        true
    }

    /// Dismantles the world into its raw actors and link configurations so
    /// an alternative substrate (the real-clock `spire-rt` runtime) can
    /// host the same deployment. Pending events, scheduled controls and
    /// link up/down state are discarded — call this on a freshly assembled
    /// world, before running it.
    pub fn into_fabric(mut self) -> Fabric {
        // `World` implements `Drop`, so fields are taken rather than moved.
        let host = &mut self.host;
        Fabric {
            actors: std::mem::take(&mut host.slots)
                .into_iter()
                .map(|s| s.proc.expect("process checked out"))
                .collect(),
            links: std::mem::take(&mut host.links)
                .into_iter()
                .map(|(key, link)| (key, link.cfg))
                .collect(),
            seed: self.seed,
            tracer: std::mem::take(&mut host.tracer),
        }
    }
}

/// Everything else — the clock, links, crash, metrics and tracer — is the
/// world's [`Host`].
impl std::ops::Deref for World {
    type Target = Host<WorldEvent>;

    fn deref(&self) -> &Host<WorldEvent> {
        &self.host
    }
}

impl std::ops::DerefMut for World {
    fn deref_mut(&mut self) -> &mut Host<WorldEvent> {
        &mut self.host
    }
}

/// The substrate-independent contents of an assembled deployment: actors
/// and directed link configurations, the RNG seed and the tracer. Produced
/// by [`World::into_fabric`] and consumed by the real-clock runtime.
pub struct Fabric {
    /// One state machine per process, indexed by `ProcessId`.
    pub actors: Vec<Box<dyn Process>>,
    /// Directed links `(from, to)` with their latency/jitter/loss model.
    pub links: Vec<((u32, u32), LinkConfig)>,
    /// The seed the world was built with.
    pub seed: u64,
    /// The world's tracer, as yet empty: its settings (enabled or not, the
    /// ring capacity, the overlay daemons) and the process names. Each
    /// worker records into a clone.
    pub tracer: Tracer,
}

impl Drop for World {
    /// A panicking run (failed assertion anywhere under the event loop)
    /// dumps the flight-recorder tail so the postmortem has the last events.
    fn drop(&mut self) {
        if self.tracer().enabled() && std::thread::panicking() {
            eprintln!(
                "=== panic with tracing enabled; {}",
                self.tracer().dump_tail(100)
            );
        }
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now())
            .field("processes", &self.host.slots.len())
            .field("links", &self.host.links.len())
            .field("queued", &self.host.queued())
            .finish()
    }
}

/// The API surface a [`Process`] uses to act on its substrate.
pub struct Context<'w> {
    backend: &'w mut dyn Backend,
    me: ProcessId,
}

impl<'w> Context<'w> {
    /// Builds a context around any [`Backend`] (used by the world's event
    /// loop and by the real-clock runtime's workers).
    pub fn new(backend: &'w mut dyn Backend, me: ProcessId) -> Context<'w> {
        Context { backend, me }
    }

    /// Current time (virtual in the sim, monotonic in the runtime).
    pub fn now(&self) -> Time {
        self.backend.now()
    }

    /// This process's id.
    pub fn id(&self) -> ProcessId {
        self.me
    }

    /// Sends `bytes` to `to` over the configured link (dropped with a metric
    /// if no link exists or the link is down/lossy).
    pub fn send(&mut self, to: ProcessId, bytes: Bytes) {
        self.backend.send_from(self.me, to, bytes);
    }

    /// Sets a timer that fires after `delay` with the given tag.
    pub fn set_timer(&mut self, delay: Span, tag: u64) -> TimerId {
        self.backend.set_timer(self.me, delay, tag)
    }

    /// Cancels a pending timer (no-op if it already fired).
    pub fn cancel_timer(&mut self, timer: TimerId) {
        self.backend.cancel_timer(self.me, timer);
    }

    /// Deterministic RNG (per-world in the sim, per-worker in the runtime).
    pub fn rng(&mut self) -> &mut StdRng {
        self.backend.rng()
    }

    /// Increments a named counter metric.
    pub fn count(&mut self, name: &str, delta: u64) {
        self.backend.count(name, delta);
    }

    /// Records a named time-series sample at the current time.
    pub fn record(&mut self, name: &str, value: f64) {
        self.backend.record(name, value);
    }

    /// Records one value into a named log-bucketed histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.backend.observe(name, value);
    }

    /// Whether structured tracing is enabled (to gate instrumentation that
    /// needs any preparatory work).
    #[inline]
    pub fn tracing_enabled(&mut self) -> bool {
        self.backend.tracer_mut().enabled()
    }

    /// Records a trace event at the current time (no-op when disabled).
    #[inline]
    pub fn trace(&mut self, kind: TraceKind) {
        if self.tracing_enabled() {
            let now = self.now();
            self.backend.tracer_mut().record(now, kind);
        }
    }

    /// Marks a causal-span phase for this process at the current time.
    #[inline]
    pub fn span_mark(&mut self, key: u64, phase: SpanPhase) {
        if self.tracing_enabled() {
            let (now, me) = (self.now(), self.me.0);
            self.backend.tracer_mut().mark(now, me, key, phase);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Collector {
        received: Vec<(Time, Vec<u8>)>,
    }

    impl Process for Collector {
        fn on_message(&mut self, ctx: &mut Context<'_>, _from: ProcessId, bytes: &Bytes) {
            self.received.push((ctx.now(), bytes.to_vec()));
            ctx.record("rx_time", ctx.now().as_secs_f64());
        }
    }

    struct Sender {
        to: ProcessId,
        n: u32,
    }

    impl Process for Sender {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for i in 0..self.n {
                ctx.send(self.to, Bytes::from(vec![i as u8]));
            }
        }
        fn on_message(&mut self, _: &mut Context<'_>, _: ProcessId, _: &Bytes) {}
    }

    fn fixed_link(latency_ms: u64) -> LinkConfig {
        LinkConfig {
            latency: Span::millis(latency_ms),
            jitter: Span::ZERO,
            loss: 0.0,
            corrupt: 0.0,
            dup: 0.0,
            bandwidth_bps: None,
            max_queue: Span::secs(10),
        }
    }

    #[test]
    fn message_delivery_latency() {
        let mut world = World::new(1);
        let rx = world.add_process(
            "rx",
            Box::new(Collector {
                received: Vec::new(),
            }),
        );
        let tx = world.add_process("tx", Box::new(Sender { to: rx, n: 1 }));
        world.add_link(tx, rx, fixed_link(10));
        world.run_for(Span::secs(1));
        assert_eq!(world.metrics().counter("sim.delivered"), 1);
        let series = world.metrics().series("rx_time");
        assert_eq!(series.len(), 1);
        assert!((series[0].1 - 0.010).abs() < 1e-9, "got {}", series[0].1);
    }

    /// The link fault model's draw order is part of every seed's event
    /// stream. Pinned from `World::do_send` as it stood before the model
    /// became one function: seed 2018, sixteen 4-byte frames over a link
    /// with every fault knob turned on.
    #[test]
    fn link_model_reproduces_the_pinned_draw_sequence() {
        let link = LinkConfig {
            latency: Span::millis(10),
            jitter: Span::millis(3),
            loss: 0.2,
            corrupt: 0.3,
            dup: 0.25,
            bandwidth_bps: None,
            max_queue: Span::millis(200),
        };
        // (delay us, flipped byte index, duplicate's delay us); None = lost.
        type Outcome = Option<(u64, Option<usize>, Option<u64>)>;
        let pinned: [Outcome; 16] = [
            Some((12_797, Some(0), None)),
            None,
            Some((12_652, Some(1), Some(10_187))),
            Some((12_091, None, None)),
            Some((10_063, Some(3), None)),
            None,
            Some((12_408, None, Some(10_393))),
            Some((10_522, None, None)),
            Some((10_512, None, None)),
            Some((11_791, Some(1), None)),
            Some((11_084, None, None)),
            Some((12_147, None, None)),
            None,
            Some((10_792, None, Some(12_460))),
            Some((12_371, None, None)),
            Some((12_267, Some(1), None)),
        ];
        let mut rng = StdRng::seed_from_u64(2018);
        for (i, want) in pinned.into_iter().enumerate() {
            let sent = [i as u8, 0x10, 0x20, 0x30];
            let got = link.transit(Bytes::from(sent.to_vec()), &mut rng);
            let want = want.map(|(delay, flipped, dup)| {
                let mut bytes = sent;
                if let Some(idx) = flipped {
                    bytes[idx] ^= 0x01;
                }
                Transit {
                    delay: Span::micros(delay),
                    bytes: Bytes::from(bytes.to_vec()),
                    corrupted: flipped.is_some(),
                    duplicate: dup.map(Span::micros),
                }
            });
            assert_eq!(got, want, "frame {i}");
        }
    }

    #[test]
    fn no_link_drops() {
        let mut world = World::new(1);
        let rx = world.add_process(
            "rx",
            Box::new(Collector {
                received: Vec::new(),
            }),
        );
        let _tx = world.add_process("tx", Box::new(Sender { to: rx, n: 3 }));
        world.run_for(Span::secs(1));
        assert_eq!(world.metrics().counter("sim.no_link_drop"), 3);
        assert_eq!(world.metrics().counter("sim.delivered"), 0);
    }

    #[test]
    fn link_down_drops() {
        let mut world = World::new(1);
        let rx = world.add_process(
            "rx",
            Box::new(Collector {
                received: Vec::new(),
            }),
        );
        let tx = world.add_process("tx", Box::new(Sender { to: rx, n: 2 }));
        world.add_link(tx, rx, fixed_link(1));
        world.set_link_up(tx, rx, false);
        world.run_for(Span::secs(1));
        assert_eq!(world.metrics().counter("sim.link_down_drop"), 2);
    }

    #[test]
    fn lossy_link_drops_statistically() {
        let mut world = World::new(42);
        let rx = world.add_process(
            "rx",
            Box::new(Collector {
                received: Vec::new(),
            }),
        );
        let tx = world.add_process("tx", Box::new(Sender { to: rx, n: 200 }));
        world.add_link(tx, rx, fixed_link(1).with_loss(0.5));
        world.run_for(Span::secs(1));
        let delivered = world.metrics().counter("sim.delivered");
        assert!((50..150).contains(&delivered), "delivered={delivered}");
    }

    #[test]
    fn bandwidth_queueing_serializes() {
        // Two 1250-byte messages over a 1 Mbps link: 10 ms transmission
        // each, so the second arrives ~10 ms after the first.
        struct BigSender {
            to: ProcessId,
        }
        impl Process for BigSender {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.send(self.to, Bytes::from(vec![0u8; 1250]));
                ctx.send(self.to, Bytes::from(vec![1u8; 1250]));
            }
            fn on_message(&mut self, _: &mut Context<'_>, _: ProcessId, _: &Bytes) {}
        }
        let mut world = World::new(1);
        let rx = world.add_process(
            "rx",
            Box::new(Collector {
                received: Vec::new(),
            }),
        );
        let tx = world.add_process("tx", Box::new(BigSender { to: rx }));
        world.add_link(
            tx,
            rx,
            LinkConfig {
                latency: Span::millis(5),
                jitter: Span::ZERO,
                loss: 0.0,
                corrupt: 0.0,
                dup: 0.0,
                bandwidth_bps: Some(1_000_000),
                max_queue: Span::secs(10),
            },
        );
        world.run_for(Span::secs(1));
        let times = world.metrics().series("rx_time");
        assert_eq!(times.len(), 2);
        let gap = times[1].1 - times[0].1;
        assert!((gap - 0.010).abs() < 1e-6, "gap={gap}");
    }

    #[test]
    fn service_time_serializes_without_loss() {
        // A burst of 50 messages into a process modeling 10 ms of CPU
        // per message: every one is delivered (saturation is latency,
        // never loss), spaced by the service time, and the CPU queueing
        // is visible in the metric.
        let mut world = World::new(1);
        let rx = world.add_process(
            "rx",
            Box::new(Collector {
                received: Vec::new(),
            }),
        );
        world.set_service_time(rx, Span::millis(10));
        let tx = world.add_process("tx", Box::new(Sender { to: rx, n: 50 }));
        world.add_link(tx, rx, fixed_link(1));
        world.run_for(Span::secs(2));
        let times = world.metrics().series("rx_time");
        assert_eq!(times.len(), 50);
        let span = times[49].1 - times[0].1;
        assert!((span - 0.49).abs() < 1e-6, "span={span}");
        assert!(world.metrics().counter("sim.cpu_queued") > 0);
        assert_eq!(world.metrics().counter("sim.delivered"), 50);
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct TimerProc {
            fired: Vec<u64>,
        }
        impl Process for TimerProc {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(Span::millis(10), 1);
                let t = ctx.set_timer(Span::millis(20), 2);
                ctx.set_timer(Span::millis(30), 3);
                ctx.cancel_timer(t);
            }
            fn on_message(&mut self, _: &mut Context<'_>, _: ProcessId, _: &Bytes) {}
            fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
                self.fired.push(tag);
                ctx.count("fired", 1);
            }
        }
        let mut world = World::new(1);
        world.add_process("t", Box::new(TimerProc { fired: Vec::new() }));
        world.run_for(Span::secs(1));
        assert_eq!(world.metrics().counter("fired"), 2);
    }

    #[test]
    fn crash_stops_delivery_and_restart_resumes() {
        let mut world = World::new(1);
        let rx = world.add_process(
            "rx",
            Box::new(Collector {
                received: Vec::new(),
            }),
        );
        let tx = world.add_process("tx", Box::new(Sender { to: rx, n: 1 }));
        world.add_link(tx, rx, fixed_link(10));
        world.crash(rx);
        world.run_for(Span::secs(1));
        assert_eq!(world.metrics().counter("sim.dropped_to_down_process"), 1);
        assert!(!world.is_up(rx));
        world.restart(
            rx,
            Box::new(Collector {
                received: Vec::new(),
            }),
        );
        assert!(world.is_up(rx));
        world.inject_message(world.now(), tx, rx, Bytes::from_static(b"x"));
        world.run_for(Span::secs(1));
        assert_eq!(world.metrics().counter("sim.delivered"), 1);
    }

    #[test]
    fn stale_timers_do_not_fire_after_restart() {
        struct T;
        impl Process for T {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(Span::millis(100), 7);
            }
            fn on_message(&mut self, _: &mut Context<'_>, _: ProcessId, _: &Bytes) {}
            fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
                ctx.count("old_timer", 1);
            }
        }
        struct Quiet;
        impl Process for Quiet {
            fn on_message(&mut self, _: &mut Context<'_>, _: ProcessId, _: &Bytes) {}
            fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
                ctx.count("new_timer", 1);
            }
        }
        let mut world = World::new(1);
        let p = world.add_process("t", Box::new(T));
        world.run_for(Span::millis(10));
        world.restart(p, Box::new(Quiet));
        world.run_for(Span::secs(1));
        assert_eq!(world.metrics().counter("old_timer"), 0);
        assert_eq!(world.metrics().counter("new_timer"), 0);
    }

    #[test]
    fn control_events_run_at_time() {
        let mut world = World::new(1);
        world.schedule_control(Time(500_000), |w| {
            w.metrics_mut().count("control_ran", 1);
        });
        world.run_for(Span::millis(100));
        assert_eq!(world.metrics().counter("control_ran"), 0);
        world.run_for(Span::secs(1));
        assert_eq!(world.metrics().counter("control_ran"), 1);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run(seed: u64) -> u64 {
            let mut world = World::new(seed);
            let rx = world.add_process(
                "rx",
                Box::new(Collector {
                    received: Vec::new(),
                }),
            );
            let tx = world.add_process("tx", Box::new(Sender { to: rx, n: 100 }));
            world.add_link(
                tx,
                rx,
                LinkConfig {
                    latency: Span::millis(3),
                    jitter: Span::millis(2),
                    loss: 0.2,
                    corrupt: 0.0,
                    dup: 0.0,
                    bandwidth_bps: Some(10_000_000),
                    max_queue: Span::secs(10),
                },
            );
            world.run_for(Span::secs(2));
            world.metrics().counter("sim.delivered")
        }
        assert_eq!(run(5), run(5));
        // Different seeds almost surely differ for 100 lossy sends.
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn run_until_advances_time_even_when_idle() {
        let mut world = World::new(1);
        world.run_until(Time(123));
        assert_eq!(world.now(), Time(123));
    }

    #[test]
    fn tracing_captures_sends_and_feeds_overlay_histogram() {
        let mut world = World::new(1);
        let rx = world.add_process(
            "rx",
            Box::new(Collector {
                received: Vec::new(),
            }),
        );
        let tx = world.add_process("tx", Box::new(Sender { to: rx, n: 2 }));
        world.add_link(tx, rx, fixed_link(10));
        world.tracer_mut().enable(1024);
        world.tracer_mut().mark_overlay(tx.0);
        world.tracer_mut().mark_overlay(rx.0);
        world.run_for(Span::secs(1));
        let sends = world
            .tracer()
            .recorder()
            .events()
            .filter(|e| matches!(e.kind, crate::trace::TraceKind::MsgSend { .. }))
            .count();
        let recvs = world
            .tracer()
            .recorder()
            .events()
            .filter(|e| matches!(e.kind, crate::trace::TraceKind::MsgRecv { .. }))
            .count();
        assert_eq!(sends, 2);
        assert_eq!(recvs, 2);
        let hops = world.metrics().histogram("overlay.hop_us").unwrap();
        assert_eq!(hops.count(), 2);
        assert_eq!(hops.min(), 10_000); // fixed 10 ms link
        let json = world.tracer().chrome_trace();
        assert!(json.contains("\"msg_send\""));
        assert!(json.contains("tx"));
    }

    #[test]
    fn span_marks_via_context_complete_into_histograms() {
        struct Submitter {
            to: ProcessId,
        }
        impl Process for Submitter {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.span_mark(
                    crate::trace::span_key(9, 1),
                    crate::trace::SpanPhase::Submit,
                );
                ctx.send(self.to, Bytes::from_static(b"op"));
            }
            fn on_message(&mut self, ctx: &mut Context<'_>, _: ProcessId, _: &Bytes) {
                ctx.span_mark(
                    crate::trace::span_key(9, 1),
                    crate::trace::SpanPhase::Confirm,
                );
            }
        }
        struct Echo;
        impl Process for Echo {
            fn on_message(&mut self, ctx: &mut Context<'_>, from: ProcessId, bytes: &Bytes) {
                ctx.span_mark(crate::trace::span_key(9, 1), crate::trace::SpanPhase::Recv);
                ctx.send(from, bytes.clone());
            }
        }
        let mut world = World::new(1);
        let echo = world.add_process("echo", Box::new(Echo));
        let sub = world.add_process("sub", Box::new(Submitter { to: echo }));
        world.add_link(echo, sub, fixed_link(5));
        world.tracer_mut().enable(256);
        world.run_for(Span::secs(1));
        assert_eq!(world.tracer().confirmed_spans().len(), 1);
        let total = world.metrics().histogram("span.total_us").unwrap();
        assert_eq!(total.count(), 1);
        assert_eq!(total.min(), 10_000); // two 5 ms hops
        let overlay_in = world.metrics().histogram("span.overlay_in_us").unwrap();
        assert_eq!(overlay_in.min(), 5_000);
    }
}
