//! The multi-threaded real-clock hosting substrate.
//!
//! A [`Runtime`] takes the actors and link model of an assembled
//! [`Fabric`] (built exactly as for the simulator) and runs them on OS
//! threads under monotonic wall-clock time. The runtime is event-driven:
//! an actor's work is entries in its worker's queues, not a thread.
//!
//! - **Sharded run queues.** Actors are partitioned round-robin across
//!   workers; each worker owns one [`RunQueue`] for work from other
//!   workers and one [`EventQueue`] — the simulator's queue type — that
//!   serves both as its actors' timer service and as the link delay line
//!   (the same per-link latency/jitter/loss/corruption/duplication model
//!   the simulator uses). Each pass pops everything due at the pass's
//!   `now` and dispatches it by deadline, ties in insertion order, as the
//!   simulator would; entries created during a pass wait for the next.
//! - **Frame batching.** Cross-worker sends coalesce: frames staged for
//!   the same destination worker during one scheduling pass travel as a
//!   single batch envelope — one queue push, at most one wakeup, for the
//!   whole batch. Batch containers are drawn from a per-worker
//!   [`Pool`] and released into the destination's pool, so the steady
//!   state recycles buffers instead of allocating per frame.
//! - **Wakeup discipline.** An idle worker parks on its run queue's
//!   condvar until exactly its event queue's next deadline (or the next
//!   incoming batch, whichever is first); nothing polls. Senders notify
//!   only a parked worker, so steady-state handoff is syscall-free.
//!
//! The control plane runs here too: [`Runtime::run_with`] takes a plan of
//! timestamped [`ControlOp`]s — the same vocabulary `World::apply_control`
//! executes under virtual time — and applies each at its wall-clock
//! offset. Crash/restart ops are shipped to the owning worker over its
//! run queue (generation counters invalidate the dead incarnation's
//! timers); link up/down and reconfiguration mutate the shared link
//! table, visible to every worker's next send.
//!
//! Differences from the simulator, by design:
//! - No bandwidth queueing on links (latency, jitter, loss, corruption
//!   and duplication only).
//! - Cross-worker run queues are bounded; a full queue triggers bounded
//!   retry with exponential backoff through the sender's event queue
//!   (`rt.mailbox_retry`), and only after the retry budget is exhausted
//!   is the frame dropped — counted both globally
//!   (`rt.mailbox_full_drop`) and per message class (`rt.drop.<class>`
//!   via [`RtHooks::classify`]), like a congested NIC queue.
//! - Runs are not reproducible: thread interleaving and the OS clock are
//!   real. Per-worker RNGs are still seeded from the fabric seed so loss
//!   and jitter draws do not depend on a global entropy source.

use crate::pool::Pool;
use crate::queue::RunQueue;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spire_sim::clock::Clock;
use spire_sim::world::{
    Backend, Context, ControlOp, Fabric, LinkConfig, Process, ProcessId, SpawnFn, TimerId,
};
use spire_sim::{EventQueue, Metrics, Span, Time, TraceKind, Tracer};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Tuning knobs for the runtime.
#[derive(Clone, Copy, Debug)]
pub struct RtConfig {
    /// Worker threads to spawn (capped at the actor count).
    pub threads: usize,
    /// Bounded capacity of each worker's cross-worker run queue, in
    /// frames (batch envelopes count their frames, not one slot).
    pub mailbox_capacity: usize,
}

impl Default for RtConfig {
    fn default() -> RtConfig {
        RtConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            mailbox_capacity: 65_536,
        }
    }
}

impl RtConfig {
    /// A config with an explicit worker count.
    pub fn with_threads(threads: usize) -> RtConfig {
        RtConfig {
            threads,
            ..RtConfig::default()
        }
    }
}

/// A frame-bytes → message-class labeling function (see [`RtHooks`]).
pub type ClassifyFn = Arc<dyn Fn(&[u8]) -> &'static str + Send + Sync>;

/// Callbacks the hosting layer can hand the runtime. Kept outside
/// [`RtConfig`] so that stays `Copy`.
#[derive(Clone)]
pub struct RtHooks {
    /// Maps a frame's bytes to a short message-class label for the
    /// per-class drop counters (`rt.drop.<class>`). The default lumps
    /// everything under `"frame"`; `spire-core` installs a Prime-aware
    /// classifier so view-change and checkpoint losses are visible.
    pub classify: ClassifyFn,
}

impl Default for RtHooks {
    fn default() -> RtHooks {
        RtHooks {
            classify: Arc::new(|_| "frame"),
        }
    }
}

impl std::fmt::Debug for RtHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtHooks").finish_non_exhaustive()
    }
}

/// Mutable per-link state shared by all workers behind one `RwLock`:
/// sends take a read lock; control-plane ops take the write lock.
struct RtLink {
    cfg: LinkConfig,
    up: bool,
}

type LinkTable = Arc<RwLock<HashMap<(u32, u32), RtLink>>>;

/// How often each worker publishes its telemetry: a clone of its private
/// metrics into the shared slot plus gauge samples (mailbox depth, event
/// queue length, busy fraction) into its own series. Idle parks are capped
/// at this interval so the published view is never staler than one
/// period even on a quiet shard.
const PUBLISH_INTERVAL: Span = Span(250_000);

/// One worker's shared telemetry slot, refreshed at [`PUBLISH_INTERVAL`].
/// This is what [`Runtime::live_metrics`] and [`Runtime::gauges`] read
/// while the run is still in flight. Mailbox depth is *not* mirrored
/// here: the run queue's own exact ledger is read directly.
pub(crate) struct WorkerShared {
    /// Latest published clone of the worker's private metrics.
    metrics: Mutex<Metrics>,
    /// Entries waiting in the worker's event queue: timers, delayed
    /// frames, parked retries (as of the last publish).
    pending: AtomicU64,
    /// Cumulative microseconds spent dispatching work.
    busy_us: AtomicU64,
    /// Cumulative microseconds spent parked waiting for work.
    idle_us: AtomicU64,
}

impl WorkerShared {
    fn new() -> WorkerShared {
        WorkerShared {
            metrics: Mutex::new(Metrics::new()),
            pending: AtomicU64::new(0),
            busy_us: AtomicU64::new(0),
            idle_us: AtomicU64::new(0),
        }
    }
}

/// A point-in-time view of the runtime's own health gauges, aggregated
/// across workers — the blind spots end-of-run metrics cannot show.
#[derive(Clone, Copy, Debug, Default)]
pub struct RtGauges {
    /// Frames queued in cross-worker run queues right now (exact: read
    /// from each queue's depth ledger, where
    /// `depth == sends - recvs - drops` holds by construction).
    pub mailbox_depth: u64,
    /// Entries waiting in the workers' event queues: timers, delayed
    /// frames, parked retries (summed, as of each worker's last publish).
    pub pending: u64,
    /// Cumulative busy microseconds across workers.
    pub busy_us: u64,
    /// Cumulative idle microseconds across workers.
    pub idle_us: u64,
}

impl RtGauges {
    /// Fraction of worker time spent dispatching (0 when nothing has
    /// been published yet).
    pub fn busy_frac(&self) -> f64 {
        let total = self.busy_us + self.idle_us;
        if total == 0 {
            0.0
        } else {
            self.busy_us as f64 / total as f64
        }
    }
}

/// Control-plane actions shipped to the worker that owns the target
/// actor (only that worker may touch the actor's `Box<dyn Process>`).
enum CtlMsg {
    Crash(u32),
    Restart(u32, SpawnFn),
}

/// A frame in flight between workers: already delayed-and-filtered by
/// the sender's link model, held in the receiving worker's event queue
/// until `deliver_at`.
struct Frame {
    from: ProcessId,
    to: ProcessId,
    deliver_at: Time,
    bytes: Bytes,
}

/// What flows through the cross-worker run queues.
enum Envelope {
    /// A single frame (retries and duplicates travel alone).
    Frame(Frame),
    /// Frames coalesced for this worker during one sender scheduling
    /// pass: one push, one wakeup, many frames. The container is
    /// released into the receiving worker's pool after draining.
    Batch(Vec<Frame>),
    /// A control-plane action for an actor this worker owns.
    Control(CtlMsg),
    /// Shutdown nudge so parked workers re-check the stop flag.
    Wake,
}

/// How many times a frame that found the destination queue full is
/// re-offered before being dropped, and the initial backoff (doubled per
/// attempt: 1 ms, 2 ms, 4 ms).
const MAX_FORWARD_ATTEMPTS: u32 = 3;
const FORWARD_BACKOFF: Span = Span(1_000);

/// An entry in a worker's event queue: a delayed frame, a protocol timer,
/// or a frame awaiting a queue-retry slot.
enum Due {
    Deliver {
        from: ProcessId,
        to: ProcessId,
        bytes: Bytes,
    },
    Timer {
        to: ProcessId,
        id: u64,
        tag: u64,
        generation: u64,
    },
    /// A cross-worker frame that hit a full run queue: retry the send.
    Forward {
        from: ProcessId,
        to: ProcessId,
        deliver_at: Time,
        bytes: Bytes,
        attempts: u32,
    },
}

/// The per-worker [`Backend`]: monotonic clock, seeded RNG, private
/// metrics and tracer, event queue, routes to the other workers.
struct WorkerBackend {
    worker: usize,
    clock: Clock,
    rng: StdRng,
    metrics: Metrics,
    /// The worker is its only writer; [`Runtime::shutdown`] merges them.
    tracer: Tracer,
    /// Timers, delayed frames and parked retries, by deadline.
    queue: EventQueue<Due>,
    cancelled: HashSet<u64>,
    next_timer: u64,
    links: LinkTable,
    /// Restart generation per locally-owned actor; timers carry the
    /// generation they were set under and stale ones are discarded.
    generations: HashMap<u32, u64>,
    /// Locally-owned actors currently crashed (deliveries are dropped
    /// and counted rather than misrouted).
    down: HashSet<u32>,
    /// `ProcessId -> worker index` for every actor.
    assignment: Arc<Vec<usize>>,
    queues: Vec<Arc<RunQueue<Envelope>>>,
    /// Outgoing frames staged per destination worker during the current
    /// scheduling pass; flushed as one batch envelope per destination.
    staged: Vec<Vec<Frame>>,
    /// Destination workers with staged frames, in first-touch order.
    staged_order: Vec<usize>,
    /// Recycled batch containers (refilled by incoming batches).
    containers: Pool<Frame>,
    hooks: RtHooks,
    /// Telemetry slots for every worker (index = worker id).
    shared: Arc<Vec<WorkerShared>>,
}

impl WorkerBackend {
    /// Files a frame from another worker for delivery at its deadline.
    fn file(&mut self, f: Frame) {
        let (from, to, bytes) = (f.from, f.to, f.bytes);
        self.queue
            .push(f.deliver_at, Due::Deliver { from, to, bytes });
    }

    /// Stages a frame for a remote worker; it travels in the next flush's
    /// batch envelope.
    fn stage(&mut self, w: usize, from: ProcessId, to: ProcessId, deliver_at: Time, bytes: Bytes) {
        if self.staged[w].is_empty() {
            self.staged_order.push(w);
            if self.staged[w].capacity() == 0 {
                self.staged[w] = self.containers.acquire();
            }
        }
        self.staged[w].push(Frame {
            from,
            to,
            deliver_at,
            bytes,
        });
    }

    /// Ships every staged batch: one queue push (and at most one wakeup)
    /// per destination worker. A batch that does not fit the destination
    /// queue falls back to per-frame bounded retry through our event queue.
    fn flush_staged(&mut self) {
        if self.staged_order.is_empty() {
            return;
        }
        let order = std::mem::take(&mut self.staged_order);
        for w in &order {
            let frames = std::mem::take(&mut self.staged[*w]);
            let n = frames.len() as u64;
            debug_assert!(n > 0);
            self.metrics.count("rt.envelopes", 1);
            if n > 1 {
                self.metrics.count("rt.coalesced_frames", n - 1);
            }
            match self.queues[*w].push_weighted(Envelope::Batch(frames), n) {
                Ok(()) => {}
                Err(Envelope::Batch(mut frames)) => {
                    // Park each frame for retry; the container returns to
                    // our pool.
                    self.metrics.count("rt.mailbox_retry", n);
                    let retry_at = self.clock.now() + FORWARD_BACKOFF;
                    for f in frames.drain(..) {
                        self.queue.push(
                            retry_at,
                            Due::Forward {
                                from: f.from,
                                to: f.to,
                                deliver_at: f.deliver_at,
                                bytes: f.bytes,
                                attempts: 1,
                            },
                        );
                    }
                    self.containers.release(frames);
                }
                Err(_) => unreachable!("pushed a Batch"),
            }
        }
        self.staged_order = order;
        self.staged_order.clear();
    }

    /// Retries a parked frame; drops (with per-class accounting) once the
    /// attempt budget is spent.
    fn retry_forward(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        deliver_at: Time,
        bytes: Bytes,
        attempts: u32,
    ) {
        let Some(&w) = self.assignment.get(to.0 as usize) else {
            self.metrics.count("rt.no_link_drop", 1);
            return;
        };
        match self.queues[w].push(Envelope::Frame(Frame {
            from,
            to,
            deliver_at,
            bytes,
        })) {
            Ok(()) => {}
            Err(Envelope::Frame(f)) => {
                if attempts < MAX_FORWARD_ATTEMPTS {
                    self.metrics.count("rt.mailbox_retry", 1);
                    let backoff = Span::micros(FORWARD_BACKOFF.0 << attempts);
                    let retry_at = self.clock.now() + backoff;
                    self.queue.push(
                        retry_at,
                        Due::Forward {
                            from: f.from,
                            to: f.to,
                            deliver_at: f.deliver_at,
                            bytes: f.bytes,
                            attempts: attempts + 1,
                        },
                    );
                } else {
                    self.metrics.count("rt.mailbox_full_drop", 1);
                    let class = (self.hooks.classify)(&f.bytes);
                    self.metrics.count(&format!("rt.drop.{class}"), 1);
                }
            }
            Err(_) => unreachable!("pushed a Frame"),
        }
    }
}

impl Backend for WorkerBackend {
    fn now(&self) -> Time {
        self.clock.now()
    }

    fn send_from(&mut self, from: ProcessId, to: ProcessId, bytes: Bytes) {
        let Some((cfg, up)) = self
            .links
            .read()
            .expect("link table poisoned")
            .get(&(from.0, to.0))
            .map(|l| (l.cfg, l.up))
        else {
            self.metrics.count("rt.no_link_drop", 1);
            return;
        };
        if !up {
            self.metrics.count("rt.link_down_drop", 1);
            return;
        }
        // The simulator's link fault model, draw for draw.
        let Some(transit) = cfg.transit(bytes, &mut self.rng) else {
            self.metrics.count("rt.loss_drop", 1);
            return;
        };
        let bytes = transit.bytes;
        if transit.corrupted {
            self.metrics.count("rt.corrupted", 1);
        }
        let now = self.clock.now();
        let deliver_at = now + transit.delay;
        self.metrics.count("rt.sent", 1);
        let (len, hop) = (bytes.len() as u32, transit.delay);
        (self.tracer).record_send(now, [from.0, to.0, len], hop, &mut self.metrics);
        let dest = self.assignment.get(to.0 as usize).copied();
        if let Some(delay) = transit.duplicate {
            let dup_at = now + delay;
            self.metrics.count("rt.dup", 1);
            if dest == Some(self.worker) {
                self.queue.push(
                    dup_at,
                    Due::Deliver {
                        from,
                        to,
                        bytes: bytes.clone(),
                    },
                );
            } else if let Some(w) = dest {
                self.stage(w, from, to, dup_at, bytes.clone());
            }
        }
        if dest == Some(self.worker) {
            self.queue
                .push(deliver_at, Due::Deliver { from, to, bytes });
        } else if let Some(w) = dest {
            self.stage(w, from, to, deliver_at, bytes);
        } else {
            self.metrics.count("rt.no_link_drop", 1);
        }
    }

    fn set_timer(&mut self, me: ProcessId, delay: Span, tag: u64) -> TimerId {
        // Worker-tagged ids stay unique across the runtime even though
        // each worker mints its own.
        let id = ((self.worker as u64) << 48) | self.next_timer;
        self.next_timer += 1;
        let at = self.clock.now() + delay;
        let generation = self.generations.get(&me.0).copied().unwrap_or(0);
        self.queue.push(
            at,
            Due::Timer {
                to: me,
                id,
                tag,
                generation,
            },
        );
        TimerId::from_raw(id)
    }

    fn cancel_timer(&mut self, _me: ProcessId, timer: TimerId) {
        self.cancelled.insert(timer.raw());
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

struct Worker {
    backend: WorkerBackend,
    actors: HashMap<u32, Box<dyn Process>>,
    rx: Arc<RunQueue<Envelope>>,
    stop: Arc<AtomicBool>,
    /// Precomputed per-worker gauge series names (`rt.wN.*`), so the
    /// publish path never formats strings.
    gauge_mailbox: String,
    gauge_pending: String,
    gauge_busy: String,
}

impl Worker {
    /// Files an incoming envelope: frames into the event queue (they
    /// carry their delivery deadline), control applied immediately.
    fn enqueue(&mut self, env: Envelope) {
        match env {
            Envelope::Frame(f) => self.backend.file(f),
            Envelope::Batch(mut frames) => {
                for f in frames.drain(..) {
                    self.backend.file(f);
                }
                // The sender's container becomes one of ours.
                self.backend.containers.release(frames);
            }
            Envelope::Control(ctl) => self.apply_control(ctl),
            Envelope::Wake => {}
        }
    }

    /// Publishes this worker's telemetry: gauge samples into its own
    /// series, busy/idle counters, and a metrics clone into the shared
    /// slot for [`Runtime::live_metrics`].
    fn publish(&mut self, now: Time, busy_us: &mut u64, idle_us: &mut u64) {
        let pending = self.backend.queue.len() as u64;
        // Exact occupancy from the run queue's own ledger — no racing
        // sender/receiver reconciliation.
        let depth = self.rx.depth();
        {
            let me = &self.backend.shared[self.backend.worker];
            me.pending.store(pending, Ordering::Relaxed);
            me.busy_us.fetch_add(*busy_us, Ordering::Relaxed);
            me.idle_us.fetch_add(*idle_us, Ordering::Relaxed);
        }
        let window = *busy_us + *idle_us;
        let busy_frac = if window == 0 {
            0.0
        } else {
            *busy_us as f64 / window as f64
        };
        self.backend.metrics.count("rt.busy_us", *busy_us);
        self.backend.metrics.count("rt.idle_us", *idle_us);
        *busy_us = 0;
        *idle_us = 0;
        self.backend
            .metrics
            .record(&self.gauge_mailbox, now, depth as f64);
        self.backend
            .metrics
            .record(&self.gauge_pending, now, pending as f64);
        self.backend
            .metrics
            .record(&self.gauge_busy, now, busy_frac);
        *self.backend.shared[self.backend.worker]
            .metrics
            .lock()
            .expect("telemetry slot poisoned") = self.backend.metrics.clone();
    }

    /// Applies a crash or restart to a locally-owned actor. Mirrors the
    /// simulator's semantics: a crash bumps the generation (invalidating
    /// the incarnation's timers) and drops subsequent deliveries; a
    /// restart installs a fresh state machine and runs its `on_start`.
    fn apply_control(&mut self, ctl: CtlMsg) {
        match ctl {
            CtlMsg::Crash(pid) => {
                Context::new(&mut self.backend, ProcessId(pid)).trace(TraceKind::Crash { pid });
                if self.actors.remove(&pid).is_some() {
                    *self.backend.generations.entry(pid).or_insert(0) += 1;
                    self.backend.down.insert(pid);
                    self.backend.metrics.count("rt.crashed", 1);
                }
            }
            CtlMsg::Restart(pid, spawn) => {
                let mut proc = spawn();
                *self.backend.generations.entry(pid).or_insert(0) += 1;
                self.backend.down.remove(&pid);
                self.backend.metrics.count("rt.restarted", 1);
                let mut ctx = Context::new(&mut self.backend, ProcessId(pid));
                ctx.trace(TraceKind::Restart { pid });
                proc.on_start(&mut ctx);
                self.actors.insert(pid, proc);
            }
        }
    }

    /// Runs one due entry: actor work against its state machine, a
    /// forwarding retry inline (runtime work, not actor work).
    fn dispatch(&mut self, entry: Due) {
        match entry {
            Due::Deliver { from, to, bytes } => {
                let Some(proc) = self.actors.get_mut(&to.0) else {
                    if self.backend.down.contains(&to.0) {
                        self.backend.metrics.count("rt.dropped_to_down_process", 1);
                    } else {
                        self.backend.metrics.count("rt.misrouted_drop", 1);
                    }
                    return;
                };
                self.backend.metrics.count("rt.delivered", 1);
                let mut ctx = Context::new(&mut self.backend, to);
                {
                    let (to, from, len) = (to.0, from.0, bytes.len() as u32);
                    ctx.trace(TraceKind::MsgRecv { to, from, len });
                }
                proc.on_message(&mut ctx, from, &bytes);
            }
            Due::Timer {
                to,
                id,
                tag,
                generation,
            } => {
                if self.backend.cancelled.remove(&id) {
                    return;
                }
                if self.backend.generations.get(&to.0).copied().unwrap_or(0) != generation {
                    self.backend.metrics.count("rt.stale_timer_drop", 1);
                    return;
                }
                let Some(proc) = self.actors.get_mut(&to.0) else {
                    return;
                };
                let mut ctx = Context::new(&mut self.backend, to);
                ctx.trace(TraceKind::TimerFire { pid: to.0, tag });
                proc.on_timer(&mut ctx, tag);
            }
            Due::Forward {
                from,
                to,
                deliver_at,
                bytes,
                attempts,
            } => {
                self.backend
                    .retry_forward(from, to, deliver_at, bytes, attempts);
            }
        }
    }

    fn run(mut self) -> (Metrics, Tracer) {
        // Start every local actor before touching the run queue, mirroring
        // the simulator's time-zero Start events.
        let mut pids: Vec<u32> = self.actors.keys().copied().collect();
        pids.sort_unstable();
        for pid in pids {
            let mut proc = self.actors.remove(&pid).expect("actor present");
            let mut ctx = Context::new(&mut self.backend, ProcessId(pid));
            proc.on_start(&mut ctx);
            self.actors.insert(pid, proc);
        }
        self.backend.flush_staged();
        let mut inbox: Vec<Envelope> = Vec::new();
        let mut due: Vec<Due> = Vec::new();
        let mut busy_us = 0u64;
        let mut idle_us = 0u64;
        let mut last_publish = Time(0);
        loop {
            let loop_start = self.backend.clock.now();
            // 1. Drain the run queue (one lock) and file arrivals.
            self.rx.pop_all(&mut inbox);
            for env in inbox.drain(..) {
                self.enqueue(env);
            }
            // 2. Take everything due at this pass's `now`, then 3. run it
            // in (deadline, insertion) order. Entries it creates wait for
            // the next pass.
            let now = self.backend.clock.now();
            while let Some((_, entry)) = self.backend.queue.pop_due(now) {
                due.push(entry);
            }
            for entry in due.drain(..) {
                self.dispatch(entry);
            }
            // 4. Ship staged cross-worker batches: one push + at most one
            // wakeup per destination.
            self.backend.flush_staged();
            let worked_until = self.backend.clock.now();
            busy_us += worked_until.since(loop_start).0;
            if worked_until.since(last_publish).0 >= PUBLISH_INTERVAL.0 {
                self.publish(worked_until, &mut busy_us, &mut idle_us);
                last_publish = worked_until;
            }
            if self.stop.load(Ordering::Acquire) {
                break;
            }
            // 5. Park until exactly the next deadline (or the next
            // publish slot, bounding telemetry staleness), woken early by
            // incoming work. No polling.
            let next_publish = last_publish + PUBLISH_INTERVAL;
            let wake_at = match self.backend.queue.next_due() {
                Some(t) => t.min(next_publish),
                None => next_publish,
            };
            let wait = wake_at.0.saturating_sub(self.backend.clock.now().0);
            let deadline = Instant::now() + Duration::from_micros(wait);
            self.rx.pop_wait(&mut inbox, Some(deadline));
            for env in inbox.drain(..) {
                self.enqueue(env);
            }
            idle_us += self.backend.clock.now().since(worked_until).0;
        }
        self.backend.metrics.count("rt.busy_us", busy_us);
        self.backend.metrics.count("rt.idle_us", idle_us);
        self.backend
            .metrics
            .count("rt.pending_at_exit", self.backend.queue.len() as u64);
        self.backend.metrics.count("rt.worker_clean_exit", 1);
        (self.backend.metrics, self.backend.tracer)
    }
}

/// The finished run: merged metrics and trace, and wall-clock accounting.
#[derive(Debug)]
pub struct RtRun {
    /// Metrics merged across all workers (series re-sorted by time).
    pub metrics: Metrics,
    /// The workers' tracers, merged; its spans are folded into `metrics`.
    pub trace: Tracer,
    /// Wall-clock time from runtime start to the last worker joining.
    pub elapsed: Span,
    /// Worker threads that ran.
    pub threads: usize,
}

/// A running real-clock substrate hosting one deployment's actors.
pub struct Runtime {
    handles: Vec<std::thread::JoinHandle<(Metrics, Tracer)>>,
    queues: Vec<Arc<RunQueue<Envelope>>>,
    stop: Arc<AtomicBool>,
    epoch: Instant,
    threads: usize,
    links: LinkTable,
    assignment: Arc<Vec<usize>>,
    shared: Arc<Vec<WorkerShared>>,
}

impl Runtime {
    /// Spawns workers hosting the fabric's actors. The actors start
    /// running (and their `on_start` timers begin counting) immediately.
    pub fn from_fabric(fabric: Fabric, cfg: RtConfig) -> Runtime {
        Runtime::from_fabric_with(fabric, cfg, RtHooks::default())
    }

    /// Like [`Runtime::from_fabric`], with hosting-layer hooks (message
    /// classification for per-class drop counters).
    pub fn from_fabric_with(fabric: Fabric, cfg: RtConfig, hooks: RtHooks) -> Runtime {
        let n = fabric.actors.len().max(1);
        let threads = cfg.threads.clamp(1, n);
        let assignment: Arc<Vec<usize>> =
            Arc::new((0..fabric.actors.len()).map(|i| i % threads).collect());
        let links: LinkTable = Arc::new(RwLock::new(
            fabric
                .links
                .into_iter()
                .map(|(key, cfg)| (key, RtLink { cfg, up: true }))
                .collect(),
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let epoch = Instant::now();
        let queues: Vec<Arc<RunQueue<Envelope>>> = (0..threads)
            .map(|_| Arc::new(RunQueue::bounded(cfg.mailbox_capacity.max(1))))
            .collect();
        let mut crews: Vec<HashMap<u32, Box<dyn Process>>> =
            (0..threads).map(|_| HashMap::new()).collect();
        for (pid, proc) in fabric.actors.into_iter().enumerate() {
            crews[pid % threads].insert(pid as u32, proc);
        }
        let shared: Arc<Vec<WorkerShared>> =
            Arc::new((0..threads).map(|_| WorkerShared::new()).collect());
        let mut handles = Vec::with_capacity(threads);
        for (w, actors) in crews.into_iter().enumerate() {
            let worker = Worker {
                backend: WorkerBackend {
                    worker: w,
                    clock: Clock::Monotonic { start: epoch },
                    rng: StdRng::seed_from_u64(
                        fabric.seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    ),
                    metrics: Metrics::new(),
                    tracer: fabric.tracer.clone(),
                    queue: EventQueue::new(),
                    cancelled: HashSet::new(),
                    next_timer: 0,
                    links: Arc::clone(&links),
                    generations: HashMap::new(),
                    down: HashSet::new(),
                    assignment: Arc::clone(&assignment),
                    queues: queues.clone(),
                    staged: (0..threads).map(|_| Vec::new()).collect(),
                    staged_order: Vec::new(),
                    containers: Pool::default(),
                    hooks: hooks.clone(),
                    shared: Arc::clone(&shared),
                },
                actors,
                rx: Arc::clone(&queues[w]),
                stop: Arc::clone(&stop),
                gauge_mailbox: format!("rt.w{w}.mailbox_depth"),
                gauge_pending: format!("rt.w{w}.pending"),
                gauge_busy: format!("rt.w{w}.busy_frac"),
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rt-worker-{w}"))
                    .spawn(move || worker.run())
                    .expect("spawn rt worker"),
            );
        }
        Runtime {
            handles,
            queues,
            stop,
            epoch,
            threads,
            links,
            assignment,
            shared,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Merges every worker's last-published metrics clone into one store
    /// (series re-sorted). At most one publish interval (250 ms) stale — the
    /// in-flight view the health monitor snapshots while the run is
    /// still going.
    pub fn live_metrics(&self) -> Metrics {
        let mut merged = Metrics::new();
        for slot in self.shared.iter() {
            merged.merge(&slot.metrics.lock().expect("telemetry slot poisoned"));
        }
        merged.sort_series();
        merged
    }

    /// Aggregated runtime gauges: run-queue depth is exact and current
    /// (each queue's own ledger); event-queue length and busy/idle are as of
    /// each worker's last publish.
    pub fn gauges(&self) -> RtGauges {
        let mut g = RtGauges::default();
        for q in self.queues.iter() {
            g.mailbox_depth += q.depth();
        }
        for slot in self.shared.iter() {
            g.pending += slot.pending.load(Ordering::Relaxed);
            g.busy_us += slot.busy_us.load(Ordering::Relaxed);
            g.idle_us += slot.idle_us.load(Ordering::Relaxed);
        }
        g
    }

    /// Applies one control-plane op now. Actor ops are shipped to the
    /// owning worker's run queue as urgent entries (control traffic must
    /// not be lost, so it bypasses the frame capacity bound); link ops
    /// mutate the shared link table in place, both directions, mirroring
    /// the simulator's `set_link_up`/`set_link_config`.
    fn apply_control(&self, op: ControlOp, metrics: &mut Metrics) {
        match op {
            ControlOp::Crash(pid) => {
                if let Some(&w) = self.assignment.get(pid.0 as usize) {
                    self.queues[w].push_urgent(Envelope::Control(CtlMsg::Crash(pid.0)), 1);
                }
            }
            ControlOp::Restart(pid, spawn) => {
                if let Some(&w) = self.assignment.get(pid.0 as usize) {
                    self.queues[w].push_urgent(Envelope::Control(CtlMsg::Restart(pid.0, spawn)), 1);
                }
            }
            ControlOp::SetLinkUp(a, b, up) => {
                let mut table = self.links.write().expect("link table poisoned");
                for key in [(a.0, b.0), (b.0, a.0)] {
                    if let Some(link) = table.get_mut(&key) {
                        link.up = up;
                    }
                }
            }
            ControlOp::SetLinkConfig(a, b, cfg) => {
                let mut table = self.links.write().expect("link table poisoned");
                for key in [(a.0, b.0), (b.0, a.0)] {
                    if let Some(link) = table.get_mut(&key) {
                        link.cfg = cfg;
                    }
                }
            }
            ControlOp::Count(name, delta) => metrics.count(&name, delta),
        }
    }

    /// Lets the system run for `span` of wall-clock time while executing
    /// a control plan — timestamped [`ControlOp`]s applied at their
    /// offsets from runtime start — and calling `tick` roughly every
    /// 100 ms with the current time and the runtime itself (the hosting
    /// layer's online invariant checks and health snapshots run there,
    /// reading [`Runtime::live_metrics`] / [`Runtime::gauges`]). Then
    /// shuts down as [`Runtime::run_for`] does.
    pub fn run_with(
        self,
        span: Span,
        mut plan: Vec<(Time, ControlOp)>,
        mut tick: impl FnMut(Time, &Runtime),
    ) -> RtRun {
        plan.sort_by_key(|entry| entry.0);
        let mut next = 0;
        let mut ctl_metrics = Metrics::new();
        let step = Duration::from_millis(100);
        loop {
            let now = Time(self.epoch.elapsed().as_micros() as u64);
            while next < plan.len() && plan[next].0 <= now {
                let (_, op) = plan[next].clone();
                self.apply_control(op, &mut ctl_metrics);
                next += 1;
            }
            tick(now, &self);
            if now.0 >= span.0 {
                break;
            }
            // Sleep to the next interesting instant: plan op, deadline,
            // or the 100 ms tick — whichever comes first.
            let mut until = Duration::from_micros(span.0 - now.0).min(step);
            if next < plan.len() {
                let wait = Duration::from_micros(plan[next].0 .0.saturating_sub(now.0));
                until = until.min(wait.max(Duration::from_millis(1)));
            }
            std::thread::sleep(until);
        }
        let mut run = self.shutdown();
        run.metrics.merge(&ctl_metrics);
        run
    }

    /// Lets the system run for `span` of wall-clock time, then shuts it
    /// down: stop flag, wake nudges, join all workers, merge metrics.
    pub fn run_for(self, span: Span) -> RtRun {
        self.run_with(span, Vec::new(), |_, _| {})
    }

    /// Stops and joins all workers, merging their metrics and tracers.
    pub fn shutdown(self) -> RtRun {
        self.stop.store(true, Ordering::Release);
        for q in &self.queues {
            q.push_urgent(Envelope::Wake, 1);
        }
        let mut workers = (self.handles.into_iter()).map(|h| h.join().expect("rt worker panicked"));
        let (mut metrics, mut trace) = workers.next().expect("at least one worker");
        for (worker_metrics, worker_trace) in workers {
            metrics.merge(&worker_metrics);
            trace.merge(worker_trace);
        }
        trace.fold_spans(&mut metrics);
        metrics.sort_series();
        RtRun {
            metrics,
            trace,
            elapsed: Span::micros(self.epoch.elapsed().as_micros() as u64),
            threads: self.threads,
        }
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("threads", &self.threads)
            .field("elapsed", &self.epoch.elapsed())
            .finish()
    }
}
