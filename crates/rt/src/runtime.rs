//! The multi-threaded real-clock hosting substrate.
//!
//! A [`Runtime`] takes the actors and link model of an assembled
//! [`Fabric`] (built exactly as for the simulator) and runs them on OS
//! threads under monotonic wall-clock time. The runtime is event-driven:
//! an actor's work is entries in its worker's queues, not a thread.
//!
//! - **Workers are hosts.** Actors are partitioned round-robin across
//!   workers. Each worker is one [`Host`] — the simulator's actor table,
//!   link model (bandwidth queueing included), timers and dispatch, on a
//!   monotonic clock — plus a [`RunQueue`] for work from other workers.
//!   Each pass pops everything due at the pass's `now` and dispatches it
//!   by deadline, ties in insertion order, as the simulator would; entries
//!   created during a pass wait for the next. Actors start, and restart,
//!   through Start events, and `rt.dispatch_wait_us` records how far past
//!   its deadline each entry ran.
//! - **Frame batching.** Cross-worker sends coalesce: the frames a pass
//!   leaves in its host's outbox travel, per destination worker, as a
//!   single batch envelope — one queue push, at most one wakeup, for the
//!   whole batch. Batch containers are drawn from a per-worker [`Pool`]
//!   and released into the destination's pool, so the steady state
//!   recycles buffers instead of allocating per frame.
//! - **Wakeup discipline.** An idle worker parks on its run queue's
//!   condvar until exactly its event queue's next deadline (or the next
//!   incoming batch, whichever is first); nothing polls. Senders notify
//!   only a parked worker, so steady-state handoff is syscall-free.
//!
//! The control plane runs here too: [`Runtime::run_with`] takes a plan of
//! timestamped [`ControlOp`]s — the same vocabulary `World::apply_control`
//! executes under virtual time — and applies each at its wall-clock
//! offset through the same [`Host::apply_control`]. A crash or restart is
//! shipped to the worker that runs the actor; a link op to every worker,
//! since each keeps its own link table and no lock guards a send.
//!
//! Differences from the simulator, by design:
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
use rand::rngs::StdRng;
use rand::SeedableRng;
use spire_sim::clock::Clock;
use spire_sim::host::{Counters, Event, Frame, Host};
use spire_sim::world::{ControlOp, Fabric, ProcessId};
use spire_sim::{Metrics, Span, Time, Tracer};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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
#[derive(Default)]
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

/// What flows through the cross-worker run queues.
enum Envelope {
    /// A single frame (retries travel alone).
    Frame(Frame),
    /// Frames coalesced for this worker during one sender scheduling
    /// pass: one push, one wakeup, many frames. The container is
    /// released into the receiving worker's pool after draining.
    Batch(Vec<Frame>),
    /// A control-plane action: a crash or restart for an actor this worker
    /// runs, or a link op for the links this worker sends on.
    Control(ControlOp),
    /// Shutdown nudge so parked workers re-check the stop flag.
    Wake,
}

/// How many times a frame that found the destination queue full is
/// re-offered before being dropped, and the initial backoff (doubled per
/// attempt: 1 ms, 2 ms, 4 ms).
const MAX_FORWARD_ATTEMPTS: u32 = 3;
const FORWARD_BACKOFF: Span = Span(1_000);

/// A cross-worker frame that hit a full run queue, parked in the sender's
/// event queue until its next try.
struct Forward {
    frame: Frame,
    attempts: u32,
}

/// rt's counter names.
static RT_COUNTERS: Counters = Counters {
    sent: "rt.sent",
    delivered: "rt.delivered",
    no_link_drop: "rt.no_link_drop",
    link_down_drop: "rt.link_down_drop",
    queue_drop: "rt.queue_drop",
    loss_drop: "rt.loss_drop",
    corrupted: "rt.corrupted",
    dup: "rt.dup",
    dropped_to_down_process: "rt.dropped_to_down_process",
    stale_timer_drop: Some("rt.stale_timer_drop"),
};

/// One worker thread: a [`Host`] on the monotonic clock for the actors it
/// runs, plus its run queue and the staging of frames for other workers.
struct Worker {
    me: usize,
    host: Host<Forward>,
    /// `ProcessId -> worker index` for every actor.
    assignment: Arc<Vec<usize>>,
    /// Every worker's run queue, ours at index `me`.
    queues: Vec<Arc<RunQueue<Envelope>>>,
    /// Outgoing frames staged per destination worker during the current
    /// scheduling pass; flushed as one batch envelope per destination.
    staged: Vec<Vec<Frame>>,
    /// Recycled batch containers (refilled by incoming batches).
    containers: Pool<Frame>,
    hooks: RtHooks,
    /// Telemetry slots for every worker (index = worker id).
    shared: Arc<Vec<WorkerShared>>,
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
            Envelope::Frame(f) => self.host.push(f.deliver_at, f.into()),
            Envelope::Batch(mut frames) => {
                for f in frames.drain(..) {
                    self.host.push(f.deliver_at, f.into());
                }
                // The sender's container becomes one of ours.
                self.containers.release(frames);
            }
            Envelope::Control(op) => {
                match op {
                    ControlOp::Crash(_) => self.host.metrics_mut().count("rt.crashed", 1),
                    ControlOp::Restart(..) => self.host.metrics_mut().count("rt.restarted", 1),
                    _ => {}
                }
                self.host.apply_control(op);
            }
            Envelope::Wake => {}
        }
    }

    /// Moves the frames this pass sent to other workers' actors into the
    /// per-destination staging.
    fn stage_outbox(&mut self) {
        for f in self.host.drain_outbox() {
            let w = self.assignment[f.to.0 as usize];
            if self.staged[w].capacity() == 0 {
                self.staged[w] = self.containers.acquire();
            }
            self.staged[w].push(f);
        }
    }

    /// Ships every staged batch: one queue push (and at most one wakeup)
    /// per destination worker. A batch that does not fit the destination
    /// queue falls back to per-frame bounded retry through our event queue.
    fn flush_staged(&mut self) {
        for w in 0..self.staged.len() {
            if self.staged[w].is_empty() {
                continue;
            }
            let frames = std::mem::take(&mut self.staged[w]);
            let n = frames.len() as u64;
            let metrics = self.host.metrics_mut();
            metrics.count("rt.envelopes", 1);
            if n > 1 {
                metrics.count("rt.coalesced_frames", n - 1);
            }
            match self.queues[w].push_weighted(Envelope::Batch(frames), n) {
                Ok(()) => {}
                Err(Envelope::Batch(mut frames)) => {
                    // Park each frame for retry; the container returns to
                    // our pool.
                    self.host.metrics_mut().count("rt.mailbox_retry", n);
                    let retry_at = self.host.now() + FORWARD_BACKOFF;
                    for frame in frames.drain(..) {
                        let retry = Forward { frame, attempts: 1 };
                        self.host.push(retry_at, Event::Other(retry));
                    }
                    self.containers.release(frames);
                }
                Err(_) => unreachable!("pushed a Batch"),
            }
        }
    }

    /// Retries a parked frame; drops (with per-class accounting) once the
    /// attempt budget is spent.
    fn retry_forward(&mut self, Forward { frame, attempts }: Forward) {
        let w = self.assignment[frame.to.0 as usize];
        match self.queues[w].push(Envelope::Frame(frame)) {
            Ok(()) => {}
            Err(Envelope::Frame(frame)) => {
                let metrics = self.host.metrics_mut();
                if attempts < MAX_FORWARD_ATTEMPTS {
                    metrics.count("rt.mailbox_retry", 1);
                    let backoff = Span::micros(FORWARD_BACKOFF.0 << attempts);
                    let retry_at = self.host.now() + backoff;
                    let attempts = attempts + 1;
                    self.host
                        .push(retry_at, Event::Other(Forward { frame, attempts }));
                } else {
                    metrics.count("rt.mailbox_full_drop", 1);
                    let class = (self.hooks.classify)(&frame.bytes);
                    metrics.count(&format!("rt.drop.{class}"), 1);
                }
            }
            Err(_) => unreachable!("pushed a Frame"),
        }
    }

    /// Publishes this worker's telemetry: gauge samples into its own
    /// series, busy/idle counters, and a metrics clone into the shared
    /// slot for [`Runtime::live_metrics`].
    fn publish(&mut self, now: Time, busy_us: &mut u64, idle_us: &mut u64) {
        let pending = self.host.queued() as u64;
        // Exact occupancy from the run queue's own ledger — no racing
        // sender/receiver reconciliation.
        let depth = self.queues[self.me].depth();
        let me = &self.shared[self.me];
        me.pending.store(pending, Ordering::Relaxed);
        let (busy_us, idle_us) = (std::mem::take(busy_us), std::mem::take(idle_us));
        me.busy_us.fetch_add(busy_us, Ordering::Relaxed);
        me.idle_us.fetch_add(idle_us, Ordering::Relaxed);
        let window = RtGauges {
            busy_us,
            idle_us,
            ..RtGauges::default()
        };
        let metrics = self.host.metrics_mut();
        metrics.count("rt.busy_us", busy_us);
        metrics.count("rt.idle_us", idle_us);
        metrics.record(&self.gauge_mailbox, now, depth as f64);
        metrics.record(&self.gauge_pending, now, pending as f64);
        metrics.record(&self.gauge_busy, now, window.busy_frac());
        *me.metrics.lock().expect("telemetry slot poisoned") = metrics.clone();
    }

    fn run(mut self) -> (Metrics, Tracer) {
        let mut inbox: Vec<Envelope> = Vec::new();
        let mut due = Vec::new();
        let mut busy_us = 0u64;
        let mut idle_us = 0u64;
        let mut last_publish = Time(0);
        loop {
            let loop_start = self.host.now();
            // 1. Drain the run queue (one lock) and file arrivals.
            self.queues[self.me].pop_all(&mut inbox);
            for env in inbox.drain(..) {
                self.enqueue(env);
            }
            // 2. Take everything due at this pass's `now` (the actors'
            // time-zero starts come first), then 3. run it in (deadline,
            // insertion) order, recording how long each entry waited past
            // its deadline. Entries it creates wait for the next pass.
            let now = self.host.now();
            while let Some(entry) = self.host.pop_due(now) {
                due.push(entry);
            }
            for (at, event) in due.drain(..) {
                let wait = self.host.now().since(at).0;
                (self.host.metrics_mut()).observe("rt.dispatch_wait_us", wait);
                if let Some(retry) = self.host.dispatch(event) {
                    self.retry_forward(retry);
                }
            }
            // 4. Ship staged cross-worker batches: one push + at most one
            // wakeup per destination.
            self.stage_outbox();
            self.flush_staged();
            let worked_until = self.host.now();
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
            let wake_at = match self.host.next_due() {
                Some(t) => t.min(next_publish),
                None => next_publish,
            };
            let wait = wake_at.0.saturating_sub(self.host.now().0);
            let deadline = Instant::now() + Duration::from_micros(wait);
            self.queues[self.me].pop_wait(&mut inbox, Some(deadline));
            for env in inbox.drain(..) {
                self.enqueue(env);
            }
            idle_us += self.host.now().since(worked_until).0;
        }
        let pending = self.host.queued() as u64;
        let metrics = self.host.metrics_mut();
        metrics.count("rt.busy_us", busy_us);
        metrics.count("rt.idle_us", idle_us);
        metrics.count("rt.pending_at_exit", pending);
        metrics.count("rt.worker_clean_exit", 1);
        let metrics = std::mem::take(metrics);
        (metrics, std::mem::take(self.host.tracer_mut()))
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
        let stop = Arc::new(AtomicBool::new(false));
        let epoch = Instant::now();
        let queues: Vec<Arc<RunQueue<Envelope>>> = (0..threads)
            .map(|_| Arc::new(RunQueue::bounded(cfg.mailbox_capacity.max(1))))
            .collect();
        // Every worker knows every actor id; each runs its own share and
        // keeps the links those actors send on.
        let mut hosts: Vec<Host<Forward>> = (0..threads)
            .map(|w| {
                let seed = fabric.seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let clock = Clock::Monotonic { start: epoch };
                let rng = StdRng::seed_from_u64(seed);
                Host::new(clock, rng, fabric.tracer.clone(), &RT_COUNTERS)
            })
            .collect();
        for (pid, proc) in fabric.actors.into_iter().enumerate() {
            let mut proc = Some(proc);
            for (w, host) in hosts.iter_mut().enumerate() {
                host.add_actor(proc.take_if(|_| w == assignment[pid]));
            }
        }
        for ((a, b), link) in fabric.links {
            if let Some(&w) = assignment.get(a as usize) {
                hosts[w].add_link_directed(ProcessId(a), ProcessId(b), link);
            }
        }
        let shared: Arc<Vec<WorkerShared>> =
            Arc::new((0..threads).map(|_| WorkerShared::default()).collect());
        let mut handles = Vec::with_capacity(threads);
        for (w, host) in hosts.into_iter().enumerate() {
            let worker = Worker {
                me: w,
                host,
                assignment: Arc::clone(&assignment),
                queues: queues.clone(),
                staged: (0..threads).map(|_| Vec::new()).collect(),
                containers: Pool::default(),
                hooks: hooks.clone(),
                shared: Arc::clone(&shared),
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
            assignment,
            shared,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.queues.len()
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

    /// Applies one control-plane op now. Every op travels as an urgent
    /// run-queue entry (control traffic must not be lost, so it bypasses
    /// the frame capacity bound): a crash or restart to the worker that
    /// runs the actor, a link op to every worker, each of which keeps its
    /// own link table. `Count` lands in the controller's own metrics.
    fn apply_control(&self, op: ControlOp, metrics: &mut Metrics) {
        match op {
            ControlOp::Count(name, delta) => metrics.count(&name, delta),
            ControlOp::Crash(pid) | ControlOp::Restart(pid, _) => {
                if let Some(&w) = self.assignment.get(pid.0 as usize) {
                    self.queues[w].push_urgent(Envelope::Control(op), 1);
                }
            }
            ControlOp::SetLinkUp(..) | ControlOp::SetLinkConfig(..) => {
                for q in &self.queues {
                    q.push_urgent(Envelope::Control(op.clone()), 1);
                }
            }
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
            threads: self.queues.len(),
        }
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("threads", &self.queues.len())
            .field("elapsed", &self.epoch.elapsed())
            .finish()
    }
}
