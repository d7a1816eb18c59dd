//! Builds a complete Spire system inside the simulator: two Spines
//! overlays (internal replica network, external field network), Prime
//! replicas running the SCADA master, RTU proxies + emulated devices at
//! substations, and HMIs — the full architecture of the paper.
//!
//! ```text
//!        internal overlay (per-site daemons, full WAN mesh)
//!   CC1 ══ CC2 ══ DC1 ══ DC2          replicas attach to their site daemon
//!
//!        external overlay
//!   SUB1 ─ CC1/CC2 (dual-homed) ─ DC1/DC2     proxies + HMIs attach here
//! ```

use crate::config::{SiteKind, SpireConfig};
use crate::health::{prometheus_text, HealthConfig, HealthMonitor};
use crate::invariant::InvariantChecker;
use crate::report::Report;
use spire_crypto::keys::Signer;
use spire_crypto::{KeyMaterial, KeyStore, NodeId};
use spire_prime::{
    ByzBehavior, ClientId, ClientRouting, ClientSession, Inspection, PrimeConfig, ProtocolMode,
    Replica, ReplicaId, SpinesNet,
};
use spire_scada::{Hmi, Rtu, RtuProxy, ScadaDirectory, ScadaMaster, WorkloadConfig};
use spire_shard::{ShardMap, XShardLedger};
use spire_sim::{ControlOp, LinkConfig, Metrics, ProcessId, Span, SpawnFn, Time, TraceKind, World};
use spire_spines::{
    DaemonBehavior, DaemonConfig, Dissemination, OverlayAddr, OverlayId, OverlayNetwork,
    SpinesPort, Topology,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// Crypto id bases for the different roles.
pub mod key_base {
    /// Internal overlay daemons.
    pub const INTERNAL_DAEMON: u32 = 0;
    /// External overlay daemons.
    pub const EXTERNAL_DAEMON: u32 = 100;
    /// Prime replicas.
    pub const REPLICA: u32 = 1000;
    /// Prime clients (proxies, HMIs).
    pub const CLIENT: u32 = 2000;
}

const REPLICA_PORT_BASE: u16 = 100;
const PROXY_PORT: u16 = 40;
const HMI_PORT_BASE: u16 = 200;

/// Wide-area latency model (one-way, milliseconds) loosely following the
/// paper's emulated US East Coast deployment.
#[derive(Clone, Copy, Debug)]
pub struct WanModel {
    /// Control center <-> control center.
    pub cc_cc_ms: u64,
    /// Control center <-> data center.
    pub cc_dc_ms: u64,
    /// Data center <-> data center.
    pub dc_dc_ms: u64,
    /// Substation <-> control center.
    pub sub_cc_ms: u64,
}

impl Default for WanModel {
    fn default() -> Self {
        WanModel {
            cc_cc_ms: 4,
            cc_dc_ms: 10,
            dc_dc_ms: 15,
            sub_cc_ms: 3,
        }
    }
}

impl WanModel {
    fn site_latency(&self, a: SiteKind, b: SiteKind) -> u64 {
        match (a, b) {
            (SiteKind::ControlCenter, SiteKind::ControlCenter) => self.cc_cc_ms,
            (SiteKind::DataCenter, SiteKind::DataCenter) => self.dc_dc_ms,
            _ => self.cc_dc_ms,
        }
    }
}

/// Full deployment parameters.
#[derive(Clone, Debug)]
pub struct DeploymentConfig {
    /// Replication and site layout.
    pub spire: SpireConfig,
    /// Workload (RTUs, rates, HMIs).
    pub workload: WorkloadConfig,
    /// WAN latencies.
    pub wan: WanModel,
    /// Prime protocol mode (Prime vs PBFT-like baseline).
    pub mode: ProtocolMode,
    /// Use mock signatures (fast macro-experiments; see `spire-crypto`).
    pub mock_sigs: bool,
    /// Amortize replica vote signatures with Merkle batch signing (one
    /// root signature per flush window instead of one per
    /// PO-Ack/Prepare/Commit/Reply).
    pub batch_signing: bool,
    /// How long a replica may hold queued votes before signing their
    /// Merkle root (longer windows amortize better, at up to this much
    /// extra latency per protocol hop).
    pub batch_interval: Span,
    /// Per-replica Byzantine behaviours (compromises present from start).
    pub byz: BTreeMap<u32, ByzBehavior>,
    /// Substations connect to both control centers (the paper's design).
    /// Disable for the single-homing ablation: a disconnected primary CC
    /// then cuts all field traffic.
    pub dual_homed_substations: bool,
    /// Enable the structured tracing subsystem (flight recorder + causal
    /// spans). Off by default; the tools turn it on with `--trace`.
    pub trace: bool,
    /// Per-link HMAC session authentication between replicas: frames are
    /// sealed with a pairwise key, letting receivers skip the per-hop
    /// signature verification the MAC already covers.
    pub session_macs: bool,
    /// Ordering pipelining: the leader may keep several ordering sequences
    /// in flight (Prime's default proposal window). Off sets the window to
    /// 1, strictly serial ordering, and changes nothing else: eager
    /// pre-prepares, link batching in Prime and hop batching in Spines
    /// stay on.
    pub pipelining: bool,
    /// Modeled per-message CPU time on each replica, in microseconds
    /// (`None` = infinitely fast hosts, the default). Spire's real-world
    /// throughput ceiling is the replicas' signature/ordering work, not
    /// the wire; the shard-scaling experiments set this so one group
    /// saturates at a measurable confirmed rate while the queueing
    /// stays graceful (latency, not loss — see
    /// [`spire_sim::World::set_service_time`]).
    pub replica_service_us: Option<u64>,
    /// Simulation seed.
    pub seed: u64,
}

impl DeploymentConfig {
    /// The paper's standard wide-area configuration: f=1, k=1, 6 replicas
    /// over 2 control centers + 2 data centers.
    pub fn wide_area(seed: u64) -> DeploymentConfig {
        DeploymentConfig {
            spire: SpireConfig::spread(1, 1, 2),
            workload: WorkloadConfig::default(),
            wan: WanModel::default(),
            mode: ProtocolMode::Prime,
            mock_sigs: true,
            batch_signing: true,
            batch_interval: Span::millis(2),
            byz: BTreeMap::new(),
            dual_homed_substations: true,
            trace: false,
            session_macs: true,
            pipelining: true,
            replica_service_us: None,
            seed,
        }
    }

    /// Single-site LAN configuration.
    pub fn lan(seed: u64) -> DeploymentConfig {
        DeploymentConfig {
            spire: SpireConfig::single_site(1, 1),
            ..DeploymentConfig::wide_area(seed)
        }
    }

    /// One-way latency (ms) of the overlay link `a`–`b` on either
    /// overlay: ids below the site count are the site daemons, the rest
    /// are substation hubs.
    fn link_ms(&self, a: OverlayId, b: OverlayId) -> u64 {
        let kind = |id: OverlayId| self.spire.sites.get(id.0 as usize).map(|s| s.kind);
        match (kind(a), kind(b)) {
            (Some(x), Some(y)) => self.wan.site_latency(x, y),
            _ => self.wan.sub_cc_ms,
        }
    }

    /// The underlay link an overlay edge is built with — and the one an
    /// attack window restores when it closes.
    fn link_config(&self, a: OverlayId, b: OverlayId) -> LinkConfig {
        LinkConfig::wan(self.link_ms(a, b))
    }
}

/// Builds the replicated application a group's replicas run. The default
/// is a plain [`ScadaMaster`] over the group's directory; sharded
/// deployments substitute a master carrying cross-shard participant
/// state. Recovery and compromise injection rebuild replicas through the
/// same factory, so the substituted application survives restarts.
pub type AppFactory =
    Arc<dyn Fn(&ScadaDirectory) -> Box<dyn spire_prime::Application> + Send + Sync>;

/// Everything needed to construct a fresh replica process (used by
/// proactive recovery and compromise injection).
pub struct ReplicaBuilder {
    prime: PrimeConfig,
    keystore: Arc<KeyStore>,
    material: KeyMaterial,
    directory: ScadaDirectory,
    inspection: Inspection,
    nets: Vec<SpinesNet>,
    mock_sigs: bool,
    session_macs: bool,
    app_factory: AppFactory,
}

impl ReplicaBuilder {
    /// Builds replica `id` with the given behaviour and recovery flag.
    pub fn build(&self, id: u32, behavior: ByzBehavior, recovering: bool) -> Replica {
        if recovering {
            // A rebuilt process is a new incarnation: view/last-executed
            // legitimately rewind, so monotonicity invariants restart.
            self.inspection.update(id, |rec| {
                rec.incarnation += 1;
                rec.view = 0;
            });
        }
        // `replica_key_base` already carries the group's key offset in a
        // sharded deployment, so recovery rebuilds with the right keys.
        let signer = Signer::new(
            self.material
                .signing_key(NodeId(self.prime.replica_key_base + id)),
            self.mock_sigs,
        );
        let mut replica = Replica::new(
            self.prime.clone(),
            ReplicaId(id),
            behavior,
            Arc::clone(&self.keystore),
            signer,
            Box::new(self.nets[id as usize].clone()),
            (self.app_factory)(&self.directory),
            recovering,
        )
        .with_inspection(self.inspection.clone());
        if self.session_macs {
            // One symmetric key per replica pair, derived from the shared
            // key material exactly as both endpoints will (link_key is
            // order-independent). Recovery rebuilds replicas through this
            // same path, so rejoining replicas keep their link keys.
            let me = NodeId(self.prime.replica_key_base + id);
            let keys = (0..self.prime.n)
                .map(|peer| {
                    self.material
                        .link_key(me, NodeId(self.prime.replica_key_base + peer))
                })
                .collect();
            replica = replica.with_session_keys(keys);
        }
        replica
    }
}

/// Build-time parameters of one replication group inside a (possibly
/// sharded) deployment. [`GroupSpec::single`] reproduces the classic
/// single-group system; the sharded builder creates one spec per group
/// with disjoint key offsets and RTU partitions.
#[derive(Clone)]
pub struct GroupSpec {
    /// Crypto-id offset for every role in this group
    /// (`g * spire_shard::SHARD_KEY_STRIDE`).
    pub key_offset: u32,
    /// Process-name prefix (`""` for the single group, `"s0-"`, ... when
    /// sharded) so pid maps stay readable.
    pub label: String,
    /// Extra metric scope for the group's proxies (e.g. `"shard0"`);
    /// scoped delivery/latency series are emitted alongside the global
    /// `scada.*` ones.
    pub metric_scope: Option<String>,
    /// Global RTU ids this group owns. A proxy's Prime client id is its
    /// global RTU id; its signing key is `key_offset + CLIENT + id`.
    pub rtus: Vec<u32>,
    /// Number of HMIs (client ids `1000..`).
    pub hmis: u32,
    /// Per-replica Byzantine behaviours within this group.
    pub byz: BTreeMap<u32, ByzBehavior>,
    /// Extra `(client id, external-overlay port)` pairs registered at the
    /// group's HMI site — the cross-shard coordinator attaches here.
    pub extra_clients: Vec<(u32, u16)>,
    /// Replicated-application factory (`None` = plain SCADA master).
    pub app_factory: Option<AppFactory>,
}

impl GroupSpec {
    /// The classic single-group layout implied by `cfg`.
    pub fn single(cfg: &DeploymentConfig) -> GroupSpec {
        GroupSpec {
            key_offset: 0,
            label: String::new(),
            metric_scope: None,
            rtus: (0..cfg.workload.rtus).collect(),
            hmis: cfg.workload.hmis,
            byz: cfg.byz.clone(),
            extra_clients: Vec::new(),
            app_factory: None,
        }
    }

    /// Every crypto identity [`build_group`] assigns for this group: the
    /// daemons of both overlays, the replicas, and the Prime clients
    /// (proxies, HMIs, extra clients), each at the group's key offset.
    pub fn identities(&self, cfg: &DeploymentConfig) -> Vec<NodeId> {
        let sites = cfg.spire.sites.len() as u32;
        let hubs = self.rtus.len() as u32;
        let clients = (self.rtus.iter().copied())
            .chain((0..self.hmis).map(|h| 1000 + h))
            .chain(self.extra_clients.iter().map(|(id, _)| *id));
        let ids = (0..sites).map(|d| key_base::INTERNAL_DAEMON + d);
        let ids = ids.chain((0..sites + hubs).map(|d| key_base::EXTERNAL_DAEMON + d));
        let ids = ids.chain((0..cfg.spire.total_replicas()).map(|r| key_base::REPLICA + r));
        let ids = ids.chain(clients.map(|c| key_base::CLIENT + c));
        ids.map(|id| NodeId(self.key_offset + id)).collect()
    }
}

/// Everything [`build_group`] constructed for one group, kept for wiring
/// (coordinator clients), fault injection and safety checking.
pub struct GroupParts {
    /// The group's replica inspection registry.
    pub inspection: Inspection,
    /// Per-replica process ids.
    pub replica_pids: Vec<ProcessId>,
    /// Per-RTU proxy process ids (group-local order of `spec.rtus`).
    pub proxy_pids: Vec<ProcessId>,
    /// Per-RTU device process ids.
    pub device_pids: Vec<ProcessId>,
    /// HMI process ids.
    pub hmi_pids: Vec<ProcessId>,
    /// The group's internal overlay.
    pub internal: OverlayNetwork,
    /// The group's external overlay.
    pub external: OverlayNetwork,
    /// Replica construction context for recovery/compromise injection.
    pub builder: Arc<ReplicaBuilder>,
    /// The group's online safety-invariant checker. Install the periodic
    /// tick with [`Deployment::install_invariant_checker`]; on the rt
    /// substrate it runs from the control thread automatically.
    pub checker: Arc<InvariantChecker>,
    /// Replicas that have been (or are scheduled to be) compromised and
    /// are therefore exempt from safety checks. Shared with the checker.
    pub declared_faulty: Arc<Mutex<BTreeSet<u32>>>,
    /// Site index whose external daemon hosts HMIs and extra clients.
    pub hmi_site: u16,
    /// Overlay addresses of the group's replicas (the same on both
    /// overlays).
    pub replica_addrs: Vec<OverlayAddr>,
    /// External-overlay address of every client id.
    pub client_addrs: BTreeMap<u32, OverlayAddr>,
    /// The group's Prime configuration (key bases already offset).
    pub prime: PrimeConfig,
}

impl GroupParts {
    /// Replica ids that are honest under the built configuration and the
    /// faults scheduled so far (compromised replicas stay excluded even
    /// after a later recovery — their published history is tainted).
    pub fn correct_replicas(&self) -> Vec<u32> {
        let faulty = self.declared_faulty.lock().expect("poisoned");
        (0..self.prime.n).filter(|r| !faulty.contains(r)).collect()
    }
}

/// What a sharded build adds to the groups: the RTU partition, the
/// cross-shard coordinator and the atomicity ledger.
pub struct XShard {
    /// The RTU → shard partition.
    pub map: ShardMap,
    /// The cross-shard coordinator client process.
    pub coordinator_pid: ProcessId,
    /// Online cross-shard atomicity ledger (all commit XOR all abort).
    pub ledger: Arc<XShardLedger>,
}

/// The safety verdict, defined once for both substrates: every group's
/// correct replicas executed prefix-compatible histories, no online
/// checker recorded a violation, and the cross-shard ledger (if any) is
/// clean — including violations not yet drained into a checker.
fn safety_ok(groups: &[GroupParts], xshard: Option<&XShard>) -> bool {
    groups
        .iter()
        .all(|g| g.inspection.check_safety(&g.correct_replicas()).is_ok() && g.checker.ok())
        && xshard.is_none_or(|x| x.ledger.ok())
}

/// A periodic job's schedule: due at `next`, again `every` after each
/// run, for as long as that is not past `until`.
#[derive(Clone, Copy)]
struct Cadence {
    next: Time,
    every: Span,
    until: Time,
}

impl Cadence {
    /// First at `every` — so a zero `every` is due whenever asked.
    fn every(every: Span, until: Time) -> Cadence {
        let next = Time(every.0);
        Cadence { next, every, until }
    }

    fn pending(self) -> Option<Time> {
        (self.next <= self.until).then_some(self.next)
    }

    fn due(self, now: Time) -> bool {
        self.pending().is_some_and(|at| at <= now)
    }

    /// Whether the job is due at `now`; if so it moves on.
    fn fire(&mut self, now: Time) -> bool {
        let due = self.due(now);
        if due {
            self.next = now + self.every;
        }
        due
    }
}

/// The live health monitor as the observer runs it.
struct Health {
    monitor: Arc<Mutex<HealthMonitor>>,
    opts: HealthOptions,
    snapshots: Cadence,
}

/// What watches a run, written once for both substrates: the online
/// invariant pass over every group's checker, the optional
/// [`HealthMonitor`] with its `--watch` line and Prometheus file, and the
/// `invariant.*` / `health.*` series the two produce. The simulator
/// drives [`Observer::tick`] from one self-rescheduling control event
/// ([`arm`]), the real-clock runtime from its control thread
/// ([`RtDeployment::run`]); each moves `produced` into the metric store
/// its substrate keeps — the world's after every tick, the merged worker
/// metrics at shutdown.
#[derive(Default)]
struct Observer {
    /// Every group's checker, in group order.
    checkers: Vec<Arc<InvariantChecker>>,
    /// Announced recovery windows `(replica, start, end)` of group 0: the
    /// pass holds each replica to its catch-up deadline, a monitor started
    /// from here on grades those spans `degraded`.
    windows: Vec<(u32, Time, Time)>,
    /// How to reproduce, appended to every violation line.
    hint: String,
    /// When the invariant pass runs (`None`: not installed).
    checks: Option<Cadence>,
    health: Option<Health>,
    /// What the ticks produced and the substrate's store does not hold yet.
    produced: Metrics,
}

impl Observer {
    fn new(groups: &[GroupParts], hint: String) -> Observer {
        Observer {
            checkers: groups.iter().map(|g| Arc::clone(&g.checker)).collect(),
            hint,
            ..Observer::default()
        }
    }

    /// Starts the health monitor: a snapshot every `opts.config.interval`
    /// of the substrate's clock until `until`.
    fn watch(&mut self, opts: HealthOptions, until: Time) -> Arc<Mutex<HealthMonitor>> {
        let monitor = HealthMonitor::new(opts.config).with_recovery_windows(self.windows.clone());
        let monitor = Arc::new(Mutex::new(monitor));
        self.health = Some(Health {
            monitor: Arc::clone(&monitor),
            snapshots: Cadence::every(opts.config.interval, until),
            opts,
        });
        monitor
    }

    /// The earliest time either job is due.
    fn next_due(&self) -> Option<Time> {
        let snapshots = self.health.as_ref().map(|h| h.snapshots);
        (self.checks.iter().chain(&snapshots))
            .filter_map(|c| c.pending())
            .min()
    }

    /// One tick at substrate time `now`: the invariant pass, then the
    /// health snapshot — verdicts published, the `--watch` line printed,
    /// the Prometheus file rewritten — each if its cadence says so.
    /// `live` is the run's metrics as of `now` (rt, which pays a merge of
    /// every worker's store for them, passes them only when a snapshot is
    /// due); without them the pass goes without the client-side counter.
    /// Returns the fresh violations and one trace `Mark` per alarm fired.
    fn tick(&mut self, now: Time, live: Option<Cow<'_, Metrics>>) -> (usize, Vec<TraceKind>) {
        let mut violations = 0;
        if self.checks.as_mut().is_some_and(|c| c.fire(now)) {
            let accepts = live.as_ref().map(|m| m.counter("scada.conflicting_accept"));
            violations = self.check(now, accepts);
        }
        let Some((health, live)) = self.health.as_mut().zip(live) else {
            return (violations, Vec::new());
        };
        if !health.snapshots.fire(now) {
            return (violations, Vec::new());
        }
        let mut monitor = health.monitor.lock().expect("health monitor poisoned");
        let snapshot = monitor.observe(now, &live);
        HealthMonitor::publish(&snapshot, &mut self.produced);
        if health.opts.watch {
            eprintln!("{}", monitor.watch_line(&snapshot));
        }
        if let Some(path) = &health.opts.prom_path {
            let mut all = live.into_owned();
            all.merge(&self.produced);
            if let Err(e) = write_prometheus(path, &all) {
                eprintln!("prometheus export to {path} failed: {e}");
            }
        }
        let marks = snapshot.alarms.iter().map(|alarm| TraceKind::Mark {
            pid: 0,
            label: alarm.label(),
            value: snapshot.snapshot.seq,
        });
        (violations, marks.collect())
    }

    /// The invariant pass: checks every group at substrate time `now`,
    /// prints each fresh violation, counts the pass and what it found.
    /// `accepts` is the cumulative `scada.conflicting_accept` counter when
    /// the caller can read it; it is deployment-global, so it is
    /// attributed to group 0's checker, once.
    fn check(&mut self, now: Time, accepts: Option<u64>) -> usize {
        let mut total = 0;
        for (g, checker) in self.checkers.iter().enumerate() {
            let mut fresh = checker.check();
            if g == 0 {
                if let Some(accepts) = accepts {
                    fresh += checker.note_conflicting_accepts(accepts);
                }
                fresh += checker.note_recovery_windows(now, &self.windows);
            }
            for v in checker.recent_violations(fresh) {
                eprintln!(
                    "INVARIANT VIOLATION [group {g}] [{}] at {now:?}: {} ({})",
                    v.kind, v.detail, self.hint
                );
            }
            total += fresh;
        }
        self.produced.count("invariant.checks", 1);
        if total > 0 {
            self.produced.count("invariant.violations", total as u64);
        }
        total
    }

    /// Closes a run over its final `run.metrics`: the last Prometheus
    /// rewrite and the monitor as it stands.
    fn outcome(&self, report: Report, run: spire_rt::RtRun) -> RunOutcome {
        let health = self.health.as_ref();
        let exported = match health.and_then(|h| h.opts.prom_path.as_ref()) {
            Some(path) => write_prometheus(path, &run.metrics),
            None => Ok(()),
        };
        let health = health.map(|h| h.monitor.lock().expect("health monitor poisoned").clone());
        RunOutcome {
            report,
            run,
            health,
            exported,
        }
    }
}

fn write_prometheus(path: &str, metrics: &Metrics) -> std::io::Result<()> {
    std::fs::write(path, prometheus_text(metrics))
}

/// Queues the simulator control event for the observer's next due tick.
/// The event ticks the observer over the world's own metrics, moves what
/// it produced into them, and queues its successor. Each `install_*` call
/// queues one; an event that finds another has already run its tick ends
/// there, so one chain goes on, whatever was installed when.
fn arm(w: &mut World, observer: &Arc<Mutex<Observer>>) {
    let Some(at) = observer.lock().expect("observer poisoned").next_due() else {
        return;
    };
    let observer = Arc::clone(observer);
    w.schedule_control(at, move |w| {
        let mut o = observer.lock().expect("observer poisoned");
        if o.next_due().is_none_or(|due| due > w.now()) {
            return;
        }
        let (violations, marks) = o.tick(w.now(), Some(Cow::Borrowed(w.metrics())));
        w.metrics_mut().merge(&std::mem::take(&mut o.produced));
        drop(o);
        if violations > 0 && w.tracer().enabled() {
            eprintln!("--- flight recorder tail ---\n{}", w.tracer().dump_tail(40));
        }
        let now = w.now();
        marks
            .into_iter()
            .for_each(|mark| w.tracer_mut().record(now, mark));
        arm(w, &observer);
    });
}

/// A fully built Spire system: one or more replication groups in one
/// simulation world, plus — when built sharded — the cross-shard
/// coordinator.
pub struct Deployment {
    /// The simulation world (run it, inject into it).
    pub world: World,
    /// The configuration every group was built from. In a sharded build
    /// `workload.rtus` is the whole fleet and `byz` applies to group 0.
    pub cfg: DeploymentConfig,
    /// Per-group build products (overlays, pids, inspection, checker,
    /// replica builder); exactly one for [`Deployment::build`].
    pub groups: Vec<GroupParts>,
    /// Every group's RTU device process ids, concatenated.
    pub device_pids: Vec<ProcessId>,
    /// Every group's HMI process ids, concatenated.
    pub hmi_pids: Vec<ProcessId>,
    /// Present when built by [`Deployment::build_sharded`].
    pub(crate) xshard: Option<XShard>,
    /// Substrate-agnostic mirror of every scheduled fault: each control
    /// action is applied to the sim world *and* recorded here, so
    /// [`Deployment::into_rt`] can replay the identical plan under
    /// wall-clock time.
    control_plan: Vec<(Time, ControlOp)>,
    recovery_counter: u32,
    /// What watches the run; it also keeps the recovery windows the
    /// rolling scheduler announced.
    observer: Arc<Mutex<Observer>>,
}

/// Tuning for the rolling proactive-recovery scheduler
/// ([`Deployment::schedule_rolling_recovery`]).
#[derive(Clone, Copy, Debug)]
pub struct RollingRecoveryConfig {
    /// Gap between consecutive recovery rounds.
    pub period: Span,
    /// Offset between replicas recovered within the same round.
    pub stagger: Span,
    /// Replicas restarted per round; clamped to the layout's `k` (the
    /// number of simultaneously-recovering replicas the quorums absorb).
    pub concurrent: u32,
    /// Announced per-replica window length: the replica must finish
    /// state transfer and re-join within this span of its restart. The
    /// health engine grades it `degraded` (not silent/partitioned)
    /// inside the window; the invariant checker reports
    /// `recovery-stalled` if the flag outlives it.
    pub window: Span,
}

impl Default for RollingRecoveryConfig {
    fn default() -> RollingRecoveryConfig {
        RollingRecoveryConfig {
            period: Span::secs(30),
            stagger: Span::secs(2),
            concurrent: 1,
            window: Span::secs(10),
        }
    }
}

/// Builds one replication group into `world`: its internal/external
/// overlays, Prime replicas, substations (devices + proxies) and HMIs.
/// [`Deployment::build`] calls this once with [`GroupSpec::single`]; the
/// sharded deployment calls it once per group with disjoint key offsets
/// and RTU partitions. Tracing must already be enabled on `world` when
/// `cfg.trace` is set (overlay daemons are marked here).
pub fn build_group(
    world: &mut World,
    cfg: &DeploymentConfig,
    spec: &GroupSpec,
    material: &KeyMaterial,
    keystore: &Arc<KeyStore>,
) -> GroupParts {
    let inspection = Inspection::new();
    let sites = &cfg.spire.sites;
    let n_sites = sites.len() as u16;
    let n_replicas = cfg.spire.total_replicas();
    let n_rtus = spec.rtus.len() as u32;
    let n_hmis = spec.hmis;

    let daemon_cfg = DaemonConfig::default();

    // ---------- internal overlay: one daemon per site, full mesh ----------
    let mut internal_topology = Topology::new();
    for i in 0..n_sites {
        internal_topology.add_node(OverlayId(i));
    }
    for i in 0..n_sites {
        for j in (i + 1)..n_sites {
            let w = cfg.link_ms(OverlayId(i), OverlayId(j)) as u32;
            internal_topology.add_edge(OverlayId(i), OverlayId(j), w.max(1));
        }
    }
    let internal = OverlayNetwork::build_labeled(
        world,
        "internal",
        &internal_topology,
        daemon_cfg,
        material,
        keystore,
        spec.key_offset + key_base::INTERNAL_DAEMON,
        |a, b| cfg.link_config(a, b),
        |_| DaemonBehavior::Honest,
    );

    // ---------- external overlay: site daemons + substation hubs ----------
    // External overlay ids: 0..n_sites mirror the sites, then one hub
    // per RTU substation.
    let mut external_topology = Topology::new();
    for i in 0..n_sites {
        external_topology.add_node(OverlayId(i));
    }
    let cc_indices: Vec<u16> = sites
        .iter()
        .enumerate()
        .filter(|(_, s)| s.kind == SiteKind::ControlCenter)
        .map(|(i, _)| i as u16)
        .collect();
    for i in 0..n_sites {
        for j in (i + 1)..n_sites {
            let w = cfg.link_ms(OverlayId(i), OverlayId(j)) as u32;
            external_topology.add_edge(OverlayId(i), OverlayId(j), w.max(1));
        }
    }
    for r in 0..n_rtus {
        let hub = OverlayId(n_sites + r as u16);
        external_topology.add_node(hub);
        // Substations are dual-homed to (up to) two control centers —
        // the paper's key network-design decision (ablatable).
        let homes = if cfg.dual_homed_substations { 2 } else { 1 };
        for cc in cc_indices.iter().take(homes) {
            let cc = OverlayId(*cc);
            external_topology.add_edge(hub, cc, cfg.link_ms(hub, cc) as u32);
        }
    }
    let external = OverlayNetwork::build_labeled(
        world,
        "external",
        &external_topology,
        daemon_cfg,
        material,
        keystore,
        spec.key_offset + key_base::EXTERNAL_DAEMON,
        |a, b| cfg.link_config(a, b),
        |_| DaemonBehavior::Honest,
    );

    if cfg.trace {
        // Overlay daemons are marked so either substrate can attribute
        // per-hop forwarding latency to the Spines path.
        for pid in internal.daemons.values().chain(external.daemons.values()) {
            world.tracer_mut().mark_overlay(pid.0);
        }
    }

    // ---------- directory & addressing ----------
    let mut directory = ScadaDirectory::default();
    for &r in &spec.rtus {
        directory.rtu_proxy.insert(r, r); // proxy client id = rtu id
    }
    for h in 0..n_hmis {
        directory.hmis.push(1000 + h);
    }
    // A replica attaches to its site's daemon on both overlays under the
    // same overlay address.
    let replica_addrs: Vec<OverlayAddr> = (0..n_replicas)
        .map(|r| OverlayAddr {
            node: OverlayId(cfg.spire.site_of_replica(r) as u16),
            port: REPLICA_PORT_BASE + r as u16,
        })
        .collect();
    let mut client_addrs: BTreeMap<u32, OverlayAddr> = BTreeMap::new();
    for (i, &r) in spec.rtus.iter().enumerate() {
        client_addrs.insert(
            r,
            OverlayAddr {
                node: OverlayId(n_sites + i as u16),
                port: PROXY_PORT,
            },
        );
    }
    // HMIs attach to the second control center's external daemon (the
    // first CC is the canonical DoS target in the attack experiments).
    let hmi_site = *cc_indices.get(1).or_else(|| cc_indices.first()).unwrap();
    for h in 0..n_hmis {
        client_addrs.insert(
            1000 + h,
            OverlayAddr {
                node: OverlayId(hmi_site),
                port: HMI_PORT_BASE + h as u16,
            },
        );
    }
    // Extra clients (the cross-shard coordinator) attach at the HMI
    // site; registered before replica nets are cloned so replies
    // route back to them.
    for &(id, port) in &spec.extra_clients {
        client_addrs.insert(
            id,
            OverlayAddr {
                node: OverlayId(hmi_site),
                port,
            },
        );
    }

    let mut prime = PrimeConfig::new(cfg.spire.f, cfg.spire.k);
    prime.n = n_replicas;
    prime.mode = cfg.mode;
    // SCADA loads are modest; frequent checkpoints keep proactive
    // recovery fast (state transfer instead of long replays).
    prime.checkpoint_interval = 25;
    // SCADA's 100 ms regime warrants fast crash detection.
    prime.progress_timeout = Span::secs(2);
    prime.replica_key_base = spec.key_offset + key_base::REPLICA;
    prime.client_key_base = spec.key_offset + key_base::CLIENT;
    prime.batch_sign = cfg.batch_signing;
    prime.batch_interval = cfg.batch_interval;
    if !cfg.pipelining {
        prime.proposal_window = 1;
    }

    // ---------- replicas ----------
    let nets: Vec<SpinesNet> = (0..n_replicas)
        .map(|r| {
            let site = cfg.spire.site_of_replica(r) as u16;
            SpinesNet {
                internal: SpinesPort::new(
                    internal.daemon_pid(OverlayId(site)),
                    replica_addrs[r as usize],
                ),
                replica_addrs: replica_addrs.clone(),
                external: Some(SpinesPort::new(
                    external.daemon_pid(OverlayId(site)),
                    replica_addrs[r as usize],
                )),
                client_addrs: client_addrs.clone(),
            }
        })
        .collect();
    let app_factory: AppFactory = spec.app_factory.clone().unwrap_or_else(|| {
        Arc::new(|dir: &ScadaDirectory| {
            Box::new(ScadaMaster::new(dir.clone())) as Box<dyn spire_prime::Application>
        })
    });
    let builder = Arc::new(ReplicaBuilder {
        prime: prime.clone(),
        keystore: Arc::clone(keystore),
        material: material.clone(),
        directory: directory.clone(),
        inspection: inspection.clone(),
        nets: nets.clone(),
        mock_sigs: cfg.mock_sigs,
        session_macs: cfg.session_macs,
        app_factory,
    });
    let label = &spec.label;
    let mut replica_pids = Vec::new();
    for r in 0..n_replicas {
        let behavior = spec.byz.get(&r).copied().unwrap_or(ByzBehavior::Honest);
        let replica = builder.build(r, behavior, false);
        let pid = world.add_process(&format!("{label}replica-{r}"), Box::new(replica));
        if let Some(us) = cfg.replica_service_us {
            world.set_service_time(pid, Span::micros(us));
        }
        let site = cfg.spire.site_of_replica(r) as u16;
        internal.wire_client(world, OverlayId(site), pid);
        external.wire_client(world, OverlayId(site), pid);
        replica_pids.push(pid);
    }

    // ---------- substations: devices + proxies ----------
    let mut device_pids = Vec::new();
    let mut proxy_pids = Vec::new();
    for (i, &r) in spec.rtus.iter().enumerate() {
        let hub = OverlayId(n_sites + i as u16);
        // Device and proxy are co-located at the substation.
        let first = world.process_count() as u32;
        let proxy_pid = ProcessId(first + 1);
        let device = Rtu::new(
            r,
            proxy_pid,
            cfg.workload.update_interval,
            cfg.workload.process,
        );
        let device_pid = world.add_process(&format!("{label}rtu-{r}"), Box::new(device));
        let signer = Signer::new(
            material.signing_key(NodeId(prime.client_key_base + r)),
            cfg.mock_sigs,
        );
        let session = ClientSession::new(
            &prime,
            ClientId(r),
            signer,
            ClientRouting::Spines {
                port: SpinesPort::new(external.daemon_pid(hub), client_addrs[&r]),
                addrs: replica_addrs.clone(),
                mode: Dissemination::Flood,
            },
            Arc::clone(keystore),
        );
        let mut proxy = RtuProxy::new(session, r, device_pid);
        if let Some(scope) = &spec.metric_scope {
            proxy = proxy.with_metric_scope(scope);
        }
        let got_proxy = world.add_process(&format!("{label}proxy-{r}"), Box::new(proxy));
        assert_eq!(got_proxy, proxy_pid);
        world.add_link(device_pid, proxy_pid, LinkConfig::local());
        external.wire_client(world, hub, proxy_pid);
        device_pids.push(device_pid);
        proxy_pids.push(proxy_pid);
    }

    // ---------- HMIs ----------
    let mut hmi_pids = Vec::new();
    for h in 0..n_hmis {
        let client = 1000 + h;
        let signer = Signer::new(
            material.signing_key(NodeId(prime.client_key_base + client)),
            cfg.mock_sigs,
        );
        let session = ClientSession::new(
            &prime,
            ClientId(client),
            signer,
            ClientRouting::Spines {
                port: SpinesPort::new(
                    external.daemon_pid(OverlayId(hmi_site)),
                    client_addrs[&client],
                ),
                addrs: replica_addrs.clone(),
                mode: Dissemination::Flood,
            },
            Arc::clone(keystore),
        );
        let hmi = Hmi::new(session, spec.rtus.clone(), cfg.workload.command_interval, 0)
            .with_polling(cfg.workload.poll_interval);
        let pid = world.add_process(&format!("{label}hmi-{h}"), Box::new(hmi));
        external.wire_client(world, OverlayId(hmi_site), pid);
        hmi_pids.push(pid);
    }

    let declared_faulty: Arc<Mutex<BTreeSet<u32>>> = Arc::new(Mutex::new(
        spec.byz
            .iter()
            .filter(|(_, b)| b.is_byzantine())
            .map(|(id, _)| *id)
            .collect(),
    ));
    let checker = Arc::new(InvariantChecker::new(
        inspection.clone(),
        Arc::clone(&declared_faulty),
        n_replicas,
    ));
    GroupParts {
        inspection,
        replica_pids,
        proxy_pids,
        device_pids,
        hmi_pids,
        internal,
        external,
        builder,
        checker,
        declared_faulty,
        hmi_site,
        replica_addrs,
        client_addrs,
        prime,
    }
}

impl Deployment {
    /// Builds the full single-group system.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SpireConfig::validate`] (non
    /// site-tolerant layouts are allowed; they are part of the evaluation).
    pub fn build(cfg: DeploymentConfig) -> Deployment {
        let spec = GroupSpec::single(&cfg);
        let (mut world, material, keystore) =
            Deployment::foundation(&cfg, std::slice::from_ref(&spec));
        let group = build_group(&mut world, &cfg, &spec, &material, &keystore);
        Deployment::assemble(world, cfg, vec![group], None)
    }

    /// The empty world, key material and key store the groups described
    /// by `specs` build into. One key space for the whole deployment,
    /// holding exactly the identities the groups assign (group `g` at
    /// offset `g * SHARD_KEY_STRIDE`), so a certificate from any group
    /// verifies in any other and an unassigned id verifies nowhere.
    pub(crate) fn foundation(
        cfg: &DeploymentConfig,
        specs: &[GroupSpec],
    ) -> (World, KeyMaterial, Arc<KeyStore>) {
        cfg.spire.validate(false).expect("invalid spire config");
        let mut world = World::new(cfg.seed);
        let material = KeyMaterial::new([0x55u8; 32]);
        let ids = specs.iter().flat_map(|spec| spec.identities(cfg));
        let keystore = Arc::new(KeyStore::for_ids(&material, ids));
        if cfg.trace {
            world.tracer_mut().enable(65_536);
        }
        (world, material, keystore)
    }

    /// Wraps built groups (and the cross-shard parts, if any) into the
    /// deployment handle.
    pub(crate) fn assemble(
        world: World,
        cfg: DeploymentConfig,
        groups: Vec<GroupParts>,
        xshard: Option<XShard>,
    ) -> Deployment {
        let hint = format!("reproduce with seed {}", cfg.seed);
        Deployment {
            observer: Arc::new(Mutex::new(Observer::new(&groups, hint))),
            world,
            cfg,
            device_pids: groups
                .iter()
                .flat_map(|g| &g.device_pids)
                .copied()
                .collect(),
            hmi_pids: groups.iter().flat_map(|g| &g.hmi_pids).copied().collect(),
            groups,
            xshard,
            control_plan: Vec::new(),
            recovery_counter: 0,
        }
    }

    /// Runs the simulation for `span`.
    pub fn run_for(&mut self, span: Span) {
        self.world.run_for(span);
    }

    /// Builds the evaluation report from collected metrics (per-shard and
    /// cross-shard sections come from the `shard{g}.*` / `xshard.*`
    /// series a sharded build emits) and the safety verdict — the same
    /// predicate an rt run reports.
    pub fn report(&self) -> Report {
        let safety_ok = safety_ok(&self.groups, self.xshard.as_ref());
        if !safety_ok && self.world.tracer().enabled() {
            eprintln!(
                "safety check FAILED — flight recorder tail:\n{}",
                self.world.tracer().dump_tail(200)
            );
        }
        Report::from_metrics(self.world.metrics(), safety_ok)
    }

    /// Schedules a batch of substrate-agnostic control ops at `at`: they
    /// are applied to the sim world when virtual time reaches `at`, and
    /// recorded in the control plan so an rt-hosted run replays them at
    /// the same wall-clock offset.
    pub fn schedule_ops(&mut self, at: Time, ops: Vec<ControlOp>) {
        self.control_plan
            .extend(ops.iter().map(|op| (at, op.clone())));
        self.world.schedule_control(at, move |w| {
            for op in ops {
                w.apply_control(op);
            }
        });
    }

    /// Schedules a proactive recovery of replica `id` at time `at`: the
    /// replica process is restarted with a clean state machine in
    /// recovering mode (it rejoins via proof-carrying state transfer).
    /// Like every replica-indexed scheduler, `id` addresses group 0 — the
    /// group [`DeploymentConfig::byz`] applies to in a sharded build.
    pub fn schedule_recovery(&mut self, id: u32, at: Time) {
        let builder = Arc::clone(&self.groups[0].builder);
        let pid = self.groups[0].replica_pids[id as usize];
        let spawn: SpawnFn =
            Arc::new(move || Box::new(builder.build(id, ByzBehavior::Honest, true)));
        self.schedule_ops(
            at,
            vec![
                ControlOp::Restart(pid, spawn),
                ControlOp::Count("spire.recoveries_started".into(), 1),
            ],
        );
    }

    /// Schedules a crash of replica `id` at time `at` (process down until
    /// a later recovery restarts it). `id` addresses group 0.
    pub fn schedule_kill(&mut self, id: u32, at: Time) {
        let pid = self.groups[0].replica_pids[id as usize];
        self.schedule_ops(at, vec![ControlOp::Crash(pid)]);
    }

    /// Schedules round-robin proactive recoveries of group 0: one replica
    /// every `period`, starting at `start`, until `horizon`.
    pub fn schedule_proactive_recovery(&mut self, start: Time, period: Span, horizon: Time) {
        self.schedule_rolling_recovery(
            start,
            horizon,
            RollingRecoveryConfig {
                period,
                stagger: Span(0),
                concurrent: 1,
                ..RollingRecoveryConfig::default()
            },
        );
    }

    /// Schedules the rolling proactive-recovery rotation of the paper
    /// (over group 0's replicas): every `rcfg.period` a round restarts
    /// the next `rcfg.concurrent` replicas (round-robin, clamped to the
    /// layout's `k`), each offset by `rcfg.stagger` within the round,
    /// until `horizon`. Every restart
    /// is *announced* as a `(replica, start, start + window)` recovery
    /// window — returned here and remembered by the deployment, so the
    /// health monitor installed later grades those spans `degraded` and
    /// the invariant checker holds the replica to the catch-up deadline.
    /// Like every `schedule_*`, the restarts ride the control plan and
    /// replay identically on the rt substrate.
    pub fn schedule_rolling_recovery(
        &mut self,
        start: Time,
        horizon: Time,
        rcfg: RollingRecoveryConfig,
    ) -> Vec<(u32, Time, Time)> {
        let n = self.cfg.spire.total_replicas();
        let per_round = rcfg.concurrent.clamp(1, self.cfg.spire.k.max(1)).min(n);
        let mut announced = Vec::new();
        let mut round_at = start;
        while round_at <= horizon {
            let mut at = round_at;
            for _ in 0..per_round {
                if at > horizon {
                    break;
                }
                let id = self.recovery_counter % n;
                self.recovery_counter += 1;
                self.schedule_recovery(id, at);
                announced.push((id, at, at + rcfg.window));
                at = at + rcfg.stagger.max(Span(1));
            }
            round_at = round_at + rcfg.period;
        }
        self.observer().windows.extend(announced.iter().copied());
        announced
    }

    fn observer(&self) -> std::sync::MutexGuard<'_, Observer> {
        self.observer.lock().expect("observer poisoned")
    }

    /// Schedules a compromise: at `at`, replica `id` begins misbehaving.
    /// The replica is declared faulty immediately, so safety checks never
    /// hold it to honest-replica invariants. `id` addresses group 0.
    pub fn schedule_compromise(&mut self, id: u32, behavior: ByzBehavior, at: Time) {
        let group = &self.groups[0];
        group.declared_faulty.lock().expect("poisoned").insert(id);
        let builder = Arc::clone(&group.builder);
        let pid = group.replica_pids[id as usize];
        // The attacker takes over the running process; it keeps state via
        // state transfer (recovering) but follows the attacker's logic
        // afterwards.
        let spawn: SpawnFn = Arc::new(move || Box::new(builder.build(id, behavior, true)));
        self.schedule_ops(
            at,
            vec![
                ControlOp::Restart(pid, spawn),
                ControlOp::Count("spire.compromises".into(), 1),
            ],
        );
    }

    /// All inter-site links of a site's daemons (internal and external,
    /// in every group — a site is one physical location), each with the
    /// [`LinkConfig`] it was built with.
    fn site_wan_peers(&self, site: usize) -> Vec<(ProcessId, ProcessId, LinkConfig)> {
        let mut pairs = Vec::new();
        let me = OverlayId(site as u16);
        for group in &self.groups {
            for overlay in [&group.internal, &group.external] {
                for (a, b, _) in overlay.topology.edges() {
                    if a == me || b == me {
                        pairs.push((
                            overlay.daemon_pid(a),
                            overlay.daemon_pid(b),
                            self.cfg.link_config(a, b),
                        ));
                    }
                }
            }
        }
        pairs
    }

    /// Schedules a full disconnection of a site between `from` and `until`
    /// (all WAN links of its internal and external daemons go down).
    pub fn schedule_site_disconnect(&mut self, site: usize, from: Time, until: Time) {
        let pairs = self.site_wan_peers(site);
        let mut down: Vec<ControlOp> = pairs
            .iter()
            .map(|&(a, b, _)| ControlOp::SetLinkUp(a, b, false))
            .collect();
        down.push(ControlOp::Count("spire.site_disconnects".into(), 1));
        self.schedule_ops(from, down);
        let up = pairs
            .iter()
            .map(|&(a, b, _)| ControlOp::SetLinkUp(a, b, true))
            .collect();
        self.schedule_ops(until, up);
    }

    /// Degrades every WAN link of `site` with `attack` between `from` and
    /// `until`, then restores each link to the configuration it was built
    /// with.
    fn schedule_site_link_window(
        &mut self,
        site: usize,
        from: Time,
        until: Time,
        counter: &str,
        attack: impl Fn(LinkConfig) -> LinkConfig,
    ) {
        let pairs = self.site_wan_peers(site);
        let mut ops: Vec<ControlOp> = pairs
            .iter()
            .map(|&(a, b, built)| ControlOp::SetLinkConfig(a, b, attack(built)))
            .collect();
        ops.push(ControlOp::Count(counter.into(), 1));
        self.schedule_ops(from, ops);
        let restore = pairs
            .iter()
            .map(|&(a, b, built)| ControlOp::SetLinkConfig(a, b, built))
            .collect();
        self.schedule_ops(until, restore);
    }

    /// Schedules a DoS attack against a site: its WAN links become lossy
    /// and severely bandwidth-constrained between `from` and `until`.
    pub fn schedule_site_dos(&mut self, site: usize, from: Time, until: Time, loss: f64) {
        let degraded = LinkConfig {
            latency: Span::millis(50),
            jitter: Span::millis(30),
            loss,
            corrupt: 0.0,
            dup: 0.0,
            bandwidth_bps: Some(200_000),
            max_queue: Span::millis(300),
        };
        self.schedule_site_link_window(site, from, until, "spire.dos_attacks", |_| degraded);
    }

    /// Schedules a wire-fault window against a site's WAN links: frames
    /// are bit-flipped with probability `corrupt`, duplicated with
    /// probability `dup`, and reordered by up to `jitter` of extra
    /// per-frame delay between `from` and `until`. Exercises decoder
    /// totality and protocol idempotence without consuming fault budget.
    pub fn schedule_site_wire_faults(
        &mut self,
        site: usize,
        from: Time,
        until: Time,
        corrupt: f64,
        dup: f64,
        jitter: Span,
    ) {
        self.schedule_site_link_window(site, from, until, "spire.wire_fault_windows", |built| {
            built
                .with_corruption(corrupt)
                .with_dup(dup)
                .with_jitter(jitter)
        });
    }

    /// Installs the online invariant checker: every `period` of virtual
    /// time (until `horizon`) it cross-checks, group by group, all correct
    /// replicas' published state — execution-prefix consistency,
    /// at-most-one commit per `(view, seq)`, view monotonicity, checkpoint
    /// agreement, bounded recovery — plus the client-side
    /// conflicting-accept counter and (through group 0's checker) the
    /// cross-shard ledger. Violations are counted under
    /// `invariant.violations` and reported with their group and the
    /// reproducing seed; with tracing enabled the flight-recorder tail is
    /// dumped.
    ///
    /// `period` and `horizon` are the simulator's: they do not cross
    /// [`Deployment::into_rt`] ([`World::into_fabric`] drops every
    /// scheduled control), where the same pass runs on every control tick
    /// whether or not this was called.
    pub fn install_invariant_checker(&mut self, period: Span, horizon: Time) {
        self.observer().checks = Some(Cadence::every(period, horizon));
        arm(&mut self.world, &self.observer);
    }

    /// Installs the live health monitor: every `cfg.interval` of virtual
    /// time (until `horizon`) it snapshots the world's metrics, grades
    /// the SLOs, runs the performance-attack detector, publishes the
    /// `health.*` verdicts back into the metric store, and emits a trace
    /// `Mark` per fired alarm. Returns a handle to the monitor for
    /// post-run inspection (snapshot ring, alarm log, first-fire times).
    pub fn install_health_monitor(
        &mut self,
        cfg: HealthConfig,
        horizon: Time,
    ) -> Arc<Mutex<HealthMonitor>> {
        let opts = HealthOptions {
            config: cfg,
            ..HealthOptions::default()
        };
        self.watch(opts, horizon)
    }

    fn watch(&mut self, opts: HealthOptions, horizon: Time) -> Arc<Mutex<HealthMonitor>> {
        let monitor = self.observer().watch(opts, horizon);
        arm(&mut self.world, &self.observer);
        monitor
    }

    /// Runs the assembled system for `span` on `substrate` and reports:
    /// the one call behind every tool that takes `--substrate`. With
    /// `health`, the monitor snapshots every `config.interval` of that
    /// substrate's clock — virtual on the simulator, wall on rt — printing
    /// the `watch` line and rewriting `prom_path` at each snapshot and once
    /// more over the final metrics. The invariant pass keeps its driver's
    /// cadence: the installed one on the simulator, every control tick on
    /// rt.
    pub fn run(
        mut self,
        substrate: Substrate,
        span: Span,
        health: Option<HealthOptions>,
    ) -> RunOutcome {
        if let Substrate::Rt { threads } = substrate {
            return self.into_rt(threads).run(span, health);
        }
        if let Some(opts) = health {
            self.watch(opts, self.world.now() + span);
        }
        self.run_for(span);
        let report = self.report();
        let run = spire_rt::RtRun {
            metrics: self.world.metrics().clone(),
            trace: std::mem::take(self.world.tracer_mut()),
            elapsed: span,
            threads: 0,
        };
        let observer = self.observer.lock().expect("observer poisoned");
        observer.outcome(report, run)
    }
}

impl std::fmt::Debug for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("groups", &self.groups.len())
            .field("replicas_per_group", &self.cfg.spire.total_replicas())
            .field("rtus", &self.device_pids.len())
            .field("sites", &self.cfg.spire.sites.len())
            .finish()
    }
}

/// Which substrate hosts an assembled deployment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Substrate {
    /// The single-threaded deterministic discrete-event simulator.
    #[default]
    Sim,
    /// The multi-threaded real-clock runtime; `threads == 0` means one
    /// worker per available core.
    Rt {
        /// Worker thread count (0 = auto).
        threads: usize,
    },
}

impl Substrate {
    /// Parses `"sim"`, `"rt"` or `"rt:<threads>"`.
    pub fn parse(s: &str) -> Option<Substrate> {
        match s {
            "sim" => Some(Substrate::Sim),
            "rt" => Some(Substrate::Rt { threads: 0 }),
            other => {
                let threads = other.strip_prefix("rt:")?.parse().ok()?;
                Some(Substrate::Rt { threads })
            }
        }
    }
}

impl std::fmt::Display for Substrate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Substrate::Sim => write!(f, "sim"),
            Substrate::Rt { threads: 0 } => write!(f, "rt"),
            Substrate::Rt { threads } => write!(f, "rt:{threads}"),
        }
    }
}

impl Deployment {
    /// Moves the assembled (not yet run) system onto the real-clock
    /// runtime: the same actors and the same link fault model
    /// ([`LinkConfig::transit`]), hosted on OS threads under wall-clock
    /// time. What crosses: the control plan accumulated by the
    /// `schedule_*` methods, replayed at the same offsets from run start,
    /// so attack scenarios run unchanged on either substrate; the
    /// announced recovery windows; every group's checker (and the ledger
    /// of a sharded build), which tick from the control thread. What does
    /// not: closures given to [`World::schedule_control`], and with them
    /// the cadence of an installed checker or health monitor — on rt the
    /// pass runs every control tick and [`RtDeployment::run`] starts the
    /// monitor.
    pub fn into_rt(self, threads: usize) -> RtDeployment {
        let hint = format!(
            "seed {}; rt runs are not reproducible — replay the seed on the sim substrate",
            self.cfg.seed
        );
        let observer = Observer {
            windows: std::mem::take(&mut self.observer().windows),
            checks: Some(Cadence::every(Span::ZERO, Time(u64::MAX))),
            ..Observer::new(&self.groups, hint)
        };
        let rt_cfg = if threads == 0 {
            spire_rt::RtConfig::default()
        } else {
            spire_rt::RtConfig::with_threads(threads)
        };
        let hooks = spire_rt::RtHooks {
            classify: Arc::new(spire_prime::msg::classify_frame),
        };
        let mut fabric = self.world.into_fabric();
        // rt emulates the WAN's delays and faults, not its capacity: the
        // bandwidth caps cost `rt_paper` 1-3 ms of p50 (EXPERIMENTS.md HOST).
        for (_, link) in &mut fabric.links {
            link.bandwidth_bps = None;
        }
        let runtime = spire_rt::Runtime::from_fabric_with(fabric, rt_cfg, hooks);
        RtDeployment {
            runtime,
            cfg: self.cfg,
            groups: self.groups,
            xshard: self.xshard,
            plan: self.control_plan,
            observer,
        }
    }
}

/// A deployment hosted on the real-clock runtime. The actors are already
/// running; call [`RtDeployment::run_for`] to let them work and collect
/// the report.
pub struct RtDeployment {
    /// The running substrate.
    pub runtime: spire_rt::Runtime,
    /// The configuration the deployment was built from.
    pub cfg: DeploymentConfig,
    /// Per-group build products: the inspection registries and checkers
    /// work across threads (replicas publish under a mutex).
    pub groups: Vec<GroupParts>,
    xshard: Option<XShard>,
    /// The fault plan recorded at schedule time, replayed at wall-clock
    /// offsets from run start.
    plan: Vec<(Time, ControlOp)>,
    /// What watches the run, carrying the announced recovery windows so
    /// the catch-up invariant (and the health monitor) see them under
    /// wall-clock replay too.
    observer: Observer,
}

/// The result of [`Deployment::run`] on either substrate: the standard
/// [`Report`] plus the raw metrics and trace it was built from.
#[derive(Debug)]
pub struct RunOutcome {
    /// The substrate-independent evaluation report.
    pub report: Report,
    /// The run's metrics and trace (merged across workers on rt; the
    /// trace names the processes and is empty unless `cfg.trace`), the
    /// time it covered on its substrate's clock, and the worker threads
    /// that ran it — 0 on the simulator, which has none.
    pub run: spire_rt::RtRun,
    /// The health monitor after the run (None when unmonitored).
    pub health: Option<HealthMonitor>,
    /// How the final Prometheus rewrite went (`Ok` when none was asked
    /// for). A failed periodic rewrite is only reported on stderr.
    pub exported: std::io::Result<()>,
}

/// How a monitored run should surface its live telemetry.
#[derive(Clone, Debug, Default)]
pub struct HealthOptions {
    /// Monitor tuning (interval, thresholds, warmup).
    pub config: HealthConfig,
    /// Print a one-line live status to stderr on every snapshot.
    pub watch: bool,
    /// Rewrite a Prometheus text-exposition snapshot to this path on
    /// every snapshot (and once more at the end with final metrics).
    pub prom_path: Option<String>,
}

impl RtDeployment {
    /// Runs for `span` of wall-clock time — executing the recorded fault
    /// plan at its offsets and ticking the online invariant checkers from
    /// the control thread — then shuts the runtime down and extracts the
    /// report (safety judged by the same predicate as
    /// [`Deployment::report`]).
    pub fn run_for(self, span: Span) -> RunOutcome {
        self.run(span, None)
    }

    /// [`RtDeployment::run_for`], with the live health monitor sampling
    /// [`spire_rt::Runtime::live_metrics`] every `config.interval` of wall
    /// time when `health` is given: the rt half of [`Deployment::run`].
    pub fn run(self, span: Span, health: Option<HealthOptions>) -> RunOutcome {
        let mut observer = self.observer;
        if let Some(opts) = health {
            observer.watch(opts, Time(u64::MAX));
        }
        let mut run = self.runtime.run_with(span, self.plan, |now, rt| {
            let snapshot = observer
                .health
                .as_ref()
                .is_some_and(|h| h.snapshots.due(now));
            let live = snapshot.then(|| {
                // The runtime's own gauges, as `rt.*` series the snapshot,
                // the report and the exporters see.
                let g = rt.gauges();
                let out = &mut observer.produced;
                out.record("rt.mailbox_depth", now, g.mailbox_depth as f64);
                // Entries waiting in the workers' event queues: timers,
                // delayed frames, parked retries.
                out.record("rt.pending", now, g.pending as f64);
                out.record("rt.busy_frac", now, g.busy_frac());
                Cow::Owned(rt.live_metrics())
            });
            observer.tick(now, live);
        });
        // One more pass after shutdown: client-side conflicting accepts
        // live in worker metrics, which merge only now, and decisions
        // recorded after the last control tick drain here.
        let accepts = run.metrics.counter("scada.conflicting_accept");
        observer.check(Time(run.elapsed.0), Some(accepts));
        run.metrics.merge(&observer.produced);
        run.metrics.sort_series();
        let safety_ok = safety_ok(&self.groups, self.xshard.as_ref());
        let report = Report::from_metrics(&run.metrics, safety_ok);
        observer.outcome(report, run)
    }
}

impl std::fmt::Debug for RtDeployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtDeployment")
            .field("runtime", &self.runtime)
            .field("groups", &self.groups.len())
            .field("sites", &self.cfg.spire.sites.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(seed: u64) -> DeploymentConfig {
        let mut cfg = DeploymentConfig::wide_area(seed);
        cfg.workload.rtus = 2;
        cfg
    }

    /// The `SetLinkConfig` the control plan holds for link `a`–`b` at `at`.
    fn planned(d: &Deployment, at: Time, a: ProcessId, b: ProcessId) -> LinkConfig {
        d.control_plan
            .iter()
            .find_map(|(t, op)| match op {
                ControlOp::SetLinkConfig(x, y, link) if *t == at && (*x, *y) == (a, b) => {
                    Some(*link)
                }
                _ => None,
            })
            .expect("link is part of the attack window")
    }

    #[test]
    fn the_key_store_holds_exactly_the_identities_the_deployment_assigns() {
        let cfg = quick_cfg(1);
        let d = Deployment::build(cfg.clone());
        let ReplicaBuilder {
            keystore, material, ..
        } = &*d.groups[0].builder;
        // Four sites: 4 internal daemons, 4 + 2 external (site daemons and
        // substation hubs), 6 replicas, 2 proxies, 1 HMI.
        assert_eq!((cfg.spire.sites.len(), cfg.workload.hmis), (4, 1));
        assert_eq!(keystore.len(), 4 + (4 + 2) + 6 + 2 + 1);
        let signed_by = |node: u32| {
            let sig = material.signing_key(NodeId(node)).sign(b"op");
            keystore.verify(NodeId(node), b"op", &sig)
        };
        assert!(signed_by(key_base::CLIENT + 1) && signed_by(key_base::CLIENT + 1000));
        assert!(signed_by(key_base::EXTERNAL_DAEMON + 5) && signed_by(key_base::REPLICA + 5));
        // The right key for an id nobody was assigned verifies nowhere.
        for stranger in [2, 999, 1001].map(|c| key_base::CLIENT + c) {
            assert!(!signed_by(stranger), "id {stranger}");
        }
        assert!(!signed_by(key_base::REPLICA + 6) && !signed_by(key_base::INTERNAL_DAEMON + 4));
    }

    #[test]
    fn a_sharded_build_provisions_each_groups_offset_range() {
        let mut cfg = crate::sharded::ShardedConfig::wide_area(2, 1);
        cfg.base.workload.rtus = 4;
        let d = Deployment::build_sharded(cfg);
        let keystore = &d.groups[1].builder.keystore;
        assert!(Arc::ptr_eq(keystore, &d.groups[0].builder.keystore));
        // Per group: 4 + (4 + 2) daemons, 6 replicas, 2 proxies, the HMI
        // and the cross-shard coordinator's client identity.
        assert_eq!(keystore.len(), 2 * (4 + 6 + 6 + 2 + 1 + 1));
        for (g, group) in d.groups.iter().enumerate() {
            let offset = g as u32 * spire_shard::SHARD_KEY_STRIDE;
            assert_eq!(group.prime.replica_key_base, offset + key_base::REPLICA);
            let has = |id: u32| keystore.get(NodeId(offset + id)).is_some();
            assert!(has(key_base::REPLICA + 5) && has(key_base::INTERNAL_DAEMON + 3));
            assert!(has(key_base::CLIENT + spire_shard::COORD_CLIENT_ID));
            // Proxies sign under their global RTU id, in their own group's
            // range only.
            let rtus = d.xshard().map.partition(0..4);
            for rtu in 0..4 {
                assert_eq!(
                    has(key_base::CLIENT + rtu),
                    rtus[g].contains(&rtu),
                    "rtu {rtu}"
                );
            }
        }
    }

    #[test]
    fn attack_windows_restore_the_links_they_degraded() {
        let (from, until) = (Time(1_000_000), Time(2_000_000));
        let wan = WanModel::default();
        for dos in [true, false] {
            let mut d = Deployment::build(quick_cfg(1));
            if dos {
                d.schedule_site_dos(0, from, until, 0.3);
            } else {
                d.schedule_site_wire_faults(0, from, until, 0.01, 0.02, Span::millis(7));
            }
            let group = &d.groups[0];
            let internal = |i| group.internal.daemon_pid(OverlayId(i));
            let external = |i| group.external.daemon_pid(OverlayId(i));
            // Sites 0/1 are control centers, 2 a data center; overlay id 4
            // is the first substation hub.
            for (a, b, ms) in [
                (internal(0), internal(1), wan.cc_cc_ms),
                (internal(0), internal(2), wan.cc_dc_ms),
                (external(0), external(4), wan.sub_cc_ms),
            ] {
                let built = LinkConfig::wan(ms);
                assert_eq!(planned(&d, until, a, b), built, "dos={dos}: restore");
                if !dos {
                    let noisy = built
                        .with_corruption(0.01)
                        .with_dup(0.02)
                        .with_jitter(Span::millis(7));
                    assert_eq!(planned(&d, from, a, b), noisy, "window base link");
                }
            }
        }
    }
}
