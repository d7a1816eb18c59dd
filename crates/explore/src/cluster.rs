//! The explorable cluster: a set of [`ModelReplica`]s plus the explicit
//! nondeterminism pool (pending messages, armed timers, virtual clock)
//! that schedules choose from.

use crate::model::{Adversary, MessagePool, Model, Run};
use crate::schedule::Choice;
use bytes::Bytes;
use spire::InvariantChecker;
use spire_crypto::keys::Signer;
use spire_crypto::{KeyMaterial, KeyStore, NodeId};
use spire_prime::replica::{
    TIMER_PING, TIMER_PO_FLUSH, TIMER_PRE_PREPARE, TIMER_PROGRESS, TIMER_RECON, TIMER_SUMMARY,
};
use spire_prime::{
    ByzBehavior, ClientId, ClientOp, DirectNet, Effect, HashChainApp, Input, Inspection,
    ModelReplica, PrimeConfig, PrimeMsg, Replica, ReplicaId,
};
use spire_sim::{Fnv64, ProcessId, Span, Time};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hasher;
use std::sync::{Arc, Mutex};

/// A named behavior assignment over an `n = 3f + 2k + 1` cluster.
///
/// Known names: `honest` (no faults), `equivocating-leader` (replica 0
/// equivocates when leader — the safety attack quorums must contain),
/// `leader-delay` (replica 0 mounts Prime's signature performance attack),
/// `mute-replica` (last replica is crash-like), `po-equivocation`
/// (replica 1 equivocates pre-order contents), `recovering-replica`
/// (the last replica starts mid-state-transfer — requires `k >= 1`; the
/// explorer interleaves its rejoin with ordering and view changes).
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Behavior-assignment name (see type docs).
    pub name: String,
    /// Byzantine budget.
    pub f: u32,
    /// Recovering budget.
    pub k: u32,
    /// Number of distinct pre-signed client ops schedules may inject.
    pub ops: u32,
}

impl Scenario {
    /// Builds a scenario, validating the name.
    pub fn named(name: &str, f: u32, k: u32, ops: u32) -> Result<Scenario, String> {
        match name {
            "recovering-replica" if k == 0 => Err(
                "scenario \"recovering-replica\" needs k >= 1 (the recovering \
                 replica spends the k budget)"
                    .to_string(),
            ),
            "honest"
            | "equivocating-leader"
            | "leader-delay"
            | "mute-replica"
            | "po-equivocation"
            | "recovering-replica" => Ok(Scenario {
                name: name.to_string(),
                f,
                k,
                ops,
            }),
            other => Err(format!("unknown scenario \"{other}\"")),
        }
    }

    /// Cluster size `3f + 2k + 1`.
    pub fn n(&self) -> u32 {
        3 * self.f + 2 * self.k + 1
    }

    /// The behavior replica `i` runs.
    pub fn behavior(&self, i: u32) -> ByzBehavior {
        let n = self.n();
        match self.name.as_str() {
            "equivocating-leader" if i == 0 => ByzBehavior::Equivocate,
            "leader-delay" if i == 0 => ByzBehavior::LeaderDelay(Span::millis(100)),
            "mute-replica" if i == n - 1 => ByzBehavior::Mute,
            "po-equivocation" if i == 1 => ByzBehavior::EquivocatePo,
            _ => ByzBehavior::Honest,
        }
    }

    /// Whether replica `i` starts mid-state-transfer (recovering mode).
    pub fn recovering(&self, i: u32) -> bool {
        self.name == "recovering-replica" && i == self.n() - 1
    }

    /// Indices of replicas whose behavior counts against `f` (exempted
    /// from the invariant checker's correct-replica comparisons).
    pub fn faulty(&self) -> BTreeSet<u32> {
        (0..self.n())
            .filter(|i| self.behavior(*i).is_byzantine())
            .collect()
    }

    /// Which replica receives injected op `op`: round-robin over the
    /// *honest* replicas, so Byzantine originators never gate liveness.
    pub fn op_target(&self, op: u32) -> u32 {
        let honest: Vec<u32> = (0..self.n())
            .filter(|i| !self.behavior(*i).is_byzantine())
            .collect();
        honest[op as usize % honest.len()]
    }
}

/// Per-tag exploration budgets for the exhaustive driver.
///
/// Timer fires blow up the search space without commuting (each advances
/// the clock), so the exhaustive driver bounds how often each tag may fire
/// per replica along one schedule. `max_states` caps total distinct states
/// (the run reports whether the frontier was exhausted or the cap hit).
#[derive(Clone, Debug)]
pub struct Bounds {
    /// Maximum schedule length explored.
    pub max_depth: usize,
    /// Stop after visiting this many distinct states.
    pub max_states: u64,
    /// tag -> how many times each replica may fire it (absent = never).
    pub timer_budget: BTreeMap<u64, u32>,
}

impl Bounds {
    /// Defaults for the tiny n=4 config: enough PO-flush/summary/
    /// pre-prepare rounds to order a few ops, one progress expiry per
    /// replica to reach view changes, no pings.
    pub fn tiny() -> Bounds {
        let mut timer_budget = BTreeMap::new();
        timer_budget.insert(TIMER_PO_FLUSH, 2);
        timer_budget.insert(TIMER_SUMMARY, 2);
        timer_budget.insert(TIMER_PRE_PREPARE, 2);
        timer_budget.insert(TIMER_PROGRESS, 1);
        Bounds {
            max_depth: 14,
            max_states: 250_000,
            timer_budget,
        }
    }

    /// [`Bounds::tiny`] plus the reconciliation tick, which runs the
    /// state-request schedule, so the `recovering-replica` scenario can
    /// drive its rejoin (repeated state requests and chunk re-requests; it
    /// rejoins only on a quorum of replies) inside the explored schedule.
    pub fn recovery() -> Bounds {
        let mut bounds = Bounds::tiny();
        bounds.timer_budget.insert(TIMER_RECON, 3);
        bounds
    }
}

/// Immutable per-run context: config, cached keys, pre-signed ops.
///
/// Key derivation (`KeyStore::for_nodes`) costs tens of milliseconds;
/// exploration replays thousands of clusters, so everything derivable is
/// computed once here and shared by every [`Cluster`] the harness builds.
pub struct Harness {
    /// The scenario every built cluster runs.
    pub scenario: Scenario,
    cfg: PrimeConfig,
    keystore: Arc<KeyStore>,
    signers: Vec<Signer>,
    op_frames: Vec<Bytes>,
}

impl Harness {
    /// Prepares keys and pre-signed op frames for `scenario`. Mock
    /// signatures keep replays cheap; the protocol logic exercised is
    /// identical (see `spire_crypto::mock_sign64`).
    pub fn new(scenario: Scenario) -> Harness {
        let cfg = PrimeConfig::new(scenario.f, scenario.k);
        let material = KeyMaterial::new([7u8; 32]);
        let keystore = Arc::new(KeyStore::for_nodes(&material, cfg.client_key_base + 4));
        let signers: Vec<Signer> = (0..cfg.n)
            .map(|i| Signer::new(material.signing_key(NodeId(cfg.replica_key_base + i)), true))
            .collect();
        let client_signer = Signer::new(material.signing_key(NodeId(cfg.client_key_base)), true);
        let op_frames: Vec<Bytes> = (0..scenario.ops)
            .map(|i| {
                let payload = Bytes::from(format!("op-{i}"));
                let op = ClientOp::signed(ClientId(0), (i + 1) as u64, payload, &client_signer);
                PrimeMsg::Op(op).encode()
            })
            .collect();
        Harness {
            scenario,
            cfg,
            keystore,
            signers,
            op_frames,
        }
    }

    /// The Prime configuration clusters run under.
    pub fn cfg(&self) -> &PrimeConfig {
        &self.cfg
    }
}

impl Model for Harness {
    type Run<'a> = Cluster<'a>;

    const WEIGHTS: &'static [(Adversary, u32)] = &[
        (Adversary::Inject, 10),
        (Adversary::Fifo, 45),
        (Adversary::Reorder, 15),
        (Adversary::FireNext, 12),
        (Adversary::Duplicate, 4),
        (Adversary::Drop, 7),
        (Adversary::Partition, 4),
        (Adversary::Skew, 3),
    ];

    const PROGRESS: &'static str = "max_executed";

    /// A fresh cluster at time zero with every replica started (initial
    /// timers armed).
    fn build(&self) -> Cluster<'_> {
        let n = self.cfg.n;
        let replica_pids: Vec<ProcessId> = (0..n).map(ProcessId).collect();
        let client_pid = ProcessId(n);
        let inspection = Inspection::new();
        let faulty = Arc::new(Mutex::new(self.scenario.faulty()));
        let checker = InvariantChecker::new(inspection.clone(), faulty, n);
        let mut replicas = Vec::with_capacity(n as usize);
        for i in 0..n {
            let mut clients = BTreeMap::new();
            clients.insert(0u32, client_pid);
            let net = DirectNet {
                replicas: replica_pids.clone(),
                clients,
            };
            let replica = Replica::new(
                self.cfg.clone(),
                ReplicaId(i),
                self.scenario.behavior(i),
                Arc::clone(&self.keystore),
                self.signers[i as usize].clone(),
                Box::new(net),
                Box::new(HashChainApp::new()),
                self.scenario.recovering(i),
            )
            .with_inspection(inspection.clone());
            replicas.push(ModelReplica::new(
                replica,
                ProcessId(i),
                0x5eed_0000 + i as u64,
            ));
        }
        let mut cluster = Cluster {
            harness: self,
            now: Time::ZERO,
            replicas,
            pool: MessagePool::default(),
            timers: BTreeMap::new(),
            cancel_index: BTreeMap::new(),
            fired: BTreeMap::new(),
            injected: vec![false; self.scenario.ops as usize],
            replies: 0,
            schedule: Vec::new(),
            checker,
            inspection,
        };
        for i in 0..n {
            cluster.step_replica(i, Input::Start);
        }
        cluster.checker.check();
        cluster
    }
}

/// A running model cluster plus its explicit nondeterminism pool.
pub struct Cluster<'h> {
    harness: &'h Harness,
    /// The virtual clock: max over all timer due-times fired so far.
    pub now: Time,
    replicas: Vec<ModelReplica>,
    pool: MessagePool,
    /// (replica, tag) -> (due time, raw backend timer id).
    timers: BTreeMap<(u32, u64), (Time, u64)>,
    /// (replica, raw id) -> tag, so Effect::CancelTimer can find its timer.
    cancel_index: BTreeMap<(u32, u64), u64>,
    /// (replica, tag) -> times fired, for exhaustive budgets.
    fired: BTreeMap<(u32, u64), u32>,
    injected: Vec<bool>,
    /// Frames addressed to the client process (replies) seen so far.
    pub replies: u64,
    /// The applied schedule, replayable via [`Model::replay`].
    pub schedule: Vec<Choice>,
    /// The safety oracle, ticked after every applied choice.
    pub checker: InvariantChecker,
    /// The shared inspection registry replicas publish into.
    pub inspection: Inspection,
}

impl Cluster<'_> {
    fn n(&self) -> u32 {
        self.harness.cfg.n
    }

    /// Runs one input through replica `i` and absorbs the effects into the
    /// nondeterminism pool.
    fn step_replica(&mut self, i: u32, input: Input) {
        let effects = self.replicas[i as usize].step(self.now, input);
        for effect in effects {
            match effect {
                Effect::Send { to, bytes } => {
                    if to.0 < self.n() {
                        self.pool.enqueue(i, to.0, bytes);
                    } else {
                        self.replies += 1;
                    }
                }
                Effect::SetTimer { delay, tag, id } => {
                    // Re-arming a live (replica, tag) replaces it; the old
                    // raw id becomes stale and must leave the cancel index.
                    if let Some((_, old_raw)) =
                        self.timers.insert((i, tag), (self.now + delay, id.raw()))
                    {
                        self.cancel_index.remove(&(i, old_raw));
                    }
                    self.cancel_index.insert((i, id.raw()), tag);
                }
                Effect::CancelTimer { id } => {
                    if let Some(tag) = self.cancel_index.remove(&(i, id.raw())) {
                        self.timers.remove(&(i, tag));
                    }
                }
            }
        }
    }
}

impl Run for Cluster<'_> {
    fn apply(&mut self, choice: &Choice) -> bool {
        let applied = match choice {
            Choice::Inject { op } => {
                let idx = *op as usize;
                if idx >= self.injected.len() || self.injected[idx] {
                    false
                } else {
                    self.injected[idx] = true;
                    let to = self.harness.scenario.op_target(*op);
                    let from = ProcessId(self.n());
                    let bytes = self.harness.op_frames[idx].clone();
                    self.step_replica(to, Input::Deliver { from, bytes });
                    true
                }
            }
            Choice::Deliver { key } => {
                if let Some(bytes) = self.pool.take(key) {
                    let from = ProcessId(key.from);
                    self.step_replica(key.to, Input::Deliver { from, bytes });
                    true
                } else {
                    false
                }
            }
            Choice::Duplicate { key } => self.pool.duplicate(key),
            Choice::Drop { key } => self.pool.take(key).is_some(),
            Choice::Fire { replica, tag } => {
                if let Some((due, raw)) = self.timers.remove(&(*replica, *tag)) {
                    self.cancel_index.remove(&(*replica, raw));
                    if due > self.now {
                        self.now = due;
                    }
                    *self.fired.entry((*replica, *tag)).or_insert(0) += 1;
                    self.step_replica(*replica, Input::Timer { tag: *tag });
                    true
                } else {
                    false
                }
            }
        };
        if applied {
            self.schedule.push(choice.clone());
            self.checker.check();
        }
        applied
    }

    fn ok(&self) -> bool {
        self.checker.ok()
    }

    fn violation_kinds(&self) -> Vec<String> {
        let mut kinds: Vec<String> = self
            .checker
            .violations()
            .iter()
            .map(|v| v.kind.to_string())
            .collect();
        kinds.sort();
        kinds.dedup();
        kinds
    }

    fn schedule(&self) -> &[Choice] {
        &self.schedule
    }

    fn pool(&self) -> &MessagePool {
        &self.pool
    }

    /// Excludes pings (pure noise for exploration); ordered by due time
    /// then key.
    fn armed_timers(&self) -> Vec<(u32, u64, Time)> {
        let mut timers: Vec<(u32, u64, Time)> = self
            .timers
            .iter()
            .filter(|((_, tag), _)| *tag != TIMER_PING)
            .map(|((replica, tag), (due, _))| (*replica, *tag, *due))
            .collect();
        timers.sort_by_key(|(replica, tag, due)| (*due, *replica, *tag));
        timers
    }

    fn uninjected_ops(&self) -> Vec<u32> {
        self.injected
            .iter()
            .enumerate()
            .filter(|(_, done)| !**done)
            .map(|(op, _)| op as u32)
            .collect()
    }

    /// The executed-op high-water mark over all replicas.
    fn progress(&self) -> u64 {
        self.inspection.max_executed()
    }
}

impl Cluster<'_> {
    /// Every currently-applicable choice under the exhaustive bounds:
    /// uninjected ops, every pending delivery, and every armed timer whose
    /// tag still has budget. (Drops and duplicates are not enumerated —
    /// a message never delivered within the horizon *is* a drop, and
    /// duplication is the randomized driver's job.)
    pub fn enabled_choices(&self, bounds: &Bounds) -> Vec<Choice> {
        let mut out = Vec::new();
        for (op, injected) in self.injected.iter().enumerate() {
            if !injected {
                out.push(Choice::Inject { op: op as u32 });
            }
        }
        for key in self.pool.keys() {
            out.push(Choice::Deliver { key: key.clone() });
        }
        for (replica, tag) in self.timers.keys() {
            let budget = bounds.timer_budget.get(tag).copied().unwrap_or(0);
            let used = self.fired.get(&(*replica, *tag)).copied().unwrap_or(0);
            if used < budget {
                out.push(Choice::Fire {
                    replica: *replica,
                    tag: *tag,
                });
            }
        }
        out
    }

    /// A 64-bit hash of the whole explorable state: the virtual clock,
    /// every replica's protocol-state digest, the pending-message multiset
    /// (content-addressed, so two same-bytes duplicates hash alike), armed
    /// timers with due times, and the injection bitmap. Two schedules
    /// reaching equal hashes are merged by the exhaustive driver.
    pub fn state_hash(&self) -> u64 {
        let mut h = Fnv64::default();
        h.write_u64(self.now.0);
        for replica in &self.replicas {
            h.write_u64(replica.state_digest());
        }
        // Aggregate pending by content triple so duplicate copies form a
        // multiset (delivering either copy is the same transition).
        let mut multiset: BTreeMap<(u32, u32, u64), u64> = BTreeMap::new();
        for key in self.pool.keys() {
            *multiset.entry((key.from, key.to, key.digest)).or_insert(0) += 1;
        }
        h.write_u64(multiset.len() as u64);
        for ((from, to, digest), count) in &multiset {
            h.write_u64(*from as u64);
            h.write_u64(*to as u64);
            h.write_u64(*digest);
            h.write_u64(*count);
        }
        h.write_u64(self.timers.len() as u64);
        for ((replica, tag), (due, _)) in &self.timers {
            h.write_u64(*replica as u64);
            h.write_u64(*tag);
            h.write_u64(due.0);
        }
        for injected in &self.injected {
            h.write_u64(*injected as u64);
        }
        h.finish()
    }

    /// Read access to replica `i`'s model wrapper.
    pub fn replica(&self, i: u32) -> &ModelReplica {
        &self.replicas[i as usize]
    }
}
