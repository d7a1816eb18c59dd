//! Cross-shard 2PC-over-BFT schedule exploration.
//!
//! `spire-shard`'s [`XCoord`] is a pure machine — inputs are reply frames
//! and timer pops, outputs are [`XAction`] values — and [`XParticipant`]
//! is the deterministic kernel a group's replicated application embeds.
//! This module drives one coordinator against model participant groups
//! under explicit adversarial schedules, with the real wire formats in
//! between: prepares travel as signed `PrimeMsg::Op` frames, votes come
//! back as genuinely mock-signed `PrimeMsg::Reply` frames (so the f+1
//! prepare certificate is *actually verified* by participants), and the
//! [`XShardLedger`] checks cross-shard atomicity after every choice.
//!
//! Each model replica stands in for one vote-casting member of a group.
//! Within a group the real system's BFT ordering keeps replicas in
//! lockstep, so within-group divergence here can only arise from the
//! coordinator sending *conflicting decisions* — which is exactly the
//! class of bug the explorer hunts (see the `seeded-xshard-bug` feature
//! of `spire-shard`).
//!
//! [`XHarness`] is the crate's second [`Model`]: the random driver, the
//! ddmin shrinker and replay are the ones the Prime cluster uses, over
//! the same [`Choice`]/[`MsgKey`] schedule grammar and
//! [`Artifact`](crate::Artifact) replay format (scenario names start
//! with `"xshard"`). What is its own is the machine, the oracles and the
//! adversary's weight table.
//!
//! Two oracles judge a run: the ledger's atomicity check, and a premature
//! `Done` — the coordinator finishing a transaction while some
//! participant group has no replica that actually decided it, which is
//! what the `"xshard-early-ack"` scenario's lying replica aims for.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use bytes::Bytes;

use spire_crypto::keys::{KeyMaterial, Signer};
use spire_crypto::{KeyStore, NodeId};
use spire_prime::msg::{decode_enclosed, ClientOp, PrimeMsg};
use spire_prime::{ClientId, ReplicaId};
use spire_shard::msg::{cmd_kind, encode_ack, DECISION_ABORT, DECISION_COMMIT};
use spire_shard::{
    CertVerifier, ShardCmd, ShardMsg, XAction, XCoord, XCoordConfig, XParticipant, XShardLedger,
    COORD_CLIENT_ID, SHARD_KEY_STRIDE,
};
use spire_sim::{Time, WireWriter};

use crate::model::{Adversary, MessagePool, Model, Run};
use crate::schedule::{Choice, MsgKey};

pub use spire_shard::SEEDED_XSHARD_BUG_ACTIVE;

/// Replica key base within a group's key space (mirrors the deployment).
const REPLICA_BASE: u32 = 1000;
/// Client key base within a group's key space (mirrors the deployment).
const CLIENT_BASE: u32 = 2000;

/// A cross-shard exploration scenario: how many groups, how many
/// vote-casting model replicas each, and how many transactions the
/// schedule may inject.
#[derive(Clone, Debug)]
pub struct XScenario {
    /// Scenario name (must start with `"xshard"` for artifact routing).
    pub name: String,
    /// Per-group fault threshold; certificates need `f + 1` votes.
    pub f: u32,
    /// Participant groups.
    pub groups: u32,
    /// Model replicas per group (`2f + 1` vote casters).
    pub reps: u32,
    /// Transactions available to `Inject`.
    pub ops: u32,
}

impl XScenario {
    /// Looks up a named scenario. `"xshard-commit"` is the canonical
    /// two-group commit workload; `"xshard-early-ack"` is the same
    /// workload with a compromised replica in every group (see
    /// [`XScenario::early_acker`]).
    pub fn named(name: &str, ops: u32) -> Result<XScenario, String> {
        match name {
            "xshard-commit" | "xshard-early-ack" => Ok(XScenario {
                name: name.to_string(),
                f: 1,
                groups: 2,
                reps: 3,
                ops: ops.max(1),
            }),
            other => Err(format!(
                "unknown xshard scenario {other:?} (try \"xshard-commit\" or \"xshard-early-ack\")"
            )),
        }
    }

    /// Whether model replica `rep` of a group answers every `XCommit` /
    /// `XAbort` with a signed `Ack` of that decision without executing it:
    /// replica 0 of every group in `"xshard-early-ack"`.
    pub fn early_acker(&self, rep: u32) -> bool {
        self.name == "xshard-early-ack" && rep == 0
    }
}

/// Immutable per-scenario state: keys, signers, and the pre-built
/// transaction set. Clusters borrow it, so episodes are cheap.
pub struct XHarness {
    /// The scenario this harness drives.
    pub scenario: XScenario,
    keystore: Arc<KeyStore>,
    /// Coordinator client signer in each group's key space.
    client_signers: Vec<Signer>,
    /// Reply signer per model replica, indexed `g * reps + r`.
    replica_signers: Vec<Signer>,
    /// Transaction `i` spans every group, toggling breaker `i`.
    txs: Vec<Vec<ShardCmd>>,
}

impl XHarness {
    /// Builds the harness: deterministic key material, one signer per
    /// role, and `ops` cross-shard transactions spanning all groups.
    pub fn new(scenario: XScenario) -> XHarness {
        let material = KeyMaterial::new([0x5A; 32]);
        let keystore = Arc::new(KeyStore::for_nodes(
            &material,
            SHARD_KEY_STRIDE * scenario.groups,
        ));
        let client_signers = (0..scenario.groups)
            .map(|g| {
                let node = NodeId(g * SHARD_KEY_STRIDE + CLIENT_BASE + COORD_CLIENT_ID);
                Signer::new(material.signing_key(node), true)
            })
            .collect();
        let replica_signers = (0..scenario.groups)
            .flat_map(|g| {
                (0..scenario.reps).map(move |r| NodeId(g * SHARD_KEY_STRIDE + REPLICA_BASE + r))
            })
            .map(|node| Signer::new(material.signing_key(node), true))
            .collect();
        let txs = (0..scenario.ops)
            .map(|i| {
                (0..scenario.groups)
                    .map(|g| ShardCmd {
                        shard: g,
                        rtu: i,
                        kind: if i % 2 == 0 {
                            cmd_kind::OPEN_BREAKER
                        } else {
                            cmd_kind::CLOSE_BREAKER
                        },
                        a: 0,
                        b: 0,
                    })
                    .collect()
            })
            .collect();
        XHarness {
            scenario,
            keystore,
            client_signers,
            replica_signers,
            txs,
        }
    }
}

impl Model for XHarness {
    type Run<'a> = XCluster<'a>;

    /// Timers weigh more than in the Prime table (and there is no
    /// partition burst): coordinator retries, and the decision deadlines
    /// they carry, are where 2PC bugs live.
    const WEIGHTS: &'static [(Adversary, u32)] = &[
        (Adversary::Inject, 10),
        (Adversary::Fifo, 40),
        (Adversary::Reorder, 15),
        (Adversary::FireNext, 17),
        (Adversary::Duplicate, 4),
        (Adversary::Drop, 10),
        (Adversary::Skew, 4),
    ];

    const PROGRESS: &'static str = "completed_txs";

    fn build(&self) -> XCluster<'_> {
        let scenario = &self.scenario;
        XCluster {
            harness: self,
            coord: XCoord::new(XCoordConfig {
                groups: scenario.groups,
                f: scenario.f,
            }),
            parts: (0..scenario.groups)
                .flat_map(|g| (0..scenario.reps).map(move |_| XParticipant::new(g)))
                .collect(),
            verifier: CertVerifier {
                keystore: self.keystore.clone(),
                stride: SHARD_KEY_STRIDE,
                replica_base: REPLICA_BASE,
                n: scenario.reps,
                client: ClientId(COORD_CLIENT_ID),
                f: scenario.f,
                mock: true,
            },
            ledger: XShardLedger::new(),
            pool: MessagePool::default(),
            timers: BTreeMap::new(),
            now: Time::ZERO,
            injected: BTreeSet::new(),
            decided: BTreeSet::new(),
            completed: Vec::new(),
            violations: Vec::new(),
            schedule: Vec::new(),
        }
    }
}

/// One explorable cross-shard system state: the coordinator machine, the
/// model participants, the message pool, and the atomicity ledger.
pub struct XCluster<'a> {
    harness: &'a XHarness,
    coord: XCoord,
    /// Participant kernels indexed by process id `g * reps + r`.
    parts: Vec<XParticipant>,
    verifier: CertVerifier,
    /// The online atomicity oracle.
    pub ledger: XShardLedger,
    pool: MessagePool,
    /// Armed coordinator retry timers: xid -> due time.
    timers: BTreeMap<u64, Time>,
    now: Time,
    injected: BTreeSet<u32>,
    /// `(xid, group)` for every group where a replica executed a decision.
    decided: BTreeSet<(u64, u32)>,
    /// Finished transactions as `(xid, committed)`.
    pub completed: Vec<(u64, bool)>,
    /// Drained ledger violation texts, in discovery order.
    pub violations: Vec<String>,
    /// The applied (effective) schedule so far.
    pub schedule: Vec<Choice>,
}

impl XCluster<'_> {
    /// Process id of the coordinator (participants are `0..groups*reps`).
    pub fn coord_pid(&self) -> u32 {
        self.harness.scenario.groups * self.harness.scenario.reps
    }

    fn inject(&mut self, op: u32) -> bool {
        if op >= self.harness.scenario.ops || !self.injected.insert(op) {
            return false;
        }
        let cmds = self.harness.txs[op as usize].clone();
        let (_, actions) = self.coord.begin(cmds, false, self.now);
        self.handle(actions);
        true
    }

    fn deliver(&mut self, key: &MsgKey) -> bool {
        let Some(bytes) = self.pool.take(key) else {
            return false;
        };
        if key.to == self.coord_pid() {
            // A reply frame travelling replica -> coordinator.
            let Ok(PrimeMsg::Reply {
                replica,
                client,
                cseq,
                result,
                ..
            }) = decode_enclosed(&bytes)
            else {
                return true;
            };
            if client != ClientId(COORD_CLIENT_ID) {
                return true;
            }
            let group = key.from / self.harness.scenario.reps;
            let actions = self.coord.on_reply(group, replica.0, cseq, &result, &bytes);
            self.handle(actions);
        } else {
            // A signed client op travelling coordinator -> replica.
            let Ok(PrimeMsg::Op(op)) = decode_enclosed(&bytes) else {
                return true;
            };
            let Ok(msg) = ShardMsg::decode(&op.payload) else {
                return true;
            };
            let pid = key.to as usize;
            let group = key.to / self.harness.scenario.reps;
            let rep = key.to % self.harness.scenario.reps;
            let early_ack = match &msg {
                ShardMsg::XCommit { xid, .. } => Some(encode_ack(*xid, DECISION_COMMIT)),
                ShardMsg::XAbort { xid, .. } => Some(encode_ack(*xid, DECISION_ABORT)),
                ShardMsg::XPrepare { .. } => None,
            }
            .filter(|_| self.harness.scenario.early_acker(rep));
            let result = match early_ack {
                Some(ack) => ack,
                None => {
                    let outcome = self.parts[pid].execute(&msg, &self.verifier);
                    if let Some(d) = outcome.decision {
                        self.ledger
                            .record(d.xid, group, d.shards.len() as u32, d.decision);
                        self.decided.insert((d.xid, group));
                    }
                    outcome.reply
                }
            };
            // Vote back with a genuinely signed reply frame: the
            // coordinator keeps the raw bytes, and participants verify
            // the resulting certificate against the key store.
            let mut reply = PrimeMsg::Reply {
                replica: ReplicaId(rep),
                client: op.client,
                cseq: op.cseq,
                result: Bytes::from(result),
                sig: [0; 64],
            };
            let mut scratch = WireWriter::new();
            reply.sign_with(&self.harness.replica_signers[pid], &mut scratch);
            self.pool.enqueue(key.to, self.coord_pid(), reply.encode());
        }
        true
    }

    fn fire(&mut self, replica: u32, tag: u64) -> bool {
        if replica != self.coord_pid() {
            return false;
        }
        let Some(due) = self.timers.remove(&tag) else {
            return false;
        };
        if due > self.now {
            self.now = due;
        }
        let actions = self.coord.on_timer(tag);
        self.handle(actions);
        true
    }

    fn handle(&mut self, actions: Vec<XAction>) {
        for action in actions {
            match action {
                XAction::Send {
                    group,
                    cseq,
                    payload,
                } => {
                    let op = ClientOp::signed(
                        ClientId(COORD_CLIENT_ID),
                        cseq,
                        payload,
                        &self.harness.client_signers[group as usize],
                    );
                    let frame = PrimeMsg::Op(op).encode();
                    let coord = self.coord_pid();
                    for rep in 0..self.harness.scenario.reps {
                        let to = group * self.harness.scenario.reps + rep;
                        self.pool.enqueue(coord, to, frame.clone());
                    }
                }
                XAction::SetTimer { xid, delay } => {
                    self.timers.insert(xid, self.now + delay);
                }
                XAction::Done { xid, committed, .. } => {
                    self.timers.remove(&xid);
                    self.completed.push((xid, committed));
                    // Every transaction spans every group.
                    let groups = self.harness.scenario.groups;
                    if let Some(g) = (0..groups).find(|g| !self.decided.contains(&(xid, *g))) {
                        self.violations.push(format!(
                            "xshard: tx {xid} done while group {g} has no replica decided (premature done)"
                        ));
                    }
                }
            }
        }
    }
}

impl Run for XCluster<'_> {
    fn apply(&mut self, choice: &Choice) -> bool {
        let applied = match choice {
            Choice::Inject { op } => self.inject(*op),
            Choice::Deliver { key } => self.deliver(key),
            Choice::Duplicate { key } => self.pool.duplicate(key),
            Choice::Drop { key } => self.pool.take(key).is_some(),
            Choice::Fire { replica, tag } => self.fire(*replica, *tag),
        };
        if applied {
            self.schedule.push(choice.clone());
            self.violations.extend(self.ledger.drain_violations());
        }
        applied
    }

    /// True while both oracles hold (ledger violations are drained into
    /// `violations` after every applied choice).
    fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    fn violation_kinds(&self) -> Vec<String> {
        let mut kinds: Vec<String> = Vec::new();
        for text in &self.violations {
            let kind = if text.contains("replica divergence") {
                "xshard-divergence"
            } else if text.contains("premature done") {
                "xshard-premature-done"
            } else {
                "xshard-atomicity"
            };
            if !kinds.iter().any(|k| k == kind) {
                kinds.push(kind.to_string());
            }
        }
        kinds
    }

    fn schedule(&self) -> &[Choice] {
        &self.schedule
    }

    fn pool(&self) -> &MessagePool {
        &self.pool
    }

    /// Only the coordinator owns timers (tag = xid).
    fn armed_timers(&self) -> Vec<(u32, u64, Time)> {
        let coord = self.coord_pid();
        let mut timers: Vec<(u32, u64, Time)> = self
            .timers
            .iter()
            .map(|(&xid, &due)| (coord, xid, due))
            .collect();
        timers.sort_by_key(|&(_, _, due)| due);
        timers
    }

    /// Transaction indices not yet injected.
    fn uninjected_ops(&self) -> Vec<u32> {
        (0..self.harness.scenario.ops)
            .filter(|op| !self.injected.contains(op))
            .collect()
    }

    /// Finished transactions.
    fn progress(&self) -> u64 {
        self.completed.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness(ops: u32) -> XHarness {
        XHarness::new(XScenario::named("xshard-commit", ops).unwrap())
    }

    /// FIFO-drive everything to completion: inject, then deliver oldest /
    /// fire earliest until quiescent.
    fn drain(cluster: &mut XCluster<'_>, max_steps: usize) {
        for op in cluster.uninjected_ops() {
            cluster.apply(&Choice::Inject { op });
        }
        for _ in 0..max_steps {
            if let Some(key) = cluster.oldest_pending() {
                cluster.apply(&Choice::Deliver { key });
            } else if cluster.completed.len() < cluster.harness.scenario.ops as usize {
                let Some(&(replica, tag, _)) = cluster.armed_timers().first() else {
                    break;
                };
                cluster.apply(&Choice::Fire { replica, tag });
            } else {
                break;
            }
        }
    }

    #[test]
    fn fifo_delivery_commits_atomically() {
        let h = harness(2);
        let mut cluster = h.build();
        drain(&mut cluster, 10_000);
        assert_eq!(cluster.completed.len(), 2, "both transactions finish");
        assert!(cluster.completed.iter().all(|&(_, committed)| committed));
        assert!(cluster.ok());
        let counts = cluster.ledger.counts();
        assert_eq!(counts.committed, 2);
        assert_eq!(counts.violations, 0);
    }

    #[test]
    fn dropping_every_prepare_aborts_cleanly() {
        let h = harness(1);
        let mut cluster = h.build();
        cluster.apply(&Choice::Inject { op: 0 });
        // Starve the prepare phase: drop everything, fire every retry.
        for _ in 0..40 {
            for key in cluster.pending_keys() {
                cluster.apply(&Choice::Drop { key });
            }
            let Some(&(replica, tag, _)) = cluster.armed_timers().first() else {
                break;
            };
            cluster.apply(&Choice::Fire { replica, tag });
        }
        // Let the aborts through.
        drain(&mut cluster, 1_000);
        assert!(cluster.ok(), "starved prepare must abort atomically");
        assert_eq!(cluster.completed, vec![(1, false)]);
    }
}
