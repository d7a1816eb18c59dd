//! The cross-shard coordinator: a pure 2PC-over-BFT state machine
//! ([`XCoord`]) plus the substrate process ([`CoordinatorProcess`]) that
//! drives it over Spines overlays as a Prime client of every group.
//!
//! The machine is pure — inputs are replies and timer pops, outputs are
//! [`XAction`] values — so the explore harness can drive it directly
//! under adversarial schedules while both substrates share the exact
//! protocol logic.

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use spire_crypto::keys::Signer;
use spire_prime::client::{op_frame, Vote, VoteKind};
use spire_prime::{ClientId, ClientRouting, ReplicaKeys, ReplyCert};
use spire_sim::{Context, Process, ProcessId, Span, Time};

use crate::map::ShardMap;
use crate::msg::{parse_reply, ShardCmd, ShardMsg, XReply, DECISION_ABORT, DECISION_COMMIT};
use crate::router;

/// Tuning for the coordinator machine.
#[derive(Clone, Copy, Debug)]
pub struct XCoordConfig {
    /// Number of groups.
    pub groups: u32,
    /// Per-group fault threshold (votes need `f + 1`).
    pub f: u32,
    /// Retry timer for an unanswered prepare.
    pub prepare_timeout: Span,
    /// Retry timer for unacked commit/abort decisions.
    pub decision_timeout: Span,
    /// Prepare retries before giving up and aborting. Decisions are
    /// never abandoned (blocking 2PC).
    pub prepare_attempts: u32,
}

impl Default for XCoordConfig {
    fn default() -> XCoordConfig {
        XCoordConfig {
            groups: 1,
            f: 1,
            prepare_timeout: Span::millis(400),
            decision_timeout: Span::millis(400),
            prepare_attempts: 5,
        }
    }
}

/// Phases of one transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Preparing,
    Committing,
    Aborting,
}

#[derive(Debug)]
struct Tx {
    cmds: Vec<ShardCmd>,
    shards: Vec<u32>,
    coord: u32,
    ts_us: u64,
    poison: bool,
    phase: Phase,
    /// Prepare votes from coordinator-group replicas: replica id →
    /// (result payload, raw frame for the certificate).
    votes: BTreeMap<u32, (Vec<u8>, Bytes)>,
    rejects: BTreeSet<u32>,
    cert: Option<ReplyCert>,
    /// Groups that acked the current decision.
    acked: BTreeSet<u32>,
    attempts: u32,
}

/// An output of the pure machine, interpreted by the hosting process.
#[derive(Clone, Debug, PartialEq)]
pub enum XAction {
    /// Submit `payload` as a fresh signed client op (`cseq`) to every
    /// replica of `group`.
    Send {
        /// Target group.
        group: u32,
        /// Client sequence number to sign the op with (fresh per retry —
        /// replicas deduplicate cseqs and will not re-reply).
        cseq: u64,
        /// Cross-shard operation payload.
        payload: Bytes,
    },
    /// (Re)arm the retry timer for `xid`.
    SetTimer {
        /// Transaction id.
        xid: u64,
        /// Delay from now.
        delay: Span,
    },
    /// The transaction completed: every participant acked the decision.
    Done {
        /// Transaction id.
        xid: u64,
        /// True for commit, false for abort.
        committed: bool,
        /// Prepare retransmissions it took (telemetry).
        retries: u32,
    },
}

/// Pure 2PC-over-BFT coordinator state machine.
#[derive(Debug)]
pub struct XCoord {
    cfg: XCoordConfig,
    next_cseq: Vec<u64>,
    /// (group, cseq) → xid, for routing replies across retries.
    pending: BTreeMap<(u32, u64), u64>,
    txs: BTreeMap<u64, Tx>,
    next_xid: u64,
}

impl XCoord {
    /// A fresh machine.
    pub fn new(cfg: XCoordConfig) -> XCoord {
        XCoord {
            next_cseq: vec![0; cfg.groups as usize],
            cfg,
            pending: BTreeMap::new(),
            txs: BTreeMap::new(),
            next_xid: 1,
        }
    }

    /// Number of transactions still in flight.
    pub fn in_flight(&self) -> usize {
        self.txs.len()
    }

    fn fresh_cseq(&mut self, group: u32, xid: u64) -> u64 {
        self.next_cseq[group as usize] += 1;
        let cseq = self.next_cseq[group as usize];
        self.pending.insert((group, cseq), xid);
        cseq
    }

    fn send_prepare(&mut self, xid: u64, out: &mut Vec<XAction>) {
        let (coord, payload) = {
            let tx = &self.txs[&xid];
            (
                tx.coord,
                ShardMsg::XPrepare {
                    xid,
                    coord_shard: tx.coord,
                    ts_us: tx.ts_us,
                    shards: tx.shards.clone(),
                    cmds: tx.cmds.clone(),
                    poison: tx.poison,
                }
                .encode(),
            )
        };
        let cseq = self.fresh_cseq(coord, xid);
        out.push(XAction::Send {
            group: coord,
            cseq,
            payload,
        });
        out.push(XAction::SetTimer {
            xid,
            delay: self.cfg.prepare_timeout,
        });
    }

    /// Sends the current decision to every participant group that has
    /// not acked it yet.
    fn send_decision(&mut self, xid: u64, out: &mut Vec<XAction>) {
        let (targets, payload): (Vec<u32>, Bytes) = {
            let tx = &self.txs[&xid];
            let targets = tx
                .shards
                .iter()
                .copied()
                .filter(|g| !tx.acked.contains(g))
                .collect();
            let payload = match tx.phase {
                Phase::Committing => ShardMsg::XCommit {
                    xid,
                    coord_shard: tx.coord,
                    ts_us: tx.ts_us,
                    shards: tx.shards.clone(),
                    cmds: tx.cmds.clone(),
                    cert: tx.cert.clone().expect("committing without certificate"),
                }
                .encode(),
                Phase::Aborting => ShardMsg::XAbort {
                    xid,
                    coord_shard: tx.coord,
                    shards: tx.shards.clone(),
                }
                .encode(),
                Phase::Preparing => unreachable!("decision before prepare resolved"),
            };
            (targets, payload)
        };
        for group in targets {
            let cseq = self.fresh_cseq(group, xid);
            out.push(XAction::Send {
                group,
                cseq,
                payload: payload.clone(),
            });
        }
        out.push(XAction::SetTimer {
            xid,
            delay: self.cfg.decision_timeout,
        });
    }

    /// Starts a transaction over `cmds`. Returns the xid and the actions
    /// to perform.
    pub fn begin(&mut self, cmds: Vec<ShardCmd>, poison: bool, now: Time) -> (u64, Vec<XAction>) {
        let shards = router::participants(&cmds);
        let coord = router::coordinator_shard(&shards);
        let xid = self.next_xid;
        self.next_xid += 1;
        self.txs.insert(
            xid,
            Tx {
                cmds,
                shards,
                coord,
                ts_us: now.0,
                poison,
                phase: Phase::Preparing,
                votes: BTreeMap::new(),
                rejects: BTreeSet::new(),
                cert: None,
                acked: BTreeSet::new(),
                attempts: 0,
            },
        );
        let mut out = Vec::new();
        self.send_prepare(xid, &mut out);
        (xid, out)
    }

    /// Feeds one reply frame from `replica` of `group`. `raw` is the
    /// frame exactly as read off the wire (kept for certificates).
    pub fn on_reply(
        &mut self,
        group: u32,
        replica: u32,
        cseq: u64,
        result: &[u8],
        raw: &Bytes,
    ) -> Vec<XAction> {
        enum Next {
            Nothing,
            Decide,
            Done { committed: bool, retries: u32 },
        }
        let Some(&xid) = self.pending.get(&(group, cseq)) else {
            return Vec::new();
        };
        let f = self.cfg.f as usize;
        let next = {
            let Some(tx) = self.txs.get_mut(&xid) else {
                return Vec::new();
            };
            match (parse_reply(result), tx.phase) {
                (Some(XReply::Prepared { xid: rx, .. }), Phase::Preparing)
                    if rx == xid && group == tx.coord =>
                {
                    tx.votes.insert(replica, (result.to_vec(), raw.clone()));
                    // Certificate: f+1 distinct replicas voting the SAME
                    // payload (honest replicas are deterministic, so the
                    // digest they vote is identical).
                    let mut tally: BTreeMap<&[u8], Vec<u32>> = BTreeMap::new();
                    for (rep, (res, _)) in &tx.votes {
                        tally.entry(res.as_slice()).or_default().push(*rep);
                    }
                    match tally.into_iter().find(|(_, reps)| reps.len() > f) {
                        Some((res, reps)) => {
                            let frames = reps
                                .iter()
                                .map(|rep| tx.votes[rep].1.clone())
                                .collect::<Vec<_>>();
                            tx.cert = Some(ReplyCert {
                                result: Bytes::copy_from_slice(res),
                                frames,
                            });
                            tx.phase = Phase::Committing;
                            tx.acked.clear();
                            Next::Decide
                        }
                        None => Next::Nothing,
                    }
                }
                (Some(XReply::Rejected { xid: rx }), Phase::Preparing)
                    if rx == xid && group == tx.coord =>
                {
                    tx.rejects.insert(replica);
                    if tx.rejects.len() > f {
                        tx.phase = Phase::Aborting;
                        tx.acked.clear();
                        Next::Decide
                    } else {
                        Next::Nothing
                    }
                }
                (Some(XReply::Ack { xid: rx, decision }), phase) if rx == xid => {
                    let wanted = match phase {
                        Phase::Committing => Some(DECISION_COMMIT),
                        Phase::Aborting => Some(DECISION_ABORT),
                        Phase::Preparing => None,
                    };
                    if wanted == Some(decision) {
                        tx.acked.insert(group);
                        if tx.shards.iter().all(|g| tx.acked.contains(g)) {
                            Next::Done {
                                committed: phase == Phase::Committing,
                                retries: tx.attempts,
                            }
                        } else {
                            Next::Nothing
                        }
                    } else {
                        Next::Nothing
                    }
                }
                // Stale-phase or cross-transaction replies are ignored.
                _ => Next::Nothing,
            }
        };
        let mut out = Vec::new();
        match next {
            Next::Nothing => {}
            Next::Decide => self.send_decision(xid, &mut out),
            Next::Done { committed, retries } => {
                self.txs.remove(&xid);
                self.pending.retain(|_, x| *x != xid);
                out.push(XAction::Done {
                    xid,
                    committed,
                    retries,
                });
            }
        }
        out
    }

    /// Handles the retry timer for `xid` popping.
    pub fn on_timer(&mut self, xid: u64) -> Vec<XAction> {
        enum Next {
            Prepare,
            Decide,
        }
        let next = {
            let Some(tx) = self.txs.get_mut(&xid) else {
                return Vec::new();
            };
            tx.attempts += 1;
            match tx.phase {
                Phase::Preparing => {
                    if tx.attempts >= self.cfg.prepare_attempts {
                        // No certificate exists, so aborting is safe: no
                        // participant can ever receive a valid XCommit.
                        tx.phase = Phase::Aborting;
                        tx.acked.clear();
                        Next::Decide
                    } else {
                        Next::Prepare
                    }
                }
                Phase::Committing => {
                    #[cfg(feature = "seeded-xshard-bug")]
                    if tx.attempts >= 3 {
                        // SEEDED BUG: an "impatient" coordinator gives up
                        // on a stalled commit and aborts the groups that
                        // have not acked — while groups that already
                        // committed stay committed. Exactly the atomicity
                        // violation the ledger must catch.
                        tx.phase = Phase::Aborting;
                    }
                    Next::Decide
                }
                Phase::Aborting => Next::Decide,
            }
        };
        let mut out = Vec::new();
        match next {
            Next::Prepare => self.send_prepare(xid, &mut out),
            Next::Decide => self.send_decision(xid, &mut out),
        }
        out
    }
}

/// Client wiring for one group: how the coordinator process reaches it
/// and whose replies it believes.
pub struct GroupLink {
    /// Overlay port at the group's HMI-site external daemon; the group's
    /// replicas are its [`spire_prime::net::REPLICA_GROUP`] there.
    pub routing: ClientRouting,
    /// Signer for the coordinator's client key *in this group's key
    /// space* (`g * stride + client_base + id`).
    pub signer: Signer,
    /// The group's replicas, to authenticate each reply before the
    /// machine sees it.
    pub keys: ReplicaKeys,
}

/// Timer tag for the workload cadence; per-transaction retry timers use
/// `xid + XID_TAG_BASE`.
const WORKLOAD_TAG: u64 = 1;
const XID_TAG_BASE: u64 = 16;

/// The deployment process hosting [`XCoord`]: submits a deterministic
/// cross-shard workload and shuttles frames between the machine and each
/// group's overlay.
pub struct CoordinatorProcess {
    coord: XCoord,
    links: Vec<GroupLink>,
    client: ClientId,
    /// New-transaction cadence; `Span::ZERO` disables the workload.
    interval: Span,
    /// Cross-shard RTU pairs cycled by the workload.
    pairs: Vec<(u32, u32)>,
    map: ShardMap,
    poison_every: u64,
    issued: u64,
    toggle: bool,
    sent_at: BTreeMap<u64, Time>,
}

impl CoordinatorProcess {
    /// Builds the process. `pairs` must be non-empty when `interval` is
    /// non-zero.
    pub fn new(
        cfg: XCoordConfig,
        links: Vec<GroupLink>,
        client: ClientId,
        interval: Span,
        map: ShardMap,
        pairs: Vec<(u32, u32)>,
        poison_every: u64,
    ) -> CoordinatorProcess {
        assert!(
            interval == Span::ZERO || !pairs.is_empty(),
            "coordinator workload needs cross-shard pairs"
        );
        CoordinatorProcess {
            coord: XCoord::new(cfg),
            links,
            client,
            interval,
            pairs,
            map,
            poison_every,
            issued: 0,
            toggle: false,
            sent_at: BTreeMap::new(),
        }
    }

    fn apply(&mut self, ctx: &mut Context<'_>, actions: Vec<XAction>) {
        for action in actions {
            match action {
                XAction::Send {
                    group,
                    cseq,
                    payload,
                } => {
                    let link = &self.links[group as usize];
                    let msg = op_frame(self.client, cseq, payload, &link.signer);
                    link.routing.send_all(ctx, msg);
                    ctx.count("xshard.sends", 1);
                }
                XAction::SetTimer { xid, delay } => {
                    ctx.set_timer(delay, xid + XID_TAG_BASE);
                }
                XAction::Done {
                    xid,
                    committed,
                    retries,
                } => {
                    let elapsed_ms = self
                        .sent_at
                        .remove(&xid)
                        .map(|t| (ctx.now().0.saturating_sub(t.0)) as f64 / 1000.0);
                    if committed {
                        ctx.count("xshard.commits", 1);
                        if let Some(ms) = elapsed_ms {
                            ctx.record("xshard.commit_latency_ms", ms);
                        }
                    } else {
                        ctx.count("xshard.aborts", 1);
                        if let Some(ms) = elapsed_ms {
                            ctx.record("xshard.abort_latency_ms", ms);
                        }
                    }
                    if retries > 0 {
                        ctx.count("xshard.retries", retries as u64);
                    }
                }
            }
        }
    }

    fn issue_tx(&mut self, ctx: &mut Context<'_>) {
        let (a, b) = self.pairs[(self.issued % self.pairs.len() as u64) as usize];
        self.issued += 1;
        self.toggle = !self.toggle;
        let kind = if self.toggle {
            crate::msg::cmd_kind::OPEN_BREAKER
        } else {
            crate::msg::cmd_kind::CLOSE_BREAKER
        };
        let cmds = vec![
            ShardCmd {
                shard: self.map.shard_of(a),
                rtu: a,
                kind,
                a: 0,
                b: 0,
            },
            ShardCmd {
                shard: self.map.shard_of(b),
                rtu: b,
                kind,
                a: 0,
                b: 0,
            },
        ];
        let poison = self.poison_every > 0 && self.issued.is_multiple_of(self.poison_every);
        let (xid, actions) = self.coord.begin(cmds, poison, ctx.now());
        self.sent_at.insert(xid, ctx.now());
        ctx.count("xshard.commands", 1);
        self.apply(ctx, actions);
    }
}

impl Process for CoordinatorProcess {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for link in &self.links {
            link.routing.attach(ctx);
        }
        if self.interval > Span::ZERO {
            ctx.set_timer(self.interval, WORKLOAD_TAG);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: ProcessId, bytes: &Bytes) {
        // The group whose daemon delivered this, and the frame inside.
        let delivered =
            |(g, link): (usize, &GroupLink)| Some((g, link.routing.unwrap(from, bytes)?));
        let Some((group, payload)) = self.links.iter().enumerate().find_map(delivered) else {
            return;
        };
        let Some(vote) = Vote::decode(&payload, self.client) else {
            return;
        };
        // The machine tallies and keeps `payload` for certificates; no
        // reply reaches it unauthenticated.
        if vote.kind != VoteKind::Reply || !self.links[group].keys.check(ctx, &vote) {
            return;
        }
        let actions = self.coord.on_reply(
            group as u32,
            vote.replica.0,
            vote.seq,
            &vote.payload,
            &payload,
        );
        self.apply(ctx, actions);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        if tag == WORKLOAD_TAG {
            self.issue_tx(ctx);
            ctx.set_timer(self.interval, WORKLOAD_TAG);
            return;
        }
        let actions = self.coord.on_timer(tag - XID_TAG_BASE);
        self.apply(ctx, actions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::cmd_kind;

    fn cmds2() -> Vec<ShardCmd> {
        vec![
            ShardCmd {
                shard: 0,
                rtu: 1,
                kind: cmd_kind::OPEN_BREAKER,
                a: 0,
                b: 0,
            },
            ShardCmd {
                shard: 1,
                rtu: 2,
                kind: cmd_kind::OPEN_BREAKER,
                a: 0,
                b: 0,
            },
        ]
    }

    fn cfg() -> XCoordConfig {
        XCoordConfig {
            groups: 2,
            f: 1,
            ..XCoordConfig::default()
        }
    }

    fn send_payload(actions: &[XAction]) -> Vec<(u32, u64, Bytes)> {
        actions
            .iter()
            .filter_map(|a| match a {
                XAction::Send {
                    group,
                    cseq,
                    payload,
                } => Some((*group, *cseq, payload.clone())),
                _ => None,
            })
            .collect()
    }

    /// Drives a happy-path transaction through the pure machine with
    /// hand-fed replies.
    #[test]
    fn prepare_certificate_commit_done() {
        let mut xc = XCoord::new(cfg());
        let (xid, actions) = xc.begin(cmds2(), false, Time(100));
        let sends = send_payload(&actions);
        assert_eq!(sends.len(), 1, "prepare goes to the coordinator group");
        assert_eq!(sends[0].0, 0);
        let ShardMsg::XPrepare {
            ts_us,
            shards,
            cmds,
            ..
        } = ShardMsg::decode(&sends[0].2).unwrap()
        else {
            panic!("expected prepare");
        };
        let digest = ShardMsg::prepare_digest(xid, ts_us, &shards, &cmds);
        let vote = crate::msg::encode_prepared(xid, &digest);
        let raw = Bytes::from_static(b"frame");
        // One vote: nothing yet (f=1 needs two).
        assert!(send_payload(&xc.on_reply(0, 0, sends[0].1, &vote, &raw)).is_empty());
        let actions = xc.on_reply(0, 1, sends[0].1, &vote, &raw);
        let commits = send_payload(&actions);
        assert_eq!(commits.len(), 2, "commit goes to both participants");
        for (_, _, payload) in &commits {
            let ShardMsg::XCommit { cert, .. } = ShardMsg::decode(payload).unwrap() else {
                panic!("expected commit");
            };
            assert_eq!(cert.result.as_ref(), vote.as_slice());
            assert_eq!(cert.frames.len(), 2);
        }
        let ack = crate::msg::encode_ack(xid, DECISION_COMMIT);
        assert!(xc
            .on_reply(0, 0, commits[0].1, &ack, &raw)
            .iter()
            .all(|a| !matches!(a, XAction::Done { .. })));
        let done = xc.on_reply(1, 0, commits[1].1, &ack, &raw);
        assert!(matches!(
            done.as_slice(),
            [XAction::Done {
                committed: true,
                ..
            }]
        ));
        assert_eq!(xc.in_flight(), 0);
    }

    #[test]
    fn rejection_quorum_aborts() {
        let mut xc = XCoord::new(cfg());
        let (xid, actions) = xc.begin(cmds2(), true, Time(0));
        let sends = send_payload(&actions);
        let raw = Bytes::from_static(b"frame");
        let rej = crate::msg::encode_rejected(xid);
        assert!(send_payload(&xc.on_reply(0, 0, sends[0].1, &rej, &raw)).is_empty());
        let aborts = send_payload(&xc.on_reply(0, 2, sends[0].1, &rej, &raw));
        assert_eq!(aborts.len(), 2);
        for (_, _, payload) in &aborts {
            assert!(matches!(
                ShardMsg::decode(payload).unwrap(),
                ShardMsg::XAbort { .. }
            ));
        }
    }

    #[test]
    fn prepare_retries_use_fresh_cseqs_then_abort() {
        let mut xc = XCoord::new(XCoordConfig {
            prepare_attempts: 3,
            ..cfg()
        });
        let (_, actions) = xc.begin(cmds2(), false, Time(0));
        let first = send_payload(&actions)[0].1;
        let second = send_payload(&xc.on_timer(1))[0].1;
        assert!(second > first, "retry must carry a fresh cseq");
        let third = send_payload(&xc.on_timer(1))[0].1;
        assert!(third > second);
        // Budget exhausted: the next pop aborts both participants.
        let aborts = send_payload(&xc.on_timer(1));
        assert_eq!(aborts.len(), 2);
        assert!(matches!(
            ShardMsg::decode(&aborts[0].2).unwrap(),
            ShardMsg::XAbort { .. }
        ));
    }

    #[test]
    fn commit_phase_retries_only_unacked_groups() {
        let mut xc = XCoord::new(cfg());
        let (xid, actions) = xc.begin(cmds2(), false, Time(0));
        let sends = send_payload(&actions);
        let raw = Bytes::from_static(b"frame");
        let ShardMsg::XPrepare {
            ts_us,
            shards,
            cmds,
            ..
        } = ShardMsg::decode(&sends[0].2).unwrap()
        else {
            panic!();
        };
        let vote =
            crate::msg::encode_prepared(xid, &ShardMsg::prepare_digest(xid, ts_us, &shards, &cmds));
        xc.on_reply(0, 0, sends[0].1, &vote, &raw);
        let commits = send_payload(&xc.on_reply(0, 1, sends[0].1, &vote, &raw));
        // Group 0 acks; group 1 stays silent.
        let ack = crate::msg::encode_ack(xid, DECISION_COMMIT);
        xc.on_reply(0, 0, commits[0].1, &ack, &raw);
        let retry = send_payload(&xc.on_timer(xid));
        assert_eq!(retry.len(), 1);
        assert_eq!(retry[0].0, 1, "only the silent group is retried");
        assert!(retry[0].1 > commits[1].1, "retry carries a fresh cseq");
    }

    #[test]
    fn stale_prepare_votes_after_decision_ignored() {
        let mut xc = XCoord::new(cfg());
        let (xid, actions) = xc.begin(cmds2(), false, Time(0));
        let sends = send_payload(&actions);
        let raw = Bytes::from_static(b"frame");
        let ShardMsg::XPrepare {
            ts_us,
            shards,
            cmds,
            ..
        } = ShardMsg::decode(&sends[0].2).unwrap()
        else {
            panic!();
        };
        let vote =
            crate::msg::encode_prepared(xid, &ShardMsg::prepare_digest(xid, ts_us, &shards, &cmds));
        xc.on_reply(0, 0, sends[0].1, &vote, &raw);
        xc.on_reply(0, 1, sends[0].1, &vote, &raw);
        // A third, late vote must not produce new actions.
        assert!(xc.on_reply(0, 2, sends[0].1, &vote, &raw).is_empty());
    }
}
