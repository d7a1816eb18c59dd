//! The cross-shard coordinator: a pure 2PC-over-BFT state machine
//! ([`XCoord`]) plus the substrate process ([`CoordinatorProcess`]) that
//! drives it over Spines overlays as a Prime client of every group.
//!
//! The machine is pure — inputs are replies and timer pops, outputs are
//! [`XAction`] values — so the explore harness can drive it directly
//! under adversarial schedules while both substrates share the exact
//! protocol logic.
//!
//! Like every Prime client it believes a group only on `f + 1` matching
//! replies, counted by [`QuorumTracker`]s: the prepare votes by xid, each
//! group's `Ack`s by xid.

use std::collections::BTreeMap;

use bytes::Bytes;
use spire_crypto::keys::Signer;
use spire_prime::client::{op_frame, Vote, VoteKind};
use spire_prime::{ClientId, ClientRouting, QuorumTracker, ReplicaKeys, ReplyCert};
use spire_sim::{Context, Process, ProcessId, Span, Time};

use crate::map::ShardMap;
use crate::msg::{parse_reply, ShardCmd, ShardMsg, XReply, DECISION_ABORT, DECISION_COMMIT};
use crate::router;

/// Retry timer for an unanswered prepare.
pub const PREPARE_TIMEOUT: Span = Span::millis(400);

/// Retry timer for unacked commit/abort decisions.
pub const DECISION_TIMEOUT: Span = Span::millis(400);

/// Prepares sent before giving up and aborting. Decisions are never
/// abandoned (blocking 2PC).
pub const PREPARE_ATTEMPTS: u32 = 5;

/// The coordinator machine's view of the deployment.
#[derive(Clone, Copy, Debug)]
pub struct XCoordConfig {
    /// Number of groups.
    pub groups: u32,
    /// Per-group fault threshold (votes need `f + 1`).
    pub f: u32,
}

#[derive(Debug)]
struct Tx {
    cmds: Vec<ShardCmd>,
    shards: Vec<u32>,
    coord: u32,
    ts_us: u64,
    poison: bool,
    /// `None` while preparing, then [`DECISION_COMMIT`] or
    /// [`DECISION_ABORT`]: the decision sent, and the one acks must name.
    decision: Option<u8>,
    cert: Option<ReplyCert>,
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
    /// Prepare votes by xid, each with its raw frame for the certificate.
    prepares: QuorumTracker<Bytes>,
    /// Per group: acks of the current decision by xid.
    acks: Vec<QuorumTracker>,
}

impl XCoord {
    /// A fresh machine.
    pub fn new(cfg: XCoordConfig) -> XCoord {
        XCoord {
            next_cseq: vec![0; cfg.groups as usize],
            acks: (0..cfg.groups).map(|_| QuorumTracker::default()).collect(),
            cfg,
            pending: BTreeMap::new(),
            txs: BTreeMap::new(),
            next_xid: 1,
            prepares: QuorumTracker::default(),
        }
    }

    fn fresh_cseq(&mut self, group: u32, xid: u64) -> u64 {
        self.next_cseq[group as usize] += 1;
        let cseq = self.next_cseq[group as usize];
        self.pending.insert((group, cseq), xid);
        cseq
    }

    fn send_prepare(&mut self, xid: u64, out: &mut Vec<XAction>) {
        let tx = &self.txs[&xid];
        let coord = tx.coord;
        let payload = ShardMsg::XPrepare {
            xid,
            coord_shard: coord,
            ts_us: tx.ts_us,
            shards: tx.shards.clone(),
            cmds: tx.cmds.clone(),
            poison: tx.poison,
        }
        .encode();
        let cseq = self.fresh_cseq(coord, xid);
        out.push(XAction::Send {
            group: coord,
            cseq,
            payload,
        });
        out.push(XAction::SetTimer {
            xid,
            delay: PREPARE_TIMEOUT,
        });
    }

    /// Sends the current decision to every participant group that has
    /// not acked it yet.
    fn send_decision(&mut self, xid: u64, out: &mut Vec<XAction>) {
        let tx = &self.txs[&xid];
        let acked = |g: &u32| self.acks[*g as usize].decided(xid);
        let targets: Vec<u32> = tx.shards.iter().copied().filter(|g| !acked(g)).collect();
        let payload = if tx.decision == Some(DECISION_COMMIT) {
            ShardMsg::XCommit {
                xid,
                coord_shard: tx.coord,
                ts_us: tx.ts_us,
                shards: tx.shards.clone(),
                cmds: tx.cmds.clone(),
                cert: tx.cert.clone().expect("committing without certificate"),
            }
        } else {
            ShardMsg::XAbort {
                xid,
                coord_shard: tx.coord,
                shards: tx.shards.clone(),
            }
        }
        .encode();
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
            delay: DECISION_TIMEOUT,
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
                decision: None,
                cert: None,
                attempts: 0,
            },
        );
        let mut out = Vec::new();
        self.send_prepare(xid, &mut out);
        (xid, out)
    }

    /// The transaction a reply from `group` to `cseq` counts for, and
    /// whether it is a prepare vote (else an ack); `None` for a reply the
    /// machine ignores.
    fn route(&self, group: u32, cseq: u64, result: &[u8]) -> Option<(u64, bool)> {
        let xid = *self.pending.get(&(group, cseq))?;
        let tx = self.txs.get(&xid)?;
        match parse_reply(result)? {
            XReply::Prepared { xid: rx, .. } | XReply::Rejected { xid: rx } => {
                (rx == xid && group == tx.coord).then_some((xid, true))
            }
            XReply::Ack { xid: rx, decision } => {
                (rx == xid && tx.decision == Some(decision)).then_some((xid, false))
            }
        }
    }

    /// False for a reply that cannot change the machine's state, which may
    /// then be dropped unauthenticated: one to a `cseq` of no live
    /// transaction, a prepare vote from outside the coordinator group, an
    /// ack of anything but the current decision, or a vote already counted
    /// or decided on these bytes.
    pub fn wants(&self, group: u32, replica: u32, cseq: u64, result: &[u8]) -> bool {
        match self.route(group, cseq, result) {
            Some((xid, true)) => !self.prepares.settled(xid, replica, result),
            Some((xid, false)) => !self.acks[group as usize].settled(xid, replica, result),
            None => false,
        }
    }

    /// Drains every tally's count of second quorums on other bytes.
    pub fn take_conflicts(&mut self) -> u64 {
        let acks: u64 = self
            .acks
            .iter_mut()
            .map(QuorumTracker::take_conflicts)
            .sum();
        acks + self.prepares.take_conflicts()
    }

    /// Feeds one authenticated reply frame from `replica` of `group`;
    /// `raw` is the frame as read off the wire, kept for certificates.
    /// Whichever of `Prepared` and `Rejected` first has `f + 1` matching
    /// votes decides the prepare; a group is acked on `f + 1` matching
    /// acks of the decision, and the transaction is done when all are.
    pub fn on_reply(
        &mut self,
        group: u32,
        replica: u32,
        cseq: u64,
        result: &[u8],
        raw: &Bytes,
    ) -> Vec<XAction> {
        let mut out = Vec::new();
        let Some((xid, prepare)) = self.route(group, cseq, result) else {
            return out;
        };
        let quorum = self.cfg.f as usize + 1;
        if prepare {
            let prepares = &mut self.prepares;
            let Some((agreed, frames)) = prepares.vote(xid, replica, result, raw.clone(), quorum)
            else {
                return out;
            };
            let tx = self
                .txs
                .get_mut(&xid)
                .expect("routed to a live transaction");
            // A quorum can still form after the retry budget aborted.
            if tx.decision.is_some() {
                return out;
            }
            tx.decision = Some(match parse_reply(&agreed) {
                Some(XReply::Prepared { .. }) => {
                    tx.cert = Some(ReplyCert {
                        result: Bytes::from(agreed),
                        frames,
                    });
                    DECISION_COMMIT
                }
                _ => DECISION_ABORT,
            });
            self.send_decision(xid, &mut out);
        } else if self.acks[group as usize]
            .vote(xid, replica, result, (), quorum)
            .is_some()
        {
            let tx = &self.txs[&xid];
            if tx
                .shards
                .iter()
                .all(|g| self.acks[*g as usize].decided(xid))
            {
                out.push(XAction::Done {
                    xid,
                    committed: tx.decision == Some(DECISION_COMMIT),
                    retries: tx.attempts,
                });
                self.txs.remove(&xid);
                self.pending.retain(|_, x| *x != xid);
            }
        }
        out
    }

    /// Handles the retry timer for `xid` popping.
    pub fn on_timer(&mut self, xid: u64) -> Vec<XAction> {
        let mut out = Vec::new();
        let Some(tx) = self.txs.get_mut(&xid) else {
            return out;
        };
        tx.attempts += 1;
        #[cfg(feature = "seeded-xshard-bug")]
        if tx.decision == Some(DECISION_COMMIT) && tx.attempts >= 3 {
            // SEEDED BUG: an "impatient" coordinator gives up on a stalled
            // commit and aborts the groups that have not acked — while
            // groups that already committed stay committed. Exactly the
            // atomicity violation the ledger must catch.
            tx.decision = Some(DECISION_ABORT);
        }
        if tx.decision.is_none() && tx.attempts >= PREPARE_ATTEMPTS {
            // No certificate exists, so aborting is safe: no participant
            // can ever receive a valid XCommit.
            tx.decision = Some(DECISION_ABORT);
        }
        if tx.decision.is_none() {
            self.send_prepare(xid, &mut out);
        } else {
            self.send_decision(xid, &mut out);
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
        // As in `ClientSession::on_message`: a reply the machine would
        // ignore is dropped unchecked, and no reply reaches its tallies
        // (or a certificate) unauthenticated.
        let (g, replica) = (group as u32, vote.replica.0);
        if vote.kind != VoteKind::Reply
            || !self.coord.wants(g, replica, vote.seq, &vote.payload)
            || !self.links[group].keys.check(ctx, &vote)
        {
            return;
        }
        let actions = self
            .coord
            .on_reply(g, replica, vote.seq, &vote.payload, &payload);
        let conflicts = self.coord.take_conflicts();
        if conflicts > 0 {
            ctx.count("scada.conflicting_accept", conflicts);
        }
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
    use crate::msg::{cmd_kind, encode_ack, encode_prepared, encode_rejected};
    use crate::COORD_CLIENT_ID;
    use spire_crypto::keys::KeyMaterial;
    use spire_crypto::{KeyStore, NodeId};
    use spire_prime::{PrimeMsg, RecordingBackend, ReplicaId};
    use std::sync::Arc;

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
        XCoordConfig { groups: 2, f: 1 }
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

    fn groups(sends: &[(u32, u64, Bytes)]) -> Vec<u32> {
        sends.iter().map(|(group, _, _)| *group).collect()
    }

    fn done(actions: &[XAction]) -> bool {
        actions.iter().any(|a| matches!(a, XAction::Done { .. }))
    }

    /// Replica `r`'s raw reply frame, as far as the machine cares.
    fn frame(r: u32) -> Bytes {
        Bytes::from(format!("frame{r}"))
    }

    /// The `Prepared` vote an honest replica casts for `prepare`.
    fn prepared(xid: u64, prepare: &Bytes) -> Vec<u8> {
        let ShardMsg::XPrepare {
            ts_us,
            shards,
            cmds,
            ..
        } = ShardMsg::decode(prepare).unwrap()
        else {
            panic!("expected prepare");
        };
        encode_prepared(xid, &ShardMsg::prepare_digest(xid, ts_us, &shards, &cmds))
    }

    /// A machine whose one transaction (groups 0 and 1) holds a
    /// certificate: it, the xid, and the commit sends.
    fn committing() -> (XCoord, u64, Vec<(u32, u64, Bytes)>) {
        let mut xc = XCoord::new(cfg());
        let (xid, actions) = xc.begin(cmds2(), false, Time(0));
        let (_, cseq, prepare) = &send_payload(&actions)[0];
        let vote = prepared(xid, prepare);
        xc.on_reply(0, 0, *cseq, &vote, &frame(0));
        let commits = send_payload(&xc.on_reply(0, 1, *cseq, &vote, &frame(1)));
        (xc, xid, commits)
    }

    /// Drives a happy-path transaction through the pure machine with
    /// hand-fed replies.
    #[test]
    fn prepare_certificate_commit_done() {
        let mut xc = XCoord::new(cfg());
        let (xid, actions) = xc.begin(cmds2(), false, Time(100));
        let sends = send_payload(&actions);
        assert_eq!(
            groups(&sends),
            vec![0],
            "prepare goes to the coordinator group"
        );
        let vote = prepared(xid, &sends[0].2);
        // One vote: nothing yet (f=1 needs two).
        assert!(send_payload(&xc.on_reply(0, 0, sends[0].1, &vote, &frame(0))).is_empty());
        let commits = send_payload(&xc.on_reply(0, 1, sends[0].1, &vote, &frame(1)));
        assert_eq!(
            groups(&commits),
            vec![0, 1],
            "commit goes to both participants"
        );
        for (_, _, payload) in &commits {
            let ShardMsg::XCommit { cert, .. } = ShardMsg::decode(payload).unwrap() else {
                panic!("expected commit");
            };
            assert_eq!(cert.result.as_ref(), vote.as_slice());
            assert_eq!(cert.frames, vec![frame(0), frame(1)]);
        }
        // f + 1 acks per group; the last of the four completes it.
        let ack = encode_ack(xid, DECISION_COMMIT);
        for (i, (g, r)) in [(0, 0), (0, 1), (1, 0), (1, 1)].into_iter().enumerate() {
            let (group, cseq, _) = commits[g];
            let out = xc.on_reply(group, r, cseq, &ack, &frame(r));
            if i < 3 {
                assert!(!done(&out), "ack {i} completed the transaction");
            } else {
                assert!(matches!(
                    out.as_slice(),
                    [XAction::Done {
                        committed: true,
                        ..
                    }]
                ));
            }
        }
        assert!(xc.txs.is_empty() && xc.pending.is_empty());
    }

    /// One replica of a group is not the group: its `Ack` neither completes
    /// the transaction nor stops the decision being re-sent there.
    #[test]
    fn one_ack_per_group_neither_completes_nor_stops_retries() {
        let (mut xc, xid, commits) = committing();
        let ack = encode_ack(xid, DECISION_COMMIT);
        for (group, cseq, _) in &commits {
            assert!(!done(&xc.on_reply(*group, 0, *cseq, &ack, &frame(0))));
        }
        let retry = send_payload(&xc.on_timer(xid));
        assert_eq!(groups(&retry), vec![0, 1], "both groups are retried");
        // f + 1 matching acks from group 0 stop its retries ...
        assert!(!done(&xc.on_reply(0, 1, commits[0].1, &ack, &frame(1))));
        let retry = send_payload(&xc.on_timer(xid));
        assert_eq!(groups(&retry), vec![1]);
        // ... and from group 1 (one on the retried cseq) complete it.
        assert!(done(&xc.on_reply(1, 1, retry[0].1, &ack, &frame(1))));
    }

    #[test]
    fn acks_naming_the_other_decision_do_not_count() {
        let (mut xc, xid, commits) = committing();
        let (commit, abort) = (
            encode_ack(xid, DECISION_COMMIT),
            encode_ack(xid, DECISION_ABORT),
        );
        for r in 0..2 {
            xc.on_reply(0, r, commits[0].1, &commit, &frame(r));
        }
        // Group 1: f + 1 acks of abort, and a lone ack of commit.
        for r in 0..2 {
            assert!(!xc.wants(1, r, commits[1].1, &abort));
            assert!(!done(&xc.on_reply(1, r, commits[1].1, &abort, &frame(r))));
        }
        assert!(!done(&xc.on_reply(1, 2, commits[1].1, &commit, &frame(2))));
        assert_eq!(groups(&send_payload(&xc.on_timer(xid))), vec![1]);
    }

    #[test]
    fn rejection_quorum_aborts() {
        let mut xc = XCoord::new(cfg());
        let (xid, actions) = xc.begin(cmds2(), true, Time(0));
        let sends = send_payload(&actions);
        let rej = encode_rejected(xid);
        assert!(send_payload(&xc.on_reply(0, 0, sends[0].1, &rej, &frame(0))).is_empty());
        let aborts = send_payload(&xc.on_reply(0, 2, sends[0].1, &rej, &frame(2)));
        assert_eq!(aborts.len(), 2);
        for (_, _, payload) in &aborts {
            assert!(matches!(
                ShardMsg::decode(payload).unwrap(),
                ShardMsg::XAbort { .. }
            ));
        }
    }

    /// `Prepared` and `Rejected` share one tally: a replica that changes
    /// its vote counts once, for its latest, and f `Prepared` beside f + 1
    /// `Rejected` abort.
    #[test]
    fn prepare_votes_count_each_replica_once() {
        let mut xc = XCoord::new(cfg());
        let (xid, actions) = xc.begin(cmds2(), false, Time(0));
        let (_, cseq, prepare) = &send_payload(&actions)[0];
        let (yes, no) = (prepared(xid, prepare), encode_rejected(xid));
        assert!(xc.on_reply(0, 0, *cseq, &yes, &frame(0)).is_empty());
        assert!(xc.on_reply(0, 0, *cseq, &no, &frame(0)).is_empty());
        assert!(
            xc.on_reply(0, 1, *cseq, &yes, &frame(1)).is_empty(),
            "replica 0 no longer votes Prepared"
        );
        let aborts = send_payload(&xc.on_reply(0, 2, *cseq, &no, &frame(2)));
        assert_eq!(groups(&aborts), vec![0, 1]);
        assert!(matches!(
            ShardMsg::decode(&aborts[0].2).unwrap(),
            ShardMsg::XAbort { .. }
        ));
    }

    #[test]
    fn prepare_retries_use_fresh_cseqs_then_abort() {
        let mut xc = XCoord::new(cfg());
        let (_, actions) = xc.begin(cmds2(), false, Time(0));
        let mut last = send_payload(&actions)[0].1;
        for _ in 1..PREPARE_ATTEMPTS {
            let retry = send_payload(&xc.on_timer(1))[0].1;
            assert!(retry > last, "retry must carry a fresh cseq");
            last = retry;
        }
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
        let (mut xc, xid, commits) = committing();
        // Group 0 acks with f + 1 replicas; group 1 stays silent.
        let ack = encode_ack(xid, DECISION_COMMIT);
        for r in 0..2 {
            xc.on_reply(0, r, commits[0].1, &ack, &frame(r));
        }
        let retry = send_payload(&xc.on_timer(xid));
        assert_eq!(groups(&retry), vec![1], "only the silent group is retried");
        assert!(retry[0].1 > commits[1].1, "retry carries a fresh cseq");
    }

    #[test]
    fn stale_prepare_votes_after_decision_ignored() {
        let mut xc = XCoord::new(cfg());
        let (xid, actions) = xc.begin(cmds2(), false, Time(0));
        let (_, cseq, prepare) = &send_payload(&actions)[0];
        let vote = prepared(xid, prepare);
        xc.on_reply(0, 0, *cseq, &vote, &frame(0));
        xc.on_reply(0, 1, *cseq, &vote, &frame(1));
        // A third, late vote is moot and must not produce new actions.
        assert!(!xc.wants(0, 2, *cseq, &vote));
        assert!(xc.on_reply(0, 2, *cseq, &vote, &frame(2)).is_empty());
    }

    /// The process authenticates only what the machine would count: f + 2
    /// identical replies to one prepare cost f + 1 checks, and a reply to
    /// a `cseq` the coordinator never used costs none. A later quorum on
    /// other bytes is counted as a conflict, as by every client.
    #[test]
    fn process_verifies_only_votes_that_count() {
        let material = KeyMaterial::new([4u8; 32]);
        let keystore = Arc::new(KeyStore::for_nodes(&material, 3000));
        let key = |node| Signer::new(material.signing_key(NodeId(node)), true);
        // Direct links: the first claims every frame, so all replies are
        // group 0's, the coordinator group.
        let links = (0..2)
            .map(|_| GroupLink {
                routing: ClientRouting::Direct(vec![ProcessId(0)]),
                signer: key(2000 + COORD_CLIENT_ID),
                keys: ReplicaKeys {
                    keystore: Arc::clone(&keystore),
                    key_base: 1000,
                    n: 4,
                    mock: true,
                },
            })
            .collect();
        let client = ClientId(COORD_CLIENT_ID);
        let mut process = CoordinatorProcess::new(
            cfg(),
            links,
            client,
            Span::ZERO,
            ShardMap::new(2),
            vec![],
            0,
        );
        let mut backend = RecordingBackend::new(0);
        let mut ctx = Context::new(&mut backend, ProcessId(9));
        let (xid, actions) = process.coord.begin(cmds2(), false, Time(0));
        let (_, cseq, prepare) = send_payload(&actions)[0].clone();
        process.apply(&mut ctx, actions);
        let vote = Bytes::from(prepared(xid, &prepare));
        let reply = |r: u32, cseq: u64, result: &Bytes| {
            let mut msg = PrimeMsg::Reply {
                replica: ReplicaId(r),
                client,
                cseq,
                result: result.clone(),
                sig: [0; 64],
            };
            msg.sign(&key(1000 + r));
            msg.encode()
        };
        process.on_message(&mut ctx, ProcessId(0), &reply(3, cseq + 100, &vote));
        for r in 0..3 {
            process.on_message(&mut ctx, ProcessId(0), &reply(r, cseq, &vote));
        }
        assert_eq!(backend.counters["client.verify_ops"], 2);
        assert!(!backend.counters.contains_key("client.bad_reply_auth"));
        assert_eq!(
            backend.counters["xshard.sends"], 3,
            "prepare, then commit x2"
        );
        // A second quorum on other bytes is a client-visible conflict.
        let mut ctx = Context::new(&mut backend, ProcessId(9));
        let rejected = Bytes::from(encode_rejected(xid));
        for r in 2..4 {
            process.on_message(&mut ctx, ProcessId(0), &reply(r, cseq, &rejected));
        }
        assert_eq!(backend.counters["scada.conflicting_accept"], 1);
    }
}
