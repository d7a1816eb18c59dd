//! Execution: applying committed matrices to the application in
//! deterministic `(origin, po_seq)` order, exactly-once per client op, and
//! the execution snapshot that checkpoints and state transfer carry.

use super::io::{Io, Metric};
use super::ordering::Ordering;
use super::preorder::PreOrder;
use super::StateHasher;
use crate::application::Application;
use crate::behavior::ByzBehavior;
use crate::msg::{ClientOp, PrimeMsg};
use bytes::Bytes;
use spire_crypto::Digest;
use spire_sim::{impl_wire, span_key, Context, Counted, SpanPhase, TraceKind, Wire};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hash;

/// Exactly-once tracking of a client's operation sequence numbers that
/// tolerates out-of-order arrival/execution: a contiguous floor plus the
/// sparse set of numbers seen above it. (A plain high-water mark would
/// wrongly treat an op overtaken in the network by a later one from the
/// same client as a duplicate.)
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct CseqWindow {
    floor: u64,
    above: BTreeSet<u64>,
}

impl CseqWindow {
    /// Marks `cseq` as seen; returns false if it was already seen.
    pub fn try_mark(&mut self, cseq: u64) -> bool {
        if cseq <= self.floor || self.above.contains(&cseq) {
            return false;
        }
        self.above.insert(cseq);
        while self.above.remove(&(self.floor + 1)) {
            self.floor += 1;
        }
        true
    }

    /// The contiguous floor (every cseq `<= floor` was seen).
    pub fn floor(&self) -> u64 {
        self.floor
    }
}

impl_wire!(struct CseqWindow { floor, above as Counted<u16> });

/// What a checkpoint carries of execution after the application's own
/// snapshot.
pub(super) struct ExecState {
    /// Per-origin PO sequence executed through.
    pub(super) exec_cover: Vec<u64>,
    executed_cseq: BTreeMap<u32, CseqWindow>,
    exec_chain_head: Digest,
    total_ops: u64,
}

impl_wire!(struct ExecState { exec_cover, executed_cseq, exec_chain_head, total_ops });

pub(super) struct Execution {
    pub(super) app: Box<dyn Application>,
    pub(super) state: ExecState,
    pub(super) last_executed: u64,
}

impl Execution {
    pub(super) fn new(app: Box<dyn Application>, n: usize) -> Execution {
        Execution {
            app,
            state: ExecState {
                exec_cover: vec![0; n],
                executed_cseq: BTreeMap::new(),
                exec_chain_head: [0; 32],
                total_ops: 0,
            },
            last_executed: 0,
        }
    }

    /// Executes the next committed matrix, if it and every pre-ordered
    /// request it newly covers are at hand; returns its sequence. A matrix
    /// with absent requests stalls until reconciliation completes.
    pub(super) fn execute_next(
        &mut self,
        io: &mut Io,
        ctx: &mut Context<'_>,
        pre: &mut PreOrder,
        ord: &Ordering,
        view: u64,
    ) -> Option<u64> {
        let next = self.last_executed + 1;
        if next > ord.commit_aru {
            return None;
        }
        let matrix = ord.committed_matrix(next)?;
        let quorum = io.cfg.cover_quorum();
        // Per-origin execution targets from this matrix.
        let targets: Vec<u64> = (0..io.cfg.n as usize)
            .map(|i| matrix.covered_aru(i, quorum).max(self.state.exec_cover[i]))
            .collect();
        let cover = self.state.exec_cover.clone();
        let newly_covered = || {
            let range = |i: usize| (cover[i] + 1)..=targets[i];
            (0..cover.len()).flat_map(move |i| range(i).map(move |s| (i as u32, s)))
        };
        // First pass: are all needed PO-Requests present and certified?
        let absent: Vec<(u32, u64)> = newly_covered()
            .filter(|(origin, s)| pre.certified_ops(*origin, *s).is_none())
            .collect();
        if !absent.is_empty() {
            pre.request_missing(io, ctx, absent);
            return None;
        }
        // Second pass: execute deterministically.
        for (origin, s) in newly_covered() {
            let ops = pre.certified_ops(origin, s).expect("checked").to_vec();
            for op in ops {
                ctx.span_mark(span_key(op.client.0, op.cseq), SpanPhase::Order);
                self.execute_op(io, ctx, pre, op, view);
            }
            self.state.exec_cover[origin as usize] = s;
        }
        self.last_executed = next;
        io.count(ctx, Metric::MatricesExecuted, 1);
        let head = self.state.exec_chain_head;
        io.inspect(|rec| rec.push_commit(view, next, head));
        Some(next)
    }

    fn execute_op(
        &mut self,
        io: &mut Io,
        ctx: &mut Context<'_>,
        pre: &mut PreOrder,
        op: ClientOp,
        view: u64,
    ) {
        let executed = self.state.executed_cseq.entry(op.client.0).or_default();
        if !executed.try_mark(op.cseq) {
            return; // duplicate (several replicas originated it)
        }
        if ctx.tracing_enabled() {
            ctx.span_mark(span_key(op.client.0, op.cseq), SpanPhase::Execute);
            if let Some(kind) = self.app.classify(&op.payload) {
                ctx.trace(TraceKind::Mark {
                    pid: ctx.id().0,
                    label: kind,
                    value: op.cseq,
                });
            }
        }
        let outcome = if io.behavior == ByzBehavior::DivergentExec {
            // A compromised replica corrupting its own state machine: it
            // diverges silently. Clients are protected by f+1 matching
            // replies; tests assert correct replicas stay consistent.
            let mut corrupted = op.payload.to_vec();
            corrupted.push(0xff);
            self.app.execute(&corrupted)
        } else {
            self.app.execute(&op.payload)
        };
        for notification in outcome.notifications {
            let msg = PrimeMsg::Notify {
                replica: io.me,
                client: notification.target,
                nseq: notification.nseq,
                payload: Bytes::from(notification.payload),
                sig: [0; 64],
            };
            io.send_client_signed(ctx, pre, notification.target, msg);
        }
        io.count(ctx, Metric::OpsExecuted, 1);
        let state = &mut self.state;
        state.total_ops += 1;
        state.exec_chain_head = spire_crypto::digest_parts(&[
            &state.exec_chain_head,
            &op.client.0.to_le_bytes(),
            &op.cseq.to_le_bytes(),
            &op.payload,
        ]);
        io.inspect(|rec| {
            rec.view = view;
            rec.last_executed = self.last_executed;
            rec.ops_executed += 1;
            rec.exec_chain.push(self.state.exec_chain_head);
            rec.app_digest = self.app.digest();
        });
        let reply = PrimeMsg::Reply {
            replica: io.me,
            client: op.client,
            cseq: op.cseq,
            result: Bytes::from(outcome.reply),
            sig: [0; 64],
        };
        io.send_client_signed(ctx, pre, op.client, reply);
    }

    /// The application's snapshot (length-prefixed), then [`ExecState`].
    pub(super) fn snapshot(&self) -> Vec<u8> {
        let mut w = Bytes::from(self.app.snapshot()).to_wire(256);
        self.state.write(&mut w);
        w.into_vec()
    }

    /// Installs a snapshot, all or nothing: the application restores first,
    /// so one it refuses leaves every field as it was.
    pub(super) fn restore(&mut self, io: &Io, snapshot: &[u8]) -> bool {
        let Ok((app, state)) = <(Bytes, ExecState)>::decode_all(snapshot) else {
            return false;
        };
        if state.exec_cover.len() != io.cfg.n as usize || self.app.restore(&app).is_err() {
            return false;
        }
        // The execution hash chain resumes from the checkpoint's head; the
        // published chain restarts at the checkpoint's global op count so
        // prefix checks compare the overlapping history.
        let total_ops = state.total_ops;
        self.state = state;
        io.inspect(|rec| {
            rec.exec_chain.clear();
            rec.chain_offset = total_ops;
            rec.ops_executed = total_ops;
        });
        true
    }

    pub(super) fn digest(&self, h: &mut StateHasher) {
        let state = &self.state;
        (self.last_executed, state.total_ops, state.exec_chain_head).hash(h);
        (&state.exec_cover, &state.executed_cseq, self.app.digest()).hash(h);
    }
}
