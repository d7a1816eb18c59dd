//! The human-machine interface: issues supervisory commands to the
//! replicated masters and receives alarms (breaker events).

use crate::master::notify_kind;
use crate::op::{CommandAction, ScadaOp};
use bytes::Bytes;
use spire_crypto::keys::Signer;
use spire_prime::client::ClientRouting;
use spire_prime::{ClientId, ClientOp, PrimeConfig, PrimeMsg};
use spire_sim::{span_key, Context, Process, ProcessId, Span, SpanPhase, Time};
use std::collections::BTreeMap;

const TIMER_COMMAND: u64 = 1;
const TIMER_POLL: u64 = 2;

/// An HMI operator console process.
pub struct Hmi {
    cfg: PrimeConfig,
    client_id: ClientId,
    signer: Signer,
    routing: ClientRouting,
    /// RTUs the operator cycles commands through.
    targets: Vec<u32>,
    command_interval: Span,
    max_commands: u64,
    poll_interval: Span,

    cseq: u64,
    issued: u64,
    next_target: usize,
    breaker_open: bool,
    sent_at: BTreeMap<u64, Time>,
    poll_cseqs: std::collections::BTreeSet<u64>,
    replies: crate::proxy::QuorumTracker,
    alarms: crate::proxy::QuorumTracker,
}

impl Hmi {
    /// Creates an HMI issuing a command every `command_interval` to the
    /// given RTUs, alternating open/close (0 `max_commands` = unlimited).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: PrimeConfig,
        client_id: ClientId,
        signer: Signer,
        routing: ClientRouting,
        targets: Vec<u32>,
        command_interval: Span,
        max_commands: u64,
    ) -> Hmi {
        Hmi {
            cfg,
            client_id,
            signer,
            routing,
            targets,
            command_interval,
            max_commands,
            poll_interval: Span::ZERO,
            cseq: 0,
            issued: 0,
            next_target: 0,
            breaker_open: true,
            sent_at: BTreeMap::new(),
            poll_cseqs: Default::default(),
            replies: Default::default(),
            alarms: Default::default(),
        }
    }

    /// Enables periodic ordered state reads (the HMI's poll loop).
    pub fn with_polling(mut self, interval: Span) -> Hmi {
        self.poll_interval = interval;
        self
    }

    fn issue_poll(&mut self, ctx: &mut Context<'_>) {
        if self.targets.is_empty() {
            return;
        }
        let rtu = self.targets[self.next_target % self.targets.len()];
        let op = ScadaOp::ReadState { rtu };
        self.cseq += 1;
        let client_op = ClientOp::signed(self.client_id, self.cseq, op.encode(), &self.signer);
        let msg = PrimeMsg::Op(client_op).encode();
        self.sent_at.insert(self.cseq, ctx.now());
        self.poll_cseqs.insert(self.cseq);
        self.routing.send_all(ctx, msg);
        ctx.count("hmi.polls_sent", 1);
    }

    fn issue_command(&mut self, ctx: &mut Context<'_>) {
        if self.targets.is_empty() {
            return;
        }
        let rtu = self.targets[self.next_target % self.targets.len()];
        self.next_target += 1;
        let action = if self.breaker_open {
            CommandAction::OpenBreaker(0)
        } else {
            CommandAction::CloseBreaker(0)
        };
        self.breaker_open = !self.breaker_open;
        let op = ScadaOp::Command {
            rtu,
            ts_us: ctx.now().0,
            action,
        };
        self.cseq += 1;
        self.issued += 1;
        let client_op = ClientOp::signed(self.client_id, self.cseq, op.encode(), &self.signer);
        let msg = PrimeMsg::Op(client_op).encode();
        self.sent_at.insert(self.cseq, ctx.now());
        ctx.span_mark(span_key(self.client_id.0, self.cseq), SpanPhase::Submit);
        self.routing.send_all(ctx, msg);
        ctx.count("hmi.commands_sent", 1);
    }
}

impl Process for Hmi {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if let ClientRouting::Spines { port, .. } = &self.routing {
            port.attach(ctx);
        }
        if self.command_interval.0 > 0 {
            ctx.set_timer(self.command_interval, TIMER_COMMAND);
        }
        if self.poll_interval.0 > 0 {
            ctx.set_timer(self.poll_interval, TIMER_POLL);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ProcessId, bytes: &Bytes) {
        let payload = match &self.routing {
            ClientRouting::Direct(_) => bytes.clone(),
            ClientRouting::Spines { .. } => match spire_spines::SpinesPort::decode_deliver(bytes) {
                Some((_, payload)) => payload,
                None => return,
            },
        };
        let Ok(msg) = spire_prime::decode_enclosed(&payload) else {
            return;
        };
        let quorum = (self.cfg.f + 1) as usize;
        match msg {
            PrimeMsg::Reply {
                replica,
                client,
                cseq,
                result,
                ..
            } if client == self.client_id
                && self
                    .replies
                    .vote(cseq, replica.0, &result, quorum)
                    .is_some() =>
            {
                let is_poll = self.poll_cseqs.remove(&cseq);
                if let Some(sent) = self.sent_at.remove(&cseq) {
                    let latency = ctx.now().since(sent).as_millis_f64();
                    let name = if is_poll {
                        "hmi.poll_latency_ms"
                    } else {
                        "hmi.command_ack_ms"
                    };
                    ctx.record(name, latency);
                }
                if is_poll {
                    ctx.count("hmi.polls_acked", 1);
                } else {
                    ctx.span_mark(span_key(self.client_id.0, cseq), SpanPhase::Confirm);
                    ctx.count("hmi.commands_acked", 1);
                }
            }
            PrimeMsg::Notify {
                replica,
                client,
                nseq,
                payload,
                ..
            } if client == self.client_id => {
                if let Some(agreed) = self.alarms.vote(nseq, replica.0, &payload, quorum) {
                    if agreed.first() == Some(&notify_kind::BREAKER_EVENT) {
                        ctx.count("hmi.alarms", 1);
                    }
                }
            }
            _ => {}
        }
        let conflicts = self.replies.take_conflicts() + self.alarms.take_conflicts();
        if conflicts > 0 {
            ctx.count("scada.conflicting_accept", conflicts);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        match tag {
            TIMER_COMMAND if self.max_commands == 0 || self.issued < self.max_commands => {
                self.issue_command(ctx);
                ctx.set_timer(self.command_interval, TIMER_COMMAND);
            }
            TIMER_POLL => {
                self.issue_poll(ctx);
                ctx.set_timer(self.poll_interval, TIMER_POLL);
            }
            _ => {}
        }
    }
}

impl std::fmt::Debug for Hmi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hmi")
            .field("client", &self.client_id)
            .field("issued", &self.issued)
            .finish()
    }
}
