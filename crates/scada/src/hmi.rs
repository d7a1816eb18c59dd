//! The human-machine interface: issues supervisory commands to the
//! replicated masters and receives alarms (breaker events).

use crate::master::notify_kind;
use crate::op::{CommandAction, ScadaOp};
use bytes::Bytes;
use rand::Rng;
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
    /// Grid instant of the command being waited for.
    next_command: Time,

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
            next_command: Time(0),
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

    /// Arms the next command: its instant on the `command_interval` grid
    /// plus an offset drawn uniformly from one summary interval. A console
    /// is not synchronised with the masters' timers, but in the simulator
    /// both start at t = 0 and every Prime period divides the command
    /// period, so on the bare grid each command meets the PO-flush and
    /// summary ticks at the same phase and its latency is a step function
    /// of sub-millisecond transport delays (one summary interval high).
    /// The offset spans the longest timer on the ordering path, which makes
    /// the phase uniform; the rate, and which report burst a command shares
    /// its pre-ordering round with, stay as they were.
    fn arm_command_timer(&mut self, ctx: &mut Context<'_>) {
        self.next_command = Time(self.next_command.0 + self.command_interval.0);
        let offset = ctx.rng().gen_range(0..=self.cfg.summary_interval.0);
        let at = self.next_command.0 + offset;
        ctx.set_timer(Span(at.saturating_sub(ctx.now().0)), TIMER_COMMAND);
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
            self.next_command = ctx.now();
            self.arm_command_timer(ctx);
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
                self.arm_command_timer(ctx);
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

#[cfg(test)]
mod tests {
    use super::*;
    use spire_crypto::keys::KeyMaterial;
    use spire_crypto::NodeId;
    use spire_sim::World;

    /// The instants (µs) at which a lone HMI issued its commands.
    fn command_instants(interval: Span, run: Span) -> (Vec<u64>, PrimeConfig) {
        let cfg = PrimeConfig::new(1, 0);
        let signer = Signer::new(KeyMaterial::new([7u8; 32]).signing_key(NodeId(9)), true);
        let routing = ClientRouting::Direct(Vec::new());
        let hmi = Hmi::new(
            cfg.clone(),
            ClientId(9),
            signer,
            routing,
            vec![0],
            interval,
            0,
        );
        let mut world = World::new(3);
        world.add_process("hmi", Box::new(hmi));
        let mut instants = Vec::new();
        // Commands are at least a step apart, so each step sees at most one.
        let step = Span::micros(100);
        while world.now().0 < run.0 {
            world.run_for(step);
            if world.metrics().counter("hmi.commands_sent") > instants.len() as u64 {
                instants.push(world.now().0);
            }
        }
        (instants, cfg)
    }

    #[test]
    fn commands_keep_their_grid_and_leave_the_replicas_tick_phase() {
        let interval = Span::millis(500);
        let (instants, cfg) = command_instants(interval, Span::secs(20));
        // One command per grid instant: k = 1 ..= 39 within 20 s.
        assert_eq!(instants.len(), 39);
        let window = cfg.summary_interval.0;
        let mut phases = std::collections::BTreeSet::new();
        for (k, at) in instants.iter().enumerate() {
            let grid = (k as u64 + 1) * interval.0;
            let offset = at.checked_sub(grid).expect("never before its grid instant");
            assert!(offset <= window + 100, "command {k} is {offset} us late");
            phases.insert(offset / 1000);
        }
        // The offsets cover the summary interval rather than repeat.
        assert!(phases.len() >= 6, "phases {phases:?}");
    }
}
