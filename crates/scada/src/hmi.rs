//! The human-machine interface: issues supervisory commands to the
//! replicated masters and receives alarms (breaker events).

use crate::op::{CommandAction, ScadaNotify, ScadaOp};
use bytes::Bytes;
use rand::Rng;
use spire_prime::{Accepted, ClientSession};
use spire_sim::{span_key, Context, Process, ProcessId, Span, SpanPhase, Time, Wire};

const TIMER_COMMAND: u64 = 1;
const TIMER_POLL: u64 = 2;

/// An HMI operator console process.
pub struct Hmi {
    session: ClientSession,
    /// RTUs the operator cycles commands through.
    targets: Vec<u32>,
    command_interval: Span,
    max_commands: u64,
    poll_interval: Span,
    /// Grid instant of the command being waited for.
    next_command: Time,

    issued: u64,
    next_target: usize,
    breaker_open: bool,
    poll_cseqs: std::collections::BTreeSet<u64>,
}

impl Hmi {
    /// Creates an HMI issuing a command every `command_interval` to the
    /// given RTUs, alternating open/close (0 `max_commands` = unlimited).
    pub fn new(
        session: ClientSession,
        targets: Vec<u32>,
        command_interval: Span,
        max_commands: u64,
    ) -> Hmi {
        Hmi {
            session,
            targets,
            command_interval,
            max_commands,
            poll_interval: Span::ZERO,
            next_command: Time(0),
            issued: 0,
            next_target: 0,
            breaker_open: true,
            poll_cseqs: Default::default(),
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
        let offset = ctx.rng().gen_range(0..=spire_prime::SUMMARY_INTERVAL.0);
        let at = self.next_command.0 + offset;
        ctx.set_timer(Span(at.saturating_sub(ctx.now().0)), TIMER_COMMAND);
    }

    fn issue_poll(&mut self, ctx: &mut Context<'_>) {
        if self.targets.is_empty() {
            return;
        }
        let rtu = self.targets[self.next_target % self.targets.len()];
        let op = ScadaOp::ReadState { rtu };
        let cseq = self.session.submit(ctx, op.encode());
        self.poll_cseqs.insert(cseq);
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
        self.issued += 1;
        let span = span_key(self.session.id().0, self.session.next_cseq());
        ctx.span_mark(span, SpanPhase::Submit);
        self.session.submit(ctx, op.encode());
        ctx.count("hmi.commands_sent", 1);
    }
}

impl Process for Hmi {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.session.start(ctx);
        if self.command_interval.0 > 0 {
            self.next_command = ctx.now();
            self.arm_command_timer(ctx);
        }
        if self.poll_interval.0 > 0 {
            ctx.set_timer(self.poll_interval, TIMER_POLL);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: ProcessId, bytes: &Bytes) {
        match self.session.on_message(ctx, from, bytes) {
            Some(Accepted::Reply { cseq, sent, .. }) => {
                let latency = ctx.now().since(sent).as_millis_f64();
                if self.poll_cseqs.remove(&cseq) {
                    ctx.record("hmi.poll_latency_ms", latency);
                    ctx.count("hmi.polls_acked", 1);
                } else {
                    ctx.record("hmi.command_ack_ms", latency);
                    ctx.span_mark(span_key(self.session.id().0, cseq), SpanPhase::Confirm);
                    ctx.count("hmi.commands_acked", 1);
                }
            }
            Some(Accepted::Notify { payload, .. })
                if matches!(
                    ScadaNotify::decode_all(&payload),
                    Ok(ScadaNotify::BreakerEvent { .. })
                ) =>
            {
                ctx.count("hmi.alarms", 1);
            }
            _ => {}
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
            .field("session", &self.session)
            .field("issued", &self.issued)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spire_crypto::keys::{KeyMaterial, Signer};
    use spire_crypto::{KeyStore, NodeId};
    use spire_prime::{ClientId, ClientRouting, PrimeConfig};
    use spire_sim::World;
    use std::sync::Arc;

    /// The instants (µs) at which a lone HMI issued its commands.
    fn command_instants(interval: Span, run: Span) -> Vec<u64> {
        let cfg = PrimeConfig::new(1, 0);
        let signer = Signer::new(KeyMaterial::new([7u8; 32]).signing_key(NodeId(9)), true);
        let routing = ClientRouting::Direct(Vec::new());
        let session = ClientSession::new(
            &cfg,
            ClientId(9),
            signer,
            routing,
            Arc::new(KeyStore::new()),
        );
        let hmi = Hmi::new(session, vec![0], interval, 0);
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
        instants
    }

    #[test]
    fn commands_keep_their_grid_and_leave_the_replicas_tick_phase() {
        let interval = Span::millis(500);
        let instants = command_instants(interval, Span::secs(20));
        // One command per grid instant: k = 1 ..= 39 within 20 s.
        assert_eq!(instants.len(), 39);
        let window = spire_prime::SUMMARY_INTERVAL.0;
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
