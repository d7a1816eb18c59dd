//! The RTU proxy: bridges a field device to the replicated SCADA masters.
//!
//! Upstream, it wraps device reports as signed Prime client operations;
//! downstream, it actuates a supervisory command on the device only after
//! `f + 1` replicas push matching command notifications — so up to `f`
//! compromised masters cannot actuate anything on their own. Submitting,
//! authenticating each vote and counting to `f + 1` are its
//! [`ClientSession`]'s; the device bridge and the `scada.*` metrics are
//! what is left here.

use crate::modbus::ModbusFrame;
use crate::op::{CommandAction, ScadaNotify, ScadaOp};
use bytes::Bytes;
use spire_prime::{Accepted, ClientSession};
use spire_sim::{span_key, Context, Process, ProcessId, SpanPhase, Wire};

/// The RTU proxy process.
pub struct RtuProxy {
    session: ClientSession,
    /// The RTU this proxy serves.
    pub rtu_id: u32,
    device: ProcessId,
    txn: u16,
    /// Precomputed per-shard metric keys (sharded deployments only) —
    /// emitted alongside the global `scada.*` series.
    scoped: Option<ScopedKeys>,
}

#[derive(Clone, Debug)]
struct ScopedKeys {
    sent: String,
    confirmed: String,
    latency: String,
}

impl RtuProxy {
    /// Creates a proxy for `rtu_id`, bridging `device` to the replicas
    /// `session` talks to.
    pub fn new(session: ClientSession, rtu_id: u32, device: ProcessId) -> RtuProxy {
        RtuProxy {
            session,
            rtu_id,
            device,
            txn: 0,
            scoped: None,
        }
    }

    /// Additionally publishes updates/confirms/latency under
    /// `{scope}.updates_sent` etc. — one scope per shard, so the
    /// aggregate report can break delivery down by group. Keys are
    /// precomputed here to keep the hot path allocation-free.
    pub fn with_metric_scope(mut self, scope: &str) -> RtuProxy {
        self.scoped = Some(ScopedKeys {
            sent: format!("{scope}.updates_sent"),
            confirmed: format!("{scope}.updates_confirmed"),
            latency: format!("{scope}.update_latency_ms"),
        });
        self
    }

    fn on_device_frame(&mut self, ctx: &mut Context<'_>, frame: ModbusFrame) {
        match frame {
            ModbusFrame::Report {
                ts_us,
                registers,
                coils,
            } => {
                let op = ScadaOp::DeviceUpdate {
                    rtu: self.rtu_id,
                    ts_us,
                    registers,
                    breakers: coils,
                };
                let span = span_key(self.session.id().0, self.session.next_cseq());
                ctx.span_mark(span, SpanPhase::Submit);
                self.session.submit(ctx, op.encode());
                ctx.count("scada.updates_sent", 1);
                if let Some(scoped) = &self.scoped {
                    ctx.count(&scoped.sent, 1);
                }
            }
            ModbusFrame::WriteAck { .. } => {
                ctx.count("scada.device_acks", 1);
            }
            _ => {}
        }
    }

    /// Applies an f+1-agreed supervisory command to the device.
    fn actuate(&mut self, ctx: &mut Context<'_>, payload: &[u8]) {
        let Ok(ScadaNotify::Command { ts_us, action, .. }) = ScadaNotify::decode_all(payload)
        else {
            return;
        };
        self.txn = self.txn.wrapping_add(1);
        let txn = self.txn;
        let frame = match action {
            CommandAction::OpenBreaker(coil) | CommandAction::CloseBreaker(coil) => {
                let on = matches!(action, CommandAction::CloseBreaker(_));
                ModbusFrame::WriteCoil { txn, coil, on }
            }
            CommandAction::SetRegister(addr, value) => {
                ModbusFrame::WriteRegister { txn, addr, value }
            }
        };
        ctx.send(self.device, frame.encode());
        ctx.count("scada.commands_actuated", 1);
        // End-to-end command latency: HMI issue time -> actuation.
        let latency = (ctx.now().0.saturating_sub(ts_us)) as f64 / 1000.0;
        ctx.record("scada.command_latency_ms", latency);
    }
}

impl Process for RtuProxy {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.session.start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: ProcessId, bytes: &Bytes) {
        if from == self.device {
            if let Ok(frame) = ModbusFrame::decode(bytes) {
                self.on_device_frame(ctx, frame);
            }
            return;
        }
        match self.session.on_message(ctx, from, bytes) {
            Some(Accepted::Reply { cseq, sent, .. }) => {
                let latency = ctx.now().since(sent).as_millis_f64();
                ctx.record("scada.update_latency_ms", latency);
                if let Some(scoped) = &self.scoped {
                    ctx.record(&scoped.latency, latency);
                }
                ctx.span_mark(span_key(self.session.id().0, cseq), SpanPhase::Confirm);
                ctx.count("scada.updates_confirmed", 1);
                if let Some(scoped) = &self.scoped {
                    ctx.count(&scoped.confirmed, 1);
                }
            }
            Some(Accepted::Notify { payload, .. }) => self.actuate(ctx, &payload),
            None => {}
        }
    }
}

impl std::fmt::Debug for RtuProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtuProxy")
            .field("rtu", &self.rtu_id)
            .field("session", &self.session)
            .finish()
    }
}
