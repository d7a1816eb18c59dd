//! The RTU proxy: bridges a field device to the replicated SCADA masters.
//!
//! Upstream, it wraps device reports as signed Prime client operations;
//! downstream, it actuates a supervisory command on the device only after
//! `f + 1` replicas push matching command notifications — so up to `f`
//! compromised masters cannot actuate anything on their own.

use crate::master::notify_kind;
use crate::modbus::ModbusFrame;
use crate::op::ScadaOp;
use bytes::Bytes;
use spire_crypto::keys::Signer;
use spire_prime::client::ClientRouting;
use spire_prime::{ClientId, ClientOp, PrimeConfig, PrimeMsg};
use spire_sim::{span_key, Context, Process, ProcessId, SpanPhase, Time, WireReader};
use std::collections::BTreeMap;

/// Collects per-key votes from replicas and fires once `quorum` of them
/// agree on identical bytes.
///
/// After a key fires, votes keep being tallied: if a *different* value
/// later gathers a full quorum for the same key, two disjoint quorums
/// accepted conflicting values — impossible with at most `f` faults, so
/// it is recorded as a conflict and surfaced to the invariant checker
/// via `take_conflicts`.
#[derive(Clone, Debug, Default)]
pub struct QuorumTracker {
    votes: BTreeMap<u64, BTreeMap<u32, Vec<u8>>>,
    /// key -> hash of the payload that won, once fired.
    fired: BTreeMap<u64, u64>,
    conflicts: u64,
}

/// FNV-1a, enough to distinguish the fired payload without storing it.
fn payload_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl QuorumTracker {
    /// Records a vote; returns the agreed payload the first time `quorum`
    /// matching votes exist for `key`.
    pub fn vote(
        &mut self,
        key: u64,
        replica: u32,
        payload: &[u8],
        quorum: usize,
    ) -> Option<Vec<u8>> {
        let votes = self.votes.entry(key).or_default();
        votes.insert(replica, payload.to_vec());
        let mut tallies: BTreeMap<&[u8], usize> = BTreeMap::new();
        for v in votes.values() {
            *tallies.entry(v.as_slice()).or_insert(0) += 1;
        }
        let winner = tallies
            .into_iter()
            .find(|(_, count)| *count >= quorum)
            .map(|(payload, _)| payload.to_vec());
        if let Some(decided) = self.fired.get(&key).copied() {
            // Already decided: watch for a second, conflicting quorum.
            if let Some(payload) = winner {
                if payload_hash(&payload) != decided {
                    self.conflicts += 1;
                }
                self.votes.remove(&key);
            }
            return None;
        }
        if let Some(payload) = winner {
            self.fired.insert(key, payload_hash(&payload));
            self.votes.remove(&key);
            // Bound memory.
            if self.fired.len() > 100_000 {
                let first = *self.fired.keys().next().unwrap();
                self.fired.remove(&first);
            }
            return Some(payload);
        }
        None
    }

    /// Drains the count of conflicting quorum decisions observed since
    /// the last call (each is a client-visible safety violation).
    pub fn take_conflicts(&mut self) -> u64 {
        std::mem::take(&mut self.conflicts)
    }
}

/// The RTU proxy process.
pub struct RtuProxy {
    cfg: PrimeConfig,
    /// The RTU this proxy serves.
    pub rtu_id: u32,
    client_id: ClientId,
    signer: Signer,
    routing: ClientRouting,
    device: ProcessId,

    cseq: u64,
    sent_at: BTreeMap<u64, Time>,
    replies: QuorumTracker,
    notifies: QuorumTracker,
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
    /// Creates a proxy for `rtu_id`, bridging `device` to the replicas.
    pub fn new(
        cfg: PrimeConfig,
        rtu_id: u32,
        client_id: ClientId,
        signer: Signer,
        routing: ClientRouting,
        device: ProcessId,
    ) -> RtuProxy {
        RtuProxy {
            cfg,
            rtu_id,
            client_id,
            signer,
            routing,
            device,
            cseq: 0,
            sent_at: BTreeMap::new(),
            replies: QuorumTracker::default(),
            notifies: QuorumTracker::default(),
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

    fn submit(&mut self, ctx: &mut Context<'_>, op: ScadaOp) {
        self.cseq += 1;
        let client_op = ClientOp::signed(self.client_id, self.cseq, op.encode(), &self.signer);
        let msg = PrimeMsg::Op(client_op).encode();
        self.sent_at.insert(self.cseq, ctx.now());
        ctx.span_mark(span_key(self.client_id.0, self.cseq), SpanPhase::Submit);
        self.routing.send_all(ctx, msg);
        ctx.count("scada.updates_sent", 1);
        if let Some(scoped) = &self.scoped {
            ctx.count(&scoped.sent, 1);
        }
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
                self.submit(ctx, op);
            }
            ModbusFrame::WriteAck { .. } => {
                ctx.count("scada.device_acks", 1);
            }
            _ => {}
        }
    }

    fn on_prime_msg(&mut self, ctx: &mut Context<'_>, msg: PrimeMsg) {
        let quorum = (self.cfg.f + 1) as usize;
        match msg {
            PrimeMsg::Reply {
                replica,
                client,
                cseq,
                result,
                ..
            } => {
                if client != self.client_id {
                    return;
                }
                if self
                    .replies
                    .vote(cseq, replica.0, &result, quorum)
                    .is_some()
                {
                    if let Some(sent) = self.sent_at.remove(&cseq) {
                        let latency = ctx.now().since(sent).as_millis_f64();
                        ctx.record("scada.update_latency_ms", latency);
                        if let Some(scoped) = &self.scoped {
                            ctx.record(&scoped.latency, latency);
                        }
                    }
                    ctx.span_mark(span_key(self.client_id.0, cseq), SpanPhase::Confirm);
                    ctx.count("scada.updates_confirmed", 1);
                    if let Some(scoped) = &self.scoped {
                        ctx.count(&scoped.confirmed, 1);
                    }
                }
            }
            PrimeMsg::Notify {
                replica,
                client,
                nseq,
                payload,
                ..
            } => {
                if client != self.client_id {
                    return;
                }
                if let Some(agreed) = self.notifies.vote(nseq, replica.0, &payload, quorum) {
                    self.actuate(ctx, &agreed);
                }
            }
            _ => {}
        }
        let conflicts = self.replies.take_conflicts() + self.notifies.take_conflicts();
        if conflicts > 0 {
            ctx.count("scada.conflicting_accept", conflicts);
        }
    }

    /// Applies an f+1-agreed supervisory command to the device.
    fn actuate(&mut self, ctx: &mut Context<'_>, payload: &[u8]) {
        let mut r = WireReader::new(payload);
        let Ok(kind) = r.u8() else { return };
        if kind != notify_kind::COMMAND {
            return;
        }
        let (Ok(_rtu), Ok(ts_us)) = (r.u32(), r.u64()) else {
            return;
        };
        let Ok(action) = r.u8() else { return };
        self.txn = self.txn.wrapping_add(1);
        let frame = match action {
            1 => {
                let Ok(coil) = r.u8() else { return };
                ModbusFrame::WriteCoil {
                    txn: self.txn,
                    coil,
                    on: false,
                }
            }
            2 => {
                let Ok(coil) = r.u8() else { return };
                ModbusFrame::WriteCoil {
                    txn: self.txn,
                    coil,
                    on: true,
                }
            }
            3 => {
                let (Ok(addr), Ok(value)) = (r.u16(), r.u16()) else {
                    return;
                };
                ModbusFrame::WriteRegister {
                    txn: self.txn,
                    addr,
                    value,
                }
            }
            _ => return,
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
        if let ClientRouting::Spines { port, .. } = &self.routing {
            port.attach(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: ProcessId, bytes: &Bytes) {
        if from == self.device {
            if let Ok(frame) = ModbusFrame::decode(bytes) {
                self.on_device_frame(ctx, frame);
            }
            return;
        }
        let payload = match &self.routing {
            ClientRouting::Direct(_) => bytes.clone(),
            ClientRouting::Spines { .. } => match spire_spines::SpinesPort::decode_deliver(bytes) {
                Some((_, payload)) => payload,
                None => return,
            },
        };
        if let Ok(msg) = spire_prime::decode_enclosed(&payload) {
            self.on_prime_msg(ctx, msg);
        }
    }
}

impl std::fmt::Debug for RtuProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtuProxy")
            .field("rtu", &self.rtu_id)
            .field("client", &self.client_id)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_tracker_fires_once_at_quorum() {
        let mut t = QuorumTracker::default();
        assert!(t.vote(1, 0, b"x", 2).is_none());
        assert_eq!(t.vote(1, 1, b"x", 2), Some(b"x".to_vec()));
        assert!(t.vote(1, 2, b"x", 2).is_none(), "must fire only once");
    }

    #[test]
    fn quorum_tracker_requires_matching_payloads() {
        let mut t = QuorumTracker::default();
        assert!(t.vote(1, 0, b"a", 2).is_none());
        assert!(t.vote(1, 1, b"b", 2).is_none());
        assert_eq!(t.vote(1, 2, b"a", 2), Some(b"a".to_vec()));
    }

    #[test]
    fn quorum_tracker_replica_revote_does_not_double_count() {
        let mut t = QuorumTracker::default();
        assert!(t.vote(1, 0, b"a", 2).is_none());
        assert!(t.vote(1, 0, b"a", 2).is_none(), "same replica twice");
    }
}
