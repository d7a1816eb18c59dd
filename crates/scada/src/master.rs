//! The replicated SCADA master: the application state machine ordered by
//! Prime. It maintains the grid state (per-RTU registers and breakers),
//! raises events toward the HMI, and emits supervisory commands toward RTU
//! proxies as replica notifications.

use crate::op::{CommandAction, RtuReadout, ScadaNotify, ScadaOp};
use spire_prime::{Application, ClientId, ExecResult, Notification};
use spire_shard::msg::op_tag;
use spire_shard::{CertVerifier, ShardMsg, XParticipant, XShardLedger};
use spire_sim::{impl_wire, Counted, Wire, WireError};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Static wiring of the SCADA deployment, identical on every replica.
#[derive(Clone, Debug, Default)]
pub struct ScadaDirectory {
    /// RTU id -> the Prime client id of its proxy.
    pub rtu_proxy: BTreeMap<u32, u32>,
    /// Client ids of HMIs (receive event notifications).
    pub hmis: Vec<u32>,
}

#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct RtuState {
    registers: BTreeMap<u16, u16>,
    breakers: BTreeMap<u8, bool>,
    last_update_us: u64,
    updates_applied: u64,
}

impl_wire!(struct RtuState {
    last_update_us, updates_applied, registers as Counted<u16>, breakers as Counted<u8>,
});

/// The grid model every replica holds: a snapshot is this, plus the 2PC
/// participant when sharded.
#[derive(Clone, Debug, Default)]
struct Grid {
    rtus: BTreeMap<u32, RtuState>,
    /// Deterministic per-target notification counters.
    nseq: BTreeMap<u32, u64>,
    events: u64,
}

impl_wire!(struct Grid { rtus, nseq, events });

/// Cross-shard wiring for a sharded deployment: the 2PC participant state
/// machine plus the (non-replicated) certificate verifier and decision
/// ledger shared with the invariant checker.
#[derive(Clone, Debug)]
pub struct XShardContext {
    /// Ordered, deterministic participant state (part of snapshots).
    pub participant: XParticipant,
    /// Verifies prepare certificates from any coordinator group.
    pub verifier: CertVerifier,
    /// Deployment-wide atomicity ledger (side channel, not state).
    pub ledger: Arc<XShardLedger>,
}

/// The replicated state machine.
#[derive(Clone, Debug, Default)]
pub struct ScadaMaster {
    directory: ScadaDirectory,
    grid: Grid,
    /// Present only in sharded deployments.
    xshard: Option<XShardContext>,
}

impl ScadaMaster {
    /// Creates a master with the deployment directory.
    pub fn new(directory: ScadaDirectory) -> ScadaMaster {
        ScadaMaster {
            directory,
            ..Default::default()
        }
    }

    /// Enables cross-shard transaction participation.
    pub fn with_xshard(mut self, ctx: XShardContext) -> ScadaMaster {
        self.xshard = Some(ctx);
        self
    }

    /// Applies a supervisory action to the model and notifies the target
    /// RTU's proxy, if it has one — shared by HMI commands and committed
    /// cross-shard transactions.
    fn actuate(&mut self, rtu: u32, ts_us: u64, action: CommandAction) -> Option<Notification> {
        let state = self.grid.rtus.entry(rtu).or_default();
        match action {
            CommandAction::OpenBreaker(b) | CommandAction::CloseBreaker(b) => {
                let closed = matches!(action, CommandAction::CloseBreaker(_));
                state.breakers.insert(b, closed);
            }
            CommandAction::SetRegister(a, v) => {
                state.registers.insert(a, v);
            }
        }
        let proxy = self.directory.rtu_proxy.get(&rtu).copied()?;
        Some(self.notify(proxy, &ScadaNotify::Command { rtu, ts_us, action }))
    }

    /// Executes an ordered cross-shard operation through the embedded
    /// participant, applying own-shard commands on a first commit.
    fn execute_xshard(&mut self, op: &[u8]) -> ExecResult {
        let Some(ctx) = self.xshard.as_mut() else {
            return ExecResult::reply(b"err:not-sharded".to_vec());
        };
        let Ok(msg) = ShardMsg::decode(op) else {
            return ExecResult::reply(b"err:decode".to_vec());
        };
        let verifier = ctx.verifier.clone();
        let outcome = ctx.participant.execute(&msg, &verifier);
        if let Some(decision) = &outcome.decision {
            ctx.ledger.record(
                decision.xid,
                ctx.participant.shard(),
                decision.shards.len() as u32,
                decision.decision,
            );
        }
        let ts_us = match &msg {
            ShardMsg::XCommit { ts_us, .. } => *ts_us,
            _ => 0,
        };
        let mut notifications = Vec::new();
        for cmd in &outcome.applies {
            let action = match cmd.kind {
                spire_shard::msg::cmd_kind::OPEN_BREAKER => CommandAction::OpenBreaker(cmd.a as u8),
                spire_shard::msg::cmd_kind::CLOSE_BREAKER => {
                    CommandAction::CloseBreaker(cmd.a as u8)
                }
                spire_shard::msg::cmd_kind::SET_REGISTER => {
                    CommandAction::SetRegister(cmd.a, cmd.b)
                }
                _ => continue,
            };
            notifications.extend(self.actuate(cmd.rtu, ts_us, action));
        }
        ExecResult {
            reply: outcome.reply,
            notifications,
        }
    }

    fn notify(&mut self, target: u32, payload: &ScadaNotify) -> Notification {
        let counter = self.grid.nseq.entry(target).or_insert(0);
        *counter += 1;
        Notification {
            target: ClientId(target),
            nseq: *counter,
            payload: payload.to_wire(24).into_vec(),
        }
    }

    /// Number of updates applied for an RTU (0 if unknown).
    pub fn updates_applied(&self, rtu: u32) -> u64 {
        self.grid
            .rtus
            .get(&rtu)
            .map(|r| r.updates_applied)
            .unwrap_or(0)
    }

    /// Current breaker state, if known.
    pub fn breaker(&self, rtu: u32, breaker: u8) -> Option<bool> {
        self.grid.rtus.get(&rtu)?.breakers.get(&breaker).copied()
    }

    /// Current register value, if known.
    pub fn register(&self, rtu: u32, addr: u16) -> Option<u16> {
        self.grid.rtus.get(&rtu)?.registers.get(&addr).copied()
    }

    fn readout(&self, rtu: u32) -> RtuReadout {
        match self.grid.rtus.get(&rtu) {
            Some(state) => RtuReadout::Known {
                rtu,
                last_update_us: state.last_update_us,
                registers: state.registers.clone(),
                breakers: state.breakers.clone(),
            },
            None => RtuReadout::Unknown { rtu },
        }
    }
}

impl Application for ScadaMaster {
    fn classify(&self, op: &[u8]) -> Option<&'static str> {
        if op.first().is_some_and(|&b| ShardMsg::is_shard_op(b)) {
            return Some(match op[0] {
                op_tag::XPREPARE => "xshard.prepare",
                op_tag::XCOMMIT => "xshard.commit",
                _ => "xshard.abort",
            });
        }
        Some(match ScadaOp::decode(op) {
            Ok(ScadaOp::DeviceUpdate { .. }) => "scada.device_update",
            Ok(ScadaOp::Command { .. }) => "scada.command",
            Ok(ScadaOp::ReadState { .. }) => "scada.read_state",
            Err(_) => "scada.bad_op",
        })
    }

    fn execute(&mut self, op: &[u8]) -> ExecResult {
        if op.first().is_some_and(|&b| ShardMsg::is_shard_op(b)) {
            return self.execute_xshard(op);
        }
        let Ok(op) = ScadaOp::decode(op) else {
            return ExecResult::reply(b"err:decode".to_vec());
        };
        match op {
            ScadaOp::DeviceUpdate {
                rtu,
                ts_us,
                registers,
                breakers,
            } => {
                let mut breaker_events: Vec<(u8, bool)> = Vec::new();
                let state = self.grid.rtus.entry(rtu).or_default();
                state.registers.extend(registers);
                for (breaker, closed) in breakers {
                    let old = state.breakers.insert(breaker, closed);
                    if old.is_some() && old != Some(closed) {
                        breaker_events.push((breaker, closed));
                    }
                }
                state.last_update_us = ts_us;
                state.updates_applied += 1;
                // Unexpected breaker transitions are alarms pushed to HMIs.
                let mut notifications = Vec::new();
                for (breaker, closed) in breaker_events {
                    self.grid.events += 1;
                    let event = ScadaNotify::BreakerEvent {
                        rtu,
                        breaker,
                        closed,
                    };
                    for hmi in self.directory.hmis.clone() {
                        notifications.push(self.notify(hmi, &event));
                    }
                }
                ExecResult {
                    reply: (*b"ok", ts_us).to_wire(10).into_vec(),
                    notifications,
                }
            }
            ScadaOp::Command { rtu, ts_us, action } => {
                // Apply optimistically to the model (the authoritative state
                // arrives with the next device update) and forward the
                // command to the RTU's proxy.
                ExecResult {
                    reply: b"ok:cmd".to_vec(),
                    notifications: self.actuate(rtu, ts_us, action).into_iter().collect(),
                }
            }
            ScadaOp::ReadState { rtu } => {
                ExecResult::reply(self.readout(rtu).to_wire(32).into_vec())
            }
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut w = self.grid.to_wire(256);
        // A sharded master appends its participant as a present
        // `Option<XParticipant>`; a single group's snapshot ends with the grid.
        if let Some(ctx) = &self.xshard {
            w.bool(true);
            ctx.participant.write(&mut w);
        }
        w.into_vec()
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), WireError> {
        match &mut self.xshard {
            None => self.grid = Grid::decode_all(snapshot)?,
            Some(ctx) => {
                let (grid, participant) = <(Grid, Option<XParticipant>)>::decode_all(snapshot)?;
                ctx.participant = participant.ok_or(WireError::BadTag(0))?;
                self.grid = grid;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn directory() -> ScadaDirectory {
        let mut rtu_proxy = BTreeMap::new();
        rtu_proxy.insert(1, 100);
        ScadaDirectory {
            rtu_proxy,
            hmis: vec![200],
        }
    }

    fn update_op(rtu: u32, ts: u64, breaker_on: bool) -> Vec<u8> {
        ScadaOp::DeviceUpdate {
            rtu,
            ts_us: ts,
            registers: vec![(0, 42)],
            breakers: vec![(0, breaker_on)],
        }
        .encode()
        .to_vec()
    }

    #[test]
    fn updates_apply_and_read_back() {
        let mut master = ScadaMaster::new(directory());
        let out = master.execute(&update_op(1, 10, true));
        assert!(out.reply.starts_with(b"ok"));
        assert!(out.notifications.is_empty(), "first state is not an event");
        assert_eq!(master.register(1, 0), Some(42));
        assert_eq!(master.breaker(1, 0), Some(true));
        assert_eq!(master.updates_applied(1), 1);
    }

    #[test]
    fn breaker_transition_raises_hmi_event() {
        let mut master = ScadaMaster::new(directory());
        master.execute(&update_op(1, 10, true));
        let out = master.execute(&update_op(1, 20, false));
        assert_eq!(out.notifications.len(), 1);
        assert_eq!(out.notifications[0].target, ClientId(200));
        assert_eq!(
            ScadaNotify::decode_all(&out.notifications[0].payload),
            Ok(ScadaNotify::BreakerEvent {
                rtu: 1,
                breaker: 0,
                closed: false
            })
        );
        // Repeating the same state is not an event.
        let out = master.execute(&update_op(1, 30, false));
        assert!(out.notifications.is_empty());
    }

    #[test]
    fn command_notifies_proxy_with_monotone_nseq() {
        let mut master = ScadaMaster::new(directory());
        let cmd = |ts| {
            ScadaOp::Command {
                rtu: 1,
                ts_us: ts,
                action: CommandAction::OpenBreaker(0),
            }
            .encode()
            .to_vec()
        };
        let out1 = master.execute(&cmd(5));
        let out2 = master.execute(&cmd(6));
        assert_eq!(out1.notifications[0].target, ClientId(100));
        assert_eq!(out1.notifications[0].nseq, 1);
        assert_eq!(out2.notifications[0].nseq, 2);
        assert_eq!(
            ScadaNotify::decode_all(&out1.notifications[0].payload),
            Ok(ScadaNotify::Command {
                rtu: 1,
                ts_us: 5,
                action: CommandAction::OpenBreaker(0)
            })
        );
        assert_eq!(master.breaker(1, 0), Some(false));
    }

    #[test]
    fn command_to_unknown_rtu_has_no_proxy_notification() {
        let mut master = ScadaMaster::new(directory());
        let out = master.execute(
            &ScadaOp::Command {
                rtu: 99,
                ts_us: 1,
                action: CommandAction::CloseBreaker(0),
            }
            .encode(),
        );
        assert!(out.notifications.is_empty());
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut master = ScadaMaster::new(directory());
        master.execute(&update_op(1, 10, true));
        master.execute(
            &ScadaOp::Command {
                rtu: 1,
                ts_us: 11,
                action: CommandAction::SetRegister(5, 123),
            }
            .encode(),
        );
        let snap = master.snapshot();
        let mut other = ScadaMaster::new(directory());
        other.restore(&snap).unwrap();
        assert_eq!(other.digest(), master.digest());
        assert_eq!(other.register(1, 5), Some(123));
        // nseq continuity: the restored master continues the counter.
        let out = other.execute(
            &ScadaOp::Command {
                rtu: 1,
                ts_us: 12,
                action: CommandAction::OpenBreaker(0),
            }
            .encode(),
        );
        assert_eq!(out.notifications[0].nseq, 2);
    }

    #[test]
    fn read_state_reply_roundtrips() {
        let mut master = ScadaMaster::new(directory());
        master.execute(&update_op(1, 10, true));
        let read = |master: &mut ScadaMaster, rtu| {
            let out = master.execute(&ScadaOp::ReadState { rtu }.encode());
            RtuReadout::decode_all(&out.reply).unwrap()
        };
        assert_eq!(
            read(&mut master, 1),
            RtuReadout::Known {
                rtu: 1,
                last_update_us: 10,
                registers: [(0, 42)].into(),
                breakers: [(0, true)].into(),
            }
        );
        assert_eq!(read(&mut master, 9), RtuReadout::Unknown { rtu: 9 });
    }

    fn sharded(directory: ScadaDirectory) -> ScadaMaster {
        ScadaMaster::new(directory).with_xshard(XShardContext {
            participant: XParticipant::new(0),
            verifier: CertVerifier {
                keystore: Arc::new(spire_crypto::KeyStore::new()),
                stride: spire_shard::SHARD_KEY_STRIDE,
                replica_base: 1000,
                n: 4,
                client: ClientId(spire_shard::COORD_CLIENT_ID),
                f: 1,
                mock: true,
            },
            ledger: Arc::new(XShardLedger::new()),
        })
    }

    /// A snapshot cut short anywhere — inside the grid, before or inside
    /// the participant — is refused and leaves the master as it was. (The
    /// lenient restore installed the grid and kept a stale participant.)
    #[test]
    fn truncated_snapshots_change_nothing() {
        let shapes = [
            sharded as fn(ScadaDirectory) -> ScadaMaster,
            ScadaMaster::new,
        ];
        let mut snapshots = Vec::new();
        for make in shapes {
            let mut source = make(directory());
            source.execute(&update_op(1, 10, true));
            let prepare = ShardMsg::XPrepare {
                xid: 7,
                coord_shard: 0,
                ts_us: 5,
                shards: vec![0, 1],
                cmds: Vec::new(),
                poison: false,
            };
            let abort = ShardMsg::XAbort {
                xid: 8,
                coord_shard: 0,
                shards: vec![0, 1],
            };
            source.execute(&prepare.encode());
            source.execute(&abort.encode());
            let snap = source.snapshot();
            let mut target = make(directory());
            target.execute(&update_op(2, 3, false));
            let before = target.digest();
            for len in 0..snap.len() {
                assert!(target.restore(&snap[..len]).is_err(), "{len} bytes");
                assert_eq!(target.digest(), before, "{len} bytes");
            }
            target.restore(&snap).unwrap();
            assert_eq!(target.digest(), source.digest());
            snapshots.push(snap);
        }
        // Each shape refuses the other's snapshot whole.
        let mut single = ScadaMaster::new(directory());
        assert_eq!(single.restore(&snapshots[0]), Err(WireError::TrailingBytes));
        let mut group = sharded(directory());
        assert_eq!(group.restore(&snapshots[1]), Err(WireError::Truncated));
    }

    #[test]
    fn determinism_across_instances() {
        let ops: Vec<Vec<u8>> = (0..20)
            .map(|i| update_op(1 + (i % 3), i as u64, i % 2 == 0))
            .collect();
        let mut a = ScadaMaster::new(directory());
        let mut b = ScadaMaster::new(directory());
        for op in &ops {
            let ra = a.execute(op);
            let rb = b.execute(op);
            assert_eq!(ra, rb);
        }
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn garbage_op_is_rejected_gracefully() {
        let mut master = ScadaMaster::new(directory());
        let out = master.execute(b"\xff\xfe");
        assert_eq!(out.reply, b"err:decode".to_vec());
    }
}
