//! Operations of the replicated SCADA master state machine, and what it
//! sends back: notification payloads and `ReadState` replies.

use bytes::Bytes;
use spire_sim::{impl_wire, Counted, Wire, WireError};
use std::collections::BTreeMap;

/// A supervisory control action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommandAction {
    /// Open (trip) a breaker.
    OpenBreaker(u8),
    /// Close a breaker.
    CloseBreaker(u8),
    /// Write a setpoint register.
    SetRegister(u16, u16),
}

impl_wire!(enum CommandAction {
    1 => OpenBreaker(breaker),
    2 => CloseBreaker(breaker),
    3 => SetRegister(addr, value),
});

/// An operation ordered through Prime and executed by every SCADA master.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScadaOp {
    /// A field-device status update forwarded by an RTU proxy.
    DeviceUpdate {
        /// Reporting RTU.
        rtu: u32,
        /// Device timestamp when the measurement was taken (sim µs).
        ts_us: u64,
        /// Register values.
        registers: Vec<(u16, u16)>,
        /// Breaker states.
        breakers: Vec<(u8, bool)>,
    },
    /// A supervisory command issued by an HMI operator.
    Command {
        /// Target RTU.
        rtu: u32,
        /// HMI timestamp when the command was issued (sim µs).
        ts_us: u64,
        /// The action.
        action: CommandAction,
    },
    /// An ordered read of an RTU's state (returns its current registers).
    ReadState {
        /// Target RTU.
        rtu: u32,
    },
}

// `breakers` travels with a one-byte count.
impl_wire!(enum ScadaOp {
    1 => DeviceUpdate { rtu, ts_us, registers, breakers as Counted<u8> },
    2 => Command { rtu, ts_us, action },
    3 => ReadState { rtu },
});

impl ScadaOp {
    /// Encodes the op for submission as a Prime client payload.
    pub fn encode(&self) -> Bytes {
        self.to_wire(32).finish()
    }

    /// Decodes an op.
    pub fn decode(bytes: &[u8]) -> Result<ScadaOp, WireError> {
        ScadaOp::decode_all(bytes)
    }
}

/// A notification payload pushed by every master: a receiver acts on `f + 1`
/// matching ones.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScadaNotify {
    /// An unexpected breaker transition, raised to every HMI.
    BreakerEvent {
        /// Reporting RTU.
        rtu: u32,
        /// The breaker.
        breaker: u8,
        /// New state (true = closed).
        closed: bool,
    },
    /// A supervisory command for the target RTU's proxy to actuate.
    Command {
        /// Target RTU.
        rtu: u32,
        /// HMI timestamp when the command was issued (sim µs).
        ts_us: u64,
        /// The action.
        action: CommandAction,
    },
}

impl_wire!(enum ScadaNotify {
    1 => BreakerEvent { rtu, breaker, closed },
    2 => Command { rtu, ts_us, action },
});

/// The reply to [`ScadaOp::ReadState`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RtuReadout {
    /// No update from this RTU was ever applied.
    Unknown {
        /// The RTU asked about.
        rtu: u32,
    },
    /// The RTU's current model.
    Known {
        /// The RTU asked about.
        rtu: u32,
        /// Device timestamp of the last applied update (sim µs).
        last_update_us: u64,
        /// Register values by address.
        registers: BTreeMap<u16, u16>,
        /// Breaker states by breaker (true = closed).
        breakers: BTreeMap<u8, bool>,
    },
}

impl_wire!(enum RtuReadout {
    0 => Unknown { rtu },
    1 => Known { rtu, last_update_us, registers as Counted<u16>, breakers as Counted<u8> },
});

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(op: ScadaOp) {
        assert_eq!(ScadaOp::decode(&op.encode()).unwrap(), op);
    }

    #[test]
    fn roundtrip_all() {
        roundtrip(ScadaOp::DeviceUpdate {
            rtu: 7,
            ts_us: 99,
            registers: vec![(0, 1), (2, 3)],
            breakers: vec![(0, true)],
        });
        roundtrip(ScadaOp::Command {
            rtu: 7,
            ts_us: 100,
            action: CommandAction::OpenBreaker(2),
        });
        roundtrip(ScadaOp::Command {
            rtu: 7,
            ts_us: 100,
            action: CommandAction::SetRegister(5, 1000),
        });
        roundtrip(ScadaOp::ReadState { rtu: 3 });
    }

    #[test]
    fn rejects_bad_tag() {
        assert!(ScadaOp::decode(&[9]).is_err());
    }
}
