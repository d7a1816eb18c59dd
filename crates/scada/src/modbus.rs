//! A Modbus-like field-device protocol.
//!
//! Spire's proxies speak Modbus/DNP3 to PLCs and RTUs; this module provides
//! the equivalent device protocol for the emulated field devices: holding
//! registers (analog measurements, setpoints) and coils (breakers).

use bytes::Bytes;
use spire_sim::{impl_wire, Counted, Wire, WireError};

/// A device-protocol frame between a proxy and a field device.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModbusFrame {
    /// Read `count` holding registers starting at `addr`.
    ReadRegisters {
        /// Correlates request and response.
        txn: u16,
        /// First register.
        addr: u16,
        /// Number of registers.
        count: u16,
    },
    /// Response carrying register values.
    ReadResponse {
        /// Echoed transaction id.
        txn: u16,
        /// First register.
        addr: u16,
        /// Values.
        values: Vec<u16>,
    },
    /// Write a single coil (breaker): `true` = closed.
    WriteCoil {
        /// Transaction id.
        txn: u16,
        /// Coil number.
        coil: u8,
        /// Desired state.
        on: bool,
    },
    /// Write a single holding register (setpoint).
    WriteRegister {
        /// Transaction id.
        txn: u16,
        /// Register address.
        addr: u16,
        /// Value.
        value: u16,
    },
    /// Acknowledgement of a write.
    WriteAck {
        /// Echoed transaction id.
        txn: u16,
    },
    /// Unsolicited periodic status report from the device.
    Report {
        /// Device-local timestamp (simulation microseconds).
        ts_us: u64,
        /// Register values `(addr, value)`.
        registers: Vec<(u16, u16)>,
        /// Coil states `(coil, closed)`.
        coils: Vec<(u8, bool)>,
    },
}

// `coils` travels with a one-byte count.
impl_wire!(enum ModbusFrame {
    3 => ReadRegisters { txn, addr, count },
    4 => ReadResponse { txn, addr, values },
    5 => WriteCoil { txn, coil, on },
    6 => WriteRegister { txn, addr, value },
    7 => WriteAck { txn },
    8 => Report { ts_us, registers, coils as Counted<u8> },
});

impl ModbusFrame {
    /// Encodes the frame.
    pub fn encode(&self) -> Bytes {
        self.to_wire(32).finish()
    }

    /// Decodes a frame.
    pub fn decode(bytes: &[u8]) -> Result<ModbusFrame, WireError> {
        ModbusFrame::decode_all(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: ModbusFrame) {
        assert_eq!(ModbusFrame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn roundtrip_all() {
        roundtrip(ModbusFrame::ReadRegisters {
            txn: 1,
            addr: 10,
            count: 4,
        });
        roundtrip(ModbusFrame::ReadResponse {
            txn: 1,
            addr: 10,
            values: vec![5, 6, 7],
        });
        roundtrip(ModbusFrame::WriteCoil {
            txn: 2,
            coil: 3,
            on: true,
        });
        roundtrip(ModbusFrame::WriteRegister {
            txn: 3,
            addr: 20,
            value: 999,
        });
        roundtrip(ModbusFrame::WriteAck { txn: 3 });
        roundtrip(ModbusFrame::Report {
            ts_us: 123456,
            registers: vec![(0, 100), (1, 200)],
            coils: vec![(0, true), (1, false)],
        });
    }

    #[test]
    fn rejects_garbage() {
        assert!(ModbusFrame::decode(&[0xaa, 0xbb]).is_err());
        assert!(ModbusFrame::decode(&[]).is_err());
    }
}
