//! Property-based tests of the SCADA layer: codec roundtrips and state
//! machine determinism/snapshot fidelity under arbitrary op sequences.

use proptest::prelude::*;
use spire_prime::Application;
use spire_scada::{CommandAction, ModbusFrame, ScadaDirectory, ScadaMaster, ScadaOp};

fn arb_action() -> impl Strategy<Value = CommandAction> {
    prop_oneof![
        any::<u8>().prop_map(CommandAction::OpenBreaker),
        any::<u8>().prop_map(CommandAction::CloseBreaker),
        (any::<u16>(), any::<u16>()).prop_map(|(a, v)| CommandAction::SetRegister(a, v)),
    ]
}

fn arb_op() -> impl Strategy<Value = ScadaOp> {
    prop_oneof![
        (
            0u32..8,
            any::<u64>(),
            proptest::collection::vec((any::<u16>(), any::<u16>()), 0..8),
            proptest::collection::vec((any::<u8>(), any::<bool>()), 0..4),
        )
            .prop_map(|(rtu, ts_us, registers, breakers)| ScadaOp::DeviceUpdate {
                rtu,
                ts_us,
                registers,
                breakers,
            }),
        (0u32..8, any::<u64>(), arb_action())
            .prop_map(|(rtu, ts_us, action)| { ScadaOp::Command { rtu, ts_us, action } }),
        (0u32..8).prop_map(|rtu| ScadaOp::ReadState { rtu }),
    ]
}

fn arb_modbus() -> impl Strategy<Value = ModbusFrame> {
    prop_oneof![
        (any::<u16>(), any::<u16>(), any::<u16>())
            .prop_map(|(txn, addr, count)| ModbusFrame::ReadRegisters { txn, addr, count }),
        (
            any::<u16>(),
            any::<u16>(),
            proptest::collection::vec(any::<u16>(), 0..16)
        )
            .prop_map(|(txn, addr, values)| ModbusFrame::ReadResponse {
                txn,
                addr,
                values
            }),
        (any::<u16>(), any::<u8>(), any::<bool>())
            .prop_map(|(txn, coil, on)| ModbusFrame::WriteCoil { txn, coil, on }),
        (any::<u16>(), any::<u16>(), any::<u16>())
            .prop_map(|(txn, addr, value)| ModbusFrame::WriteRegister { txn, addr, value }),
        any::<u16>().prop_map(|txn| ModbusFrame::WriteAck { txn }),
        (
            any::<u64>(),
            proptest::collection::vec((any::<u16>(), any::<u16>()), 0..16),
            proptest::collection::vec((any::<u8>(), any::<bool>()), 0..8),
        )
            .prop_map(|(ts_us, registers, coils)| ModbusFrame::Report {
                ts_us,
                registers,
                coils,
            }),
    ]
}

fn directory() -> ScadaDirectory {
    let mut d = ScadaDirectory::default();
    for r in 0..8 {
        d.rtu_proxy.insert(r, 100 + r);
    }
    d.hmis.push(500);
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn scada_op_roundtrip(op in arb_op()) {
        prop_assert_eq!(ScadaOp::decode(&op.encode()).unwrap(), op);
    }

    #[test]
    fn modbus_roundtrip(frame in arb_modbus()) {
        prop_assert_eq!(ModbusFrame::decode(&frame.encode()).unwrap(), frame);
    }

    #[test]
    fn scada_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = ScadaOp::decode(&bytes);
        let _ = ModbusFrame::decode(&bytes);
    }

    #[test]
    fn master_determinism(ops in proptest::collection::vec(arb_op(), 0..64)) {
        let mut a = ScadaMaster::new(directory());
        let mut b = ScadaMaster::new(directory());
        for op in &ops {
            let encoded = op.encode();
            prop_assert_eq!(a.execute(&encoded), b.execute(&encoded));
        }
        prop_assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn master_snapshot_restore_is_exact(ops in proptest::collection::vec(arb_op(), 0..48),
                                        tail in proptest::collection::vec(arb_op(), 0..16)) {
        let mut original = ScadaMaster::new(directory());
        for op in &ops {
            original.execute(&op.encode());
        }
        let mut restored = ScadaMaster::new(directory());
        restored.restore(&original.snapshot()).unwrap();
        prop_assert_eq!(restored.digest(), original.digest());
        // Continued execution stays in lockstep (nseq counters included).
        for op in &tail {
            let encoded = op.encode();
            prop_assert_eq!(restored.execute(&encoded), original.execute(&encoded));
        }
    }
}
