//! The SCADA layer of the Spire reproduction: the replicated SCADA master
//! state machine, RTU/PLC field devices with a Modbus-like protocol, the
//! proxies that bridge them to the replicated masters, the HMI, and the
//! synthetic power-grid workload.
//!
//! Data flows exactly as in the paper:
//!
//! ```text
//! RTU --report--> RtuProxy --signed op--> Prime replicas (ScadaMaster each)
//! HMI --command-> Prime replicas --f+1 matching notifications--> RtuProxy --write--> RTU
//! ```
//!
//! * [`master`] — the deterministic [`spire_prime::Application`] holding
//!   grid state; pushes commands and alarms as replica notifications.
//! * [`device`] — emulated RTUs/PLCs sampling a synthetic process.
//! * [`modbus`] — the proxy <-> device protocol.
//! * [`proxy`] — RTU proxies enforcing `f + 1` agreement before actuation.
//! * [`hmi`] — operator consoles issuing supervisory commands.
//! * [`historian`] — an archive of f+1-validated grid events.
//! * [`op`] — the ordered operations, the notifications and the read-outs.
//! * [`workload`] — load curves and deployment-wide workload parameters.

pub mod device;
pub mod historian;
pub mod hmi;
pub mod master;
pub mod modbus;
pub mod op;
pub mod proxy;
pub mod workload;

pub use device::Rtu;
pub use historian::{Archive, BreakerEvent, Historian};
pub use hmi::Hmi;
pub use master::{ScadaDirectory, ScadaMaster, XShardContext};
pub use modbus::ModbusFrame;
pub use op::{CommandAction, RtuReadout, ScadaNotify, ScadaOp};
pub use proxy::RtuProxy;
pub use workload::{ProcessModel, WorkloadConfig};
