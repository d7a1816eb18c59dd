//! Real-clock multi-threaded hosting substrate for the Spire
//! reproduction.
//!
//! The simulator (`spire-sim`) measures latency *shapes* under a virtual
//! clock on one core; this crate runs the very same actor state machines
//! — Prime replicas, Spines daemons, SCADA masters, proxies and workload
//! devices — on OS threads under monotonic wall-clock time, so throughput
//! is bounded by the hardware, not by one event loop. Actor code is
//! substrate-agnostic: it only sees `spire_sim::Context`, whose services
//! are provided here by a per-worker [`Backend`](spire_sim::world::Backend)
//! built from sharded run queues and the simulator's own
//! [`EventQueue`](spire_sim::EventQueue).
//!
//! The runtime is event-driven ([`runtime`]): each worker runs its due
//! timers and frames in (deadline, insertion) order, as the simulator
//! does; cross-worker traffic coalesces into batch envelopes on
//! exact-accounting [`queue::RunQueue`]s whose containers recycle through
//! per-worker [`pool::Pool`]s; and idle workers park on a condvar until
//! exactly their event queue's next deadline.
//!
//! Build a deployment exactly as for the simulator, dismantle the
//! assembled world with `World::into_fabric`, and hand the fabric to
//! [`Runtime::from_fabric`].

pub mod pool;
pub mod queue;
pub mod runtime;

pub use pool::Pool;
pub use queue::RunQueue;
pub use runtime::{RtConfig, RtGauges, RtHooks, RtRun, Runtime};
