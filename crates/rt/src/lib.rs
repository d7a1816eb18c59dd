//! Real-clock multi-threaded hosting substrate for the Spire
//! reproduction.
//!
//! The simulator (`spire-sim`) measures latency *shapes* under a virtual
//! clock on one core; this crate runs the very same actor state machines
//! on OS threads under monotonic wall-clock time, so throughput is bounded
//! by the hardware, not by one event loop. Each worker thread is a
//! [`spire_sim::Host`] — the simulator's actor table, link model, timers
//! and dispatch — on a monotonic clock, plus an exact-accounting
//! [`queue::RunQueue`] for frames from other workers, batched through
//! per-worker [`pool::Pool`]s ([`runtime`] has the details).
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
