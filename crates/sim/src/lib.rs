//! Deterministic discrete-event simulation substrate for the Spire
//! reproduction.
//!
//! The DSN 2018 Spire paper evaluates on a physical LAN testbed and an
//! emulated wide-area network. This crate is the substitute substrate (see
//! DESIGN.md): protocol logic runs unchanged as event-driven state machines
//! over a network model with per-link latency, jitter, loss, bandwidth
//! queueing, partitions and host crash/restart — all under virtual time with
//! a seeded RNG, so every experiment is exactly reproducible.
//!
//! * [`world`] — the event loop, processes, the link model and the
//!   control plane.
//! * [`host`] — the actor table, links, timers, send and dispatch both
//!   substrates run on.
//! * [`queue`] — the (deadline, insertion)-ordered event queue both
//!   substrates schedule from.
//! * [`clock`] — virtual vs monotonic time sources (shared with `spire-rt`).
//! * [`fnv`] — the stable 64-bit hash of states, messages and reports.
//! * [`json`] — the workspace's one JSON value, writer and parser.
//! * [`time`] — virtual time types.
//! * [`metrics`] — counters, time series and histograms collected during runs.
//! * [`stats`] — percentile/CDF summaries for the experiment harness.
//! * [`trace`] — flight recorder, causal spans, histograms and exporters.
//! * [`wire`] — canonical byte encoding shared by all protocol codecs.
//!
//! # Examples
//!
//! ```
//! use spire_sim::{Span, Time, World};
//! let mut world = World::new(1);
//! world.run_for(Span::secs(10));
//! assert_eq!(world.now(), Time::ZERO + Span::secs(10));
//! ```

pub mod clock;
pub mod fnv;
pub mod host;
pub mod json;
pub mod metrics;
pub mod queue;
pub mod stats;
pub mod time;
pub mod trace;
pub mod wire;
pub mod world;

pub use clock::Clock;
pub use fnv::{fnv64, Fnv64};
pub use host::Host;
pub use metrics::Metrics;
pub use queue::EventQueue;
pub use stats::Summary;
pub use time::{Span, Time};
pub use trace::{
    span_key, FlightRecorder, Histogram, SpanPhase, SpanRecord, TraceEvent, TraceKind, Tracer,
};
pub use wire::{Count, Counted, Elements, Wire, WireError, WireReader, WireWriter};
pub use world::{
    Backend, Context, ControlOp, Fabric, LinkConfig, Process, ProcessId, SpawnFn, TimerId, Transit,
    World, WorldEvent,
};
