//! The SCADA historian: a passive observer that archives confirmed device
//! updates and alarms, as real control rooms run alongside the HMI.
//!
//! The historian is a Prime client like any other: it receives the same
//! `f + 1`-validated notifications, so a compromised replica cannot plant
//! false history. It answers range queries over the archived samples —
//! used by tests and by operators reconstructing an incident timeline.

use crate::op::ScadaNotify;
use bytes::Bytes;
use spire_prime::{Accepted, ClientSession};
use spire_sim::{Context, Process, ProcessId, Time, Wire};
use std::sync::{Arc, Mutex};

/// One archived breaker event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerEvent {
    /// When the historian archived it (simulation time).
    pub archived_at: Time,
    /// The RTU reporting the transition.
    pub rtu: u32,
    /// The breaker.
    pub breaker: u8,
    /// New state (true = closed).
    pub closed: bool,
}

/// Shared, queryable archive.
#[derive(Clone, Debug, Default)]
pub struct Archive {
    inner: Arc<Mutex<Vec<BreakerEvent>>>,
}

impl Archive {
    /// Creates an empty archive.
    pub fn new() -> Archive {
        Archive::default()
    }

    fn push(&self, event: BreakerEvent) {
        self.inner.lock().expect("poisoned").push(event);
    }

    /// Number of archived events.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("poisoned").len()
    }

    /// True if nothing was archived.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().expect("poisoned").is_empty()
    }

    /// Events archived within `[from, until)`.
    pub fn query_range(&self, from: Time, until: Time) -> Vec<BreakerEvent> {
        self.inner
            .lock()
            .expect("poisoned")
            .iter()
            .filter(|e| e.archived_at >= from && e.archived_at < until)
            .copied()
            .collect()
    }

    /// Events for one breaker, in order.
    pub fn breaker_history(&self, rtu: u32, breaker: u8) -> Vec<BreakerEvent> {
        self.inner
            .lock()
            .expect("poisoned")
            .iter()
            .filter(|e| e.rtu == rtu && e.breaker == breaker)
            .copied()
            .collect()
    }
}

/// The historian process.
pub struct Historian {
    session: ClientSession,
    archive: Archive,
}

impl Historian {
    /// Creates a historian listening on `session`. Register the session's
    /// client id in the [`crate::master::ScadaDirectory`] `hmis` list so
    /// the masters push it events.
    pub fn new(session: ClientSession, archive: Archive) -> Historian {
        Historian { session, archive }
    }
}

impl Process for Historian {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.session.start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: ProcessId, bytes: &Bytes) {
        let Some(Accepted::Notify { payload, .. }) = self.session.on_message(ctx, from, bytes)
        else {
            return;
        };
        let Ok(ScadaNotify::BreakerEvent {
            rtu,
            breaker,
            closed,
        }) = ScadaNotify::decode_all(&payload)
        else {
            return;
        };
        self.archive.push(BreakerEvent {
            archived_at: ctx.now(),
            rtu,
            breaker,
            closed,
        });
        ctx.count("historian.events", 1);
    }
}

impl std::fmt::Debug for Historian {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Historian(events={})", self.archive.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn archive_queries() {
        let archive = Archive::new();
        for (t, rtu, breaker, closed) in [
            (10u64, 1u32, 0u8, false),
            (20, 1, 0, true),
            (30, 2, 1, false),
        ] {
            archive.push(BreakerEvent {
                archived_at: Time(t),
                rtu,
                breaker,
                closed,
            });
        }
        assert_eq!(archive.len(), 3);
        assert_eq!(archive.query_range(Time(10), Time(30)).len(), 2);
        assert_eq!(archive.query_range(Time(0), Time(5)).len(), 0);
        let history = archive.breaker_history(1, 0);
        assert_eq!(history.len(), 2);
        assert!(!history[0].closed && history[1].closed);
        assert!(archive.breaker_history(9, 9).is_empty());
    }
}
