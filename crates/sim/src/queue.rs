//! The deadline-ordered event queue both substrates schedule from.
//!
//! [`World`](crate::World) pops its events from one, and each `spire-rt`
//! worker keeps one for its timers, delayed frames and parked retries, so
//! work due at the same instant runs in the same order on either
//! substrate: by deadline, ties in insertion order.

use crate::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A min-queue keyed by (deadline, insertion number).
///
/// # Examples
///
/// ```
/// use spire_sim::{EventQueue, Time};
/// let mut q = EventQueue::new();
/// q.push(Time(20), "late");
/// q.push(Time(10), "first");
/// q.push(Time(10), "second");
/// assert_eq!(q.next_due(), Some(Time(10)));
/// assert_eq!(q.pop_due(Time(10)), Some((Time(10), "first")));
/// assert_eq!(q.pop_due(Time(10)), Some((Time(10), "second")));
/// assert_eq!(q.pop_due(Time(10)), None);
/// assert_eq!(q.pop(), Some((Time(20), "late")));
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<T> {
    at: Time,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    /// Reversed, so the max-heap pops the earliest key first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> EventQueue<T> {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Queues `item` at `at`, behind everything already queued at `at`.
    pub fn push(&mut self, at: Time, item: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, item });
    }

    /// The earliest pending deadline, if any.
    pub fn next_due(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }

    /// Removes the earliest entry.
    pub fn pop(&mut self) -> Option<(Time, T)> {
        self.heap.pop().map(|e| (e.at, e.item))
    }

    /// Removes the earliest entry if it is due at or before `now`.
    pub fn pop_due(&mut self, now: Time) -> Option<(Time, T)> {
        if self.next_due()? > now {
            return None;
        }
        self.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_by_deadline_and_ties_in_insertion_order() {
        let mut q = EventQueue::new();
        for (n, at) in [30, 10, 20, 10, 30, 10].into_iter().enumerate() {
            q.push(Time(at), n);
        }
        assert_eq!(q.len(), 6);
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|(at, n)| (at.0, n))
            .collect();
        assert_eq!(
            order,
            [(10, 1), (10, 3), (10, 5), (20, 2), (30, 0), (30, 4)]
        );
        assert!(q.is_empty());
        assert_eq!(q.next_due(), None);
    }

    #[test]
    fn pop_due_stops_at_now_and_an_early_push_moves_the_next_deadline() {
        let mut q = EventQueue::new();
        q.push(Time(3_000), 3);
        q.push(Time(1_000), 1);
        assert_eq!(q.pop_due(Time(999)), None);
        assert_eq!(q.pop_due(Time(1_000)), Some((Time(1_000), 1)));
        // Something later arrives after a pop: the earlier entry still
        // decides when the queue is next due.
        q.push(Time(200_000), 200);
        assert_eq!(q.next_due(), Some(Time(3_000)));
        assert_eq!(q.pop_due(Time(2_999)), None);
        assert_eq!(q.pop_due(Time(5_000)), Some((Time(3_000), 3)));
        assert_eq!(q.next_due(), Some(Time(200_000)));
    }
}
