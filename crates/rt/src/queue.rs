//! The event-driven runtime's cross-worker run queue.
//!
//! A [`RunQueue`] replaces the bounded `sync_channel` mailbox of the
//! thread-per-actor design. The differences that matter:
//!
//! - **Batched wakeups.** Senders push whole envelope batches under one
//!   lock and issue at most one condvar notify per push — and only when
//!   the owning worker is actually parked. A worker draining a burst of
//!   frames costs its peers zero syscalls.
//! - **Exact depth accounting.** The queue itself is the single source of
//!   truth for its occupancy. `depth == sends - recvs - drops` holds at
//!   every instant (in weight units, i.e. frames): an accepted push adds
//!   its weight to `sends`, a drain adds to `recvs`, and a rejected push
//!   adds to `drops` *as well as* `sends`, so the ledger never drifts —
//!   the per-worker `rt.w{N}.mailbox_depth` gauge reads it directly
//!   instead of reconciling racing sender/receiver atomics.
//! - **Deadline parking.** [`RunQueue::pop_wait`] parks the owner until an
//!   exact timer deadline or the next push, whichever comes first; there
//!   is no periodic poll.
//!
//! Weights exist because one queue entry may carry many frames (a
//! coalesced cross-worker batch): capacity and the depth gauge are
//! measured in frames, not envelopes.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// A bounded multi-producer single-consumer run queue with exact
/// weight-based occupancy accounting and parked-consumer wakeups.
#[derive(Debug)]
pub struct RunQueue<T> {
    inner: Mutex<VecDeque<(T, u64)>>,
    ready: Condvar,
    /// Capacity in weight units (frames).
    capacity: u64,
    /// Weight currently queued. Mirrors the mutex-guarded state so gauge
    /// reads never take the lock; only mutated while holding it.
    depth: AtomicU64,
    /// Total weight offered (accepted + rejected pushes).
    sends: AtomicU64,
    /// Total weight drained by the consumer.
    recvs: AtomicU64,
    /// Total weight rejected because the queue was full.
    drops: AtomicU64,
    /// True while the consumer sleeps in [`RunQueue::pop_wait`]; producers
    /// notify only when set, so steady-state pushes are wake-free.
    parked: AtomicBool,
}

impl<T> RunQueue<T> {
    /// Creates a queue holding at most `capacity` weight units.
    pub fn bounded(capacity: usize) -> RunQueue<T> {
        RunQueue {
            inner: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            capacity: capacity.max(1) as u64,
            depth: AtomicU64::new(0),
            sends: AtomicU64::new(0),
            recvs: AtomicU64::new(0),
            drops: AtomicU64::new(0),
            parked: AtomicBool::new(false),
        }
    }

    /// Pushes one unit-weight entry. Returns the entry on overflow.
    pub fn push(&self, item: T) -> Result<(), T> {
        self.push_weighted(item, 1)
    }

    /// Pushes an entry carrying `weight` frames, all-or-nothing: a batch
    /// that does not fit is rejected whole (the caller re-files its frames
    /// through the retry path) rather than split. Rejection is recorded in
    /// both `sends` and `drops`, keeping the depth ledger exact.
    pub fn push_weighted(&self, item: T, weight: u64) -> Result<(), T> {
        {
            let mut q = self.inner.lock().expect("run queue poisoned");
            self.sends.fetch_add(weight, Ordering::Relaxed);
            if self.depth.load(Ordering::Relaxed) + weight > self.capacity {
                self.drops.fetch_add(weight, Ordering::Relaxed);
                return Err(item);
            }
            q.push_back((item, weight));
            self.depth.fetch_add(weight, Ordering::Relaxed);
        }
        self.wake();
        Ok(())
    }

    /// Pushes an entry ignoring capacity — control traffic (crash,
    /// restart, shutdown wake) must never be lost or retried.
    pub fn push_urgent(&self, item: T, weight: u64) {
        {
            let mut q = self.inner.lock().expect("run queue poisoned");
            self.sends.fetch_add(weight, Ordering::Relaxed);
            q.push_back((item, weight));
            self.depth.fetch_add(weight, Ordering::Relaxed);
        }
        self.wake();
    }

    fn wake(&self) {
        if self.parked.swap(false, Ordering::AcqRel) {
            self.ready.notify_one();
        }
    }

    /// Drains every queued entry into `out` under one lock acquisition.
    /// Returns the total weight drained.
    pub fn pop_all(&self, out: &mut Vec<T>) -> u64 {
        let mut q = self.inner.lock().expect("run queue poisoned");
        self.drain(&mut q, out)
    }

    /// Moves every entry of the locked queue into `out`, keeping the
    /// ledger; returns the weight moved.
    fn drain(&self, q: &mut VecDeque<(T, u64)>, out: &mut Vec<T>) -> u64 {
        let mut drained = 0;
        for (item, weight) in q.drain(..) {
            drained += weight;
            out.push(item);
        }
        self.depth.fetch_sub(drained, Ordering::Relaxed);
        self.recvs.fetch_add(drained, Ordering::Relaxed);
        drained
    }

    /// Parks the consumer until an entry arrives or `deadline` passes,
    /// then drains everything queued. With no deadline, sleeps until the
    /// next push. Returns the weight drained (0 on timeout).
    pub fn pop_wait(&self, out: &mut Vec<T>, deadline: Option<Instant>) -> u64 {
        let mut q = self.inner.lock().expect("run queue poisoned");
        // The parked flag is set under the queue lock, so any producer
        // that pushed before we checked emptiness is observed here, and
        // any later producer observes the flag: no missed wakeups.
        while q.is_empty() {
            self.parked.store(true, Ordering::Release);
            match deadline {
                Some(when) => {
                    let now = Instant::now();
                    if now >= when {
                        self.parked.store(false, Ordering::Release);
                        return 0;
                    }
                    let (guard, timeout) = self
                        .ready
                        .wait_timeout(q, when - now)
                        .expect("run queue poisoned");
                    q = guard;
                    if timeout.timed_out() && q.is_empty() {
                        self.parked.store(false, Ordering::Release);
                        return 0;
                    }
                }
                None => {
                    q = self.ready.wait(q).expect("run queue poisoned");
                }
            }
        }
        self.parked.store(false, Ordering::Release);
        self.drain(&mut q, out)
    }

    /// Weight currently queued (exact, lock-free).
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// Total weight offered by producers (accepted and rejected).
    pub fn sends(&self) -> u64 {
        self.sends.load(Ordering::Relaxed)
    }

    /// Total weight drained by the consumer.
    pub fn recvs(&self) -> u64 {
        self.recvs.load(Ordering::Relaxed)
    }

    /// Total weight rejected on overflow.
    pub fn drops(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn depth_equals_sends_minus_recvs_minus_drops() {
        // The exact-gauge invariant the approximate sync_channel counters
        // could not hold: every push (accepted or rejected, weighted or
        // not) and every drain keeps depth == sends - recvs - drops.
        let q: RunQueue<u32> = RunQueue::bounded(8);
        let check = |q: &RunQueue<u32>| {
            assert_eq!(q.depth(), q.sends() - q.recvs() - q.drops());
        };
        for i in 0..6 {
            q.push(i).unwrap();
            check(&q);
        }
        // A 4-frame batch into 2 remaining slots: rejected whole.
        assert!(q.push_weighted(99, 4).is_err());
        check(&q);
        assert_eq!(q.drops(), 4);
        assert_eq!(q.depth(), 6);
        // Overflow the unit path too.
        q.push(6).unwrap();
        q.push(7).unwrap();
        assert!(q.push(8).is_err());
        check(&q);
        assert_eq!(q.drops(), 5);
        // Urgent entries bypass capacity but stay on the ledger.
        q.push_urgent(100, 1);
        check(&q);
        assert_eq!(q.depth(), 9);
        let mut out = Vec::new();
        assert_eq!(q.pop_all(&mut out), 9);
        assert_eq!(out.len(), 9);
        check(&q);
        assert_eq!(q.depth(), 0);
        assert_eq!(q.sends(), 14);
        assert_eq!(q.recvs(), 9);
        assert_eq!(q.drops(), 5);
    }

    #[test]
    fn weighted_batches_count_frames_not_envelopes() {
        let q: RunQueue<&'static str> = RunQueue::bounded(100);
        q.push_weighted("batch-a", 40).unwrap();
        q.push_weighted("batch-b", 60).unwrap();
        assert_eq!(q.depth(), 100);
        assert!(q.push("one-more").is_err());
        let mut out = Vec::new();
        assert_eq!(q.pop_all(&mut out), 100);
        assert_eq!(out, vec!["batch-a", "batch-b"]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn pop_wait_times_out_and_wakes_on_push() {
        let q: Arc<RunQueue<u32>> = Arc::new(RunQueue::bounded(16));
        let mut out = Vec::new();
        // Timeout path: nothing arrives before the deadline.
        let start = Instant::now();
        let got = q.pop_wait(&mut out, Some(start + Duration::from_millis(10)));
        assert_eq!(got, 0);
        assert!(start.elapsed() >= Duration::from_millis(10));
        // Wakeup path: a push from another thread ends the park early.
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                q.push(7).unwrap();
            })
        };
        let got = q.pop_wait(&mut out, Some(Instant::now() + Duration::from_secs(10)));
        assert_eq!(got, 1);
        assert_eq!(out, vec![7]);
        producer.join().unwrap();
    }

    #[test]
    fn steady_state_pushes_skip_notify_when_not_parked() {
        let q: RunQueue<u32> = RunQueue::bounded(16);
        // Not parked: pushes must not flip the flag.
        q.push(1).unwrap();
        assert!(!q.parked.load(Ordering::Acquire));
        // Simulate a parked consumer: the next push clears the flag.
        q.parked.store(true, Ordering::Release);
        q.push(2).unwrap();
        assert!(!q.parked.load(Ordering::Acquire));
    }
}
