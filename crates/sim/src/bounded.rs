//! A set bounded by count, the workspace's one "remember the last N keys"
//! structure: Prime's verify caches and the Spines flood filter's overflow
//! both use it.

use std::collections::{HashSet, VecDeque};
use std::hash::Hash;

/// A set that remembers at most `cap` keys and forgets the oldest first.
///
/// It allocates nothing until its first insert, and it evicts before it
/// inserts, so neither the set nor the FIFO of insertion order ever holds
/// more than `cap` keys, and the FIFO's allocation never passes `cap`
/// either. Membership after every call is that of inserting, then evicting
/// the oldest while more than `cap` remain.
#[derive(Debug)]
pub struct BoundedSet<K> {
    cap: usize,
    set: HashSet<K>,
    order: VecDeque<K>,
}

impl<K: Copy + Eq + Hash> BoundedSet<K> {
    /// An empty set that will remember at most `cap` keys (`cap == 0`
    /// remembers none).
    pub fn new(cap: usize) -> BoundedSet<K> {
        BoundedSet {
            cap,
            set: HashSet::new(),
            order: VecDeque::new(),
        }
    }

    /// True if `key` was inserted and not yet evicted.
    pub fn contains(&self, key: &K) -> bool {
        self.set.contains(key)
    }

    /// Records `key`; false if it is already a member. A key the set cannot
    /// hold (`cap == 0`) is new every time.
    pub fn insert(&mut self, key: K) -> bool {
        if self.set.contains(&key) {
            return false;
        }
        if self.cap == 0 {
            return true;
        }
        if self.order.len() == self.cap {
            if let Some(old) = self.order.pop_front() {
                self.set.remove(&old);
            }
        } else if self.order.len() == self.order.capacity() {
            // Double as a `VecDeque` would, but never past `cap`.
            let grown = (self.order.capacity() * 2).max(8).min(self.cap);
            self.order.reserve_exact(grown - self.order.len());
        }
        self.order.push_back(key);
        self.set.insert(key);
        true
    }

    /// Number of keys remembered.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True if nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::BoundedSet;
    use std::collections::{HashSet, VecDeque};

    /// A xorshift stream: enough randomness for a key sequence.
    fn keys(mut state: u64, n: usize, range: u64) -> Vec<u64> {
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % range
            })
            .collect()
    }

    #[test]
    fn bounds_and_evicts_fifo() {
        let mut set = BoundedSet::new(3);
        assert!(set.insert(0u64));
        assert!(!set.insert(0), "duplicate insert is a no-op");
        assert!(set.insert(1));
        assert!(set.insert(2));
        assert_eq!(set.len(), 3);
        assert!(set.insert(3)); // evicts 0
        assert_eq!(set.len(), 3);
        assert!(!set.contains(&0));
        assert!(set.contains(&1));
        assert!(set.contains(&3));
    }

    #[test]
    fn zero_capacity_remembers_nothing() {
        let mut set = BoundedSet::new(0);
        assert!(set.insert(7u64));
        assert!(set.insert(7), "nothing was remembered");
        assert!(!set.contains(&7));
        assert!(set.is_empty());
        assert_eq!(set.order.capacity(), 0);
    }

    #[test]
    fn allocates_nothing_until_the_first_insert() {
        let mut set = BoundedSet::<u64>::new(100_000);
        assert_eq!((set.set.capacity(), set.order.capacity()), (0, 0));
        set.insert(1);
        assert!(set.order.capacity() <= 8);
    }

    #[test]
    fn never_holds_or_allocates_past_its_cap() {
        for cap in [1, 5, 1_000, 4_096] {
            let mut set = BoundedSet::new(cap);
            for key in keys(0x9e37_79b9, 100_000, 3 * cap as u64) {
                set.insert(key);
                assert!(set.len() <= cap, "cap {cap}: {} keys", set.len());
                assert!(set.order.len() <= cap);
                assert!(
                    set.order.capacity() <= cap,
                    "cap {cap}: FIFO allocated {}",
                    set.order.capacity()
                );
            }
            assert_eq!(set.len(), cap);
            assert_eq!(set.order.capacity(), cap);
        }
    }

    #[test]
    fn membership_matches_push_then_pop() {
        let cap = 64;
        let mut set = BoundedSet::new(cap);
        // The algorithm it replaces: insert, append, then evict the oldest
        // while the FIFO is over its cap.
        let (mut old_set, mut old_order) = (HashSet::new(), VecDeque::new());
        for key in keys(0x2545_f491, 50_000, 200) {
            let fresh = old_set.insert(key);
            if fresh {
                old_order.push_back(key);
                while old_order.len() > cap {
                    let evicted = old_order.pop_front().unwrap();
                    old_set.remove(&evicted);
                }
            }
            assert_eq!(set.insert(key), fresh, "key {key}");
            assert_eq!(set.set, old_set);
        }
    }
}
