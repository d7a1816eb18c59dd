//! A set bounded by count, the workspace's one "remember the last N keys"
//! structure: Prime's verify caches and the Spines flood filter's overflow
//! both use it.
//!
//! Each key is stored once, in a ring that keeps insertion order. Lookups
//! go through an open-addressed table of `u32` ring positions (linear
//! probing, at most half full, deletion by backward shift), so a member
//! costs its own size plus at most eight bytes of index. The table hashes
//! with [`RandomState`]: the flood filter's keys are chosen by whoever
//! sends the frames, and a fixed hash would let them collide on purpose.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash};

/// A set that remembers at most `cap` keys and forgets the oldest first.
///
/// It allocates nothing until its first insert, and it evicts before it
/// inserts, so the ring never holds or allocates more than `cap` keys and
/// the index never allocates more than `2 * cap` slots rounded up to a
/// power of two. Membership after every call is that of inserting, then
/// evicting the oldest while more than `cap` remain.
#[derive(Debug)]
pub struct BoundedSet<K> {
    cap: usize,
    /// Members in insertion order; once full, `ring[head]` is the oldest
    /// and the next to be overwritten.
    ring: Vec<K>,
    head: usize,
    /// Ring position + 1 of each member, 0 for an empty slot. Its length
    /// is a power of two at least twice the ring's length (0 before the
    /// first insert).
    index: Vec<u32>,
    hasher: RandomState,
}

impl<K: Copy + Eq + Hash> BoundedSet<K> {
    /// An empty set that will remember at most `cap` keys (`cap == 0`
    /// remembers none).
    pub fn new(cap: usize) -> BoundedSet<K> {
        assert!(
            cap <= u32::MAX as usize,
            "cap {cap} overflows the u32 index"
        );
        BoundedSet {
            cap,
            ring: Vec::new(),
            head: 0,
            index: Vec::new(),
            hasher: RandomState::new(),
        }
    }

    /// True if `key` was inserted and not yet evicted.
    pub fn contains(&self, key: &K) -> bool {
        self.find(key).is_some()
    }

    /// Records `key`; false if it is already a member. A key the set cannot
    /// hold (`cap == 0`) is new every time.
    pub fn insert(&mut self, key: K) -> bool {
        if self.contains(&key) {
            return false;
        }
        if self.cap == 0 {
            return true;
        }
        let pos = if self.ring.len() == self.cap {
            let pos = self.head;
            let old = self.ring[pos];
            self.remove_slot(self.find(&old).expect("every ring key is indexed"));
            self.ring[pos] = key;
            self.head = (pos + 1) % self.cap;
            pos
        } else {
            if self.ring.len() == self.ring.capacity() {
                // Double as a `Vec` would, but never past `cap`.
                let grown = (self.ring.capacity() * 2).max(8).min(self.cap);
                self.ring.reserve_exact(grown - self.ring.len());
            }
            if 2 * (self.ring.len() + 1) > self.index.len() {
                self.grow_index();
            }
            self.ring.push(key);
            self.ring.len() - 1
        };
        self.place(pos);
        true
    }

    /// Number of keys remembered.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    fn mask(&self) -> usize {
        self.index.len() - 1
    }

    fn home(&self, key: &K) -> usize {
        self.hasher.hash_one(key) as usize & self.mask()
    }

    /// The index slot that holds `key`.
    fn find(&self, key: &K) -> Option<usize> {
        if self.ring.is_empty() {
            return None;
        }
        let mut slot = self.home(key);
        loop {
            match self.index[slot] {
                0 => return None,
                p if self.ring[p as usize - 1] == *key => return Some(slot),
                _ => slot = (slot + 1) & self.mask(),
            }
        }
    }

    /// Indexes ring position `pos`, whose key is not indexed yet.
    fn place(&mut self, pos: usize) {
        let mut slot = self.home(&self.ring[pos]);
        while self.index[slot] != 0 {
            slot = (slot + 1) & self.mask();
        }
        self.index[slot] = pos as u32 + 1;
    }

    /// Empties `slot`, shifting back the entries after it in its probe run
    /// that may move, so every lookup still reaches its key before a gap.
    fn remove_slot(&mut self, mut gap: usize) {
        let mask = self.mask();
        let mut next = gap;
        loop {
            next = (next + 1) & mask;
            let p = self.index[next];
            if p == 0 {
                break;
            }
            let home = self.home(&self.ring[p as usize - 1]);
            // The entry may fill the gap unless its home lies after the
            // gap, up to where it sits, in probe order.
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(gap) & mask {
                self.index[gap] = p;
                gap = next;
            }
        }
        self.index[gap] = 0;
    }

    /// Doubles the index (16 slots to start, never past `2 * cap` rounded
    /// up) and re-places every member.
    fn grow_index(&mut self) {
        let slots = (self.index.len() * 2)
            .max(16)
            .min((2 * self.cap).next_power_of_two());
        self.index = vec![0; slots];
        for pos in 0..self.ring.len() {
            self.place(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::BoundedSet;
    use std::collections::{HashSet, VecDeque};

    /// The structure this one replaced, kept as the reference: a set plus a
    /// FIFO of insertion order, inserting, then evicting the oldest while
    /// more than `cap` remain.
    struct Model {
        cap: usize,
        set: HashSet<u64>,
        order: VecDeque<u64>,
    }

    impl Model {
        /// Inserts `key`; returns whether it was new and what it evicted.
        fn insert(&mut self, key: u64) -> (bool, Vec<u64>) {
            if !self.set.insert(key) {
                return (false, Vec::new());
            }
            self.order.push_back(key);
            let mut evicted = Vec::new();
            while self.order.len() > self.cap {
                let old = self.order.pop_front().unwrap();
                self.set.remove(&old);
                evicted.push(old);
            }
            (true, evicted)
        }
    }

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

    /// Runs `stream` through both and checks, after every call, `insert`'s
    /// result, the length, and `contains` for every key of `0..range`.
    /// Between calls only the inserted key and the model's evictions can
    /// change membership, so those are checked after every call and the
    /// whole range every `sweep` calls and at the end.
    fn agree(cap: usize, stream: &[u64], range: u64) {
        let mut set = BoundedSet::new(cap);
        let mut model = Model {
            cap,
            set: HashSet::new(),
            order: VecDeque::new(),
        };
        let sweep = if cap <= 64 { 1 } else { cap / 64 };
        for (i, &key) in stream.iter().enumerate() {
            let (fresh, evicted) = model.insert(key);
            assert_eq!(set.insert(key), fresh, "cap {cap} call {i}: insert {key}");
            assert_eq!(set.len(), model.set.len(), "cap {cap} call {i}");
            for k in evicted.iter().chain([&key]) {
                assert_eq!(set.contains(k), model.set.contains(k), "cap {cap} key {k}");
            }
            if i % sweep == 0 || i + 1 == stream.len() {
                for k in 0..range {
                    assert_eq!(
                        set.contains(&k),
                        model.set.contains(&k),
                        "cap {cap} call {i}: key {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn membership_matches_push_then_pop() {
        for cap in [0usize, 1, 5, 64, 1_000, 4_096] {
            let range = 2 * cap as u64 + 3;
            // Random keys over twice the cap: evicted keys come back.
            agree(cap, &keys(0x2545_f491, 4 * cap + 200, range), range);
            // A cycle one longer than the cap: every insert evicts the key
            // inserted next.
            let cycle: Vec<u64> = (0..3 * (cap as u64 + 1))
                .map(|i| i % (cap as u64 + 1))
                .collect();
            agree(cap, &cycle, cap as u64 + 1);
        }
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
        assert_eq!((set.ring.capacity(), set.index.capacity()), (0, 0));
    }

    #[test]
    fn allocates_nothing_until_the_first_insert() {
        let mut set = BoundedSet::<u64>::new(100_000);
        assert_eq!((set.ring.capacity(), set.index.capacity()), (0, 0));
        assert!(!set.contains(&1));
        assert_eq!((set.ring.capacity(), set.index.capacity()), (0, 0));
        set.insert(1);
        assert!(set.ring.capacity() <= 8);
        assert!(set.index.capacity() <= 16);
    }

    #[test]
    fn never_holds_or_allocates_past_its_cap() {
        for cap in [0usize, 1, 5, 64, 1_000, 4_096] {
            let index_max = (2 * cap).next_power_of_two();
            let mut set = BoundedSet::new(cap);
            for key in keys(0x9e37_79b9, 20 * cap + 100, 3 * cap as u64 + 1) {
                set.insert(key);
                assert!(set.len() <= cap, "cap {cap}: {} keys", set.len());
                assert!(
                    set.ring.capacity() <= cap,
                    "cap {cap}: ring allocated {}",
                    set.ring.capacity()
                );
                assert!(
                    set.index.capacity() <= index_max,
                    "cap {cap}: index allocated {}",
                    set.index.capacity()
                );
                assert!(2 * set.len() <= set.index.len(), "index over half full");
            }
            assert_eq!(set.len(), cap);
            assert_eq!(set.ring.capacity(), cap);
        }
    }
}
