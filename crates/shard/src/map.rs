//! Deterministic RTU/substation → shard assignment.

use spire_sim::fnv64;

/// Maps every RTU (substation) to its owning replication group.
///
/// The default placement is stable hashing of the RTU id, so adding RTUs
/// never moves existing ones between runs of the same shard count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    shards: u32,
}

impl ShardMap {
    /// A map over `shards` groups.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: u32) -> ShardMap {
        assert!(shards > 0, "shard map needs at least one shard");
        ShardMap { shards }
    }

    /// Number of groups.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The group owning `rtu`.
    pub fn shard_of(&self, rtu: u32) -> u32 {
        (fnv64(&rtu.to_le_bytes()) % self.shards as u64) as u32
    }

    /// Partitions `rtus` into per-group buckets (index = group id).
    pub fn partition(&self, rtus: impl IntoIterator<Item = u32>) -> Vec<Vec<u32>> {
        let mut buckets = vec![Vec::new(); self.shards as usize];
        for rtu in rtus {
            buckets[self.shard_of(rtu) as usize].push(rtu);
        }
        buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_across_instances() {
        let a = ShardMap::new(4);
        let b = ShardMap::new(4);
        for rtu in 0..1000 {
            assert_eq!(a.shard_of(rtu), b.shard_of(rtu));
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let m = ShardMap::new(1);
        for rtu in 0..100 {
            assert_eq!(m.shard_of(rtu), 0);
        }
    }

    #[test]
    fn spread_is_roughly_uniform() {
        let m = ShardMap::new(4);
        let buckets = m.partition(0..1024);
        for bucket in &buckets {
            // 1024 RTUs over 4 groups: each bucket within 2x of fair share.
            assert!(
                bucket.len() > 128 && bucket.len() < 512,
                "skewed bucket: {}",
                bucket.len()
            );
        }
    }

    #[test]
    fn partition_covers_all() {
        let m = ShardMap::new(3);
        let buckets = m.partition(0..30);
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), 30);
    }

    #[test]
    #[should_panic]
    fn zero_shards_rejected() {
        ShardMap::new(0);
    }
}
