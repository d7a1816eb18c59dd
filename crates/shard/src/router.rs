//! Which groups participate in a transaction, and which of them
//! coordinates it. (Which group serves an RTU is [`crate::ShardMap`]'s
//! answer.)

use crate::msg::ShardCmd;

/// The sorted, deduplicated participant set of a transaction body.
pub fn participants(cmds: &[ShardCmd]) -> Vec<u32> {
    let mut shards: Vec<u32> = cmds.iter().map(|c| c.shard).collect();
    shards.sort_unstable();
    shards.dedup();
    shards
}

/// The coordinator group for a participant set: the owner of the lowest
/// shard (deterministic, so every observer agrees).
pub fn coordinator_shard(shards: &[u32]) -> u32 {
    *shards.first().expect("transaction with no participants")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd(shard: u32) -> ShardCmd {
        ShardCmd {
            shard,
            rtu: 0,
            kind: crate::msg::cmd_kind::OPEN_BREAKER,
            a: 0,
            b: 0,
        }
    }

    #[test]
    fn participant_set_sorted_deduped() {
        assert_eq!(participants(&[cmd(2), cmd(0), cmd(2)]), vec![0, 2]);
        assert_eq!(coordinator_shard(&[0, 2]), 0);
    }
}
