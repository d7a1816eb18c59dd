//! FNV-1a, the workspace's one stable 64-bit hash: dependency-free and the
//! same on every run. It addresses explorer messages and states, places
//! RTUs on shards and fingerprints reports; never use it for security.

use std::hash::{Hash, Hasher};

/// Incremental FNV-1a, usable wherever a [`Hasher`] is.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(pub u64);

impl Fnv64 {
    /// Feeds every item in turn.
    pub fn all<T: Hash>(&mut self, items: impl IntoIterator<Item = T>) -> &mut Fnv64 {
        for item in items {
            item.hash(self);
        }
        self
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv64 {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a over a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors_and_incremental_feeding_agree() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv64(b"foobar"));
    }
}
