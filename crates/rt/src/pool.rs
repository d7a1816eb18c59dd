//! Per-worker pools of batch containers: cross-worker handoff reuses
//! vectors instead of allocating one per batch.
//!
//! A worker acquires a recycled container to stage the frames it sends
//! another worker during one pass. The container travels to the
//! destination worker, which releases it into *its* pool after draining,
//! so containers circulate between workers under symmetric traffic.
//! Released containers keep their capacity (bounded by the pool's
//! per-buffer cap), so steady-state traffic settles into a fixed working
//! set with no allocator traffic.

/// A bounded freelist of reusable `Vec<T>` buffers.
#[derive(Debug)]
pub struct Pool<T> {
    free: Vec<Vec<T>>,
    /// Buffers retained at most (excess releases fall to the allocator).
    max_buffers: usize,
    /// Element capacity above which a released buffer is shrunk before
    /// pooling, so one jumbo batch cannot pin memory forever.
    max_buffer_capacity: usize,
}

impl<T> Pool<T> {
    /// A pool retaining up to `max_buffers` buffers of up to
    /// `max_buffer_capacity` elements each.
    pub fn new(max_buffers: usize, max_buffer_capacity: usize) -> Pool<T> {
        Pool {
            free: Vec::with_capacity(max_buffers.min(64)),
            max_buffers,
            max_buffer_capacity,
        }
    }

    /// Takes a cleared buffer from the pool, or allocates a fresh one.
    pub fn acquire(&mut self) -> Vec<T> {
        self.free.pop().unwrap_or_default()
    }

    /// Returns a buffer to the pool for reuse. The contents are cleared;
    /// capacity is kept (bounded) so the next acquire writes into warm,
    /// already-sized memory.
    pub fn release(&mut self, mut buf: Vec<T>) {
        if self.free.len() >= self.max_buffers {
            return;
        }
        buf.clear();
        if buf.capacity() > self.max_buffer_capacity {
            buf.shrink_to(self.max_buffer_capacity);
        }
        self.free.push(buf);
    }
}

impl<T> Default for Pool<T> {
    /// Matches the runtime's per-worker defaults: up to 256 pooled
    /// buffers, 64 Ki elements retained capacity each.
    fn default() -> Pool<T> {
        Pool::new(256, 64 * 1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_recycles() {
        let mut pool: Pool<u8> = Pool::new(4, 1024);
        let mut a = pool.acquire();
        a.extend_from_slice(b"hello");
        let ptr = a.as_ptr();
        pool.release(a);
        let b = pool.acquire();
        // Same allocation, cleared.
        assert_eq!(b.as_ptr(), ptr);
        assert!(b.is_empty());
        assert!(b.capacity() >= 5);
        // The pool is empty again: the next acquire is a fresh vector.
        assert_eq!(pool.acquire().capacity(), 0);
    }

    #[test]
    fn pool_and_buffer_sizes_are_bounded() {
        let mut pool: Pool<u8> = Pool::new(2, 16);
        for _ in 0..5 {
            pool.release(Vec::with_capacity(1024));
        }
        // Retention is capped at 2 no matter how many are released: two
        // pooled buffers come back, each shrunk, then fresh ones.
        for _ in 0..2 {
            let kept = pool.acquire();
            assert!(
                (1..=16).contains(&kept.capacity()),
                "oversized buffer was pooled unshrunk"
            );
        }
        assert_eq!(pool.acquire().capacity(), 0, "more than 2 were retained");
    }
}
