//! A free-list buffer pool for the executors' scratch allocations.
//!
//! The hot paths this serves are the per-merge output buffers and the
//! recovery staging buffers of the stream interpreter (`StreamExec`):
//! before the pool, every Split-mode merge zero-initialized a fresh
//! `vec![T::default(); b.len]` and every DtoH fault cloned the whole
//! device buffer. A checkout that can be served from a recycled
//! allocation (capacity already covers the request) is a *hit*; a
//! checkout that has to grow or allocate is a *miss*. The counters
//! surface through the metrics registry as `pool.hits` / `pool.misses`
//! next to the `recovery.*` family, so a bench run can assert the
//! steady state allocates nothing.

use hetsort_obs::MetricsRegistry;

/// Hit/miss counters for one [`BufferPool`] (merged across streams by
/// the engines, folded into metrics as `pool.*`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Checkouts served from a recycled allocation without growing.
    pub hits: u64,
    /// Checkouts that allocated or grew a buffer.
    pub misses: u64,
}

impl PoolStats {
    /// Accumulate another pool's counters (per-stream → per-run).
    pub fn absorb(&mut self, other: PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }

    /// Add the counters to `reg` as `pool.hits` / `pool.misses`.
    pub fn fold_into(&self, reg: &mut MetricsRegistry) {
        reg.add_counter("pool.hits", self.hits as f64);
        reg.add_counter("pool.misses", self.misses as f64);
    }
}

/// A small free-list of reusable `Vec<T>` buffers.
///
/// `checkout(len)` returns a buffer of exactly `len` elements, served
/// best-fit from the free list when some recycled buffer's capacity
/// already covers the request (no allocation, no zeroing of the
/// recycled prefix beyond what `resize` must fill). `checkin` returns
/// a buffer to the list. The pool is unbounded in count but each
/// executor holds at most a couple of scratch buffers at a time, so in
/// practice it stabilizes at the high-water mark of one batch.
#[derive(Debug, Default)]
pub struct BufferPool<T> {
    free: Vec<Vec<T>>,
    /// Hit/miss counters, read by the engines at fold time.
    pub stats: PoolStats,
}

impl<T: Default + Clone> BufferPool<T> {
    pub fn new() -> Self {
        BufferPool {
            free: Vec::new(),
            stats: PoolStats::default(),
        }
    }

    /// Check out a buffer of `len` elements.
    pub fn checkout(&mut self, len: usize) -> Vec<T> {
        // Best fit: the smallest recycled buffer that covers `len`.
        let pos = self
            .free
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= len)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i);
        match pos {
            Some(i) => {
                self.stats.hits += 1;
                let mut buf = self.free.swap_remove(i);
                buf.resize(len, T::default());
                buf
            }
            None => {
                self.stats.misses += 1;
                // Grow the largest recycled buffer rather than leaving
                // it stranded below every future request.
                if let Some(i) = self
                    .free
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, b)| b.capacity())
                    .map(|(i, _)| i)
                {
                    let mut buf = self.free.swap_remove(i);
                    buf.resize(len, T::default());
                    buf
                } else {
                    vec![T::default(); len]
                }
            }
        }
    }

    /// Return a buffer to the free list for later reuse.
    pub fn checkin(&mut self, buf: Vec<T>) {
        if buf.capacity() > 0 {
            self.free.push(buf);
        }
    }

    /// Free every recycled buffer; the counters stay.
    pub fn clear(&mut self) {
        self.free = Vec::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_instead_of_allocating() {
        let mut pool: BufferPool<u64> = BufferPool::new();
        let a = pool.checkout(100);
        assert_eq!(pool.stats, PoolStats { hits: 0, misses: 1 });
        let ptr = a.as_ptr();
        pool.checkin(a);
        // Same-size request is served from the same allocation.
        let b = pool.checkout(100);
        assert_eq!(pool.stats, PoolStats { hits: 1, misses: 1 });
        assert_eq!(b.as_ptr(), ptr);
        pool.checkin(b);
        // A smaller request still reuses (capacity covers it).
        let c = pool.checkout(10);
        assert_eq!(pool.stats, PoolStats { hits: 2, misses: 1 });
        assert_eq!(c.len(), 10);
        pool.checkin(c);
        // A larger request grows the recycled buffer: a miss, but the
        // free list does not strand the old allocation.
        let d = pool.checkout(1000);
        assert_eq!(pool.stats, PoolStats { hits: 2, misses: 2 });
        assert_eq!(d.len(), 1000);
        pool.checkin(d);
        assert_eq!(pool.free.len(), 1);
    }

    #[test]
    fn best_fit_prefers_the_smallest_cover() {
        let mut pool: BufferPool<u64> = BufferPool::new();
        let small = pool.checkout(10);
        let big = pool.checkout(1000);
        let big_ptr = big.as_ptr();
        pool.checkin(small);
        pool.checkin(big);
        // A mid-size request must not burn the big buffer when growing
        // the small one... it takes the smallest cover: the big one
        // covers 500, the small one does not.
        let mid = pool.checkout(500);
        assert_eq!(mid.as_ptr(), big_ptr);
    }
}
