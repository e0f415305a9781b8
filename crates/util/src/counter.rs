//! Counters that many threads bump and few read.
//!
//! A relaxed `fetch_add` on one shared `AtomicU64` is cheap for one
//! thread, but every worker that writes it pulls the cache line away
//! from the others, so a counter bumped once per block turns a parallel
//! batch into a queue on that line. [`Counters`] keeps one cell per
//! thread instead: each thread adds into its own cache-line-aligned
//! stripe, and a read sums the stripes. Writes stay `Relaxed` atomics,
//! so two threads that share a stripe (more live threads than stripes)
//! still count exactly; they only share the line again.
//!
//! A set holds `N` counters side by side in each stripe, so a caller
//! that bumps several related counts (hits and misses, say) touches one
//! line. The type is `const`-constructible, so it backs process-wide
//! statics as well as per-instance fields.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Stripes per counter set: at least the worker count of the hosts this
/// runs on, so concurrently live threads rarely share one.
const STRIPES: usize = 16;

/// One thread's cells, alone on their cache lines (128 bytes: adjacent
/// lines are fetched in pairs on common x86 parts).
#[repr(align(128))]
#[derive(Debug)]
struct Stripe<const N: usize>([AtomicU64; N]);

impl<const N: usize> Stripe<N> {
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: Stripe<N> = {
        #[allow(clippy::declare_interior_mutable_const)]
        const CELL: AtomicU64 = AtomicU64::new(0);
        Stripe([CELL; N])
    };
}

/// `N` counters, each kept in per-thread cells and summed on read.
#[derive(Debug)]
pub struct Counters<const N: usize> {
    stripes: [Stripe<N>; STRIPES],
}

impl<const N: usize> Default for Counters<N> {
    fn default() -> Self {
        Counters::new()
    }
}

impl<const N: usize> Counters<N> {
    /// All `N` counters at zero. `const`, so it can back statics.
    #[must_use]
    pub const fn new() -> Counters<N> {
        Counters {
            stripes: [Stripe::ZERO; STRIPES],
        }
    }

    /// Add `n` to counter `i` in the calling thread's cell.
    ///
    /// # Panics
    /// Panics if `i >= N`.
    #[inline]
    pub fn add(&self, i: usize, n: u64) {
        self.stripes[stripe()].0[i].fetch_add(n, Ordering::Relaxed);
    }

    /// Counter `i`: the sum of every thread's cell.
    ///
    /// # Panics
    /// Panics if `i >= N`.
    #[must_use]
    pub fn get(&self, i: usize) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0[i].load(Ordering::Relaxed))
            .sum()
    }

    /// All `N` counters.
    #[must_use]
    pub fn snapshot(&self) -> [u64; N] {
        std::array::from_fn(|i| self.get(i))
    }

    /// Set every counter to zero. Adds that race with the reset may
    /// land on either side of it, as with a shared atomic.
    pub fn reset(&self) {
        for cell in self.stripes.iter().flat_map(|s| &s.0) {
            cell.store(0, Ordering::Relaxed);
        }
    }
}

/// The calling thread's stripe, dealt round-robin when the thread first
/// counts, so threads started together land on distinct stripes.
#[inline]
fn stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_from_many_threads_sum_exactly() {
        static COUNTS: Counters<2> = Counters::new();
        // More threads than stripes, so some share a cell.
        std::thread::scope(|s| {
            for t in 0..(2 * STRIPES as u64) {
                s.spawn(move || {
                    for _ in 0..1000 {
                        COUNTS.add(0, 1);
                    }
                    COUNTS.add(1, t);
                });
            }
        });
        let n = 2 * STRIPES as u64;
        assert_eq!(COUNTS.snapshot(), [n * 1000, n * (n - 1) / 2]);
        COUNTS.reset();
        assert_eq!(COUNTS.snapshot(), [0, 0]);
    }

    #[test]
    fn each_stripe_has_its_own_lines() {
        assert_eq!(std::mem::align_of::<Stripe<4>>(), 128);
        assert_eq!(std::mem::size_of::<Counters<4>>(), 128 * STRIPES);
    }
}
