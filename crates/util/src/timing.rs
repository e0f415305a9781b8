//! The workspace's one timing module.
//!
//! - [`assert_ratio`], the harness of every linear-time test, times a
//!   small and a large input on a CPU clock, not the wall clock:
//!   `cargo test` runs a binary's tests on parallel threads, and on a
//!   small host other processes take the CPU too, so a wall-clock sample
//!   measures whoever else was running.
//! - [`TimingCell`] counts the sections of one timed pass (count, total,
//!   max and a log2 latency histogram for p50/p99) behind one
//!   process-wide switch, [`set_enabled`]. While it is off, [`start`]
//!   costs one relaxed load and no clock read, so production throughput
//!   is unaffected.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Samples [`assert_ratio`] takes of each size.
const SAMPLES: usize = 7;

/// The CPU clock a ratio test reads.
#[derive(Debug, Clone, Copy)]
pub enum Clock {
    /// CPU time of the calling thread.
    Thread,
    /// CPU time of the whole process, all threads summed.
    Process,
}

/// Seconds of CPU time on `clock` (`clock_gettime(2)`, declared here:
/// the workspace has no `libc` dependency).
#[cfg(target_os = "linux")]
fn cpu_secs(clock: Clock) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    // Linux's `CLOCK_THREAD_CPUTIME_ID` and `CLOCK_PROCESS_CPUTIME_ID`.
    let id = match clock {
        Clock::Thread => 3,
        Clock::Process => 2,
    };
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, exclusively borrowed timespec for the
    // whole call, laid out as the kernel's `struct timespec`.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime: {}", std::io::Error::last_os_error());
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Without a known CPU-clock id, fall back to the wall clock.
#[cfg(not(target_os = "linux"))]
fn cpu_secs(_clock: Clock) -> f64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Seconds of `clock` time per call of `reps` calls `f(0..reps)`.
fn per_call_secs(clock: Clock, reps: u32, f: &mut impl FnMut(usize)) -> f64 {
    let t0 = cpu_secs(clock);
    for i in 0..reps {
        f(i as usize);
    }
    (cpu_secs(clock) - t0) / f64::from(reps)
}

/// Assert that one call of `large` takes at most `bound` times as long
/// as one call of `small`, on `clock`.
///
/// Each size is a pair `(reps, f)`: a sample calls `f(0)`, …,
/// `f(reps - 1)` back to back and counts the time per call, so a small
/// input repeated `reps` times lasts about as long as the large one. The
/// two sizes alternate over seven samples, so a disturbance is as likely
/// to hit either, and the minimum of each is compared. `what` names the
/// case in the failure message, which also gives both times.
pub fn assert_ratio(
    clock: Clock,
    what: &str,
    bound: f64,
    (small_reps, mut small): (u32, impl FnMut(usize)),
    (large_reps, mut large): (u32, impl FnMut(usize)),
) {
    let (mut t_small, mut t_large) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..SAMPLES {
        t_small = t_small.min(per_call_secs(clock, small_reps, &mut small));
        t_large = t_large.min(per_call_secs(clock, large_reps, &mut large));
    }
    let ratio = t_large / t_small;
    assert!(
        ratio <= bound,
        "{what}: large took {t_large:.6} s, small {t_small:.6} s ({clock:?} CPU time): \
         ratio {ratio:.1} > {bound}"
    );
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn every timing cell on or off, process-wide (off by default).
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Start a timed section: the current instant while timing is on,
/// `None` while off. Pass the result to [`TimingCell::record_since`].
#[must_use]
pub fn start() -> Option<Instant> {
    ENABLED.load(Ordering::Relaxed).then(Instant::now)
}

/// Log2 latency buckets: bucket `b` holds durations in `[2^(b-1), 2^b)`
/// nanoseconds (bucket 0 holds 0–1 ns).
const BUCKETS: usize = 64;

/// Count, total, max and latency histogram of one timed pass, in
/// relaxed atomics (statistics only: they publish no other data).
#[derive(Debug)]
pub struct TimingCell {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
    hist: [AtomicU64; BUCKETS],
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO_BUCKET: AtomicU64 = AtomicU64::new(0);

impl TimingCell {
    /// An empty cell, usable in a `static`.
    #[must_use]
    pub const fn new() -> TimingCell {
        TimingCell {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            hist: [ZERO_BUCKET; BUCKETS],
        }
    }

    /// Record the section begun by `start` (a no-op for `None`, the
    /// value [`start`] returns while timing is off).
    pub fn record_since(&self, start: Option<Instant>) {
        if let Some(t0) = start {
            self.record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }

    fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.hist[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// The aggregate recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> Timing {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return Timing::default();
        }
        #[allow(clippy::cast_precision_loss)]
        let max_us = self.max_ns.load(Ordering::Relaxed) as f64 / 1e3;
        // Nearest-rank percentiles (1-based, ceiling): p50 of 2 samples
        // is the 1st, p99 of 200 samples is the 198th. The estimate is
        // the bucket's midpoint, capped at the recorded max so that no
        // percentile reads above it.
        let percentile_us = |rank: u64| {
            let mut seen = 0u64;
            for (b, slot) in self.hist.iter().enumerate() {
                seen += slot.load(Ordering::Relaxed);
                if seen >= rank {
                    return (bucket_mid_ns(b) / 1e3).min(max_us);
                }
            }
            0.0
        };
        #[allow(clippy::cast_precision_loss)]
        Timing {
            count,
            mean_us: self.total_ns.load(Ordering::Relaxed) as f64 / count as f64 / 1e3,
            p50_us: percentile_us(count.div_ceil(2)),
            p99_us: percentile_us((count * 99).div_ceil(100)),
            max_us,
        }
    }

    /// Clear the cell (the process-wide switch is left as it is).
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
        for slot in &self.hist {
            slot.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for TimingCell {
    fn default() -> TimingCell {
        TimingCell::new()
    }
}

/// The histogram bucket of a duration: the position of its highest set
/// bit, so each bucket spans a factor of two.
fn bucket_of(ns: u64) -> usize {
    (64 - ns.leading_zeros() as usize).min(BUCKETS - 1)
}

/// A representative duration for bucket `b`: `1.5 * 2^(b-1)`, inside
/// its `[2^(b-1), 2^b)` range.
fn bucket_mid_ns(b: usize) -> f64 {
    if b == 0 {
        0.0
    } else {
        1.5 * (1u64 << (b - 1)) as f64
    }
}

/// Aggregated timing of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Timing {
    /// Recorded sections.
    pub count: u64,
    /// Mean time per section, in microseconds (0 when `count == 0`).
    pub mean_us: f64,
    /// Median section, in microseconds, estimated from the log2
    /// histogram (accurate to within its factor-of-two bucket).
    pub p50_us: f64,
    /// 99th-percentile section, in microseconds (same estimate).
    pub p99_us: f64,
    /// Slowest section, in microseconds.
    pub max_us: f64,
}

impl Timing {
    /// The JSON row of this timing, named `"key":"name"`:
    /// `{"kernel":"ports","count":…,"mean_us":…,"p50_us":…,"p99_us":…,"max_us":…}`.
    #[must_use]
    pub fn json_row(&self, key: &str, name: &str) -> String {
        format!(
            "{{\"{key}\":\"{name}\",\"count\":{},\"mean_us\":{:.3},\"p50_us\":{:.3},\
             \"p99_us\":{:.3},\"max_us\":{:.3}}}",
            self.count, self.mean_us, self.p50_us, self.p99_us, self.max_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let cell = TimingCell::new();
        cell.record(2_000);
        cell.record(4_000);
        let t = cell.snapshot();
        assert_eq!(t.count, 2);
        assert!((t.mean_us - 3.0).abs() < 1e-9);
        assert!((t.max_us - 4.0).abs() < 1e-9);
        cell.reset();
        assert_eq!(cell.snapshot(), Timing::default());
    }

    #[test]
    fn buckets_partition_durations() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Every bucket's midpoint lies inside its range.
        for b in 1..BUCKETS - 1 {
            let lo = (1u64 << (b - 1)) as f64;
            let hi = (1u64 << b) as f64;
            let mid = bucket_mid_ns(b);
            assert!(lo <= mid && mid < hi, "bucket {b}: {lo} <= {mid} < {hi}");
        }
    }

    #[test]
    fn percentiles_separate_tight_body_from_slow_tail() {
        // Ten fast sections (~1 µs) and one slow outlier (~1 ms): the
        // outlier is the top sample, so nearest-rank p99 (the 11th of 11)
        // lands in its bucket while the median stays in the fast body.
        let cell = TimingCell::new();
        for _ in 0..10 {
            cell.record(1_000);
        }
        cell.record(1_000_000);
        let t = cell.snapshot();
        assert_eq!(t.count, 11);
        assert!(
            t.p50_us < 2.0,
            "p50 {} should sit in the fast body",
            t.p50_us
        );
        assert!(
            t.p99_us > 100.0,
            "p99 {} should surface the slow tail",
            t.p99_us
        );
        assert!(t.p50_us <= t.p99_us && t.p99_us <= t.max_us);
        // A top sample in the low half of its bucket: the bucket's
        // midpoint (~1.57 ms) lies above it, so p99 reads the max.
        cell.record(1_100_000);
        let t = cell.snapshot();
        assert!((t.p99_us - 1_100.0).abs() < 1e-9, "p99 {}", t.p99_us);
        assert_eq!(t.p99_us, t.max_us);
    }

    #[test]
    fn single_sample_percentiles_agree() {
        let cell = TimingCell::new();
        cell.record(5_000);
        let t = cell.snapshot();
        // One sample: p50 and p99 are the same bucket, within a factor
        // of two of the true 5 µs duration.
        assert_eq!(t.p50_us, t.p99_us);
        assert!(t.p50_us >= 2.5 && t.p50_us <= 10.0, "got {}", t.p50_us);
    }

    #[test]
    fn sections_record_only_while_enabled() {
        let cell = TimingCell::new();
        cell.record_since(None);
        assert_eq!(cell.snapshot().count, 0);
        cell.record_since(Some(Instant::now()));
        assert_eq!(cell.snapshot().count, 1);
        // The switch is process-wide and off by default; no other test
        // in this crate turns it on.
        assert!(start().is_none());
    }

    #[test]
    fn json_row_spells_every_field() {
        let cell = TimingCell::new();
        cell.record(1_500);
        assert_eq!(
            cell.snapshot().json_row("pass", "annotate"),
            "{\"pass\":\"annotate\",\"count\":1,\"mean_us\":1.500,\"p50_us\":1.500,\
             \"p99_us\":1.500,\"max_us\":1.500}"
        );
    }

    #[test]
    fn ratio_harness_passes_linear_work_and_fails_quadratic() {
        let spin = |n: u64| {
            let mut x = 0u64;
            for i in 0..n {
                x = std::hint::black_box(x ^ i);
            }
        };
        let quadratic = |n: u64| spin(n * n / 100);
        // The thread clock only: this binary's other tests run on sibling
        // threads, which the process clock would count.
        assert_ratio(
            Clock::Thread,
            "linear",
            16.0,
            (8, |_| spin(20_000)),
            (1, |_| spin(160_000)),
        );
        let failed = std::panic::catch_unwind(|| {
            assert_ratio(
                Clock::Thread,
                "quadratic",
                16.0,
                (8, |_| quadratic(2_000)),
                (1, |_| quadratic(16_000)),
            );
        });
        let payload = failed.expect_err("a 64x ratio fails a 16x bound");
        let message = payload.downcast_ref::<String>().expect("formatted message");
        assert!(message.starts_with("quadratic: large took"), "{message}");
    }
}
