//! Lock-free metric primitives: counters, gauges, fixed-bucket histograms.
//!
//! Everything here is built from `std::sync::atomic` with `Relaxed`
//! ordering — a metric update is a statement about *activity volume*, not a
//! synchronisation edge, and the hot path (a worker applying an event) must
//! pay at most a handful of uncontended atomic adds. No metric operation
//! allocates; histograms use a fixed power-of-two bucket layout sized at
//! compile time.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-written-value instrument (occupancy, queue depth right now).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge starting at zero.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrite the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Move the value by a signed `delta` (wrapping), for a gauge several
    /// writers each hold a share of: every writer adds the change in its
    /// own share, and the value is the sum.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta as u64, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets. Bucket `0` holds the value `0`; bucket `i`
/// holds values in `[2^(i-1), 2^i)`; the last bucket absorbs everything
/// beyond `2^(BUCKETS-2)`.
pub const BUCKETS: usize = 32;

/// A lock-free histogram over power-of-two buckets.
///
/// Recording is three relaxed atomic adds and one `fetch_max` — no locks,
/// no allocation, no floating point. Power-of-two buckets trade resolution
/// for a bucket-index computation that is a single `leading_zeros`; for the
/// quantities recorded here (nanoseconds, queue depths, instance counts)
/// "within 2×" is exactly the fidelity an overhead budget needs.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket index a value falls into.
pub fn bucket_index(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// The exclusive upper bound of bucket `i` (`u64::MAX` for the last).
pub fn bucket_bound(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << i
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy. Reads are per-field relaxed loads; a snapshot
    /// taken concurrently with writers is internally near-consistent (each
    /// field is exact as of its own read), which is all an exported page
    /// promises.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A frozen copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`bucket_bound`]).
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (0 ≤ q ≤ 1).
    /// Conservative: the true value is at most this.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target.max(1) {
                return bucket_bound(i).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(9);
        g.set(3);
        assert_eq!(g.get(), 3);
        g.add(4);
        g.add(-6);
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn bucket_layout_is_power_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Every value lands in the bucket whose bound exceeds it.
        for v in [0u64, 1, 7, 100, 4096, 1 << 40] {
            let i = bucket_index(v);
            assert!(v < bucket_bound(i), "{v} vs bucket {i}");
            if i > 0 && i < BUCKETS - 1 {
                assert!(v >= bucket_bound(i - 1) || v == 0);
            }
        }
    }

    #[test]
    fn histogram_records_and_summarises() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1106);
        assert_eq!(s.max, 1000);
        assert!((s.mean() - 221.2).abs() < 1e-9);
        assert!(s.quantile(0.5) >= 3);
        assert!(s.quantile(1.0) <= 1000);
        // Value 1 lives in the [1, 2) bucket, so its conservative bound is 2.
        assert_eq!(s.quantile(0.0), 2, "bound of the lowest non-empty bucket");
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.count, 0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 4000);
    }
}
