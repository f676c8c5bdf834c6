//! Lock-free metric primitives.
//!
//! Counters, gauges, and log₂ histograms are plain structs over
//! relaxed atomics, embedded directly in a subsystem's own metrics
//! struct (the serve engine does this, so two engines in one process
//! never share counters). Updates never take a lock.

use groupsa_json::impl_json_struct;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log₂ histogram buckets; bucket `i > 0` covers
/// `[2^(i−1), 2^i)`, bucket 0 covers the value `0`. With microsecond
/// samples the top bucket starts at 2³⁸ µs ≈ 76 h, so it never
/// saturates in practice.
pub const NUM_BUCKETS: usize = 40;

/// The bucket a value falls into: 0 for 0, otherwise
/// `⌈log₂(v+1)⌉` clamped to the top bucket.
pub fn bucket_of(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(NUM_BUCKETS - 1)
}

/// Upper bound of a bucket — the value percentile queries report.
pub fn bucket_upper(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else {
        1u64 << bucket
    }
}

/// Histogram percentile: the upper bound of the first bucket whose
/// cumulative count reaches `q·total` — exact to within the bucket's
/// power-of-two resolution. `total` must be the sum of `counts`.
pub fn percentile(counts: &[u64], total: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cum = 0;
    for (i, &c) in counts.iter().enumerate() {
        cum += c;
        if cum >= rank {
            return bucket_upper(i);
        }
    }
    bucket_upper(counts.len() - 1)
}

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A sampled value that remembers both the most recent sample and the
/// high-watermark. The pair is what makes saturation visible: a queue
/// that drained just before the snapshot still shows its peak depth.
#[derive(Debug, Default)]
pub struct Gauge {
    last: AtomicU64,
    max: AtomicU64,
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample: overwrites the last value, raises the
    /// high-watermark if exceeded.
    pub fn set(&self, value: u64) {
        self.last.store(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// The most recent sample.
    pub fn last(&self) -> u64 {
        self.last.load(Ordering::Relaxed)
    }

    /// The largest sample ever recorded.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }
}

/// A log₂-bucketed histogram with exact count and sum (so the mean is
/// exact while percentiles have power-of-two resolution).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration in microseconds (saturating on overflow).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The raw bucket counts (relaxed reads).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// A point-in-time copy with derived mean and percentiles
    /// (consistent-enough: relaxed reads, exact once writers are
    /// quiescent).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self.bucket_counts();
        // Derive the total from the buckets themselves so count,
        // percentiles, and buckets are mutually consistent even if a
        // concurrent `record` lands between the loads.
        let count: u64 = buckets.iter().sum();
        let sum = self.sum();
        HistogramSnapshot {
            count,
            sum,
            mean: if count == 0 { 0.0 } else { sum as f64 / count as f64 },
            p50: percentile(&buckets, count, 0.50),
            p95: percentile(&buckets, count, 0.95),
            p99: percentile(&buckets, count, 0.99),
            buckets,
        }
    }
}

/// Serialisable histogram state: exact count/sum/mean, histogram-derived
/// percentiles (bucket upper bounds), and the raw bucket array.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Recorded samples.
    pub count: u64,
    /// Sum of samples (exact).
    pub sum: u64,
    /// Mean sample (exact).
    pub mean: f64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 95th percentile (bucket upper bound).
    pub p95: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
    /// Raw log₂ bucket counts.
    pub buckets: Vec<u64>,
}

impl_json_struct!(HistogramSnapshot { count, sum, mean, p50, p95, p99, buckets });

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // Bucket 0 holds only the value 0.
        assert_eq!(bucket_of(0), 0);
        // Bucket i > 0 covers [2^(i-1), 2^i): check both edges around
        // every boundary up to the top bucket.
        for i in 1..NUM_BUCKETS - 1 {
            let lower = 1u64 << (i - 1);
            assert_eq!(bucket_of(lower), i, "lower edge of bucket {i}");
            assert_eq!(bucket_of(2 * lower - 1), i, "upper edge of bucket {i}");
            assert_eq!(bucket_of(2 * lower), i + 1, "first value past bucket {i}");
        }
        // Everything at or beyond 2^38 lands in the top bucket.
        assert_eq!(bucket_of(1 << (NUM_BUCKETS - 1)), NUM_BUCKETS - 1);
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 2);
        assert_eq!(bucket_upper(11), 2048);
    }

    #[test]
    fn percentiles_on_empty_histogram_are_zero() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.p50, s.p95, s.p99), (0, 0, 0, 0, 0));
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.buckets.len(), NUM_BUCKETS);
        assert!(s.buckets.iter().all(|&c| c == 0));
    }

    #[test]
    fn percentiles_on_single_bucket_fill_report_that_bucket() {
        let h = Histogram::new();
        // 1000 samples of value 5 → bucket 3 ([4, 8)), upper bound 8.
        for _ in 0..1000 {
            h.record(5);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 5000);
        assert_eq!((s.p50, s.p95, s.p99), (8, 8, 8));
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.buckets[3], 1000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn percentiles_on_synthetic_two_mode_fill_are_exact() {
        let h = Histogram::new();
        // 90 samples at 8 µs (bucket (4,8] → upper 16 since 8 is the
        // lower edge of bucket 4) and 10 at 1000 µs (bucket upper 1024).
        for _ in 0..90 {
            h.record(8);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        let s = h.snapshot();
        assert_eq!(s.p50, 16);
        assert_eq!(s.p95, 1024);
        assert_eq!(s.p99, 1024);
        // Rank arithmetic at the boundary: p90 is the last fast sample,
        // p91 the first slow one.
        assert_eq!(percentile(&s.buckets, s.count, 0.90), 16);
        assert_eq!(percentile(&s.buckets, s.count, 0.91), 1024);
    }

    #[test]
    fn percentile_rank_clamps_at_both_ends() {
        let counts = {
            let h = Histogram::new();
            h.record(1);
            h.bucket_counts()
        };
        assert_eq!(percentile(&counts, 1, 0.0), 2, "q=0 still reports the first sample");
        assert_eq!(percentile(&counts, 1, 1.0), 2);
    }

    /// The boundary-convention audit, pinned sample by sample:
    ///
    /// * value `0` is its own bucket (upper bound 0) — a histogram of
    ///   zeros reports every percentile as exactly 0;
    /// * value `1` lands in bucket 1, reported as its upper bound 2;
    /// * an exact power of two `2^k` is the *lower* edge of bucket
    ///   `k + 1` (`[2^k, 2^(k+1))`), so it reports as `2^(k+1)` — the
    ///   convention is "upper bound of the containing half-open
    ///   bucket", never the sample itself;
    /// * anything at or past `2^(NUM_BUCKETS−2)` saturates into the
    ///   top bucket and reports as `2^(NUM_BUCKETS−1)`.
    #[test]
    fn percentile_convention_is_pinned_at_exact_bucket_boundaries() {
        let zeros = Histogram::new();
        for _ in 0..10 {
            zeros.record(0);
        }
        let s = zeros.snapshot();
        assert_eq!((s.p50, s.p95, s.p99), (0, 0, 0), "bucket 0 holds exactly the value 0");

        let ones = Histogram::new();
        ones.record(1);
        let s = ones.snapshot();
        assert_eq!((s.p50, s.p99), (2, 2), "1 ∈ bucket 1 = [1,2) → upper bound 2");

        for k in [3u32, 10, 20] {
            let edge = Histogram::new();
            edge.record(1 << k);
            let s = edge.snapshot();
            assert_eq!(
                s.p50,
                1 << (k + 1),
                "2^{k} is the lower edge of [2^{k}, 2^{}) → upper bound 2^{}",
                k + 1,
                k + 1
            );
            // One below the edge stays in the previous bucket.
            let below = Histogram::new();
            below.record((1 << k) - 1);
            assert_eq!(below.snapshot().p50, 1 << k);
        }

        let top = Histogram::new();
        top.record(1 << (NUM_BUCKETS - 2)); // first value of the top bucket
        top.record(u64::MAX); // saturates into the same bucket
        let s = top.snapshot();
        assert_eq!(s.buckets[NUM_BUCKETS - 1], 2);
        assert_eq!(s.p99, 1 << (NUM_BUCKETS - 1), "top bucket reports 2^39");
    }

    /// A mixed fill across the boundary cases: the rank arithmetic
    /// (`ceil(q·total)` clamped to `[1, total]`, first bucket whose
    /// cumulative count reaches it) walks zeros → ones → edge values
    /// in order.
    #[test]
    fn percentile_rank_walks_mixed_boundary_fill_in_order() {
        let h = Histogram::new();
        for _ in 0..50 {
            h.record(0);
        }
        for _ in 0..40 {
            h.record(1);
        }
        for _ in 0..10 {
            h.record(16); // lower edge of [16, 32)
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, 0, "rank 50 is the last zero");
        assert_eq!(percentile(&s.buckets, s.count, 0.51), 2, "rank 51 is the first 1");
        assert_eq!(s.p95, 32, "rank 95 is an edge sample: upper bound of [16,32)");
        assert_eq!(s.p99, 32);
    }

    #[test]
    fn gauge_tracks_last_and_high_watermark() {
        let g = Gauge::new();
        g.set(3);
        g.set(11);
        g.set(2);
        assert_eq!(g.last(), 2, "last must be the most recent sample");
        assert_eq!(g.max(), 11, "max must be the high-watermark");
    }

    #[test]
    fn histogram_is_safe_under_concurrent_recording() {
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        h.record((t * 1000 + i) as u64 % 37);
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
