//! Dependency-free wall-clock harness behind `kernel_bench`.
//!
//! Each benchmark is warmed up, then run for `sample_size` samples,
//! each sample timing a batch of iterations sized so the whole
//! measurement fits in `measurement_time`. [`Harness::bench_stats`]
//! prints one report line and returns the min / median / mean
//! per-iteration time. There is no outlier analysis: the perf gate
//! compares the minimum, the least-noisy estimate of a kernel's cost.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The timing loop handed to benchmark closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine` over the sample's iteration budget.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` with a fresh `setup()` product per call; only the
    /// routine is timed.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }
}

/// Summary statistics of one benchmark's samples, in nanoseconds per
/// iteration.
#[derive(Clone, Copy, Debug)]
pub struct SampleStats {
    /// Fastest observed sample: what regression gating compares.
    pub min_ns: f64,
    /// Median sample.
    pub median_ns: f64,
    /// Mean over all samples.
    pub mean_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
}

/// Measurement budget for every benchmark run through it.
#[derive(Clone, Copy, Debug)]
pub struct Harness {
    /// Timed samples per benchmark (at least 1).
    pub sample_size: usize,
    /// Wall-clock budget of one benchmark's timed samples.
    pub measurement_time: Duration,
    /// Wall-clock budget of one benchmark's warm-up.
    pub warm_up_time: Duration,
}

impl Harness {
    /// Runs one benchmark, prints its report line under `label`, and
    /// returns its summary statistics.
    pub fn bench_stats<F>(&self, label: &str, mut f: F) -> SampleStats
    where
        F: FnMut(&mut Bencher),
    {
        assert!(self.sample_size >= 1, "sample_size must be at least 1");
        // Warm-up: run single iterations until the budget is spent, and
        // use the observed cost to size the measurement batches.
        let warm_up_start = Instant::now();
        let mut warm_up_iters: u64 = 0;
        let mut warm_up_elapsed = Duration::ZERO;
        while warm_up_start.elapsed() < self.warm_up_time {
            let mut b = Bencher { iters: 1, elapsed: Duration::ZERO };
            f(&mut b);
            warm_up_elapsed += b.elapsed;
            warm_up_iters += 1;
        }
        let per_iter = warm_up_elapsed.as_secs_f64() / warm_up_iters.max(1) as f64;

        // Size each sample so that `sample_size` samples fill the budget.
        let budget_per_sample = self.measurement_time.as_secs_f64() / self.sample_size as f64;
        let iters_per_sample =
            if per_iter > 0.0 { (budget_per_sample / per_iter).round().max(1.0) as u64 } else { 1 };

        let mut per_iter_ns = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let mut b = Bencher { iters: iters_per_sample, elapsed: Duration::ZERO };
            f(&mut b);
            per_iter_ns.push(b.elapsed.as_secs_f64() * 1e9 / iters_per_sample as f64);
        }
        let stats = sample_stats(&mut per_iter_ns);
        println!(
            "{label:<48} min {:>10}  median {:>10}  mean {:>10}  ({} samples)",
            fmt_ns(stats.min_ns),
            fmt_ns(stats.median_ns),
            fmt_ns(stats.mean_ns),
            stats.samples
        );
        stats
    }
}

/// Sorts a non-empty set of per-iteration timings and summarises it.
fn sample_stats(per_iter_ns: &mut [f64]) -> SampleStats {
    per_iter_ns.sort_by(f64::total_cmp);
    let n = per_iter_ns.len();
    let median = if n % 2 == 1 {
        per_iter_ns[n / 2]
    } else {
        (per_iter_ns[n / 2 - 1] + per_iter_ns[n / 2]) / 2.0
    };
    SampleStats {
        min_ns: per_iter_ns[0],
        median_ns: median,
        mean_ns: per_iter_ns.iter().sum::<f64>() / n as f64,
        samples: n,
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_harness() -> Harness {
        Harness {
            sample_size: 3,
            measurement_time: Duration::from_millis(30),
            warm_up_time: Duration::from_millis(5),
        }
    }

    #[test]
    fn bench_stats_returns_ordered_summaries() {
        let stats = fast_harness().bench_stats("stats", |b| b.iter(|| black_box(1u64.wrapping_mul(3))));
        assert_eq!(stats.samples, 3);
        assert!(stats.min_ns > 0.0);
        assert!(stats.min_ns <= stats.median_ns, "min ≤ median");
        assert!(stats.min_ns <= stats.mean_ns, "min ≤ mean");
        assert!(stats.mean_ns.is_finite());
    }

    #[test]
    fn iter_batched_gets_fresh_inputs() {
        let mut seen = Vec::new();
        let mut counter = 0u64;
        fast_harness().bench_stats("batched", |b| {
            b.iter_batched(
                || {
                    counter += 1;
                    counter
                },
                |input| seen.push(input),
            )
        });
        assert!(!seen.is_empty());
        assert!(seen.windows(2).all(|w| w[1] > w[0]), "inputs are fresh each call");
    }

    #[test]
    fn sample_stats_picks_min_median_mean() {
        let stats = sample_stats(&mut [4.0, 1.0, 3.0, 2.0]);
        assert_eq!((stats.min_ns, stats.median_ns, stats.mean_ns, stats.samples), (1.0, 2.5, 2.5, 4));
        let stats = sample_stats(&mut [5.0, 1.0, 3.0]);
        assert_eq!((stats.min_ns, stats.median_ns, stats.mean_ns), (1.0, 3.0, 3.0));
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert!(fmt_ns(12.0).ends_with("ns"));
        assert!(fmt_ns(12_000.0).ends_with("µs"));
        assert!(fmt_ns(12_000_000.0).ends_with("ms"));
        assert!(fmt_ns(2_000_000_000.0).ends_with('s'));
    }
}
