//! Admission policy primitives: the observed-service-time estimator
//! behind deadline-aware load shedding, and the per-client token
//! bucket behind rate limiting.
//!
//! Both are deliberately simple and allocation-free — they run at
//! enqueue time under the queue lock ([`ServiceEstimate`]) or on the
//! connection thread ([`TokenBucket`]), so a request pays a handful of
//! arithmetic ops for the whole policy layer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// EWMA smoothing as a power-of-two divisor: each observation moves
/// the estimate 1/8 of the way to the sample. Small enough to ride out
/// one odd request, large enough to track a workload shift within a
/// couple dozen completions.
const EWMA_SHIFT: u32 = 3;

/// A lossy exponentially-weighted moving average of per-request
/// service time (µs), fed by the workers and read by the admission
/// path to predict how long a new arrival would wait in queue.
///
/// Updates race benignly (relaxed load + store, occasionally dropping
/// an observation) — the estimate steers a *shedding heuristic*, not
/// an accounting invariant, and a lock here would put every completed
/// request on a shared contended path.
#[derive(Debug, Default)]
pub(crate) struct ServiceEstimate {
    ewma_us: AtomicU64,
}

impl ServiceEstimate {
    /// A fresh estimator. Until the first observation it predicts zero
    /// wait, so a cold engine never sheds — optimism is the right
    /// failure mode when nothing has been measured yet.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Folds one measured per-request service time into the average.
    pub(crate) fn observe(&self, sample_us: u64) {
        let old = self.ewma_us.load(Ordering::Relaxed);
        let new = if old == 0 {
            sample_us
        } else {
            old - (old >> EWMA_SHIFT) + (sample_us >> EWMA_SHIFT)
        };
        self.ewma_us.store(new, Ordering::Relaxed);
    }

    /// The current smoothed per-request service time (µs).
    pub(crate) fn service_us(&self) -> u64 {
        self.ewma_us.load(Ordering::Relaxed)
    }

    /// Predicted queue wait (µs) for a request arriving behind
    /// `queued` others with `workers` threads draining: the shed
    /// policy formula `queued × ewma_service / workers`. Every waiting
    /// job is in `queued` (a worker pops one job at a time, so none
    /// hide in a worker's hands); it is still optimistic — it ignores
    /// the job each worker is mid-way through — so shedding only fires
    /// on real queue buildup, never on an idle engine.
    pub(crate) fn predicted_wait_us(&self, queued: usize, workers: usize) -> u64 {
        (queued as u64).saturating_mul(self.service_us()) / workers.max(1) as u64
    }
}

/// A classic token bucket: `rate` tokens/second refill up to a burst
/// capacity; each admitted request spends one token. Owned by a single
/// connection thread, so it needs no interior mutability.
#[derive(Debug)]
pub(crate) struct TokenBucket {
    rate_per_s: f64,
    capacity: f64,
    tokens: f64,
    refilled: Instant,
}

impl TokenBucket {
    /// A bucket refilling at `rate` tokens/second with `burst`
    /// capacity (both floored at 1 so a configured limiter always
    /// admits *something*). Starts full, so a client gets its burst
    /// up front.
    pub(crate) fn new(rate: u64, burst: u64) -> Self {
        let capacity = burst.max(1) as f64;
        Self { rate_per_s: rate.max(1) as f64, capacity, tokens: capacity, refilled: Instant::now() }
    }

    /// Spends one token if available at `now`; `false` means the
    /// caller should answer `RateLimited`.
    pub(crate) fn admit(&mut self, now: Instant) -> bool {
        let dt = now.saturating_duration_since(self.refilled).as_secs_f64();
        self.refilled = now;
        self.tokens = (self.tokens + dt * self.rate_per_s).min(self.capacity);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn estimate_starts_optimistic_and_converges() {
        let est = ServiceEstimate::new();
        assert_eq!(est.predicted_wait_us(100, 1), 0, "cold estimator never sheds");
        est.observe(800);
        assert_eq!(est.service_us(), 800, "first sample adopted directly");
        for _ in 0..64 {
            est.observe(1600);
        }
        let s = est.service_us();
        assert!(s > 1400 && s <= 1600, "EWMA converges towards the new level, got {s}");
    }

    #[test]
    fn predicted_wait_scales_with_queue_and_workers() {
        let est = ServiceEstimate::new();
        est.observe(1000);
        assert_eq!(est.predicted_wait_us(10, 1), 10_000);
        assert_eq!(est.predicted_wait_us(10, 2), 5_000);
        assert_eq!(est.predicted_wait_us(0, 2), 0, "empty queue predicts no wait");
        assert_eq!(est.predicted_wait_us(10, 0), 10_000, "worker floor of 1");
    }

    #[test]
    fn token_bucket_spends_burst_then_refills() {
        let t0 = Instant::now();
        let mut bucket = TokenBucket::new(1000, 3);
        assert!(bucket.admit(t0));
        assert!(bucket.admit(t0));
        assert!(bucket.admit(t0));
        assert!(!bucket.admit(t0), "burst exhausted at the same instant");
        // 2 ms at 1000 tokens/s refills ~2 tokens.
        let later = t0 + Duration::from_millis(2);
        assert!(bucket.admit(later));
        assert!(bucket.admit(later));
        assert!(!bucket.admit(later));
    }

    #[test]
    fn token_bucket_never_exceeds_capacity() {
        let t0 = Instant::now();
        let mut bucket = TokenBucket::new(1_000_000, 2);
        let much_later = t0 + Duration::from_secs(60);
        assert!(bucket.admit(much_later));
        assert!(bucket.admit(much_later));
        assert!(!bucket.admit(much_later), "refill caps at burst capacity");
    }
}
