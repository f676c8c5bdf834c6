//! Request-lifecycle telemetry: deterministic sampling and the record
//! ring behind one enable gate.
//!
//! A [`Telemetry`] instance is embedded per owner (each serve engine's
//! `Metrics` carries one), configured by a [`TelemetryConfig`] passed
//! in by its owner (`groupsa-serve --obs-sample 1/N`, or injected
//! directly by tests and benches):
//!
//! * `sample_every = N` — record every request whose id-hash is
//!   `0 mod N` (`1/1` records everything); `0` means telemetry is
//!   **off**.
//! * `slow_us` — requests slower than this are captured even when
//!   sampled out (default [`DEFAULT_SLOW_US`]).
//! * `ring_capacity` — record-ring capacity (default
//!   [`DEFAULT_RING_CAPACITY`]).
//!
//! Windowed rates are not kept here: a reader diffs two reads of the
//! engine's lifetime counters and histograms (what `obs_top` does).
//!
//! ## Determinism and the zero-overhead contract
//!
//! Sampling hashes the client-chosen request id through a fixed
//! SplitMix64 finalizer — no RNG, no per-process seed — so the same
//! workload samples the same requests on every run, and telemetry can
//! never perturb anything seeded. When disabled, every entry point
//! checks one immutable boolean and returns: no clock read, no atomic
//! RMW, no allocation — the same contract `GROUPSA_TRACE` gating keeps
//! (DESIGN §10), so serve responses are bit-identical with telemetry
//! compiled in but off.

use crate::record::{RecordRing, RequestRecord};
use std::time::Instant;

/// Default slow-request threshold: 50 ms end-to-end.
pub const DEFAULT_SLOW_US: u64 = 50_000;

/// Default record-ring capacity.
pub const DEFAULT_RING_CAPACITY: usize = 1024;

/// The fixed SplitMix64 finalizer used as the sampling hash: id in,
/// well-mixed 64 bits out, no state. Public so tests and tools can
/// predict exactly which ids a `1/N` config samples.
pub fn hash_id(id: u64) -> u64 {
    let mut z = id.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Telemetry tuning, injected per engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Record one request in `sample_every` by id-hash; `0` disables
    /// telemetry entirely.
    pub sample_every: u64,
    /// Requests with `total_us` at or above this are captured even
    /// when sampled out.
    pub slow_us: u64,
    /// Record-ring capacity.
    pub ring_capacity: usize,
}

impl TelemetryConfig {
    /// Telemetry off: the zero-overhead default.
    pub const fn disabled() -> Self {
        TelemetryConfig {
            sample_every: 0,
            slow_us: DEFAULT_SLOW_US,
            ring_capacity: DEFAULT_RING_CAPACITY,
        }
    }

    /// Sampling one request in `every` (0 = off), defaults elsewhere.
    pub const fn sampling(every: u64) -> Self {
        TelemetryConfig {
            sample_every: every,
            slow_us: DEFAULT_SLOW_US,
            ring_capacity: DEFAULT_RING_CAPACITY,
        }
    }

    /// Parses a `--obs-sample` spec: `1/N` (or bare `N`, meaning
    /// the same) → `N`; anything else → `0` (off). No panics — a
    /// malformed spec silently disables telemetry rather than taking
    /// the server down.
    pub fn parse_sample(spec: &str) -> u64 {
        let spec = spec.trim();
        let denom = match spec.split_once('/') {
            Some(("1", denom)) => denom.trim(),
            Some(_) => return 0,
            None => spec,
        };
        denom.parse::<u64>().unwrap_or(0)
    }
}

/// Per-owner telemetry state: the enable gate, the sampling decision,
/// and the record ring. See the module docs.
#[derive(Debug)]
pub struct Telemetry {
    cfg: TelemetryConfig,
    /// Epoch for `arrival_us`. Read only inside the enabled gate.
    start: Instant,
    ring: RecordRing,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Telemetry {
    /// Telemetry with an explicit config.
    pub fn new(cfg: TelemetryConfig) -> Self {
        Telemetry {
            cfg,
            start: Instant::now(),
            ring: RecordRing::new(cfg.ring_capacity),
        }
    }

    /// Telemetry that is off (every entry point returns immediately).
    pub fn disabled() -> Self {
        Self::new(TelemetryConfig::disabled())
    }

    /// The zero-overhead gate: one immutable boolean. Everything else
    /// in this type is a no-op when this is `false`.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.cfg.sample_every != 0
    }

    /// The active config.
    pub fn config(&self) -> TelemetryConfig {
        self.cfg
    }

    /// Whether request `id` is in the deterministic sample: enabled
    /// and `hash_id(id) % sample_every == 0`.
    #[inline]
    pub fn sampled(&self, id: u64) -> bool {
        self.enabled() && hash_id(id) % self.cfg.sample_every == 0
    }

    /// µs since this telemetry instance started (the `arrival_us`
    /// epoch). Only meaningful — and only called — when enabled.
    pub fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// µs from telemetry start to `t` (0 when `t` predates it, which
    /// only a caller-constructed Instant can).
    pub fn us_since_start(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.start).as_micros() as u64
    }

    /// Files a finished record: marks it slow when `total_us` crosses
    /// the threshold, pushes it to the ring when sampled *or* slow,
    /// and mirrors it into the trace (`request_record` event) when
    /// tracing is on. `sampled` is the admission-time
    /// [`Telemetry::sampled`] decision, passed back in so the hash is
    /// computed once per request.
    pub fn observe(&self, mut record: RequestRecord, sampled: bool) {
        if !self.enabled() {
            return;
        }
        record.slow = record.total_us >= self.cfg.slow_us;
        if !(sampled || record.slow) {
            return;
        }
        self.ring.push(&record);
        if crate::enabled() {
            crate::emit(
                "request_record",
                &[
                    ("id", crate::to_json(&record.id)),
                    ("outcome", crate::to_json(&record.outcome.name())),
                    ("arrival_us", crate::to_json(&record.arrival_us)),
                    ("queue_us", crate::to_json(&record.queue_us)),
                    ("batch", crate::to_json(&record.batch)),
                    ("score_us", crate::to_json(&record.score_us)),
                    ("write_us", crate::to_json(&record.write_us)),
                    ("total_us", crate::to_json(&record.total_us)),
                    ("slow", crate::to_json(&record.slow)),
                ],
            );
        }
    }

    /// Every completely-stored record, oldest arrival first.
    pub fn records(&self) -> Vec<RequestRecord> {
        self.ring.snapshot()
    }

    /// Only the records captured as slow, oldest first.
    pub fn slow_records(&self) -> Vec<RequestRecord> {
        self.ring.snapshot().into_iter().filter(|r| r.slow).collect()
    }

    /// Total ring pushes attempted (sampled + slow captures).
    pub fn ring_pushed(&self) -> u64 {
        self.ring.pushed()
    }

    /// Ring pushes dropped under same-slot contention.
    pub fn ring_dropped(&self) -> u64 {
        self.ring.dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordOutcome;

    #[test]
    fn sample_spec_parsing() {
        assert_eq!(TelemetryConfig::parse_sample("1/1"), 1);
        assert_eq!(TelemetryConfig::parse_sample("1/64"), 64);
        assert_eq!(TelemetryConfig::parse_sample(" 1/8 "), 8);
        assert_eq!(TelemetryConfig::parse_sample("16"), 16);
        assert_eq!(TelemetryConfig::parse_sample("2/3"), 0, "only 1/N specs");
        assert_eq!(TelemetryConfig::parse_sample("off"), 0);
        assert_eq!(TelemetryConfig::parse_sample(""), 0);
    }

    #[test]
    fn sampling_is_deterministic_and_roughly_one_in_n() {
        let t = Telemetry::new(TelemetryConfig::sampling(64));
        let first: Vec<u64> = (0..10_000).filter(|&id| t.sampled(id)).collect();
        let again: Vec<u64> = (0..10_000).filter(|&id| t.sampled(id)).collect();
        assert_eq!(first, again, "no RNG: the sample is a pure function of the id");
        // 10 000 ids at 1/64 ≈ 156 expected; the fixed hash gives a
        // fixed count — pin a loose band so a hash change is caught.
        assert!((100..=220).contains(&first.len()), "got {}", first.len());
        let all = Telemetry::new(TelemetryConfig::sampling(1));
        assert!((0..1000).all(|id| all.sampled(id)), "1/1 samples everything");
    }

    #[test]
    fn disabled_telemetry_ignores_everything() {
        let t = Telemetry::disabled();
        assert!(!t.enabled());
        assert!(!t.sampled(0), "even hash 0 is not sampled when off");
        t.observe(RequestRecord { id: 1, total_us: u64::MAX, ..Default::default() }, true);
        assert!(t.records().is_empty());
    }

    #[test]
    fn slow_requests_are_captured_even_when_sampled_out() {
        let cfg = TelemetryConfig { sample_every: 1 << 60, slow_us: 1000, ring_capacity: 16 };
        let t = Telemetry::new(cfg);
        t.observe(RequestRecord { id: 1, total_us: 999, ..Default::default() }, false);
        t.observe(RequestRecord { id: 2, total_us: 1000, ..Default::default() }, false);
        let records = t.records();
        assert_eq!(records.len(), 1, "only the slow request is captured");
        assert_eq!(records[0].id, 2);
        assert!(records[0].slow);
        assert_eq!(t.slow_records().len(), 1);
    }

    #[test]
    fn sampled_records_keep_their_outcome_and_fast_ones_are_not_slow() {
        let t = Telemetry::new(TelemetryConfig::sampling(1));
        t.observe(
            RequestRecord { id: 3, outcome: RecordOutcome::Shed, total_us: 5, ..Default::default() },
            true,
        );
        let records = t.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].outcome, RecordOutcome::Shed);
        assert!(!records[0].slow);
    }
}
