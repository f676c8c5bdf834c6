//! Engine metrics, built on the `groupsa-obs` primitives: atomic
//! counters, last+high-watermark gauges, and log₂-bucketed histograms
//! with derived p50/p95/p99, snapshotted on demand (`stats` requests)
//! and on shutdown.
//!
//! The primitives are *embedded* (not registered in the process-global
//! registry) so every [`Metrics`] instance — one per engine — has its
//! own counters; tests that spin up several engines in one process
//! never share state. What this module adds on top of `groupsa-obs` is
//! only the request-accounting vocabulary (submitted / completed /
//! errors / expired / shed / rejected / limited and the conservation
//! law between them: every submitted request lands in exactly one of
//! completed/errors/expired/shed, while rejected and limited requests
//! are answered before ever counting as submitted) and the
//! serialisable [`StatsSnapshot`].

use groupsa_json::impl_json_struct;
use groupsa_obs::expo::Exposition;
use groupsa_obs::{Counter, Gauge, Histogram, Telemetry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Live counters, updated by workers and the admission path with
/// relaxed atomics (metrics never synchronise data).
#[derive(Debug, Default)]
pub struct Metrics {
    submitted: Counter,
    completed: Counter,
    errors: Counter,
    rejected: Counter,
    expired: Counter,
    shed: Counter,
    limited: Counter,
    reloads: Counter,
    connections: Gauge,
    queue_depth: Gauge,
    latency: Histogram,
    queue_wait: Histogram,
    score: Histogram,
    /// Serialize-and-write time on connection writer threads; recorded
    /// only when telemetry is enabled (the stage is otherwise unmetered
    /// so the default path stays byte-for-byte the PR 8 hot path).
    write: Histogram,
    /// Monotone per-pop ids, handed out by [`Metrics::note_pop`] so a
    /// sampled record names the pop that took its job.
    batch_seq: AtomicU64,
    /// Request-lifecycle telemetry: the sampling gate and record ring.
    /// `Telemetry::disabled()` under `Default`, so plain
    /// `Metrics::default()` carries zero telemetry overhead.
    telemetry: Telemetry,
}

impl Metrics {
    /// Fresh metrics with telemetry off.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh metrics with an explicitly-configured [`Telemetry`].
    pub fn with_telemetry(telemetry: Telemetry) -> Self {
        Metrics { telemetry, ..Metrics::default() }
    }

    /// The embedded request-lifecycle telemetry.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Counts one admitted request.
    pub fn note_submitted(&self) {
        self.submitted.inc();
    }

    /// Counts one request rejected at admission (queue full / engine
    /// stopping).
    pub fn note_rejected(&self) {
        self.rejected.inc();
    }

    /// Counts one request dropped because its deadline passed while it
    /// waited in the queue. Disjoint from [`Metrics::note_error`]: a
    /// drained request is counted under exactly one of
    /// completed/errors/expired, so `submitted = completed + errors +
    /// expired` once the queue is drained.
    pub fn note_expired(&self) {
        self.expired.inc();
    }

    /// Counts one request answered with a (non-deadline) error.
    pub fn note_error(&self) {
        self.errors.inc();
    }

    /// Counts one request shed by deadline-aware admission control.
    /// Shed requests *are* counted as submitted — they reached the
    /// queue and were answered with a typed error — so under overload
    /// `submitted == completed + errors + expired + shed`.
    pub fn note_shed(&self) {
        self.shed.inc();
    }

    /// Counts one request refused by a per-client rate limit (answered
    /// at the connection layer, never submitted to the engine).
    pub fn note_limited(&self) {
        self.limited.inc();
    }

    /// Counts one successful hot-swap publish of a new frozen model.
    pub fn note_reload(&self) {
        self.reloads.inc();
    }

    /// Records the live connection-thread count observed by the accept
    /// loop after reaping finished handles — the regression signal for
    /// the handle-leak fix (a churned server must show this near zero,
    /// not the all-time connection count).
    pub fn note_open_connections(&self, n: usize) {
        self.connections.set(n as u64);
    }

    /// Counts one successfully answered request and records its
    /// admission-to-reply latency.
    pub fn note_completed(&self, latency: Duration) {
        self.completed.inc();
        self.latency.record_duration(latency);
    }

    /// Records one job popped by a worker, returning its monotone pop
    /// id (first pop = 1) for the job's sampled record.
    pub fn note_pop(&self) -> u64 {
        self.batch_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Records the serialize-and-write time of one response on a
    /// connection's writer thread. Only called when telemetry is
    /// enabled — the write stage is unmetered on the default path.
    pub fn note_write(&self, elapsed: Duration) {
        self.write.record_duration(elapsed);
    }

    /// Records the queue depth observed right after an enqueue, a pop
    /// or a drain — both the last-sampled value and the high-watermark,
    /// so saturation stays visible in snapshots after the queue drains.
    pub fn note_queue_depth(&self, depth: usize) {
        self.queue_depth.set(depth as u64);
    }

    /// Records how long one request sat queued before a worker popped
    /// it (the queue-wait lifecycle phase).
    pub fn note_queue_wait(&self, wait: Duration) {
        self.queue_wait.record_duration(wait);
    }

    /// Records the model-scoring time of one request (the score
    /// lifecycle phase; deadline-expired requests are not recorded).
    pub fn note_score(&self, elapsed: Duration) {
        self.score.record_duration(elapsed);
    }

    /// A consistent-enough point-in-time copy (relaxed reads; exact
    /// once the engine is quiescent, e.g. at shutdown).
    pub fn snapshot(&self, universe: Universe) -> StatsSnapshot {
        let latency = self.latency.snapshot();
        let queue_wait = self.queue_wait.snapshot();
        let score = self.score.snapshot();
        let write = self.write.snapshot();
        StatsSnapshot {
            submitted: self.submitted.get(),
            completed: self.completed.get(),
            errors: self.errors.get(),
            rejected: self.rejected.get(),
            expired: self.expired.get(),
            shed: self.shed.get(),
            limited: self.limited.get(),
            reloads: self.reloads.get(),
            open_connections: self.connections.last(),
            max_open_connections: self.connections.max(),
            mean_batch: if queue_wait.count == 0 { 0.0 } else { 1.0 },
            max_queue_depth: self.queue_depth.max(),
            last_queue_depth: self.queue_depth.last(),
            mean_latency_us: latency.mean,
            p50_latency_us: latency.p50,
            p95_latency_us: latency.p95,
            p99_latency_us: latency.p99,
            latency_buckets: latency.buckets,
            mean_queue_wait_us: queue_wait.mean,
            p95_queue_wait_us: queue_wait.p95,
            mean_score_us: score.mean,
            p95_score_us: score.p95,
            mean_write_us: write.mean,
            p95_write_us: write.p95,
            num_users: universe.num_users,
            num_items: universe.num_items,
            num_groups: universe.num_groups,
        }
    }

    /// Renders the `MetricsDump` exposition page: every engine metric
    /// (counters, gauges, stage histograms), telemetry meta and the most
    /// recent slow-request records. Windowed rates are the reader's to
    /// derive by diffing two pages' counters and histogram buckets.
    /// Every name in [`EXPOSITION_METRICS`] is always declared, so
    /// validators can assert coverage against a page from any engine
    /// state.
    pub fn exposition(&self) -> String {
        let mut e = Exposition::new();
        for (name, value) in [
            ("groupsa_serve_submitted_total", self.submitted.get()),
            ("groupsa_serve_completed_total", self.completed.get()),
            ("groupsa_serve_errors_total", self.errors.get()),
            ("groupsa_serve_rejected_total", self.rejected.get()),
            ("groupsa_serve_expired_total", self.expired.get()),
            ("groupsa_serve_shed_total", self.shed.get()),
            ("groupsa_serve_limited_total", self.limited.get()),
            ("groupsa_serve_reloads_total", self.reloads.get()),
        ] {
            e.counter(name, value);
        }
        for (name, gauge) in [
            ("groupsa_serve_open_connections", &self.connections),
            ("groupsa_serve_queue_depth", &self.queue_depth),
        ] {
            e.labeled_gauge(name, &[("stat", "last")], gauge.last() as f64);
            e.labeled_gauge(name, &[("stat", "max")], gauge.max() as f64);
        }
        for (name, histogram) in [
            ("groupsa_serve_latency_us", &self.latency),
            ("groupsa_serve_queue_wait_us", &self.queue_wait),
            ("groupsa_serve_score_us", &self.score),
            ("groupsa_serve_write_us", &self.write),
        ] {
            e.histogram(name, &histogram.snapshot());
        }
        e.gauge("groupsa_obs_sample_every", self.telemetry.config().sample_every as f64);
        e.counter("groupsa_obs_ring_pushed_total", self.telemetry.ring_pushed());
        // Most recent slow requests, newest last, as labelled samples
        // (value = total µs; the stage split rides in the labels).
        e.labeled_gauge("groupsa_serve_slow_request_us", &[("id", "none")], 0.0);
        let slow = self.telemetry.slow_records();
        for record in slow.iter().rev().take(16).rev() {
            let id = record.id.to_string();
            let (queue, score, write) = (
                record.queue_us.to_string(),
                record.score_us.to_string(),
                record.write_us.to_string(),
            );
            e.labeled_gauge(
                "groupsa_serve_slow_request_us",
                &[
                    ("id", id.as_str()),
                    ("outcome", record.outcome.name()),
                    ("queue_us", queue.as_str()),
                    ("score_us", score.as_str()),
                    ("write_us", write.as_str()),
                ],
                record.total_us as f64,
            );
        }
        e.render()
    }
}

/// The metric names every exposition page declares regardless of
/// engine state — the coverage contract `serve_bench --metrics` and
/// the tier-1 MetricsDump smoke validate.
pub const EXPOSITION_METRICS: &[&str] = &[
    "groupsa_serve_submitted_total",
    "groupsa_serve_completed_total",
    "groupsa_serve_errors_total",
    "groupsa_serve_rejected_total",
    "groupsa_serve_expired_total",
    "groupsa_serve_shed_total",
    "groupsa_serve_limited_total",
    "groupsa_serve_reloads_total",
    "groupsa_serve_open_connections",
    "groupsa_serve_queue_depth",
    "groupsa_serve_latency_us",
    "groupsa_serve_queue_wait_us",
    "groupsa_serve_score_us",
    "groupsa_serve_write_us",
    "groupsa_obs_sample_every",
    "groupsa_obs_ring_pushed_total",
    "groupsa_serve_slow_request_us",
];

/// The serving universe's sizes, contributed by the `FrozenModel` and
/// merged into the engine snapshot so clients can pick valid ids.
#[derive(Clone, Copy, Debug, Default)]
pub struct Universe {
    /// Users in the frozen universe.
    pub num_users: usize,
    /// Items in the frozen universe.
    pub num_items: usize,
    /// Groups in the frozen universe.
    pub num_groups: usize,
}

/// The queryable/serialisable metrics snapshot (`stats` responses,
/// shutdown dump, bench artifacts). Latency/queue-wait/score
/// percentiles are histogram-derived upper bounds in microseconds
/// (power-of-two resolution); the means are exact. The raw latency
/// bucket array is exposed alongside the derived percentiles so
/// downstream tooling can recompute any quantile.
#[derive(Clone, Debug, PartialEq)]
pub struct StatsSnapshot {
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with a non-deadline error.
    pub errors: u64,
    /// Requests refused at admission (never counted as submitted).
    pub rejected: u64,
    /// Requests dropped on deadline expiry (disjoint from `errors`;
    /// after a drain, `submitted == completed + errors + expired +
    /// shed`).
    pub expired: u64,
    /// Requests shed at enqueue time by deadline-aware admission
    /// control (counted as submitted, disjoint from the other three
    /// outcome categories).
    pub shed: u64,
    /// Requests refused by a per-client rate limit before ever
    /// reaching the engine (like `rejected`, never counted as
    /// submitted).
    pub limited: u64,
    /// Hot-swap publishes since the engine started.
    pub reloads: u64,
    /// Live connection threads at the accept loop's last reap.
    pub open_connections: u64,
    /// Most connection threads ever live at once.
    pub max_open_connections: u64,
    /// Jobs per worker pop: 1.0 once any job left the queue, 0.0
    /// before (each pop takes one job). Kept only because the serve
    /// benchmark reads it; delete it once the benchmark stops
    /// (ROADMAP item 1).
    pub mean_batch: f64,
    /// Deepest queue observed (high-watermark).
    pub max_queue_depth: u64,
    /// Most recently sampled queue depth (pairs with the watermark:
    /// a drained queue shows `last = 0` while `max` keeps the peak).
    pub last_queue_depth: u64,
    /// Mean admission-to-reply latency (µs, exact).
    pub mean_latency_us: f64,
    /// Median latency (µs, bucket upper bound).
    pub p50_latency_us: u64,
    /// 95th-percentile latency (µs, bucket upper bound).
    pub p95_latency_us: u64,
    /// 99th-percentile latency (µs, bucket upper bound).
    pub p99_latency_us: u64,
    /// Raw log₂ latency bucket counts (bucket `i > 0` covers
    /// `[2^(i−1), 2^i)` µs; bucket 0 is `< 1 µs`).
    pub latency_buckets: Vec<u64>,
    /// Mean time a request sat queued before a worker popped it (µs).
    pub mean_queue_wait_us: f64,
    /// 95th-percentile queue wait (µs, bucket upper bound).
    pub p95_queue_wait_us: u64,
    /// Mean model-scoring time per answered request (µs).
    pub mean_score_us: f64,
    /// 95th-percentile scoring time (µs, bucket upper bound).
    pub p95_score_us: u64,
    /// Mean serialize-and-write time per response on connection writer
    /// threads (µs; 0 unless telemetry is enabled — the write stage is
    /// unmetered on the default path).
    pub mean_write_us: f64,
    /// 95th-percentile write time (µs, bucket upper bound).
    pub p95_write_us: u64,
    /// Users in the frozen universe (lets clients pick valid ids).
    pub num_users: usize,
    /// Items in the frozen universe.
    pub num_items: usize,
    /// Groups in the frozen universe.
    pub num_groups: usize,
}

impl_json_struct!(StatsSnapshot {
    submitted,
    completed,
    errors,
    rejected,
    expired,
    shed,
    limited,
    reloads,
    open_connections,
    max_open_connections,
    mean_batch,
    max_queue_depth,
    last_queue_depth,
    mean_latency_us,
    p50_latency_us,
    p95_latency_us,
    p99_latency_us,
    latency_buckets,
    mean_queue_wait_us,
    p95_queue_wait_us,
    mean_score_us,
    p95_score_us,
    mean_write_us,
    p95_write_us,
    num_users,
    num_items,
    num_groups,
});

#[cfg(test)]
mod tests {
    use super::*;
    use groupsa_obs::bucket_of;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), groupsa_obs::NUM_BUCKETS - 1);
    }

    #[test]
    fn percentiles_report_bucket_upper_bounds() {
        let m = Metrics::new();
        // 90 fast requests (~8 µs), 10 slow (~1000 µs).
        for _ in 0..90 {
            m.note_completed(Duration::from_micros(8));
        }
        for _ in 0..10 {
            m.note_completed(Duration::from_micros(1000));
        }
        let s = m.snapshot(Universe::default());
        assert_eq!(s.completed, 100);
        assert_eq!(s.p50_latency_us, 16, "8 µs lands in (4,8] → upper bound 16");
        assert_eq!(s.p95_latency_us, 1024);
        assert_eq!(s.p99_latency_us, 1024);
        assert!((s.mean_latency_us - (90.0 * 8.0 + 10.0 * 1000.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_exposes_raw_buckets_consistent_with_percentiles() {
        let m = Metrics::new();
        for _ in 0..90 {
            m.note_completed(Duration::from_micros(8));
        }
        for _ in 0..10 {
            m.note_completed(Duration::from_micros(1000));
        }
        let s = m.snapshot(Universe::default());
        assert_eq!(s.latency_buckets.len(), groupsa_obs::NUM_BUCKETS);
        assert_eq!(s.latency_buckets[bucket_of(8)], 90);
        assert_eq!(s.latency_buckets[bucket_of(1000)], 10);
        assert_eq!(s.latency_buckets.iter().sum::<u64>(), s.completed);
        // The exposed buckets must re-derive the reported percentiles.
        let total: u64 = s.latency_buckets.iter().sum();
        assert_eq!(groupsa_obs::percentile(&s.latency_buckets, total, 0.50), s.p50_latency_us);
        assert_eq!(groupsa_obs::percentile(&s.latency_buckets, total, 0.99), s.p99_latency_us);
    }

    #[test]
    fn queue_stats_track_extremes() {
        let m = Metrics::new();
        m.note_queue_depth(3);
        m.note_queue_depth(11);
        m.note_queue_depth(2);
        let s = m.snapshot(Universe::default());
        assert_eq!(s.max_queue_depth, 11);
    }

    /// Regression: the snapshot must expose BOTH the last-sampled depth
    /// and the high-watermark — a queue that saturated and then drained
    /// used to be invisible behind a single number.
    #[test]
    fn queue_depth_keeps_high_watermark_after_drain() {
        let m = Metrics::new();
        m.note_queue_depth(64);
        m.note_queue_depth(0); // drained
        let s = m.snapshot(Universe::default());
        assert_eq!(s.last_queue_depth, 0, "last sample is the drained queue");
        assert_eq!(s.max_queue_depth, 64, "saturation must stay visible");
    }

    #[test]
    fn lifecycle_phase_timings_are_recorded() {
        let m = Metrics::new();
        m.note_queue_wait(Duration::from_micros(100));
        m.note_queue_wait(Duration::from_micros(300));
        m.note_score(Duration::from_micros(50));
        let s = m.snapshot(Universe::default());
        assert!((s.mean_queue_wait_us - 200.0).abs() < 1e-9);
        assert_eq!(s.p95_queue_wait_us, 512, "300 µs lands in (256,512]");
        assert!((s.mean_score_us - 50.0).abs() < 1e-9);
        assert_eq!(s.p95_score_us, 64);
    }

    #[test]
    fn empty_metrics_snapshot_is_all_zero() {
        let s = Metrics::new().snapshot(Universe::default());
        assert_eq!(s.p50_latency_us, 0);
        assert_eq!(s.mean_latency_us, 0.0);
        assert_eq!(s.mean_batch, 0.0);
        assert_eq!(s.last_queue_depth, 0);
        assert_eq!(s.mean_queue_wait_us, 0.0);
        assert!(s.latency_buckets.iter().all(|&c| c == 0));
    }

    #[test]
    fn overload_counters_are_disjoint_from_the_drain_categories() {
        let m = Metrics::new();
        for _ in 0..4 {
            m.note_submitted();
        }
        m.note_completed(Duration::from_micros(10));
        m.note_error();
        m.note_expired();
        m.note_shed(); // the 4th submitted request, shed at enqueue
        m.note_limited();
        m.note_rejected();
        m.note_reload();
        m.note_open_connections(3);
        m.note_open_connections(1);
        let s = m.snapshot(Universe::default());
        assert_eq!(s.submitted, s.completed + s.errors + s.expired + s.shed);
        assert_eq!(s.shed, 1);
        assert_eq!(s.limited, 1);
        assert_eq!(s.reloads, 1);
        assert_eq!(s.open_connections, 1, "gauge tracks the last reap");
        assert_eq!(s.max_open_connections, 3, "and the high-watermark");
    }

    #[test]
    fn exposition_declares_every_contract_metric_even_when_fresh() {
        let page = Metrics::new().exposition();
        let parsed = groupsa_obs::expo::parse(&page).expect("a fresh page parses");
        for name in EXPOSITION_METRICS {
            assert!(parsed.declares(name), "missing # TYPE for {name}");
        }
    }

    #[test]
    fn exposition_reflects_counters_and_slow_records() {
        use groupsa_obs::TelemetryConfig;
        let m = Metrics::with_telemetry(Telemetry::new(TelemetryConfig {
            sample_every: 1,
            slow_us: 0, // every observed record captures as slow
            ring_capacity: 64,
        }));
        m.note_submitted();
        m.note_completed(Duration::from_micros(400));
        m.note_write(Duration::from_micros(30));
        m.telemetry().observe(
            groupsa_obs::RequestRecord { id: 77, total_us: 123, ..Default::default() },
            true,
        );
        let page = m.exposition();
        let parsed = groupsa_obs::expo::parse(&page).unwrap();
        assert_eq!(parsed.value("groupsa_serve_submitted_total"), Some(1.0));
        assert_eq!(parsed.value("groupsa_serve_write_us_count"), Some(1.0));
        assert_eq!(parsed.value("groupsa_obs_sample_every"), Some(1.0));
        let slow = parsed.all("groupsa_serve_slow_request_us");
        assert!(
            slow.iter().any(|s| s.labels.iter().any(|(k, v)| k == "id" && v == "77")),
            "the slow record must surface as a labelled sample: {page}"
        );
    }

    #[test]
    fn write_stage_feeds_its_histogram() {
        let m = Metrics::new();
        m.note_write(Duration::from_micros(10));
        m.note_write(Duration::from_micros(30));
        let s = m.snapshot(Universe::default());
        assert!((s.mean_write_us - 20.0).abs() < 1e-9);
        assert_eq!(s.p95_write_us, 32, "30 µs lands in (16,32]");
    }

    #[test]
    fn pop_ids_are_monotone_from_one() {
        let m = Metrics::new();
        assert_eq!(m.note_pop(), 1);
        assert_eq!(m.note_pop(), 2);
        assert_eq!(m.note_pop(), 3);
    }

    #[test]
    fn mean_batch_reads_one_once_a_job_left_the_queue() {
        let m = Metrics::new();
        assert_eq!(m.snapshot(Universe::default()).mean_batch, 0.0);
        m.note_queue_wait(Duration::from_micros(5));
        m.note_queue_wait(Duration::from_micros(9));
        assert_eq!(m.snapshot(Universe::default()).mean_batch, 1.0);
    }

    #[test]
    fn snapshot_roundtrips_as_json() {
        let m = Metrics::new();
        m.note_submitted();
        m.note_completed(Duration::from_micros(42));
        let s = m.snapshot(Universe { num_users: 3, ..Universe::default() });
        let text = groupsa_json::to_string(&s);
        assert_eq!(groupsa_json::from_str::<StatsSnapshot>(&text).unwrap(), s);
    }
}
