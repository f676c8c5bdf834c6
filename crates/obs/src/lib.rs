//! # groupsa-obs
//!
//! Hermetic (std-only) observability for the groupsa-rs workspace:
//! one substrate for counting, timing, and tracing across training,
//! serving, and the benchmark binaries.
//!
//! Three pieces:
//!
//! * [`registry`] — lock-free metric primitives ([`Counter`],
//!   [`Gauge`], [`Histogram`] with log₂ buckets and derived
//!   p50/p95/p99). All updates are relaxed atomics. The serve crate's
//!   request metrics are built from these primitives.
//! * [`trace`] — structured span tracing and a JSONL event emitter
//!   gated by the `GROUPSA_TRACE=path` environment variable. When the
//!   variable is unset, [`enabled`] is a single atomic load and every
//!   [`span!`] and [`emit`] call is a no-op: default runs pay
//!   near-zero cost and — critically — observability never
//!   touches an RNG, so traced and untraced training produce
//!   bit-identical parameters.
//! * [`schema`] — the trace-file contract: [`schema::validate_trace`]
//!   parses an emitted JSONL file and checks the required fields of
//!   every event kind. The `trace_check` binary wraps it for CI.
//!
//! On top of those, request-lifecycle telemetry for the serve path:
//!
//! * [`record`] — per-request [`RequestRecord`]s in a bounded,
//!   `Mutex`-guarded overwrite-oldest [`RecordRing`];
//! * [`telemetry`] — the [`Telemetry`] facade gating the ring behind
//!   deterministic `1/N` id-hash sampling (plus unconditional
//!   slow-request capture);
//! * [`expo`] — a Prometheus-style text exposition renderer/parser
//!   (the `MetricsDump` page format), polled by the `obs_top`
//!   dashboard binary, which derives windowed rates and percentiles by
//!   diffing two pages' lifetime counters and histogram buckets.
//!
//! ## Capturing a trace
//!
//! ```text
//! GROUPSA_TRACE=results/train_trace.jsonl ./target/release/train_bench --digest
//! ./target/release/trace_check results/train_trace.jsonl epoch window
//! ```
//!
//! Every line is one JSON object with the common fields `kind`, `seq`
//! (per-process monotone), `t_us` (µs since the trace opened), and
//! `thread`, plus kind-specific payload fields (see [`schema`]).

#![warn(missing_docs)]

pub mod expo;
pub mod record;
pub mod registry;
pub mod schema;
pub mod telemetry;
pub mod trace;

pub use record::{RecordOutcome, RecordRing, RequestRecord};
pub use registry::{bucket_of, bucket_upper, percentile, Counter, Gauge, Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use telemetry::{hash_id, Telemetry, TelemetryConfig};
pub use trace::{emit, enabled, to_json, Span, TRACE_ENV};
