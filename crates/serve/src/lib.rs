//! # groupsa-serve
//!
//! Frozen-model inference serving for GroupSA.
//!
//! Training wants gradients; serving wants throughput. This crate
//! takes a trained [`groupsa_core::GroupSa`] and turns it into a
//! request-serving process in four layers:
//!
//! * [`frozen`] — [`frozen::FrozenModel`] snapshots the model once at
//!   load: every user's enhanced latent factor (Eq. 19) and every
//!   group's post-voting member representations (Eq. 1–6) are
//!   precomputed through the eager entry points in
//!   `groupsa_core::freeze`, so per-request work is embedding lookups
//!   plus the prediction towers. They run the training graph's own
//!   forward definition without a tape, so scores are bit-identical to
//!   the training-graph eval path — the snapshot is a speedup, not an
//!   approximation (generalising the paper's §II-F fast-inference
//!   idea, which *is* also available as a request mode).
//! * [`engine`] — a hermetic worker pool (`std::thread` + channels):
//!   bounded admission queue, deadline-aware load shedding fed by an
//!   observed service-time EWMA, one job per worker pop, per-request
//!   deadlines, atomic model hot-swap, graceful drain-then-stop
//!   shutdown.
//! * [`protocol`] — the typed NDJSON request/response wire format,
//!   serialised by `groupsa-json`. Responses carry no timing fields,
//!   so response bytes depend only on the request and the snapshot.
//! * [`server`] — NDJSON over TCP with per-connection pipelining:
//!   reads and writes are decoupled so many requests ride the engine
//!   at once, replies matched by echoed id in completion order.
//!   Optional per-connection token-bucket rate limiting; `Stats`
//!   queries answered inline; `Reload` hot-swaps the model with zero
//!   dropped requests; `Shutdown` drains and exits.
//!
//! [`metrics`] threads through all of it: atomic counters and a
//! log₂-bucketed latency histogram, queryable live (`Stats`) and
//! dumped at shutdown.
//!
//! The `groupsa-serve` binary wires these to a dataset/checkpoint and
//! a TCP port; `serve_bench` (in `groupsa-bench`) load-tests a running
//! server over TCP or runs the snapshot-scale bench. Serving throughput
//! and latency are measured by the separate `servebench/` package.

#![warn(missing_docs)]

pub(crate) mod admission;
pub mod engine;
pub mod error;
pub mod frozen;
pub mod metrics;
pub mod protocol;
pub mod server;
pub(crate) mod swap;

pub use engine::{Engine, EngineConfig};
pub use error::ServeError;
pub use frozen::FrozenModel;
pub use metrics::{Metrics, StatsSnapshot, Universe};
pub use protocol::{RecommendRequest, Request, Response, ServeMode, Target};
pub use server::ServerConfig;
