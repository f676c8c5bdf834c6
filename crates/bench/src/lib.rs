//! # groupsa-bench
//!
//! The experiment harness: one binary per table/figure of the paper
//! (see DESIGN.md §5 for the full index), all built on the shared
//! machinery in this library:
//!
//! * [`env::ExperimentEnv`] — dataset + split + evaluation graphs for
//!   one synthetic dataset;
//! * [`methods`] — train-and-evaluate drivers for GroupSA, every
//!   baseline and every ablation variant;
//! * [`output`] — result persistence (`results/*.json`) and the
//!   paper-style text tables printed to stdout;
//! * [`harness`] — the wall-clock micro-benchmark harness behind the
//!   `kernel_bench` perf gate.
//!
//! Run everything with `cargo run -p groupsa-bench --release --bin
//! exp_all`, or a single experiment with e.g. `… --bin exp_table2`.

#![warn(missing_docs)]

pub mod env;
pub mod experiments;
pub mod harness;
pub mod methods;
pub mod output;

pub use env::ExperimentEnv;
