//! The `nn` layers time their calls only on a tape: with
//! `GROUPSA_TRACE` on, an eager pass (the serving form, where γ runs
//! once per candidate item) leaves the global registry empty, and a
//! taped pass counts exactly one `*.forward_us` sample per call.
//!
//! This lives in its own integration-test binary (own process) because
//! the trace sink latches its configuration on first use: the
//! environment variable must be set before any instrumentation point
//! runs, and sibling test binaries must not see it. Everything
//! therefore happens inside ONE `#[test]`.

use groupsa_nn::{ParamStore, TransformerLayer, VanillaAttention};
use groupsa_obs::{enabled, global};
use groupsa_tensor::rng::seeded;
use groupsa_tensor::{Eager, Graph, Matrix};
use std::borrow::Cow;

fn histogram_count(name: &str) -> u64 {
    let snapshot = global().snapshot();
    let entry = snapshot.histograms.iter().find(|h| h.name == name);
    entry.unwrap_or_else(|| panic!("{name} missing from {:?}", snapshot.histograms)).histogram.count
}

#[test]
fn layers_time_taped_calls_only() {
    let path = std::env::temp_dir().join(format!("groupsa-nn-timers-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // Must precede every obs call in this process: the sink latches on
    // first use.
    std::env::set_var(groupsa_obs::TRACE_ENV, &path);
    assert!(enabled(), "tracing must be on once GROUPSA_TRACE points at a writable path");

    let mut rng = seeded(11);
    let mut store = ParamStore::new();
    let round = TransformerLayer::new(&mut store, &mut rng, "t", 8, 8, 16, 0.0);
    let gamma = VanillaAttention::new(&mut store, &mut rng, "v", 6, 8);
    let members = Matrix::from_fn(4, 8, |r, c| ((r * 8 + c) as f32 * 0.37).sin());
    let rows = Matrix::from_fn(5, 6, |r, c| (r as f32 - c as f32) * 0.2);

    // Eager: one voting round and three γ calls, all untimed.
    round.forward(&mut Eager, &store, &mut seeded(0), &Cow::Borrowed(&members), None, false);
    for _ in 0..3 {
        gamma.weights(&mut Eager, &store, &Cow::Borrowed(&rows));
    }
    let snapshot = global().snapshot();
    assert!(snapshot.histograms.is_empty(), "eager calls were timed: {:?}", snapshot.histograms);

    // Graph: two voting rounds (each runs one self-attention) and three
    // γ calls, each timed once.
    let mut g = Graph::new();
    let x = g.leaf(members);
    let r = g.leaf(rows);
    for _ in 0..2 {
        round.forward(&mut g, &store, &mut seeded(0), &x, None, false);
    }
    for _ in 0..3 {
        gamma.weights(&mut g, &store, &r);
    }
    assert_eq!(histogram_count("nn.voting_round.forward_us"), 2);
    assert_eq!(histogram_count("nn.attention.forward_us"), 2);
    assert_eq!(histogram_count("nn.vanilla_attention.forward_us"), 3);
    assert_eq!(global().snapshot().histograms.len(), 3, "only the three tape timers exist");

    let _ = std::fs::remove_file(&path);
}
