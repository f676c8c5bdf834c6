//! Hot-path kernel microbenchmarks and the perf-regression gate.
//!
//! Measures the workspace's serving/training hot kernels through the
//! wall-clock harness ([`groupsa_bench::harness::Harness::bench_stats`])
//! and persists machine-readable results:
//!
//! * **Full run** (default): serve-realistic shapes, written to
//!   `BENCH_kernels.json` at the repo root — the committed baseline
//!   the gate compares against.
//! * **`--check`**: fast smoke shapes, printed and not written
//!   anywhere; proves every kernel still runs and produces sane
//!   timings. This is the tier-1 path.
//! * **`--gate <baseline.json>`**: re-measures the full shapes and
//!   fails (exit 1) if any kernel regressed more than
//!   [`GATE_RATIO`]× in ns/op against the baseline file.
//!
//! Kernels with a retained naive reference (`matmul` vs
//! `matmul_naive`, bounded-heap `top_k` vs sort-and-truncate, the
//! fused serve scan vs score-all-then-select, frozen group scoring vs
//! the un-frozen eager path, …) are marked `gated` and record their
//! `speedup_vs_naive`; the bit-identity of each fast/naive pair is
//! pinned separately by the kernel-equivalence and frozen-vs-graph
//! tests, so this binary only has to measure.
//!
//! The rows also time the paper's §II-F trade-off (full voting vs fast
//! score aggregation for one group over the catalog) and the graph
//! substrate the data context is built from (PageRank, TF-IDF Top-H
//! items).
//!
//! `ns_per_op` is the **minimum** observed sample — the least-noisy
//! estimator of a kernel's true cost and the number the gate compares.
//! `throughput_m_per_s` is `work_per_op` units (multiply-adds for
//! matmuls, elements for the rest) per microsecond of that minimum.

use groupsa_bench::harness::{Bencher, Harness};
use groupsa_core::{
    top_k, DataContext, GroupMode, GroupSa, GroupSaConfig, Recommendation, ScoreAggregation,
};
use groupsa_data::synthetic::{generate, SyntheticConfig};
use groupsa_graph::{centrality, tfidf};
use groupsa_json::impl_json_struct;
use groupsa_nn::attention::social_bias_mask;
use groupsa_nn::loss::bpr_one_vs_rest;
use groupsa_nn::{ParamStore, TransformerLayer};
use groupsa_serve::protocol::Target;
use groupsa_serve::FrozenModel;
use groupsa_tensor::rng::seeded;
use groupsa_tensor::{ops, Eager, Forward, Graph, Matrix};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Duration;

/// Gate threshold: a kernel fails when its measured ns/op exceeds the
/// baseline by more than this factor (>25% regression).
const GATE_RATIO: f64 = 1.25;

/// Results-schema version, bumped on any field change so downstream
/// tooling can detect incompatible baselines instead of misreading
/// them.
const SCHEMA_VERSION: u64 = 1;

// ------------------------------------------------------------- schema

#[derive(Clone, Debug)]
struct KernelRecord {
    kernel: String,
    shape: String,
    ns_per_op: f64,
    /// Work units per op: f32 multiply-adds for matmul-shaped kernels,
    /// elements touched for everything else.
    work_per_op: f64,
    /// Millions of work units per second at `ns_per_op`.
    throughput_m_per_s: f64,
    /// ns/op of the retained naive reference; `0.0` when the kernel
    /// has no naive twin.
    naive_ns_per_op: f64,
    /// `naive_ns_per_op / ns_per_op`; `0.0` when ungated.
    speedup_vs_naive: f64,
    /// Whether this kernel has a retained naive reference it is
    /// measured against.
    gated: bool,
}

impl_json_struct!(KernelRecord {
    kernel,
    shape,
    ns_per_op,
    work_per_op,
    throughput_m_per_s,
    naive_ns_per_op,
    speedup_vs_naive,
    gated,
});

#[derive(Clone, Debug)]
struct KernelReport {
    schema_version: u64,
    mode: String,
    kernels: Vec<KernelRecord>,
}

impl_json_struct!(KernelReport { schema_version, mode, kernels });

// ------------------------------------------------------------ profile

/// Measurement scale: smoke (`--check`) keeps tier-1 fast; full runs
/// produce the committed baseline and feed the gate.
#[derive(Clone, Copy)]
struct Profile {
    smoke: bool,
    sample_size: usize,
    measurement: Duration,
    warm_up: Duration,
}

impl Profile {
    fn full() -> Self {
        Self {
            smoke: false,
            sample_size: 12,
            measurement: Duration::from_millis(600),
            warm_up: Duration::from_millis(200),
        }
    }

    fn smoke() -> Self {
        Self {
            smoke: true,
            sample_size: 5,
            measurement: Duration::from_millis(60),
            warm_up: Duration::from_millis(20),
        }
    }

    fn harness(&self) -> Harness {
        Harness {
            sample_size: self.sample_size,
            measurement_time: self.measurement,
            warm_up_time: self.warm_up,
        }
    }
}

// ----------------------------------------------------------- helpers

/// Deterministic dense fill (no RNG state to thread through).
fn mat(rows: usize, cols: usize, phase: f32) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| ((r * cols + c) as f32 * phase).sin() * 0.5)
}

fn record(
    c: &Harness,
    out: &mut Vec<KernelRecord>,
    kernel: &str,
    shape: String,
    work_per_op: f64,
    f: impl FnMut(&mut Bencher),
) {
    let stats = c.bench_stats(&format!("{kernel}/{shape}"), f);
    out.push(KernelRecord {
        kernel: kernel.to_string(),
        shape,
        ns_per_op: stats.min_ns,
        work_per_op,
        throughput_m_per_s: work_per_op / stats.min_ns * 1e3,
        naive_ns_per_op: 0.0,
        speedup_vs_naive: 0.0,
        gated: false,
    });
}

/// Measures a kernel *and* its retained naive reference, recording the
/// speedup of the restructured implementation.
fn record_gated(
    c: &Harness,
    out: &mut Vec<KernelRecord>,
    kernel: &str,
    shape: String,
    work_per_op: f64,
    fast: impl FnMut(&mut Bencher),
    naive: impl FnMut(&mut Bencher),
) {
    let fast_stats = c.bench_stats(&format!("{kernel}/{shape}"), fast);
    let naive_stats = c.bench_stats(&format!("{kernel}_naive/{shape}"), naive);
    out.push(KernelRecord {
        kernel: kernel.to_string(),
        shape,
        ns_per_op: fast_stats.min_ns,
        work_per_op,
        throughput_m_per_s: work_per_op / fast_stats.min_ns * 1e3,
        naive_ns_per_op: naive_stats.min_ns,
        speedup_vs_naive: naive_stats.min_ns / fast_stats.min_ns,
        gated: true,
    });
}

/// Sort-and-truncate Top-K, retained as the naive reference for the
/// bounded-heap `top_k`: same total order (descending score, NaN last,
/// ties by ascending item id), O(n log n) instead of O(n log k).
fn top_k_naive(mut scored: Vec<Recommendation>, k: usize) -> Vec<Recommendation> {
    scored.sort_by(|a, b| {
        let ord = match (a.score.is_nan(), b.score.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => b.score.partial_cmp(&a.score).expect("both non-NaN"),
        };
        ord.then(a.item.cmp(&b.item))
    });
    scored.truncate(k);
    scored
}

/// A frozen serving world at the profile's scale.
fn frozen_world(p: Profile) -> FrozenModel {
    let (users, items, groups, cfg) = if p.smoke {
        (40, 30, 10, GroupSaConfig::tiny())
    } else {
        (120, 400, 40, GroupSaConfig::paper())
    };
    let dataset = generate(&SyntheticConfig {
        name: "kernel-bench".into(),
        seed: 11,
        num_users: users,
        num_items: items,
        num_groups: groups,
        num_topics: 4,
        latent_dim: 4,
        avg_items_per_user: 8.0,
        avg_friends_per_user: 5.0,
        avg_items_per_group: 1.5,
        mean_group_size: 3.5,
        zipf_exponent: 0.8,
        homophily: 0.8,
        social_influence: 0.3,
        expertise_sharpness: 2.0,
        taste_temperature: 0.3,
        consensus_blend: 0.5,
        connectedness_boost: 1.0,
    });
    let ctx = DataContext::from_train_view(&dataset, &cfg);
    let model = GroupSa::new(cfg, dataset.num_users, dataset.num_items);
    FrozenModel::freeze(model, ctx)
}

// ------------------------------------------------------------ kernels

fn measure(p: Profile) -> Vec<KernelRecord> {
    let c = p.harness();
    let mut out = Vec::new();

    // 1. Blocked matmul at the serve prediction-tower shape
    //    (chunk×3d · 3d×d) vs the retained naive i-k-j kernel.
    let (m, k, n) = if p.smoke { (32, 24, 8) } else { (256, 96, 32) };
    let a = mat(m, k, 0.13);
    let b = mat(k, n, 0.29);
    record_gated(
        &c,
        &mut out,
        "matmul",
        format!("{m}x{k}*{k}x{n}"),
        (m * k * n) as f64,
        |ben| ben.iter(|| black_box(black_box(&a).matmul(&b))),
        |ben| ben.iter(|| black_box(black_box(&a).matmul_naive(&b))),
    );

    // 1b. The other product shapes the serve towers run: the output
    //     layer's matvec over post-ReLU hidden rows (about half exact
    //     zeros), γ attention's first layer over a 4-member group, and
    //     the group tower's single-row first layer.
    let sparse_rows = if p.smoke { 32 } else { 256 };
    let hidden = mat(sparse_rows, 32, 0.53).map(ops::relu);
    let (members, feat, width) = if p.smoke { (4, 24, 8) } else { (4, 96, 32) };
    // The user tower's latent branch: every row is `[h | xᵢ | h⊙xᵢ]`
    // for one post-ReLU fusion output `h`, so two of its three column
    // blocks carry the same exact zeros in every row.
    let d = feat / 3;
    let h = mat(1, d, 0.83).map(ops::relu);
    let x = mat(sparse_rows, d, 0.89);
    let latent = Matrix::from_fn(sparse_rows, feat, |r, c| match c / d {
        0 => h[(0, c)],
        1 => x[(r, c - d)],
        _ => h[(0, c - 2 * d)] * x[(r, c - 2 * d)],
    });
    let matmul_shapes = [
        ("matmul_latent_layer1", latent, mat(feat, width, 0.97)),
        ("matmul_matvec_relu", hidden, mat(32, 1, 0.61)),
        ("matmul_gamma_layer1", mat(members, feat, 0.67), mat(feat, width, 0.71)),
        ("matmul_group_tower_row", mat(1, feat, 0.73), mat(feat, width, 0.79)),
    ];
    for (kernel, a, b) in &matmul_shapes {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        record_gated(
            &c,
            &mut out,
            kernel,
            format!("{m}x{k}*{k}x{n}"),
            (m * k * n) as f64,
            |ben| ben.iter(|| black_box(black_box(a).matmul(b))),
            |ben| ben.iter(|| black_box(black_box(a).matmul_naive(b))),
        );
    }

    // 2. Register-blocked A·Bᵀ at the attention-scores shape
    //    (l×d · (l×d)ᵀ) vs the dot-per-element naive kernel.
    let (l, d) = if p.smoke { (16, 8) } else { (64, 32) };
    let qa = mat(l, d, 0.17);
    let kb = mat(l, d, 0.31);
    record_gated(
        &c,
        &mut out,
        "matmul_transpose_b",
        format!("{l}x{d}*({l}x{d})T"),
        (l * l * d) as f64,
        |ben| ben.iter(|| black_box(black_box(&qa).matmul_transpose_b(&kb))),
        |ben| ben.iter(|| black_box(black_box(&qa).matmul_transpose_b_naive(&kb))),
    );

    // 3. In-place row softmax vs the allocating reference.
    let (sr, sc) = if p.smoke { (16, 16) } else { (64, 64) };
    let soft_base = mat(sr, sc, 0.37);
    record_gated(
        &c,
        &mut out,
        "softmax_rows_inplace",
        format!("{sr}x{sc}"),
        (sr * sc) as f64,
        |ben| {
            ben.iter_batched(
                || soft_base.clone(),
                |mut m| {
                    ops::softmax_rows_inplace(&mut m);
                    m
                },
            )
        },
        |ben| ben.iter(|| black_box(ops::softmax_rows(black_box(&soft_base)))),
    );

    // 4. Social self-attention inference (one voting layer) over a
    //    ring-connected group.
    let (gl, gd) = if p.smoke { (4, 8) } else { (8, 32) };
    let mut store = ParamStore::new();
    let mut rng = seeded(1);
    let layer = TransformerLayer::new(&mut store, &mut rng, "kb", gd, gd, gd, 0.0);
    let x = mat(gl, gd, 0.41);
    let allowed: Vec<Vec<bool>> = (0..gl)
        .map(|i| (0..gl).map(|j| j == (i + 1) % gl || i == (j + 1) % gl).collect())
        .collect();
    let mask = social_bias_mask(&allowed);
    let x = Cow::Borrowed(&x);
    record(
        &c,
        &mut out,
        "attention_forward_inference",
        format!("l={gl},d={gd}"),
        (gl * gl * gd) as f64,
        |ben| ben.iter(|| black_box(layer.forward(&mut Eager, &store, &mut rng, black_box(&x), Some(&mask), false))),
    );

    // 5. BPR one-vs-rest forward + backward through a two-layer tower
    //    (1 positive + the negative slate, §II-E shape).
    let (rows, feat, hid) = if p.smoke { (17, 24, 8) } else { (65, 96, 32) };
    let x0 = mat(rows, feat, 0.19);
    let w1 = mat(feat, hid, 0.23);
    let w2 = mat(hid, 1, 0.43);
    record(
        &c,
        &mut out,
        "bpr_forward_backward",
        format!("{rows}x{feat}->{hid}->1"),
        (rows * feat * hid) as f64,
        |ben| {
            ben.iter(|| {
                let mut g = Graph::new();
                let xn = g.leaf(x0.clone());
                let w1n = g.leaf(w1.clone());
                let w2n = g.leaf(w2.clone());
                let h = g.matmul(xn, w1n);
                let h = g.relu(h);
                let s = g.matmul(h, w2n);
                let loss = bpr_one_vs_rest(&mut g, s);
                black_box(g.backward(loss))
            })
        },
    );

    // -- frozen serving kernels ----------------------------------------
    let frozen = frozen_world(p);
    let num_items = frozen.context().num_items;
    let model = frozen.model();
    let all_items: Vec<usize> = (0..num_items).collect();
    let latent7 = model.user_latent_frozen(frozen.context(), 7);

    // 6. Frozen single-user scoring over the full catalog (the serve
    //    hot loop's unit of work).
    record(
        &c,
        &mut out,
        "frozen_user_scoring",
        format!("1x{num_items}"),
        num_items as f64,
        |ben| {
            ben.iter(|| black_box(model.score_user_items_frozen(7, black_box(&all_items), latent7.as_ref())))
        },
    );

    // 7. Fused score+select catalog scan vs the retained
    //    score-everything-then-top-k composition.
    record_gated(
        &c,
        &mut out,
        "fused_recommend_scan",
        format!("user,catalog={num_items},k=10"),
        num_items as f64,
        |ben| {
            ben.iter(|| black_box(frozen.recommend(Target::User { id: 7 }, 10, false, GroupMode::Voting)))
        },
        |ben| {
            ben.iter(|| {
                let scores = model.score_user_items_frozen(7, &all_items, latent7.as_ref());
                let scored: Vec<Recommendation> = all_items
                    .iter()
                    .zip(scores)
                    .map(|(&item, score)| Recommendation { item, score })
                    .collect();
                black_box(top_k(scored, 10))
            })
        },
    );

    // 8. Bounded-heap Top-K vs sort-and-truncate at catalog scale.
    let tk_n = if p.smoke { 2_000 } else { 10_000 };
    let scored: Vec<Recommendation> = (0..tk_n)
        .map(|i| Recommendation { item: i, score: ((i * 37 + 11) % 101) as f32 * 0.1 })
        .collect();
    record_gated(
        &c,
        &mut out,
        "top_k",
        format!("n={tk_n},k=10"),
        tk_n as f64,
        |ben| ben.iter_batched(|| scored.clone(), |v| black_box(top_k(v, 10))),
        |ben| ben.iter_batched(|| scored.clone(), |v| black_box(top_k_naive(v, 10))),
    );

    // 9. §II-F, full voting path: frozen group scoring over the
    //    catalog from the cached post-voting member reps (what a
    //    served request runs) vs the un-frozen eager eval path, which
    //    reruns the voting stack per call. The largest group makes
    //    the voting cost most visible.
    let ctx = frozen.context();
    let group = (0..ctx.num_groups())
        .max_by_key(|&g| ctx.members[g].len())
        .expect("the bench world has groups");
    let l = ctx.members[group].len();
    let reps = model.member_reps_frozen(ctx, group, &[]);
    record_gated(
        &c,
        &mut out,
        "frozen_group_scoring",
        format!("l={l},catalog={num_items}"),
        num_items as f64,
        |ben| ben.iter(|| black_box(model.score_group_items_frozen(&reps, black_box(&all_items)))),
        |ben| ben.iter(|| black_box(model.score_group_items(ctx, group, black_box(&all_items)))),
    );

    // 10. §II-F, fast path: the same group served by averaging its
    //     members' user-task scores instead of voting.
    record(
        &c,
        &mut out,
        "frozen_group_fast",
        format!("l={l},catalog={num_items},k=10"),
        num_items as f64,
        |ben| {
            ben.iter(|| {
                let mode = GroupMode::Fast(ScoreAggregation::Average);
                black_box(frozen.recommend(Target::Group { id: group }, 10, false, mode))
            })
        },
    );

    // 11. Graph substrate: PageRank over the social graph.
    let social = &ctx.social_graph;
    record(
        &c,
        &mut out,
        "pagerank",
        format!("users={},edges={}", social.num_nodes(), social.num_edges()),
        social.num_edges() as f64,
        |ben| ben.iter(|| black_box(centrality::pagerank(black_box(social), 0.85, 1e-8, 100))),
    );

    // 12. Graph substrate: every user's TF-IDF Top-H items (H = 5).
    let num_users = ctx.num_users;
    record(
        &c,
        &mut out,
        "tfidf_top_items",
        format!("users={num_users},h=5"),
        num_users as f64,
        |ben| {
            ben.iter(|| {
                for u in 0..num_users {
                    black_box(tfidf::top_items(&ctx.user_item_graph, u, 5));
                }
            })
        },
    );

    out
}

// --------------------------------------------------------------- gate

fn load_baseline(path: &str) -> Result<KernelReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let report: KernelReport =
        groupsa_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))?;
    if report.schema_version != SCHEMA_VERSION {
        return Err(format!(
            "baseline {path} has schema v{}, this binary writes v{SCHEMA_VERSION} — re-baseline first",
            report.schema_version
        ));
    }
    Ok(report)
}

fn gate(baseline_path: &str) -> Result<(), String> {
    let baseline = load_baseline(baseline_path)?;
    let current = measure(Profile::full());
    let mut regressions = Vec::new();
    for base in &baseline.kernels {
        let Some(cur) = current
            .iter()
            .find(|c| c.kernel == base.kernel && c.shape == base.shape)
        else {
            regressions.push(format!("{}/{}: kernel missing from current build", base.kernel, base.shape));
            continue;
        };
        let ratio = cur.ns_per_op / base.ns_per_op;
        let verdict = if ratio > GATE_RATIO { "REGRESSED" } else { "ok" };
        println!(
            "gate {:<28} {:<28} base {:>12.1} ns  now {:>12.1} ns  ratio {:>5.2}  {verdict}",
            base.kernel, base.shape, base.ns_per_op, cur.ns_per_op, ratio
        );
        if ratio > GATE_RATIO {
            regressions.push(format!(
                "{}/{}: {:.1} ns -> {:.1} ns ({:.2}x > {GATE_RATIO}x budget)",
                base.kernel, base.shape, base.ns_per_op, cur.ns_per_op, ratio
            ));
        }
    }
    if regressions.is_empty() {
        println!("gate: all {} kernels within {GATE_RATIO}x of baseline", baseline.kernels.len());
        Ok(())
    } else {
        Err(format!("{} kernel(s) regressed:\n  {}", regressions.len(), regressions.join("\n  ")))
    }
}

// --------------------------------------------------------------- main

fn sanity(records: &[KernelRecord]) -> Result<(), String> {
    for r in records {
        if !(r.ns_per_op.is_finite() && r.ns_per_op > 0.0) {
            return Err(format!("{}/{}: non-positive timing {}", r.kernel, r.shape, r.ns_per_op));
        }
        if r.gated && !(r.speedup_vs_naive.is_finite() && r.speedup_vs_naive > 0.0) {
            return Err(format!("{}/{}: bad speedup {}", r.kernel, r.shape, r.speedup_vs_naive));
        }
    }
    Ok(())
}

fn summarize(records: &[KernelRecord]) {
    println!();
    for r in records {
        if r.gated {
            println!(
                "{:<28} {:<28} {:>12.1} ns/op  {:>9.1} Mu/s  naive {:>12.1} ns  speedup {:.2}x",
                r.kernel, r.shape, r.ns_per_op, r.throughput_m_per_s, r.naive_ns_per_op, r.speedup_vs_naive
            );
        } else {
            println!(
                "{:<28} {:<28} {:>12.1} ns/op  {:>9.1} Mu/s",
                r.kernel, r.shape, r.ns_per_op, r.throughput_m_per_s
            );
        }
    }
}

fn run() -> Result<(), String> {
    let mut check = false;
    let mut gate_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--gate" => gate_path = Some(args.next().ok_or("--gate needs a baseline path")?),
            other => {
                return Err(format!(
                    "unknown argument `{other}` (usage: kernel_bench [--check | --gate BASELINE.json])"
                ))
            }
        }
    }
    if check && gate_path.is_some() {
        return Err("--check and --gate are mutually exclusive".into());
    }
    if let Some(path) = gate_path {
        return gate(&path);
    }

    let profile = if check { Profile::smoke() } else { Profile::full() };
    let records = measure(profile);
    sanity(&records)?;
    summarize(&records);
    if check {
        return Ok(());
    }
    let report = KernelReport { schema_version: SCHEMA_VERSION, mode: "full".into(), kernels: records };
    let path = "BENCH_kernels.json";
    std::fs::write(path, groupsa_json::to_string_pretty(&report)).map_err(|e| format!("write {path}: {e}"))?;
    println!("[saved {path}]");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("kernel_bench: {e}");
            ExitCode::FAILURE
        }
    }
}
