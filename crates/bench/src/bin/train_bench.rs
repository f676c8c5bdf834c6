//! Throughput benchmark for the deterministic data-parallel trainer.
//!
//! Two modes:
//!
//! * **Sweep** (default): trains the same synthetic world at 1/2/4
//!   workers, asserts the final parameters are **bit-identical** across
//!   thread counts, and writes per-thread-count throughput and speedup
//!   (plus the machine's core count — speedup is bounded by it) to
//!   `results/train_bench.json`.
//! * **Digest** (`--digest`): runs a short fixed training with the
//!   worker count taken from `GROUPSA_TRAIN_THREADS` (the trainer's
//!   normal env knob) and prints the `TrainReport`, a parameter
//!   checksum and a checksum of the trained model's serving scores as
//!   one JSON line. CI runs this at two thread counts and diffs the
//!   output — any divergence breaks the determinism contract — and
//!   compares the serial digest against the committed
//!   `results/train_digest.json`, so a change that moves training or
//!   scoring bits fails even when it moves them identically at every
//!   thread count.

use groupsa_core::{DataContext, GroupSa, GroupSaConfig, TrainReport, Trainer};
use groupsa_data::synthetic::{generate, SyntheticConfig};
use groupsa_data::Dataset;
use groupsa_json::impl_json_struct;
use std::time::Instant;

/// Sweep runs default to writing a machine-readable trace under
/// `results/` unless the caller set `GROUPSA_TRACE` themselves (any
/// non-empty value, including a different path). Digest mode does NOT
/// call this: its stdout must be byte-identical across configurations,
/// and tracing stays a caller decision there.
fn default_trace_path(name: &str) {
    let unset = std::env::var(groupsa_obs::TRACE_ENV).map(|v| v.trim().is_empty()).unwrap_or(true);
    if unset {
        std::env::set_var(groupsa_obs::TRACE_ENV, format!("results/{name}_trace.jsonl"));
    }
}

fn world(seed: u64, cfg: &GroupSaConfig) -> (Dataset, DataContext) {
    let dataset = generate(&SyntheticConfig {
        name: format!("train-bench-{seed}"),
        seed,
        num_users: 150,
        num_items: 80,
        num_groups: 50,
        num_topics: 4,
        latent_dim: 4,
        avg_items_per_user: 10.0,
        avg_friends_per_user: 5.0,
        avg_items_per_group: 2.0,
        mean_group_size: 3.5,
        zipf_exponent: 0.8,
        homophily: 0.8,
        social_influence: 0.3,
        expertise_sharpness: 2.0,
        taste_temperature: 0.3,
        consensus_blend: 0.5,
        connectedness_boost: 1.0,
    });
    let ctx = DataContext::from_train_view(&dataset, cfg);
    (dataset, ctx)
}

/// FNV-1a over the bit patterns of `values` — equal checksums mean
/// bit-identical values.
fn checksum(values: impl IntoIterator<Item = f32>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in values.into_iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}

/// Checksum of every parameter scalar.
fn param_checksum(model: &GroupSa) -> String {
    checksum(model.store().snapshot_values().into_iter().flat_map(|m| m.into_vec()))
}

/// Checksum of the trained model's eager serving scores over the full
/// catalog: the first eight users one by one and stacked, and the
/// voting path for the first eight groups. It pins the forward pass
/// across commits, where the parameter checksum pins only training.
fn score_checksum(model: &GroupSa, ctx: &DataContext) -> String {
    let items: Vec<usize> = (0..ctx.num_items).collect();
    let users: Vec<usize> = (0..ctx.num_users.min(8)).collect();
    let latents: Vec<_> = users.iter().map(|&u| model.user_latent_frozen(ctx, u)).collect();
    let refs: Vec<_> = latents.iter().map(Option::as_ref).collect();
    let solo = users.iter().zip(&refs).flat_map(|(&u, &h)| model.score_user_items_frozen(u, &items, h));
    let stacked = model.score_users_items_frozen(&users, &refs, &items).into_iter().flatten();
    let groups = (0..ctx.num_groups().min(8)).filter(|&g| !ctx.members[g].is_empty());
    let voting = groups.flat_map(|g| model.score_group_items_frozen(&model.member_reps_frozen(ctx, g, &latents), &items));
    checksum(solo.chain(stacked).chain(voting))
}

fn bench_cfg() -> GroupSaConfig {
    let mut cfg = GroupSaConfig::tiny();
    cfg.dropout = 0.2; // exercise the per-example mask streams
    cfg.num_negatives = 4;
    cfg
}

// ------------------------------------------------------------- sweep

#[derive(Debug)]
struct ThreadRun {
    threads: usize,
    elapsed_s: f64,
    examples_per_sec: f64,
    speedup_vs_serial: f64,
    param_checksum: String,
}

impl_json_struct!(ThreadRun { threads, elapsed_s, examples_per_sec, speedup_vs_serial, param_checksum });

#[derive(Debug)]
struct TrainBenchReport {
    schema_version: u64,
    machine_cores: usize,
    user_examples_per_epoch: usize,
    group_examples_per_epoch: usize,
    timed_user_epochs: usize,
    timed_group_epochs: usize,
    runs: Vec<ThreadRun>,
    note: String,
}

impl_json_struct!(TrainBenchReport {
    schema_version,
    machine_cores,
    user_examples_per_epoch,
    group_examples_per_epoch,
    timed_user_epochs,
    timed_group_epochs,
    runs,
    note,
});

fn sweep() {
    const USER_EPOCHS: usize = 2;
    const GROUP_EPOCHS: usize = 4;
    default_trace_path("train_bench");
    groupsa_obs::emit("run", &[("label", groupsa_obs::to_json(&"train_bench_sweep"))]);
    let cfg = bench_cfg();
    let (d, ctx) = world(41, &cfg);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "train_bench: {} user pairs, {} group pairs, {} core(s)",
        ctx.train_user_item.len(),
        ctx.train_group_item.len(),
        cores
    );

    let mut runs: Vec<ThreadRun> = Vec::new();
    for threads in [1usize, 2, 4] {
        let mut model = GroupSa::new(cfg.clone(), d.num_users, d.num_items);
        let mut trainer = Trainer::new(cfg.clone()).with_threads(threads);
        // Warmup (untimed): one user epoch to touch every code path and
        // fault in allocations.
        trainer.user_epoch(&mut model, &ctx);
        let start = Instant::now();
        for _ in 0..USER_EPOCHS {
            trainer.user_epoch(&mut model, &ctx);
        }
        for _ in 0..GROUP_EPOCHS {
            trainer.group_epoch(&mut model, &ctx);
        }
        let elapsed = start.elapsed().as_secs_f64();
        let examples =
            USER_EPOCHS * ctx.train_user_item.len() + GROUP_EPOCHS * ctx.train_group_item.len();
        let throughput = examples as f64 / elapsed;
        let speedup = if runs.is_empty() { 1.0 } else { throughput / runs[0].examples_per_sec };
        let checksum = param_checksum(&model);
        println!(
            "  T={threads}: {elapsed:.3}s, {throughput:.0} examples/s, speedup {speedup:.2}x, checksum {checksum}"
        );
        runs.push(ThreadRun {
            threads,
            elapsed_s: elapsed,
            examples_per_sec: throughput,
            speedup_vs_serial: speedup,
            param_checksum: checksum,
        });
    }

    // The determinism contract, enforced on every sweep: thread count
    // must not change a single parameter bit.
    for run in &runs[1..] {
        assert_eq!(
            run.param_checksum, runs[0].param_checksum,
            "T={} diverged from serial training",
            run.threads
        );
    }

    if let Err(e) = groupsa_bench::output::check_schema("train_bench", groupsa_bench::output::RESULT_SCHEMA_VERSION) {
        eprintln!("[error] {e}");
        std::process::exit(1);
    }
    let report = TrainBenchReport {
        schema_version: groupsa_bench::output::RESULT_SCHEMA_VERSION,
        machine_cores: cores,
        user_examples_per_epoch: ctx.train_user_item.len(),
        group_examples_per_epoch: ctx.train_group_item.len(),
        timed_user_epochs: USER_EPOCHS,
        timed_group_epochs: GROUP_EPOCHS,
        runs,
        note: "All thread counts produce bit-identical parameters (checksums asserted equal). \
               Speedup is bounded by machine_cores; on a single-core machine extra workers only \
               add scheduling overhead."
            .into(),
    };
    match groupsa_bench::output::save_json("train_bench", &report) {
        Ok(path) => println!("[saved {}]", path.display()),
        Err(e) => {
            eprintln!("[error] could not save train_bench.json: {e}");
            std::process::exit(1);
        }
    }
}

// ------------------------------------------------------------ digest

#[derive(Debug)]
struct Digest {
    report: TrainReport,
    param_checksum: String,
    score_checksum: String,
}

impl_json_struct!(Digest { report, param_checksum, score_checksum });

/// A short fixed training whose serialized outcome must be identical at
/// every `GROUPSA_TRAIN_THREADS` value — and whether or not
/// `GROUPSA_TRACE` is set (observability must not perturb training).
/// The worker count goes to stderr so stdout can be diffed verbatim;
/// wall-clock epoch times are zeroed before serialising for the same
/// reason (they are the one legitimately nondeterministic field).
fn digest() {
    let mut cfg = bench_cfg();
    cfg.user_epochs = 1;
    cfg.group_epochs = 2;
    let (d, ctx) = world(43, &cfg);
    let mut model = GroupSa::new(cfg.clone(), d.num_users, d.num_items);
    let mut trainer = Trainer::new(cfg);
    eprintln!("train_bench --digest: {} worker(s)", trainer.threads());
    groupsa_obs::emit("run", &[("label", groupsa_obs::to_json(&"train_bench_digest"))]);
    let mut report = trainer.fit(&mut model, &ctx);
    report.zero_wall_clock();
    let digest = Digest {
        report,
        param_checksum: param_checksum(&model),
        score_checksum: score_checksum(&model, &ctx),
    };
    println!("{}", groupsa_json::to_string(&digest));
}

fn main() {
    let digest_mode = std::env::args().skip(1).any(|a| a == "--digest");
    if digest_mode {
        digest();
    } else {
        sweep();
    }
}
