//! Quantization accuracy sweep for binary model snapshots.
//!
//! Trains a GroupSA model, freezes it, writes the frozen tables as
//! f32 / f16 / i8 snapshots, and evaluates the paper's HR/NDCG
//! protocol **through each snapshot's tables** — so the reported
//! deltas measure exactly what serving from a quantized snapshot
//! costs, not an abstract rounding error.
//!
//! Contract checks built in:
//!
//! * the f32 snapshot's metrics must equal the in-memory frozen
//!   metrics exactly (bit-identical scores ⇒ identical ranks);
//! * quantized evaluation is deterministic (evaluated twice, compared).
//!
//! Writes `results/quant_eval.json` (schema-versioned, validated
//! before overwrite). `--save false` skips the write for smoke runs.

use groupsa_bench::methods::train_groupsa;
use groupsa_bench::output::RESULT_SCHEMA_VERSION;
use groupsa_bench::ExperimentEnv;
use groupsa_core::GroupSaConfig;
use groupsa_data::synthetic::SyntheticConfig;
use groupsa_eval::EvalResult;
use groupsa_json::impl_json_struct;
use groupsa_serve::FrozenModel;
use groupsa_snapshot::{Quant, Snapshot};
use std::path::PathBuf;
use std::process::ExitCode;

const SHARDS: u32 = 4;

fn quant_world() -> SyntheticConfig {
    SyntheticConfig {
        name: "quant-eval".into(),
        seed: 0x51_4541, // "QEA"
        num_users: 400,
        num_items: 300,
        num_groups: 1600,
        num_topics: 6,
        latent_dim: 8,
        avg_items_per_user: 12.0,
        avg_friends_per_user: 7.0,
        avg_items_per_group: 1.3,
        mean_group_size: 4.0,
        zipf_exponent: 0.8,
        homophily: 0.6,
        social_influence: 0.2,
        expertise_sharpness: 3.0,
        taste_temperature: 0.3,
        consensus_blend: 0.5,
        connectedness_boost: 1.0,
    }
}

/// One evaluated table encoding.
#[derive(Clone, Debug)]
struct VariantResult {
    quant: String,
    disk_bytes: u64,
    /// Disk size relative to the f32 snapshot (1.0 = no saving).
    bytes_vs_f32: f64,
    user_hr_10: f64,
    user_ndcg_10: f64,
    group_hr_10: f64,
    group_ndcg_10: f64,
    /// Absolute metric deltas vs the f32 snapshot (negative = loss).
    user_hr_10_delta: f64,
    user_ndcg_10_delta: f64,
    group_hr_10_delta: f64,
    group_ndcg_10_delta: f64,
}

impl_json_struct!(VariantResult {
    quant,
    disk_bytes,
    bytes_vs_f32,
    user_hr_10,
    user_ndcg_10,
    group_hr_10,
    group_ndcg_10,
    user_hr_10_delta,
    user_ndcg_10_delta,
    group_hr_10_delta,
    group_ndcg_10_delta,
});

#[derive(Clone, Debug)]
struct QuantEvalReport {
    schema_version: u64,
    dataset: String,
    num_users: usize,
    num_items: usize,
    num_groups: usize,
    dim: usize,
    user_test_pairs: usize,
    group_test_pairs: usize,
    variants: Vec<VariantResult>,
    note: String,
}

impl_json_struct!(QuantEvalReport {
    schema_version,
    dataset,
    num_users,
    num_items,
    num_groups,
    dim,
    user_test_pairs,
    group_test_pairs,
    variants,
    note,
});

fn dir_bytes(dir: &PathBuf) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// `(user-task, group-task)` evaluation through one snapshot's tables.
fn eval_snapshot(env: &ExperimentEnv, frozen: &FrozenModel, snap: &Snapshot) -> (EvalResult, EvalResult) {
    let model = frozen.model();
    let user_scorer = |u: usize, items: &[usize]| -> Vec<f32> {
        let latent = snap.user_latent(u).expect("snapshot user read");
        model.score_user_items_frozen(u, items, latent.as_ref())
    };
    let group_scorer = |g: usize, items: &[usize]| -> Vec<f32> {
        let reps = snap.group_rep(g).expect("snapshot group read");
        model.score_group_items_frozen(&reps, items)
    };
    (env.eval_user(&user_scorer), env.eval_group(&group_scorer))
}

fn run(save: bool) -> Result<(), String> {
    let syn = quant_world();
    let env = ExperimentEnv::prepare(&syn);
    println!(
        "quant_eval: {} users, {} items, {} groups; {} user / {} group test pairs",
        syn.num_users,
        syn.num_items,
        syn.num_groups,
        env.split.test_user_item.len(),
        env.split.test_group_item.len()
    );
    let trained = train_groupsa(&env, GroupSaConfig::tiny());
    let frozen = FrozenModel::freeze(trained.model, trained.ctx);
    let dim = frozen.model().user_embedding_table().cols();

    // In-memory reference: the frozen tables exactly as `freeze` built
    // them, scored through the same frozen scoring entry points.
    let model = frozen.model();
    let ctx = frozen.context();
    let latents: Vec<_> = (0..ctx.num_users).map(|u| model.user_latent_frozen(ctx, u)).collect();
    let reps: Vec<_> = (0..ctx.num_groups()).map(|g| model.member_reps_frozen(ctx, g, &latents)).collect();
    let mem_user_scorer =
        |u: usize, items: &[usize]| -> Vec<f32> { model.score_user_items_frozen(u, items, latents[u].as_ref()) };
    let mem_group_scorer =
        |g: usize, items: &[usize]| -> Vec<f32> { model.score_group_items_frozen(&reps[g], items) };
    let mem_user = env.eval_user(&mem_user_scorer);
    let mem_group = env.eval_group(&mem_group_scorer);
    println!(
        "  memory    user HR@10={:.4} NDCG@10={:.4}   group HR@10={:.4} NDCG@10={:.4}",
        mem_user.hr(10),
        mem_user.ndcg(10),
        mem_group.hr(10),
        mem_group.ndcg(10)
    );

    let base_dir = std::env::temp_dir().join(format!("groupsa-quant-eval-{}", std::process::id()));
    let mut variants = Vec::new();
    let mut f32_bytes = 0u64;
    let mut f32_user = mem_user.clone();
    let mut f32_group = mem_group.clone();
    for quant in [Quant::F32, Quant::F16, Quant::I8] {
        let dir = base_dir.join(quant.name());
        let _ = std::fs::remove_dir_all(&dir);
        frozen.write_snapshot(&dir, SHARDS, quant).map_err(|e| e.to_string())?;
        let snap = Snapshot::open(&dir).map_err(|e| e.to_string())?;
        let (user, group) = eval_snapshot(&env, &frozen, &snap);
        // Quantized reads are deterministic: a second pass must agree.
        let (user2, group2) = eval_snapshot(&env, &frozen, &snap);
        if user != user2 || group != group2 {
            return Err(format!("{} evaluation is not deterministic", quant.name()));
        }
        let disk = dir_bytes(&dir);
        if matches!(quant, Quant::F32) {
            f32_bytes = disk;
            f32_user = user.clone();
            f32_group = group.clone();
            // The core contract: f32 snapshot tables serve the exact
            // bits of the in-memory tables, so metrics are identical.
            if user.per_k != mem_user.per_k || group.per_k != mem_group.per_k {
                return Err("f32 snapshot metrics diverged from the in-memory frozen model".into());
            }
            println!("  f32 snapshot metrics are identical to memory (asserted)");
        }
        let v = VariantResult {
            quant: quant.name().to_string(),
            disk_bytes: disk,
            bytes_vs_f32: disk as f64 / f32_bytes as f64,
            user_hr_10: user.hr(10),
            user_ndcg_10: user.ndcg(10),
            group_hr_10: group.hr(10),
            group_ndcg_10: group.ndcg(10),
            user_hr_10_delta: user.hr(10) - f32_user.hr(10),
            user_ndcg_10_delta: user.ndcg(10) - f32_user.ndcg(10),
            group_hr_10_delta: group.hr(10) - f32_group.hr(10),
            group_ndcg_10_delta: group.ndcg(10) - f32_group.ndcg(10),
        };
        println!(
            "  {:<4} {:>9} bytes ({:.2}x)  user HR@10={:.4} ({:+.4})  group NDCG@10={:.4} ({:+.4})",
            v.quant,
            v.disk_bytes,
            v.bytes_vs_f32,
            v.user_hr_10,
            v.user_hr_10_delta,
            v.group_ndcg_10,
            v.group_ndcg_10_delta
        );
        variants.push(v);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&base_dir);

    if save {
        groupsa_bench::output::check_schema("quant_eval", RESULT_SCHEMA_VERSION)?;
        let report = QuantEvalReport {
            schema_version: RESULT_SCHEMA_VERSION,
            dataset: syn.name.clone(),
            num_users: syn.num_users,
            num_items: syn.num_items,
            num_groups: syn.num_groups,
            dim,
            user_test_pairs: env.split.test_user_item.len(),
            group_test_pairs: env.split.test_group_item.len(),
            variants,
            note: "Metrics evaluated through snapshot-backed tables (paper protocol, 100 negatives). \
                   f32 is asserted identical to the in-memory frozen model; deltas are absolute \
                   differences vs the f32 snapshot."
                .into(),
        };
        let path = groupsa_bench::output::save_json("quant_eval", &report).map_err(|e| e.to_string())?;
        println!("[saved {}]", path.display());
    } else {
        println!("[--save false: skipped results/quant_eval.json]");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let save = !args.windows(2).any(|w| w[0] == "--save" && w[1] == "false");
    match run(save) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("quant_eval: {e}");
            ExitCode::FAILURE
        }
    }
}
