//! End-to-end determinism and persistence guarantees.
//!
//! The whole pipeline is seeded: two training runs from the same `u64`
//! seed must produce *byte-identical* JSON checkpoints (the in-tree
//! JSON writer round-trips every `f32` exactly, so checkpoint bytes are
//! a complete fingerprint of the model), and a save/load round-trip
//! must preserve the recommendations the model hands out.

use groupsa_suite::core::{DataContext, GroupMode, GroupSa, GroupSaConfig, Trainer};
use groupsa_suite::data::synthetic::{generate, SyntheticConfig};
use groupsa_suite::data::{split_dataset, Dataset, Split};

fn tiny_world(seed: u64) -> (Dataset, Split) {
    let dataset = generate(&SyntheticConfig {
        name: format!("determinism-{seed}"),
        seed,
        num_users: 60,
        num_items: 45,
        num_groups: 120,
        num_topics: 4,
        latent_dim: 4,
        avg_items_per_user: 8.0,
        avg_friends_per_user: 5.0,
        avg_items_per_group: 1.3,
        mean_group_size: 3.5,
        zipf_exponent: 0.8,
        homophily: 0.45,
        social_influence: 0.15,
        expertise_sharpness: 3.5,
        taste_temperature: 0.25,
        consensus_blend: 0.5,
        connectedness_boost: 1.0,
    });
    let split = split_dataset(&dataset, 0.2, 0.1, 42);
    (dataset, split)
}

fn quick_cfg(seed: u64) -> GroupSaConfig {
    GroupSaConfig {
        embed_dim: 8,
        d_k: 8,
        d_ff: 8,
        user_epochs: 2,
        group_epochs: 3,
        seed,
        ..GroupSaConfig::paper()
    }
}

fn train(dataset: &Dataset, split: &Split, cfg: GroupSaConfig) -> (GroupSa, DataContext) {
    let ctx = DataContext::build(dataset, split, &cfg);
    let mut model = GroupSa::new(cfg.clone(), dataset.num_users, dataset.num_items);
    Trainer::new(cfg).fit(&mut model, &ctx);
    (model, ctx)
}

/// A checkpoint path in the temp dir, removed when dropped.
struct TempFile(std::path::PathBuf);

impl AsRef<std::path::Path> for TempFile {
    fn as_ref(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn temp_path(name: &str) -> TempFile {
    TempFile(std::env::temp_dir().join(format!("groupsa-determinism-{}-{name}", std::process::id())))
}

#[test]
fn same_seed_training_runs_write_byte_identical_checkpoints() {
    let (dataset, split) = tiny_world(9);
    let run = |path: &TempFile| {
        let (model, _ctx) = train(&dataset, &split, quick_cfg(0xD5EE_D));
        model.save(path, dataset.num_users, dataset.num_items).unwrap();
        std::fs::read(path).unwrap()
    };
    let a = run(&temp_path("run_a.json"));
    let b = run(&temp_path("run_b.json"));
    assert!(!a.is_empty());
    assert_eq!(a, b, "same-seed runs must checkpoint to identical bytes");
}

#[test]
fn different_seeds_write_different_checkpoints() {
    // Guards against the degenerate way to pass the test above (a
    // checkpoint that ignores the parameters entirely).
    let (dataset, split) = tiny_world(10);
    let bytes = |seed: u64, name: &str| {
        let (model, _ctx) = train(&dataset, &split, quick_cfg(seed));
        let path = temp_path(name);
        model.save(&path, dataset.num_users, dataset.num_items).unwrap();
        std::fs::read(&path).unwrap()
    };
    assert_ne!(bytes(1, "seed_1.json"), bytes(2, "seed_2.json"));
}

#[test]
fn save_load_roundtrip_preserves_recommendations() {
    let (dataset, split) = tiny_world(11);
    let (model, ctx) = train(&dataset, &split, quick_cfg(7));
    let path = temp_path("roundtrip.json");
    model.save(&path, dataset.num_users, dataset.num_items).unwrap();
    let loaded = GroupSa::load(&path).unwrap();

    for group in 0..4 {
        let before = model.recommend_for_group(&ctx, group, 10, GroupMode::Voting);
        let after = loaded.recommend_for_group(&ctx, group, 10, GroupMode::Voting);
        assert_eq!(before, after, "group {group} recommendations changed across save/load");
    }
    for user in 0..4 {
        let before = model.recommend_for_user(&ctx, user, 10);
        let after = loaded.recommend_for_user(&ctx, user, 10);
        assert_eq!(before, after, "user {user} recommendations changed across save/load");
    }
}

#[test]
fn checkpoint_bytes_survive_a_parse_write_cycle() {
    // The checkpoint is plain JSON: parsing it and re-serialising the
    // loaded model must reproduce the original bytes exactly. This is
    // what makes byte-level comparison a sound fingerprint.
    let (dataset, split) = tiny_world(12);
    let (model, _ctx) = train(&dataset, &split, quick_cfg(3));
    let path = temp_path("cycle_a.json");
    model.save(&path, dataset.num_users, dataset.num_items).unwrap();
    let original = std::fs::read(&path).unwrap();

    let loaded = GroupSa::load(&path).unwrap();
    let path2 = temp_path("cycle_b.json");
    loaded.save(&path2, dataset.num_users, dataset.num_items).unwrap();
    let rewritten = std::fs::read(&path2).unwrap();
    assert_eq!(original, rewritten, "JSON round-trip must be lossless for f32 parameters");
}
