//! Snapshot-backed serving golden tests: an f32 binary snapshot must
//! reproduce the in-memory `FrozenModel` **bit-for-bit** — same items,
//! same score bits — through every request mode, with a fraction of
//! the resident memory. Quantized snapshots must be deterministic.

mod common;

use common::{fresh_dir, ScratchDir};
use groupsa_core::{DataContext, GroupMode, GroupSa, GroupSaConfig, Recommendation, ScoreAggregation};
use groupsa_data::synthetic::{generate, SyntheticConfig};
use groupsa_data::Dataset;
use groupsa_serve::protocol::Target;
use groupsa_serve::FrozenModel;
use groupsa_snapshot::Quant;

fn tiny_world(seed: u64) -> (Dataset, DataContext) {
    let dataset = generate(&SyntheticConfig {
        name: format!("serve-snapshot-{seed}"),
        seed,
        num_users: 60,
        num_items: 40,
        num_groups: 25,
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
    let ctx = DataContext::from_train_view(&dataset, &GroupSaConfig::tiny());
    (dataset, ctx)
}

/// Two independent builds of the same seeded world: one frozen in
/// memory, one round-tripped through an f32 snapshot, plus the
/// snapshot's directory (removed when the caller drops it).
fn memory_and_snapshot(seed: u64, tag: &str, quant: Quant) -> (FrozenModel, FrozenModel, ScratchDir) {
    let (d, ctx) = tiny_world(seed);
    let memory = FrozenModel::freeze(GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items), ctx);
    let dir = fresh_dir(tag);
    memory.write_snapshot(&dir, 3, quant).expect("write snapshot");
    let (d2, ctx2) = tiny_world(seed);
    let lazy = FrozenModel::from_snapshot(
        GroupSa::new(GroupSaConfig::tiny(), d2.num_users, d2.num_items),
        ctx2,
        &dir,
    )
    .expect("open snapshot");
    (memory, lazy, dir)
}

fn assert_identical(a: &[Recommendation], b: &[Recommendation], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.item, y.item, "{what}: item order");
        assert_eq!(x.score.to_bits(), y.score.to_bits(), "{what}: score bits for item {}", x.item);
    }
}

#[test]
fn f32_snapshot_responses_are_bit_identical_to_memory() {
    let (memory, lazy, _dir) = memory_and_snapshot(81, "golden-f32", Quant::F32);
    assert_eq!(memory.table_backing(), "memory");
    assert_eq!(lazy.table_backing(), "snapshot");
    let num_users = memory.context().num_users;
    let num_groups = memory.context().num_groups();
    for user in 0..num_users {
        for exclude in [true, false] {
            let want = memory.recommend(Target::User { id: user }, 10, exclude, GroupMode::Voting).unwrap();
            let got = lazy.recommend(Target::User { id: user }, 10, exclude, GroupMode::Voting).unwrap();
            assert_identical(&got, &want, &format!("user {user} exclude={exclude}"));
        }
    }
    let modes = [
        GroupMode::Voting,
        GroupMode::Fast(ScoreAggregation::Average),
        GroupMode::Fast(ScoreAggregation::LeastMisery),
        GroupMode::Fast(ScoreAggregation::MaxSatisfaction),
    ];
    for group in 0..num_groups {
        for mode in modes {
            let want = memory.recommend(Target::Group { id: group }, 5, true, mode).unwrap();
            let got = lazy.recommend(Target::Group { id: group }, 5, true, mode).unwrap();
            assert_identical(&got, &want, &format!("group {group} mode {mode:?}"));
        }
    }
}

#[test]
fn batched_shared_path_matches_through_a_snapshot() {
    let (memory, lazy, _dir) = memory_and_snapshot(82, "golden-batch", Quant::F32);
    let n = memory.context().num_users;
    let requests: Vec<(usize, usize)> = vec![(0, 5), (1, 10), (2, 3), (0, 7), (n, 5), (n - 1, 4)];
    let want = memory.recommend_users_shared(&requests);
    let got = lazy.recommend_users_shared(&requests);
    assert_eq!(want.len(), got.len());
    for (j, (w, g)) in want.iter().zip(&got).enumerate() {
        match (w, g) {
            (Ok(w), Ok(g)) => assert_identical(g, w, &format!("batch slot {j}")),
            (Err(w), Err(g)) => assert_eq!(w, g, "batch slot {j}"),
            other => panic!("batch slot {j}: {other:?}"),
        }
    }
}

#[test]
fn serving_stub_context_serves_the_full_catalog_identically() {
    let (d, ctx) = tiny_world(83);
    let memory = FrozenModel::freeze(GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items), ctx);
    let dir = fresh_dir("golden-stub");
    memory.write_snapshot(&dir, 2, Quant::F32).expect("write snapshot");

    // A serving stub drops the interaction graphs and Top-H lists —
    // exactly what a million-scale process would load. With
    // exclude_seen = false the graphs are never consulted, so
    // responses must still match bit-for-bit.
    let stub = DataContext::serving_stub(d.num_users, d.num_items, memory.context().members.clone());
    let lazy = FrozenModel::from_snapshot(GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items), stub, &dir)
        .expect("open with stub context");
    for user in (0..d.num_users).step_by(7) {
        let want = memory.recommend(Target::User { id: user }, 10, false, GroupMode::Voting).unwrap();
        let got = lazy.recommend(Target::User { id: user }, 10, false, GroupMode::Voting).unwrap();
        assert_identical(&got, &want, &format!("stub user {user}"));
    }
    for group in (0..memory.context().num_groups()).step_by(5) {
        let want = memory.recommend(Target::Group { id: group }, 5, false, GroupMode::Voting).unwrap();
        let got = lazy.recommend(Target::Group { id: group }, 5, false, GroupMode::Voting).unwrap();
        assert_identical(&got, &want, &format!("stub group {group}"));
    }
}

#[test]
fn quantized_snapshots_serve_deterministically() {
    for quant in [Quant::F16, Quant::I8] {
        let (_, lazy, _dir) = memory_and_snapshot(85, &format!("golden-{}", quant.name()), quant);
        let a = lazy.recommend(Target::User { id: 3 }, 10, true, GroupMode::Voting).unwrap();
        let b = lazy.recommend(Target::User { id: 3 }, 10, true, GroupMode::Voting).unwrap();
        assert_identical(&a, &b, &format!("{} repeat read", quant.name()));
        let g1 = lazy.recommend(Target::Group { id: 1 }, 5, true, GroupMode::Voting).unwrap();
        let g2 = lazy.recommend(Target::Group { id: 1 }, 5, true, GroupMode::Voting).unwrap();
        assert_identical(&g1, &g2, &format!("{} group repeat", quant.name()));
    }
}

#[test]
fn lazy_backing_cuts_resident_bytes() {
    let (memory, lazy, _dir) = memory_and_snapshot(86, "golden-resident", Quant::F32);
    assert!(
        lazy.resident_table_bytes() < memory.resident_table_bytes(),
        "snapshot backing should hold less than the full tables ({} vs {})",
        lazy.resident_table_bytes(),
        memory.resident_table_bytes()
    );
}

#[test]
fn universe_mismatches_are_rejected_at_open() {
    let (d, ctx) = tiny_world(87);
    let memory = FrozenModel::freeze(GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items), ctx);
    let dir = fresh_dir("golden-mismatch");
    memory.write_snapshot(&dir, 2, Quant::F32).expect("write snapshot");
    // Wrong-size context.
    let stub = DataContext::serving_stub(d.num_users + 1, d.num_items, memory.context().members.clone());
    let err = match FrozenModel::from_snapshot(
        GroupSa::new(GroupSaConfig::tiny(), d.num_users + 1, d.num_items),
        stub,
        &dir,
    ) {
        Err(e) => e,
        Ok(_) => panic!("universe mismatch must fail"),
    };
    assert!(err.contains("does not match"), "unexpected error: {err}");
}
