//! Golden equivalence: `FrozenModel` must reproduce the graph eval
//! path **bit-for-bit** — same items, same score bits — for every
//! serving mode. A frozen snapshot is a speedup, never an
//! approximation.

use groupsa_core::{DataContext, GroupMode, GroupSa, GroupSaConfig, Recommendation, ScoreAggregation};
use groupsa_data::synthetic::{generate, SyntheticConfig};
use groupsa_data::Dataset;
use groupsa_serve::protocol::Target;
use groupsa_serve::FrozenModel;

fn tiny_world(seed: u64) -> (Dataset, DataContext) {
    let dataset = generate(&SyntheticConfig {
        name: format!("serve-golden-{seed}"),
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

fn assert_identical(frozen: &[Recommendation], graph: &[Recommendation], what: &str) {
    assert_eq!(frozen.len(), graph.len(), "{what}: length");
    for (f, g) in frozen.iter().zip(graph) {
        assert_eq!(f.item, g.item, "{what}: item order");
        assert_eq!(f.score.to_bits(), g.score.to_bits(), "{what}: score bits for item {}", f.item);
    }
}

#[test]
fn frozen_user_recommendations_match_graph_path_bit_for_bit() {
    let (d, ctx) = tiny_world(71);
    let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
    let frozen = FrozenModel::freeze(model, ctx);
    for user in 0..d.num_users {
        let got = frozen.recommend(Target::User { id: user }, 10, true, GroupMode::Voting).unwrap();
        let want = frozen.model().recommend_for_user(frozen.context(), user, 10);
        assert_identical(&got, &want, &format!("user {user}"));
    }
}

#[test]
fn frozen_group_recommendations_match_graph_path_in_every_mode() {
    let (d, ctx) = tiny_world(72);
    let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
    let num_groups = ctx.num_groups();
    let frozen = FrozenModel::freeze(model, ctx);
    let modes = [
        GroupMode::Voting,
        GroupMode::Fast(ScoreAggregation::Average),
        GroupMode::Fast(ScoreAggregation::LeastMisery),
        GroupMode::Fast(ScoreAggregation::MaxSatisfaction),
    ];
    for group in 0..num_groups {
        for mode in modes {
            let got = frozen.recommend(Target::Group { id: group }, 5, true, mode).unwrap();
            let want = frozen.model().recommend_for_group(frozen.context(), group, 5, mode);
            assert_identical(&got, &want, &format!("group {group} mode {mode:?}"));
        }
    }
}

#[test]
fn include_seen_scores_every_item() {
    let (d, ctx) = tiny_world(73);
    let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
    let frozen = FrozenModel::freeze(model, ctx);
    let got = frozen.recommend(Target::User { id: 0 }, d.num_items + 5, false, GroupMode::Voting).unwrap();
    assert_eq!(got.len(), d.num_items, "exclude_seen=false ranks the full catalogue");
}

#[test]
fn batched_shared_catalog_path_matches_per_request_recommendations() {
    let (d, ctx) = tiny_world(77);
    let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
    let frozen = FrozenModel::freeze(model, ctx);
    // Mixed ks, duplicate users, and one out-of-range id: the batch
    // must reproduce each per-request result (and error) individually.
    let requests: Vec<(usize, usize)> =
        vec![(0, 5), (1, 10), (2, 3), (0, 7), (d.num_users, 5), (d.num_users - 1, 4)];
    let batched = frozen.recommend_users_shared(&requests);
    assert_eq!(batched.len(), requests.len());
    for (j, &(user, k)) in requests.iter().enumerate() {
        let solo = frozen.recommend(Target::User { id: user }, k, false, GroupMode::Voting);
        match (&batched[j], &solo) {
            (Ok(got), Ok(want)) => assert_identical(got, want, &format!("batch slot {j} (user {user})")),
            (Err(got), Err(want)) => assert_eq!(got, want, "batch slot {j}"),
            (got, want) => panic!("batch slot {j}: {got:?} vs {want:?}"),
        }
    }
}

#[test]
fn out_of_range_targets_error_instead_of_panicking() {
    let (d, ctx) = tiny_world(74);
    let num_groups = ctx.num_groups();
    let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
    let frozen = FrozenModel::freeze(model, ctx);
    assert!(frozen.recommend(Target::User { id: d.num_users }, 5, true, GroupMode::Voting).is_err());
    assert!(frozen.recommend(Target::Group { id: num_groups }, 5, true, GroupMode::Voting).is_err());
}

#[test]
fn universe_reports_the_frozen_sizes() {
    let (d, ctx) = tiny_world(76);
    let num_groups = ctx.num_groups();
    let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
    let frozen = FrozenModel::freeze(model, ctx);
    let universe = frozen.universe();
    assert_eq!(universe.num_users, d.num_users);
    assert_eq!(universe.num_items, d.num_items);
    assert_eq!(universe.num_groups, num_groups);
}
