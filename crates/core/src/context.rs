//! Precomputed training/inference context derived from a dataset.
//!
//! Everything the model needs repeatedly — Top-H TF-IDF item and friend
//! lists per user (paper §II-D), per-group member lists, and per-group
//! social bias masks (Eq. 4–5) — is computed once here from the
//! *training* view of a dataset.

use crate::config::GroupSaConfig;
use groupsa_data::{Dataset, Split};
use groupsa_graph::{social, tfidf, Bipartite, CsrGraph};
use groupsa_nn::attention::social_bias_mask;
use groupsa_tensor::Matrix;

/// Immutable, precomputed views shared by training and inference.
pub struct DataContext {
    /// Number of users.
    pub num_users: usize,
    /// Number of items.
    pub num_items: usize,
    /// Training user–item pairs (stage-1 positives).
    pub train_user_item: Vec<(usize, usize)>,
    /// Training group–item pairs (stage-2 positives).
    pub train_group_item: Vec<(usize, usize)>,
    /// Training user–item bipartite graph (negative sampling).
    pub user_item_graph: Bipartite,
    /// Training group–item bipartite graph (negative sampling).
    pub group_item_graph: Bipartite,
    /// The social network `R^S`.
    pub social_graph: CsrGraph,
    /// Member list of every group, truncated to
    /// [`GroupSaConfig::max_group_size`].
    pub members: Vec<Vec<usize>>,
    /// Per-group additive social bias matrix `S` (Eq. 4–5) —
    /// `l×l` of `{0, −∞}`, `None` when the social mask is ablated.
    pub group_masks: Vec<Option<Matrix>>,
    /// Per-user Top-H TF-IDF interacted items (possibly shorter or
    /// empty for cold users).
    pub top_items: Vec<Vec<usize>>,
    /// Per-user Top-H TF-IDF friends.
    pub top_friends: Vec<Vec<usize>>,
    /// Held-out validation group–item pairs (paper §III-C: 10% of the
    /// training records) used for early stopping in stage 2. Empty when
    /// the context was built without a split.
    pub valid_group_item: Vec<(usize, usize)>,
}

impl DataContext {
    /// Builds the context from the full dataset, its split and the
    /// model configuration. Only training interactions are consulted
    /// for Top-H lists and negative-sampling graphs.
    pub fn build(dataset: &Dataset, split: &Split, cfg: &GroupSaConfig) -> Self {
        let train = split.train_view(dataset);
        let mut ctx = Self::from_train_view(&train, cfg);
        ctx.valid_group_item = split.valid_group_item.clone();
        ctx
    }

    /// Builds the context directly from a training-view dataset.
    pub fn from_train_view(train: &Dataset, cfg: &GroupSaConfig) -> Self {
        let user_item_graph = train.user_item_graph();
        let group_item_graph = train.group_item_graph();
        let social_graph = train.social_graph();

        let members: Vec<Vec<usize>> = train
            .groups
            .iter()
            .map(|g| g.iter().copied().take(cfg.max_group_size).collect())
            .collect();

        let group_masks = members
            .iter()
            .map(|m| {
                if cfg.ablation.social_mask {
                    let allowed = social::group_mask(&social_graph, m, cfg.closeness);
                    Some(social_bias_mask(&allowed))
                } else {
                    None
                }
            })
            .collect();

        let top_items = (0..train.num_users)
            .map(|u| tfidf::top_items(&user_item_graph, u, cfg.top_h))
            .collect();
        let top_friends = (0..train.num_users)
            .map(|u| tfidf::top_friends(&social_graph, u, cfg.top_h))
            .collect();

        Self {
            num_users: train.num_users,
            num_items: train.num_items,
            train_user_item: train.user_item.clone(),
            train_group_item: train.group_item.clone(),
            user_item_graph,
            group_item_graph,
            social_graph,
            members,
            group_masks,
            top_items,
            top_friends,
            valid_group_item: Vec::new(),
        }
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.members.len()
    }

    /// A minimal context for snapshot-backed serving: universe sizes
    /// and member lists only, with empty interaction graphs and no
    /// Top-H lists or masks.
    ///
    /// The serving path (`FrozenModel::recommend`) touches exactly
    /// `num_users` / `num_items`, the interaction graphs (for
    /// `exclude_seen` filtering — empty graphs mean nothing is ever
    /// excluded) and `members` (Fast-mode aggregation); the expensive
    /// per-user/per-group intermediates come from the snapshot tables,
    /// which were precomputed against the *real* context at freeze
    /// time. A stub context cannot recompute those tables.
    pub fn serving_stub(num_users: usize, num_items: usize, members: Vec<Vec<usize>>) -> Self {
        let num_groups = members.len();
        Self {
            num_users,
            num_items,
            train_user_item: Vec::new(),
            train_group_item: Vec::new(),
            user_item_graph: Bipartite::from_pairs(num_users, num_items, &[]),
            group_item_graph: Bipartite::from_pairs(num_groups, num_items, &[]),
            social_graph: CsrGraph::empty(num_users),
            members,
            group_masks: (0..num_groups).map(|_| None).collect(),
            top_items: vec![Vec::new(); num_users],
            top_friends: vec![Vec::new(); num_users],
            valid_group_item: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupsa_data::split_dataset;
    use groupsa_data::synthetic::{generate, SyntheticConfig};

    fn dataset() -> Dataset {
        generate(&SyntheticConfig {
            name: "ctx".into(),
            seed: 5,
            num_users: 80,
            num_items: 50,
            num_groups: 30,
            num_topics: 4,
            latent_dim: 4,
            avg_items_per_user: 8.0,
            avg_friends_per_user: 5.0,
            avg_items_per_group: 1.3,
            mean_group_size: 4.0,
            zipf_exponent: 0.8,
            homophily: 0.8,
            social_influence: 0.3,
            expertise_sharpness: 2.0,
            taste_temperature: 0.35,
            consensus_blend: 0.5,
            connectedness_boost: 1.0,
        })
    }

    #[test]
    fn context_shapes_are_consistent() {
        let d = dataset();
        let split = split_dataset(&d, 0.2, 0.1, 1);
        let cfg = GroupSaConfig::tiny();
        let ctx = DataContext::build(&d, &split, &cfg);
        assert_eq!(ctx.num_users, d.num_users);
        assert_eq!(ctx.num_groups(), d.num_groups());
        assert_eq!(ctx.top_items.len(), d.num_users);
        assert_eq!(ctx.top_friends.len(), d.num_users);
        for (m, mask) in ctx.members.iter().zip(&ctx.group_masks) {
            assert!(m.len() <= cfg.max_group_size);
            let mask = mask.as_ref().expect("social mask enabled in tiny config");
            assert_eq!(mask.shape(), (m.len(), m.len()));
        }
        for items in &ctx.top_items {
            assert!(items.len() <= cfg.top_h);
        }
    }

    #[test]
    fn context_uses_only_training_interactions() {
        let d = dataset();
        let split = split_dataset(&d, 0.3, 0.0, 1);
        let ctx = DataContext::build(&d, &split, &GroupSaConfig::tiny());
        assert_eq!(ctx.train_user_item.len(), split.train_user_item.len());
        assert!(ctx.user_item_graph.num_interactions() < d.user_item.len());
        // Held-out pairs are invisible to the sampling graph.
        for &(u, i) in split.test_user_item.iter().take(20) {
            let in_train = split.train_user_item.contains(&(u, i));
            assert_eq!(ctx.user_item_graph.has_interaction(u, i), in_train);
        }
    }

    #[test]
    fn mask_diagonal_is_open_and_nonedges_blocked() {
        let d = dataset();
        let split = split_dataset(&d, 0.2, 0.1, 1);
        let ctx = DataContext::build(&d, &split, &GroupSaConfig::tiny());
        let s = &ctx.social_graph;
        for (members, mask) in ctx.members.iter().zip(&ctx.group_masks).take(10) {
            let mask = mask.as_ref().unwrap();
            for i in 0..members.len() {
                assert_eq!(mask[(i, i)], 0.0, "diagonal must stay open");
                for j in 0..members.len() {
                    if i != j {
                        let expected = if s.has_edge(members[i], members[j]) { 0.0 } else { f32::NEG_INFINITY };
                        assert_eq!(mask[(i, j)], expected);
                    }
                }
            }
        }
    }

    #[test]
    fn ablating_social_mask_removes_masks() {
        let d = dataset();
        let split = split_dataset(&d, 0.2, 0.1, 1);
        let mut cfg = GroupSaConfig::tiny();
        cfg.ablation.social_mask = false;
        let ctx = DataContext::build(&d, &split, &cfg);
        assert!(ctx.group_masks.iter().all(Option::is_none));
    }

    #[test]
    fn oversized_groups_are_truncated() {
        let d = dataset();
        let split = split_dataset(&d, 0.2, 0.1, 1);
        let mut cfg = GroupSaConfig::tiny();
        cfg.max_group_size = 2;
        let ctx = DataContext::build(&d, &split, &cfg);
        assert!(ctx.members.iter().all(|m| m.len() <= 2));
    }
}
