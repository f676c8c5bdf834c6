//! The GroupSA parameter set and its scoring interfaces.

use crate::config::GroupSaConfig;
use crate::context::DataContext;
use groupsa_eval::Scorer;
use groupsa_nn::{
    Embedding, Init, Linear, Mlp, ParamStore, TransformerLayer, VanillaAttention,
};
use groupsa_tensor::rng::seeded;
use groupsa_tensor::{Eager, Matrix};

/// The GroupSA model: four embedding tables, the user-modeling
/// aggregators, the stacked social self-attention voting network, and
/// two prediction towers, all registered in one [`ParamStore`].
///
/// | field | paper symbol | role |
/// |---|---|---|
/// | `emb_user` | `embᵁ` | shared user embedding (user-item space) |
/// | `emb_item` | `embⱽ` | shared item embedding |
/// | `lat_item` | `xⱽ` | item latent factor in item-space (Eq. 11) |
/// | `lat_social` | `xˢ` | user latent factor in social-space (Eq. 15) |
/// | `item_att`, `item_agg_out` | `α`, Eq. 11–14 | item aggregation |
/// | `social_att`, `social_agg_out` | `β`, Eq. 15–18 | social aggregation |
/// | `fusion` | Eq. 19 | combines `hⱽ ⊕ hˢ → h` |
/// | `voting` | Eq. 1–6 | `N_X` social self-attention rounds |
/// | `group_att`, `group_out` | `γ`, Eq. 7–10 | member-preference aggregation |
/// | `pred_user` | Eq. 22 | user ranking tower (shared by r₁ and r₂) |
/// | `pred_group` | Eq. 20 | group ranking tower |
///
/// Implementation note (recorded in DESIGN.md): the prediction towers
/// and the member attention γ receive `[a ⊕ b ⊕ a⊙b]` instead of the
/// paper's bare concatenation `[a ⊕ b]`. A concatenation-only MLP
/// cannot learn a similarity function from the few thousand group-item
/// pairs available at this reproduction's scale; the element-wise
/// product (the standard NeuMF/GMF feature) makes the affinity
/// expressible directly and affects the user and group towers
/// identically, so method comparisons stay fair. Both evaluators build
/// these rows with one op, [`groupsa_tensor::Forward::pair_features`].
pub struct GroupSa {
    pub(crate) cfg: GroupSaConfig,
    pub(crate) store: ParamStore,
    pub(crate) emb_user: Embedding,
    pub(crate) emb_item: Embedding,
    pub(crate) lat_item: Embedding,
    pub(crate) lat_social: Embedding,
    pub(crate) item_att: VanillaAttention,
    pub(crate) item_agg_out: Linear,
    pub(crate) social_att: VanillaAttention,
    pub(crate) social_agg_out: Linear,
    pub(crate) fusion: Mlp,
    pub(crate) voting: Vec<TransformerLayer>,
    pub(crate) group_att: VanillaAttention,
    pub(crate) group_out: Linear,
    pub(crate) pred_user: Mlp,
    pub(crate) pred_group: Mlp,
}

impl GroupSa {
    /// Builds a freshly initialised model for `num_users` × `num_items`
    /// (Glorot embeddings, Gaussian(0, 0.1) hidden layers — §III-E).
    ///
    /// # Panics
    /// If the configuration fails [`GroupSaConfig::validate`].
    pub fn new(cfg: GroupSaConfig, num_users: usize, num_items: usize) -> Self {
        if let Err(e) = cfg.validate() {
            // lint: allow(panic-reach) — documented `# Panics` contract; model-build time, never per request
            panic!("invalid GroupSaConfig: {e}");
        }
        let mut rng = seeded(cfg.seed);
        let mut store = ParamStore::new();
        let d = cfg.embed_dim;

        let emb_user = Embedding::new(&mut store, &mut rng, "emb_user", num_users, d, Init::Glorot);
        let emb_item = Embedding::new(&mut store, &mut rng, "emb_item", num_items, d, Init::Glorot);
        let lat_item = Embedding::new(&mut store, &mut rng, "lat_item", num_items, d, Init::Glorot);
        let lat_social = Embedding::new(&mut store, &mut rng, "lat_social", num_users, d, Init::Glorot);

        let item_att = VanillaAttention::new(&mut store, &mut rng, "item_att", 2 * d, d);
        let item_agg_out = Linear::new(&mut store, &mut rng, "item_agg_out", d, d, Init::PAPER_HIDDEN);
        let social_att = VanillaAttention::new(&mut store, &mut rng, "social_att", 2 * d, d);
        let social_agg_out = Linear::new(&mut store, &mut rng, "social_agg_out", d, d, Init::PAPER_HIDDEN);
        let fusion = Mlp::new(&mut store, &mut rng, "fusion", &[2 * d, d, d], true);

        let voting = (0..cfg.num_voting_layers)
            .map(|i| TransformerLayer::new(&mut store, &mut rng, &format!("vote{i}"), d, cfg.d_k, cfg.d_ff, cfg.dropout))
            .collect();
        let group_att = VanillaAttention::new(&mut store, &mut rng, "group_att", 3 * d, d);
        let group_out = Linear::new(&mut store, &mut rng, "group_out", d, d, Init::PAPER_HIDDEN);

        let pred_user = Mlp::new(&mut store, &mut rng, "pred_user", &[3 * d, d, 1], false);
        let pred_group = Mlp::new(&mut store, &mut rng, "pred_group", &[3 * d, d, 1], false);

        Self {
            cfg,
            store,
            emb_user,
            emb_item,
            lat_item,
            lat_social,
            item_att,
            item_agg_out,
            social_att,
            social_agg_out,
            fusion,
            voting,
            group_att,
            group_out,
            pred_user,
            pred_group,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &GroupSaConfig {
        &self.cfg
    }

    /// The parameter store (read access, e.g. for reporting).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// The parameter store (mutable, used by the trainer).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Number of users the embedding tables were built for.
    pub fn num_users(&self) -> usize {
        self.emb_user.count()
    }

    /// Number of items the embedding tables were built for.
    pub fn num_items(&self) -> usize {
        self.emb_item.count()
    }

    /// The shared user embedding table `embᵁ` (`num_users×d`).
    pub fn user_embedding_table(&self) -> &Matrix {
        self.store.value(self.emb_user.slot())
    }

    /// The shared item embedding table `embⱽ` (`num_items×d`).
    pub fn item_embedding_table(&self) -> &Matrix {
        self.store.value(self.emb_item.slot())
    }

    /// Total scalar parameter count.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// User-task scores for `items` (Eq. 23): the training definition
    /// evaluated eagerly, with the latent factor computed on the fly
    /// (only when `wᵘ ≠ 0`).
    pub fn score_user_items(&self, ctx: &DataContext, user: usize, items: &[usize]) -> Vec<f32> {
        let latent = |f: &mut Eager| self.user_latent(f, user, &ctx.top_items[user], &ctx.top_friends[user]);
        self.user_scores(&mut Eager, user, items, latent).into_owned().into_vec()
    }

    /// Group-task scores for `items` (Eq. 20): the voting network, then
    /// γ and the group tower, evaluated eagerly with dropout off.
    pub fn score_group_items(&self, ctx: &DataContext, group: usize, items: &[usize]) -> Vec<f32> {
        self.score_group_items_frozen(&self.member_reps_frozen(ctx, group, &[]), items)
    }

    /// An [`Scorer`] over users for the evaluation protocol.
    pub fn user_scorer<'a>(&'a self, ctx: &'a DataContext) -> impl Scorer + 'a {
        move |user: usize, items: &[usize]| self.score_user_items(ctx, user, items)
    }

    /// A [`Scorer`] over groups (the full voting-scheme path).
    pub fn group_scorer<'a>(&'a self, ctx: &'a DataContext) -> impl Scorer + 'a {
        move |group: usize, items: &[usize]| self.score_group_items(ctx, group, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Ablation;
    use crate::test_fixtures::tiny_world;

    #[test]
    fn construction_registers_all_components() {
        let (d, ctx) = tiny_world(7);
        let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
        // 4 embedding tables plus towers: parameter count must cover at
        // least the tables.
        let d8 = 8;
        let min = (d.num_users * d8) * 2 + (d.num_items * d8) * 2;
        assert!(model.num_parameters() > min, "{} params", model.num_parameters());
        assert_eq!(model.voting.len(), 1);
        drop(ctx);
    }

    #[test]
    #[should_panic(expected = "invalid GroupSaConfig")]
    fn invalid_config_panics() {
        let mut cfg = GroupSaConfig::tiny();
        cfg.w_u = 2.0;
        let _ = GroupSa::new(cfg, 10, 10);
    }

    #[test]
    fn scoring_is_deterministic_and_finite() {
        let (d, ctx) = tiny_world(7);
        let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
        let items = [0usize, 1, 2, 3];
        let a = model.score_user_items(&ctx, 0, &items);
        let b = model.score_user_items(&ctx, 0, &items);
        assert_eq!(a, b);
        assert!(a.iter().all(|x| x.is_finite()));
        let ga = model.score_group_items(&ctx, 0, &items);
        let gb = model.score_group_items(&ctx, 0, &items);
        assert_eq!(ga, gb);
        assert!(ga.iter().all(|x| x.is_finite()));
        assert_eq!(ga.len(), items.len());
    }

    #[test]
    fn different_users_get_different_scores() {
        let (d, ctx) = tiny_world(7);
        let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
        let items = [0usize, 1, 2];
        assert_ne!(model.score_user_items(&ctx, 0, &items), model.score_user_items(&ctx, 1, &items));
    }

    #[test]
    fn ablated_variants_still_score() {
        let (d, _) = tiny_world(7);
        for ab in [
            Ablation::group_a(),
            Ablation::group_s(),
            Ablation::group_i(),
            Ablation::group_f(),
            Ablation::group_g(),
        ] {
            let cfg = GroupSaConfig::tiny().with_ablation(ab);
            let ctx = crate::context::DataContext::from_train_view(&d, &cfg);
            let model = GroupSa::new(cfg, d.num_users, d.num_items);
            let s = model.score_group_items(&ctx, 0, &[0, 1]);
            assert_eq!(s.len(), 2);
            assert!(s.iter().all(|x| x.is_finite()), "{ab:?}");
            let u = model.score_user_items(&ctx, 0, &[0, 1]);
            assert!(u.iter().all(|x| x.is_finite()), "{ab:?}");
        }
    }
}
