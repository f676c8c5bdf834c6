//! User modeling: the enhanced user latent factor `h_j` (paper §II-D)
//! and the blended user-task scores (Eq. 22–23).

use crate::context::DataContext;
use crate::model::GroupSa;
use groupsa_nn::{Embedding, Linear, VanillaAttention};
use groupsa_tensor::{Forward, Graph, NodeId};

impl GroupSa {
    /// One attention-aggregation branch over a user's Top-H neighbours
    /// `ids`, guided by the user's embedding `emb_u`: the
    /// item-aggregation branch `hⱽ_j` (Eq. 11–14, over items in
    /// item-space) or the social-aggregation branch `hˢ_j` (Eq. 15–18,
    /// over friends in social-space), then `σ(W·agg + b)`.
    ///
    /// Returns `None` when the user has no neighbours.
    fn neighbour_aggregation<'p, F: Forward<'p>>(
        &'p self,
        f: &mut F,
        (space, att, out): (&Embedding, &VanillaAttention, &Linear),
        ids: &[usize],
        emb_u: &F::Value,
    ) -> Option<F::Value> {
        if ids.is_empty() {
            return None;
        }
        let xs = space.lookup(f, &self.store, ids); // H×d
        let eu_rep = f.repeat_rows(emb_u, ids.len());
        let rows = f.concat_cols(&eu_rep, &xs); // H×2d — [embᵁ_j ⊕ x_h]
        let agg = att.aggregate(f, &self.store, &rows, &xs); // 1×d
        let lin = out.forward(f, &self.store, &agg);
        Some(f.relu(lin))
    }

    /// The final user latent factor `h_j` (Eq. 19) from the user's
    /// Top-H item and friend lists: the fusion MLP over `[hⱽ ⊕ hˢ]`,
    /// degrading gracefully to a single branch when the other is
    /// ablated or empty, and to `None` when neither is available.
    pub(crate) fn user_latent<'p, F: Forward<'p>>(
        &'p self,
        f: &mut F,
        user: usize,
        top_items: &[usize],
        top_friends: &[usize],
    ) -> Option<F::Value> {
        let ablation = &self.cfg.ablation;
        if !ablation.user_modeling() {
            return None;
        }
        let emb_u = self.emb_user.lookup(f, &self.store, &[user]); // 1×d
        let items = (&self.lat_item, &self.item_att, &self.item_agg_out);
        let friends = (&self.lat_social, &self.social_att, &self.social_agg_out);
        let hv = if ablation.item_aggregation { self.neighbour_aggregation(f, items, top_items, &emb_u) } else { None };
        let hs =
            if ablation.social_aggregation { self.neighbour_aggregation(f, friends, top_friends, &emb_u) } else { None };
        match (hv, hs) {
            (Some(hv), Some(hs)) => {
                let cat = f.concat_cols(&hv, &hs); // 1×2d
                Some(self.fusion.forward(f, &self.store, &cat))
            }
            (Some(hv), None) => Some(hv),
            (None, Some(hs)) => Some(hs),
            (None, None) => None,
        }
    }

    /// The user-task scores of `items` (Eq. 22–23):
    /// `r = (1 − wᵘ)·MLP([embᵁ ⊕ embⱽ]) + wᵘ·MLP([h ⊕ xⱽ])`, both
    /// through the *same* prediction tower. `latent` supplies the
    /// user's latent factor `h` — computed in place (on a tape when
    /// training, eagerly when evaluating), or a cached row when serving
    /// — and is only asked for when `wᵘ ≠ 0`.
    /// Falls back to `r₁` when it yields nothing.
    ///
    /// Returns an `items.len()×1` value.
    ///
    /// # Panics
    /// If `items` is empty or any id is out of range.
    pub(crate) fn user_scores<'p, F: Forward<'p>>(
        &'p self,
        f: &mut F,
        user: usize,
        items: &[usize],
        latent: impl FnOnce(&mut F) -> Option<F::Value>,
    ) -> F::Value {
        assert!(!items.is_empty(), "user scores: no items to score");
        let emb_u = self.emb_user.lookup(f, &self.store, &[user]); // 1×d
        let ev = self.emb_item.lookup(f, &self.store, items); // n×d
        let cat1 = f.pair_features(&emb_u, &ev); // n×3d
        let r1 = self.pred_user.forward(f, &self.store, &cat1); // n×1

        let w = self.cfg.w_u;
        // Exact-zero gate on a config weight (w_u = 0.0 disables the
        // latent tower), not a computed value.
        if w == 0.0 { // lint: allow(float-eq)
            return r1;
        }
        let Some(h) = latent(f) else {
            return r1;
        };
        let xv = self.lat_item.lookup(f, &self.store, items); // n×d
        let cat2 = f.pair_features(&h, &xv); // n×3d
        let r2 = self.pred_user.forward(f, &self.store, &cat2); // n×1

        let a = f.scale(r1, 1.0 - w);
        let b = f.scale(r2, w);
        f.add(&a, &b)
    }

    /// Records [`GroupSa::user_latent`] for `user` on `g`, reading the
    /// Top-H lists from `ctx`.
    pub(crate) fn user_latent_graph(&self, g: &mut Graph, ctx: &DataContext, user: usize) -> Option<NodeId> {
        self.user_latent(g, user, &ctx.top_items[user], &ctx.top_friends[user])
    }

    /// Records [`GroupSa::user_scores`] on `g`, computing the latent
    /// factor on the same tape.
    pub(crate) fn user_scores_graph(&self, g: &mut Graph, ctx: &DataContext, user: usize, items: &[usize]) -> NodeId {
        self.user_scores(g, user, items, |g| self.user_latent_graph(g, ctx, user))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Ablation, GroupSaConfig};
    use crate::test_fixtures::tiny_world;

    #[test]
    fn latent_factor_has_model_width() {
        let (d, ctx) = tiny_world(3);
        let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
        let mut g = Graph::new();
        // user 0 always has interactions in the fixture.
        let h = model.user_latent_graph(&mut g, &ctx, 0).expect("user 0 has history and friends");
        assert_eq!(g.value(h).shape(), (1, 8));
        assert!(g.value(h).is_finite());
    }

    #[test]
    fn latent_is_none_when_both_branches_ablated() {
        let (d, _) = tiny_world(3);
        let cfg = GroupSaConfig::tiny().with_ablation(Ablation::group_a());
        let ctx = DataContext::from_train_view(&d, &cfg);
        let model = GroupSa::new(cfg, d.num_users, d.num_items);
        let mut g = Graph::new();
        assert!(model.user_latent_graph(&mut g, &ctx, 0).is_none());
    }

    #[test]
    fn single_branch_variants_still_produce_latents() {
        let (d, _) = tiny_world(3);
        for ab in [Ablation::group_i(), Ablation::group_f()] {
            let cfg = GroupSaConfig::tiny().with_ablation(ab);
            let ctx = DataContext::from_train_view(&d, &cfg);
            let model = GroupSa::new(cfg, d.num_users, d.num_items);
            let mut g = Graph::new();
            let h = model.user_latent_graph(&mut g, &ctx, 0).expect("one branch remains");
            assert_eq!(g.value(h).shape(), (1, 8));
        }
    }

    #[test]
    fn w_u_zero_reduces_to_plain_ncf_scoring() {
        let (d, _) = tiny_world(3);
        let mut cfg = GroupSaConfig::tiny();
        cfg.w_u = 0.0;
        let ctx = DataContext::from_train_view(&d, &cfg);
        let model = GroupSa::new(cfg.clone(), d.num_users, d.num_items);

        // With w_u = 0 the latent branch must not affect scores; a model
        // with ablated user modeling and the same seed scores identically.
        let cfg2 = cfg.with_ablation(Ablation::group_a());
        let ctx2 = DataContext::from_train_view(&d, &cfg2);
        let model2 = GroupSa::new(cfg2, d.num_users, d.num_items);
        let items = [0usize, 1, 2];
        assert_eq!(
            model.score_user_items(&ctx, 0, &items),
            model2.score_user_items(&ctx2, 0, &items)
        );
    }

    #[test]
    fn blend_changes_scores_when_w_u_positive() {
        let (d, _) = tiny_world(3);
        let mut cfg_lo = GroupSaConfig::tiny();
        cfg_lo.w_u = 0.0;
        let mut cfg_hi = cfg_lo.clone();
        cfg_hi.w_u = 0.9;
        let ctx = DataContext::from_train_view(&d, &cfg_lo);
        let m_lo = GroupSa::new(cfg_lo, d.num_users, d.num_items);
        let m_hi = GroupSa::new(cfg_hi, d.num_users, d.num_items);
        let items = [0usize, 1, 2];
        assert_ne!(m_lo.score_user_items(&ctx, 0, &items), m_hi.score_user_items(&ctx, 0, &items));
    }

    #[test]
    fn cold_user_without_history_falls_back_to_r1() {
        let (mut d, _) = tiny_world(3);
        // Give the last user no interactions and no friends.
        let cold = d.num_users - 1;
        d.user_item.retain(|&(u, _)| u != cold);
        d.social.retain(|&(a, b)| a != cold && b != cold);
        let cfg = GroupSaConfig::tiny();
        let ctx = DataContext::from_train_view(&d, &cfg);
        let model = GroupSa::new(cfg, d.num_users, d.num_items);
        let s = model.score_user_items(&ctx, cold, &[0, 1]);
        assert!(s.iter().all(|x| x.is_finite()));
    }

    #[test]
    #[should_panic(expected = "no items to score")]
    fn empty_item_list_panics() {
        let (d, ctx) = tiny_world(3);
        let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
        let mut g = Graph::new();
        let _ = model.user_scores_graph(&mut g, &ctx, 0, &[]);
    }
}
