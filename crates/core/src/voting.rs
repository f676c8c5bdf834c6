//! The voting scheme (paper §II-C): stacked social self-attention over
//! a group's members, then item-conditioned aggregation into the group
//! representation and the group-task score (Eq. 1–10, 20).

use crate::config::VotingInput;
use crate::context::DataContext;
use crate::model::GroupSa;
use groupsa_tensor::{Eager, Forward, Graph, Matrix, NodeId};
use rand::Rng;
use std::borrow::Cow;

impl GroupSa {
    /// The `l×d` inputs of the voting network for `members`: their raw
    /// embeddings, or — with [`VotingInput::Enhanced`] — each member's
    /// enhanced latent factor `h_j` (Eq. 19) from `latent_of`, falling
    /// back to `embᵁ_j` for cold users.
    ///
    /// # Panics
    /// If `members` is empty.
    pub(crate) fn member_inputs<'p, F: Forward<'p>>(
        &'p self,
        f: &mut F,
        members: &[usize],
        mut latent_of: impl FnMut(&mut F, usize) -> Option<F::Value>,
    ) -> F::Value {
        assert!(!members.is_empty(), "group has no members");
        match self.cfg.voting_input {
            VotingInput::Embedding => self.emb_user.lookup(f, &self.store, members),
            VotingInput::Enhanced => f.stack_rows(members.len(), |f, i| {
                let u = members[i];
                match latent_of(f, u) {
                    Some(h) => h,
                    None => self.emb_user.lookup(f, &self.store, &[u]),
                }
            }),
        }
    }

    /// The voting network (Eq. 1–6): the member inputs `x` through the
    /// `N_X` social self-attention rounds under the group's social bias
    /// `mask`. With voting ablated (Group-A / Group-S) the output is
    /// the input. Dropout applies only when `training`.
    pub(crate) fn vote<'p, F: Forward<'p>>(
        &'p self,
        f: &mut F,
        rng: &mut impl Rng,
        mut x: F::Value,
        mask: Option<&Matrix>,
        training: bool,
    ) -> F::Value {
        if self.cfg.ablation.voting {
            for layer in &self.voting {
                x = layer.forward(f, &self.store, rng, &x, mask, training);
            }
        }
        x
    }

    /// The member attention `γ_{t,i}` (Eq. 8–10) for one candidate
    /// item: the vanilla attention scores each post-voting member
    /// representation against the `1×d` item embedding `ev` from
    /// `[embⱽ_h ⊕ x_{t,i} ⊕ ⊙]`. Returns the `1×l` weight row.
    ///
    /// §I's narrative assigns the voting outputs their role here: they
    /// decide *who is heard*.
    fn member_attention<'p, F: Forward<'p>>(&'p self, f: &mut F, post_reps: &F::Value, ev: &F::Value) -> F::Value {
        let rows = f.pair_features(ev, post_reps); // l×3d
        self.group_att.weights(f, &self.store, &rows)
    }

    /// The group representation for one candidate item (Eq. 7): the
    /// γ-weighted sum of the voting outputs, pushed through
    /// `σ(W·agg + b)`.
    fn group_rep<'p, F: Forward<'p>>(&'p self, f: &mut F, post_reps: &F::Value, ev: &F::Value) -> F::Value {
        let w = self.member_attention(f, post_reps, ev); // 1×l
        let agg = f.matmul(&w, post_reps); // 1×d
        if self.cfg.lean_group_head {
            // Lean head: the γ-weighted member aggregate *is* the group
            // representation, staying in the space the shared tower
            // already understands.
            agg
        } else {
            // Paper-literal Eq. (7): x_G = σ(W·agg + b).
            let lin = self.group_out.forward(f, &self.store, &agg);
            f.relu(lin)
        }
    }

    /// The group-task scores of `items` (Eq. 20) from the group's
    /// post-voting member representations: each candidate gets its own
    /// item-conditioned group representation, paired with the item
    /// embedding and scored by the group prediction tower.
    ///
    /// Returns an `items.len()×1` value.
    ///
    /// # Panics
    /// If `items` is empty or any id is out of range.
    pub(crate) fn group_scores<'p, F: Forward<'p>>(&'p self, f: &mut F, post_reps: &F::Value, items: &[usize]) -> F::Value {
        assert!(!items.is_empty(), "group scores: no items to score");
        let ev_all = self.emb_item.lookup(f, &self.store, items); // n×d
        let tower = if self.cfg.lean_group_head { &self.pred_user } else { &self.pred_group };
        f.stack_rows(items.len(), |f, idx| {
            let ev = f.slice_rows(&ev_all, idx, 1); // 1×d
            let xg = self.group_rep(f, post_reps, &ev); // 1×d
            let cat = f.pair_features(&xg, &ev); // 1×3d
            tower.forward(f, &self.store, &cat) // 1×1
        })
    }

    /// Records the group-task scores of `items` for `group` on `g`,
    /// voting network (and enhanced member inputs) included.
    pub(crate) fn group_scores_graph(
        &self,
        g: &mut Graph,
        rng: &mut impl Rng,
        ctx: &DataContext,
        group: usize,
        items: &[usize],
        training: bool,
    ) -> NodeId {
        let inputs = self.member_inputs(g, &ctx.members[group], |g, u| self.user_latent_graph(g, ctx, u));
        let post_reps = self.vote(g, rng, inputs, ctx.group_masks[group].as_ref(), training);
        self.group_scores(g, &post_reps, items)
    }

    /// Member attention weights `γ_{t,i}` (Eq. 10) for a given
    /// candidate item — the per-member influence the Table IV case
    /// study reports.
    pub fn member_weights(&self, ctx: &DataContext, group: usize, item: usize) -> Vec<f32> {
        let post_reps = Cow::Owned(self.member_reps_frozen(ctx, group, &[]));
        let f = &mut Eager;
        let ev = self.emb_item.lookup(f, &self.store, &[item]); // 1×d
        self.member_attention(f, &post_reps, &ev).into_owned().into_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Ablation, GroupSaConfig};
    use crate::test_fixtures::tiny_world;
    use groupsa_tensor::rng::seeded;

    /// Records group `t`'s member inputs and voting outputs on `g`.
    fn member_reps(model: &GroupSa, g: &mut Graph, ctx: &DataContext, t: usize) -> (NodeId, NodeId) {
        let pre = model.member_inputs(g, &ctx.members[t], |g, u| model.user_latent_graph(g, ctx, u));
        (pre, model.vote(g, &mut seeded(0), pre, ctx.group_masks[t].as_ref(), false))
    }

    #[test]
    fn member_reps_shape_matches_group_size() {
        let (d, ctx) = tiny_world(11);
        let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
        for t in 0..3 {
            let mut g = Graph::new();
            let (pre, post) = member_reps(&model, &mut g, &ctx, t);
            assert_eq!(g.value(pre).shape(), (ctx.members[t].len(), 8));
            assert_eq!(g.value(post).shape(), (ctx.members[t].len(), 8));
            assert!(g.value(post).is_finite());
        }
    }

    #[test]
    fn voting_ablation_passes_raw_embeddings() {
        // With voting ablated AND the literal-embedding input, member
        // representations are exactly the raw embeddings.
        let (d, _) = tiny_world(11);
        let mut cfg = GroupSaConfig::tiny().with_ablation(Ablation::group_s());
        cfg.voting_input = crate::config::VotingInput::Embedding;
        let ctx = DataContext::from_train_view(&d, &cfg);
        let model = GroupSa::new(cfg, d.num_users, d.num_items);
        let mut g = Graph::new();
        let (pre, post) = member_reps(&model, &mut g, &ctx, 0);
        let raw = model.emb_user.lookup(&mut Eager, model.store(), &ctx.members[0]);
        assert!(g.value(pre).approx_eq(&raw, 1e-6), "embedding input must be raw");
        assert!(g.value(post).approx_eq(&raw, 1e-6), "ablated voting must be identity");
    }

    #[test]
    fn enhanced_voting_input_differs_from_raw_embeddings() {
        let (d, _) = tiny_world(11);
        let mut cfg = GroupSaConfig::tiny().with_ablation(Ablation::group_s());
        cfg.voting_input = crate::config::VotingInput::Enhanced;
        let ctx = DataContext::from_train_view(&d, &cfg);
        let model = GroupSa::new(cfg, d.num_users, d.num_items);
        let mut g = Graph::new();
        let (pre, _) = member_reps(&model, &mut g, &ctx, 0);
        let raw = model.emb_user.lookup(&mut Eager, model.store(), &ctx.members[0]);
        assert!(!g.value(pre).approx_eq(&raw, 1e-3), "enhanced input must use user modeling");
    }

    #[test]
    fn full_model_transforms_embeddings() {
        let (d, ctx) = tiny_world(11);
        let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
        let mut g = Graph::new();
        let (pre, post) = member_reps(&model, &mut g, &ctx, 0);
        assert!(!g.value(post).approx_eq(g.value(pre), 1e-3), "voting layers must transform the input");
    }

    #[test]
    fn member_weights_form_distribution_and_depend_on_item() {
        let (d, ctx) = tiny_world(11);
        let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
        // Find a group with at least 2 members.
        let t = (0..ctx.num_groups()).find(|&t| ctx.members[t].len() >= 2).expect("fixture has multi-member groups");
        let w0 = model.member_weights(&ctx, t, 0);
        let w1 = model.member_weights(&ctx, t, 1);
        assert_eq!(w0.len(), ctx.members[t].len());
        assert!((w0.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!((w1.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        // Expertise is item-conditioned: weights differ across items.
        assert_ne!(w0, w1, "member weights must be item-conditioned");
    }

    #[test]
    fn group_scores_match_candidate_count_and_vary() {
        let (d, ctx) = tiny_world(11);
        let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
        let items: Vec<usize> = (0..6).collect();
        let s = model.score_group_items(&ctx, 0, &items);
        assert_eq!(s.len(), 6);
        let distinct: std::collections::HashSet<_> = s.iter().map(|x| x.to_bits()).collect();
        assert!(distinct.len() > 1, "scores must differ across items");
    }

    #[test]
    fn dropout_makes_training_forward_stochastic_but_inference_stable() {
        let (d, _) = tiny_world(11);
        let mut cfg = GroupSaConfig::tiny();
        cfg.dropout = 0.4;
        let ctx = DataContext::from_train_view(&d, &cfg);
        let model = GroupSa::new(cfg, d.num_users, d.num_items);
        let items = [0usize, 1];
        let mut rng = seeded(1);
        let mut g1 = Graph::new();
        let a = model.group_scores_graph(&mut g1, &mut rng, &ctx, 0, &items, true);
        let mut g2 = Graph::new();
        let b = model.group_scores_graph(&mut g2, &mut rng, &ctx, 0, &items, true);
        assert_ne!(g1.value(a), g2.value(b), "dropout must vary training forwards");
        // Inference ignores dropout → deterministic.
        assert_eq!(model.score_group_items(&ctx, 0, &items), model.score_group_items(&ctx, 0, &items));
    }

    #[test]
    fn singleton_group_is_supported() {
        let (mut d, _) = tiny_world(11);
        d.groups.push(vec![0]);
        let cfg = GroupSaConfig::tiny();
        let ctx = DataContext::from_train_view(&d, &cfg);
        let model = GroupSa::new(cfg, d.num_users, d.num_items);
        let t = ctx.num_groups() - 1;
        let s = model.score_group_items(&ctx, t, &[0, 1, 2]);
        assert!(s.iter().all(|x| x.is_finite()));
        assert_eq!(model.member_weights(&ctx, t, 0), vec![1.0]);
    }
}
