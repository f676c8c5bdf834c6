//! The eager serving entry points.
//!
//! Every GroupSA equation is written once, generic over
//! [`groupsa_tensor::Forward`], in [`crate::user_model`] and
//! [`crate::voting`]. Training records those definitions on a
//! [`groupsa_tensor::Graph`]; evaluation and the entry points here run
//! the same definitions on the tape-free [`Eager`] evaluator, which
//! borrows the parameters instead of copying them and records nothing.
//! Both evaluators compute every value through the same `Matrix`
//! routines (or, for the fused pair-feature build, the same
//! element-wise copies and products), so these scores are
//! bit-identical to the training tape's (up to IEEE sign-of-zero,
//! which `f32 ==` treats as equal). The tests below and the goldens in
//! `groupsa-serve` pin this down.
//!
//! There is one user tower: a served user request, each member of a
//! fast-mode group (§II-F) and every evaluation scorer run
//! [`GroupSa::user_scores`] on [`Eager`].
//!
//! The split into *latent* / *member-reps* producers and score
//! consumers is what makes serving cheap: a `FrozenModel` (in
//! `groupsa-serve`) computes each user's latent factor and each
//! group's post-voting member representations **once** at load, and
//! per-request work reduces to embedding lookups plus the prediction
//! tower — the paper's §II-F observation that voting-network inference
//! is the latency bottleneck, applied to the full path.

use crate::context::DataContext;
use crate::model::GroupSa;
use groupsa_tensor::rng::seeded;
use groupsa_tensor::{Eager, Matrix};
use std::borrow::Cow;

impl GroupSa {
    /// The enhanced user latent factor `h_j` (Eq. 19), or `None` when
    /// user modeling is ablated or the user has neither history nor
    /// friends.
    ///
    /// This is the expensive, *precomputable* half of user scoring —
    /// it depends only on the trained parameters and the context, so a
    /// serving layer caches one `1×d` row per user.
    pub fn user_latent_frozen(&self, ctx: &DataContext, user: usize) -> Option<Matrix> {
        self.user_latent_from_lists(user, &ctx.top_items[user], &ctx.top_friends[user])
    }

    /// [`GroupSa::user_latent_frozen`] with the Top-H lists supplied
    /// explicitly instead of read from a [`DataContext`]. This is the
    /// producer the snapshot builder streams through: a chunked
    /// generator can hand over each user's lists without ever
    /// materializing a full context, and the result is bit-identical
    /// to the context-driven call.
    pub fn user_latent_from_lists(
        &self,
        user: usize,
        top_items: &[usize],
        top_friends: &[usize],
    ) -> Option<Matrix> {
        self.user_latent(&mut Eager, user, top_items, top_friends).map(Cow::into_owned)
    }

    /// The user-task scores (Eq. 22–23), taking the user's latent
    /// factor as an input instead of recomputing it — pass the cached
    /// result of [`GroupSa::user_latent_frozen`] (`None` reproduces the
    /// `r₁`-only fallback).
    ///
    /// # Panics
    /// If `items` is empty or any id is out of range.
    pub fn score_user_items_frozen(&self, user: usize, items: &[usize], latent: Option<&Matrix>) -> Vec<f32> {
        self.user_scores(&mut Eager, user, items, |_| latent.map(Cow::Borrowed)).into_owned().into_vec()
    }

    /// [`GroupSa::score_user_items_frozen`] for each of `users` over
    /// the same `items`: `latents[j]` is user `users[j]`'s cached latent
    /// factor. Fast group mode (§II-F) scores its members with it.
    ///
    /// # Panics
    /// If the slices differ in length, or for any user as
    /// [`GroupSa::score_user_items_frozen`] does.
    pub fn score_users_items_frozen(
        &self,
        users: &[usize],
        latents: &[Option<&Matrix>],
        items: &[usize],
    ) -> Vec<Vec<f32>> {
        assert_eq!(users.len(), latents.len(), "score_users_items_frozen: users/latents length mismatch");
        users.iter().zip(latents).map(|(&u, &h)| self.score_user_items_frozen(u, items, h)).collect()
    }

    /// The post-voting `l×d` member representations (Eq. 1–6) of
    /// `group`.
    ///
    /// `latents` is an optional per-user cache indexed by user id (as
    /// produced by [`GroupSa::user_latent_frozen`]); pass `&[]` to
    /// compute enhanced inputs on the fly. It is only consulted for
    /// [`crate::config::VotingInput::Enhanced`].
    ///
    /// # Panics
    /// If the group is out of range or has no members.
    pub fn member_reps_frozen(&self, ctx: &DataContext, group: usize, latents: &[Option<Matrix>]) -> Matrix {
        self.member_reps_from_parts(&ctx.members[group], ctx.group_masks[group].as_ref(), |u| {
            match latents.get(u) {
                Some(cached) => cached.clone(),
                None => self.user_latent_frozen(ctx, u),
            }
        })
    }

    /// [`GroupSa::member_reps_frozen`] with the group's parts supplied
    /// explicitly: the member list, the optional social bias mask, and
    /// a latent source (only consulted for
    /// [`crate::config::VotingInput::Enhanced`]). Lets the snapshot
    /// builder stream groups without a full [`DataContext`];
    /// bit-identical to the context-driven call.
    ///
    /// # Panics
    /// If `members` is empty.
    pub fn member_reps_from_parts(
        &self,
        members: &[usize],
        mask: Option<&Matrix>,
        mut latent_of: impl FnMut(usize) -> Option<Matrix>,
    ) -> Matrix {
        let f = &mut Eager;
        let inputs = self.member_inputs(f, members, |_, u| latent_of(u).map(Cow::Owned));
        // Dropout is off outside training, so the RNG is never drawn.
        self.vote(f, &mut seeded(0), inputs, mask, false).into_owned()
    }

    /// The group-task scores (Eq. 7–10, 20), taking the precomputed
    /// post-voting member representations — pass the cached result of
    /// [`GroupSa::member_reps_frozen`]. Per item this is one
    /// item-conditioned γ attention over `l` members plus one tower
    /// evaluation.
    ///
    /// # Panics
    /// If `items` is empty or any id is out of range.
    pub fn score_group_items_frozen(&self, post_reps: &Matrix, items: &[usize]) -> Vec<f32> {
        self.group_scores(&mut Eager, &Cow::Borrowed(post_reps), items).into_owned().into_vec()
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{Ablation, GroupSaConfig, VotingInput};
    use crate::context::DataContext;
    use crate::fast::ScoreAggregation;
    use crate::model::GroupSa;
    use crate::test_fixtures::tiny_world;
    use groupsa_eval::{evaluate, EvalTask, Scorer};
    use groupsa_graph::Bipartite;
    use groupsa_tensor::rng::seeded;
    use groupsa_tensor::Graph;

    fn frozen_user_scores(model: &GroupSa, ctx: &DataContext, user: usize, items: &[usize]) -> Vec<f32> {
        let h = model.user_latent_frozen(ctx, user);
        model.score_user_items_frozen(user, items, h.as_ref())
    }

    fn frozen_group_scores(model: &GroupSa, ctx: &DataContext, group: usize, items: &[usize]) -> Vec<f32> {
        let reps = model.member_reps_frozen(ctx, group, &[]);
        model.score_group_items_frozen(&reps, items)
    }

    /// The user-task definition recorded on a tape, as training runs it.
    fn graph_user_scores(model: &GroupSa, ctx: &DataContext, user: usize, items: &[usize]) -> Vec<f32> {
        let mut g = Graph::new();
        let s = model.user_scores_graph(&mut g, ctx, user, items);
        g.value(s).as_slice().to_vec()
    }

    /// The group-task definition recorded on a tape, dropout off.
    fn graph_group_scores(model: &GroupSa, ctx: &DataContext, group: usize, items: &[usize]) -> Vec<f32> {
        let mut g = Graph::new();
        let s = model.group_scores_graph(&mut g, &mut seeded(0), ctx, group, items, false);
        g.value(s).as_slice().to_vec()
    }

    fn bits(scores: &[f32]) -> Vec<u32> {
        scores.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn frozen_user_scores_match_graph_path_exactly() {
        let (d, ctx) = tiny_world(61);
        let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
        let items: Vec<usize> = (0..10).collect();
        for user in [0, 1, d.num_users - 1] {
            assert_eq!(
                graph_user_scores(&model, &ctx, user, &items),
                frozen_user_scores(&model, &ctx, user, &items),
                "user {user}"
            );
        }
    }

    #[test]
    fn frozen_group_scores_match_graph_path_exactly() {
        let (d, ctx) = tiny_world(61);
        let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
        let items: Vec<usize> = (0..10).collect();
        for group in [0, 1, ctx.num_groups() - 1] {
            assert_eq!(
                graph_group_scores(&model, &ctx, group, &items),
                frozen_group_scores(&model, &ctx, group, &items),
                "group {group}"
            );
        }
    }

    #[test]
    fn frozen_paths_match_under_every_ablation() {
        let (d, _) = tiny_world(62);
        for ab in [
            Ablation::full(),
            Ablation::group_a(),
            Ablation::group_s(),
            Ablation::group_i(),
            Ablation::group_f(),
            Ablation::group_g(),
        ] {
            let cfg = GroupSaConfig::tiny().with_ablation(ab);
            let ctx = DataContext::from_train_view(&d, &cfg);
            let model = GroupSa::new(cfg, d.num_users, d.num_items);
            let items = [0usize, 1, 2, 3];
            assert_eq!(
                graph_user_scores(&model, &ctx, 0, &items),
                frozen_user_scores(&model, &ctx, 0, &items),
                "{ab:?}"
            );
            assert_eq!(
                graph_group_scores(&model, &ctx, 0, &items),
                frozen_group_scores(&model, &ctx, 0, &items),
                "{ab:?}"
            );
        }
    }

    #[test]
    fn frozen_paths_match_with_enhanced_voting_input_and_paper_head() {
        let (d, _) = tiny_world(63);
        let mut cfg = GroupSaConfig::tiny();
        cfg.voting_input = VotingInput::Enhanced;
        cfg.lean_group_head = false;
        let ctx = DataContext::from_train_view(&d, &cfg);
        let model = GroupSa::new(cfg, d.num_users, d.num_items);
        let items = [0usize, 1, 2, 3, 4];
        assert_eq!(graph_group_scores(&model, &ctx, 0, &items), frozen_group_scores(&model, &ctx, 0, &items));

        // The per-user latent cache is equivalent to on-the-fly latents.
        let latents: Vec<Option<groupsa_tensor::Matrix>> =
            (0..d.num_users).map(|u| model.user_latent_frozen(&ctx, u)).collect();
        let cached = model.member_reps_frozen(&ctx, 0, &latents);
        let fresh = model.member_reps_frozen(&ctx, 0, &[]);
        assert_eq!(cached.as_slice(), fresh.as_slice());
    }

    #[test]
    fn frozen_user_scores_match_with_w_u_zero() {
        let (d, _) = tiny_world(64);
        let mut cfg = GroupSaConfig::tiny();
        cfg.w_u = 0.0;
        let ctx = DataContext::from_train_view(&d, &cfg);
        let model = GroupSa::new(cfg, d.num_users, d.num_items);
        let items = [0usize, 1, 2];
        assert_eq!(graph_user_scores(&model, &ctx, 0, &items), frozen_user_scores(&model, &ctx, 0, &items));
    }

    /// Evaluates `eager` and `tape` on the same sampled candidates and
    /// asserts equal outcomes, then compares raw score bits.
    fn assert_same_evaluation(
        eager: &dyn Scorer,
        tape: &dyn Scorer,
        pairs: &[(usize, usize)],
        full: &Bipartite,
        what: &str,
    ) {
        let task = EvalTask { test_pairs: pairs, full_interactions: full, num_candidates: 20, ks: vec![5], seed: 3 };
        assert_eq!(evaluate(eager, &task).outcomes, evaluate(tape, &task).outcomes, "{what}");
        for &(e, i) in pairs.iter().take(5) {
            let items = [i, 0, 1, 2, 3];
            assert_eq!(bits(&eager.score(e, &items)), bits(&tape.score(e, &items)), "{what} entity {e}");
        }
    }

    /// Validation HR drives the plateau learning-rate schedule, so the
    /// eager evaluation scorers must rank exactly as the tape would:
    /// every eval outcome and every score bit equal, on the user task,
    /// the voting path and all three fast-mode aggregations.
    #[test]
    fn eager_scorers_evaluate_exactly_as_the_tape() {
        let (d, _) = tiny_world(66);
        let mut cfg = GroupSaConfig::tiny();
        cfg.voting_input = VotingInput::Enhanced;
        let ctx = DataContext::from_train_view(&d, &cfg);
        let model = GroupSa::new(cfg, d.num_users, d.num_items);
        let (up, ui) = (&ctx.train_user_item, &ctx.user_item_graph);
        let (gp, gi) = (&ctx.train_group_item, &ctx.group_item_graph);
        let user_tape = |u: usize, items: &[usize]| graph_user_scores(&model, &ctx, u, items);
        assert_same_evaluation(&model.user_scorer(&ctx), &user_tape, up, ui, "user");
        let group_tape = |t: usize, items: &[usize]| graph_group_scores(&model, &ctx, t, items);
        assert_same_evaluation(&model.group_scorer(&ctx), &group_tape, gp, gi, "voting");
        for agg in [ScoreAggregation::Average, ScoreAggregation::LeastMisery, ScoreAggregation::MaxSatisfaction] {
            let fast_tape = |t: usize, items: &[usize]| {
                let rows: Vec<Vec<f32>> =
                    ctx.members[t].iter().map(|&u| graph_user_scores(&model, &ctx, u, items)).collect();
                (0..items.len()).map(|i| agg.combine(rows.iter().map(|r| r[i]))).collect::<Vec<f32>>()
            };
            let fast = model.fast_group_scorer(&ctx, agg);
            assert_same_evaluation(&fast, &fast_tape, gp, gi, agg.label());
        }
    }

    #[test]
    fn embedding_extraction_exposes_tables() {
        let (d, _) = tiny_world(65);
        let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
        assert_eq!(model.num_users(), d.num_users);
        assert_eq!(model.num_items(), d.num_items);
        assert_eq!(model.user_embedding_table().shape(), (d.num_users, 8));
        assert_eq!(model.item_embedding_table().shape(), (d.num_items, 8));
    }
}
