//! Fast group recommendation (paper §II-F) and the static score
//! aggregation strategies used both by §II-F and by the Group+avg /
//! Group+lm / Group+ms baselines of §III-D.
//!
//! Instead of running the multi-layer voting network at inference time,
//! the fast mode scores every member *individually* via the user tower
//! (Eq. 23) — whose embeddings already carry group-mates' interests
//! through training — and combines the member scores with a predefined
//! strategy.

use crate::context::DataContext;
use crate::model::GroupSa;
use groupsa_eval::Scorer;
use groupsa_json::impl_json_enum;
use groupsa_tensor::Matrix;

/// A predefined per-item combination of member scores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScoreAggregation {
    /// Mean of member scores — every member contributes equally
    /// (the paper's §II-F illustration and the Group+avg baseline).
    Average,
    /// Minimum of member scores — "the least satisfied member
    /// determines the decision" (Group+lm).
    LeastMisery,
    /// Maximum of member scores — maximise the happiest member
    /// (Group+ms, "maximum satisfaction/pleasure").
    MaxSatisfaction,
}

impl_json_enum!(ScoreAggregation { Average, LeastMisery, MaxSatisfaction });

impl ScoreAggregation {
    /// Combines one item's member scores, in member order. Taking an
    /// iterator lets callers read a score column straight out of
    /// per-member rows, with no buffer per item.
    ///
    /// # Panics
    /// If `scores` is empty.
    pub fn combine(self, scores: impl ExactSizeIterator<Item = f32>) -> f32 {
        let n = scores.len();
        assert!(n > 0, "ScoreAggregation::combine: no member scores");
        match self {
            ScoreAggregation::Average => scores.sum::<f32>() / n as f32,
            ScoreAggregation::LeastMisery => scores.fold(f32::INFINITY, f32::min),
            ScoreAggregation::MaxSatisfaction => scores.fold(f32::NEG_INFINITY, f32::max),
        }
    }

    /// Display name matching the paper's method names.
    pub fn label(self) -> &'static str {
        match self {
            ScoreAggregation::Average => "Group+avg",
            ScoreAggregation::LeastMisery => "Group+lm",
            ScoreAggregation::MaxSatisfaction => "Group+ms",
        }
    }
}

impl GroupSa {
    /// Fast group scores (§II-F): per-member user-task scores combined
    /// by `agg`, skipping the voting network entirely — the composition
    /// a `FrozenModel`'s fast mode runs over its cached latents.
    pub fn fast_group_scores(
        &self,
        ctx: &DataContext,
        group: usize,
        items: &[usize],
        agg: ScoreAggregation,
    ) -> Vec<f32> {
        let members = &ctx.members[group];
        assert!(!members.is_empty(), "group {group} has no members");
        let latents: Vec<Option<Matrix>> = members.iter().map(|&u| self.user_latent_frozen(ctx, u)).collect();
        let latent_refs: Vec<Option<&Matrix>> = latents.iter().map(Option::as_ref).collect();
        let per_member = self.score_users_items_frozen(members, &latent_refs, items);
        (0..items.len()).map(|idx| agg.combine(per_member.iter().map(|row| row[idx]))).collect()
    }

    /// A [`Scorer`] over groups using the fast mode.
    pub fn fast_group_scorer<'a>(&'a self, ctx: &'a DataContext, agg: ScoreAggregation) -> impl Scorer + 'a {
        move |group: usize, items: &[usize]| self.fast_group_scores(ctx, group, items, agg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GroupSaConfig;
    use crate::test_fixtures::tiny_world;

    #[test]
    fn combine_strategies() {
        let s = [0.2f32, 0.8, 0.5];
        assert!((ScoreAggregation::Average.combine(s.into_iter()) - 0.5).abs() < 1e-6);
        assert_eq!(ScoreAggregation::LeastMisery.combine(s.into_iter()), 0.2);
        assert_eq!(ScoreAggregation::MaxSatisfaction.combine(s.into_iter()), 0.8);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(ScoreAggregation::Average.label(), "Group+avg");
        assert_eq!(ScoreAggregation::LeastMisery.label(), "Group+lm");
        assert_eq!(ScoreAggregation::MaxSatisfaction.label(), "Group+ms");
    }

    #[test]
    #[should_panic(expected = "no member scores")]
    fn combine_empty_panics() {
        let _ = ScoreAggregation::Average.combine(std::iter::empty());
    }

    #[test]
    fn strategies_order_correctly_on_model_scores() {
        let (d, ctx) = tiny_world(13);
        let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
        let t = (0..ctx.num_groups()).find(|&t| ctx.members[t].len() >= 2).unwrap();
        let items: Vec<usize> = (0..5).collect();
        let avg = model.fast_group_scores(&ctx, t, &items, ScoreAggregation::Average);
        let lm = model.fast_group_scores(&ctx, t, &items, ScoreAggregation::LeastMisery);
        let ms = model.fast_group_scores(&ctx, t, &items, ScoreAggregation::MaxSatisfaction);
        for i in 0..items.len() {
            assert!(lm[i] <= avg[i] + 1e-6, "min ≤ mean");
            assert!(avg[i] <= ms[i] + 1e-6, "mean ≤ max");
        }
    }

    #[test]
    fn singleton_group_strategies_coincide() {
        let (mut d, _) = tiny_world(13);
        d.groups.push(vec![2]);
        let cfg = GroupSaConfig::tiny();
        let ctx = DataContext::from_train_view(&d, &cfg);
        let model = GroupSa::new(cfg, d.num_users, d.num_items);
        let t = ctx.num_groups() - 1;
        let items = [0usize, 1, 2];
        let avg = model.fast_group_scores(&ctx, t, &items, ScoreAggregation::Average);
        let lm = model.fast_group_scores(&ctx, t, &items, ScoreAggregation::LeastMisery);
        let ms = model.fast_group_scores(&ctx, t, &items, ScoreAggregation::MaxSatisfaction);
        assert_eq!(avg, lm);
        assert_eq!(avg, ms);
        // And they equal the member's own user scores.
        assert_eq!(avg, model.score_user_items(&ctx, 2, &items));
    }

    #[test]
    fn fast_mode_differs_from_full_voting_path() {
        let (d, ctx) = tiny_world(13);
        let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
        let items: Vec<usize> = (0..4).collect();
        let fast = model.fast_group_scores(&ctx, 0, &items, ScoreAggregation::Average);
        let full = model.score_group_items(&ctx, 0, &items);
        assert_ne!(fast, full, "fast mode is an approximation, not the same computation");
    }
}
