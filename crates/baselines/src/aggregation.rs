//! The static score-aggregation baselines of §III-D (Group+avg,
//! Group+lm, Group+ms).
//!
//! Exactly as the paper evaluates them: "we first run GroupSA to
//! predict each member's personal preferences, and then apply the
//! following static aggregation strategies" — so each baseline is a
//! *trained* [`groupsa_core::GroupSa`]'s fast-mode scorer
//! ([`groupsa_core::GroupSa::fast_group_scorer`]), re-combining its
//! per-member user-task scores with a predefined rule instead of the
//! learned voting scheme.

use groupsa_core::ScoreAggregation;

/// All three strategies, in the paper's table order.
pub const ALL_STRATEGIES: [ScoreAggregation; 3] = [
    ScoreAggregation::Average,
    ScoreAggregation::LeastMisery,
    ScoreAggregation::MaxSatisfaction,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategies_are_in_table_order() {
        assert_eq!(ALL_STRATEGIES.map(ScoreAggregation::label), ["Group+avg", "Group+lm", "Group+ms"]);
    }
}
