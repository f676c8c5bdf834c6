//! Pairwise ranking losses (paper Eq. 21 and 24).
//!
//! Both the group-item and user-item tasks are trained with the BPR
//! pairwise objective `−ln σ(ŷ_pos − ŷ_neg)` over one observed positive
//! and `N` sampled negatives. Implemented via the stable identity
//! `−ln σ(x) = softplus(−x)`. The `λ‖Θ‖²` term is applied as optimizer
//! weight decay (see [`crate::optim`]).

use groupsa_tensor::{Forward, Graph, NodeId};

/// BPR loss pairing each row of `pos` with the same row of `neg`
/// (`n×1` each): `mean softplus(neg − pos)`.
pub fn bpr_pairwise(g: &mut Graph, pos: NodeId, neg: NodeId) -> NodeId {
    let diff = g.sub(neg, pos);
    let sp = g.softplus(diff);
    g.mean_all(sp)
}

/// BPR loss for one positive against `N` negatives: `scores` is
/// `(1+N)×1` with the positive in row 0 (the paper's per-example
/// sampling scheme, §II-E "Training Method").
///
/// # Panics
/// If `scores` has fewer than 2 rows.
pub fn bpr_one_vs_rest(g: &mut Graph, scores: NodeId) -> NodeId {
    let rows = g.value(scores).rows();
    assert!(rows >= 2, "bpr_one_vs_rest: need 1 positive + ≥1 negative, got {rows} rows");
    let pos = g.slice_rows(scores, 0, 1);
    let pos = g.repeat_rows(pos, rows - 1);
    let neg = g.slice_rows(scores, 1, rows - 1);
    bpr_pairwise(g, pos, neg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupsa_tensor::check::assert_grad_matches;
    use groupsa_tensor::Matrix;

    #[test]
    fn loss_is_ln2_when_scores_equal() {
        let mut g = Graph::new();
        let s = g.leaf(Matrix::from_vec(3, 1, vec![0.5, 0.5, 0.5]));
        let l = bpr_one_vs_rest(&mut g, s);
        assert!((g.value(l).scalar() - std::f32::consts::LN_2).abs() < 1e-5);
    }

    #[test]
    fn loss_decreases_as_margin_grows() {
        let margin_loss = |m: f32| {
            let mut g = Graph::new();
            let s = g.leaf(Matrix::from_vec(2, 1, vec![m, 0.0]));
            let l = bpr_one_vs_rest(&mut g, s);
            g.value(l).scalar()
        };
        assert!(margin_loss(2.0) < margin_loss(1.0));
        assert!(margin_loss(1.0) < margin_loss(0.0));
        assert!(margin_loss(0.0) < margin_loss(-1.0));
        // Saturation: a huge margin drives the loss to ~0.
        assert!(margin_loss(30.0) < 1e-6);
    }

    #[test]
    fn loss_is_always_positive() {
        for m in [-5.0f32, -1.0, 0.0, 1.0, 5.0] {
            let mut g = Graph::new();
            let s = g.leaf(Matrix::from_vec(2, 1, vec![m, 0.0]));
            let l = bpr_one_vs_rest(&mut g, s);
            assert!(g.value(l).scalar() > 0.0);
        }
    }

    #[test]
    fn gradient_pushes_positive_up_and_negatives_down() {
        let mut g = Graph::new();
        let s = g.leaf(Matrix::from_vec(3, 1, vec![0.0, 0.0, 0.0]));
        let l = bpr_one_vs_rest(&mut g, s);
        let grads = g.backward(l);
        let ds = grads.get(s).unwrap();
        assert!(ds[(0, 0)] < 0.0, "positive score gradient must be negative (ascent direction up)");
        assert!(ds[(1, 0)] > 0.0);
        assert!(ds[(2, 0)] > 0.0);
    }

    #[test]
    fn bpr_gradient_check() {
        let s0 = Matrix::from_vec(4, 1, vec![0.7, -0.2, 0.1, 0.4]);
        assert_grad_matches(&s0, 1e-3, 1e-2, |m| {
            let mut g = Graph::new();
            let s = g.leaf(m.clone());
            let l = bpr_one_vs_rest(&mut g, s);
            (g.value(l).scalar(), g.backward(l).get(s).unwrap().clone())
        });
    }

    #[test]
    fn pairwise_matches_manual_formula() {
        let mut g = Graph::new();
        let pos = g.leaf(Matrix::from_vec(2, 1, vec![1.0, 2.0]));
        let neg = g.leaf(Matrix::from_vec(2, 1, vec![0.5, 3.0]));
        let l = bpr_pairwise(&mut g, pos, neg);
        let expected = (groupsa_tensor::ops::softplus(-0.5) + groupsa_tensor::ops::softplus(1.0)) / 2.0;
        assert!((g.value(l).scalar() - expected).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "need 1 positive")]
    fn one_vs_rest_requires_negatives() {
        let mut g = Graph::new();
        let s = g.leaf(Matrix::from_vec(1, 1, vec![0.5]));
        let _ = bpr_one_vs_rest(&mut g, s);
    }
}
