//! Position-wise feed-forward network (paper Eq. 6).

use crate::{Init, Linear, ParamStore};
use groupsa_tensor::Forward;
use rand::Rng;

/// `FFN(z) = ReLU(z·W₁ + b₁)·W₂ + b₂` — the second sub-layer of every
/// voting round in the stacked self-attention network (paper Eq. 6).
#[derive(Clone, Debug)]
pub struct FeedForward {
    l1: Linear,
    l2: Linear,
}

impl FeedForward {
    /// Builds a `d_model → d_ff → d_model` feed-forward block.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        d_model: usize,
        d_ff: usize,
    ) -> Self {
        Self {
            l1: Linear::new(store, rng, &format!("{name}.ffn1"), d_model, d_ff, Init::PAPER_HIDDEN),
            l2: Linear::new(store, rng, &format!("{name}.ffn2"), d_ff, d_model, Init::PAPER_HIDDEN),
        }
    }

    /// Model width (input and output dimensionality).
    pub fn d_model(&self) -> usize {
        self.l1.in_dim()
    }

    /// The forward pass for a `batch×d_model` input.
    pub fn forward<'p, F: Forward<'p>>(&self, f: &mut F, store: &'p ParamStore, x: &F::Value) -> F::Value {
        let h = self.l1.forward(f, store, x);
        let h = f.relu(h);
        self.l2.forward(f, store, &h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupsa_tensor::check::assert_grad_matches;
    use groupsa_tensor::rng::seeded;
    use groupsa_tensor::{Eager, Graph, Matrix};
    use std::borrow::Cow;

    #[test]
    fn preserves_width() {
        let mut rng = seeded(1);
        let mut store = ParamStore::new();
        let ffn = FeedForward::new(&mut store, &mut rng, "f", 8, 16);
        assert_eq!(ffn.d_model(), 8);
        let mut g = Graph::new();
        let x = g.leaf(Matrix::ones(3, 8));
        let y = ffn.forward(&mut g, &store, &x);
        assert_eq!(g.value(y).shape(), (3, 8));
    }

    #[test]
    fn graph_and_inference_agree() {
        let mut rng = seeded(2);
        let mut store = ParamStore::new();
        let ffn = FeedForward::new(&mut store, &mut rng, "f", 4, 6);
        let x = Matrix::from_fn(2, 4, |r, c| 0.3 * (r + c) as f32 - 0.4);
        let mut g = Graph::new();
        let xs = g.leaf(x.clone());
        let y = ffn.forward(&mut g, &store, &xs);
        assert!(g.value(y).approx_eq(&ffn.forward(&mut Eager, &store, &Cow::Borrowed(&x)), 1e-5));
    }

    #[test]
    fn gradient_check() {
        let mut rng = seeded(3);
        let mut store = ParamStore::new();
        let ffn = FeedForward::new(&mut store, &mut rng, "f", 3, 5);
        let x0 = Matrix::from_fn(2, 3, |r, c| 0.4 * (r as f32) - 0.25 * (c as f32) + 0.2);
        assert_grad_matches(&x0, 1e-2, 3e-2, |m| {
            let mut g = Graph::new();
            let x = g.leaf(m.clone());
            let y = ffn.forward(&mut g, &store, &x);
            let loss = g.mean_all(y);
            (g.value(loss).scalar(), g.backward(loss).get(x).unwrap().clone())
        });
    }
}
