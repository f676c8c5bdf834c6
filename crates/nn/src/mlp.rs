//! Multi-layer perceptron towers (paper Eq. 19, 20, 22).

use crate::{Init, Linear, ParamStore};
use groupsa_tensor::Forward;
use rand::Rng;

/// A stack of [`Linear`] layers with ReLU between them.
///
/// Two shapes appear in the paper:
/// * the *fusion* MLP of Eq. (19), whose every layer (including the last)
///   is activated — build with `activate_last = true`;
/// * the *prediction* towers of Eq. (20)/(22), whose last layer is a
///   plain linear scorer (`ŷ = wᵀ·c`) — build with `activate_last = false`.
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
    activate_last: bool,
}

impl Mlp {
    /// Builds an MLP mapping `dims[0] → dims[1] → … → dims.last()`.
    ///
    /// # Panics
    /// If `dims` has fewer than two entries.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        dims: &[usize],
        activate_last: bool,
    ) -> Self {
        assert!(dims.len() >= 2, "Mlp::new: need at least input and output dims, got {dims:?}");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, rng, &format!("{name}.{i}"), w[0], w[1], Init::PAPER_HIDDEN))
            .collect();
        Self { layers, activate_last }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Number of affine layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// All parameter slots (weights and biases, layer by layer) — used
    /// for warm-starting one tower from another of identical shape.
    pub fn param_slots(&self) -> Vec<usize> {
        self.layers
            .iter()
            .flat_map(|l| {
                let (w, b) = l.param_slots();
                [w, b]
            })
            .collect()
    }

    /// The forward pass for a `batch×in_dim` input: every layer but
    /// the last is ReLU-activated, the last one too when
    /// `activate_last`.
    pub fn forward<'p, F: Forward<'p>>(&self, f: &mut F, store: &'p ParamStore, x: &F::Value) -> F::Value {
        // lint: allow(panic-reach) — structural invariant: Mlp::new rejects empty layer lists.
        let (first, rest) = self.layers.split_first().expect("Mlp has at least one layer");
        let mut h = first.forward(f, store, x);
        for layer in rest {
            h = f.relu(h);
            h = layer.forward(f, store, &h);
        }
        if self.activate_last {
            h = f.relu(h);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupsa_tensor::rng::seeded;
    use groupsa_tensor::{Eager, Graph, Matrix};
    use std::borrow::Cow;

    #[test]
    fn dims_and_depth() {
        let mut rng = seeded(1);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, &mut rng, "m", &[8, 16, 4, 1], false);
        assert_eq!(mlp.in_dim(), 8);
        assert_eq!(mlp.out_dim(), 1);
        assert_eq!(mlp.depth(), 3);
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn single_dim_panics() {
        let mut rng = seeded(1);
        let mut store = ParamStore::new();
        let _ = Mlp::new(&mut store, &mut rng, "m", &[8], false);
    }

    #[test]
    fn unactivated_head_can_go_negative() {
        let mut rng = seeded(2);
        let mut store = ParamStore::new();
        let scorer = Mlp::new(&mut store, &mut rng, "m", &[4, 8, 1], false);
        // With many random inputs, a linear head must produce some
        // negative scores; a ReLU head could not.
        let x = Matrix::from_fn(64, 4, |r, c| ((r * 7 + c * 3) % 13) as f32 - 6.0);
        let y = scorer.forward(&mut Eager, &store, &Cow::Borrowed(&x));
        assert!(y.min() < 0.0, "linear scoring head should produce negatives");
    }

    #[test]
    fn activated_last_layer_is_nonnegative() {
        let mut rng = seeded(3);
        let mut store = ParamStore::new();
        let fusion = Mlp::new(&mut store, &mut rng, "m", &[4, 8, 4], true);
        let x = Matrix::from_fn(16, 4, |r, c| (r as f32 - 8.0) * 0.5 + c as f32 * 0.1);
        let y = fusion.forward(&mut Eager, &store, &Cow::Borrowed(&x));
        assert!(y.min() >= 0.0);
    }

    #[test]
    fn graph_and_inference_agree() {
        let mut rng = seeded(4);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, &mut rng, "m", &[3, 5, 2], false);
        let x = Matrix::from_fn(4, 3, |r, c| 0.2 * (r + 2 * c) as f32 - 0.5);
        let mut g = Graph::new();
        let xs = g.leaf(x.clone());
        let y = mlp.forward(&mut g, &store, &xs);
        assert!(g.value(y).approx_eq(&mlp.forward(&mut Eager, &store, &Cow::Borrowed(&x)), 1e-5));
    }
}
