//! Layer normalisation with learned affine parameters.

use crate::ParamStore;
use groupsa_tensor::{Forward, Matrix};

/// Row-wise layer normalisation `LN(x) = γ ⊙ (x − μ)/σ + β`, applied
/// after every residual connection of the voting network
/// (paper §II-C: "LayerNorm(x + Sublayer(x))").
#[derive(Clone, Debug)]
pub struct LayerNorm {
    gamma: usize,
    beta: usize,
    dim: usize,
    eps: f32,
}

impl LayerNorm {
    /// Registers γ=1, β=0 parameters of width `dim`.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gamma = store.add(format!("{name}.gamma"), Matrix::ones(1, dim));
        let beta = store.add(format!("{name}.beta"), Matrix::zeros(1, dim));
        Self { gamma, beta, dim, eps: 1e-5 }
    }

    /// Normalised width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The forward pass for a `batch×dim` input.
    pub fn forward<'p, F: Forward<'p>>(&self, f: &mut F, store: &'p ParamStore, x: &F::Value) -> F::Value {
        let gamma = f.param_full(self.gamma, store.value(self.gamma));
        let beta = f.param_full(self.beta, store.value(self.beta));
        f.layer_norm(x, &gamma, &beta, self.eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupsa_tensor::{Eager, Graph};
    use std::borrow::Cow;

    #[test]
    fn fresh_layer_standardises_rows() {
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 4);
        assert_eq!(ln.dim(), 4);
        let x = Matrix::from_vec(2, 4, vec![1.0, 2.0, 3.0, 4.0, -10.0, 0.0, 10.0, 20.0]);
        let y = ln.forward(&mut Eager, &store, &Cow::Borrowed(&x));
        for row in y.rows_iter() {
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-4);
        }
    }

    #[test]
    fn graph_and_inference_agree() {
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 3);
        let x = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32 * 0.7 - 1.0);
        let mut g = Graph::new();
        let xs = g.leaf(x.clone());
        let y = ln.forward(&mut g, &store, &xs);
        assert!(g.value(y).approx_eq(&ln.forward(&mut Eager, &store, &Cow::Borrowed(&x)), 1e-5));
    }
}
