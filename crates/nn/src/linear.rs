//! Fully-connected affine layer.

use crate::{Init, ParamStore};
use groupsa_tensor::{Forward, Matrix};
use rand::Rng;

/// An affine map `y = x·W + b` with `W: in×out`, `b: 1×out`.
#[derive(Clone, Debug)]
pub struct Linear {
    w: usize,
    b: usize,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers weights (initialised by `init`) and a zero bias under
    /// `name.w` / `name.b`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        init: Init,
    ) -> Self {
        let w = store.add(format!("{name}.w"), init.build(rng, in_dim, out_dim));
        let b = store.add(format!("{name}.b"), Matrix::zeros(1, out_dim));
        Self { w, b, in_dim, out_dim }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The `(weight, bias)` parameter slots of this layer.
    pub fn param_slots(&self) -> (usize, usize) {
        (self.w, self.b)
    }

    /// The forward pass `x·W + b` for a `batch×in` input.
    pub fn forward<'p, F: Forward<'p>>(&self, f: &mut F, store: &'p ParamStore, x: &F::Value) -> F::Value {
        let w = f.param_full(self.w, store.value(self.w));
        let b = f.param_full(self.b, store.value(self.b));
        let y = f.matmul(x, &w);
        f.add_row_broadcast(y, &b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer};
    use groupsa_tensor::check::assert_grad_matches;
    use groupsa_tensor::rng::seeded;
    use groupsa_tensor::{Eager, Graph};
    use std::borrow::Cow;

    #[test]
    fn forward_shapes() {
        let mut rng = seeded(1);
        let mut store = ParamStore::new();
        let l = Linear::new(&mut store, &mut rng, "fc", 4, 3, Init::Glorot);
        assert_eq!((l.in_dim(), l.out_dim()), (4, 3));

        let mut g = Graph::new();
        let x = g.leaf(Matrix::ones(5, 4));
        let y = l.forward(&mut g, &store, &x);
        assert_eq!(g.value(y).shape(), (5, 3));
    }

    #[test]
    fn inference_matches_graph_forward() {
        let mut rng = seeded(2);
        let mut store = ParamStore::new();
        let l = Linear::new(&mut store, &mut rng, "fc", 3, 2, Init::Gaussian(0.5));
        let x = Matrix::from_fn(4, 3, |r, c| (r as f32 - c as f32) * 0.3);

        let mut g = Graph::new();
        let xs = g.leaf(x.clone());
        let y = l.forward(&mut g, &store, &xs);
        assert!(g.value(y).approx_eq(&l.forward(&mut Eager, &store, &Cow::Borrowed(&x)), 1e-6));
    }

    #[test]
    fn gradient_check_through_layer() {
        let mut rng = seeded(3);
        let mut store = ParamStore::new();
        let l = Linear::new(&mut store, &mut rng, "fc", 3, 2, Init::Glorot);
        let x0 = Matrix::from_fn(2, 3, |r, c| 0.2 * (r + c) as f32 - 0.1);
        assert_grad_matches(&x0, 1e-2, 2e-2, |m| {
            let mut g = Graph::new();
            let x = g.leaf(m.clone());
            let y = l.forward(&mut g, &store, &x);
            let t = g.tanh(y);
            let loss = g.sum_all(t);
            (g.value(loss).scalar(), g.backward(loss).get(x).unwrap().clone())
        });
    }

    #[test]
    fn layer_learns_identity_map() {
        // Fit y = x on scalars: W→1, b→0.
        let mut rng = seeded(4);
        let mut store = ParamStore::new();
        let l = Linear::new(&mut store, &mut rng, "fc", 1, 1, Init::Gaussian(0.1));
        let mut opt = Adam::new(0.05);
        for step in 0..400 {
            let x = ((step % 10) as f32 - 5.0) / 5.0;
            let mut g = Graph::new();
            let xs = g.leaf(Matrix::full(1, 1, x));
            let y = l.forward(&mut g, &store, &xs);
            let t = g.leaf(Matrix::full(1, 1, x));
            let d = g.sub(y, t);
            let sq = g.mul_elem(d, d);
            let loss = g.sum_all(sq);
            let grads = g.backward(loss);
            store.accumulate(&g, &grads);
            opt.step(&mut store);
        }
        let y = l.forward(&mut Eager, &store, &Cow::Owned(Matrix::full(1, 1, 0.7)));
        assert!((y.scalar() - 0.7).abs() < 0.05, "got {}", y.scalar());
    }
}
