//! Embedding tables with row-sparse gradients.

use crate::{Init, ParamStore};
use groupsa_tensor::Forward;
use rand::Rng;

/// An `n×d` lookup table. Lookups enter the autodiff graph as gathered
/// rows whose gradients are scatter-added back into the table — the
/// mechanism that keeps per-example training cheap over the user, item
/// and group tables of the paper.
#[derive(Clone, Debug)]
pub struct Embedding {
    slot: usize,
    count: usize,
    dim: usize,
}

impl Embedding {
    /// Registers an embedding table of `count` rows of dimension `dim`
    /// (the paper initialises embeddings with Glorot, §III-E).
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        count: usize,
        dim: usize,
        init: Init,
    ) -> Self {
        let slot = store.add(format!("{name}.table"), init.build(rng, count, dim));
        Self { slot, count, dim }
    }

    /// Number of rows (vocabulary size).
    pub fn count(&self) -> usize {
        self.count
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The parameter slot of the underlying table.
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Looks up `indices`, returning an `indices.len()×dim` value.
    ///
    /// # Panics
    /// If any index is out of bounds.
    pub fn lookup<'p, F: Forward<'p>>(&self, f: &mut F, store: &'p ParamStore, indices: &[usize]) -> F::Value {
        f.param_rows(self.slot, store.value(self.slot), indices)
    }

    /// Borrows one embedding row.
    pub fn row<'s>(&self, store: &'s ParamStore, index: usize) -> &'s [f32] {
        store.value(self.slot).row(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer};
    use groupsa_tensor::rng::seeded;
    use groupsa_tensor::{Eager, Graph};

    #[test]
    fn lookup_returns_table_rows() {
        let mut rng = seeded(1);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, &mut rng, "user", 6, 3, Init::Glorot);
        assert_eq!(emb.count(), 6);
        assert_eq!(emb.dim(), 3);

        let mut g = Graph::new();
        let e = emb.lookup(&mut g, &store, &[5, 0]);
        assert_eq!(g.value(e).row(0), emb.row(&store, 5));
        assert_eq!(g.value(e).row(1), emb.row(&store, 0));
        assert_eq!(emb.lookup(&mut Eager, &store, &[2]).row(0), emb.row(&store, 2));
    }

    #[test]
    fn training_moves_only_looked_up_rows() {
        let mut rng = seeded(2);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, &mut rng, "item", 5, 2, Init::Glorot);
        let before = store.value(emb.slot()).clone();

        let mut g = Graph::new();
        let e = emb.lookup(&mut g, &store, &[3]);
        let sq = g.mul_elem(e, e);
        let loss = g.sum_all(sq);
        let grads = g.backward(loss);
        store.accumulate(&g, &grads);
        Adam::new(0.1).step(&mut store);

        let after = store.value(emb.slot());
        assert_ne!(after.row(3), before.row(3));
        for r in [0usize, 1, 2, 4] {
            assert_eq!(after.row(r), before.row(r));
        }
    }

    #[test]
    fn repeated_indices_accumulate_gradient() {
        let mut store = ParamStore::new();
        let mut rng = seeded(3);
        let emb = Embedding::new(&mut store, &mut rng, "e", 3, 1, Init::Const(1.0));

        let mut g = Graph::new();
        let e = emb.lookup(&mut g, &store, &[1, 1, 1]);
        let loss = g.sum_all(e);
        let grads = g.backward(loss);
        store.accumulate(&g, &grads);
        assert_eq!(store.get(emb.slot()).grad.row(1), &[3.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_lookup_panics() {
        let mut rng = seeded(4);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, &mut rng, "e", 2, 2, Init::Glorot);
        let mut g = Graph::new();
        let _ = emb.lookup(&mut g, &store, &[2]);
    }
}
