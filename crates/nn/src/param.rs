//! Parameter storage shared by all models in the workspace.
//!
//! Parameters live outside the autodiff tape. Each training step builds a
//! fresh [`Graph`], pulls the needed parameters (or embedding rows) onto
//! it, and after `backward` calls [`ParamStore::accumulate`] to move the
//! gradients back — scatter-adding row gradients for embedding lookups so
//! that per-example training over large tables stays cheap.

use groupsa_tensor::{Binding, Grads, Graph, Matrix};
use std::collections::BTreeSet;

/// A single named parameter tensor with its gradient accumulator,
/// Adam moments, and row-dirtiness tracking for sparse updates.
pub struct Parameter {
    name: String,
    /// Current value.
    pub value: Matrix,
    /// Accumulated gradient (zeroed by [`ParamStore::zero_grads`] or after
    /// an optimizer step).
    pub grad: Matrix,
    /// First-moment (Adam) state.
    pub(crate) m: Matrix,
    /// Second-moment (Adam) state.
    pub(crate) v: Matrix,
    /// Adam step counter (shared by all rows for bias correction).
    pub(crate) step: u64,
    /// Rows whose gradient is non-trivial since the last step; `None`
    /// means "all rows" (a dense/full-parameter gradient was accumulated).
    pub(crate) dirty: Dirty,
}

/// Which rows of a parameter carry gradient.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Dirty {
    /// Nothing accumulated since the last step.
    Clean,
    /// Only these rows.
    Rows(BTreeSet<usize>),
    /// The whole matrix.
    Full,
}

impl Parameter {
    fn new(name: String, value: Matrix) -> Self {
        let (r, c) = value.shape();
        Self {
            name,
            value,
            grad: Matrix::zeros(r, c),
            m: Matrix::zeros(r, c),
            v: Matrix::zeros(r, c),
            step: 0,
            dirty: Dirty::Clean,
        }
    }

    /// The parameter's registration name (diagnostics only).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `true` if any gradient has been accumulated since the last step.
    pub fn has_grad(&self) -> bool {
        self.dirty != Dirty::Clean
    }

    /// Number of scalar elements.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// `true` when the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    pub(crate) fn mark_rows(&mut self, rows: impl IntoIterator<Item = usize>) {
        match &mut self.dirty {
            Dirty::Full => {}
            Dirty::Rows(set) => set.extend(rows),
            d @ Dirty::Clean => *d = Dirty::Rows(rows.into_iter().collect()),
        }
    }

    pub(crate) fn mark_full(&mut self) {
        self.dirty = Dirty::Full;
    }

    /// Zeroes the gradient and clears row-dirtiness.
    pub fn zero_grad(&mut self) {
        match std::mem::replace(&mut self.dirty, Dirty::Clean) {
            Dirty::Clean => {}
            Dirty::Full => self.grad.fill(0.0),
            Dirty::Rows(rows) => {
                for r in rows {
                    self.grad.row_mut(r).fill(0.0);
                }
            }
        }
    }
}

/// A detached gradient accumulation: the per-parameter contributions of
/// one backward pass, captured *without* touching a [`ParamStore`].
///
/// This is the hand-off type of the data-parallel trainer: each worker
/// thread holds the store immutably, runs forward/backward on its own
/// [`Graph`], and collects the resulting binding gradients into a sink;
/// the training thread then [`ParamStore::merge`]s the sinks in a fixed
/// example order. Entries preserve the graph's binding order, and
/// `merge` replays exactly the additions [`ParamStore::accumulate`]
/// would have performed, so the two paths are bit-identical.
pub struct GradSink {
    entries: Vec<(usize, SinkGrad)>,
}

enum SinkGrad {
    /// A dense gradient for the whole parameter.
    Full(Matrix),
    /// Row gradients to scatter-add at the given table rows.
    Rows(Vec<usize>, Matrix),
}

impl GradSink {
    /// Captures the gradients of every bound leaf of `graph` that the
    /// loss reached, in binding order.
    pub fn collect(graph: &Graph, grads: &Grads) -> Self {
        let mut entries = Vec::new();
        for (node, binding) in graph.bindings() {
            let Some(g) = grads.get(*node) else { continue };
            match binding {
                Binding::Full { slot } => entries.push((*slot, SinkGrad::Full(g.clone()))),
                Binding::Rows { slot, indices } => {
                    entries.push((*slot, SinkGrad::Rows(indices.clone(), g.clone())))
                }
            }
        }
        Self { entries }
    }

    /// Number of captured binding gradients.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the loss reached no bound parameter.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// An append-only registry of [`Parameter`]s addressed by `usize` slots.
///
/// Layers remember the slots they registered; the trainer owns the store.
#[derive(Default)]
pub struct ParamStore {
    params: Vec<Parameter>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter, returning its slot.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> usize {
        self.params.push(Parameter::new(name.into(), value));
        self.params.len() - 1
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// `true` when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar parameters (for model-size reporting).
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(Parameter::len).sum()
    }

    /// Borrows a parameter.
    pub fn get(&self, slot: usize) -> &Parameter {
        &self.params[slot]
    }

    /// Mutably borrows a parameter.
    pub fn get_mut(&mut self, slot: usize) -> &mut Parameter {
        &mut self.params[slot]
    }

    /// The current value of a parameter (shorthand used by layers).
    pub fn value(&self, slot: usize) -> &Matrix {
        &self.params[slot].value
    }

    /// Iterates over all parameters.
    pub fn iter(&self) -> impl Iterator<Item = &Parameter> {
        self.params.iter()
    }

    /// Iterates mutably over all parameters.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Parameter> {
        self.params.iter_mut()
    }

    /// Zeroes every accumulated gradient.
    pub fn zero_grads(&mut self) {
        self.params.iter_mut().for_each(Parameter::zero_grad);
    }

    /// Pulls gradients for every bound leaf of `graph` out of `grads`
    /// and accumulates them into the corresponding parameters
    /// (scatter-adding for row bindings).
    ///
    /// Nodes the loss did not reach are skipped.
    pub fn accumulate(&mut self, graph: &Graph, grads: &Grads) {
        for (node, binding) in graph.bindings() {
            let Some(g) = grads.get(*node) else { continue };
            match binding {
                Binding::Full { slot } => {
                    let p = &mut self.params[*slot];
                    p.grad.add_assign(g);
                    p.mark_full();
                }
                Binding::Rows { slot, indices } => {
                    let p = &mut self.params[*slot];
                    p.grad.scatter_add_rows(indices, g);
                    p.mark_rows(indices.iter().copied());
                }
            }
        }
    }

    /// Accumulates a detached [`GradSink`] into the parameters, in the
    /// sink's entry order — the same additions, in the same order, as
    /// [`ParamStore::accumulate`] on the originating graph.
    pub fn merge(&mut self, sink: &GradSink) {
        for (slot, grad) in &sink.entries {
            let p = &mut self.params[*slot];
            match grad {
                SinkGrad::Full(g) => {
                    p.grad.add_assign(g);
                    p.mark_full();
                }
                SinkGrad::Rows(indices, g) => {
                    p.grad.scatter_add_rows(indices, g);
                    p.mark_rows(indices.iter().copied());
                }
            }
        }
    }

    /// Global L2 norm of all accumulated gradients.
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .map(|p| {
                let n = p.grad.frobenius_norm();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }

    /// Copies every parameter's current value (for best-checkpoint
    /// tracking during early stopping).
    pub fn snapshot_values(&self) -> Vec<Matrix> {
        self.params.iter().map(|p| p.value.clone()).collect()
    }

    /// Restores values captured by [`ParamStore::snapshot_values`].
    ///
    /// # Panics
    /// If the snapshot does not match the store's parameters.
    pub fn restore_values(&mut self, snapshot: &[Matrix]) {
        assert_eq!(snapshot.len(), self.params.len(), "snapshot/parameter count mismatch");
        for (p, v) in self.params.iter_mut().zip(snapshot) {
            assert_eq!(p.value.shape(), v.shape(), "snapshot shape mismatch for {}", p.name);
            p.value = v.clone();
        }
    }

    /// Clears optimizer state (Adam moments and step counters) on every
    /// parameter — used at the stage boundary of two-stage training so
    /// fine-tuning starts with fresh step sizes instead of the inflated
    /// second moments of the previous stage.
    pub fn reset_optimizer_state(&mut self) {
        for p in &mut self.params {
            p.m.fill(0.0);
            p.v.fill(0.0);
            p.step = 0;
        }
    }

    /// Frees every parameter's gradient and Adam moments, keeping its
    /// value: a model that will only run inference (a frozen serving
    /// model) then holds one matrix per parameter instead of four.
    /// Accumulating a gradient afterwards panics on the shape mismatch.
    pub fn release_training_state(&mut self) {
        for p in &mut self.params {
            p.grad = Matrix::zeros(0, 0);
            p.m = Matrix::zeros(0, 0);
            p.v = Matrix::zeros(0, 0);
            p.step = 0;
            p.dirty = Dirty::Clean;
        }
    }

    /// Scales all gradients so their global norm does not exceed
    /// `max_norm`. Returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for p in &mut self.params {
                p.grad.scale_assign(s);
            }
        }
        norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupsa_tensor::Forward;

    #[test]
    fn release_training_state_keeps_values_and_frees_the_rest() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(2, 2, vec![1.0, -2.0, 0.5, 4.0]));
        let t = store.add("t", Matrix::ones(3, 2));
        store.get_mut(w).grad.fill(3.0);
        store.get_mut(w).mark_full();
        store.get_mut(t).m.fill(0.25);
        store.get_mut(t).v.fill(0.5);
        store.get_mut(t).step = 7;
        let values = store.snapshot_values();

        store.release_training_state();

        assert_eq!(store.snapshot_values(), values);
        for p in store.iter() {
            assert!(p.grad.is_empty() && p.m.is_empty() && p.v.is_empty(), "{} kept training state", p.name());
            assert_eq!(p.step, 0);
            assert!(!p.has_grad());
        }
    }

    #[test]
    fn add_and_lookup() {
        let mut store = ParamStore::new();
        let a = store.add("w", Matrix::ones(2, 3));
        let b = store.add("b", Matrix::zeros(1, 3));
        assert_eq!(store.len(), 2);
        assert_eq!(store.num_scalars(), 9);
        assert_eq!(store.get(a).name(), "w");
        assert_eq!(store.value(b).shape(), (1, 3));
    }

    #[test]
    fn accumulate_full_binding() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 2, vec![2.0, 3.0]));

        let mut g = Graph::new();
        let ws = g.param_full(w, store.value(w));
        let sq = g.mul_elem(ws, ws);
        let loss = g.sum_all(sq);
        let grads = g.backward(loss);
        store.accumulate(&g, &grads);

        // d(w²)/dw = 2w.
        assert_eq!(store.get(w).grad.as_slice(), &[4.0, 6.0]);
        assert!(store.get(w).has_grad());
    }

    #[test]
    fn accumulate_rows_binding_scatters() {
        let mut store = ParamStore::new();
        let table = store.add("emb", Matrix::from_fn(4, 2, |r, _| r as f32));

        let mut g = Graph::new();
        let e = g.param_rows(table, store.value(table), &[2, 2, 0]);
        let s = g.scale(e, 1.0);
        let loss = g.sum_all(s);
        let grads = g.backward(loss);
        store.accumulate(&g, &grads);

        let grad = &store.get(table).grad;
        assert_eq!(grad.row(2), &[2.0, 2.0]); // gathered twice
        assert_eq!(grad.row(0), &[1.0, 1.0]);
        assert_eq!(grad.row(1), &[0.0, 0.0]);
        assert_eq!(grad.row(3), &[0.0, 0.0]);
        match &store.get(table).dirty {
            Dirty::Rows(rows) => assert_eq!(rows.iter().copied().collect::<Vec<_>>(), vec![0, 2]),
            other => panic!("expected Rows dirtiness, got {other:?}"),
        }
    }

    #[test]
    fn zero_grads_clears_only_dirty_rows() {
        let mut store = ParamStore::new();
        let t = store.add("emb", Matrix::zeros(3, 1));
        store.get_mut(t).grad.row_mut(1)[0] = 5.0;
        store.get_mut(t).mark_rows([1usize]);
        store.zero_grads();
        assert_eq!(store.get(t).grad.row(1), &[0.0]);
        assert!(!store.get(t).has_grad());
    }

    #[test]
    fn grad_norm_and_clipping() {
        let mut store = ParamStore::new();
        let a = store.add("a", Matrix::zeros(1, 2));
        store.get_mut(a).grad = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        store.get_mut(a).mark_full();
        assert!((store.grad_norm() - 5.0).abs() < 1e-6);
        let pre = store.clip_grad_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((store.grad_norm() - 1.0).abs() < 1e-5);
        // Clipping below the max is a no-op.
        let pre2 = store.clip_grad_norm(10.0);
        assert!((pre2 - 1.0).abs() < 1e-5);
        assert!((store.grad_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn sink_merge_is_bit_identical_to_direct_accumulate() {
        // Two stores with identical parameters; one accumulates the
        // backward pass directly, the other through a detached sink.
        let build = || {
            let mut store = ParamStore::new();
            let w = store.add("w", Matrix::from_vec(1, 2, vec![0.25, -1.5]));
            let emb = store.add("emb", Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32 * 0.3));
            (store, w, emb)
        };
        let (mut direct, w, emb) = build();
        let (mut via_sink, _, _) = build();

        let run = |store: &ParamStore| {
            let mut g = Graph::new();
            let ws = g.param_full(w, store.value(w));
            let rows = g.param_rows(emb, store.value(emb), &[2, 0, 2]);
            let sq = g.mul_elem(ws, ws);
            let a = g.sum_all(sq);
            let b = g.sum_all(rows);
            let loss = g.add(a, b);
            let grads = g.backward(loss);
            (g, grads)
        };

        let (g1, grads1) = run(&direct);
        direct.accumulate(&g1, &grads1);

        let (g2, grads2) = run(&via_sink);
        let sink = GradSink::collect(&g2, &grads2);
        assert_eq!(sink.len(), 2);
        via_sink.merge(&sink);

        for slot in [w, emb] {
            assert_eq!(direct.get(slot).grad, via_sink.get(slot).grad);
            assert_eq!(direct.get(slot).dirty, via_sink.get(slot).dirty);
        }
    }

    #[test]
    fn sink_skips_unreached_bindings() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::ones(1, 1));
        let u = store.add("unused", Matrix::ones(1, 1));
        let mut g = Graph::new();
        let ws = g.param_full(w, store.value(w));
        let _orphan = g.param_full(u, store.value(u));
        let loss = g.sum_all(ws);
        let grads = g.backward(loss);
        let sink = GradSink::collect(&g, &grads);
        assert_eq!(sink.len(), 1);
        assert!(!sink.is_empty());
        store.merge(&sink);
        assert!(store.get(w).has_grad());
        assert!(!store.get(u).has_grad());
    }

    #[test]
    fn accumulate_skips_unreached_bindings() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::ones(1, 1));
        let u = store.add("unused", Matrix::ones(1, 1));

        let mut g = Graph::new();
        let ws = g.param_full(w, store.value(w));
        let _orphan = g.param_full(u, store.value(u));
        let loss = g.sum_all(ws);
        let grads = g.backward(loss);
        store.accumulate(&g, &grads);
        assert!(store.get(w).has_grad());
        assert!(!store.get(u).has_grad());
    }
}
