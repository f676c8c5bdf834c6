//! Optimizers: plain SGD and Adam with row-sparse ("lazy") updates.
//!
//! The paper trains with Adam (§III-E) under per-example sampling: each
//! gradient step touches only a handful of embedding rows, so [`Adam`]
//! updates *only the dirty rows* of each parameter (the `SparseAdam`
//! strategy), keeping a step O(touched rows) instead of O(table size).
//! Bias correction uses a per-parameter step counter, as in PyTorch's
//! `SparseAdam`.
//!
//! The L2 regularisation term `λ‖Θ‖²` of paper Eq. (21)/(24) is applied
//! here as weight decay on the touched entries (adding `2λθ` to the
//! gradient before the moment updates).

use crate::param::{Dirty, ParamStore, Parameter};

/// A gradient-descent parameter updater.
pub trait Optimizer {
    /// Applies one update from the accumulated gradients, then zeroes
    /// them (including dirtiness tracking).
    fn step(&mut self, store: &mut ParamStore);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (e.g. for decay schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Plain stochastic gradient descent with optional weight decay.
#[derive(Clone, Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// L2 weight-decay coefficient λ (0 disables).
    pub weight_decay: f32,
}

impl Sgd {
    /// SGD with the given learning rate and no weight decay.
    pub fn new(lr: f32) -> Self {
        Self { lr, weight_decay: 0.0 }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, store: &mut ParamStore) {
        for p in store.iter_mut() {
            match std::mem::replace(&mut p.dirty, Dirty::Clean) {
                Dirty::Clean => {}
                Dirty::Full => {
                    sgd_rows(p, 0..p.value.rows(), self.lr, self.weight_decay);
                    p.grad.fill(0.0);
                }
                Dirty::Rows(rows) => {
                    for r in rows {
                        sgd_rows(p, r..r + 1, self.lr, self.weight_decay);
                        p.grad.row_mut(r).fill(0.0);
                    }
                }
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

fn sgd_rows(p: &mut Parameter, rows: std::ops::Range<usize>, lr: f32, wd: f32) {
    let cols = p.value.cols();
    for r in rows {
        let start = r * cols;
        let value = &mut p.value.as_mut_slice()[start..start + cols];
        let grad = &p.grad.as_slice()[start..start + cols];
        for (v, &g) in value.iter_mut().zip(grad) {
            *v -= lr * (g + 2.0 * wd * *v);
        }
    }
}

/// Adam (Kingma & Ba) with row-sparse updates for embedding tables.
#[derive(Clone, Debug)]
pub struct Adam {
    /// Learning rate α.
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical-stability constant.
    pub eps: f32,
    /// L2 weight-decay coefficient λ (paper Eq. 21/24; 0 disables).
    pub weight_decay: f32,
}

impl Adam {
    /// Adam with the given learning rate and standard β/ε.
    pub fn new(lr: f32) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.0 }
    }

    /// The configuration used throughout the reproduction
    /// (lr = 0.01, tiny weight decay) — a good default for the
    /// per-example BPR training the paper describes.
    pub fn default_paper() -> Self {
        Self { weight_decay: 1e-6, ..Self::new(0.01) }
    }

    fn update_row(&self, p: &mut Parameter, r: usize, bc1: f32, bc2: f32) {
        let cols = p.value.cols();
        let start = r * cols;
        let range = start..start + cols;
        let value = &mut p.value.as_mut_slice()[range.clone()];
        let grad = &p.grad.as_slice()[range.clone()];
        let ms = &mut p.m.as_mut_slice()[range.clone()];
        let vs = &mut p.v.as_mut_slice()[range];
        for (((val, &g0), m), v) in value.iter_mut().zip(grad).zip(ms).zip(vs) {
            let g = g0 + 2.0 * self.weight_decay * *val;
            *m = self.beta1 * *m + (1.0 - self.beta1) * g;
            *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            *val -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore) {
        for p in store.iter_mut() {
            let dirty = std::mem::replace(&mut p.dirty, Dirty::Clean);
            if dirty == Dirty::Clean {
                continue;
            }
            p.step += 1;
            let bc1 = 1.0 - self.beta1.powi(p.step as i32);
            let bc2 = 1.0 - self.beta2.powi(p.step as i32);
            match dirty {
                Dirty::Clean => unreachable!(), // lint: allow(panic-reach) — Clean hit `continue` above
                Dirty::Full => {
                    for r in 0..p.value.rows() {
                        self.update_row(p, r, bc1, bc2);
                    }
                    p.grad.fill(0.0);
                }
                Dirty::Rows(rows) => {
                    for r in rows {
                        self.update_row(p, r, bc1, bc2);
                        p.grad.row_mut(r).fill(0.0);
                    }
                }
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupsa_tensor::{Forward, Graph, Matrix};

    /// One optimizer step on loss = Σ (θ − target)².
    fn quadratic_step(store: &mut ParamStore, slot: usize, target: &Matrix, opt: &mut dyn Optimizer) -> f32 {
        let mut g = Graph::new();
        let th = g.param_full(slot, store.value(slot));
        let t = g.leaf(target.clone());
        let d = g.sub(th, t);
        let sq = g.mul_elem(d, d);
        let loss = g.sum_all(sq);
        let l = g.value(loss).scalar();
        let grads = g.backward(loss);
        store.accumulate(&g, &grads);
        opt.step(store);
        l
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut store = ParamStore::new();
        let slot = store.add("theta", Matrix::from_vec(1, 3, vec![5.0, -4.0, 2.0]));
        let target = Matrix::from_vec(1, 3, vec![1.0, 1.0, 1.0]);
        let mut opt = Sgd::new(0.1);
        let first = quadratic_step(&mut store, slot, &target, &mut opt);
        let mut last = first;
        for _ in 0..100 {
            last = quadratic_step(&mut store, slot, &target, &mut opt);
        }
        assert!(last < 1e-6, "loss did not converge: {last}");
        assert!(store.value(slot).approx_eq(&target, 1e-3));
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut store = ParamStore::new();
        let slot = store.add("theta", Matrix::from_vec(1, 3, vec![5.0, -4.0, 2.0]));
        let target = Matrix::from_vec(1, 3, vec![1.0, 1.0, 1.0]);
        let mut opt = Adam::new(0.2);
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            last = quadratic_step(&mut store, slot, &target, &mut opt);
        }
        assert!(last < 1e-3, "loss did not converge: {last}");
    }

    #[test]
    fn sparse_adam_only_touches_dirty_rows() {
        let mut store = ParamStore::new();
        let table = store.add("emb", Matrix::ones(4, 2));
        let before = store.value(table).clone();

        // Gradient flows only into row 1.
        let mut g = Graph::new();
        let e = g.param_rows(table, store.value(table), &[1]);
        let loss = g.sum_all(e);
        let grads = g.backward(loss);
        store.accumulate(&g, &grads);

        let mut opt = Adam::new(0.1);
        opt.step(&mut store);

        let after = store.value(table);
        assert_ne!(after.row(1), before.row(1), "dirty row must move");
        for r in [0usize, 2, 3] {
            assert_eq!(after.row(r), before.row(r), "clean row {r} must not move");
        }
        // Gradient was cleared for next step.
        assert!(!store.get(table).has_grad());
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut store = ParamStore::new();
        let slot = store.add("w", Matrix::full(1, 1, 10.0));
        let mut opt = Sgd { lr: 0.1, weight_decay: 0.5 };
        // Zero data gradient; decay alone should shrink the weight:
        // θ ← θ − lr·2λθ = 10 − 0.1·2·0.5·10 = 9.
        store.get_mut(slot).mark_full();
        opt.step(&mut store);
        assert!((store.value(slot).scalar() - 9.0).abs() < 1e-5);
    }

    #[test]
    fn adam_step_counter_advances_only_when_dirty() {
        let mut store = ParamStore::new();
        let a = store.add("a", Matrix::ones(1, 1));
        let b = store.add("b", Matrix::ones(1, 1));
        store.get_mut(a).mark_full();
        let mut opt = Adam::new(0.01);
        opt.step(&mut store);
        assert_eq!(store.get(a).step, 1);
        assert_eq!(store.get(b).step, 0);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Adam::new(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
        opt.set_learning_rate(0.005);
        assert_eq!(opt.learning_rate(), 0.005);
    }
}
