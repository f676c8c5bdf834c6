//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] is an arena of nodes. Every operation evaluates its result
//! eagerly (forward pass) and records which parents produced it; calling
//! [`Graph::backward`] on a scalar node walks the tape once in reverse,
//! producing exact gradients for every node. The ops a model's forward
//! pass uses are [`Forward`] methods (so the same definition also runs
//! on [`crate::Eager`]); the loss-side ops are inherent methods.
//!
//! Model parameters live *outside* the tape (see `groupsa-nn`'s parameter
//! store). They enter a graph either wholesale ([`Forward::param_full`]) or —
//! crucial for embedding tables — as a gathered subset of rows
//! ([`Forward::param_rows`]), whose gradient is scatter-added back into the
//! table by the trainer. This is what makes per-example SGD over
//! thousands-of-rows embedding matrices cheap.

use crate::{ops, Forward, Matrix};
use std::borrow::Borrow;

/// Handle to a node in a [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NodeId(u32);

impl NodeId {
    #[inline]
    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// How a leaf node is connected to an external parameter.
#[derive(Clone, Debug)]
pub enum Binding {
    /// The node holds a full copy of parameter `slot`.
    Full {
        /// Parameter-store slot the gradient should be accumulated into.
        slot: usize,
    },
    /// The node holds `indices`-gathered rows of parameter `slot`
    /// (an embedding lookup). Its gradient must be scatter-added into
    /// the table rows given by `indices` (repeats accumulate).
    Rows {
        /// Parameter-store slot of the embedding table.
        slot: usize,
        /// The looked-up row indices, in node-row order.
        indices: Vec<usize>,
    },
}

enum Op {
    Leaf,
    MatMul(NodeId, NodeId),
    Transpose(NodeId),
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    MulElem(NodeId, NodeId),
    Scale(NodeId, f32),
    /// Adds a non-differentiable constant (e.g. the social bias mask).
    AddConst(NodeId),
    /// Multiplies by a non-differentiable constant (e.g. a dropout mask).
    MulConst(NodeId, Matrix),
    AddRowBroadcast(NodeId, NodeId),
    Relu(NodeId),
    Sigmoid(NodeId),
    Tanh(NodeId),
    Softplus(NodeId),
    SoftmaxRows(NodeId),
    ConcatCols(NodeId, NodeId),
    ConcatRows(NodeId, NodeId),
    SliceRows(NodeId, usize),
    RepeatRows(NodeId),
    MeanRows(NodeId),
    SumAll(NodeId),
    MeanAll(NodeId),
    /// Backward re-normalises `x`'s rows (same routine, same bits)
    /// instead of caching the normalised activations.
    LayerNorm { x: NodeId, gamma: NodeId, beta: NodeId, eps: f32 },
}

struct Node {
    value: Matrix,
    op: Op,
}

/// Gradients produced by [`Graph::backward`].
///
/// Nodes the loss does not depend on have no gradient entry.
pub struct Grads {
    grads: Vec<Option<Matrix>>,
}

impl Grads {
    /// The gradient of the loss with respect to `id`, if the loss
    /// depends on that node.
    pub fn get(&self, id: NodeId) -> Option<&Matrix> {
        self.grads[id.idx()].as_ref()
    }
}

/// A reverse-mode autodiff tape. See the module-level docs for the
/// design (arena of eagerly-evaluated nodes, parameter bindings for
/// gradient scatter).
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    bindings: Vec<(NodeId, Binding)>,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of `id`.
    pub fn value(&self, id: NodeId) -> &Matrix {
        &self.nodes[id.idx()].value
    }

    /// Leaf nodes bound to external parameters, for gradient scatter.
    pub fn bindings(&self) -> &[(NodeId, Binding)] {
        &self.bindings
    }

    fn push(&mut self, value: Matrix, op: Op) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("graph node count overflow"));
        self.nodes.push(Node { value, op });
        id
    }

    /// Records a constant/input leaf (not differentiated back to anything
    /// outside the graph, but it still *receives* a gradient entry).
    pub fn leaf(&mut self, value: Matrix) -> NodeId {
        self.push(value, Op::Leaf)
    }

    /// Element-wise difference `a − b`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).sub(self.value(b));
        self.push(v, Op::Sub(a, b))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(ops::sigmoid);
        self.push(v, Op::Sigmoid(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(f32::tanh);
        self.push(v, Op::Tanh(a))
    }

    /// Stable softplus `ln(1 + e^x)` — the building block of the BPR loss
    /// `-ln σ(x) = softplus(-x)`.
    pub fn softplus(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(ops::softplus);
        self.push(v, Op::Softplus(a))
    }

    /// Vertical concatenation (`a` on top of `b`).
    pub fn concat_rows(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).concat_rows(self.value(b));
        self.push(v, Op::ConcatRows(a, b))
    }

    /// Column-wise mean, producing a `1×c` row.
    pub fn mean_rows(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).mean_rows();
        self.push(v, Op::MeanRows(a))
    }

    /// Sum of all elements as a `1×1` node.
    pub fn sum_all(&mut self, a: NodeId) -> NodeId {
        let v = Matrix::full(1, 1, self.value(a).sum());
        self.push(v, Op::SumAll(a))
    }

    /// Mean of all elements as a `1×1` node.
    pub fn mean_all(&mut self, a: NodeId) -> NodeId {
        let v = Matrix::full(1, 1, self.value(a).mean());
        self.push(v, Op::MeanAll(a))
    }

    /// Runs reverse-mode differentiation from the scalar node `root`.
    ///
    /// # Panics
    /// If `root` is not `1×1`.
    pub fn backward(&self, root: NodeId) -> Grads {
        assert_eq!(
            self.value(root).shape(),
            (1, 1),
            "backward: root must be scalar (1x1), got {:?}",
            self.value(root).shape()
        );
        let mut grads: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        grads[root.idx()] = Some(Matrix::full(1, 1, 1.0));

        for idx in (0..self.nodes.len()).rev() {
            let Some(dy) = grads[idx].take() else { continue };
            self.accumulate_parents(idx, &dy, &mut grads);
            grads[idx] = Some(dy);
        }
        Grads { grads }
    }

    fn accumulate_parents(&self, idx: usize, dy: &Matrix, grads: &mut [Option<Matrix>]) {
        let node = &self.nodes[idx];
        let mut acc = |id: NodeId, g: Matrix| {
            match &mut grads[id.idx()] {
                Some(existing) => existing.add_assign(&g),
                slot @ None => *slot = Some(g),
            }
        };
        match &node.op {
            Op::Leaf => {}
            Op::MatMul(a, b) => {
                let da = dy.matmul_transpose_b(self.value(*b));
                let db = self.value(*a).transpose().matmul(dy);
                acc(*a, da);
                acc(*b, db);
            }
            Op::Transpose(a) => acc(*a, dy.transpose()),
            Op::Add(a, b) => {
                acc(*a, dy.clone());
                acc(*b, dy.clone());
            }
            Op::Sub(a, b) => {
                acc(*a, dy.clone());
                acc(*b, dy.scale(-1.0));
            }
            Op::MulElem(a, b) => {
                acc(*a, dy.mul_elem(self.value(*b)));
                acc(*b, dy.mul_elem(self.value(*a)));
            }
            Op::Scale(a, s) => acc(*a, dy.scale(*s)),
            Op::AddConst(a) => acc(*a, dy.clone()),
            Op::MulConst(a, c) => acc(*a, dy.mul_elem(c)),
            Op::AddRowBroadcast(a, bias) => {
                acc(*a, dy.clone());
                acc(*bias, dy.sum_rows());
            }
            Op::Relu(a) => {
                acc(*a, dy.zip_map(self.value(*a), |g, x| if x > 0.0 { g } else { 0.0 }));
            }
            Op::Sigmoid(a) => {
                let y = &node.value;
                acc(*a, dy.zip_map(y, |g, s| g * s * (1.0 - s)));
            }
            Op::Tanh(a) => {
                let y = &node.value;
                acc(*a, dy.zip_map(y, |g, t| g * (1.0 - t * t)));
            }
            Op::Softplus(a) => {
                acc(*a, dy.zip_map(self.value(*a), |g, x| g * ops::sigmoid(x)));
            }
            Op::SoftmaxRows(a) => {
                // dX = y ⊙ (dY − ⟨dY, y⟩_row)
                let y = &node.value;
                let mut dx = dy.mul_elem(y);
                for r in 0..dx.rows() {
                    let s: f32 = dx.row(r).iter().sum();
                    let yr = y.row(r);
                    for (d, &yv) in dx.row_mut(r).iter_mut().zip(yr) {
                        // d currently holds dY⊙y; subtract y·s.
                        *d -= yv * s;
                    }
                }
                acc(*a, dx);
            }
            Op::ConcatCols(a, b) => {
                let ca = self.value(*a).cols();
                let cb = self.value(*b).cols();
                let mut da = Matrix::zeros(dy.rows(), ca);
                let mut db = Matrix::zeros(dy.rows(), cb);
                for r in 0..dy.rows() {
                    da.row_mut(r).copy_from_slice(&dy.row(r)[..ca]);
                    db.row_mut(r).copy_from_slice(&dy.row(r)[ca..]);
                }
                acc(*a, da);
                acc(*b, db);
            }
            Op::ConcatRows(a, b) => {
                let ra = self.value(*a).rows();
                let rb = self.value(*b).rows();
                acc(*a, dy.slice_rows(0, ra));
                acc(*b, dy.slice_rows(ra, rb));
            }
            Op::SliceRows(a, start) => {
                let pv = self.value(*a);
                let mut da = Matrix::zeros(pv.rows(), pv.cols());
                for r in 0..dy.rows() {
                    da.row_mut(start + r).copy_from_slice(dy.row(r));
                }
                acc(*a, da);
            }
            Op::RepeatRows(a) => acc(*a, dy.sum_rows()),
            Op::MeanRows(a) => {
                let rows = self.value(*a).rows();
                acc(*a, dy.scale(1.0 / rows as f32).repeat_rows(rows));
            }
            Op::SumAll(a) => {
                let pv = self.value(*a);
                acc(*a, Matrix::full(pv.rows(), pv.cols(), dy.scalar()));
            }
            Op::MeanAll(a) => {
                let pv = self.value(*a);
                let n = pv.len() as f32;
                acc(*a, Matrix::full(pv.rows(), pv.cols(), dy.scalar() / n));
            }
            Op::LayerNorm { x, gamma, beta, eps } => {
                let g = self.value(*gamma);
                let xv = self.value(*x);
                let cols = xv.cols() as f32;
                let mut dgamma = Matrix::zeros(1, xv.cols());
                let mut dbeta = Matrix::zeros(1, xv.cols());
                let mut dx = Matrix::zeros(xv.rows(), xv.cols());
                let mut xh = Vec::with_capacity(xv.cols());
                for r in 0..xv.rows() {
                    xh.clear();
                    xh.extend_from_slice(xv.row(r));
                    let rs = ops::normalize_row(&mut xh, *eps);
                    let xh = xh.as_slice();
                    let dyr = dy.row(r);
                    // dGamma, dBeta accumulate over rows.
                    for ((dg, (&d, &xv)), db) in dgamma
                        .as_mut_slice()
                        .iter_mut()
                        .zip(dyr.iter().zip(xh))
                        .zip(dbeta.as_mut_slice().iter_mut())
                    {
                        *dg += d * xv;
                        *db += d;
                    }
                    // dXhat = dY ⊙ gamma; then
                    // dX = rstd · (dXhat − mean(dXhat) − xhat · mean(dXhat ⊙ xhat))
                    let dxhat: Vec<f32> =
                        dyr.iter().zip(g.as_slice()).map(|(&d, &gg)| d * gg).collect();
                    let m1 = dxhat.iter().sum::<f32>() / cols;
                    let m2 = dxhat.iter().zip(xh).map(|(&d, &xv)| d * xv).sum::<f32>() / cols;
                    for ((o, &d), &xv) in dx.row_mut(r).iter_mut().zip(&dxhat).zip(xh) {
                        *o = rs * (d - m1 - xv * m2);
                    }
                }
                acc(*x, dx);
                acc(*gamma, dgamma);
                acc(*beta, dbeta);
            }
        }
    }
}

impl<'p> Forward<'p> for Graph {
    type Value = NodeId;

    fn value<'a>(&'a self, x: &'a NodeId) -> &'a Matrix {
        Graph::value(self, *x)
    }

    /// Records a leaf holding a copy of the parameter and binds it to
    /// `slot` so the trainer can accumulate its gradient.
    fn param_full(&mut self, slot: usize, value: &'p Matrix) -> NodeId {
        let id = self.push(value.clone(), Op::Leaf);
        self.bindings.push((id, Binding::Full { slot }));
        id
    }

    /// Records the gathered rows as a leaf bound to `slot`; their
    /// gradient is scatter-added back into the table.
    fn param_rows(&mut self, slot: usize, table: &'p Matrix, indices: &[usize]) -> NodeId {
        let id = self.push(table.gather_rows(indices), Op::Leaf);
        self.bindings.push((id, Binding::Rows { slot, indices: indices.to_vec() }));
        id
    }

    fn matmul(&mut self, a: impl Borrow<NodeId>, b: impl Borrow<NodeId>) -> NodeId {
        let (a, b) = (*a.borrow(), *b.borrow());
        let v = self.value(a).matmul(self.value(b));
        self.push(v, Op::MatMul(a, b))
    }

    /// Records the transpose and the product as two nodes.
    fn matmul_transpose_b(&mut self, a: impl Borrow<NodeId>, b: impl Borrow<NodeId>) -> NodeId {
        let bt = self.transpose(b);
        self.matmul(a, bt)
    }

    fn transpose(&mut self, a: impl Borrow<NodeId>) -> NodeId {
        let a = *a.borrow();
        let v = self.value(a).transpose();
        self.push(v, Op::Transpose(a))
    }

    fn add(&mut self, a: impl Borrow<NodeId>, b: impl Borrow<NodeId>) -> NodeId {
        let (a, b) = (*a.borrow(), *b.borrow());
        let v = self.value(a).add(self.value(b));
        self.push(v, Op::Add(a, b))
    }

    fn mul_elem(&mut self, a: impl Borrow<NodeId>, b: impl Borrow<NodeId>) -> NodeId {
        let (a, b) = (*a.borrow(), *b.borrow());
        let v = self.value(a).mul_elem(self.value(b));
        self.push(v, Op::MulElem(a, b))
    }

    fn scale(&mut self, a: NodeId, s: f32) -> NodeId {
        let v = self.value(a).scale(s);
        self.push(v, Op::Scale(a, s))
    }

    fn add_const(&mut self, a: NodeId, c: &Matrix) -> NodeId {
        let v = self.value(a).zip_map(c, |x, y| x + y);
        self.push(v, Op::AddConst(a))
    }

    fn mul_const(&mut self, a: NodeId, c: &Matrix) -> NodeId {
        let v = self.value(a).mul_elem(c);
        self.push(v, Op::MulConst(a, c.clone()))
    }

    fn add_row_broadcast(&mut self, a: NodeId, bias: impl Borrow<NodeId>) -> NodeId {
        let bias = *bias.borrow();
        let v = self.value(a).add_row_broadcast(self.value(bias));
        self.push(v, Op::AddRowBroadcast(a, bias))
    }

    fn relu(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(ops::relu);
        self.push(v, Op::Relu(a))
    }

    fn softmax_rows(&mut self, a: NodeId) -> NodeId {
        let v = ops::softmax_rows(self.value(a));
        self.push(v, Op::SoftmaxRows(a))
    }

    fn layer_norm(
        &mut self,
        x: impl Borrow<NodeId>,
        gamma: impl Borrow<NodeId>,
        beta: impl Borrow<NodeId>,
        eps: f32,
    ) -> NodeId {
        let (x, gamma, beta) = (*x.borrow(), *gamma.borrow(), *beta.borrow());
        let v = ops::layer_norm_rows(self.value(x), self.value(gamma), self.value(beta), eps);
        self.push(v, Op::LayerNorm { x, gamma, beta, eps })
    }

    fn concat_cols(&mut self, a: impl Borrow<NodeId>, b: impl Borrow<NodeId>) -> NodeId {
        let (a, b) = (*a.borrow(), *b.borrow());
        let v = self.value(a).concat_cols(self.value(b));
        self.push(v, Op::ConcatCols(a, b))
    }

    fn slice_rows(&mut self, a: impl Borrow<NodeId>, start: usize, len: usize) -> NodeId {
        let a = *a.borrow();
        let v = self.value(a).slice_rows(start, len);
        self.push(v, Op::SliceRows(a, start))
    }

    fn repeat_rows(&mut self, a: impl Borrow<NodeId>, times: usize) -> NodeId {
        let a = *a.borrow();
        let v = self.value(a).repeat_rows(times);
        self.push(v, Op::RepeatRows(a))
    }

    /// Records the tile of `a` (skipped when `b` is one row), two
    /// concatenations and the product — no fused node, so backward
    /// runs the ops' own rules.
    fn pair_features(&mut self, a: impl Borrow<NodeId>, b: impl Borrow<NodeId>) -> NodeId {
        let (a, b) = (*a.borrow(), *b.borrow());
        let n = self.value(b).rows();
        let a = if n == 1 { a } else { self.repeat_rows(a, n) };
        let cat = self.concat_cols(a, b);
        let prod = self.mul_elem(a, b);
        self.concat_cols(cat, prod)
    }

    /// Records each block, growing the stack with one `concat_rows`
    /// node per block after the first — the tape needs a node for
    /// every partial stack so backward can split the gradient again.
    fn stack_rows(&mut self, n: usize, mut block: impl FnMut(&mut Self, usize) -> NodeId) -> NodeId {
        assert!(n > 0, "stack_rows: no blocks to stack");
        let mut stack = block(self, 0);
        for i in 1..n {
            let next = block(self, i);
            stack = self.concat_rows(stack, next);
        }
        stack
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::assert_grad_matches;

    #[test]
    fn scalar_chain_rule() {
        // f(x) = sum(3 * sigmoid(x)) at a single element.
        let mut g = Graph::new();
        let x = g.leaf(Matrix::full(1, 1, 0.0));
        let s = g.sigmoid(x);
        let y = g.scale(s, 3.0);
        let loss = g.sum_all(y);
        assert!((g.value(loss).scalar() - 1.5).abs() < 1e-6);
        let grads = g.backward(loss);
        // d/dx 3σ(x) = 3 σ'(0) = 3·0.25.
        assert!((grads.get(x).unwrap().scalar() - 0.75).abs() < 1e-6);
    }

    #[test]
    fn matmul_grad_finite_diff() {
        let a0 = Matrix::from_fn(2, 3, |r, c| 0.3 * (r as f32) - 0.2 * (c as f32) + 0.1);
        let b0 = Matrix::from_fn(3, 2, |r, c| 0.1 * (r as f32 + 1.0) * (c as f32 - 0.5));
        assert_grad_matches(&a0, 1e-2, 2e-2, |m| {
            let mut g = Graph::new();
            let a = g.leaf(m.clone());
            let b = g.leaf(b0.clone());
            let y = g.matmul(a, b);
            let l = g.sum_all(y);
            (g.value(l).scalar(), g.backward(l).get(a).unwrap().clone())
        });
        assert_grad_matches(&b0, 1e-2, 2e-2, |m| {
            let mut g = Graph::new();
            let a = g.leaf(a0.clone());
            let b = g.leaf(m.clone());
            let y = g.matmul(a, b);
            let l = g.sum_all(y);
            (g.value(l).scalar(), g.backward(l).get(b).unwrap().clone())
        });
    }

    #[test]
    fn softmax_rows_grad_finite_diff() {
        let x0 = Matrix::from_fn(2, 4, |r, c| 0.37 * (c as f32) - 0.11 * (r as f32));
        assert_grad_matches(&x0, 1e-2, 2e-2, |m| {
            let mut g = Graph::new();
            let x = g.leaf(m.clone());
            let s = g.softmax_rows(x);
            // Weighted sum so the gradient is not identically zero.
            let w = g.leaf(Matrix::from_fn(2, 4, |r, c| ((r + 2 * c) as f32).sin()));
            let p = g.mul_elem(s, w);
            let l = g.sum_all(p);
            (g.value(l).scalar(), g.backward(l).get(x).unwrap().clone())
        });
    }

    #[test]
    fn masked_softmax_grad_is_zero_on_masked_entries() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(1, 3, vec![0.2, -0.4, 0.9]));
        let mask = Matrix::from_vec(1, 3, vec![0.0, f32::NEG_INFINITY, 0.0]);
        let xm = g.add_const(x, &mask);
        let s = g.softmax_rows(xm);
        let w = g.leaf(Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]));
        let p = g.mul_elem(s, w);
        let l = g.sum_all(p);
        let grads = g.backward(l);
        let dx = grads.get(x).unwrap();
        assert!(dx.is_finite(), "masked softmax must not produce NaN grads");
        assert_eq!(dx[(0, 1)], 0.0);
        assert!(dx[(0, 0)] != 0.0 && dx[(0, 2)] != 0.0);
    }

    #[test]
    fn layer_norm_grad_finite_diff() {
        let x0 = Matrix::from_fn(3, 5, |r, c| 0.5 * (r as f32) - 0.3 * (c as f32) + 0.2);
        let gamma0 = Matrix::from_fn(1, 5, |_, c| 1.0 + 0.1 * c as f32);
        let beta0 = Matrix::from_fn(1, 5, |_, c| 0.05 * c as f32);
        let weights = Matrix::from_fn(3, 5, |r, c| ((r * 3 + c) as f32).cos());
        let run = |x: &Matrix, gm: &Matrix, bt: &Matrix| {
            let mut g = Graph::new();
            let xs = g.leaf(x.clone());
            let gs = g.leaf(gm.clone());
            let bs = g.leaf(bt.clone());
            let y = g.layer_norm(xs, gs, bs, 1e-5);
            let w = g.leaf(weights.clone());
            let p = g.mul_elem(y, w);
            let l = g.sum_all(p);
            let grads = g.backward(l);
            (
                g.value(l).scalar(),
                grads.get(xs).unwrap().clone(),
                grads.get(gs).unwrap().clone(),
                grads.get(bs).unwrap().clone(),
            )
        };
        assert_grad_matches(&x0, 1e-2, 5e-2, |m| {
            let (l, dx, _, _) = run(m, &gamma0, &beta0);
            (l, dx)
        });
        assert_grad_matches(&gamma0, 1e-2, 5e-2, |m| {
            let (l, _, dg, _) = run(&x0, m, &beta0);
            (l, dg)
        });
        assert_grad_matches(&beta0, 1e-2, 5e-2, |m| {
            let (l, _, _, db) = run(&x0, &gamma0, m);
            (l, db)
        });
    }

    #[test]
    fn concat_slice_repeat_grads() {
        let a0 = Matrix::from_fn(2, 2, |r, c| (r + c) as f32 * 0.3);
        assert_grad_matches(&a0, 1e-2, 2e-2, |m| {
            let mut g = Graph::new();
            let a = g.leaf(m.clone());
            let b = g.leaf(Matrix::from_fn(2, 3, |r, c| (r * c) as f32 * 0.2 - 0.1));
            let cat = g.concat_cols(a, b); // 2×5
            let sl = g.slice_rows(cat, 0, 1); // 1×5
            let rep = g.repeat_rows(sl, 4); // 4×5
            let t = g.tanh(rep);
            let l = g.sum_all(t);
            (g.value(l).scalar(), g.backward(l).get(a).unwrap().clone())
        });
    }

    #[test]
    fn concat_rows_grad_splits() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::ones(2, 2));
        let b = g.leaf(Matrix::ones(1, 2));
        let cat = g.concat_rows(a, b);
        let s = g.scale(cat, 2.0);
        let l = g.sum_all(s);
        let grads = g.backward(l);
        assert_eq!(grads.get(a).unwrap().shape(), (2, 2));
        assert_eq!(grads.get(b).unwrap().shape(), (1, 2));
        assert!(grads.get(a).unwrap().as_slice().iter().all(|&x| x == 2.0));
    }

    #[test]
    fn relu_softplus_grads() {
        let x0 = Matrix::from_vec(1, 4, vec![-1.5, -0.1, 0.3, 2.0]);
        assert_grad_matches(&x0, 1e-3, 2e-2, |m| {
            let mut g = Graph::new();
            let x = g.leaf(m.clone());
            let r = g.relu(x);
            let s = g.softplus(r);
            let l = g.mean_all(s);
            (g.value(l).scalar(), g.backward(l).get(x).unwrap().clone())
        });
    }

    #[test]
    fn mean_rows_grad() {
        let x0 = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32 * 0.1);
        assert_grad_matches(&x0, 1e-2, 2e-2, |m| {
            let mut g = Graph::new();
            let x = g.leaf(m.clone());
            let mr = g.mean_rows(x);
            let sq = g.mul_elem(mr, mr);
            let l = g.sum_all(sq);
            (g.value(l).scalar(), g.backward(l).get(x).unwrap().clone())
        });
    }

    #[test]
    fn linear_layer_bias_grad_sums_rows() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::ones(3, 2));
        let w = g.leaf(Matrix::eye(2));
        let b = g.leaf(Matrix::zeros(1, 2));
        let y = g.matmul(x, w);
        let y = g.add_row_broadcast(y, b);
        let l = g.sum_all(y);
        let grads = g.backward(l);
        // Each bias element receives one gradient per row.
        assert_eq!(grads.get(b).unwrap().as_slice(), &[3.0, 3.0]);
    }

    #[test]
    fn param_rows_gather_records_binding() {
        let table = Matrix::from_fn(5, 2, |r, c| (r * 2 + c) as f32);
        let mut g = Graph::new();
        let e = g.param_rows(7, &table, &[4, 1, 4]);
        assert_eq!(g.value(e).row(0), table.row(4));
        assert_eq!(g.value(e).row(1), table.row(1));
        let (id, binding) = &g.bindings()[0];
        assert_eq!(*id, e);
        match binding {
            Binding::Rows { slot, indices } => {
                assert_eq!(*slot, 7);
                assert_eq!(indices, &[4, 1, 4]);
            }
            other => panic!("expected Rows binding, got {other:?}"),
        }
    }

    #[test]
    fn diamond_dependency_accumulates() {
        // y = x·x (via two paths) — gradient must accumulate from both.
        let mut g = Graph::new();
        let x = g.leaf(Matrix::full(1, 1, 3.0));
        let y = g.mul_elem(x, x);
        let l = g.sum_all(y);
        let grads = g.backward(l);
        assert!((grads.get(x).unwrap().scalar() - 6.0).abs() < 1e-6);
    }

    #[test]
    fn unreached_nodes_have_no_grad() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::full(1, 1, 1.0));
        let orphan = g.leaf(Matrix::full(1, 1, 9.0));
        let l = g.sum_all(x);
        let grads = g.backward(l);
        assert!(grads.get(orphan).is_none());
        assert!(grads.get(x).is_some());
    }

    #[test]
    #[should_panic(expected = "root must be scalar")]
    fn backward_requires_scalar_root() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::ones(2, 2));
        let _ = g.backward(x);
    }

    #[test]
    fn dropout_mask_const_grad() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::ones(1, 4));
        let mask = Matrix::from_vec(1, 4, vec![0.0, 2.0, 0.0, 2.0]); // keep-prob 0.5, scaled
        let y = g.mul_const(x, &mask);
        let l = g.sum_all(y);
        let grads = g.backward(l);
        assert_eq!(grads.get(x).unwrap().as_slice(), mask.as_slice());
    }
}
