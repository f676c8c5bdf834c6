//! One forward definition, two evaluators.
//!
//! Model code writes each forward pass once, generic over
//! [`Forward`]: the ops a layer needs, applied to opaque values. Two
//! evaluators run that one definition:
//!
//! * [`crate::Graph`] records each op as a tape node (its impl lives
//!   next to the tape, in `graph.rs`), binding parameters for gradient
//!   scatter.
//! * [`Eager`] records nothing. Its values are [`Cow`] matrices:
//!   parameters are *borrowed* from the store instead of copied onto a
//!   tape, ops that own their input (ReLU, softmax, scaling, the
//!   additive bias mask, the bias row) apply in place, composite ops
//!   ([`Forward::pair_features`]) fill one buffer where the tape
//!   records several nodes, and every intermediate is dropped as soon
//!   as the composition lets go of it.
//!
//! Both evaluators compute every value through the same [`Matrix`] /
//! [`ops`] routine (a fused op makes the same element-wise copies and
//! products as the nodes it stands for), so a definition evaluated
//! eagerly is bit-identical to the same definition recorded on a tape
//! (up to IEEE sign-of-zero, which `f32 ==` treats as equal) — the
//! property serving relies on.

use crate::{ops, Matrix};
use std::borrow::{Borrow, Cow};

/// The ops a forward pass is written in.
///
/// `'p` is the lifetime of the parameters (and of any other borrowed
/// input) a pass reads. Ops that take a value consume it — [`Eager`]
/// reuses its buffer — while ops that take an `impl Borrow` accept a
/// reference, leaving the value available for further use (or a
/// `Copy` handle such as a [`crate::NodeId`]). Shape preconditions are
/// those of the matching [`Matrix`] method; violations panic.
pub trait Forward<'p> {
    /// A handle to an intermediate value.
    type Value;

    /// The current value of `x`.
    fn value<'a>(&'a self, x: &'a Self::Value) -> &'a Matrix;

    /// A full parameter matrix held in store slot `slot`.
    fn param_full(&mut self, slot: usize, value: &'p Matrix) -> Self::Value;

    /// Rows `indices` of the parameter table in slot `slot` (an
    /// embedding lookup; repeats allowed).
    ///
    /// # Panics
    /// If any index is out of bounds for `table`.
    fn param_rows(&mut self, slot: usize, table: &'p Matrix, indices: &[usize]) -> Self::Value;

    /// Matrix product `a · b`.
    fn matmul(&mut self, a: impl Borrow<Self::Value>, b: impl Borrow<Self::Value>) -> Self::Value;

    /// Matrix product `a · bᵀ`.
    fn matmul_transpose_b(&mut self, a: impl Borrow<Self::Value>, b: impl Borrow<Self::Value>) -> Self::Value;

    /// Transpose.
    fn transpose(&mut self, a: impl Borrow<Self::Value>) -> Self::Value;

    /// Element-wise sum of two same-shape values.
    fn add(&mut self, a: impl Borrow<Self::Value>, b: impl Borrow<Self::Value>) -> Self::Value;

    /// Element-wise (Hadamard) product.
    fn mul_elem(&mut self, a: impl Borrow<Self::Value>, b: impl Borrow<Self::Value>) -> Self::Value;

    /// Scalar multiple `s · a`.
    fn scale(&mut self, a: Self::Value, s: f32) -> Self::Value;

    /// Adds a constant matrix that takes no gradient (the social bias
    /// mask of paper Eq. (4): entries may be `−∞`).
    fn add_const(&mut self, a: Self::Value, c: &Matrix) -> Self::Value;

    /// Multiplies element-wise by a constant matrix that takes no
    /// gradient (a dropout mask, pre-scaled by `1/keep_prob`).
    fn mul_const(&mut self, a: Self::Value, c: &Matrix) -> Self::Value;

    /// Adds the `1×c` row `bias` to every row of `a`.
    fn add_row_broadcast(&mut self, a: Self::Value, bias: impl Borrow<Self::Value>) -> Self::Value;

    /// Rectified linear unit.
    fn relu(&mut self, a: Self::Value) -> Self::Value;

    /// Row-wise stable softmax (entries of `−∞` become 0).
    fn softmax_rows(&mut self, a: Self::Value) -> Self::Value;

    /// Row-wise layer normalisation with `1×c` affine parameters, as
    /// used after every attention and FFN sub-layer (paper §II-C,
    /// "LayerNorm(x + Sublayer(x))").
    fn layer_norm(
        &mut self,
        x: impl Borrow<Self::Value>,
        gamma: impl Borrow<Self::Value>,
        beta: impl Borrow<Self::Value>,
        eps: f32,
    ) -> Self::Value;

    /// Horizontal concatenation `[a | b]`.
    fn concat_cols(&mut self, a: impl Borrow<Self::Value>, b: impl Borrow<Self::Value>) -> Self::Value;

    /// Rows `start..start + len` of `a`.
    fn slice_rows(&mut self, a: impl Borrow<Self::Value>, start: usize, len: usize) -> Self::Value;

    /// A `1×c` row tiled `times` times.
    fn repeat_rows(&mut self, a: impl Borrow<Self::Value>, times: usize) -> Self::Value;

    /// The pair features `[a | bᵢ | a⊙bᵢ]` of a `1×d` row `a` and each
    /// row of the `n×d` value `b`: an `n×3d` value, the input of the
    /// prediction towers and of the member attention γ.
    ///
    /// # Panics
    /// If `a` is not a single row as wide as `b`.
    fn pair_features(&mut self, a: impl Borrow<Self::Value>, b: impl Borrow<Self::Value>) -> Self::Value;

    /// Stacks the blocks `block(self, 0)`, …, `block(self, n − 1)`
    /// vertically, evaluating them in order.
    ///
    /// # Panics
    /// If `n == 0` or the blocks differ in width.
    fn stack_rows(&mut self, n: usize, block: impl FnMut(&mut Self, usize) -> Self::Value) -> Self::Value;
}

/// The tape-free evaluator: computes each op's value immediately and
/// records nothing. Stateless — every call site can use a fresh
/// `Eager`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Eager;

impl<'p> Forward<'p> for Eager {
    type Value = Cow<'p, Matrix>;

    fn value<'a>(&'a self, x: &'a Cow<'p, Matrix>) -> &'a Matrix {
        x
    }

    fn param_full(&mut self, _slot: usize, value: &'p Matrix) -> Cow<'p, Matrix> {
        Cow::Borrowed(value)
    }

    fn param_rows(&mut self, _slot: usize, table: &'p Matrix, indices: &[usize]) -> Cow<'p, Matrix> {
        Cow::Owned(table.gather_rows(indices))
    }

    fn matmul(&mut self, a: impl Borrow<Cow<'p, Matrix>>, b: impl Borrow<Cow<'p, Matrix>>) -> Cow<'p, Matrix> {
        Cow::Owned(a.borrow().matmul(b.borrow()))
    }

    fn matmul_transpose_b(
        &mut self,
        a: impl Borrow<Cow<'p, Matrix>>,
        b: impl Borrow<Cow<'p, Matrix>>,
    ) -> Cow<'p, Matrix> {
        Cow::Owned(a.borrow().matmul_transpose_b(b.borrow()))
    }

    fn transpose(&mut self, a: impl Borrow<Cow<'p, Matrix>>) -> Cow<'p, Matrix> {
        Cow::Owned(a.borrow().transpose())
    }

    fn add(&mut self, a: impl Borrow<Cow<'p, Matrix>>, b: impl Borrow<Cow<'p, Matrix>>) -> Cow<'p, Matrix> {
        Cow::Owned(a.borrow().add(b.borrow()))
    }

    fn mul_elem(&mut self, a: impl Borrow<Cow<'p, Matrix>>, b: impl Borrow<Cow<'p, Matrix>>) -> Cow<'p, Matrix> {
        Cow::Owned(a.borrow().mul_elem(b.borrow()))
    }

    fn scale(&mut self, mut a: Cow<'p, Matrix>, s: f32) -> Cow<'p, Matrix> {
        a.to_mut().scale_assign(s);
        a
    }

    fn add_const(&mut self, mut a: Cow<'p, Matrix>, c: &Matrix) -> Cow<'p, Matrix> {
        a.to_mut().add_assign(c);
        a
    }

    fn mul_const(&mut self, a: Cow<'p, Matrix>, c: &Matrix) -> Cow<'p, Matrix> {
        Cow::Owned(a.mul_elem(c))
    }

    fn add_row_broadcast(&mut self, mut a: Cow<'p, Matrix>, bias: impl Borrow<Cow<'p, Matrix>>) -> Cow<'p, Matrix> {
        a.to_mut().add_row_broadcast_assign(bias.borrow());
        a
    }

    fn relu(&mut self, mut a: Cow<'p, Matrix>) -> Cow<'p, Matrix> {
        a.to_mut().map_inplace(ops::relu);
        a
    }

    fn softmax_rows(&mut self, mut a: Cow<'p, Matrix>) -> Cow<'p, Matrix> {
        ops::softmax_rows_inplace(a.to_mut());
        a
    }

    fn layer_norm(
        &mut self,
        x: impl Borrow<Cow<'p, Matrix>>,
        gamma: impl Borrow<Cow<'p, Matrix>>,
        beta: impl Borrow<Cow<'p, Matrix>>,
        eps: f32,
    ) -> Cow<'p, Matrix> {
        Cow::Owned(ops::layer_norm_rows(x.borrow(), gamma.borrow(), beta.borrow(), eps))
    }

    fn concat_cols(&mut self, a: impl Borrow<Cow<'p, Matrix>>, b: impl Borrow<Cow<'p, Matrix>>) -> Cow<'p, Matrix> {
        Cow::Owned(a.borrow().concat_cols(b.borrow()))
    }

    fn slice_rows(&mut self, a: impl Borrow<Cow<'p, Matrix>>, start: usize, len: usize) -> Cow<'p, Matrix> {
        Cow::Owned(a.borrow().slice_rows(start, len))
    }

    fn repeat_rows(&mut self, a: impl Borrow<Cow<'p, Matrix>>, times: usize) -> Cow<'p, Matrix> {
        Cow::Owned(a.borrow().repeat_rows(times))
    }

    /// Fills one `n×3d` buffer with row copies and products — the
    /// values the tape's tile, concatenations and product compute,
    /// without materialising any of them.
    fn pair_features(&mut self, a: impl Borrow<Cow<'p, Matrix>>, b: impl Borrow<Cow<'p, Matrix>>) -> Cow<'p, Matrix> {
        let (a, b): (&Matrix, &Matrix) = (a.borrow(), b.borrow());
        let (n, d) = b.shape();
        assert_eq!(a.shape(), (1, d), "pair_features: a is {:?}, expected a 1x{d} row", a.shape());
        let a = a.as_slice();
        let width = 3 * d;
        let mut cat = vec![0.0f32; n * width];
        for (row, item) in cat.chunks_exact_mut(width.max(1)).zip(b.rows_iter()) {
            row[..d].copy_from_slice(a);
            row[d..2 * d].copy_from_slice(item);
            for ((o, &x), &y) in row[2 * d..].iter_mut().zip(a).zip(item) {
                *o = x * y;
            }
        }
        Cow::Owned(Matrix::from_vec(n, width, cat))
    }

    /// Evaluates each block and copies it into one buffer sized after
    /// the first block: a single allocation for the whole stack.
    fn stack_rows(&mut self, n: usize, mut block: impl FnMut(&mut Self, usize) -> Cow<'p, Matrix>) -> Cow<'p, Matrix> {
        assert!(n > 0, "stack_rows: no blocks to stack");
        let first = block(self, 0);
        let cols = first.cols();
        let mut data = Vec::with_capacity(n * first.len());
        data.extend_from_slice(first.as_slice());
        for i in 1..n {
            let next = block(self, i);
            assert_eq!(next.cols(), cols, "stack_rows: block {i} is {} wide, not {cols}", next.cols());
            data.extend_from_slice(next.as_slice());
        }
        let rows = if cols == 0 { 0 } else { data.len() / cols };
        Cow::Owned(Matrix::from_vec(rows, cols, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    struct Params {
        w: Matrix,
        table: Matrix,
        gamma: Matrix,
        beta: Matrix,
        mask: Matrix,
        pair: Matrix,
    }

    /// A small composition exercising every op, written once.
    fn composition<'p, F: Forward<'p>>(f: &mut F, p: &'p Params) -> F::Value {
        let x = f.param_rows(1, &p.table, &[2, 0, 2]); // 3×2
        let w = f.param_full(0, &p.w); // 2×2
        let h = f.matmul(&x, &w);
        let bias = f.slice_rows(&x, 0, 1);
        let h = f.add_row_broadcast(h, &bias);
        let h = f.relu(h);
        let s = f.matmul_transpose_b(&h, &x); // 3×3
        let s = f.scale(s, 0.5);
        let s = f.add_const(s, &p.mask);
        let s = f.softmax_rows(s);
        let z = f.matmul(&s, &x); // 3×2
        let z = f.mul_const(z, &Matrix::full(3, 2, 2.0));
        let sum = f.add(&z, &x);
        let gamma = f.param_full(2, &p.gamma);
        let beta = f.param_full(3, &p.beta);
        let n = f.layer_norm(&sum, &gamma, &beta, 1e-5);
        let prod = f.mul_elem(&n, &x);
        let wide = f.concat_cols(&n, &prod); // 3×4
        let t = f.transpose(&wide); // 4×3
        let row = f.slice_rows(&t, 1, 1);
        let r = f.repeat_rows(&row, 2); // 2×3
        let tall = f.stack_rows(2, |f, i| if i == 0 { f.slice_rows(&t, 0, 4) } else { f.slice_rows(&r, 0, 2) }); // 6×3
        let out = f.stack_rows(3, |f, i| f.slice_rows(&tall, 2 * i, 2)); // 6×3
        let a = f.param_full(4, &p.pair); // 1×2, holding +∞ and −0.0
        let pairs = f.stack_rows(2, |f, i| {
            if i == 0 {
                let b = f.slice_rows(&x, 1, 1);
                f.pair_features(&a, &b) // n = 1: 1×6
            } else {
                f.pair_features(&a, &h) // n = 3: 3×6
            }
        });
        let pairs = f.transpose(&pairs); // 6×4
        f.concat_cols(&out, &pairs) // 6×7
    }

    fn params() -> Params {
        Params {
            w: Matrix::from_vec(2, 2, vec![0.3, -0.7, 1.1, 0.2]),
            table: Matrix::from_fn(4, 2, |r, c| (r as f32 - 1.5) * 0.4 + c as f32 * 0.3),
            gamma: Matrix::from_vec(1, 2, vec![1.2, 0.8]),
            beta: Matrix::from_vec(1, 2, vec![0.1, -0.1]),
            mask: Matrix::from_fn(3, 3, |r, c| if r != c && (r + c) % 3 == 0 { f32::NEG_INFINITY } else { 0.0 }),
            pair: Matrix::from_vec(1, 2, vec![f32::INFINITY, -0.0]),
        }
    }

    #[test]
    fn eager_matches_the_tape_bit_for_bit() {
        let p = params();
        let mut g = Graph::new();
        let taped = composition(&mut g, &p);
        let eager = composition(&mut Eager, &p);
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(g.value(taped).shape(), (6, 7));
        assert_eq!(bits(g.value(taped)), bits(&eager));
        // The pair features carry the special values through: −0.0
        // copied and multiplied, ∞ times a ReLU zero.
        let pairs: Vec<f32> = eager.rows_iter().flat_map(|r| r[3..].to_vec()).collect();
        assert!(pairs.iter().any(|x| x.to_bits() == (-0.0f32).to_bits()), "{pairs:?}");
        assert!(pairs.iter().any(|x| x.is_nan()), "{pairs:?}");
    }

    #[test]
    fn eager_borrows_parameters_and_owns_results() {
        let w = Matrix::eye(2);
        let p = Eager.param_full(0, &w);
        assert!(matches!(p, Cow::Borrowed(_)));
        let y = Eager.relu(p);
        assert!(matches!(y, Cow::Owned(_)), "an in-place op on a borrowed value copies it first");
        assert_eq!(*y, w, "and never writes through the borrow");
    }

    #[test]
    fn graph_stacking_records_one_concat_per_extra_block() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::ones(1, 2));
        let before = g.len();
        let s = g.stack_rows(3, |g, _| g.scale(x, 2.0));
        assert_eq!(g.value(s).shape(), (3, 2));
        assert_eq!(g.len() - before, 3 + 2, "three blocks, two concatenations");
    }

    #[test]
    #[should_panic(expected = "no blocks to stack")]
    fn stacking_nothing_panics() {
        let _ = Eager.stack_rows(0, |_, _| Cow::Owned(Matrix::zeros(1, 1)));
    }
}
