//! The attention machinery of the paper.
//!
//! Three pieces:
//!
//! * [`SelfAttention`] — scaled dot-product self-attention with an
//!   additive bias mask, exactly paper Eq. (1)–(5). The *social bias
//!   matrix* `S ∈ {0, −∞}^{l×l}` is passed as the mask: `−∞` disables
//!   attention between socially unconnected group members.
//! * [`TransformerLayer`] — one *voting round*: social self-attention and
//!   a position-wise FFN, each wrapped in residual + LayerNorm
//!   ("LayerNorm(x + Sublayer(x))", §II-C), with optional dropout.
//! * [`VanillaAttention`] — the two-layer scoring network of
//!   Eq. (9)–(10) (also Eq. 13–14 and 17–18): a softmax over per-row
//!   scores `w₂ᵀ·ReLU(W₁·[a ⊕ b] + b₁) + b₂`, used to aggregate member
//!   (or item / friend) representations.

use crate::{Dropout, FeedForward, Init, LayerNorm, Linear, ParamStore};
use groupsa_tensor::{Forward, Matrix};
use rand::Rng;

/// Builds the `{0, −∞}` additive mask of paper Eq. (5) from a boolean
/// adjacency: `allowed[i][j] == true` keeps the attention edge `i → j`.
///
/// The diagonal is always kept — Eq. (1)'s `q_i·k_i` term ("how much user
/// `u_i` insists on her/his own opinions") is part of every sub-voting
/// process.
pub fn social_bias_mask(allowed: &[Vec<bool>]) -> Matrix {
    let l = allowed.len();
    Matrix::from_fn(l, l, |i, j| {
        if i == j || allowed[i][j] {
            0.0
        } else {
            f32::NEG_INFINITY
        }
    })
}

/// Scaled dot-product self-attention with additive bias mask
/// (paper Eq. 1–5).
#[derive(Clone, Debug)]
pub struct SelfAttention {
    wq: usize,
    wk: usize,
    wv: usize,
    d_k: usize,
}

impl SelfAttention {
    /// Registers the query/key/value projections `d_model → d_k/d_k/d_v`.
    /// The paper sets `d_model = d_k = d_v = 32`; for residual
    /// connections `d_v` must equal `d_model`, which this constructor
    /// enforces by using `d_model` for the value width.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        d_model: usize,
        d_k: usize,
    ) -> Self {
        let wq = store.add(format!("{name}.wq"), Init::PAPER_HIDDEN.build(rng, d_model, d_k));
        let wk = store.add(format!("{name}.wk"), Init::PAPER_HIDDEN.build(rng, d_model, d_k));
        let wv = store.add(format!("{name}.wv"), Init::PAPER_HIDDEN.build(rng, d_model, d_model));
        Self { wq, wk, wv, d_k }
    }

    /// The forward pass: `x` is `l×d_model`, `mask` (if given) is an
    /// `l×l` additive bias (`0` or `−∞`). Returns the `l×d_model`
    /// sub-group representations `z_i` of Eq. (3) and the `l×l`
    /// attention distribution (the Table IV case-study diagnostics).
    pub fn forward<'p, F: Forward<'p>>(
        &self,
        f: &mut F,
        store: &'p ParamStore,
        x: &F::Value,
        mask: Option<&Matrix>,
    ) -> (F::Value, F::Value) {
        let wq = f.param_full(self.wq, store.value(self.wq));
        let wk = f.param_full(self.wk, store.value(self.wk));
        let wv = f.param_full(self.wv, store.value(self.wv));
        let q = f.matmul(x, &wq);
        let k = f.matmul(x, &wk);
        let v = f.matmul(x, &wv);
        let scores = f.matmul_transpose_b(&q, &k);
        let scores = f.scale(scores, 1.0 / (self.d_k as f32).sqrt());
        let scores = match mask {
            Some(m) => f.add_const(scores, m),
            None => scores,
        };
        let attn = f.softmax_rows(scores);
        let z = f.matmul(&attn, &v);
        (z, attn)
    }
}

/// One stacked *voting round*: social self-attention and FFN sub-layers,
/// each wrapped in residual + LayerNorm (paper §II-C and Fig. 2).
#[derive(Clone, Debug)]
pub struct TransformerLayer {
    attn: SelfAttention,
    ffn: FeedForward,
    ln1: LayerNorm,
    ln2: LayerNorm,
    dropout: Dropout,
}

impl TransformerLayer {
    /// Builds one layer with width `d_model`, attention width `d_k`,
    /// FFN width `d_ff`, and dropout probability `dropout_p`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        d_model: usize,
        d_k: usize,
        d_ff: usize,
        dropout_p: f32,
    ) -> Self {
        Self {
            attn: SelfAttention::new(store, rng, &format!("{name}.attn"), d_model, d_k),
            ffn: FeedForward::new(store, rng, &format!("{name}"), d_model, d_ff),
            ln1: LayerNorm::new(store, &format!("{name}.ln1"), d_model),
            ln2: LayerNorm::new(store, &format!("{name}.ln2"), d_model),
            dropout: Dropout::new(dropout_p),
        }
    }

    /// One voting round for the `l×d_model` member matrix `x`.
    /// Dropout applies only when `training`.
    pub fn forward<'p, F: Forward<'p>>(
        &self,
        f: &mut F,
        store: &'p ParamStore,
        rng: &mut impl Rng,
        x: &F::Value,
        mask: Option<&Matrix>,
        training: bool,
    ) -> F::Value {
        let (z, _) = self.attn.forward(f, store, x, mask);
        let z = self.dropout.forward(f, rng, z, training);
        let res = f.add(x, &z);
        let h = self.ln1.forward(f, store, &res);

        let ff = self.ffn.forward(f, store, &h);
        let ff = self.dropout.forward(f, rng, ff, training);
        let res2 = f.add(&h, &ff);
        self.ln2.forward(f, store, &res2)
    }
}

/// The two-layer "vanilla" attention scorer of Eq. (9)–(10):
/// given `n` rows of `[context ⊕ candidate]` features, produces a
/// softmax-normalised `1×n` weight row.
#[derive(Clone, Debug)]
pub struct VanillaAttention {
    l1: Linear,
    l2: Linear,
}

impl VanillaAttention {
    /// Builds a scorer over `in_dim`-wide concatenated rows with a
    /// `hidden`-wide first layer.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        in_dim: usize,
        hidden: usize,
    ) -> Self {
        Self {
            l1: Linear::new(store, rng, &format!("{name}.att1"), in_dim, hidden, Init::PAPER_HIDDEN),
            l2: Linear::new(store, rng, &format!("{name}.att2"), hidden, 1, Init::PAPER_HIDDEN),
        }
    }

    /// The raw (pre-softmax) scores as a `1×n` row — exposed so
    /// callers can add biases (e.g. SIGR's global-influence term)
    /// before normalising.
    pub fn raw_scores<'p, F: Forward<'p>>(&self, f: &mut F, store: &'p ParamStore, rows: &F::Value) -> F::Value {
        let h = self.l1.forward(f, store, rows);
        let h = f.relu(h);
        let s = self.l2.forward(f, store, &h); // n×1
        f.transpose(&s) // 1×n
    }

    /// The scorer: `rows` is `n×in_dim`; returns the `1×n` softmax
    /// weight row.
    pub fn weights<'p, F: Forward<'p>>(&self, f: &mut F, store: &'p ParamStore, rows: &F::Value) -> F::Value {
        let s = self.raw_scores(f, store, rows);
        f.softmax_rows(s)
    }

    /// Weighted aggregation: softmax weights over `rows` (`n×in_dim`)
    /// applied to `values` (`n×d`), returning `1×d`.
    pub fn aggregate<'p, F: Forward<'p>>(
        &self,
        f: &mut F,
        store: &'p ParamStore,
        rows: &F::Value,
        values: &F::Value,
    ) -> F::Value {
        let w = self.weights(f, store, rows);
        f.matmul(&w, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupsa_tensor::check::assert_grad_matches;
    use groupsa_tensor::rng::seeded;
    use groupsa_tensor::{Eager, Graph};
    use std::borrow::Cow;

    fn members(l: usize, d: usize) -> Matrix {
        Matrix::from_fn(l, d, |r, c| ((r * d + c) as f32 * 0.37).sin())
    }

    #[test]
    fn social_bias_mask_shapes_and_diagonal() {
        let allowed = vec![
            vec![false, true, false],
            vec![true, false, false],
            vec![false, false, false],
        ];
        let m = social_bias_mask(&allowed);
        assert_eq!(m.shape(), (3, 3));
        // Diagonal always open even though allowed[i][i] = false.
        for i in 0..3 {
            assert_eq!(m[(i, i)], 0.0);
        }
        assert_eq!(m[(0, 1)], 0.0);
        assert_eq!(m[(1, 0)], 0.0);
        assert_eq!(m[(0, 2)], f32::NEG_INFINITY);
        assert_eq!(m[(2, 0)], f32::NEG_INFINITY);
    }

    #[test]
    fn attention_rows_are_distributions() {
        let mut rng = seeded(1);
        let mut store = ParamStore::new();
        let attn = SelfAttention::new(&mut store, &mut rng, "a", 8, 8);
        let x = members(4, 8);
        let (_, w) = attn.forward(&mut Eager, &store, &Cow::Borrowed(&x), None);
        for row in w.rows_iter() {
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn isolated_member_attends_only_to_self() {
        let mut rng = seeded(2);
        let mut store = ParamStore::new();
        let attn = SelfAttention::new(&mut store, &mut rng, "a", 8, 8);
        let x = members(3, 8);
        // Member 2 has no social ties inside the group.
        let allowed = vec![
            vec![false, true, false],
            vec![true, false, false],
            vec![false, false, false],
        ];
        let mask = social_bias_mask(&allowed);
        let (z, w) = attn.forward(&mut Eager, &store, &Cow::Borrowed(&x), Some(&mask));
        assert!((w[(2, 2)] - 1.0).abs() < 1e-5, "isolated member weight on self: {}", w[(2, 2)]);
        assert_eq!(w[(2, 0)], 0.0);
        assert_eq!(w[(2, 1)], 0.0);
        // Its output is exactly its own value projection.
        let v = x.matmul(store.value_of_wv(&attn));
        assert!(z.row(2).iter().zip(v.row(2)).all(|(a, b)| (a - b).abs() < 1e-5));
    }

    #[test]
    fn full_mask_matches_unmasked() {
        let mut rng = seeded(3);
        let mut store = ParamStore::new();
        let attn = SelfAttention::new(&mut store, &mut rng, "a", 6, 6);
        let x = members(4, 6);
        let allowed = vec![vec![true; 4]; 4];
        let mask = social_bias_mask(&allowed);
        let (z1, _) = attn.forward(&mut Eager, &store, &Cow::Borrowed(&x), None);
        let (z2, _) = attn.forward(&mut Eager, &store, &Cow::Borrowed(&x), Some(&mask));
        assert!(z1.approx_eq(&z2, 1e-6));
    }

    #[test]
    fn graph_and_inference_agree_masked() {
        let mut rng = seeded(4);
        let mut store = ParamStore::new();
        let attn = SelfAttention::new(&mut store, &mut rng, "a", 6, 4);
        let x = members(3, 6);
        let allowed = vec![
            vec![false, true, true],
            vec![true, false, false],
            vec![true, false, false],
        ];
        let mask = social_bias_mask(&allowed);
        let mut g = Graph::new();
        let xs = g.leaf(x.clone());
        let (y, _) = attn.forward(&mut g, &store, &xs, Some(&mask));
        let (z, _) = attn.forward(&mut Eager, &store, &Cow::Borrowed(&x), Some(&mask));
        assert!(g.value(y).approx_eq(&z, 1e-5));
    }

    #[test]
    fn attention_gradient_check() {
        let mut rng = seeded(5);
        let mut store = ParamStore::new();
        let attn = SelfAttention::new(&mut store, &mut rng, "a", 4, 4);
        let x0 = members(3, 4);
        let allowed = vec![
            vec![false, true, false],
            vec![true, false, true],
            vec![false, true, false],
        ];
        let mask = social_bias_mask(&allowed);
        assert_grad_matches(&x0, 1e-2, 5e-2, |m| {
            let mut g = Graph::new();
            let x = g.leaf(m.clone());
            let (z, _) = attn.forward(&mut g, &store, &x, Some(&mask));
            let loss = g.mean_all(z);
            (g.value(loss).scalar(), g.backward(loss).get(x).unwrap().clone())
        });
    }

    #[test]
    fn transformer_layer_preserves_shape_and_agrees() {
        let mut rng = seeded(6);
        let mut store = ParamStore::new();
        let layer = TransformerLayer::new(&mut store, &mut rng, "t", 8, 8, 16, 0.0);
        let x = members(5, 8);
        let mut g = Graph::new();
        let xs = g.leaf(x.clone());
        let mut drng = seeded(0);
        let y = layer.forward(&mut g, &store, &mut drng, &xs, None, false);
        assert_eq!(g.value(y).shape(), (5, 8));
        assert!(g.value(y).approx_eq(&layer.forward(&mut Eager, &store, &mut seeded(0), &Cow::Borrowed(&x), None, false), 1e-4));
    }

    #[test]
    fn transformer_layer_gradient_check() {
        let mut rng = seeded(7);
        let mut store = ParamStore::new();
        let layer = TransformerLayer::new(&mut store, &mut rng, "t", 4, 4, 8, 0.0);
        let x0 = members(3, 4);
        assert_grad_matches(&x0, 1e-2, 8e-2, |m| {
            let mut g = Graph::new();
            let x = g.leaf(m.clone());
            let mut drng = seeded(0);
            let y = layer.forward(&mut g, &store, &mut drng, &x, None, false);
            let w = g.leaf(Matrix::from_fn(3, 4, |r, c| ((r + c) as f32).cos()));
            let p = g.mul_elem(y, w);
            let loss = g.sum_all(p);
            (g.value(loss).scalar(), g.backward(loss).get(x).unwrap().clone())
        });
    }

    #[test]
    fn vanilla_attention_weights_form_distribution() {
        let mut rng = seeded(8);
        let mut store = ParamStore::new();
        let va = VanillaAttention::new(&mut store, &mut rng, "v", 6, 8);
        let rows = Matrix::from_fn(5, 6, |r, c| (r as f32 - c as f32) * 0.2);
        let w = va.weights(&mut Eager, &store, &Cow::Borrowed(&rows));
        assert_eq!(w.shape(), (1, 5));
        assert!((w.sum() - 1.0).abs() < 1e-5);
        assert!(w.as_slice().iter().all(|&p| p > 0.0));
    }

    #[test]
    fn vanilla_attention_aggregate_is_convex_combination() {
        let mut rng = seeded(9);
        let mut store = ParamStore::new();
        let va = VanillaAttention::new(&mut store, &mut rng, "v", 4, 8);
        let rows = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.1);
        let values = Matrix::from_fn(3, 2, |r, _| r as f32);
        let agg = va.aggregate(&mut Eager, &store, &Cow::Borrowed(&rows), &Cow::Borrowed(&values));
        // Convex combination of {0, 1, 2} must lie in [0, 2].
        assert!(agg.as_slice().iter().all(|&x| (0.0..=2.0).contains(&x)));
    }

    #[test]
    fn vanilla_attention_graph_matches_inference() {
        let mut rng = seeded(10);
        let mut store = ParamStore::new();
        let va = VanillaAttention::new(&mut store, &mut rng, "v", 4, 6);
        let rows = Matrix::from_fn(4, 4, |r, c| ((r * 3 + c) as f32 * 0.21).cos());
        let values = Matrix::from_fn(4, 3, |r, c| (r + c) as f32 * 0.5);
        let mut g = Graph::new();
        let rs = g.leaf(rows.clone());
        let vs = g.leaf(values.clone());
        let agg = va.aggregate(&mut g, &store, &rs, &vs);
        assert!(g.value(agg).approx_eq(&va.aggregate(&mut Eager, &store, &Cow::Borrowed(&rows), &Cow::Borrowed(&values)), 1e-5));
    }
}

#[cfg(test)]
impl ParamStore {
    /// Test helper: the raw value-projection of a [`SelfAttention`].
    fn value_of_wv(&self, attn: &SelfAttention) -> &Matrix {
        self.value(attn.wv)
    }
}
