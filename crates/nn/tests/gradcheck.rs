//! Finite-difference gradient checks for the layers the voting scheme
//! depends on most: the socially-masked self-attention of Eq. (3)–(5)
//! and the BPR ranking losses of Eq. (21)/(24). Every analytic backward
//! pass is verified against `groupsa_tensor::check`'s central-difference
//! approximation — with respect to the *input* and with respect to every
//! registered *parameter*.

use groupsa_nn::attention::social_bias_mask;
use groupsa_nn::loss::{bpr_one_vs_rest, bpr_pairwise};
use groupsa_nn::{ParamStore, SelfAttention};
use groupsa_tensor::check::assert_grad_matches;
use groupsa_tensor::rng::{gaussian_matrix, seeded};
use groupsa_tensor::{Forward, Graph, Matrix};

fn members(l: usize, d: usize, seed: u64) -> Matrix {
    gaussian_matrix(&mut seeded(seed), l, d, 0.0, 0.8)
}

/// A sparse "friendship" pattern with an asymmetric structure, so the
/// mask actually changes the attention distribution.
fn ring_mask(l: usize) -> (Vec<Vec<bool>>, Matrix) {
    let allowed: Vec<Vec<bool>> =
        (0..l).map(|i| (0..l).map(|j| (i + 1) % l == j).collect()).collect();
    let mask = social_bias_mask(&allowed);
    (allowed, mask)
}

#[test]
fn masked_attention_input_gradient_matches_finite_differences() {
    let mut rng = seeded(11);
    let mut store = ParamStore::new();
    let attn = SelfAttention::new(&mut store, &mut rng, "a", 4, 4);
    let (_, mask) = ring_mask(4);
    let x0 = members(4, 4, 12);
    // A fixed non-uniform projection keeps every output coordinate in
    // the loss (mean_all alone would null out sign structure).
    let proj = Matrix::from_fn(4, 4, |r, c| ((2 * r + c) as f32 * 0.7).sin());
    assert_grad_matches(&x0, 1e-2, 5e-2, |m| {
        let mut g = Graph::new();
        let x = g.leaf(m.clone());
        let (z, _) = attn.forward(&mut g, &store, &x, Some(&mask));
        let w = g.leaf(proj.clone());
        let p = g.mul_elem(z, w);
        let loss = g.sum_all(p);
        (g.value(loss).scalar(), g.backward(loss).get(x).unwrap().clone())
    });
}

#[test]
fn masked_attention_parameter_gradients_match_finite_differences() {
    let mut rng = seeded(21);
    let mut store = ParamStore::new();
    let attn = SelfAttention::new(&mut store, &mut rng, "a", 4, 4);
    let (_, mask) = ring_mask(5);
    let x0 = members(5, 4, 22);
    // Check wq, wk and wv by perturbing each slot's value in turn and
    // reading the accumulated gradient back out of the store.
    for slot in 0..store.len() {
        let p0 = store.value(slot).clone();
        let name = store.get(slot).name().to_string();
        assert_grad_matches(&p0, 1e-2, 5e-2, |m| {
            store.get_mut(slot).value = m.clone();
            store.zero_grads();
            let mut g = Graph::new();
            let x = g.leaf(x0.clone());
            let (z, _) = attn.forward(&mut g, &store, &x, Some(&mask));
            let loss = g.mean_all(z);
            let scalar = g.value(loss).scalar();
            let grads = g.backward(loss);
            store.accumulate(&g, &grads);
            let analytic = store.get(slot).grad.clone();
            (scalar, analytic)
        });
        store.get_mut(slot).value = p0;
        eprintln!("parameter '{name}' gradient verified");
    }
}

#[test]
fn bpr_one_vs_rest_gradient_matches_finite_differences() {
    // 1 positive + 3 negatives, scores straddling zero.
    let s0 = Matrix::from_vec(4, 1, vec![0.9, -0.4, 0.15, 0.6]);
    assert_grad_matches(&s0, 1e-3, 1e-2, |m| {
        let mut g = Graph::new();
        let s = g.leaf(m.clone());
        let l = bpr_one_vs_rest(&mut g, s);
        (g.value(l).scalar(), g.backward(l).get(s).unwrap().clone())
    });
}

#[test]
fn bpr_pairwise_gradients_match_for_both_arguments() {
    let pos0 = Matrix::from_vec(3, 1, vec![0.8, -0.1, 0.3]);
    let neg0 = Matrix::from_vec(3, 1, vec![0.2, 0.5, -0.7]);
    assert_grad_matches(&pos0, 1e-3, 1e-2, |m| {
        let mut g = Graph::new();
        let pos = g.leaf(m.clone());
        let neg = g.leaf(neg0.clone());
        let l = bpr_pairwise(&mut g, pos, neg);
        (g.value(l).scalar(), g.backward(l).get(pos).unwrap().clone())
    });
    assert_grad_matches(&neg0, 1e-3, 1e-2, |m| {
        let mut g = Graph::new();
        let pos = g.leaf(pos0.clone());
        let neg = g.leaf(m.clone());
        let l = bpr_pairwise(&mut g, pos, neg);
        (g.value(l).scalar(), g.backward(l).get(neg).unwrap().clone())
    });
}

#[test]
fn attention_gradient_flows_through_bpr_end_to_end() {
    // Compose the two: member embeddings → masked self-attention →
    // linear score head → BPR. The gradient w.r.t. the embeddings must
    // still match finite differences through the whole chain.
    let mut rng = seeded(31);
    let mut store = ParamStore::new();
    let attn = SelfAttention::new(&mut store, &mut rng, "a", 4, 4);
    let (_, mask) = ring_mask(4);
    let x0 = members(4, 4, 32);
    let head = Matrix::from_fn(4, 1, |r, _| (r as f32 + 1.0) * 0.3);
    assert_grad_matches(&x0, 1e-2, 5e-2, |m| {
        let mut g = Graph::new();
        let x = g.leaf(m.clone());
        let (z, _) = attn.forward(&mut g, &store, &x, Some(&mask));
        let h = g.leaf(head.clone());
        let scores = g.matmul(z, h); // l×1: row 0 is "the positive"
        let l = bpr_one_vs_rest(&mut g, scores);
        (g.value(l).scalar(), g.backward(l).get(x).unwrap().clone())
    });
}

#[test]
fn masked_attention_gets_zero_gradient_from_masked_positions() {
    // With a mask that forbids everyone except self, member i's output
    // depends only on member i — so d output_row_0 / d x_row_1 must be
    // exactly zero, and the finite difference agrees.
    let l = 3;
    let allowed: Vec<Vec<bool>> = (0..l).map(|i| (0..l).map(|j| i == j).collect()).collect();
    let mask = social_bias_mask(&allowed);
    let mut rng = seeded(41);
    let mut store = ParamStore::new();
    let attn = SelfAttention::new(&mut store, &mut rng, "a", 4, 4);
    let x0 = members(l, 4, 42);

    let row0_sum = |m: &Matrix| {
        let mut g = Graph::new();
        let x = g.leaf(m.clone());
        let (z, _) = attn.forward(&mut g, &store, &x, Some(&mask));
        let r0 = g.slice_rows(z, 0, 1);
        let s = g.sum_all(r0);
        (g.value(s).scalar(), g.backward(s).get(x).unwrap().clone())
    };
    let (_, analytic) = row0_sum(&x0);
    for j in 1..l {
        for c in 0..4 {
            assert_eq!(
                analytic[(j, c)],
                0.0,
                "row 0 must not receive gradient from isolated member {j}"
            );
        }
    }
    assert_grad_matches(&x0, 1e-2, 5e-2, |m| row0_sum(m));
}
