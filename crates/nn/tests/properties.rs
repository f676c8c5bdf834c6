//! Property-based tests: invariants of layers, losses and optimizers.

use groupsa_nn::attention::social_bias_mask;
use groupsa_nn::loss::bpr_one_vs_rest;
use groupsa_nn::optim::{Adam, Optimizer, Sgd};
use groupsa_nn::{Init, LayerNorm, Mlp, ParamStore, SelfAttention, VanillaAttention};
use groupsa_tensor::rng::seeded;
use groupsa_tensor::{Eager, Forward, Graph, Matrix};
use std::borrow::Cow;
use proptest::prelude::*;

fn matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = seeded(seed);
    groupsa_tensor::rng::gaussian_matrix(&mut rng, rows, cols, 0.0, 1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn attention_rows_always_distributions(l in 1usize..8, seed in 0u64..500) {
        let mut rng = seeded(seed);
        let mut store = ParamStore::new();
        let attn = SelfAttention::new(&mut store, &mut rng, "a", 8, 8);
        let x = matrix(l, 8, seed ^ 1);
        let (_, w) = attn.forward(&mut Eager, &store, &Cow::Borrowed(&x), None);
        for row in w.rows_iter() {
            let s: f32 = row.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4, "row sum {s}");
            prop_assert!(row.iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
        }
    }

    #[test]
    fn masked_attention_respects_arbitrary_masks(l in 2usize..7, seed in 0u64..300) {
        let mut rng = seeded(seed);
        let mut store = ParamStore::new();
        let attn = SelfAttention::new(&mut store, &mut rng, "a", 6, 6);
        let x = matrix(l, 6, seed ^ 2);
        // Random boolean adjacency.
        let allowed: Vec<Vec<bool>> = (0..l).map(|i| (0..l).map(|j| (i * 7 + j * 3 + seed as usize) % 3 == 0).collect()).collect();
        let mask = social_bias_mask(&allowed);
        let (_, w) = attn.forward(&mut Eager, &store, &Cow::Borrowed(&x), Some(&mask));
        for i in 0..l {
            for j in 0..l {
                if i != j && !allowed[i][j] {
                    prop_assert_eq!(w[(i, j)], 0.0, "masked edge {}→{} must get zero weight", i, j);
                }
            }
            prop_assert!(w[(i, i)] > 0.0, "diagonal stays open");
        }
    }

    #[test]
    fn vanilla_attention_invariant_under_row_count(n in 1usize..9, seed in 0u64..300) {
        let mut rng = seeded(seed);
        let mut store = ParamStore::new();
        let va = VanillaAttention::new(&mut store, &mut rng, "v", 4, 6);
        let rows = matrix(n, 4, seed ^ 3);
        let w = va.weights(&mut Eager, &store, &Cow::Borrowed(&rows));
        prop_assert_eq!(w.shape(), (1, n));
        prop_assert!((w.sum() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn layer_norm_output_row_stats(rows in 1usize..6, seed in 0u64..300) {
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 8);
        let x = matrix(rows, 8, seed ^ 4);
        let y = ln.forward(&mut Eager, &store, &Cow::Borrowed(&x));
        for row in y.rows_iter() {
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            prop_assert!(mean.abs() < 1e-3, "fresh LN output rows are centred, mean {mean}");
        }
    }

    #[test]
    fn bpr_loss_positive_and_decreasing_in_margin(base in -3.0f32..3.0, gap in 0.01f32..4.0) {
        let loss_at = |margin: f32| {
            let mut g = Graph::new();
            let s = g.leaf(Matrix::from_vec(2, 1, vec![base + margin, base]));
            let l = bpr_one_vs_rest(&mut g, s);
            g.value(l).scalar()
        };
        let small = loss_at(gap * 0.5);
        let large = loss_at(gap);
        prop_assert!(small > 0.0 && large > 0.0);
        prop_assert!(large < small, "larger margin ⇒ smaller loss");
    }

    #[test]
    fn optimizers_reduce_a_convex_loss(seed in 0u64..200, lr in 0.005f32..0.1) {
        for which in 0..2 {
            let mut store = ParamStore::new();
            let slot = store.add("theta", matrix(1, 4, seed));
            let target = matrix(1, 4, seed ^ 9);
            let mut adam;
            let mut sgd;
            let opt: &mut dyn Optimizer = if which == 0 {
                adam = Adam::new(lr);
                &mut adam
            } else {
                sgd = Sgd::new(lr);
                &mut sgd
            };
            let loss = |store: &ParamStore| {
                store.value(slot).sub(&target).frobenius_norm()
            };
            let before = loss(&store);
            for _ in 0..60 {
                let mut g = Graph::new();
                let th = g.param_full(slot, store.value(slot));
                let t = g.leaf(target.clone());
                let d = g.sub(th, t);
                let sq = g.mul_elem(d, d);
                let l = g.sum_all(sq);
                let grads = g.backward(l);
                store.accumulate(&g, &grads);
                opt.step(&mut store);
            }
            let after = loss(&store);
            prop_assert!(after < before, "optimizer {which} must make progress: {before} → {after}");
        }
    }

    #[test]
    fn mlp_is_deterministic_and_finite(seed in 0u64..300, rows in 1usize..6) {
        let mut rng = seeded(seed);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, &mut rng, "m", &[6, 10, 1], false);
        let x = matrix(rows, 6, seed ^ 5);
        let a = mlp.forward(&mut Eager, &store, &Cow::Borrowed(&x)).into_owned();
        let b = mlp.forward(&mut Eager, &store, &Cow::Borrowed(&x)).into_owned();
        prop_assert_eq!(a.clone(), b);
        prop_assert!(a.is_finite());
        prop_assert_eq!(a.shape(), (rows, 1));
    }

    #[test]
    fn glorot_init_is_bounded_and_seeded(rows in 1usize..30, cols in 1usize..30, seed in 0u64..500) {
        let a = Init::Glorot.build(&mut seeded(seed), rows, cols);
        let b = Init::Glorot.build(&mut seeded(seed), rows, cols);
        prop_assert_eq!(a.clone(), b);
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        prop_assert!(a.as_slice().iter().all(|&x| x.abs() <= limit));
    }
}
