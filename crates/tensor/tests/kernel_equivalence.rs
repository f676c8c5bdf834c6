//! Bit-identity pins for the vectorization-friendly kernel rewrites.
//!
//! The tiled [`Matrix::matmul`] and register-blocked
//! [`Matrix::matmul_transpose_b`] promise results *bit-identical* to
//! their retained naive references (`matmul_naive`,
//! `matmul_transpose_b_naive`) — not merely close. That promise is
//! what lets the serve/digest determinism contract survive kernel
//! rewrites, so it is pinned here across:
//!
//! * odd and prime dimensions (0, 1, 2, 3, 5, 7, 13, 17, 31, 33), and
//!   column counts crossing every output-tile boundary of `matmul`
//!   (32-wide, 8-wide and single-column tiles; the `n == 1` matvec);
//! * planted exact zeros of either sign, ReLU-sparse and all-zero rows
//!   (whose result must be `+0.0`, sign included);
//! * non-finite values (`±inf`, `NaN`) in positions the sparsity skip
//!   must and must not touch.

use groupsa_tensor::{ops, Matrix};

/// Deterministic pseudo-random fill with planted zeros: roughly one in
/// five entries is exactly `0.0`, so 4-wide quads frequently contain a
/// mix of zero and non-zero coefficients.
fn filled(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    Matrix::from_fn(rows, cols, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let u = (state >> 33) as u32;
        if u % 5 == 0 {
            0.0
        } else {
            (u as f32 / u32::MAX as f32 - 0.5) * 4.0
        }
    })
}

/// Exact element-wise bit equality, treating any-NaN-bits as equal to
/// any-NaN-bits (the payload of a propagated NaN is not part of the
/// contract; *whether* an element is NaN is).
fn assert_bits_equal(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shapes differ");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        let same = x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        assert!(same, "{what}: element {i} differs: {x:?} ({:#010x}) vs {y:?} ({:#010x})", x.to_bits(), y.to_bits());
    }
}

const DIMS: &[usize] = &[0, 1, 2, 3, 5, 7, 13, 17, 31, 33];

#[test]
fn blocked_matmul_matches_naive_across_prime_shapes() {
    for &m in DIMS {
        for &k in DIMS {
            for &n in &[0usize, 1, 3, 5, 8, 17, 33] {
                let a = filled(m, k, (m * 131 + k * 7 + n) as u64);
                let b = filled(k, n, (m + k * 17 + n * 3) as u64 + 999);
                assert_bits_equal(
                    &a.matmul(&b),
                    &a.matmul_naive(&b),
                    &format!("matmul {m}x{k}·{k}x{n}"),
                );
            }
        }
    }
}

#[test]
fn blocked_matmul_transpose_b_matches_naive_across_prime_shapes() {
    for &m in DIMS {
        for &k in DIMS {
            for &n in &[0usize, 1, 2, 3, 4, 5, 7, 17, 33] {
                let a = filled(m, k, (m * 31 + k + n * 11) as u64);
                let b = filled(n, k, (m + k * 5 + n * 13) as u64 + 4242);
                assert_bits_equal(
                    &a.matmul_transpose_b(&b),
                    &a.matmul_transpose_b_naive(&b),
                    &format!("matmul_transpose_b {m}x{k}·({n}x{k})T"),
                );
            }
        }
    }
}

#[test]
fn sparsity_skip_semantics_survive_blocking() {
    // Column p of A is exactly zero; row p of B is poisoned with inf /
    // NaN. The naive kernel's sparsity skip never touches that row, so
    // the output stays finite — the blocked kernel must reproduce
    // that, including when the zero sits anywhere inside a 4-quad.
    for zero_col in 0..9usize {
        let k = 9;
        let a = Matrix::from_fn(5, k, |r, c| {
            if c == zero_col {
                0.0
            } else {
                (r * k + c) as f32 * 0.25 - 2.0
            }
        });
        let b = Matrix::from_fn(k, 7, |r, c| {
            if r == zero_col {
                if c % 2 == 0 {
                    f32::INFINITY
                } else {
                    f32::NAN
                }
            } else {
                (r + c) as f32 * 0.5 - 1.0
            }
        });
        let blocked = a.matmul(&b);
        let naive = a.matmul_naive(&b);
        assert!(naive.is_finite(), "skip keeps poisoned row out (zero_col={zero_col})");
        assert_bits_equal(&blocked, &naive, &format!("poisoned matmul zero_col={zero_col}"));
    }
}

#[test]
fn negative_zero_coefficients_are_skipped_identically() {
    // `-0.0 == 0.0` is true, so both kernels must skip negative zeros
    // too — multiplying through would flip signs of zero and change
    // parameter-checksum bits downstream.
    let mut a = filled(4, 8, 7);
    a.as_mut_slice()[3] = -0.0;
    a.as_mut_slice()[9] = -0.0;
    let b = filled(8, 6, 8);
    assert_bits_equal(&a.matmul(&b), &a.matmul_naive(&b), "matmul with -0.0");
    let bt = filled(6, 8, 9);
    assert_bits_equal(
        &a.matmul_transpose_b(&bt),
        &a.matmul_transpose_b_naive(&bt),
        "matmul_transpose_b with -0.0",
    );
}

#[test]
fn nonfinite_inputs_propagate_identically() {
    // When the coefficient is non-zero, inf and NaN must flow through
    // both kernels the same way (no skip applies).
    let mut a = filled(5, 7, 21);
    a.as_mut_slice()[2] = f32::INFINITY;
    a.as_mut_slice()[11] = f32::NEG_INFINITY;
    a.as_mut_slice()[20] = f32::NAN;
    let b = filled(7, 5, 22);
    assert_bits_equal(&a.matmul(&b), &a.matmul_naive(&b), "nonfinite matmul");
    let bt = filled(5, 7, 23);
    assert_bits_equal(
        &a.matmul_transpose_b(&bt),
        &a.matmul_transpose_b_naive(&bt),
        "nonfinite matmul_transpose_b",
    );
}

#[test]
fn softmax_rows_inplace_matches_allocating_softmax_rows() {
    for &(rows, cols) in &[(1usize, 1usize), (3, 5), (7, 13), (17, 31), (5, 1)] {
        let mut m = filled(rows, cols, (rows * 100 + cols) as u64);
        // Plant a fully-masked row and a partially-masked row.
        if rows >= 2 && cols >= 2 {
            m.row_mut(0).iter_mut().for_each(|x| *x = f32::NEG_INFINITY);
            m.row_mut(1)[0] = f32::NEG_INFINITY;
        }
        let reference = ops::softmax_rows(&m);
        let mut inplace = m.clone();
        ops::softmax_rows_inplace(&mut inplace);
        assert_bits_equal(&inplace, &reference, &format!("softmax {rows}x{cols}"));
    }
}

#[test]
fn blocked_kernels_agree_with_explicit_transpose_composition() {
    // Structural cross-check on plain finite data: A·Bᵀ via the
    // register-blocked kernel equals A·(Bᵀ) via the blocked matmul.
    // Both accumulate k-ascending per element, so even this pair is
    // bit-identical on data with no planted zeros.
    let a = Matrix::from_fn(13, 17, |r, c| ((r * 17 + c) as f32 * 0.731).sin());
    let b = Matrix::from_fn(11, 17, |r, c| ((r * 13 + c) as f32 * 0.417).cos());
    assert_bits_equal(
        &a.matmul_transpose_b(&b),
        &a.matmul(&b.transpose()),
        "A·Bᵀ vs A·(Bᵀ)",
    );
}

/// Column counts that cross every output-tile boundary of the tiled
/// `matmul` (32-wide, then 8-wide, then single columns).
const TILE_NS: &[usize] = &[8, 31, 32, 33, 40, 64, 65];

#[test]
fn tiled_matmul_matches_naive_across_tile_boundaries() {
    for &n in TILE_NS {
        for &m in &[1usize, 2, 4, 9] {
            for &k in &[1usize, 7, 32, 96] {
                let a = filled(m, k, (m * 7 + k * 13 + n) as u64);
                let b = filled(k, n, (m + k + n * 29) as u64 + 77);
                assert_bits_equal(&a.matmul(&b), &a.matmul_naive(&b), &format!("matmul {m}x{k}·{k}x{n}"));
            }
        }
    }
}

/// Post-ReLU activations: every row at least half exact `+0.0`, and
/// every third row entirely zero.
fn relu_sparse(rows: usize, cols: usize, seed: u64) -> Matrix {
    let dense = filled(rows, cols, seed);
    Matrix::from_fn(rows, cols, |r, c| if r % 3 == 2 || c % 2 == 0 { 0.0 } else { dense[(r, c)].max(0.0) })
}

#[test]
fn relu_sparse_rows_match_naive_and_zero_rows_stay_positive_zero() {
    for &n in [1usize].iter().chain(TILE_NS) {
        for &(m, k) in &[(1usize, 32usize), (7, 32), (8, 32), (17, 33), (256, 32)] {
            let a = relu_sparse(m, k, (m * 3 + k + n) as u64);
            let b = filled(k, n, (m + k * 11 + n) as u64 + 5);
            let fast = a.matmul(&b);
            assert_bits_equal(&fast, &a.matmul_naive(&b), &format!("relu-sparse matmul {m}x{k}·{k}x{n}"));
            for r in (2..m).step_by(3) {
                for x in fast.row(r) {
                    assert_eq!(x.to_bits(), 0.0f32.to_bits(), "all-zero row {r} of {m}x{k}·{k}x{n} gave {x:?}");
                }
            }
        }
    }
}

#[test]
fn negative_zero_coefficients_match_naive_in_matvec_and_tiles() {
    for &n in [1usize].iter().chain(TILE_NS) {
        let mut a = filled(11, 19, n as u64);
        for (i, x) in a.as_mut_slice().iter_mut().enumerate() {
            if i % 4 == 1 {
                *x = -0.0;
            }
        }
        // A whole row of -0.0 must still produce +0.0 results.
        a.row_mut(5).fill(-0.0);
        let b = filled(19, n, n as u64 + 31);
        let fast = a.matmul(&b);
        assert_bits_equal(&fast, &a.matmul_naive(&b), &format!("-0.0 coefficients, n={n}"));
        assert!(fast.row(5).iter().all(|x| x.to_bits() == 0.0f32.to_bits()), "-0.0 row, n={n}");
    }
}

#[test]
fn matvec_zero_coefficients_keep_nonfinite_b_out() {
    // Column `zero_col` of A is zero in every row (mixed signs) while
    // b[zero_col] is ±inf or NaN: the select must discard those
    // products exactly as the naive skip never forms them. Rows with a
    // non-zero coefficient facing a poisoned b elsewhere still
    // propagate it.
    for &m in &[1usize, 3, 8, 13, 16] {
        for &k in &[5usize, 8, 17] {
            for (pi, poison) in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN].into_iter().enumerate() {
                let zero_col = (m + k + pi) % k;
                let mut a = filled(m, k, (m * k + pi) as u64);
                for r in 0..m {
                    a[(r, zero_col)] = if r % 2 == 0 { 0.0 } else { -0.0 };
                }
                let mut b = filled(k, 1, (m + k + pi) as u64 + 3);
                b[(zero_col, 0)] = poison;
                let naive = a.matmul_naive(&b);
                assert!(naive.is_finite(), "skip keeps b[{zero_col}] out ({m}x{k})");
                assert_bits_equal(&a.matmul(&b), &naive, &format!("poisoned matvec {m}x{k} ({poison:?})"));

                // A live coefficient on a poisoned entry of b.
                let live_col = (zero_col + 1) % k;
                if live_col != zero_col {
                    b[(live_col, 0)] = poison;
                    a[(0, live_col)] = 1.5;
                    assert_bits_equal(
                        &a.matmul(&b),
                        &a.matmul_naive(&b),
                        &format!("poisoned matvec with live coefficient {m}x{k} ({poison:?})"),
                    );
                }
            }
        }
    }
}

/// Row counts around the 4-row register blocks of the AVX-512 build:
/// below one block, exactly one or two, one short of or past a block
/// boundary (so the `m mod 4` rows run as single-row tiles), and the
/// serve towers' 256-row chunk.
const BLOCK_MS: &[usize] = &[3, 4, 5, 7, 8, 9, 256];
/// Column counts crossing the tile widths inside each block, plus the
/// `n == 1` matvec.
const BLOCK_NS: &[usize] = &[1, 8, 31, 32, 33, 40];

/// `filled` with every exact zero replaced, so no block can skip.
fn zero_free(rows: usize, cols: usize, seed: u64) -> Matrix {
    filled(rows, cols, seed).map(|x| if x == 0.0 { 0.75 } else { x })
}

/// `filled` with `±inf` and NaN planted in about one entry in seven.
fn poisoned(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut m = filled(rows, cols, seed);
    for (i, x) in m.as_mut_slice().iter_mut().enumerate() {
        if (i * 5 + seed as usize).is_multiple_of(7) {
            *x = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][i % 3];
        }
    }
    m
}

#[test]
fn row_blocks_match_naive_on_every_exactness_path() {
    for &m in BLOCK_MS {
        for &n in BLOCK_NS {
            for &k in &[1usize, 7, 96] {
                let seed = (m * 1009 + n * 31 + k) as u64;
                // No zero coefficient, non-finite `b`: blocks run dense
                // because the skip could never fire.
                let (a, b) = (zero_free(m, k, seed), poisoned(k, n, seed + 1));
                assert_bits_equal(&a.matmul(&b), &a.matmul_naive(&b), &format!("zero-free {m}x{k}·{k}x{n}"));
                // Zero coefficients, finite `b`: blocks run dense
                // because each skipped product is a zero.
                let (a, b) = (filled(m, k, seed + 2), filled(k, n, seed + 3));
                assert_bits_equal(&a.matmul(&b), &a.matmul_naive(&b), &format!("zeros, finite {m}x{k}·{k}x{n}"));
                // Zero coefficients, non-finite `b`: blocks holding a
                // zero fall back to single-row tiles that skip it.
                let (a, b) = (filled(m, k, seed + 4), poisoned(k, n, seed + 5));
                assert_bits_equal(&a.matmul(&b), &a.matmul_naive(&b), &format!("zeros, poisoned {m}x{k}·{k}x{n}"));
            }
        }
    }
}

#[test]
fn one_zero_in_a_row_block_keeps_a_poisoned_b_row_out() {
    // A 4-row block whose only zero coefficient (of either sign) faces
    // the one k-row of `b` that holds ±inf and NaN. The naive skip never
    // forms those products, so the output is finite; a block that added
    // them would read NaN.
    let k = 12;
    let zero_col = 5;
    for zero in [0.0f32, -0.0] {
        for n in [8usize, 32, 33] {
            let mut a = zero_free(4, k, n as u64);
            a[(2, zero_col)] = zero;
            let mut b = filled(k, n, n as u64 + 1);
            let naive = a.matmul_naive(&b);
            assert_bits_equal(&a.matmul(&b), &naive, &format!("zero {zero:?} against a finite b, n={n}"));

            for (c, x) in b.row_mut(zero_col).iter_mut().enumerate() {
                *x = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][c % 3];
            }
            let naive = a.matmul_naive(&b);
            assert!(naive.row(2).iter().all(|x| x.is_finite()), "the skip keeps row {zero_col} of b out");
            assert_bits_equal(&a.matmul(&b), &naive, &format!("zero {zero:?} against a poisoned b, n={n}"));
        }
    }
}
