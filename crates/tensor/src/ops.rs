//! Numerically stable scalar and row-wise operations.
//!
//! These free functions are shared between the forward pass of the autodiff
//! [`Graph`](crate::Graph) and gradient-free inference paths (evaluation,
//! the "fast" recommendation mode of paper §II-F).

use crate::Matrix;

/// Numerically stable logistic sigmoid `1 / (1 + e^{-x})`.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Numerically stable softplus `ln(1 + e^x)`.
///
/// Uses the identity `softplus(x) = max(x, 0) + ln(1 + e^{-|x|})`, which
/// never overflows and loses no precision for large `|x|`.
#[inline]
pub fn softplus(x: f32) -> f32 {
    x.max(0.0) + (-x.abs()).exp().ln_1p()
}

/// Rectified linear unit.
#[inline]
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// `log(Σ e^{x_i})` over a slice, stabilised by the running maximum.
///
/// Returns `-inf` for an empty slice (the sum of no exponentials).
pub fn log_sum_exp(xs: &[f32]) -> f32 {
    let m = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if m == f32::NEG_INFINITY {
        return f32::NEG_INFINITY;
    }
    m + xs.iter().map(|&x| (x - m).exp()).sum::<f32>().ln()
}

/// In-place stable softmax over a single slice.
///
/// Entries equal to `-inf` receive probability exactly `0`, which is how
/// the social bias matrix of paper Eq. (4)–(5) disables attention between
/// socially unconnected members. If *every* entry is `-inf` the result is
/// a uniform distribution (a group member with no in-group friends still
/// attends to themself in the model; this fallback keeps the function
/// total).
pub fn softmax_inplace(xs: &mut [f32]) {
    // Three slice-iterator passes (max, exp+sum, scale) — no indexing,
    // so the only bounds checks are the iterators' loop conditions,
    // and no allocation anywhere. The sum is accumulated serially in
    // element order on purpose: splitting it into SIMD lanes would
    // change the rounding and break the bit-identity contract the
    // digest tests enforce.
    let m = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if m == f32::NEG_INFINITY {
        let u = 1.0 / xs.len().max(1) as f32;
        xs.iter_mut().for_each(|x| *x = u);
        return;
    }
    let mut sum = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - m).exp();
        sum += *x;
    }
    let inv = 1.0 / sum;
    xs.iter_mut().for_each(|x| *x *= inv);
}

/// Row-wise stable softmax of a matrix.
pub fn softmax_rows(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    softmax_rows_inplace(&mut out);
    out
}

/// Row-wise stable softmax, overwriting the matrix.
///
/// The allocation-free twin of [`softmax_rows`] for inference hot
/// paths that own their logits (e.g. attention scores about to be
/// discarded): one [`softmax_inplace`] per row, no clone.
pub fn softmax_rows_inplace(m: &mut Matrix) {
    for r in 0..m.rows() {
        softmax_inplace(m.row_mut(r));
    }
}

/// Shifts `row` to zero mean and scales it to unit variance
/// (`eps`-regularised) in place, returning the reciprocal standard
/// deviation it scaled by — shared by layer norm's forward and backward.
pub(crate) fn normalize_row(row: &mut [f32], eps: f32) -> f32 {
    let n = row.len() as f32;
    let mean = row.iter().sum::<f32>() / n;
    let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n;
    let rstd = 1.0 / (var + eps).sqrt();
    row.iter_mut().for_each(|v| *v = (*v - mean) * rstd);
    rstd
}

/// Row-wise layer normalisation with affine parameters: each row is
/// normalised by [`normalize_row`], then scaled by `gamma` and shifted
/// by `beta` (both `1×cols`).
///
/// # Panics
/// If `gamma` or `beta` is not `1×cols`.
pub fn layer_norm_rows(x: &Matrix, gamma: &Matrix, beta: &Matrix, eps: f32) -> Matrix {
    assert_eq!(gamma.shape(), (1, x.cols()), "layer_norm_rows: gamma must be 1x{}", x.cols());
    assert_eq!(beta.shape(), (1, x.cols()), "layer_norm_rows: beta must be 1x{}", x.cols());
    let mut out = x.clone();
    for r in 0..x.rows() {
        let row = out.row_mut(r);
        normalize_row(row, eps);
        for ((v, &g), &b) in row.iter_mut().zip(gamma.as_slice()).zip(beta.as_slice()) {
            *v = *v * g + b;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_basics() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(50.0) > 0.999_999);
        assert!(sigmoid(-50.0) < 1e-6);
        // Extreme inputs stay finite.
        assert!(sigmoid(1e9).is_finite());
        assert!(sigmoid(-1e9).is_finite());
    }

    #[test]
    fn sigmoid_symmetry() {
        for &x in &[0.1, 1.0, 3.5, 10.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softplus_matches_naive_in_safe_range() {
        for &x in &[-5.0_f32, -1.0, 0.0, 0.5, 4.0] {
            let naive = (1.0 + x.exp()).ln();
            assert!((softplus(x) - naive).abs() < 1e-5, "x={x}");
        }
    }

    #[test]
    fn softplus_extremes() {
        assert!((softplus(100.0) - 100.0).abs() < 1e-4);
        assert!(softplus(-100.0).abs() < 1e-6);
        assert!(softplus(1e9).is_finite());
    }

    #[test]
    fn log_sum_exp_stable() {
        let v = [1000.0, 1000.0];
        assert!((log_sum_exp(&v) - (1000.0 + 2.0_f32.ln())).abs() < 1e-3);
        assert_eq!(log_sum_exp(&[]), f32::NEG_INFINITY);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut v = [1.0, 2.0, 3.0];
        softmax_inplace(&mut v);
        assert!((v.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(v[0] < v[1] && v[1] < v[2]);
    }

    #[test]
    fn softmax_masked_entries_get_zero() {
        let mut v = [0.5, f32::NEG_INFINITY, 1.5];
        softmax_inplace(&mut v);
        assert_eq!(v[1], 0.0);
        assert!((v[0] + v[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_all_masked_is_uniform() {
        let mut v = [f32::NEG_INFINITY; 4];
        softmax_inplace(&mut v);
        assert!(v.iter().all(|&x| (x - 0.25).abs() < 1e-7));
    }

    #[test]
    fn softmax_shift_invariance() {
        let mut a = [0.3_f32, -1.2, 2.0];
        let mut b = [100.3_f32, 99.0 - 0.2, 102.0];
        softmax_inplace(&mut a);
        softmax_inplace(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_rows_rowwise() {
        let m = Matrix::from_vec(2, 2, vec![0.0, 0.0, 10.0, 0.0]);
        let s = softmax_rows(&m);
        assert!((s[(0, 0)] - 0.5).abs() < 1e-6);
        assert!(s[(1, 0)] > 0.99);
    }

    #[test]
    fn layer_norm_normalises() {
        let x = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let g = Matrix::ones(1, 4);
        let b = Matrix::zeros(1, 4);
        let y = layer_norm_rows(&x, &g, &b, 1e-5);
        assert!(y.mean().abs() < 1e-5);
        let var = y.as_slice().iter().map(|v| v * v).sum::<f32>() / 4.0;
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layer_norm_affine() {
        let x = Matrix::from_vec(1, 2, vec![-1.0, 1.0]);
        let g = Matrix::from_vec(1, 2, vec![2.0, 2.0]);
        let b = Matrix::from_vec(1, 2, vec![5.0, 5.0]);
        let y = layer_norm_rows(&x, &g, &b, 1e-8);
        // normalised x is (-1, 1) already (unit variance), so y = 2*x + 5.
        assert!((y[(0, 0)] - 3.0).abs() < 1e-3);
        assert!((y[(0, 1)] - 7.0).abs() < 1e-3);
    }
}
