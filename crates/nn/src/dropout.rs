//! Inverted dropout.

use groupsa_tensor::{Forward, Matrix};
use rand::{Rng, RngExt};

/// Inverted dropout: during training each element is zeroed with
/// probability `p` and survivors are scaled by `1/(1−p)`, so inference
/// needs no rescaling. The paper uses `p = 0.1` on both datasets
/// (§III-E).
#[derive(Clone, Copy, Debug)]
pub struct Dropout {
    p: f32,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    /// If `p` is not in `[0, 1)`.
    pub fn new(p: f32) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0,1), got {p}");
        Self { p }
    }

    /// Drop probability.
    pub fn p(&self) -> f32 {
        self.p
    }

    /// Applies dropout to `x` when `training`; identity otherwise.
    pub fn forward<'p, F: Forward<'p>>(
        &self,
        f: &mut F,
        rng: &mut impl Rng,
        x: F::Value,
        training: bool,
    ) -> F::Value {
        // Exact-zero gate on the configured drop rate: p = 0.0 means
        // "dropout disabled", set literally, never computed.
        if !training || self.p == 0.0 { // lint: allow(float-eq)
            return x;
        }
        let (r, c) = f.value(&x).shape();
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mask = Matrix::from_fn(r, c, |_, _| if rng.random::<f32>() < keep { scale } else { 0.0 });
        f.mul_const(x, &mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupsa_tensor::rng::seeded;
    use groupsa_tensor::Graph;

    #[test]
    fn identity_when_not_training() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::ones(2, 2));
        let y = Dropout::new(0.5).forward(&mut g, &mut seeded(1), x, false);
        assert_eq!(x, y);
    }

    #[test]
    fn zero_probability_is_identity() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::ones(2, 2));
        let y = Dropout::new(0.0).forward(&mut g, &mut seeded(1), x, true);
        assert_eq!(x, y);
    }

    #[test]
    fn expected_value_is_preserved() {
        let mut rng = seeded(2);
        let d = Dropout::new(0.3);
        let mut total = 0.0;
        let trials = 200;
        for _ in 0..trials {
            let mut g = Graph::new();
            let x = g.leaf(Matrix::ones(10, 10));
            let y = d.forward(&mut g, &mut rng, x, true);
            total += g.value(y).mean();
        }
        let avg = total / trials as f32;
        assert!((avg - 1.0).abs() < 0.02, "inverted dropout should be unbiased, got {avg}");
    }

    #[test]
    fn surviving_elements_are_scaled() {
        let mut rng = seeded(3);
        let mut g = Graph::new();
        let x = g.leaf(Matrix::ones(5, 5));
        let y = Dropout::new(0.5).forward(&mut g, &mut rng, x, true);
        for &v in g.value(y).as_slice() {
            assert!(v == 0.0 || (v - 2.0).abs() < 1e-6, "unexpected value {v}");
        }
    }

    #[test]
    #[should_panic(expected = "must be in [0,1)")]
    fn invalid_probability_panics() {
        let _ = Dropout::new(1.0);
    }
}
