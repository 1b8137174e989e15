//! Seeded random initializers for weights and features.
//!
//! Every generator takes an explicit [`rand::Rng`] so experiments are
//! reproducible end to end from a single seed.
//!
//! ```
//! use ppgnn_tensor::init;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let w = init::xavier_uniform(4, 8, &mut rng);
//! assert_eq!(w.shape(), (4, 8));
//! ```

use rand::Rng;

use crate::Matrix;

/// Uniform values in `[lo, hi)`.
pub fn uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut impl Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.random_range(lo..hi))
}

/// Standard-normal values via the Box–Muller transform (avoids a dependency
/// on `rand_distr`).
pub fn standard_normal(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| sample_normal(rng))
}

/// Normal values with the given `mean` and `std`.
pub fn normal(rows: usize, cols: usize, mean: f32, std: f32, rng: &mut impl Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| mean + std * sample_normal(rng))
}

/// Xavier/Glorot uniform initialization: `U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`. Standard for `tanh`/linear layers.
pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Matrix {
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(fan_in, fan_out, -a, a, rng)
}

/// Kaiming/He normal initialization: `N(0, sqrt(2 / fan_in))`. Standard for
/// ReLU networks (the SIGN/HOGA MLP heads).
pub fn he_normal(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Matrix {
    let std = (2.0 / fan_in as f32).sqrt();
    normal(fan_in, fan_out, 0.0, std, rng)
}

/// Draws [`sample_normal`] takes from its generator per value.
pub const NORMAL_DRAWS: u64 = 2;

/// One standard-normal value from the next [`NORMAL_DRAWS`] draws of
/// `rng` (Box–Muller): the per-element sampler behind [`standard_normal`]
/// and [`normal`], for fills that lay out their own values.
pub fn sample_normal(rng: &mut impl Rng) -> f32 {
    // Box–Muller; clamp u1 away from 0 so ln() stays finite.
    let u1: f32 = rng.random_range(f32::MIN_POSITIVE..1.0);
    let u2: f32 = rng.random();
    (-2.0f32 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn seeded_init_is_reproducible() {
        let a = xavier_uniform(5, 5, &mut StdRng::seed_from_u64(42));
        let b = xavier_uniform(5, 5, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
        let c = xavier_uniform(5, 5, &mut StdRng::seed_from_u64(43));
        assert!(a.max_abs_diff(&c) > 0.0);
    }

    #[test]
    fn xavier_respects_bound() {
        let mut rng = StdRng::seed_from_u64(0);
        let w = xavier_uniform(10, 20, &mut rng);
        let a = (6.0_f32 / 30.0).sqrt();
        assert!(w.as_slice().iter().all(|v| v.abs() <= a));
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(7);
        let w = normal(200, 200, 3.0, 0.5, &mut rng);
        let mean = w.mean();
        assert!((mean - 3.0).abs() < 0.02, "mean was {mean}");
        let var =
            w.as_slice().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / (w.len() as f32 - 1.0);
        assert!((var.sqrt() - 0.5).abs() < 0.02, "std was {}", var.sqrt());
    }

    #[test]
    fn samples_are_finite() {
        let mut rng = StdRng::seed_from_u64(9);
        let w = standard_normal(100, 10, &mut rng);
        assert!(w.as_slice().iter().all(|v| v.is_finite()));
    }
}
