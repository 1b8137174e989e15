use ppgnn_tensor::Matrix;

use crate::{Mode, Module, Param};

/// Rectified linear unit, `y = max(x, 0)`.
///
/// The training mask is recycled: `backward` hands the spent buffer back
/// to a scratch slot the next forward refills in place, so steady-state
/// training-mode forwards allocate nothing.
#[derive(Debug, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
    mask_scratch: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Module for Relu {
    fn forward(&mut self, x: &Matrix, mode: Mode) -> Matrix {
        let mut y = Matrix::default();
        self.forward_into(x, mode, &mut y);
        y
    }

    fn forward_into(&mut self, x: &Matrix, mode: Mode, out: &mut Matrix) {
        out.resize_to(x.rows(), x.cols());
        for (o, &v) in out.as_mut_slice().iter_mut().zip(x.as_slice()) {
            *o = v.max(0.0);
        }
        if mode == Mode::Train {
            let mut mask = self.mask_scratch.take().unwrap_or_default();
            mask.clear();
            mask.extend(x.as_slice().iter().map(|&v| v > 0.0));
            self.mask = Some(mask);
        }
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mask = self
            .mask
            .take()
            .expect("Relu::backward called without a training-mode forward");
        assert_eq!(
            mask.len(),
            grad_out.len(),
            "grad_out shape mismatch in Relu"
        );
        // The owned result is written once, through a select the compiler
        // vectorises. Not a multiply by 0/1: a masked NaN or negative
        // gradient must come out `+0.0`, not NaN or `-0.0`.
        let kept = grad_out.as_slice().iter().zip(&mask);
        let data = kept.map(|(&g, &keep)| if keep { g } else { 0.0 }).collect();
        self.mask_scratch = Some(mask);
        Matrix::from_vec(grad_out.rows(), grad_out.cols(), data)
            .expect("one value per gradient element")
    }

    fn params(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }
}

/// Parametric ReLU with a single learnable slope `α` for negative inputs:
/// `y = max(x, 0) + α · min(x, 0)`. SIGN's inception branches use this.
#[derive(Debug)]
pub struct PRelu {
    alpha: Param,
    cached_input: Option<Matrix>,
    /// Spent `cached_input` buffer awaiting refill by the next
    /// training-mode forward.
    input_scratch: Option<Matrix>,
}

impl PRelu {
    /// Creates a PReLU layer with the conventional initial slope `0.25`.
    pub fn new() -> Self {
        PRelu {
            alpha: Param::new(Matrix::full(1, 1, 0.25)),
            cached_input: None,
            input_scratch: None,
        }
    }

    /// Current negative-side slope.
    pub fn alpha(&self) -> f32 {
        self.alpha.value.get(0, 0)
    }
}

impl Default for PRelu {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for PRelu {
    fn forward(&mut self, x: &Matrix, mode: Mode) -> Matrix {
        let mut y = Matrix::default();
        self.forward_into(x, mode, &mut y);
        y
    }

    fn forward_into(&mut self, x: &Matrix, mode: Mode, out: &mut Matrix) {
        let a = self.alpha();
        out.resize_to(x.rows(), x.cols());
        for (o, &v) in out.as_mut_slice().iter_mut().zip(x.as_slice()) {
            *o = if v > 0.0 { v } else { a * v };
        }
        if mode == Mode::Train {
            let cached = match self.input_scratch.take() {
                Some(mut buf) => {
                    buf.resize_to(x.rows(), x.cols());
                    buf.as_mut_slice().copy_from_slice(x.as_slice());
                    buf
                }
                // ppgnn-analyze: allow(hot_path_alloc) -- first-call cold
                // path; steady state reuses `input_scratch`.
                None => x.clone(),
            };
            self.cached_input = Some(cached);
        }
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let x = self
            .cached_input
            .take()
            .expect("PRelu::backward called without a training-mode forward");
        assert_eq!(
            x.shape(),
            grad_out.shape(),
            "grad_out shape mismatch in PRelu"
        );
        let a = self.alpha();
        // ppgnn-analyze: allow(hot_path_alloc) -- gradient result is
        // produced by value; `backward` returns an owned Matrix.
        let mut gx = grad_out.clone();
        let mut galpha = 0.0f32;
        for ((g, &xv), gout) in gx
            .as_mut_slice()
            .iter_mut()
            .zip(x.as_slice())
            .zip(grad_out.as_slice())
        {
            if xv > 0.0 {
                // gradient passes through unchanged
            } else {
                galpha += gout * xv;
                *g = a * gout;
            }
        }
        let cur = self.alpha.grad.get(0, 0);
        self.alpha.grad.set(0, 0, cur + galpha);
        self.input_scratch = Some(x);
        gx
    }

    fn params(&mut self) -> Vec<&mut Param> {
        vec![&mut self.alpha]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut r = Relu::new();
        let x = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]);
        let y = r.forward(&x, Mode::Train);
        assert_eq!(y.row(0), &[0.0, 0.0, 2.0]);
        let g = r.backward(&Matrix::full(1, 3, 1.0));
        assert_eq!(g.row(0), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn relu_backward_select_matches_the_branching_loop_bit_for_bit() {
        // Every special gradient value under both mask values, and enough
        // ordinary ones to cover a vectorised body plus its tail.
        let special = [
            -0.0f32,
            0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -3.5,
            1e-40,
        ];
        let grads: Vec<f32> = (0..77)
            .map(|i| {
                if i < 14 {
                    special[i % 7]
                } else {
                    i as f32 - 40.5
                }
            })
            .collect();
        let x = Matrix::from_fn(7, 11, |r, c| if (r * 11 + c) % 14 < 7 { 1.0 } else { -1.0 });
        let grad_out = Matrix::from_vec(7, 11, grads).unwrap();
        let mut r = Relu::new();
        r.forward(&x, Mode::Train);
        let got = r.backward(&grad_out);
        // The loop this replaced: clone, then zero where the input was not positive.
        let mut expect = grad_out.clone();
        for (v, &xv) in expect.as_mut_slice().iter_mut().zip(x.as_slice()) {
            if xv <= 0.0 {
                *v = 0.0;
            }
        }
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&expect));
        assert_eq!(got.shape(), (7, 11));
        for s in special {
            let under = |keep: bool| {
                (0..77).any(|i| {
                    grad_out.as_slice()[i].to_bits() == s.to_bits()
                        && (x.as_slice()[i] > 0.0) == keep
                })
            };
            assert!(
                under(true) && under(false),
                "{s} not seen under both mask values"
            );
        }
    }

    #[test]
    fn prelu_uses_alpha_on_negatives() {
        let mut p = PRelu::new();
        let x = Matrix::from_rows(&[&[-4.0, 4.0]]);
        let y = p.forward(&x, Mode::Train);
        assert_eq!(y.row(0), &[-1.0, 4.0]); // alpha = 0.25
        let gx = p.backward(&Matrix::full(1, 2, 1.0));
        assert_eq!(gx.row(0), &[0.25, 1.0]);
        // ∂α = Σ g·x over negative entries = 1 * -4
        assert_eq!(p.params()[0].grad.get(0, 0), -4.0);
    }

    #[test]
    fn relu_has_no_params() {
        assert!(Relu::new().params().is_empty());
        assert_eq!(PRelu::new().params().len(), 1);
    }
}
