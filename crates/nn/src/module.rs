use ppgnn_tensor::Matrix;

use crate::Param;

/// Whether a forward pass is part of training or evaluation.
///
/// Layers with stochastic or statistics-tracking behaviour (dropout, batch
/// norm) branch on this; pure layers ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: dropout active, batch statistics updated, caches retained
    /// for [`Module::backward_into`].
    Train,
    /// Inference: deterministic, no caches required.
    Eval,
}

/// A differentiable computation unit.
///
/// The contract mirrors a classic layer API, with every output written into
/// a slot the caller owns:
///
/// 1. `forward_into(x, Mode::Train, out)` computes the output **and
///    caches** whatever the gradient needs;
/// 2. `backward_into(grad_out, grad_in)` consumes that cache,
///    **accumulates** parameter gradients into [`Param::grad`], and writes
///    the gradient with respect to the input into `grad_in`;
/// 3. `params()` exposes parameters in a stable order for the optimizer.
///
/// Both slots are resized (via [`Matrix::resize_to`]) to the result's shape
/// and fully overwritten, so their previous contents are irrelevant; a
/// caller that passes the same slots every batch runs steady-state steps
/// without allocating. These two are the one way to call a layer:
/// [`Module::forward`] and [`Module::backward`] are provided wrappers that
/// allocate a fresh slot and call them.
///
/// `backward_into` must be called at most once per training-mode forward,
/// with a `grad_out` shaped like that forward's output.
pub trait Module {
    /// Computes the layer output for input `x` into `out`.
    fn forward_into(&mut self, x: &Matrix, mode: Mode, out: &mut Matrix);

    /// Back-propagates `grad_out`, accumulating parameter gradients, and
    /// writes the gradient with respect to the last training-mode input
    /// into `grad_in`.
    ///
    /// # Panics
    ///
    /// Implementations panic if called without a preceding training-mode
    /// forward or with a mis-shaped `grad_out`.
    fn backward_into(&mut self, grad_out: &Matrix, grad_in: &mut Matrix);

    /// [`Module::forward_into`] into a freshly allocated matrix.
    fn forward(&mut self, x: &Matrix, mode: Mode) -> Matrix {
        let mut out = Matrix::default();
        self.forward_into(x, mode, &mut out);
        out
    }

    /// [`Module::backward_into`] into a freshly allocated matrix.
    ///
    /// # Panics
    ///
    /// As [`Module::backward_into`].
    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut grad_in = Matrix::default();
        self.backward_into(grad_out, &mut grad_in);
        grad_in
    }

    /// Mutable references to the parameters, in a stable order.
    fn params(&mut self) -> Vec<&mut Param>;

    /// Zeroes all parameter gradients.
    fn zero_grad(&mut self) {
        for p in self.params() {
            p.zero_grad();
        }
    }

    /// Total number of scalar parameters (reporting / Table 1 checks).
    fn num_params(&mut self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }
}

/// Runs layers in order; the workhorse container for MLP heads.
///
/// # Example
///
/// ```
/// use ppgnn_nn::{Linear, Mode, Module, Relu, Sequential};
/// use ppgnn_tensor::Matrix;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut mlp = Sequential::new(vec![
///     Box::new(Linear::new(8, 16, &mut rng)),
///     Box::new(Relu::new()),
///     Box::new(Linear::new(16, 4, &mut rng)),
/// ]);
/// let y = mlp.forward(&Matrix::zeros(3, 8), Mode::Eval);
/// assert_eq!(y.shape(), (3, 4));
/// ```
pub struct Sequential {
    layers: Vec<Box<dyn Module>>,
    /// Ping-pong buffers threading activations forward and gradients
    /// backward between layers. Every layer caches what its own backward
    /// needs, so a forward's intermediates are dead once it returns and the
    /// backward reuses the same two buffers; both are retained across
    /// batches.
    scratch: [Matrix; 2],
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("num_layers", &self.layers.len())
            .finish()
    }
}

impl Sequential {
    /// Builds a pipeline from boxed layers.
    pub fn new(layers: Vec<Box<dyn Module>>) -> Self {
        Sequential {
            layers,
            scratch: [Matrix::default(), Matrix::default()],
        }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Module>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` if the container holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Module for Sequential {
    fn forward_into(&mut self, x: &Matrix, mode: Mode, out: &mut Matrix) {
        let n = self.layers.len();
        match n {
            0 => {
                out.resize_to(x.rows(), x.cols());
                out.copy_from(x);
            }
            1 => self.layers[0].forward_into(x, mode, out),
            _ => {
                // Ping-pong between the two retained scratch matrices; only
                // the last layer writes the caller's slot.
                let [mut ping, mut pong] = std::mem::take(&mut self.scratch);
                self.layers[0].forward_into(x, mode, &mut ping);
                for layer in &mut self.layers[1..n - 1] {
                    layer.forward_into(&ping, mode, &mut pong);
                    std::mem::swap(&mut ping, &mut pong);
                }
                self.layers[n - 1].forward_into(&ping, mode, out);
                self.scratch = [ping, pong];
            }
        }
    }

    fn backward_into(&mut self, grad_out: &Matrix, grad_in: &mut Matrix) {
        let n = self.layers.len();
        match n {
            0 => {
                grad_in.resize_to(grad_out.rows(), grad_out.cols());
                grad_in.copy_from(grad_out);
            }
            1 => self.layers[0].backward_into(grad_out, grad_in),
            _ => {
                // The forward's ping-pong in reverse: only the first layer
                // writes the caller's slot.
                let [mut ping, mut pong] = std::mem::take(&mut self.scratch);
                self.layers[n - 1].backward_into(grad_out, &mut ping);
                for layer in self.layers[1..n - 1].iter_mut().rev() {
                    layer.backward_into(&ping, &mut pong);
                    std::mem::swap(&mut ping, &mut pong);
                }
                self.layers[0].backward_into(&ping, grad_in);
                self.scratch = [ping, pong];
            }
        }
    }

    fn params(&mut self) -> Vec<&mut Param> {
        self.layers.iter_mut().flat_map(|l| l.params()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_sequential_is_identity() {
        let mut s = Sequential::new(vec![]);
        let x = Matrix::from_fn(2, 3, |r, c| (r + c) as f32);
        assert_eq!(s.forward(&x, Mode::Train), x);
        assert_eq!(s.backward(&x), x);
        assert!(s.is_empty());
    }

    #[test]
    fn sequential_chains_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = Sequential::new(vec![
            Box::new(Linear::new(5, 7, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(7, 2, &mut rng)),
        ]);
        let y = s.forward(&Matrix::zeros(4, 5), Mode::Train);
        assert_eq!(y.shape(), (4, 2));
        let gx = s.backward(&Matrix::zeros(4, 2));
        assert_eq!(gx.shape(), (4, 5));
        // params: 2 linears * (W, b)
        assert_eq!(s.params().len(), 4);
        assert_eq!(s.num_params(), 5 * 7 + 7 + 7 * 2 + 2);
    }

    #[test]
    fn forward_into_matches_forward_and_resizes_the_slot() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = Sequential::new(vec![
            Box::new(Linear::new(5, 7, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(7, 2, &mut rng)),
        ]);
        let x = Matrix::from_fn(4, 5, |r, c| (r * 5 + c) as f32 * 0.1 - 1.0);
        let y = s.forward(&x, Mode::Eval);
        let mut slot = Matrix::zeros(1, 1);
        s.forward_into(&x, Mode::Eval, &mut slot);
        assert_eq!(slot, y);
        // shrinking batch reuses the slot at the new shape
        let x2 = Matrix::from_fn(2, 5, |r, c| (r + c) as f32 * 0.2);
        let y2 = s.forward(&x2, Mode::Eval);
        s.forward_into(&x2, Mode::Eval, &mut slot);
        assert_eq!(slot, y2);
    }

    #[test]
    fn zero_grad_reaches_nested_layers() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = Sequential::new(vec![Box::new(Linear::new(3, 3, &mut rng))]);
        let x = Matrix::full(2, 3, 1.0);
        s.forward(&x, Mode::Train);
        s.backward(&Matrix::full(2, 3, 1.0));
        assert!(s.params()[0].grad.frobenius_norm() > 0.0);
        s.zero_grad();
        assert!(s.params().iter().all(|p| p.grad.frobenius_norm() == 0.0));
    }
}
