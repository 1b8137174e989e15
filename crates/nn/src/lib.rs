//! Neural-network building blocks with hand-derived backward passes.
//!
//! This crate is the training substrate the paper gets from PyTorch: a small
//! module system where every layer implements an explicit
//! [`Module::forward_into`] / [`Module::backward_into`] pair writing into
//! caller-owned slots, parameters carry their own gradients ([`Param`]),
//! and optimizers ([`Sgd`], [`Adam`]) walk the parameter list. There is no autograd tape — each layer caches exactly the
//! activations its backward pass needs, which keeps the per-batch compute
//! profile transparent (important for the paper's claim that PP-GNN training
//! compute is *lightweight* relative to data loading).
//!
//! Gradient correctness of every layer is verified against central
//! finite differences in the [`gradcheck`] module's tests.
//!
//! # Example
//!
//! ```
//! use ppgnn_nn::{CrossEntropyLoss, Linear, Mode, Module, Optimizer, Sequential, Sgd};
//! use ppgnn_tensor::Matrix;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut model = Sequential::new(vec![Box::new(Linear::new(4, 3, &mut rng))]);
//! let mut opt = Sgd::new(0.1);
//! let x = Matrix::from_fn(2, 4, |r, c| (r + c) as f32 * 0.1);
//! let labels = [0u32, 2];
//!
//! let logits = model.forward(&x, Mode::Train);
//! let (loss, grad) = CrossEntropyLoss.loss_and_grad(&logits, &labels);
//! model.zero_grad();
//! model.backward(&grad);
//! opt.step(&mut model.params());
//! assert!(loss > 0.0);
//! ```

#![deny(missing_docs)]

mod activation;
mod attention;
mod dropout;
mod linear;
mod loss;
mod module;
mod norm;
mod optim;
mod param;
mod sweep;

pub mod gradcheck;
pub mod metrics;
pub mod schedule;

pub use activation::{PRelu, Relu};
pub use attention::MultiHeadAttention;
pub use dropout::Dropout;
pub use linear::Linear;
pub use loss::CrossEntropyLoss;
pub use module::{Mode, Module, Sequential};
pub use norm::{BatchNorm1d, LayerNorm};
pub use optim::{Adam, Optimizer, Sgd};
pub use param::Param;

/// Serializes this crate's tests that flip the global parallel threshold,
/// so a test claiming the serial path is not handed the pooled one.
#[cfg(test)]
pub(crate) static TEST_THRESHOLD_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
