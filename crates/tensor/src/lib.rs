//! Dense `f32` matrix kernels for the `preprop-gnn` stack.
//!
//! This crate is the lowest layer of the workspace: a small, dependency-light
//! dense linear-algebra library providing exactly the operations the
//! pre-propagation GNN training stack needs:
//!
//! * a row-major [`Matrix`] type with shape-checked constructors,
//! * a persistent [`pool`](mod@pool) of worker threads shared by every threaded
//!   kernel in the workspace (sized by `available_parallelism`, overridable
//!   via `PPGNN_NUM_THREADS`), which also hosts the thread-local
//!   [`pool::PackWorkspace`] packing scratch,
//! * packed, cache-blocked [`matmul`]/[`matmul_tn`]/[`matmul_nt`] kernels
//!   (plus `_into` variants writing pre-allocated outputs) built on one
//!   `MR×NR` register-tile micro-kernel over K panels and NC column
//!   blocks whose sizes [`block`] holds; the `tn`/`nt` variants back the
//!   hand-written backward passes in `ppgnn-nn`, and the pre-blocking
//!   naive kernels survive in [`reference`](mod@reference) as the correctness oracle,
//! * the sparse × dense row kernel ([`gather::GatherKernel`]): a weighted
//!   gather of `X` rows on the backend the GEMM dispatches, bit-identical
//!   on every one, under the SpMM in `ppgnn-graph`,
//! * batch-assembly primitives ([`Matrix::gather_rows`],
//!   [`Matrix::gather_rows_into`], [`Matrix::scatter_add_rows`]) that the data
//!   loaders in `ppgnn-core` are built from,
//! * row-wise reductions and transforms (softmax, argmax, normalization),
//! * seeded random initializers ([`init`]) and a binary (de)serialization
//!   format ([`io`]) used by the on-disk feature store.
//!
//! # Example
//!
//! ```
//! use ppgnn_tensor::Matrix;
//!
//! let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])?;
//! let b = Matrix::eye(3);
//! let c = ppgnn_tensor::matmul(&a, &b);
//! assert_eq!(c, a);
//! # Ok::<(), ppgnn_tensor::TensorError>(())
//! ```

#![deny(missing_docs)]

mod error;
mod gemm;
mod matrix;
mod ops;

pub mod cast;
pub mod gather;
pub mod init;
pub mod io;
pub mod knobs;
pub mod lanes;
pub mod pool;

pub use cast::StoreDtype;
pub use error::TensorError;
pub use gemm::{
    block, compiled_kernels, matmul, matmul_into, matmul_nt, matmul_nt_into, matmul_tn,
    matmul_tn_into, reference, widest_supported_kernel, Avx2Kernel, Avx512Kernel, KernelKind,
    MicroKernel, PortableKernel,
};
pub use matrix::Matrix;
pub use pool::{pool, set_parallel_threshold, WorkerPool};
