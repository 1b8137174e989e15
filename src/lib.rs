//! Umbrella crate for the PP-GNN reproduction workspace.
//!
//! This crate re-exports the `ppgnn-*` crates under one roof so the
//! repository-level integration tests (`tests/`) and examples (`examples/`)
//! have a package to live in, and so downstream users can depend on a
//! single crate.
//!
//! Layer order (each layer depends only on the ones before it):
//!
//! 1. [`telemetry`] — zero-dependency tracing spans, counters, and
//!    histograms (everything else may instrument through it), and
//!    [`tensor`] — dense row-major `f32` matrices and kernels
//! 2. [`graph`] — CSR graphs, SpMM operators, partition plans, synthetic
//!    datasets, and [`partition`] — per-partition layout accounting of a
//!    sharded store
//! 3. [`nn`] / [`models`] / [`sampler`] — modules, the PP/MP model zoo,
//!    minibatch samplers
//! 4. [`dataio`] / [`memsim`] — on-disk feature stores, performance-plane
//!    simulator
//! 5. [`core`] — preprocessing, the loader generations as three loaders, training
//! 6. [`bench`](mod@bench) — shared harness for the `exp_*` experiment binaries
//!
//! # Examples
//!
//! ```
//! use preprop_gnn::graph::synth::{DatasetProfile, SynthDataset};
//!
//! let profile = DatasetProfile::pokec_sim().scaled(0.01);
//! let data = SynthDataset::generate(profile, 7).expect("generation succeeds");
//! assert!(data.graph.num_nodes() >= 64);
//! ```

#![deny(missing_docs)]

pub use ppgnn_bench as bench;
pub use ppgnn_core as core;
pub use ppgnn_dataio as dataio;
pub use ppgnn_graph as graph;
pub use ppgnn_memsim as memsim;
pub use ppgnn_models as models;
pub use ppgnn_nn as nn;
pub use ppgnn_partition as partition;
pub use ppgnn_sampler as sampler;
pub use ppgnn_telemetry as telemetry;
pub use ppgnn_tensor as tensor;
