//! Graph substrate for the `preprop-gnn` stack.
//!
//! Provides everything the paper's preprocessing stage (Eq. 2) and the
//! MP-GNN baselines need from a graph library:
//!
//! * [`CsrGraph`] — compressed-sparse-row adjacency with a validating
//!   builder, plus [`WeightedCsr`] for normalized operators,
//! * [`Operator`] — the graph-signal filters used by PP-GNNs (symmetric /
//!   row-normalized adjacency, truncated Personalized-PageRank and heat
//!   kernels, following Gasteiger et al. 2019),
//! * threaded CSR×dense SpMM (the kernel behind feature pre-propagation),
//! * [`ShardPlan`] — nnz-balanced node-range shards plus a row-slice SpMM
//!   ([`WeightedCsr::spmm_rows_into`]) for shard-scheduled diffusion,
//! * [`NodeOrder`] — a node relabelling that operators can be built in
//!   directly ([`Operator::base_in`]), so preprocessing diffuses in split
//!   order,
//! * [`PartitionPlan`] — disjoint node partitions with ghost-row
//!   extraction ([`Partitioner`] strategies: nnz-balanced
//!   [`RangeCutPartitioner`], locality-first [`BfsGrowPartitioner`]) for
//!   partition-parallel preprocessing,
//! * [`gen`] — seeded synthetic graph generators (R-MAT skew, planted
//!   homophily) standing in for the OGB/SNAP/IGB benchmarks,
//! * [`synth`] — ratio-preserving scaled-down dataset profiles
//!   (`products-sim`, `pokec-sim`, `wiki-sim`, `papers100m-sim`,
//!   `igb-medium-sim`, `igb-large-sim`).
//!
//! # Example
//!
//! ```
//! use ppgnn_graph::{CsrGraph, Operator};
//! use ppgnn_tensor::Matrix;
//!
//! let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)], true)?;
//! let x = Matrix::eye(4);
//! let filtered = Operator::SymNorm.apply(&g, &x);
//! assert_eq!(filtered.shape(), (4, 4));
//! # Ok::<(), ppgnn_graph::GraphError>(())
//! ```

#![deny(missing_docs)]

mod csr;
mod error;
mod operator;
mod order;
mod partition;
mod shard;
mod spmm;

pub mod gen;
pub mod stats;
pub mod synth;

pub use csr::CsrGraph;
pub use error::GraphError;
pub use operator::Operator;
pub use order::NodeOrder;
pub use partition::{
    BfsGrowPartitioner, PartitionCsr, PartitionPlan, Partitioner, RangeCutPartitioner,
};
pub use shard::ShardPlan;
pub use spmm::{nnz_balanced_blocks, WeightedCsr};
