//! Per-partition layout accounting of a sharded feature store.
//!
//! A sharded store splits the training rows across `P` partition stores by
//! a [`ppgnn_graph::PartitionPlan`]; diffusion itself runs once, over the
//! whole graph, in `ppgnn-core`'s single-domain engine. What the plan still
//! decides is which store a row lands in, and this crate reports how that
//! cut looks: rows and operator non-zeros per partition, and the **ghost
//! rows** a partition-local diffusion would have to fetch every hop (the
//! out-of-partition rows its edges reach). The ghost count is the
//! measurement that would justify a partition-parallel engine; on graphs
//! without locality nearly every row is a ghost, and none exists.

#![deny(missing_docs)]

use ppgnn_graph::{PartitionPlan, WeightedCsr};

/// Per-partition accounting surfaced through `ExpansionReport` so the
/// `exp_*` binaries can print the partition layout table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionStat {
    /// Partition id.
    pub partition: usize,
    /// Nodes (rows) owned by the partition.
    pub rows: usize,
    /// Non-zeros of the partition's rows of the operator (one
    /// representative operator; all bases share the graph's sparsity).
    pub nnz: usize,
    /// Out-of-partition rows the partition's rows reach — what a
    /// partition-local diffusion would fetch every hop.
    pub ghost_rows: usize,
    /// Training rows owned by the partition (filled by the sharded-store
    /// preprocessor; `0` from [`partition_stats`]).
    pub train_rows: usize,
    /// Payload bytes of the partition's feature store (filled once the
    /// store is written; `0` from [`partition_stats`]).
    pub store_bytes: u64,
}

/// Rows, nnz and ghost rows of every partition of `plan` over the
/// identity-order operator `base`, one [`PartitionPlan::extract`] at a
/// time; `train_rows` and `store_bytes` are left at `0` for the caller.
///
/// # Panics
///
/// Panics if `base` is not square over the plan's node count.
pub fn partition_stats(plan: &PartitionPlan, base: &WeightedCsr) -> Vec<PartitionStat> {
    (0..plan.num_partitions())
        .map(|p| {
            let part = plan.extract(base, p);
            PartitionStat {
                partition: p,
                rows: plan.members(p).len(),
                nnz: part.csr.nnz(),
                ghost_rows: part.ghosts.len(),
                train_rows: 0,
                store_bytes: 0,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppgnn_graph::{CsrGraph, Partitioner, RangeCutPartitioner};
    use std::collections::BTreeSet;

    fn ring_with_hub(n: usize) -> CsrGraph {
        let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        edges.extend((2..n).step_by(3).map(|v| (0, v)));
        CsrGraph::from_edges(n, &edges, true).unwrap()
    }

    #[test]
    fn stats_cover_all_rows_and_count_ghosts() {
        let g = ring_with_hub(30);
        let base = WeightedCsr::sym_norm(&g, true);
        for parts in [1, 3] {
            let plan = RangeCutPartitioner.partition(&g, parts);
            let stats = partition_stats(&plan, &base);
            assert_eq!(stats.len(), plan.num_partitions());
            assert_eq!(stats.iter().map(|s| s.rows).sum::<usize>(), 30);
            assert_eq!(stats.iter().map(|s| s.nnz).sum::<usize>(), base.nnz());
            for (p, s) in stats.iter().enumerate() {
                let own = plan.members(p);
                let ghosts: BTreeSet<usize> = own
                    .iter()
                    .flat_map(|&v| base.row_entries(v).map(|(c, _)| c))
                    .filter(|&c| plan.owner(c) != p)
                    .collect();
                assert_eq!(s.ghost_rows, ghosts.len(), "P={parts} partition {p}");
                assert_eq!((s.train_rows, s.store_bytes), (0, 0));
            }
            let ghosts: usize = stats.iter().map(|s| s.ghost_rows).sum();
            if parts == 1 {
                assert_eq!(ghosts, 0, "one partition reaches nothing outside itself");
            } else {
                assert!(ghosts > 0, "a ring cut into 3 must reach across cuts");
            }
        }
    }
}
