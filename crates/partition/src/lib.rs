//! Partition-parallel pre-propagation with per-hop ghost-row exchange.
//!
//! The shard-scheduled engine in `ppgnn-core` parallelizes diffusion over
//! node ranges that all read one shared full-graph buffer — a single
//! memory domain. This crate implements the next regime: the graph is cut
//! into `P` **disjoint node partitions** ([`ppgnn_graph::PartitionPlan`]),
//! each partition holds only its own rows plus a compact **ghost region**
//! (the out-of-partition rows its edges reach), and every hop starts with
//! a ghost exchange — each partition copies the current values of its
//! ghost nodes from their owners' buffers — before a partition-local SpMM.
//! That is exactly the communication pattern of multi-machine
//! preprocessing (the exchange is the network step), executed here across
//! the shared worker pool.
//!
//! **Bit-identity.** Partitioning may change *where* a row is computed,
//! never *what* it holds: extraction preserves each row's entry order (see
//! [`ppgnn_graph::PartitionPlan::extract`]), the ghost exchange delivers
//! exactly the same input values a whole-graph SpMM would read, and the
//! diffusion-series schedules (`Ppr`/`Heat`) replay the reference
//! element-wise operation sequence (`copy → scale → spmm/axpy per term`).
//! `tests/partition_equivalence.rs` pins partitioned outputs bit-for-bit
//! against the whole-graph path at several `P`.

#![deny(missing_docs)]

use ppgnn_graph::{nnz_balanced_blocks, CsrGraph, Operator, PartitionCsr, PartitionPlan};
use ppgnn_tensor::{Matrix, WorkerPool};

/// Per-partition accounting surfaced through `ExpansionReport` so the
/// `exp_*` binaries can print the partition balance table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionStat {
    /// Partition id.
    pub partition: usize,
    /// Nodes (rows) owned by the partition.
    pub rows: usize,
    /// Non-zeros of the partition-local operator (one representative
    /// operator; all bases share the graph's sparsity).
    pub nnz: usize,
    /// Ghost rows the partition fetches every hop.
    pub ghost_rows: usize,
    /// Training rows owned by the partition. The engine leaves this at
    /// `0` ([`PartitionedDiffusion::partition_stats`] has no notion of a
    /// split); the partitioned preprocessor in `ppgnn-core` fills it for
    /// every run, with or without a store.
    pub train_rows: usize,
    /// Payload bytes of the partition's feature store — the only
    /// store-dependent field: filled by the store-writing caller, `0`
    /// for in-memory runs without a store.
    pub store_bytes: u64,
}

/// Read-only view of one finished hop: every operator's current values for
/// every partition's own rows, addressable by **global** node id.
#[derive(Debug)]
pub struct HopView<'a> {
    plan: &'a PartitionPlan,
    f: usize,
    /// `[op][partition]`: rows `0..n_p` hold the partition's own values.
    locals: &'a [Vec<Matrix>],
}

impl HopView<'_> {
    /// Feature dimension `F` of each operator's values.
    pub fn feature_dim(&self) -> usize {
        self.f
    }

    /// The plan the view is laid out over.
    pub fn plan(&self) -> &PartitionPlan {
        self.plan
    }

    /// Gathers every operator's rows for global node `ids` into a fresh
    /// `ids.len() × K·F` matrix, operators side by side (row `i` is
    /// `[op 0 ‖ … ‖ op K−1]` of node `ids[i]`, the SIGN multi-kernel
    /// layout), resolving each id through the plan's `(partition, local
    /// row)` mapping. Each byte is written once: the rows are appended to
    /// an empty buffer, not copied over a zero fill.
    ///
    /// # Panics
    ///
    /// Panics if an id is outside the plan.
    pub fn gather_rows(&self, ids: &[usize]) -> Matrix {
        let f = self.f;
        let kf = self.locals.len() * f;
        let mut data = Vec::with_capacity(ids.len() * kf);
        for &v in ids {
            let (p, r) = (self.plan.owner(v), self.plan.local(v));
            for op in self.locals {
                data.extend_from_slice(&op[p].as_slice()[r * f..(r + 1) * f]);
            }
        }
        Matrix::from_vec(ids.len(), kf, data).expect("one K·F row per gathered id")
    }
}

/// The partition-parallel diffusion engine.
///
/// Construction extracts one partition-local CSR per (operator, partition)
/// and precomputes the ghost fetch lists; [`PartitionedDiffusion::run`]
/// then streams hops, invoking a callback with a [`HopView`] as each hop
/// completes (hop `0` is the raw features).
#[derive(Debug)]
pub struct PartitionedDiffusion {
    plan: PartitionPlan,
    operators: Vec<Operator>,
    hops: usize,
    /// `[op][partition]` extracted local operators.
    parts: Vec<Vec<PartitionCsr>>,
    /// `[op][partition]` ghost fetches as `(src_partition, src_row, dst_row)`.
    fetches: Vec<Vec<Vec<(u32, u32, u32)>>>,
}

impl PartitionedDiffusion {
    /// Extracts partition-local operators for `operators` over `plan`.
    ///
    /// # Panics
    ///
    /// Panics if `operators` is empty, `plan` covers no nodes, or the
    /// plan's node count disagrees with the graph's.
    pub fn new(
        graph: &CsrGraph,
        operators: Vec<Operator>,
        hops: usize,
        plan: PartitionPlan,
    ) -> Self {
        assert!(!operators.is_empty(), "at least one operator required");
        assert!(
            plan.num_partitions() > 0,
            "plan must cover at least one node"
        );
        assert_eq!(
            plan.num_nodes(),
            graph.num_nodes(),
            "plan/graph node count mismatch"
        );
        let _span = ppgnn_telemetry::span("partition.extract");
        let mut parts = Vec::with_capacity(operators.len());
        let mut fetches = Vec::with_capacity(operators.len());
        for op in &operators {
            let base = op.base(graph);
            let op_parts: Vec<PartitionCsr> = (0..plan.num_partitions())
                .map(|p| plan.extract(&base, p))
                .collect();
            let op_fetches: Vec<Vec<(u32, u32, u32)>> = op_parts
                .iter()
                .enumerate()
                .map(|(p, part)| {
                    let n_p = plan.members(p).len();
                    part.ghosts
                        .iter()
                        .enumerate()
                        .map(|(i, &g)| {
                            (plan.owner(g) as u32, plan.local(g) as u32, (n_p + i) as u32)
                        })
                        .collect()
                })
                .collect();
            parts.push(op_parts);
            fetches.push(op_fetches);
        }
        PartitionedDiffusion {
            plan,
            operators,
            hops,
            parts,
            fetches,
        }
    }

    /// The partition plan the engine runs over.
    pub fn plan(&self) -> &PartitionPlan {
        &self.plan
    }

    /// Per-partition rows / nnz / ghost-row accounting (`train_rows` and
    /// `store_bytes` are left at `0` for the caller to fill when a store
    /// is written).
    pub fn partition_stats(&self) -> Vec<PartitionStat> {
        (0..self.plan.num_partitions())
            .map(|p| PartitionStat {
                partition: p,
                rows: self.plan.members(p).len(),
                nnz: self.parts[0][p].csr.nnz(),
                ghost_rows: self.parts[0][p].ghosts.len(),
                train_rows: 0,
                store_bytes: 0,
            })
            .collect()
    }

    /// Total ghost rows exchanged per hop across all partitions (one
    /// representative operator) — the "network traffic" of the partition
    /// schedule, in rows.
    pub fn ghost_rows_per_hop(&self) -> usize {
        self.parts[0].iter().map(|p| p.ghosts.len()).sum()
    }

    /// Runs partitioned diffusion over `features`, calling
    /// `on_hop(r, view)` for every hop `r` in `0..=hops` as it completes.
    /// An `Err` from the callback aborts the run and is returned.
    ///
    /// `task_shards` bounds how many SpMM tasks each partition is cut into
    /// per hop (nnz-balanced over the partition-local rows), so the worker
    /// pool stays full even when `P` is smaller than the pool width; the
    /// cut never affects results.
    ///
    /// # Errors
    ///
    /// Propagates the first callback error.
    ///
    /// # Panics
    ///
    /// Panics if `features.rows()` disagrees with the plan's node count.
    pub fn run<E>(
        &self,
        features: &Matrix,
        pool: &WorkerPool,
        task_shards: usize,
        mut on_hop: impl FnMut(usize, &HopView<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        assert_eq!(
            features.rows(),
            self.plan.num_nodes(),
            "feature rows must match the partitioned node count"
        );
        let f = features.cols();
        let num_parts = self.plan.num_partitions();
        let k_ops = self.operators.len();
        let task_shards = task_shards.max(1);

        // Per (op, partition) local buffers: [own rows ‖ ghost rows] × F,
        // own region initialized from the raw features (hop 0).
        let mut locals: Vec<Vec<Matrix>> = (0..k_ops)
            .map(|k| {
                (0..num_parts)
                    .map(|p| {
                        let members = self.plan.members(p);
                        let g_p = self.parts[k][p].ghosts.len();
                        let mut m = Matrix::zeros(members.len() + g_p, f);
                        for (i, &v) in members.iter().enumerate() {
                            m.row_mut(i).copy_from_slice(features.row(v));
                        }
                        m
                    })
                    .collect()
            })
            .collect();
        // Per (op, partition) SpMM scratch over own rows.
        let mut nexts: Vec<Vec<Matrix>> = (0..k_ops)
            .map(|_| {
                (0..num_parts)
                    .map(|p| Matrix::zeros(self.plan.members(p).len(), f))
                    .collect()
            })
            .collect();
        // nnz-balanced task ranges per (op, partition).
        let blocks: Vec<Vec<Vec<std::ops::Range<usize>>>> = self
            .parts
            .iter()
            .map(|op_parts| {
                op_parts
                    .iter()
                    .map(|part| nnz_balanced_blocks(part.csr.indptr(), task_shards))
                    .collect()
            })
            .collect();

        on_hop(
            0,
            &HopView {
                plan: &self.plan,
                f,
                locals: &locals,
            },
        )?;

        // Series scratch (out accumulator + term buffer per partition),
        // allocated on first use and reused across hops and operators.
        let mut series_out: Vec<Matrix> = Vec::new();
        let mut series_term: Vec<Matrix> = Vec::new();

        for r in 1..=self.hops {
            // Simple operators: exchange every ghost region, then submit
            // ONE task batch across all (op, partition, block) triples so
            // operator passes overlap on the pool.
            {
                let _xch_span = ppgnn_telemetry::span_with("ghost_exchange", &[("r", r as u64)]);
                for k in 0..k_ops {
                    if !self.operators[k].is_diffusion_series() {
                        exchange(&mut locals[k], &self.fetches[k]);
                    }
                }
            }
            {
                let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
                for (((k, op), nexts_k), locals_k) in self
                    .operators
                    .iter()
                    .enumerate()
                    .zip(nexts.iter_mut())
                    .zip(locals.iter())
                {
                    if op.is_diffusion_series() {
                        continue;
                    }
                    for (p, next) in nexts_k.iter_mut().enumerate() {
                        let csr = &self.parts[k][p].csr;
                        let x = &locals_k[p];
                        let mut rest = next.as_mut_slice();
                        for range in &blocks[k][p] {
                            let (slab, tail) = rest.split_at_mut(range.len() * f);
                            rest = tail;
                            let range = range.clone();
                            tasks.push(Box::new(move || csr.spmm_rows_into(range, x, slab)));
                        }
                        debug_assert!(rest.is_empty(), "blocks must tile the partition rows");
                    }
                }
                if !tasks.is_empty() {
                    pool.run(tasks);
                }
            }
            for (k, op) in self.operators.iter().enumerate() {
                if !op.is_diffusion_series() {
                    for p in 0..num_parts {
                        let n_p = self.plan.members(p).len();
                        locals[k][p].as_mut_slice()[..n_p * f]
                            .copy_from_slice(nexts[k][p].as_slice());
                    }
                }
            }

            // Diffusion-series operators: internally sequential truncated
            // series; partitions (and their nnz blocks) parallel within
            // each term, with a per-term ghost exchange on the term buffer.
            for k in 0..k_ops {
                let op = self.operators[k];
                if !op.is_diffusion_series() {
                    continue;
                }
                if series_out.is_empty() {
                    series_out = (0..num_parts)
                        .map(|p| Matrix::zeros(self.plan.members(p).len(), f))
                        .collect();
                }
                if series_term.len() != num_parts
                    || (0..num_parts).any(|p| series_term[p].rows() != locals[k][p].rows())
                {
                    series_term = (0..num_parts)
                        .map(|p| Matrix::zeros(locals[k][p].rows(), f))
                        .collect();
                }
                let (alpha, heat_t) = match op {
                    Operator::Ppr { alpha } => {
                        assert!((0.0..1.0).contains(&alpha), "ppr alpha must be in (0,1)");
                        (alpha, None)
                    }
                    Operator::Heat { t } => {
                        assert!(t > 0.0, "heat diffusion time must be positive");
                        (1.0, Some(t))
                    }
                    _ => unreachable!("non-series operator in series branch"),
                };
                for p in 0..num_parts {
                    let n_p = self.plan.members(p).len();
                    let own = &locals[k][p].as_slice()[..n_p * f];
                    series_out[p].as_mut_slice().copy_from_slice(own);
                    if heat_t.is_none() {
                        series_out[p].scale(alpha);
                    }
                    series_term[p].as_mut_slice()[..n_p * f].copy_from_slice(own);
                }
                let mut coeff = alpha;
                for term_i in 1..=op.series_terms() {
                    {
                        let _xch_span = ppgnn_telemetry::span_with(
                            "ghost_exchange",
                            &[("r", r as u64), ("term", term_i as u64)],
                        );
                        exchange(&mut series_term, &self.fetches[k]);
                    }
                    {
                        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
                        for (p, next) in nexts[k].iter_mut().enumerate() {
                            let csr = &self.parts[k][p].csr;
                            let x = &series_term[p];
                            let mut rest = next.as_mut_slice();
                            for range in &blocks[k][p] {
                                let (slab, tail) = rest.split_at_mut(range.len() * f);
                                rest = tail;
                                let range = range.clone();
                                tasks.push(Box::new(move || csr.spmm_rows_into(range, x, slab)));
                            }
                        }
                        pool.run(tasks);
                    }
                    coeff *= match heat_t {
                        None => 1.0 - alpha,
                        Some(t) => t / term_i as f32,
                    };
                    for p in 0..num_parts {
                        let n_p = self.plan.members(p).len();
                        series_term[p].as_mut_slice()[..n_p * f]
                            .copy_from_slice(nexts[k][p].as_slice());
                        series_out[p].axpy(coeff, &nexts[k][p]);
                    }
                }
                for p in 0..num_parts {
                    if let Some(t) = heat_t {
                        series_out[p].scale((-t).exp());
                    }
                    let n_p = self.plan.members(p).len();
                    locals[k][p].as_mut_slice()[..n_p * f]
                        .copy_from_slice(series_out[p].as_slice());
                }
            }

            on_hop(
                r,
                &HopView {
                    plan: &self.plan,
                    f,
                    locals: &locals,
                },
            )?;
        }
        Ok(())
    }
}

/// Copies every partition's ghost rows from their owners' own regions.
///
/// `fetches[p]` lists `(src_partition, src_row, dst_row)`; sources are
/// always own rows (`src_row < n_src`), destinations ghost rows
/// (`dst_row >= n_p`), and a node never ghosts into its own partition, so
/// reads and writes never alias.
fn exchange(mats: &mut [Matrix], fetches: &[Vec<(u32, u32, u32)>]) {
    for p in 0..mats.len() {
        for &(sp, sr, dr) in &fetches[p] {
            let (sp, sr, dr) = (sp as usize, sr as usize, dr as usize);
            debug_assert_ne!(sp, p, "a node never ghosts into its own partition");
            let (lo, hi) = mats.split_at_mut(p.max(sp));
            let (dst, src) = if p < sp {
                (&mut lo[p], &hi[0] as &Matrix)
            } else {
                (&mut hi[0], &lo[sp] as &Matrix)
            };
            dst.row_mut(dr).copy_from_slice(src.row(sr));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppgnn_graph::{BfsGrowPartitioner, CsrGraph, Partitioner, RangeCutPartitioner};

    fn ring_with_hub(n: usize) -> CsrGraph {
        let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        edges.extend((2..n).step_by(3).map(|v| (0, v)));
        CsrGraph::from_edges(n, &edges, true).unwrap()
    }

    fn whole_graph_hops(
        g: &CsrGraph,
        ops: &[Operator],
        x: &Matrix,
        hops: usize,
    ) -> Vec<Vec<Matrix>> {
        // [hop][op] full-graph reference, computed with the same primitive
        // ops the streaming preprocessor uses.
        let mut result = vec![vec![x.clone(); ops.len()]];
        let bases: Vec<_> = ops.iter().map(|op| op.base(g)).collect();
        let mut currents: Vec<Matrix> = (0..ops.len()).map(|_| x.clone()).collect();
        for _ in 1..=hops {
            let mut level = Vec::new();
            for (k, op) in ops.iter().enumerate() {
                let mut next = Matrix::zeros(x.rows(), x.cols());
                op.apply_with_base_into(&bases[k], &currents[k], &mut next);
                currents[k] = next.clone();
                level.push(next);
            }
            result.push(level);
        }
        result
    }

    #[test]
    fn partitioned_hops_are_bit_identical_to_whole_graph() {
        let g = ring_with_hub(60);
        let x = Matrix::from_fn(60, 4, |r, c| ((r * 31 + c * 17) % 23) as f32 - 11.0);
        let ops = vec![
            Operator::SymNorm,
            Operator::Ppr { alpha: 0.2 },
            Operator::RowNorm,
        ];
        let reference = whole_graph_hops(&g, &ops, &x, 3);
        let pool = WorkerPool::new(3);
        for parts in [1usize, 2, 5] {
            let plan = RangeCutPartitioner.partition(&g, parts);
            let engine = PartitionedDiffusion::new(&g, ops.clone(), 3, plan);
            let ids: Vec<usize> = (0..60).collect();
            engine
                .run::<()>(&x, &pool, 4, |r, view| {
                    let got = view.gather_rows(&ids);
                    assert_eq!(got.shape(), (60, 4 * ops.len()));
                    for k in 0..ops.len() {
                        let same = (0..60).all(|i| {
                            got.row(i)[k * 4..(k + 1) * 4]
                                .iter()
                                .zip(reference[r][k].row(i))
                                .all(|(a, b)| a.to_bits() == b.to_bits())
                        });
                        assert!(same, "P={parts} hop {r} op {k} diverged");
                    }
                    Ok(())
                })
                .unwrap();
        }
    }

    #[test]
    fn bfs_grow_plan_is_also_bit_identical() {
        let g = ring_with_hub(48);
        let x = Matrix::from_fn(48, 3, |r, c| ((r * 7 + c) % 11) as f32 - 5.0);
        let reference = whole_graph_hops(&g, &[Operator::SymNorm], &x, 2);
        let pool = WorkerPool::new(2);
        let plan = BfsGrowPartitioner.partition(&g, 3);
        let engine = PartitionedDiffusion::new(&g, vec![Operator::SymNorm], 2, plan);
        let ids: Vec<usize> = (0..48).collect();
        engine
            .run::<()>(&x, &pool, 2, |r, view| {
                let got = view.gather_rows(&ids);
                let same = got
                    .as_slice()
                    .iter()
                    .zip(reference[r][0].as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "bfs-grow hop {r} diverged");
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn callback_errors_abort_the_run() {
        let g = ring_with_hub(12);
        let x = Matrix::zeros(12, 2);
        let plan = RangeCutPartitioner.partition(&g, 2);
        let engine = PartitionedDiffusion::new(&g, vec![Operator::SymNorm], 5, plan);
        let pool = WorkerPool::new(1);
        let mut calls = 0;
        let err = engine.run(&x, &pool, 1, |r, _| {
            calls += 1;
            if r == 1 {
                Err("stop")
            } else {
                Ok(())
            }
        });
        assert_eq!(err, Err("stop"));
        assert_eq!(calls, 2, "run must abort at the first callback error");
    }

    #[test]
    fn stats_cover_all_rows_and_count_ghosts() {
        let g = ring_with_hub(30);
        let plan = RangeCutPartitioner.partition(&g, 3);
        let engine = PartitionedDiffusion::new(&g, vec![Operator::SymNorm], 1, plan);
        let stats = engine.partition_stats();
        assert_eq!(stats.iter().map(|s| s.rows).sum::<usize>(), 30);
        assert!(stats.iter().all(|s| s.nnz > 0));
        let ghosts: usize = stats.iter().map(|s| s.ghost_rows).sum();
        assert_eq!(ghosts, engine.ghost_rows_per_hop());
        assert!(ghosts > 0, "a ring cut into 3 must ghost across cuts");
    }
}
