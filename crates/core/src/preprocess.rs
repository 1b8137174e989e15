//! Feature pre-propagation (Eq. 2) and input-expansion accounting.
//!
//! This module is a small diffusion engine: it diffuses in **split
//! order** (the labeled rows first, split by split), so retained hops are
//! contiguous row ranges of the diffusion buffers; a group of operators
//! diffuses side by side, its passes cut into node-range **shards**
//! ([`ppgnn_graph::ShardPlan`]) submitted as tasks to the shared worker
//! pool; finished hops are persisted through the asynchronous
//! double-buffered store writer ([`ppgnn_dataio::StoreWriter`]) so hop
//! `r + 1` diffusion overlaps hop `r` storage I/O. Every schedule is
//! bit-for-bit equivalent to the sequential path in node-id order (pinned
//! by `tests/shard_equivalence.rs`).
//!
//! There is one engine and one store path. [`Preprocessor::run`] keeps
//! everything in memory; [`Preprocessor::run_with_sharded_store`] also
//! writes the train hops to a store, as a layout of the same engine's
//! output rather than a second diffusion: a [`ppgnn_graph::PartitionPlan`]
//! decides which partition store each training row lands in (one
//! partition by default), and each finished train hop is split by that
//! plan and queued to the one writer as a unit per partition — every
//! stored row byte-identical to a plain store of `run`'s train hops
//! (pinned by `tests/partition_equivalence.rs`).

use std::sync::Arc;
use std::time::Instant;

use ppgnn_dataio::{DataIoError, FeatureStore, StoreMeta, StoreWriter, DEFAULT_WRITER_QUEUE};
use ppgnn_graph::synth::SynthDataset;
use ppgnn_graph::{NodeOrder, Operator, Partitioner, RangeCutPartitioner, ShardPlan, WeightedCsr};
use ppgnn_partition::{partition_stats, PartitionStat};
use ppgnn_tensor::{pool, Matrix, StoreDtype, WorkerPool};

/// Per-hop diffusion wall time mirrored into the telemetry registry
/// (also carried per run in [`PrepTelemetry::hop_ns`]).
static PREP_HOP_NS: ppgnn_telemetry::Histogram =
    ppgnn_telemetry::Histogram::new("preprocess.hop_ns");

/// Hop features plus labels for one node partition (train/val/test).
///
/// Row `i` of every hop matrix corresponds to `node_ids[i]`.
///
/// The hop matrices are shared, not owned: `clone()` bumps `R + 1`
/// reference counts, so a loader (or a second trainer) holding the same
/// partition costs no second copy of the features.
#[derive(Debug, Clone)]
pub struct PrepropFeatures {
    /// `R + 1` matrices of shape `len(node_ids) x F` (hop 0 = raw features).
    pub hops: Vec<Arc<Matrix>>,
    /// Labels aligned with rows.
    pub labels: Vec<u32>,
    /// Global node ids aligned with rows.
    pub node_ids: Vec<usize>,
}

impl PrepropFeatures {
    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when the partition is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Bytes occupied by the hop features.
    pub fn size_bytes(&self) -> u64 {
        self.hops.iter().map(|h| h.size_bytes() as u64).sum()
    }

    /// Bytes per example row across all hops.
    pub fn row_bytes(&self) -> u64 {
        if self.hops.is_empty() {
            0
        } else {
            (self.hops.len() * self.hops[0].cols() * 4) as u64
        }
    }
}

/// Wraps finished hop matrices for sharing ([`PrepropFeatures::hops`]).
fn share(hops: Vec<Matrix>) -> Vec<Arc<Matrix>> {
    hops.into_iter().map(Arc::new).collect()
}

/// The retained rows of every hop, split by split, filled as the
/// single-domain engine hands hops over.
#[derive(Debug)]
struct SplitHops {
    /// Rows of train / val / test in split order.
    ranges: [std::ops::Range<usize>; 3],
    /// Width of a retained hop, `K·F`.
    kf: usize,
    /// `[split][hop]`, `rows × K·F`; `0 × 0` until first handed over.
    hops: [Vec<Matrix>; 3],
}

impl SplitHops {
    fn new(split: &ppgnn_graph::synth::Split, hops: usize, kf: usize) -> Self {
        let (t, v) = (split.train.len(), split.val.len());
        SplitHops {
            ranges: [0..t, t..t + v, t + v..split.num_labeled()],
            kf,
            hops: std::array::from_fn(|_| vec![Matrix::default(); hops + 1]),
        }
    }

    /// Hands hop `r` of one operator group over. `buf` holds the hop for
    /// every node in split order, the group's operators side by side from
    /// output column `col0`. The val and test rows are copied out as two
    /// contiguous row ranges and the unlabeled tail is dropped. When the
    /// group covers every operator the train head stays where it is —
    /// `buf` is truncated to it — otherwise the group's column window is
    /// copied into every split's column block and `buf` comes back for
    /// reuse.
    fn hand_over(&mut self, r: usize, mut buf: Matrix, col0: usize) -> Option<Matrix> {
        let covering = col0 == 0 && buf.cols() == self.kf;
        if covering {
            for s in [1, 2] {
                let rows = self.ranges[s].clone();
                self.hops[s][r] = buf.slice_rows(rows.start, rows.end);
            }
            buf.truncate_rows(self.ranges[0].end);
            self.hops[0][r] = buf;
            return None;
        }
        let width = buf.cols();
        for (rows, hops) in self.ranges.iter().zip(self.hops.iter_mut()) {
            let dst = &mut hops[r];
            if dst.shape() != (rows.len(), self.kf) {
                *dst = Matrix::zeros(rows.len(), self.kf);
            }
            for (i, src) in rows.clone().enumerate() {
                dst.row_mut(i)[col0..col0 + width].copy_from_slice(buf.row(src));
            }
        }
        Some(buf)
    }
}

/// One hop of a group of single-SpMM operators held side by side: `cur`
/// and `next` are `N × (g·F)`, operator `slot` owns columns
/// `slot·F..(slot + 1)·F`. One pool task per shard of `plan` computes
/// every operator's rows of that shard.
fn diffuse_side_by_side(
    bases: &[WeightedCsr],
    plan: &ShardPlan,
    cur: &Matrix,
    next: &mut Matrix,
    f: usize,
    pool: &WorkerPool,
) {
    let width = cur.cols();
    let x = cur.as_slice();
    let mut rest = next.as_mut_slice();
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(plan.num_shards());
    for range in plan.ranges() {
        let (slab, tail) = rest.split_at_mut(range.len() * width);
        rest = tail;
        let range = range.clone();
        tasks.push(Box::new(move || {
            for (slot, base) in bases.iter().enumerate() {
                base.spmm_window_rows_into(range.clone(), x, width, slot * f..(slot + 1) * f, slab);
            }
        }));
    }
    debug_assert!(rest.is_empty(), "shard plan must tile the buffer");
    pool.run(tasks);
}

/// Observability payload of one preprocessing run: the per-hop stage
/// breakdown and write-backpressure signals the `exp_*` binaries and
/// bench artifacts report alongside the expansion accounting.
///
/// Times come from wall-clock instants taken once per hop (negligible
/// against a diffusion pass), so they are populated whether or not the
/// `PPGNN_TRACE` tracer is enabled; two runs of the same configuration
/// therefore differ here even when their features are bit-identical —
/// equivalence tests compare reports with `telemetry` reset to default.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PrepTelemetry {
    /// Wall nanoseconds spent producing each hop (index = hop; hop 0 is
    /// the raw-feature gather), accumulated across operator groups.
    pub hop_ns: Vec<u64>,
    /// Store-writer queue high-water mark (0 for in-memory runs).
    pub writer_queue_hwm: u64,
    /// Total nanoseconds hop submission blocked on write backpressure.
    pub writer_block_ns: u64,
}

/// The Section 3.4 quantity: how preprocessing expands the input.
///
/// All byte counts are derived from the rows the run **actually
/// materialized** across the three partitions (train + val + test), not
/// from a formula over the dataset split — so the report stays consistent
/// with the output even if partition handling changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpansionReport {
    /// Raw input feature bytes of the retained rows (`retained_rows × F × 4`).
    pub raw_bytes: u64,
    /// Bytes after expansion, **retained rows only**
    /// (`K(R+1) × retained_rows × F × 4`).
    pub expanded_bytes: u64,
    /// Rows retained across all three partitions — the labeled nodes whose
    /// expanded features the run materialized.
    pub retained_rows: u64,
    /// Number of operators `K`.
    pub num_operators: usize,
    /// Number of hops `R`.
    pub hops: usize,
    /// Per-partition layout accounting (rows, nnz, ghost rows, training
    /// rows, store bytes) when the run wrote a sharded store; empty
    /// otherwise. The `exp_*` binaries print this as the partition layout
    /// table.
    pub partitions: Vec<PartitionStat>,
    /// Per-hop timings and writer-backpressure signals of the run that
    /// produced this report (empty/zero for reports rebuilt from legacy
    /// persisted manifests).
    pub telemetry: PrepTelemetry,
}

impl ExpansionReport {
    /// Expansion multiple over the *labeled* raw bytes.
    pub fn factor(&self) -> f64 {
        if self.raw_bytes == 0 {
            0.0
        } else {
            self.expanded_bytes as f64 / self.raw_bytes as f64
        }
    }
}

/// Result of running the preprocessor on a dataset.
#[derive(Debug, Clone)]
pub struct PrepropOutput {
    /// Training partition.
    pub train: PrepropFeatures,
    /// Validation partition.
    pub val: PrepropFeatures,
    /// Test partition.
    pub test: PrepropFeatures,
    /// Wall-clock preprocessing time, seconds (Table 2 / Table 7).
    pub preprocess_seconds: f64,
    /// Input-expansion accounting.
    pub expansion: ExpansionReport,
}

/// The one-time pre-propagation stage.
///
/// Computes `S_k = {X, B_k X, …, B_k^R X}` for each operator by repeated
/// SpMM over the **full graph** (unlabeled nodes contribute information),
/// then retains only the rows of labeled nodes — which is why
/// papers100M-style datasets shrink from 53 GB of raw features to
/// ~0.8 GB/hop of training input.
///
/// With `K > 1` operators, same-hop matrices from different operators are
/// concatenated feature-wise (the SIGN multi-kernel convention), so the
/// model-facing shape stays `R + 1` matrices of `K·F` columns.
#[derive(Debug, Clone)]
pub struct Preprocessor {
    operators: Vec<Operator>,
    hops: usize,
    /// `None` = auto: the pool width.
    num_shards: Option<usize>,
    /// `None` = 1 (one partition store).
    num_partitions: Option<usize>,
    /// `None` = auto: `PPGNN_STORE_DTYPE`, else [`StoreDtype::F32`].
    store_dtype: Option<StoreDtype>,
}

impl Preprocessor {
    /// Creates a preprocessor with `operators` (`K ≥ 1`) and `hops` (`R`).
    ///
    /// # Panics
    ///
    /// Panics if `operators` is empty.
    pub fn new(operators: Vec<Operator>, hops: usize) -> Self {
        assert!(!operators.is_empty(), "at least one operator required");
        Preprocessor {
            operators,
            hops,
            num_shards: None,
            num_partitions: None,
            store_dtype: None,
        }
    }

    /// Pins the number of node-range shards per operator pass.
    ///
    /// `1` forces the sequential per-operator schedule (the PR 2
    /// behaviour); `≥ 2` enables the shard×operator scheduler regardless
    /// of problem size. Without this, the shard count is the worker-pool
    /// width, and tiny graphs below the parallel threshold fall back to
    /// the sequential schedule.
    pub fn with_num_shards(mut self, num_shards: usize) -> Self {
        self.num_shards = Some(num_shards.max(1));
        self
    }

    /// Pins the number of partition stores
    /// [`Preprocessor::run_with_sharded_store`] splits the training rows
    /// into, one per disjoint graph partition of the node space.
    ///
    /// `1` gives one partition store whose hop files are byte-identical to
    /// a plain store of the train hops. Without this, a sharded store has
    /// one partition. The count never affects what is diffused.
    pub fn with_num_partitions(mut self, num_partitions: usize) -> Self {
        self.num_partitions = Some(num_partitions.max(1));
        self
    }

    /// Pins the element encoding of the partition stores
    /// [`Preprocessor::run_with_sharded_store`] writes.
    /// Without this, the dtype comes from `PPGNN_STORE_DTYPE`, defaulting
    /// to lossless [`StoreDtype::F32`].
    pub fn with_store_dtype(mut self, dtype: StoreDtype) -> Self {
        self.store_dtype = Some(dtype);
        self
    }

    /// Number of hops `R`.
    pub fn hops(&self) -> usize {
        self.hops
    }

    /// Operators `B_1..B_K`.
    pub fn operators(&self) -> &[Operator] {
        &self.operators
    }

    /// SpMM invocations a full run costs, per operator (in operator
    /// order): `spmm_count × R` each. The preprocessing-time models and
    /// the bench artifact derive traffic estimates from this.
    pub fn spmm_invocations_per_operator(&self) -> Vec<usize> {
        self.operators
            .iter()
            .map(|op| op.spmm_count() * self.hops)
            .collect()
    }

    /// Total SpMM invocations across all operators for a full run.
    pub fn total_spmm_invocations(&self) -> usize {
        self.spmm_invocations_per_operator().iter().sum()
    }

    /// Resolves the shard count: pinned value, else the pool width. The
    /// bool reports whether the count was pinned — pinned counts are
    /// honored even below the parallel threshold, so tests exercise the
    /// sharded schedule deterministically on any machine.
    fn resolved_num_shards(&self, pool: &WorkerPool) -> (usize, bool) {
        match self.num_shards {
            Some(n) => (n, true),
            None => (pool.num_threads(), false),
        }
    }

    /// Resolves the store encoding: pinned value, else
    /// `PPGNN_STORE_DTYPE`, else `f32`.
    ///
    /// # Errors
    ///
    /// [`DataIoError::BadKnob`] when `PPGNN_STORE_DTYPE` names no dtype.
    fn resolved_store_dtype(&self) -> Result<StoreDtype, DataIoError> {
        match self.store_dtype {
            Some(dtype) => Ok(dtype),
            None => StoreDtype::from_env().map_err(DataIoError::BadKnob),
        }
    }

    /// Groups operator indices for concurrent scheduling.
    ///
    /// Single-SpMM operators (`SymNorm`/`RowNorm`) are grouped up to the
    /// residency cap `⌊(R + 2) / 2⌋`: a group of `g` operators holds `2g`
    /// full-graph ping-pong buffers, and the cap keeps `2g ≤ R + 2`, one
    /// full-graph matrix inside the `(R + 3)`-matrix budget
    /// `tests/preprocess_residency.rs` pins (the spare absorbs the group's
    /// extra CSR bases). Diffusion-series operators (`Ppr`/`Heat`) are
    /// internally sequential chains and always form singleton groups. With
    /// `num_shards ≤ 1` every operator is its own group — the sequential
    /// PR 2 schedule.
    fn operator_groups(&self, num_shards: usize) -> Vec<Vec<usize>> {
        if num_shards <= 1 {
            return (0..self.operators.len()).map(|k| vec![k]).collect();
        }
        let cap = ((self.hops + 2) / 2).max(1);
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut current: Vec<usize> = Vec::new();
        for (ki, op) in self.operators.iter().enumerate() {
            if op.is_diffusion_series() {
                if !current.is_empty() {
                    groups.push(std::mem::take(&mut current));
                }
                groups.push(vec![ki]);
            } else {
                current.push(ki);
                if current.len() == cap {
                    groups.push(std::mem::take(&mut current));
                }
            }
        }
        if !current.is_empty() {
            groups.push(current);
        }
        groups
    }

    /// Runs pre-propagation on `data`.
    ///
    /// This is the shard-scheduled pipeline in split order: the nodes are
    /// relabelled `train ‖ val ‖ test ‖ unlabeled`, operators are built
    /// in that order and grouped (see `operator_groups`), and each group
    /// diffuses hop by hop through two full-graph buffers holding its
    /// operators side by side. Every hop step submits one task per
    /// nnz-balanced node range — a serial
    /// [`WeightedCsr::spmm_window_rows_into`] per operator — to the shared
    /// worker pool. Once the next hop has been computed from it, a hop's
    /// val and test rows are copied out as contiguous ranges and, when the
    /// group covers every operator, its train rows are kept where they lie
    /// (the buffer is truncated to them). Results are bit-identical to the
    /// sequential per-operator schedule in node-id order at any shard
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if a node id is out of range or named by more than one
    /// split entry (the split order must be a permutation).
    pub fn run(&self, data: &SynthDataset) -> PrepropOutput {
        self.run_streaming(data, |_, _| Ok(()), pool::pool())
            .expect("in-memory preprocessing performs no I/O")
    }

    /// The engine behind every `run*` entry point: diffusion in split
    /// order, straight into the retained hops. Each final train hop `r` is
    /// passed to `on_train_hop(r, hop)` as soon as it is handed over — the
    /// store writers' sink; an `Err` aborts the run and is returned.
    ///
    /// One node order per call puts the labeled rows first, split by
    /// split (`train ‖ val ‖ test ‖ unlabeled`, the unlabeled rows
    /// ascending), and every operator is built directly in it
    /// ([`Operator::base_in`]), so each split's rows of a hop are one
    /// contiguous row range. A group of `g` operators diffuses side by side
    /// through two `N × (g·F)` buffers; a hop is handed over once the next
    /// hop has been computed from it ([`SplitHops::hand_over`]). Per-row
    /// sums are the identity-order sums, so every retained row is
    /// bit-identical to diffusing in node-id order and gathering.
    fn run_streaming(
        &self,
        data: &SynthDataset,
        mut on_train_hop: impl FnMut(usize, &Arc<Matrix>) -> Result<(), DataIoError>,
        pool: &WorkerPool,
    ) -> Result<PrepropOutput, DataIoError> {
        let start = Instant::now();
        let _prep_span = ppgnn_telemetry::span("preprocess");
        let n = data.graph.num_nodes();
        let f = data.features.cols();
        let k_ops = self.operators.len();
        // Per-hop wall time, accumulated across operator groups. One
        // `Instant` pair per (group, hop) — negligible against a
        // diffusion pass, so it is unconditional, not trace-gated.
        let mut hop_ns = vec![0u64; self.hops + 1];

        let split = &data.split;
        let order = {
            let _span = ppgnn_telemetry::span("preprocess.order");
            NodeOrder::heads_first(n, &[&split.train, &split.val, &split.test])
        };
        let mut retained = SplitHops::new(split, self.hops, k_ops * f);
        let mut train_hops: Vec<Arc<Matrix>> = Vec::with_capacity(self.hops + 1);

        let (num_shards, shards_pinned) = self.resolved_num_shards(pool);
        let groups = self.operator_groups(num_shards);
        let num_groups = groups.len();
        for (gi, group) in groups.iter().enumerate() {
            let last_group = gi + 1 == num_groups;
            let width = group.len() * f;
            let col0 = group[0] * f;
            // Finishes hop `r` of this group; in the last group the train
            // hop is final and goes to the sink.
            let mut hand_over = |r: usize,
                                 buf: Matrix,
                                 hop_ns: &mut [u64]|
             -> Result<Option<Matrix>, DataIoError> {
                let t0 = Instant::now();
                let spare = retained.hand_over(r, buf, col0);
                if last_group {
                    let hop = Arc::new(std::mem::take(&mut retained.hops[0][r]));
                    on_train_hop(r, &hop)?;
                    train_hops.push(hop);
                }
                hop_ns[r] += t0.elapsed().as_nanos() as u64;
                Ok(spare)
            };

            // Hop 0: one gather of the features in split order, repeated
            // side by side for each further group member.
            let hop0_t0 = Instant::now();
            let mut cur = data.features.gather_rows(order.as_slice());
            if group.len() > 1 {
                cur = Matrix::hstack(&vec![&cur; group.len()]);
            }
            hop_ns[0] += hop0_t0.elapsed().as_nanos() as u64;
            if self.hops == 0 {
                hand_over(0, cur, &mut hop_ns)?;
                continue;
            }

            let bases: Vec<WeightedCsr> = {
                let _span = ppgnn_telemetry::span("preprocess.order");
                group
                    .iter()
                    .map(|&ki| self.operators[ki].base_in(&data.graph, &order))
                    .collect()
            };
            // Shard the row space once per group (group members share one
            // sparsity structure). A pinned shard count is honored at any
            // size; otherwise the pool width once the pass is over the
            // parallel threshold, like every pooled kernel. Series
            // operators are internally sequential chains and fan out
            // inside their own SpMMs.
            let series = self.operators[group[0]].is_diffusion_series();
            let work = bases.iter().map(|b| b.nnz()).max().unwrap_or(0) * f;
            let shards = if shards_pinned && num_shards > 1 {
                num_shards
            } else {
                pool.threads_for(work)
            };
            let plan = ShardPlan::for_operator(&bases[0], shards);

            let mut spare: Option<Matrix> = None;
            for r in 1..=self.hops {
                let hop_t0 = Instant::now();
                let mut next = spare.take().unwrap_or_else(|| Matrix::zeros(n, width));
                {
                    let _hop_span =
                        ppgnn_telemetry::span_with("hop", &[("r", r as u64), ("group", gi as u64)]);
                    if series {
                        self.operators[group[0]]
                            .apply_with_base_into_on(&bases[0], &cur, &mut next, pool);
                    } else {
                        diffuse_side_by_side(&bases, &plan, &cur, &mut next, f, pool);
                    }
                }
                hop_ns[r] += hop_t0.elapsed().as_nanos() as u64;
                spare = hand_over(r - 1, std::mem::replace(&mut cur, next), &mut hop_ns)?;
            }
            hand_over(self.hops, cur, &mut hop_ns)?;
        }

        let [_, val_hops, test_hops] = retained.hops;
        let features = |ids: &[usize], hops: Vec<Arc<Matrix>>| PrepropFeatures {
            hops,
            labels: data.labels_of(ids),
            node_ids: ids.to_vec(),
        };
        let train = features(&split.train, train_hops);
        let val = features(&split.val, share(val_hops));
        let test = features(&split.test, share(test_hops));

        let preprocess_seconds = start.elapsed().as_secs_f64();
        for &ns in &hop_ns {
            PREP_HOP_NS.record(ns);
        }
        // Account what the run materialized, not what a formula predicts:
        // retained rows and expanded bytes come from the three partitions'
        // actual hop matrices.
        let retained_rows = (train.len() + val.len() + test.len()) as u64;
        let expansion = ExpansionReport {
            raw_bytes: retained_rows * (f as u64) * 4,
            expanded_bytes: train.size_bytes() + val.size_bytes() + test.size_bytes(),
            retained_rows,
            num_operators: k_ops,
            hops: self.hops,
            partitions: Vec::new(),
            telemetry: PrepTelemetry {
                hop_ns,
                ..PrepTelemetry::default()
            },
        };
        Ok(PrepropOutput {
            train,
            val,
            test,
            preprocess_seconds,
            expansion,
        })
    }

    /// Runs pre-propagation and **writes the training rows through** to a
    /// store as each hop completes (the Section 4.3 file-per-hop layout):
    /// one partition directory per graph partition under one root, all fed
    /// by one [`StoreWriter`] with a [`DEFAULT_WRITER_QUEUE`]-deep queue, so
    /// hop `r + 1` diffusion overlaps hop `r` storage I/O. The
    /// node space is cut into [`Preprocessor::with_num_partitions`] (else
    /// one) disjoint partitions by the default nnz-balanced
    /// [`RangeCutPartitioner`]; the cut decides only where rows are
    /// stored. Diffusion is [`Preprocessor::run`]'s, and
    /// partition `p`'s store holds the training rows of the nodes it owns,
    /// in global training order, so every stored row is
    /// **byte-identical** to the same row of a plain store of `run`'s
    /// train hops (at `P = 1`, every hop file is). A partition owning
    /// every training row shares the finished hop with the output instead
    /// of copying it. `expansion.partitions` carries the layout table.
    ///
    /// The run is **resumable**: each partition journals its committed
    /// hops, and an interrupted run of the same geometry skips re-writing
    /// the `(partition, hop)` units already proven complete.
    ///
    /// # Errors
    ///
    /// [`DataIoError::BadKnob`] before any diffusion when no dtype is
    /// pinned and `PPGNN_STORE_DTYPE` names no dtype; otherwise propagates
    /// store-creation and write failures (reporting the latched write
    /// cause, not the fail-fast placeholder, when a submit aborts the
    /// run).
    pub fn run_with_sharded_store(
        &self,
        data: &SynthDataset,
        dir: impl AsRef<std::path::Path>,
        dataset: &str,
        chunk_size: usize,
    ) -> Result<(PrepropOutput, FeatureStore), DataIoError> {
        self.run_with_sharded_store_using(
            data,
            &RangeCutPartitioner,
            dir,
            dataset,
            chunk_size,
            pool::pool(),
        )
    }

    /// [`Preprocessor::run_with_sharded_store`] with an explicit
    /// partitioner and worker pool.
    ///
    /// The global pool is sized once from the environment; width sweeps
    /// (benchmarks, the shard regression tests) pass their own pool here,
    /// mirroring [`WeightedCsr::spmm_into_on`]. Shard tasks and nested
    /// kernel fan-outs reuse this handle.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Preprocessor::run_with_sharded_store`].
    pub fn run_with_sharded_store_using(
        &self,
        data: &SynthDataset,
        partitioner: &dyn Partitioner,
        dir: impl AsRef<std::path::Path>,
        dataset: &str,
        chunk_size: usize,
        pool: &WorkerPool,
    ) -> Result<(PrepropOutput, FeatureStore), DataIoError> {
        let dtype = self.resolved_store_dtype()?;
        let plan = partitioner.partition(&data.graph, self.num_partitions.unwrap_or(1));
        // The layout table: what each partition holds of the first
        // operator, and the ghost rows a partition-local diffusion would
        // fetch. Computed before diffusion, so its extractions are freed
        // before the hop buffers exist.
        let mut partitions = partition_stats(&plan, &self.operators[0].base(&data.graph));
        // Global training rows owned by each partition, in global training
        // order — store `p`'s local row `j` is training row
        // `rows_by_part[p][j]`.
        let mut rows_by_part: Vec<Vec<usize>> = vec![Vec::new(); plan.num_partitions()];
        for (i, &v) in data.split.train.iter().enumerate() {
            rows_by_part[plan.owner(v)].push(i);
        }
        for (stat, rows) in partitions.iter_mut().zip(&rows_by_part) {
            stat.train_rows = rows.len();
        }
        let meta = StoreMeta {
            dataset: dataset.to_string(),
            num_hops: self.hops + 1,
            rows: data.split.train.len(),
            cols: self.operators.len() * data.features.cols(),
            chunk_size,
            dtype,
        };
        let mut writer =
            StoreWriter::create_or_resume(dir, meta, &rows_by_part, DEFAULT_WRITER_QUEUE)?;
        // Each partition's rows of the finished train hop go to the writer
        // as one unit; (partition, hop) units an interrupted run already
        // committed (per that partition's journal) are not regathered or
        // resubmitted. The rows are in training order, so a partition
        // owning all of them holds exactly the hop and shares it.
        let train_rows = data.split.train.len();
        let submit = |r: usize, hop: &Arc<Matrix>| {
            for (p, rows) in rows_by_part.iter().enumerate() {
                if writer.resumed_hops(p)[r] {
                    continue;
                }
                let part = if rows.len() == train_rows {
                    Arc::clone(hop)
                } else {
                    Arc::new(hop.gather_rows(rows))
                };
                writer.submit(p, r, part)?;
            }
            Ok(())
        };
        match self.run_streaming(data, submit, pool) {
            Ok(mut out) => {
                let stats = writer.stats();
                out.expansion.telemetry.writer_queue_hwm = stats.queue_hwm as u64;
                out.expansion.telemetry.writer_block_ns = stats.submit_block_ns;
                let store = writer.finish()?;
                for stat in &mut partitions {
                    stat.store_bytes = store.partition_meta(stat.partition).total_bytes();
                }
                out.expansion.partitions = partitions;
                Ok((out, store))
            }
            // A failed submit returns a fail-fast placeholder; the write
            // error the writer latched is the actual cause.
            Err(e) => Err(writer.take_failure().unwrap_or(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppgnn_graph::synth::DatasetProfile;

    fn small_data() -> SynthDataset {
        SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.02), 3).unwrap()
    }

    #[test]
    fn produces_r_plus_one_hops_per_partition() {
        let data = small_data();
        let out = Preprocessor::new(vec![Operator::SymNorm], 3).run(&data);
        assert_eq!(out.train.hops.len(), 4);
        assert_eq!(out.val.hops.len(), 4);
        assert_eq!(out.train.len(), data.split.train.len());
        assert_eq!(out.test.len(), data.split.test.len());
        // hop 0 is the raw features of the partition rows
        let raw = data.features.gather_rows(&data.split.train);
        assert!(out.train.hops[0].max_abs_diff(&raw) < 1e-7);
    }

    #[test]
    fn hop_r_equals_r_applications_of_the_operator() {
        let data = small_data();
        let out = Preprocessor::new(vec![Operator::SymNorm], 2).run(&data);
        let mut expected = data.features.clone();
        for _ in 0..2 {
            expected = Operator::SymNorm.apply(&data.graph, &expected);
        }
        let expected_rows = expected.gather_rows(&data.split.train);
        assert!(out.train.hops[2].max_abs_diff(&expected_rows) < 1e-4);
    }

    #[test]
    fn multi_operator_concatenates_features() {
        let data = small_data();
        let f = data.profile.feature_dim;
        let out = Preprocessor::new(vec![Operator::SymNorm, Operator::RowNorm], 1).run(&data);
        assert_eq!(out.train.hops[0].cols(), 2 * f);
        assert_eq!(out.expansion.num_operators, 2);
        assert!((out.expansion.factor() - 4.0).abs() < 1e-9); // K(R+1) = 2·2
    }

    #[test]
    fn expansion_report_matches_materialized_partitions() {
        let data = small_data();
        let out = Preprocessor::new(vec![Operator::SymNorm], 3).run(&data);
        assert!((out.expansion.factor() - 4.0).abs() < 1e-9);
        assert_eq!(
            out.expansion.expanded_bytes,
            out.train.size_bytes() + out.val.size_bytes() + out.test.size_bytes()
        );
        assert_eq!(
            out.expansion.retained_rows as usize,
            out.train.len() + out.val.len() + out.test.len()
        );
        assert_eq!(
            out.expansion.retained_rows as usize,
            data.split.num_labeled()
        );
    }

    #[test]
    fn spmm_invocation_accessors_follow_operator_costs() {
        let prep = Preprocessor::new(vec![Operator::SymNorm, Operator::Ppr { alpha: 0.15 }], 3);
        let per_op = prep.spmm_invocations_per_operator();
        assert_eq!(per_op.len(), 2);
        assert_eq!(per_op[0], 3); // one SpMM per hop
        assert_eq!(per_op[1], Operator::Ppr { alpha: 0.15 }.spmm_count() * 3);
        assert_eq!(prep.total_spmm_invocations(), per_op.iter().sum::<usize>());
    }

    #[test]
    fn partial_labels_shrink_retained_rows() {
        let data =
            SynthDataset::generate(DatasetProfile::papers100m_sim().scaled(0.05), 1).unwrap();
        let out = Preprocessor::new(vec![Operator::SymNorm], 2).run(&data);
        let labeled = data.split.num_labeled();
        assert_eq!(out.train.len() + out.val.len() + out.test.len(), labeled);
        // expanded bytes ≪ full-graph raw bytes — the papers100M effect
        let full_raw = (data.graph.num_nodes() * data.profile.feature_dim * 4) as u64;
        assert!(out.expansion.expanded_bytes < full_raw / 5);
    }

    #[test]
    fn zero_hops_keeps_raw_features_only() {
        let data = small_data();
        let out = Preprocessor::new(vec![Operator::SymNorm], 0).run(&data);
        assert_eq!(out.train.hops.len(), 1);
        assert!((out.expansion.factor() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sharded_run_is_bit_identical_to_sequential() {
        let data = small_data();
        for ops in [
            vec![Operator::SymNorm],
            vec![Operator::SymNorm, Operator::RowNorm],
            vec![
                Operator::SymNorm,
                Operator::Ppr { alpha: 0.2 },
                Operator::RowNorm,
            ],
        ] {
            let sequential = Preprocessor::new(ops.clone(), 3)
                .with_num_shards(1)
                .run(&data);
            for shards in [3, 7] {
                let sharded = Preprocessor::new(ops.clone(), 3)
                    .with_num_shards(shards)
                    .run(&data);
                for (part, (a, b)) in [
                    (&sequential.train, &sharded.train),
                    (&sequential.val, &sharded.val),
                    (&sequential.test, &sharded.test),
                ]
                .iter()
                .enumerate()
                .map(|(i, p)| (i, *p))
                {
                    for r in 0..=3 {
                        assert_eq!(
                            a.hops[r].as_slice(),
                            b.hops[r].as_slice(),
                            "ops {ops:?} shards {shards} partition {part} hop {r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn explicit_pool_run_matches_global_pool_run() {
        let data = small_data();
        let prep =
            Preprocessor::new(vec![Operator::SymNorm, Operator::RowNorm], 2).with_num_shards(4);
        let global = prep.run(&data);
        let pool = WorkerPool::new(4);
        let dir = std::env::temp_dir().join(format!("ppgnn-explicit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (explicit, _) = prep
            .run_with_sharded_store_using(&data, &RangeCutPartitioner, &dir, "pokec-sim", 32, &pool)
            .unwrap();
        for r in 0..=2 {
            assert_eq!(
                global.train.hops[r].as_slice(),
                explicit.train.hops[r].as_slice()
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn operator_groups_respect_residency_cap_and_series_isolation() {
        let prep = Preprocessor::new(
            vec![
                Operator::SymNorm,
                Operator::RowNorm,
                Operator::Ppr { alpha: 0.2 },
                Operator::SymNorm,
            ],
            3,
        );
        // R=3 → cap ⌊5/2⌋ = 2 concurrent simple operators.
        let groups = prep.operator_groups(8);
        assert_eq!(groups, vec![vec![0, 1], vec![2], vec![3]]);
        // Sequential mode: every operator alone, in order.
        let seq = prep.operator_groups(1);
        assert_eq!(seq, vec![vec![0], vec![1], vec![2], vec![3]]);
        // R=1 → cap 1: no grouping even when sharded.
        let narrow = Preprocessor::new(vec![Operator::SymNorm, Operator::RowNorm], 1);
        assert_eq!(narrow.operator_groups(8), vec![vec![0], vec![1]]);
    }

    #[test]
    fn partitioned_run_is_bit_identical_to_run() {
        let data = small_data();
        let ops = vec![Operator::SymNorm, Operator::RowNorm];
        let reference = Preprocessor::new(ops.clone(), 3).run(&data);
        let base = std::env::temp_dir().join(format!("ppgnn-partrun-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        for parts in [1, 2, 5] {
            let (partitioned, _) = Preprocessor::new(ops.clone(), 3)
                .with_num_partitions(parts)
                .run_with_sharded_store(&data, base.join(format!("p{parts}")), "pokec-sim", 32)
                .unwrap();
            for (a, b) in [
                (&reference.train, &partitioned.train),
                (&reference.val, &partitioned.val),
                (&reference.test, &partitioned.test),
            ] {
                for r in 0..=3 {
                    let same = a.hops[r]
                        .as_slice()
                        .iter()
                        .zip(b.hops[r].as_slice())
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(same, "P={parts} hop {r} not bit-identical");
                }
            }
            let num_parts = partitioned.expansion.partitions.len();
            assert!((1..=parts).contains(&num_parts));
            let stat_rows: usize = partitioned
                .expansion
                .partitions
                .iter()
                .map(|s| s.rows)
                .sum();
            assert_eq!(stat_rows, data.graph.num_nodes());
            let train_rows: usize = partitioned
                .expansion
                .partitions
                .iter()
                .map(|s| s.train_rows)
                .sum();
            assert_eq!(train_rows, data.split.train.len());
            // Apart from the partition table and run-specific timings,
            // accounting matches.
            let mut expansion = partitioned.expansion.clone();
            expansion.partitions = Vec::new();
            expansion.telemetry = PrepTelemetry::default();
            let mut ref_expansion = reference.expansion.clone();
            ref_expansion.telemetry = PrepTelemetry::default();
            assert_eq!(expansion, ref_expansion);
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn sharded_store_serves_rows_identical_to_single_store() {
        let data = small_data();
        let prep = Preprocessor::new(vec![Operator::SymNorm], 2);
        let base = std::env::temp_dir().join(format!("ppgnn-shardstore-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let (_, mut single) = prep
            .run_with_sharded_store(&data, base.join("single"), "pokec-sim", 16)
            .unwrap();
        let (out, mut sharded) = prep
            .clone()
            .with_num_partitions(3)
            .run_with_sharded_store(&data, base.join("sharded"), "pokec-sim", 16)
            .unwrap();
        assert_eq!(sharded.meta().rows, single.meta().rows);
        for k in 0..=2 {
            let a = single.read_full_hop(k).unwrap();
            let b = sharded.read_full_hop(k).unwrap();
            assert_eq!(a.as_slice(), b.as_slice(), "hop {k} differs");
        }
        // Store-bytes stats were filled in from the partition stores.
        let bytes: u64 = out.expansion.partitions.iter().map(|s| s.store_bytes).sum();
        assert_eq!(bytes, single.meta().total_bytes());
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn write_through_store_matches_post_hoc_write() {
        let data = small_data();
        let prep = Preprocessor::new(vec![Operator::SymNorm, Operator::RowNorm], 2);
        let dir = std::env::temp_dir().join(format!("ppgnn-stream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (out, mut store) = prep
            .run_with_sharded_store(&data, &dir, "pokec-sim", 32)
            .unwrap();
        let reference = prep.run(&data);
        assert_eq!(store.meta().num_hops, 3);
        assert_eq!(store.meta().cols, 2 * data.profile.feature_dim);
        for r in 0..=2 {
            assert!(out.train.hops[r].max_abs_diff(&reference.train.hops[r]) < 1e-7);
            let stored = store.read_full_hop(r).unwrap();
            assert!(stored.max_abs_diff(&reference.train.hops[r]) < 1e-7);
        }
        assert!(out.val.hops[1].max_abs_diff(&reference.val.hops[1]) < 1e-7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_store_round_trips_training_rows() {
        let data = small_data();
        let dir = std::env::temp_dir().join(format!("ppgnn-prep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (out, mut store) = Preprocessor::new(vec![Operator::SymNorm], 1)
            .run_with_sharded_store(&data, &dir, "pokec-sim", 64)
            .unwrap();
        let hop0 = store.read_full_hop(0).unwrap();
        assert!(hop0.max_abs_diff(&out.train.hops[0]) < 1e-7);
        let hop1 = store.read_full_hop(1).unwrap();
        assert!(hop1.max_abs_diff(&out.train.hops[1]) < 1e-7);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
