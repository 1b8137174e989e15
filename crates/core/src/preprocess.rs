//! Feature pre-propagation (Eq. 2) and input-expansion accounting.
//!
//! Since the shard-scheduling rewrite this module is a small diffusion
//! engine: operator passes are cut into node-range **shards**
//! ([`ppgnn_graph::ShardPlan`]) and submitted as shard×operator tasks to
//! the shared worker pool, so different operators' passes overlap instead
//! of running strictly one after another; finished hops are persisted
//! through an asynchronous double-buffered writer thread
//! ([`ppgnn_dataio::AsyncHopWriter`]) so hop `r + 1` diffusion overlaps
//! hop `r` storage I/O. Both schedules are bit-for-bit equivalent to the
//! sequential path (pinned by `tests/shard_equivalence.rs`).
//!
//! On top of the single-memory-domain schedules sits the **partitioned**
//! pipeline ([`Preprocessor::run_partitioned`] /
//! [`Preprocessor::run_with_sharded_store`]): the graph is cut into
//! disjoint node partitions ([`ppgnn_graph::PartitionPlan`]), diffused with
//! per-hop ghost-row exchange by `ppgnn-partition`, and each partition's
//! training rows are written through their own async writer into a
//! per-partition store under a [`ppgnn_dataio::ShardedStoreManifest`] —
//! bit-identical features, byte-identical per-row store contents (pinned
//! by `tests/partition_equivalence.rs`).

use std::sync::Arc;
use std::time::Instant;

use ppgnn_dataio::{
    AsyncHopWriter, DataIoError, FeatureStore, ShardedFeatureStore, ShardedStoreWriter, StoreMeta,
    DEFAULT_WRITER_QUEUE,
};
use ppgnn_graph::synth::SynthDataset;
use ppgnn_graph::{Operator, Partitioner, RangeCutPartitioner, ShardPlan, WeightedCsr};
use ppgnn_partition::{PartitionStat, PartitionedDiffusion};
use ppgnn_tensor::{knobs, pool, Matrix, StoreDtype, WorkerPool};

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
    /// Async hop-writer queue high-water mark (0 for in-memory runs);
    /// the max across partition writers for sharded-store runs.
    pub writer_queue_hwm: u64,
    /// Total nanoseconds hop submission blocked on write backpressure,
    /// summed across partition writers for sharded-store runs.
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
    /// Per-partition balance accounting (rows, nnz, ghost rows, training
    /// rows, store bytes) when the run used the partitioned pipeline;
    /// empty for single-domain runs. The `exp_*` binaries print this as
    /// the partition balance table.
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
    /// `None` = auto: `PPGNN_NUM_SHARDS`, else the pool width.
    num_shards: Option<usize>,
    /// `None` = auto: `PPGNN_NUM_PARTITIONS`, else 1 (unpartitioned).
    num_partitions: Option<usize>,
    /// `None` = auto: `PPGNN_WRITER_QUEUE`, else [`DEFAULT_WRITER_QUEUE`].
    writer_queue: Option<usize>,
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
            writer_queue: None,
            store_dtype: None,
        }
    }

    /// Pins the number of node-range shards per operator pass.
    ///
    /// `1` forces the sequential per-operator schedule (the PR 2
    /// behaviour); `≥ 2` enables the shard×operator scheduler regardless
    /// of problem size. Without this (and without `PPGNN_NUM_SHARDS`),
    /// the shard count is the worker-pool width, and tiny graphs below
    /// the parallel threshold fall back to the sequential schedule.
    pub fn with_num_shards(mut self, num_shards: usize) -> Self {
        self.num_shards = Some(num_shards.max(1));
        self
    }

    /// Pins the number of disjoint graph partitions the partitioned
    /// pipeline ([`Preprocessor::run_partitioned`] /
    /// [`Preprocessor::run_with_sharded_store`]) cuts the node space into.
    ///
    /// `1` reproduces the unpartitioned behaviour exactly (a single
    /// partition owns every node, the ghost set is empty, and a sharded
    /// store degenerates to one partition store whose hop files are
    /// byte-identical to the single-store layout). Without this (and
    /// without `PPGNN_NUM_PARTITIONS`), the partitioned entry points run
    /// with `P = 1`.
    pub fn with_num_partitions(mut self, num_partitions: usize) -> Self {
        self.num_partitions = Some(num_partitions.max(1));
        self
    }

    /// Pins the async hop-writer queue depth used by
    /// [`Preprocessor::run_with_store`] and the per-partition writers of
    /// [`Preprocessor::run_with_sharded_store`] (default:
    /// `PPGNN_WRITER_QUEUE`, else [`DEFAULT_WRITER_QUEUE`]).
    pub fn with_writer_queue(mut self, depth: usize) -> Self {
        self.writer_queue = Some(depth.max(1));
        self
    }

    /// Pins the element encoding of every hop-feature store this
    /// preprocessor writes ([`Preprocessor::run_with_store`] and the
    /// partition stores of [`Preprocessor::run_with_sharded_store`]).
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

    /// Resolves the shard count: pinned value, else `PPGNN_NUM_SHARDS`,
    /// else the pool width. The bool reports whether the count was pinned
    /// explicitly (builder or environment) — explicit counts are honored
    /// even below the parallel threshold, so tests exercise the sharded
    /// schedule deterministically on any machine.
    fn resolved_num_shards(&self, pool: &WorkerPool) -> (usize, bool) {
        if let Some(n) = self.num_shards {
            return (n.max(1), true);
        }
        if let Some(n) = knobs::usize_value(knobs::NUM_SHARDS) {
            return (n, true);
        }
        (pool.num_threads(), false)
    }

    /// Resolves the partition count: pinned value, else
    /// `PPGNN_NUM_PARTITIONS`, else 1.
    fn resolved_num_partitions(&self) -> usize {
        if let Some(n) = self.num_partitions {
            return n.max(1);
        }
        knobs::usize_value(knobs::NUM_PARTITIONS).unwrap_or(1)
    }

    /// Resolves the store encoding: pinned value, else
    /// `PPGNN_STORE_DTYPE`, else `f32`.
    fn resolved_store_dtype(&self) -> StoreDtype {
        self.store_dtype.unwrap_or_else(StoreDtype::from_env)
    }

    fn resolved_writer_queue(&self) -> usize {
        self.writer_queue
            .or_else(|| knobs::usize_value(knobs::WRITER_QUEUE))
            .unwrap_or(DEFAULT_WRITER_QUEUE)
            .max(1)
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
    /// This is the shard-scheduled pipeline: operators are grouped (see
    /// `operator_groups`), each group diffuses hop-by-hop through
    /// per-operator ping-pong full-graph buffers, and every hop step
    /// submits one task per (shard, operator) — a serial
    /// [`WeightedCsr::spmm_rows_into`] over an nnz-balanced node range —
    /// to the shared worker pool, so the pool stays full across operator
    /// boundaries instead of draining at the tail of every pass. Labeled
    /// rows are gathered straight into each operator's column block of the
    /// partition outputs as hops complete. Results are bit-identical to
    /// the sequential per-operator schedule at any shard count.
    pub fn run(&self, data: &SynthDataset) -> PrepropOutput {
        self.run_on(data, pool::pool())
    }

    /// [`Preprocessor::run`] on an explicit worker pool.
    ///
    /// The global pool is sized once from the environment; width sweeps
    /// (benchmarks, the shard regression tests) pass their own pool here,
    /// mirroring [`WeightedCsr::spmm_into_on`]. Shard tasks and nested
    /// kernel fan-outs reuse this handle.
    pub fn run_on(&self, data: &SynthDataset, pool: &WorkerPool) -> PrepropOutput {
        self.run_streaming(data, None, pool)
            .expect("in-memory preprocessing performs no I/O")
    }

    /// Runs pre-propagation and **writes the training partition through**
    /// to a [`FeatureStore`] as each hop completes (the Section 4.3
    /// file-per-hop layout), instead of materializing everything and
    /// persisting afterwards.
    ///
    /// Persistence is asynchronous: finished hops travel over a bounded
    /// channel (depth [`Preprocessor::with_writer_queue`]) to a dedicated
    /// [`AsyncHopWriter`] thread, so hop `r + 1` diffusion overlaps hop
    /// `r` storage I/O. Write failures are latched by the writer and
    /// surfaced here once diffusion finishes (or at the first submission
    /// after the failure, whichever comes first).
    ///
    /// Equivalent on success to `run` followed by
    /// [`PrepropOutput::write_store`], without holding the store contents
    /// twice — and byte-identical to the synchronous path on disk.
    ///
    /// The run is **resumable**: each committed hop file is journaled, so
    /// if a previous run of the same geometry was interrupted (crash,
    /// injected fault), this call re-diffuses but skips re-writing the
    /// hops the journal proves complete — the finished store is
    /// byte-identical to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// Propagates store-creation and write failures.
    pub fn run_with_store(
        &self,
        data: &SynthDataset,
        dir: impl AsRef<std::path::Path>,
        dataset: &str,
        chunk_size: usize,
    ) -> Result<(PrepropOutput, FeatureStore), DataIoError> {
        let f = data.features.cols();
        let meta = StoreMeta {
            dataset: dataset.to_string(),
            num_hops: self.hops + 1,
            rows: data.split.train.len(),
            cols: self.operators.len() * f,
            chunk_size,
            dtype: self.resolved_store_dtype(),
        };
        let mut writer = AsyncHopWriter::create_or_resume(dir, meta, self.resolved_writer_queue())?;
        match self.run_streaming(data, Some(&mut writer), pool::pool()) {
            Ok(mut out) => {
                let stats = writer.stats();
                out.expansion.telemetry.writer_queue_hwm = stats.queue_hwm as u64;
                out.expansion.telemetry.writer_block_ns = stats.submit_block_ns;
                let store = writer.finish()?;
                Ok((out, store))
            }
            // A failed submit returns a fail-fast placeholder; the write
            // error the writer latched is the actual cause — report that.
            Err(e) => Err(writer.take_failure().unwrap_or(e)),
        }
    }

    fn run_streaming(
        &self,
        data: &SynthDataset,
        mut sink: Option<&mut AsyncHopWriter>,
        pool: &WorkerPool,
    ) -> Result<PrepropOutput, DataIoError> {
        let start = Instant::now();
        let _prep_span = ppgnn_telemetry::span("preprocess");
        let n = data.graph.num_nodes();
        let f = data.features.cols();
        let k_ops = self.operators.len();
        let kf = k_ops * f;
        // Per-hop wall time, accumulated across operator groups. One
        // `Instant` pair per (group, hop) — negligible against a
        // diffusion pass, so it is unconditional, not trace-gated.
        let mut hop_ns = vec![0u64; self.hops + 1];

        let ids_by_part: [&[usize]; 3] = [&data.split.train, &data.split.val, &data.split.test];
        let mut hops_by_part: Vec<Vec<Matrix>> = ids_by_part
            .iter()
            .map(|ids| {
                (0..=self.hops)
                    .map(|_| Matrix::zeros(ids.len(), kf))
                    .collect()
            })
            .collect();

        let (num_shards, shards_pinned) = self.resolved_num_shards(pool);
        let groups = self.operator_groups(num_shards);
        let num_groups = groups.len();

        // Per-operator ping-pong propagation buffers, allocated to the
        // largest group's width on demand and reused across groups.
        let mut currents: Vec<Matrix> = Vec::new();
        let mut nexts: Vec<Matrix> = Vec::new();

        for (gi, group) in groups.iter().enumerate() {
            let last_group = gi + 1 == num_groups;
            let hop0_t0 = Instant::now();
            // Hop 0 is the raw features, gathered directly from the input
            // into each group member's column block.
            for &ki in group {
                let col = ki * f;
                for (ids, hops) in ids_by_part.iter().zip(hops_by_part.iter_mut()) {
                    data.features
                        .gather_rows_into_offset(ids, &mut hops[0], col);
                }
            }
            if last_group {
                // Every operator has filled its hop-0 column block by now
                // (earlier groups ran to completion first). Hops an
                // interrupted run already committed (per the journal) are
                // not resubmitted — their bytes are on disk.
                if let Some(writer) = sink.as_deref_mut() {
                    if !writer.resumed_hops()[0] {
                        writer.submit(0, hops_by_part[0][0].clone())?;
                    }
                }
            }
            hop_ns[0] += hop0_t0.elapsed().as_nanos() as u64;
            if self.hops == 0 {
                continue;
            }

            let bases: Vec<WeightedCsr> = group
                .iter()
                .map(|&ki| self.operators[ki].base(&data.graph))
                .collect();
            while currents.len() < group.len() {
                currents.push(Matrix::zeros(n, f));
                nexts.push(Matrix::zeros(n, f));
            }
            for current in currents.iter_mut().take(group.len()) {
                current.copy_from(&data.features);
            }

            // Shard the row space once per group (group members share one
            // sparsity structure). Series operators never shard; auto
            // (unpinned) shard counts fall back to the sequential schedule
            // below the parallel threshold, like every pooled kernel.
            let series = self.operators[group[0]].is_diffusion_series();
            let work = bases.iter().map(|b| b.nnz()).max().unwrap_or(0) * f;
            let sharded =
                !series && num_shards > 1 && (shards_pinned || work > pool::parallel_threshold());
            let plan = ShardPlan::for_operator(&bases[0], num_shards);

            for r in 1..=self.hops {
                let hop_t0 = Instant::now();
                let _hop_span =
                    ppgnn_telemetry::span_with("hop", &[("r", r as u64), ("group", gi as u64)]);
                if sharded {
                    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> =
                        Vec::with_capacity(group.len() * plan.num_shards());
                    for (slot, next) in nexts.iter_mut().take(group.len()).enumerate() {
                        let base = &bases[slot];
                        let cur = &currents[slot];
                        let mut rest = next.as_mut_slice();
                        for range in plan.ranges() {
                            let (slab, tail) = rest.split_at_mut(range.len() * f);
                            rest = tail;
                            let range = range.clone();
                            tasks.push(Box::new(move || base.spmm_rows_into(range, cur, slab)));
                        }
                        debug_assert!(rest.is_empty(), "shard plan must tile the buffer");
                    }
                    pool.run(tasks);
                } else {
                    for (slot, &ki) in group.iter().enumerate() {
                        self.operators[ki].apply_with_base_into_on(
                            &bases[slot],
                            &currents[slot],
                            &mut nexts[slot],
                            pool,
                        );
                    }
                }
                for slot in 0..group.len() {
                    std::mem::swap(&mut currents[slot], &mut nexts[slot]);
                }
                for (slot, &ki) in group.iter().enumerate() {
                    let col = ki * f;
                    for (ids, hops) in ids_by_part.iter().zip(hops_by_part.iter_mut()) {
                        currents[slot].gather_rows_into_offset(ids, &mut hops[r], col);
                    }
                }
                if last_group {
                    if let Some(writer) = sink.as_deref_mut() {
                        // The clone is the write-side double buffer: at most
                        // queue-depth + 1 extra train-hop matrices are in
                        // flight, owned by the writer thread while diffusion
                        // continues — train-partition-sized, not full-graph.
                        // Journaled (resumed) hops skip the clone + write.
                        if !writer.resumed_hops()[r] {
                            writer.submit(r, hops_by_part[0][r].clone())?;
                        }
                    }
                }
                hop_ns[r] += hop_t0.elapsed().as_nanos() as u64;
            }
        }

        let mut parts = hops_by_part.into_iter();
        let mut extract = |ids: &[usize]| -> PrepropFeatures {
            PrepropFeatures {
                hops: share(parts.next().expect("three partitions")),
                labels: data.labels_of(ids),
                node_ids: ids.to_vec(),
            }
        };
        let train = extract(&data.split.train);
        let val = extract(&data.split.val);
        let test = extract(&data.split.test);

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

    /// Runs pre-propagation through the **partition-parallel** engine:
    /// the graph is cut into [`Preprocessor::with_num_partitions`] (or
    /// `PPGNN_NUM_PARTITIONS`) disjoint node partitions by the default
    /// nnz-balanced [`RangeCutPartitioner`], each partition diffuses its
    /// own rows with a per-hop ghost-row exchange, and labeled rows are
    /// gathered exactly as [`Preprocessor::run`] gathers them. Results are
    /// **bit-identical** to `run` at any partition count (pinned by
    /// `tests/partition_equivalence.rs`); `expansion.partitions` carries
    /// the per-partition balance table.
    pub fn run_partitioned(&self, data: &SynthDataset) -> PrepropOutput {
        self.run_partitioned_on(data, pool::pool())
    }

    /// [`Preprocessor::run_partitioned`] on an explicit worker pool.
    pub fn run_partitioned_on(&self, data: &SynthDataset, pool: &WorkerPool) -> PrepropOutput {
        self.run_partitioned_with(data, &RangeCutPartitioner, pool)
    }

    /// [`Preprocessor::run_partitioned`] with an explicit
    /// [`Partitioner`] strategy (e.g.
    /// [`ppgnn_graph::BfsGrowPartitioner`] for locality-first cuts).
    pub fn run_partitioned_with(
        &self,
        data: &SynthDataset,
        partitioner: &dyn Partitioner,
        pool: &WorkerPool,
    ) -> PrepropOutput {
        let engine = self.partition_engine(data, partitioner);
        self.run_partitioned_streaming(data, &engine, None, pool)
            .expect("in-memory partitioned preprocessing performs no I/O")
    }

    /// Runs the partitioned pipeline **and** writes each partition's
    /// training rows through its own async writer into a per-partition
    /// feature store under a [`ppgnn_dataio::ShardedStoreManifest`] — the
    /// partition-parallel counterpart of
    /// [`Preprocessor::run_with_store`]. Partition `p`'s store holds the
    /// training rows of the nodes it owns, in global training order, so
    /// every stored row is **byte-identical** to the same row of the
    /// single-store layout; with `P = 1` the lone partition store's hop
    /// files are byte-identical to [`Preprocessor::run_with_store`]'s.
    ///
    /// Like [`Preprocessor::run_with_store`], the run is resumable: each
    /// partition journals its committed hops, and an interrupted run of
    /// the same geometry skips re-writing the `(partition, hop)` units
    /// already proven complete.
    ///
    /// # Errors
    ///
    /// Propagates store-creation and write failures (reporting the
    /// latched write cause, not the fail-fast placeholder, when a submit
    /// aborts the run).
    pub fn run_with_sharded_store(
        &self,
        data: &SynthDataset,
        dir: impl AsRef<std::path::Path>,
        dataset: &str,
        chunk_size: usize,
    ) -> Result<(PrepropOutput, ShardedFeatureStore), DataIoError> {
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
    ) -> Result<(PrepropOutput, ShardedFeatureStore), DataIoError> {
        let engine = self.partition_engine(data, partitioner);
        let plan = engine.plan();
        let f = data.features.cols();
        // Global training rows owned by each partition, in global training
        // order — store `p`'s local row `j` is training row
        // `rows_by_part[p][j]`.
        let mut rows_by_part: Vec<Vec<usize>> = vec![Vec::new(); plan.num_partitions()];
        let mut nodes_by_part: Vec<Vec<usize>> = vec![Vec::new(); plan.num_partitions()];
        for (i, &v) in data.split.train.iter().enumerate() {
            rows_by_part[plan.owner(v)].push(i);
            nodes_by_part[plan.owner(v)].push(v);
        }
        let meta = StoreMeta {
            dataset: dataset.to_string(),
            num_hops: self.hops + 1,
            rows: data.split.train.len(),
            cols: self.operators.len() * f,
            chunk_size,
            dtype: self.resolved_store_dtype(),
        };
        let mut writer = ShardedStoreWriter::create_or_resume(
            dir,
            meta,
            &rows_by_part,
            self.resolved_writer_queue(),
        )?;
        match self.run_partitioned_streaming(
            data,
            &engine,
            Some((&mut writer, &nodes_by_part)),
            pool,
        ) {
            Ok(mut out) => {
                let stats = writer.writer_stats();
                out.expansion.telemetry.writer_queue_hwm = stats.queue_hwm as u64;
                out.expansion.telemetry.writer_block_ns = stats.submit_block_ns;
                let store = writer.finish()?;
                for stat in &mut out.expansion.partitions {
                    stat.store_bytes = store.partition_meta(stat.partition).total_bytes();
                }
                Ok((out, store))
            }
            // A failed submit returns a fail-fast placeholder; the write
            // error a partition writer latched is the actual cause.
            Err(e) => Err(writer.take_failure().unwrap_or(e)),
        }
    }

    fn partition_engine(
        &self,
        data: &SynthDataset,
        partitioner: &dyn Partitioner,
    ) -> PartitionedDiffusion {
        let plan = partitioner.partition(&data.graph, self.resolved_num_partitions());
        PartitionedDiffusion::new(&data.graph, self.operators.clone(), self.hops, plan)
    }

    /// The partitioned analog of `run_streaming`: hop views are gathered
    /// into the three labeled partitions' column blocks exactly like the
    /// single-domain engine, and (optionally) each graph partition's
    /// training rows are submitted to its async store writer as every hop
    /// completes.
    fn run_partitioned_streaming(
        &self,
        data: &SynthDataset,
        engine: &PartitionedDiffusion,
        mut sink: Option<(&mut ShardedStoreWriter, &[Vec<usize>])>,
        pool: &WorkerPool,
    ) -> Result<PrepropOutput, DataIoError> {
        let start = Instant::now();
        let _prep_span = ppgnn_telemetry::span("preprocess");
        let f = data.features.cols();
        let k_ops = self.operators.len();
        let kf = k_ops * f;
        // Hop `r`'s time is the wall clock between successive hop
        // callbacks (the engine invokes the callback once per finished
        // hop, hop 0 first), so diffusion and the ghost exchange are
        // attributed to the hop they produced.
        let mut hop_ns = vec![0u64; self.hops + 1];
        let mut hop_clock = Instant::now();
        let ids_by_part: [&[usize]; 3] = [&data.split.train, &data.split.val, &data.split.test];
        let mut hops_by_part: Vec<Vec<Matrix>> = ids_by_part
            .iter()
            .map(|ids| {
                (0..=self.hops)
                    .map(|_| Matrix::zeros(ids.len(), kf))
                    .collect()
            })
            .collect();

        // Task granularity: reuse the shard knob so `PPGNN_NUM_SHARDS`
        // bounds per-partition SpMM tasks too; the cut never affects
        // results.
        let (task_shards, _) = self.resolved_num_shards(pool);
        engine.run::<DataIoError>(&data.features, pool, task_shards, |r, view| {
            hop_ns[r] += hop_clock.elapsed().as_nanos() as u64;
            let _hop_span = ppgnn_telemetry::span_with("hop_gather", &[("r", r as u64)]);
            for k in 0..k_ops {
                let col = k * f;
                for (ids, hops) in ids_by_part.iter().zip(hops_by_part.iter_mut()) {
                    view.gather_rows_into_offset(k, ids, &mut hops[r], col);
                }
            }
            if let Some((writer, nodes_by_part)) = sink.as_mut() {
                for (p, nodes) in nodes_by_part.iter().enumerate() {
                    // (partition, hop) units an interrupted run already
                    // committed (per that partition's journal) are not
                    // regathered or resubmitted.
                    if writer.resumed_hops(p)[r] {
                        continue;
                    }
                    let mut rows = Matrix::zeros(nodes.len(), kf);
                    for k in 0..k_ops {
                        view.gather_rows_into_offset(k, nodes, &mut rows, k * f);
                    }
                    writer.submit(p, r, rows)?;
                }
            }
            hop_clock = Instant::now();
            Ok(())
        })?;

        let mut parts = hops_by_part.into_iter();
        let mut extract = |ids: &[usize]| -> PrepropFeatures {
            PrepropFeatures {
                hops: share(parts.next().expect("three partitions")),
                labels: data.labels_of(ids),
                node_ids: ids.to_vec(),
            }
        };
        let train = extract(&data.split.train);
        let val = extract(&data.split.val);
        let test = extract(&data.split.test);

        let mut partitions = engine.partition_stats();
        let plan = engine.plan();
        for &v in &data.split.train {
            partitions[plan.owner(v)].train_rows += 1;
        }

        let preprocess_seconds = start.elapsed().as_secs_f64();
        for &ns in &hop_ns {
            PREP_HOP_NS.record(ns);
        }
        let retained_rows = (train.len() + val.len() + test.len()) as u64;
        let expansion = ExpansionReport {
            raw_bytes: retained_rows * (f as u64) * 4,
            expanded_bytes: train.size_bytes() + val.size_bytes() + test.size_bytes(),
            retained_rows,
            num_operators: k_ops,
            hops: self.hops,
            partitions,
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
}

impl PrepropOutput {
    /// Persists the **training** partition to a feature store (the
    /// Section 4.3 file-per-hop layout), synchronously.
    ///
    /// # Errors
    ///
    /// Propagates store-creation and write failures.
    pub fn write_store(
        &self,
        dir: impl AsRef<std::path::Path>,
        dataset: &str,
        chunk_size: usize,
    ) -> Result<FeatureStore, DataIoError> {
        let rows = self.train.len();
        let cols = self.train.hops.first().map(|h| h.cols()).unwrap_or(0);
        let meta = StoreMeta {
            dataset: dataset.to_string(),
            num_hops: self.train.hops.len(),
            rows,
            cols,
            chunk_size,
            dtype: StoreDtype::from_env(),
        };
        let mut writer = ppgnn_dataio::FeatureStoreWriter::create(dir, meta)?;
        for (k, hop) in self.train.hops.iter().enumerate() {
            writer.write_hop(k, hop)?;
        }
        writer.finish()
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
        let explicit = prep.run_on(&data, &pool);
        for r in 0..=2 {
            assert_eq!(
                global.train.hops[r].as_slice(),
                explicit.train.hops[r].as_slice()
            );
        }
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
        for parts in [1, 2, 5] {
            let partitioned = Preprocessor::new(ops.clone(), 3)
                .with_num_partitions(parts)
                .run_partitioned(&data);
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
    }

    #[test]
    fn sharded_store_serves_rows_identical_to_single_store() {
        let data = small_data();
        let prep = Preprocessor::new(vec![Operator::SymNorm], 2);
        let base = std::env::temp_dir().join(format!("ppgnn-shardstore-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let (_, mut single) = prep
            .run_with_store(&data, base.join("single"), "pokec-sim", 16)
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
        let (out, mut store) = prep.run_with_store(&data, &dir, "pokec-sim", 32).unwrap();
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
        let out = Preprocessor::new(vec![Operator::SymNorm], 1).run(&data);
        let dir = std::env::temp_dir().join(format!("ppgnn-prep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = out.write_store(&dir, "pokec-sim", 64).unwrap();
        let hop0 = store.read_full_hop(0).unwrap();
        assert!(hop0.max_abs_diff(&out.train.hops[0]) < 1e-7);
        let hop1 = store.read_full_hop(1).unwrap();
        assert!(hop1.max_abs_diff(&out.train.hops[1]) < 1e-7);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
