//! The only file that names `ppgnn_*` items. Everything the harness does to
//! the program — generate, preprocess, store, load, train, evaluate, and
//! the single-entry-point probes — goes through the functions below, so a
//! rename in the program is a one-file diff here.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ppgnn_core::loader::{
    ChunkReshuffleLoader, DoubleBufferLoader, Loader, ShardedStorageChunkLoader,
};
use ppgnn_core::preprocess::{Preprocessor, PrepropOutput};
use ppgnn_core::trainer::{evaluate, LoaderKind, OptKind, TrainConfig, Trainer};
use ppgnn_dataio::{AccessPath, FeatureStoreWriter, ShardedFeatureStore, StoreDtype, StoreMeta};
use ppgnn_graph::synth::{DatasetProfile, SynthDataset};
use ppgnn_graph::{Operator, Partitioner, RangeCutPartitioner, WeightedCsr};
use ppgnn_models::{Hoga, PpModel, Sgc, Sign};
use ppgnn_nn::{Adam, CrossEntropyLoss, Mode, Optimizer};
use ppgnn_tensor::{cast, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{fnv1a_words, median, FNV_OFFSET};
use crate::trace::Tracer;
use crate::workloads::{Base, MemLoader, Model, Op, Pipeline, Workload, CHUNK_ROWS};

/// Dropout of the SIGN and HOGA models.
const DROPOUT: f32 = 0.1;
/// Seed offsets, so dataset, model and loader streams differ but all derive
/// from `--seed`.
const MODEL_SEED: u64 = 0x6d6f_6465;
const LOADER_SEED: u64 = 0x6c6f_6164;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// A generated dataset.
#[derive(Debug)]
pub struct Dataset(SynthDataset);

impl Dataset {
    /// Generates the workload's dataset from `seed`: the named stock profile
    /// with size, split, signal and structure overridden so accuracy climbs
    /// over several epochs instead of saturating in one.
    pub fn generate(w: &Workload, seed: u64) -> Result<Self, String> {
        let base = match w.base {
            Base::Products => DatasetProfile::products_sim(),
            Base::IgbMedium => DatasetProfile::igb_medium_sim(),
        };
        let profile = DatasetProfile {
            num_nodes: w.num_nodes,
            split_frac: (0.8, 0.1, 0.1),
            signal: w.signal,
            structure: w.structure,
            ..base
        };
        SynthDataset::generate(profile, seed)
            .map(Dataset)
            .map_err(err)
    }

    /// Feature columns `F`.
    pub fn feature_dim(&self) -> usize {
        self.0.features.cols()
    }
}

/// Classes in the dataset's labels.
pub fn num_classes(data: &Dataset) -> usize {
    data.0.profile.num_classes
}

/// Starts the shared worker pool and resolves the GEMM kernel dispatch with
/// one 8×8×8 product; returns the pool width.
pub fn warm_runtime() -> usize {
    let a = Matrix::eye(8);
    std::hint::black_box(ppgnn_tensor::matmul(&a, &a));
    ppgnn_tensor::pool().num_threads()
}

// ---------------------------------------------------------------------------
// Preprocessing
// ---------------------------------------------------------------------------

fn operators(w: &Workload) -> Vec<Operator> {
    w.ops
        .iter()
        .map(|op| match op {
            Op::SymNorm => Operator::SymNorm,
            Op::RowNorm => Operator::RowNorm,
        })
        .collect()
}

/// Preprocessed hops of the three splits plus the program's own accounting.
#[derive(Debug)]
pub struct Prep(PrepropOutput);

/// Counters one preprocessing call reports about itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrepStats {
    /// Σ per-hop diffusion wall seconds.
    pub hop_s: f64,
    /// Seconds diffusion spent blocked on a full writer queue.
    pub writer_block_s: f64,
    /// Most hop matrices in flight to the writer at once.
    pub writer_queue_hwm: f64,
    /// Expanded over raw bytes of the retained rows.
    pub expansion_factor: f64,
    /// Labeled rows kept (train + val + test).
    pub retained_rows: f64,
    /// Ghost rows fetched per hop, all partitions.
    pub ghost_rows: f64,
    /// Largest partition nnz over the mean.
    pub nnz_imbalance: f64,
}

/// One full call of the workload's preprocessing entry point. Store
/// pipelines write the training hops under `dir`, which must not hold a
/// previous store (the entry points resume, and would skip the writes).
pub fn preprocess(w: &Workload, data: &Dataset, dir: &Path) -> Result<Prep, String> {
    let prep = Preprocessor::new(operators(w), w.hops).with_store_dtype(StoreDtype::F32);
    let out = match w.pipeline {
        Pipeline::Memory(_) => prep.run(&data.0),
        Pipeline::ShardedStore { partitions } => {
            prep.with_num_partitions(partitions)
                .run_with_sharded_store(&data.0, dir, w.name, CHUNK_ROWS)
                .map_err(err)?
                .0
        }
    };
    Ok(Prep(out))
}

/// FNV-1a digest of an unpartitioned in-memory run's training hops — what a
/// partitioned run must reproduce bit for bit.
pub fn unpartitioned_digest(w: &Workload, data: &Dataset) -> u64 {
    Prep(Preprocessor::new(operators(w), w.hops).run(&data.0)).train_digest()
}

/// SpMM passes one preprocessing call makes (`Σ_k spmm_count · R`).
pub fn spmm_invocations(w: &Workload) -> usize {
    Preprocessor::new(operators(w), w.hops).total_spmm_invocations()
}

impl Prep {
    /// FNV-1a digest of the training hops, hop 0 first.
    pub fn train_digest(&self) -> u64 {
        self.0
            .train
            .hops
            .iter()
            .fold(FNV_OFFSET, |h, m| fnv1a_words(h, m.as_slice()))
    }

    /// Bytes of hop features held in memory for the three splits.
    pub fn retained_bytes(&self) -> u64 {
        self.0.train.size_bytes() + self.0.val.size_bytes() + self.0.test.size_bytes()
    }

    /// Rows of the (train, val, test) splits.
    pub fn rows(&self) -> (usize, usize, usize) {
        (self.0.train.len(), self.0.val.len(), self.0.test.len())
    }

    /// The counters the call reported about itself.
    pub fn stats(&self) -> PrepStats {
        let e = &self.0.expansion;
        let nnz: Vec<f64> = e.partitions.iter().map(|p| p.nnz as f64).collect();
        let mean_nnz = nnz.iter().sum::<f64>() / nnz.len().max(1) as f64;
        PrepStats {
            hop_s: e.telemetry.hop_ns.iter().sum::<u64>() as f64 / 1e9,
            writer_block_s: e.telemetry.writer_block_ns as f64 / 1e9,
            writer_queue_hwm: e.telemetry.writer_queue_hwm as f64,
            expansion_factor: e.factor(),
            retained_rows: e.retained_rows as f64,
            ghost_rows: e.partitions.iter().map(|p| p.ghost_rows).sum::<usize>() as f64,
            nnz_imbalance: if mean_nnz > 0.0 {
                nnz.iter().copied().fold(0.0, f64::max) / mean_nnz
            } else {
                0.0
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Loaders and training
// ---------------------------------------------------------------------------

/// The workload's training loader: the sharded storage chunk loader over the
/// stores under `dir` behind the producer thread, or the in-memory generation
/// `Trainer::fit` would build (including its copy of the training hops).
fn make_loader(
    w: &Workload,
    prep: &Prep,
    dir: &Path,
    seed: u64,
) -> Result<Box<dyn Loader>, String> {
    let seed = seed ^ LOADER_SEED;
    let labels = prep.0.train.labels.clone();
    Ok(match w.pipeline {
        Pipeline::Memory(kind) => {
            let data = Arc::new(prep.0.train.clone());
            match kind {
                MemLoader::DoubleBuffer => Box::new(DoubleBufferLoader::new(data, w.batch, seed)),
                MemLoader::Chunk(rows) => {
                    Box::new(ChunkReshuffleLoader::new(data, w.batch, rows, seed))
                }
            }
        }
        Pipeline::ShardedStore { .. } => {
            let store = ShardedFeatureStore::open(dir).map_err(err)?;
            let source =
                ShardedStorageChunkLoader::new(store, labels, w.batch, AccessPath::Direct, seed);
            Box::new(DoubleBufferLoader::over_source(Box::new(source)))
        }
    })
}

fn make_model(w: &Workload, prep: &Prep, seed: u64) -> Box<dyn PpModel> {
    let mut rng = StdRng::seed_from_u64(seed ^ MODEL_SEED);
    let f = prep.0.train.hops[0].cols();
    let classes = prep
        .0
        .train
        .labels
        .iter()
        .max()
        .map_or(1, |&c| c as usize + 1);
    match w.model {
        Model::Sgc => Box::new(Sgc::new(w.hops, f, classes, &mut rng)),
        Model::Sign { hidden } => {
            Box::new(Sign::new(w.hops, f, hidden, classes, DROPOUT, &mut rng))
        }
        Model::Hoga { hidden, heads } => Box::new(Hoga::new(
            w.hops, f, hidden, heads, classes, DROPOUT, &mut rng,
        )),
    }
}

/// One epoch of a training run.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochRow {
    /// Train phase: `start_epoch` until the loader is exhausted.
    pub train_s: f64,
    /// Whole epoch, evaluation included.
    pub total_s: f64,
    /// Seconds the consumer was blocked in `next_batch`.
    pub wait_s: f64,
    /// Seconds in forward passes (loss included).
    pub forward_s: f64,
    /// Seconds in backward passes.
    pub backward_s: f64,
    /// Seconds in optimizer steps.
    pub optim_s: f64,
    /// Seconds evaluating (val every epoch, test when val improves).
    pub eval_s: f64,
    /// Mean training loss.
    pub loss: f64,
    /// Validation accuracy after the epoch.
    pub val_acc: f64,
}

/// Outcome of a training run.
#[derive(Debug, Default)]
pub struct TrainRun {
    /// Per-epoch measurements, in order.
    pub epochs: Vec<EpochRow>,
    /// Test accuracy at the best validation epoch.
    pub test_acc: f64,
    /// Wall seconds of the whole run, loader and model construction included.
    pub wall_s: f64,
    /// Seconds building the loader (for in-memory loaders, the copy of the
    /// training hops); 0 where `Trainer::fit` built it.
    pub loader_setup_s: f64,
    /// Batches trained.
    pub batches: u64,
    /// `evaluate` calls made.
    pub evals: u64,
    /// Loader counters at the end of the run; 0 where `Trainer::fit` owned
    /// the loader.
    pub bytes_assembled: u64,
    /// See `bytes_assembled`.
    pub gather_ops: u64,
    /// Microseconds each `next_batch` call blocked (harness loop only).
    pub batch_wait_us: Vec<f64>,
    /// Scalar parameters of the model.
    pub params: usize,
    /// Forward + backward FLOPs per example, as the model estimates them.
    pub flops_per_example: u64,
    /// Anything that counts as a failed operation, one message each.
    pub failures: Vec<String>,
}

/// Trains for `epochs` epochs. In-memory pipelines go through
/// `Trainer::fit` unless `harness_loop` is set; `Trainer::fit` has no
/// storage entry point, so store pipelines — and every traced run — use
/// the epoch loop below, which has the same body and the public `evaluate`.
pub fn train(
    w: &Workload,
    prep: &Prep,
    dir: &Path,
    seed: u64,
    epochs: usize,
    harness_loop: bool,
    tr: &Tracer,
) -> Result<TrainRun, String> {
    let wall = Instant::now();
    let mut model = make_model(w, prep, seed);
    let mut run = match w.pipeline {
        Pipeline::Memory(kind) if !harness_loop => fit(w, kind, prep, seed, epochs, &mut *model)?,
        _ => {
            let (loader, loader_setup_s) =
                tr.time("loader.setup", || make_loader(w, prep, dir, seed));
            let mut run = run_epochs(w, prep, &mut *loader?, epochs, &mut *model, tr);
            run.loader_setup_s = loader_setup_s;
            run
        }
    };
    run.params = model.num_params();
    run.flops_per_example = model.flops_per_example();
    run.wall_s = wall.elapsed().as_secs_f64();
    for (i, e) in run.epochs.iter().enumerate() {
        if !e.loss.is_finite() {
            run.failures
                .push(format!("epoch {i}: non-finite loss {}", e.loss));
        }
    }
    Ok(run)
}

fn fit(
    w: &Workload,
    kind: MemLoader,
    prep: &Prep,
    seed: u64,
    epochs: usize,
    model: &mut dyn PpModel,
) -> Result<TrainRun, String> {
    let config = TrainConfig {
        epochs,
        batch_size: w.batch,
        loader: match kind {
            MemLoader::DoubleBuffer => LoaderKind::DoubleBuffer,
            MemLoader::Chunk(chunk_size) => LoaderKind::Chunk { chunk_size },
        },
        lr: w.lr,
        optimizer: OptKind::Adam { weight_decay: 0.0 },
        seed: seed ^ LOADER_SEED,
    };
    let report = Trainer::new(config).fit(model, &prep.0).map_err(err)?;
    let mut run = TrainRun {
        test_acc: report.test_acc,
        batches: (epochs * prep.0.train.len().div_ceil(w.batch)) as u64,
        ..TrainRun::default()
    };
    // `fit` evaluates val every epoch and test whenever val does not drop.
    let mut best = 0.0;
    for e in &report.history {
        run.evals += 1;
        if e.val_acc >= best {
            best = e.val_acc;
            run.evals += 1;
        }
        let train_s = e.loading_s + e.forward_s + e.backward_s + e.optim_s;
        run.epochs.push(EpochRow {
            train_s,
            total_s: e.total_s,
            wait_s: e.loading_s,
            forward_s: e.forward_s,
            backward_s: e.backward_s,
            optim_s: e.optim_s,
            eval_s: e.total_s - train_s,
            loss: e.train_loss,
            val_acc: e.val_acc,
        });
    }
    Ok(run)
}

/// The body of `Trainer::fit`, over any loader, with a span per phase.
fn run_epochs(
    w: &Workload,
    prep: &Prep,
    loader: &mut dyn Loader,
    epochs: usize,
    model: &mut dyn PpModel,
    tr: &Tracer,
) -> TrainRun {
    let mut opt = Adam::with_options(w.lr, 0.9, 0.999, 1e-8, 0.0);
    let loss_fn = CrossEntropyLoss;
    let mut logits = Matrix::default();
    let mut run = TrainRun::default();
    let mut best = 0.0;
    for epoch in 0..epochs {
        let _epoch_span = tr.span("epoch");
        let epoch_start = Instant::now();
        let mut row = EpochRow::default();
        let mut batches = 0u64;
        let train_span = tr.span("epoch.train");
        loader.start_epoch();
        loop {
            let (batch, wait) = tr.time("loader.wait", || loader.next_batch());
            row.wait_s += wait;
            let Some(batch) = batch else { break };
            run.batch_wait_us.push(wait * 1e6);
            let ((loss, grad), s) = tr.time("model.forward", || {
                model.forward_into(&batch.hops, Mode::Train, &mut logits);
                loss_fn.loss_and_grad(&logits, &batch.labels)
            });
            row.forward_s += s;
            row.backward_s += tr
                .time("model.backward", || {
                    model.zero_grad();
                    model.backward(&grad);
                })
                .1;
            row.optim_s += tr.time("optim.step", || opt.step(&mut model.params())).1;
            row.loss += f64::from(loss);
            batches += 1;
        }
        drop(train_span);
        row.train_s = epoch_start.elapsed().as_secs_f64();
        if let Some(msg) = loader.take_error() {
            run.failures.push(format!("epoch {epoch}: loader: {msg}"));
        }
        row.eval_s = tr
            .time("evaluate", || {
                row.val_acc = evaluate(model, &prep.0.val, w.batch);
                run.evals += 1;
                if row.val_acc >= best {
                    best = row.val_acc;
                    run.test_acc = evaluate(model, &prep.0.test, w.batch);
                    run.evals += 1;
                }
            })
            .1;
        row.loss /= batches.max(1) as f64;
        row.total_s = epoch_start.elapsed().as_secs_f64();
        run.batches += batches;
        run.epochs.push(row);
    }
    let counters = loader.counters();
    run.bytes_assembled = counters.bytes_assembled;
    run.gather_ops = counters.gather_ops;
    run
}

/// One epoch of the workload's loader with no consumer compute; returns the
/// seconds of each of `reps` drains.
pub fn drain_loader(
    w: &Workload,
    prep: &Prep,
    dir: &Path,
    seed: u64,
    reps: usize,
) -> Result<Vec<f64>, String> {
    let mut loader = make_loader(w, prep, dir, seed)?;
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        loader.start_epoch();
        while let Some(batch) = loader.next_batch() {
            std::hint::black_box(&batch);
        }
        secs.push(t.elapsed().as_secs_f64());
        if let Some(msg) = loader.take_error() {
            return Err(msg);
        }
    }
    Ok(secs)
}

/// Correctness of the read path: one epoch of the workload's loader must
/// yield every training row exactly once, each equal to the in-memory hops
/// bit for bit (the stores hold f32).
pub fn check_loader_stream(w: &Workload, prep: &Prep, dir: &Path, seed: u64) -> Result<(), String> {
    let train = &prep.0.train;
    let mut seen = vec![false; train.len()];
    let mut loader = make_loader(w, prep, dir, seed)?;
    loader.start_epoch();
    while let Some(batch) = loader.next_batch() {
        for (i, &row) in batch.indices.iter().enumerate() {
            if std::mem::replace(&mut seen[row], true) {
                return Err(format!("loader yielded training row {row} twice"));
            }
            if batch.labels[i] != train.labels[row] {
                return Err(format!("label of training row {row} differs"));
            }
            for (h, (got, want)) in batch.hops.iter().zip(&train.hops).enumerate() {
                let same = got
                    .row(i)
                    .iter()
                    .zip(want.row(row))
                    .all(|(g, a)| g.to_bits() == a.to_bits());
                if !same {
                    return Err(format!("hop {h} of training row {row} differs"));
                }
            }
        }
    }
    if let Some(msg) = loader.take_error() {
        return Err(msg);
    }
    match seen.iter().position(|s| !s) {
        Some(row) => Err(format!("loader never yielded training row {row}")),
        None => Ok(()),
    }
}

/// `evaluate` on the test split with a fresh model: (seconds, rows).
pub fn time_evaluate(w: &Workload, prep: &Prep, seed: u64) -> (f64, usize) {
    let mut model = make_model(w, prep, seed);
    let t = Instant::now();
    std::hint::black_box(evaluate(&mut *model, &prep.0.test, w.batch));
    (t.elapsed().as_secs_f64(), prep.0.test.len())
}

// ---------------------------------------------------------------------------
// Stage replica and single-entry-point probes (traced run only)
// ---------------------------------------------------------------------------

/// What the graph and partition layers cost when driven stage by stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphStages {
    /// Building every operator's normalized adjacency.
    pub operator_build_s: f64,
    /// Partitioner plus per-partition operator extraction (0 unpartitioned).
    pub plan_s: f64,
    /// Σ of the `K·R` full-graph SpMM passes.
    pub spmm_s: f64,
    /// Non-zeros multiplied across those passes.
    pub spmm_nnz: f64,
}

/// Replays preprocessing's graph work from its public pieces: operator
/// build, partition plan + extraction, then `K·R` `spmm_into` passes on
/// `N×F` ping-pong buffers.
pub fn graph_stages(w: &Workload, data: &Dataset, tr: &Tracer) -> GraphStages {
    let graph = &data.0.graph;
    let mut out = GraphStages::default();
    let (bases, s) = tr.time("graph.operator_build", || {
        operators(w)
            .iter()
            .map(|op| op.base(graph))
            .collect::<Vec<WeightedCsr>>()
    });
    out.operator_build_s = s;
    if let Pipeline::ShardedStore { partitions } = w.pipeline {
        out.plan_s = tr
            .time("partition.plan", || {
                let plan = RangeCutPartitioner.partition(graph, partitions);
                for base in &bases {
                    for p in 0..plan.num_partitions() {
                        std::hint::black_box(plan.extract(base, p));
                    }
                }
            })
            .1;
    }
    let mut cur = data.0.features.clone();
    let mut next = Matrix::zeros(cur.rows(), cur.cols());
    for base in &bases {
        for _ in 0..w.hops {
            out.spmm_s += tr.time("graph.spmm", || base.spmm_into(&cur, &mut next)).1;
            out.spmm_nnz += base.nnz() as f64;
            std::mem::swap(&mut cur, &mut next);
        }
    }
    out
}

/// Synchronous f32 store write of the training hops:
/// `FeatureStoreWriter::create` → `write_hop` × (R+1) → `finish`. Returns
/// (seconds, logical bytes, physical payload bytes).
pub fn write_store(w: &Workload, prep: &Prep, dir: &Path) -> Result<(f64, u64, u64), String> {
    let train = &prep.0.train;
    let meta = StoreMeta {
        dataset: w.name.to_string(),
        num_hops: train.hops.len(),
        rows: train.len(),
        cols: train.hops[0].cols(),
        chunk_size: CHUNK_ROWS,
        dtype: StoreDtype::F32,
    };
    let t = Instant::now();
    let mut writer = FeatureStoreWriter::create(dir, meta).map_err(err)?;
    for (k, hop) in train.hops.iter().enumerate() {
        writer.write_hop(k, hop).map_err(err)?;
    }
    let store = writer.finish().map_err(err)?;
    let secs = t.elapsed().as_secs_f64();
    Ok((
        secs,
        store.meta().total_bytes(),
        store.meta().physical_bytes(),
    ))
}

/// The partition stores preprocessing left under `dir`.
#[derive(Debug)]
pub struct Store(ShardedFeatureStore);

/// Counters of a [`Store::sweep`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadCounts {
    /// Chunk read requests issued.
    pub requests: u64,
    /// Decoded f32 bytes delivered.
    pub logical_bytes: u64,
    /// Requests that returned an error.
    pub failures: u64,
}

impl Store {
    /// Opens the stores under `dir`.
    pub fn open(dir: &Path) -> Result<Self, String> {
        ShardedFeatureStore::open(dir).map(Store).map_err(err)
    }

    /// Reads every chunk of every hop once (`read_chunk_all_hops`) in an
    /// order shuffled from `seed`; returns what this sweep read.
    pub fn sweep(&mut self, seed: u64) -> ReadCounts {
        let store = &mut self.0;
        let mut chunks: Vec<(usize, usize)> = (0..store.num_partitions())
            .flat_map(|p| (0..store.num_chunks(p)).map(move |c| (p, c)))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..chunks.len()).rev() {
            chunks.swap(i, rng.random_range(0..=i));
        }
        let before = store.counters();
        let mut failures = 0;
        for (p, c) in chunks {
            match store.read_chunk_all_hops(p, c, AccessPath::Direct) {
                Ok(hops) => drop(std::hint::black_box(hops)),
                Err(_) => failures += 1,
            }
        }
        let delta = store.counters().delta_since(&before);
        ReadCounts {
            requests: delta.seq_requests + delta.rand_requests,
            logical_bytes: delta.logical_bytes,
            failures,
        }
    }
}

/// Median seconds of `reps` calls of `f`, after one untimed call that packs
/// buffers and first-touches outputs.
fn median_call_secs(reps: usize, f: &mut dyn FnMut()) -> f64 {
    f();
    let secs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&secs)
}

/// Packed-GEMM rates in GFLOP/s at the workload's dominant layer shape
/// `(batch, in, out)`: forward `X·W` (nn), weight gradient `Xᵀ·∂Y` (tn) and
/// input gradient `∂Y·Wᵀ` (nt). Each is the median of `reps` calls.
pub fn gemm_gflops(w: &Workload, feature_dim: usize, classes: usize, reps: usize) -> [f64; 3] {
    let (m, k) = (w.batch, feature_dim * w.ops.len());
    let n = match w.model {
        Model::Sgc => classes,
        Model::Sign { hidden } | Model::Hoga { hidden, .. } => hidden,
    };
    let fill = |r: usize, c: usize| ((r * 31 + c * 17) % 13) as f32 * 0.125 - 0.75;
    let x = Matrix::from_fn(m, k, fill);
    let wt = Matrix::from_fn(k, n, fill);
    let dy = Matrix::from_fn(m, n, fill);
    let mut y = Matrix::zeros(m, n);
    let mut dw = Matrix::zeros(k, n);
    let mut dx = Matrix::zeros(m, k);
    let flops = 2.0 * (m * k * n) as f64;
    let rate = |f: &mut dyn FnMut()| flops / median_call_secs(reps, f) / 1e9;
    [
        rate(&mut || ppgnn_tensor::matmul_into(&x, &wt, &mut y)),
        rate(&mut || ppgnn_tensor::matmul_tn_into(&x, &dy, &mut dw)),
        rate(&mut || ppgnn_tensor::matmul_nt_into(&dy, &wt, &mut dx)),
    ]
}

/// f16 encode and decode rates in Mrows/s at `cols` columns over one
/// chunk of rows (`cast::encode_rows` / `cast::decode_rows`).
pub fn cast_mrows_per_s(cols: usize, reps: usize) -> (f64, f64) {
    let rows = CHUNK_ROWS;
    let src: Vec<f32> = (0..rows * cols)
        .map(|i| (i % 251) as f32 * 0.01 - 1.0)
        .collect();
    let mut enc = vec![0u8; rows * StoreDtype::F16.encoded_row_bytes(cols)];
    let mut dec = vec![0f32; rows * cols];
    let rate = |f: &mut dyn FnMut()| rows as f64 / median_call_secs(reps, f) / 1e6;
    let e = rate(&mut || cast::encode_rows(StoreDtype::F16, &src, cols, &mut enc));
    let d = rate(&mut || cast::decode_rows(StoreDtype::F16, &enc, cols, &mut dec));
    (e, d)
}
