//! SGD-RR / SGD-CR training loops with per-phase instrumentation.
//!
//! The trainer is deliberately explicit about its phases — data loading,
//! forward, backward, optimizer step — because their relative weights *are*
//! the paper's Figure 5. Every epoch also evaluates validation accuracy so
//! convergence points (the Figure 3/10/13 metric: first epoch reaching 99 %
//! of peak validation accuracy) come out of the same run.

use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use ppgnn_models::{MpModel, PpModel};
use ppgnn_nn::{metrics, Adam, CrossEntropyLoss, Mode, Optimizer, Sgd};
use ppgnn_sampler::{SampleStats, Sampler};
use ppgnn_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::loader::{
    BaselineLoader, ChunkReshuffleLoader, DoubleBufferLoader, FusedGatherLoader, Loader,
};
use crate::preprocess::{PrepropFeatures, PrepropOutput};

/// Per-batch and per-epoch latency distributions mirrored into the
/// telemetry registry. The phase timers ([`EpochStats`]) stay the
/// Figure 5 source of truth; these add tail percentiles (p50/p90/p99)
/// the mean-based phase accounting cannot express.
static TRAIN_BATCH_NS: ppgnn_telemetry::Histogram =
    ppgnn_telemetry::Histogram::new("train.batch_ns");
static TRAIN_EPOCH_NS: ppgnn_telemetry::Histogram =
    ppgnn_telemetry::Histogram::new("train.epoch_ns");
static EVAL_BATCH_NS: ppgnn_telemetry::Histogram = ppgnn_telemetry::Histogram::new("eval.batch_ns");

/// Which loader generation the trainer drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoaderKind {
    /// Per-row baseline (generation 0).
    Baseline,
    /// Fused batch assembly (generation 1).
    Fused,
    /// Threaded double-buffer prefetching (generation 2).
    DoubleBuffer,
    /// Chunk reshuffling with the given chunk size (generation 3 — SGD-CR).
    Chunk {
        /// Rows per chunk.
        chunk_size: usize,
    },
}

/// Which optimizer to construct.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptKind {
    /// Adam with the given weight decay.
    Adam {
        /// L2 weight decay.
        weight_decay: f32,
    },
    /// SGD with momentum.
    Sgd {
        /// Momentum coefficient.
        momentum: f32,
    },
}

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Epochs to run.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Loader generation.
    pub loader: LoaderKind,
    /// Learning rate.
    pub lr: f32,
    /// Optimizer.
    pub optimizer: OptKind,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 50,
            batch_size: 512,
            loader: LoaderKind::DoubleBuffer,
            lr: 1e-3,
            optimizer: OptKind::Adam { weight_decay: 0.0 },
            seed: 0,
        }
    }
}

/// Per-epoch measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over batches.
    pub train_loss: f64,
    /// Validation accuracy after the epoch.
    pub val_acc: f64,
    /// Seconds blocked on `next_batch` (data loading).
    pub loading_s: f64,
    /// Seconds in model forward passes.
    pub forward_s: f64,
    /// Seconds in backward passes.
    pub backward_s: f64,
    /// Seconds in optimizer steps.
    pub optim_s: f64,
    /// Wall-clock epoch seconds (including evaluation).
    pub total_s: f64,
}

impl EpochStats {
    /// Fraction of measured training time spent in data loading —
    /// the functional-plane Figure 5 quantity.
    pub fn loading_fraction(&self) -> f64 {
        let denom = self.loading_s + self.forward_s + self.backward_s + self.optim_s;
        if denom > 0.0 {
            self.loading_s / denom
        } else {
            0.0
        }
    }
}

/// Full training-run outcome.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Epochs actually run.
    pub epochs_run: usize,
    /// Per-epoch statistics.
    pub history: Vec<EpochStats>,
    /// Best validation accuracy seen.
    pub best_val_acc: f64,
    /// Test accuracy at the best-validation epoch.
    pub test_acc: f64,
    /// First epoch reaching 99 % of peak validation accuracy.
    pub convergence_point: Option<usize>,
}

impl TrainReport {
    /// Mean epoch time over the run, seconds.
    pub fn mean_epoch_seconds(&self) -> f64 {
        if self.history.is_empty() {
            return 0.0;
        }
        self.history.iter().map(|e| e.total_s).sum::<f64>() / self.history.len() as f64
    }

    /// Mean data-loading fraction over the run.
    pub fn mean_loading_fraction(&self) -> f64 {
        if self.history.is_empty() {
            return 0.0;
        }
        self.history
            .iter()
            .map(|e| e.loading_fraction())
            .sum::<f64>()
            / self.history.len() as f64
    }
}

/// Errors from training runs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TrainError {
    /// The training partition holds no examples.
    EmptyTrainSet,
    /// The data loader's epoch ended on an I/O failure (e.g. a truncated
    /// feature-store file); carries the loader's error message.
    Loader(String),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::EmptyTrainSet => write!(f, "training partition is empty"),
            TrainError::Loader(msg) => write!(f, "data loader failed mid-epoch: {msg}"),
        }
    }
}

impl Error for TrainError {}

/// Tracks validation accuracy and reports convergence points.
#[derive(Debug, Clone, Default)]
pub struct ConvergenceTracker {
    history: Vec<f64>,
}

impl ConvergenceTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one epoch's validation accuracy.
    pub fn record(&mut self, acc: f64) {
        self.history.push(acc);
    }

    /// Peak accuracy so far (`0.0` when empty).
    pub fn peak(&self) -> f64 {
        self.history.iter().copied().fold(0.0, f64::max)
    }

    /// First epoch whose accuracy reaches `frac` of the peak — the paper's
    /// convergence-point metric with `frac = 0.99`.
    pub fn convergence_point(&self, frac: f64) -> Option<usize> {
        let threshold = self.peak() * frac;
        self.history.iter().position(|&a| a >= threshold)
    }

    /// Recorded history.
    pub fn history(&self) -> &[f64] {
        &self.history
    }
}

/// PP-GNN trainer.
#[derive(Debug)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Builds the configured loader over `train`, sharing its hop matrices
    /// (`R + 1` refcount bumps, no feature copy). The two generations that
    /// run on a training critical path gather only `hops_read`; Baseline
    /// and Fused stay deliver-everything reference generations.
    fn make_loader(&self, train: &PrepropFeatures, hops_read: &[usize]) -> Box<dyn Loader> {
        let data = Arc::new(train.clone());
        let b = self.config.batch_size;
        let s = self.config.seed;
        match self.config.loader {
            LoaderKind::Baseline => Box::new(BaselineLoader::new(data, b, s)),
            LoaderKind::Fused => Box::new(FusedGatherLoader::new(data, b, s)),
            LoaderKind::DoubleBuffer => {
                Box::new(DoubleBufferLoader::new(data, b, s).reading(hops_read))
            }
            LoaderKind::Chunk { chunk_size } => {
                Box::new(ChunkReshuffleLoader::new(data, b, chunk_size, s).reading(hops_read))
            }
        }
    }

    fn make_optimizer(&self) -> Box<dyn Optimizer> {
        match self.config.optimizer {
            OptKind::Adam { weight_decay } => Box::new(Adam::with_options(
                self.config.lr,
                0.9,
                0.999,
                1e-8,
                weight_decay,
            )),
            OptKind::Sgd { momentum } => Box::new(Sgd::with_options(self.config.lr, momentum, 0.0)),
        }
    }

    /// Trains `model` on `data.train`, evaluating on `data.val`/`data.test`
    /// each epoch.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::EmptyTrainSet`] if there is nothing to train
    /// on.
    pub fn fit(
        &mut self,
        model: &mut dyn PpModel,
        data: &PrepropOutput,
    ) -> Result<TrainReport, TrainError> {
        if data.train.is_empty() {
            return Err(TrainError::EmptyTrainSet);
        }
        let mut loader = {
            let _setup_span = ppgnn_telemetry::span("loader_setup");
            self.make_loader(&data.train, &model.hops_read())
        };
        let mut opt = self.make_optimizer();
        let loss_fn = CrossEntropyLoss;

        let mut history = Vec::with_capacity(self.config.epochs);
        let mut tracker = ConvergenceTracker::new();
        let mut best_val = 0.0f64;
        let mut test_at_best = 0.0f64;
        // Logits slot reused by every training batch of the run.
        let mut logits = Matrix::default();

        for epoch in 0..self.config.epochs {
            let epoch_start = Instant::now();
            let _epoch_span = ppgnn_telemetry::span_with("epoch", &[("epoch", epoch as u64)]);
            let mut loading_s = 0.0;
            let mut forward_s = 0.0;
            let mut backward_s = 0.0;
            let mut optim_s = 0.0;
            let mut loss_sum = 0.0f64;
            let mut batches = 0usize;

            loader.start_epoch();
            loop {
                let t = Instant::now();
                let batch_t0 = t;
                let Some(batch) = loader.next_batch() else {
                    loading_s += t.elapsed().as_secs_f64();
                    break;
                };
                loading_s += t.elapsed().as_secs_f64();

                let t = Instant::now();
                model.forward_into(&batch.hops, Mode::Train, &mut logits);
                let (loss, grad) = loss_fn.loss_and_grad(&logits, &batch.labels);
                forward_s += t.elapsed().as_secs_f64();

                let t = Instant::now();
                model.zero_grad();
                model.backward(&grad);
                backward_s += t.elapsed().as_secs_f64();

                let t = Instant::now();
                opt.step(&mut model.params());
                optim_s += t.elapsed().as_secs_f64();

                loss_sum += loss as f64;
                batches += 1;
                TRAIN_BATCH_NS.record(batch_t0.elapsed().as_nanos() as u64);
            }
            if let Some(msg) = loader.take_error() {
                return Err(TrainError::Loader(msg));
            }

            let val_acc = evaluate(model, &data.val, self.config.batch_size);
            tracker.record(val_acc);
            if val_acc >= best_val {
                best_val = val_acc;
                test_at_best = evaluate(model, &data.test, self.config.batch_size);
            }

            history.push(EpochStats {
                epoch,
                train_loss: if batches > 0 {
                    loss_sum / batches as f64
                } else {
                    0.0
                },
                val_acc,
                loading_s,
                forward_s,
                backward_s,
                optim_s,
                total_s: epoch_start.elapsed().as_secs_f64(),
            });
            TRAIN_EPOCH_NS.record(epoch_start.elapsed().as_nanos() as u64);
        }

        Ok(TrainReport {
            epochs_run: history.len(),
            history,
            best_val_acc: best_val,
            test_acc: test_at_best,
            convergence_point: tracker.convergence_point(0.99),
        })
    }
}

/// Batched full-partition evaluation (Mode::Eval), returning accuracy.
///
/// Only the hops the model declares it reads ([`PpModel::hops_read`]) are
/// sliced; the others reach `forward_into` as empty matrices. Hop-slice
/// buffers are resized in place and refilled via
/// [`Matrix::slice_rows_into`], and logits land in a reusable slot via
/// [`PpModel::forward_into`] — steady-state batches of the sweep run
/// without fresh heap allocations. Empty partitions evaluate to `0.0`.
pub fn evaluate(model: &mut dyn PpModel, data: &PrepropFeatures, batch_size: usize) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let _eval_span = ppgnn_telemetry::span_with("eval", &[("rows", data.len() as u64)]);
    let n = data.len();
    let mut hits = 0usize;
    let mut start = 0;
    let hops_read = model.hops_read();
    let mut hop_slices: Vec<Matrix> = data.hops.iter().map(|_| Matrix::default()).collect();
    let mut logits = Matrix::default();
    while start < n {
        // Timed only when the tracer is on: the disabled-path cost of an
        // eval batch stays one relaxed atomic load.
        let batch_t0 = ppgnn_telemetry::enabled().then(Instant::now);
        let end = (start + batch_size).min(n);
        let rows = end - start;
        for &r in &hops_read {
            let (hop, slice) = (&data.hops[r], &mut hop_slices[r]);
            slice.resize_to(rows, hop.cols());
            hop.slice_rows_into(start, end, slice);
        }
        model.forward_into(&hop_slices, Mode::Eval, &mut logits);
        let labels = &data.labels[start..end];
        hits += (metrics::accuracy(&logits, labels) * labels.len() as f64).round() as usize;
        start = end;
        if let Some(t0) = batch_t0 {
            EVAL_BATCH_NS.record(t0.elapsed().as_nanos() as u64);
        }
    }
    hits as f64 / n as f64
}

/// Per-epoch statistics of an MP-GNN training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpEpochStats {
    /// Epoch index.
    pub epoch: usize,
    /// Mean training loss.
    pub train_loss: f64,
    /// Validation accuracy.
    pub val_acc: f64,
    /// Seconds spent sampling.
    pub sampling_s: f64,
    /// Seconds gathering input features.
    pub gather_s: f64,
    /// Seconds in forward+backward+step.
    pub compute_s: f64,
    /// Accumulated sampling statistics over the epoch.
    pub sample_stats: SampleStats,
}

/// MP-GNN training-run outcome.
#[derive(Debug, Clone)]
pub struct MpTrainReport {
    /// Per-epoch statistics.
    pub history: Vec<MpEpochStats>,
    /// Best validation accuracy.
    pub best_val_acc: f64,
    /// Test accuracy at the best-validation epoch.
    pub test_acc: f64,
    /// 99 %-of-peak convergence epoch.
    pub convergence_point: Option<usize>,
}

/// Trains an MP-GNN with a sampler — the baseline pipeline PP-GNNs are
/// compared against. Evaluation also uses the sampler (inference sampling,
/// as DGL examples do).
///
/// # Errors
///
/// Returns [`TrainError::EmptyTrainSet`] if `train_ids` is empty.
#[allow(clippy::too_many_arguments)]
pub fn fit_mp(
    model: &mut dyn MpModel,
    sampler: &mut dyn Sampler,
    graph: &ppgnn_graph::CsrGraph,
    features: &Matrix,
    labels: &[u32],
    train_ids: &[usize],
    val_ids: &[usize],
    test_ids: &[usize],
    config: &TrainConfig,
) -> Result<MpTrainReport, TrainError> {
    if train_ids.is_empty() {
        return Err(TrainError::EmptyTrainSet);
    }
    let mut opt: Box<dyn Optimizer> = match config.optimizer {
        OptKind::Adam { weight_decay } => Box::new(Adam::with_options(
            config.lr,
            0.9,
            0.999,
            1e-8,
            weight_decay,
        )),
        OptKind::Sgd { momentum } => Box::new(Sgd::with_options(config.lr, momentum, 0.0)),
    };
    let loss_fn = CrossEntropyLoss;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut history = Vec::new();
    let mut tracker = ConvergenceTracker::new();
    let mut best_val = 0.0;
    let mut test_at_best = 0.0;
    // Input-gather and logits slots reused by every training batch.
    let mut xin = Matrix::default();
    let mut logits = Matrix::default();

    for epoch in 0..config.epochs {
        let mut order: Vec<usize> = train_ids.to_vec();
        crate::loader_shuffle(&mut order, &mut rng);
        let mut sampling_s = 0.0;
        let mut gather_s = 0.0;
        let mut compute_s = 0.0;
        let mut loss_sum = 0.0;
        let mut batches = 0usize;
        let mut stats = SampleStats::default();

        for seeds in order.chunks(config.batch_size) {
            let t = Instant::now();
            let batch = sampler.sample(graph, seeds);
            sampling_s += t.elapsed().as_secs_f64();
            stats.accumulate(&batch.stats);

            let t = Instant::now();
            xin.resize_to(batch.input_nodes().len(), features.cols());
            features.gather_rows_into(batch.input_nodes(), &mut xin);
            gather_s += t.elapsed().as_secs_f64();

            let t = Instant::now();
            let y: Vec<u32> = seeds.iter().map(|&s| labels[s]).collect();
            model.forward_into(&batch, &xin, Mode::Train, &mut logits);
            let (loss, grad) = loss_fn.loss_and_grad(&logits, &y);
            model.zero_grad();
            model.backward(&grad);
            opt.step(&mut model.params());
            compute_s += t.elapsed().as_secs_f64();
            loss_sum += loss as f64;
            batches += 1;
        }

        let val_acc = evaluate_mp(model, sampler, graph, features, labels, val_ids, config);
        tracker.record(val_acc);
        if val_acc >= best_val {
            best_val = val_acc;
            test_at_best = evaluate_mp(model, sampler, graph, features, labels, test_ids, config);
        }
        history.push(MpEpochStats {
            epoch,
            train_loss: if batches > 0 {
                loss_sum / batches as f64
            } else {
                0.0
            },
            val_acc,
            sampling_s,
            gather_s,
            compute_s,
            sample_stats: stats,
        });
    }

    Ok(MpTrainReport {
        history,
        best_val_acc: best_val,
        test_acc: test_at_best,
        convergence_point: tracker.convergence_point(0.99),
    })
}

/// Sampled evaluation of an MP-GNN over `ids`.
pub fn evaluate_mp(
    model: &mut dyn MpModel,
    sampler: &mut dyn Sampler,
    graph: &ppgnn_graph::CsrGraph,
    features: &Matrix,
    labels: &[u32],
    ids: &[usize],
    config: &TrainConfig,
) -> f64 {
    if ids.is_empty() {
        return 0.0;
    }
    let mut hits = 0usize;
    let mut xin = Matrix::default();
    let mut logits = Matrix::default();
    for seeds in ids.chunks(config.batch_size) {
        let batch = sampler.sample(graph, seeds);
        xin.resize_to(batch.input_nodes().len(), features.cols());
        features.gather_rows_into(batch.input_nodes(), &mut xin);
        model.forward_into(&batch, &xin, Mode::Eval, &mut logits);
        let y: Vec<u32> = seeds.iter().map(|&s| labels[s]).collect();
        hits += (metrics::accuracy(&logits, &y) * y.len() as f64).round() as usize;
    }
    hits as f64 / ids.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::Preprocessor;
    use ppgnn_graph::synth::{DatasetProfile, SynthDataset};
    use ppgnn_graph::Operator;
    use ppgnn_models::{GraphSage, Sgc, Sign};
    use ppgnn_sampler::NeighborSampler;

    fn prep(scale: f64) -> (SynthDataset, PrepropOutput) {
        let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(scale), 5).unwrap();
        let out = Preprocessor::new(vec![Operator::SymNorm], 2).run(&data);
        (data, out)
    }

    #[test]
    fn sign_learns_above_majority_baseline() {
        let (data, out) = prep(0.04);
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = Sign::new(2, data.profile.feature_dim, 32, 2, 0.1, &mut rng);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 15,
            batch_size: 64,
            lr: 3e-3,
            ..TrainConfig::default()
        });
        let report = trainer.fit(&mut model, &out).unwrap();
        let majority = data.majority_baseline();
        assert!(
            report.test_acc > majority + 0.08,
            "test acc {} vs majority {}",
            report.test_acc,
            majority
        );
        assert_eq!(report.epochs_run, 15);
        assert!(report.convergence_point.is_some());
    }

    #[test]
    fn loader_kinds_produce_similar_accuracy() {
        let (data, out) = prep(0.03);
        let accuracy_of = |kind: LoaderKind| {
            let mut rng = StdRng::seed_from_u64(2);
            let mut model = Sgc::new(2, data.profile.feature_dim, 2, &mut rng);
            let mut trainer = Trainer::new(TrainConfig {
                epochs: 10,
                batch_size: 64,
                lr: 0.01,
                loader: kind,
                ..TrainConfig::default()
            });
            trainer.fit(&mut model, &out).unwrap().test_acc
        };
        let rr = accuracy_of(LoaderKind::DoubleBuffer);
        let cr = accuracy_of(LoaderKind::Chunk { chunk_size: 64 });
        assert!((rr - cr).abs() < 0.08, "RR {rr} vs CR {cr}");
    }

    #[test]
    fn hop_selective_fit_matches_deliver_everything_loaders_bitwise() {
        // `fit` tells the DoubleBuffer and Chunk loaders what the model
        // reads; Baseline and Fused deliver every hop. SGC reads one hop
        // of three, so the runs move different bytes — and must train the
        // same model: equal seeds give equal batch streams (chunk size 1
        // is row-random), so every loss and accuracy agrees to the bit.
        let (data, out) = prep(0.03);
        let run = |kind: LoaderKind| {
            let mut rng = StdRng::seed_from_u64(8);
            let mut model = Sgc::new(2, data.profile.feature_dim, 2, &mut rng);
            let mut trainer = Trainer::new(TrainConfig {
                epochs: 4,
                batch_size: 48,
                lr: 0.01,
                loader: kind,
                ..TrainConfig::default()
            });
            let report = trainer.fit(&mut model, &out).unwrap();
            let curve: Vec<(u64, u64)> = report
                .history
                .iter()
                .map(|e| (e.train_loss.to_bits(), e.val_acc.to_bits()))
                .collect();
            (curve, report.test_acc.to_bits(), report.convergence_point)
        };
        let everything = run(LoaderKind::Fused);
        assert_eq!(run(LoaderKind::Baseline), everything);
        assert_eq!(run(LoaderKind::DoubleBuffer), everything);
        assert_eq!(run(LoaderKind::Chunk { chunk_size: 1 }), everything);
    }

    #[test]
    fn phase_timers_are_populated() {
        let (data, out) = prep(0.02);
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = Sgc::new(2, data.profile.feature_dim, 2, &mut rng);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 2,
            batch_size: 32,
            loader: LoaderKind::Baseline,
            ..TrainConfig::default()
        });
        let report = trainer.fit(&mut model, &out).unwrap();
        let e = &report.history[0];
        assert!(e.loading_s > 0.0);
        assert!(e.forward_s > 0.0);
        assert!(e.total_s >= e.loading_s + e.forward_s);
        assert!(e.loading_fraction() > 0.0 && e.loading_fraction() < 1.0);
    }

    #[test]
    fn convergence_tracker_finds_first_crossing() {
        let mut t = ConvergenceTracker::new();
        for &a in &[0.1, 0.5, 0.79, 0.80, 0.805] {
            t.record(a);
        }
        assert_eq!(t.peak(), 0.805);
        assert_eq!(t.convergence_point(0.99), Some(3));
        assert_eq!(t.convergence_point(0.5), Some(1));
    }

    #[test]
    fn empty_train_set_is_an_error() {
        let (_, mut out) = prep(0.02);
        out.train.labels.clear();
        out.train.node_ids.clear();
        out.train.hops = out
            .train
            .hops
            .iter()
            .map(|h| Arc::new(h.slice_rows(0, 0)))
            .collect();
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = Sgc::new(2, 65, 2, &mut rng);
        let mut trainer = Trainer::new(TrainConfig::default());
        assert_eq!(
            trainer.fit(&mut model, &out).unwrap_err(),
            TrainError::EmptyTrainSet
        );
    }

    #[test]
    fn mp_training_learns_and_tracks_stats() {
        let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.03), 6).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut model = GraphSage::new(2, data.profile.feature_dim, 16, 2, &mut rng);
        let mut sampler = NeighborSampler::new(vec![5, 5], 1);
        let config = TrainConfig {
            epochs: 8,
            batch_size: 64,
            lr: 5e-3,
            ..TrainConfig::default()
        };
        let report = fit_mp(
            &mut model,
            &mut sampler,
            &data.graph,
            &data.features,
            &data.labels,
            &data.split.train,
            &data.split.val,
            &data.split.test,
            &config,
        )
        .unwrap();
        assert!(report.test_acc > data.majority_baseline());
        let stats = report.history[0].sample_stats;
        assert!(
            stats.input_nodes > stats.seeds,
            "neighbor expansion expected"
        );
    }
}
