//! Bounds the streaming preprocessor's peak memory residency.
//!
//! The pre-streaming `Preprocessor::run` materialized every hop of every
//! operator chain twice over (clone into the per-hop chain, then a third
//! copy through `hstack`) — ~`3·K·(R+1)` full-graph matrices at peak. The
//! streaming pipeline holds only per-operator ping-pong propagation
//! buffers (plus two diffusion-series term buffers for `Ppr`/`Heat`)
//! beyond the gathered partition outputs. The shard-scheduled engine runs
//! up to `g = ⌊(R+2)/2⌋` simple operators concurrently — `2g ≤ R + 2`
//! buffers plus the group's CSR bases — so concurrency never widens the
//! budget this suite pins with a tracking global allocator: peak transient
//! allocation during `run` must stay within `R + 3` full-graph matrices,
//! on top of the returned output and one materialized CSR operator
//! (the cap's spare matrix absorbs a group's extra bases).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, MutexGuard};

use ppgnn_core::preprocess::Preprocessor;
use ppgnn_graph::synth::{DatasetProfile, SynthDataset};
use ppgnn_graph::Operator;

/// System allocator wrapper tracking current and peak live bytes
/// process-wide, a raw allocation count on the threads that opted in
/// ([`measuring`]; for the kernel-scratch reuse assertions), and a count
/// of large allocations on any thread ([`count_large_allocs`]).
struct TrackingAlloc;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);
/// Smallest allocation `LARGE_ALLOCS` counts; `usize::MAX` = none.
static LARGE_MIN: AtomicUsize = AtomicUsize::new(usize::MAX);

thread_local! {
    /// Whether this thread's allocations land in `ALLOCS`. libtest's own
    /// threads (result printing, spawning the next test) never opt in, so
    /// they cannot land inside another test's measured window. A
    /// const-initialized `Cell` without a destructor: reading it from the
    /// allocator neither allocates nor touches a destroyed slot.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: delegates allocation entirely to `System`; the added bookkeeping
// touches only atomics and never the returned memory.
unsafe impl GlobalAlloc for TrackingAlloc {
    // SAFETY: `unsafe` by trait signature; the `GlobalAlloc` contract is
    // met by forwarding to `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarding the caller's layout unchanged to `System`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let now = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(now, Ordering::Relaxed);
            if COUNTED.try_with(Cell::get).unwrap_or(false) {
                ALLOCS.fetch_add(1, Ordering::Relaxed);
            }
            if layout.size() >= LARGE_MIN.load(Ordering::Relaxed) {
                LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
            }
        }
        ptr
    }

    // SAFETY: `unsafe` by trait signature; `ptr`/`layout` come from the
    // paired `alloc` and are forwarded to `System` unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarding the caller's pointer and layout unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

/// Serializes the tests in this binary: the allocator counters are
/// process-global, so concurrent tests would inflate each other's peaks.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// A test's measuring window: holds [`SERIAL`] and keeps the calling
/// thread opted into `ALLOCS` until dropped.
struct Measuring {
    _serial: MutexGuard<'static, ()>,
}

/// Opens the measuring window. The mutex guards nothing but the order of
/// the tests, so a poisoned lock (an earlier test failed its assertion)
/// is recovered: one stray count is one failure, not one per test after
/// it. The workers of the shared pool opt in too — the measured kernels
/// fan out to them — and stay opted in: only tests of this binary, all of
/// them inside a window, ever drive those threads.
fn measuring() -> Measuring {
    let serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    COUNTED.with(|c| c.set(true));
    // One task per pool thread, each held at the barrier until all have
    // arrived, so every worker (and this thread) runs exactly one.
    let pool = ppgnn_tensor::pool();
    let all_arrived = Barrier::new(pool.num_threads());
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..pool.num_threads())
        .map(|_| {
            Box::new(|| {
                COUNTED.with(|c| c.set(true));
                all_arrived.wait();
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool.run(tasks);
    Measuring { _serial: serial }
}

impl Drop for Measuring {
    fn drop(&mut self) {
        COUNTED.with(|c| c.set(false));
    }
}

/// Allocations of at least `min_bytes` made by `f` on **any** thread —
/// for work that runs on threads a test cannot opt in (a loader's
/// producer). Nothing libtest allocates comes near a feature matrix, so
/// the size floor does for this count what the opt-in does for `ALLOCS`.
fn count_large_allocs(min_bytes: usize, f: impl FnOnce()) -> usize {
    let before = LARGE_ALLOCS.load(Ordering::Relaxed);
    LARGE_MIN.store(min_bytes, Ordering::Relaxed);
    f();
    LARGE_MIN.store(usize::MAX, Ordering::Relaxed);
    LARGE_ALLOCS.load(Ordering::Relaxed) - before
}

/// Resets the peak to the current level and returns the level.
fn reset_peak() -> usize {
    let now = CURRENT.load(Ordering::Relaxed);
    PEAK.store(now, Ordering::Relaxed);
    now
}

fn full_matrix_bytes(data: &SynthDataset) -> usize {
    data.graph.num_nodes() * data.profile.feature_dim * 4
}

/// CSR bytes of the materialized operator (indices u32 + weights f32 per
/// nnz, indptr usize per row) — resident during a pass, not a hop matrix.
fn csr_bytes(data: &SynthDataset) -> usize {
    let nnz = data.graph.num_edges() + data.graph.num_nodes(); // + self loops
    nnz * 8 + (data.graph.num_nodes() + 1) * 8
}

fn assert_residency_bound(operators: Vec<Operator>, hops: usize, num_shards: Option<usize>) {
    let _window = measuring();
    let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.05), 7)
        .expect("generation succeeds");
    let mut prep = Preprocessor::new(operators, hops);
    if let Some(shards) = num_shards {
        prep = prep.with_num_shards(shards);
    }
    let nf = full_matrix_bytes(&data);

    let before = reset_peak();
    let out = prep.run(&data);
    let peak_delta = PEAK.load(Ordering::Relaxed).saturating_sub(before);

    let output_bytes =
        (out.train.size_bytes() + out.val.size_bytes() + out.test.size_bytes()) as usize;
    // Outputs + (R+3) full-graph matrices + the CSR base + 25% slack for
    // labels/ids/allocator rounding. One operator pass at a time, so the
    // transient budget does not scale with K.
    let budget = output_bytes + (hops + 3) * nf + csr_bytes(&data) + output_bytes / 4 + nf / 4;
    assert!(
        peak_delta <= budget,
        "peak transient residency {peak_delta} B exceeds budget {budget} B \
         (outputs {output_bytes} B, full-graph matrix {nf} B, R={hops})"
    );
    // Sanity: the bound is meaningful — the old implementation's
    // 3·K·(R+1) chain would not fit it for these shapes.
    let k = out.expansion.num_operators;
    let old_peak_estimate = output_bytes + 3 * k * (hops + 1) * nf;
    assert!(
        old_peak_estimate > budget,
        "test would not have caught the pre-streaming implementation"
    );
}

#[test]
fn streaming_run_bounds_residency_single_operator() {
    assert_residency_bound(vec![Operator::SymNorm], 3, None);
}

#[test]
fn streaming_run_bounds_residency_two_operators() {
    assert_residency_bound(vec![Operator::SymNorm, Operator::RowNorm], 3, None);
}

#[test]
fn sharded_schedule_stays_inside_the_same_budget() {
    // Explicit shard count forces the concurrent shard×operator schedule
    // (auto mode may fall back to sequential on narrow machines): both
    // operators' ping-pong buffer pairs plus both CSR bases are live at
    // once, and the (R + 3)-matrix budget must still hold.
    assert_residency_bound(vec![Operator::SymNorm, Operator::RowNorm], 3, Some(4));
}

#[test]
fn linear_training_batches_reuse_scratch_with_bounded_allocations() {
    use ppgnn_nn::{Linear, Mode, Module};
    use ppgnn_tensor::Matrix;

    let _window = measuring();
    let mut rng = {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(11)
    };
    let mut layer = Linear::new(64, 32, &mut rng);
    let x = Matrix::from_fn(256, 64, |r, c| ((r * 13 + c * 7) % 29) as f32 * 0.03 - 0.4);
    let g = Matrix::from_fn(256, 32, |r, c| ((r * 5 + c * 11) % 23) as f32 * 0.01 - 0.1);

    // Warm up the layer's scratch matrices and the thread-local GEMM
    // packing workspace — steady state is what training epochs live in.
    for _ in 0..3 {
        let y = layer.forward(&x, Mode::Train);
        let gx = layer.backward(&g);
        drop((y, gx));
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    let batches = 20;
    for _ in 0..batches {
        let y = layer.forward(&x, Mode::Train);
        let gx = layer.backward(&g);
        drop((y, gx));
    }
    let per_batch = (ALLOCS.load(Ordering::Relaxed) - before).div_ceil(batches);

    // Expected steady state: three allocations — the returned forward
    // output, the bias-grad sum_rows temporary, and the returned input
    // gradient. The cached input, the ∂W product, and both GEMM packing
    // buffers are reused, and the serial GEMM path computes no row-block
    // bookkeeping. Bound of 6 leaves headroom for allocator-internal
    // noise while still failing if any scratch path regresses to
    // allocate-per-batch.
    assert!(
        per_batch <= 6,
        "Linear forward+backward allocated {per_batch} times per batch; \
         scratch reuse (cached input, ∂W buffer, pack workspace) has regressed"
    );
}

#[test]
fn sign_forward_into_train_step_reuses_buffers() {
    use ppgnn_models::{PpModel, Sign};
    use ppgnn_nn::Mode;
    use ppgnn_tensor::Matrix;

    let _window = measuring();
    let mut rng = {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(17)
    };
    let mut model = Sign::new(2, 16, 32, 4, 0.1, &mut rng);
    let hops: Vec<Matrix> = (0..3)
        .map(|h| {
            Matrix::from_fn(128, 16, |r, c| {
                ((r * 13 + c * 7 + h) % 29) as f32 * 0.03 - 0.4
            })
        })
        .collect();
    let g = Matrix::from_fn(128, 4, |r, c| ((r * 5 + c * 11) % 23) as f32 * 0.01 - 0.1);
    let mut logits = Matrix::default();

    // Warm up every slot: model scratch, training caches (handed back by
    // backward), and the thread-local GEMM packing workspace.
    for _ in 0..3 {
        model.forward_into(&hops, Mode::Train, &mut logits);
        model.zero_grad();
        model.backward(&g);
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    let batches = 20;
    let mut fwd_allocs = 0usize;
    for _ in 0..batches {
        let t0 = ALLOCS.load(Ordering::Relaxed);
        model.forward_into(&hops, Mode::Train, &mut logits);
        fwd_allocs += ALLOCS.load(Ordering::Relaxed) - t0;
        model.zero_grad();
        model.backward(&g);
    }
    let per_batch = (ALLOCS.load(Ordering::Relaxed) - before).div_ceil(batches);

    // `forward_into` itself is allocation-free in steady state: slots are
    // resized in place and training caches ping-pong back from backward.
    assert_eq!(
        fwd_allocs, 0,
        "train-mode forward_into allocated {fwd_allocs} times over {batches} batches; \
         a forward slot or training-cache ping-pong has regressed"
    );
    // The remaining per-batch allocations are backward's returned
    // gradient chain (hsplit pieces plus per-layer input gradients).
    assert!(
        per_batch <= 48,
        "Sign forward_into+backward allocated {per_batch} times per batch; \
         the backward gradient chain has regressed"
    );

    // Eval-mode forward_into is fully allocation-free once warm.
    for _ in 0..3 {
        model.forward_into(&hops, Mode::Eval, &mut logits);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..batches {
        model.forward_into(&hops, Mode::Eval, &mut logits);
    }
    let eval_allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        eval_allocs, 0,
        "eval forward_into allocated {eval_allocs} times over {batches} batches; \
         the zero-alloc forward path has regressed"
    );
}

/// A warmed HOGA model at `batch` examples with everything one train step
/// needs, and the step itself (forward_into + loss + backward + Adam).
struct HogaStep {
    model: ppgnn_models::Hoga,
    hops: Vec<ppgnn_tensor::Matrix>,
    labels: Vec<u32>,
    opt: ppgnn_nn::Adam,
    logits: ppgnn_tensor::Matrix,
}

impl HogaStep {
    /// Three tokens of 32 features in, hidden 32: a `b·t × hidden` matrix
    /// is the largest thing a step touches.
    const TOKENS: usize = 3;
    const HIDDEN: usize = 32;

    fn warmed(batch: usize) -> HogaStep {
        use ppgnn_tensor::Matrix;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let mut step = HogaStep {
            model: ppgnn_models::Hoga::new(Self::TOKENS - 1, 16, Self::HIDDEN, 4, 5, 0.1, &mut rng),
            hops: (0..Self::TOKENS)
                .map(|h| {
                    Matrix::from_fn(batch, 16, |r, c| {
                        ((r * 13 + c * 7 + h) % 29) as f32 * 0.03 - 0.4
                    })
                })
                .collect(),
            labels: (0..batch).map(|i| (i % 5) as u32).collect(),
            opt: ppgnn_nn::Adam::new(1e-3),
            logits: Matrix::default(),
        };
        for _ in 0..3 {
            step.run();
        }
        step
    }

    fn run(&mut self) {
        use ppgnn_models::PpModel;
        use ppgnn_nn::{CrossEntropyLoss, Mode, Optimizer};
        self.model
            .forward_into(&self.hops, Mode::Train, &mut self.logits);
        let (_, g) = CrossEntropyLoss.loss_and_grad(&self.logits, &self.labels);
        self.model.zero_grad();
        self.model.backward(&g);
        self.opt.step(&mut self.model.params());
    }

    /// Allocations of one steady-state step on the measured threads.
    fn allocs(&mut self) -> usize {
        let before = ALLOCS.load(Ordering::Relaxed);
        self.run();
        ALLOCS.load(Ordering::Relaxed) - before
    }
}

/// Allocations a steady-state HOGA train step may make, whatever the batch:
/// the by-value gradients `Module::backward` returns down the head, the
/// norm and the attention block, the loss gradient, and the `params()`
/// lists of `zero_grad` and the optimizer — every work buffer is retained.
const HOGA_STEP_ALLOC_BUDGET: usize = 40;

#[test]
fn hoga_train_step_allocations_do_not_grow_with_the_batch() {
    let _window = measuring();
    // Serial kernels, so the count has no pool bookkeeping in it: a pooled
    // pass boxes one closure per task, and which passes fan out depends on
    // the batch.
    ppgnn_tensor::set_parallel_threshold(usize::MAX);
    let (small, large) = (
        HogaStep::warmed(64).allocs(),
        HogaStep::warmed(512).allocs(),
    );
    ppgnn_tensor::set_parallel_threshold(ppgnn_tensor::pool::DEFAULT_PARALLEL_THRESHOLD);
    assert_eq!(
        small, large,
        "a HOGA train step allocated {small} times at batch 64 and {large} at batch 512:          something is allocated per example or per row block"
    );
    assert!(
        small <= HOGA_STEP_ALLOC_BUDGET,
        "a HOGA train step allocated {small} times (budget {HOGA_STEP_ALLOC_BUDGET});          a retained work buffer has regressed to allocate-per-step"
    );

    // At the default threshold too, the only token-matrix-sized
    // allocations are the two input gradients returned by value
    // (`LayerNorm::backward`, `MultiHeadAttention::backward`).
    let mut step = HogaStep::warmed(512);
    let token_matrix = 512 * HogaStep::TOKENS * HogaStep::HIDDEN * 4;
    let large_allocs = count_large_allocs(token_matrix, || step.run());
    assert_eq!(
        large_allocs, 2,
        "a HOGA train step made {large_allocs} allocations of a b·t × hidden matrix or          larger; only the two by-value input gradients are expected"
    );
}

#[test]
fn sgc_fit_allocates_no_batch_matrix_for_unread_hops_or_input_grads() {
    use ppgnn_core::trainer::{TrainConfig, Trainer};
    use ppgnn_models::{PpModel, Sgc, Sign};
    use rand::SeedableRng;

    let _window = measuring();
    const HOPS: usize = 3;
    const BATCH: usize = 64;
    const EPOCHS: usize = 4;
    let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.05), 9)
        .expect("generation succeeds");
    let out = Preprocessor::new(vec![Operator::SymNorm], HOPS).run(&data);
    let (f, classes) = (data.profile.feature_dim, data.profile.num_classes);
    let full_batches = out.train.len() / BATCH;
    assert!(
        full_batches >= 4,
        "the bounds below need a few full batches"
    );

    // Allocations the size of one full batch × F matrix (or larger) over a
    // whole `fit`, loader producer thread included.
    let batch_matrices = |model: &mut dyn PpModel| {
        let config = TrainConfig {
            epochs: EPOCHS,
            batch_size: BATCH,
            ..TrainConfig::default()
        };
        count_large_allocs(BATCH * f * 4, || {
            Trainer::new(config)
                .fit(model, &out)
                .expect("training runs");
        })
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);

    // SGC reads hop R only. Per epoch that leaves: one gathered hop per
    // full batch, one copy of `Linear`'s cached input when the batch
    // shape returns from the short last batch, and one slice slot per
    // `evaluate` call (val, and test when val does not drop) — nothing
    // for the R unread hops of a batch, in training or evaluation, and
    // no ∂X.
    let sgc = batch_matrices(&mut Sgc::new(HOPS, f, classes, &mut rng));
    let budget = EPOCHS * (full_batches + 3) + 1;
    assert!(
        sgc <= budget,
        "SGC fit made {sgc} batch-matrix allocations over {EPOCHS} epochs of \
         {full_batches} full batches (budget {budget}): an unread hop is \
         being moved or an input gradient formed"
    );

    // Control: a model that reads every hop has every hop gathered, so
    // the count does see the producer thread.
    let sign = batch_matrices(&mut Sign::new(HOPS, f, 16, classes, 0.0, &mut rng));
    assert!(
        sign >= EPOCHS * full_batches * (HOPS + 1),
        "SIGN fit made only {sign} batch-matrix allocations: the large-allocation \
         count is not seeing the loader's gathers"
    );
}

#[test]
fn compressed_store_reads_are_allocation_free_once_warm() {
    use ppgnn_dataio::{AccessPath, FeatureStoreWriter, StoreDtype, StoreMeta};
    use ppgnn_tensor::Matrix;

    let _window = measuring();
    let dir = std::env::temp_dir().join(format!("ppgnn-resid-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    for dtype in StoreDtype::ALL {
        let sub = dir.join(dtype.name());
        let meta = StoreMeta {
            dataset: "resid".into(),
            num_hops: 3,
            rows: 64,
            cols: 24,
            chunk_size: 16,
            dtype,
        };
        let mut w = FeatureStoreWriter::create(&sub, meta).unwrap();
        for k in 0..3 {
            let hop = Matrix::from_fn(64, 24, |r, c| ((k * 64 + r) * 24 + c) as f32 * 0.01 - 3.0);
            w.write_hop(k, &hop).unwrap();
        }
        let mut store = w.finish().unwrap();

        // Warm every slot: the caller-owned matrices, the store's encoded
        // staging buffer, and the all-hops vector.
        let mut chunk_slot = Matrix::default();
        let mut rows_slot = Matrix::default();
        let mut hop_slots = Vec::new();
        for _ in 0..2 {
            store
                .read_chunk_into(0, 1, AccessPath::Direct, &mut chunk_slot)
                .unwrap();
            store
                .read_rows_into(1, &[9, 3, 41], AccessPath::Direct, &mut rows_slot)
                .unwrap();
            store
                .read_chunk_all_hops_into(2, AccessPath::Direct, &mut hop_slots)
                .unwrap();
        }

        // Steady state: encoded bytes stage into reused scratch and decode
        // in place — the compressed paths may not allocate at all.
        let before = ALLOCS.load(Ordering::Relaxed);
        for round in 0..10 {
            store
                .read_chunk_into(round % 3, round % 4, AccessPath::Direct, &mut chunk_slot)
                .unwrap();
            store
                .read_rows_into(
                    round % 3,
                    &[9, 3, 41],
                    AccessPath::HostBounce,
                    &mut rows_slot,
                )
                .unwrap();
            store
                .read_chunk_all_hops_into(round % 4, AccessPath::Direct, &mut hop_slots)
                .unwrap();
        }
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(
            allocs, 0,
            "{dtype} steady-state reads allocated {allocs} times; \
             the scratch/slot reuse of the decode path has regressed"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn disabled_telemetry_adds_no_allocations_to_hot_paths() {
    use ppgnn_graph::WeightedCsr;
    use ppgnn_models::{PpModel, Sign};
    use ppgnn_nn::Mode;
    use ppgnn_tensor::Matrix;

    static PROBE_COUNTER: ppgnn_telemetry::Counter = ppgnn_telemetry::Counter::new("test.probe");
    static PROBE_HIST: ppgnn_telemetry::Histogram =
        ppgnn_telemetry::Histogram::new("test.probe_ns");

    let _window = measuring();
    // The PPGNN_TRACE=0 contract: every instrumentation site the pipeline
    // hot paths pass through — span guards in SpMM/preprocess/trainer,
    // counter adds in GEMM dispatch, histogram records per batch — must
    // cost one relaxed atomic load and zero allocations when tracing is
    // off. This is the runtime twin of the `telemetry_span` lint.
    ppgnn_telemetry::set_enabled(false);

    let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.02), 5)
        .expect("generation succeeds");
    let op = WeightedCsr::sym_norm(&data.graph, true);
    let x = data.features.clone();
    let mut y = Matrix::zeros(x.rows(), x.cols());

    let mut rng = {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(23)
    };
    let mut model = Sign::new(2, 16, 32, 4, 0.1, &mut rng);
    let hops: Vec<Matrix> = (0..3)
        .map(|h| {
            Matrix::from_fn(128, 16, |r, c| {
                ((r * 13 + c * 7 + h) % 29) as f32 * 0.03 - 0.4
            })
        })
        .collect();
    let mut logits = Matrix::default();

    // A HOGA step passes through every stage span (`hoga.*`, `attn.*`):
    // the eval forward joins the zero-allocation loop, the train step is
    // held to its budget below. Serial kernels, as in the budget's own test.
    ppgnn_tensor::set_parallel_threshold(usize::MAX);
    let mut hoga = HogaStep::warmed(64);
    let mut hoga_logits = Matrix::default();

    // Warm every scratch slot first — steady state is what epochs live in.
    for _ in 0..3 {
        op.spmm_into(&x, &mut y);
        model.forward_into(&hops, Mode::Eval, &mut logits);
        hoga.model
            .forward_into(&hoga.hops, Mode::Eval, &mut hoga_logits);
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    for round in 0..10u64 {
        // Raw instrumentation primitives, as the hot loops call them.
        let _span = ppgnn_telemetry::span("resid");
        let _span2 = ppgnn_telemetry::span_with("resid2", &[("round", round)]);
        PROBE_COUNTER.add(1);
        PROBE_HIST.record(round);
        // Instrumented kernels: the SpMM driver span and the GEMM
        // dispatch counters sit on these paths.
        op.spmm_into(&x, &mut y);
        model.forward_into(&hops, Mode::Eval, &mut logits);
        hoga.model
            .forward_into(&hoga.hops, Mode::Eval, &mut hoga_logits);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let hoga_step = hoga.allocs();
    ppgnn_tensor::set_parallel_threshold(ppgnn_tensor::pool::DEFAULT_PARALLEL_THRESHOLD);
    assert_eq!(
        allocs, 0,
        "disabled-telemetry hot paths allocated {allocs} times over 10 rounds; \
         an instrumentation site does work when PPGNN_TRACE=0"
    );
    assert!(
        hoga_step <= HOGA_STEP_ALLOC_BUDGET,
        "a HOGA train step allocated {hoga_step} times with telemetry disabled \
         (budget {HOGA_STEP_ALLOC_BUDGET}); a stage span does work when PPGNN_TRACE=0"
    );
    // Disabled probes must also record nothing (no lazy registration).
    assert_eq!(PROBE_COUNTER.get(), 0);
    assert_eq!(PROBE_HIST.count(), 0);
}

#[test]
fn streaming_run_matches_reference_chain_under_tracking() {
    // The allocator is process-global, so also pin correctness here: hop r
    // equals r explicit applications of the operator.
    let _window = measuring();
    let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.02), 3)
        .expect("generation succeeds");
    let out = Preprocessor::new(vec![Operator::SymNorm], 2).run(&data);
    let mut expected = data.features.clone();
    for _ in 0..2 {
        expected = Operator::SymNorm.apply(&data.graph, &expected);
    }
    let expected_rows = expected.gather_rows(&data.split.train);
    assert!(out.train.hops[2].max_abs_diff(&expected_rows) < 1e-4);
}
