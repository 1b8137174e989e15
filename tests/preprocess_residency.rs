//! Bounds the streaming preprocessor's peak memory residency.
//!
//! The pre-streaming `Preprocessor::run` materialized every hop of every
//! operator chain twice over (clone into the per-hop chain, then a third
//! copy through `hstack`) — ~`3·K·(R+1)` full-graph matrices at peak. The
//! split-order engine diffuses each operator group side by side through
//! two full-graph buffers (plus two diffusion-series term buffers for
//! `Ppr`/`Heat`), and hands each hop over where it lies: on a fully
//! labeled graph, with one group covering every operator, a hop buffer
//! *becomes* the train hop (truncated in place), so beyond the returned
//! outputs only the val + test tail of the hop being handed over is
//! transient — one full-graph matrix, plus the group's CSR bases. With an
//! unlabeled tail both buffers stay live, inside the `R + 3`-matrix
//! budget the residency cap `g = ⌊(R+2)/2⌋` was sized for. A tracking
//! global allocator pins both.

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

    // Forwarded rather than left to the default alloc + copy + free, so a
    // shrink (`Matrix::truncate_rows`) is measured as the system allocator
    // performs it — in place — and not as a transient second buffer.
    // SAFETY: `unsafe` by trait signature; the arguments come from the
    // caller's live allocation and are forwarded to `System` unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarding the caller's pointer, layout and size unchanged.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                let grown = new_size - layout.size();
                let now = CURRENT.fetch_add(grown, Ordering::Relaxed) + grown;
                PEAK.fetch_max(now, Ordering::Relaxed);
            } else {
                CURRENT.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
            // Counted like the default's fresh allocation.
            if COUNTED.try_with(Cell::get).unwrap_or(false) {
                ALLOCS.fetch_add(1, Ordering::Relaxed);
            }
            if new_size >= LARGE_MIN.load(Ordering::Relaxed) {
                LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
            }
        }
        new
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

/// What one preprocessing run may hold beyond the hops it returns.
struct Budget {
    /// Full-graph `N × F` matrices.
    matrices: usize,
    /// Materialized CSR operators (a group's bases live together).
    bases: usize,
}

fn assert_residency_bound(
    profile: DatasetProfile,
    operators: Vec<Operator>,
    hops: usize,
    num_shards: Option<usize>,
    allowed: Budget,
) {
    let _window = measuring();
    let data = SynthDataset::generate(profile, 7).expect("generation succeeds");
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
    // Outputs + the allowed full-graph matrices and CSR bases + a quarter
    // matrix of slack for labels, ids, the node order and allocator
    // rounding.
    let budget = output_bytes + allowed.matrices * nf + allowed.bases * csr_bytes(&data) + nf / 4;
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

/// Fully labeled, one operator group covering every operator: each hop
/// buffer becomes the train hop it holds (truncated in place), so beyond
/// the outputs only the val + test tail of the hop being handed over is
/// transient — at most one `N × F` matrix here — plus the group's bases.
fn fully_labeled() -> DatasetProfile {
    DatasetProfile::pokec_sim().scaled(0.05)
}

#[test]
fn streaming_run_bounds_residency_single_operator() {
    let allowed = Budget {
        matrices: 1,
        bases: 1,
    };
    assert_residency_bound(fully_labeled(), vec![Operator::SymNorm], 3, None, allowed);
}

#[test]
fn streaming_run_bounds_residency_two_operators() {
    // The sequential schedule runs one operator per group: each group's
    // column block is copied into the split outputs, through two `N × F`
    // buffers that ping-pong, one base at a time.
    let allowed = Budget {
        matrices: 2,
        bases: 1,
    };
    let ops = vec![Operator::SymNorm, Operator::RowNorm];
    assert_residency_bound(fully_labeled(), ops, 3, Some(1), allowed);
}

#[test]
fn sharded_schedule_stays_inside_the_same_budget() {
    // Explicit shard count forces the concurrent schedule (auto mode may
    // fall back to sequential on narrow machines): both operators diffuse
    // side by side in one group covering every operator, so the train
    // head is kept in place and only a val + test tail is transient, with
    // both CSR bases live.
    let allowed = Budget {
        matrices: 1,
        bases: 2,
    };
    let ops = vec![Operator::SymNorm, Operator::RowNorm];
    assert_residency_bound(fully_labeled(), ops, 3, Some(4), allowed);
}

#[test]
fn partially_labeled_run_keeps_the_two_buffer_budget() {
    // 1.4 % labeled: the unlabeled rows keep both of a group's full-graph
    // buffers live, which the (R + 3)-matrix budget covers.
    let hops = 3;
    let allowed = Budget {
        matrices: hops + 3,
        bases: 1,
    };
    let profile = DatasetProfile::papers100m_sim().scaled(0.05);
    assert_residency_bound(profile, vec![Operator::SymNorm], hops, None, allowed);
}

/// A store-writing run holds what `run` holds (one full-graph matrix and
/// one base, fully labeled) plus its writer's staging buffer, one encoded
/// train hop; at `P = 1` the writer queue holds shared handles, not
/// copies. More partitions add the partition copies of the train hop in
/// flight through the one writer: `QUEUE` queued, one being written, and
/// one being gathered — each a part of one train hop, so at most
/// `QUEUE + 2` train hops.
#[test]
fn sharded_store_run_bounds_residency_with_partition_copies_in_flight() {
    const QUEUE: usize = ppgnn_dataio::DEFAULT_WRITER_QUEUE;
    let _window = measuring();
    let data = SynthDataset::generate(fully_labeled(), 7).expect("generation succeeds");
    let prep = Preprocessor::new(vec![Operator::SymNorm], 3)
        .with_store_dtype(ppgnn_dataio::StoreDtype::F32);
    let nf = full_matrix_bytes(&data);
    let train_hop = data.split.train.len() * data.profile.feature_dim * 4;
    let dir = std::env::temp_dir().join(format!("ppgnn-resid-shard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Peak transient bytes of one run, and the bytes of the hops it returns.
    let measure = |run: &dyn Fn() -> ppgnn_core::preprocess::PrepropOutput| {
        let before = reset_peak();
        let out = run();
        let peak_delta = PEAK.load(Ordering::Relaxed).saturating_sub(before);
        let output_bytes = out.train.size_bytes() + out.val.size_bytes() + out.test.size_bytes();
        (peak_delta, output_bytes as usize)
    };
    let (single, output_bytes) = measure(&|| {
        prep.clone()
            .with_num_partitions(1)
            .run_with_sharded_store(&data, dir.join("single"), "resid", 256)
            .unwrap()
            .0
    });
    let (sharded, _) = measure(&|| {
        prep.clone()
            .with_num_partitions(2)
            .run_with_sharded_store(&data, dir.join("sharded"), "resid", 256)
            .unwrap()
            .0
    });
    std::fs::remove_dir_all(&dir).unwrap();

    let store_budget = output_bytes + nf + csr_bytes(&data) + train_hop + nf / 4;
    assert!(
        single <= store_budget,
        "P = 1 store run peak transient residency {single} B exceeds budget {store_budget} B"
    );
    let sharded_budget = store_budget + (QUEUE + 2) * train_hop;
    assert!(
        sharded <= sharded_budget,
        "run_with_sharded_store peak transient residency {sharded} B exceeds budget \
         {sharded_budget} B (train hop {train_hop} B, queue {QUEUE}, P = 2)"
    );
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

    // Expected steady state: two allocations — the fresh slots the
    // allocating `forward` / `backward` wrappers return. The cached input,
    // the ∂W product, the ∂b sums, and both GEMM packing buffers are
    // reused, and the serial GEMM path computes no row-block bookkeeping. Bound of 6 leaves headroom for allocator-internal
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

    let batches = 20;
    let (mut fwd_allocs, mut bwd_allocs) = (0usize, 0usize);
    for _ in 0..batches {
        let t0 = ALLOCS.load(Ordering::Relaxed);
        model.forward_into(&hops, Mode::Train, &mut logits);
        fwd_allocs += ALLOCS.load(Ordering::Relaxed) - t0;
        model.zero_grad();
        let t0 = ALLOCS.load(Ordering::Relaxed);
        model.backward(&g);
        bwd_allocs += ALLOCS.load(Ordering::Relaxed) - t0;
    }

    // Neither half allocates in steady state: slots are resized in place,
    // training caches ping-pong back from backward, and every layer writes
    // its input gradient into a retained slot (`Module::backward_into`;
    // the branches read theirs from column windows of the head's).
    assert_eq!(
        fwd_allocs, 0,
        "train-mode forward_into allocated {fwd_allocs} times over {batches} batches; \
         a forward slot or training-cache ping-pong has regressed"
    );
    assert_eq!(
        bwd_allocs, 0,
        "Sign backward allocated {bwd_allocs} times over {batches} batches; \
         a retained gradient slot has regressed to allocate-per-step"
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
/// needs, and the step itself as `Trainer::fit` runs it: the hops lent to
/// the model, the loss into retained slots, backward, the hops returned,
/// Adam.
struct HogaStep {
    model: ppgnn_models::Hoga,
    hops: Vec<ppgnn_tensor::Matrix>,
    labels: Vec<u32>,
    opt: ppgnn_nn::Adam,
    logits: ppgnn_tensor::Matrix,
    grad: ppgnn_tensor::Matrix,
    label_probs: Vec<f32>,
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
            grad: Matrix::default(),
            label_probs: Vec::new(),
        };
        for _ in 0..3 {
            step.run();
        }
        step
    }

    fn run(&mut self) {
        use ppgnn_models::PpModel;
        use ppgnn_nn::{CrossEntropyLoss, Optimizer};
        self.model.forward_train(&mut self.hops, &mut self.logits);
        CrossEntropyLoss.loss_and_grad_into(
            &self.logits,
            &self.labels,
            &mut self.grad,
            &mut self.label_probs,
        );
        self.model.zero_grad();
        self.model.backward(&self.grad);
        self.model.return_inputs(&mut self.hops);
        self.opt.step(&mut self.model.params());
    }

    /// Allocations of one steady-state step on the measured threads.
    fn allocs(&mut self) -> usize {
        let before = ALLOCS.load(Ordering::Relaxed);
        self.run();
        ALLOCS.load(Ordering::Relaxed) - before
    }
}

/// Allocations a steady-state HOGA train step makes, whatever the batch:
/// only the `params()` lists `zero_grad` and the optimizer build. The
/// forward, the loss and the backward allocate nothing — every work
/// buffer and every gradient slot is retained, the loss's included.
const HOGA_STEP_ALLOC_BUDGET: usize = 24;

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

    // At the default threshold too, nothing token-matrix-sized is
    // allocated: the input gradients of the norm and the attention block
    // go into retained slots.
    let mut step = HogaStep::warmed(512);
    let token_matrix = 512 * HogaStep::TOKENS * HogaStep::HIDDEN * 4;
    let large_allocs = count_large_allocs(token_matrix, || step.run());
    assert_eq!(
        large_allocs, 0,
        "a HOGA train step made {large_allocs} allocations of a b·t × hidden matrix or \
         larger; every gradient slot is expected to be retained"
    );
}

#[test]
fn generator_splits_allocate_nothing() {
    use rand::SeedableRng;

    let _window = measuring();
    // A split at a new length computes its jump polynomial, a repeat
    // reuses it; neither may touch the heap: Dropout's pooled mask draw
    // splits once per block on its hot path.
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let before = ALLOCS.load(Ordering::Relaxed);
    for draws in [16_384, 16_384, 131_072, 7, (1 << 20) + 3, 0] {
        std::hint::black_box(rng.split(draws));
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(allocs, 0, "splitting a generator allocated {allocs} times");
}

/// Batches a `fit` over the in-memory double buffer has alive at once,
/// and so the most its spares ever allocate: each batch is gathered in
/// place when the trainer asks for it, into the one the trainer handed
/// back.
const BATCHES_IN_FLIGHT: usize = 1;

#[test]
fn sgc_fit_allocates_no_batch_matrix_for_unread_hops_or_input_grads() {
    use std::sync::Arc;

    use ppgnn_core::loader::{Loader, LoaderKind, MemoryLoader};
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
    let config = TrainConfig {
        epochs: EPOCHS,
        batch_size: BATCH,
        ..TrainConfig::default()
    };

    // Allocations the size of one full batch × F matrix (or larger) over a
    // whole `fit`, on any thread.
    let batch_matrices = |model: &mut dyn PpModel| {
        count_large_allocs(BATCH * f * 4, || {
            Trainer::new(config)
                .fit(model, &out)
                .expect("training runs");
        })
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);

    // SGC reads hop R only, and its batches circulate: the loader
    // gathers into at most `BATCHES_IN_FLIGHT` hop-R matrices over the
    // whole run (the short last batch shrinks one in place and the next
    // epoch grows it back within its capacity), and the model keeps the
    // lent hop instead of copying it. `evaluate` adds one slice slot per
    // call (val, and test when val does not drop). Nothing depends on the
    // batch count: nothing for the R unread hops, nothing per step, and
    // no ∂X.
    let sgc = batch_matrices(&mut Sgc::new(HOPS, f, classes, &mut rng));
    let budget = BATCHES_IN_FLIGHT + 2 * EPOCHS;
    assert!(
        sgc <= budget,
        "SGC fit made {sgc} batch-matrix allocations over {EPOCHS} epochs of \
         {full_batches} full batches (budget {budget}): an unread hop is \
         being moved, an input copied or gathered into a fresh matrix, or an \
         input gradient formed"
    );

    // SIGN reads every hop; its batches circulate the same way, so its
    // count is SGC's budget with every slot R + 1 hops wide.
    let mut sign = Sign::new(HOPS, f, 16, classes, 0.0, &mut rng);
    let sign_fit = batch_matrices(&mut sign);
    let sign_budget = (HOPS + 1) * budget;
    assert!(
        sign_fit <= sign_budget,
        "SIGN fit made {sign_fit} batch-matrix allocations (budget {sign_budget}): \
         its batches are not circulating"
    );

    // Control: the same loader drained by a consumer that recycles
    // nothing has every hop of every batch gathered into a fresh matrix
    // — so the count does see the loader's gathers.
    let train = Arc::new(out.train.clone());
    let mut loader =
        MemoryLoader::new(train, BATCH, LoaderKind::DoubleBuffer, 0).reading(&sign.hops_read());
    let sign = count_large_allocs(BATCH * f * 4, || {
        for _ in 0..EPOCHS {
            loader.start_epoch();
            while loader.next_batch().is_some() {}
        }
    });
    assert!(
        sign >= EPOCHS * full_batches * (HOPS + 1),
        "draining SIGN's loader made only {sign} batch-matrix allocations: the \
         large-allocation count is not seeing the loader's gathers"
    );
}

#[test]
fn compressed_store_reads_are_allocation_free_once_warm() {
    use ppgnn_dataio::{AccessPath, StoreDtype, StoreMeta, StoreWriter};
    use ppgnn_tensor::Matrix;

    let _window = measuring();
    let dir = std::env::temp_dir().join(format!("ppgnn-resid-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    for dtype in StoreDtype::ALL {
        for parts in [1usize, 2] {
            let meta = StoreMeta {
                dataset: "resid".into(),
                num_hops: 3,
                rows: 64,
                cols: 24,
                chunk_size: 16,
                dtype,
            };
            // Rows dealt round-robin, so row reads alternate partitions.
            let mut rows_by_part = vec![Vec::new(); parts];
            for r in 0..64 {
                rows_by_part[r % parts].push(r);
            }
            let sub = dir.join(format!("{}-p{parts}", dtype.name()));
            let mut w = StoreWriter::create(&sub, meta, &rows_by_part, 2).unwrap();
            for k in 0..3 {
                let hop =
                    Matrix::from_fn(64, 24, |r, c| ((k * 64 + r) * 24 + c) as f32 * 0.01 - 3.0);
                for (p, rows) in rows_by_part.iter().enumerate() {
                    w.submit(p, k, std::sync::Arc::new(hop.gather_rows(rows)))
                        .unwrap();
                }
            }
            let mut store = w.finish().unwrap();

            // Warm every slot: the caller-owned matrices, each partition's
            // encoded staging buffer, and the all-hops vector.
            let mut rows_slot = Matrix::default();
            let mut hop_slots = Vec::new();
            for _ in 0..2 {
                store
                    .read_rows_into(1, &[9, 3, 41], AccessPath::Direct, &mut rows_slot)
                    .unwrap();
                for p in 0..parts {
                    store
                        .read_chunk_all_hops_into(p, 1, AccessPath::Direct, &mut hop_slots)
                        .unwrap();
                }
            }

            // Steady state: encoded bytes stage into reused scratch and
            // decode in place — the compressed paths may not allocate at all.
            let before = ALLOCS.load(Ordering::Relaxed);
            for round in 0..10 {
                store
                    .read_rows_into(
                        round % 3,
                        &[9, 3, 41],
                        AccessPath::HostBounce,
                        &mut rows_slot,
                    )
                    .unwrap();
                let p = round % parts;
                let chunk = round % store.num_chunks(p);
                store
                    .read_chunk_all_hops_into(p, chunk, AccessPath::Direct, &mut hop_slots)
                    .unwrap();
            }
            let allocs = ALLOCS.load(Ordering::Relaxed) - before;
            assert_eq!(
                allocs, 0,
                "{dtype} P={parts} steady-state reads allocated {allocs} times; \
                 the scratch/slot reuse of the decode path has regressed"
            );
        }
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
    use ppgnn_tensor::Matrix;

    // The allocator is process-global, so also pin correctness here: hop r
    // of operator k is r explicit applications of the operator in node-id
    // order, gathered by split ids into column block k — bit for bit.
    let _window = measuring();
    let pokec = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.02), 3)
        .expect("generation succeeds");
    let papers = SynthDataset::generate(DatasetProfile::papers100m_sim().scaled(0.02), 3)
        .expect("generation succeeds");
    assert!(papers.split.num_labeled() < papers.graph.num_nodes() / 10);
    for (data, ops, hops) in [
        // Fully labeled, K = 1: the train head stays in its buffer.
        (&pokec, vec![Operator::SymNorm], 2),
        // An unlabeled tail to drop.
        (&papers, vec![Operator::SymNorm], 2),
        // R = 1 caps groups at one operator: the column-block hand-over.
        (
            &pokec,
            vec![Operator::SymNorm, Operator::RowNorm, Operator::SymNorm],
            1,
        ),
        // A diffusion series beside a single SpMM.
        (
            &pokec,
            vec![Operator::Ppr { alpha: 0.15 }, Operator::SymNorm],
            2,
        ),
    ] {
        let out = Preprocessor::new(ops.clone(), hops).run(data);
        let f = data.features.cols();
        let mut chains: Vec<Matrix> = vec![data.features.clone(); ops.len()];
        for r in 0..=hops {
            if r > 0 {
                for (chain, op) in chains.iter_mut().zip(&ops) {
                    *chain = op.apply(&data.graph, chain);
                }
            }
            for (got, ids) in [
                (&out.train, &data.split.train),
                (&out.val, &data.split.val),
                (&out.test, &data.split.test),
            ] {
                let got = &got.hops[r];
                assert_eq!(got.shape(), (ids.len(), ops.len() * f));
                for (k, chain) in chains.iter().enumerate() {
                    for (i, &v) in ids.iter().enumerate() {
                        let same = got.row(i)[k * f..(k + 1) * f]
                            .iter()
                            .zip(chain.row(v))
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                        assert!(same, "{ops:?} hop {r} operator {k} node {v} differs");
                    }
                }
            }
        }
    }
}
