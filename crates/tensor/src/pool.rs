//! The shared worker pool behind every threaded kernel in the workspace.
//!
//! Before this module existed, each GEMM/SpMM call spawned and joined fresh
//! OS threads via `crossbeam::scope` — ~100 µs of setup per call, paid once
//! per hop per operator during pre-propagation. The pool spawns its workers
//! once (lazily, on first use) and keeps them parked on a condvar; a kernel
//! call costs one boxed closure per task plus a completion wait. Every
//! row-parallel kernel — GEMM, SpMM, the token-level passes of the HOGA
//! stack — cuts its outputs through the one splitter here,
//! [`WorkerPool::run_row_blocks`].
//!
//! Sizing: the global [`pool`] defaults to
//! `std::thread::available_parallelism` and is overridable with the
//! `PPGNN_NUM_THREADS` environment variable (read once, when the global
//! pool is first touched). Tests and benchmarks that need a *specific*
//! width construct their own [`WorkerPool`].
//!
//! The pool also owns the single parallelism threshold shared by all
//! kernels ([`parallel_threshold`] / [`set_parallel_threshold`]), replacing
//! the per-kernel magic numbers (2 M in SpMM, 4 M in GEMM) that used to
//! disagree with each other.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use ppgnn_telemetry::Counter;

/// Pool-wide telemetry totals, mirrored from the per-worker accumulators
/// as jobs complete. Recording happens only while telemetry is enabled
/// (the worker loop skips its clock reads entirely otherwise).
static POOL_TASKS: Counter = Counter::new("pool.tasks");
static POOL_BUSY_NS: Counter = Counter::new("pool.busy_ns");
static POOL_IDLE_NS: Counter = Counter::new("pool.idle_ns");

/// Telemetry accumulators for one spawned worker thread: nanoseconds
/// spent executing jobs, nanoseconds parked waiting for work, and jobs
/// executed. Populated only while `ppgnn_telemetry::enabled()`.
#[derive(Debug, Default)]
pub struct WorkerStat {
    busy_ns: AtomicU64,
    idle_ns: AtomicU64,
    tasks: AtomicU64,
}

impl WorkerStat {
    /// `(busy_ns, idle_ns, tasks)` snapshot.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.busy_ns.load(Ordering::Relaxed),
            self.idle_ns.load(Ordering::Relaxed),
            self.tasks.load(Ordering::Relaxed),
        )
    }
}

/// A task as it travels through the pool's queue.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Work units (multiply-adds) above which kernels fan out to the pool.
///
/// One shared default for every kernel; see [`set_parallel_threshold`].
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 2_000_000;

static PARALLEL_THRESHOLD: AtomicUsize = AtomicUsize::new(DEFAULT_PARALLEL_THRESHOLD);

/// The work-unit threshold above which kernels use the worker pool.
pub fn parallel_threshold() -> usize {
    PARALLEL_THRESHOLD.load(Ordering::Relaxed)
}

/// Overrides the shared work threshold above which kernels fan out.
///
/// Primarily for tests and benchmarks; `0` forces the pooled path,
/// `usize::MAX` forces single-threaded execution. The unit is the kernel's
/// multiply-add estimate (`m·n·k` for GEMM, `nnz·f` for SpMM).
pub fn set_parallel_threshold(work: usize) {
    PARALLEL_THRESHOLD.store(work, Ordering::Relaxed);
}

/// Number of tasks a kernel with `work` multiply-adds should split into on
/// the global pool: `1` below the shared threshold, the pool width above.
pub fn threads_for(work: usize) -> usize {
    pool().threads_for(work)
}

/// The process-wide pool, created on first use.
///
/// Width is `PPGNN_NUM_THREADS` when set (clamped to `1..=256`), otherwise
/// `std::thread::available_parallelism()`.
pub fn pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let threads = crate::knobs::usize_value(crate::knobs::NUM_THREADS).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        WorkerPool::new(threads)
    })
}

/// The job queue workers park on. The mutex is held only while pushing or
/// popping — never while a job runs or a worker sleeps (condvar waits
/// release it) — so a caller helping to drain the queue can always make
/// progress.
#[derive(Default)]
struct SharedQueue {
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
}

impl SharedQueue {
    fn push(&self, job: Job) {
        let mut jobs = self.jobs.lock().expect("pool queue lock poisoned");
        jobs.push_back(job);
        drop(jobs);
        self.available.notify_one();
    }

    fn try_pop(&self) -> Option<Job> {
        self.jobs
            .lock()
            .expect("pool queue lock poisoned")
            .pop_front()
    }

    /// Blocks until a job is available (returning it) or shutdown.
    fn pop_or_shutdown(&self) -> Option<Job> {
        let mut jobs = self.jobs.lock().expect("pool queue lock poisoned");
        loop {
            if let Some(job) = jobs.pop_front() {
                return Some(job);
            }
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            jobs = self.available.wait(jobs).expect("pool queue lock poisoned");
        }
    }
}

/// Completion barrier for one `run` call.
struct Batch {
    remaining: Mutex<usize>,
    done: Condvar,
    /// First panic payload captured from a queued task, re-raised on the
    /// caller once the whole batch has completed.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Batch {
    fn new(remaining: usize) -> Self {
        Batch {
            remaining: Mutex::new(remaining),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn complete_one(&self) {
        let mut remaining = self.remaining.lock().expect("pool batch lock poisoned");
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        *self.remaining.lock().expect("pool batch lock poisoned") == 0
    }

    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic.lock().expect("pool batch lock poisoned");
        slot.get_or_insert(payload);
    }
}

/// A persistent pool of worker threads executing borrowed closures.
///
/// [`WorkerPool::run`] is a scoped-execution primitive: it returns only
/// after every submitted task has finished, so tasks may borrow from the
/// caller's stack. The calling thread always executes one task itself and
/// helps drain the queue while waiting, which keeps a width-1 pool (and
/// nested calls) deadlock-free.
#[derive(Debug)]
pub struct WorkerPool {
    queue: Arc<SharedQueue>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    /// One accumulator per spawned worker (`threads - 1` entries; the
    /// participating caller is not a pool-owned thread).
    stats: Arc<Vec<WorkerStat>>,
}

impl std::fmt::Debug for SharedQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedQueue").finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Creates a pool that runs tasks on `threads` threads **including the
    /// caller**, i.e. it spawns `threads - 1` workers. `threads` is clamped
    /// to at least 1.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let queue = Arc::new(SharedQueue::default());
        let stats: Arc<Vec<WorkerStat>> = Arc::new(
            (1..threads)
                .map(|_| WorkerStat::default())
                .collect::<Vec<_>>(),
        );
        let workers = (1..threads)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let stats = Arc::clone(&stats);
                std::thread::Builder::new()
                    .name(format!("ppgnn-worker-{i}"))
                    .spawn(move || {
                        let stat = &stats[i - 1];
                        loop {
                            // Clock reads are skipped entirely when
                            // telemetry is off; the switch may flip
                            // mid-run, so re-check per job.
                            let idle_from = if ppgnn_telemetry::enabled() {
                                Some(Instant::now())
                            } else {
                                None
                            };
                            let Some(job) = queue.pop_or_shutdown() else {
                                break;
                            };
                            if let Some(t) = idle_from {
                                let ns = t.elapsed().as_nanos() as u64;
                                stat.idle_ns.fetch_add(ns, Ordering::Relaxed);
                                POOL_IDLE_NS.add(ns);
                            }
                            if ppgnn_telemetry::enabled() {
                                let t = Instant::now();
                                job();
                                let ns = t.elapsed().as_nanos() as u64;
                                stat.busy_ns.fetch_add(ns, Ordering::Relaxed);
                                stat.tasks.fetch_add(1, Ordering::Relaxed);
                                POOL_BUSY_NS.add(ns);
                                POOL_TASKS.add(1);
                            } else {
                                job();
                            }
                        }
                    })
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool {
            queue,
            workers,
            threads,
            stats,
        }
    }

    /// Pool width: worker threads plus the participating caller.
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// Per-worker telemetry accumulators (`threads - 1` entries), live —
    /// they keep counting while telemetry is enabled.
    pub fn worker_stats(&self) -> &[WorkerStat] {
        &self.stats
    }

    /// Number of tasks a kernel with `work` multiply-adds should split
    /// into on **this** pool: `1` below the shared threshold
    /// ([`parallel_threshold`]), the pool width above.
    ///
    /// Explicit-pool callers (the width sweeps in the SpMM regression
    /// suite, the shard scheduler in `ppgnn-core`) share the same gating
    /// as the global-pool kernels instead of re-deriving it; nested
    /// submissions reuse the handle they were given rather than touching
    /// the global pool.
    pub fn threads_for(&self, work: usize) -> usize {
        if work <= parallel_threshold() {
            1
        } else {
            self.threads
        }
    }

    /// Runs every task to completion, borrowing from the caller's scope.
    ///
    /// The final task runs on the calling thread; the rest are queued for
    /// the workers. While its own batch is outstanding the caller pops and
    /// executes queued jobs (its own or a concurrent caller's), then blocks
    /// on the batch condvar.
    ///
    /// # Panics
    ///
    /// If any task panics, `run` waits for the **whole batch** to finish
    /// (panicked tasks included — their unwind is caught inside the queued
    /// job, so workers survive and the completion count still advances)
    /// and then re-raises the first panic on the calling thread, matching
    /// the join-then-propagate behaviour of the scoped-thread code it
    /// replaced.
    pub fn run<'env>(&self, mut tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        let Some(local) = tasks.pop() else { return };
        if tasks.is_empty() || self.threads <= 1 {
            // Nothing to fan out (or nobody to fan out to): run inline.
            // A panic here unwinds directly; the unexecuted boxed tasks
            // are merely dropped, which borrows nothing.
            local();
            for task in tasks {
                task();
            }
            return;
        }
        let batch = Arc::new(Batch::new(tasks.len()));
        for task in tasks {
            let batch = Arc::clone(&batch);
            let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                // Catch unwinds so a panicking kernel body can neither kill
                // the worker's pop loop nor skip the completion count that
                // `run`'s soundness depends on.
                if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)) {
                    batch.record_panic(payload);
                }
                batch.complete_one();
            });
            // SAFETY: `run` does not return — normally or by unwinding —
            // until `batch.remaining` reaches zero: the local task runs
            // under `catch_unwind`, the wait loop below is unconditional,
            // and every queued job decrements the counter via
            // `complete_one` even when its task panics (the unwind is
            // caught above). The borrows captured at lifetime `'env`
            // therefore strictly outlive every execution of the job,
            // making the lifetime erasure sound. The transmute itself only
            // erases the lifetime parameter of an otherwise identical fat
            // pointer type.
            unsafe {
                self.queue
                    .push(std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(
                        job,
                    ));
            }
        }
        let local_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(local));
        // Help drain the queue until our batch completes; jobs from
        // concurrent batches may run here too, which is harmless (their
        // owners are blocked in their own `run`, and queued jobs never
        // unwind — they catch internally).
        loop {
            if batch.is_done() {
                break;
            }
            match self.queue.try_pop() {
                Some(job) => job(),
                None => {
                    // Everything left of our batch is in flight on workers:
                    // wait for the last decrement. Re-checking under the
                    // batch lock avoids the lost-wakeup race.
                    let mut remaining = batch.remaining.lock().expect("pool batch lock poisoned");
                    while *remaining > 0 {
                        remaining = batch
                            .done
                            .wait(remaining)
                            .expect("pool batch lock poisoned");
                    }
                    break;
                }
            }
        }
        // Batch fully complete: nothing references the caller's frame any
        // more, so propagating a panic is safe now.
        if let Err(payload) = local_result {
            std::panic::resume_unwind(payload);
        }
        let queued_panic = batch.panic.lock().expect("pool batch lock poisoned").take();
        if let Some(payload) = queued_panic {
            std::panic::resume_unwind(payload);
        }
    }

    /// The one row-block splitter behind every row-parallel kernel: cuts
    /// each of the `N` outputs at the boundaries of `blocks` and runs
    /// `body(block, first_row, pieces)` **once per block**, in ascending
    /// order inside each of at most `ntasks` pool tasks (contiguous runs of
    /// blocks). What a block computes therefore never depends on `ntasks`
    /// or the pool width: a pass whose body is a function of its block
    /// alone — cross-row reductions included, when each block writes its
    /// own [`BlockOut::partial`] row and the caller sums those rows in block
    /// order — is bit-identical serial, pooled, and at every width.
    ///
    /// With one task (or a width-1 pool) the blocks run inline on the
    /// caller and nothing is allocated.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` does not tile every output exactly.
    pub fn run_row_blocks<const N: usize, F>(
        &self,
        outs: [BlockOut<'_>; N],
        blocks: RowBlocks<'_>,
        ntasks: usize,
        body: F,
    ) where
        F: Fn(usize, usize, [&mut [f32]; N]) + Sync,
    {
        let nblocks = blocks.count();
        for out in &outs {
            assert_eq!(
                out.data.len(),
                out.extent(blocks.rows(), nblocks),
                "row blocks must tile every output exactly"
            );
        }
        let run = |range: std::ops::Range<usize>, mut row0: usize, mut outs: [BlockOut<'_>; N]| {
            for blk in range {
                let rows = blocks.size(blk);
                body(
                    blk,
                    row0,
                    outs.each_mut().map(|out| out.split_off(rows, 1).data),
                );
                row0 += rows;
            }
        };
        let ntasks = ntasks.min(nblocks);
        if ntasks <= 1 || self.threads <= 1 {
            run(0..nblocks, 0, outs);
            return;
        }
        let per = nblocks.div_ceil(ntasks);
        let run = &run;
        let mut rest = outs;
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(ntasks);
        let (mut first, mut row0) = (0, 0);
        while first < nblocks {
            let end = (first + per).min(nblocks);
            let rows: usize = (first..end).map(|blk| blocks.size(blk)).sum();
            let mine = rest.each_mut().map(|out| out.split_off(rows, end - first));
            tasks.push(Box::new(move || run(first..end, row0, mine)));
            (first, row0) = (end, row0 + rows);
        }
        self.run(tasks);
    }
}

/// One output buffer of [`WorkerPool::run_row_blocks`], cut at the pass's
/// block boundaries.
#[derive(Debug)]
pub struct BlockOut<'a> {
    data: &'a mut [f32],
    per_row: usize,
    per_block: usize,
}

impl<'a> BlockOut<'a> {
    /// A row-major buffer holding `width` values per row of the pass: a
    /// block of `r` rows receives its `r · width` values.
    pub fn rows(data: &'a mut [f32], width: usize) -> Self {
        BlockOut {
            data,
            per_row: width,
            per_block: 0,
        }
    }

    /// A buffer holding one `len`-value row **per block** — where a block
    /// leaves the partial of a cross-row reduction, for the caller to sum
    /// in block order.
    pub fn partial(data: &'a mut [f32], len: usize) -> Self {
        BlockOut {
            data,
            per_row: 0,
            per_block: len,
        }
    }

    fn extent(&self, rows: usize, blocks: usize) -> usize {
        rows * self.per_row + blocks * self.per_block
    }

    /// Cuts the leading `blocks` blocks (`rows` rows together) off the
    /// front, leaving the rest in `self`.
    fn split_off(&mut self, rows: usize, blocks: usize) -> BlockOut<'a> {
        let (head, tail) = std::mem::take(&mut self.data).split_at_mut(self.extent(rows, blocks));
        self.data = tail;
        BlockOut {
            data: head,
            ..*self
        }
    }
}

/// How [`WorkerPool::run_row_blocks`] cuts a pass's rows into blocks.
#[derive(Debug, Clone, Copy)]
pub enum RowBlocks<'a> {
    /// Explicit block sizes in rows (`MR`-aligned GEMM row blocks,
    /// nnz-balanced SpMM blocks).
    Sizes(&'a [usize]),
    /// `rows` rows in blocks of `per` (the last possibly short).
    Even {
        /// Total rows of the pass.
        rows: usize,
        /// Rows per block.
        per: usize,
    },
}

impl RowBlocks<'_> {
    fn count(&self) -> usize {
        match *self {
            RowBlocks::Sizes(sizes) => sizes.len(),
            RowBlocks::Even { rows, per } => rows.div_ceil(per),
        }
    }

    fn rows(&self) -> usize {
        match *self {
            RowBlocks::Sizes(sizes) => sizes.iter().sum(),
            RowBlocks::Even { rows, .. } => rows,
        }
    }

    fn size(&self, blk: usize) -> usize {
        match *self {
            RowBlocks::Sizes(sizes) => sizes[blk],
            RowBlocks::Even { rows, per } => per.min(rows - blk * per),
        }
    }
}

/// Rows per block of the fixed-grain token-level passes ([`row_blocked`]):
/// 64 rows of a 128-wide activation are 32 KiB, an L1-sized unit of work,
/// and a 1024-example batch still yields 16 blocks to share out.
pub const ROW_BLOCK: usize = 64;

/// Work units one streamed `f32` of a token-level pass counts for against
/// [`parallel_threshold`], whose unit is a packed-GEMM multiply-add: such
/// passes are bound by memory traffic, and a core moves about one value in
/// the time it retires eight multiply-adds.
const STREAMED_VALUE_WORK: usize = 8;

/// Number of [`ROW_BLOCK`]-row blocks [`row_blocked`] cuts `rows` rows
/// into — the row count of a [`BlockOut::partial`] buffer.
pub fn row_block_count(rows: usize) -> usize {
    rows.div_ceil(ROW_BLOCK)
}

/// Adds the rows of a [`BlockOut::partial`] buffer into `dst`, in block
/// order — the serial tail of a row-blocked cross-row reduction.
pub fn add_partials(dst: &mut [f32], partials: &[f32]) {
    for partial in partials.chunks_exact(dst.len().max(1)) {
        for (d, p) in dst.iter_mut().zip(partial) {
            *d += p;
        }
    }
}

/// Runs a token-level pass over `rows` rows on the global pool: fixed
/// [`ROW_BLOCK`]-row blocks through [`WorkerPool::run_row_blocks`], split
/// into as many tasks as [`threads_for`] allows a pass that streams
/// `values` values (read plus written). Results are bit-identical for
/// every pool width and threshold (see `run_row_blocks`).
pub fn row_blocked<const N: usize, F>(rows: usize, values: usize, outs: [BlockOut<'_>; N], body: F)
where
    F: Fn(usize, usize, [&mut [f32]; N]) + Sync,
{
    let blocks = RowBlocks::Even {
        rows,
        per: ROW_BLOCK,
    };
    let ntasks = threads_for(values * STREAMED_VALUE_WORK);
    pool().run_row_blocks(outs, blocks, ntasks, body);
}

/// Which of the two per-thread packing buffers a kernel is asking for.
///
/// GEMM packs both operands: the shared-`B` panel buffer is filled by the
/// calling thread and borrowed immutably by every row-block task, while
/// each task packs its own `A` panels. Keeping the two in separate slots
/// lets the caller hold the `B` buffer across a `WorkerPool::run` while
/// tasks executing on the *same* thread (the caller helps drain the queue)
/// take the `A` slot without conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackBuf {
    /// Per-task `A`-panel buffer (`MR`-row panels).
    OperandA,
    /// Per-call `B`-panel buffer (`NR`-column panels), shared read-only
    /// across all row-block tasks of one GEMM call.
    OperandB,
}

/// Thread-local packing workspace for the blocked GEMM kernels.
///
/// Packing copies operand panels into contiguous buffers once per call;
/// without a reusable workspace every GEMM would allocate (and fault in)
/// fresh panel buffers. The workspace grows monotonically per thread — a
/// buffer is only replaced when a larger one is handed back — so in steady
/// state (the training loop, the preprocessing hop loop) packing performs
/// zero allocations.
///
/// Buffers are *taken out* of the thread-local slot
/// ([`PackWorkspace::take`]) and *given back* ([`PackWorkspace::give`])
/// rather than borrowed in place, so a re-entrant kernel on the same
/// thread (a pool caller helping to drain another caller's GEMM tasks)
/// degrades to a fresh allocation instead of a `RefCell` panic.
#[derive(Debug, Default)]
pub struct PackWorkspace {
    slots: [Vec<f32>; 2],
}

thread_local! {
    static PACK_WORKSPACE: RefCell<PackWorkspace> = RefCell::new(PackWorkspace::default());
}

impl PackWorkspace {
    fn index(which: PackBuf) -> usize {
        match which {
            PackBuf::OperandA => 0,
            PackBuf::OperandB => 1,
        }
    }

    /// Takes this thread's buffer for `which`, resized to exactly `len`
    /// elements (contents unspecified — packing overwrites every element,
    /// zero-padding panel tails). Only newly grown capacity is
    /// initialized; the retained region keeps its stale contents, so a
    /// steady-state take is free of memory traffic.
    pub fn take(which: PackBuf, len: usize) -> Vec<f32> {
        let mut buf = PACK_WORKSPACE
            .with(|ws| std::mem::take(&mut ws.borrow_mut().slots[Self::index(which)]));
        if buf.len() < len {
            buf.resize(len, 0.0);
        } else {
            buf.truncate(len);
        }
        buf
    }

    /// Returns a buffer taken with [`PackWorkspace::take`]. The slot keeps
    /// whichever buffer has the larger capacity (monotonic growth).
    pub fn give(which: PackBuf, buf: Vec<f32>) {
        PACK_WORKSPACE.with(|ws| {
            let slot = &mut ws.borrow_mut().slots[Self::index(which)];
            if buf.capacity() > slot.capacity() {
                *slot = buf;
            }
        });
    }

    /// Current capacities (in `f32` elements) of this thread's
    /// `(OperandA, OperandB)` buffers — observability for tests and the
    /// bench harness.
    pub fn thread_capacity() -> (usize, usize) {
        PACK_WORKSPACE.with(|ws| {
            let ws = ws.borrow();
            (ws.slots[0].capacity(), ws.slots[1].capacity())
        })
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.queue.shutdown.store(true, Ordering::Release);
        self.queue.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Serializes tests (across this crate's modules) that mutate the global
/// parallel threshold, so concurrent test threads don't observe each
/// other's overrides.
#[cfg(test)]
pub(crate) static TEST_THRESHOLD_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = WorkerPool::new(4);
        let counter = AtomicU32::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..64)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn tasks_borrow_disjoint_stack_data() {
        let pool = WorkerPool::new(3);
        let mut data = [0u32; 30];
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = data
            .chunks_mut(10)
            .enumerate()
            .map(|(i, chunk)| {
                Box::new(move || {
                    for v in chunk {
                        *v = i as u32 + 1;
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(tasks);
        assert!(data[..10].iter().all(|&v| v == 1));
        assert!(data[10..20].iter().all(|&v| v == 2));
        assert!(data[20..].iter().all(|&v| v == 3));
    }

    #[test]
    fn width_one_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.num_threads(), 1);
        let mut hits = 0;
        pool.run(vec![Box::new(|| hits += 1) as Box<dyn FnOnce() + Send + '_>]);
        assert_eq!(hits, 1);
    }

    #[test]
    fn empty_task_list_is_a_noop() {
        WorkerPool::new(2).run(Vec::new());
    }

    #[test]
    fn repeated_runs_reuse_the_same_workers() {
        let pool = WorkerPool::new(4);
        for round in 0..200 {
            let counter = AtomicU32::new(0);
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                .map(|_| {
                    Box::new(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run(tasks);
            assert_eq!(counter.load(Ordering::Relaxed), 4, "round {round}");
        }
    }

    #[test]
    fn concurrent_callers_share_one_pool() {
        let pool = Arc::new(WorkerPool::new(4));
        let total = Arc::new(AtomicU32::new(0));
        let callers: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..3)
                            .map(|_| {
                                let total = Arc::clone(&total);
                                Box::new(move || {
                                    total.fetch_add(1, Ordering::Relaxed);
                                }) as Box<dyn FnOnce() + Send + '_>
                            })
                            .collect();
                        pool.run(tasks);
                    }
                })
            })
            .collect();
        for c in callers {
            c.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 4 * 50 * 3);
    }

    #[test]
    fn dropping_a_pool_terminates_workers() {
        let pool = WorkerPool::new(4);
        let counter = AtomicU32::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..8)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(tasks);
        drop(pool); // must join cleanly, not hang
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn panicking_task_propagates_after_batch_completes_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let completed = AtomicU32::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..8)
            .map(|i| {
                let completed = &completed;
                Box::new(move || {
                    if i == 3 {
                        panic!("kernel body failed");
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.run(tasks)));
        assert!(result.is_err(), "panic must propagate to the caller");
        // Every non-panicking task still ran — run() waited for the whole
        // batch before unwinding (the soundness requirement).
        assert_eq!(completed.load(Ordering::Relaxed), 7);
        // Workers survived the panic: the pool still executes new batches.
        let after = AtomicU32::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..8)
            .map(|_| {
                Box::new(|| {
                    after.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(tasks);
        assert_eq!(after.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn run_row_blocks_tiles_exactly() {
        let pool = WorkerPool::new(2);
        let mut data = vec![0.0f32; 12];
        let firsts = Mutex::new(Vec::new());
        pool.run_row_blocks(
            [BlockOut::rows(&mut data, 2)],
            RowBlocks::Sizes(&[1, 3, 2]),
            3,
            |i, row0, [piece]| {
                firsts.lock().unwrap().push((i, row0));
                piece.fill(i as f32 + 1.0);
            },
        );
        assert_eq!(&data[..2], &[1.0, 1.0]);
        assert_eq!(&data[2..8], &[2.0; 6]);
        assert_eq!(&data[8..], &[3.0; 4]);
        let mut firsts = firsts.into_inner().unwrap();
        firsts.sort_unstable();
        assert_eq!(firsts, [(0, 0), (1, 1), (2, 4)]);
    }

    #[test]
    fn row_blocks_are_independent_of_the_task_partition() {
        // A pass with two row outputs of different widths and a per-block
        // partial (a column sum): whatever the task count and pool width,
        // every block sees the same rows and leaves the same bits. 200 rows
        // in blocks of 64 has a short last block; 8 tasks exceed the 4
        // blocks there are.
        const ROWS: usize = 200;
        let src: Vec<f32> = (0..ROWS * 3).map(|i| (i as f32 * 0.37).sin()).collect();
        let run = |pool: &WorkerPool, ntasks: usize| {
            let nblocks = ROWS.div_ceil(64);
            let (mut a, mut b) = (vec![0.0f32; ROWS * 3], vec![0.0f32; ROWS]);
            let mut partial = vec![0.0f32; nblocks * 3];
            let calls = AtomicU32::new(0);
            pool.run_row_blocks(
                [
                    BlockOut::rows(&mut a, 3),
                    BlockOut::rows(&mut b, 1),
                    BlockOut::partial(&mut partial, 3),
                ],
                RowBlocks::Even {
                    rows: ROWS,
                    per: 64,
                },
                ntasks,
                |blk, row0, [a, b, part]| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    assert_eq!(row0, blk * 64);
                    part.fill(0.0);
                    for (i, (arow, bv)) in a.chunks_exact_mut(3).zip(b.iter_mut()).enumerate() {
                        let x = &src[(row0 + i) * 3..][..3];
                        for ((o, p), &v) in arow.iter_mut().zip(part.iter_mut()).zip(x) {
                            *o = v * 2.0;
                            *p += v;
                        }
                        *bv = x[0] + x[1] * x[2];
                    }
                },
            );
            assert_eq!(calls.load(Ordering::Relaxed) as usize, nblocks);
            let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
            (bits(a), bits(b), bits(partial))
        };
        let expect = run(&WorkerPool::new(1), 1);
        for width in [2, 4] {
            let pool = WorkerPool::new(width);
            for ntasks in [1, 2, 3, 8] {
                assert_eq!(run(&pool, ntasks), expect, "width {width}, {ntasks} tasks");
            }
        }
    }

    #[test]
    #[should_panic(expected = "tile every output exactly")]
    fn run_row_blocks_rejects_a_mis_sized_output() {
        let mut data = vec![0.0f32; 11];
        WorkerPool::new(1).run_row_blocks(
            [BlockOut::rows(&mut data, 2)],
            RowBlocks::Sizes(&[1, 3, 2]),
            1,
            |_, _, _| {},
        );
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let p1 = pool();
        let p2 = pool();
        assert!(std::ptr::eq(p1, p2));
        assert!(p1.num_threads() >= 1);
    }

    #[test]
    fn per_pool_threads_for_uses_that_pools_width() {
        let _guard = TEST_THRESHOLD_LOCK.lock().unwrap();
        let prev = parallel_threshold();
        set_parallel_threshold(10);
        let pool = WorkerPool::new(3);
        assert_eq!(pool.threads_for(10), 1);
        assert_eq!(pool.threads_for(11), 3);
        set_parallel_threshold(prev);
    }

    #[test]
    fn pack_workspace_grows_monotonically_and_is_reused() {
        let buf = PackWorkspace::take(PackBuf::OperandA, 128);
        assert_eq!(buf.len(), 128);
        PackWorkspace::give(PackBuf::OperandA, buf);
        let (a_cap, _) = PackWorkspace::thread_capacity();
        assert!(a_cap >= 128);
        // A smaller request reuses the grown buffer without shrinking it.
        let buf = PackWorkspace::take(PackBuf::OperandA, 16);
        assert_eq!(buf.len(), 16);
        assert!(buf.capacity() >= 128);
        PackWorkspace::give(PackBuf::OperandA, buf);
        // Giving back a smaller buffer does not shrink the slot.
        PackWorkspace::give(PackBuf::OperandA, Vec::with_capacity(8));
        let (a_cap_after, _) = PackWorkspace::thread_capacity();
        assert!(a_cap_after >= a_cap);
    }

    #[test]
    fn pack_workspace_slots_are_independent() {
        let a = PackWorkspace::take(PackBuf::OperandA, 32);
        // Taking B while A is out must not conflict (the GEMM caller holds
        // B across pool.run while tasks on the same thread take A).
        let b = PackWorkspace::take(PackBuf::OperandB, 64);
        assert_eq!(a.len(), 32);
        assert_eq!(b.len(), 64);
        // Re-entrant take of an already-taken slot degrades to a fresh
        // buffer rather than panicking.
        let a2 = PackWorkspace::take(PackBuf::OperandA, 8);
        assert_eq!(a2.len(), 8);
        PackWorkspace::give(PackBuf::OperandA, a);
        PackWorkspace::give(PackBuf::OperandA, a2);
        PackWorkspace::give(PackBuf::OperandB, b);
    }

    #[test]
    fn threshold_gates_threads_for() {
        let _guard = TEST_THRESHOLD_LOCK.lock().unwrap();
        let prev = parallel_threshold();
        set_parallel_threshold(100);
        assert_eq!(threads_for(100), 1);
        assert_eq!(threads_for(101), pool().num_threads());
        set_parallel_threshold(prev);
    }
}
