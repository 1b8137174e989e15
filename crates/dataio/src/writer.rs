//! Asynchronous, double-buffered hop persistence.
//!
//! The streaming preprocessor used to call [`FeatureStoreWriter::write_hop`]
//! synchronously on the compute thread: every finished hop blocked
//! diffusion until its bytes hit storage — serialized compute and I/O,
//! exactly the pipeline bubble the generation-2 *loader* already removed on
//! the read side. [`AsyncHopWriter`] mirrors that design for writes: a
//! dedicated writer thread drains a **bounded** channel of finished hop
//! matrices, so hop `r + 1` diffusion overlaps hop `r` I/O, and the channel
//! depth (default [`DEFAULT_WRITER_QUEUE`], the double buffer) bounds how
//! many extra hop matrices can be in flight — backpressure, not unbounded
//! queuing, when storage is slower than compute.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ppgnn_tensor::Matrix;

use crate::{DataIoError, FeatureStore, FeatureStoreWriter, StoreMeta};

/// Telemetry mirrors of the per-writer [`WriterStats`], so traced runs
/// see write-side backpressure in the metrics registry.
static WRITER_SUBMIT_BLOCK_NS: ppgnn_telemetry::Counter =
    ppgnn_telemetry::Counter::new("writer.submit_block_ns");
static WRITER_QUEUE_HWM: ppgnn_telemetry::Counter =
    ppgnn_telemetry::Counter::new("writer.queue_hwm");
static WRITER_RETRIES: ppgnn_telemetry::Counter = ppgnn_telemetry::Counter::new("writer.retries");
static WRITER_LATCHED_FAILURES: ppgnn_telemetry::Counter =
    ppgnn_telemetry::Counter::new("writer.latched_failures");

/// Retries for a transiently failing hop write before it latches.
const DEFAULT_WRITE_RETRIES: usize = 2;

/// Base backoff before the first retry; doubles per attempt (capped).
const RETRY_BACKOFF_BASE_MS: u64 = 1;

/// Default bounded-channel depth: two in-flight hop matrices — the
/// write-side software double buffer.
pub const DEFAULT_WRITER_QUEUE: usize = 2;

/// Queue-pressure accounting for one [`AsyncHopWriter`] — the signal the
/// original writer dropped entirely. A saturated queue (`queue_hwm` at
/// capacity, growing `submit_block_ns`) means storage is the bottleneck
/// and diffusion is stalling on write backpressure; an idle queue means
/// the async writer fully hides I/O behind compute.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WriterStats {
    /// Hop matrices accepted by [`AsyncHopWriter::submit`].
    pub submitted: u64,
    /// High-water mark of in-flight hop matrices (queued plus the one
    /// entering the queue), observed at submit time.
    pub queue_hwm: usize,
    /// Total nanoseconds `submit` spent blocked on a full queue.
    pub submit_block_ns: u64,
    /// Transient write failures absorbed by retry-with-backoff (also
    /// exported as the `writer.retries` telemetry counter).
    pub retries: u64,
}

/// Shared mutable stats cells: the producer bumps them in `submit`, the
/// writer thread decrements the in-flight depth as it drains.
#[derive(Debug, Default)]
struct StatsCells {
    depth: AtomicUsize,
    queue_hwm: AtomicUsize,
    submit_block_ns: AtomicU64,
    submitted: AtomicU64,
    retries: AtomicU64,
}

/// A [`FeatureStoreWriter`] running on its own thread behind a bounded
/// channel.
///
/// [`AsyncHopWriter::submit`] hands a finished hop matrix to the writer
/// thread, blocking only when the queue is full. The first write failure is
/// **latched**: later submissions are drained and dropped (so the producer
/// never blocks on a dead store), [`AsyncHopWriter::submit`] starts failing
/// fast, and the underlying error is surfaced by
/// [`AsyncHopWriter::finish`] — which otherwise verifies completeness and
/// opens the store, exactly like the synchronous
/// [`FeatureStoreWriter::finish`].
#[derive(Debug)]
pub struct AsyncHopWriter {
    tx: Option<SyncSender<(usize, Arc<Matrix>)>>,
    worker: Option<JoinHandle<Result<FeatureStoreWriter, DataIoError>>>,
    failed: Arc<AtomicBool>,
    stats: Arc<StatsCells>,
    /// Snapshot of the wrapped writer's journal-resumed hops, so
    /// resume-aware producers can skip recomputing them.
    resumed: Vec<bool>,
}

impl AsyncHopWriter {
    /// Creates the store directory and starts the writer thread with a
    /// bounded queue of `queue_depth` hop matrices (clamped to
    /// `1..=meta.num_hops`, see [`AsyncHopWriter::wrap`]).
    ///
    /// # Errors
    ///
    /// Propagates [`FeatureStoreWriter::create`] failures.
    pub fn create(
        dir: impl AsRef<std::path::Path>,
        meta: StoreMeta,
        queue_depth: usize,
    ) -> Result<Self, DataIoError> {
        Ok(Self::wrap(
            FeatureStoreWriter::create(dir, meta)?,
            queue_depth,
        ))
    }

    /// Like [`AsyncHopWriter::create`], but replays an interrupted
    /// run's completed-units journal via
    /// [`FeatureStoreWriter::create_or_resume`];
    /// [`AsyncHopWriter::resumed_hops`] reports which hops need no
    /// resubmission.
    ///
    /// # Errors
    ///
    /// Propagates [`FeatureStoreWriter::create_or_resume`] failures.
    pub fn create_or_resume(
        dir: impl AsRef<std::path::Path>,
        meta: StoreMeta,
        queue_depth: usize,
    ) -> Result<Self, DataIoError> {
        Ok(Self::wrap(
            FeatureStoreWriter::create_or_resume(dir, meta)?,
            queue_depth,
        ))
    }

    /// Wraps an existing synchronous writer in a writer thread.
    ///
    /// The queue holds `queue_depth` hop matrices, clamped to
    /// `1..=num_hops`: a store never has more hops than that to hold, so
    /// a larger depth changes nothing but the channel's allocation.
    ///
    /// Transient I/O failures in a hop write are retried with
    /// exponential backoff up to [`DEFAULT_WRITE_RETRIES`] times before
    /// latching — shape/range errors are never retried, they
    /// latch immediately.
    pub fn wrap(writer: FeatureStoreWriter, queue_depth: usize) -> Self {
        let resumed = writer.resumed_hops().to_vec();
        let failed = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&failed);
        let stats = Arc::new(StatsCells::default());
        let drain_stats = Arc::clone(&stats);
        // One resume flag per hop: its length is the store's hop count.
        let depth = queue_depth.min(resumed.len()).max(1);
        let (tx, rx) = sync_channel::<(usize, Arc<Matrix>)>(depth);
        let worker = std::thread::Builder::new()
            .name("ppgnn-hop-writer".into())
            .spawn(move || {
                let mut writer = writer;
                let mut first_err: Option<DataIoError> = None;
                while let Ok((k, features)) = rx.recv() {
                    drain_stats.depth.fetch_sub(1, Ordering::AcqRel);
                    if first_err.is_some() {
                        // Latched failure: drain so producers never block
                        // on a queue nobody is emptying.
                        continue;
                    }
                    if let Err(e) = write_hop_with_retry(&mut writer, k, &features, &drain_stats) {
                        flag.store(true, Ordering::Release);
                        WRITER_LATCHED_FAILURES.add(1);
                        first_err = Some(e);
                    }
                }
                match first_err {
                    Some(e) => Err(e),
                    None => Ok(writer),
                }
            })
            .expect("failed to spawn hop-writer thread");
        AsyncHopWriter {
            tx: Some(tx),
            worker: Some(worker),
            failed,
            stats,
            resumed,
        }
    }

    /// Which hops the underlying writer replayed from its journal (all
    /// `false` unless built via [`AsyncHopWriter::create_or_resume`]).
    /// Submitting one of these again is harmless — identical bytes are
    /// rewritten — but skipping them is what makes resume cheap.
    pub fn resumed_hops(&self) -> &[bool] {
        &self.resumed
    }

    /// Snapshot of the queue-pressure stats accumulated so far.
    pub fn stats(&self) -> WriterStats {
        WriterStats {
            submitted: self.stats.submitted.load(Ordering::Relaxed),
            queue_hwm: self.stats.queue_hwm.load(Ordering::Relaxed),
            submit_block_ns: self.stats.submit_block_ns.load(Ordering::Relaxed),
            retries: self.stats.retries.load(Ordering::Relaxed),
        }
    }

    /// Queues hop `k` for writing, blocking while the bounded queue is
    /// full (write backpressure).
    ///
    /// Takes a shared handle: the writer thread only reads the hop, so a
    /// producer that keeps the finished matrix (the in-memory output of
    /// `Preprocessor::run_with_sharded_store` when one partition owns
    /// every row) hands over a reference count, not a copy. The matrix
    /// is freed once both sides drop it.
    ///
    /// # Errors
    ///
    /// Fails fast once a previous write has failed (or the writer thread
    /// died); the underlying cause is reported by
    /// [`AsyncHopWriter::finish`].
    pub fn submit(&mut self, k: usize, features: Arc<Matrix>) -> Result<(), DataIoError> {
        if self.failed.load(Ordering::Acquire) {
            return Err(DataIoError::Io(
                "async hop writer already failed; finish() reports the cause".into(),
            ));
        }
        let tx = self
            .tx
            .as_ref()
            .ok_or_else(|| DataIoError::Io("async hop writer already finished".into()))?;
        let depth = self.stats.depth.fetch_add(1, Ordering::AcqRel) + 1;
        self.stats.queue_hwm.fetch_max(depth, Ordering::Relaxed);
        let sent = match tx.try_send((k, features)) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(payload)) => {
                // Queue full: storage is behind compute. Fall back to the
                // blocking send and charge the wait to `submit_block_ns`.
                let t0 = Instant::now();
                let res = tx.send(payload);
                let blocked = t0.elapsed().as_nanos() as u64;
                self.stats
                    .submit_block_ns
                    .fetch_add(blocked, Ordering::Relaxed);
                WRITER_SUBMIT_BLOCK_NS.add(blocked);
                res.map_err(|_| ())
            }
            Err(TrySendError::Disconnected(_)) => Err(()),
        };
        if sent.is_err() {
            self.stats.depth.fetch_sub(1, Ordering::AcqRel);
            return Err(DataIoError::Io("hop-writer thread terminated early".into()));
        }
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        WRITER_QUEUE_HWM.record_max(depth as u64);
        Ok(())
    }

    /// `true` once a write has failed (or the writer thread died):
    /// [`AsyncHopWriter::submit`] is fail-fast from then on, and
    /// [`AsyncHopWriter::take_failure`] can retrieve the cause.
    pub fn has_failed(&self) -> bool {
        self.failed.load(Ordering::Acquire) || self.worker.as_ref().is_none_or(|w| w.is_finished())
    }

    /// Consumes the writer and returns the latched failure, if any —
    /// for callers abandoning a run mid-way (a failed `submit`) that
    /// still want the underlying cause rather than the fail-fast
    /// placeholder. Returns `None` when no write ever failed (the
    /// abandoned, incomplete store is left behind either way).
    pub fn take_failure(mut self) -> Option<DataIoError> {
        drop(self.tx.take());
        let worker = self.worker.take()?;
        match worker.join() {
            Ok(Ok(_)) => None,
            Ok(Err(e)) => Some(e),
            Err(_) => Some(DataIoError::Io("hop-writer thread panicked".into())),
        }
    }

    /// Closes the queue, joins the writer thread, and finishes the store.
    ///
    /// # Errors
    ///
    /// Surfaces the latched first write error if any write failed, a
    /// completeness error if hops are missing, or open-time validation
    /// failures — the same contract as [`FeatureStoreWriter::finish`].
    pub fn finish(mut self) -> Result<FeatureStore, DataIoError> {
        drop(self.tx.take()); // close the channel; the worker drains & exits
        let worker = self.worker.take().expect("finish called once");
        let writer = worker
            .join()
            .map_err(|_| DataIoError::Io("hop-writer thread panicked".into()))??;
        writer.finish()
    }
}

/// One hop write with up to [`DEFAULT_WRITE_RETRIES`] retries with
/// backoff. Only
/// [`DataIoError::Io`] — the transient class (full disk coming back,
/// NFS hiccups, injected write faults) — is retried; shape and range
/// errors are deterministic caller bugs and latch immediately. The
/// write itself is an atomic commit, so a retry after a mid-write
/// failure starts from a clean slate.
fn write_hop_with_retry(
    writer: &mut FeatureStoreWriter,
    k: usize,
    features: &Matrix,
    stats: &StatsCells,
) -> Result<(), DataIoError> {
    let mut attempt = 0usize;
    loop {
        match writer.write_hop(k, features) {
            Ok(()) => return Ok(()),
            Err(DataIoError::Io(_)) if attempt < DEFAULT_WRITE_RETRIES => {
                attempt += 1;
                stats.retries.fetch_add(1, Ordering::Relaxed);
                WRITER_RETRIES.add(1);
                std::thread::sleep(Duration::from_millis(
                    RETRY_BACKOFF_BASE_MS << (attempt - 1).min(6),
                ));
            }
            Err(e) => return Err(e),
        }
    }
}

impl Drop for AsyncHopWriter {
    fn drop(&mut self) {
        // Abandoned without finish() (e.g. diffusion errored): close the
        // queue and join so no detached thread outlives the store handle.
        drop(self.tx.take());
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ppgnn-async-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn meta(rows: usize, cols: usize, hops: usize) -> StoreMeta {
        StoreMeta {
            dataset: "async".into(),
            num_hops: hops,
            rows,
            cols,
            chunk_size: 4,
            dtype: ppgnn_tensor::StoreDtype::F32,
        }
    }

    fn hop_matrix(k: usize, rows: usize, cols: usize) -> Arc<Matrix> {
        Arc::new(Matrix::from_fn(rows, cols, move |r, c| {
            (k * 1000 + r * 10 + c) as f32
        }))
    }

    #[test]
    fn async_store_is_byte_identical_to_sync_store() {
        let sync_dir = temp_dir("sync");
        let async_dir = temp_dir("queued");
        let mut sync_w = FeatureStoreWriter::create(&sync_dir, meta(10, 3, 3)).unwrap();
        let mut async_w = AsyncHopWriter::create(&async_dir, meta(10, 3, 3), 2).unwrap();
        for k in 0..3 {
            let m = hop_matrix(k, 10, 3);
            sync_w.write_hop(k, &m).unwrap();
            async_w.submit(k, m).unwrap();
        }
        sync_w.finish().unwrap();
        let store = async_w.finish().unwrap();
        assert_eq!(store.meta().num_hops, 3);
        for k in 0..3 {
            let a = std::fs::read(sync_dir.join(format!("hop_{k}.ppgt"))).unwrap();
            let b = std::fs::read(async_dir.join(format!("hop_{k}.ppgt"))).unwrap();
            assert_eq!(a, b, "hop {k} bytes differ between sync and async path");
        }
        std::fs::remove_dir_all(&sync_dir).unwrap();
        std::fs::remove_dir_all(&async_dir).unwrap();
    }

    #[test]
    fn bad_shape_error_is_latched_and_surfaced_at_finish() {
        let dir = temp_dir("badshape");
        let mut w = AsyncHopWriter::create(&dir, meta(10, 3, 2), 1).unwrap();
        w.submit(0, Arc::new(Matrix::zeros(5, 3))).unwrap(); // wrong row count
                                                             // The failure latches; eventually submit fails fast (the writer
                                                             // thread needs a moment to observe the bad hop, so poll).
        let mut fast_failed = false;
        for _ in 0..1000 {
            match w.submit(1, hop_matrix(1, 10, 3)) {
                Err(_) => {
                    fast_failed = true;
                    break;
                }
                Ok(()) => std::thread::sleep(std::time::Duration::from_millis(1)),
            }
        }
        assert!(fast_failed, "submit should fail fast after a write error");
        let err = w.finish().unwrap_err();
        assert!(matches!(err, DataIoError::BadManifest(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_hops_fail_finish_like_the_sync_writer() {
        let dir = temp_dir("missing");
        let mut w = AsyncHopWriter::create(&dir, meta(6, 2, 3), 2).unwrap();
        w.submit(0, hop_matrix(0, 6, 2)).unwrap();
        let err = w.finish().unwrap_err();
        assert!(err.to_string().contains("never written"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_without_finish_joins_the_worker() {
        let dir = temp_dir("dropped");
        let mut w = AsyncHopWriter::create(&dir, meta(6, 2, 2), 1).unwrap();
        w.submit(0, hop_matrix(0, 6, 2)).unwrap();
        drop(w); // must join cleanly, not hang or leak the thread
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn slow_writer_records_block_time_and_queue_high_water_mark() {
        let dir = temp_dir("slowwriter");
        // Depth-1 queue with hop matrices large enough (~1 MiB each) that
        // disk writes trail a tight submit loop: some submit must find the
        // queue full, take the blocking path, and accumulate block time.
        let (rows, cols, hops) = (4096, 64, 8);
        let mut w = AsyncHopWriter::create(&dir, meta(rows, cols, hops), 1).unwrap();
        let matrices: Vec<Arc<Matrix>> = (0..hops).map(|k| hop_matrix(k, rows, cols)).collect();
        for (k, m) in matrices.into_iter().enumerate() {
            w.submit(k, m).unwrap();
        }
        let stats = w.stats();
        assert_eq!(stats.submitted, hops as u64);
        assert!(
            stats.queue_hwm >= 1,
            "at least one hop must have been observed in flight"
        );
        assert!(
            stats.submit_block_ns > 0,
            "a depth-1 queue behind {hops} ~1MiB hops must block at least once"
        );
        let store = w.finish().unwrap();
        assert_eq!(store.meta().num_hops, hops);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transient_write_faults_are_retried_and_counted() {
        let dir = temp_dir("retry");
        // A one-shot injected write error on the second hop write: the
        // retry (default budget 2) must absorb it and the store must
        // complete. Scope the plan to this test's directory so parallel
        // tests in this binary can't cross-fire.
        crate::fault::install(
            crate::fault::FaultPlan::one_shot("hop", crate::fault::FaultKind::WriteErr, 2)
                .scoped(&dir.to_string_lossy()),
        );
        let mut w = AsyncHopWriter::create(&dir, meta(8, 3, 3), 2).unwrap();
        for k in 0..3 {
            w.submit(k, hop_matrix(k, 8, 3)).unwrap();
        }
        // The retry happens on the writer thread; wait for it to land
        // before snapshotting (finish() consumes the handle).
        for _ in 0..1000 {
            if w.stats().retries >= 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let stats = w.stats();
        let store = w.finish().unwrap();
        crate::fault::clear();
        assert_eq!(store.meta().num_hops, 3);
        assert_eq!(stats.retries, 1, "{stats:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resumed_async_writer_reports_journaled_hops() {
        let dir = temp_dir("resume");
        let mut w = AsyncHopWriter::create(&dir, meta(8, 3, 3), 2).unwrap();
        w.submit(1, hop_matrix(1, 8, 3)).unwrap();
        drop(w); // "crash" with only hop 1 committed

        let mut w = AsyncHopWriter::create_or_resume(&dir, meta(8, 3, 3), 2).unwrap();
        assert_eq!(w.resumed_hops(), &[false, true, false]);
        for k in [0, 2] {
            w.submit(k, hop_matrix(k, 8, 3)).unwrap();
        }
        let store = w.finish().unwrap();
        assert_eq!(store.meta().num_hops, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unbounded_queue_depth_is_clamped_to_the_hop_count() {
        // `sync_channel(usize::MAX)` overflows its capacity and panics;
        // the depth is clamped to the store's hop count instead.
        let dir = temp_dir("hugequeue");
        let mut w = AsyncHopWriter::create(&dir, meta(6, 2, 3), usize::MAX).unwrap();
        for k in 0..3 {
            w.submit(k, hop_matrix(k, 6, 2)).unwrap();
        }
        let mut store = w.finish().unwrap();
        for k in 0..3 {
            assert_eq!(
                store.read_full_hop(k).unwrap().as_slice(),
                hop_matrix(k, 6, 2).as_slice()
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bounded_queue_applies_backpressure_without_deadlock() {
        let dir = temp_dir("backpressure");
        let mut w = AsyncHopWriter::create(&dir, meta(64, 8, 16), 1).unwrap();
        // Submit far more hops than the queue depth; every submit must
        // complete (blocking at most until the writer drains one slot).
        for k in 0..16 {
            w.submit(k, hop_matrix(k, 64, 8)).unwrap();
        }
        let store = w.finish().unwrap();
        assert_eq!(store.meta().num_hops, 16);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
