//! The one store writer: asynchronous, bounded, partitioned hop
//! persistence.
//!
//! [`StoreWriter`] writes a store of P partition directories (`part_<p>/`,
//! P ≥ 1) under one root. A single writer thread drains one **bounded**
//! queue of `(partition, hop)` units into one [`FeatureStoreWriter`] per
//! partition, so hop `r + 1` diffusion overlaps hop `r` I/O — the write-side
//! twin of the double-buffered loader — while the queue depth (default
//! [`DEFAULT_WRITER_QUEUE`]) bounds how many finished hops can be in flight:
//! backpressure, not unbounded queuing, when storage is slower than
//! compute. Units are written in submission order, so a fault ordinal
//! names the same write on every run. [`StoreWriter::finish`] commits each
//! partition's manifest, then the root `sharded.txt` — the store's commit
//! point — and opens the store once.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ppgnn_tensor::Matrix;

use crate::sharded::{part_dir, write_rows_sidecar, SHARDED_MANIFEST};
use crate::{commit, DataIoError, FeatureStore, FeatureStoreWriter, StoreMeta};

/// Telemetry mirrors of the [`WriterStats`], so traced runs see
/// write-side backpressure in the metrics registry.
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

/// Default bounded-queue depth: two in-flight hops — the write-side
/// software double buffer.
pub const DEFAULT_WRITER_QUEUE: usize = 2;

/// Queue-pressure accounting for one [`StoreWriter`]. A saturated queue
/// (`queue_hwm` at capacity, growing `submit_block_ns`) means storage is
/// the bottleneck and diffusion is stalling on write backpressure; an idle
/// queue means the writer fully hides I/O behind compute.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WriterStats {
    /// Hop units accepted by [`StoreWriter::submit`].
    pub submitted: u64,
    /// High-water mark of in-flight hop units (queued plus the one
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

/// One queued write: hop `k` of partition `p`.
type Unit = (usize, usize, Arc<Matrix>);

/// Writes a store of one or more partitions through one writer thread
/// behind one bounded queue.
///
/// [`StoreWriter::submit`] hands a finished hop unit to the writer
/// thread, blocking only when the queue is full. The first write failure
/// is **latched**: later units are drained and dropped (so the producer
/// never blocks on a dead store), `submit` starts failing fast, and the
/// underlying error is surfaced by [`StoreWriter::finish`] or
/// [`StoreWriter::take_failure`].
#[derive(Debug)]
pub struct StoreWriter {
    dir: PathBuf,
    /// The root `sharded.txt` text, committed last by `finish`.
    manifest: String,
    /// Per-partition snapshot of the journal-resumed hops, so
    /// resume-aware producers can skip recomputing them.
    resumed: Vec<Vec<bool>>,
    tx: Option<SyncSender<Unit>>,
    worker: Option<JoinHandle<Result<Vec<FeatureStoreWriter>, DataIoError>>>,
    failed: Arc<AtomicBool>,
    stats: Arc<StatsCells>,
}

impl StoreWriter {
    /// Creates the partition directories and row sidecars and starts the
    /// writer thread with a bounded queue of `queue_depth` hops — the
    /// `queue_depth × P` units of P partitions, so each partition keeps
    /// `queue_depth` in flight — clamped to `1..=P × num_hops`, the most a
    /// store ever holds. The
    /// root manifest (`sharded.txt`) is only committed at
    /// [`StoreWriter::finish`] — it is the commit point.
    ///
    /// `meta` describes the **logical** store (`meta.rows` = total
    /// training rows); `rows_by_part[p]` lists the global row ids
    /// partition `p` holds, in the local row order its hop matrices will
    /// be written in. The lists must be disjoint and cover `0..meta.rows`
    /// exactly.
    ///
    /// # Errors
    ///
    /// Fails on inconsistent row assignments, a zero chunk size, or
    /// filesystem errors.
    pub fn create(
        dir: impl AsRef<Path>,
        meta: StoreMeta,
        rows_by_part: &[Vec<usize>],
        queue_depth: usize,
    ) -> Result<Self, DataIoError> {
        Self::build(dir.as_ref(), meta, rows_by_part, queue_depth, false)
    }

    /// Like [`StoreWriter::create`], but resumes each partition from its
    /// completed-units journal (see
    /// [`FeatureStoreWriter::create_or_resume`]): `(partition, hop)` units
    /// an interrupted run already committed are reported by
    /// [`StoreWriter::resumed_hops`] and need not be resubmitted.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`StoreWriter::create`].
    pub fn create_or_resume(
        dir: impl AsRef<Path>,
        meta: StoreMeta,
        rows_by_part: &[Vec<usize>],
        queue_depth: usize,
    ) -> Result<Self, DataIoError> {
        Self::build(dir.as_ref(), meta, rows_by_part, queue_depth, true)
    }

    fn build(
        dir: &Path,
        meta: StoreMeta,
        rows_by_part: &[Vec<usize>],
        queue_depth: usize,
        resume: bool,
    ) -> Result<Self, DataIoError> {
        let mut all: Vec<usize> = rows_by_part.iter().flatten().copied().collect();
        all.sort_unstable();
        if all.len() != meta.rows || all.iter().enumerate().any(|(i, &r)| i != r) {
            return Err(DataIoError::BadManifest(format!(
                "partition row lists must cover 0..{} exactly once",
                meta.rows
            )));
        }
        meta.check()?;
        fs::create_dir_all(dir)?;
        let mut writers = Vec::with_capacity(rows_by_part.len());
        for (p, rows) in rows_by_part.iter().enumerate() {
            let sub = part_dir(dir, p);
            let part_meta = StoreMeta {
                rows: rows.len(),
                ..meta.clone()
            };
            writers.push(if resume {
                FeatureStoreWriter::create_or_resume(&sub, part_meta)?
            } else {
                FeatureStoreWriter::create(&sub, part_meta)?
            });
            write_rows_sidecar(&sub, rows)?;
        }
        let resumed = writers.iter().map(|w| w.resumed_hops().to_vec()).collect();
        let partition_rows: Vec<usize> = rows_by_part.iter().map(Vec::len).collect();
        let units = writers.len() * meta.num_hops;
        let depth = queue_depth.saturating_mul(writers.len()).min(units).max(1);
        let (tx, rx) = sync_channel::<Unit>(depth);
        let failed = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(StatsCells::default());
        let (flag, drain_stats) = (Arc::clone(&failed), Arc::clone(&stats));
        let worker = std::thread::Builder::new()
            .name("ppgnn-hop-writer".into())
            .spawn(move || drain(writers, &rx, &flag, &drain_stats))
            .map_err(|e| DataIoError::Io(format!("failed to spawn hop-writer thread: {e}")))?;
        Ok(StoreWriter {
            dir: dir.to_path_buf(),
            manifest: meta.manifest_text(Some(&partition_rows)),
            resumed,
            tx: Some(tx),
            worker: Some(worker),
            failed,
            stats,
        })
    }

    /// Hops of partition `p` already committed by a previous interrupted
    /// run (all `false` unless built via [`StoreWriter::create_or_resume`]).
    /// Submitting one again is harmless — identical bytes are rewritten —
    /// but skipping them is what makes resume cheap.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn resumed_hops(&self, p: usize) -> &[bool] {
        &self.resumed[p]
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

    /// Queues hop `k` of partition `p` for writing, blocking while the
    /// bounded queue is full (write backpressure).
    ///
    /// Takes a shared handle: the writer thread only reads the hop, so a
    /// producer that keeps the finished matrix (a partition owning every
    /// row receives the whole hop) hands over a reference count, not a
    /// copy. The matrix is freed once both sides drop it.
    ///
    /// # Errors
    ///
    /// [`DataIoError::OutOfRange`] for a partition the store does not
    /// have; fails fast once a previous write has failed (or the writer
    /// thread died), the cause being reported by [`StoreWriter::finish`]
    /// / [`StoreWriter::take_failure`].
    pub fn submit(&mut self, p: usize, k: usize, hop: Arc<Matrix>) -> Result<(), DataIoError> {
        if p >= self.resumed.len() {
            return Err(DataIoError::OutOfRange(format!(
                "partition {p} out of range ({} partitions)",
                self.resumed.len()
            )));
        }
        if self.failed.load(Ordering::Acquire) {
            return Err(DataIoError::Io(
                "hop writer already failed; finish() reports the cause".into(),
            ));
        }
        let tx = self
            .tx
            .as_ref()
            .ok_or_else(|| DataIoError::Io("hop writer already finished".into()))?;
        let depth = self.stats.depth.fetch_add(1, Ordering::AcqRel) + 1;
        self.stats.queue_hwm.fetch_max(depth, Ordering::Relaxed);
        let sent = match tx.try_send((p, k, hop)) {
            Err(TrySendError::Full(unit)) => {
                // Queue full: storage is behind compute. Fall back to the
                // blocking send and charge the wait to `submit_block_ns`.
                let t0 = Instant::now();
                let sent = tx.send(unit).is_ok();
                let blocked = t0.elapsed().as_nanos() as u64;
                self.stats
                    .submit_block_ns
                    .fetch_add(blocked, Ordering::Relaxed);
                WRITER_SUBMIT_BLOCK_NS.add(blocked);
                sent
            }
            res => res.is_ok(),
        };
        if !sent {
            self.stats.depth.fetch_sub(1, Ordering::AcqRel);
            return Err(DataIoError::Io("hop-writer thread terminated early".into()));
        }
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        WRITER_QUEUE_HWM.record_max(depth as u64);
        Ok(())
    }

    /// Consumes the writer and returns the latched failure, if any — for
    /// callers abandoning a run mid-way (a failed `submit`) that still
    /// want the underlying cause rather than the fail-fast placeholder.
    /// Returns `None` when no write ever failed (the abandoned, incomplete
    /// store is left behind either way).
    pub fn take_failure(mut self) -> Option<DataIoError> {
        self.join()?.err()
    }

    /// Closes the queue, joins the writer thread, commits every partition
    /// directory, then atomically commits the root `sharded.txt` — the
    /// store's commit point, so an interrupted run never leaves a root
    /// manifest pointing at incomplete partitions — and opens the store.
    ///
    /// # Errors
    ///
    /// Surfaces the latched first write error, a completeness error if
    /// hops are missing, or open-time validation failures.
    pub fn finish(mut self) -> Result<FeatureStore, DataIoError> {
        let writers = self
            .join()
            .unwrap_or_else(|| Err(DataIoError::Io("hop writer already finished".into())))?;
        for writer in writers {
            writer.commit()?;
        }
        commit::write_bytes_atomic(
            "sharded-manifest",
            &self.dir.join(SHARDED_MANIFEST),
            self.manifest.as_bytes(),
        )?;
        FeatureStore::open(&self.dir)
    }

    /// Closes the queue and joins the writer thread: the partition writers,
    /// or the latched failure. `None` once joined.
    fn join(&mut self) -> Option<Result<Vec<FeatureStoreWriter>, DataIoError>> {
        drop(self.tx.take()); // close the queue; the worker drains & exits
        let worker = self.worker.take()?;
        Some(
            worker
                .join()
                .unwrap_or_else(|_| Err(DataIoError::Io("hop-writer thread panicked".into()))),
        )
    }
}

impl Drop for StoreWriter {
    fn drop(&mut self) {
        // Abandoned without finish() (e.g. diffusion errored): close the
        // queue and join so no detached thread outlives the store handle.
        let _ = self.join();
    }
}

/// The writer thread: drains units in submission order into their
/// partition's writer. The first failure latches; later units are
/// drained and dropped so producers never block on a queue nobody is
/// emptying.
fn drain(
    mut writers: Vec<FeatureStoreWriter>,
    rx: &Receiver<Unit>,
    failed: &AtomicBool,
    stats: &StatsCells,
) -> Result<Vec<FeatureStoreWriter>, DataIoError> {
    let mut first_err = None;
    while let Ok((p, k, hop)) = rx.recv() {
        stats.depth.fetch_sub(1, Ordering::AcqRel);
        if first_err.is_some() {
            continue;
        }
        if let Err(e) = write_hop_with_retry(&mut writers[p], k, &hop, stats) {
            failed.store(true, Ordering::Release);
            WRITER_LATCHED_FAILURES.add(1);
            first_err = Some(e);
        }
    }
    first_err.map_or(Ok(writers), Err)
}

/// One hop write with up to [`DEFAULT_WRITE_RETRIES`] retries with
/// backoff. Only [`DataIoError::Io`] — the transient class (full disk
/// coming back, NFS hiccups, injected write faults) — is retried; shape
/// and range errors are deterministic caller bugs and latch immediately.
/// The write itself is an atomic commit, so a retry after a mid-write
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

    /// One partition owning every row.
    fn single(rows: usize) -> Vec<Vec<usize>> {
        vec![(0..rows).collect()]
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
        let mut async_w = StoreWriter::create(&async_dir, meta(10, 3, 3), &single(10), 2).unwrap();
        for k in 0..3 {
            let m = hop_matrix(k, 10, 3);
            sync_w.write_hop(k, &m).unwrap();
            async_w.submit(0, k, m).unwrap();
        }
        sync_w.finish().unwrap();
        let store = async_w.finish().unwrap();
        assert_eq!(store.meta().num_hops, 3);
        for k in 0..3 {
            let a = std::fs::read(sync_dir.join(format!("hop_{k}.ppgt"))).unwrap();
            let b = std::fs::read(async_dir.join(format!("part_0/hop_{k}.ppgt"))).unwrap();
            assert_eq!(a, b, "hop {k} bytes differ between sync and async path");
        }
        std::fs::remove_dir_all(&sync_dir).unwrap();
        std::fs::remove_dir_all(&async_dir).unwrap();
    }

    #[test]
    fn bad_shape_error_is_latched_and_surfaced_at_finish() {
        let dir = temp_dir("badshape");
        let mut w = StoreWriter::create(&dir, meta(10, 3, 2), &single(10), 1).unwrap();
        w.submit(0, 0, Arc::new(Matrix::zeros(5, 3))).unwrap(); // wrong row count

        // The failure latches; eventually submit fails fast (the writer
        // thread needs a moment to observe the bad hop, so poll).
        let mut fast_failed = false;
        for _ in 0..1000 {
            match w.submit(0, 1, hop_matrix(1, 10, 3)) {
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
        let mut w = StoreWriter::create(&dir, meta(6, 2, 3), &single(6), 2).unwrap();
        w.submit(0, 0, hop_matrix(0, 6, 2)).unwrap();
        let err = w.finish().unwrap_err();
        assert!(err.to_string().contains("never written"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_without_finish_joins_the_worker() {
        let dir = temp_dir("dropped");
        let mut w = StoreWriter::create(&dir, meta(6, 2, 2), &single(6), 1).unwrap();
        w.submit(0, 0, hop_matrix(0, 6, 2)).unwrap();
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
        let mut w = StoreWriter::create(&dir, meta(rows, cols, hops), &single(rows), 1).unwrap();
        let matrices: Vec<Arc<Matrix>> = (0..hops).map(|k| hop_matrix(k, rows, cols)).collect();
        for (k, m) in matrices.into_iter().enumerate() {
            w.submit(0, k, m).unwrap();
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
        let mut w = StoreWriter::create(&dir, meta(8, 3, 3), &single(8), 2).unwrap();
        for k in 0..3 {
            w.submit(0, k, hop_matrix(k, 8, 3)).unwrap();
        }
        let stats = stats_after_retries(&w, 1);
        let store = w.finish().unwrap();
        crate::fault::clear();
        assert_eq!(store.meta().num_hops, 3);
        assert_eq!(stats.retries, 1, "{stats:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resumed_async_writer_reports_journaled_hops() {
        let dir = temp_dir("resume");
        let mut w = StoreWriter::create(&dir, meta(8, 3, 3), &single(8), 2).unwrap();
        w.submit(0, 1, hop_matrix(1, 8, 3)).unwrap();
        drop(w); // "crash" with only hop 1 committed

        let mut w = StoreWriter::create_or_resume(&dir, meta(8, 3, 3), &single(8), 2).unwrap();
        assert_eq!(w.resumed_hops(0), &[false, true, false]);
        for k in [0, 2] {
            w.submit(0, k, hop_matrix(k, 8, 3)).unwrap();
        }
        let store = w.finish().unwrap();
        assert_eq!(store.meta().num_hops, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unbounded_queue_depth_is_clamped_to_the_hop_count() {
        // `sync_channel(usize::MAX)` overflows its capacity and panics;
        // the depth is clamped to the store's hop units instead.
        let dir = temp_dir("hugequeue");
        let mut w = StoreWriter::create(&dir, meta(6, 2, 3), &single(6), usize::MAX).unwrap();
        for k in 0..3 {
            w.submit(0, k, hop_matrix(k, 6, 2)).unwrap();
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
        let mut w = StoreWriter::create(&dir, meta(64, 8, 16), &single(64), 1).unwrap();
        // Submit far more hops than the queue depth; every submit must
        // complete (blocking at most until the writer drains one slot).
        for k in 0..16 {
            w.submit(0, k, hop_matrix(k, 64, 8)).unwrap();
        }
        let store = w.finish().unwrap();
        assert_eq!(store.meta().num_hops, 16);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `w`'s stats once `retries` retries have landed (or 10 s passed):
    /// retries happen on the writer thread, after `submit` returns.
    fn stats_after_retries(w: &StoreWriter, retries: u64) -> WriterStats {
        for _ in 0..10_000 {
            if w.stats().retries >= retries {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        w.stats()
    }

    /// FNV-1a over every file under `dir` (sorted relative paths and
    /// contents).
    fn dir_digest(dir: &Path) -> u64 {
        fn walk(dir: &Path, root: &Path, files: &mut Vec<(String, PathBuf)>) {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    walk(&path, root, files);
                } else {
                    let rel = path
                        .strip_prefix(root)
                        .unwrap()
                        .to_string_lossy()
                        .into_owned();
                    files.push((rel, path));
                }
            }
        }
        let mut files = Vec::new();
        walk(dir, dir, &mut files);
        files.sort();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (rel, path) in files {
            for b in rel
                .into_bytes()
                .into_iter()
                .chain(std::fs::read(path).unwrap())
            {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn partitioned_writer_stats_keep_retries() {
        // A two-partition store whose first hop write fails once: the
        // retry absorbs it, the store stats count it, and the bytes are a
        // clean run's.
        let rows_by_part = vec![vec![0, 2, 4, 6], vec![1, 3, 5, 7]];
        let write = |dir: &Path, retries: u64| {
            let mut w = StoreWriter::create(dir, meta(8, 3, 3), &rows_by_part, 2).unwrap();
            for k in 0..3 {
                let hop = hop_matrix(k, 8, 3);
                for (p, rows) in rows_by_part.iter().enumerate() {
                    w.submit(p, k, Arc::new(hop.gather_rows(rows))).unwrap();
                }
            }
            let stats = stats_after_retries(&w, retries);
            w.finish().unwrap();
            stats
        };
        let clean = temp_dir("retry-p2-clean");
        assert_eq!(write(&clean, 0).retries, 0);
        let dir = temp_dir("retry-p2");
        crate::fault::install(
            crate::fault::FaultPlan::one_shot("hop", crate::fault::FaultKind::WriteErr, 1)
                .scoped(&dir.to_string_lossy()),
        );
        let stats = write(&dir, 1);
        crate::fault::clear();
        assert_eq!(stats.retries, 1, "{stats:?}");
        assert_eq!(stats.submitted, 6);
        assert_eq!(dir_digest(&dir), dir_digest(&clean));
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&clean).unwrap();
    }
}
