//! Sharded feature stores: one [`FeatureStore`] per graph partition under
//! a single manifest.
//!
//! Partition-parallel preprocessing writes each partition's training rows
//! through its own [`AsyncHopWriter`] into its own store directory
//! (`part_<i>/`), so hop persistence fans out across files instead of
//! serializing on one writer — and training-time chunk reads fan out the
//! same way on the serving side. The root directory carries a
//! [`ShardedStoreManifest`] (`sharded.txt`) plus one global-row sidecar
//! per partition (`part_<i>/rows.ppgt`, the store's local row → global
//! training row mapping), which is what lets [`ShardedFeatureStore`]
//! resolve a **global** row id to `(partition, local row)` and serve reads
//! that are byte-identical to the single-store layout.
//!
//! Global training-row order is preserved *within* each partition: store
//! `p`'s local row `j` is the `j`-th training row (in global order) owned
//! by partition `p`. A single-partition sharded store is therefore
//! byte-identical, hop file for hop file, to a plain [`FeatureStore`] of
//! the same rows — and a plain store directory opens through
//! [`ShardedFeatureStore::open`] as that one partition, so every store is
//! read through one handle.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ppgnn_tensor::{io as tio, Matrix};

use crate::error::CorruptError;
use crate::store::MANIFEST;
use crate::{
    commit, AccessPath, AsyncHopWriter, DataIoError, FeatureStore, IoCounters, StoreMeta,
    WriterStats,
};

const SHARDED_MANIFEST: &str = "sharded.txt";
const ROWS_SIDECAR: &str = "rows.ppgt";

fn part_dir(dir: &Path, p: usize) -> PathBuf {
    dir.join(format!("part_{p}"))
}

/// Encodes global row ids as a `2 × n` matrix of exact 16-bit halves
/// (row 0 = `id & 0xffff`, row 1 = `id >> 16`). A single-f32 encoding
/// would silently lose integer precision past 2²⁴ rows; the split keeps
/// every half below 2¹⁶ ≪ 2²⁴, so stores scale to 2⁴⁰ rows exactly.
fn encode_rows_sidecar(rows: &[usize]) -> Matrix {
    Matrix::from_fn(2, rows.len(), |r, c| {
        if r == 0 {
            (rows[c] & 0xffff) as f32
        } else {
            (rows[c] >> 16) as f32
        }
    })
}

fn decode_rows_sidecar(m: &Matrix, expected: usize) -> Result<Vec<usize>, CorruptError> {
    if m.shape() != (2, expected) {
        return Err(CorruptError::new(format!(
            "rows sidecar shape {:?} does not match {expected} rows",
            m.shape()
        )));
    }
    Ok((0..expected)
        .map(|c| (m.get(0, c) as usize) | ((m.get(1, c) as usize) << 16))
        .collect())
}

/// Manifest of a sharded store: the logical (concatenated) geometry plus
/// the per-partition row counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedStoreManifest {
    /// Logical store geometry — `rows` is the total across partitions.
    pub meta: StoreMeta,
    /// Rows held by each partition store, in partition order.
    pub partition_rows: Vec<usize>,
}

impl ShardedStoreManifest {
    /// Number of partition stores.
    pub fn num_partitions(&self) -> usize {
        self.partition_rows.len()
    }

    fn to_text(&self) -> String {
        let mut text = format!(
            "dataset={}\nnum_hops={}\nrows={}\ncols={}\nchunk_size={}\nnum_partitions={}\n",
            self.meta.dataset,
            self.meta.num_hops,
            self.meta.rows,
            self.meta.cols,
            self.meta.chunk_size,
            self.partition_rows.len(),
        );
        // Like the per-store manifest, the dtype key is only written for
        // compressed encodings, keeping default manifests byte-identical
        // to pre-dtype stores.
        if !self.meta.dtype.is_f32() {
            text.push_str(&format!("dtype={}\n", self.meta.dtype.name()));
        }
        for (p, rows) in self.partition_rows.iter().enumerate() {
            text.push_str(&format!("partition_{p}_rows={rows}\n"));
        }
        text
    }

    fn from_text(text: &str) -> Result<Self, DataIoError> {
        let mut fields = std::collections::HashMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| DataIoError::BadManifest(format!("bad line: {line}")))?;
            fields.insert(k.to_string(), v.to_string());
        }
        let get = |key: &str| -> Result<String, DataIoError> {
            fields
                .get(key)
                .cloned()
                .ok_or_else(|| DataIoError::BadManifest(format!("missing key {key}")))
        };
        let num = |key: &str| -> Result<usize, DataIoError> {
            get(key)?
                .parse::<usize>()
                .map_err(|_| DataIoError::BadManifest(format!("bad value for {key}")))
        };
        let num_partitions = num("num_partitions")?;
        let partition_rows = (0..num_partitions)
            .map(|p| num(&format!("partition_{p}_rows")))
            .collect::<Result<Vec<usize>, _>>()?;
        let dtype = match fields.get("dtype") {
            None => ppgnn_tensor::StoreDtype::F32,
            Some(v) => ppgnn_tensor::StoreDtype::parse(v)
                .ok_or_else(|| DataIoError::BadManifest(format!("unknown store dtype: {v}")))?,
        };
        let meta = StoreMeta {
            dataset: get("dataset")?,
            num_hops: num("num_hops")?,
            rows: num("rows")?,
            cols: num("cols")?,
            chunk_size: num("chunk_size")?,
            dtype,
        };
        let total = partition_rows
            .iter()
            .try_fold(0usize, |sum, &rows| sum.checked_add(rows));
        if total != Some(meta.rows) {
            return Err(DataIoError::BadManifest(format!(
                "partition rows {:?} do not sum to {} total rows",
                partition_rows, meta.rows
            )));
        }
        Ok(ShardedStoreManifest {
            meta,
            partition_rows,
        })
    }
}

/// Writes a sharded store: one [`AsyncHopWriter`] per partition, all
/// running concurrently on their own writer threads.
#[derive(Debug)]
pub struct ShardedStoreWriter {
    dir: PathBuf,
    manifest: ShardedStoreManifest,
    writers: Vec<AsyncHopWriter>,
}

impl ShardedStoreWriter {
    /// Creates the per-partition store directories and row sidecars, and
    /// one async writer (bounded queue `queue_depth`) per partition. The
    /// root manifest (`sharded.txt`) is only committed at
    /// [`ShardedStoreWriter::finish`] — it is the commit point.
    ///
    /// `meta` describes the **logical** store (`meta.rows` = total training
    /// rows); `global_rows[p]` lists the global row ids partition `p`
    /// holds, in the local row order its hop matrices will be written in.
    /// The lists must be disjoint and cover `0..meta.rows` exactly.
    ///
    /// # Errors
    ///
    /// Fails on inconsistent row assignments or filesystem errors.
    pub fn create(
        dir: impl AsRef<Path>,
        meta: StoreMeta,
        global_rows: &[Vec<usize>],
        queue_depth: usize,
    ) -> Result<Self, DataIoError> {
        Self::build(dir, meta, global_rows, queue_depth, false)
    }

    /// Like [`ShardedStoreWriter::create`], but resumes each partition's
    /// writer from its completed-units journal (see
    /// [`AsyncHopWriter::create_or_resume`]): `(partition, hop)` units a
    /// previous interrupted run already committed are reported by
    /// [`ShardedStoreWriter::resumed_hops`] and need not be resubmitted.
    ///
    /// # Errors
    ///
    /// Fails on inconsistent row assignments or filesystem errors.
    pub fn create_or_resume(
        dir: impl AsRef<Path>,
        meta: StoreMeta,
        global_rows: &[Vec<usize>],
        queue_depth: usize,
    ) -> Result<Self, DataIoError> {
        Self::build(dir, meta, global_rows, queue_depth, true)
    }

    fn build(
        dir: impl AsRef<Path>,
        meta: StoreMeta,
        global_rows: &[Vec<usize>],
        queue_depth: usize,
        resume: bool,
    ) -> Result<Self, DataIoError> {
        let dir = dir.as_ref().to_path_buf();
        let mut all: Vec<usize> = global_rows.iter().flatten().copied().collect();
        all.sort_unstable();
        if all.len() != meta.rows || all.iter().enumerate().any(|(i, &r)| i != r) {
            return Err(DataIoError::BadManifest(format!(
                "partition row lists must cover 0..{} exactly once",
                meta.rows
            )));
        }
        if meta.chunk_size == 0 {
            return Err(DataIoError::BadManifest(
                "chunk_size must be positive".into(),
            ));
        }
        fs::create_dir_all(&dir)?;
        let manifest = ShardedStoreManifest {
            partition_rows: global_rows.iter().map(|g| g.len()).collect(),
            meta,
        };
        let mut writers = Vec::with_capacity(global_rows.len());
        for (p, rows) in global_rows.iter().enumerate() {
            let sub = part_dir(&dir, p);
            let part_meta = StoreMeta {
                dataset: manifest.meta.dataset.clone(),
                num_hops: manifest.meta.num_hops,
                rows: rows.len(),
                cols: manifest.meta.cols,
                chunk_size: manifest.meta.chunk_size,
                dtype: manifest.meta.dtype,
            };
            let writer = if resume {
                AsyncHopWriter::create_or_resume(&sub, part_meta, queue_depth)?
            } else {
                AsyncHopWriter::create(&sub, part_meta, queue_depth)?
            };
            let sidecar = encode_rows_sidecar(rows);
            let mut buf = Vec::new();
            tio::write_matrix(&mut buf, &sidecar).map_err(|e| DataIoError::Io(e.to_string()))?;
            commit::write_bytes_atomic("sidecar", &sub.join(ROWS_SIDECAR), &buf)?;
            writers.push(writer);
        }
        Ok(ShardedStoreWriter {
            dir,
            manifest,
            writers,
        })
    }

    /// Hops of partition `p` already committed by a previous interrupted
    /// run (all-`false` unless built via
    /// [`ShardedStoreWriter::create_or_resume`]). Resumed hops need not
    /// be resubmitted; their bytes are already on disk and verified.
    pub fn resumed_hops(&self, p: usize) -> &[bool] {
        self.writers[p].resumed_hops()
    }

    /// Queues hop `k` of partition `p` for writing (blocking only while
    /// that partition's bounded queue is full). The writer shares the
    /// matrix, so a partition that owns every row can be handed the
    /// whole hop without a copy.
    ///
    /// # Errors
    ///
    /// Fails fast once the partition's writer has latched a failure; the
    /// cause surfaces at [`ShardedStoreWriter::finish`] /
    /// [`ShardedStoreWriter::take_failure`].
    pub fn submit(&mut self, p: usize, k: usize, features: Arc<Matrix>) -> Result<(), DataIoError> {
        let writer = self.writers.get_mut(p).ok_or_else(|| {
            DataIoError::OutOfRange(format!(
                "partition {p} out of range ({} partitions)",
                self.manifest.num_partitions()
            ))
        })?;
        writer.submit(k, features)
    }

    /// Queue-pressure stats aggregated across the per-partition writer
    /// threads: submissions and block time summed, high-water mark taken
    /// as the max over partitions.
    pub fn writer_stats(&self) -> WriterStats {
        let mut total = WriterStats::default();
        for w in &self.writers {
            let s = w.stats();
            total.submitted += s.submitted;
            total.submit_block_ns += s.submit_block_ns;
            total.queue_hwm = total.queue_hwm.max(s.queue_hwm);
        }
        total
    }

    /// Consumes the writer and returns the first latched write failure
    /// across partitions, if any — the abort-path counterpart of
    /// [`ShardedStoreWriter::finish`], mirroring
    /// [`AsyncHopWriter::take_failure`].
    pub fn take_failure(self) -> Option<DataIoError> {
        self.writers.into_iter().find_map(|w| w.take_failure())
    }

    /// Finishes every partition writer, then atomically commits the root
    /// manifest (`sharded.txt`) — the sharded store's commit point, so an
    /// interrupted run never leaves a root manifest pointing at
    /// incomplete partition stores — and opens the sharded store.
    ///
    /// # Errors
    ///
    /// Surfaces the first partition's latched write error, completeness
    /// failure, or open-time validation failure.
    pub fn finish(self) -> Result<ShardedFeatureStore, DataIoError> {
        for writer in self.writers {
            writer.finish()?;
        }
        commit::write_bytes_atomic(
            "sharded-manifest",
            &self.dir.join(SHARDED_MANIFEST),
            self.manifest.to_text().as_bytes(),
        )?;
        ShardedFeatureStore::open(&self.dir)
    }
}

/// Read handle over a sharded store directory: the manifest, one
/// [`FeatureStore`] per partition, and the global-row mapping.
#[derive(Debug)]
pub struct ShardedFeatureStore {
    manifest: ShardedStoreManifest,
    stores: Vec<FeatureStore>,
    /// `global_rows[p][j]` = global row id of partition `p`'s local row `j`.
    global_rows: Vec<Vec<usize>>,
    /// Global row id → `(partition, local row)`.
    map: Vec<(u32, u32)>,
}

impl ShardedFeatureStore {
    /// Opens a sharded store, validating the manifest, every partition
    /// store, and the global-row mapping (disjoint cover of the logical
    /// row space).
    ///
    /// A directory without `sharded.txt` that holds a plain store
    /// (`manifest.txt`, as [`crate::FeatureStoreWriter`] writes it) opens
    /// as one partition with the identity row map, so single-store
    /// directories read through the same handle.
    ///
    /// # Errors
    ///
    /// Fails on missing/corrupt manifests, sidecars, or partition stores,
    /// and on any geometry disagreement between them.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, DataIoError> {
        let dir = dir.as_ref();
        let text = match fs::read_to_string(dir.join(SHARDED_MANIFEST)) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound && dir.join(MANIFEST).exists() => {
                return Self::open_plain(dir);
            }
            Err(e) => return Err(DataIoError::Io(format!("{}: {e}", dir.display()))),
        };
        let manifest = ShardedStoreManifest::from_text(&text)?;
        let mut stores = Vec::with_capacity(manifest.num_partitions());
        let mut global_rows = Vec::with_capacity(manifest.num_partitions());
        for p in 0..manifest.num_partitions() {
            let sub = part_dir(dir, p);
            let store = FeatureStore::open(&sub)?;
            let sm = store.meta();
            if sm.rows != manifest.partition_rows[p]
                || sm.cols != manifest.meta.cols
                || sm.num_hops != manifest.meta.num_hops
                || sm.chunk_size != manifest.meta.chunk_size
            {
                return Err(CorruptError::new(format!(
                    "partition {p} store geometry disagrees with the sharded manifest"
                ))
                .with_path(&sub)
                .into());
            }
            let sidecar_path = sub.join(ROWS_SIDECAR);
            let mut f = fs::File::open(&sidecar_path)
                .map_err(|e| DataIoError::Io(format!("partition {p} rows sidecar: {e}")))?;
            let sidecar = tio::read_matrix(&mut f)
                .map_err(|e| CorruptError::new(e.to_string()).with_path(&sidecar_path))?;
            let rows =
                decode_rows_sidecar(&sidecar, sm.rows).map_err(|e| e.with_path(&sidecar_path))?;
            stores.push(store);
            global_rows.push(rows);
        }
        // Every partition store has opened and agrees with the manifest,
        // whose partition rows sum to `rows`: the row map is sized by rows
        // that exist on disk.
        let mut map = vec![(u32::MAX, 0u32); manifest.meta.rows];
        for (p, rows) in global_rows.iter().enumerate() {
            let sidecar_path = || part_dir(dir, p).join(ROWS_SIDECAR);
            for (j, &g) in rows.iter().enumerate() {
                let slot = map.get_mut(g).ok_or_else(|| {
                    CorruptError::new(format!("global row {g} out of range"))
                        .with_path(&sidecar_path())
                })?;
                if slot.0 != u32::MAX {
                    return Err(CorruptError::new(format!(
                        "global row {g} claimed by two partitions"
                    ))
                    .with_path(&sidecar_path())
                    .into());
                }
                *slot = (p as u32, j as u32);
            }
        }
        if map.iter().any(|&(p, _)| p == u32::MAX) {
            return Err(DataIoError::corrupt(
                "partition row sidecars do not cover the logical row space",
            ));
        }
        Ok(ShardedFeatureStore {
            manifest,
            stores,
            global_rows,
            map,
        })
    }

    /// A plain store directory as one partition with the identity row map.
    fn open_plain(dir: &Path) -> Result<Self, DataIoError> {
        let store = FeatureStore::open(dir)?;
        let meta = store.meta().clone();
        let rows = meta.rows;
        Ok(ShardedFeatureStore {
            manifest: ShardedStoreManifest {
                meta,
                partition_rows: vec![rows],
            },
            stores: vec![store],
            global_rows: vec![(0..rows).collect()],
            map: (0..rows).map(|j| (0, j as u32)).collect(),
        })
    }

    /// The sharded manifest.
    pub fn manifest(&self) -> &ShardedStoreManifest {
        &self.manifest
    }

    /// Logical (concatenated) store metadata; `rows` is the total.
    pub fn meta(&self) -> &StoreMeta {
        &self.manifest.meta
    }

    /// Number of partition stores.
    pub fn num_partitions(&self) -> usize {
        self.stores.len()
    }

    /// Metadata of partition `p`'s store.
    pub fn partition_meta(&self, p: usize) -> &StoreMeta {
        self.stores[p].meta()
    }

    /// Resolves a global row to its `(partition, local row)` coordinates.
    ///
    /// # Errors
    ///
    /// Fails if `row` is outside the logical row space.
    pub fn locate(&self, row: usize) -> Result<(usize, usize), DataIoError> {
        let &(p, j) = self.map.get(row).ok_or_else(|| {
            DataIoError::OutOfRange(format!(
                "row {row} out of range ({} rows)",
                self.manifest.meta.rows
            ))
        })?;
        Ok((p as usize, j as usize))
    }

    /// Chunks in partition `p`'s store.
    pub fn num_chunks(&self, p: usize) -> usize {
        self.stores[p].meta().num_chunks()
    }

    /// Randomly reads individual **global** `rows` of hop `k`, fanning the
    /// per-row requests out to the owning partition stores. Output row `i`
    /// corresponds to `rows[i]`, exactly like
    /// [`FeatureStore::read_rows`] on the unsharded layout.
    ///
    /// # Errors
    ///
    /// Fails if `k` or any row is out of range, or on I/O errors.
    pub fn read_rows(
        &mut self,
        k: usize,
        rows: &[usize],
        path: AccessPath,
    ) -> Result<Matrix, DataIoError> {
        let cols = self.manifest.meta.cols;
        let mut out = Matrix::zeros(rows.len(), cols);
        for (i, &r) in rows.iter().enumerate() {
            let (p, j) = self.locate(r)?;
            let row = self.stores[p].read_rows(k, &[j], path)?;
            out.row_mut(i).copy_from_slice(row.row(0));
        }
        Ok(out)
    }

    /// Sequentially reads chunk `chunk_id` of **partition `p`** across all
    /// hops — the unit of work a sharded chunk loader schedules. Use
    /// [`ShardedFeatureStore::chunk_global_rows`] for the global row ids
    /// the returned matrices cover.
    ///
    /// # Errors
    ///
    /// Fails if `p`, `k`, or `chunk_id` is out of range, or on I/O errors.
    pub fn read_chunk_all_hops(
        &mut self,
        p: usize,
        chunk_id: usize,
        path: AccessPath,
    ) -> Result<Vec<Matrix>, DataIoError> {
        let store = self
            .stores
            .get_mut(p)
            .ok_or_else(|| DataIoError::OutOfRange(format!("partition {p} out of range")))?;
        store.read_chunk_all_hops(chunk_id, path)
    }

    /// Global row ids of chunk `chunk_id` of partition `p`, in the order
    /// the chunk's matrix rows are stored.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `chunk_id` is out of range.
    pub fn chunk_global_rows(&self, p: usize, chunk_id: usize) -> &[usize] {
        let cs = self.manifest.meta.chunk_size;
        let rows = &self.global_rows[p];
        let start = chunk_id * cs;
        &rows[start..(start + cs).min(rows.len())]
    }

    /// Reads an entire **logical** hop matrix: every partition's hop is
    /// read sequentially and scattered to its global row positions —
    /// value-identical to [`FeatureStore::read_full_hop`] on the unsharded
    /// layout.
    ///
    /// # Errors
    ///
    /// Fails if `k` is out of range or any partition read fails.
    pub fn read_full_hop(&mut self, k: usize) -> Result<Matrix, DataIoError> {
        let cols = self.manifest.meta.cols;
        let mut out = Matrix::zeros(self.manifest.meta.rows, cols);
        for p in 0..self.stores.len() {
            let m = self.stores[p].read_full_hop(k)?;
            for (j, &g) in self.global_rows[p].iter().enumerate() {
                out.row_mut(g).copy_from_slice(m.row(j));
            }
        }
        Ok(out)
    }

    /// I/O counters aggregated across every partition store.
    pub fn counters(&self) -> IoCounters {
        let mut total = IoCounters::default();
        for store in &self.stores {
            total.accumulate(&store.counters());
        }
        total
    }

    /// Resets every partition store's counters.
    pub fn reset_counters(&mut self) {
        for store in &mut self.stores {
            store.reset_counters();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ppgnn-sharded-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn meta(rows: usize) -> StoreMeta {
        StoreMeta {
            dataset: "sharded-test".into(),
            num_hops: 2,
            rows,
            cols: 3,
            chunk_size: 4,
            dtype: ppgnn_tensor::StoreDtype::F32,
        }
    }

    /// Rows 0..n dealt round-robin to `p` partitions (order preserved).
    fn round_robin(n: usize, p: usize) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); p];
        for r in 0..n {
            out[r % p].push(r);
        }
        out
    }

    fn global_hop(k: usize, rows: usize) -> Matrix {
        Matrix::from_fn(rows, 3, move |r, c| (k * 10_000 + r * 10 + c) as f32)
    }

    fn build(dir: &Path, rows: usize, parts: usize) -> ShardedFeatureStore {
        let assignment = round_robin(rows, parts);
        let mut w = ShardedStoreWriter::create(dir, meta(rows), &assignment, 2).unwrap();
        for k in 0..2 {
            let hop = global_hop(k, rows);
            for (p, globals) in assignment.iter().enumerate() {
                w.submit(p, k, Arc::new(hop.gather_rows(globals))).unwrap();
            }
        }
        w.finish().unwrap()
    }

    #[test]
    fn read_rows_matches_the_global_layout() {
        let dir = temp_dir("rows");
        let mut store = build(&dir, 10, 3);
        assert_eq!(store.num_partitions(), 3);
        let got = store.read_rows(1, &[7, 0, 9], AccessPath::Direct).unwrap();
        let want = global_hop(1, 10).gather_rows(&[7, 0, 9]);
        assert_eq!(got, want);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn full_hop_reassembles_global_rows() {
        let dir = temp_dir("fullhop");
        let mut store = build(&dir, 11, 2);
        for k in 0..2 {
            assert_eq!(store.read_full_hop(k).unwrap(), global_hop(k, 11));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chunks_map_back_to_global_rows() {
        let dir = temp_dir("chunks");
        let mut store = build(&dir, 10, 3);
        let mut seen = Vec::new();
        for p in 0..store.num_partitions() {
            for c in 0..store.num_chunks(p) {
                let globals = store.chunk_global_rows(p, c).to_vec();
                let hops = store.read_chunk_all_hops(p, c, AccessPath::Direct).unwrap();
                assert_eq!(hops[0].rows(), globals.len());
                for (j, &g) in globals.iter().enumerate() {
                    assert_eq!(hops[1].row(j), global_hop(1, 10).row(g));
                }
                seen.extend(globals);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn counters_aggregate_across_partition_stores() {
        let dir = temp_dir("counters");
        let mut store = build(&dir, 10, 2);
        store
            .read_rows(0, &[0, 1, 2, 3], AccessPath::Direct)
            .unwrap();
        let c = store.counters();
        assert_eq!(c.rand_requests, 4);
        assert_eq!(c.rand_bytes, 4 * 3 * 4);
        store.reset_counters();
        store
            .read_chunk_all_hops(0, 0, AccessPath::HostBounce)
            .unwrap();
        let c = store.counters();
        assert_eq!(c.seq_requests, 2); // one per hop file
        assert_eq!(c.bounce_bytes, c.seq_bytes);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn single_partition_store_is_byte_identical_to_unsharded() {
        let dir = temp_dir("p1");
        let plain_dir = temp_dir("p1-plain");
        build(&dir, 9, 1);
        let mut w = crate::FeatureStoreWriter::create(&plain_dir, meta(9)).unwrap();
        for k in 0..2 {
            w.write_hop(k, &global_hop(k, 9)).unwrap();
        }
        w.finish().unwrap();
        for k in 0..2 {
            let a = fs::read(dir.join("part_0").join(format!("hop_{k}.ppgt"))).unwrap();
            let b = fs::read(plain_dir.join(format!("hop_{k}.ppgt"))).unwrap();
            assert_eq!(a, b, "hop {k} bytes differ from the unsharded layout");
        }
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&plain_dir).unwrap();
    }

    #[test]
    fn create_rejects_bad_row_covers() {
        let dir = temp_dir("badcover");
        // Missing row 3.
        let err = ShardedStoreWriter::create(&dir, meta(4), &[vec![0, 1], vec![2]], 1);
        assert!(matches!(err, Err(DataIoError::BadManifest(_))));
        // Duplicate row.
        let err = ShardedStoreWriter::create(&dir, meta(3), &[vec![0, 1], vec![1, 2]], 1);
        assert!(matches!(err, Err(DataIoError::BadManifest(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_rejects_tampered_sidecars() {
        let dir = temp_dir("tamper");
        build(&dir, 8, 2);
        // Rewrite partition 1's sidecar to claim rows partition 0 owns.
        let sidecar = encode_rows_sidecar(&[0, 2, 4, 6]);
        let f = fs::File::create(dir.join("part_1").join(ROWS_SIDECAR)).unwrap();
        let mut w = std::io::BufWriter::new(f);
        tio::write_matrix(&mut w, &sidecar).unwrap();
        drop(w);
        assert!(matches!(
            ShardedFeatureStore::open(&dir),
            Err(DataIoError::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rows_sidecar_encoding_is_exact_past_the_f32_integer_range() {
        // Ids above 2²⁴ are not exactly representable as one f32; the
        // split-halves encoding must round-trip them anyway.
        let big = vec![0usize, 1, (1 << 24) + 1, (1 << 25) + 3, (1 << 30) + 12_345];
        let decoded = decode_rows_sidecar(&encode_rows_sidecar(&big), big.len()).unwrap();
        assert_eq!(decoded, big);
        // Shape mismatches are corruption.
        assert!(decode_rows_sidecar(&encode_rows_sidecar(&big), 4).is_err());
    }

    #[test]
    fn manifest_round_trips() {
        let m = ShardedStoreManifest {
            meta: meta(10),
            partition_rows: vec![4, 3, 3],
        };
        let parsed = ShardedStoreManifest::from_text(&m.to_text()).unwrap();
        assert_eq!(parsed, m);
        assert!(ShardedStoreManifest::from_text("dataset=x\n").is_err());
    }

    #[test]
    fn hostile_manifests_fail_open_instead_of_panicking() {
        let geometry = "dataset=x\nnum_hops=2\ncols=3\n";
        let plain = format!("{geometry}rows=4\n");
        let sharded = format!("{geometry}chunk_size=4\nnum_partitions=2\n");
        let (max, half) = (usize::MAX, 1usize << 59);
        let rows = |a: usize, b: usize| format!("partition_0_rows={a}\npartition_1_rows={b}\n");
        // (case, rewrites a plain store's manifest (else `sharded.txt`),
        // hostile text)
        let cases = [
            ("zero-chunk", true, format!("{plain}chunk_size=0\n")),
            (
                "hop-count",
                true,
                format!("{plain}chunk_size=4\nnum_hops={max}\n"),
            ),
            (
                "rows-overflow",
                false,
                format!("{sharded}rows=3\n{}", rows(max, 4)),
            ),
            (
                "rows-unbacked",
                false,
                format!("{sharded}rows={}\n{}", 2 * half, rows(half, half)),
            ),
        ];
        for (case, is_plain, text) in cases {
            let dir = temp_dir(&format!("hostile-{case}"));
            build(&dir, 8, 2);
            // A partition directory is a plain store.
            let (root, file) = if is_plain {
                (dir.join("part_0"), MANIFEST)
            } else {
                (dir.clone(), SHARDED_MANIFEST)
            };
            ShardedFeatureStore::open(&root).unwrap();
            fs::write(root.join(file), text).unwrap();
            assert!(ShardedFeatureStore::open(&root).is_err(), "{case}: opened");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn empty_partitions_are_tolerated() {
        // 3 rows over 3 partitions where one partition owns nothing.
        let dir = temp_dir("empty");
        let assignment = vec![vec![0, 2], vec![], vec![1]];
        let mut w = ShardedStoreWriter::create(&dir, meta(3), &assignment, 1).unwrap();
        for k in 0..2 {
            let hop = global_hop(k, 3);
            for (p, globals) in assignment.iter().enumerate() {
                w.submit(p, k, Arc::new(hop.gather_rows(globals))).unwrap();
            }
        }
        let mut store = w.finish().unwrap();
        assert_eq!(store.num_chunks(1), 0);
        assert_eq!(store.read_full_hop(0).unwrap(), global_hop(0, 3));
        fs::remove_dir_all(&dir).unwrap();
    }
}
