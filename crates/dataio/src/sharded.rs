//! The one public store reader, [`FeatureStore`]: global-row reads over
//! one or more partition stores.
//!
//! Partition-parallel preprocessing writes each partition's training rows
//! into its own store directory (`part_<p>/`, through the one
//! [`crate::StoreWriter`]), so training-time chunk reads fan out over
//! files instead of serializing on one. The root carries `sharded.txt` —
//! the plain manifest keys of the logical store plus `num_partitions` and
//! `partition_<p>_rows` — and each partition a global-row sidecar
//! (`part_<p>/rows.ppgt`, local row → global training row), which is what
//! lets [`FeatureStore`] resolve a **global** row to `(partition, local
//! row)`.
//!
//! Global training-row order is preserved *within* each partition: store
//! `p`'s local row `j` is the `j`-th training row (in global order) owned
//! by partition `p`. A single-partition store is therefore byte-identical,
//! hop file for hop file, to a plain store directory of the same rows —
//! and a plain directory (`manifest.txt`, as [`crate::FeatureStoreWriter`]
//! leaves it) opens as that one partition with the identity row map, so
//! every store is read through one handle.

use std::path::{Path, PathBuf};

use ppgnn_tensor::Matrix;

use crate::commit;
use crate::error::CorruptError;
use crate::store::{PartStore, MANIFEST};
use crate::{AccessPath, DataIoError, IoCounters, Manifest, StoreMeta};

pub(crate) const SHARDED_MANIFEST: &str = "sharded.txt";
const ROWS_SIDECAR: &str = "rows.ppgt";

pub(crate) fn part_dir(dir: &Path, p: usize) -> PathBuf {
    dir.join(format!("part_{p}"))
}

/// Writes partition directory `sub`'s global-row sidecar.
pub(crate) fn write_rows_sidecar(sub: &Path, rows: &[usize]) -> Result<(), DataIoError> {
    commit::write_sidecar(&sub.join(ROWS_SIDECAR), &encode_rows_sidecar(rows))
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

/// The per-partition row counts of a `sharded.txt` manifest, which must
/// sum to the logical `meta.rows`.
fn partition_rows(m: &Manifest, meta: &StoreMeta) -> Result<Vec<usize>, DataIoError> {
    let num_partitions: usize = m.require("num_partitions")?;
    let rows = (0..num_partitions)
        .map(|p| m.require(&format!("partition_{p}_rows")))
        .collect::<Result<Vec<usize>, _>>()?;
    let total = rows.iter().try_fold(0usize, |sum, &r| sum.checked_add(r));
    if total != Some(meta.rows) {
        return Err(DataIoError::BadManifest(format!(
            "partition rows {rows:?} do not sum to {} total rows",
            meta.rows
        )));
    }
    Ok(rows)
}

/// Read handle over any store directory: the logical metadata, one
/// partition store per partition, the global-row mapping, and the I/O
/// counters of every read.
///
/// Hop file handles are opened once and cached, and every read decodes
/// through one reusable byte-staging buffer per partition — steady-state
/// reads via the `_into` entry points perform no allocation for any dtype.
#[derive(Debug)]
pub struct FeatureStore {
    meta: StoreMeta,
    parts: Vec<PartStore>,
    /// `global_rows[p][j]` = global row id of partition `p`'s local row `j`.
    global_rows: Vec<Vec<usize>>,
    /// Global row id → `(partition, local row)`.
    map: Vec<(u32, u32)>,
    counters: IoCounters,
}

/// The reader's former name, kept only because the frozen
/// `benchmark/src/adapter.rs` still names it; new code names
/// [`FeatureStore`].
pub type ShardedFeatureStore = FeatureStore;

impl FeatureStore {
    /// Opens a store, validating every manifest, partition store and the
    /// global-row mapping (a disjoint cover of the logical row space).
    ///
    /// A root with `sharded.txt` opens as its partitions; a directory
    /// without one that holds a plain store (`manifest.txt`) opens as one
    /// partition with the identity row map.
    ///
    /// # Errors
    ///
    /// Fails on missing/corrupt manifests, sidecars, or partition stores,
    /// and on any geometry disagreement between them — always with path
    /// + hop context on corruption.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, DataIoError> {
        let dir = dir.as_ref();
        if !dir.join(SHARDED_MANIFEST).exists() && dir.join(MANIFEST).exists() {
            let part = PartStore::open(dir.to_path_buf())?;
            let rows = (0..part.meta.rows).collect();
            return Self::assemble(dir, part.meta.clone(), vec![part], vec![rows]);
        }
        let manifest = Manifest::read(&dir.join(SHARDED_MANIFEST))?;
        let meta = StoreMeta::from_manifest(&manifest)?;
        let partition_rows = partition_rows(&manifest, &meta)?;
        let mut parts = Vec::new();
        let mut global_rows = Vec::new();
        for (p, &rows) in partition_rows.iter().enumerate() {
            let sub = part_dir(dir, p);
            let part = PartStore::open(sub.clone())?;
            let pm = &part.meta;
            if pm.rows != rows
                || pm.cols != meta.cols
                || pm.num_hops != meta.num_hops
                || pm.chunk_size != meta.chunk_size
            {
                return Err(CorruptError::new(format!(
                    "partition {p} store geometry disagrees with the sharded manifest"
                ))
                .with_path(&sub)
                .into());
            }
            let sidecar = sub.join(ROWS_SIDECAR);
            global_rows.push(
                decode_rows_sidecar(&commit::read_sidecar(&sidecar)?, rows)
                    .map_err(|e| e.with_path(&sidecar))?,
            );
            parts.push(part);
        }
        Self::assemble(dir, meta, parts, global_rows)
    }

    /// Builds the global row map. Every partition store has opened and
    /// agrees with `meta`, whose partition rows sum to `meta.rows`: the
    /// map is sized by rows that exist on disk.
    fn assemble(
        dir: &Path,
        meta: StoreMeta,
        parts: Vec<PartStore>,
        global_rows: Vec<Vec<usize>>,
    ) -> Result<Self, DataIoError> {
        let mut map = vec![(u32::MAX, 0u32); meta.rows];
        for (p, rows) in global_rows.iter().enumerate() {
            let sidecar = || part_dir(dir, p).join(ROWS_SIDECAR);
            for (j, &g) in rows.iter().enumerate() {
                let slot = map.get_mut(g).ok_or_else(|| {
                    CorruptError::new(format!("global row {g} out of range")).with_path(&sidecar())
                })?;
                if slot.0 != u32::MAX {
                    return Err(CorruptError::new(format!(
                        "global row {g} claimed by two partitions"
                    ))
                    .with_path(&sidecar())
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
        Ok(FeatureStore {
            meta,
            parts,
            global_rows,
            map,
            counters: IoCounters::default(),
        })
    }

    /// Logical store metadata; `rows` is the total across partitions.
    pub fn meta(&self) -> &StoreMeta {
        &self.meta
    }

    /// Number of partition stores (1 for a plain directory).
    pub fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    /// Metadata of partition `p`'s store.
    pub fn partition_meta(&self, p: usize) -> &StoreMeta {
        &self.parts[p].meta
    }

    /// Chunks in partition `p`'s store.
    pub fn num_chunks(&self, p: usize) -> usize {
        self.parts[p].meta.num_chunks()
    }

    /// I/O counters of every read through this handle.
    pub fn counters(&self) -> IoCounters {
        self.counters
    }

    /// Resolves a global row to its `(partition, local row)` coordinates.
    ///
    /// # Errors
    ///
    /// Fails if `row` is outside the logical row space.
    pub fn locate(&self, row: usize) -> Result<(usize, usize), DataIoError> {
        let &(p, j) = self.map.get(row).ok_or_else(|| {
            DataIoError::OutOfRange(format!("row {row} out of range ({} rows)", self.meta.rows))
        })?;
        Ok((p as usize, j as usize))
    }

    /// Global row ids of chunk `chunk_id` of partition `p`, in the order
    /// the chunk's matrix rows are stored.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `chunk_id` is out of range.
    pub fn chunk_global_rows(&self, p: usize, chunk_id: usize) -> &[usize] {
        let cs = self.meta.chunk_size;
        let rows = &self.global_rows[p];
        let start = chunk_id * cs;
        &rows[start..(start + cs).min(rows.len())]
    }

    /// Randomly reads individual **global** `rows` of hop `k` — the SGD-RR
    /// storage access pattern, one request per row to its owning
    /// partition. Output row `i` is `rows[i]`.
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
        let mut out = Matrix::default();
        self.read_rows_into(k, rows, path, &mut out)?;
        Ok(out)
    }

    /// [`FeatureStore::read_rows`] into a caller-owned matrix, resized in
    /// place — the allocation-free form batch loops reuse a slot through.
    ///
    /// # Errors
    ///
    /// Fails if `k` or any row is out of range, or on I/O errors. Rows
    /// preceding the failing one are read (and counted) before the error
    /// surfaces.
    pub fn read_rows_into(
        &mut self,
        k: usize,
        rows: &[usize],
        path: AccessPath,
        out: &mut Matrix,
    ) -> Result<(), DataIoError> {
        self.check_hop(k)?;
        out.resize_to(rows.len(), self.meta.cols);
        let (mut read, mut physical) = (0u64, 0u64);
        let mut result = Ok(());
        for (i, &r) in rows.iter().enumerate() {
            let fetched = self
                .locate(r)
                .and_then(|(p, j)| self.parts[p].fetch_decode_rows(k, j, out.row_mut(i)));
            match fetched {
                Ok(bytes) => (read, physical) = (read + 1, physical + bytes),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        let logical = read * (self.meta.cols * 4) as u64;
        self.counters.record(false, read, physical, logical, path);
        result
    }

    /// Sequentially reads chunk `chunk_id` of **partition `p`** across all
    /// hops — one request per hop file, the unit of work the storage
    /// chunk loader schedules. [`FeatureStore::chunk_global_rows`] gives
    /// the global rows the matrices cover.
    ///
    /// # Errors
    ///
    /// Fails if `p` or `chunk_id` is out of range (before any counter is
    /// touched), or on I/O errors.
    pub fn read_chunk_all_hops(
        &mut self,
        p: usize,
        chunk_id: usize,
        path: AccessPath,
    ) -> Result<Vec<Matrix>, DataIoError> {
        let mut out = Vec::new();
        self.read_chunk_all_hops_into(p, chunk_id, path, &mut out)?;
        Ok(out)
    }

    /// [`FeatureStore::read_chunk_all_hops`] into a caller-owned vector of
    /// per-hop slots, each resized in place — the double-buffered loader's
    /// steady-state refill shape.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`FeatureStore::read_chunk_all_hops`].
    pub fn read_chunk_all_hops_into(
        &mut self,
        p: usize,
        chunk_id: usize,
        path: AccessPath,
        out: &mut Vec<Matrix>,
    ) -> Result<(), DataIoError> {
        let part = self
            .parts
            .get_mut(p)
            .ok_or_else(|| DataIoError::OutOfRange(format!("partition {p} out of range")))?;
        let m = &part.meta;
        if chunk_id >= m.num_chunks() {
            return Err(DataIoError::OutOfRange(format!(
                "chunk {chunk_id} out of range ({} chunks)",
                m.num_chunks()
            )));
        }
        let start = chunk_id * m.chunk_size;
        let (rows, cols) = (m.chunk_size.min(m.rows - start), m.cols);
        out.resize_with(m.num_hops, Matrix::default);
        for (k, slot) in out.iter_mut().enumerate() {
            slot.resize_to(rows, cols);
            let physical = part.fetch_decode_rows(k, start, slot.as_mut_slice())?;
            self.counters
                .record(true, 1, physical, (rows * cols * 4) as u64, path);
        }
        Ok(())
    }

    /// Reads an entire **logical** hop matrix: every partition's hop is
    /// read sequentially (one request each) and scattered to its global
    /// row positions.
    ///
    /// # Errors
    ///
    /// Fails if `k` is out of range or any partition read fails.
    pub fn read_full_hop(&mut self, k: usize) -> Result<Matrix, DataIoError> {
        self.check_hop(k)?;
        let cols = self.meta.cols;
        let mut out = Matrix::zeros(self.meta.rows, cols);
        let mut part_hop = Matrix::default();
        for (part, globals) in self.parts.iter_mut().zip(&self.global_rows) {
            part_hop.resize_to(part.meta.rows, cols);
            let physical = part.fetch_decode_rows(k, 0, part_hop.as_mut_slice())?;
            let logical = (part_hop.len() * 4) as u64;
            self.counters
                .record(true, 1, physical, logical, AccessPath::Direct);
            for (j, &g) in globals.iter().enumerate() {
                out.row_mut(g).copy_from_slice(part_hop.row(j));
            }
        }
        Ok(out)
    }

    fn check_hop(&self, k: usize) -> Result<(), DataIoError> {
        if k >= self.meta.num_hops {
            return Err(DataIoError::OutOfRange(format!(
                "hop {k} out of range ({} hops)",
                self.meta.num_hops
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreWriter;
    use std::fs;
    use std::sync::Arc;

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

    fn build(dir: &Path, rows: usize, parts: usize) -> FeatureStore {
        let assignment = round_robin(rows, parts);
        let mut w = StoreWriter::create(dir, meta(rows), &assignment, 2).unwrap();
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
        store
            .read_chunk_all_hops(0, 0, AccessPath::HostBounce)
            .unwrap();
        let c = store.counters().delta_since(&c);
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
        let err = StoreWriter::create(&dir, meta(4), &[vec![0, 1], vec![2]], 1);
        assert!(matches!(err, Err(DataIoError::BadManifest(_))));
        // Duplicate row.
        let err = StoreWriter::create(&dir, meta(3), &[vec![0, 1], vec![1, 2]], 1);
        assert!(matches!(err, Err(DataIoError::BadManifest(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_rejects_tampered_sidecars() {
        let dir = temp_dir("tamper");
        build(&dir, 8, 2);
        // Rewrite partition 1's sidecar to claim rows partition 0 owns.
        write_rows_sidecar(&dir.join("part_1"), &[0, 2, 4, 6]).unwrap();
        assert!(matches!(
            FeatureStore::open(&dir),
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
        for dtype in [
            ppgnn_tensor::StoreDtype::F32,
            ppgnn_tensor::StoreDtype::Int8,
        ] {
            let meta = StoreMeta { dtype, ..meta(10) };
            let text = meta.manifest_text(Some(&[4, 3, 3]));
            let parsed = Manifest::parse(&text).unwrap();
            assert_eq!(StoreMeta::from_manifest(&parsed).unwrap(), meta);
            assert_eq!(partition_rows(&parsed, &meta).unwrap(), vec![4, 3, 3]);
            // The plain keys lead, in the plain manifest's order.
            let plain = StoreMeta {
                dtype: ppgnn_tensor::StoreDtype::F32,
                ..meta.clone()
            };
            assert!(text.starts_with(&plain.manifest_text(None)));
        }
        let geometry = Manifest::parse("dataset=x\n").unwrap();
        assert!(partition_rows(&geometry, &meta(10)).is_err());
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
            FeatureStore::open(&root).unwrap();
            fs::write(root.join(file), text).unwrap();
            assert!(FeatureStore::open(&root).is_err(), "{case}: opened");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn empty_partitions_are_tolerated() {
        // 3 rows over 3 partitions where one partition owns nothing.
        let dir = temp_dir("empty");
        let assignment = vec![vec![0, 2], vec![], vec![1]];
        let mut w = StoreWriter::create(&dir, meta(3), &assignment, 1).unwrap();
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
