//! The per-directory layer of the store: the hop-file codec (`PPGT` /
//! `PPGQ` headers and the per-chunk checksum footer), the `key=value`
//! manifest codec every manifest of the stack shares, the synchronous
//! per-directory [`FeatureStoreWriter`], and the crate-private
//! `PartStore` that [`crate::FeatureStore`] reads one directory through.

use std::fs::{self, File};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::str::FromStr;

use ppgnn_tensor::cast::{self, StoreDtype};
use ppgnn_tensor::{io as tio, Matrix};

use crate::commit::{self, Journal};
use crate::error::CorruptError;
use crate::{fault, DataIoError, FeatureStore};

/// Global telemetry mirrors of the per-store [`IoCounters`], so traced
/// runs see storage traffic in the metrics registry without plumbing a
/// store handle to the report site. Counters only — the per-row read
/// loop is a hot path, so values are accumulated locally and flushed
/// once per call.
static STORE_SEQ_BYTES: ppgnn_telemetry::Counter = ppgnn_telemetry::Counter::new("store.seq_bytes");
static STORE_RAND_BYTES: ppgnn_telemetry::Counter =
    ppgnn_telemetry::Counter::new("store.rand_bytes");
static STORE_LOGICAL_BYTES: ppgnn_telemetry::Counter =
    ppgnn_telemetry::Counter::new("store.logical_bytes");

pub(crate) const MANIFEST: &str = "manifest.txt";

/// Magic of the compressed (`f16`/`bf16`/`int8`) hop-file format. `f32`
/// hops keep the `PPGT` format byte-for-byte.
const QMAGIC: &[u8; 4] = b"PPGQ";
const QVERSION: u32 = 1;
/// `PPGQ` header: magic + version + rows `u64` + cols `u64` + dtype
/// code `u32`.
const QHEADER_BYTES: usize = 4 + 4 + 8 + 8 + 4;

/// Magic of the per-chunk checksum footer appended after the payload of
/// every hop file (both `PPGT` and `PPGQ`) since the crash-safety
/// container revision. Legacy footer-less files are detected by length
/// and still load — they just skip read-side verification.
const FOOTER_MAGIC: &[u8; 4] = b"PPGC";
/// Footer version the writer emits: chunk sums from [`fnv1a_words`].
/// Version 1 ([`fnv1a_bytes`]) still verifies, file by file.
const FOOTER_VERSION: u32 = 2;

/// Footer size for `n` chunks: magic + version + chunk count `u64` +
/// one `u64` checksum per chunk (the same for every footer version).
const fn footer_len(n: usize) -> u64 {
    (4 + 4 + 8 + 8 * n) as u64
}

/// Bytes hashed by the chunk checksum, written and verified.
static CHECKSUM_BYTES: ppgnn_telemetry::Counter =
    ppgnn_telemetry::Counter::new("dataio.checksum_bytes");

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Footer version 1: FNV-1a over the chunk's bytes, one dependent
/// multiply per byte.
pub(crate) fn fnv1a_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// Footer version 2: FNV-1a over little-endian `u64` words in four
/// independent lanes (word `i` feeds lane `i % 4`), so four multiplies are
/// in flight instead of one. The lanes are folded in order, then the
/// ≤ 31 tail bytes byte-wise, then the length.
///
/// Every step `l ↦ (l ^ w)·P` is a bijection of the word `w` (the prime is
/// odd), and everything after it is a bijection of the lane or the folded
/// state, so a corruption confined to one 8-byte word — every single-bit
/// flip among them — always changes the sum.
fn fnv1a_words(bytes: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET; 4];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (l, lane) in lanes.iter_mut().enumerate() {
            let mut word = [0u8; 8];
            word.copy_from_slice(&block[8 * l..8 * l + 8]);
            *lane = (*lane ^ u64::from_le_bytes(word)).wrapping_mul(FNV_PRIME);
        }
    }
    let h = lanes
        .iter()
        .fold(FNV_OFFSET, |h, &l| (h ^ l).wrapping_mul(FNV_PRIME));
    let h = fnv1a_bytes(h, blocks.remainder());
    (h ^ bytes.len() as u64).wrapping_mul(FNV_PRIME)
}

/// The chunk checksum of footer `version` (1 or 2).
fn chunk_checksum(version: u32, bytes: &[u8]) -> u64 {
    CHECKSUM_BYTES.add(bytes.len() as u64);
    if version == 1 {
        fnv1a_bytes(FNV_OFFSET, bytes)
    } else {
        fnv1a_words(bytes)
    }
}

/// On-disk dtype code of the `PPGQ` header (`f32` never appears — it
/// stays in the `PPGT` format).
fn dtype_code(dtype: StoreDtype) -> u32 {
    match dtype {
        StoreDtype::F32 => 0,
        StoreDtype::F16 => 1,
        StoreDtype::Bf16 => 2,
        StoreDtype::Int8 => 3,
    }
}

/// Byte offset of the first encoded row in a hop file of `dtype`.
fn data_offset(dtype: StoreDtype) -> u64 {
    if dtype.is_f32() {
        tio::HEADER_BYTES as u64
    } else {
        QHEADER_BYTES as u64
    }
}

/// The `PPGQ` header of a `rows × cols` hop of `dtype`.
fn qheader_bytes(dtype: StoreDtype, rows: usize, cols: usize) -> [u8; QHEADER_BYTES] {
    let mut h = [0u8; QHEADER_BYTES];
    h[..4].copy_from_slice(QMAGIC);
    h[4..8].copy_from_slice(&QVERSION.to_le_bytes());
    h[8..16].copy_from_slice(&(rows as u64).to_le_bytes());
    h[16..24].copy_from_slice(&(cols as u64).to_le_bytes());
    h[24..].copy_from_slice(&dtype_code(dtype).to_le_bytes());
    h
}

/// Reads and validates a `PPGQ` header against the manifest's `dtype`,
/// returning `(rows, cols)`.
fn read_qheader(mut r: impl Read, dtype: StoreDtype) -> Result<(usize, usize), DataIoError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != QMAGIC {
        return Err(DataIoError::corrupt(format!(
            "bad magic {magic:?}, expected {QMAGIC:?} for a {dtype} hop"
        )));
    }
    let mut word = [0u8; 4];
    r.read_exact(&mut word)?;
    let version = u32::from_le_bytes(word);
    if version != QVERSION {
        return Err(DataIoError::corrupt(format!(
            "unsupported PPGQ version {version}"
        )));
    }
    let mut dim = [0u8; 8];
    r.read_exact(&mut dim)?;
    let rows = u64::from_le_bytes(dim) as usize;
    r.read_exact(&mut dim)?;
    let cols = u64::from_le_bytes(dim) as usize;
    r.read_exact(&mut word)?;
    let code = u32::from_le_bytes(word);
    if code != dtype_code(dtype) {
        return Err(DataIoError::corrupt(format!(
            "hop file dtype code {code} disagrees with manifest dtype {dtype}"
        )));
    }
    Ok((rows, cols))
}

/// The parsed lines of a `key=value` manifest: the one codec behind a
/// store directory's `manifest.txt`, a partitioned root's `sharded.txt`
/// and `core::persist`'s `preprop.txt` (no external parser dependency).
/// Blank lines are skipped, a line without `=` is malformed, a repeated
/// key's last value wins, and keys no reader asks for are ignored, so
/// older readers open newer files.
#[derive(Debug)]
pub struct Manifest {
    lines: Vec<(String, String)>,
}

impl Manifest {
    /// Reads and parses the manifest file at `path`.
    ///
    /// # Errors
    ///
    /// [`DataIoError::Io`] naming the path when the file cannot be read
    /// (a missing manifest is an uncommitted store), else
    /// [`Manifest::parse`]'s errors.
    pub fn read(path: &Path) -> Result<Self, DataIoError> {
        let text = fs::read_to_string(path)
            .map_err(|e| DataIoError::Io(format!("{}: {e}", path.display())))?;
        Self::parse(&text)
    }

    /// Parses manifest text.
    ///
    /// # Errors
    ///
    /// [`DataIoError::BadManifest`] on a non-blank line without `=`.
    pub fn parse(text: &str) -> Result<Self, DataIoError> {
        let mut lines = Vec::new();
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| DataIoError::BadManifest(format!("bad line: {line}")))?;
            lines.push((k.to_string(), v.to_string()));
        }
        Ok(Manifest { lines })
    }

    /// Every `(key, value)` line, in file order.
    pub fn lines(&self) -> impl Iterator<Item = (&str, &str)> {
        self.lines.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// The value of `key` (the last one, if repeated).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.lines
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// `key`'s value parsed as `T`, or `None` when the key is absent.
    ///
    /// # Errors
    ///
    /// [`DataIoError::BadManifest`] when the value is present but does not
    /// parse: a malformed value is corruption, not an older file.
    pub fn parse_opt<T: FromStr>(&self, key: &str) -> Result<Option<T>, DataIoError> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| DataIoError::BadManifest(format!("bad value for {key}: {v}")))
            })
            .transpose()
    }

    /// `key`'s value parsed as `T`.
    ///
    /// # Errors
    ///
    /// [`DataIoError::BadManifest`] when the key is missing or its value
    /// does not parse.
    pub fn require<T: FromStr>(&self, key: &str) -> Result<T, DataIoError> {
        self.parse_opt(key)?
            .ok_or_else(|| DataIoError::BadManifest(format!("missing key {key}")))
    }
}

/// Store-level metadata persisted in `manifest.txt` (see [`Manifest`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreMeta {
    /// Dataset name the features were preprocessed from.
    pub dataset: String,
    /// Number of hop files (`R + 1`).
    pub num_hops: usize,
    /// Rows per hop file (training-relevant nodes).
    pub rows: usize,
    /// Feature dimension per hop.
    pub cols: usize,
    /// Rows per chunk for chunked access.
    pub chunk_size: usize,
    /// Element encoding of the hop payloads. [`StoreDtype::F32`] keeps
    /// the manifest and hop files byte-identical to pre-dtype stores
    /// (the `dtype=` key is only written for compressed encodings, and
    /// old readers ignore unknown keys).
    pub dtype: StoreDtype,
}

impl StoreMeta {
    /// The manifest text of a store directory (`partition_rows = None`)
    /// or of a partitioned root's `sharded.txt`: the geometry keys, then
    /// `num_partitions`, the `dtype` key for compressed encodings only,
    /// and each partition's row count — the key order every committed
    /// file has, so manifests stay byte-identical.
    pub(crate) fn manifest_text(&self, partition_rows: Option<&[usize]>) -> String {
        let mut text = format!(
            "dataset={}\nnum_hops={}\nrows={}\ncols={}\nchunk_size={}\n",
            self.dataset, self.num_hops, self.rows, self.cols, self.chunk_size
        );
        if let Some(parts) = partition_rows {
            text.push_str(&format!("num_partitions={}\n", parts.len()));
        }
        if !self.dtype.is_f32() {
            text.push_str(&format!("dtype={}\n", self.dtype.name()));
        }
        for (p, rows) in partition_rows.unwrap_or_default().iter().enumerate() {
            text.push_str(&format!("partition_{p}_rows={rows}\n"));
        }
        text
    }

    /// The geometry keys of a parsed manifest.
    pub(crate) fn from_manifest(m: &Manifest) -> Result<Self, DataIoError> {
        let dtype = match m.get("dtype") {
            None => StoreDtype::F32,
            Some(v) => StoreDtype::parse(v)
                .ok_or_else(|| DataIoError::BadManifest(format!("unknown store dtype: {v}")))?,
        };
        let meta = StoreMeta {
            dataset: m.require("dataset")?,
            num_hops: m.require("num_hops")?,
            rows: m.require("rows")?,
            cols: m.require("cols")?,
            chunk_size: m.require("chunk_size")?,
            dtype,
        };
        meta.check()?;
        Ok(meta)
    }

    /// The geometry check writers and readers share. No writer produces
    /// a zero chunk size, and `num_chunks` divides by it.
    pub(crate) fn check(&self) -> Result<(), DataIoError> {
        if self.chunk_size == 0 {
            return Err(DataIoError::BadManifest(
                "chunk_size must be positive".into(),
            ));
        }
        Ok(())
    }

    /// The geometry string the completed-units journal is bound to: a
    /// journal written for a different store shape must not be replayed.
    pub(crate) fn geometry_key(&self) -> String {
        format!(
            "{}:{}:{}:{}:{}:{}",
            self.num_hops,
            self.rows,
            self.cols,
            self.chunk_size,
            self.dtype.name(),
            self.dataset
        )
    }

    /// On-disk length of one committed hop file: header + encoded
    /// payload + checksum footer.
    pub(crate) fn expected_hop_file_len(&self) -> u64 {
        data_offset(self.dtype)
            + (self.rows * self.dtype.encoded_row_bytes(self.cols)) as u64
            + footer_len(self.num_chunks())
    }

    /// Number of chunks per hop file (last chunk may be partial).
    pub fn num_chunks(&self) -> usize {
        if self.rows == 0 {
            0
        } else {
            self.rows.div_ceil(self.chunk_size)
        }
    }

    /// Total **logical** bytes across all hop files — the decoded `f32`
    /// payload the trainer consumes, independent of the stored encoding.
    pub fn total_bytes(&self) -> u64 {
        (self.num_hops * self.rows * self.cols * 4) as u64
    }

    /// Total **physical** payload bytes across all hop files as encoded
    /// on disk (headers excluded). Equal to [`StoreMeta::total_bytes`]
    /// for `f32`; half of it for the 16-bit encodings.
    pub fn physical_bytes(&self) -> u64 {
        (self.num_hops * self.rows * self.dtype.encoded_row_bytes(self.cols)) as u64
    }
}

/// Which copy path a read takes (GPUDirect analog vs host bounce buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Storage → device buffer directly (NVIDIA GDS analog).
    Direct,
    /// Storage → host staging buffer → device buffer.
    HostBounce,
}

/// Byte/request accounting for one reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoCounters {
    /// Sequential (chunk) read requests issued.
    pub seq_requests: u64,
    /// Bytes read sequentially.
    pub seq_bytes: u64,
    /// Random (row) read requests issued.
    pub rand_requests: u64,
    /// Bytes read randomly.
    pub rand_bytes: u64,
    /// Extra bytes copied through the host bounce buffer.
    pub bounce_bytes: u64,
    /// Decoded `f32` bytes delivered to callers. `seq_bytes` and
    /// `rand_bytes` count **physical** (encoded) bytes moved from
    /// storage; for an `f32` store the two coincide, and the gap is the
    /// bandwidth a compressed dtype saved.
    pub logical_bytes: u64,
}

impl IoCounters {
    /// Total physical bytes read from storage.
    pub fn total_bytes(&self) -> u64 {
        self.seq_bytes + self.rand_bytes
    }

    /// Logical-over-physical byte ratio (`1.0` for `f32` stores, `~2.0`
    /// for the 16-bit encodings); `1.0` when nothing was read.
    pub fn compression_ratio(&self) -> f64 {
        let physical = self.total_bytes();
        if physical == 0 {
            1.0
        } else {
            self.logical_bytes as f64 / physical as f64
        }
    }

    /// The counts accumulated since `earlier` was snapshotted — the
    /// per-epoch delta behind epoch-over-epoch read-amplification
    /// reporting. Counters are monotonic, so every field of `earlier`
    /// must be ≤ the corresponding field of `self` (saturating
    /// otherwise, so a stale snapshot degrades to zero, not underflow).
    pub fn delta_since(&self, earlier: &IoCounters) -> IoCounters {
        IoCounters {
            seq_requests: self.seq_requests.saturating_sub(earlier.seq_requests),
            seq_bytes: self.seq_bytes.saturating_sub(earlier.seq_bytes),
            rand_requests: self.rand_requests.saturating_sub(earlier.rand_requests),
            rand_bytes: self.rand_bytes.saturating_sub(earlier.rand_bytes),
            bounce_bytes: self.bounce_bytes.saturating_sub(earlier.bounce_bytes),
            logical_bytes: self.logical_bytes.saturating_sub(earlier.logical_bytes),
        }
    }

    /// Counts `requests` sequential (chunk) or random (row) requests that
    /// moved `physical` encoded bytes and delivered `logical` decoded
    /// bytes, mirroring them into the telemetry registry.
    pub(crate) fn record(
        &mut self,
        seq: bool,
        requests: u64,
        physical: u64,
        logical: u64,
        path: AccessPath,
    ) {
        let (count, bytes, mirror) = if seq {
            (
                &mut self.seq_requests,
                &mut self.seq_bytes,
                &STORE_SEQ_BYTES,
            )
        } else {
            (
                &mut self.rand_requests,
                &mut self.rand_bytes,
                &STORE_RAND_BYTES,
            )
        };
        *count += requests;
        *bytes += physical;
        mirror.add(physical);
        self.logical_bytes += logical;
        STORE_LOGICAL_BYTES.add(logical);
        if path == AccessPath::HostBounce {
            self.bounce_bytes += physical;
        }
    }
}

/// Writes a feature store to a directory: one `hop_<k>.ppgt` file per
/// hop, then `manifest.txt` last. Every dtype encodes each hop through
/// [`ppgnn_tensor::cast`] straight into a reusable whole-file staging
/// buffer on the calling thread (under [`crate::StoreWriter`] that is
/// the writer thread, so encoding overlaps the next hop's diffusion).
///
/// Crash-safety contract: every hop file is committed atomically
/// (temp + fsync + rename) with a per-chunk checksum footer, each
/// commit is recorded in a fsynced journal, and the manifest — the
/// commit point [`FeatureStore::open`] keys off — is written only in
/// [`FeatureStoreWriter::finish`]. A run killed at any point leaves a
/// directory that either opens as a complete store (manifest landed) or
/// fails `open` with a located error, and
/// [`FeatureStoreWriter::create_or_resume`] replays the journal so only
/// the missing hops need recomputing.
#[derive(Debug)]
pub struct FeatureStoreWriter {
    dir: PathBuf,
    meta: StoreMeta,
    written: Vec<bool>,
    /// Hops the resumed journal proved committed — skippable by callers.
    resumed: Vec<bool>,
    /// Whole-file staging buffer (header + encoded payload + footer),
    /// reused across hops; the atomic commit writes it in one shot.
    file_buf: Vec<u8>,
    journal: Journal,
}

impl FeatureStoreWriter {
    /// Creates the directory (if needed) and starts a fresh journal.
    /// The manifest is only written by [`FeatureStoreWriter::finish`],
    /// so an interrupted write never masquerades as a complete store.
    ///
    /// # Errors
    ///
    /// Fails if the directory or journal cannot be created, or if
    /// `meta` has a zero chunk size.
    pub fn create(dir: impl AsRef<Path>, meta: StoreMeta) -> Result<Self, DataIoError> {
        Self::build(dir, meta, false)
    }

    /// Like [`FeatureStoreWriter::create`], but replays an existing
    /// completed-units journal first: hops the journal records as done
    /// — re-verified against the expected committed file length — are
    /// marked written, and [`FeatureStoreWriter::resumed_hops`] reports
    /// them so callers can skip recomputing their inputs. A missing
    /// journal or one written for a different store geometry resumes
    /// nothing.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`FeatureStoreWriter::create`].
    pub fn create_or_resume(dir: impl AsRef<Path>, meta: StoreMeta) -> Result<Self, DataIoError> {
        Self::build(dir, meta, true)
    }

    fn build(dir: impl AsRef<Path>, meta: StoreMeta, resume: bool) -> Result<Self, DataIoError> {
        meta.check()?;
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let geometry = meta.geometry_key();
        let mut written = vec![false; meta.num_hops];
        let journal = if resume {
            let (journal, done) = Journal::resume(&dir, &geometry)?;
            for k in done {
                // Trust the journal only as far as the bytes on disk
                // back it up: a committed hop file has exactly the
                // expected length (header + payload + footer).
                if k < meta.num_hops
                    && fs::metadata(hop_path(&dir, k))
                        .map(|m| m.len() == meta.expected_hop_file_len())
                        .unwrap_or(false)
                {
                    written[k] = true;
                }
            }
            journal
        } else {
            Journal::create(&dir, &geometry)?
        };
        Ok(FeatureStoreWriter {
            resumed: written.clone(),
            written,
            dir,
            meta,
            file_buf: Vec::new(),
            journal,
        })
    }

    /// Which hops a [`FeatureStoreWriter::create_or_resume`] replayed
    /// from the journal (all `false` for a fresh writer). Submitting
    /// one of these again is harmless — it rewrites identical bytes.
    pub fn resumed_hops(&self) -> &[bool] {
        &self.resumed
    }

    /// Writes hop `k`'s feature matrix to its own file: an atomic
    /// commit of header + encoded payload + per-chunk checksum footer,
    /// followed by a fsynced journal record.
    ///
    /// # Errors
    ///
    /// Fails if `k` is out of range, the matrix shape disagrees with the
    /// manifest, or I/O fails.
    pub fn write_hop(&mut self, k: usize, features: &Matrix) -> Result<(), DataIoError> {
        if k >= self.meta.num_hops {
            return Err(DataIoError::OutOfRange(format!(
                "hop {k} out of range ({} hops)",
                self.meta.num_hops
            )));
        }
        if features.shape() != (self.meta.rows, self.meta.cols) {
            return Err(DataIoError::BadManifest(format!(
                "hop {k} shape {:?} disagrees with manifest ({}, {})",
                features.shape(),
                self.meta.rows,
                self.meta.cols
            )));
        }
        {
            let _span = ppgnn_telemetry::span("store.encode");
            let (dtype, rows, cols) = (self.meta.dtype, self.meta.rows, self.meta.cols);
            let off = data_offset(dtype) as usize;
            // Header and payload are written in place: resizing the reused
            // buffer to an unchanged length (every hop after the first)
            // only cuts the previous footer off, and the encoder writes
            // each payload byte once. The `PPGT` header + f32 payload are
            // the pre-dtype format byte for byte (the digest pin test
            // covers the container revision).
            self.file_buf
                .resize(off + rows * dtype.encoded_row_bytes(cols), 0);
            let (header, payload) = self.file_buf.split_at_mut(off);
            if dtype.is_f32() {
                header.copy_from_slice(&tio::header_bytes(rows, cols));
            } else {
                header.copy_from_slice(&qheader_bytes(dtype, rows, cols));
            }
            cast::encode_rows(dtype, features.as_slice(), cols, payload);
        }
        {
            let _span = ppgnn_telemetry::span("store.checksum");
            append_checksum_footer(&mut self.file_buf, &self.meta);
        }
        commit::write_bytes_atomic("hop", &hop_path(&self.dir, k), &self.file_buf)?;
        self.journal.record(k)?;
        self.written[k] = true;
        Ok(())
    }

    /// Finishes writing: commits the
    /// directory and opens it.
    ///
    /// # Errors
    ///
    /// Fails listing the missing hops if any were never written, or on
    /// manifest-write or open failure.
    pub fn finish(self) -> Result<FeatureStore, DataIoError> {
        FeatureStore::open(self.commit()?)
    }

    /// Verifies every hop was stored, then commits the manifest — the
    /// directory's atomic commit point — and retires the journal.
    /// Returns the directory.
    pub(crate) fn commit(self) -> Result<PathBuf, DataIoError> {
        let missing: Vec<usize> = self
            .written
            .iter()
            .enumerate()
            .filter(|(_, &w)| !w)
            .map(|(k, _)| k)
            .collect();
        if !missing.is_empty() {
            return Err(DataIoError::BadManifest(format!(
                "hops never written: {missing:?}"
            )));
        }
        commit::write_bytes_atomic(
            "manifest",
            &self.dir.join(MANIFEST),
            self.meta.manifest_text(None).as_bytes(),
        )?;
        self.journal.remove();
        Ok(self.dir)
    }
}

/// Computes the per-chunk checksums ([`fnv1a_words`]) of the encoded
/// payload already staged in `buf` (everything after the header) and
/// appends the footer: magic, version, chunk count, one `u64` per chunk.
fn append_checksum_footer(buf: &mut Vec<u8>, meta: &StoreMeta) {
    let off = data_offset(meta.dtype) as usize;
    let enc_row = meta.dtype.encoded_row_bytes(meta.cols);
    let n = meta.num_chunks();
    buf.reserve(footer_len(n) as usize);
    buf.extend_from_slice(FOOTER_MAGIC);
    buf.extend_from_slice(&FOOTER_VERSION.to_le_bytes());
    buf.extend_from_slice(&(n as u64).to_le_bytes());
    for chunk in 0..n {
        let start_row = chunk * meta.chunk_size;
        let rows = meta.chunk_size.min(meta.rows - start_row);
        let start = off + start_row * enc_row;
        let sum = chunk_checksum(FOOTER_VERSION, &buf[start..start + rows * enc_row]);
        buf.extend_from_slice(&sum.to_le_bytes());
    }
}

/// Reads and validates the checksum footer at `payload_end`, returning
/// the footer version and the per-chunk sums.
fn read_checksum_footer(
    f: &mut File,
    payload_end: u64,
    meta: &StoreMeta,
) -> Result<ChunkSums, DataIoError> {
    f.seek(SeekFrom::Start(payload_end))?;
    let mut magic = [0u8; 4];
    f.read_exact(&mut magic)?;
    if &magic != FOOTER_MAGIC {
        return Err(DataIoError::corrupt(format!(
            "bad checksum footer magic {magic:?}, expected {FOOTER_MAGIC:?}"
        )));
    }
    let mut word = [0u8; 4];
    f.read_exact(&mut word)?;
    let version = u32::from_le_bytes(word);
    if !(1..=FOOTER_VERSION).contains(&version) {
        return Err(DataIoError::corrupt(format!(
            "unsupported checksum footer version {version}"
        )));
    }
    let mut dword = [0u8; 8];
    f.read_exact(&mut dword)?;
    let count = u64::from_le_bytes(dword) as usize;
    if count != meta.num_chunks() {
        return Err(DataIoError::corrupt(format!(
            "checksum footer has {count} chunks, manifest implies {}",
            meta.num_chunks()
        )));
    }
    let mut sums = Vec::with_capacity(count);
    for _ in 0..count {
        f.read_exact(&mut dword)?;
        sums.push(u64::from_le_bytes(dword));
    }
    Ok(ChunkSums { version, sums })
}

/// One hop file's checksum footer. A resumed store may mix footer
/// versions, so the version is kept per file.
#[derive(Debug, Default)]
struct ChunkSums {
    version: u32,
    /// Empty for a legacy footer-less file (no verification possible).
    sums: Vec<u64>,
}

fn hop_path(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("hop_{k}.ppgt"))
}

/// Opens hop file `k`, checks its header against `meta`, and validates its
/// length without reading the payload: the crash-safety container
/// revision appends a checksum footer, a file ending exactly at the
/// payload is a legacy store and still loads (verification skipped), and
/// anything else is corruption. Corruption comes back unlocated; the
/// caller attaches path and hop.
fn open_hop(path: &Path, k: usize, meta: &StoreMeta) -> Result<(File, ChunkSums), DataIoError> {
    let mut f = File::open(path).map_err(|e| DataIoError::Io(format!("hop {k}: {e}")))?;
    let (rows, cols) = if meta.dtype.is_f32() {
        tio::read_header(&mut f).map_err(|e| DataIoError::corrupt(e.to_string()))?
    } else {
        read_qheader(&mut f, meta.dtype)?
    };
    if (rows, cols) != (meta.rows, meta.cols) {
        return Err(DataIoError::corrupt(format!(
            "hop {k} header ({rows},{cols}) disagrees with manifest ({},{})",
            meta.rows, meta.cols
        )));
    }
    let payload_end = data_offset(meta.dtype) + (rows * meta.dtype.encoded_row_bytes(cols)) as u64;
    let flen = footer_len(meta.num_chunks());
    let actual = f.metadata()?.len();
    let sums = if actual == payload_end {
        ChunkSums::default() // legacy footer-less file
    } else if actual == payload_end + flen {
        read_checksum_footer(&mut f, payload_end, meta)?
    } else if actual < payload_end {
        return Err(DataIoError::corrupt(format!(
            "hop {k} file truncated: {actual} < {payload_end} bytes"
        )));
    } else {
        return Err(DataIoError::corrupt(format!(
            "hop {k} file truncated or trailing garbage: {actual} bytes, want \
             {payload_end} (legacy) or {} (checksummed)",
            payload_end + flen
        )));
    };
    Ok((f, sums))
}

/// One store directory opened for reading: the manifest, one cached
/// handle per hop file, the checksum footers and the verified-chunk
/// bitmaps, and the one decode loop. Crate-private: [`FeatureStore`] is
/// the public reader over one of these per partition.
#[derive(Debug)]
pub(crate) struct PartStore {
    dir: PathBuf,
    pub(crate) meta: StoreMeta,
    /// One cached handle per hop file, indexed by hop.
    files: Vec<File>,
    /// Encoded-byte staging buffer shared by every read; grows
    /// monotonically to the largest read seen.
    scratch: Vec<u8>,
    /// Per-hop chunk checksums and footer version.
    sums: Vec<ChunkSums>,
    /// Per-hop verified-chunk bitmaps (one bit per chunk): each chunk's
    /// checksum is verified on the first read touching it, then the bit
    /// short-circuits every later read — "verified on every read"
    /// without re-hashing hot loops.
    verified: Vec<Vec<u64>>,
    /// Staging buffer for checksum verification reads (one chunk),
    /// separate from `scratch` so verification never perturbs the
    /// caller-visible byte accounting.
    verify_buf: Vec<u8>,
}

impl PartStore {
    /// Opens a store directory, validating the manifest, each hop file's
    /// header and length, and loading the per-chunk checksum footers
    /// (legacy footer-less files load with verification disabled).
    ///
    /// # Errors
    ///
    /// Fails on missing/corrupt manifest, missing hop files, header
    /// shapes that disagree with the manifest, or truncated/oversized
    /// hop files — always with path + hop context on the corruption.
    pub(crate) fn open(dir: PathBuf) -> Result<Self, DataIoError> {
        let meta = StoreMeta::from_manifest(&Manifest::read(&dir.join(MANIFEST))?)?;
        // `num_hops` is read from the manifest, so the vectors grow as hop
        // files open rather than trusting it for an up-front allocation.
        let mut files = Vec::new();
        let mut sums = Vec::new();
        for k in 0..meta.num_hops {
            let path = hop_path(&dir, k);
            let (f, footer) = open_hop(&path, k, &meta).map_err(|e| match e {
                DataIoError::Corrupt(c) => c.with_path(&path).with_hop(k).into(),
                other => other,
            })?;
            files.push(f);
            sums.push(footer);
        }
        // Pre-size the staging buffers for the common case (one chunk)
        // so loader steady state never grows them.
        let chunk_rows = meta.chunk_size.min(meta.rows);
        let chunk_bytes = chunk_rows * meta.dtype.encoded_row_bytes(meta.cols);
        let verified = vec![vec![0u64; meta.num_chunks().div_ceil(64)]; meta.num_hops];
        Ok(PartStore {
            dir,
            meta,
            files,
            scratch: vec![0u8; chunk_bytes],
            sums,
            verified,
            verify_buf: vec![0u8; chunk_bytes],
        })
    }

    /// The one decode loop behind every read path: seeks hop `k`'s
    /// cached handle to `start_row`, reads the encoded rows covering `out`
    /// into the staging buffer, and decodes them with the dispatched
    /// [`ppgnn_tensor::cast`] kernels. Returns the
    /// physical bytes moved. Allocation-free once the staging buffer
    /// has grown to the read size.
    pub(crate) fn fetch_decode_rows(
        &mut self,
        k: usize,
        start_row: usize,
        out: &mut [f32],
    ) -> Result<u64, DataIoError> {
        if out.is_empty() {
            return Ok(0);
        }
        if let Some(f) = fault::read_fault("read", &self.dir) {
            return Err(f.to_io_error().into());
        }
        let cols = self.meta.cols;
        let enc_row = self.meta.dtype.encoded_row_bytes(cols);
        debug_assert_eq!(out.len() % cols, 0);
        let nrows = out.len() / cols;
        self.verify_span(k, start_row, nrows)?;
        let nbytes = nrows * enc_row;
        if self.scratch.len() < nbytes {
            self.scratch.resize(nbytes, 0);
        }
        let mut f = &self.files[k];
        let offset = data_offset(self.meta.dtype) + (start_row * enc_row) as u64;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(&mut self.scratch[..nbytes])?;
        cast::decode_rows(self.meta.dtype, &self.scratch[..nbytes], cols, out);
        Ok(nbytes as u64)
    }

    /// Ensures every chunk covering rows `start_row..start_row + nrows`
    /// of hop `k` has had its checksum verified against the footer.
    /// Each chunk is hashed once per open (the `verified` bitmap
    /// short-circuits later reads), through `verify_buf` so the
    /// caller-visible I/O counters never include verification traffic.
    /// Legacy footer-less hops skip verification entirely.
    fn verify_span(&mut self, k: usize, start_row: usize, nrows: usize) -> Result<(), DataIoError> {
        if self.sums[k].sums.is_empty() {
            return Ok(());
        }
        let enc_row = self.meta.dtype.encoded_row_bytes(self.meta.cols);
        let first = start_row / self.meta.chunk_size;
        let last = (start_row + nrows - 1) / self.meta.chunk_size;
        for chunk in first..=last {
            let (word, bit) = (chunk / 64, chunk % 64);
            if self.verified[k][word] >> bit & 1 == 1 {
                continue;
            }
            let chunk_start = chunk * self.meta.chunk_size;
            let chunk_rows = self.meta.chunk_size.min(self.meta.rows - chunk_start);
            let nbytes = chunk_rows * enc_row;
            let mut f = &self.files[k];
            f.seek(SeekFrom::Start(
                data_offset(self.meta.dtype) + (chunk_start * enc_row) as u64,
            ))?;
            f.read_exact(&mut self.verify_buf[..nbytes])?;
            let footer = &self.sums[k];
            let computed = chunk_checksum(footer.version, &self.verify_buf[..nbytes]);
            let stored = footer.sums[chunk];
            if computed != stored {
                return Err(CorruptError::new(format!(
                    "chunk checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
                ))
                .with_path(&hop_path(&self.dir, k))
                .with_hop(k)
                .with_chunk(chunk)
                .into());
            }
            self.verified[k][word] |= 1 << bit;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ppgnn-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn parse_meta(text: &str) -> Result<StoreMeta, DataIoError> {
        StoreMeta::from_manifest(&Manifest::parse(text)?)
    }

    fn sample_meta() -> StoreMeta {
        StoreMeta {
            dataset: "test".into(),
            num_hops: 3,
            rows: 10,
            cols: 4,
            chunk_size: 4,
            dtype: StoreDtype::F32,
        }
    }

    fn build_store(dir: &Path) -> FeatureStore {
        let meta = sample_meta();
        let mut w = FeatureStoreWriter::create(dir, meta).unwrap();
        for k in 0..3 {
            let m = Matrix::from_fn(10, 4, |r, c| (k * 1000 + r * 10 + c) as f32);
            w.write_hop(k, &m).unwrap();
        }
        w.finish().unwrap()
    }

    /// Hop `k` of chunk `chunk_id` of a plain (one-partition) store.
    fn read_chunk(store: &mut FeatureStore, k: usize, chunk_id: usize) -> Matrix {
        let mut hops = store
            .read_chunk_all_hops(0, chunk_id, AccessPath::Direct)
            .unwrap();
        hops.swap_remove(k)
    }

    #[test]
    fn round_trip_rows_and_chunks() {
        let dir = temp_dir("roundtrip");
        let mut store = build_store(&dir);
        // random rows
        let rows = store.read_rows(1, &[7, 0, 3], AccessPath::Direct).unwrap();
        assert_eq!(rows.get(0, 2), 1072.0);
        assert_eq!(rows.get(1, 0), 1000.0);
        // chunk 1 = rows 4..8
        let chunk = read_chunk(&mut store, 2, 1);
        assert_eq!(chunk.rows(), 4);
        assert_eq!(chunk.get(0, 0), 2040.0);
        // last chunk is short: rows 8..10
        let last = read_chunk(&mut store, 0, 2);
        assert_eq!(last.rows(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn counters_distinguish_access_patterns() {
        let dir = temp_dir("counters");
        let mut store = build_store(&dir);
        store.read_rows(0, &[1, 2, 3], AccessPath::Direct).unwrap();
        let c = store.counters();
        assert_eq!(c.rand_requests, 3);
        assert_eq!(c.rand_bytes, 3 * 16);
        assert_eq!(c.seq_requests, 0);
        assert_eq!(c.bounce_bytes, 0);

        let before = store.counters();
        store
            .read_chunk_all_hops(0, 0, AccessPath::HostBounce)
            .unwrap();
        let c = store.counters().delta_since(&before);
        assert_eq!(c.seq_requests, 3); // one per hop file
        assert_eq!(c.seq_bytes, 3 * 4 * 16);
        assert_eq!(c.bounce_bytes, c.seq_bytes);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chunked_reads_issue_far_fewer_requests_than_row_reads() {
        // the quantitative heart of Section 4.3
        let dir = temp_dir("requests");
        let mut store = build_store(&dir);
        // Every row of every hop, once row by row and once chunk by chunk.
        let all: Vec<usize> = (0..10).collect();
        for k in 0..3 {
            store.read_rows(k, &all, AccessPath::Direct).unwrap();
        }
        let rand_reqs = store.counters().rand_requests;
        for c in 0..store.num_chunks(0) {
            store.read_chunk_all_hops(0, c, AccessPath::Direct).unwrap();
        }
        let seq_reqs = store.counters().seq_requests;
        assert!(seq_reqs * 3 <= rand_reqs, "{seq_reqs} vs {rand_reqs}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_truncated_files() {
        let dir = temp_dir("truncated");
        build_store(&dir);
        // truncate hop 1
        let path = dir.join("hop_1.ppgt");
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 10]).unwrap();
        let err = FeatureStore::open(&dir).unwrap_err();
        assert!(matches!(err, DataIoError::Corrupt(_)), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_bad_manifest() {
        let dir = temp_dir("manifest");
        build_store(&dir);
        fs::write(dir.join(MANIFEST), "dataset=x\nnum_hops=nope\n").unwrap();
        assert!(matches!(
            FeatureStore::open(&dir),
            Err(DataIoError::BadManifest(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writer_refuses_wrong_shapes_and_incomplete_stores() {
        let dir = temp_dir("writer");
        let mut w = FeatureStoreWriter::create(&dir, sample_meta()).unwrap();
        assert!(matches!(
            w.write_hop(0, &Matrix::zeros(5, 4)),
            Err(DataIoError::BadManifest(_))
        ));
        assert!(matches!(
            w.write_hop(9, &Matrix::zeros(10, 4)),
            Err(DataIoError::OutOfRange(_))
        ));
        w.write_hop(0, &Matrix::zeros(10, 4)).unwrap();
        let err = w.finish().unwrap_err();
        assert!(err.to_string().contains("never written"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_range_requests_fail_cleanly() {
        let dir = temp_dir("range");
        let mut store = build_store(&dir);
        assert!(store.read_rows(0, &[99], AccessPath::Direct).is_err());
        assert!(store.read_rows(9, &[0], AccessPath::Direct).is_err());
        assert!(store
            .read_chunk_all_hops(0, 99, AccessPath::Direct)
            .is_err());
        assert!(store.read_chunk_all_hops(1, 0, AccessPath::Direct).is_err());
        assert!(store.read_full_hop(9).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn full_hop_read_matches_written_matrix() {
        let dir = temp_dir("full");
        let mut store = build_store(&dir);
        let m = store.read_full_hop(1).unwrap();
        assert_eq!(m.shape(), (10, 4));
        assert_eq!(m.get(9, 3), 1093.0);
        fs::remove_dir_all(&dir).unwrap();
    }

    fn build_store_with_dtype(dir: &Path, dtype: StoreDtype) -> FeatureStore {
        let meta = StoreMeta {
            dtype,
            ..sample_meta()
        };
        let mut w = FeatureStoreWriter::create(dir, meta).unwrap();
        for k in 0..3 {
            let m = Matrix::from_fn(10, 4, |r, c| (k * 1000 + r * 10 + c) as f32);
            w.write_hop(k, &m).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn compressed_dtypes_round_trip_within_tolerance() {
        for dtype in StoreDtype::ALL {
            let dir = temp_dir(&format!("dtype-{dtype}"));
            let mut store = build_store_with_dtype(&dir, dtype);
            assert_eq!(store.meta().dtype, dtype);
            // The stored values (≤ 2093) are small integers; every
            // encoding must reconstruct them within its step size.
            let tol = match dtype {
                StoreDtype::F32 => 0.0,
                StoreDtype::F16 => 2.0,         // 2093 has ulp 1 in f16
                StoreDtype::Bf16 => 16.0,       // 8-bit mantissa
                StoreDtype::Int8 => 39.0 / 2.0, // row range ≤ 39 → step/2
            };
            for k in 0..3 {
                let full = store.read_full_hop(k).unwrap();
                for r in 0..10 {
                    for c in 0..4 {
                        let want = (k * 1000 + r * 10 + c) as f32;
                        let got = full.get(r, c);
                        assert!(
                            (want - got).abs() <= tol,
                            "{dtype} hop {k} ({r},{c}): {got} vs {want}"
                        );
                    }
                }
                // Row and chunk paths decode identically to the full hop.
                let rows = store.read_rows(k, &[3, 9, 0], AccessPath::Direct).unwrap();
                for (i, &r) in [3usize, 9, 0].iter().enumerate() {
                    for c in 0..4 {
                        assert_eq!(rows.get(i, c).to_bits(), full.get(r, c).to_bits());
                    }
                }
                let chunk = read_chunk(&mut store, k, 1);
                for r in 0..4 {
                    for c in 0..4 {
                        assert_eq!(chunk.get(r, c).to_bits(), full.get(4 + r, c).to_bits());
                    }
                }
            }
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn physical_bytes_halve_for_f16_and_counters_track_both() {
        let dir = temp_dir("halved");
        let mut store = build_store_with_dtype(&dir, StoreDtype::F16);
        assert_eq!(
            store.meta().physical_bytes() * 2,
            store.meta().total_bytes()
        );
        store.read_chunk_all_hops(0, 0, AccessPath::Direct).unwrap();
        let c = store.counters();
        assert_eq!(c.seq_bytes, 3 * 4 * 4 * 2); // 3 hops × 4 rows × 4 cols × 2 B
        assert_eq!(c.logical_bytes, 3 * 4 * 4 * 4);
        assert_eq!(c.compression_ratio(), 2.0);
        let before = store.counters();
        store.read_rows(1, &[0, 5], AccessPath::HostBounce).unwrap();
        let c = store.counters().delta_since(&before);
        assert_eq!(c.rand_bytes, 2 * 4 * 2);
        assert_eq!(c.bounce_bytes, c.rand_bytes); // bounce copies physical bytes
        assert_eq!(c.logical_bytes, 2 * 4 * 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn int8_hop_files_carry_per_row_params() {
        let dir = temp_dir("int8-size");
        let store = build_store_with_dtype(&dir, StoreDtype::Int8);
        let on_disk = fs::metadata(dir.join("hop_0.ppgt")).unwrap().len();
        // PPGQ header + rows × (8-byte params + cols payload) + the
        // per-chunk checksum footer (3 chunks at chunk_size 4).
        assert_eq!(on_disk, QHEADER_BYTES as u64 + 10 * (8 + 4) + footer_len(3));
        assert_eq!(store.meta().physical_bytes(), 3 * 10 * (8 + 4));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compressed_manifests_self_describe_and_reject_garbage() {
        let meta = StoreMeta {
            dtype: StoreDtype::Bf16,
            ..sample_meta()
        };
        let text = meta.manifest_text(None);
        assert!(text.contains("dtype=bf16"));
        assert_eq!(parse_meta(&text).unwrap(), meta);
        let bad = text.replace("dtype=bf16", "dtype=float8");
        assert!(matches!(parse_meta(&bad), Err(DataIoError::BadManifest(_))));
    }

    #[test]
    fn f32_manifest_omits_dtype_key() {
        // Byte-identity with pre-dtype stores: default manifests must
        // not change (the digest pin test covers the full store).
        let text = sample_meta().manifest_text(None);
        assert!(!text.contains("dtype"));
    }

    #[test]
    fn compressed_open_rejects_dtype_mismatch_and_truncation() {
        let dir = temp_dir("qmismatch");
        build_store_with_dtype(&dir, StoreDtype::F16);
        // Lie about the dtype in the manifest: the PPGQ header check
        // must catch the disagreement.
        let manifest = fs::read_to_string(dir.join(MANIFEST)).unwrap();
        fs::write(
            dir.join(MANIFEST),
            manifest.replace("dtype=f16", "dtype=int8"),
        )
        .unwrap();
        assert!(matches!(
            FeatureStore::open(&dir),
            Err(DataIoError::Corrupt(_))
        ));
        fs::write(dir.join(MANIFEST), manifest).unwrap();
        let path = dir.join("hop_2.ppgt");
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 3]).unwrap();
        assert!(matches!(
            FeatureStore::open(&dir),
            Err(DataIoError::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn into_reads_reuse_caller_slots() {
        let dir = temp_dir("slots");
        let mut store = build_store_with_dtype(&dir, StoreDtype::Int8);
        let mut slot = Matrix::default();
        store
            .read_rows_into(0, &[8, 9], AccessPath::Direct, &mut slot)
            .unwrap();
        assert_eq!(slot.shape(), (2, 4));
        store
            .read_rows_into(1, &[0, 1, 2], AccessPath::Direct, &mut slot)
            .unwrap();
        assert_eq!(slot.shape(), (3, 4));
        let mut hops = Vec::new();
        store
            .read_chunk_all_hops_into(0, 2, AccessPath::Direct, &mut hops)
            .unwrap();
        assert_eq!(hops.len(), 3);
        assert_eq!(hops[2].shape(), (2, 4)); // short final chunk
        store
            .read_chunk_all_hops_into(0, 0, AccessPath::Direct, &mut hops)
            .unwrap();
        assert_eq!(hops[2].shape(), (4, 4));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flips_are_caught_by_chunk_checksums_with_location() {
        for dtype in StoreDtype::ALL {
            let dir = temp_dir(&format!("flip-{dtype}"));
            build_store_with_dtype(&dir, dtype);
            // Flip one payload bit in hop 1, chunk 1 (rows 4..8) —
            // header and file length stay valid, so only the checksum
            // can catch it.
            let path = dir.join("hop_1.ppgt");
            let mut bytes = fs::read(&path).unwrap();
            let enc_row = dtype.encoded_row_bytes(4);
            let off = data_offset(dtype) as usize + 5 * enc_row + 1;
            bytes[off] ^= 0x10;
            fs::write(&path, &bytes).unwrap();

            let mut store = FeatureStore::open(&dir).expect("length and header still valid");
            let err = store
                .read_chunk_all_hops(0, 1, AccessPath::Direct)
                .unwrap_err();
            let DataIoError::Corrupt(c) = &err else {
                panic!("{dtype}: want Corrupt, got {err}");
            };
            assert_eq!(c.hop, Some(1), "{dtype}: {err}");
            assert_eq!(c.chunk, Some(1), "{dtype}: {err}");
            assert!(c.path.as_deref().unwrap().contains("hop_1.ppgt"));
            // Untouched chunks still read fine.
            store.read_chunk_all_hops(0, 0, AccessPath::Direct).unwrap();
            store
                .read_rows(0, &[4, 5, 6, 7], AccessPath::Direct)
                .unwrap();
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Rewrites hop `k`'s footer the way a version-1 writer emitted it:
    /// byte-wise FNV-1a chunk sums under version word 1.
    fn restamp_as_version_one(dir: &Path, k: usize, meta: &StoreMeta) {
        let path = hop_path(dir, k);
        let mut bytes = fs::read(&path).unwrap();
        let n = meta.num_chunks();
        let payload_end = bytes.len() - footer_len(n) as usize;
        let enc_row = meta.dtype.encoded_row_bytes(meta.cols);
        let off = data_offset(meta.dtype) as usize;
        let mut footer = Vec::new();
        footer.extend_from_slice(FOOTER_MAGIC);
        footer.extend_from_slice(&1u32.to_le_bytes());
        footer.extend_from_slice(&(n as u64).to_le_bytes());
        for chunk in 0..n {
            let first = off + chunk * meta.chunk_size * enc_row;
            let rows = meta.chunk_size.min(meta.rows - chunk * meta.chunk_size);
            let sum = fnv1a_bytes(FNV_OFFSET, &bytes[first..first + rows * enc_row]);
            footer.extend_from_slice(&sum.to_le_bytes());
        }
        bytes.truncate(payload_end);
        bytes.extend_from_slice(&footer);
        fs::write(&path, bytes).unwrap();
    }

    #[test]
    fn version_one_and_mixed_footers_still_verify() {
        let meta = sample_meta();
        // A store of version-1 files only, then one mixing versions (hop 1
        // at version 1 between two version-2 files, as a resumed store may).
        for v1_hops in [vec![0, 1, 2], vec![1]] {
            let dir = temp_dir(&format!("v1-{}", v1_hops.len()));
            build_store(&dir);
            for &k in &v1_hops {
                restamp_as_version_one(&dir, k, &meta);
            }
            let mut store = FeatureStore::open(&dir).unwrap();
            for k in 0..3 {
                let hop = store.read_full_hop(k).unwrap();
                assert_eq!(hop.get(9, 3), (k * 1000 + 93) as f32);
            }
            // A flipped byte in a version-1 file is still located.
            let path = hop_path(&dir, 1);
            let mut bytes = fs::read(&path).unwrap();
            bytes[data_offset(meta.dtype) as usize + 6 * 16 + 2] ^= 0x01;
            fs::write(&path, bytes).unwrap();
            let mut store = FeatureStore::open(&dir).unwrap();
            let DataIoError::Corrupt(c) = store
                .read_chunk_all_hops(0, 1, AccessPath::Direct)
                .unwrap_err()
            else {
                panic!("want a checksum mismatch");
            };
            assert_eq!((c.hop, c.chunk), (Some(1), Some(1)));
            store.read_chunk_all_hops(0, 0, AccessPath::Direct).unwrap();
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn word_checksum_detects_every_single_bit_flip_and_a_word_swap() {
        // 1000 bytes: 31 four-word blocks and an 8-byte byte-wise tail.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let chunk: Vec<u8> = (0..1000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        let clean = fnv1a_words(&chunk);
        let mut flipped = chunk.clone();
        for bit in 0..chunk.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(fnv1a_words(&flipped), clean, "bit {bit} flip undetected");
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        // Words 3 and 10 (lanes 3 and 2): distinct contents, swapped.
        let mut swapped = chunk.clone();
        let (a, b) = (3 * 8, 10 * 8);
        assert_ne!(chunk[a..a + 8], chunk[b..b + 8]);
        for i in 0..8 {
            swapped.swap(a + i, b + i);
        }
        assert_ne!(fnv1a_words(&swapped), clean);
        // A length change alone moves the sum too.
        assert_ne!(fnv1a_words(&chunk[..999]), fnv1a_words(&chunk[1..]));

        // The same swap on disk is a located read error.
        let dir = temp_dir("wordswap");
        build_store(&dir);
        let path = hop_path(&dir, 2);
        let mut bytes = fs::read(&path).unwrap();
        let row4 = data_offset(StoreDtype::F32) as usize + 4 * 16;
        for i in 0..8 {
            bytes.swap(row4 + i, row4 + 24 + i);
        }
        fs::write(&path, bytes).unwrap();
        let mut store = FeatureStore::open(&dir).unwrap();
        let DataIoError::Corrupt(c) = store
            .read_chunk_all_hops(0, 1, AccessPath::Direct)
            .unwrap_err()
        else {
            panic!("want a checksum mismatch");
        };
        assert_eq!((c.hop, c.chunk), (Some(2), Some(1)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_footerless_stores_still_load_and_read() {
        let dir = temp_dir("legacy");
        build_store(&dir);
        // Strip the footers: the files end exactly at the payload, the
        // shape of every pre-revision store.
        for k in 0..3 {
            let path = dir.join(format!("hop_{k}.ppgt"));
            let bytes = fs::read(&path).unwrap();
            let keep = bytes.len() - footer_len(3) as usize;
            fs::write(&path, &bytes[..keep]).unwrap();
        }
        let mut store = FeatureStore::open(&dir).unwrap();
        let m = store.read_full_hop(2).unwrap();
        assert_eq!(m.get(9, 3), 2093.0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_writer_leaves_no_manifest_and_resume_completes() {
        let dir = temp_dir("resume");
        let meta = sample_meta();
        let hop = |k: usize| Matrix::from_fn(10, 4, |r, c| (k * 1000 + r * 10 + c) as f32);
        let mut w = FeatureStoreWriter::create(&dir, meta.clone()).unwrap();
        w.write_hop(0, &hop(0)).unwrap();
        w.write_hop(2, &hop(2)).unwrap();
        drop(w); // "crash" before hop 1 and before finish

        // No manifest yet: the directory is detectably incomplete.
        assert!(matches!(FeatureStore::open(&dir), Err(DataIoError::Io(_))));

        let mut w = FeatureStoreWriter::create_or_resume(&dir, meta.clone()).unwrap();
        assert_eq!(w.resumed_hops(), &[true, false, true]);
        w.write_hop(1, &hop(1)).unwrap();
        let mut store = w.finish().unwrap();
        for k in 0..3 {
            assert_eq!(store.read_full_hop(k).unwrap().get(9, 3), hop(k).get(9, 3));
        }

        // A journal for different geometry resumes nothing.
        let dir2 = temp_dir("resume-geom");
        let mut w = FeatureStoreWriter::create(&dir2, meta.clone()).unwrap();
        w.write_hop(0, &hop(0)).unwrap();
        drop(w);
        let other = StoreMeta {
            chunk_size: 5,
            ..meta
        };
        let w = FeatureStoreWriter::create_or_resume(&dir2, other).unwrap();
        assert_eq!(w.resumed_hops(), &[false, false, false]);
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn manifest_round_trips_and_ignores_unknown_keys() {
        let meta = sample_meta();
        let mut text = meta.manifest_text(None);
        text.push_str("future_key=whatever\n");
        let parsed = parse_meta(&text).unwrap();
        assert_eq!(parsed, meta);
        assert_eq!(parsed.num_chunks(), 3);
        assert_eq!(parsed.total_bytes(), 3 * 10 * 4 * 4);
        // The codec: blank lines skip, a repeated key's last value wins,
        // a line without `=` is malformed, and so is a zero chunk size.
        let m = Manifest::parse("a=1\n\n a=2 \n").unwrap();
        assert_eq!(m.require::<usize>("a").unwrap(), 2);
        assert_eq!(m.parse_opt::<usize>("b").unwrap(), None);
        assert!(Manifest::parse("a=1\nnot a line\n").is_err());
        let zero = text.replace("chunk_size=4", "chunk_size=0");
        assert!(matches!(
            parse_meta(&zero),
            Err(DataIoError::BadManifest(_))
        ));
    }
}
