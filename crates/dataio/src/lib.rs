//! On-disk feature store for preprocessed hop features: one reader, one
//! writer, one manifest codec.
//!
//! Implements the storage layout of Section 4.3: **one file per (operator,
//! hop)** so parallel read requests can target different files, row-major
//! payloads so a contiguous row range *is* a chunk, and two read paths:
//!
//! * [`AccessPath::Direct`] — the GPUDirect-Storage analog: chunk reads go
//!   "straight to the device buffer" (one read syscall, no bounce copy);
//! * [`AccessPath::HostBounce`] — the conventional path through a host
//!   staging buffer (an extra memcpy per read, which the I/O counters
//!   expose).
//!
//! The crate is cut in three layers:
//!
//! * **logic** — [`FeatureStore`], the one public reader. It opens any
//!   store directory: a partitioned root (`sharded.txt` over `part_<p>/`
//!   directories) as P partitions, a plain directory (`manifest.txt`) as
//!   one partition with the identity row map. Reads address **global**
//!   rows and update its [`IoCounters`] — sequential vs random request
//!   counts and byte volumes, what separates chunk reshuffling from
//!   SGD-RR on storage.
//! * **codec** — the hop-file formats (`PPGT` for `f32`, `PPGQ` for the
//!   compressed dtypes) with their per-chunk checksum footers, and
//!   [`Manifest`], the one `key=value` parser behind `manifest.txt`,
//!   `sharded.txt` and the persisted-output manifest.
//! * **phy** — files: the atomic-commit funnel and completed-units journal
//!   in [`commit`], and the deterministic [`fault`] injection sites
//!   (`PPGNN_FAULTS`).
//!
//! Writes go through [`StoreWriter`]: one writer thread behind one bounded
//! queue of `(partition, hop)` units drives a synchronous
//! [`FeatureStoreWriter`] per partition directory, so the preprocessor's
//! hop `r + 1` diffusion overlaps hop `r` persistence. Stores are
//! crash-safe: every file lands atomically (temp + fsync + rename,
//! manifests last as the commit points), hop payloads carry per-chunk
//! checksums verified on first read, and writers journal completed hops
//! for resume.

#![deny(missing_docs)]

pub mod commit;
mod error;
pub mod fault;
mod sharded;
mod store;
mod writer;

pub use error::{CorruptError, DataIoError};
pub use ppgnn_tensor::StoreDtype;
pub use sharded::{FeatureStore, ShardedFeatureStore};
pub use store::{AccessPath, FeatureStoreWriter, IoCounters, Manifest, StoreMeta};
pub use writer::{StoreWriter, WriterStats, DEFAULT_WRITER_QUEUE};
