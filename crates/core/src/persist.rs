//! Persistence of preprocessed outputs — the amortization workflow.
//!
//! The paper's central cost argument (Section 3.5 / Table 7) is that
//! preprocessing is a **one-time** cost amortized over many training runs.
//! That only works if the preprocessed hop features are saved and reloaded;
//! this module persists a whole [`PrepropOutput`] (all three partitions,
//! labels, node ids, timing, expansion metadata) to a directory and loads
//! it back bit-exactly, so hyperparameter sweeps skip the SpMM chain.
//!
//! Layout: one sub-store per partition in the Section 4.3 file-per-hop
//! format, plus `labels_<part>.ppgt` / `nodes_<part>.ppgt` sidecars (labels
//! and ids stored as 1×n f32 matrices — exact for values < 2²⁴) and a
//! `preprop.txt` manifest.

use std::fs;
use std::path::Path;
use std::sync::Arc;

use ppgnn_dataio::{commit, DataIoError, FeatureStore, FeatureStoreWriter, StoreMeta};
use ppgnn_tensor::{io as tio, Matrix};

use crate::preprocess::{ExpansionReport, PrepropFeatures, PrepropOutput};

const MANIFEST: &str = "preprop.txt";
const PARTS: [&str; 3] = ["train", "val", "test"];

/// Saves `out` under `dir` (created if needed). The `preprop.txt`
/// manifest is committed last, atomically, so an interrupted save is
/// always detectable: [`load`] fails on the missing manifest rather than
/// returning partial data.
///
/// # Errors
///
/// Propagates filesystem and store-layer failures; a partially written
/// directory is left behind for inspection (callers should treat any error
/// as "re-run preprocessing").
pub fn save(
    out: &PrepropOutput,
    dir: impl AsRef<Path>,
    chunk_size: usize,
) -> Result<(), DataIoError> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir)?;
    let mut manifest = format!(
        "version=1\npreprocess_seconds={}\nraw_bytes={}\nexpanded_bytes={}\nretained_rows={}\nnum_operators={}\nhops={}\n",
        out.preprocess_seconds,
        out.expansion.raw_bytes,
        out.expansion.expanded_bytes,
        out.expansion.retained_rows,
        out.expansion.num_operators,
        out.expansion.hops,
    );
    // Partition balance stats of partitioned runs, one colon-separated
    // line per partition (absent for single-domain runs).
    for s in &out.expansion.partitions {
        manifest.push_str(&format!(
            "partition_{}={}:{}:{}:{}:{}\n",
            s.partition, s.rows, s.nnz, s.ghost_rows, s.train_rows, s.store_bytes
        ));
    }
    // Run telemetry (per-hop timings, writer backpressure), so the
    // report round-trips exactly; absent in pre-telemetry manifests.
    let t = &out.expansion.telemetry;
    if !t.hop_ns.is_empty() {
        let hop_ns: Vec<String> = t.hop_ns.iter().map(u64::to_string).collect();
        manifest.push_str(&format!("telemetry_hop_ns={}\n", hop_ns.join(":")));
    }
    manifest.push_str(&format!(
        "telemetry_writer={}:{}\n",
        t.writer_queue_hwm, t.writer_block_ns
    ));
    for (part, features) in PARTS.iter().zip([&out.train, &out.val, &out.test]) {
        save_partition(features, dir, part, chunk_size)?;
    }
    // The manifest is the commit point: written last, atomically, so an
    // interrupted save never leaves a manifest pointing at incomplete
    // partition stores.
    commit::write_bytes_atomic("manifest", &dir.join(MANIFEST), manifest.as_bytes())?;
    Ok(())
}

fn save_partition(
    f: &PrepropFeatures,
    dir: &Path,
    part: &str,
    chunk_size: usize,
) -> Result<(), DataIoError> {
    let rows = f.len();
    let cols = f.hops.first().map(|h| h.cols()).unwrap_or(0);
    let meta = StoreMeta {
        dataset: part.to_string(),
        num_hops: f.hops.len(),
        rows,
        cols,
        chunk_size: chunk_size.max(1),
        // Persisted outputs exist to reload **bit-exactly** (the whole
        // point of amortization), so they are always lossless f32
        // regardless of `PPGNN_STORE_DTYPE`.
        dtype: ppgnn_dataio::StoreDtype::F32,
    };
    let sub = dir.join(part);
    let mut writer = FeatureStoreWriter::create(&sub, meta)?;
    for (k, hop) in f.hops.iter().enumerate() {
        writer.write_hop(k, hop)?;
    }
    writer.finish()?;
    let labels = Matrix::from_fn(1, rows, |_, c| f.labels[c] as f32);
    let nodes = Matrix::from_fn(1, rows, |_, c| f.node_ids[c] as f32);
    write_sidecar(&sub.join("labels.ppgt"), &labels)?;
    write_sidecar(&sub.join("nodes.ppgt"), &nodes)?;
    Ok(())
}

fn write_sidecar(path: &Path, m: &Matrix) -> Result<(), DataIoError> {
    let mut buf = Vec::new();
    tio::write_matrix(&mut buf, m).map_err(|e| DataIoError::Io(e.to_string()))?;
    commit::write_bytes_atomic("sidecar", path, &buf)
}

fn read_sidecar(path: &Path) -> Result<Matrix, DataIoError> {
    let mut f = fs::File::open(path)?;
    tio::read_matrix(&mut f)
        .map_err(|e| ppgnn_dataio::CorruptError::new(e.to_string()).with_path(path))
        .map_err(DataIoError::from)
}

/// Loads a [`PrepropOutput`] previously written by [`save`].
///
/// # Errors
///
/// Fails on missing/corrupt manifest, stores, or sidecars.
pub fn load(dir: impl AsRef<Path>) -> Result<PrepropOutput, DataIoError> {
    let dir = dir.as_ref();
    let text = fs::read_to_string(dir.join(MANIFEST))
        .map_err(|e| DataIoError::Io(format!("{}: {e}", dir.display())))?;
    let field = |key: &str| -> Result<f64, DataIoError> {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("{key}=")))
            .ok_or_else(|| DataIoError::BadManifest(format!("missing {key}")))?
            .parse::<f64>()
            .map_err(|_| DataIoError::BadManifest(format!("bad {key}")))
    };
    let preprocess_seconds = field("preprocess_seconds")?;
    let mut parts = Vec::with_capacity(3);
    for part in PARTS {
        parts.push(load_partition(dir, part)?);
    }
    // Manifests written before the retained-rows key derive it from the
    // loaded partitions (the value the report is defined to equal anyway);
    // a *present but malformed* value still fails like any other field.
    let retained_rows = if text.lines().any(|l| l.starts_with("retained_rows=")) {
        field("retained_rows")? as u64
    } else {
        parts.iter().map(|p| p.len() as u64).sum()
    };
    let mut partitions = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("partition_") else {
            continue;
        };
        let Some((idx, values)) = rest.split_once('=') else {
            continue;
        };
        let bad = || DataIoError::BadManifest(format!("bad partition line: {line}"));
        let partition = idx.parse::<usize>().map_err(|_| bad())?;
        let nums = values
            .split(':')
            .map(|v| v.parse::<u64>().map_err(|_| bad()))
            .collect::<Result<Vec<u64>, _>>()?;
        let [rows, nnz, ghost_rows, train_rows, store_bytes] = nums[..] else {
            return Err(bad());
        };
        partitions.push(ppgnn_partition::PartitionStat {
            partition,
            rows: rows as usize,
            nnz: nnz as usize,
            ghost_rows: ghost_rows as usize,
            train_rows: train_rows as usize,
            store_bytes,
        });
    }
    // Telemetry lines are optional (absent in pre-telemetry manifests —
    // the report then carries the empty default), but a present-yet-
    // malformed value is corruption, like any other field.
    let mut telemetry = crate::preprocess::PrepTelemetry::default();
    if let Some(v) = text
        .lines()
        .find_map(|l| l.strip_prefix("telemetry_hop_ns="))
    {
        telemetry.hop_ns = v
            .split(':')
            .map(|s| {
                s.parse::<u64>()
                    .map_err(|_| DataIoError::BadManifest("bad telemetry_hop_ns".into()))
            })
            .collect::<Result<Vec<u64>, _>>()?;
    }
    if let Some(v) = text
        .lines()
        .find_map(|l| l.strip_prefix("telemetry_writer="))
    {
        let bad = || DataIoError::BadManifest("bad telemetry_writer".into());
        let (hwm, block) = v.split_once(':').ok_or_else(bad)?;
        telemetry.writer_queue_hwm = hwm.parse().map_err(|_| bad())?;
        telemetry.writer_block_ns = block.parse().map_err(|_| bad())?;
    }
    let expansion = ExpansionReport {
        raw_bytes: field("raw_bytes")? as u64,
        expanded_bytes: field("expanded_bytes")? as u64,
        retained_rows,
        num_operators: field("num_operators")? as usize,
        hops: field("hops")? as usize,
        partitions,
        telemetry,
    };
    let mut it = parts.into_iter();
    Ok(PrepropOutput {
        train: it.next().expect("three partitions"),
        val: it.next().expect("three partitions"),
        test: it.next().expect("three partitions"),
        preprocess_seconds,
        expansion,
    })
}

fn load_partition(dir: &Path, part: &str) -> Result<PrepropFeatures, DataIoError> {
    let sub = dir.join(part);
    let mut store = FeatureStore::open(&sub)?;
    let num_hops = store.meta().num_hops;
    let mut hops = Vec::with_capacity(num_hops);
    for k in 0..num_hops {
        hops.push(Arc::new(store.read_full_hop(k)?));
    }
    let labels = read_sidecar(&sub.join("labels.ppgt"))?;
    let nodes = read_sidecar(&sub.join("nodes.ppgt"))?;
    Ok(PrepropFeatures {
        hops,
        labels: labels.as_slice().iter().map(|&v| v as u32).collect(),
        node_ids: nodes.as_slice().iter().map(|&v| v as usize).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::Preprocessor;
    use ppgnn_graph::synth::{DatasetProfile, SynthDataset};
    use ppgnn_graph::Operator;

    fn temp(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("ppgnn-persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn save_load_round_trip_is_exact() {
        let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.02), 3).unwrap();
        let out = Preprocessor::new(vec![Operator::SymNorm], 2).run(&data);
        let dir = temp("roundtrip");
        save(&out, &dir, 64).unwrap();
        let loaded = load(&dir).unwrap();
        assert_eq!(loaded.train.labels, out.train.labels);
        assert_eq!(loaded.val.node_ids, out.val.node_ids);
        assert_eq!(loaded.expansion, out.expansion);
        for (a, b) in loaded.train.hops.iter().zip(&out.train.hops) {
            assert_eq!(a, b, "hop features changed across persistence");
        }
        for (a, b) in loaded.test.hops.iter().zip(&out.test.hops) {
            assert_eq!(a, b);
        }
        assert!((loaded.preprocess_seconds - out.preprocess_seconds).abs() < 1e-9);
        // Pre-retained-rows manifests load too: the value is re-derived
        // from the partitions.
        let manifest_path = dir.join("preprop.txt");
        let text = fs::read_to_string(&manifest_path).unwrap();
        let stripped: String = text
            .lines()
            .filter(|l| !l.starts_with("retained_rows="))
            .map(|l| format!("{l}\n"))
            .collect();
        fs::write(&manifest_path, stripped).unwrap();
        let legacy = load(&dir).unwrap();
        assert_eq!(legacy.expansion, out.expansion);
        // Pre-telemetry manifests load too, carrying the empty default.
        let text = fs::read_to_string(&manifest_path).unwrap();
        let no_telemetry: String = text
            .lines()
            .filter(|l| !l.starts_with("telemetry_"))
            .map(|l| format!("{l}\n"))
            .collect();
        fs::write(&manifest_path, no_telemetry).unwrap();
        let pre_telemetry = load(&dir).unwrap();
        assert_eq!(
            pre_telemetry.expansion.telemetry,
            crate::preprocess::PrepTelemetry::default()
        );
        // A present-but-malformed value is corruption, not a legacy
        // manifest: it must fail like any other field.
        let mut corrupted = fs::read_to_string(&manifest_path).unwrap();
        corrupted.push_str("retained_rows=garbage\n");
        fs::write(&manifest_path, corrupted).unwrap();
        assert!(matches!(load(&dir), Err(DataIoError::BadManifest(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loaded_output_trains_identically() {
        use crate::trainer::{LoaderKind, TrainConfig, Trainer};
        use ppgnn_models::Sgc;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.02), 4).unwrap();
        let out = Preprocessor::new(vec![Operator::SymNorm], 1).run(&data);
        let dir = temp("train");
        save(&out, &dir, 32).unwrap();
        let loaded = load(&dir).unwrap();

        let run = |prep: &PrepropOutput| {
            let mut model = Sgc::new(
                1,
                data.profile.feature_dim,
                2,
                &mut StdRng::seed_from_u64(1),
            );
            let mut t = Trainer::new(TrainConfig {
                epochs: 3,
                batch_size: 64,
                loader: LoaderKind::Fused,
                ..TrainConfig::default()
            });
            t.fit(&mut model, prep).unwrap().test_acc
        };
        assert_eq!(run(&out), run(&loaded));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_fails_cleanly() {
        let dir = temp("missing");
        fs::create_dir_all(&dir).unwrap();
        assert!(matches!(load(&dir), Err(DataIoError::Io(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_partition_fails_cleanly() {
        let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.015), 5).unwrap();
        let out = Preprocessor::new(vec![Operator::SymNorm], 1).run(&data);
        let dir = temp("corrupt");
        save(&out, &dir, 32).unwrap();
        fs::remove_file(dir.join("val").join("labels.ppgt")).unwrap();
        assert!(load(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
