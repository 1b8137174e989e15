//! Tour of the automated training-configuration system (Section 5).
//!
//! Walks all six benchmark profiles at **paper scale** against the paper's
//! A6000 server, printing the plan each would get, then demonstrates the
//! storage path end-to-end at laptop scale: preprocess → write the
//! file-per-hop store → train from disk with chunk reshuffling.
//!
//! Run with: `cargo run --release --example autoconfig_tour`

use ppgnn_core::autoconf::{probe_model_peak_bytes, AutoConfig};
use ppgnn_core::bridge::{expanded_input_bytes, WorkloadScale};
use ppgnn_core::loader::{Loader, ShardedStorageChunkLoader};
use ppgnn_core::preprocess::Preprocessor;
use ppgnn_dataio::AccessPath;
use ppgnn_graph::synth::{DatasetProfile, SynthDataset};
use ppgnn_graph::Operator;
use ppgnn_memsim::HardwareSpec;
use ppgnn_models::{PpModel, Sign};
use ppgnn_nn::{CrossEntropyLoss, Mode, Optimizer, Sgd};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let server = HardwareSpec::a6000_server();
    let cfg = AutoConfig::default();
    let hops = 3;
    let probe = probe_model_peak_bytes(3_000_000, 8000, 4096);

    println!("automated configuration at paper scale (4x A6000, 380 GB host):");
    println!(
        "{:<18} {:>14} {:>10} {:>8}  reason",
        "dataset", "input", "placement", "method"
    );
    for profile in DatasetProfile::all_profiles() {
        let bytes = expanded_input_bytes(&profile, hops, 1, WorkloadScale::Paper);
        let plan = cfg.plan(&server, bytes, probe);
        println!(
            "{:<18} {:>11.1} GB {:>10} {:>8}  {}",
            profile.name,
            bytes as f64 / 1e9,
            plan.placement.name(),
            plan.method.name(),
            &plan.reason[..plan.reason.len().min(60)],
        );
    }

    // --- storage path demo, end to end, for real ---
    println!("\nstorage-path demo (igb-large analog at laptop scale):");
    let profile = DatasetProfile::igb_large_sim().scaled(0.02);
    let data = SynthDataset::generate(profile, 9)?;
    let dir = std::env::temp_dir().join(format!("ppgnn-tour-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let prep = Preprocessor::new(vec![Operator::SymNorm], hops);
    let (prep, store) = prep.run_with_sharded_store(&data, &dir, profile.name, 128)?;
    println!(
        "  wrote {} hop files ({:.1} MB) to {}",
        hops + 1,
        prep.expansion.expanded_bytes as f64 / 1e6,
        dir.display()
    );

    let labels = prep.train.labels.clone();
    let mut loader = ShardedStorageChunkLoader::new(store, labels, 256, AccessPath::Direct, 4);
    let mut rng = StdRng::seed_from_u64(1);
    let mut model = Sign::new(
        hops,
        profile.feature_dim,
        32,
        profile.num_classes,
        0.1,
        &mut rng,
    );
    let mut opt = Sgd::with_options(0.01, 0.9, 0.0);
    for epoch in 0..3 {
        loader.start_epoch();
        let mut loss_sum = 0.0f64;
        let mut batches = 0;
        while let Some(batch) = loader.next_batch() {
            let logits = model.forward(&batch.hops, Mode::Train);
            let (loss, grad) = CrossEntropyLoss.loss_and_grad(&logits, &batch.labels);
            model.zero_grad();
            model.backward(&grad);
            opt.step(&mut model.params());
            loss_sum += loss as f64;
            batches += 1;
        }
        // A drained epoch is only complete if no storage error ended it.
        if let Some(err) = loader.take_error() {
            return Err(format!("storage loader failed mid-epoch: {err}").into());
        }
        let io = loader.io_counters();
        println!(
            "  epoch {epoch}: loss {:.3} | {} sequential reads, {} random reads, {:.1} MB from disk",
            loss_sum / batches as f64,
            io.seq_requests,
            io.rand_requests,
            io.total_bytes() as f64 / 1e6,
        );
    }
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
