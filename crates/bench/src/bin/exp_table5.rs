//! Table 5: IGB-large — input past host memory, storage-resident training.
//! Functional plane: real training *through the on-disk store* at analog
//! scale. Performance plane: paper-scale throughput (epoch/hour) for
//! GPUDirect chunked PP-GNNs vs storage-based MP-GNN systems.
//!
//! Run with: `cargo run --release -p ppgnn-bench --bin exp_table5`

use ppgnn_bench::exp::{make_sage, make_sampler, measured_mp_workload, paper_pp_workload, server};
use ppgnn_bench::print_markdown_table;
use ppgnn_core::loader::{Loader, ShardedStorageChunkLoader};
use ppgnn_core::preprocess::Preprocessor;
use ppgnn_core::trainer::evaluate;
use ppgnn_dataio::{AccessPath, FeatureStore};
use ppgnn_graph::synth::{DatasetProfile, SynthDataset};
use ppgnn_graph::Operator;
use ppgnn_memsim::{mp_epoch, pp_epoch, LoaderGen, MpSystem, Placement};
use ppgnn_models::{Hoga, MpModel, PpModel, Sign};
use ppgnn_nn::{Adam, CrossEntropyLoss, Mode, Optimizer};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let paper = DatasetProfile::igb_large_sim();
    let spec = server();
    let hops = 3;
    println!("## Table 5 — igb-large: storage-resident training\n");

    // --- functional plane: real training from the on-disk store ---
    let profile = paper.scaled(0.05);
    let data = SynthDataset::generate(profile, 42).expect("dataset generation succeeds");
    let dir = std::env::temp_dir().join(format!("ppgnn-t5-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (prep, _) = Preprocessor::new(vec![Operator::SymNorm], hops)
        .run_with_sharded_store(&data, &dir, profile.name, 256)
        .expect("store written");

    let mut rows = Vec::new();
    let f = profile.feature_dim;
    let c = profile.num_classes;
    let mut rng = StdRng::seed_from_u64(6);
    let mut entries: Vec<(&str, Box<dyn PpModel>)> = vec![
        ("SIGN", Box::new(Sign::new(hops, f, 48, c, 0.1, &mut rng))),
        (
            "HOGA",
            Box::new(Hoga::new(hops, f, 48, 4, c, 0.1, &mut rng)),
        ),
    ];
    for (name, model) in entries.iter_mut() {
        // Train 6 epochs *from disk* with chunk reshuffling.
        let store = FeatureStore::open(&dir).expect("store reopens");
        let labels = prep.train.labels.clone();
        let mut loader = ShardedStorageChunkLoader::new(store, labels, 256, AccessPath::Direct, 3);
        let mut opt = Adam::new(3e-3);
        for _ in 0..6 {
            loader.start_epoch();
            while let Some(batch) = loader.next_batch() {
                let logits = model.forward(&batch.hops, Mode::Train);
                let (_, grad) = CrossEntropyLoss.loss_and_grad(&logits, &batch.labels);
                model.zero_grad();
                model.backward(&grad);
                opt.step(&mut model.params());
            }
            // The storage loader parks I/O errors instead of panicking; a
            // silently truncated epoch would corrupt the table's numbers.
            if let Some(err) = loader.take_error() {
                panic!("storage loader failed mid-epoch: {err}");
            }
        }
        let acc = evaluate(model.as_mut(), &prep.test, 256);
        let io = loader.io_counters();

        // paper-scale throughput: GDS chunked reads
        let w = paper_pp_workload(&paper, model.as_ref());
        let t = pp_epoch(&spec, &w, LoaderGen::ChunkReshuffle, Placement::Ssd).epoch_time;
        rows.push(vec![
            name.to_string(),
            "Ours (GDS+CR)".into(),
            format!("{:.1}", 100.0 * acc),
            format!("{:.1}", 3600.0 / t),
            format!("{} seq / {} rand reads", io.seq_requests, io.rand_requests),
        ]);
    }

    // --- MP baselines: storage-based systems, simulated ---
    let probe = SynthDataset::generate(paper.scaled(0.1), 1).expect("generation succeeds");
    let mut sampler = make_sampler("neighbor", hops, 2);
    let sage: Box<dyn MpModel> = Box::new(make_sage(hops, &profile, 2));
    let mp_w = measured_mp_workload(&paper, &probe, sampler.as_mut(), sage.as_ref(), 3);
    for (system, label) in [
        (
            MpSystem::Storage {
                cache_hit_rate: 0.3,
            },
            "SAGE (DGL-mmap)",
        ),
        (
            MpSystem::Storage {
                cache_hit_rate: 0.7,
            },
            "SAGE (Ginex)",
        ),
    ] {
        let t = mp_epoch(&spec, &mp_w, system).epoch_time;
        rows.push(vec![
            "SAGE".into(),
            label.into(),
            "-".into(),
            format!("{:.2}", 3600.0 / t),
            "-".into(),
        ]);
    }
    print_markdown_table(
        &[
            "model",
            "system",
            "test acc % (analog)",
            "epoch/hour (paper scale)",
            "io pattern",
        ],
        &rows,
    );
    std::fs::remove_dir_all(&dir).ok();
    println!("\nshape check: chunked GDS PP-GNNs reach order-of-magnitude higher");
    println!("storage-resident throughput than sampling-based systems (paper: up to 42x),");
    println!("and the real storage path issues zero random reads.");
}
