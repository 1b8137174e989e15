//! Partition layout table: how a sharded store splits a skewed graph's
//! training rows across partition stores — rows, nnz share, the ghost rows
//! a partition-local diffusion would need, training rows, and store bytes
//! per partition — for both partitioner strategies. Diffusion itself is the
//! single-domain engine's whatever the layout, so there is no timing to
//! compare.
//!
//! Partition counts come from the command line (default: 2 and 4).
//!
//! Run with: `cargo run --release -p ppgnn-bench --bin exp_partition_table [P ...]`

use ppgnn_bench::{print_markdown_table, HARNESS_SCALE};
use ppgnn_core::preprocess::Preprocessor;
use ppgnn_graph::synth::{DatasetProfile, SynthDataset};
use ppgnn_graph::{BfsGrowPartitioner, Operator, Partitioner, RangeCutPartitioner};

fn main() {
    let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(HARNESS_SCALE), 42)
        .expect("generation succeeds");
    let prep = Preprocessor::new(vec![Operator::SymNorm, Operator::RowNorm], 3);

    let mut part_counts: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| match a.parse::<usize>() {
            Ok(p) if p >= 1 => p,
            _ => {
                eprintln!("usage: exp_partition_table [P ...]  (partition counts >= 1, got {a:?})");
                std::process::exit(2);
            }
        })
        .collect();
    if part_counts.is_empty() {
        part_counts = vec![2, 4];
    }

    println!("## Partition layout — pokec-sim, K=2 (sym + rw), R=3\n");

    let partitioners: [&dyn Partitioner; 2] = [&RangeCutPartitioner, &BfsGrowPartitioner];
    for partitioner in partitioners {
        for &parts in &part_counts {
            let dir = std::env::temp_dir().join(format!(
                "ppgnn-exp-partition-{}-{parts}-{}",
                partitioner.name(),
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let (out, _store) = prep
                .clone()
                .with_num_partitions(parts)
                .run_with_sharded_store_using(
                    &data,
                    partitioner,
                    &dir,
                    "pokec-sim",
                    256,
                    ppgnn_tensor::pool(),
                )
                .expect("sharded-store preprocessing succeeds");
            let stats = &out.expansion.partitions;
            println!(
                "### {} @ P={parts} — {} ghost rows/hop\n",
                partitioner.name(),
                stats.iter().map(|s| s.ghost_rows).sum::<usize>(),
            );
            let total_nnz: usize = stats.iter().map(|s| s.nnz).sum();
            let rows: Vec<Vec<String>> = stats
                .iter()
                .map(|s| {
                    vec![
                        s.partition.to_string(),
                        s.rows.to_string(),
                        format!(
                            "{} ({:.1}%)",
                            s.nnz,
                            100.0 * s.nnz as f64 / total_nnz as f64
                        ),
                        format!(
                            "{} ({:.1}% of rows)",
                            s.ghost_rows,
                            100.0 * s.ghost_rows as f64 / s.rows.max(1) as f64
                        ),
                        s.train_rows.to_string(),
                        format!("{:.2} MB", s.store_bytes as f64 / 1e6),
                    ]
                })
                .collect();
            print_markdown_table(
                &[
                    "partition",
                    "rows",
                    "nnz (share)",
                    "ghost rows (overhead)",
                    "train rows",
                    "store bytes",
                ],
                &rows,
            );
            println!();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    println!("ghost rows are what a partition-local diffusion would fetch every hop —");
    println!("the measurement that would justify a partition-parallel engine; nnz share");
    println!("is the balance the cut achieved.");
}
