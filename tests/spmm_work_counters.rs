//! A traced preprocessing run counts its diffusion work exactly: the
//! telemetry's `spmm.madds` is `K·R·nnz·F` for `K` operators of one
//! sparsity over `R` hops, whichever way the hops were sharded.
//!
//! One test in its own binary: the counters are process-wide, so nothing
//! else may run an SpMM while the run is measured.

use preprop_gnn::core::preprocess::Preprocessor;
use preprop_gnn::graph::synth::{DatasetProfile, SynthDataset};
use preprop_gnn::graph::Operator;
use preprop_gnn::telemetry;

fn counter(name: &str) -> u64 {
    telemetry::counters_snapshot()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, v)| v)
}

#[test]
fn traced_preprocessing_counts_every_diffusion_madd() {
    const HOPS: usize = 3;
    let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.02), 5)
        .expect("generation succeeds");
    let operators = vec![Operator::SymNorm, Operator::RowNorm];
    // Both operators add self loops to the same graph: one sparsity.
    let nnz = Operator::SymNorm.base(&data.graph).nnz();
    assert_eq!(Operator::RowNorm.base(&data.graph).nnz(), nnz);
    let f = data.profile.feature_dim;

    telemetry::set_enabled(true);
    let (calls, madds) = (counter("spmm.calls"), counter("spmm.madds"));
    let out = Preprocessor::new(operators.clone(), HOPS).run(&data);
    let (calls, madds) = (counter("spmm.calls") - calls, counter("spmm.madds") - madds);
    telemetry::set_enabled(false);

    assert!(!out.train.is_empty());
    let expected = (operators.len() * HOPS * nnz * f) as u64;
    assert_eq!(
        madds,
        expected,
        "spmm.madds must be K·R·nnz·F = {} · {HOPS} · {nnz} · {f}",
        operators.len()
    );
    // One call per row slice: at least one per operator and hop.
    assert!(
        calls >= (operators.len() * HOPS) as u64,
        "{calls} SpMM calls for {} operator hops",
        operators.len() * HOPS
    );
}
