//! An unknown `PPGNN_STORE_DTYPE` is an error, not a panic.
//!
//! Its own test binary: the test sets a process-wide environment variable
//! that every store-writing test elsewhere reads.

use ppgnn_core::preprocess::Preprocessor;
use ppgnn_dataio::{DataIoError, StoreDtype};
use ppgnn_graph::synth::{DatasetProfile, SynthDataset};
use ppgnn_graph::Operator;
use ppgnn_tensor::knobs::STORE_DTYPE;

#[test]
fn unknown_store_dtype_knob_is_an_error_before_diffusion() {
    let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.015), 5).unwrap();
    let dir = std::env::temp_dir().join(format!("ppgnn-it-dtype-knob-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var(STORE_DTYPE, "f64");

    let err = StoreDtype::from_env().expect_err("f64 is no store dtype");
    assert!(err.contains(STORE_DTYPE) && err.contains("f64"), "{err}");

    let prep = Preprocessor::new(vec![Operator::SymNorm], 1);
    match prep.run_with_sharded_store(&data, &dir, "pokec-sim", 16) {
        Err(DataIoError::BadKnob(msg)) => {
            assert!(msg.contains(STORE_DTYPE) && msg.contains("f64"), "{msg}");
        }
        other => panic!("expected a bad-knob error, got {other:?}"),
    }
    assert!(!dir.exists(), "no store is created for a rejected knob");

    // A pinned dtype never consults the knob.
    let (_, store) = prep
        .with_store_dtype(StoreDtype::F16)
        .run_with_sharded_store(&data, &dir, "pokec-sim", 16)
        .expect("a pinned dtype ignores the knob");
    assert_eq!(store.meta().dtype, StoreDtype::F16);
    std::env::remove_var(STORE_DTYPE);
    std::fs::remove_dir_all(&dir).unwrap();
}
