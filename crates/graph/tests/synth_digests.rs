//! Bit-exact pins of dataset synthesis.
//!
//! Each test generates one small profile — serial and with the feature
//! fill forced onto the pool — and compares an FNV-1a digest of every
//! feature bit pattern, the labels, both CSR arrays and the split against
//! a recorded value. How the generator's stream is cut across threads
//! must not change a single value: every profile here spans several
//! fill blocks and ends on a short one.

use ppgnn_graph::synth::{DatasetProfile, SynthDataset};

/// FNV-1a over the little-endian bytes of every word fed to it.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, vs: impl IntoIterator<Item = u64>) {
        let mut len = 0u64;
        for v in vs {
            self.word(v);
            len += 1;
        }
        self.word(len);
    }
}

fn dataset_digest(profile: DatasetProfile, seed: u64) -> u64 {
    let data = SynthDataset::generate(profile, seed).expect("generation succeeds");
    let mut d = Digest::new();
    d.word(data.features.rows() as u64);
    d.word(data.features.cols() as u64);
    d.words(
        data.features
            .as_slice()
            .iter()
            .map(|v| u64::from(v.to_bits())),
    );
    d.words(data.labels.iter().map(|&l| u64::from(l)));
    d.words(data.graph.indptr().iter().map(|&i| i as u64));
    d.words(data.graph.indices().iter().map(|&i| u64::from(i)));
    for part in [&data.split.train, &data.split.val, &data.split.test] {
        d.words(part.iter().map(|&i| i as u64));
    }
    d.0
}

/// Generates serial and pooled; both must produce `expect`.
fn at_both_thresholds(profile: DatasetProfile, seed: u64, expect: u64) {
    for threshold in [usize::MAX, 0] {
        ppgnn_tensor::set_parallel_threshold(threshold);
        let got = dataset_digest(profile, seed);
        ppgnn_tensor::set_parallel_threshold(ppgnn_tensor::pool::DEFAULT_PARALLEL_THRESHOLD);
        assert_eq!(
            got, expect,
            "{}: digest {got:#018x} (threshold {threshold}) != recorded {expect:#018x}",
            profile.name
        );
    }
}

#[test]
fn igb_medium_synthesis_is_pinned() {
    // F = 1024: 200 rows, three full 64-row blocks and a short one.
    at_both_thresholds(
        DatasetProfile::igb_medium_sim().scaled(0.005),
        11,
        0x4e12_2bad_28ac_5994,
    );
}

#[test]
fn products_synthesis_is_pinned() {
    // F = 100, 47 classes, 240 rows.
    at_both_thresholds(
        DatasetProfile::products_sim().scaled(0.01),
        12,
        0xfb4f_e873_5d22_6c0a,
    );
}

#[test]
fn papers100m_synthesis_is_pinned() {
    // F = 128, 1.4 % labeled, 600 rows.
    at_both_thresholds(
        DatasetProfile::papers100m_sim().scaled(0.005),
        13,
        0x0676_8bb3_45cf_652d,
    );
}
