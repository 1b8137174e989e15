//! Hyperparameter sweeps over a single preprocessing run.
//!
//! The paper's amortization argument (Section 3.5): "hyper-parameter tuning
//! may require tens or even hundreds of runs", so the one-time
//! pre-propagation cost vanishes in the denominator. This module is that
//! workflow as an API — preprocess once (or [`crate::persist::load`] from
//! disk), then fan a configuration grid over the shared [`PrepropOutput`],
//! reporting per-configuration accuracy alongside the amortized
//! preprocessing share.

use ppgnn_models::PpModel;

use crate::preprocess::PrepropOutput;
use crate::trainer::{TrainConfig, TrainError, Trainer};

/// One grid point and its outcome.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The configuration trained.
    pub config: TrainConfig,
    /// Best validation accuracy reached.
    pub val_acc: f64,
    /// Test accuracy at the best-validation epoch.
    pub test_acc: f64,
    /// Wall-clock training seconds for this run.
    pub train_seconds: f64,
}

/// Outcome of a sweep: per-run results plus the amortization accounting.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// One entry per grid point, in input order.
    pub results: Vec<SweepResult>,
    /// Preprocessing seconds being amortized (from the shared output).
    pub preprocess_seconds: f64,
}

impl SweepReport {
    /// The best result by validation accuracy.
    pub fn best(&self) -> Option<&SweepResult> {
        self.results.iter().max_by(|a, b| {
            a.val_acc
                .partial_cmp(&b.val_acc)
                .expect("accuracies are finite")
        })
    }

    /// Preprocessing cost as a fraction of the *total* sweep compute — the
    /// amortized Table 7 quantity (shrinks as the grid grows).
    pub fn amortized_preprocess_fraction(&self) -> f64 {
        let train: f64 = self.results.iter().map(|r| r.train_seconds).sum();
        if train + self.preprocess_seconds == 0.0 {
            return 0.0;
        }
        self.preprocess_seconds / (train + self.preprocess_seconds)
    }
}

/// Runs every `(config, model)` pair against the shared preprocessed
/// features. The model factory is invoked once per grid point so each run
/// starts from a fresh initialization.
///
/// # Errors
///
/// Propagates the first training failure (empty train set).
pub fn run_sweep(
    prep: &PrepropOutput,
    configs: &[TrainConfig],
    mut make_model: impl FnMut(&TrainConfig) -> Box<dyn PpModel>,
) -> Result<SweepReport, TrainError> {
    let mut results = Vec::with_capacity(configs.len());
    for config in configs {
        let mut model = make_model(config);
        let start = std::time::Instant::now();
        let mut trainer = Trainer::new(*config);
        let report = trainer.fit(model.as_mut(), prep)?;
        results.push(SweepResult {
            config: *config,
            val_acc: report.best_val_acc,
            test_acc: report.test_acc,
            train_seconds: start.elapsed().as_secs_f64(),
        });
    }
    Ok(SweepReport {
        results,
        preprocess_seconds: prep.preprocess_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::Preprocessor;
    use crate::trainer::LoaderKind;
    use ppgnn_graph::synth::{DatasetProfile, SynthDataset};
    use ppgnn_graph::Operator;
    use ppgnn_models::Sgc;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grid() -> Vec<TrainConfig> {
        [1e-2f32, 3e-3]
            .iter()
            .map(|&lr| TrainConfig {
                epochs: 4,
                batch_size: 64,
                lr,
                loader: LoaderKind::DoubleBuffer,
                ..TrainConfig::default()
            })
            .collect()
    }

    #[test]
    fn sweep_trains_every_grid_point_and_finds_a_best() {
        let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.02), 8).unwrap();
        let prep = Preprocessor::new(vec![Operator::SymNorm], 1).run(&data);
        let report = run_sweep(&prep, &grid(), |_| {
            Box::new(Sgc::new(
                1,
                data.profile.feature_dim,
                2,
                &mut StdRng::seed_from_u64(0),
            ))
        })
        .unwrap();
        assert_eq!(report.results.len(), 2);
        let best = report.best().expect("non-empty sweep");
        assert!(best.val_acc >= report.results[0].val_acc.min(report.results[1].val_acc));
        assert!(report.results.iter().all(|r| r.train_seconds > 0.0));
    }

    #[test]
    fn amortized_fraction_shrinks_with_grid_size() {
        // Each grid point adds its own (positive) training seconds to the
        // denominator, so every longer prefix of one sweep amortizes the
        // shared preprocessing further. Prefixes of one sweep, not two
        // sweeps: a run here takes well under a millisecond, and a thread
        // descheduled during a one-run sweep would outweigh six runs.
        let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.02), 9).unwrap();
        let prep = Preprocessor::new(vec![Operator::SymNorm], 1).run(&data);
        let make = |_: &TrainConfig| -> Box<dyn PpModel> {
            Box::new(Sgc::new(
                1,
                data.profile.feature_dim,
                2,
                &mut StdRng::seed_from_u64(0),
            ))
        };
        let big_grid: Vec<TrainConfig> = grid().into_iter().cycle().take(6).collect();
        let big = run_sweep(&prep, &big_grid, make).unwrap();
        assert!(big.preprocess_seconds > 0.0);
        let fractions: Vec<f64> = (1..=big.results.len())
            .map(|runs| {
                SweepReport {
                    results: big.results[..runs].to_vec(),
                    preprocess_seconds: big.preprocess_seconds,
                }
                .amortized_preprocess_fraction()
            })
            .collect();
        assert!(
            fractions.windows(2).all(|w| w[1] < w[0]),
            "amortization should improve with more runs: {fractions:?}"
        );
    }

    #[test]
    fn empty_grid_is_fine() {
        let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.015), 10).unwrap();
        let prep = Preprocessor::new(vec![Operator::SymNorm], 1).run(&data);
        let report = run_sweep(&prep, &[], |_| unreachable!("no grid points")).unwrap();
        assert!(report.results.is_empty());
        assert!(report.best().is_none());
    }
}
