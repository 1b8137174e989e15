//! What a run reports: named metrics with units, the operation tally, and
//! the one-line JSON result the driver reads.

use std::fmt::Write as _;

use crate::stats::{summarize, Summary};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported value (the median of the samples, for sampled metrics).
    pub value: f64,
    /// In-run sample summary, for sampled metrics.
    pub summary: Option<Summary>,
    /// The samples themselves, in the order they were taken.
    pub samples: Vec<f64>,
}

/// Operations attempted and the ones that failed, with the reason for each.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts `n` operations that succeeded.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one operation, failed if `result` is an error.
    pub fn record<T>(&mut self, what: &str, result: &Result<T, String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    /// Counts one check, failed with `detail` unless `ok`.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.record(what, &if ok { Ok(()) } else { Err(detail()) });
    }

    /// Counts `failures.len()` already-attempted operations as failed.
    pub fn fail_all(&mut self, failures: Vec<String>) {
        self.failures.extend(failures);
    }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Operation tally.
    pub ops: Ops,
}

impl Report {
    /// Adds a metric that is one exact or derived value.
    pub fn value(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            summary: None,
            samples: Vec::new(),
        });
    }

    /// Adds a metric sampled several times in the run, reported as the
    /// median of its samples; returns that value.
    pub fn sampled(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) -> f64 {
        let summary = summarize(samples);
        self.metrics.push(Metric {
            name,
            unit,
            value: summary.median,
            summary: Some(summary),
            samples: samples.to_vec(),
        });
        summary.median
    }

    /// Prints every metric by name with its unit (and p25 / p90 / n and the
    /// samples where sampled), the operation tally, then the JSON result as the last
    /// line. Returns whether the run was correct.
    pub fn print(&self) -> bool {
        for m in &self.metrics {
            match m.summary {
                Some(s) => println!(
                    "{:<34} {:>16.6} {:<10} median of n {}  p25 {:.6}  p90 {:.6}",
                    m.name, m.value, m.unit, s.n, s.p25, s.p90
                ),
                None => println!("{:<34} {:>16.6} {:<10}", m.name, m.value, m.unit),
            }
        }
        // Every sample in the order taken, so that a drift inside the run
        // can be told from scatter.
        for m in self.metrics.iter().filter(|m| !m.samples.is_empty()) {
            let samples: Vec<String> = m.samples.iter().map(|v| format!("{v:.4}")).collect();
            println!("samples {}: {}", m.name, samples.join(" "));
        }
        for f in &self.ops.failures {
            println!("FAILED: {f}");
        }
        let correct = self.correct();
        if !self.metrics.iter().all(|m| m.value.is_finite()) {
            println!("FAILED: a metric is not a finite number");
        }
        println!(
            "ops_attempted = {}  ops_failed = {}",
            self.ops.attempted,
            self.ops.failures.len()
        );
        println!("{}", self.json());
        correct
    }

    /// Whether no operation failed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.ops.failures.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.ops.attempted.max(1),
            self.ops.failures.len()
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; the run is already incorrect.
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            // Writing to a String cannot fail.
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        json.push_str("}}");
        json
    }
}
