//! Sample summaries, digests and process/file accounting — nothing here
//! knows about the program under test.

use std::path::Path;

/// One metric's in-run samples, summarized. The median is the reported value.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// 50th percentile.
    pub median: f64,
    /// 25th percentile.
    pub p25: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Sample count.
    pub n: usize,
}

/// Linear-interpolated quantile of an ascending slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "a metric needs at least one sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Summarizes `samples`.
///
/// # Panics
///
/// Panics on an empty slice: every reported metric has samples.
pub fn summarize(samples: &[f64]) -> Summary {
    let sorted = sorted(samples);
    Summary {
        median: quantile(&sorted, 0.5),
        p25: quantile(&sorted, 0.25),
        p90: quantile(&sorted, 0.9),
        n: sorted.len(),
    }
}

/// The `q` quantile of `samples`, linearly interpolated.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile_of(samples: &[f64], q: f64) -> f64 {
    quantile(&sorted(samples), q)
}

/// Median of `samples`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    quantile_of(samples, 0.5)
}

/// FNV-1a over the bit patterns of `values`, folded into `state`, one 32-bit
/// word per step (four times fewer multiplies than the byte-wise form, and
/// the digest is only ever compared with digests made the same way).
pub fn fnv1a_words(state: u64, values: &[f32]) -> u64 {
    values.iter().fold(state, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a offset basis: the starting `state` for [`fnv1a_words`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Peak resident set of this process in MB (`VmHWM`), or 0 where `/proc`
/// does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes of every regular file under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Minor page faults of this process so far (`/proc/self/stat` field 10).
pub fn minor_faults() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = s.rsplit_once(") ")?.1.to_string();
            rest.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}
