//! Ratio-preserving synthetic dataset profiles.
//!
//! Each profile mirrors one of the paper's benchmarks (Table 2) at a
//! laptop-friendly scale. The *ratios* that drive the paper's findings are
//! preserved — feature dimension, class count, labeled fraction, edge
//! density, homophily regime — while node counts shrink ~100×. Each profile
//! also records the **paper-scale statistics** verbatim from Table 2; the
//! performance-plane experiments (`ppgnn-memsim`) use those true sizes, so
//! throughput results are simulated at the paper's real scale even though
//! functional training runs on the scaled graphs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use ppgnn_tensor::pool::draw_blocked;
use ppgnn_tensor::{init, Matrix};

use crate::gen::{self, Mixing};
use crate::{CsrGraph, GraphError};

/// Paper-scale statistics of the benchmark a profile mirrors (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PaperStats {
    /// Nodes in the real benchmark.
    pub num_nodes: u64,
    /// Directed edges in the real benchmark.
    pub num_edges: u64,
    /// Input feature dimension.
    pub feature_dim: u32,
    /// Labeled fraction of nodes.
    pub labeled_frac: f64,
    /// Raw node-feature payload in bytes (`Size (node)` column).
    pub feature_bytes: u64,
    /// Graph topology payload in bytes (`Size (graph)` column).
    pub graph_bytes: u64,
}

/// Train/valid/test node-index split.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Split {
    /// Training node ids.
    pub train: Vec<usize>,
    /// Validation node ids.
    pub val: Vec<usize>,
    /// Test node ids.
    pub test: Vec<usize>,
}

impl Split {
    /// Total number of labeled nodes across the three partitions.
    pub fn num_labeled(&self) -> usize {
        self.train.len() + self.val.len() + self.test.len()
    }
}

/// A synthetic stand-in for one of the paper's benchmark datasets.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatasetProfile {
    /// Profile name, e.g. `products-sim`.
    pub name: &'static str,
    /// Node count at scale 1.0.
    pub num_nodes: usize,
    /// Expected average (stored, directed) degree.
    pub avg_degree: f64,
    /// Input feature dimension `F`.
    pub feature_dim: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Fraction of nodes that carry labels (1.4 % for papers100m).
    pub labeled_frac: f64,
    /// Train/val/test fractions *of the labeled nodes*.
    pub split_frac: (f64, f64, f64),
    /// Structure probability of the mixing pattern.
    pub structure: f64,
    /// `true` → heterophilous shifted mixing (the `wiki` regime).
    pub heterophilous: bool,
    /// Power-law skew of edge targets (hubs).
    pub degree_skew: f64,
    /// Class-signal magnitude in features (vs unit noise). Lower values make
    /// single-node classification noisier, so aggregation over more hops
    /// keeps helping — the Figure 2 trend.
    pub signal: f32,
    /// Paper-scale statistics for the performance plane.
    pub paper: PaperStats,
}

impl DatasetProfile {
    /// Returns a copy with the node count multiplied by `factor`
    /// (minimum 64 nodes). Tests use small factors for speed.
    pub fn scaled(mut self, factor: f64) -> Self {
        self.num_nodes = ((self.num_nodes as f64 * factor) as usize).max(64);
        self
    }

    /// Raw feature payload in bytes at the profile's (scaled) size.
    pub fn feature_bytes(&self) -> u64 {
        (self.num_nodes * self.feature_dim * 4) as u64
    }

    /// `ogbn-products` analog: homophilous co-purchase graph, 47 classes.
    pub fn products_sim() -> Self {
        DatasetProfile {
            name: "products-sim",
            num_nodes: 24_000,
            avg_degree: 25.0,
            feature_dim: 100,
            num_classes: 47,
            labeled_frac: 1.0,
            split_frac: (0.08, 0.02, 0.90),
            structure: 0.80,
            heterophilous: false,
            degree_skew: 1.5,
            signal: 0.8,
            paper: PaperStats {
                num_nodes: 2_449_029,
                num_edges: 61_859_140,
                feature_dim: 100,
                labeled_frac: 1.0,
                feature_bytes: 900 << 20,
                graph_bytes: 900 << 20,
            },
        }
    }

    /// `pokec` analog: social network, 2 classes, moderate homophily.
    pub fn pokec_sim() -> Self {
        DatasetProfile {
            name: "pokec-sim",
            num_nodes: 16_000,
            avg_degree: 19.0,
            feature_dim: 65,
            num_classes: 2,
            labeled_frac: 1.0,
            split_frac: (0.50, 0.25, 0.25),
            structure: 0.65,
            heterophilous: false,
            degree_skew: 1.0,
            signal: 0.5,
            paper: PaperStats {
                num_nodes: 1_632_803,
                num_edges: 30_622_564,
                feature_dim: 65,
                labeled_frac: 1.0,
                feature_bytes: 400 << 20,
                graph_bytes: 500 << 20,
            },
        }
    }

    /// `wiki` analog: dense, non-homophilous, 5 classes, F = 600.
    pub fn wiki_sim() -> Self {
        DatasetProfile {
            name: "wiki-sim",
            num_nodes: 18_000,
            avg_degree: 60.0,
            feature_dim: 600,
            num_classes: 5,
            labeled_frac: 1.0,
            split_frac: (0.50, 0.25, 0.25),
            structure: 0.70,
            heterophilous: true,
            degree_skew: 2.0,
            signal: 0.35,
            paper: PaperStats {
                num_nodes: 1_925_342,
                num_edges: 303_434_860,
                feature_dim: 600,
                labeled_frac: 1.0,
                feature_bytes: (43u64 << 30) / 10,
                graph_bytes: (45u64 << 30) / 10,
            },
        }
    }

    /// `ogbn-papers100M` analog: only 1.4 % of nodes labeled — the case where
    /// PP-GNN preprocessing shrinks the training input by ~70×.
    ///
    /// The class count is reduced from 172 to 64 so that the scaled-down
    /// label budget still allows learning; the labeled *fraction* (the
    /// property the systems results depend on) is preserved.
    pub fn papers100m_sim() -> Self {
        DatasetProfile {
            name: "papers100m-sim",
            num_nodes: 120_000,
            avg_degree: 15.0,
            feature_dim: 128,
            num_classes: 64,
            labeled_frac: 0.014,
            split_frac: (0.78, 0.08, 0.14),
            structure: 0.75,
            heterophilous: false,
            degree_skew: 1.5,
            signal: 0.9,
            paper: PaperStats {
                num_nodes: 111_059_956,
                num_edges: 1_615_685_872,
                feature_dim: 128,
                labeled_frac: 0.014,
                feature_bytes: 53u64 << 30,
                graph_bytes: 24u64 << 30,
            },
        }
    }

    /// `IGB-medium` analog: fully labeled, F = 1024 (feature-heavy).
    pub fn igb_medium_sim() -> Self {
        DatasetProfile {
            name: "igb-medium-sim",
            num_nodes: 40_000,
            avg_degree: 12.0,
            feature_dim: 1024,
            num_classes: 19,
            labeled_frac: 1.0,
            split_frac: (0.60, 0.20, 0.20),
            structure: 0.75,
            heterophilous: false,
            degree_skew: 1.2,
            signal: 0.7,
            paper: PaperStats {
                num_nodes: 10_000_000,
                num_edges: 120_077_694,
                feature_dim: 1024,
                labeled_frac: 1.0,
                feature_bytes: 39u64 << 30,
                graph_bytes: (18u64 << 30) / 10,
            },
        }
    }

    /// `IGB-large` analog: the input-expansion stress case (400 GB of raw
    /// features at paper scale → 1.6 TB preprocessed, past host memory).
    pub fn igb_large_sim() -> Self {
        DatasetProfile {
            name: "igb-large-sim",
            num_nodes: 80_000,
            avg_degree: 12.0,
            feature_dim: 1024,
            num_classes: 19,
            labeled_frac: 1.0,
            split_frac: (0.60, 0.20, 0.20),
            structure: 0.75,
            heterophilous: false,
            degree_skew: 1.2,
            signal: 0.7,
            paper: PaperStats {
                num_nodes: 100_000_000,
                num_edges: 1_223_571_364,
                feature_dim: 1024,
                labeled_frac: 1.0,
                feature_bytes: 400u64 << 30,
                graph_bytes: 19u64 << 30,
            },
        }
    }

    /// The three medium profiles used for the accuracy studies.
    pub fn medium_profiles() -> Vec<DatasetProfile> {
        vec![Self::products_sim(), Self::pokec_sim(), Self::wiki_sim()]
    }

    /// All six profiles.
    pub fn all_profiles() -> Vec<DatasetProfile> {
        vec![
            Self::products_sim(),
            Self::pokec_sim(),
            Self::wiki_sim(),
            Self::papers100m_sim(),
            Self::igb_medium_sim(),
            Self::igb_large_sim(),
        ]
    }
}

/// A fully materialized synthetic dataset: graph + features + labels + split.
#[derive(Debug, Clone)]
pub struct SynthDataset {
    /// The profile this dataset was generated from.
    pub profile: DatasetProfile,
    /// Graph topology.
    pub graph: CsrGraph,
    /// Node features, `num_nodes x feature_dim`.
    pub features: Matrix,
    /// Node labels (defined for every node; only `split` rows are *observed*).
    pub labels: Vec<u32>,
    /// Labeled-node split.
    pub split: Split,
}

impl SynthDataset {
    /// Generates the dataset for `profile` deterministically from `seed`.
    ///
    /// Features follow a noisy class-centroid model: unit-norm centroids
    /// `c_k`, node features `x_v = signal · c_{y_v} + ε`, `ε ~ N(0, I)`.
    /// With `signal < 1` single nodes are ambiguous and neighborhood
    /// averaging (what both GNN families do) denoises — which is what makes
    /// the "more hops help" trend of Figure 2 emerge for real.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] from graph generation.
    pub fn generate(profile: DatasetProfile, seed: u64) -> Result<Self, GraphError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = profile.num_nodes;
        let c = profile.num_classes;

        let labels = gen::uniform_labels(n, c, &mut rng);
        let mixing = if profile.heterophilous {
            Mixing::Shifted(profile.structure as f32)
        } else {
            Mixing::Homophilous(profile.structure as f32)
        };
        let graph = gen::labeled_graph(
            n,
            profile.avg_degree,
            &labels,
            c,
            mixing,
            profile.degree_skew,
            &mut rng,
        )?;

        // Unit-norm class centroids scaled to `√F · signal`, then divided
        // by `√F` (two roundings, as the values were always made): each
        // class's shift.
        let f = profile.feature_dim;
        let mut centroids = init::standard_normal(c, f, &mut rng);
        centroids.l2_normalize_rows();
        centroids.scale((f as f32).sqrt() * profile.signal);
        centroids.map_inplace(|cv| cv / (f as f32).sqrt());

        // Noise and shift in one pass over row blocks on the pool, each
        // block drawing its piece of the serial stream: `rng` ends where a
        // serial fill would leave it.
        let mut features = Matrix::zeros(n, f);
        draw_blocked(
            features.as_mut_slice(),
            FILL_ROWS * f,
            init::NORMAL_DRAWS,
            n * f * NORMAL_WORK,
            &mut rng,
            |rng, at, rows| fill_feature_rows(rows, &labels[at / f..], &centroids, rng),
        );

        // Labeled subset, then split by the profile fractions.
        let mut ids: Vec<usize> = (0..n).collect();
        shuffle(&mut ids, &mut rng);
        let num_labeled = ((n as f64) * profile.labeled_frac).round() as usize;
        let labeled = &ids[..num_labeled.min(n)];
        let (ftr, fva, _) = profile.split_frac;
        let t_end = ((labeled.len() as f64) * ftr) as usize;
        let v_end = t_end + ((labeled.len() as f64) * fva) as usize;
        let split = Split {
            train: labeled[..t_end].to_vec(),
            val: labeled[t_end..v_end.min(labeled.len())].to_vec(),
            test: labeled[v_end.min(labeled.len())..].to_vec(),
        };

        Ok(SynthDataset {
            profile,
            graph,
            features,
            labels,
            split,
        })
    }

    /// Labels of the given node ids.
    pub fn labels_of(&self, ids: &[usize]) -> Vec<u32> {
        ids.iter().map(|&i| self.labels[i]).collect()
    }

    /// Accuracy of always predicting the majority training class — the floor
    /// any learned model must beat.
    pub fn majority_baseline(&self) -> f64 {
        let mut counts = vec![0usize; self.profile.num_classes];
        for &i in &self.split.train {
            counts[self.labels[i] as usize] += 1;
        }
        let majority = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(k, _)| k as u32)
            .unwrap_or(0);
        if self.split.test.is_empty() {
            return 0.0;
        }
        let hits = self
            .split
            .test
            .iter()
            .filter(|&&i| self.labels[i] == majority)
            .count();
        hits as f64 / self.split.test.len() as f64
    }
}

/// Rows per block of the feature fill: 64 rows of F = 1024 are 256 KiB
/// and about 1.6 ms of draws, so the 40 000-row profiles cut into 625.
const FILL_ROWS: usize = 64;

/// Work one feature value counts for against the shared parallel
/// threshold: a Box–Muller normal (a log, a square root and a cosine)
/// costs about as much as 1000 GEMM multiply-adds.
const NORMAL_WORK: usize = 1000;

/// Fills whole feature rows from the next draws of `rng`, row-major: the
/// value at column `j` of a node with label `y` is `N(0, 1) + shifts[y][j]`.
/// `labels` starts at the first row's node.
fn fill_feature_rows(rows: &mut [f32], labels: &[u32], shifts: &Matrix, rng: &mut StdRng) {
    for (row, &label) in rows.chunks_exact_mut(shifts.cols()).zip(labels) {
        for (x, &shift) in row.iter_mut().zip(shifts.row(label as usize)) {
            *x = init::sample_normal(rng) + shift;
        }
    }
}

/// Fisher–Yates shuffle using the experiment RNG (avoids pulling in
/// `rand::seq` trait imports at call sites).
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn profiles_serde_round_trip_exactly() {
        for p in DatasetProfile::all_profiles() {
            let text = serde::to_string(&p);
            let back: DatasetProfile = serde::from_str(&text).expect("profile parses back");
            assert_eq!(back, p, "{} changed across serde round-trip", p.name);
            assert_eq!(back.paper, p.paper);
            // Bit-exactness of the float fields, beyond PartialEq.
            assert_eq!(back.signal.to_bits(), p.signal.to_bits());
            assert_eq!(back.avg_degree.to_bits(), p.avg_degree.to_bits());
        }
    }

    #[test]
    fn profiles_have_distinct_names() {
        let names: Vec<&str> = DatasetProfile::all_profiles()
            .iter()
            .map(|p| p.name)
            .collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn scaled_profile_shrinks_nodes_only() {
        let p = DatasetProfile::products_sim().scaled(0.01);
        assert_eq!(p.num_nodes, 240);
        assert_eq!(p.feature_dim, 100);
        assert_eq!(p.num_classes, 47);
    }

    #[test]
    fn generate_is_deterministic() {
        let p = DatasetProfile::pokec_sim().scaled(0.02);
        let a = SynthDataset::generate(p, 7).unwrap();
        let b = SynthDataset::generate(p, 7).unwrap();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.features, b.features);
        assert_eq!(a.split, b.split);
    }

    #[test]
    fn split_respects_label_fraction() {
        let p = DatasetProfile::papers100m_sim().scaled(0.05);
        let d = SynthDataset::generate(p, 1).unwrap();
        let labeled = d.split.num_labeled();
        let expected = (p.num_nodes as f64 * 0.014).round() as usize;
        assert_eq!(labeled, expected);
        assert!(d.split.train.len() > d.split.val.len());
    }

    #[test]
    fn fully_labeled_profiles_cover_all_nodes() {
        let p = DatasetProfile::products_sim().scaled(0.01);
        let d = SynthDataset::generate(p, 3).unwrap();
        assert_eq!(d.split.num_labeled(), p.num_nodes);
        // partitions are disjoint
        let mut all: Vec<usize> = d
            .split
            .train
            .iter()
            .chain(&d.split.val)
            .chain(&d.split.test)
            .copied()
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), p.num_nodes);
    }

    #[test]
    fn homophilous_profile_yields_homophilous_graph() {
        let d = SynthDataset::generate(DatasetProfile::products_sim().scaled(0.05), 2).unwrap();
        assert!(stats::edge_homophily(&d.graph, &d.labels) > 0.6);
        let w = SynthDataset::generate(DatasetProfile::wiki_sim().scaled(0.05), 2).unwrap();
        assert!(stats::edge_homophily(&w.graph, &w.labels) < 0.4);
    }

    #[test]
    fn features_carry_class_signal() {
        // Nearest-centroid on *aggregated* features should beat majority.
        let p = DatasetProfile::pokec_sim().scaled(0.05);
        let d = SynthDataset::generate(p, 11).unwrap();
        // class-mean features from train nodes
        let fdim = p.feature_dim;
        let mut means = vec![vec![0.0f32; fdim]; p.num_classes];
        let mut counts = vec![0usize; p.num_classes];
        for &i in &d.split.train {
            let y = d.labels[i] as usize;
            counts[y] += 1;
            for (m, v) in means[y].iter_mut().zip(d.features.row(i)) {
                *m += v;
            }
        }
        for (m, &c) in means.iter_mut().zip(&counts) {
            for v in m.iter_mut() {
                *v /= c.max(1) as f32;
            }
        }
        let mut hits = 0usize;
        for &i in &d.split.test {
            let x = d.features.row(i);
            let best = (0..p.num_classes)
                .max_by(|&a, &b| {
                    let da: f32 = means[a].iter().zip(x).map(|(m, v)| m * v).sum();
                    let db: f32 = means[b].iter().zip(x).map(|(m, v)| m * v).sum();
                    da.partial_cmp(&db).expect("finite scores")
                })
                .expect("non-empty classes");
            if best as u32 == d.labels[i] {
                hits += 1;
            }
        }
        let acc = hits as f64 / d.split.test.len() as f64;
        let base = d.majority_baseline();
        assert!(acc > base + 0.05, "centroid acc {acc} vs majority {base}");
    }

    #[test]
    fn paper_stats_match_table2_scale() {
        let igb = DatasetProfile::igb_large_sim();
        assert_eq!(igb.paper.feature_bytes, 400u64 << 30);
        let papers = DatasetProfile::papers100m_sim();
        assert!((papers.paper.labeled_frac - 0.014).abs() < 1e-9);
    }
}
