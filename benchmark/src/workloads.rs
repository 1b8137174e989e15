//! The three workloads, as plain data. Sizes, epoch counts, accuracy targets
//! and floors were calibrated once on a 2-vCPU box by the sizing rules in
//! README.md and are frozen here; `adapter.rs` turns them into program calls.

/// Which stock dataset profile the workload's profile is derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Base {
    /// `products_sim`: F = 100, 47 classes, average degree 25.
    Products,
    /// `igb_medium_sim`: F = 1024, 19 classes, average degree 12.
    IgbMedium,
}

/// Graph filters applied during preprocessing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Symmetric normalization with self-loops.
    SymNorm,
    /// Row (random-walk) normalization with self-loops.
    RowNorm,
}

/// Where preprocessing leaves the training hops, which also fixes how the
/// trainer reads them back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// Hops stay in memory; `Trainer::fit` drives the given in-memory loader.
    Memory(MemLoader),
    /// Partitioned diffusion into one store per partition, streamed back
    /// through the sharded storage chunk loader behind the producer thread.
    ShardedStore {
        /// Graph partitions (= partition stores).
        partitions: usize,
    },
}

/// In-memory loader generation for [`Pipeline::Memory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemLoader {
    /// Row-random gather on a producer thread (SGD-RR).
    DoubleBuffer,
    /// Chunk reshuffling with this many rows per chunk (SGD-CR).
    Chunk(usize),
}

/// The trained model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// One linear layer on the last hop.
    Sgc,
    /// One branch per hop, then an MLP.
    Sign {
        /// Hidden width.
        hidden: usize,
    },
    /// Hop-wise attention.
    Hoga {
        /// Token width.
        hidden: usize,
        /// Attention heads.
        heads: usize,
    },
}

/// What the workload is sized to be bound by; the traced run prints whether
/// the sizes still deliver it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// No single layer is meant to dominate.
    Mixed,
    /// The loader alone takes at least 0.8 of the consumer's compute per epoch.
    LoaderBound,
    /// The consumer waits for the loader less than this share of the train phase.
    WaitBelow(f64),
}

/// One workload: inputs, pipeline, model, and the frozen accuracy contract.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Stock profile the dataset profile is derived from.
    pub base: Base,
    /// Nodes (all labeled; split 0.8 / 0.1 / 0.1).
    pub num_nodes: usize,
    /// Class-signal magnitude in the features.
    pub signal: f32,
    /// Probability an edge follows the class structure.
    pub structure: f64,
    /// Operators (`K`).
    pub ops: &'static [Op],
    /// Hops (`R`).
    pub hops: usize,
    /// Where the hops go and how they come back.
    pub pipeline: Pipeline,
    /// Back-to-back preprocessing calls averaged into one timed sample, so
    /// that every sample times at least 0.15 s of work.
    pub prep_calls: usize,
    /// Model.
    pub model: Model,
    /// Minibatch rows.
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Epochs `E` (3 warm-up + timed).
    pub epochs: usize,
    /// Validation accuracy whose first crossing defines time-to-accuracy.
    pub target_val_acc: f64,
    /// `test_acc` below this fails the run.
    pub test_acc_floor: f64,
    /// The bottleneck the sizes were chosen for.
    pub shape: Shape,
}

/// Rows per store chunk (store pipeline), and rows of the cast probe.
pub const CHUNK_ROWS: usize = 4096;
/// Epochs at the head of a training run that are not timed.
pub const WARMUP_EPOCHS: usize = 3;
/// Fewest preprocess repetitions that are not timed (the first is
/// `preprocess.cold_s`); more follow while the heap is still growing.
pub const WARMUP_PREP_REPS: usize = 2;
/// Most preprocess repetitions that are not timed.
pub const MAX_WARMUP_PREP_REPS: usize = 6;
/// Fewest timed preprocess repetitions, whatever `--seconds` says.
pub const MIN_PREP_REPS: usize = 9;

/// All workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "prep-part-k2",
        base: Base::Products,
        num_nodes: 40_000,
        signal: 0.2,
        structure: 0.5,
        ops: &[Op::SymNorm, Op::RowNorm],
        hops: 3,
        pipeline: Pipeline::ShardedStore { partitions: 2 },
        prep_calls: 1,
        model: Model::Sign { hidden: 64 },
        batch: 2048,
        lr: 1e-3,
        epochs: 48,
        target_val_acc: 0.24,
        test_acc_floor: 0.88,
        shape: Shape::Mixed,
    },
    Workload {
        name: "mem-sgc-rr",
        base: Base::IgbMedium,
        num_nodes: 40_000,
        signal: 0.12,
        structure: 0.5,
        ops: &[Op::SymNorm],
        hops: 5,
        pipeline: Pipeline::Memory(MemLoader::DoubleBuffer),
        prep_calls: 1,
        model: Model::Sgc,
        batch: 1024,
        lr: 1e-4,
        epochs: 80,
        target_val_acc: 0.49,
        test_acc_floor: 0.83,
        shape: Shape::LoaderBound,
    },
    Workload {
        name: "mem-hoga-cr",
        base: Base::Products,
        num_nodes: 20_000,
        signal: 0.2,
        structure: 0.5,
        ops: &[Op::SymNorm],
        hops: 3,
        pipeline: Pipeline::Memory(MemLoader::Chunk(512)),
        prep_calls: 5,
        model: Model::Hoga {
            hidden: 128,
            heads: 4,
        },
        batch: 1024,
        lr: 2e-3,
        epochs: 36,
        target_val_acc: 0.42,
        test_acc_floor: 0.88,
        shape: Shape::WaitBelow(0.02),
    },
];

impl Workload {
    /// Whether preprocessing writes the training hops to a store on disk.
    pub fn stored(&self) -> bool {
        !matches!(self.pipeline, Pipeline::Memory(_))
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }
}
