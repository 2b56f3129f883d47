//! # exaclim-distrib
//!
//! The Horovod-like distributed training runtime of §V-A3, with OS threads
//! standing in for MPI ranks:
//!
//! * [`control`] — the readiness coordination protocol. TensorFlow's
//!   dynamic scheduler may finish gradient tensors in a different order on
//!   every rank; without agreement on a single total order, collective
//!   all-reduces deadlock. The [`CentralizedController`](control) is
//!   Horovod's original design (every rank reports to rank 0 — millions of
//!   messages per second at 27 k ranks); the
//!   [`hierarchical`](control::ControlPlane::Hierarchical) radix-r tree is
//!   the paper's fix, bounding every rank's traffic at `r+1` messages per
//!   tensor.
//! * [`fusion`] — Horovod's tensor-fusion buffer: coalesces small
//!   gradients into few large all-reduces.
//! * [`trainer`] — synchronous data-parallel SGD over real model replicas:
//!   identical initialization, per-step gradient averaging through the
//!   hybrid hierarchical all-reduce, LARC / Adam / gradient-lag options,
//!   and bitwise replica-consistency verification. The plain,
//!   checkpoint-restart and elastic trainers all run one per-rank step
//!   engine (`replica`); only their membership policy differs.
//! * [`modelpar`] — the §VIII-B outlook made concrete: spatial domain
//!   decomposition with halo exchange, bitwise-equal to single-rank
//!   convolution.
//! * [`elastic`] — generation-numbered membership: ranks join and leave at
//!   step boundaries without a full restart, with crash recovery from the
//!   live model instead of checkpoint replay.

pub mod control;
pub mod elastic;
pub mod fusion;
pub mod modelpar;
mod overlap;
mod replica;
pub mod trainer;

pub use control::{ControlPlane, Coordinator};
pub use elastic::{
    train_data_parallel_elastic, ElasticConfig, ElasticReport, GenerationRecord, WorldView,
};
pub use fusion::{fuse, FusionBucket};
pub use trainer::{
    train_data_parallel, train_data_parallel_ft, BatchSource, FtConfig, FtReport, OptimizerKind,
    StepRecord, TrainerConfig, TrainingReport,
};
