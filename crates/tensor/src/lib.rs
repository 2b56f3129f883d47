//! # exaclim-tensor
//!
//! Dense NCHW tensor kernels for the exaclim reproduction of
//! *Exascale Deep Learning for Climate Analytics* (Kurth et al., SC'18).
//!
//! The paper trains its networks with cuDNN kernels on P100/V100 GPUs; this
//! crate provides the equivalent CPU substrate:
//!
//! * [`Tensor`] — a dense, row-major (NCHW) tensor of `f32` or software
//!   [`F16`] storage. FP16 tensors round every stored value through IEEE
//!   binary16, reproducing mixed-precision numerics (overflow to infinity,
//!   reduced mantissa) while computing in `f32` — the same convention as
//!   Volta tensor cores (FP16 in, FP32 accumulate).
//! * [`ops`] — convolution (direct and im2col-GEMM, with stride/padding/
//!   dilation for the atrous layers of DeepLabv3+), transposed convolution,
//!   max/avg pooling, batch normalization, bilinear interpolation,
//!   pointwise kernels and reductions. Each has a forward and backward
//!   implementation verified by finite differences.
//! * [`profile`] — a kernel census recorder. Every kernel launch reports its
//!   category, FLOP count and bytes moved, using the paper's conventions
//!   (Section VI: 2 FLOPs per multiply-add, implicit-GEMM convolution
//!   counts). This is the data source for the Figure 2/3/8/9 analyses.
//! * [`pool`] — the buffer-recycling memory pool (§VII-A's "improve the
//!   memory management"): one size-class free-list implementation, with
//!   a free-list table and counter block per element type, behind every
//!   tensor's copy-on-write `f32` storage, kernel scratch and the ingest
//!   path's `u8` label buffers.

pub mod half;
pub mod init;
pub mod ops;
pub mod pool;
pub mod profile;
pub mod shape;
pub mod simd;
pub mod tensor;

pub use crate::half::{Bf16, F16};
pub use crate::ops::gemm::{compute_precision, set_compute_precision, ComputePrecision};
pub use crate::shape::Shape;
pub use crate::simd::{set_simd_enabled, simd_enabled, SimdLevel};
pub use crate::tensor::{DType, Tensor};

/// Sets the kernel thread-pool width for subsequent ops (clamped to a
/// sane range by the pool). Results are bit-identical at any width — the
/// parallel partitioning is shape-dependent only — so this trades wall
/// time, never numerics. Prefer the `EXACLIM_NUM_THREADS` environment
/// variable for whole-process configuration; this call is for tests and
/// benchmarks that compare widths in one process.
pub fn set_kernel_threads(n: usize) {
    rayon::set_num_threads(n);
}

/// Current kernel thread-pool width.
pub fn kernel_threads() -> usize {
    rayon::current_num_threads()
}

/// Errors produced by tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the mismatch.
        context: String,
    },
    /// An index was out of bounds for the tensor's shape.
    IndexOutOfBounds {
        /// Human-readable description of the offending access.
        context: String,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { context } => write!(f, "shape mismatch: {context}"),
            TensorError::IndexOutOfBounds { context } => {
                write!(f, "index out of bounds: {context}")
            }
        }
    }
}

impl std::error::Error for TensorError {}
