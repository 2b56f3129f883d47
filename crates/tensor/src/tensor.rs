//! The dense [`Tensor`] type.

use crate::half::{quantize_f16, quantize_f16_slice};
use crate::pool::{self, PoolBuf};
use crate::profile::{self, KernelKind};
use crate::shape::Shape;
use std::sync::Arc;

/// Storage precision of a tensor.
///
/// `F16` tensors hold values that are exactly representable in IEEE
/// binary16: every write is rounded through [`crate::F16`]. Computation is
/// carried out in `f32` and results are re-quantized, which matches the
/// "FP16 storage, FP32 accumulate" behaviour of Volta tensor cores that the
/// paper's mixed-precision runs relied on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// IEEE binary32.
    F32,
    /// IEEE binary16 (software-emulated storage precision).
    F16,
}

impl DType {
    /// Bytes per element in this precision, used for memory-traffic
    /// accounting in the kernel census (Figures 3/8/9).
    #[inline]
    pub fn size_bytes(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::F16 => 2,
        }
    }
}

impl std::fmt::Display for DType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DType::F32 => write!(f, "FP32"),
            DType::F16 => write!(f, "FP16"),
        }
    }
}

/// A dense, row-major tensor.
///
/// Values are physically held as `f32`; when `dtype` is [`DType::F16`]
/// every stored value has been rounded through binary16, so the in-memory
/// image is bit-equivalent (up to widening) to a true `u16` half buffer.
///
/// Storage is a pooled, copy-on-write buffer (`Arc<PoolBuf>`): `clone()`
/// and [`Tensor::reshape`] share the buffer at zero cost, the first
/// mutation of a shared tensor copies it (through the pool), and the last
/// owner returns the buffer to the [`crate::pool`] free lists on drop.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    dtype: DType,
    data: Arc<PoolBuf>,
}

impl Tensor {
    /// A tensor of zeros, drawn from the buffer pool.
    pub fn zeros(shape: impl Into<Shape>, dtype: DType) -> Tensor {
        let shape = shape.into();
        let numel = shape.numel();
        Tensor {
            shape,
            dtype,
            data: Arc::new(PoolBuf::from_vec(pool::take_zeroed(numel))),
        }
    }

    /// A tensor filled with `value` (quantized if FP16).
    pub fn full(shape: impl Into<Shape>, dtype: DType, value: f32) -> Tensor {
        let shape = shape.into();
        let v = match dtype {
            DType::F32 => value,
            DType::F16 => quantize_f16(value),
        };
        let numel = shape.numel();
        Tensor {
            shape,
            dtype,
            data: Arc::new(PoolBuf::from_vec(pool::take_filled(numel, v))),
        }
    }

    /// Builds a tensor from existing data. The buffer is adopted into the
    /// pool's custody: it recycles when the last owner drops.
    ///
    /// # Panics
    /// Panics if `data.len() != shape.numel()`.
    pub fn from_vec(shape: impl Into<Shape>, dtype: DType, mut data: Vec<f32>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        if dtype == DType::F16 {
            quantize_f16_slice(&mut data);
        }
        Tensor {
            shape,
            dtype,
            data: Arc::new(PoolBuf::from_vec(data)),
        }
    }

    /// Builds a tensor around a buffer previously obtained from
    /// [`crate::pool::take_zeroed`]/[`crate::pool::take_with_capacity`] —
    /// the explicit "this storage came from the pool" constructor.
    /// Semantically identical to [`Tensor::from_vec`].
    pub fn from_pool(shape: impl Into<Shape>, dtype: DType, data: Vec<f32>) -> Tensor {
        Tensor::from_vec(shape, dtype, data)
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The tensor's storage precision.
    #[inline]
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Size of the tensor's storage in bytes at its precision.
    #[inline]
    pub fn storage_bytes(&self) -> usize {
        self.numel() * self.dtype.size_bytes()
    }

    /// Read-only view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        self.data.as_slice()
    }

    /// Mutable view of the data. If the buffer is shared (a clone or
    /// reshape alias is alive), it is copied first — copy-on-write keeps
    /// every tensor value-semantic.
    ///
    /// Callers writing to an FP16 tensor must re-quantize afterwards (see
    /// [`Tensor::requantize`]); the op kernels in [`crate::ops`] do this
    /// automatically.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// True if this tensor's buffer is shared with another tensor (a COW
    /// alias created by `clone` or [`Tensor::reshape`], such as a layer's
    /// activation cache).
    #[inline]
    pub fn storage_shared(&self) -> bool {
        Arc::strong_count(&self.data) > 1
    }

    /// Consumes the tensor, returning its backing buffer. Copies only if
    /// the buffer is shared.
    #[inline]
    pub fn into_vec(self) -> Vec<f32> {
        match Arc::try_unwrap(self.data) {
            Ok(buf) => buf.take_data(),
            Err(shared) => pool::take_copy(shared.as_slice()),
        }
    }

    /// Element access by multi-dimensional index.
    #[inline]
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.as_slice()[self.shape.offset(idx)]
    }

    /// Element write by multi-dimensional index (quantized if FP16).
    #[inline]
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let off = self.shape.offset(idx);
        let v = match self.dtype {
            DType::F32 => value,
            DType::F16 => quantize_f16(value),
        };
        self.as_mut_slice()[off] = v;
    }

    /// Rounds every element through the tensor's storage precision.
    ///
    /// A no-op for FP32 tensors.
    pub fn requantize(&mut self) {
        if self.dtype == DType::F16 {
            quantize_f16_slice(self.as_mut_slice());
        }
    }

    /// Casts to another precision, recording a type-conversion kernel in the
    /// census (these are the "Type Conversions" rows of Figures 3/8/9).
    pub fn cast(&self, dtype: DType) -> Tensor {
        if dtype == self.dtype {
            return self.clone();
        }
        profile::record(
            KernelKind::TypeConversion,
            "cast",
            0,
            self.storage_bytes() as u64,
            (self.numel() * dtype.size_bytes()) as u64,
        );
        Tensor::from_vec(self.shape.clone(), dtype, pool::take_copy(self.as_slice()))
    }

    /// Returns a view with a new shape sharing the same element count.
    /// The buffer is shared copy-on-write, not copied.
    ///
    /// # Panics
    /// Panics if element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            self.numel(),
            "cannot reshape {} to {shape}",
            self.shape
        );
        Tensor {
            shape,
            dtype: self.dtype,
            data: self.data.clone(),
        }
    }

    /// Sum of all elements (f32 accumulation).
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.numel() == 0 {
            0.0
        } else {
            self.sum() / self.numel() as f32
        }
    }

    /// Maximum absolute element, or 0 for an empty tensor.
    pub fn max_abs(&self) -> f32 {
        self.as_slice().iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// L2 norm of the flattened tensor, accumulated in the canonical
    /// lane-split order of [`crate::simd::sum_sq_f64`] so serial and
    /// fused/bucketed optimizer paths see identical LARC norm bits.
    pub fn l2_norm(&self) -> f32 {
        crate::simd::sum_sq_f64(self.as_slice()).sqrt() as f32
    }

    /// True if any element is non-finite (the FP16 overflow detector used by
    /// the weighted-loss stability study).
    pub fn has_non_finite(&self) -> bool {
        self.as_slice().iter().any(|x| !x.is_finite())
    }

    /// Fills with zeros in place.
    pub fn fill_zero(&mut self) {
        self.as_mut_slice().iter_mut().for_each(|x| *x = 0.0);
    }

    /// `self += other` elementwise (quantized if FP16).
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice().iter()) {
            *a += *b;
        }
        self.requantize();
    }

    /// `self *= scalar` elementwise (quantized if FP16).
    pub fn scale(&mut self, s: f32) {
        for a in self.as_mut_slice().iter_mut() {
            *a *= s;
        }
        self.requantize();
    }

    /// An FNV-1a hash of the raw bits, used by the distributed trainer to
    /// assert that all data-parallel replicas hold identical parameters
    /// after synchronous updates.
    pub fn bit_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for x in self.as_slice() {
            for b in x.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut t = Tensor::zeros([2, 3], DType::F32);
        assert_eq!(t.numel(), 6);
        t.set(&[1, 2], 7.5);
        assert_eq!(t.at(&[1, 2]), 7.5);
        assert_eq!(t.at(&[0, 0]), 0.0);
    }

    #[test]
    fn f16_tensor_quantizes_on_write() {
        let mut t = Tensor::zeros([4], DType::F16);
        t.set(&[0], 2049.0); // not representable; spacing is 2 at that magnitude
        assert_eq!(t.at(&[0]), 2048.0);
        t.set(&[1], 1.0e6); // overflows to +inf
        assert!(t.at(&[1]).is_infinite());
        assert!(t.has_non_finite());
    }

    #[test]
    fn from_vec_quantizes_f16() {
        let t = Tensor::from_vec([2], DType::F16, vec![1.0, 1.0 + 2.0f32.powi(-12)]);
        assert_eq!(t.as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec([2, 3], DType::F32, (0..6).map(|i| i as f32).collect());
        let r = t.reshape([3, 2]);
        assert_eq!(r.at(&[2, 1]), 5.0);
        assert_eq!(r.shape().dims(), &[3, 2]);
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_wrong_numel_panics() {
        Tensor::zeros([2, 3], DType::F32).reshape([7]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec([4], DType::F32, vec![1.0, -2.0, 3.0, -4.0]);
        assert_eq!(t.sum(), -2.0);
        assert_eq!(t.mean(), -0.5);
        assert_eq!(t.max_abs(), 4.0);
        assert!((t.l2_norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn bit_hash_detects_divergence() {
        let a = Tensor::from_vec([3], DType::F32, vec![1.0, 2.0, 3.0]);
        let mut b = a.clone();
        assert_eq!(a.bit_hash(), b.bit_hash());
        b.set(&[2], 3.0000002);
        assert_ne!(a.bit_hash(), b.bit_hash());
    }

    #[test]
    fn storage_bytes_respects_dtype() {
        assert_eq!(Tensor::zeros([10], DType::F32).storage_bytes(), 40);
        assert_eq!(Tensor::zeros([10], DType::F16).storage_bytes(), 20);
    }

    #[test]
    fn cast_roundtrip() {
        let t = Tensor::from_vec([3], DType::F32, vec![1.0, 2.5, -0.125]);
        let h = t.cast(DType::F16);
        assert_eq!(h.dtype(), DType::F16);
        let back = h.cast(DType::F32);
        assert_eq!(back.as_slice(), t.as_slice()); // all values f16-exact
    }

    #[test]
    fn clone_is_copy_on_write() {
        let a = Tensor::from_vec([4], DType::F32, vec![1.0, 2.0, 3.0, 4.0]);
        let mut b = a.clone();
        assert!(a.storage_shared() && b.storage_shared(), "clone shares storage");
        b.set(&[0], 9.0);
        assert!(!a.storage_shared(), "mutation unshares");
        assert_eq!(a.at(&[0]), 1.0, "original untouched by clone mutation");
        assert_eq!(b.at(&[0]), 9.0);
    }

    #[test]
    fn reshape_shares_until_written() {
        let a = Tensor::from_vec([2, 2], DType::F32, vec![1.0, 2.0, 3.0, 4.0]);
        let mut r = a.reshape([4]);
        assert!(a.storage_shared());
        r.as_mut_slice()[3] = 0.0;
        assert_eq!(a.at(&[1, 1]), 4.0);
        assert_eq!(r.at(&[3]), 0.0);
    }

    #[test]
    fn into_vec_copies_only_when_shared() {
        let a = Tensor::from_vec([3], DType::F32, vec![1.0, 2.0, 3.0]);
        let b = a.clone();
        let v = a.into_vec(); // shared: copies
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
        assert_eq!(b.as_slice(), &[1.0, 2.0, 3.0]);
        let w = b.into_vec(); // unique: moves
        assert_eq!(w, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn dropped_tensor_storage_returns_to_pool() {
        crate::pool::set_enabled(true);
        let t = Tensor::zeros([1, 3, 64, 64], DType::F32);
        let before = crate::pool::stats();
        drop(t);
        let after = crate::pool::stats();
        assert!(
            after.recycled > before.recycled || after.dropped > before.dropped,
            "drop must hand the buffer back to the pool"
        );
    }
}
