//! Data-layout transforms (NCHW ⇄ NHWC).
//!
//! §VII-A: "we modified the data layout of the decoder stage of the
//! DeepLabv3+ network to produce fewer extraneous transposes. This
//! modification yielded a 10% speedup ... for our largest scale run."
//! TensorFlow inserts these copies around kernels with mismatched layout
//! preferences; they are the "Copies/Transposes" census rows. These
//! explicit transforms let layout choices be made (and costed) directly.

use crate::profile::{self, KernelKind};
use crate::tensor::Tensor;

/// NCHW → NHWC transpose (returns a flat buffer in NHWC order plus the
/// dims; the [`Tensor`] type itself stays NCHW by convention).
pub fn nchw_to_nhwc(x: &Tensor) -> Vec<f32> {
    let (n, c, h, w) = x.shape().nchw();
    let xs = x.as_slice();
    let mut out = vec![0.0f32; xs.len()];
    for ni in 0..n {
        for ci in 0..c {
            for hi in 0..h {
                let src = ((ni * c + ci) * h + hi) * w;
                for wi in 0..w {
                    out[((ni * h + hi) * w + wi) * c + ci] = xs[src + wi];
                }
            }
        }
    }
    profile::record(
        KernelKind::CopyTranspose,
        "nchw_to_nhwc",
        0,
        x.storage_bytes() as u64,
        x.storage_bytes() as u64,
    );
    out
}

/// NHWC → NCHW transpose, inverse of [`nchw_to_nhwc`].
pub fn nhwc_to_nchw(data: &[f32], n: usize, c: usize, h: usize, w: usize, dtype: crate::DType) -> Tensor {
    assert_eq!(data.len(), n * c * h * w, "layout buffer size mismatch");
    let mut out = Tensor::zeros([n, c, h, w], dtype);
    {
        let os = out.as_mut_slice();
        for ni in 0..n {
            for hi in 0..h {
                for wi in 0..w {
                    let src = ((ni * h + hi) * w + wi) * c;
                    for ci in 0..c {
                        os[((ni * c + ci) * h + hi) * w + wi] = data[src + ci];
                    }
                }
            }
        }
    }
    out.requantize();
    profile::record(
        KernelKind::CopyTranspose,
        "nhwc_to_nchw",
        0,
        out.storage_bytes() as u64,
        out.storage_bytes() as u64,
    );
    out
}

/// Crops a spatial window `[y0, y0+ch) × [x0, x0+cw)` out of every image
/// and channel of an NCHW tensor, into pooled storage. This is the slicing
/// primitive behind tiled inference: the serving tier cuts halo-padded
/// tiles out of a full frame with it, runs each tile through the network,
/// and blends the results back (`exaclim-serve`).
///
/// # Panics
/// Panics if the window exceeds the spatial bounds.
pub fn crop_spatial(x: &Tensor, y0: usize, x0: usize, ch: usize, cw: usize) -> Tensor {
    let (n, c, h, w) = x.shape().nchw();
    assert!(
        y0 + ch <= h && x0 + cw <= w,
        "crop window {y0}+{ch}×{x0}+{cw} exceeds {h}×{w}"
    );
    let xs = x.as_slice();
    let mut out = crate::pool::take_with_capacity(n * c * ch * cw);
    for ni in 0..n {
        for ci in 0..c {
            let plane = (ni * c + ci) * h * w;
            for row in 0..ch {
                let src = plane + (y0 + row) * w + x0;
                out.extend_from_slice(&xs[src..src + cw]);
            }
        }
    }
    let out = Tensor::from_pool([n, c, ch, cw], x.dtype(), out);
    profile::record(
        KernelKind::CopyTranspose,
        "crop_spatial",
        0,
        out.storage_bytes() as u64,
        out.storage_bytes() as u64,
    );
    out
}

/// Pastes `src` (NCHW) into `dst` at spatial offset `(y0, x0)`, overwriting
/// the window — the inverse of [`crop_spatial`] for non-overlapping tiles.
/// Batch and channel counts must match.
///
/// # Panics
/// Panics if shapes are incompatible or the window exceeds `dst`'s bounds.
pub fn paste_spatial(dst: &mut Tensor, src: &Tensor, y0: usize, x0: usize) {
    let (n, c, h, w) = dst.shape().nchw();
    let (sn, sc, sh, sw) = src.shape().nchw();
    assert!(sn == n && sc == c, "paste batch/channel mismatch");
    assert!(y0 + sh <= h && x0 + sw <= w, "paste window {y0}+{sh}×{x0}+{sw} exceeds {h}×{w}");
    let ss = src.as_slice();
    {
        let ds = dst.as_mut_slice();
        for ni in 0..n {
            for ci in 0..c {
                let dplane = (ni * c + ci) * h * w;
                let splane = (ni * c + ci) * sh * sw;
                for row in 0..sh {
                    let d = dplane + (y0 + row) * w + x0;
                    let s = splane + row * sw;
                    ds[d..d + sw].copy_from_slice(&ss[s..s + sw]);
                }
            }
        }
    }
    dst.requantize();
    profile::record(
        KernelKind::CopyTranspose,
        "paste_spatial",
        0,
        src.storage_bytes() as u64,
        src.storage_bytes() as u64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{randn, seeded_rng};
    use crate::DType;

    #[test]
    fn roundtrip_is_identity() {
        let mut rng = seeded_rng(8);
        let x = randn([2, 3, 4, 5], DType::F32, 1.0, &mut rng);
        let nhwc = nchw_to_nhwc(&x);
        let back = nhwc_to_nchw(&nhwc, 2, 3, 4, 5, DType::F32);
        assert_eq!(back.as_slice(), x.as_slice());
    }

    #[test]
    fn element_positions_are_correct() {
        // 1×2×2×2: NCHW order [c0: a b / c d, c1: e f / g h]
        let x = Tensor::from_vec(
            [1, 2, 2, 2],
            DType::F32,
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        );
        let nhwc = nchw_to_nhwc(&x);
        // NHWC: (h0,w0): [c0=1, c1=5], (h0,w1): [2, 6], ...
        assert_eq!(nhwc, vec![1.0, 5.0, 2.0, 6.0, 3.0, 7.0, 4.0, 8.0]);
    }

    #[test]
    fn crop_then_paste_roundtrips() {
        let mut rng = seeded_rng(9);
        let x = randn([2, 3, 6, 7], DType::F32, 1.0, &mut rng);
        let tile = crop_spatial(&x, 1, 2, 4, 5);
        assert_eq!(tile.shape().dims(), &[2, 3, 4, 5]);
        // Element check: tile(n,c,r,s) == x(n,c,1+r,2+s).
        for ni in 0..2 {
            for ci in 0..3 {
                for r in 0..4 {
                    for s in 0..5 {
                        assert_eq!(tile.at(&[ni, ci, r, s]), x.at(&[ni, ci, 1 + r, 2 + s]));
                    }
                }
            }
        }
        let mut dst = x.clone();
        paste_spatial(&mut dst, &tile, 1, 2);
        assert_eq!(dst.as_slice(), x.as_slice(), "paste of an unmodified crop is identity");
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn crop_out_of_bounds_panics() {
        crop_spatial(&Tensor::zeros([1, 1, 4, 4], DType::F32), 2, 0, 3, 4);
    }

    #[test]
    fn census_counts_transposes() {
        crate::profile::isolated_test(|| {
            let x = Tensor::zeros([1, 4, 3, 3], DType::F32);
            crate::profile::set_phase(crate::profile::Phase::Forward);
            let ((), prof) = crate::profile::capture(|| {
                let nhwc = nchw_to_nhwc(&x);
                let _ = nhwc_to_nchw(&nhwc, 1, 4, 3, 3, DType::F32);
            });
            let cats = prof.by_category();
            let copies = cats
                .iter()
                .find(|(c, _)| *c == crate::profile::Category::CopiesTransposes)
                .expect("category")
                .1;
            assert_eq!(copies.kernels, 2, "each layout change is a copy kernel");
            assert_eq!(copies.bytes, 4 * x.storage_bytes() as u64);
        });
    }
}
