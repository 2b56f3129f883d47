//! 2-D convolution (forward and backward), with stride, padding and
//! dilation.
//!
//! Dilation ("atrous convolution") is what lets DeepLabv3+'s encoder and
//! ASPP block see large receptive fields without downsampling — the green
//! layers of the paper's Figure 1 use dilations 2, 4, 12, 24 and 36.
//!
//! Two algorithms are provided, mirroring the paper's observation (§VI)
//! that cuDNN executed all convolutions as either *direct* convolutions or
//! *implicit GEMMs*: [`ConvAlgo::Direct`] and [`ConvAlgo::Im2colGemm`].
//! Both count the same `2·N·K·C·R·S·Ho·Wo` FLOPs.
//!
//! The im2col-GEMM path is a true *implicit* GEMM: the patch matrix is
//! never materialized. [`Im2colB`] implements the blocked GEMM's
//! [`PanelSource`] by computing each `B` micro-panel's elements straight
//! from the input tensor, so the only intermediate storage is the
//! cache-resident packed panel itself. Parallelism comes from the GEMM's
//! own output-tile grid (disjoint `C` regions, fixed accumulation order —
//! bit-identical at any thread count), not from a separate pack phase.
//! Backward runs through the same machinery: the data gradient is
//! `Wᵀ·∂y` per pixel strip followed by a col2im scatter, the weight
//! gradient is `∂y·colᵀ` with the patch matrix again packed on the fly.

use crate::ops::gemm::{
    compute_precision, gemm_a_bt, gemm_noprofile, gemm_panels, Layout, PanelSource, SliceB,
};
use crate::pool;
use crate::profile::{self, KernelKind};
use crate::shape::conv_out_dim;
use crate::tensor::Tensor;
use rayon::prelude::*;

/// Convolution hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Spatial stride (same in H and W).
    pub stride: usize,
    /// Zero padding (same in H and W).
    pub pad: usize,
    /// Dilation factor (1 = ordinary convolution).
    pub dilation: usize,
}

impl Conv2dParams {
    /// Unit-stride convolution with the given padding.
    pub fn padded(pad: usize) -> Conv2dParams {
        Conv2dParams { stride: 1, pad, dilation: 1 }
    }

    /// `same`-size 3×3-style convolution with dilation `d` (pad = d).
    pub fn atrous(d: usize) -> Conv2dParams {
        Conv2dParams { stride: 1, pad: d, dilation: d }
    }

    /// Strided convolution with the given padding.
    pub fn strided(stride: usize, pad: usize) -> Conv2dParams {
        Conv2dParams { stride, pad, dilation: 1 }
    }
}

impl Default for Conv2dParams {
    fn default() -> Self {
        Conv2dParams { stride: 1, pad: 0, dilation: 1 }
    }
}

/// Convolution algorithm selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvAlgo {
    /// Pick per-shape: GEMM for 1×1 and large-channel kernels, direct
    /// otherwise (a crude stand-in for cuDNN's autotuner).
    Auto,
    /// Seven-loop direct convolution.
    Direct,
    /// Explicit im2col followed by a GEMM.
    Im2colGemm,
}

/// FLOPs of one convolution pass per the paper's Section VI convention.
pub fn conv_flops(n: usize, k: usize, c: usize, r: usize, s: usize, ho: usize, wo: usize) -> u64 {
    2 * (n as u64) * (k as u64) * (c as u64) * (r as u64) * (s as u64) * (ho as u64) * (wo as u64)
}

fn record_conv(name: &'static str, flops: u64, read: &[&Tensor], written: &Tensor) {
    profile::record(
        KernelKind::Conv,
        name,
        flops,
        read.iter().map(|t| t.storage_bytes() as u64).sum(),
        written.storage_bytes() as u64,
    );
}

/// Forward convolution.
///
/// * `x`: input `[N, C, H, W]`
/// * `w`: weights `[K, C, R, S]`
///
/// Returns `[N, K, Ho, Wo]` in `x`'s precision.
///
/// # Panics
/// Panics if channel counts disagree or the kernel does not fit the padded
/// input.
pub fn conv2d_forward(x: &Tensor, w: &Tensor, p: Conv2dParams, algo: ConvAlgo) -> Tensor {
    let y = conv2d_forward_noprofile(x, w, p, algo);
    let (n, k, ho, wo) = y.shape().nchw();
    let (_, c, r, s) = w.shape().nchw();
    record_conv("conv2d_fwd", conv_flops(n, k, c, r, s, ho, wo), &[x, w], &y);
    y
}

/// [`conv2d_forward`] without a census entry. Used by ops that account the
/// convolution's work at their own level — e.g. a fused epilogue that
/// emits a single combined record — so the census never double-counts the
/// inner kernel (the `gemm_noprofile` convention, one level up).
pub fn conv2d_forward_noprofile(x: &Tensor, w: &Tensor, p: Conv2dParams, algo: ConvAlgo) -> Tensor {
    let (n, c, h, wd) = x.shape().nchw();
    let (k, cw, r, s) = w.shape().nchw();
    assert_eq!(c, cw, "conv2d: input has {c} channels but weight expects {cw}");
    let ho = conv_out_dim(h, r, p.stride, p.pad, p.dilation);
    let wo = conv_out_dim(wd, s, p.stride, p.pad, p.dilation);
    let mut y = Tensor::zeros([n, k, ho, wo], x.dtype());

    let use_gemm = match algo {
        ConvAlgo::Direct => false,
        ConvAlgo::Im2colGemm => true,
        ConvAlgo::Auto => r * s == 1 || c >= 16,
    };
    if use_gemm {
        forward_im2col(x, w, p, &mut y);
    } else {
        forward_direct(x, w, p, &mut y);
    }
    y.requantize();
    y
}

fn forward_direct(x: &Tensor, w: &Tensor, p: Conv2dParams, y: &mut Tensor) {
    let (_n, c, h, wd) = x.shape().nchw();
    let (k, _, r, s) = w.shape().nchw();
    let (_, _, ho, wo) = y.shape().nchw();
    let xs = x.as_slice();
    let ws = w.as_slice();
    let ys = y.as_mut_slice();
    // Each (n, k) output plane is written by exactly one task.
    ys.par_chunks_mut(ho * wo).enumerate().for_each(|(plane, yp)| {
        let ni = plane / k;
        let ki = plane % k;
        for ci in 0..c {
            let xbase = (ni * c + ci) * h * wd;
            let wbase = ((ki * c + ci) * r) * s;
            for ri in 0..r {
                for si in 0..s {
                    let wv = ws[wbase + ri * s + si];
                    if wv == 0.0 {
                        continue;
                    }
                    for hoi in 0..ho {
                        let hi = (hoi * p.stride + ri * p.dilation) as isize - p.pad as isize;
                        if hi < 0 || hi >= h as isize {
                            continue;
                        }
                        let xrow = xbase + hi as usize * wd;
                        let yrow = hoi * wo;
                        for woi in 0..wo {
                            let wi = (woi * p.stride + si * p.dilation) as isize - p.pad as isize;
                            if wi < 0 || wi >= wd as isize {
                                continue;
                            }
                            yp[yrow + woi] += wv * xs[xrow + wi as usize];
                        }
                    }
                }
            }
        }
    });
}

/// Scatters the receptive field of image `ni` into `col[C·R·S, Ho·Wo]`.
#[allow(clippy::too_many_arguments)]
fn im2col(
    xs: &[f32],
    ni: usize,
    c: usize,
    h: usize,
    wd: usize,
    r: usize,
    s: usize,
    ho: usize,
    wo: usize,
    p: Conv2dParams,
    col: &mut [f32],
) {
    col.iter_mut().for_each(|v| *v = 0.0);
    for ci in 0..c {
        let xbase = (ni * c + ci) * h * wd;
        for ri in 0..r {
            for si in 0..s {
                let crow = ((ci * r + ri) * s + si) * ho * wo;
                for hoi in 0..ho {
                    let hi = (hoi * p.stride + ri * p.dilation) as isize - p.pad as isize;
                    if hi < 0 || hi >= h as isize {
                        continue;
                    }
                    let xrow = xbase + hi as usize * wd;
                    for woi in 0..wo {
                        let wi = (woi * p.stride + si * p.dilation) as isize - p.pad as isize;
                        if wi < 0 || wi >= wd as isize {
                            continue;
                        }
                        col[crow + hoi * wo + woi] = xs[xrow + wi as usize];
                    }
                }
            }
        }
    }
}

/// Output pixels per backward strip. Bounds the column-gradient buffer at
/// `C·R·S·COL_STRIP` floats regardless of image size — a full 1152×768
/// paper tile with 48·3·3 patch rows would otherwise need a ~1.5 GB
/// buffer. Fixed (not thread-count-dependent), so the strip partitioning
/// and hence the floating-point evaluation order never change. (Forward no
/// longer needs a strip: its patch matrix is packed on the fly.)
const COL_STRIP: usize = 8192;

/// [`PanelSource`] that packs im2col patch values straight into GEMM `B`
/// micro-panels — the patch matrix `col[C·R·S, Ho·Wo]` is never stored.
///
/// Two orientations cover both convolution GEMMs:
/// * forward / data-gradient shape (`by_pixel_depth = false`): logical
///   `B = col` — depth index is the patch row `(ci, ri, si)`, columns are
///   output pixels (offset by `pix0` for strip-wise callers);
/// * weight-gradient shape (`by_pixel_depth = true`): logical `B = colᵀ` —
///   depth index is the output pixel, columns are patch rows.
pub(crate) struct Im2colB<'a> {
    /// Backing tensor data (whole batch).
    pub(crate) xs: &'a [f32],
    /// Offset of this image's first element.
    pub(crate) xbase: usize,
    pub(crate) h: usize,
    pub(crate) wd: usize,
    pub(crate) r: usize,
    pub(crate) s: usize,
    /// Output width (decomposes a pixel index into `(hoi, woi)`).
    pub(crate) wo: usize,
    /// Logical column count (pixels, or `C·R·S` when `by_pixel_depth`).
    pub(crate) ncols: usize,
    /// First pixel of the strip this source covers.
    pub(crate) pix0: usize,
    pub(crate) p: Conv2dParams,
    pub(crate) by_pixel_depth: bool,
}

impl Im2colB<'_> {
    /// The im2col element at (patch row `crow`, output pixel `pixel`),
    /// zero for receptive-field positions that fall in the padding.
    #[inline]
    fn patch(&self, crow: usize, pixel: usize) -> f32 {
        let si = crow % self.s;
        let ri = (crow / self.s) % self.r;
        let ci = crow / (self.r * self.s);
        let hoi = pixel / self.wo;
        let woi = pixel % self.wo;
        let hi = (hoi * self.p.stride + ri * self.p.dilation) as isize - self.p.pad as isize;
        let wi = (woi * self.p.stride + si * self.p.dilation) as isize - self.p.pad as isize;
        if hi >= 0 && hi < self.h as isize && wi >= 0 && wi < self.wd as isize {
            self.xs[self.xbase + ci * self.h * self.wd + hi as usize * self.wd + wi as usize]
        } else {
            0.0
        }
    }
}

impl PanelSource for Im2colB<'_> {
    fn pack_panel(&self, j0: usize, pc: usize, kc: usize, panel: &mut [f32]) {
        let nr = crate::simd::NR;
        debug_assert!(panel.len() >= kc * nr);
        if self.by_pixel_depth {
            // Depth = pixels, columns = patch rows (colᵀ).
            for j in 0..nr {
                let crow = j0 + j;
                if crow >= self.ncols {
                    for pi in 0..kc {
                        panel[pi * nr + j] = 0.0;
                    }
                    continue;
                }
                for pi in 0..kc {
                    panel[pi * nr + j] = self.patch(crow, self.pix0 + pc + pi);
                }
            }
        } else {
            // Depth = patch rows, columns = pixels (col).
            for pi in 0..kc {
                let crow = pc + pi;
                for j in 0..nr {
                    panel[pi * nr + j] = if j0 + j < self.ncols {
                        self.patch(crow, self.pix0 + j0 + j)
                    } else {
                        0.0
                    };
                }
            }
        }
    }
}

fn forward_im2col(x: &Tensor, w: &Tensor, p: Conv2dParams, y: &mut Tensor) {
    let (n, c, h, wd) = x.shape().nchw();
    let (k, _, r, s) = w.shape().nchw();
    let (_, _, ho, wo) = y.shape().nchw();
    let xs = x.as_slice();
    let ws = w.as_slice();
    let ys = y.as_mut_slice();
    let crs = c * r * s;
    let hw = ho * wo;
    let prec = compute_precision();
    // Images run serially; all parallelism is the GEMM's output-tile grid,
    // which partitions the (K × Ho·Wo) output — not the pack — so wide
    // images scale with threads and small shapes stay on one thread.
    for ni in 0..n {
        let src = Im2colB {
            xs,
            xbase: ni * c * h * wd,
            h,
            wd,
            r,
            s,
            wo,
            ncols: hw,
            pix0: 0,
            p,
            by_pixel_depth: false,
        };
        let yn = &mut ys[ni * k * hw..(ni + 1) * k * hw];
        // y_n[K, Ho·Wo] += W[K, C·R·S] · col[C·R·S, Ho·Wo]
        gemm_panels(k, hw, crs, ws, Layout::Normal, &src, yn, hw, prec);
    }
}

/// Gradients of a convolution.
#[derive(Debug)]
pub struct ConvGrads {
    /// `∂L/∂x`, same shape as the input.
    pub grad_input: Tensor,
    /// `∂L/∂w`, same shape as the weights.
    pub grad_weight: Tensor,
}

/// Backward convolution: given `grad_out = ∂L/∂y`, computes input and
/// weight gradients.
///
/// Both gradients run through the packed blocked GEMM (inheriting its
/// blocking, SIMD micro-kernel and reduced-precision panels): the data
/// gradient is `colᵍ = Wᵀ · ∂y` per pixel strip followed by a col2im
/// scatter-add, the weight gradient is `∂y · colᵀ` with the patch matrix
/// packed on the fly by [`Im2colB`]. Strip boundaries and scatter order
/// are shape-derived, so results are bit-identical at any thread count.
pub fn conv2d_backward(x: &Tensor, w: &Tensor, grad_out: &Tensor, p: Conv2dParams) -> ConvGrads {
    let (n, c, h, wd) = x.shape().nchw();
    let (k, _, r, s) = w.shape().nchw();
    let (gn, gk, ho, wo) = grad_out.shape().nchw();
    assert_eq!((gn, gk), (n, k), "grad_out batch/channel mismatch");
    let crs = c * r * s;
    let hw = ho * wo;
    let prec = compute_precision();

    // --- grad wrt input -------------------------------------------------
    let mut gx = Tensor::zeros([n, c, h, wd], x.dtype());
    {
        let gos = grad_out.as_slice();
        let ws = w.as_slice();
        let gxs = gx.as_mut_slice();
        let mut gcol = pool::take_zeroed(crs * COL_STRIP.min(hw.max(1)));
        for ni in 0..n {
            let gxn = &mut gxs[ni * c * h * wd..(ni + 1) * c * h * wd];
            for p0 in (0..hw).step_by(COL_STRIP) {
                let sw = COL_STRIP.min(hw - p0);
                let strip = &mut gcol[..crs * sw];
                strip.fill(0.0);
                // colᵍ[C·R·S, sw] = Wᵀ[C·R·S, K] · ∂y_n[K, p0..p0+sw]
                let go_src = SliceB {
                    b: &gos[ni * k * hw + p0..],
                    layout: Layout::Normal,
                    n: sw,
                    ld: hw,
                };
                gemm_panels(crs, sw, k, ws, Layout::Transposed, &go_src, strip, sw, prec);
                // col2im: one task per input channel — each owns patch rows
                // (ci·r+ri)·s+si and the (ni, ci) plane, so writes are
                // disjoint and the per-element order (strips ascending,
                // then ri, si, pixel) is thread-independent.
                let strip = &gcol[..crs * sw];
                gxn.par_chunks_mut(h * wd).enumerate().for_each(|(ci, gxp)| {
                    for ri in 0..r {
                        for si in 0..s {
                            let rowbase = ((ci * r + ri) * s + si) * sw;
                            for (j, &g) in strip[rowbase..rowbase + sw].iter().enumerate() {
                                let pixel = p0 + j;
                                let hoi = pixel / wo;
                                let woi = pixel % wo;
                                let hi = (hoi * p.stride + ri * p.dilation) as isize
                                    - p.pad as isize;
                                if hi < 0 || hi >= h as isize {
                                    continue;
                                }
                                let wi = (woi * p.stride + si * p.dilation) as isize
                                    - p.pad as isize;
                                if wi < 0 || wi >= wd as isize {
                                    continue;
                                }
                                gxp[hi as usize * wd + wi as usize] += g;
                            }
                        }
                    }
                });
            }
        }
        pool::recycle(gcol);
    }
    gx.requantize();
    record_conv(
        "conv2d_bwd_data",
        conv_flops(n, k, c, r, s, ho, wo),
        &[grad_out, w],
        &gx,
    );

    // --- grad wrt weights (always f32 master precision) ------------------
    let mut gw = Tensor::zeros([k, c, r, s], crate::tensor::DType::F32);
    {
        let gos = grad_out.as_slice();
        let xs = x.as_slice();
        let gws = gw.as_mut_slice();
        for ni in 0..n {
            let src = Im2colB {
                xs,
                xbase: ni * c * h * wd,
                h,
                wd,
                r,
                s,
                wo,
                ncols: crs,
                pix0: 0,
                p,
                by_pixel_depth: true,
            };
            // Wᵍ[K, C·R·S] += ∂y_n[K, Ho·Wo] · col[C·R·S, Ho·Wo]ᵀ
            gemm_panels(k, crs, hw, &gos[ni * k * hw..(ni + 1) * k * hw], Layout::Normal, &src, gws, crs, prec);
        }
    }
    record_conv(
        "conv2d_bwd_weight",
        conv_flops(n, k, c, r, s, ho, wo),
        &[grad_out, x],
        &gw,
    );

    ConvGrads { grad_input: gx, grad_weight: gw }
}

/// 1×1 convolution expressed directly as a GEMM over flattened pixels;
/// exposed for the benchmark suite to compare lowering strategies.
pub fn conv1x1_as_gemm(x: &Tensor, w: &Tensor) -> Tensor {
    let (n, c, h, wd) = x.shape().nchw();
    let (k, cw, r, s) = w.shape().nchw();
    assert_eq!((cw, r, s), (c, 1, 1), "conv1x1_as_gemm requires 1×1 weights");
    let mut y = Tensor::zeros([n, k, h, wd], x.dtype());
    let xs = x.as_slice();
    let ws = w.as_slice();
    let hw = h * wd;
    // Serial over images; the blocked GEMM parallelizes over its own tile
    // grid (hw is the wide dimension, so tiles dominate image count).
    for (ni, yn) in y.as_mut_slice().chunks_mut(k * hw).enumerate() {
        gemm_noprofile(k, hw, c, ws, &xs[ni * c * hw..(ni + 1) * c * hw], yn);
    }
    y.requantize();
    record_conv("conv1x1_gemm", conv_flops(n, k, c, 1, 1, h, wd), &[x, w], &y);
    y
}

/// Reference transposed-free weight-gradient via GEMM (`gemm_a_bt`), used
/// in tests to validate the direct accumulation path.
#[doc(hidden)]
pub fn conv2d_weight_grad_gemm(x: &Tensor, grad_out: &Tensor, kshape: (usize, usize, usize, usize), p: Conv2dParams) -> Tensor {
    let (n, c, h, wd) = x.shape().nchw();
    let (k, ck, r, s) = kshape;
    assert_eq!(c, ck);
    let (_, _, ho, wo) = grad_out.shape().nchw();
    let crs = c * r * s;
    let mut gw = pool::take_zeroed(k * crs);
    let xs = x.as_slice();
    let gos = grad_out.as_slice();
    let mut col = pool::take_zeroed(crs * ho * wo);
    for ni in 0..n {
        im2col(xs, ni, c, h, wd, r, s, ho, wo, p, &mut col);
        // gw[k, crs] += gout_n[k, howo] · col[crs, howo]ᵀ
        gemm_a_bt(k, crs, ho * wo, &gos[ni * k * ho * wo..(ni + 1) * k * ho * wo], &col, &mut gw);
    }
    pool::recycle(col);
    Tensor::from_pool([k, c, r, s], crate::tensor::DType::F32, gw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{randn, seeded_rng};
    use crate::tensor::DType;

    fn small_case() -> (Tensor, Tensor) {
        let mut rng = seeded_rng(100);
        let x = randn([2, 3, 6, 5], DType::F32, 1.0, &mut rng);
        let w = randn([4, 3, 3, 3], DType::F32, 0.5, &mut rng);
        (x, w)
    }

    #[test]
    fn hand_computed_1x1() {
        // 1 image, 2 channels, 2×2; 1 output channel with weights [2, -1].
        let x = Tensor::from_vec([1, 2, 2, 2], DType::F32, vec![
            1.0, 2.0, 3.0, 4.0, // channel 0
            5.0, 6.0, 7.0, 8.0, // channel 1
        ]);
        let w = Tensor::from_vec([1, 2, 1, 1], DType::F32, vec![2.0, -1.0]);
        let y = conv2d_forward(&x, &w, Conv2dParams::default(), ConvAlgo::Direct);
        assert_eq!(y.as_slice(), &[-3.0, -2.0, -1.0, 0.0]);
    }

    #[test]
    fn hand_computed_3x3_valid() {
        // 3×3 ones kernel over 4×4 ramp, no padding → sums of 3×3 windows.
        let x = Tensor::from_vec([1, 1, 4, 4], DType::F32, (0..16).map(|i| i as f32).collect());
        let w = Tensor::full([1, 1, 3, 3], DType::F32, 1.0);
        let y = conv2d_forward(&x, &w, Conv2dParams::default(), ConvAlgo::Direct);
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[45.0, 54.0, 81.0, 90.0]);
    }

    #[test]
    fn direct_and_im2col_agree() {
        let (x, w) = small_case();
        for p in [
            Conv2dParams::default(),
            Conv2dParams::padded(1),
            Conv2dParams::strided(2, 1),
            Conv2dParams::atrous(2),
        ] {
            let a = conv2d_forward(&x, &w, p, ConvAlgo::Direct);
            let b = conv2d_forward(&x, &w, p, ConvAlgo::Im2colGemm);
            assert_eq!(a.shape(), b.shape());
            for (u, v) in a.as_slice().iter().zip(b.as_slice().iter()) {
                assert!((u - v).abs() < 1e-4, "{u} vs {v} under {p:?}");
            }
        }
    }

    #[test]
    fn conv1x1_gemm_matches_direct() {
        let mut rng = seeded_rng(5);
        let x = randn([2, 8, 4, 4], DType::F32, 1.0, &mut rng);
        let w = randn([5, 8, 1, 1], DType::F32, 0.4, &mut rng);
        let a = conv2d_forward(&x, &w, Conv2dParams::default(), ConvAlgo::Direct);
        let b = conv1x1_as_gemm(&x, &w);
        for (u, v) in a.as_slice().iter().zip(b.as_slice().iter()) {
            assert!((u - v).abs() < 1e-4);
        }
    }

    #[test]
    fn atrous_preserves_spatial_size() {
        let (x, _) = small_case();
        let mut rng = seeded_rng(8);
        let w = randn([2, 3, 3, 3], DType::F32, 0.3, &mut rng);
        for d in [1, 2] {
            let y = conv2d_forward(&x, &w, Conv2dParams::atrous(d), ConvAlgo::Direct);
            assert_eq!(y.shape().dims(), &[2, 2, 6, 5], "dilation {d}");
        }
    }

    /// Central-difference gradient check of both input and weight grads.
    #[test]
    fn gradient_check() {
        let mut rng = seeded_rng(42);
        let x = randn([1, 2, 5, 4], DType::F32, 1.0, &mut rng);
        let w = randn([3, 2, 3, 3], DType::F32, 0.5, &mut rng);
        let p = Conv2dParams::strided(2, 1);

        // Loss = sum(y * coeff) for fixed pseudo-random coeffs.
        let y0 = conv2d_forward(&x, &w, p, ConvAlgo::Direct);
        let coeff: Vec<f32> = (0..y0.numel()).map(|i| ((i * 31 % 13) as f32 - 6.0) * 0.1).collect();
        let loss = |y: &Tensor| -> f32 {
            y.as_slice().iter().zip(coeff.iter()).map(|(a, b)| a * b).sum()
        };
        let grad_out = Tensor::from_vec(y0.shape().clone(), DType::F32, coeff.clone());
        let grads = conv2d_backward(&x, &w, &grad_out, p);

        let eps = 1e-2f32;
        for i in [0usize, 3, 11, x.numel() - 1] {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num = (loss(&conv2d_forward(&xp, &w, p, ConvAlgo::Direct))
                - loss(&conv2d_forward(&xm, &w, p, ConvAlgo::Direct)))
                / (2.0 * eps);
            let ana = grads.grad_input.as_slice()[i];
            assert!((num - ana).abs() < 2e-2, "input grad {i}: {num} vs {ana}");
        }
        for i in [0usize, 7, 20, w.numel() - 1] {
            let mut wp = w.clone();
            wp.as_mut_slice()[i] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[i] -= eps;
            let num = (loss(&conv2d_forward(&x, &wp, p, ConvAlgo::Direct))
                - loss(&conv2d_forward(&x, &wm, p, ConvAlgo::Direct)))
                / (2.0 * eps);
            let ana = grads.grad_weight.as_slice()[i];
            assert!((num - ana).abs() < 2e-2, "weight grad {i}: {num} vs {ana}");
        }
    }

    #[test]
    fn weight_grad_direct_matches_gemm_reference() {
        let mut rng = seeded_rng(9);
        let x = randn([2, 3, 6, 6], DType::F32, 1.0, &mut rng);
        let w = randn([4, 3, 3, 3], DType::F32, 0.5, &mut rng);
        let p = Conv2dParams::atrous(2);
        let y = conv2d_forward(&x, &w, p, ConvAlgo::Direct);
        let go = randn(y.shape().clone(), DType::F32, 1.0, &mut rng);
        let direct = conv2d_backward(&x, &w, &go, p).grad_weight;
        let viagemm = conv2d_weight_grad_gemm(&x, &go, (4, 3, 3, 3), p);
        for (a, b) in direct.as_slice().iter().zip(viagemm.as_slice().iter()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn flop_count_matches_section_vi_example() {
        // Paper §VI: 3×3 direct convolution on 1152×768, 48 in / 32 out
        // channels, batch 2 → 48.9e9 FLOPs ("same" conv: Ho×Wo = H×W).
        let flops = conv_flops(2, 32, 48, 3, 3, 1152, 768);
        assert_eq!(flops, 48_922_361_856);
        assert!((flops as f64 / 1e9 - 48.9).abs() < 0.05);
    }

    #[test]
    fn census_records_forward_and_backward() {
        crate::profile::isolated_test(|| {
            let (x, w) = small_case();
            crate::profile::set_phase(crate::profile::Phase::Forward);
            let (y, prof) = crate::profile::capture(|| {
                let y = conv2d_forward(&x, &w, Conv2dParams::padded(1), ConvAlgo::Auto);
                crate::profile::set_phase(crate::profile::Phase::Backward);
                let _ = conv2d_backward(&x, &w, &y, Conv2dParams::padded(1));
                crate::profile::set_phase(crate::profile::Phase::Forward);
                y
            });
            let expected = conv_flops(2, 4, 3, 3, 3, 6, 5);
            let cats = prof.by_category();
            let fwd = cats.iter().find(|(c, _)| *c == crate::profile::Category::ForwardConv).unwrap().1;
            let bwd = cats.iter().find(|(c, _)| *c == crate::profile::Category::BackwardConv).unwrap().1;
            assert_eq!(fwd.flops, expected);
            assert_eq!(bwd.flops, 2 * expected, "data + weight passes");
            assert_eq!(y.shape().dims(), &[2, 4, 6, 5]);
        });
    }

    #[test]
    fn fp16_output_is_quantized() {
        let x = Tensor::from_vec([1, 1, 1, 2], DType::F16, vec![2048.0, 2048.0]);
        let w = Tensor::from_vec([1, 1, 1, 2], DType::F16, vec![1.0, 1.0]);
        // 2048 + 2048 = 4096 exactly representable; but 2048*1 + 2048*1 + 1 wouldn't be.
        let y = conv2d_forward(&x, &w, Conv2dParams::default(), ConvAlgo::Direct);
        assert_eq!(y.dtype(), DType::F16);
        assert_eq!(y.as_slice(), &[4096.0]);
    }
}
