//! Measured host roofline and per-category kernel replay.
//!
//! The roofline is measured, not assumed: peak GFLOP/s through the public
//! `exaclim_tensor::ops::gemm` and STREAM-style GB/s through the library's
//! own parallel `scale_add_` kernel, both at the pinned kernel-pool width.
//! The replay then runs every distinct operation shape of a workload's
//! `ArchSpec` through the public `exaclim_tensor::ops` functions and sums
//! the best time of each, weighted by how often the shape occurs: the
//! measured CPU counterpart of the paper's per-category tables
//! (Figs 3/8/9).

use exaclim_models::{ArchSpec, OpKind, OpSpec};
use exaclim_tensor::init::{randn, seeded_rng};
use exaclim_tensor::ops::{self, Conv2dParams, ConvAlgo, Deconv2dParams};
use exaclim_tensor::{DType, Tensor};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const GEMM_DIM: usize = 512;
const GEMM_REPS: usize = 12;
const STREAM_ELEMS: usize = 8 << 20;
const STREAM_REPS: usize = 10;
/// Timed calls per distinct op shape (after one untimed call); the best counts.
const REPLAY_REPS: usize = 2;

/// The host roofline at the pinned width.
#[derive(Debug, Clone, Copy)]
pub struct Roofline {
    /// Best `gemm` rate, GFLOP/s.
    pub gemm_peak_gflops: f64,
    /// Best `scale_add_` bandwidth (two reads, one write per element), GB/s.
    pub stream_gbps: f64,
}

fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Measures the roofline under the calling thread's compute precision.
pub fn measure(seed: u64) -> Roofline {
    let mut rng = seeded_rng(seed ^ 0x600F);
    let n = GEMM_DIM;
    let a = randn([n, n], DType::F32, 1.0, &mut rng);
    let b = randn([n, n], DType::F32, 1.0, &mut rng);
    let mut c = vec![0.0f32; n * n];
    let gemm_s = best_of(GEMM_REPS, || {
        ops::gemm(n, n, n, a.as_slice(), b.as_slice(), &mut c);
        black_box(&c);
    });
    let x = Tensor::full([STREAM_ELEMS], DType::F32, 1.0);
    let mut y = Tensor::full([STREAM_ELEMS], DType::F32, 0.5);
    let stream_s = best_of(STREAM_REPS, || {
        ops::scale_add_(&mut y, 0.5, &x);
        black_box(&y);
    });
    Roofline {
        gemm_peak_gflops: 2.0 * (n * n * n) as f64 / gemm_s / 1e9,
        stream_gbps: 3.0 * 4.0 * STREAM_ELEMS as f64 / stream_s / 1e9,
    }
}

/// Replay totals for one kernel category.
#[derive(Debug, Clone, Copy, Default)]
pub struct CategoryReplay {
    /// Summed best wall time of the category's ops, one sample's worth.
    pub seconds: f64,
    /// Spec FLOPs of the replayed ops.
    pub flops: u64,
}

impl CategoryReplay {
    /// Achieved GFLOP/s.
    pub fn gflops(&self) -> f64 {
        if self.seconds > 0.0 {
            self.flops as f64 / self.seconds / 1e9
        } else {
            0.0
        }
    }
}

/// Replay results keyed by category (`fwd_conv`, `bwd_conv`,
/// `fwd_pointwise`, `bwd_pointwise`).
#[derive(Debug, Default)]
pub struct Replay {
    /// Per-category totals.
    pub categories: BTreeMap<&'static str, CategoryReplay>,
    /// Ops with no replay kernel (concatenation copies) or whose padding
    /// could not be recovered from the spec's shapes.
    pub skipped: usize,
}

fn conv_out(h: usize, k: usize, stride: usize, pad: usize, dil: usize) -> Option<usize> {
    (h + 2 * pad)
        .checked_sub(dil * (k - 1) + 1)
        .map(|v| v / stride + 1)
}

/// The padding that maps the op's input extent onto its output extent,
/// preferring "same"-style `dil·(k−1)/2`.
fn conv_pad(op: &OpSpec, k: usize, stride: usize, dil: usize) -> Option<usize> {
    let fits = |p: usize| {
        conv_out(op.in_h, k, stride, p, dil) == Some(op.out_h)
            && conv_out(op.in_w, k, stride, p, dil) == Some(op.out_w)
    };
    let same = dil * (k - 1) / 2;
    std::iter::once(same).chain(0..=dil * k).find(|&p| fits(p))
}

/// Times one op's forward (and, with `backward`, its backward) kernels:
/// `(fwd_seconds, bwd_seconds)`, `None` for a kernel the op lacks.
fn time_op(
    op: &OpSpec,
    dtype: DType,
    backward: bool,
    seed: u64,
) -> Option<(Option<f64>, Option<f64>)> {
    let mut rng = seeded_rng(seed);
    let x = randn([1, op.in_ch, op.in_h, op.in_w], dtype, 1.0, &mut rng);
    let gy = randn([1, op.out_ch, op.out_h, op.out_w], dtype, 1.0, &mut rng);
    let reps = REPLAY_REPS;
    let t = match op.kind {
        OpKind::Conv {
            kernel,
            stride,
            dilation,
        } => {
            let pad = conv_pad(op, kernel, stride, dilation)?;
            let p = Conv2dParams {
                stride,
                pad,
                dilation,
            };
            let w = randn(
                [op.out_ch, op.in_ch, kernel, kernel],
                DType::F32,
                0.1,
                &mut rng,
            );
            let f = best_of(reps, || {
                drop(black_box(ops::conv2d_forward(&x, &w, p, ConvAlgo::Auto)))
            });
            let b = backward.then(|| {
                best_of(reps, || {
                    drop(black_box(ops::conv2d_backward(&x, &w, &gy, p)))
                })
            });
            (Some(f), b)
        }
        OpKind::Deconv { kernel, stride } => {
            let p = Deconv2dParams {
                stride,
                pad: (kernel - 1) / 2,
                output_pad: stride - 1,
            };
            let w = randn(
                [op.in_ch, op.out_ch, kernel, kernel],
                DType::F32,
                0.1,
                &mut rng,
            );
            let y = ops::deconv2d_forward(&x, &w, p);
            if y.shape().dims()[2..] != [op.out_h, op.out_w] {
                return None;
            }
            let f = best_of(reps, || drop(black_box(ops::deconv2d_forward(&x, &w, p))));
            let b = backward.then(|| {
                best_of(reps, || {
                    drop(black_box(ops::deconv2d_backward(&x, &w, &gy, p)))
                })
            });
            (Some(f), b)
        }
        OpKind::BatchNorm => {
            let gamma = Tensor::full([op.in_ch], DType::F32, 1.0);
            let beta = Tensor::full([op.in_ch], DType::F32, 0.0);
            let (_, cache) = ops::batchnorm_forward(&x, &gamma, &beta, 1e-5, None);
            let f = best_of(reps, || {
                drop(black_box(ops::batchnorm_forward(
                    &x, &gamma, &beta, 1e-5, None,
                )))
            });
            let b = backward.then(|| {
                best_of(reps, || {
                    drop(black_box(ops::batchnorm_backward(&gy, &gamma, &cache)))
                })
            });
            (Some(f), b)
        }
        OpKind::ReLU => {
            let f = best_of(reps, || drop(black_box(ops::relu_forward(&x))));
            let b =
                backward.then(|| best_of(reps, || drop(black_box(ops::relu_backward(&x, &gy)))));
            (Some(f), b)
        }
        OpKind::MaxPool { kernel, stride } => {
            let pad = (0..kernel).find(|&p| {
                conv_out(op.in_h, kernel, stride, p, 1) == Some(op.out_h)
                    && conv_out(op.in_w, kernel, stride, p, 1) == Some(op.out_w)
            })?;
            let (_, arg) = ops::maxpool2d_forward(&x, kernel, stride, pad);
            let f = best_of(reps, || {
                drop(black_box(ops::maxpool2d_forward(&x, kernel, stride, pad)))
            });
            let b = backward.then(|| {
                best_of(reps, || {
                    drop(black_box(ops::maxpool2d_backward(&x, &gy, &arg)))
                })
            });
            (Some(f), b)
        }
        OpKind::Dropout => {
            let mut drng = seeded_rng(seed ^ 1);
            let (_, mask) = ops::dropout_forward(&x, 0.2, &mut drng);
            let f = best_of(reps, || {
                drop(black_box(ops::dropout_forward(&x, 0.2, &mut drng)))
            });
            let b = backward
                .then(|| best_of(reps, || drop(black_box(ops::dropout_backward(&gy, &mask)))));
            (Some(f), b)
        }
        OpKind::Add => {
            // The backward of an addition passes gradients through: no kernel.
            let f = best_of(reps, || drop(black_box(ops::add(&x, &x))));
            (Some(f), None)
        }
        OpKind::Bilinear => {
            let f = best_of(reps, || {
                drop(black_box(ops::bilinear_resize_forward(
                    &x, op.out_h, op.out_w,
                )))
            });
            let b = backward.then(|| {
                best_of(reps, || {
                    drop(black_box(ops::bilinear_resize_backward(x.shape(), &gy)))
                })
            });
            (Some(f), b)
        }
        OpKind::Softmax => {
            // The loss head's backward is fused into the loss: no separate kernel.
            let f = best_of(reps, || drop(black_box(ops::softmax_channels(&x))));
            (Some(f), None)
        }
        OpKind::Concat => return None,
    };
    Some(t)
}

/// Replays every op of `spec` (forward, plus backward when `backward`) in
/// `dtype` activations under the calling thread's compute precision.
/// Identical shapes are timed once and weighted by their count.
pub fn replay(spec: &ArchSpec, dtype: DType, backward: bool, seed: u64) -> Replay {
    let mut shapes: BTreeMap<String, (usize, &OpSpec)> = BTreeMap::new();
    for op in &spec.ops {
        let key = format!(
            "{:?} {}x{}x{} -> {}x{}x{}",
            op.kind, op.in_ch, op.in_h, op.in_w, op.out_ch, op.out_h, op.out_w
        );
        shapes.entry(key).or_insert((0, op)).0 += 1;
    }
    let mut out = Replay::default();
    for (i, (count, op)) in shapes.into_values().enumerate() {
        let Some((fwd, bwd)) = time_op(op, dtype, backward, seed ^ i as u64) else {
            out.skipped += count;
            continue;
        };
        let conv = op.is_conv_category();
        let mut add = |cat: &'static str, secs: f64, flops: u64| {
            let c = out.categories.entry(cat).or_default();
            c.seconds += secs * count as f64;
            c.flops += flops * count as u64;
        };
        if let Some(s) = fwd {
            add(
                if conv { "fwd_conv" } else { "fwd_pointwise" },
                s,
                op.forward_flops(),
            );
        }
        if let Some(s) = bwd {
            add(
                if conv { "bwd_conv" } else { "bwd_pointwise" },
                s,
                op.backward_flops(),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_padding_is_recovered_from_shapes() {
        let op = OpSpec {
            name: "c".into(),
            kind: OpKind::Conv {
                kernel: 7,
                stride: 2,
                dilation: 1,
            },
            in_ch: 1,
            in_h: 32,
            in_w: 48,
            out_ch: 1,
            out_h: 16,
            out_w: 24,
            weight_params: 49,
        };
        assert_eq!(conv_pad(&op, 7, 2, 1), Some(3));
        let atrous = OpSpec {
            kind: OpKind::Conv {
                kernel: 3,
                stride: 1,
                dilation: 36,
            },
            in_h: 4,
            in_w: 6,
            out_h: 4,
            out_w: 6,
            ..op
        };
        assert_eq!(conv_pad(&atrous, 3, 1, 36), Some(36));
    }
}
