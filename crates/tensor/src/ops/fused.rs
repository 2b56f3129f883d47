//! Fused convolution epilogues.
//!
//! §VII-A's chosen optimization path: "make incremental improvements
//! within TensorFlow to improve the memory management and fuse some of the
//! point-wise operations together to reduce the number of times tensors
//! are read and written to DRAM". This module implements that fusion for
//! the most common epilogue — bias add + ReLU applied in the same pass
//! that writes the convolution output — and the census shows exactly the
//! saving the paper predicts: two fewer kernel launches and two fewer
//! full-tensor read+write round trips per convolution.

use crate::ops::conv::{conv2d_forward, conv2d_forward_noprofile, conv_flops, Conv2dParams, ConvAlgo};
use crate::profile::{self, KernelKind};
use crate::tensor::Tensor;

/// Epilogue applied in the convolution's output pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Epilogue {
    /// Plain convolution (no fusion).
    None,
    /// `y += bias[c]`.
    Bias,
    /// `y = max(0, y)`.
    Relu,
    /// `y = max(0, y + bias[c])`.
    BiasRelu,
}

/// Convolution with a fused pointwise epilogue.
///
/// Numerically identical to `conv2d_forward` followed by
/// `add_bias_nchw` and/or `relu_forward`, but the epilogue touches the
/// output while it is still being written, so the census records one
/// kernel and no extra tensor traffic.
pub fn conv2d_forward_fused(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    epilogue: Epilogue,
    p: Conv2dParams,
    algo: ConvAlgo,
) -> Tensor {
    if epilogue == Epilogue::None {
        // No fusion requested: fall through to the plain convolution, which
        // emits the one canonical `conv2d_fwd` record. (Recording a fused
        // entry *as well* would double-count the kernel's bytes and FLOPs
        // against `census_from_spec` — pinned by the census tests below.)
        return conv2d_forward(x, w, p, algo);
    }

    // Run the core convolution without its own census entry and emit one
    // fused record below. The dedicated no-profile entry point replaces
    // the previous global stop()/start() suspension dance, which dropped
    // and reordered concurrent threads' records.
    let mut y = conv2d_forward_noprofile(x, w, p, algo);

    let (n, k, ho, wo) = y.shape().nchw();
    let (_, c, r, s) = w.shape().nchw();
    {
        let ys = y.as_mut_slice();
        match (epilogue, bias) {
            (Epilogue::None, _) => {}
            (Epilogue::Bias, Some(b)) => {
                let bs = b.as_slice();
                for (plane, chunk) in ys.chunks_mut(ho * wo).enumerate() {
                    let bv = bs[plane % k];
                    for v in chunk.iter_mut() {
                        *v += bv;
                    }
                }
            }
            (Epilogue::Relu, _) => {
                for v in ys.iter_mut() {
                    *v = v.max(0.0);
                }
            }
            (Epilogue::BiasRelu, Some(b)) => {
                let bs = b.as_slice();
                for (plane, chunk) in ys.chunks_mut(ho * wo).enumerate() {
                    let bv = bs[plane % k];
                    for v in chunk.iter_mut() {
                        *v = (*v + bv).max(0.0);
                    }
                }
            }
            (Epilogue::Bias | Epilogue::BiasRelu, None) => {
                panic!("bias epilogue requires a bias tensor");
            }
        }
    }
    y.requantize();
    // One fused kernel: conv FLOPs (+1 op/elt per fused stage), single
    // output write, no intermediate round trips.
    let extra = match epilogue {
        Epilogue::None => 0,
        Epilogue::Bias | Epilogue::Relu => 1,
        Epilogue::BiasRelu => 2,
    };
    profile::record(
        KernelKind::Conv,
        "conv2d_fwd_fused",
        conv_flops(n, k, c, r, s, ho, wo) + extra * y.numel() as u64,
        (x.storage_bytes() + w.storage_bytes() + bias.map_or(0, |b| b.storage_bytes())) as u64,
        y.storage_bytes() as u64,
    );
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{randn, seeded_rng};
    use crate::ops::pointwise::{add_bias_nchw, relu_forward};
    use crate::tensor::DType;

    fn setup() -> (Tensor, Tensor, Tensor) {
        let mut rng = seeded_rng(404);
        let x = randn([2, 3, 6, 6], DType::F32, 1.0, &mut rng);
        let w = randn([4, 3, 3, 3], DType::F32, 0.5, &mut rng);
        let b = randn([4], DType::F32, 0.3, &mut rng);
        (x, w, b)
    }

    #[test]
    fn fused_matches_unfused_bitwise() {
        let (x, w, b) = setup();
        let p = Conv2dParams::padded(1);
        // Unfused: conv → bias → relu.
        let mut reference = conv2d_forward(&x, &w, p, ConvAlgo::Direct);
        add_bias_nchw(&mut reference, &b);
        let reference = relu_forward(&reference);
        // Fused.
        let fused = conv2d_forward_fused(&x, &w, Some(&b), Epilogue::BiasRelu, p, ConvAlgo::Direct);
        assert_eq!(fused.as_slice(), reference.as_slice());
    }

    #[test]
    fn fusion_reduces_kernels_and_bytes() {
        crate::profile::isolated_test(|| {
            let (x, w, b) = setup();
            let p = Conv2dParams::padded(1);
            crate::profile::set_phase(crate::profile::Phase::Forward);
            let ((), unfused) = crate::profile::capture(|| {
                let mut y = conv2d_forward(&x, &w, p, ConvAlgo::Direct);
                add_bias_nchw(&mut y, &b);
                let _ = relu_forward(&y);
            });
            let ((), fused) = crate::profile::capture(|| {
                let _ = conv2d_forward_fused(&x, &w, Some(&b), Epilogue::BiasRelu, p, ConvAlgo::Direct);
            });
            assert_eq!(unfused.total_kernels(), 3);
            assert_eq!(fused.total_kernels(), 1, "one fused launch");
            assert!(
                fused.total_bytes() < unfused.total_bytes(),
                "fusion avoids intermediate round trips: {} vs {}",
                fused.total_bytes(),
                unfused.total_bytes()
            );
        });
    }

    #[test]
    fn relu_only_and_bias_only_epilogues() {
        let (x, w, b) = setup();
        let p = Conv2dParams::default();
        let base = conv2d_forward(&x, &w, p, ConvAlgo::Direct);
        let relu = conv2d_forward_fused(&x, &w, None, Epilogue::Relu, p, ConvAlgo::Direct);
        assert_eq!(relu.as_slice(), relu_forward(&base).as_slice());
        let mut biased = base.clone();
        add_bias_nchw(&mut biased, &b);
        let fused_bias = conv2d_forward_fused(&x, &w, Some(&b), Epilogue::Bias, p, ConvAlgo::Direct);
        assert_eq!(fused_bias.as_slice(), biased.as_slice());
    }

    /// Pin for the census double-count bug: an `Epilogue::None` fused call
    /// must produce exactly the record a plain convolution produces — one
    /// kernel, canonical name, identical FLOPs and bytes — never a fused
    /// record stacked on top of (or in place of) the inner conv's.
    #[test]
    fn none_epilogue_census_matches_plain_conv_exactly() {
        crate::profile::isolated_test(|| {
            let (x, w, _) = setup();
            let p = Conv2dParams::padded(1);
            crate::profile::set_phase(crate::profile::Phase::Forward);
            let ((), plain) = crate::profile::capture(|| {
                let _ = conv2d_forward(&x, &w, p, ConvAlgo::Direct);
            });
            let ((), fused) = crate::profile::capture(|| {
                let _ = conv2d_forward_fused(&x, &w, None, Epilogue::None, p, ConvAlgo::Direct);
            });
            assert_eq!(plain.total_kernels(), 1);
            assert_eq!(fused.total_kernels(), 1, "None epilogue must not add a second record");
            let (pr, fr) = (&plain.records[0], &fused.records[0]);
            assert_eq!(fr.name, pr.name, "canonical conv2d_fwd record");
            assert_eq!(fr.flops, pr.flops);
            assert_eq!(fr.bytes_read, pr.bytes_read);
            assert_eq!(fr.bytes_written, pr.bytes_written);
        });
    }

    /// The old implementation suspended profiling *globally* around the
    /// inner conv (stop()/start()), so concurrently running fused convs
    /// dropped each other's records. The no-profile entry point is purely
    /// thread-local: every launch must land in the census.
    #[test]
    fn concurrent_fused_convs_all_record() {
        crate::profile::isolated_test(|| {
            let (x, w, b) = setup();
            let p = Conv2dParams::padded(1);
            crate::profile::set_phase(crate::profile::Phase::Forward);
            let ((), prof) = crate::profile::capture(|| {
                std::thread::scope(|scope| {
                    for _ in 0..4 {
                        scope.spawn(|| {
                            for _ in 0..8 {
                                let _ = conv2d_forward_fused(
                                    &x,
                                    &w,
                                    Some(&b),
                                    Epilogue::BiasRelu,
                                    p,
                                    ConvAlgo::Direct,
                                );
                            }
                        });
                    }
                });
            });
            assert_eq!(prof.total_kernels(), 32, "no fused launch may vanish from the census");
            assert!(prof.records.iter().all(|r| r.name == "conv2d_fwd_fused"));
        });
    }

    #[test]
    #[should_panic(expected = "bias epilogue requires a bias tensor")]
    fn missing_bias_panics() {
        let (x, w, _) = setup();
        let _ = conv2d_forward_fused(&x, &w, None, Epilogue::BiasRelu, Conv2dParams::default(), ConvAlgo::Direct);
    }
}
