//! Golden-equality tests: every kernel must produce **bit-identical**
//! outputs at any thread-pool width.
//!
//! The parallel backend partitions work by shape-derived constants only
//! (planes, fixed block sizes, fixed GEMM tiles), never by thread count,
//! and every task owns a disjoint output region with an unchanged
//! per-element accumulation order. These tests pin that contract for the
//! kernels the paper's census cares about, plus the census totals
//! themselves. `tier1.sh` re-runs the whole suite under
//! `EXACLIM_NUM_THREADS=4` so the same assertions also hold when the
//! default pool width differs.

use exaclim_tensor::init::{randn, seeded_rng};
use exaclim_tensor::ops::gemm::{gemm_a_bt, gemm_at_b, gemm_noprofile};
use exaclim_tensor::ops::{
    batchnorm_backward, batchnorm_forward, bilinear_resize_forward, conv2d_backward,
    conv2d_forward, deconv2d_forward, maxpool2d_backward, maxpool2d_forward, relu_forward,
    Conv2dParams, ConvAlgo, Deconv2dParams,
};
use exaclim_tensor::{profile, set_kernel_threads, DType, Tensor};
use std::sync::Mutex;

/// Pool width is process-global; serialize tests that switch it.
static WIDTH_GUARD: Mutex<()> = Mutex::new(());

/// Runs `f` once at 1 thread and once at 4, returning both results.
fn at_widths<T>(f: impl Fn() -> T) -> (T, T) {
    let _g = WIDTH_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    set_kernel_threads(1);
    let one = f();
    set_kernel_threads(4);
    let four = f();
    set_kernel_threads(1);
    (one, four)
}

/// Shapes large enough to cross the blocked-GEMM threshold and produce
/// multi-chunk parallel dispatches.
fn conv_case() -> (Tensor, Tensor) {
    let mut rng = seeded_rng(2024);
    let x = randn([2, 16, 32, 32], DType::F32, 1.0, &mut rng);
    let w = randn([8, 16, 3, 3], DType::F32, 0.5, &mut rng);
    (x, w)
}

#[test]
fn conv2d_forward_bit_identical_across_widths() {
    let (x, w) = conv_case();
    for algo in [ConvAlgo::Direct, ConvAlgo::Im2colGemm] {
        let (a, b) = at_widths(|| conv2d_forward(&x, &w, Conv2dParams::padded(1), algo));
        assert_eq!(a.as_slice(), b.as_slice(), "{algo:?} differs across widths");
    }
}

#[test]
fn conv2d_backward_bit_identical_across_widths() {
    let (x, w) = conv_case();
    let mut rng = seeded_rng(7);
    let y = conv2d_forward(&x, &w, Conv2dParams::padded(1), ConvAlgo::Direct);
    let go = randn(y.shape().clone(), DType::F32, 1.0, &mut rng);
    let (a, b) = at_widths(|| conv2d_backward(&x, &w, &go, Conv2dParams::padded(1)));
    assert_eq!(a.grad_input.as_slice(), b.grad_input.as_slice(), "grad_input differs");
    assert_eq!(a.grad_weight.as_slice(), b.grad_weight.as_slice(), "grad_weight differs");
}

#[test]
fn gemm_variants_bit_identical_across_widths() {
    // Exceeds the blocked-kernel threshold with ragged tile edges.
    let (m, n, k) = (131, 517, 260);
    let mut rng = seeded_rng(99);
    let a = randn([m, k], DType::F32, 1.0, &mut rng);
    let b = randn([k, n], DType::F32, 1.0, &mut rng);
    let at = randn([k, m], DType::F32, 1.0, &mut rng);
    let bt = randn([n, k], DType::F32, 1.0, &mut rng);

    let (c1, c4) = at_widths(|| {
        let mut c = vec![0.0f32; m * n];
        gemm_noprofile(m, n, k, a.as_slice(), b.as_slice(), &mut c);
        c
    });
    assert_eq!(c1, c4, "gemm differs across widths");

    let (c1, c4) = at_widths(|| {
        let mut c = vec![0.0f32; m * n];
        gemm_at_b(m, n, k, at.as_slice(), b.as_slice(), &mut c);
        c
    });
    assert_eq!(c1, c4, "gemm_at_b differs across widths");

    let (c1, c4) = at_widths(|| {
        let mut c = vec![0.0f32; m * n];
        gemm_a_bt(m, n, k, a.as_slice(), bt.as_slice(), &mut c);
        c
    });
    assert_eq!(c1, c4, "gemm_a_bt differs across widths");
}

#[test]
fn batchnorm_bit_identical_across_widths() {
    let mut rng = seeded_rng(55);
    let x = randn([4, 8, 24, 24], DType::F32, 2.0, &mut rng);
    let gamma = randn([8], DType::F32, 1.0, &mut rng);
    let beta = randn([8], DType::F32, 0.5, &mut rng);
    let go = randn(x.shape().clone(), DType::F32, 1.0, &mut rng);

    let (a, b) = at_widths(|| {
        let (y, cache) = batchnorm_forward(&x, &gamma, &beta, 1e-5, None);
        let grads = batchnorm_backward(&go, &gamma, &cache);
        (y, grads)
    });
    assert_eq!(a.0.as_slice(), b.0.as_slice(), "bn forward differs");
    assert_eq!(
        a.1.grad_input.as_slice(),
        b.1.grad_input.as_slice(),
        "bn grad_input differs"
    );
    assert_eq!(a.1.grad_gamma.as_slice(), b.1.grad_gamma.as_slice(), "grad_gamma differs");
    assert_eq!(a.1.grad_beta.as_slice(), b.1.grad_beta.as_slice(), "grad_beta differs");
}

#[test]
fn misc_kernels_bit_identical_across_widths() {
    let mut rng = seeded_rng(123);
    let x = randn([2, 4, 16, 16], DType::F32, 1.0, &mut rng);
    let wt = randn([4, 3, 3, 3], DType::F32, 0.5, &mut rng);

    let (a, b) = at_widths(|| {
        let (y, arg) = maxpool2d_forward(&x, 3, 2, 1);
        let go = relu_forward(&y);
        let gx = maxpool2d_backward(&x, &go, &arg);
        let up = bilinear_resize_forward(&x, 33, 29);
        let de = deconv2d_forward(&x, &wt, Deconv2dParams::double());
        (y, gx, up, de)
    });
    assert_eq!(a.0.as_slice(), b.0.as_slice(), "maxpool fwd differs");
    assert_eq!(a.1.as_slice(), b.1.as_slice(), "maxpool bwd differs");
    assert_eq!(a.2.as_slice(), b.2.as_slice(), "bilinear differs");
    assert_eq!(a.3.as_slice(), b.3.as_slice(), "deconv differs");
}

#[test]
fn census_totals_identical_across_widths() {
    // The census is process-wide: run alone so no other test's kernels
    // land in it.
    profile::isolated_test(|| {
        let (x, w) = conv_case();
        let (p1, p4) = at_widths(|| {
            profile::set_phase(profile::Phase::Forward);
            let ((), prof) = profile::capture(|| {
                let y = conv2d_forward(&x, &w, Conv2dParams::padded(1), ConvAlgo::Im2colGemm);
                profile::set_phase(profile::Phase::Backward);
                let _ = conv2d_backward(&x, &w, &y, Conv2dParams::padded(1));
                profile::set_phase(profile::Phase::Forward);
            });
            prof
        });
        assert_eq!(p1.total_kernels(), p4.total_kernels(), "kernel counts differ");
        assert_eq!(p1.total_flops(), p4.total_flops(), "FLOP totals differ");
        assert_eq!(p1.total_bytes(), p4.total_bytes(), "byte totals differ");
        for ((c1, t1), (c4, t4)) in p1.by_category().iter().zip(p4.by_category().iter()) {
            assert_eq!(c1, c4);
            assert_eq!(t1, t4, "category {c1:?} totals differ");
        }
    });
}
