//! The Figure 2 and Figure 3/8/9 tables.

use crate::census::census_from_spec;
use exaclim_hpcsim::gpu::{GpuModel, KernelWork, Precision, WorkCategory};
use exaclim_models::ArchSpec;

/// One row of the Figure 2 single-GPU performance table.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Network name.
    pub network: String,
    /// Operation count per sample, TF.
    pub tf_per_sample: f64,
    /// GPU model name.
    pub gpu: String,
    /// Precision.
    pub precision: Precision,
    /// Local batch size.
    pub batch: usize,
    /// Training rate, samples/s.
    pub samples_per_sec: f64,
    /// Sustained performance, TF/s.
    pub tflops: f64,
    /// Percent of the GPU's peak at this precision.
    pub percent_peak: f64,
}

/// Computes a Figure 2 row for one (network, GPU, precision) combination.
pub fn fig2_row(name: &str, spec: &ArchSpec, gpu: &GpuModel, precision: Precision) -> Fig2Row {
    let census = census_from_spec(spec, precision);
    let batch = match precision {
        Precision::FP32 => 1,
        Precision::FP16 | Precision::BF16 => 2,
    };
    let step_time = gpu.census_time(&census, precision) * batch as f64;
    let tf_per_sample = spec.training_flops() as f64 / 1e12;
    let samples_per_sec = batch as f64 / step_time;
    let tflops = samples_per_sec * tf_per_sample;
    Fig2Row {
        network: name.to_string(),
        tf_per_sample,
        gpu: gpu.name.clone(),
        precision,
        batch,
        samples_per_sec,
        tflops,
        percent_peak: 100.0 * tflops * 1e12 / gpu.peak(precision),
    }
}

/// Renders Figure 2 rows as the paper's table.
pub fn fig2_table(rows: &[Fig2Row]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<12} {:>12} {:>8} {:>6} {:>6} {:>10} {:>10} {:>7}",
        "Network", "TF/sample", "GPU", "Prec", "Batch", "samples/s", "TF/s", "%Peak"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<12} {:>12.3} {:>8} {:>6} {:>6} {:>10.2} {:>10.2} {:>6.0}%",
            r.network, r.tf_per_sample, r.gpu, r.precision.to_string(), r.batch, r.samples_per_sec, r.tflops, r.percent_peak
        );
    }
    s
}

/// One row of the Figure 3/8/9 kernel-category breakdown.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Kernel category.
    pub category: WorkCategory,
    /// Kernel launches per step.
    pub kernels: u64,
    /// Category time, ms.
    pub time_ms: f64,
    /// Category FLOPs, TF.
    pub tf: f64,
    /// Category memory traffic, GB.
    pub gb: f64,
    /// Percent of total step time.
    pub percent_time: f64,
    /// Percent of peak math achieved.
    pub percent_math: f64,
    /// Percent of peak memory bandwidth achieved.
    pub percent_mem: f64,
}

/// Computes the Figure 3/8/9 per-category breakdown for a census.
pub fn fig3_table(census: &[KernelWork], gpu: &GpuModel, precision: Precision) -> Vec<Fig3Row> {
    let total: f64 = census.iter().map(|w| gpu.category_time(w, precision)).sum();
    census
        .iter()
        .map(|w| {
            let t = gpu.category_time(w, precision);
            Fig3Row {
                category: w.category,
                kernels: w.kernels,
                time_ms: t * 1e3,
                tf: w.flops / 1e12,
                gb: w.bytes / 1e9,
                percent_time: 100.0 * t / total,
                percent_math: if t > 0.0 {
                    100.0 * w.flops / (t * gpu.peak(precision))
                } else {
                    0.0
                },
                percent_mem: if t > 0.0 { 100.0 * w.bytes / (t * gpu.mem_bw) } else { 0.0 },
            }
        })
        .collect()
}

/// Renders the allocator-traffic footer appended beneath a Figure-3
/// table when the census comes from an *executed* profile: how many buffer
/// requests the step made, what fraction the recycling pool absorbed, and
/// the pool's high-water mark. The symbolic (spec-derived) census has no
/// such line — allocation traffic only exists at execution time.
pub fn render_alloc_traffic(alloc: &exaclim_tensor::pool::PoolStats) -> String {
    let requests = alloc.total_requests();
    let reuse = if requests == 0 { 0.0 } else { alloc.pool_served as f64 / requests as f64 };
    format!(
        "Allocator: {} buffer requests | {} pool-served ({:.1}% reuse) | {:.2} MB fresh | {:.2} MB reused | high water {:.2} MB
",
        requests,
        alloc.pool_served,
        100.0 * reuse,
        alloc.bytes_fresh as f64 / 1e6,
        alloc.bytes_reused as f64 / 1e6,
        alloc.high_water_bytes as f64 / 1e6,
    )
}

/// Renders a Figure 3/8/9 table.
pub fn render_fig3(rows: &[Fig3Row]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<24} {:>7} {:>10} {:>8} {:>8} {:>7} {:>7} {:>7}",
        "Category", "#Kern", "Time(ms)", "TF", "GB", "%Time", "%Math", "%Mem"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<24} {:>7} {:>10.1} {:>8.2} {:>8.1} {:>6.1}% {:>6.1}% {:>6.1}%",
            r.category.label(),
            r.kernels,
            r.time_ms,
            r.tf,
            r.gb,
            r.percent_time,
            r.percent_math,
            r.percent_mem
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaclim_models::{DeepLabConfig, TiramisuConfig};

    fn paper_specs() -> (ArchSpec, ArchSpec) {
        (
            TiramisuConfig::paper_modified(16).spec(768, 1152),
            DeepLabConfig::paper().spec(768, 1152),
        )
    }

    #[test]
    fn fig2_deeplab_outperforms_tiramisu_in_percent_peak() {
        // Paper Fig 2: DeepLabv3+ 80 % vs Tiramisu 51 % of FP32 peak —
        // DeepLab's big channel counts give higher arithmetic intensity.
        let (ti, dl) = paper_specs();
        let v100 = GpuModel::v100();
        let r_ti = fig2_row("Tiramisu", &ti, &v100, Precision::FP32);
        let r_dl = fig2_row("DeepLabv3+", &dl, &v100, Precision::FP32);
        assert!(
            r_dl.percent_peak > r_ti.percent_peak,
            "DeepLab {}% vs Tiramisu {}%",
            r_dl.percent_peak,
            r_ti.percent_peak
        );
        assert!(r_dl.percent_peak > 40.0 && r_dl.percent_peak <= 100.0);
    }

    #[test]
    fn fig2_fp16_is_faster_but_less_efficient() {
        // Paper: FP16 raises samples/s but drops %peak (31 % vs 80 % for
        // DeepLab; 17 % vs 51 % for Tiramisu).
        let (_, dl) = paper_specs();
        let v100 = GpuModel::v100();
        let r32 = fig2_row("DeepLabv3+", &dl, &v100, Precision::FP32);
        let r16 = fig2_row("DeepLabv3+", &dl, &v100, Precision::FP16);
        assert!(r16.samples_per_sec > r32.samples_per_sec * 1.5);
        assert!(r16.percent_peak < r32.percent_peak * 0.7);
    }

    #[test]
    fn fig2_rates_land_near_paper_numbers() {
        // Paper Fig 2 (V100): DeepLab FP32 0.87 samples/s, FP16 2.67;
        // Tiramisu FP32 1.91, FP16 5.00. Allow a generous ×1.7 band —
        // our substrate is a model, not a Volta.
        let (ti, dl) = paper_specs();
        let v100 = GpuModel::v100();
        let checks = [
            (fig2_row("t", &ti, &v100, Precision::FP32).samples_per_sec, 1.91),
            (fig2_row("t", &ti, &v100, Precision::FP16).samples_per_sec, 5.00),
            (fig2_row("d", &dl, &v100, Precision::FP32).samples_per_sec, 0.87),
            (fig2_row("d", &dl, &v100, Precision::FP16).samples_per_sec, 2.67),
        ];
        for (ours, paper) in checks {
            let ratio = ours / paper;
            assert!(
                (0.55..1.8).contains(&ratio),
                "rate {ours:.2} vs paper {paper} (ratio {ratio:.2})"
            );
        }
    }

    #[test]
    fn fig2_p100_tiramisu_4channel() {
        // Fig 2's asterisked row: 4-of-16 channels on Piz Daint,
        // 3.703 TF/sample, 1.20 samples/s at 48 % of peak.
        let spec = TiramisuConfig::paper_modified(4).spec(768, 1152);
        let row = fig2_row("Tiramisu*", &spec, &GpuModel::p100(), Precision::FP32);
        assert!(row.tf_per_sample > 2.0 && row.tf_per_sample < 6.0);
        let ratio = row.samples_per_sec / 1.20;
        assert!((0.5..2.0).contains(&ratio), "P100 rate {} vs 1.20", row.samples_per_sec);
    }

    #[test]
    fn fig3_convolutions_dominate_time() {
        // Paper Fig 3: conv categories take ~82 % (Tiramisu FP32) and
        // ~82 % (DeepLab FP32) of step time.
        let (_, dl) = paper_specs();
        let census = census_from_spec(&dl, Precision::FP32);
        let rows = fig3_table(&census, &GpuModel::v100(), Precision::FP32);
        let conv_time: f64 = rows
            .iter()
            .filter(|r| {
                matches!(r.category, WorkCategory::ForwardConv | WorkCategory::BackwardConv)
            })
            .map(|r| r.percent_time)
            .sum();
        assert!(conv_time > 60.0, "conv share {conv_time}%");
        // %time sums to 100.
        let total: f64 = rows.iter().map(|r| r.percent_time).sum();
        assert!((total - 100.0).abs() < 1e-6);
    }

    #[test]
    fn fig3_fp16_shifts_time_to_memory_bound_kernels() {
        // Paper: in FP16 the copies/pointwise share grows (26.1 % copies
        // for DeepLab FP16 vs 8.6 % in FP32) because math got 8× faster.
        let (_, dl) = paper_specs();
        let v100 = GpuModel::v100();
        let share = |p: Precision| {
            let rows = fig3_table(&census_from_spec(&dl, p), &v100, p);
            rows.iter()
                .filter(|r| {
                    matches!(
                        r.category,
                        WorkCategory::CopiesTransposes
                            | WorkCategory::ForwardPointwise
                            | WorkCategory::BackwardPointwise
                    )
                })
                .map(|r| r.percent_time)
                .sum::<f64>()
        };
        assert!(
            share(Precision::FP16) > share(Precision::FP32) * 1.3,
            "memory-bound share FP16 {} vs FP32 {}",
            share(Precision::FP16),
            share(Precision::FP32)
        );
    }

    #[test]
    fn tables_render() {
        let (ti, _) = paper_specs();
        let v100 = GpuModel::v100();
        let r = fig2_row("Tiramisu", &ti, &v100, Precision::FP32);
        let t = fig2_table(&[r]);
        assert!(t.contains("Tiramisu"));
        let rows = fig3_table(&census_from_spec(&ti, Precision::FP32), &v100, Precision::FP32);
        let t3 = render_fig3(&rows);
        assert!(t3.contains("Forward Convolutions"));
        assert!(t3.contains("Allreduce"));
    }
}
