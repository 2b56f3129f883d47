//! Backward-overlapped gradient all-reduce microbenchmark.
//!
//! Runs the same data-parallel training job twice per world size — serial
//! gradient reduction vs the comm progress thread (`overlap_comm`) — at 2,
//! 4 and 8 ranks, and reports per-step *exposed* communication time (what
//! the rank's critical path waited on), the overlap fraction (how much
//! all-reduce work backward hid, §V-A3), and the bitwise parameter-hash
//! comparison between the two modes. Writes `BENCH_overlap.json`.
//!
//! ```text
//! cargo run --release -p exaclim-bench --bin overlap_microbench [-- --smoke]
//! ```
//!
//! Wall-clock step times are *measured, not asserted*: on a single-core
//! container the oversubscribed thread ranks serialize and the wall win is
//! noise. What must hold everywhere — and is asserted — is that overlap
//! strictly reduces exposed communication time, hides a nonzero fraction
//! of the all-reduce work, and leaves every parameter bit unchanged.

use exaclim_distrib::trainer::{Batch, BatchSource, TrainerConfig, TrainingReport};
use exaclim_distrib::train_data_parallel;
use exaclim_nn::layers::{Conv2d, ReLU};
use exaclim_nn::loss::Labels;
use exaclim_nn::{Layer, Sequential};
use exaclim_perfmodel::{mean_overlap_fraction, step_timeline, StepOverlapRow};
use exaclim_tensor::init::{randn, seeded_rng};
use exaclim_tensor::ops::Conv2dParams;
use exaclim_tensor::profile;
use exaclim_tensor::DType;
use serde_json::{json, Value};

const H: usize = 24;
const W: usize = 24;
const CIN: usize = 8;

/// Random fields whose label marks where channel 0 is positive.
struct Source {
    rng: rand::rngs::StdRng,
}

impl BatchSource for Source {
    fn next_batch(&mut self) -> Batch {
        let input = randn([1, CIN, H, W], DType::F32, 1.0, &mut self.rng);
        let labels: Vec<u8> = (0..H * W).map(|i| (input.as_slice()[i] > 0.0) as u8).collect();
        let labels = Labels::new(1, H, W, labels);
        let weights = vec![1.0f32; H * W];
        Batch { input, labels, weights }
    }
}

/// Four 3×3 conv layers — enough parameter tensors to split into several
/// fusion buckets, enough backward compute for the progress thread to get
/// scheduled against (on an oversubscribed host, overlap only shows if
/// buckets carry real payload and backward spans multiple timeslices).
fn model(rng: &mut rand::rngs::StdRng) -> Box<dyn Layer> {
    let p = Conv2dParams::padded(1);
    Box::new(
        Sequential::new("overlap_bench")
            .push(Conv2d::new("c1", CIN, 48, 3, p, true, rng))
            .push(ReLU::new())
            .push(Conv2d::new("c2", 48, 48, 3, p, true, rng))
            .push(ReLU::new())
            .push(Conv2d::new("c3", 48, 48, 3, p, true, rng))
            .push(ReLU::new())
            .push(Conv2d::new("c4", 48, 2, 3, p, true, rng)),
    )
}

fn run(ranks: usize, steps: usize, overlap: bool) -> (TrainingReport, Vec<StepOverlapRow>) {
    let mut cfg = TrainerConfig::new(ranks);
    cfg.steps = steps;
    cfg.seed = 42;
    // Mid-size threshold → a handful of buckets per step, each with real
    // payload, so early buckets can finish while backward still produces
    // later ones without per-bucket wakeup overhead dominating.
    cfg.fusion_threshold_bytes = 32 * 1024;
    cfg.overlap_comm = overlap;
    profile::timeline_start();
    let (report, _model) = train_data_parallel(&cfg, model, |rank| Source {
        rng: seeded_rng(7000 + rank as u64),
    });
    let spans = profile::timeline_stop();
    (report, step_timeline(&spans))
}

/// Best-of-steps, the same estimator as `kernel_microbench`'s best-of-reps:
/// on an oversubscribed host the scheduler only ever *inflates* a step's
/// wait, so the minimum isolates the structural critical-path cost from
/// noise. Serial reduction has a hard floor here (every pack / all-reduce /
/// scatter byte is on the critical path by construction); overlap does not.
fn best(xs: impl Iterator<Item = f64>) -> f64 {
    let m = xs.fold(f64::INFINITY, f64::min);
    if m.is_finite() { m } else { 0.0 }
}

/// Median, for the wall-clock step times (best-of would under-report a
/// quantity that is *supposed* to include compute).
fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let steps = if smoke { 6 } else { 12 };
    let rank_counts: &[usize] = &[2, 4, 8];

    let mut entries: Vec<Value> = Vec::new();
    println!("overlap_microbench ({} steps/run{})", steps, if smoke { ", smoke" } else { "" });
    println!(
        "{:>5} {:>16} {:>17} {:>10} {:>12} {:>12} {:>9}",
        "ranks", "serial expo ms", "overlap expo ms", "reduction", "wall ser ms", "wall ovl ms", "overlap"
    );
    for &ranks in rank_counts {
        let (serial, serial_rows) = run(ranks, steps, false);
        let (overlapped, overlap_rows) = run(ranks, steps, true);

        // Bit-identity between modes: the whole point of pre-assigned
        // canonical buckets. Checked per step and at the end.
        assert!(serial.consistent && overlapped.consistent, "replicas diverged");
        assert_eq!(
            serial.step_hashes, overlapped.step_hashes,
            "{ranks} ranks: per-step parameter hashes differ between modes"
        );
        assert_eq!(
            serial.final_hashes, overlapped.final_hashes,
            "{ranks} ranks: final parameter hashes differ between modes"
        );

        // Per-(rank, step) timeline rows, skipping the warmup step. All
        // ranks count: serial reduction puts the full pack/all-reduce/
        // scatter cost on *every* rank's critical path, so the serial
        // best-of keeps its floor, while under overlap the straggling
        // rank of a step legitimately sees a ~zero exposed wait.
        let measured = |rows: &[StepOverlapRow]| -> Vec<StepOverlapRow> {
            rows.iter().filter(|r| r.step > 0).copied().collect()
        };
        let s_rows = measured(&serial_rows);
        let o_rows = measured(&overlap_rows);
        let serial_exposed_s = best(s_rows.iter().map(|r| r.comm_exposed_s));
        let overlap_exposed_s = best(o_rows.iter().map(|r| r.comm_exposed_s));
        let overlap_fraction = mean_overlap_fraction(&o_rows);
        let wall = |r: &TrainingReport| median(r.steps.iter().skip(1).map(|s| s.wall_time_s).collect());
        let serial_wall_s = wall(&serial);
        let overlap_wall_s = wall(&overlapped);

        assert!(
            overlap_exposed_s < serial_exposed_s,
            "{ranks} ranks: overlap must strictly reduce exposed comm \
             (serial {serial_exposed_s:.6}s vs overlapped {overlap_exposed_s:.6}s)"
        );
        assert!(
            overlap_fraction > 0.0,
            "{ranks} ranks: backward hid no all-reduce work"
        );

        let reduction = serial_exposed_s / overlap_exposed_s;
        println!(
            "{:>5} {:>16.3} {:>17.3} {:>9.2}x {:>12.3} {:>12.3} {:>8.0}%",
            ranks,
            serial_exposed_s * 1e3,
            overlap_exposed_s * 1e3,
            reduction,
            serial_wall_s * 1e3,
            overlap_wall_s * 1e3,
            overlap_fraction * 100.0
        );

        // The in-tree json! macro takes single-token values: bind
        // everything computed to a local first.
        let serial_exposed_ms = serial_exposed_s * 1e3;
        let overlap_exposed_ms = overlap_exposed_s * 1e3;
        let serial_wall_ms = serial_wall_s * 1e3;
        let overlap_wall_ms = overlap_wall_s * 1e3;
        let serial_busy_ms = serial.comm_busy_s_per_step * 1e3;
        let overlap_busy_ms = overlapped.comm_busy_s_per_step * 1e3;
        let launches = serial.allreduce_launches_per_step;
        let wire = serial.wire_bytes_per_step;
        entries.push(json!({
            "ranks": ranks,
            "allreduce_launches_per_step": launches,
            "wire_bytes_per_step": wire,
            "serial_exposed_ms_best": serial_exposed_ms,
            "overlap_exposed_ms_best": overlap_exposed_ms,
            "exposed_reduction": reduction,
            "overlap_fraction": overlap_fraction,
            "serial_comm_busy_ms_mean": serial_busy_ms,
            "overlap_comm_busy_ms_mean": overlap_busy_ms,
            "serial_wall_ms_median": serial_wall_ms,
            "overlap_wall_ms_median": overlap_wall_ms,
            "bit_identical": true,
        }));
    }

    let host_parallelism = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let runs = Value::Array(entries);
    let report = json!({
        "smoke": smoke,
        "steps_per_run": steps,
        "host_parallelism": host_parallelism,
        "runs": runs,
    });
    let path = "BENCH_overlap.json";
    std::fs::write(path, serde_json::to_string_pretty(&report).expect("serialize") + "\n")
        .expect("write BENCH_overlap.json");
    println!("wrote {path}");
}
