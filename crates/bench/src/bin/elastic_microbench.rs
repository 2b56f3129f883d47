//! Elastic resize vs checkpoint-restart recovery microbenchmark.
//!
//! Runs the same crash plan (rank 2 dies mid-run) through both recovery
//! paths and compares what each one throws away:
//!
//! * **Checkpoint-restart** ([`train_data_parallel_ft`]): survivors tear
//!   the world down and replay every completed step past the last
//!   auto-checkpoint (`steps_replayed`).
//! * **Elastic resize** ([`train_data_parallel_elastic`]): survivors meet
//!   in a membership round and continue from the live model in a fresh
//!   generation — `steps_retried` stays 0 for a boundary crash.
//!
//! The elastic run executes twice and the parameter hashes are compared
//! bit-for-bit (the replay-determinism gate), then a leave+join churn plan
//! exercises a resize in both directions without any restart. Writes
//! `BENCH_elastic.json`.
//!
//! ```text
//! cargo run --release -p exaclim-bench --bin elastic_microbench [-- --smoke]
//! ```
//!
//! Wall-clock recovery times are measured, not asserted — on an
//! oversubscribed host the thread ranks serialize and the wall numbers are
//! noise. What must hold everywhere, and is asserted, is steps lost:
//! elastic < checkpoint-restart for the same plan.

use exaclim_distrib::{
    train_data_parallel_elastic, train_data_parallel_ft, ElasticConfig, ElasticReport, FtConfig,
    FtReport, OptimizerKind, TrainerConfig,
};
use exaclim_distrib::trainer::{Batch, BatchSource};
use exaclim_faults::FaultPlan;
use exaclim_nn::layers::{Conv2d, ReLU};
use exaclim_nn::loss::Labels;
use exaclim_nn::{Layer, Sequential};
use exaclim_tensor::init::{randn, seeded_rng};
use exaclim_tensor::ops::Conv2dParams;
use exaclim_tensor::DType;
use serde_json::{json, Value};
use std::path::PathBuf;
use std::time::Instant;

const H: usize = 12;
const W: usize = 12;

/// Random 2-channel fields; the label marks where channel 0 wins.
struct Source {
    rng: rand::rngs::StdRng,
}

impl BatchSource for Source {
    fn next_batch(&mut self) -> Batch {
        let input = randn([1, 2, H, W], DType::F32, 1.0, &mut self.rng);
        let labels: Vec<u8> = (0..H * W)
            .map(|i| (input.as_slice()[i] > input.as_slice()[H * W + i]) as u8)
            .collect();
        let labels = Labels::new(1, H, W, labels);
        let weights = vec![1.0f32; H * W];
        Batch { input, labels, weights }
    }
}

fn source(rank: usize) -> Source {
    Source { rng: seeded_rng(8100 + rank as u64) }
}

fn model(rng: &mut rand::rngs::StdRng) -> Box<dyn Layer> {
    Box::new(
        Sequential::new("elastic_bench")
            .push(Conv2d::new("c1", 2, 12, 3, Conv2dParams::padded(1), true, rng))
            .push(ReLU::new())
            .push(Conv2d::new("c2", 12, 2, 1, Conv2dParams::default(), true, rng)),
    )
}

fn base_config(ranks: usize, steps: usize) -> TrainerConfig {
    let mut cfg = TrainerConfig::new(ranks);
    cfg.steps = steps;
    cfg.seed = 77;
    cfg.optimizer = OptimizerKind::Sgd { lr: 0.05, momentum: 0.9 };
    cfg
}

fn bench_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir()
        .join(format!("exaclim_elastic_bench_{}", std::process::id()))
        .join(name);
    std::fs::remove_dir_all(&d).ok();
    d
}

fn run_ft(ranks: usize, steps: usize, faults: &FaultPlan, dir: &str) -> (FtReport, f64) {
    let mut ft = FtConfig::new(base_config(ranks, steps), bench_dir(dir));
    ft.checkpoint_every = 2;
    let t0 = Instant::now();
    let (report, _model) = train_data_parallel_ft(&ft, faults, model, source);
    let wall = t0.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&ft.checkpoint_dir).ok();
    (report, wall)
}

fn run_elastic(
    ranks: usize,
    steps: usize,
    faults: &FaultPlan,
    dir: &str,
) -> (ElasticReport, f64) {
    let mut cfg = ElasticConfig::new(base_config(ranks, steps), bench_dir(dir));
    cfg.checkpoint_every = 2;
    let t0 = Instant::now();
    let (report, _model) = train_data_parallel_elastic(&cfg, faults, model, source);
    let wall = t0.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
    (report, wall)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let steps = if smoke { 8 } else { 10 };
    let ranks = 4;
    println!("elastic_microbench ({steps} steps/run{})", if smoke { ", smoke" } else { "" });

    // -- The same mid-run crash through both recovery paths. --------------
    let crash = FaultPlan::seeded(7).with_crash_at_step(2, 5);

    let (ft, ft_wall) = run_ft(ranks, steps, &crash, "ft");
    assert!(ft.consistent, "FT survivors diverged");
    assert_eq!(ft.ranks_lost, vec![2]);
    assert!(
        ft.steps_replayed >= 1,
        "the crash must cost checkpoint-restart at least one replayed step"
    );

    let (ela, ela_wall) = run_elastic(ranks, steps, &crash, "elastic_a");
    let (elb, _elb_wall) = run_elastic(ranks, steps, &crash, "elastic_b");
    assert!(ela.consistent && elb.consistent, "elastic replicas diverged");
    assert_eq!(
        ela.final_hashes, elb.final_hashes,
        "elastic replay must be bit-identical across runs"
    );
    assert_eq!(ela.ranks_lost, vec![2]);
    assert_eq!(
        ela.steps_retried, 0,
        "a boundary crash must lose zero completed steps under elastic resize"
    );
    assert_eq!(ela.checkpoint_fallbacks, 0, "recovery came from the live model");
    assert!(
        ela.steps_retried < ft.steps_replayed,
        "elastic must lose fewer steps ({}) than checkpoint-restart replays ({})",
        ela.steps_retried,
        ft.steps_replayed
    );

    println!(
        "{:>24} {:>12} {:>12} {:>18}",
        "recovery path", "steps lost", "wall s", "final param hash"
    );
    let ft_lost = ft.steps_replayed;
    let ft_hash = format!("{:016x}", ft.final_hashes[0]);
    println!("{:>24} {ft_lost:>12} {ft_wall:>12.3} {ft_hash:>18}", "checkpoint-restart");
    let ela_lost = ela.steps_retried;
    let ela_hash = format!("{:016x}", ela.final_hashes[0]);
    println!("{:>24} {ela_lost:>12} {ela_wall:>12.3} {ela_hash:>18}", "elastic resize");

    // -- Churn without failures: shrink then grow, no restart at all. -----
    let churn = FaultPlan::seeded(9).with_leave_at_step(1, 3).with_join_at_step(4, 6);
    let (ch, ch_wall) = run_elastic(ranks, steps, &churn, "elastic_churn");
    assert!(ch.consistent, "churn run diverged");
    assert_eq!(ch.ranks_left, vec![1]);
    assert_eq!(ch.ranks_joined, vec![4]);
    assert_eq!(ch.steps_retried, 0, "graceful churn loses no step");
    assert_eq!(ch.param_broadcasts, 1, "joiner synced from the live model");
    assert_eq!(ch.checkpoint_fallbacks, 0);
    let ch_gens = ch.generations.len();
    println!(
        "churn plan: {} generations, {} staging samples re-owned, wall {:.3}s",
        ch_gens, ch.staging_moved_samples, ch_wall
    );

    // The in-tree json! macro takes single-token values: bind everything
    // computed to a local first.
    let ft_restarts = ft.restarts;
    let ela_generations = ela.generations.len();
    let ela_broadcasts = ela.param_broadcasts;
    let ch_moved = ch.staging_moved_samples;
    let ch_broadcasts = ch.param_broadcasts;
    let gen_causes: Vec<Value> = ela
        .generations
        .iter()
        .map(|g| {
            let gen = g.generation;
            let members = Value::Array(g.members.iter().map(|&m| json!(m)).collect());
            let begin = g.begin_step;
            let cause = g.cause.clone();
            json!({ "generation": gen, "members": members, "begin_step": begin, "cause": cause })
        })
        .collect();
    let gen_causes = Value::Array(gen_causes);
    let report = json!({
        "smoke": smoke,
        "steps_per_run": steps,
        "ranks": ranks,
        "ft": {
            "steps_replayed": ft_lost,
            "restarts": ft_restarts,
            "wall_s": ft_wall,
            "final_hash": ft_hash,
        },
        "elastic": {
            "steps_retried": ela_lost,
            "generations": ela_generations,
            "param_broadcasts": ela_broadcasts,
            "wall_s": ela_wall,
            "final_hash": ela_hash,
            "replay_bit_identical": true,
            "generation_log": gen_causes,
        },
        "churn": {
            "generations": ch_gens,
            "staging_moved_samples": ch_moved,
            "param_broadcasts": ch_broadcasts,
            "wall_s": ch_wall,
        },
    });
    let path = "BENCH_elastic.json";
    std::fs::write(path, serde_json::to_string_pretty(&report).expect("serialize") + "\n")
        .expect("write BENCH_elastic.json");
    println!("wrote {path}");
}
