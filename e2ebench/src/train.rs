//! The training workloads: paper-width networks on 32×48 tiles read from
//! an on-disk CDF5 dataset through `ClimateBatchSource`.

use crate::report::{Outcome, CATEGORIES};
use crate::stats;
use crate::trace::{self_time_ns, Span, TracedLayer, TracedSource, Tracer};
use exaclim_climsim::{ClimateDataset, DatasetConfig, Split};
use exaclim_core::experiment::ClimateBatchSource;
use exaclim_distrib::{train_data_parallel, OptimizerKind, TrainerConfig, TrainingReport};
use exaclim_models::{
    ArchSpec, DeepLabConfig, DeepLabV3Plus, Tiramisu, TiramisuConfig, NUM_CLASSES,
};
use exaclim_nn::loss::{class_weights, ClassWeighting};
use exaclim_nn::Layer;
use exaclim_pipeline::ChannelStats;
use exaclim_tensor::init::seeded_rng;
use exaclim_tensor::profile::{self, Profile};
use exaclim_tensor::{pool, ComputePrecision, DType};
use rand::rngs::StdRng;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Tile height and width: divisible by Tiramisu's four ×2 downsamplings
/// and DeepLab's output stride 8.
pub const TILE: (usize, usize) = (32, 48);
const CHANNELS: usize = 16;
/// Samples in the generated dataset (80 % of them form the training split).
const DATASET_SAMPLES: usize = 20;
/// Node-local shard per rank.
const SAMPLES_PER_RANK: usize = 8;
/// Set-up is repeated and its median reported.
const SETUP_REPS: usize = 3;

/// Which network a training workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Net {
    /// `TiramisuConfig::paper_modified(16)`.
    Tiramisu,
    /// `DeepLabConfig::paper()`.
    DeepLab,
}

impl Net {
    fn build(self, rng: &mut StdRng) -> Box<dyn Layer> {
        match self {
            Net::Tiramisu => Box::new(Tiramisu::new(TiramisuConfig::paper_modified(CHANNELS), rng)),
            Net::DeepLab => Box::new(DeepLabV3Plus::new(DeepLabConfig::paper(), rng)),
        }
    }

    /// The network's per-op spec at the benchmark tile.
    pub fn spec(self) -> ArchSpec {
        match self {
            Net::Tiramisu => TiramisuConfig::paper_modified(CHANNELS).spec(TILE.0, TILE.1),
            Net::DeepLab => DeepLabConfig::paper().spec(TILE.0, TILE.1),
        }
    }
}

/// A fixed training configuration.
#[derive(Debug, Clone, Copy)]
pub struct TrainWorkload {
    /// Network.
    pub net: Net,
    /// Rank threads (local batch 1 each).
    pub ranks: usize,
    /// Optimizer.
    pub optimizer: OptimizerKind,
    /// `TrainerConfig::overlap_comm`, pinned.
    pub overlap_comm: bool,
    /// `TrainerConfig::fused_optim`, pinned.
    pub fused_optim: bool,
    /// Untimed steps before the timed ones (pools and workspaces fill).
    pub warmup: usize,
    /// Expected step time on a 2-core host; sets how many steps fill `--seconds`.
    pub nominal_step_s: f64,
}

/// `train-tiramisu-1r`: the plain single-worker baseline (serial comm,
/// legacy Adam), where conv/GEMM kernels do nearly all the work.
pub const TIRAMISU_1R: TrainWorkload = TrainWorkload {
    net: Net::Tiramisu,
    ranks: 1,
    optimizer: OptimizerKind::Adam { lr: 1e-3 },
    overlap_comm: false,
    fused_optim: false,
    warmup: 2,
    nominal_step_s: 1.1,
};

/// `train-deeplab-2r`: 43.6M parameters reduced across 2 ranks with the
/// overlap engine and the fused LARC update.
pub const DEEPLAB_2R: TrainWorkload = TrainWorkload {
    net: Net::DeepLab,
    ranks: 2,
    optimizer: OptimizerKind::Larc {
        lr: 0.01,
        trust: 0.001,
    },
    overlap_comm: true,
    fused_optim: true,
    warmup: 1,
    nominal_step_s: 3.4,
};

impl TrainWorkload {
    /// Total steps (warm-up plus timed) that fill about `seconds` of timing.
    pub fn steps(&self, seconds: u64) -> usize {
        self.warmup + ((seconds as f64 / self.nominal_step_s).round() as usize).max(3)
    }

    fn trainer_config(&self, seed: u64, steps: usize) -> TrainerConfig {
        let mut cfg = TrainerConfig::new(self.ranks);
        cfg.optimizer = self.optimizer;
        cfg.overlap_comm = self.overlap_comm;
        cfg.fused_optim = self.fused_optim;
        cfg.compute = ComputePrecision::F32;
        cfg.precision = DType::F32;
        cfg.steps = steps;
        cfg.seed = seed;
        cfg
    }
}

/// Dataset, normalization and loss weights shared by every rank's source.
struct Data {
    dataset: Arc<ClimateDataset>,
    stats: Arc<ChannelStats>,
    weights: Vec<f32>,
}

fn source(w: &TrainWorkload, d: &Data, seed: u64, rank: usize) -> ClimateBatchSource {
    ClimateBatchSource::new(
        d.dataset.clone(),
        d.stats.clone(),
        rank,
        w.ranks,
        SAMPLES_PER_RANK,
        (0..CHANNELS).collect(),
        d.weights.clone(),
        DType::F32,
        1,
        seed,
        false,
    )
}

/// Everything a run pays before its first step: write the CDF5 dataset,
/// estimate normalization and class weights, initialize the model and
/// start every rank's ingest stream.
fn set_up(w: &TrainWorkload, seed: u64, dir: &Path) -> io::Result<Data> {
    let mut cfg = DatasetConfig::small(seed, DATASET_SAMPLES);
    cfg.generator.h = TILE.0;
    cfg.generator.w = TILE.1;
    let dataset = Arc::new(ClimateDataset::on_disk(&cfg, dir)?);
    let stats = Arc::new(ChannelStats::estimate(&dataset, 4)?);
    let freqs = dataset.class_frequencies(Split::Train, NUM_CLASSES)?;
    let data = Data {
        dataset,
        stats,
        weights: class_weights(&freqs, ClassWeighting::InverseSqrtFrequency),
    };
    drop(w.net.build(&mut seeded_rng(seed)));
    for rank in 0..w.ranks {
        drop(source(w, &data, seed, rank));
    }
    Ok(data)
}

struct Pass {
    report: TrainingReport,
    census: Option<Profile>,
    pool_window: Option<pool::PoolStats>,
}

fn train_pass(
    w: &TrainWorkload,
    d: &Data,
    seed: u64,
    steps: usize,
    tracer: Option<Arc<Tracer>>,
) -> Pass {
    let cfg = w.trainer_config(seed, steps);
    let net = w.net;
    let layer_tracer = tracer.clone();
    let model_builder = move |rng: &mut StdRng| -> Box<dyn Layer> {
        let model = net.build(rng);
        match &layer_tracer {
            Some(t) => Box::new(TracedLayer::new(model, t.clone(), None)),
            None => model,
        }
    };
    let source_tracer = tracer.clone();
    let source_builder =
        move |rank| TracedSource::new(source(w, d, seed, rank), rank, source_tracer.clone());
    let run = || train_data_parallel(&cfg, model_builder, source_builder);
    let ((report, model), census) = match &tracer {
        Some(_) => {
            let (out, prof) = profile::capture(run);
            (out, Some(prof))
        }
        None => (run(), None),
    };
    drop(model);
    let pool_window = tracer
        .as_ref()
        .and_then(|t| t.pool_at_first_timed_step())
        .map(|at| pool::stats().since(&at));
    Pass {
        report,
        census,
        pool_window,
    }
}

/// Samples per second over the timed steps, and their wall times.
fn timed_rate(w: &TrainWorkload, r: &TrainingReport) -> (f64, Vec<f64>) {
    let walls: Vec<f64> = r
        .steps
        .iter()
        .skip(w.warmup)
        .map(|s| s.wall_time_s)
        .collect();
    let samples = (walls.len() * w.ranks) as f64;
    (samples / walls.iter().sum::<f64>(), walls)
}

fn check_pass(out: &mut Outcome, label: &str, r: &TrainingReport) {
    let bad = r.steps.iter().filter(|s| !s.mean_loss.is_finite()).count() as u64;
    out.check(
        &format!("{label}: finite loss per step"),
        r.steps.len() as u64,
        bad,
    );
    out.require(
        &format!("{label}: replicas bitwise consistent"),
        r.consistent,
    );
    out.require(&format!("{label}: not diverged"), !r.diverged);
}

fn loss_digest(r: &TrainingReport) -> String {
    let bits: Vec<String> = r
        .steps
        .iter()
        .map(|s| format!("{:08x}", s.mean_loss.to_bits()))
        .collect();
    bits.join(",")
}

/// Runs a training workload: set-up (repeated), an untraced timed pass,
/// and, when `traced`, a traced pass of the same seed plus the roofline
/// and kernel replay. Writes the trace to `trace_path`.
pub fn run(
    w: &TrainWorkload,
    seed: u64,
    seconds: u64,
    traced: bool,
    scratch: &Path,
    trace_path: &Path,
) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let steps = w.steps(seconds);

    let mut setup_s = Vec::new();
    let mut data = None;
    for rep in 0..SETUP_REPS {
        let dir = scratch.join(format!("data{rep}"));
        let t = Instant::now();
        let d = set_up(w, seed, &dir)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(old) = data.replace((d, dir)) {
            drop(old.0);
            std::fs::remove_dir_all(&old.1)?;
        }
    }
    let (data, _dir) = data.expect("at least one set-up");
    out.set_e2e("setup_s", "setup_s", stats::median(&setup_s), setup_s.len());

    let base = train_pass(w, &data, seed, steps, None);
    check_pass(&mut out, "untraced", &base.report);
    let (rate, walls) = timed_rate(w, &base.report);
    let spec = w.net.spec();
    out.set_e2e(
        "samples_per_s",
        "samples_per_s",
        rate,
        walls.len() * w.ranks,
    );
    out.set_e2e(
        "gflops_sustained",
        "gflops_sustained",
        rate * spec.training_flops() as f64 / 1e9,
        walls.len(),
    );
    out.set_e2e(
        "latency_p50_ms",
        "step_ms_p50",
        1e3 * stats::median(&walls),
        walls.len(),
    );
    if let Some((pct, v)) = stats::tail(&walls) {
        out.named(&format!("step_ms_p{pct:.0}"), 1e3 * v, "ms", walls.len());
    }
    out.hashes.insert(
        "final_params".into(),
        format!("{:016x}", base.report.final_hashes[0]),
    );
    out.hashes
        .insert("loss_sequence".into(), loss_digest(&base.report));

    if traced {
        let tracer = Tracer::new(w.warmup);
        let pass = train_pass(w, &data, seed, steps, Some(tracer.clone()));
        check_pass(&mut out, "traced", &pass.report);
        let r = &pass.report;
        out.require(
            "traced run reproduces final parameter hash, per-step hashes and loss sequence",
            r.final_hashes == base.report.final_hashes
                && r.step_hashes == base.report.step_hashes
                && loss_digest(r) == loss_digest(&base.report),
        );
        let walls_all: Vec<f64> = r.steps.iter().map(|s| s.wall_time_s).collect();
        tracer.close_steps(&walls_all);
        let spans = tracer.spans();
        layer_metrics(&mut out, w, &pass, &spans, steps);
        let (traced_rate, _) = timed_rate(w, r);
        out.per_layer.insert("trace.untraced_rate".into(), rate);
        out.per_layer
            .insert("trace.traced_rate".into(), traced_rate);
        out.per_layer
            .insert("trace.overhead_fraction".into(), 1.0 - traced_rate / rate);
        let lanes: Vec<(u32, String)> = (0..w.ranks as u32)
            .map(|r| (r, format!("rank {r}")))
            .collect();
        std::fs::write(trace_path, crate::trace::chrome_trace_json(&spans, &lanes))?;
        crate::kernel_metrics(&mut out, &spec, DType::F32, true, seed);
    }
    Ok(out)
}

fn layer_metrics(out: &mut Outcome, w: &TrainWorkload, pass: &Pass, spans: &[Span], steps: usize) {
    let r = &pass.report;
    let timed = steps - w.warmup;
    let rank0_steps: Vec<&Span> = spans
        .iter()
        .filter(|s| s.lane == 0 && s.name == "step")
        .skip(w.warmup)
        .collect();
    let child_ms = |step: &Span, name: &str| -> f64 {
        spans
            .iter()
            .filter(|c| c.parent == Some(step.id) && c.name == name)
            .map(|c| c.dur_ns() as f64 / 1e6)
            .sum()
    };
    let per_step = |name: &str| {
        stats::mean(
            &rank0_steps
                .iter()
                .map(|s| child_ms(s, name))
                .collect::<Vec<_>>(),
        )
    };
    let step_ms = stats::mean(
        &rank0_steps
            .iter()
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let self_ms = stats::mean(
        &rank0_steps
            .iter()
            .map(|s| self_time_ns(s, spans) as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let timed_mean_ms = |v: &[f64]| 1e3 * stats::mean(&v[w.warmup.min(v.len())..]);
    let exposed_ms = timed_mean_ms(&r.exposed_comm_s_steps);
    let optim_ms = timed_mean_ms(&r.optim_s_steps);
    let next_batch_ms = per_step("next_batch");
    let comm_busy_ms = 1e3 * r.comm_busy_s_per_step;
    let mut put = |name: &str, v: f64| {
        out.per_layer.insert(name.to_string(), v);
    };
    put("pipeline.next_batch_ms", next_batch_ms);
    put(
        "pipeline.wait_fraction",
        if step_ms > 0.0 {
            next_batch_ms / step_ms
        } else {
            0.0
        },
    );
    put("nn.forward_ms", per_step("forward"));
    put("nn.backward_ms", per_step("backward"));
    put("nn.optim_ms", optim_ms);
    put("nn.optim_busy_ms", 1e3 * r.optim_busy_s_per_step);
    put("distrib.exposed_comm_ms", exposed_ms);
    put("distrib.comm_busy_ms", comm_busy_ms);
    put(
        "distrib.comm_hidden_fraction",
        if comm_busy_ms > 0.0 {
            1.0 - exposed_ms / comm_busy_ms
        } else {
            0.0
        },
    );
    // The step's self time still holds the exposed comm and the optimizer
    // (the trainer runs them between the traced calls); the rest is loss,
    // coordination and the per-step replica-hash audit.
    put(
        "distrib.other_ms",
        (self_ms - exposed_ms - optim_ms).max(0.0),
    );
    put("comm.wire_mb_per_step", r.wire_bytes_per_step as f64 / 1e6);
    put(
        "comm.allreduce_calls_per_step",
        r.allreduce_launches_per_step as f64,
    );
    put(
        "distrib.control_msgs_per_step",
        r.rank0_control_messages as f64 / r.steps.len().max(1) as f64,
    );
    if let Some(census) = &pass.census {
        let rank_steps = (r.steps.len() * w.ranks).max(1) as f64;
        let totals = census.by_category();
        for (i, cat) in CATEGORIES.iter().enumerate() {
            let t = totals
                .iter()
                .find(|(c, _)| *c == profile::Category::ALL[i])
                .map(|(_, t)| *t)
                .unwrap_or_default();
            put(
                &format!("tensor.{cat}.gflop_per_step"),
                t.flops as f64 / 1e9 / rank_steps,
            );
            put(
                &format!("tensor.{cat}.gb_per_step"),
                t.bytes as f64 / 1e9 / rank_steps,
            );
        }
    }
    if let Some(p) = pass.pool_window {
        put(
            "tensor.pool.fresh_allocs_per_step",
            p.fresh_allocs as f64 / timed.max(1) as f64,
        );
        put(
            "tensor.pool.hit_fraction",
            p.pool_served as f64 / p.total_requests().max(1) as f64,
        );
        put("tensor.pool.high_water_mb", p.high_water_bytes as f64 / 1e6);
    }
}
