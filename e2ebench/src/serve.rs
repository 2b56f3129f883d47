//! The serving workload: `exaclim-serve` with two replicas of
//! `DeepLabConfig::tiny(16)` loaded from an EXCK checkpoint, answering f16
//! 24×32 tiles under an open-loop burst schedule and then at saturation.

use crate::report::Outcome;
use crate::stats;
use crate::trace::{chrome_trace_json, Span, TracedLayer, Tracer};
use exaclim_models::{DeepLabConfig, DeepLabV3Plus};
use exaclim_nn::checkpoint;
use exaclim_nn::{Ctx, Layer};
use exaclim_serve::{
    replicas_from_checkpoint, InferenceServer, ServeConfig, ServeHandle, ServeTelemetry,
};
use exaclim_tensor::init::{randn, seeded_rng};
use exaclim_tensor::profile::{self, Profile};
use exaclim_tensor::{pool, DType, Tensor};
use rand::Rng;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Request tile: 16 channels, 24×32 (divisible by DeepLab's output stride 8).
pub const TILE: (usize, usize, usize) = (16, 24, 32);
/// Requests per burst: one frame's tiles.
pub const BURST: usize = 4;
/// One burst every 100 ms: a fixed 40 requests per second.
pub const BURST_PERIOD: Duration = Duration::from_millis(100);
/// A request answered later than this after its due time misses goodput.
pub const LATENCY_LIMIT_MS: f64 = 250.0;
/// Distinct request tiles; requests draw from them in a seeded order.
const DISTINCT_TILES: usize = 64;
/// Untimed bursts before the fixed-rate phase.
const WARMUP_BURSTS: usize = 10;
/// Saturation-phase requests per second of `--seconds`.
const SATURATION_PER_SECOND: usize = 16;
/// Set-up is repeated and its median reported.
const SETUP_REPS: usize = 5;
/// Chrome-trace lane of the request spans; replica `k` uses lane `k + 1`.
const REQUEST_LANE: u32 = 0;

/// An open-loop schedule: request `j` is due `due[j]` after the phase
/// starts and carries tile `tile[j]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Due offsets from the phase start.
    pub due: Vec<Duration>,
    /// Tile index per request.
    pub tile: Vec<usize>,
}

impl Schedule {
    /// `bursts` bursts of [`BURST`] requests, [`BURST_PERIOD`] apart; tile
    /// choice is drawn from `seed` and nothing else.
    pub fn bursts(seed: u64, bursts: usize) -> Schedule {
        let mut rng = seeded_rng(seed ^ 0xB0B5_7000);
        let due = (0..bursts * BURST)
            .map(|j| BURST_PERIOD * (j / BURST) as u32)
            .collect();
        let tile = (0..bursts * BURST)
            .map(|_| rng.gen_range(0..DISTINCT_TILES))
            .collect();
        Schedule { due, tile }
    }

    /// `n` requests all due at once: submitted back to back, against the
    /// queue's backpressure.
    pub fn saturation(seed: u64, n: usize) -> Schedule {
        let mut rng = seeded_rng(seed ^ 0x5A70_0000);
        Schedule {
            due: vec![Duration::ZERO; n],
            tile: (0..n).map(|_| rng.gen_range(0..DISTINCT_TILES)).collect(),
        }
    }
}

/// Requests answered within `limit_ms` per second of phase; failed
/// requests (`None`) and late ones count as missing.
pub fn goodput(latency_ms: &[Option<f64>], limit_ms: f64, phase_s: f64) -> f64 {
    latency_ms
        .iter()
        .filter(|l| matches!(l, Some(v) if *v <= limit_ms))
        .count() as f64
        / phase_s
}

/// One phase's per-request results, indexed like its schedule.
struct PhaseResult {
    /// Latency from due time to answer; `None` when the request failed.
    latency_ms: Vec<Option<f64>>,
    /// Output bit hash per request (0 when failed).
    hashes: Vec<u64>,
    /// How late the generator submitted each request, ms.
    late_ms: Vec<f64>,
    /// First submit to last answer.
    wall: (Instant, Instant),
}

/// Runs one phase: a submit thread fires requests at their due times and
/// a collector thread waits on the answers in submission order.
fn drive(
    handle: &ServeHandle,
    tiles: &[Tensor],
    sched: &Schedule,
    tracer: Option<&Tracer>,
) -> PhaseResult {
    let n = sched.due.len();
    let (tx, rx) = mpsc::channel();
    let origin = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|s| {
        let submitter = s.spawn(move || {
            let mut late = Vec::with_capacity(n);
            for j in 0..n {
                let due = origin + sched.due[j];
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                late.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
                let pending = handle.submit(tiles[sched.tile[j]].clone());
                tx.send((due, pending)).expect("collector alive");
            }
            late
        });
        let collector = s.spawn(move || {
            let mut latency = Vec::with_capacity(n);
            let mut hashes = Vec::with_capacity(n);
            let mut last = origin;
            for (due, pending) in rx {
                let answer = catch_unwind(AssertUnwindSafe(|| pending.wait()));
                let done = Instant::now();
                last = done;
                match answer {
                    Ok(out) => {
                        latency.push(Some(
                            done.saturating_duration_since(due).as_secs_f64() * 1e3,
                        ));
                        hashes.push(out.bit_hash());
                        if let Some(t) = tracer {
                            t.record("request", REQUEST_LANE, None, due, done, 1);
                        }
                    }
                    Err(_) => {
                        latency.push(None);
                        hashes.push(0);
                    }
                }
            }
            (latency, hashes, last)
        });
        let late_ms = submitter.join().expect("submit thread");
        let (latency_ms, hashes, last) = collector.join().expect("collector thread");
        PhaseResult {
            latency_ms,
            hashes,
            late_ms,
            wall: (origin, last),
        }
    })
}

fn model(seed: u64) -> Box<dyn Layer> {
    Box::new(DeepLabV3Plus::new(
        DeepLabConfig::tiny(TILE.0),
        &mut seeded_rng(seed),
    ))
}

/// Replicas built from another seed than the checkpointed model, so only
/// a real load makes them serve its bits.
fn load_replicas(path: &Path, seed: u64, n: usize) -> io::Result<Vec<Box<dyn Layer>>> {
    replicas_from_checkpoint(path, n, || model(seed ^ 0xD1FF))
}

struct SetUp {
    save_ms: f64,
    load_ms: f64,
    server: InferenceServer,
}

/// Model init, checkpoint save, checkpoint load into the replicas and
/// server launch.
fn set_up(seed: u64, path: &Path) -> io::Result<SetUp> {
    let source = model(seed);
    let t = Instant::now();
    checkpoint::save(&checkpoint::full_state(source.as_ref()), path)?;
    let save_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let replicas = load_replicas(path, seed, ServeConfig::default().replicas)?;
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok(SetUp {
        save_ms,
        load_ms,
        server: InferenceServer::launch(ServeConfig::default(), replicas),
    })
}

struct Pass {
    fixed: PhaseResult,
    saturation: PhaseResult,
    telemetry: ServeTelemetry,
    census: Option<Profile>,
    pool_fixed: pool::PoolStats,
}

impl Pass {
    fn saturation_rps(&self) -> f64 {
        let (a, b) = self.saturation.wall;
        self.saturation.hashes.len() as f64 / (b - a).as_secs_f64()
    }

    fn digest(&self) -> u64 {
        self.fixed
            .hashes
            .iter()
            .chain(&self.saturation.hashes)
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &x| {
                (h ^ x).wrapping_mul(0x100_0000_01b3)
            })
    }
}

impl PhaseResult {
    /// The schedule's length: bursts × period.
    fn due_span_s(&self) -> f64 {
        (self.latency_ms.len() / BURST) as f64 * BURST_PERIOD.as_secs_f64()
    }
}

fn serve_pass(
    server: InferenceServer,
    tiles: &[Tensor],
    seed: u64,
    seconds: u64,
    tracer: Option<&Tracer>,
) -> Pass {
    let handle = server.handle();
    drive(
        &handle,
        tiles,
        &Schedule::bursts(seed ^ 0x3A43, WARMUP_BURSTS),
        None,
    );
    let pool_before = pool::stats();
    if tracer.is_some() {
        profile::start();
    }
    let fixed = drive(
        &handle,
        tiles,
        &Schedule::bursts(seed, seconds as usize * 10),
        tracer,
    );
    let census = tracer.map(|_| profile::stop());
    let pool_fixed = pool::stats().since(&pool_before);
    let saturation = drive(
        &handle,
        tiles,
        &Schedule::saturation(seed, seconds as usize * SATURATION_PER_SECOND),
        None,
    );
    drop(handle);
    Pass {
        fixed,
        saturation,
        telemetry: server.shutdown(),
        census,
        pool_fixed,
    }
}

/// Runs the serving workload; see [`crate::train::run`] for the shape.
pub fn run(
    seed: u64,
    seconds: u64,
    traced: bool,
    scratch: &Path,
    trace_path: &Path,
) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let mut rng = seeded_rng(seed ^ 0x7115);
    let tiles: Vec<Tensor> = (0..DISTINCT_TILES)
        .map(|_| randn([1, TILE.0, TILE.1, TILE.2], DType::F16, 1.0, &mut rng))
        .collect();
    let ckpt = scratch.join("serve.exck");

    let (mut setup_s, mut save_ms, mut load_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut server = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let s = set_up(seed, &ckpt)?;
        setup_s.push(t.elapsed().as_secs_f64());
        save_ms.push(s.save_ms);
        load_ms.push(s.load_ms);
        if let Some(old) = server.replace(s.server) {
            old.shutdown();
        }
    }
    out.set_e2e("setup_s", "setup_s", stats::median(&setup_s), setup_s.len());

    let base = serve_pass(
        server.expect("at least one set-up"),
        &tiles,
        seed,
        seconds,
        None,
    );
    check_outputs(&mut out, "untraced", &base, &tiles, &ckpt, seed)?;
    let phase_s = base.fixed.due_span_s();
    let lat: Vec<f64> = base.fixed.latency_ms.iter().flatten().copied().collect();
    let rps = base.saturation_rps();
    let spec = DeepLabConfig::tiny(TILE.0).spec(TILE.1, TILE.2);
    out.set_e2e(
        "samples_per_s",
        "throughput_rps",
        rps,
        base.saturation.hashes.len(),
    );
    out.set_e2e(
        "gflops_sustained",
        "gflops_sustained",
        rps * spec.forward_flops() as f64 / 1e9,
        base.saturation.hashes.len(),
    );
    out.set_e2e(
        "latency_p50_ms",
        "latency_p50_ms",
        stats::median(&lat),
        lat.len(),
    );
    if stats::supports(lat.len(), 0.99) {
        out.named(
            "latency_p99_ms",
            stats::quantile(&lat, 0.99),
            "ms",
            lat.len(),
        );
    }
    out.named(
        "goodput_rps",
        goodput(&base.fixed.latency_ms, LATENCY_LIMIT_MS, phase_s),
        "1/s",
        lat.len(),
    );
    out.hashes
        .insert("served_outputs".into(), format!("{:016x}", base.digest()));

    if traced {
        let tracer = Tracer::new(0);
        let replicas = load_replicas(&ckpt, seed, ServeConfig::default().replicas)?
            .into_iter()
            .enumerate()
            .map(|(k, m)| {
                Box::new(TracedLayer::new(m, tracer.clone(), Some(k as u32 + 1))) as Box<dyn Layer>
            })
            .collect();
        let server = InferenceServer::launch(ServeConfig::default(), replicas);
        let pass = serve_pass(server, &tiles, seed, seconds, Some(&tracer));
        check_outputs(&mut out, "traced", &pass, &tiles, &ckpt, seed)?;
        out.require(
            "traced run reproduces every served output",
            pass.digest() == base.digest(),
        );
        let spans = tracer.spans();
        layer_metrics(&mut out, &pass, &spans, &tracer);
        out.per_layer
            .insert("nn.checkpoint_save_ms".into(), stats::median(&save_ms));
        out.per_layer
            .insert("nn.checkpoint_load_ms".into(), stats::median(&load_ms));
        let traced_rps = pass.saturation_rps();
        out.per_layer.insert("trace.untraced_rate".into(), rps);
        out.per_layer.insert("trace.traced_rate".into(), traced_rps);
        out.per_layer
            .insert("trace.overhead_fraction".into(), 1.0 - traced_rps / rps);
        let mut lanes = vec![(REQUEST_LANE, "requests".to_string())];
        lanes.extend(
            (0..ServeConfig::default().replicas as u32).map(|k| (k + 1, format!("replica {k}"))),
        );
        std::fs::write(trace_path, chrome_trace_json(&spans, &lanes))?;
        crate::kernel_metrics(&mut out, &spec, DType::F16, false, seed);
    }
    Ok(out)
}

/// Every served output must hash equal to a direct batch=1 eval forward of
/// a model loaded from the same checkpoint. Runs outside the timed window.
fn check_outputs(
    out: &mut Outcome,
    label: &str,
    pass: &Pass,
    tiles: &[Tensor],
    ckpt: &Path,
    seed: u64,
) -> io::Result<()> {
    let mut reference = load_replicas(ckpt, seed, 1)?.remove(0);
    let mut ctx = Ctx::eval();
    let want: Vec<u64> = tiles
        .iter()
        .map(|t| reference.forward(t, &mut ctx).bit_hash())
        .collect();
    let fixed = Schedule::bursts(seed, pass.fixed.hashes.len() / BURST);
    let sat = Schedule::saturation(seed, pass.saturation.hashes.len());
    let bad = |sched: &Schedule, res: &PhaseResult| {
        sched
            .tile
            .iter()
            .zip(&res.hashes)
            .filter(|(&t, &h)| h != want[t])
            .count() as u64
    };
    let n_fixed = pass.fixed.hashes.len() as u64;
    out.check(
        &format!("{label}: fixed-rate outputs equal batch=1 eval"),
        n_fixed,
        bad(&fixed, &pass.fixed),
    );
    let n_sat = pass.saturation.hashes.len() as u64;
    out.check(
        &format!("{label}: saturation outputs equal batch=1 eval"),
        n_sat,
        bad(&sat, &pass.saturation),
    );
    Ok(())
}

fn layer_metrics(out: &mut Outcome, pass: &Pass, spans: &[Span], tracer: &Tracer) {
    let tm = &pass.telemetry;
    let requests = pass.fixed.hashes.len().max(1) as f64;
    // Replica busy share of the fixed-rate window: its imbalance is what
    // moves latency under bursts.
    let (w0, w1) = (tracer.ns(pass.fixed.wall.0), tracer.ns(pass.fixed.wall.1));
    let busy: Vec<f64> = (1..=tm.replicas.len() as u32)
        .map(|lane| {
            let covered: u64 = spans
                .iter()
                .filter(|s| s.lane == lane && s.name == "forward")
                .map(|s| s.end_ns.min(w1).saturating_sub(s.start_ns.max(w0)))
                .sum();
            covered as f64 / (w1 - w0).max(1) as f64
        })
        .collect();
    let service = tm.service();
    let mut put = |name: &str, v: f64| {
        out.per_layer.insert(name.to_string(), v);
    };
    put("serve.service_ms", service.mean().as_secs_f64() * 1e3);
    put(
        "serve.per_sample_ms",
        service.total().as_secs_f64() * 1e3 / tm.requests().max(1) as f64,
    );
    put("serve.mean_batch", tm.mean_batch());
    put(
        "serve.replica_busy_max",
        busy.iter().copied().fold(0.0, f64::max),
    );
    put(
        "serve.replica_busy_min",
        busy.iter().copied().fold(f64::INFINITY, f64::min),
    );
    put(
        "serve.deadline_flush_fraction",
        tm.deadline_flushes() as f64 / tm.batches().max(1) as f64,
    );
    put("serve.queue_high", tm.queue_high as f64);
    put("serve.generator_late_ms", stats::mean(&pass.fixed.late_ms));
    if let Some(census) = &pass.census {
        let totals = census.by_category();
        let get = |c: profile::Category| {
            totals
                .iter()
                .find(|(k, _)| *k == c)
                .map(|(_, t)| *t)
                .unwrap_or_default()
        };
        put(
            "tensor.fwd_conv.gflop_per_request",
            get(profile::Category::ForwardConv).flops as f64 / 1e9 / requests,
        );
        put(
            "tensor.type_conv.gb_per_request",
            get(profile::Category::TypeConversions).bytes as f64 / 1e9 / requests,
        );
    }
    let p = pass.pool_fixed;
    put(
        "tensor.pool.fresh_allocs_per_step",
        p.fresh_allocs as f64 / requests,
    );
    put(
        "tensor.pool.hit_fraction",
        p.pool_served as f64 / p.total_requests().max(1) as f64,
    );
    put("tensor.pool.high_water_mb", p.high_water_bytes as f64 / 1e6);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_schedule_is_a_function_of_the_seed() {
        let a = Schedule::bursts(7, 250);
        assert_eq!(a, Schedule::bursts(7, 250), "same seed, same schedule");
        assert_ne!(
            a.tile,
            Schedule::bursts(8, 250).tile,
            "the seed drives request contents"
        );
        assert_eq!(a.due.len(), 1000);
        // Bursts of four, 100 ms apart: a fixed 40 requests per second.
        for (j, d) in a.due.iter().enumerate() {
            assert_eq!(*d, Duration::from_millis(100 * (j / BURST) as u64));
        }
        assert_eq!(
            *a.due.last().expect("non-empty"),
            Duration::from_millis(24_900)
        );
        assert!(a.tile.iter().all(|&t| t < DISTINCT_TILES));
        assert_eq!(Schedule::saturation(7, 50), Schedule::saturation(7, 50));
        assert!(Schedule::saturation(7, 50).due.iter().all(|d| d.is_zero()));
    }

    #[test]
    fn goodput_counts_late_and_failed_requests_as_missing() {
        let lat = [Some(10.0), Some(250.0), Some(250.1), None, Some(1.0)];
        // Three of five answered within 250 ms (one exactly at the limit),
        // one late, one failed: 3 requests over a 0.5 s phase.
        assert_eq!(goodput(&lat, 250.0, 0.5), 6.0);
        assert_eq!(goodput(&[None, None], 250.0, 1.0), 0.0);
        assert_eq!(goodput(&[], 250.0, 1.0), 0.0);
    }
}
