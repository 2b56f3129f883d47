//! End-to-end benchmark of exaclim: paper-width training steps and bursty
//! f16 serving, measured from outside through public calls.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload train-tiramisu-1r --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` additionally
//! runs a traced pass of the same seed, checks it reproduces the untraced
//! pass bit for bit, and prints every per-layer metric. The last stdout
//! line is the JSON result; the exit code is non-zero when any correctness
//! check fails. See README.md for the workloads and metric definitions.

mod report;
mod roofline;
mod serve;
mod stats;
mod trace;
mod train;

use exaclim_models::ArchSpec;
use exaclim_tensor::{
    pool, set_compute_precision, set_kernel_threads, set_simd_enabled, ComputePrecision, DType,
};
use report::{num, Outcome, REPLAY_CATEGORIES};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Kernel thread-pool width, pinned so the host's core count cannot
/// change the measured configuration.
const KERNEL_THREADS: usize = 2;
/// Comm receive deadline, pinned at the library default.
const RECV_DEADLINE_MS: u64 = 30_000;

const WORKLOADS: [&str; 3] = [
    "train-tiramisu-1r",
    "train-deeplab-2r",
    "serve-deeplab-burst",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(
                    value
                        .parse::<u8>()
                        .map_err(|e| format!("--trace {value}: {e}"))?
                        != 0,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(25).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Sets every setting the library defaults from an `EXACLIM_*` variable,
/// before any thread starts, and clears every other `EXACLIM_*` variable,
/// so nothing exported in the caller's shell changes what is measured.
/// Returns the pinned values for the provenance record.
fn pin_settings(workload: &str) -> Vec<(String, String)> {
    let overlap_fused = if workload == "train-deeplab-2r" {
        "1"
    } else {
        "0"
    };
    let compute = if workload == "serve-deeplab-burst" {
        ComputePrecision::F16
    } else {
        ComputePrecision::F32
    };
    let pinned: Vec<(String, String)> = [
        ("EXACLIM_NUM_THREADS", KERNEL_THREADS.to_string()),
        ("EXACLIM_SIMD", "1".to_string()),
        ("EXACLIM_POOL", "1".to_string()),
        ("EXACLIM_OVERLAP", overlap_fused.to_string()),
        ("EXACLIM_FUSED_OPTIM", overlap_fused.to_string()),
        ("EXACLIM_COMPUTE", compute.label().to_string()),
        ("EXACLIM_RECV_DEADLINE_MS", RECV_DEADLINE_MS.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    for (k, _) in std::env::vars() {
        if k.starts_with("EXACLIM_") {
            std::env::remove_var(k);
        }
    }
    for (k, v) in &pinned {
        std::env::set_var(k, v);
    }
    set_kernel_threads(KERNEL_THREADS);
    set_simd_enabled(true);
    pool::set_enabled(true);
    set_compute_precision(compute);
    pinned
}

fn command_output(cmd: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = std::process::Command::new(cmd)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over the workspace sources and lock file: identifies the code
/// measured even where the checkout is not a git repository.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("shims"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn provenance_json(args: &Args, pinned: &[(String, String)], root: &Path) -> String {
    let q = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let commit =
        command_output("git", &["rev-parse", "HEAD"], root).unwrap_or_else(|| "unknown".into());
    let rustc = command_output("rustc", &["--version"], root).unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let serve_cfg = exaclim_serve::ServeConfig::default();
    let env: Vec<String> = pinned
        .iter()
        .map(|(k, v)| format!("{}: {}", q(k), q(v)))
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": {}, \"source_digest\": {}, \
         \"nproc\": {nproc}, \"simd_level\": {}, \"kernel_threads\": {}, \"rustc\": {}, \"pinned\": {{{}}}, \
         \"serve_config\": {}}}",
        q(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        q(&commit),
        q(&source_digest(root)),
        q(&format!("{:?}", exaclim_tensor::simd::active_level())),
        exaclim_tensor::kernel_threads(),
        q(&rustc),
        env.join(", "),
        q(&format!("{serve_cfg:?}")),
    )
}

/// Roofline and per-category replay metrics of `spec` (traced runs).
pub(crate) fn kernel_metrics(
    out: &mut Outcome,
    spec: &ArchSpec,
    dtype: DType,
    backward: bool,
    seed: u64,
) {
    let roof = roofline::measure(seed);
    let replay = roofline::replay(spec, dtype, backward, seed);
    out.per_layer
        .insert("tensor.gemm_peak_gflops".into(), roof.gemm_peak_gflops);
    out.per_layer
        .insert("tensor.stream_gbps".into(), roof.stream_gbps);
    for cat in REPLAY_CATEGORIES {
        let c = replay.categories.get(cat).copied().unwrap_or_default();
        out.per_layer
            .insert(format!("tensor.{cat}.replay_ms"), c.seconds * 1e3);
        out.per_layer
            .insert(format!("tensor.{cat}.gflops"), c.gflops());
        out.per_layer.insert(
            format!("tensor.{cat}.pct_peak"),
            100.0 * c.gflops() / roof.gemm_peak_gflops,
        );
    }
    out.named("replay_skipped_ops", replay.skipped as f64, "count", 1);
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let pinned = pin_settings(&args.workload);
    let bench_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = bench_dir
        .parent()
        .expect("benchmark lives in the repository")
        .to_path_buf();
    let out_dir = bench_dir.join("out");
    let scratch = ScratchDir(out_dir.join(format!("tmp-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("e2ebench: cannot create {}: {e}", scratch.0.display());
        return ExitCode::FAILURE;
    }
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let trace_path = out_dir.join(format!("{stem}.trace.json"));

    let result = match args.workload.as_str() {
        "train-tiramisu-1r" => train::run(
            &train::TIRAMISU_1R,
            args.seed,
            args.seconds,
            args.trace,
            &scratch.0,
            &trace_path,
        ),
        "train-deeplab-2r" => train::run(
            &train::DEEPLAB_2R,
            args.seed,
            args.seconds,
            args.trace,
            &scratch.0,
            &trace_path,
        ),
        _ => serve::run(args.seed, args.seconds, args.trace, &scratch.0, &trace_path),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    out.set_e2e("peak_rss_mb", "peak_rss_mb", peak_rss_mb(), 1);

    let provenance = provenance_json(&args, &pinned, &root);
    let named: Vec<String> = out
        .end_to_end
        .iter()
        .chain(out.named.iter().map(|(n, v)| (n, v)))
        .map(|(n, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}}}",
                num(v.value),
                v.unit,
                v.n
            )
        })
        .collect();
    let record = format!(
        "{{\"provenance\": {provenance}, \"metrics\": {{{}}}}}",
        named.join(", ")
    );
    if let Err(e) = std::fs::write(out_dir.join(format!("{stem}.json")), format!("{record}\n")) {
        eprintln!("e2ebench: cannot write the result record: {e}");
    }
    println!("{} seed {} ({} s):", args.workload, args.seed, args.seconds);
    print!("{}", out.render());
    if args.trace {
        println!("  trace written to {}", trace_path.display());
    }
    println!("{record}");
    println!("{}", out.result_line(args.trace));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
