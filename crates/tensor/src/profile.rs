//! Kernel census recorder.
//!
//! Section VI of the paper determines FLOP rates by traversing the
//! TensorFlow operation graph and counting the floating-point work of every
//! kernel, then groups kernels into eight categories for the roofline-style
//! analysis of Figures 3, 8 and 9. This module is the equivalent
//! instrument: every kernel in [`crate::ops`] reports `(kind, flops,
//! bytes_read, bytes_written)` here, and the execution *phase*
//! (forward / backward / optimizer), set per thread by the training loop,
//! maps the kind onto the paper's category rows.
//!
//! Recording is off by default and costs a single relaxed atomic load per
//! kernel when disabled.

use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What a kernel does, independent of when it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Convolution, transposed convolution, or the GEMM backing one.
    Conv,
    /// Elementwise / small-reduction work: bias, activations, batch norm,
    /// pooling, losses, dropout.
    Pointwise,
    /// Buffer copies and layout transposes (e.g. im2col scatter/gather,
    /// concatenation).
    CopyTranspose,
    /// Precision conversion kernels.
    TypeConversion,
    /// Gradient all-reduce traffic.
    Allreduce,
}

/// When a kernel runs. Set by the training loop around each pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Forward pass.
    Forward,
    /// Backward pass.
    Backward,
    /// Optimizer / weight-update pass.
    Optimizer,
}

/// The paper's kernel categories (rows of Figures 3/8/9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Forward-pass convolutions.
    ForwardConv,
    /// Forward-pass pointwise kernels.
    ForwardPointwise,
    /// Backward-pass convolutions.
    BackwardConv,
    /// Backward-pass pointwise kernels.
    BackwardPointwise,
    /// Optimizer kernels.
    Optimizer,
    /// Copies and transposes (any phase).
    CopiesTransposes,
    /// All-reduce (NCCL-equivalent) kernels.
    Allreduce,
    /// Type conversions (any phase).
    TypeConversions,
}

impl Category {
    /// All categories in the paper's table order.
    pub const ALL: [Category; 8] = [
        Category::ForwardConv,
        Category::ForwardPointwise,
        Category::BackwardConv,
        Category::BackwardPointwise,
        Category::Optimizer,
        Category::CopiesTransposes,
        Category::Allreduce,
        Category::TypeConversions,
    ];

    /// Display name matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Category::ForwardConv => "Forward Convolutions",
            Category::ForwardPointwise => "Forward Point-wise",
            Category::BackwardConv => "Backward Convolutions",
            Category::BackwardPointwise => "Backward Point-wise",
            Category::Optimizer => "Optimizer",
            Category::CopiesTransposes => "Copies/Transposes",
            Category::Allreduce => "Allreduce (NCCL)",
            Category::TypeConversions => "Type Conversions",
        }
    }
}

fn categorize(phase: Phase, kind: KernelKind) -> Category {
    match (kind, phase) {
        (KernelKind::Conv, Phase::Forward) => Category::ForwardConv,
        (KernelKind::Conv, _) => Category::BackwardConv,
        (KernelKind::Pointwise, Phase::Forward) => Category::ForwardPointwise,
        (KernelKind::Pointwise, Phase::Backward) => Category::BackwardPointwise,
        (KernelKind::Pointwise, Phase::Optimizer) => Category::Optimizer,
        (KernelKind::CopyTranspose, _) => Category::CopiesTransposes,
        (KernelKind::Allreduce, _) => Category::Allreduce,
        (KernelKind::TypeConversion, _) => Category::TypeConversions,
    }
}

/// One recorded kernel launch.
#[derive(Debug, Clone)]
pub struct KernelRecord {
    /// Category (phase × kind).
    pub category: Category,
    /// Kernel name, e.g. `"conv2d_fwd_direct"`.
    pub name: &'static str,
    /// Floating-point operations (2 per multiply-add, per Section VI).
    pub flops: u64,
    /// Bytes read from "device memory".
    pub bytes_read: u64,
    /// Bytes written to "device memory".
    pub bytes_written: u64,
}

/// Aggregate census over a recorded region.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Every kernel launch in order.
    pub records: Vec<KernelRecord>,
    /// f32 pool traffic during the region: the [`crate::pool::stats`]
    /// delta between [`start`] and [`stop`] (the census's memory column).
    pub alloc: crate::pool::PoolStats,
}

/// Per-category aggregate of a [`Profile`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CategoryTotals {
    /// Number of kernel launches.
    pub kernels: u64,
    /// Total FLOPs.
    pub flops: u64,
    /// Total bytes moved (read + written).
    pub bytes: u64,
}

impl Profile {
    /// Sums records per category.
    pub fn by_category(&self) -> Vec<(Category, CategoryTotals)> {
        let mut out: Vec<(Category, CategoryTotals)> = Category::ALL
            .iter()
            .map(|&c| (c, CategoryTotals::default()))
            .collect();
        for r in &self.records {
            let slot = out.iter_mut().find(|(c, _)| *c == r.category).expect("known category");
            slot.1.kernels += 1;
            slot.1.flops += r.flops;
            slot.1.bytes += r.bytes_read + r.bytes_written;
        }
        out
    }

    /// Total FLOPs over all records.
    pub fn total_flops(&self) -> u64 {
        self.records.iter().map(|r| r.flops).sum()
    }

    /// Total bytes over all records.
    pub fn total_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.bytes_read + r.bytes_written).sum()
    }

    /// Total kernel launches.
    pub fn total_kernels(&self) -> usize {
        self.records.len()
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// One thread's private record buffer. `record()` only ever locks its own
/// shard (uncontended in steady state), so profiling no longer serializes
/// concurrently running kernels through one global mutex.
type Shard = Arc<Mutex<Vec<KernelRecord>>>;

/// All shards ever created, in thread-registration order. `start()` clears
/// them; `stop()` drains them in this (stable) order so repeated censuses
/// of the same single-threaded region produce identical record sequences.
static SHARDS: Mutex<Vec<Shard>> = Mutex::new(Vec::new());

thread_local! {
    static PHASE: Cell<Phase> = const { Cell::new(Phase::Forward) };
    static MY_SHARD: Shard = {
        let shard: Shard = Arc::new(Mutex::new(Vec::new()));
        SHARDS.lock().push(shard.clone());
        shard
    };
}

/// Pool-statistics snapshot taken at [`start`], consumed by [`stop`] to
/// report the region's allocator-traffic delta.
static POOL_AT_START: Mutex<Option<crate::pool::PoolStats>> = Mutex::new(None);

/// Begins recording. Any previous un-collected profile is discarded.
pub fn start() {
    for shard in SHARDS.lock().iter() {
        shard.lock().clear();
    }
    *POOL_AT_START.lock() = Some(crate::pool::stats());
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stops recording and returns the collected census.
///
/// Shards are drained in thread-registration order; within a shard,
/// records keep their recording order. Kernels record at the op level (on
/// the thread that invoked the op), so a single-threaded census region
/// yields exactly the sequential record order.
pub fn stop() -> Profile {
    ENABLED.store(false, Ordering::Relaxed);
    let mut prof = Profile::default();
    for shard in SHARDS.lock().iter() {
        prof.records.append(&mut shard.lock());
    }
    let now = crate::pool::stats();
    prof.alloc = match POOL_AT_START.lock().take() {
        Some(at_start) => now.since(&at_start),
        None => now,
    };
    prof
}

/// True while a census is being recorded.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the calling thread's execution phase. The phase is per thread,
/// like the record shards: each rank thread files its own kernels under
/// its own phase, so concurrent ranks in one census never misfile each
/// other's work. Threads start in [`Phase::Forward`].
pub fn set_phase(phase: Phase) {
    PHASE.with(|p| p.set(phase));
}

/// The calling thread's execution phase.
pub fn phase() -> Phase {
    PHASE.with(|p| p.get())
}

/// Records one kernel launch if a census is active.
#[inline]
pub fn record(kind: KernelKind, name: &'static str, flops: u64, bytes_read: u64, bytes_written: u64) {
    if !enabled() {
        return;
    }
    let category = categorize(phase(), kind);
    MY_SHARD.with(|shard| {
        shard.lock().push(KernelRecord {
            category,
            name,
            flops,
            bytes_read,
            bytes_written,
        });
    });
}

/// Re-records a previously captured kernel record verbatim (used when a
/// fused op suspends recording around its inner kernels and restores the
/// surrounding census).
pub fn record_raw(record: KernelRecord) {
    if !enabled() {
        return;
    }
    MY_SHARD.with(|shard| shard.lock().push(record));
}

/// Runs `f` with recording active and returns its result plus the census.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Profile) {
    start();
    let out = f();
    let prof = stop();
    (out, prof)
}

// ---------------------------------------------------------------------------
// Step timeline: wall-clock phase spans for the overlap analysis.
// ---------------------------------------------------------------------------

/// What a training-step wall-clock span covers. Unlike [`Phase`] (which
/// classifies *kernels*), span kinds mark the step's timeline so the
/// overlap report can compute how much communication the backward pass
/// hid: `CommBusy` is time a thread spent packing/all-reducing/scattering
/// a gradient bucket, `CommExposed` is the slice of that which the rank's
/// critical path actually waited on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Model forward pass.
    Forward,
    /// Loss + model backward pass.
    Backward,
    /// A gradient bucket being packed, all-reduced and scattered back
    /// (wherever that work runs — rank thread or comm progress thread).
    CommBusy,
    /// Gradient-reduction time on the rank thread's critical path: the
    /// whole reduce loop when communication is serial, or the join on the
    /// comm progress thread when it is overlapped.
    CommExposed,
    /// Optimizer step.
    Optimizer,
    /// Time the rank's critical path waited on the input pipeline (the
    /// blocking pull of the next batch) — the exposed-I/O number the
    /// prefetch autoscaler feeds on.
    Ingest,
}

impl SpanKind {
    /// Display label for timeline tables.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Forward => "forward",
            SpanKind::Backward => "backward",
            SpanKind::CommBusy => "comm-busy",
            SpanKind::CommExposed => "comm-exposed",
            SpanKind::Optimizer => "optimizer",
            SpanKind::Ingest => "ingest",
        }
    }
}

/// One wall-clock span on a rank's step timeline.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// The rank whose timeline this span belongs to.
    pub rank: usize,
    /// Training step index.
    pub step: usize,
    /// What the span covers.
    pub kind: SpanKind,
    /// Start time in seconds since [`timeline_start`].
    pub start_s: f64,
    /// Duration in seconds.
    pub dur_s: f64,
}

static TIMELINE_ON: AtomicBool = AtomicBool::new(false);
static TIMELINE: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
static TIMELINE_EPOCH: Mutex<Option<Instant>> = Mutex::new(None);

/// Begins timeline recording. Any previous un-collected spans are
/// discarded. Independent of the kernel census ([`start`]/[`stop`]).
pub fn timeline_start() {
    TIMELINE.lock().clear();
    *TIMELINE_EPOCH.lock() = Some(Instant::now());
    TIMELINE_ON.store(true, Ordering::Relaxed);
}

/// True while a timeline is being recorded.
#[inline]
pub fn timeline_active() -> bool {
    TIMELINE_ON.load(Ordering::Relaxed)
}

/// Stops timeline recording and returns the collected spans (in recording
/// order per thread; sort by `start_s` for a global view).
pub fn timeline_stop() -> Vec<SpanRecord> {
    TIMELINE_ON.store(false, Ordering::Relaxed);
    *TIMELINE_EPOCH.lock() = None;
    std::mem::take(&mut TIMELINE.lock())
}

/// Records one span if a timeline is active. `started` is the span's
/// starting instant (must be after [`timeline_start`]); `dur_s` its
/// duration in seconds.
pub fn record_span(rank: usize, step: usize, kind: SpanKind, started: Instant, dur_s: f64) {
    if !timeline_active() {
        return;
    }
    let start_s = match *TIMELINE_EPOCH.lock() {
        Some(epoch) => started.checked_duration_since(epoch).map_or(0.0, |d| d.as_secs_f64()),
        None => return, // stopped between the check and the lock
    };
    TIMELINE.lock().push(SpanRecord { rank, step, kind, start_s, dur_s });
}

/// Runs a test body that asserts exact figures of process-wide
/// instruments — the kernel census and its phase, the buffer-pool
/// statistics — as the only test in a process of its own.
///
/// The test harness runs tests on parallel threads of one process, so the
/// kernels and allocations of any concurrently running test land in the
/// same counters. Called from a `#[test]`, this re-runs that one test
/// (`<name> --exact`) in a child process of the same test binary and
/// fails unless the child ran it and it passed; the child runs `body`.
/// When the harness runs the test on its main thread (one test at a
/// time), `body` runs in place. Test-support only.
#[doc(hidden)]
pub fn isolated_test(body: impl FnOnce()) {
    const CHILD: &str = "ISOLATED_TEST_CHILD";
    let thread = std::thread::current();
    let name = match thread.name() {
        Some(name) if name != "main" && std::env::var_os(CHILD).is_none() => name,
        _ => return body(),
    };
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args([name, "--exact", "--test-threads=1"])
        .env(CHILD, "1")
        .output()
        .expect("spawn the isolated test process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("test result: ok. 1 passed"),
        "isolated run of {name} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_collects_records() {
        isolated_test(|| {
            set_phase(Phase::Forward);
            let ((), prof) = capture(|| {
                record(KernelKind::Conv, "k1", 100, 10, 20);
                set_phase(Phase::Backward);
                record(KernelKind::Conv, "k2", 200, 30, 40);
                record(KernelKind::Pointwise, "k3", 5, 1, 1);
            });
            assert_eq!(prof.total_kernels(), 3);
            assert_eq!(prof.total_flops(), 305);
            assert_eq!(prof.total_bytes(), 102);
            let cats = prof.by_category();
            let get = |c: Category| cats.iter().find(|(cc, _)| *cc == c).unwrap().1;
            assert_eq!(get(Category::ForwardConv).flops, 100);
            assert_eq!(get(Category::BackwardConv).flops, 200);
            assert_eq!(get(Category::BackwardPointwise).kernels, 1);
            set_phase(Phase::Forward);
        });
    }

    #[test]
    fn disabled_recording_is_dropped() {
        isolated_test(|| {
            let before = enabled();
            assert!(!before, "no census should be active between tests");
            record(KernelKind::Conv, "ignored", 1, 1, 1);
            let ((), prof) = capture(|| {});
            assert_eq!(prof.total_kernels(), 0);
        });
    }

    #[test]
    fn optimizer_phase_maps_pointwise_to_optimizer() {
        isolated_test(|| {
            set_phase(Phase::Optimizer);
            let ((), prof) = capture(|| {
                record(KernelKind::Pointwise, "sgd", 10, 4, 4);
            });
            assert_eq!(prof.records[0].category, Category::Optimizer);
            set_phase(Phase::Forward);
        });
    }

    #[test]
    fn alloc_traffic_covers_the_captured_region_only() {
        isolated_test(|| {
            // Traffic outside the capture must not leak into the column.
            let _warmup = crate::tensor::Tensor::zeros([64], crate::tensor::DType::F32);
            let ((), prof) = capture(|| {
                let a = crate::tensor::Tensor::zeros([32, 32], crate::tensor::DType::F32);
                drop(a);
                let _b = crate::tensor::Tensor::zeros([32, 32], crate::tensor::DType::F32);
            });
            assert_eq!(prof.alloc.total_requests(), 2, "two tensor allocations in region");
            assert!(
                prof.alloc.bytes_fresh + prof.alloc.bytes_reused >= 2 * 32 * 32 * 4,
                "both requests accounted by bytes"
            );
            let ((), empty) = capture(|| {});
            assert_eq!(empty.alloc.total_requests(), 0);
        });
    }

    #[test]
    fn each_thread_files_kernels_under_its_own_phase() {
        isolated_test(|| {
            // Two rank threads in one census: one sets Forward, then the
            // other sets Backward, then both record one conv.
            let barrier = std::sync::Barrier::new(2);
            let ((), prof) = capture(|| {
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        set_phase(Phase::Forward);
                        barrier.wait();
                        barrier.wait();
                        record(KernelKind::Conv, "rank0", 1, 1, 1);
                    });
                    scope.spawn(|| {
                        barrier.wait();
                        set_phase(Phase::Backward);
                        barrier.wait();
                        record(KernelKind::Conv, "rank1", 1, 1, 1);
                    });
                });
            });
            let cats = prof.by_category();
            let get = |c: Category| cats.iter().find(|(cc, _)| *cc == c).unwrap().1;
            assert_eq!(get(Category::ForwardConv).kernels, 1);
            assert_eq!(get(Category::BackwardConv).kernels, 1);
        });
    }

    #[test]
    fn concurrent_records_all_land_in_the_census() {
        isolated_test(|| {
            set_phase(Phase::Forward);
            let ((), prof) = capture(|| {
                let threads: Vec<_> = (0..4)
                    .map(|_| {
                        std::thread::spawn(|| {
                            for _ in 0..50 {
                                record(KernelKind::Pointwise, "worker", 2, 1, 1);
                            }
                        })
                    })
                    .collect();
                for t in threads {
                    t.join().unwrap();
                }
            });
            assert_eq!(prof.total_kernels(), 200);
            assert_eq!(prof.total_flops(), 400);
        });
    }
}
