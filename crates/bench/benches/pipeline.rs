//! Criterion benchmarks for the input pipeline (§V-A2): prefetch depth,
//! worker count, and the serialized-reader (HDF5) vs per-worker-reader
//! comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use exaclim_climsim::dataset::DatasetConfig;
use exaclim_climsim::ClimateDataset;
use exaclim_pipeline::prefetch::{PrefetchConfig, ReaderMode};
use exaclim_pipeline::{ChannelStats, IngestStream, SampleSampler, StreamConfig, StreamingIngest};
use exaclim_tensor::DType;
use std::sync::Arc;
use std::time::Duration;

fn dataset() -> Arc<ClimateDataset> {
    let mut cfg = DatasetConfig::small(99, 6);
    cfg.generator.h = 16;
    cfg.generator.w = 24;
    Arc::new(ClimateDataset::in_memory(&cfg))
}

fn consume(ds: &Arc<ClimateDataset>, cfg: PrefetchConfig, n: usize) {
    let stats = ChannelStats::estimate(ds, 1).expect("stats");
    let sampler = SampleSampler::for_rank(ds.len(), 0, 4, 7);
    let stream_cfg = StreamConfig {
        prefetch: cfg,
        seed: sampler.seed(),
        chunk_size: sampler.chunk_size(),
        augment: false,
        meridional: Vec::new(),
    };
    let mut q = StreamingIngest::start(ds.clone(), sampler.shard().to_vec(), stats, stream_cfg);
    for _ in 0..n {
        let _ = q.next_sample();
    }
}

fn base_config(mode: ReaderMode, workers: usize, depth: usize) -> PrefetchConfig {
    PrefetchConfig {
        workers,
        depth,
        mode,
        read_cost: Duration::from_micros(300),
        channels: (0..16).collect(),
        class_weights: vec![1.0, 30.0, 8.0],
        dtype: DType::F32,
    }
}

fn reader_modes(c: &mut Criterion) {
    let ds = dataset();
    let mut group = c.benchmark_group("reader_mode_4workers");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    for (mode, name) in [(ReaderMode::SharedLocked, "hdf5_locked"), (ReaderMode::PerWorker, "per_worker")] {
        group.bench_function(name, |b| {
            b.iter(|| consume(&ds, base_config(mode, 4, 4), 16));
        });
    }
    group.finish();
}

fn prefetch_depth(c: &mut Criterion) {
    let ds = dataset();
    let mut group = c.benchmark_group("prefetch_depth");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    for &depth in &[1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &depth| {
            b.iter(|| consume(&ds, base_config(ReaderMode::PerWorker, 2, depth), 12));
        });
    }
    group.finish();
}

fn worker_count(c: &mut Criterion) {
    let ds = dataset();
    let mut group = c.benchmark_group("pipeline_workers");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    for &workers in &[1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &workers| {
            b.iter(|| consume(&ds, base_config(ReaderMode::PerWorker, workers, 4), 12));
        });
    }
    group.finish();
}

criterion_group!(benches, reader_modes, prefetch_depth, worker_count);
criterion_main!(benches);
