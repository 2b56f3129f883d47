//! Sample decoding: stored fields → normalized training tensors plus the
//! CPU-computed per-pixel loss-weight map (§V-B1).
//!
//! Decode output lives in pool-recycled buffers: the input tensor's
//! storage, the label bytes and the weight map are all drawn from
//! `exaclim_tensor::pool` free lists and return there when the consumer
//! drops the sample — the steady-state ingest loop performs zero fresh
//! heap allocations once the pool is warm.

use exaclim_climsim::ClimateDataset;
use exaclim_tensor::pool::{self, PoolBuf};
use exaclim_tensor::{DType, Tensor};

/// Per-channel normalization statistics.
#[derive(Debug, Clone)]
pub struct ChannelStats {
    /// Per-channel means.
    pub mean: Vec<f32>,
    /// Per-channel standard deviations.
    pub std: Vec<f32>,
}

impl ChannelStats {
    /// Estimates statistics from the first `k` samples of a dataset.
    pub fn estimate(dataset: &ClimateDataset, k: usize) -> std::io::Result<ChannelStats> {
        let c = dataset.channels;
        let hw = dataset.h * dataset.w;
        let mut sum = vec![0.0f64; c];
        let mut sumsq = vec![0.0f64; c];
        let k = k.min(dataset.len()).max(1);
        for i in 0..k {
            let s = dataset.sample(i)?;
            for ci in 0..c {
                for &v in &s.fields[ci * hw..(ci + 1) * hw] {
                    sum[ci] += v as f64;
                    sumsq[ci] += (v as f64) * (v as f64);
                }
            }
        }
        let n = (k * hw) as f64;
        let mean: Vec<f32> = sum.iter().map(|&s| (s / n) as f32).collect();
        let std = sumsq
            .iter()
            .zip(mean.iter())
            .map(|(&sq, &m)| (((sq / n) - (m as f64) * (m as f64)).max(1e-12)).sqrt() as f32)
            .collect();
        Ok(ChannelStats { mean, std })
    }

    /// Normalizes one channel value.
    #[inline]
    pub fn normalize(&self, channel: usize, v: f32) -> f32 {
        (v - self.mean[channel]) / self.std[channel]
    }
}

/// A decoded training sample. All payload buffers are pool-backed and
/// recycle on drop.
#[derive(Debug, Clone)]
pub struct DecodedSample {
    /// Global dataset index this sample was read from — the consumed
    /// stream of these indices is what the reproducibility hash covers.
    pub index: usize,
    /// Normalized input fields `[1, C, H, W]`.
    pub input: Tensor,
    /// Per-pixel class labels (row-major, `h·w`).
    pub labels: PoolBuf<u8>,
    /// Per-pixel loss weights.
    pub weights: PoolBuf,
    /// Grid height.
    pub h: usize,
    /// Grid width.
    pub w: usize,
}

/// Decodes raw sample buffers: channel selection, normalization, and the
/// per-pixel weight map. `raw_fields`/`raw_labels` are borrowed (typically
/// a reader's reused scratch buffers); the output owns pooled copies.
#[allow(clippy::too_many_arguments)]
pub fn decode(
    index: usize,
    raw_fields: &[f32],
    raw_labels: &[u8],
    channels: &[usize],
    all_channels: usize,
    h: usize,
    w: usize,
    stats: &ChannelStats,
    class_weights: &[f32],
    dtype: DType,
) -> DecodedSample {
    let hw = h * w;
    assert_eq!(raw_fields.len(), all_channels * hw, "field size mismatch");
    assert_eq!(raw_labels.len(), hw, "label size mismatch");
    let mut data = pool::take_with_capacity(channels.len() * hw);
    for &c in channels {
        for &v in &raw_fields[c * hw..(c + 1) * hw] {
            data.push(stats.normalize(c, v));
        }
    }
    let input = Tensor::from_vec([1, channels.len(), h, w], dtype, data);
    let mut wts = pool::take_with_capacity(hw);
    wts.extend(raw_labels.iter().map(|&l| class_weights[l as usize]));
    DecodedSample {
        index,
        input,
        labels: PoolBuf::copy_of(raw_labels),
        weights: PoolBuf::from_vec(wts),
        h,
        w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaclim_climsim::dataset::DatasetConfig;

    fn tiny() -> ClimateDataset {
        let mut cfg = DatasetConfig::small(30, 4);
        cfg.generator.h = 16;
        cfg.generator.w = 24;
        ClimateDataset::in_memory(&cfg)
    }

    #[test]
    fn stats_normalize_to_zero_mean_unit_std() {
        let ds = tiny();
        let stats = ChannelStats::estimate(&ds, 4).expect("stats");
        let hw = ds.h * ds.w;
        // Channel 0 normalized over the estimation set: near 0-mean.
        let mut acc = 0.0f64;
        for i in 0..4 {
            let s = ds.sample(i).expect("sample");
            for &v in &s.fields[0..hw] {
                acc += stats.normalize(0, v) as f64;
            }
        }
        assert!((acc / (4 * hw) as f64).abs() < 0.05);
    }

    #[test]
    fn decode_selects_channels_and_builds_weights() {
        let ds = tiny();
        let stats = ChannelStats::estimate(&ds, 2).expect("stats");
        let stored = ds.sample(1).expect("sample");
        let dec = decode(
            1,
            &stored.fields,
            &stored.labels,
            &[0, 7],
            16,
            ds.h,
            ds.w,
            &stats,
            &[1.0, 30.0, 8.0],
            DType::F32,
        );
        assert_eq!(dec.index, 1);
        assert_eq!(dec.input.shape().dims(), &[1, 2, 16, 24]);
        assert_eq!(dec.weights.len(), 16 * 24);
        // Weight map mirrors labels.
        for (i, &l) in stored.labels.iter().enumerate() {
            let expect = [1.0, 30.0, 8.0][l as usize];
            assert_eq!(dec.weights[i], expect);
        }
        assert_eq!(dec.labels.as_slice(), &stored.labels[..]);
    }

    #[test]
    fn fp16_decode_quantizes() {
        let ds = tiny();
        let stats = ChannelStats::estimate(&ds, 1).expect("stats");
        let stored = ds.sample(0).expect("sample");
        let dec = decode(
            0,
            &stored.fields,
            &stored.labels,
            &[0],
            16,
            ds.h,
            ds.w,
            &stats,
            &[1.0, 1.0, 1.0],
            DType::F16,
        );
        assert_eq!(dec.input.dtype(), DType::F16);
    }

    #[test]
    fn decode_is_allocation_free_once_pool_is_warm() {
        exaclim_tensor::profile::isolated_test(|| {
            pool::set_enabled(true);
            let ds = tiny();
            let stats = ChannelStats::estimate(&ds, 1).expect("stats");
            let stored = ds.sample(0).expect("sample");
            let run = || {
                decode(
                    0,
                    &stored.fields,
                    &stored.labels,
                    &[0, 1, 2, 7],
                    16,
                    ds.h,
                    ds.w,
                    &stats,
                    &[1.0, 2.0, 3.0],
                    DType::F32,
                )
            };
            drop(run()); // warm the size classes
            let f32_before = pool::stats();
            let byte_before = pool::byte_stats();
            for _ in 0..8 {
                drop(run());
            }
            assert_eq!(pool::stats().since(&f32_before).fresh_allocs, 0, "f32 path allocated");
            assert_eq!(pool::byte_stats().since(&byte_before).fresh_allocs, 0, "label path allocated");
        });
    }
}
