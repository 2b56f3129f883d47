//! Buffer-recycling memory pool.
//!
//! §VII-A of the paper names "improve the memory management" as half of
//! its single-node optimization path (the other half — pointwise fusion —
//! landed with [`crate::ops::fused`]). This module supplies that half for
//! the CPU backend: a process-wide, thread-safe pool of `Vec<T>` buffers
//! organized into power-of-two size classes. Dropped tensors return their
//! storage here instead of to the system allocator, so a steady-state
//! training step performs almost no heap allocation.
//!
//! One implementation serves every [`Elem`] type: `f32` (tensor storage,
//! kernel scratch) and `u8` (ingest label masks, raw CDF5 chunk bytes).
//! Each element type has its own free lists and its own counter block, so
//! byte buffers never alias tensor storage and [`stats`] counts f32
//! events only while [`byte_stats`] counts u8 events only.
//!
//! Design rules (see DESIGN.md "Memory management"):
//!
//! * **Determinism** — a buffer leaving the pool is always fully
//!   initialized (zeroed, filled, or copied) before any kernel reads it,
//!   so results are bit-identical with the pool on or off and at any
//!   thread-pool width. The pool trades allocator traffic, never numerics.
//! * **No unsafe** — recycled buffers are `clear()`ed and `resize()`d;
//!   lengths never point at uninitialized memory.
//! * **Bounded retention** — each size class keeps at most
//!   `MAX_PER_CLASS` (32) buffers; excess recycles fall through to the system
//!   allocator's `free`.
//!
//! The pool is enabled by default and gated by the `EXACLIM_POOL`
//! environment variable (`0`/`false`/`off` disable it); benchmarks compare
//! both modes in one process via [`set_enabled`]. The f32 counters —
//! allocations served from the pool vs. fresh, bytes reused, high-water
//! mark — are the allocation-traffic column of the kernel census
//! ([`crate::profile::Profile::alloc`]).

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Maximum buffers retained per size class; beyond this, recycled buffers
/// are freed. 32 buffers × the largest live class bounds idle footprint
/// while covering the deepest concat fan-in the models produce.
const MAX_PER_CLASS: usize = 32;

/// One free list per power-of-two capacity class (`usize` has at most 64
/// bit positions; element counts above 2^48 are unreachable in practice).
const NUM_CLASSES: usize = 48;

/// Pool telemetry counters (monotonic since process start, except
/// `outstanding_bytes` which tracks the current balance).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffer requests satisfied from a free list.
    pub pool_served: u64,
    /// Buffer requests that went to the system allocator.
    pub fresh_allocs: u64,
    /// Bytes handed out from recycled buffers.
    pub bytes_reused: u64,
    /// Bytes handed out as fresh heap allocations.
    pub bytes_fresh: u64,
    /// Buffers returned to a free list.
    pub recycled: u64,
    /// Returned buffers freed instead of retained (class full or pool off).
    pub dropped: u64,
    /// Bytes currently checked out of the pool.
    pub outstanding_bytes: u64,
    /// Maximum simultaneous checked-out bytes observed.
    pub high_water_bytes: u64,
}

impl PoolStats {
    /// Total buffer requests (served + fresh).
    pub fn total_requests(&self) -> u64 {
        self.pool_served + self.fresh_allocs
    }

    /// Counter delta since an earlier snapshot (`high_water_bytes` and
    /// `outstanding_bytes` report the later absolute values).
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            pool_served: self.pool_served.saturating_sub(earlier.pool_served),
            fresh_allocs: self.fresh_allocs.saturating_sub(earlier.fresh_allocs),
            bytes_reused: self.bytes_reused.saturating_sub(earlier.bytes_reused),
            bytes_fresh: self.bytes_fresh.saturating_sub(earlier.bytes_fresh),
            recycled: self.recycled.saturating_sub(earlier.recycled),
            dropped: self.dropped.saturating_sub(earlier.dropped),
            outstanding_bytes: self.outstanding_bytes,
            high_water_bytes: self.high_water_bytes,
        }
    }
}

/// One element type's share of the pool: its size-class free lists and
/// its counter block. Counters use relaxed atomics — they are statistics,
/// not synchronization; the free lists are guarded by their mutexes.
pub struct Pool<T> {
    classes: [Mutex<Vec<Vec<T>>>; NUM_CLASSES],
    pool_served: AtomicU64,
    fresh_allocs: AtomicU64,
    bytes_reused: AtomicU64,
    bytes_fresh: AtomicU64,
    recycled: AtomicU64,
    dropped: AtomicU64,
    outstanding_bytes: AtomicU64,
    high_water_bytes: AtomicU64,
}

impl<T> Pool<T> {
    const fn new() -> Pool<T> {
        Pool {
            classes: [const { Mutex::new(Vec::new()) }; NUM_CLASSES],
            pool_served: AtomicU64::new(0),
            fresh_allocs: AtomicU64::new(0),
            bytes_reused: AtomicU64::new(0),
            bytes_fresh: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            outstanding_bytes: AtomicU64::new(0),
            high_water_bytes: AtomicU64::new(0),
        }
    }

    fn stats(&self) -> PoolStats {
        PoolStats {
            pool_served: self.pool_served.load(Ordering::Relaxed),
            fresh_allocs: self.fresh_allocs.load(Ordering::Relaxed),
            bytes_reused: self.bytes_reused.load(Ordering::Relaxed),
            bytes_fresh: self.bytes_fresh.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            outstanding_bytes: self.outstanding_bytes.load(Ordering::Relaxed),
            high_water_bytes: self.high_water_bytes.load(Ordering::Relaxed),
        }
    }

    fn trim(&self) {
        for class in &self.classes {
            class.lock().clear();
        }
    }
}

/// An element type the pool recycles buffers of. Each implementor owns a
/// static [`Pool`]: its own free lists and counters.
pub trait Elem: Copy + Default + PartialEq + std::fmt::Debug + Send + 'static {
    /// This element type's free lists and counters.
    fn pool() -> &'static Pool<Self>;
}

impl Elem for f32 {
    fn pool() -> &'static Pool<f32> {
        static POOL: Pool<f32> = Pool::new();
        &POOL
    }
}

impl Elem for u8 {
    fn pool() -> &'static Pool<u8> {
        static POOL: Pool<u8> = Pool::new();
        &POOL
    }
}

/// Snapshot of the f32 pool counters.
pub fn stats() -> PoolStats {
    f32::pool().stats()
}

/// Snapshot of the byte (u8) pool counters — the ingest side of the
/// allocation story.
pub fn byte_stats() -> PoolStats {
    u8::pool().stats()
}

// --- enable gate ------------------------------------------------------------

fn env_default() -> bool {
    static DEFAULT: OnceLock<bool> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        match std::env::var("EXACLIM_POOL") {
            Ok(v) => !matches!(v.trim().to_ascii_lowercase().as_str(), "0" | "false" | "off"),
            Err(_) => true,
        }
    })
}

static OVERRIDE_SET: AtomicBool = AtomicBool::new(false);
static OVERRIDE_VAL: AtomicBool = AtomicBool::new(true);

/// True if buffer recycling is active (`EXACLIM_POOL` env gate, unless
/// overridden by [`set_enabled`]). When off, every request is a fresh heap
/// allocation and every recycle is a free — numerics are unaffected.
#[inline]
pub fn enabled() -> bool {
    if OVERRIDE_SET.load(Ordering::Relaxed) {
        OVERRIDE_VAL.load(Ordering::Relaxed)
    } else {
        env_default()
    }
}

/// Overrides the `EXACLIM_POOL` gate in-process (for benchmarks and tests
/// that compare pooled vs. unpooled behaviour in one run).
pub fn set_enabled(on: bool) {
    OVERRIDE_VAL.store(on, Ordering::Relaxed);
    OVERRIDE_SET.store(true, Ordering::Relaxed);
    if !on {
        trim();
    }
}

/// Frees every retained buffer of every element type (the counters are
/// preserved).
pub fn trim() {
    f32::pool().trim();
    u8::pool().trim();
}

// --- size classes -----------------------------------------------------------

/// Class a request of `n` elements draws from: the smallest power of two
/// ≥ `n`, so any buffer in the class has sufficient capacity.
#[inline]
fn class_for_request(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// Class a buffer of capacity `cap` is filed under: the largest power of
/// two ≤ `cap`, so every resident satisfies the class's request bound.
#[inline]
fn class_for_buffer(cap: usize) -> usize {
    (usize::BITS - 1 - cap.leading_zeros()) as usize
}

/// Fresh empty buffer whose capacity is rounded up to the request
/// class's power of two, so that when it is later recycled it files into
/// exactly the class requests of this size draw from. Without the
/// round-up, a 1700-element fresh buffer (capacity 1700, class 10) could
/// never serve another 1700-element request (class 11) and the pool would
/// miss on that shape forever.
fn fresh_with_class_capacity<T>(n: usize) -> Vec<T> {
    let class = class_for_request(n);
    let cap = if class < usize::BITS as usize { (1usize << class).max(n) } else { n };
    Vec::with_capacity(cap)
}

// --- public take/recycle API ------------------------------------------------

/// An empty buffer with capacity for at least `n` elements (recycled if
/// possible), for `extend`-style fills. Every other `take_*` draws here.
pub fn take_with_capacity<T: Elem>(n: usize) -> Vec<T> {
    if n == 0 {
        return Vec::new();
    }
    let pool = T::pool();
    let bytes = (n * std::mem::size_of::<T>()) as u64;
    let out = pool.outstanding_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
    pool.high_water_bytes.fetch_max(out, Ordering::Relaxed);
    let class = class_for_request(n);
    let hit = if enabled() && class < NUM_CLASSES { pool.classes[class].lock().pop() } else { None };
    match hit {
        Some(mut v) => {
            pool.pool_served.fetch_add(1, Ordering::Relaxed);
            pool.bytes_reused.fetch_add(bytes, Ordering::Relaxed);
            v.clear();
            v
        }
        None => {
            pool.fresh_allocs.fetch_add(1, Ordering::Relaxed);
            pool.bytes_fresh.fetch_add(bytes, Ordering::Relaxed);
            fresh_with_class_capacity(n)
        }
    }
}

/// A buffer of `n` copies of `fill` (recycled if possible).
pub fn take_filled<T: Elem>(n: usize, fill: T) -> Vec<T> {
    let mut v = take_with_capacity(n);
    v.resize(n, fill);
    v
}

/// A buffer of `n` zeros (recycled if possible).
pub fn take_zeroed<T: Elem>(n: usize) -> Vec<T> {
    take_filled(n, T::default())
}

/// A buffer holding a copy of `src` (recycled if possible).
pub fn take_copy<T: Elem>(src: &[T]) -> Vec<T> {
    let mut v = take_with_capacity(src.len());
    v.extend_from_slice(src);
    v
}

/// Returns a buffer to its size-class free list (or frees it if the class
/// is full, the buffer is trivial, or the pool is disabled).
pub fn recycle<T: Elem>(mut v: Vec<T>) {
    let cap = v.capacity();
    if cap == 0 {
        return;
    }
    let pool = T::pool();
    let bytes = (v.len() * std::mem::size_of::<T>()) as u64;
    let _ = pool.outstanding_bytes.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
        Some(cur.saturating_sub(bytes))
    });
    let class = class_for_buffer(cap);
    if enabled() && class < NUM_CLASSES {
        let mut list = pool.classes[class].lock();
        if list.len() < MAX_PER_CLASS {
            v.clear();
            list.push(v);
            drop(list);
            pool.recycled.fetch_add(1, Ordering::Relaxed);
            return;
        }
    }
    pool.dropped.fetch_add(1, Ordering::Relaxed);
}

// --- pooled storage ---------------------------------------------------------

/// A pooled buffer that returns itself to the pool on drop.
/// [`crate::Tensor`] holds its data as `Arc<PoolBuf>`, so tensor clones
/// are copy-on-write buffer shares — activation caches alias live
/// activations at zero cost — and the last owner recycles the storage.
/// Decoded samples hold their label masks as `PoolBuf<u8>`.
pub struct PoolBuf<T: Elem = f32> {
    data: Vec<T>,
}

impl<T: Elem> PoolBuf<T> {
    /// Adopts an existing buffer (it will be recycled on drop).
    #[inline]
    pub fn from_vec(data: Vec<T>) -> PoolBuf<T> {
        PoolBuf { data }
    }

    /// A pooled copy of `src`.
    #[inline]
    pub fn copy_of(src: &[T]) -> PoolBuf<T> {
        PoolBuf { data: take_copy(src) }
    }

    /// Read-only view.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view (tensor storage reaches this through `Arc::make_mut`,
    /// which copies first if the buffer is shared).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the wrapper, returning the raw buffer without recycling it
    /// (the subsequent `Drop` sees an empty vec and does nothing).
    #[inline]
    pub fn take_data(mut self) -> Vec<T> {
        std::mem::take(&mut self.data)
    }
}

impl<T: Elem> Drop for PoolBuf<T> {
    fn drop(&mut self) {
        recycle(std::mem::take(&mut self.data));
    }
}

impl<T: Elem> Clone for PoolBuf<T> {
    /// Copy-on-write backing: cloning draws a pooled copy of the contents.
    fn clone(&self) -> PoolBuf<T> {
        PoolBuf::copy_of(&self.data)
    }
}

impl<T: Elem> std::ops::Deref for PoolBuf<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<T: Elem> PartialEq for PoolBuf<T> {
    fn eq(&self, other: &PoolBuf<T>) -> bool {
        self.data == other.data
    }
}

impl<T: Elem> std::fmt::Debug for PoolBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.data.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The pool, its enable switch and its counters are process-global:
    // each test that reads or toggles them runs in a process of its own.

    #[test]
    fn round_trip_reuses_buffer() {
        crate::profile::isolated_test(|| {
            set_enabled(true);
            trim();
            let v = take_zeroed::<f32>(1024);
            let cap = v.capacity();
            recycle(v);
            let before = stats();
            let w = take_zeroed::<f32>(900); // same class (1024): must reuse
            assert_eq!(w.len(), 900);
            assert_eq!(w.capacity(), cap);
            let after = stats();
            assert_eq!(after.pool_served - before.pool_served, 1);
            assert_eq!(after.fresh_allocs, before.fresh_allocs);
            recycle(w);
        });
    }

    #[test]
    fn pooled_buffers_are_fully_initialized() {
        crate::profile::isolated_test(|| {
            set_enabled(true);
            trim();
            let mut v = take_filled(64, 7.0f32);
            v.iter_mut().for_each(|x| *x = f32::NAN);
            recycle(v);
            let w = take_filled(64, 3.0f32);
            assert!(w.iter().all(|&x| x == 3.0), "recycled garbage must never leak");
            let z = {
                recycle(w);
                take_zeroed::<f32>(64)
            };
            assert!(z.iter().all(|&x| x == 0.0));
            recycle(z);
        });
    }

    #[test]
    fn class_math_guarantees_capacity() {
        for n in [1usize, 2, 3, 7, 8, 9, 1023, 1024, 1025] {
            let req = class_for_request(n);
            assert!(1usize << req >= n, "class {req} too small for {n}");
        }
        assert_eq!(class_for_buffer(1024), 10);
        assert_eq!(class_for_buffer(1025), 10);
        assert_eq!(class_for_buffer(2047), 10);
        assert_eq!(class_for_buffer(2048), 11);
        // A buffer filed under class_for_buffer(cap) always satisfies any
        // request routed to that class.
        for cap in [8usize, 12, 1024, 3000] {
            let fclass = class_for_buffer(cap);
            assert!(cap >= 1 << fclass);
        }
    }

    #[test]
    fn disabled_pool_always_allocates_fresh() {
        crate::profile::isolated_test(|| {
            set_enabled(false);
            let v = take_zeroed::<f32>(512);
            recycle(v);
            let before = stats();
            let w = take_zeroed::<f32>(512);
            let after = stats();
            assert_eq!(after.fresh_allocs - before.fresh_allocs, 1);
            assert_eq!(after.pool_served, before.pool_served);
            recycle(w);
            set_enabled(true);
        });
    }

    #[test]
    fn high_water_tracks_outstanding() {
        crate::profile::isolated_test(|| {
            set_enabled(true);
            trim();
            let before = stats();
            let a = take_zeroed::<f32>(1 << 16);
            let b = take_zeroed::<f32>(1 << 16);
            let mid = stats();
            assert!(mid.high_water_bytes >= before.outstanding_bytes + (2 << 16) * 4);
            recycle(a);
            recycle(b);
            let after = stats();
            assert!(after.outstanding_bytes <= mid.outstanding_bytes);
        });
    }

    #[test]
    fn retention_is_bounded() {
        crate::profile::isolated_test(|| {
            set_enabled(true);
            trim();
            let bufs: Vec<Vec<f32>> = (0..MAX_PER_CLASS + 5).map(|_| vec![0.0f32; 256]).collect();
            let before = stats();
            for b in bufs {
                recycle(b);
            }
            let after = stats();
            assert_eq!(after.recycled - before.recycled, MAX_PER_CLASS as u64);
            assert_eq!(after.dropped - before.dropped, 5);
            trim();
        });
    }

    #[test]
    fn poolbuf_drop_recycles_and_clone_copies() {
        crate::profile::isolated_test(|| {
            set_enabled(true);
            trim();
            let buf = PoolBuf::from_vec(take_copy(&[1.0f32, 2.0, 3.0]));
            let copy = buf.clone();
            assert_eq!(buf, copy);
            let before = stats();
            drop(buf);
            let after = stats();
            assert_eq!(after.recycled - before.recycled, 1);
            assert_eq!(copy.as_slice(), &[1.0, 2.0, 3.0]);
        });
    }

    #[test]
    fn byte_pool_round_trip_reuses_buffer() {
        crate::profile::isolated_test(|| {
            set_enabled(true);
            trim();
            let v = take_zeroed::<u8>(512);
            assert!(v.iter().all(|&b| b == 0));
            let cap = v.capacity();
            recycle(v);
            let before = byte_stats();
            let f32_before = stats();
            let w = take_copy(&[7u8; 400]); // same class (512): must reuse
            assert_eq!(w.len(), 400);
            assert_eq!(w.capacity(), cap);
            let after = byte_stats();
            assert_eq!(after.pool_served - before.pool_served, 1);
            assert_eq!(after.fresh_allocs, before.fresh_allocs);
            assert_eq!(after.bytes_reused - before.bytes_reused, 400);
            assert_eq!(stats(), f32_before, "byte traffic stays out of the f32 counters");
            recycle(w);
        });
    }

    #[test]
    fn pooled_bytes_drop_recycles() {
        crate::profile::isolated_test(|| {
            set_enabled(true);
            trim();
            let b = PoolBuf::copy_of(&[1u8, 2, 3]);
            let c = b.clone();
            assert_eq!(b, c);
            assert_eq!(b.as_slice(), &[1u8, 2, 3]);
            let before = byte_stats();
            drop(b);
            let after = byte_stats();
            assert_eq!(after.recycled - before.recycled, 1);
            assert_eq!(c.as_slice(), &[1, 2, 3]);
        });
    }

    #[test]
    fn disabled_pool_drops_byte_buffers() {
        crate::profile::isolated_test(|| {
            set_enabled(false);
            let v = take_zeroed::<u8>(64);
            let before = byte_stats();
            recycle(v);
            let w = take_zeroed::<u8>(64);
            let after = byte_stats();
            assert_eq!(after.dropped - before.dropped, 1);
            assert_eq!(after.fresh_allocs - before.fresh_allocs, 1);
            recycle(w);
            set_enabled(true);
        });
    }
}
