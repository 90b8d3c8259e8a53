//! Floating-point atomics and scatter buffers.
//!
//! Mirrors `Kokkos::atomic_add` on `float`/`double` (implemented, as on most
//! hardware without native FP atomics, by a compare-and-swap loop on the bit
//! pattern) and `Kokkos::Experimental::ScatterView` (a buffer written by
//! many threads with atomic accumulation).
//!
//! Current deposition in the particle push — the paper's contended scatter
//! phase — goes through these types.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// Atomically add `val` to the `f32` stored in `cell` (bitwise CAS loop).
#[inline]
pub fn atomic_add_f32(cell: &AtomicU32, val: f32) -> f32 {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let old = f32::from_bits(cur);
        let new = (old + val).to_bits();
        match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return old,
            Err(actual) => cur = actual,
        }
    }
}

/// Atomically add `val` to the `f64` stored in `cell` (bitwise CAS loop).
#[inline]
pub fn atomic_add_f64(cell: &AtomicU64, val: f64) -> f64 {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let old = f64::from_bits(cur);
        let new = (old + val).to_bits();
        match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return old,
            Err(actual) => cur = actual,
        }
    }
}

/// Atomically record `max(cell, val)` for `usize` counters.
#[inline]
pub fn atomic_max_usize(cell: &AtomicUsize, val: usize) -> usize {
    cell.fetch_max(val, Ordering::Relaxed)
}

/// A shared buffer of `f32` accumulators addressable from many threads.
///
/// Plays the role of a `Kokkos::View<float*>` written with `atomic_add`.
#[derive(Debug, Default)]
pub struct AtomicF32Buf {
    cells: Vec<AtomicU32>,
}

impl AtomicF32Buf {
    /// A zeroed buffer of length `n`.
    pub fn zeros(n: usize) -> Self {
        Self { cells: (0..n).map(|_| AtomicU32::new(0f32.to_bits())).collect() }
    }

    /// Build from existing values.
    pub fn from_slice(vals: &[f32]) -> Self {
        Self { cells: vals.iter().map(|v| AtomicU32::new(v.to_bits())).collect() }
    }

    /// Number of accumulators.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Atomic `buf[i] += val`, returning the previous value.
    #[inline]
    pub fn fetch_add(&self, i: usize, val: f32) -> f32 {
        atomic_add_f32(&self.cells[i], val)
    }

    /// Non-atomic read (only safe to interpret once writers are done).
    #[inline]
    pub fn load(&self, i: usize) -> f32 {
        f32::from_bits(self.cells[i].load(Ordering::Relaxed))
    }

    /// Snapshot into a plain vector.
    pub fn to_vec(&self) -> Vec<f32> {
        self.cells.iter().map(|c| f32::from_bits(c.load(Ordering::Relaxed))).collect()
    }

    /// Reset all accumulators to zero.
    pub fn reset(&self) {
        for c in &self.cells {
            c.store(0f32.to_bits(), Ordering::Relaxed);
        }
    }
}

/// A shared buffer of `f64` accumulators addressable from many threads.
#[derive(Debug, Default)]
pub struct AtomicF64Buf {
    cells: Vec<AtomicU64>,
}

impl AtomicF64Buf {
    /// A zeroed buffer of length `n`.
    pub fn zeros(n: usize) -> Self {
        Self { cells: (0..n).map(|_| AtomicU64::new(0f64.to_bits())).collect() }
    }

    /// Build from existing values.
    pub fn from_slice(vals: &[f64]) -> Self {
        Self { cells: vals.iter().map(|v| AtomicU64::new(v.to_bits())).collect() }
    }

    /// Number of accumulators.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Atomic `buf[i] += val`, returning the previous value.
    #[inline]
    pub fn fetch_add(&self, i: usize, val: f64) -> f64 {
        atomic_add_f64(&self.cells[i], val)
    }

    /// Non-atomic read.
    #[inline]
    pub fn load(&self, i: usize) -> f64 {
        f64::from_bits(self.cells[i].load(Ordering::Relaxed))
    }

    /// Snapshot into a plain vector.
    pub fn to_vec(&self) -> Vec<f64> {
        self.cells.iter().map(|c| f64::from_bits(c.load(Ordering::Relaxed))).collect()
    }

    /// Reset all accumulators to zero.
    pub fn reset(&self) {
        for c in &self.cells {
            c.store(0f64.to_bits(), Ordering::Relaxed);
        }
    }
}

/// Contention strategy for a [`ScatterBuf`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScatterMode {
    /// Every contribution is an atomic read-modify-write on the shared
    /// buffer (Kokkos `ScatterAtomic`; what GPUs do).
    #[default]
    Atomic,
    /// Each worker owns a private replica, combined on `collect`
    /// (Kokkos `ScatterDuplicated`; what low-core-count CPUs prefer).
    Duplicated,
}

/// A scatter-accumulation buffer, mirroring `Kokkos::ScatterView<double*>`.
///
/// With [`ScatterMode::Atomic`] all workers share one atomic buffer; with
/// [`ScatterMode::Duplicated`] each worker id gets a private replica and
/// [`ScatterBuf::collect`] reduces them. The deposition ablation bench
/// compares the two.
#[derive(Debug)]
pub struct ScatterBuf {
    mode: ScatterMode,
    len: usize,
    shared: AtomicF64Buf,
    replicas: Vec<AtomicF64Buf>,
}

impl ScatterBuf {
    /// Create a zeroed scatter buffer of `len` accumulators for up to
    /// `workers` concurrent writers.
    pub fn new(len: usize, workers: usize, mode: ScatterMode) -> Self {
        let replicas = match mode {
            ScatterMode::Atomic => Vec::new(),
            ScatterMode::Duplicated => (0..workers.max(1)).map(|_| AtomicF64Buf::zeros(len)).collect(),
        };
        Self { mode, len, shared: AtomicF64Buf::zeros(len), replicas }
    }

    /// The contention strategy in use.
    pub fn mode(&self) -> ScatterMode {
        self.mode
    }

    /// Number of accumulators.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Accumulate `val` into slot `i` on behalf of `worker`.
    #[inline]
    pub fn add(&self, worker: usize, i: usize, val: f64) {
        match self.mode {
            ScatterMode::Atomic => {
                self.shared.fetch_add(i, val);
            }
            ScatterMode::Duplicated => {
                // replica is still atomic so the same worker id may be used
                // from a work-stealing schedule without UB
                self.replicas[worker % self.replicas.len()].fetch_add(i, val);
            }
        }
    }

    /// Read one accumulator (shared value plus all replica
    /// contributions) without materializing the whole buffer.
    pub fn get(&self, i: usize) -> f64 {
        match self.mode {
            ScatterMode::Atomic => self.shared.load(i),
            ScatterMode::Duplicated => self.replicas.iter().map(|r| r.load(i)).sum(),
        }
    }

    /// Reduce all contributions into a plain vector.
    pub fn collect(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.collect_into(&mut out);
        out
    }

    /// [`ScatterBuf::collect`], but into caller-owned scratch: `out` is
    /// cleared and refilled in place, so a buffer reused across steps
    /// allocates only until its capacity first reaches `len` (the
    /// no-alloc-after-warmup contract the accumulator unload relies on).
    /// Replicas are summed in replica order, identical to `collect`.
    pub fn collect_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.len, 0.0);
        match self.mode {
            ScatterMode::Atomic => {
                for (i, o) in out.iter_mut().enumerate() {
                    *o = self.shared.load(i);
                }
            }
            ScatterMode::Duplicated => {
                for r in &self.replicas {
                    for (i, o) in out.iter_mut().enumerate() {
                        *o += r.load(i);
                    }
                }
            }
        }
    }

    /// Zero every accumulator (shared and replicas).
    pub fn reset(&self) {
        self.shared.reset();
        for r in &self.replicas {
            r.reset();
        }
    }
}

/// Fixed-point quantum for [`FixedScatterBuf`]: values are stored as
/// `round(val × 2⁴⁰)` in an `i64`. Integer (wrapping) addition is exactly
/// associative and commutative, so accumulated totals are bit-identical
/// for *any* ordering or partitioning of the contributions — across
/// worker counts, scatter modes, and (in the cluster layer) rank
/// decompositions. The quantum, 2⁻⁴⁰ ≈ 9.1e-13, sits far below every
/// physics tolerance in the repo, and current-deposition slot totals are
/// bounded well inside ±2²³ so the 63-bit range never saturates.
pub const FIXED_SCATTER_SCALE: f64 = (1u64 << 40) as f64;

/// `1.5 × 2⁵²`: adding it to an `|x| < 2⁵¹` lands in `[2⁵², 2⁵³)`, where
/// the spacing of `f64` is 1, so the sum is `x` rounded to an integer
/// (ties to even) and that integer sits in the low mantissa bits.
const ROUND_BY_ADD_MAGIC: f64 = 1.5 * (1u64 << 52) as f64;

/// Magnitudes below this may have a fractional part and fit the trick.
const ROUND_BY_ADD_LIMIT: f64 = (1u64 << 51) as f64;

/// Round-half-away of `|x| < 2⁵¹` without a float→int conversion. The
/// add rounds ties to even; a tie is recognised by the exact remainder
/// `x − r = ±½` and pushed away from zero where even went towards it.
/// (For `x > 0` the remainder is exact whenever it is near `+½`, for
/// `x < 0` near `−½`; the other sign can round *to* `∓½` and is masked
/// by the sign test.)
#[inline(always)]
fn round_by_add(x: f64) -> i64 {
    let y = x + ROUND_BY_ADD_MAGIC;
    let d = x - (y - ROUND_BY_ADD_MAGIC);
    let even = (y.to_bits() as i64).wrapping_sub(ROUND_BY_ADD_MAGIC.to_bits() as i64);
    even + ((d == 0.5) & (x > 0.0)) as i64 - ((d == -0.5) & (x < 0.0)) as i64
}

/// Round-half-away of any `x`, with `as`'s rules at the edges (NaN → 0,
/// saturation). `x − trunc(x)` is exact for every finite in-range `x`,
/// so the two comparisons see the true fractional part.
#[inline(always)]
fn round_by_trunc(x: f64) -> i64 {
    let t = x as i64;
    let f = x - t as f64;
    t.saturating_add((f >= 0.5) as i64).saturating_sub((f <= -0.5) as i64)
}

/// A scatter-accumulation buffer over fixed-point `i64` accumulators.
///
/// Same shape as [`ScatterBuf`] (shared-atomic or per-worker-duplicated
/// replicas, selected by [`ScatterMode`]) but order-independent: every
/// contribution is quantized to a multiple of `2⁻⁴⁰` and summed with
/// integer adds, so `collect` returns the same bits no matter how the
/// contributions were interleaved or partitioned. Current deposition uses
/// this so multi-rank halo merges can be bit-identical to the single-rank
/// run.
#[derive(Debug)]
pub struct FixedScatterBuf {
    mode: ScatterMode,
    len: usize,
    shared: Vec<std::sync::atomic::AtomicI64>,
    replicas: Vec<Vec<std::sync::atomic::AtomicI64>>,
}

use std::sync::atomic::AtomicI64;

fn zeros_i64(n: usize) -> Vec<AtomicI64> {
    (0..n).map(|_| AtomicI64::new(0)).collect()
}

impl FixedScatterBuf {
    /// Create a zeroed buffer of `len` accumulators for up to `workers`
    /// concurrent writers.
    pub fn new(len: usize, workers: usize, mode: ScatterMode) -> Self {
        let replicas = match mode {
            ScatterMode::Atomic => Vec::new(),
            ScatterMode::Duplicated => (0..workers.max(1)).map(|_| zeros_i64(len)).collect(),
        };
        Self { mode, len, shared: zeros_i64(len), replicas }
    }

    /// The contention strategy in use.
    pub fn mode(&self) -> ScatterMode {
        self.mode
    }

    /// Number of accumulators.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Quantize a contribution to the fixed-point grid: the nearest
    /// multiple of the quantum, halves away from zero — bit-for-bit
    /// `(val * 2⁴⁰).round() as i64` (NaN → 0, out-of-range saturates),
    /// computed inline because `f64::round` is a libm call on the SSE2
    /// baseline. A batch of one through [`FixedScatterBuf::add_quantized`].
    #[inline]
    pub fn quantize(val: f64) -> i64 {
        let mut raw = [0];
        Self::add_quantized(&mut raw, &[val]);
        raw[0]
    }

    /// `sums[s] += quantize(vals[s])` (wrapping) for a whole batch — what
    /// a depositor does with one segment's weights. Deciding once for the
    /// batch which rounding applies leaves a branch-free loop of adds,
    /// compares and integer subtracts that vectorizes on SSE2.
    #[inline]
    pub fn add_quantized<const N: usize>(sums: &mut [i64; N], vals: &[f64; N]) {
        let x = vals.map(|v| v * FIXED_SCATTER_SCALE);
        if x.iter().all(|x| x.abs() < ROUND_BY_ADD_LIMIT) {
            for (sum, &x) in sums.iter_mut().zip(&x) {
                *sum = sum.wrapping_add(round_by_add(x));
            }
        } else {
            for (sum, &x) in sums.iter_mut().zip(&x) {
                *sum = sum.wrapping_add(round_by_trunc(x));
            }
        }
    }

    /// Dequantize an accumulated total back to `f64` (exact: a power-of-
    /// two scale only changes the exponent).
    #[inline]
    pub fn dequantize(raw: i64) -> f64 {
        raw as f64 / FIXED_SCATTER_SCALE
    }

    /// Accumulate `val` into slot `i` on behalf of `worker`.
    #[inline]
    pub fn add(&self, worker: usize, i: usize, val: f64) {
        self.add_raw(worker, i, Self::quantize(val));
    }

    /// Accumulate an already-quantized contribution (used by the halo
    /// merge, which exchanges raw fixed-point values between ranks).
    #[inline]
    pub fn add_raw(&self, worker: usize, i: usize, raw: i64) {
        self.lane(worker)[i].fetch_add(raw, Ordering::Relaxed);
    }

    /// The accumulators `worker` writes: the shared buffer, or its
    /// replica in duplicated mode (ids wrap onto the replicas). A writer
    /// that deposits many values resolves its lane once instead of per
    /// add. The slots are atomic either way, so a lane shared by a
    /// work-stealing schedule stays well-defined.
    #[inline]
    pub fn lane(&self, worker: usize) -> &[AtomicI64] {
        match self.mode {
            ScatterMode::Atomic => &self.shared,
            ScatterMode::Duplicated => &self.replicas[worker % self.replicas.len()],
        }
    }

    /// Read one accumulator's raw fixed-point total (shared value plus
    /// all replica contributions, summed with wrapping adds).
    #[inline]
    pub fn get_raw(&self, i: usize) -> i64 {
        match self.mode {
            ScatterMode::Atomic => self.shared[i].load(Ordering::Relaxed),
            ScatterMode::Duplicated => self
                .replicas
                .iter()
                .fold(0i64, |acc, r| acc.wrapping_add(r[i].load(Ordering::Relaxed))),
        }
    }

    /// Read one accumulator as `f64`.
    pub fn get(&self, i: usize) -> f64 {
        Self::dequantize(self.get_raw(i))
    }

    /// Overwrite slot `i`'s total with `raw` (clears replicas; the value
    /// lands in the shared buffer — or replica 0 in duplicated mode).
    /// Used by the cluster halo fill, which replaces boundary-slot totals
    /// with the owner's merged value.
    pub fn set_raw(&self, i: usize, raw: i64) {
        match self.mode {
            ScatterMode::Atomic => self.shared[i].store(raw, Ordering::Relaxed),
            ScatterMode::Duplicated => {
                self.replicas[0][i].store(raw, Ordering::Relaxed);
                for r in &self.replicas[1..] {
                    r[i].store(0, Ordering::Relaxed);
                }
            }
        }
    }

    /// Reduce all contributions into caller-owned scratch as `f64`
    /// (cleared and refilled in place; no allocation once capacity has
    /// warmed up, matching [`ScatterBuf::collect_into`]).
    pub fn collect_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.len, 0.0);
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.get(i);
        }
    }

    /// Reduce all contributions into a plain vector.
    pub fn collect(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.collect_into(&mut out);
        out
    }

    /// Zero every accumulator (shared and replicas).
    pub fn reset(&self) {
        for c in &self.shared {
            c.store(0, Ordering::Relaxed);
        }
        for r in &self.replicas {
            for c in r {
                c.store(0, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{ExecSpace, Threads};

    #[test]
    fn atomic_add_f32_accumulates() {
        let cell = AtomicU32::new(1.0f32.to_bits());
        let old = atomic_add_f32(&cell, 2.5);
        assert_eq!(old, 1.0);
        assert_eq!(f32::from_bits(cell.load(Ordering::Relaxed)), 3.5);
    }

    #[test]
    fn atomic_add_f64_under_contention_loses_nothing() {
        let buf = AtomicF64Buf::zeros(1);
        let threads = Threads::new(8);
        threads.parallel_for(10_000usize, |_| {
            buf.fetch_add(0, 1.0);
        });
        assert_eq!(buf.load(0), 10_000.0);
    }

    #[test]
    fn f32_buf_roundtrip_and_reset() {
        let buf = AtomicF32Buf::from_slice(&[1.0, 2.0]);
        buf.fetch_add(1, 0.5);
        assert_eq!(buf.to_vec(), vec![1.0, 2.5]);
        buf.reset();
        assert_eq!(buf.to_vec(), vec![0.0, 0.0]);
        assert_eq!(buf.len(), 2);
        assert!(!buf.is_empty());
    }

    #[test]
    fn atomic_max_usize_tracks_max() {
        let c = AtomicUsize::new(3);
        atomic_max_usize(&c, 10);
        atomic_max_usize(&c, 5);
        assert_eq!(c.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn scatter_modes_agree() {
        let workers = 4;
        let threads = Threads::new(workers);
        let n = 64;
        for mode in [ScatterMode::Atomic, ScatterMode::Duplicated] {
            let buf = ScatterBuf::new(n, workers, mode);
            threads.parallel_for(100_000usize, |i| {
                // worker id proxy: contention pattern doesn't affect totals
                buf.add(i % workers, i % n, 1.0);
            });
            let out = buf.collect();
            let total: f64 = out.iter().sum();
            assert_eq!(total, 100_000.0, "mode {mode:?} lost updates");
            // each slot gets ceil/floor of uniform share
            for &v in &out {
                assert!((v - 100_000.0 / n as f64).abs() <= 1.0);
            }
        }
    }

    #[test]
    fn collect_into_matches_collect_and_reuses_capacity() {
        for mode in [ScatterMode::Atomic, ScatterMode::Duplicated] {
            let buf = ScatterBuf::new(16, 3, mode);
            for i in 0..16 {
                buf.add(i % 3, i, i as f64 * 0.5);
                buf.add((i + 1) % 3, i, 1.0);
            }
            let fresh = buf.collect();
            let mut scratch = Vec::new();
            buf.collect_into(&mut scratch);
            assert_eq!(fresh, scratch, "mode {mode:?}");
            // stale contents are overwritten, capacity is reused
            scratch.iter_mut().for_each(|v| *v = f64::NAN);
            let cap = scratch.capacity();
            buf.collect_into(&mut scratch);
            assert_eq!(fresh, scratch);
            assert_eq!(scratch.capacity(), cap, "collect_into reallocated");
        }
    }

    #[test]
    fn fixed_scatter_is_order_independent() {
        // Same multiset of contributions, three different partitionings /
        // orderings / modes — identical bits out.
        let vals: Vec<f64> = (0..257).map(|i| (i as f64 - 128.0) * 1.7e-3).collect();
        let sum_of = |chunks: &[&[f64]], workers: usize, mode: ScatterMode| -> i64 {
            let buf = FixedScatterBuf::new(1, workers, mode);
            for (w, ch) in chunks.iter().enumerate() {
                for &v in *ch {
                    buf.add(w, 0, v);
                }
            }
            buf.get_raw(0)
        };
        let whole = sum_of(&[&vals], 1, ScatterMode::Atomic);
        let (lo, hi) = vals.split_at(100);
        assert_eq!(whole, sum_of(&[hi, lo], 2, ScatterMode::Duplicated));
        let rev: Vec<f64> = vals.iter().rev().copied().collect();
        assert_eq!(whole, sum_of(&[&rev], 3, ScatterMode::Atomic));
    }

    #[test]
    fn fixed_scatter_quantum_is_small_and_exact() {
        let buf = FixedScatterBuf::new(2, 1, ScatterMode::Atomic);
        buf.add(0, 0, 0.125); // exactly representable on the 2^-40 grid
        assert_eq!(buf.get(0), 0.125);
        buf.add(0, 1, 1.0e-3);
        assert!((buf.get(1) - 1.0e-3).abs() < 1.0 / FIXED_SCATTER_SCALE);
        assert_eq!(
            FixedScatterBuf::dequantize(FixedScatterBuf::quantize(0.75)),
            0.75
        );
    }

    #[test]
    fn quantize_matches_round_on_the_adversarial_set() {
        let s = FIXED_SCATTER_SCALE;
        let mut vals = vec![0.0, -0.0, f64::MIN_POSITIVE, 5e-324, -5e-324, f64::NAN];
        vals.extend([f64::INFINITY, f64::NEG_INFINITY, f64::MAX, f64::MIN]);
        // halves (ties), their neighbours one ulp either side, and the
        // magnitudes where the two roundings hand over and where the cast
        // saturates — all as scaled values, so divide the scale back out
        for mag in [0.5, 1.5, 2.5, 1023.5, 4194303.5, 2f64.powi(50) + 0.5, 2f64.powi(51) - 0.5]
            .into_iter()
            .chain([51, 52, 53, 62, 63, 64].map(|e| 2f64.powi(e)))
        {
            for x in [mag.next_down(), mag, mag.next_up()] {
                vals.extend([x / s, -x / s]);
            }
        }
        assert_eq!(0.49999999999999994f64, 0.5f64.next_down());
        for v in vals {
            let want = (v * s).round() as i64;
            assert_eq!(FixedScatterBuf::quantize(v), want, "quantize({v:e})");
            // in a batch: beside a small neighbour (fast path) and beside a
            // huge one that drags the whole batch onto the slow path
            for neighbour in [0.25, 3.0e30] {
                let mut sums = [7i64, 7];
                FixedScatterBuf::add_quantized(&mut sums, &[v, neighbour]);
                assert_eq!(sums[0], 7i64.wrapping_add(want), "{v:e} beside {neighbour:e}");
                assert_eq!(sums[1], 7i64.wrapping_add((neighbour * s).round() as i64));
            }
        }
    }

    #[test]
    fn fixed_scatter_raw_roundtrip_and_set() {
        for mode in [ScatterMode::Atomic, ScatterMode::Duplicated] {
            let buf = FixedScatterBuf::new(4, 3, mode);
            buf.add(0, 2, 1.5);
            buf.add(2, 2, -0.25);
            let raw = buf.get_raw(2);
            assert_eq!(raw, FixedScatterBuf::quantize(1.25));
            buf.set_raw(2, FixedScatterBuf::quantize(9.0));
            assert_eq!(buf.get(2), 9.0, "mode {mode:?}");
            buf.add_raw(1, 2, FixedScatterBuf::quantize(1.0));
            assert_eq!(buf.get(2), 10.0, "mode {mode:?}");
            buf.reset();
            assert!(buf.collect().iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn fixed_scatter_under_contention_loses_nothing() {
        let threads = Threads::new(4);
        let buf = FixedScatterBuf::new(8, 4, ScatterMode::Atomic);
        threads.parallel_for(10_000usize, |i| {
            buf.add(i % 4, i % 8, 0.5);
        });
        let total: f64 = buf.collect().iter().sum();
        assert_eq!(total, 5_000.0);
    }

    #[test]
    fn scatter_reset_clears_all_replicas() {
        let buf = ScatterBuf::new(4, 2, ScatterMode::Duplicated);
        buf.add(0, 1, 3.0);
        buf.add(1, 1, 4.0);
        assert_eq!(buf.collect()[1], 7.0);
        buf.reset();
        assert!(buf.collect().iter().all(|&v| v == 0.0));
    }
}
