//! Floating-point atomics and scatter buffers.
//!
//! Mirrors `Kokkos::atomic_add` on `double` (implemented, as on most
//! hardware without native FP atomics, by a compare-and-swap loop on the bit
//! pattern) and `Kokkos::Experimental::ScatterView` (a buffer written by
//! many threads, accumulating atomically where writers share memory and
//! without atomics where a writer has its own copy).
//!
//! Current deposition in the particle push — the paper's contended scatter
//! phase — goes through [`FixedScatterBuf`]: a writer takes a [`Claim`] on
//! its lane, *sole* or *shared*, and only shared lanes pay for atomic
//! read-modify-writes.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A shared buffer of `f64` accumulators addressable from many threads —
/// a `Kokkos::View<double*>` written with `atomic_add`.
#[derive(Debug, Default)]
pub struct AtomicF64Buf {
    cells: Vec<AtomicU64>,
}

impl AtomicF64Buf {
    /// A zeroed buffer of length `n`.
    pub fn zeros(n: usize) -> Self {
        Self { cells: (0..n).map(|_| AtomicU64::new(0f64.to_bits())).collect() }
    }

    /// Atomic `buf[i] += val` (a compare-and-swap loop on the bit
    /// pattern), returning the previous value.
    #[inline]
    pub fn fetch_add(&self, i: usize, val: f64) -> f64 {
        let cell = &self.cells[i];
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

    /// Snapshot into a plain vector.
    pub fn to_vec(&self) -> Vec<f64> {
        self.cells.iter().map(|c| f64::from_bits(c.load(Ordering::Relaxed))).collect()
    }
}

/// Contention strategy for a [`FixedScatterBuf`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScatterMode {
    /// Every contribution is an atomic read-modify-write on the shared
    /// buffer (Kokkos `ScatterAtomic`; what GPUs do).
    #[default]
    Atomic,
    /// Each worker owns a private replica, the replicas added when the
    /// buffer is read (Kokkos `ScatterDuplicated`; what low-core-count
    /// CPUs prefer).
    Duplicated,
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

/// `sums[s] += round_by_trunc(x[s])`: the rare block of weights that
/// [`round_by_add`] cannot take, out of the deposit's way.
#[cold]
#[inline(never)]
fn add_rounded_by_trunc(sums: &mut [i64], x: &[f64]) {
    for (sum, &x) in sums.iter_mut().zip(x) {
        *sum = sum.wrapping_add(round_by_trunc(x));
    }
}

/// How a writer holds a lane of a [`FixedScatterBuf`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// The only writer: excludes every other claim on the lane, so adds
    /// are plain load–add–store (Kokkos `ScatterNonAtomic` into a
    /// duplicate, what `ScatterView` does on CPUs).
    Sole,
    /// One of several writers: excludes sole claims only, and adds are
    /// atomic read-modify-writes (Kokkos `ScatterAtomic`).
    Shared,
}

/// One writer's accumulators and the lock that arbitrates claims on them.
#[derive(Debug)]
struct Lane {
    slots: Vec<AtomicI64>,
    lock: RwLock<()>,
}

impl Lane {
    fn zeros(len: usize) -> Self {
        Self { slots: (0..len).map(|_| AtomicI64::new(0)).collect(), lock: RwLock::new(()) }
    }

    /// Wait for `claim` on this lane. The lock guards no data of its own,
    /// so one poisoned by a writer that panicked is taken all the same.
    fn claim(&self, claim: Claim) -> LaneWriter<'_> {
        let hold = match claim {
            Claim::Sole => {
                Hold::Sole { _guard: self.lock.write().unwrap_or_else(PoisonError::into_inner) }
            }
            Claim::Shared => {
                Hold::Shared { _guard: self.lock.read().unwrap_or_else(PoisonError::into_inner) }
            }
        };
        LaneWriter { slots: &self.slots, hold }
    }
}

/// The guard behind a [`Claim`], held (never read) until the writer is
/// dropped: the lane's write lock or a read lock.
#[derive(Debug)]
enum Hold<'a> {
    Sole { _guard: RwLockWriteGuard<'a, ()> },
    Shared { _guard: RwLockReadGuard<'a, ()> },
}

/// A lane of a [`FixedScatterBuf`] held under a [`Claim`] — the only way
/// to write its slots. The claim is released when the writer is dropped.
///
/// The lock is not re-entrant: a thread that holds a writer must not ask
/// the same buffer for a claim that conflicts with it (a sole claim on
/// the same lane, [`FixedScatterBuf::set_raw_run`] or
/// [`FixedScatterBuf::reset`]), or it waits for itself.
#[derive(Debug)]
pub struct LaneWriter<'a> {
    slots: &'a [AtomicI64],
    hold: Hold<'a>,
}

impl LaneWriter<'_> {
    /// Number of accumulators in the lane.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the lane has no accumulators.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// `slot[base + s] += raws[s]` (wrapping) for a run of adjacent
    /// slots. Under a sole claim nothing else writes the lane, so the add
    /// is a plain load and store with no `lock` prefix; under a shared
    /// claim each nonzero contribution is one atomic `fetch_add`.
    #[inline]
    pub fn add_raw_run(&self, base: usize, raws: &[i64]) {
        let slots = &self.slots[base..base + raws.len()];
        match self.hold {
            Hold::Sole { .. } => {
                for (slot, &raw) in slots.iter().zip(raws) {
                    slot.store(slot.load(Ordering::Relaxed).wrapping_add(raw), Ordering::Relaxed);
                }
            }
            Hold::Shared { .. } => {
                for (slot, &raw) in slots.iter().zip(raws) {
                    if raw != 0 {
                        slot.fetch_add(raw, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    /// Hint the cache ([`crate::prefetch`]) that the run of `len` slots
    /// from `base` will be added to soon: its first and last slot, which
    /// is every line of a run up to 9 slots long wherever it starts. A run
    /// that is not inside the lane is ignored — the
    /// [`LaneWriter::add_raw_run`] that names it is what panics.
    #[inline]
    pub fn prefetch(&self, base: usize, len: usize) {
        let Some(run) = base.checked_add(len).and_then(|end| self.slots.get(base..end)) else {
            return;
        };
        for slot in [run.first(), run.last()].into_iter().flatten() {
            crate::prefetch(slot);
        }
    }
}

/// One lane of a [`FixedScatterBuf`], read in place by a reader of
/// finished deposits. An accumulator's total is the wrapping sum of
/// [`LaneTotals::raw`] over [`FixedScatterBuf::lane_totals`]; a reader
/// that counts the lanes once, outside its loop, pays nothing for the
/// replicas a buffer does not have.
#[derive(Debug, Clone, Copy)]
pub struct LaneTotals<'a>(&'a [AtomicI64]);

impl LaneTotals<'_> {
    /// This lane's raw fixed-point contribution to accumulator `i`.
    #[inline(always)]
    pub fn raw(&self, i: usize) -> i64 {
        self.0[i].load(Ordering::Relaxed)
    }

    /// This lane's contribution to accumulator `i`, leaving it zero: what
    /// a reader that consumes the totals does with the replicas
    /// [`FixedScatterBuf::lanes_mut`] hands it.
    #[inline(always)]
    pub fn take(&self, i: usize) -> i64 {
        let raw = self.raw(i);
        self.0[i].store(0, Ordering::Relaxed);
        raw
    }
}

/// A scatter-accumulation buffer over fixed-point `i64` accumulators.
///
/// One shared lane, or one replica lane per worker, selected by
/// [`ScatterMode`], and order-independent either way: every contribution
/// is quantized to a multiple of `2⁻⁴⁰` and summed with integer adds, so
/// the totals are the same bits no matter how the contributions were
/// interleaved or partitioned. Current deposition uses
/// this so multi-rank halo merges can be bit-identical to the single-rank
/// run.
///
/// Like `Kokkos::ScatterView`, a lane is written atomically only where it
/// has to be. A writer reaches a lane's slots through a [`Claim`]
/// ([`FixedScatterBuf::claim`]): *sole* writers add without atomics,
/// *shared* writers with `fetch_add`, and one `RwLock` per lane makes the
/// two kinds wait for each other instead of losing an add. Reads
/// (`get_raw`, `lane_totals`) take no claim; they are exact once the
/// writers are done.
///
/// A buffer knows whether it may hold a nonzero slot: every claim and
/// [`FixedScatterBuf::set_raw_run`] mark it dirty, and
/// [`FixedScatterBuf::reset`] of a clean buffer returns at once. A reader
/// that zeroes every slot as it takes it ([`FixedScatterBuf::lanes_mut`])
/// then [`FixedScatterBuf::mark_clean`]s the buffer, so the reset before
/// the next deposits sweeps nothing.
#[derive(Debug)]
pub struct FixedScatterBuf {
    mode: ScatterMode,
    /// The shared lane alone ([`ScatterMode::Atomic`]), or the replicas.
    lanes: Vec<Lane>,
    /// Whether a slot may be nonzero: set by every claim, cleared by a
    /// `reset` and by `mark_clean`. Relaxed is enough: it publishes no
    /// slot (those are reached under the lane locks), and a `reset` that a
    /// writer happens before sees that writer's store by coherence; one
    /// that races with a writer is a caller's race no ordering would fix.
    dirty: AtomicBool,
}

impl FixedScatterBuf {
    /// Create a zeroed buffer of `len` accumulators for up to `workers`
    /// concurrent writers.
    pub fn new(len: usize, workers: usize, mode: ScatterMode) -> Self {
        let lanes = match mode {
            ScatterMode::Atomic => 1,
            ScatterMode::Duplicated => workers.max(1),
        };
        Self { mode, lanes: (0..lanes).map(|_| Lane::zeros(len)).collect(), dirty: AtomicBool::new(false) }
    }

    /// The contention strategy in use.
    pub fn mode(&self) -> ScatterMode {
        self.mode
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
    /// a depositor does with one segment's weights. Four at a time (one
    /// AVX register of `f64`s), each block decides which rounding applies:
    /// a block that fits the add trick is a branch-free run of adds,
    /// compares and integer subtracts, and one that does not (a huge or
    /// NaN weight) takes the cold truncating path. Inlined always and free
    /// of closures, so that it compiles into whatever vector body deposits
    /// with it (the push's AVX2 one).
    #[inline(always)]
    pub fn add_quantized<const N: usize>(sums: &mut [i64; N], vals: &[f64; N]) {
        for (sums, vals) in sums.chunks_mut(4).zip(vals.chunks(4)) {
            let mut x = [0.0f64; 4];
            let x = &mut x[..vals.len()];
            let mut small = true;
            for (x, &v) in x.iter_mut().zip(vals) {
                *x = v * FIXED_SCATTER_SCALE;
                small &= x.abs() < ROUND_BY_ADD_LIMIT;
            }
            if small {
                for (sum, &x) in sums.iter_mut().zip(&*x) {
                    *sum = sum.wrapping_add(round_by_add(x));
                }
            } else {
                add_rounded_by_trunc(sums, x);
            }
        }
    }

    /// Dequantize an accumulated total back to `f64` (exact: a power-of-
    /// two scale only changes the exponent).
    #[inline]
    pub fn dequantize(raw: i64) -> f64 {
        raw as f64 / FIXED_SCATTER_SCALE
    }

    /// Wait for `claim` on the lane `worker` writes — the shared lane, or
    /// its replica in duplicated mode (ids wrap onto the replicas) — and
    /// hold it for the returned writer's lifetime. A sole claim waits for
    /// every other writer of that lane to finish, a shared claim for a
    /// sole one; so two writers that both believe they are alone, or more
    /// blocks than replicas, take turns. Marks the buffer dirty once the
    /// claim is held, so a `reset` that swept the lane before it still
    /// leaves the buffer dirty.
    #[inline]
    pub fn claim(&self, worker: usize, claim: Claim) -> LaneWriter<'_> {
        let writer = self.lanes[worker % self.lanes.len()].claim(claim);
        // a load first: claims on a dirty buffer leave its line shared
        if !self.dirty.load(Ordering::Relaxed) {
            self.dirty.store(true, Ordering::Relaxed);
        }
        writer
    }

    /// Whether a slot may be nonzero, i.e. whether [`FixedScatterBuf::reset`]
    /// would sweep.
    pub fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Relaxed)
    }

    /// Every lane, read-only and in replica order (never empty): the
    /// shared lane alone, or one per replica.
    #[inline]
    pub fn lane_totals(&self) -> impl ExactSizeIterator<Item = LaneTotals<'_>> + Clone {
        self.lanes.iter().map(|lane| LaneTotals(&lane.slots))
    }

    /// Read one accumulator's raw fixed-point total (every lane's
    /// contribution, summed with wrapping adds).
    #[inline]
    pub fn get_raw(&self, i: usize) -> i64 {
        self.lane_totals().fold(0i64, |acc, lane| acc.wrapping_add(lane.raw(i)))
    }

    /// Every lane, for a reader that consumes the totals: the first lane's
    /// slots to read and zero in place (`AtomicI64::get_mut`, plain
    /// accesses: `&mut self` keeps every writer out), and the replicas
    /// after it, in replica order, to [`LaneTotals::take`] from.
    pub fn lanes_mut(
        &mut self,
    ) -> (&mut [AtomicI64], impl ExactSizeIterator<Item = LaneTotals<'_>> + Clone + Sync) {
        let (first, replicas) = self.lanes.split_first_mut().expect("a buffer has at least one lane");
        (&mut first.slots, replicas.iter().map(|lane| LaneTotals(&lane.slots)))
    }

    /// Every accumulator's raw total in slot order, the first lane's slots
    /// walked once and the other replicas' added to them.
    #[cfg(test)]
    fn raw_totals(&self) -> impl Iterator<Item = i64> + '_ {
        let (first, replicas) = self.lanes.split_first().expect("a buffer has at least one lane");
        first.slots.iter().enumerate().map(move |(i, slot)| {
            let first = slot.load(Ordering::Relaxed);
            replicas.iter().fold(first, |acc, l| acc.wrapping_add(l.slots[i].load(Ordering::Relaxed)))
        })
    }

    /// Read one accumulator as `f64`.
    #[cfg(test)]
    fn get(&self, i: usize) -> f64 {
        Self::dequantize(self.get_raw(i))
    }

    /// Overwrite the totals of the slots from `base` with `raws` (the
    /// values land in the first lane, the other replicas' slots are
    /// zeroed), each lane under a sole claim. Used by the cluster halo
    /// fill, which replaces boundary-slot totals with the owner's merged
    /// values.
    pub fn set_raw_run(&self, base: usize, raws: &[i64]) {
        for l in 0..self.lanes.len() {
            let writer = self.claim(l, Claim::Sole);
            for (slot, &raw) in writer.slots[base..base + raws.len()].iter().zip(raws) {
                slot.store(if l == 0 { raw } else { 0 }, Ordering::Relaxed);
            }
        }
    }

    /// Reduce all contributions into a plain vector.
    #[cfg(test)]
    fn collect(&self) -> Vec<f64> {
        self.raw_totals().map(Self::dequantize).collect()
    }

    /// Zero every accumulator, each lane under a sole claim; a clean
    /// buffer (nothing claimed since it was last known zero) returns at
    /// once. The flag is cleared before the sweep, so a claim that lands
    /// behind the sweep leaves the buffer dirty.
    pub fn reset(&self) {
        if !self.dirty.swap(false, Ordering::Relaxed) {
            return;
        }
        for lane in &self.lanes {
            let writer = lane.claim(Claim::Sole);
            for c in writer.slots {
                c.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Record that every accumulator is zero, so the next `reset` returns
    /// at once: what a reader calls once it has taken every slot through
    /// [`FixedScatterBuf::lanes_mut`]. Only then, so a reader that panicked
    /// part way leaves the buffer dirty and the next `reset` sweeps it.
    /// Debug builds check the claim.
    pub fn mark_clean(&mut self) {
        debug_assert!(
            self.lanes.iter().all(|l| l.slots.iter().all(|s| s.load(Ordering::Relaxed) == 0)),
            "a buffer marked clean holds a nonzero slot"
        );
        *self.dirty.get_mut() = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{ExecSpace, Threads};

    /// One contribution under a shared claim taken for this one add.
    fn add(buf: &FixedScatterBuf, worker: usize, i: usize, val: f64) {
        buf.claim(worker, Claim::Shared).add_raw_run(i, &[FixedScatterBuf::quantize(val)]);
    }

    #[test]
    fn atomic_add_f64_under_contention_loses_nothing() {
        let buf = AtomicF64Buf::zeros(1);
        let threads = Threads::new(8);
        threads.parallel_for(10_000usize, |_| {
            buf.fetch_add(0, 1.0);
        });
        assert_eq!(buf.to_vec(), [10_000.0]);
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
                    add(&buf, w, 0, v);
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
        add(&buf, 0, 0, 0.125); // exactly representable on the 2^-40 grid
        assert_eq!(buf.get(0), 0.125);
        add(&buf, 0, 1, 1.0e-3);
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
            // in a deposit's batch of twelve, slot 5: beside small
            // neighbours (fast path), and with a huge one in its own block
            // of four or the next, which drags that block onto the slow path
            for huge_at in [None, Some(4), Some(9)] {
                let mut batch = [0.25; 12];
                batch[5] = v;
                if let Some(h) = huge_at {
                    batch[h] = 3.0e30;
                }
                let mut sums = [7i64; 12];
                FixedScatterBuf::add_quantized(&mut sums, &batch);
                for (slot, (&sum, &b)) in sums.iter().zip(&batch).enumerate() {
                    let want = 7i64.wrapping_add((b * s).round() as i64);
                    assert_eq!(sum, want, "{v:e}, huge at {huge_at:?}: slot {slot}");
                }
            }
        }
    }

    #[test]
    fn fixed_scatter_raw_roundtrip_and_set() {
        for mode in [ScatterMode::Atomic, ScatterMode::Duplicated] {
            let buf = FixedScatterBuf::new(4, 3, mode);
            add(&buf, 0, 2, 1.5);
            add(&buf, 2, 2, -0.25);
            let raw = buf.get_raw(2);
            assert_eq!(raw, FixedScatterBuf::quantize(1.25));
            buf.set_raw_run(2, &[FixedScatterBuf::quantize(9.0)]);
            assert_eq!(buf.get(2), 9.0, "mode {mode:?}");
            add(&buf, 1, 2, 1.0);
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
            add(&buf, i % 4, i % 8, 0.5);
        });
        let total: f64 = buf.collect().iter().sum();
        assert_eq!(total, 5_000.0);
    }

    #[test]
    fn sole_claims_on_one_lane_take_turns() {
        // Two threads that each believe they are the lane's only writer
        // (and so add without atomics), started together: neither is ever
        // inside its claim while the other is, and no add is lost.
        let rounds = if cfg!(miri) { 20 } else { 2_000 };
        let buf = FixedScatterBuf::new(4, 1, ScatterMode::Atomic);
        let (start, inside) = (std::sync::Barrier::new(2), std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..rounds {
                        let lane = buf.claim(0, Claim::Sole);
                        assert!(!inside.swap(true, Ordering::SeqCst), "two sole claims at once");
                        lane.add_raw_run(1, &[1, -2, i64::MAX]);
                        inside.store(false, Ordering::SeqCst);
                    }
                });
            }
        });
        let n = 2 * rounds as i64;
        let want = [0, n, -2 * n, i64::MAX.wrapping_mul(n)];
        assert_eq!([0, 1, 2, 3].map(|i| buf.get_raw(i)), want);
    }

    #[test]
    fn shared_claims_coexist_and_more_blocks_than_replicas_queue() {
        let buf = FixedScatterBuf::new(2, 2, ScatterMode::Duplicated);
        // two shared writers of one lane at once, atomic adds
        let (a, b) = (buf.claim(0, Claim::Shared), buf.claim(2, Claim::Shared));
        a.add_raw_run(0, &[5, 0]);
        b.add_raw_run(0, &[7, 1]);
        drop((a, b));
        assert_eq!((buf.get_raw(0), buf.get_raw(1)), (12, 1));
        // five blocks, each the sole writer of "its" replica, on two
        // replicas: ids wrap and the blocks take turns
        let threads = Threads::new(5);
        let per_block = if cfg!(miri) { 10 } else { 1_000 };
        threads.parallel_for(5usize, |block| {
            let lane = buf.claim(block, Claim::Sole);
            for _ in 0..per_block {
                lane.add_raw_run(1, &[3]);
            }
        });
        assert_eq!(buf.get_raw(1), 1 + 5 * 3 * per_block);
        let lane = buf.claim(1, Claim::Sole);
        assert_eq!((lane.len(), lane.is_empty()), (2, false));
    }

    #[test]
    fn every_writer_marks_the_buffer_dirty_and_only_a_sweep_cleans_it() {
        let mut buf = FixedScatterBuf::new(4, 2, ScatterMode::Duplicated);
        assert!(!buf.is_dirty(), "a new buffer is zero");
        drop(buf.claim(1, Claim::Shared));
        assert!(buf.is_dirty(), "a claim, even one that adds nothing");
        buf.reset();
        assert!(!buf.is_dirty());
        buf.set_raw_run(1, &[3]);
        assert!(buf.is_dirty(), "set_raw_run");
        buf.set_raw_run(1, &[0]);
        assert!(buf.is_dirty(), "writing zeros does not clean the buffer");
        buf.mark_clean();
        assert!(!buf.is_dirty());
    }

    #[test]
    fn reset_of_a_clean_buffer_touches_nothing() {
        let buf = FixedScatterBuf::new(3, 2, ScatterMode::Duplicated);
        // a value no writer put there, so the buffer still counts as clean
        buf.lanes[1].slots[2].store(42, Ordering::Relaxed);
        buf.reset();
        assert_eq!(buf.get_raw(2), 42, "a reset of a clean buffer swept it");
        add(&buf, 0, 0, 1.0);
        buf.reset();
        assert!(buf.lane_totals().all(|lane| (0..3).all(|i| lane.raw(i) == 0)));
    }

    #[test]
    fn lanes_mut_hands_out_every_lane_once_for_taking() {
        let mut buf = FixedScatterBuf::new(3, 3, ScatterMode::Duplicated);
        for worker in 0..3 {
            buf.claim(worker, Claim::Sole).add_raw_run(0, &[1, 2, 3]);
        }
        {
            let (first, replicas) = buf.lanes_mut();
            assert_eq!(replicas.len(), 2);
            let taken: Vec<i64> = (0..3)
                .map(|i| replicas.clone().fold(std::mem::take(first[i].get_mut()), |sum, lane| sum + lane.take(i)))
                .collect();
            assert_eq!(taken, [3, 6, 9]);
        }
        buf.mark_clean();
        assert!(buf.lane_totals().all(|lane| (0..3).all(|i| lane.raw(i) == 0)));
    }
}
