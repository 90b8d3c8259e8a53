//! Streaming metrics: lock-free log-bucketed histograms.
//!
//! Spans answer "*when* did this phase run and for how long", and the
//! span table already prints their p50/p95/p99. Histograms are for the
//! samples no span carries — a queue wait, a compression ratio, a
//! migrant count, an exchange cost the overlap hid — and they hold a
//! distribution without storing one event per sample: a soak run
//! records millions of samples into a few kilobytes of buckets.
//!
//! ## Discipline (same as spans)
//!
//! * **Gate**: the [`hist!`] macro is one relaxed atomic
//!   load when profiling is off — nothing is registered, formatted, or
//!   touched (regression-tested in `tests/overhead.rs` at ≤ 5 ns, with
//!   the enabled path held to ≤ 50 ns).
//! * **Lock-free recording**: a sample is three relaxed `fetch_add`s on
//!   the recording thread's stripe — no mutex anywhere on the hot path.
//!   Stripes keep concurrent lanes off each other's cache lines; the
//!   exporter merges them.
//! * **Determinism**: bucket counts are commutative sums, so any
//!   interleaving of a fixed sample multiset yields byte-identical
//!   snapshots and percentiles (proptested in `tests/metrics.rs`,
//!   including merge associativity).
//!
//! ## Bucket scheme
//!
//! Log-linear base-2 ("HDR-lite"): values `0..8` get exact unit buckets;
//! above that, each power-of-two octave is split into 8 linear
//! sub-buckets, so the relative quantization error is bounded by 1/8 =
//! 12.5% across the full `u64` range. 496 buckets cover everything from
//! 1 ns to ~584 years; snapshots store only the non-zero ones.
//! Percentiles are nearest-rank over bucket *floors* — a deterministic,
//! conservative (never over-reporting) readout.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Sub-buckets per octave as a power of two (8 → ≤12.5% relative error).
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave.
const SUBS: usize = 1 << SUB_BITS;
/// Total bucket count: unit buckets 0..8, then 8 per octave for octaves
/// 3..=63.
const HIST_BUCKETS: usize = SUBS + (64 - SUB_BITS as usize) * SUBS;

/// Stripes per histogram: concurrent recorders spread round-robin so
/// worker lanes do not share bucket cache lines.
const HIST_STRIPES: usize = 8;

/// The bucket a value lands in.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        v as usize
    } else {
        let octave = 63 - v.leading_zeros() as usize; // floor(log2 v), ≥ 3
        let shift = octave as u32 - SUB_BITS;
        SUBS + (octave - SUB_BITS as usize) * SUBS + (((v >> shift) as usize) & (SUBS - 1))
    }
}

/// Smallest value that lands in bucket `idx` (the percentile readout
/// value, making reported quantiles deterministic underestimates by at
/// most 12.5%).
pub fn bucket_floor(idx: usize) -> u64 {
    if idx < SUBS {
        idx as u64
    } else {
        let octave = SUB_BITS as usize + (idx - SUBS) / SUBS;
        let sub = ((idx - SUBS) % SUBS) as u64;
        (SUBS as u64 + sub) << (octave - SUB_BITS as usize)
    }
}

// ---------------------------------------------------------------- stripes

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's stripe (round-robin on first use, like event shards).
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn my_stripe() -> usize {
    STRIPE.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            return v;
        }
        let v = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % HIST_STRIPES;
        s.set(v);
        v
    })
}

// -------------------------------------------------------------- histogram

struct HistStripe {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl HistStripe {
    fn new() -> Self {
        HistStripe {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// A lock-free, log-bucketed, striped streaming histogram. Obtain a
/// process-lifetime handle with [`histogram`]; record hot-path samples
/// through the [`hist!`] macro (which caches the handle per call site and
/// applies the `enabled()` gate).
pub struct Histogram {
    stripes: Vec<HistStripe>,
}

impl Histogram {
    fn new() -> Self {
        Histogram { stripes: (0..HIST_STRIPES).map(|_| HistStripe::new()).collect() }
    }

    /// Record one sample: three relaxed `fetch_add`s on this thread's
    /// stripe. Does **not** check [`crate::enabled`] — the `hist!` macro
    /// (or whoever holds the handle) gates before calling.
    #[inline]
    pub fn record(&self, v: u64) {
        let s = &self.stripes[my_stripe()];
        s.count.fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(v, Ordering::Relaxed);
        s.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Merge every stripe into one [`HistData`].
    pub fn snapshot(&self) -> HistData {
        let mut data = HistData::default();
        for s in &self.stripes {
            data.count += s.count.load(Ordering::Relaxed);
            data.sum += s.sum.load(Ordering::Relaxed);
            for (i, b) in s.buckets.iter().enumerate() {
                let v = b.load(Ordering::Relaxed);
                if v > 0 {
                    *data.buckets.entry(i as u32).or_insert(0) += v;
                }
            }
        }
        data
    }

    fn clear(&self) {
        for s in &self.stripes {
            s.count.store(0, Ordering::Relaxed);
            s.sum.store(0, Ordering::Relaxed);
            for b in s.buckets.iter() {
                b.store(0, Ordering::Relaxed);
            }
        }
    }
}

/// A merged histogram snapshot: sparse non-zero bucket counts. Mergeable
/// (bucket-wise addition — associative and commutative).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistData {
    /// Total samples.
    pub count: u64,
    /// Sum of all sample values.
    pub sum: u64,
    /// Non-zero buckets: index → count, index-ordered.
    pub buckets: BTreeMap<u32, u64>,
}

impl HistData {
    /// Bucket-wise accumulate `other` into `self`.
    pub fn merge(&mut self, other: &HistData) {
        self.count += other.count;
        self.sum += other.sum;
        for (&i, &c) in &other.buckets {
            *self.buckets.entry(i).or_insert(0) += c;
        }
    }

    /// Nearest-rank percentile over bucket floors (0 when empty).
    /// Deterministic for a fixed sample multiset regardless of recording
    /// order or stripe assignment.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut cum = 0u64;
        for (&i, &c) in &self.buckets {
            cum += c;
            if cum >= rank {
                return bucket_floor(i as usize);
            }
        }
        // unreachable when count equals the bucket sum; be safe anyway
        self.buckets.keys().next_back().map_or(0, |&i| bucket_floor(i as usize))
    }

    /// Mean sample value (0 when empty).
    pub(crate) fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

// --------------------------------------------------------------- registry

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

static HISTOGRAMS: OnceLock<Mutex<BTreeMap<String, &'static Histogram>>> = OnceLock::new();

fn hist_registry() -> &'static Mutex<BTreeMap<String, &'static Histogram>> {
    HISTOGRAMS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Process-lifetime handle to the named histogram, registering it on
/// first use. Handles are `&'static` (one bounded leak per distinct
/// name), so call sites cache them — the [`hist!`] macro does this
/// automatically — and [`crate::reset`] zeroes buckets in place without
/// invalidating anything.
pub fn histogram(name: &str) -> &'static Histogram {
    let mut reg = lock(hist_registry());
    if let Some(h) = reg.get(name) {
        return h;
    }
    let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
    reg.insert(name.to_string(), h);
    h
}

/// Every registered histogram, merged and name-ordered.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Histogram snapshots by name.
    pub hists: BTreeMap<String, HistData>,
}

/// Snapshot every registered histogram.
pub(crate) fn metrics_snapshot() -> MetricsSnapshot {
    let reg = lock(hist_registry());
    MetricsSnapshot { hists: reg.iter().map(|(name, h)| (name.clone(), h.snapshot())).collect() }
}

/// Zero every registered histogram in place (handles stay valid).
/// Called by [`crate::reset`].
pub(crate) fn reset_metrics() {
    for h in lock(hist_registry()).values() {
        h.clear();
    }
}

/// Record a sample into a named histogram when profiling is enabled.
/// Disabled cost is one relaxed atomic load; the value expression is not
/// evaluated. The handle is looked up once per call site and cached in a
/// static, so the enabled path is the lookup-free [`Histogram::record`].
#[macro_export]
macro_rules! hist {
    ($name:expr, $value:expr) => {{
        if $crate::enabled() {
            static __VPIC_HIST: ::std::sync::OnceLock<&'static $crate::Histogram> =
                ::std::sync::OnceLock::new();
            __VPIC_HIST.get_or_init(|| $crate::histogram($name)).record($value);
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_floor_roundtrip() {
        // exact unit buckets below 8
        for v in 0..8u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_floor(v as usize), v);
        }
        // floors are the smallest member of their bucket, error ≤ 12.5%
        for v in [8u64, 9, 15, 16, 100, 1_000, 123_456, u64::MAX / 3, u64::MAX] {
            let idx = bucket_index(v);
            let floor = bucket_floor(idx);
            assert!(floor <= v, "floor {floor} above value {v}");
            assert!(v - floor <= floor / 8, "bucket too wide at {v}: floor {floor}");
            assert_eq!(bucket_index(floor), idx, "floor must land in its own bucket");
        }
        assert!(bucket_index(u64::MAX) < HIST_BUCKETS);
    }

    #[test]
    fn bucket_indices_are_monotone() {
        let mut prev = bucket_index(0);
        for v in 1..100_000u64 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "bucket index decreased at {v}");
            prev = idx;
        }
    }

    #[test]
    fn percentiles_read_back_recorded_values() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let d = h.snapshot();
        assert_eq!(d.count, 100);
        assert_eq!(d.sum, 5050);
        // exact below 8; within 12.5% above
        let p50 = d.percentile(50.0);
        assert!((44..=50).contains(&p50), "p50 {p50}");
        let p99 = d.percentile(99.0);
        assert!((87..=99).contains(&p99), "p99 {p99}");
        assert_eq!(d.percentile(100.0), bucket_floor(bucket_index(100)));
    }

    #[test]
    fn empty_histogram_percentile_is_zero() {
        assert_eq!(HistData::default().percentile(50.0), 0);
        assert_eq!(HistData::default().mean(), 0);
    }

    #[test]
    fn merge_adds_bucket_wise() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [1u64, 10, 100] {
            a.record(v);
        }
        for v in [2u64, 20, 200, 2000] {
            b.record(v);
        }
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let mut merged = sa.clone();
        merged.merge(&sb);
        assert_eq!(merged.count, 7);
        assert_eq!(merged.sum, sa.sum + sb.sum);
        assert_eq!(merged.buckets.values().sum::<u64>(), 7);
    }

    #[test]
    fn registry_returns_same_handle_and_reset_keeps_it_valid() {
        let h1 = histogram("metrics.test.registry");
        let h2 = histogram("metrics.test.registry");
        assert!(std::ptr::eq(h1, h2));
        h1.record(42);
        assert!(h2.snapshot().count >= 1);
        reset_metrics();
        assert_eq!(h1.snapshot().count, 0, "reset zeroes in place");
        h1.record(1); // handle still usable
        assert!(h1.snapshot().count >= 1);
    }
}
