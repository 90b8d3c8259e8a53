//! Minimal wall-clock timing for the repro harness.
//!
//! The harness needs only quick, stable medians to print figure-shaped
//! output, so this module does warmup + median-of-reps; speed is judged
//! by `benchmark/`, in alternating parent/change pairs.
//!
//! Timing runs on [`telemetry::timed`], so every measured repetition
//! shares the profiler's monotonic clock and — when profiling is
//! enabled — lands in the trace as a named span alongside the kernel
//! spans it encloses. When profiling is off `timed` still measures but
//! records nothing, so the harness output is identical either way.

/// Wall-time distribution of the measured reps: median for headline
/// numbers, min/p95/max so a noisy run is visible in the report instead
/// of silently folded into one number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TimingStats {
    /// Median measured rep, seconds.
    pub median_s: f64,
    /// Fastest measured rep, seconds.
    pub min_s: f64,
    /// Nearest-rank 95th percentile, seconds.
    pub p95_s: f64,
    /// Slowest measured rep, seconds.
    pub max_s: f64,
    /// Number of measured reps.
    pub reps: usize,
}

/// Measure `reps` invocations of `f` after `warmup` unmeasured ones and
/// return the full [`TimingStats`], with each measured rep recorded as a
/// `name` span when profiling is enabled.
pub(crate) fn measure_named(
    name: &'static str,
    warmup: usize,
    reps: usize,
    mut f: impl FnMut(),
) -> TimingStats {
    for _ in 0..warmup {
        f();
    }
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let ((), ns) = telemetry::timed(name, &mut f);
            ns as f64 / 1e9
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    // nearest-rank p95, matching the exporters' percentile convention
    let p95_idx = ((95.0 / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    TimingStats {
        median_s: samples[n / 2],
        min_s: samples[0],
        p95_s: samples[p95_idx],
        max_s: samples[n - 1],
        reps: n,
    }
}

/// Median wall time of `reps` invocations of `f`, after `warmup` unmeasured
/// invocations, with each measured rep recorded as a `name` span when
/// profiling is enabled. Returns seconds.
pub(crate) fn median_time_named(
    name: &'static str,
    warmup: usize,
    reps: usize,
    f: impl FnMut(),
) -> f64 {
    measure_named(name, warmup, reps, f).median_s
}

/// [`median_time_named`] under the generic `bench.rep` span name.
pub(crate) fn median_time(warmup: usize, reps: usize, f: impl FnMut()) -> f64 {
    median_time_named("bench.rep", warmup, reps, f)
}

/// Keep a value alive and opaque to the optimizer (stable-Rust black box).
#[inline]
pub(crate) fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_time_is_positive_and_ordered() {
        // runtime-dependent bounds so the optimizer cannot fold the work
        let small = black_box(100u64);
        let large = black_box(3_000_000u64);
        let fast = median_time(1, 5, || {
            black_box((0..small).fold(0u64, |a, i| a ^ i.wrapping_mul(31)));
        });
        let slow = median_time(1, 5, || {
            black_box((0..large).fold(0u64, |a, i| a ^ i.wrapping_mul(31)));
        });
        assert!(fast >= 0.0);
        assert!(slow > fast, "{slow} vs {fast}");
    }

    #[test]
    fn zero_reps_clamped() {
        let t = median_time(0, 0, || {});
        assert!(t >= 0.0);
    }

    #[test]
    fn stats_are_ordered_min_median_p95_max() {
        let s = measure_named("bench.timing-stats", 1, 9, || {
            black_box((0..black_box(20_000u64)).fold(0u64, |a, i| a ^ i.wrapping_mul(31)));
        });
        assert_eq!(s.reps, 9);
        assert!(s.min_s <= s.median_s, "{s:?}");
        assert!(s.median_s <= s.p95_s, "{s:?}");
        assert!(s.p95_s <= s.max_s, "{s:?}");
    }

    #[test]
    fn named_reps_recorded_when_profiling() {
        let _g = crate::telemetry_test_lock();
        telemetry::set_enabled(true);
        let t = median_time_named("bench.timing-test-rep", 0, 3, || {
            black_box((0..10_000u64).fold(0u64, |a, i| a ^ i));
        });
        telemetry::set_enabled(false);
        assert!(t >= 0.0);
        let snap = telemetry::snapshot();
        let reps =
            snap.events.iter().filter(|e| e.name == "bench.timing-test-rep").count();
        assert!(reps >= 3, "expected ≥3 recorded reps, saw {reps}");
    }
}
