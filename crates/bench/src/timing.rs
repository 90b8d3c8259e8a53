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

/// Median wall time of `reps` invocations of `f` (at least one), after
/// `warmup` unmeasured invocations, with each measured rep recorded as a
/// `name` span when profiling is enabled. Returns seconds.
pub(crate) fn median_time(
    name: &'static str,
    warmup: usize,
    reps: usize,
    mut f: impl FnMut(),
) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut samples: Vec<u64> =
        (0..reps.max(1)).map(|_| telemetry::timed(name, &mut f).1).collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn median_time_is_positive_and_ordered() {
        // runtime-dependent bounds so the optimizer cannot fold the work
        let small = black_box(100u64);
        let large = black_box(3_000_000u64);
        let fast = median_time("bench.rep", 1, 5, || {
            black_box((0..small).fold(0u64, |a, i| a ^ i.wrapping_mul(31)));
        });
        let slow = median_time("bench.rep", 1, 5, || {
            black_box((0..large).fold(0u64, |a, i| a ^ i.wrapping_mul(31)));
        });
        assert!(fast >= 0.0);
        assert!(slow > fast, "{slow} vs {fast}");
    }

    #[test]
    fn zero_reps_clamped() {
        let t = median_time("bench.rep", 0, 0, || {});
        assert!(t >= 0.0);
    }

    #[test]
    fn named_reps_recorded_when_profiling() {
        let _g = crate::telemetry_test_lock();
        telemetry::set_enabled(true);
        let t = median_time("bench.timing-test-rep", 0, 3, || {
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
