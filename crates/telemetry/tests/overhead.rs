//! The zero-cost-off guard: with profiling disabled, an instrumented
//! tight loop (1e6 empty spans) must cost < 5 ns/iteration over the
//! uninstrumented baseline. Lives in its own integration-test binary so
//! no concurrently-running test can flip the global flag mid-measurement.

use std::hint::black_box;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

const ITERS: u64 = 1_000_000;
const TRIALS: usize = 7;

/// Both tests flip the global flag; serialize them so the enabled-path
/// test cannot turn profiling on mid-measurement of the disabled path.
fn flag_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Minimum-of-trials wall time for `f`, in nanoseconds.
fn best_of(mut f: impl FnMut()) -> f64 {
    (0..TRIALS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn disabled_span_overhead_under_5ns_per_iter() {
    let _g = flag_lock();
    telemetry::set_enabled(false);
    assert!(!telemetry::enabled());

    let baseline = best_of(|| {
        for i in 0..ITERS {
            black_box(i);
        }
    });
    let instrumented = best_of(|| {
        for i in 0..ITERS {
            let _s = telemetry::span("overhead.guard");
            black_box(i);
        }
    });

    let per_iter = (instrumented - baseline).max(0.0) / ITERS as f64;
    // The 5 ns contract is about the optimized no-op path; unoptimized
    // builds pay for un-inlined plumbing, so debug only smoke-checks a
    // loose bound (CI runs this test under --release for the real budget).
    let budget = if cfg!(debug_assertions) { 100.0 } else { 5.0 };
    assert!(
        per_iter < budget,
        "disabled span path costs {per_iter:.2} ns/iter (budget: {budget} ns); \
         baseline {baseline:.0} ns, instrumented {instrumented:.0} ns for {ITERS} iters"
    );

    // and nothing may have been recorded
    let snap = telemetry::snapshot();
    assert!(
        !snap.events.iter().any(|e| e.name == "overhead.guard"),
        "disabled spans must not record events"
    );
}

#[test]
fn enabled_spans_report_plausible_nonzero_totals() {
    let _g = flag_lock();
    telemetry::set_enabled(true);
    for _ in 0..100 {
        let _s = telemetry::span("overhead.enabled").arg("payload", 1);
        black_box(0u64);
    }
    telemetry::set_enabled(false);
    let snap = telemetry::snapshot();
    let stats = telemetry::aggregate(&snap.events);
    let s = stats
        .iter()
        .find(|s| s.name == "overhead.enabled")
        .expect("enabled spans must appear in the summary");
    assert!(s.count >= 100);
    assert!(s.total_ns > 0, "summary must report non-zero totals");
    assert!(s.max_ns >= s.p95_ns && s.p95_ns >= s.p50_ns);
}
