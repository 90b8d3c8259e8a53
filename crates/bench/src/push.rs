//! `push` target: a profiled particle-push loop that reconciles the
//! telemetry spans against wall-clock time.
//!
//! This is the observability acceptance check in executable form: run a
//! real LPI deck on the pooled `Threads` backend with profiling on, then
//! verify that the per-step `sim.step` spans account for the measured
//! wall time and that the phase spans (sort / interpolate / push /
//! accumulate / field-solve) account for the step spans. A profiler
//! whose numbers do not add up is worse than no profiler.
//!
//! Span sums are filtered to this thread's trace track and to the
//! measured time window, so concurrent activity (parallel tests, other
//! targets) cannot pollute the reconciliation.

use pk::atomic::ScatterMode;
use pk::Threads;
use psort::SortOrder;
use serde::Serialize;
use vpic_core::Deck;

/// The per-step phases instrumented in `vpic_core::sim::step_on`,
/// in execution order. Together they should cover nearly all of
/// `sim.step`.
pub(crate) const PHASES: [&str; 5] =
    ["sim.sort", "sim.interpolate", "sim.push", "sim.accumulate", "sim.field_solve"];

/// The `push` target's result: throughput plus span/wall reconciliation.
#[derive(Serialize)]
pub struct Report {
    /// Worker lanes of the pooled `Threads` space.
    pub workers: u64,
    /// Measured steps (after warmup).
    pub steps: u64,
    /// Particles in the deck.
    pub particles: u64,
    /// Wall time of the measured steps, seconds.
    pub wall_s: f64,
    /// Particle pushes per second over the measured window.
    pub particles_per_sec: f64,
    /// Sum of `sim.step` span durations inside the window, seconds.
    pub step_span_total_s: f64,
    /// Sum of phase span durations inside the window, seconds.
    pub phase_span_total_s: f64,
    /// `phase_span_total_s / step_span_total_s` — how much of each step
    /// the named phases explain.
    pub phase_coverage: f64,
}

/// Run the push target at its default shape: 4 workers, 2 warmup steps,
/// 10 measured steps on the 16×8×8 LPI deck.
pub fn run() -> Report {
    run_with(4, 2, 10)
}

/// Parameterized body of the `push` target.
pub(crate) fn run_with(workers: usize, warmup: usize, steps: usize) -> Report {
    let was_enabled = telemetry::enabled();
    telemetry::set_enabled(true);

    let space = Threads::new(workers);
    let mut sim = Deck::lpi(16, 8, 8, 8).build();
    sim.configure_scatter(workers, ScatterMode::Duplicated);
    sim.sort_order = Some(SortOrder::Standard);
    sim.sort_interval = 5;
    for _ in 0..warmup {
        sim.step_on(&space);
    }

    let track = telemetry::current_track();
    let t0 = telemetry::now_ns();
    for _ in 0..steps {
        sim.step_on(&space);
    }
    let t1 = telemetry::now_ns();
    telemetry::set_enabled(was_enabled);

    let particles = sim.particle_count() as u64;
    let wall_s = (t1 - t0) as f64 / 1e9;
    let snap = telemetry::snapshot();
    let in_window = |e: &&telemetry::Event| {
        e.track == track && e.start_ns >= t0 && e.start_ns.saturating_add(e.dur_ns) <= t1
    };
    let step_span_total_ns: u64 = snap
        .events
        .iter()
        .filter(|e| e.name == "sim.step")
        .filter(in_window)
        .map(|e| e.dur_ns)
        .sum();
    let phase_span_total_ns: u64 = snap
        .events
        .iter()
        .filter(|e| PHASES.contains(&e.name.as_str()))
        .filter(in_window)
        .map(|e| e.dur_ns)
        .sum();
    let step_span_total_s = step_span_total_ns as f64 / 1e9;
    let phase_span_total_s = phase_span_total_ns as f64 / 1e9;

    let report = Report {
        workers: workers as u64,
        steps: steps as u64,
        particles,
        wall_s,
        particles_per_sec: particles as f64 * steps as f64 / wall_s,
        step_span_total_s,
        phase_span_total_s,
        phase_coverage: if step_span_total_ns == 0 {
            0.0
        } else {
            phase_span_total_s / step_span_total_s
        },
    };

    println!(
        "push: {} particles × {} steps on Threads({workers}): {:.2} Mp/s",
        report.particles,
        report.steps,
        report.particles_per_sec / 1e6
    );
    println!(
        "  wall {:>10}   sim.step spans {:>10}   ({:.1}% of wall)",
        crate::fmt_time(report.wall_s),
        crate::fmt_time(report.step_span_total_s),
        100.0 * report.step_span_total_s / report.wall_s
    );
    println!(
        "  phase spans {:>10}   ({:.1}% of sim.step)",
        crate::fmt_time(report.phase_span_total_s),
        100.0 * report.phase_coverage
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_reconcile_with_wall_time() {
        let _g = crate::telemetry_test_lock();
        let r = run_with(2, 1, 6);
        assert_eq!(r.steps, 6);
        assert!(r.wall_s > 0.0 && r.particles_per_sec > 0.0);
        // per-step span totals must explain the measured wall time
        let rel = (r.step_span_total_s - r.wall_s).abs() / r.wall_s;
        assert!(
            rel < 0.10,
            "sim.step spans ({:.6}s) vs wall ({:.6}s): {:.1}% off",
            r.step_span_total_s,
            r.wall_s,
            100.0 * rel
        );
        // and the named phases must explain the steps
        assert!(
            r.phase_coverage > 0.9 && r.phase_coverage <= 1.001,
            "phase coverage {:.3}",
            r.phase_coverage
        );
    }
}
