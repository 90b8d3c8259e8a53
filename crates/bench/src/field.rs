//! `field` target: the grid-side pipeline (interpolate → field solve →
//! unload) before vs after the parallel/vectorized rewrite.
//!
//! The baseline is the pre-rewrite serial path kept in-tree as the
//! bit-identity oracle: allocating `load_interpolators`, the wrapped
//! `advance_{b,e}_ref` curl loops, and the scatter-order
//! `unload_scatter_ref`. Against it the target times the row-parallel
//! pipeline (`load_interpolators_into` / `advance_{b,e}_on` /
//! `unload_on`) for every vectorization strategy at 1 and 4 worker
//! lanes, on a Weibel deck sized to sit in last-level cache so the
//! numbers measure kernels, not DRAM.
//!
//! Before timing anything the target re-checks the correctness contract
//! (parallel interpolators and curls bitwise-equal to the references),
//! so a speedup can never be quoted for a wrong answer.

use pk::atomic::ScatterMode;
use pk::{Serial, Threads};
use serde::Serialize;
use vpic_core::accumulate::Accumulator;
use vpic_core::{load_interpolators, load_interpolators_into, Deck, FieldArray, InterpolatorArray};
use vsimd::Strategy;

/// Wall time of the three grid-side phases, seconds (median of reps).
#[derive(Serialize, Clone, Copy)]
pub struct PhaseTimes {
    /// Interpolator-coefficient load.
    pub interpolate_s: f64,
    /// Half-B, E, half-B curl sweeps.
    pub field_solve_s: f64,
    /// Accumulator → J current unload.
    pub unload_s: f64,
}

impl PhaseTimes {
    fn total(&self) -> f64 {
        self.interpolate_s + self.field_solve_s + self.unload_s
    }
}

/// One (strategy × worker-lane) configuration of the new pipeline.
#[derive(Serialize)]
pub struct Variant {
    /// Vectorization strategy name (paper §3.1).
    pub strategy: String,
    /// Worker lanes of the pooled `Threads` space.
    pub workers: u64,
    /// Phase medians for this configuration.
    pub phases: PhaseTimes,
    /// Baseline grid-phase total / this configuration's total.
    pub speedup: f64,
}

/// The `field` target's result.
#[derive(Serialize)]
pub struct Report {
    /// Cells in the benchmark deck (sized to fit in LLC).
    pub cells: u64,
    /// Pre-rewrite serial path (allocating load, wrapped curls,
    /// scatter-order unload).
    pub baseline: PhaseTimes,
    /// Every strategy at 1 and 4 lanes.
    pub variants: Vec<Variant>,
    /// Best single-lane speedup — the allocation/row-stencil/SIMD
    /// win alone, with no thread-level parallelism in the numerator.
    pub best_single_lane_speedup: f64,
}

/// Fields with physically structured content: a Weibel deck stepped a
/// few times so E, B and J carry real spatial spectra.
fn warmed_fields(nx: usize, ny: usize, nz: usize) -> FieldArray {
    let mut sim = Deck::weibel(nx, ny, nz, 2, 0.3).build();
    sim.run(3);
    sim.fields.clone()
}

/// An accumulator with a Villasenor–Buneman segment in every cell, so
/// the unload sweep touches all 12 slots everywhere.
fn seeded_accumulator(cells: usize, workers: usize) -> Accumulator {
    let mode = if workers > 1 { ScatterMode::Duplicated } else { ScatterMode::Atomic };
    let acc = Accumulator::new(cells, workers, mode);
    for v in 0..cells {
        let t = v as f32 * 0.37;
        acc.deposit_segment(
            v % workers.max(1),
            v,
            t.sin() * 0.4,
            t.cos() * 0.4,
            (2.0 * t).sin() * 0.4,
            (t + 1.0).sin() * 0.4,
            (t + 1.0).cos() * 0.4,
            (2.0 * t + 1.0).sin() * 0.4,
            0.8,
        );
    }
    acc
}

/// Bit-exactness of the parallel pipeline against the serial reference
/// on the benchmark deck itself (degenerate shapes are covered by the
/// `field_pipeline` property tests).
fn assert_pipeline_matches_reference(f: &FieldArray, space: &Threads, strategy: Strategy) {
    let reference = load_interpolators(f);
    let mut out = InterpolatorArray::new();
    load_interpolators_into(space, strategy, f, &mut out);
    assert!(
        reference
            .iter()
            .zip(out.iter())
            .all(|(a, b)| (0..vpic_core::interp::COEFFS).all(|c| a.0[c].to_bits() == b.0[c].to_bits())),
        "{strategy:?}: interpolators diverged from reference"
    );

    let mut want = f.clone();
    want.advance_b_ref(0.5);
    want.advance_e_ref();
    want.advance_b_ref(0.5);
    let mut got = f.clone();
    got.advance_b_on(space, strategy, 0.5);
    got.advance_e_on(space, strategy);
    got.advance_b_on(space, strategy, 0.5);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (name, a, b) in [
        ("ex", &want.ex, &got.ex),
        ("ey", &want.ey, &got.ey),
        ("ez", &want.ez, &got.ez),
        ("bx", &want.bx, &got.bx),
        ("by", &want.by, &got.by),
        ("bz", &want.bz, &got.bz),
    ] {
        assert_eq!(bits(a), bits(b), "{strategy:?}: {name} diverged from reference");
    }
}

fn time_baseline(f: &FieldArray, warmup: usize, reps: usize) -> PhaseTimes {
    let cells = f.grid.cells();
    let interpolate_s = crate::timing::median_time_named("field.base.interp", warmup, reps, || {
        crate::timing::black_box(load_interpolators(f));
    });
    let mut work = f.clone();
    let field_solve_s = crate::timing::median_time_named("field.base.solve", warmup, reps, || {
        work.advance_b_ref(0.5);
        work.advance_e_ref();
        work.advance_b_ref(0.5);
    });
    let acc = seeded_accumulator(cells, 1);
    let mut work = f.clone();
    let unload_s = crate::timing::median_time_named("field.base.unload", warmup, reps, || {
        work.clear_j_on(&Serial);
        acc.unload_scatter_ref(&mut work);
    });
    PhaseTimes { interpolate_s, field_solve_s, unload_s }
}

fn time_variant(
    f: &FieldArray,
    space: &Threads,
    strategy: Strategy,
    workers: usize,
    warmup: usize,
    reps: usize,
) -> PhaseTimes {
    let cells = f.grid.cells();
    let mut interp = InterpolatorArray::new();
    let interpolate_s = crate::timing::median_time_named("field.new.interp", warmup, reps, || {
        load_interpolators_into(space, strategy, f, &mut interp);
    });
    let mut work = f.clone();
    let field_solve_s = crate::timing::median_time_named("field.new.solve", warmup, reps, || {
        work.advance_b_on(space, strategy, 0.5);
        work.advance_e_on(space, strategy);
        work.advance_b_on(space, strategy, 0.5);
    });
    let mut acc = seeded_accumulator(cells, workers);
    let mut work = f.clone();
    let unload_s = crate::timing::median_time_named("field.new.unload", warmup, reps, || {
        work.clear_j_on(space);
        acc.unload_on(space, strategy, &mut work);
    });
    PhaseTimes { interpolate_s, field_solve_s, unload_s }
}

/// Run the field target at its default shape: a 32×16×16 Weibel deck
/// (~8k cells ≈ 1.7 MB of grid state — inside any LLC), 2 warmup and
/// 9 measured reps per phase.
pub fn run() -> Report {
    run_with(32, 16, 16, 2, 9)
}

/// Parameterized body of the `field` target.
pub(crate) fn run_with(nx: usize, ny: usize, nz: usize, warmup: usize, reps: usize) -> Report {
    let f = warmed_fields(nx, ny, nz);
    let cells = f.grid.cells() as u64;

    let baseline = time_baseline(&f, warmup, reps);
    let mut variants = Vec::new();
    let mut best_single_lane_speedup = 0.0f64;
    for &workers in &[1usize, 4] {
        let space = Threads::new(workers);
        for strategy in Strategy::ALL {
            assert_pipeline_matches_reference(&f, &space, strategy);
            let phases = time_variant(&f, &space, strategy, workers, warmup, reps);
            let speedup = baseline.total() / phases.total();
            if workers == 1 {
                best_single_lane_speedup = best_single_lane_speedup.max(speedup);
            }
            variants.push(Variant {
                strategy: strategy.name().to_string(),
                workers: workers as u64,
                phases,
                speedup,
            });
        }
    }

    println!("field: grid-side pipeline, {cells} cells (baseline = pre-rewrite serial path)");
    println!(
        "  {:<10} {:>3}  {:>12} {:>12} {:>12} {:>12} {:>8}",
        "strategy", "wrk", "interp (µs)", "solve (µs)", "unload (µs)", "total (µs)", "speedup"
    );
    let us = |s: f64| s * 1e6;
    println!(
        "  {:<10} {:>3}  {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>8}",
        "baseline",
        1,
        us(baseline.interpolate_s),
        us(baseline.field_solve_s),
        us(baseline.unload_s),
        us(baseline.total()),
        "1.00x"
    );
    for v in &variants {
        println!(
            "  {:<10} {:>3}  {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>7.2}x",
            v.strategy,
            v.workers,
            us(v.phases.interpolate_s),
            us(v.phases.field_solve_s),
            us(v.phases.unload_s),
            us(v.phases.total()),
            v.speedup
        );
    }
    println!("  best single-lane speedup: {best_single_lane_speedup:.2}x");

    Report { cells, baseline, variants, best_single_lane_speedup }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_target_reports_all_variants() {
        if crate::skip_heavy_in_debug() {
            return;
        }
        let report = run_with(8, 8, 8, 1, 3);
        assert_eq!(report.cells, 512);
        assert_eq!(report.variants.len(), 2 * Strategy::ALL.len());
        assert!(report.baseline.total() > 0.0);
        for v in &report.variants {
            assert!(v.phases.total() > 0.0, "{}/{} lanes: zero time", v.strategy, v.workers);
            assert!(v.speedup.is_finite());
        }
        assert!(report.best_single_lane_speedup > 0.0);
    }
}
