//! The field pipeline's contract, end to end: every parallel/vectorized
//! grid-side kernel (interpolator load, curl-E, curl-B, current unload)
//! produces exactly the bits of its serial wrapped reference, for any grid
//! shape (including degenerate `nx/ny/nz ∈ {1, 2}` where a row is its own
//! neighbor or nothing but its end cell) and any worker count 1–8. Row-level work decomposition with disjoint writes means the
//! schedule cannot reorder a single floating-point operation.

use proptest::prelude::*;
use vpic2::core::accumulate::Accumulator;
use vpic2::core::{load_interpolators, load_interpolators_into, FieldArray, Grid, InterpolatorArray};
use vpic2::pk::atomic::ScatterMode;
use vpic2::pk::{Serial, Threads};
use vpic2::vsimd::Strategy;

/// Deterministic scrambled field state: every array gets a distinct
/// smooth-but-nontrivial pattern so a single swapped neighbor or a
/// reordered reduction shows up as a bit flip.
fn scrambled(g: &Grid) -> FieldArray {
    let mut f = FieldArray::new(g.clone());
    // J is the seam's buffer, sized by its first use
    f.clear_j_on(&Serial);
    let n = g.cells();
    for v in 0..n {
        let x = v as f32;
        f.ex[v] = (0.3 * x).sin();
        f.ey[v] = (0.5 * x).cos();
        f.ez[v] = (0.7 * x).sin() * 0.5;
        f.bx[v] = (0.2 * x).cos() * 0.25;
        f.by[v] = (0.9 * x).sin() * 0.125;
        f.bz[v] = (1.1 * x).cos() * 0.0625;
        f.jx[v] = (1.3 * x).sin() * 0.03125;
        f.jy[v] = (1.7 * x).cos() * 0.015_625;
        f.jz[v] = (1.9 * x).sin() * 0.25;
    }
    f
}

/// An accumulator with current deposited in every cell (replicated so
/// `Duplicated` mode has cross-replica sums to get right).
fn seeded_accumulator(g: &Grid, workers: usize) -> Accumulator {
    let mode = if workers > 1 { ScatterMode::Duplicated } else { ScatterMode::Atomic };
    let acc = Accumulator::new(g.cells(), workers, mode);
    for v in 0..g.cells() {
        let t = v as f32 * 0.37;
        let (x0, y0, z0) = (t.sin() * 0.4, t.cos() * 0.4, (2.0 * t).sin() * 0.4);
        let (x1, y1, z1) = ((t + 1.0).sin() * 0.4, (t + 1.0).cos() * 0.4, (2.0 * t + 1.0).sin() * 0.4);
        acc.deposit_segment(g, v % workers.max(1), v, x0, y0, z0, x1, y1, z1, 0.8);
    }
    acc
}

fn assert_fields_bitwise(a: &FieldArray, b: &FieldArray, what: &str) {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (name, va, vb) in [
        ("ex", &a.ex, &b.ex),
        ("ey", &a.ey, &b.ey),
        ("ez", &a.ez, &b.ez),
        ("bx", &a.bx, &b.bx),
        ("by", &a.by, &b.by),
        ("bz", &a.bz, &b.bz),
        ("jx", &a.jx, &b.jx),
        ("jy", &a.jy, &b.jy),
        ("jz", &a.jz, &b.jz),
    ] {
        assert_eq!(bits(va), bits(vb), "{what}: {name} diverged");
    }
}

/// Map a raw tag to a dimension size. Degenerate sizes are deliberately
/// over-weighted: 1 and 2 are where a row's neighbor rows coincide and
/// its span shrinks to nothing beside the end cell.
fn dim(tag: usize) -> usize {
    [1, 1, 2, 2, 3, 4, 5, 6][tag]
}

proptest! {
    /// Curl kernels: the row sweep (span plus x-wrapping end cell) on any
    /// worker count reproduces the serial wrapped reference bit for bit.
    #[test]
    fn field_solve_bit_identical_for_any_grid_and_workers(
        tx in 0usize..8, ty in 0usize..8, tz in 0usize..8,
        workers in 1usize..=8,
    ) {
        let g = Grid::new(dim(tx), dim(ty), dim(tz));
        let strategy = Strategy::default();
        let mut reference = scrambled(&g);
        reference.advance_b_ref(0.5);
        reference.advance_e_ref();
        reference.advance_b_ref(0.5);

        let mut parallel = scrambled(&g);
        let pool = Threads::new(workers);
        parallel.advance_b_on(&pool, strategy, 0.5);
        parallel.advance_e_on(&pool, strategy);
        parallel.advance_b_on(&pool, strategy, 0.5);
        assert_fields_bitwise(&reference, &parallel, "threaded field solve");

        let mut serial = scrambled(&g);
        serial.advance_b_on(&Serial, strategy, 0.5);
        serial.advance_e_on(&Serial, strategy);
        serial.advance_b_on(&Serial, strategy, 0.5);
        assert_fields_bitwise(&reference, &serial, "serial-space field solve");
    }

    /// Interpolator load: the persistent-buffer parallel load matches
    /// the allocating serial reference bit for bit.
    #[test]
    fn interpolator_load_bit_identical(
        tx in 0usize..8, ty in 0usize..8, tz in 0usize..8,
        workers in 1usize..=8,
    ) {
        let g = Grid::new(dim(tx), dim(ty), dim(tz));
        let f = scrambled(&g);
        let reference = load_interpolators(&f);

        let mut out = InterpolatorArray::new();
        let pool = Threads::new(workers);
        load_interpolators_into(&pool, Strategy::default(), &f, &mut out);
        prop_assert_eq!(out.len(), reference.len());
        for (v, (a, b)) in reference.iter().zip(out.iter()).enumerate() {
            for c in 0..vpic2::core::interp::COEFFS {
                prop_assert_eq!(
                    a.0[c].to_bits(), b.0[c].to_bits(),
                    "cell {} coeff {} diverged", v, c
                );
            }
        }
    }

    /// Current unload: the stream over the edges is worker-count-invariant
    /// bit for bit, whatever the replicas the deposits were spread over.
    /// (The edge-by-edge oracle is a unit test.)
    #[test]
    fn unload_bit_identical_across_workers(
        tx in 0usize..8, ty in 0usize..8, tz in 0usize..8,
        workers in 2usize..=8,
    ) {
        let g = Grid::new(dim(tx), dim(ty), dim(tz));

        let mut acc = seeded_accumulator(&g, 1);
        let mut baseline = scrambled(&g);
        acc.unload_on(&Serial, Strategy::Auto, &mut baseline);

        let mut acc = seeded_accumulator(&g, workers);
        let mut threaded = scrambled(&g);
        acc.unload_on(&Threads::new(workers), Strategy::default(), &mut threaded);
        assert_fields_bitwise(&baseline, &threaded, "gather unload");
    }
}
