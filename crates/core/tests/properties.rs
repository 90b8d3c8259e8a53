//! Property tests for the PIC core's physics invariants.

use pk::atomic::{Claim, ScatterMode};
use proptest::prelude::*;
use vpic_core::accumulate::{
    deposit_rho_node, div_j_node, segment_weights, Accumulator, SLOTS,
};
use vpic_core::field::FieldArray;
use vpic_core::grid::Grid;
use vpic_core::interp::load_interpolators;
use vpic_core::push::push_species;
use vpic_core::species::Species;
use vsimd::Strategy as VecStrategy;

fn offset() -> impl Strategy<Value = f32> {
    -1.0f32..1.0
}

fn qw() -> impl Strategy<Value = f32> {
    -3.0f32..3.0
}

proptest! {
    /// Villasenor–Buneman continuity holds for ANY within-cell segment:
    /// Δρ + dt·∇·J = 0 at every node.
    #[test]
    fn continuity_for_arbitrary_segments(
        x0 in offset(), y0 in offset(), z0 in offset(),
        x1 in offset(), y1 in offset(), z1 in offset(),
        qw in -3.0f32..3.0,
    ) {
        let g = Grid::new(4, 4, 4);
        let cell = g.voxel(1, 1, 1);
        let mut rho0 = vec![0.0f64; g.cells()];
        let mut rho1 = vec![0.0f64; g.cells()];
        deposit_rho_node(&g, &mut rho0, cell, x0, y0, z0, qw);
        deposit_rho_node(&g, &mut rho1, cell, x1, y1, z1, qw);
        let mut acc = Accumulator::new(g.cells(), 1, ScatterMode::Atomic);
        acc.deposit_segment(&g, 0, cell, x0, y0, z0, x1, y1, z1, qw);
        let mut f = FieldArray::new(g.clone());
        acc.unload(&mut f);
        for v in 0..g.cells() {
            let lhs = (rho1[v] - rho0[v]) / g.dt as f64;
            let rhs = -div_j_node(&f, v);
            prop_assert!((lhs - rhs).abs() < 2e-4, "node {v}: {lhs} vs {rhs}");
        }
    }

    /// Run coalescing is invisible: any sequence of (cell, segment), cut
    /// into contiguous chunks with one depositor each, leaves every edge
    /// with the bits that one `deposit_segment` per segment leaves — for
    /// both scatter modes and claims, any worker count, runs of length
    /// one included.
    #[test]
    fn run_depositor_matches_per_segment_deposits(
        segments in prop::collection::vec(
            (0usize..3, (offset(), offset(), offset()), (offset(), offset(), offset()), qw()),
            0..60,
        ),
        workers in 1usize..5,
    ) {
        let g = Grid::new(3, 1, 1);
        let cells = g.cells();
        let direct = Accumulator::new(cells, 1, ScatterMode::Atomic);
        for &(cell, (x0, y0, z0), (x1, y1, z1), qw) in &segments {
            direct.deposit_segment(&g, 0, cell, x0, y0, z0, x1, y1, z1, qw);
        }
        for (mode, claim) in [
            (ScatterMode::Atomic, Claim::Shared),
            (ScatterMode::Atomic, Claim::Sole),
            (ScatterMode::Duplicated, Claim::Sole),
        ] {
            let acc = Accumulator::new(cells, workers, mode);
            let chunk = segments.len().div_ceil(workers).max(1);
            for (worker, chunk) in segments.chunks(chunk).enumerate() {
                let mut dep = acc.depositor(&g, worker, claim);
                for &(cell, (x0, y0, z0), (x1, y1, z1), qw) in chunk {
                    dep.deposit(cell, x0, y0, z0, x1, y1, z1, qw);
                }
            }
            for cell in 0..cells {
                let (got, want) = (acc.cell_raw(cell), direct.cell_raw(cell));
                prop_assert_eq!(got, want, "{:?} {:?} cell {}", mode, claim, cell);
            }
        }
    }

    /// Segment weights are linear in charge and antisymmetric under
    /// trajectory reversal.
    #[test]
    fn weights_linear_and_antisymmetric(
        x0 in offset(), y0 in offset(), z0 in offset(),
        x1 in offset(), y1 in offset(), z1 in offset(),
    ) {
        let fwd = segment_weights(x0, y0, z0, x1, y1, z1, 1.0);
        let back = segment_weights(x1, y1, z1, x0, y0, z0, 1.0);
        let double = segment_weights(x0, y0, z0, x1, y1, z1, 2.0);
        for s in 0..SLOTS {
            prop_assert!((fwd[s] + back[s]).abs() < 1e-5, "slot {s} not antisymmetric");
            prop_assert!((double[s] - 2.0 * fwd[s]).abs() < 1e-5, "slot {s} not linear");
        }
    }

    /// The Boris rotation conserves |u| exactly (to fp tolerance) in a
    /// pure magnetic field of any orientation.
    #[test]
    fn boris_conserves_momentum_magnitude(
        bx in -0.5f32..0.5, by in -0.5f32..0.5, bz in -0.5f32..0.5,
        ux in -1.0f32..1.0, uy in -1.0f32..1.0, uz in -1.0f32..1.0,
    ) {
        let g = Grid::new(3, 3, 3);
        let mut f = FieldArray::new(g.clone());
        f.bx.fill(bx);
        f.by.fill(by);
        f.bz.fill(bz);
        let interps = load_interpolators(&f);
        let mut s = Species::new("e", -1.0, 1.0);
        s.push_particle(0.0, 0.0, 0.0, 0, ux, uy, uz, 1.0);
        let u0 = (ux as f64).hypot(uy as f64).hypot(uz as f64);
        let acc = Accumulator::new(g.cells(), 1, ScatterMode::Atomic);
        push_species(VecStrategy::Auto, &g, &mut s, &interps, &acc);
        let u1 = (s.ux[0] as f64).hypot(s.uy[0] as f64).hypot(s.uz[0] as f64);
        prop_assert!((u1 - u0).abs() < 1e-5 * (1.0 + u0), "{u0} vs {u1}");
    }

    /// The mover always leaves particles with in-range offsets and valid
    /// cells, for arbitrary (CFL-bounded) momenta.
    #[test]
    fn mover_preserves_invariants(
        x in offset(), y in offset(), z in offset(),
        ux in -5.0f32..5.0, uy in -5.0f32..5.0, uz in -5.0f32..5.0,
        cell_idx in 0usize..27,
    ) {
        let g = Grid::new(3, 3, 3);
        let f = FieldArray::new(g.clone());
        let interps = load_interpolators(&f);
        let mut s = Species::new("e", -1.0, 1.0);
        s.push_particle(x, y, z, cell_idx as u32, ux, uy, uz, 1.0);
        let acc = Accumulator::new(g.cells(), 1, ScatterMode::Atomic);
        push_species(VecStrategy::Auto, &g, &mut s, &interps, &acc);
        prop_assert!(s.validate(&g).is_ok(), "{:?}", s.validate(&g));
    }

    /// All four push strategies produce matching momenta on random
    /// particle sets (tolerance: different-but-valid fp orderings).
    #[test]
    fn strategies_agree_on_random_states(seed in any::<u64>()) {
        let g = Grid::new(4, 4, 4);
        let mut f = FieldArray::new(g.clone());
        for (i, e) in f.ex.iter_mut().enumerate() {
            *e = 0.005 * ((i as f32) * 0.3).sin();
        }
        f.bz.fill(0.1);
        let interps = load_interpolators(&f);
        let make = || {
            let mut s = Species::new("e", -1.0, 1.0);
            s.load_uniform(&g, 64, 0.1, (0.0, 0.0, 0.0), 1.0, seed);
            s
        };
        let mut reference = make();
        let acc = Accumulator::new(g.cells(), 1, ScatterMode::Atomic);
        push_species(VecStrategy::Auto, &g, &mut reference, &interps, &acc);
        for strat in [VecStrategy::Guided, VecStrategy::Manual, VecStrategy::AdHoc] {
            let mut s = make();
            let acc = Accumulator::new(g.cells(), 1, ScatterMode::Atomic);
            push_species(strat, &g, &mut s, &interps, &acc);
            for i in 0..s.len() {
                prop_assert!((s.ux[i] - reference.ux[i]).abs() < 1e-5, "{strat} ux[{i}]");
                prop_assert!((s.uy[i] - reference.uy[i]).abs() < 1e-5, "{strat} uy[{i}]");
            }
        }
    }

    /// Interpolated E is continuous across shared cell faces for random
    /// field content.
    #[test]
    fn interpolation_continuous_across_faces(seed in any::<u64>()) {
        let g = Grid::new(4, 4, 4);
        let mut f = FieldArray::new(g.clone());
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 40) as f32 / 16777216.0) - 0.5
        };
        for v in 0..g.cells() {
            f.ex[v] = next();
            f.ey[v] = next();
            f.ez[v] = next();
        }
        let interps = load_interpolators(&f);
        let v = g.voxel(1, 2, 1);
        let vy = g.neighbor(v, (0, 1, 0));
        for &z in &[-0.7f32, 0.0, 0.7] {
            let top = interps[v].e_at(0.0, 1.0, z).0;
            let bottom = interps[vy].e_at(0.0, -1.0, z).0;
            prop_assert!((top - bottom).abs() < 1e-5, "ex mismatch at z={z}");
        }
    }
}
