//! The adaptive tuner's core contract: tuning is an *observation* layer.
//! Arming it must never change the physics — a tuned run is the
//! differential lattice's reference (`lattice/mod.rs`) and is
//! bit-identical to replaying its recorded per-epoch config schedule with
//! fixed settings — and its cache prior must agree with the `memsim`
//! platform model it is derived from.

#[path = "lattice/mod.rs"]
mod lattice;

use lattice::{arms, check, tuned, Sim, Stepper};
use vpic2::core::Deck;
use vpic2::memsim::platform::by_name;
use vpic2::memsim::push::grid_fits_llc;
use vpic2::tuner::Tuner;

/// Config swaps at epoch boundaries are the tuner's only effect on the
/// simulation, for every epoch length, on every space, tiled and resumed.
#[test]
fn tuned_run_replays_bit_identically() {
    check(tuned(10));
}

/// Long enough to commit, with committed epochs after: every arm explored
/// for an epoch and at least one more epoch closed (which `check` counts)
/// for each epoch length.
#[test]
fn committed_run_replays_bit_identically() {
    let points: Vec<_> = tuned(24).into_iter().take(3).collect();
    for point in &points {
        let Stepper::Sim(Sim { tuned: Some(epoch), .. }) = point.stepper else { unreachable!() };
        assert!((point.steps - 1) / epoch > arms().len(), "{point:?}: no committed epoch");
    }
    check(points);
}

#[test]
fn cache_prior_agrees_with_memsim_and_seeds_sorting_off() {
    // the deck used by `repro -- tune`, measured against real Table-1
    // platform data: when its grid footprint fits the LLC the prior must
    // start the tuner on a "sorting off" arm; the predicate is the very
    // one cluster::scaling uses for the superlinear regime
    let sim = Deck::weibel(8, 8, 8, 6, 0.4).build();
    let small = sim.grid.cells(); // 512 cells ≈ 216 KB: resident everywhere
    let large = 32 * 32 * 32; // ≈ 13.5 MB: spills the V100's 6 MB, fits a 40 MB A100
    for (name, cells, fits) in [
        ("EPYC 7763", small, true),
        ("V100", small, true),
        ("V100", large, false),
        ("A100", large, true),
        ("H100", 200 * 200 * 200, false),
    ] {
        let p = by_name(name).unwrap();
        assert_eq!(grid_fits_llc(&p, cells), fits, "{name}: {cells} cells");
        let t = Tuner::new(arms(), 4).with_cache_prior(grid_fits_llc(&p, cells));
        assert_eq!(
            t.current().order.is_none(),
            fits,
            "{name}: the prior must steer the first explored arm"
        );
    }
}
