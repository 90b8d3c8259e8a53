//! The adaptive tuner's core contract: tuning is an *observation* layer.
//! Arming it must never change the physics — a tuned run is bit-identical
//! to replaying its recorded per-epoch config schedule with fixed
//! settings — and its cache prior must agree with the `memsim` platform
//! model it is derived from.

use proptest::prelude::*;
use vpic2::core::{Deck, Simulation};
use vpic2::memsim::platform::by_name;
use vpic2::memsim::push::grid_fits_llc;
use vpic2::pk::atomic::ScatterMode;
use vpic2::psort::SortOrder;
use vpic2::tuner::{Config, ScheduleEntry, Tuner};
use vpic2::vsimd::Strategy as VecStrategy;

fn weibel() -> Simulation {
    Deck::weibel(4, 4, 4, 3, 0.3).build()
}

/// A small arm set that still exercises every knob the tuner can touch:
/// sort order, interval, strategy, and scatter mode.
fn arms() -> Vec<Config> {
    vec![
        Config::unsorted(VecStrategy::Auto, ScatterMode::Atomic),
        Config::sorted(SortOrder::Standard, 5, VecStrategy::Guided, ScatterMode::Atomic),
        Config::sorted(
            SortOrder::TiledStrided { tile: 8 },
            3,
            VecStrategy::Manual,
            ScatterMode::Duplicated,
        ),
        Config::sorted(SortOrder::Strided, 5, VecStrategy::AdHoc, ScatterMode::Atomic),
    ]
}

fn replay(schedule: &[ScheduleEntry], steps: usize) -> Simulation {
    let mut sim = weibel();
    for step in 0..steps as u64 {
        for e in schedule.iter().filter(|e| e.step == step) {
            sim.apply_tune_config(&e.config, e.workers);
        }
        sim.step();
    }
    sim
}

proptest! {
    /// For any epoch length and run length, a tuned run and a fixed-config
    /// replay of its recorded schedule produce bit-identical particle
    /// trajectories and fields: config swaps at epoch boundaries are the
    /// tuner's only effect on the simulation.
    #[test]
    fn tuned_run_replays_bit_identically(epoch in 2usize..5, extra in 0usize..7) {
        let arm_set = arms();
        // enough steps to explore every arm and run committed for a while
        let steps = arm_set.len() * epoch + epoch + extra;
        let mut tuned = weibel();
        tuned.set_tuner(Tuner::new(arm_set, epoch));
        for _ in 0..steps {
            tuned.step();
        }
        let tuner = tuned.take_tuner().expect("tuner armed");
        prop_assert!(!tuner.schedule().is_empty());
        let replayed = replay(tuner.schedule(), steps);
        assert_eq!(tuned.bit_diff(&replayed), None);
    }
}

#[test]
fn committed_run_replays_bit_identically() {
    // the non-property pin: long enough to commit, with drift epochs after
    let epoch = 3;
    let arm_set = arms();
    let steps = arm_set.len() * epoch + 4 * epoch;
    let mut tuned = weibel();
    tuned.set_tuner(Tuner::new(arm_set, epoch));
    for _ in 0..steps {
        tuned.step();
    }
    let tuner = tuned.take_tuner().unwrap();
    assert!(tuner.epochs() >= 7);
    let replayed = replay(tuner.schedule(), steps);
    assert_eq!(tuned.bit_diff(&replayed), None);
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
