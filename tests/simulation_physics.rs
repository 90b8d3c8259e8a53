//! Cross-crate integration: full simulations stay physical, and the
//! paper's tuning knobs (strategy, sorting, scatter mode, decomposition)
//! leave them bit for bit the same — slices of the differential lattice
//! (`lattice/mod.rs`).

#[path = "lattice/mod.rs"]
mod lattice;

use lattice::check;
use vpic2::cluster::{systems, MultiRankSim};
use vpic2::core::accumulate::Accumulator;
use vpic2::core::push::push_species_on;
use vpic2::core::{load_interpolators_into, Deck, InterpolatorArray, Simulation};
use vpic2::pk::{Serial, Threads};
use vpic2::psort::SortOrder;

#[test]
fn uniform_deck_conserves_energy_and_charge() {
    let mut sim = Deck::uniform(8, 8, 8, 8).build();
    let q0: f64 = sim.species.iter().map(|s| s.charge()).sum();
    let e0 = sim.energies().total();
    sim.run(40);
    let q1: f64 = sim.species.iter().map(|s| s.charge()).sum();
    let e1 = sim.energies().total();
    assert!((q1 - q0).abs() < 1e-9, "charge is exactly conserved");
    assert!(
        ((e1 - e0) / e0).abs() < 0.05,
        "energy drift {:.3}%",
        100.0 * ((e1 - e0) / e0).abs()
    );
    assert!(sim.gauss_residual() < 1e-3);
    for s in &sim.species {
        s.validate(&sim.grid).unwrap();
    }
}

/// The paper's whole premise: strategy and sorting are performance knobs
/// with no effect on the physics.
#[test]
fn every_strategy_and_sort_combination_agrees() {
    check(lattice::strategies_by_sorts());
}

#[test]
fn scatter_modes_agree_through_a_full_run() {
    check(lattice::scatters());
}

#[test]
fn decomposed_run_is_bit_identical_to_single_domain() {
    check(lattice::sixteen_ranks());
}

#[test]
fn lpi_deck_heats_plasma_and_stays_stable() {
    let mut sim = Deck::lpi(24, 6, 6, 8).build();
    let ke0: f64 = sim.energies().kinetic.iter().sum();
    sim.run(80);
    let snap = sim.energies();
    let ke1: f64 = snap.kinetic.iter().sum();
    assert!(ke1 > ke0, "laser must heat the plasma");
    assert!(ke1.is_finite() && snap.field_e.is_finite());
    for s in &sim.species {
        s.validate(&sim.grid).unwrap();
    }
}

#[test]
fn weibel_converts_kinetic_to_magnetic_energy() {
    let mut sim = Deck::weibel(10, 10, 10, 12, 0.4).build();
    let ke0: f64 = sim.energies().kinetic.iter().sum();
    sim.run(80);
    let snap = sim.energies();
    assert!(snap.field_b > 1e-8, "B field must grow: {}", snap.field_b);
    let ke1: f64 = snap.kinetic.iter().sum();
    assert!(ke1 < ke0, "field energy comes from the beams");
}

/// One step through exactly the public calls the repo benchmark's
/// outside tracer (`benchmark/src/trace.rs`, which tier-1 never compiles)
/// makes, with buffers the caller owns: due sort, interpolator load, J
/// clear + accumulator reset, push per species, unload, laser plane,
/// B½ E B½, step count.
fn step_through_the_public_kernels(
    sim: &mut Simulation,
    acc: &mut Accumulator,
    interp: &mut InterpolatorArray,
    order: SortOrder,
    interval: u64,
) {
    let step = sim.step_count();
    if step.is_multiple_of(interval) {
        for s in sim.species.iter_mut().filter(|s| s.current_order() != Some(order)) {
            s.sort(order);
        }
    }
    load_interpolators_into(&Serial, sim.strategy, &sim.fields, interp);
    sim.fields.clear_j_on(&Serial);
    acc.reset();
    for s in &mut sim.species {
        let stats = push_species_on(&Serial, sim.strategy, &sim.grid, s, interp, acc);
        if stats.crossings > 0 {
            s.mark_unsorted();
        }
    }
    acc.unload_on(&Serial, sim.strategy, &mut sim.fields);
    if let Some(l) = &sim.laser {
        let drive = l.amplitude * (l.omega * sim.time() as f32).sin();
        for iy in 0..sim.grid.ny {
            for iz in 0..sim.grid.nz {
                sim.fields.jz[sim.grid.voxel(l.plane, iy, iz)] += drive;
            }
        }
    }
    sim.fields.advance_b_on(&Serial, sim.strategy, 0.5);
    sim.fields.advance_e_on(&Serial, sim.strategy);
    sim.fields.advance_b_on(&Serial, sim.strategy, 0.5);
    sim.set_step_count(step + 1);
}

#[test]
fn the_public_kernel_seam_reproduces_step_on_bitwise() {
    let (order, interval) = (SortOrder::Standard, 4u64);
    for (name, deck) in [("weibel", Deck::weibel(6, 6, 6, 8, 0.4)), ("lpi", Deck::lpi(12, 4, 4, 4))] {
        let mut stepped = deck.build();
        stepped.sort_order = Some(order);
        stepped.sort_interval = interval as usize;
        let mut driven = deck.build();
        assert_eq!(driven.laser.is_some(), name == "lpi", "{name}: laser");
        let mut acc = Accumulator::new(driven.grid.cells(), 1, driven.scatter_mode);
        let mut interp = InterpolatorArray::new();
        // a sort interval plus one step: two due sorts, drift in between
        for step in 0..=interval {
            stepped.step_on(&Serial);
            step_through_the_public_kernels(&mut driven, &mut acc, &mut interp, order, interval);
            assert_eq!(stepped.bit_diff(&driven), None, "{name} step {step}");
        }
    }
}

/// J is the outside seam's buffer, and no step reads it: a step's E
/// advance takes the current from the accumulator's edge totals. A deck
/// whose J the seam sized and filled with NaN steps to the bits of its
/// twin whose J was never sized, and keeps its NaN, on one lane, on two,
/// and on four ranks (whose partition takes E and B, never J).
#[test]
fn stale_j_is_never_read_by_a_step() {
    for (name, deck) in [("weibel", Deck::weibel(6, 6, 6, 3, 0.3)), ("lpi", Deck::lpi(8, 4, 4, 4))] {
        // a twin with no J, and one whose J the seam sized and made NaN
        let twins = || {
            let (zero, mut nan) = (deck.build(), deck.build());
            assert!(zero.fields.jz.is_empty(), "{name}: a deck has no J");
            nan.fields.clear_j_on(&Serial);
            for j in [&mut nan.fields.jx, &mut nan.fields.jy, &mut nan.fields.jz] {
                j.fill(f32::NAN);
            }
            (zero, nan)
        };
        let (mut zero_serial, mut nan_serial) = twins();
        let (mut zero_threads, mut nan_threads) = twins();
        let (zero, nan) = twins();
        let network = systems::selene().network;
        let mut zero_ranks = MultiRankSim::new(&zero, 4, network);
        let mut nan_ranks = MultiRankSim::new(&nan, 4, network);
        let threads = Threads::new(2);
        for step in 1..=5 {
            zero_serial.step_on(&Serial);
            nan_serial.step_on(&Serial);
            zero_threads.step_on(&threads);
            nan_threads.step_on(&threads);
            zero_ranks.step_on(&Serial);
            nan_ranks.step_on(&Serial);
            if step == 1 || step == 5 {
                for sim in [&nan_serial, &nan_threads] {
                    let j = [&sim.fields.jx, &sim.fields.jy, &sim.fields.jz];
                    assert!(j.iter().all(|j| j.iter().all(|x| x.is_nan())), "{name}: a step wrote J");
                }
                assert_eq!(nan_serial.bit_diff(&zero_serial), None, "{name} Serial, step {step}");
                assert_eq!(nan_threads.bit_diff(&zero_threads), None, "{name} two lanes, step {step}");
                let gathered = nan_ranks.gather();
                assert_eq!(gathered.bit_diff(&zero_ranks.gather()), None, "{name} four ranks, step {step}");
            }
        }
    }
}
