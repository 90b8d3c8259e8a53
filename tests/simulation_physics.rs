//! Cross-crate integration: full simulations stay physical under every
//! combination of the paper's tuning knobs (strategy, sorting, scatter
//! mode, decomposition).

use vpic2::cluster::{systems, MultiRankSim};
use vpic2::core::Deck;
use vpic2::pk::atomic::ScatterMode;
use vpic2::psort::SortOrder;
use vpic2::vsimd::Strategy;

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

#[test]
fn every_strategy_and_sort_combination_agrees() {
    // the paper's whole premise: strategy and sorting are performance
    // knobs with no effect on the physics
    let reference = {
        let mut sim = Deck::lpi(12, 6, 6, 8).build();
        sim.run(15);
        sim.energies().total()
    };
    for strategy in Strategy::ALL {
        for order in [None, Some(SortOrder::Standard), Some(SortOrder::Strided)] {
            let mut sim = Deck::lpi(12, 6, 6, 8).build();
            sim.strategy = strategy;
            sim.sort_order = order;
            sim.sort_interval = 5;
            sim.run(15);
            let e = sim.energies().total();
            let rel = ((e - reference) / reference).abs();
            assert!(
                rel < 2e-2,
                "{strategy}/{order:?}: energy diverged by {rel:.2e}"
            );
        }
    }
}

#[test]
fn scatter_modes_agree_through_a_full_run() {
    let run_with = |mode| {
        let mut sim = Deck::weibel(6, 6, 8, 8, 0.3).build();
        sim.configure_scatter(4, mode);
        sim.run(20);
        sim.energies().total()
    };
    let a = run_with(ScatterMode::Atomic);
    let d = run_with(ScatterMode::Duplicated);
    assert!(((a - d) / a).abs() < 1e-6, "{a} vs {d}");
}

#[test]
fn decomposed_run_is_bit_identical_to_single_domain() {
    let mut plain = Deck::uniform(8, 8, 8, 6).build();
    let mut decomposed = MultiRankSim::new(&plain, 16, systems::selene().network);
    let mut total_migrants = 0;
    for _ in 0..10 {
        plain.step();
        let (_, m, _) = decomposed.step();
        total_migrants += m.migrants;
    }
    let gathered = decomposed.gather();
    assert_eq!(
        plain.energies().total(),
        gathered.energies().total(),
        "decomposition must not perturb physics"
    );
    for (a, b) in plain.species.iter().zip(&gathered.species) {
        assert_eq!(a.cell, b.cell);
        assert_eq!(a.ux, b.ux);
    }
    assert!(total_migrants > 0, "particles do cross rank boundaries");
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
