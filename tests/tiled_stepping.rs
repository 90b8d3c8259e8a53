//! The tiled execution path's central contract: streaming the step
//! tile-by-tile through a bounded, compressed, optionally disk-spilled
//! pool is **bit-identical** to the classic untiled step — for any tile
//! size, pool size, compression setting, vectorization strategy, and
//! worker count (slices of the differential lattice, `lattice/mod.rs`).
//! Plus the engine's steady-state behavior: scratch capacities stop
//! growing after warmup (no per-step allocation), and tuner arms switch
//! tiling on and off mid-run on the arm's policy.

#[path = "lattice/mod.rs"]
mod lattice;

use lattice::{check, reference, DeckKind, Store};
use vpic2::core::{Deck, Simulation, TilePolicy};
use vpic2::pk::atomic::ScatterMode;
use vpic2::tuner::{Config, TileCfg};
use vpic2::vsimd::Strategy as VecStrategy;

#[test]
fn tiled_is_bit_identical_to_untiled() {
    check([Store::Raw, Store::Compressed].into_iter().flat_map(lattice::tiled));
}

#[test]
fn tiled_matches_untiled_with_duplicated_scatter() {
    check(lattice::tiled_duplicated());
}

#[test]
fn spilled_tiles_step_bit_identically() {
    check(lattice::tiled(Store::Spilled));
}

/// Tile pool no-alloc steady state: once the engine has cycled every
/// tile through the pool a few times, its scratch capacities stop
/// growing — later steps recycle buffers instead of allocating.
#[test]
fn tile_pool_reaches_a_no_alloc_steady_state() {
    let mut sim = Deck::weibel(6, 6, 6, 4, 0.3).build();
    sim.sort_order = None;
    let mut policy = TilePolicy::new(24);
    policy.max_hot = 2;
    sim.enable_tiling(policy);
    // buffers migrate between pool slots, codec scratch, and the
    // pending/arrival queues via vector swaps, so capacity travels with
    // the buffer; an allocation-free steady state conserves the
    // *multiset* of capacities (a Vec's capacity never shrinks, and
    // growth would change the sorted profile)
    let profile = |sim: &Simulation| {
        let mut caps = sim.tile_engine().expect("engine").scratch_capacities();
        caps.sort_unstable();
        caps
    };
    // warmup: step until the profile has been flat for 10 consecutive
    // steps (every tile rotated through every pool slot, migrant queues
    // grown to cover the step-to-step flux) — deterministic, so the
    // plateau is always reached at the same step
    let mut warm = profile(&sim);
    let mut flat = 0;
    for _ in 0..120 {
        sim.step();
        let now = profile(&sim);
        if now == warm {
            flat += 1;
            if flat >= 10 {
                break;
            }
        } else {
            warm = now;
            flat = 0;
        }
    }
    assert!(flat >= 10, "scratch capacities never reached a steady state");
    for step in 0..6 {
        sim.step();
        assert_eq!(profile(&sim), warm, "scratch capacities grew after warmup (step {step})");
    }
    sim.disable_tiling();
}

/// Tuner arms can flip tiling on and off mid-run: the engine follows the
/// arm's tile size and compression setting, and the run is still the
/// lattice's untiled reference.
#[test]
fn tune_config_drives_tiling_without_perturbing_physics() {
    let mut sim = DeckKind::Weibel.deck().build();
    let mut defaults = TilePolicy::new(512);
    defaults.max_hot = 3;
    sim.set_tile_defaults(defaults);
    let base = Config::unsorted(VecStrategy::Auto, ScatterMode::Atomic);
    sim.run(3);
    // arm with a 16-cell uncompressed tile config
    let arm = Config { tile: Some(TileCfg { tile_cells: 16, compress: false }), ..base };
    sim.apply_tune_config(&arm, 1);
    assert!(sim.is_tiled());
    let engine = sim.tile_engine().expect("engine");
    assert_eq!(engine.policy().tile_cells, 16);
    assert!(!engine.policy().compress);
    assert_eq!(engine.policy().max_hot, 3, "pool defaults must carry into the arm's policy");
    sim.run(4);
    // re-applying the same arm must not rebuild the engine
    sim.apply_tune_config(&arm, 1);
    assert!(sim.is_tiled());
    // back to the untiled arm
    sim.apply_tune_config(&base, 1);
    assert!(!sim.is_tiled());
    sim.run(3);

    assert_eq!(reference(DeckKind::Weibel, 10).0.bit_diff(&sim), None);
}
