//! The tiled execution path's central contract: streaming the step
//! tile-by-tile through a bounded, compressed, optionally disk-spilled
//! pool is **bit-identical** to the classic untiled step — for any tile
//! size, pool size, compression setting, vectorization strategy, and
//! worker count. Plus the engine's steady-state behavior: scratch
//! capacities stop growing after warmup (no per-step allocation), and
//! tuner arms can switch tiling on and off mid-run without perturbing
//! the physics.

use proptest::prelude::*;
use vpic2::core::{Deck, Simulation, TilePolicy};
use vpic2::pk::atomic::ScatterMode;
use vpic2::pk::prelude::*;
use vpic2::tuner::{Config, TileCfg};
use vpic2::vsimd::Strategy as VecStrategy;

/// The untiled reference: same deck, sort-free (canonical array order),
/// stepped serially. The untiled path is itself worker-count- and
/// strategy-invariant, so one serial reference covers every tiled
/// configuration.
fn reference(ppc: usize, strategy: VecStrategy, steps: usize) -> Simulation {
    let mut sim = Deck::weibel(6, 6, 6, ppc, 0.3).build();
    sim.sort_order = None;
    sim.strategy = strategy;
    sim.run(steps);
    sim
}

proptest! {
    /// The headline property: any (tile size, pool size, compression,
    /// strategy, worker count) streams to bit-identical state.
    #[test]
    fn tiled_is_bit_identical_to_untiled(
        ppc in 2usize..5,
        tile_cells in 1usize..300,
        max_hot in 1usize..4,
        compress in any::<bool>(),
        strat_tag in 0usize..4,
        workers in 1usize..9,
        steps in 3usize..8,
    ) {
        let strategy = match strat_tag {
            0 => VecStrategy::Auto,
            1 => VecStrategy::Guided,
            2 => VecStrategy::Manual,
            _ => VecStrategy::AdHoc,
        };
        let want = reference(ppc, strategy, steps);

        let mut tiled = Deck::weibel(6, 6, 6, ppc, 0.3).build();
        tiled.sort_order = None;
        tiled.strategy = strategy;
        let mut policy = TilePolicy::new(tile_cells);
        policy.compress = compress;
        policy.max_hot = max_hot;
        tiled.enable_tiling(policy);
        prop_assert!(tiled.is_tiled());
        let pool = Threads::new(workers);
        tiled.run_on(&pool, steps);
        tiled.disable_tiling();

        assert_eq!(want.bit_diff(&tiled), None);
    }
}

#[test]
fn tiled_matches_untiled_with_duplicated_scatter() {
    let steps = 6;
    let mut want = Deck::weibel(6, 6, 6, 3, 0.3).build();
    want.sort_order = None;
    want.configure_scatter(4, ScatterMode::Duplicated);
    want.run(steps);

    let mut tiled = Deck::weibel(6, 6, 6, 3, 0.3).build();
    tiled.sort_order = None;
    tiled.configure_scatter(4, ScatterMode::Duplicated);
    tiled.enable_tiling(TilePolicy::new(32));
    tiled.run_on(&Threads::new(4), steps);
    tiled.disable_tiling();

    assert_eq!(want.bit_diff(&tiled), None);
}

#[test]
fn spilled_tiles_step_bit_identically() {
    let dir = std::env::temp_dir().join(format!("vpic2-tile-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("spill dir");
    let steps = 5;
    let want = reference(3, VecStrategy::Auto, steps);

    let mut tiled = Deck::weibel(6, 6, 6, 3, 0.3).build();
    tiled.sort_order = None;
    let mut policy = TilePolicy::new(8);
    policy.max_hot = 1; // everything not in the single hot slot spills
    policy.spill_dir = Some(dir.clone());
    tiled.enable_tiling(policy);
    tiled.run(steps);
    let stats = tiled.tile_engine().expect("engine").stats();
    assert!(stats.spill_writes > 0, "spill store never exercised");
    assert!(stats.spill_reads > 0, "spilled tiles never read back");
    tiled.disable_tiling();
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(want.bit_diff(&tiled), None);
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

/// Tuner arms can flip tiling on and off mid-run: the run stays
/// bit-identical to an untiled fixed-config run, and the engine follows
/// the arm's tile size and compression setting.
#[test]
fn tune_config_drives_tiling_without_perturbing_physics() {
    let want = reference(3, VecStrategy::Auto, 10);

    let mut sim = Deck::weibel(6, 6, 6, 3, 0.3).build();
    sim.sort_order = None;
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

    assert_eq!(want.bit_diff(&sim), None);
}
