//! Out-of-core tiled stepping: capacity and throughput (DESIGN §14).
//!
//! Steps a particle population through the tiled engine with a hot pool
//! budgeted far below the population's raw size — tiles live compressed
//! and disk-spilled except for the bounded pool — and reports the
//! capacity ratio (total raw particle bytes over the peak hot-pool raw
//! bytes), sustained pushes/second, the codec's compression ratio, and
//! two correctness gates: identical tiled runs end in the same bits, and
//! the tiled run matches the untiled reference bitwise
//! (`Simulation::bit_diff`). A short adaptive-tuner sweep over tile-size ×
//! compression arms records which configuration the tuner commits.
//!
//! Environment: `TILE_STEPS` (default 20) sets the measured steps.

use crate::env_usize;
use pk::atomic::ScatterMode;
use serde::Serialize;
use tuner::{Config, Tuner};
use vpic_core::{Deck, Simulation, TilePolicy};
use vsimd::Strategy;

/// The `tile` target's result set.
#[derive(Serialize)]
pub struct Report {
    /// Deck the measurements ran on.
    pub deck: String,
    /// Particles stepped.
    pub particles: u64,
    /// Steps measured.
    pub steps: u64,
    /// Tile size (grid cells per tile).
    pub tile_cells: usize,
    /// Cell-range tiles per species.
    pub tile_count: usize,
    /// Hot-pool slots.
    pub max_hot: usize,
    /// Total raw (uncompressed, unspilled) particle bytes, MB.
    pub total_raw_mb: f64,
    /// Peak raw bytes resident in the hot pool, MB.
    pub peak_hot_raw_mb: f64,
    /// `total_raw / peak_hot_raw` — how many times over the in-RAM
    /// budget the stepped population is (the acceptance gate is ≥10×).
    pub capacity_ratio: f64,
    /// Codec compression ratio (raw bytes in / encoded bytes out).
    pub compression_ratio: f64,
    /// Bytes written to the spill store, MB.
    pub spilled_mb: f64,
    /// Tile evictions over the run.
    pub evictions: u64,
    /// Sustained particle pushes per second through the tiled path.
    pub pushes_per_sec: f64,
    /// Two identical tiled runs end bit-identical (the energy ledger
    /// folds the compared arrays, so it is bit-stable too).
    pub energy_bit_stable: bool,
    /// Tiled run bit-identical to the untiled reference.
    pub tiled_matches_untiled: bool,
    /// Label of the configuration the tuner committed when sweeping
    /// tile-size × compression arms (untiled base included).
    pub tuner_chosen: String,
}

/// Weibel deck edge, cells.
const GRID: usize = 12;
/// Particles per cell.
const PPC: usize = 8;
/// Steps per tuner epoch in the tile-arm sweep.
const TUNER_EPOCH: usize = 3;

fn policy(tile_cells: usize, spill: &std::path::Path) -> TilePolicy {
    let mut p = TilePolicy::new(tile_cells);
    p.max_hot = 2;
    p.compress = true;
    p.spill_dir = Some(spill.to_path_buf());
    p
}

/// One tiled run to completion: returns the sim (untiled again, for the
/// ledger) and the engine's lifetime stats.
fn tiled_run(
    deck: &Deck,
    tile_cells: usize,
    spill: &std::path::Path,
    steps: usize,
) -> (Simulation, vpic_core::TileStats, f64) {
    let mut sim = deck.build();
    sim.sort_order = None;
    sim.enable_tiling(policy(tile_cells, spill));
    let t0 = std::time::Instant::now();
    sim.run(steps);
    let wall = t0.elapsed().as_secs_f64();
    let stats = sim.tile_engine().expect("engine").stats();
    sim.disable_tiling();
    (sim, stats, wall)
}

/// Run the out-of-core capacity/throughput measurement and print the
/// summary table.
pub fn run() -> Report {
    let steps = env_usize("TILE_STEPS", 20);
    let deck = Deck::weibel(GRID, GRID, GRID, PPC, 0.3);
    let cells = GRID * GRID * GRID;
    // tile the grid so the 2-slot hot pool holds well under a tenth of
    // the population: ≥ 32 tiles → capacity ratio ≥ 16 at uniform
    // occupancy
    let tile_cells = (cells / 32).max(1);

    let dir = std::env::temp_dir().join(format!("vpic2-tile-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("spill dir");

    // measured tiled run + an identical twin for bit-stability
    let (sim_a, stats, wall) = tiled_run(&deck, tile_cells, &dir, steps);
    let (sim_b, _, _) = tiled_run(&deck, tile_cells, &dir, steps);
    let energy_bit_stable = sim_a.bit_diff(&sim_b).is_none();

    // untiled sort-free reference: the state must agree bitwise
    let mut reference = deck.build();
    reference.sort_order = None;
    reference.run(steps);
    let tiled_matches_untiled = reference.bit_diff(&sim_a).is_none();

    let particles = sim_a.particle_count() as u64;
    let total_raw = particles * ptile_raw_bytes();
    let capacity_ratio = if stats.peak_hot_raw_bytes > 0 {
        total_raw as f64 / stats.peak_hot_raw_bytes as f64
    } else {
        0.0
    };
    let compression_ratio = if stats.encoded_bytes > 0 {
        stats.raw_bytes_encoded as f64 / stats.encoded_bytes as f64
    } else {
        0.0
    };

    // short adaptive sweep: untiled base + tile-size × compression arms
    let tuner_chosen = {
        let mut sim = deck.build();
        sim.sort_order = None;
        sim.set_tile_defaults(policy(tile_cells, &dir));
        let base = Config::unsorted(Strategy::Auto, ScatterMode::Atomic);
        let arms = tuner::tile_arms(&[base], &[tile_cells / 2, tile_cells, tile_cells * 2]);
        let n_arms = arms.len();
        sim.set_tuner(Tuner::new(arms, TUNER_EPOCH));
        sim.run(TUNER_EPOCH * (n_arms + 2));
        let tuner = sim.take_tuner().expect("tuner armed");
        let chosen = tuner.committed().copied().unwrap_or(*tuner.current());
        sim.disable_tiling();
        chosen.label()
    };
    std::fs::remove_dir_all(&dir).ok();

    let report = Report {
        deck: format!("weibel {GRID}x{GRID}x{GRID} ppc={PPC}"),
        particles,
        steps: steps as u64,
        tile_cells,
        tile_count: cells.div_ceil(tile_cells),
        max_hot: 2,
        total_raw_mb: total_raw as f64 / 1e6,
        peak_hot_raw_mb: stats.peak_hot_raw_bytes as f64 / 1e6,
        capacity_ratio,
        compression_ratio,
        spilled_mb: stats.spilled_bytes as f64 / 1e6,
        evictions: stats.evictions,
        pushes_per_sec: if wall > 0.0 {
            particles as f64 * steps as f64 / wall
        } else {
            0.0
        },
        energy_bit_stable,
        tiled_matches_untiled,
        tuner_chosen,
    };

    println!("out-of-core tiled stepping — {} ({} particles)", report.deck, report.particles);
    println!("  tiles               {:>10}  ({} cells each)", report.tile_count, report.tile_cells);
    println!("  population          {:>10.2} MB raw", report.total_raw_mb);
    println!("  hot-pool peak       {:>10.2} MB raw", report.peak_hot_raw_mb);
    println!("  capacity ratio      {:>10.1}x  (gate: >= 10x)", report.capacity_ratio);
    println!("  compression         {:>10.2}x", report.compression_ratio);
    println!("  spilled             {:>10.2} MB  ({} evictions)", report.spilled_mb, report.evictions);
    println!("  throughput          {:>10.0} pushes/s", report.pushes_per_sec);
    println!("  ledger bit-stable:  {}", report.energy_bit_stable);
    println!("  matches untiled:    {}", report.tiled_matches_untiled);
    println!("  tuner committed:    {}", report.tuner_chosen);
    assert!(report.capacity_ratio >= 10.0, "population must exceed 10x the hot budget");
    assert!(report.energy_bit_stable, "tiled ledger must be bit-stable");
    assert!(report.tiled_matches_untiled, "tiled must match untiled bitwise");
    report
}

/// Raw particle-record bytes in the tile codec's uncompressed layout.
fn ptile_raw_bytes() -> u64 {
    ptile::RAW_PARTICLE_BYTES as u64
}
