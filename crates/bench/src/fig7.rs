//! Figure 7 — impact of sorting order on the VPIC particle push across
//! four GPU architectures.
//!
//! The cell sequences are real: an LPI-like particle population is
//! ordered by each of the four sorts (`psort`), and the `memsim` push
//! model executes the resulting gather/scatter streams. Paper shapes:
//! strided >2× faster than standard on NVIDIA, tiled ≈2× strided; on AMD,
//! random and standard are an order of magnitude (or more) slower than
//! strided/tiled.

use memsim::gpu::GpuModel;
use memsim::push::{gpu_push, PushCost, PushSpec};
use psort::patterns::random_cells;
use psort::{sort_pairs, SortOrder};
use serde::Serialize;

/// Grid cells for the modelled push (big enough that per-cell data does
/// not fit any GPU's scaled LLC).
pub(crate) const GRID_CELLS: usize = 1 << 15;

/// Particles (≈6 per cell, LPI-like occupancy).
pub(crate) const PARTICLES: usize = 200_000;

/// Problem scale: the paper's LPI runs use grids ~100× larger.
pub(crate) const SCALE: f64 = 100.0;

/// The four GPUs of Figure 7.
pub(crate) const GPUS: [&str; 4] = ["V100", "A100", "MI250", "MI300A (GPU)"];

/// One bar of Figure 7.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7Row {
    /// GPU platform.
    pub platform: String,
    /// Particle order.
    pub order: String,
    /// Modelled push time, seconds.
    pub time: f64,
    /// Speedup over the standard order on the same GPU.
    pub speedup_vs_standard: f64,
}

/// Cell sequence for one order (shared across platforms).
pub(crate) fn ordered_cells(order: SortOrder) -> Vec<u32> {
    let mut cells = random_cells(PARTICLES, GRID_CELLS, 0xF167);
    let mut idx: Vec<u32> = (0..PARTICLES as u32).collect();
    sort_pairs(order, &mut cells, &mut idx);
    cells
}

/// Model one (platform, order) cell.
pub(crate) fn push_cost(platform_name: &str, order: SortOrder) -> PushCost {
    let platform = memsim::platform::by_name(platform_name).expect("known GPU");
    let cells = ordered_cells(order);
    let model = GpuModel::scaled(platform, SCALE);
    gpu_push(&model, &PushSpec::vpic(&cells, GRID_CELLS))
}

/// Tile size for the push: half the (scaled) LLC's worth of cells, so a
/// tile's interpolator+accumulator working set is cache-resident with
/// headroom (the paper's 3×cores rule has the same intent — fill the
/// cache — expressed in its gather-scatter element size).
pub(crate) fn tile_for(platform_name: &str) -> usize {
    let p = memsim::platform::by_name(platform_name).expect("known GPU");
    let scaled_llc = p.llc_bytes as f64 / SCALE;
    let cells = scaled_llc / (2.0 * memsim::push::CELL_FOOTPRINT_BYTES as f64);
    (cells as usize).clamp(16, GRID_CELLS / 4)
}

/// Produce and print Figure 7.
pub fn run() -> Vec<Fig7Row> {
    println!("Figure 7 — push time by sorting order (modelled GPUs, real orders)");
    println!(
        "{:<14} {:>11} {:>11} {:>11} {:>11}   speedup(tiled/std)",
        "platform", "random", "standard", "strided", "tiled"
    );
    let mut rows = Vec::new();
    for gpu in GPUS {
        let tile = tile_for(gpu);
        let orders = SortOrder::fig7_set(tile);
        let times: Vec<f64> = orders.iter().map(|&o| push_cost(gpu, o).cost.time).collect();
        let std_time = times[1];
        for (o, &t) in orders.iter().zip(&times) {
            rows.push(Fig7Row {
                platform: gpu.to_string(),
                order: o.name().to_string(),
                time: t,
                speedup_vs_standard: std_time / t,
            });
        }
        println!(
            "{:<14} {:>11} {:>11} {:>11} {:>11}   {:.1}x",
            gpu,
            crate::fmt_time(times[0]),
            crate::fmt_time(times[1]),
            crate::fmt_time(times[2]),
            crate::fmt_time(times[3]),
            std_time / times[3]
        );
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn time_of(rows: &[Fig7Row], p: &str, o: &str) -> f64 {
        rows.iter().find(|r| r.platform == p && r.order == o).unwrap().time
    }

    #[test]
    fn nvidia_strided_beats_standard_by_2x() {
        if crate::skip_heavy_in_debug() {
            return;
        }
        let rows = run();
        for p in ["V100", "A100"] {
            let std_t = time_of(&rows, p, "standard");
            let str_t = time_of(&rows, p, "strided");
            assert!(
                std_t / str_t > 2.0,
                "{p}: paper says strided >2x faster (got {:.2}x)",
                std_t / str_t
            );
            let til_t = time_of(&rows, p, "tiled-strided");
            assert!(til_t < str_t, "{p}: tiled must beat strided");
        }
    }

    #[test]
    fn amd_random_and_standard_are_much_slower() {
        if crate::skip_heavy_in_debug() {
            return;
        }
        let rows = run();
        {
            let p = "MI250";
            let rnd = time_of(&rows, p, "random");
            let std_t = time_of(&rows, p, "standard");
            let best = time_of(&rows, p, "tiled-strided").min(time_of(&rows, p, "strided"));
            assert!(
                rnd / best > 5.0 && std_t / best > 5.0,
                "{p}: paper says random/standard are >>slower: rnd {:.1}x std {:.1}x",
                rnd / best,
                std_t / best
            );
        }
    }

    #[test]
    fn headline_speedup_up_to_37x_is_in_range() {
        if crate::skip_heavy_in_debug() {
            return;
        }
        // conclusion: "up to 37× faster than using the standard sorting
        // order on GPUs" — the best (platform, order) speedup should be
        // of that magnitude (within a factor ~3)
        let rows = run();
        let best = rows
            .iter()
            .map(|r| r.speedup_vs_standard)
            .fold(0.0, f64::max);
        assert!((5.0..120.0).contains(&best), "best speedup {best}");
    }

    #[test]
    fn the_chosen_tile_beats_a_cache_overflowing_one() {
        if crate::skip_heavy_in_debug() {
            return;
        }
        // half the scaled LLC against four times it
        let time = |tile| push_cost("A100", SortOrder::TiledStrided { tile }).cost.time;
        let tile = tile_for("A100");
        assert!(time(tile) < time(8 * tile), "tile {tile} must beat {}", 8 * tile);
    }

    #[test]
    fn ordered_cells_are_permutations() {
        if crate::skip_heavy_in_debug() {
            return;
        }
        let base = {
            let mut b = ordered_cells(SortOrder::Standard);
            b.sort_unstable();
            b
        };
        for order in SortOrder::fig7_set(64) {
            let mut c = ordered_cells(order);
            c.sort_unstable();
            assert_eq!(c, base, "{order} changed the population");
        }
    }
}
