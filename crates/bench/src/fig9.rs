//! Figure 9 — particle pushes per nanosecond vs grid size (sorting
//! disabled, fixed particle count) on V100, A100, and MI300A.
//!
//! The paper's cache cliff: each GPU peaks where its grid's per-cell data
//! (≈432 B, see `memsim::push::CELL_FOOTPRINT_BYTES`) just fills the LLC
//! — 13,824 points on V100, 85,184 on A100 — and collapses on tiny grids
//! where colliding atomic writes serialize. Grid sizes are modelled at
//! full scale (real LLC capacities), so the peak *locations* are directly
//! comparable to the paper's.

use memsim::gpu::GpuModel;
use memsim::push::{gpu_push, PushSpec};
use psort::patterns::random_cells;
use serde::Serialize;

/// Fixed particle count for the sweep.
pub(crate) const PARTICLES: usize = 150_000;

/// The GPUs of Figure 9 and their paper peak grid sizes.
pub(crate) const GPUS: [(&str, usize, f64); 3] = [
    ("V100", 13_824, 4.0),
    ("A100", 85_184, 6.0),
    ("MI300A (GPU)", 39_304, 9.0),
];

/// One point of a Fig 9 series.
#[derive(Debug, Clone, Serialize)]
pub struct Fig9Point {
    /// GPU platform.
    pub platform: String,
    /// Grid points.
    pub grid_cells: usize,
    /// Pushes per nanosecond (the paper's y-axis).
    pub pushes_per_ns: f64,
}

/// Grid sizes swept: cubes from 8³ up to 128³ plus each paper peak.
pub(crate) fn grid_sweep() -> Vec<usize> {
    let mut grids: Vec<usize> = [8usize, 12, 16, 20, 24, 28, 32, 40, 44, 52, 64, 80, 96, 128]
        .iter()
        .map(|&n| n * n * n)
        .collect();
    for (_, peak, _) in GPUS {
        grids.push(peak);
    }
    grids.sort_unstable();
    grids.dedup();
    grids
}

/// Model one (platform, grid) point.
pub(crate) fn point(platform_name: &str, grid_cells: usize) -> Fig9Point {
    let platform = memsim::platform::by_name(platform_name).expect("known GPU");
    let cells = random_cells(PARTICLES, grid_cells, 0xF19 + grid_cells as u64);
    let model = GpuModel::new(platform);
    let cost = gpu_push(&model, &PushSpec::vpic(&cells, grid_cells));
    Fig9Point {
        platform: platform_name.to_string(),
        grid_cells,
        pushes_per_ns: cost.pushes_per_ns,
    }
}

/// Produce and print Figure 9.
pub fn run() -> Vec<Fig9Point> {
    println!("Figure 9 — pushes/ns vs grid size (sorting disabled, {PARTICLES} particles)");
    let grids = grid_sweep();
    let mut all = Vec::new();
    print!("{:>10}", "cells");
    for (gpu, _, _) in GPUS {
        print!(" {gpu:>14}");
    }
    println!();
    let mut series: Vec<Vec<Fig9Point>> = GPUS
        .iter()
        .map(|(gpu, _, _)| grids.iter().map(|&g| point(gpu, g)).collect())
        .collect();
    for (gi, &g) in grids.iter().enumerate() {
        print!("{g:>10}");
        for s in &series {
            print!(" {:>14.2}", s[gi].pushes_per_ns);
        }
        println!();
    }
    for ((gpu, paper_peak, paper_rate), s) in GPUS.iter().zip(&series) {
        let best = s
            .iter()
            .max_by(|a, b| a.pushes_per_ns.total_cmp(&b.pushes_per_ns))
            .unwrap();
        println!(
            "{gpu}: model peak {:.1} pushes/ns at {} cells (paper: ~{} at {})",
            best.pushes_per_ns, best.grid_cells, paper_rate, paper_peak
        );
    }
    for s in &mut series {
        all.append(s);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::OnceLock;

    /// The grid size at which a platform's cell data exactly fills its LLC.
    fn cache_capacity_cells(platform_name: &str) -> usize {
        let p = memsim::platform::by_name(platform_name).expect("known GPU");
        (p.llc_bytes / memsim::push::CELL_FOOTPRINT_BYTES) as usize
    }

    fn series(platform: &str) -> &'static [Fig9Point] {
        static CACHE: OnceLock<HashMap<&'static str, Vec<Fig9Point>>> = OnceLock::new();
        let all = CACHE.get_or_init(|| {
            GPUS.iter()
                .map(|&(gpu, _, _)| {
                    (gpu, grid_sweep().into_iter().map(|g| point(gpu, g)).collect())
                })
                .collect()
        });
        &all[platform]
    }

    #[test]
    fn paper_peak_grid_sits_in_the_models_top_band() {
        if crate::skip_heavy_in_debug() {
            return;
        }
        for (gpu, paper_peak, _) in GPUS {
            let s = series(gpu);
            let best = s
                .iter()
                .map(|p| p.pushes_per_ns)
                .fold(0.0, f64::max);
            let at_paper = s
                .iter()
                .find(|p| p.grid_cells == paper_peak)
                .unwrap()
                .pushes_per_ns;
            assert!(
                at_paper > 0.7 * best,
                "{gpu}: the paper's peak grid ({paper_peak}) must be near the model's \
                 best: {at_paper:.2} vs {best:.2} pushes/ns"
            );
        }
    }

    #[test]
    fn performance_falls_beyond_the_cache() {
        if crate::skip_heavy_in_debug() {
            return;
        }
        for (gpu, _, _) in GPUS {
            let s = series(gpu);
            let cap = cache_capacity_cells(gpu);
            let at_cap = s
                .iter()
                .filter(|p| p.grid_cells <= cap)
                .map(|p| p.pushes_per_ns)
                .fold(0.0, f64::max);
            // grids well beyond capacity must be clearly slower
            let beyond: Vec<&Fig9Point> =
                s.iter().filter(|p| p.grid_cells >= 4 * cap).collect();
            for p in beyond {
                assert!(
                    p.pushes_per_ns < 0.8 * at_cap,
                    "{gpu}: {} cells should overflow the LLC: {:.2} vs {:.2}",
                    p.grid_cells,
                    p.pushes_per_ns,
                    at_cap
                );
            }
        }
    }

    #[test]
    fn tiny_grids_collapse_under_colliding_writes() {
        if crate::skip_heavy_in_debug() {
            return;
        }
        for (gpu, _, _) in GPUS {
            let s = series(gpu);
            let best = s.iter().map(|p| p.pushes_per_ns).fold(0.0, f64::max);
            let tiny = s.first().unwrap(); // 512 cells
            assert!(
                tiny.pushes_per_ns < best,
                "{gpu}: very high particles-per-cell must hurt (Fig 9 left edge)"
            );
        }
    }

    #[test]
    fn a100_peak_grid_is_about_6x_v100s() {
        if crate::skip_heavy_in_debug() {
            return;
        }
        // paper: "For the A100, the peak grid size is about 6× that of
        // the V100, matching its cache increase"
        let v = cache_capacity_cells("V100");
        let a = cache_capacity_cells("A100");
        let ratio = a as f64 / v as f64;
        assert!((5.0..8.0).contains(&ratio), "cache-capacity ratio {ratio}");
    }

    #[test]
    fn peak_rates_ordered_v100_a100_mi300a() {
        if crate::skip_heavy_in_debug() {
            return;
        }
        // paper: ~4, ~6, ~9 pushes/ns
        let peaks: Vec<f64> = GPUS
            .iter()
            .map(|(gpu, _, _)| {
                series(gpu)
                    .iter()
                    .map(|p| p.pushes_per_ns)
                    .fold(0.0, f64::max)
            })
            .collect();
        assert!(peaks[0] < peaks[1], "V100 < A100: {peaks:?}");
        assert!(peaks[1] < peaks[2], "A100 < MI300A: {peaks:?}");
        assert!((1.0..=16.0).contains(&peaks[0]), "V100 magnitude: {peaks:?}");
        assert!((2.0..=25.0).contains(&peaks[1]), "A100 magnitude: {peaks:?}");
        assert!((3.0..=40.0).contains(&peaks[2]), "MI300A magnitude: {peaks:?}");
    }
}
