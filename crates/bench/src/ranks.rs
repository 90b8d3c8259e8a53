//! Executed multi-rank stepping vs the closed-form overlap model.
//!
//! Drives [`cluster::MultiRankSim`] over the LLC-resident Weibel deck at
//! 1/2/4/8 virtual ranks and reports, per rank count: the executed mean
//! step time (real per-rank kernels + real halo exchange, network time
//! from the α–β model), the fraction of modeled exchange hidden behind
//! interior compute, and the executed speedup next to the closed-form
//! prediction `T(N) = T(1)/N + exposed(N)`
//! ([`cluster::scaling::overlap_model_step_s`], pinned on fixed numbers
//! by tier-1; how the two compare is reported, never asserted). That step
//! time is *virtual* — the slowest rank's compute plus its exposed
//! exchange, as if every rank had a device of its own — and is taken
//! from ranks stepped in turn, which is what keeps one rank's compute
//! wall free of another's time slices. Beside it, in `host_wall_*`
//! columns, is what this host executed: the measured wall of a step with
//! the ranks in turn on the calling thread (`step_on(&Serial)`) and at
//! the same time on the simulator's own pool (`step()`). CI runs the
//! target and uploads `results/ranks.json`.
//!
//! The sweep also arms each `MultiRankSim` with a scaled V100
//! [`GpuModel`]: every rank's executed cell streams are charged through
//! the `memsim` push model, and the per-rank-count modeled compute time
//! exhibits the paper's §6 superlinear regime — as the per-rank working
//! set approaches the (scaled) LLC, partial reuse pushes the modeled
//! speedup over ideal, and the full fit is an unmistakable cliff. The
//! crossing is reported in `results/ranks.json` under
//! `gpu.superlinear_at`.

use cluster::scaling::overlap_model_step_s;
use cluster::{systems, MultiRankSim};
use memsim::gpu::GpuModel;
use memsim::push::grid_footprint_bytes;
use serde::Serialize;
use std::time::Instant;
use vpic_core::Deck;

/// Rank counts the sweep executes.
pub(crate) const RANK_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Platform the per-rank GPU cost model charges against.
pub(crate) const GPU_PLATFORM: &str = "V100";

/// LLC shrink applied to [`GPU_PLATFORM`]: 6 MB / 10 ≈ 614 KiB. The
/// gather working set each rank's push actually touches is its *owned*
/// cells (particles never sit in ghost cells once migration drains
/// them): 16³ over 1/2/4/8 ranks gives 1.77 MB / 886 KB / 443 KB /
/// 221 KB at 432 B per cell — outside the scaled cache at 1–2 ranks,
/// fully inside from 4 on. Partial reuse starts the superlinear
/// crossing at 2 ranks; the full fit at 4 is the cliff the test pins.
pub(crate) const GPU_SCALE: f64 = 10.0;

/// One rank count's modeled-GPU numbers.
#[derive(Debug, Clone, Serialize)]
pub struct GpuRankPoint {
    /// Virtual ranks stepped.
    pub ranks: usize,
    /// Largest per-rank local grid, cells (ghosts included).
    pub rank_cells: usize,
    /// Owned (interior) cells per rank — the gather working set the
    /// push stream actually touches.
    pub owned_cells: usize,
    /// Whether the owned-cell push footprint fits the scaled LLC.
    pub in_cache: bool,
    /// Mean per-step modeled GPU compute of the slowest rank, s.
    pub mean_gpu_compute_s: f64,
    /// Mean per-step modeled GPU step (compute + exposed exchange), s.
    pub mean_gpu_step_s: f64,
    /// Modeled speedup vs the 1-rank modeled compute.
    pub speedup_gpu: f64,
    /// Ideal linear speedup (= ranks).
    pub speedup_ideal: f64,
}

/// The GPU-model arm of the `ranks` target.
#[derive(Debug, Clone, Serialize)]
pub struct GpuRanksReport {
    /// Platform charged.
    pub platform: String,
    /// LLC shrink factor.
    pub scale: f64,
    /// The scaled LLC, bytes.
    pub scaled_llc_bytes: u64,
    /// Per rank count.
    pub points: Vec<GpuRankPoint>,
    /// First rank count whose modeled speedup exceeds ideal — the
    /// superlinear knee (None if the sweep never crosses). The crossing
    /// starts no later than the first fully-in-cache point: LRU reuse
    /// ramps up smoothly as the working set approaches the LLC.
    pub superlinear_at: Option<usize>,
}

/// One executed rank-count point.
#[derive(Debug, Clone, Serialize)]
pub struct RankPoint {
    /// Virtual ranks stepped.
    pub ranks: usize,
    /// Measured steps (after warmup).
    pub steps: usize,
    /// Mean executed step: max over ranks of compute + exposed exchange, s.
    pub mean_step_s: f64,
    /// Mean per-step compute wall of the slowest rank, s.
    pub mean_compute_s: f64,
    /// Lanes `MultiRankSim::step` ran the ranks over on this host:
    /// `min(ranks, available parallelism)`.
    pub host_workers: usize,
    /// Mean measured wall of `step_on(&Serial)`, the ranks in turn on the
    /// calling thread, s.
    pub host_wall_serial_s: f64,
    /// Mean measured wall of `step()`, the ranks at the same time on
    /// `host_workers` lanes, s.
    pub host_wall_pool_s: f64,
    /// Σ modeled exchange time across ranks and steps, s.
    pub modeled_exchange_s: f64,
    /// Σ exchange time not hidden behind overlapped compute, s.
    pub exposed_exchange_s: f64,
    /// Fraction of modeled exchange hidden by the overlap schedule.
    pub hidden_fraction: f64,
    /// Executed speedup vs the 1-rank executed step.
    pub speedup_exec: f64,
    /// Closed-form speedup: `T(1) / (T(1)/N + mean exposed per rank)`.
    pub speedup_model: f64,
    /// Ideal linear speedup (= ranks).
    pub speedup_ideal: f64,
}

/// The `ranks` target's result set.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Deck description.
    pub deck: String,
    /// Global grid.
    pub grid: (usize, usize, usize),
    /// Particles per cell.
    pub ppc: usize,
    /// Interconnect modeled (Selene: GPU-aware α–β).
    pub network: String,
    /// Executed sweep points.
    pub points: Vec<RankPoint>,
    /// Hidden fraction aggregated over the multi-rank points — the
    /// overlap-effectiveness headline (acceptance: ≥ 0.5 on this deck).
    pub hidden_fraction_overall: f64,
    /// The per-rank modeled GPU costs and the superlinear knee.
    pub gpu: GpuRanksReport,
}

/// Execute the sweep. `steps` measured steps per rank count after
/// `warmup` unmeasured ones.
pub(crate) fn sweep(grid: (usize, usize, usize), ppc: usize, warmup: usize, steps: usize) -> Report {
    let network = systems::selene().network;
    let reference = Deck::weibel(grid.0, grid.1, grid.2, ppc, 0.3).build();
    let gpu_platform =
        memsim::platform::by_name(GPU_PLATFORM).expect("known GPU platform");
    let gpu_model = GpuModel::scaled(gpu_platform, GPU_SCALE);
    let scaled_llc = gpu_model.llc_bytes();
    let mut points = Vec::new();
    let mut gpu_points = Vec::new();
    let mut t1 = f64::NAN;
    let mut gpu1 = f64::NAN;
    let mut hidden_sum = 0.0;
    let mut modeled_sum = 0.0;
    // every rank keeps its particles in strided order (the GPUs' winning
    // order, re-sorted each step) and deposits through a duplicated
    // accumulator. Strided order makes the modeled gather stream a
    // cyclic sweep of the rank's cells — it misses everything while the
    // grid exceeds the scaled LLC and hits everything once it fits — and
    // duplicated deposition removes the atomic-replay floor that would
    // otherwise hide the cache transition (per-cell occupancy, which the
    // replay term scales with, is invariant under rank splitting). The
    // result is the sharp knee of the paper's §6 superlinear regime.
    let strided = tuner::Config::sorted(
        psort::SortOrder::Strided,
        1,
        vsimd::Strategy::Auto,
        pk::atomic::ScatterMode::Duplicated,
    );
    for &ranks in &RANK_COUNTS {
        let configured = || {
            let mut mr = MultiRankSim::new(&reference, ranks, network);
            for r in 0..ranks {
                mr.set_rank_config(r, &strided);
            }
            mr
        };
        // what the host executed: no cost model armed (its evaluation is
        // wall time too), the two ways of running a step alternating, and
        // five times the steps — a shared host's millisecond steps jitter
        let (mut in_turn, mut at_once) = (configured(), configured());
        let (mut wall_serial, mut wall_pool) = (0.0, 0.0);
        let host_steps = 5 * steps;
        for step in 0..warmup + host_steps {
            let t = Instant::now();
            in_turn.step_on(&pk::Serial);
            let serial = t.elapsed().as_secs_f64();
            let t = Instant::now();
            at_once.step();
            let pool = t.elapsed().as_secs_f64();
            if step >= warmup {
                wall_serial += serial;
                wall_pool += pool;
            }
        }
        // the virtual columns and the cost model read per-rank compute
        // walls, so this sweep steps its ranks in turn: on a host with
        // fewer free cores than lanes, ranks that share a core would each
        // read the other's time slices as compute
        let mut mr = configured();
        mr.set_gpu_model(gpu_model.clone());
        for _ in 0..warmup {
            mr.step_on(&pk::Serial);
        }
        let mut step_s = 0.0;
        let mut compute_s = 0.0;
        let mut modeled = 0.0;
        let mut exposed = 0.0;
        let mut gpu_compute = 0.0;
        let mut gpu_step = 0.0;
        for _ in 0..steps {
            let (_, _, t) = mr.step_on(&pk::Serial);
            step_s += t.step_s;
            compute_s += t.compute_s;
            modeled += t.modeled_exchange_s;
            exposed += t.exposed_exchange_s;
            gpu_compute += t.gpu_compute_s;
            gpu_step += t.gpu_step_s;
        }
        let mean_step_s = step_s / steps as f64;
        let mean_gpu_compute_s = gpu_compute / steps as f64;
        if ranks == 1 {
            t1 = mean_step_s;
            gpu1 = mean_gpu_compute_s;
        }
        let rank_cells =
            (0..ranks).map(|r| mr.rank_grid_cells(r)).max().unwrap_or(0);
        // ghosts are field-only: the push gather touches owned cells
        let owned_cells = grid.0 * grid.1 * grid.2 / ranks;
        gpu_points.push(GpuRankPoint {
            ranks,
            rank_cells,
            owned_cells,
            in_cache: grid_footprint_bytes(owned_cells) <= scaled_llc,
            mean_gpu_compute_s,
            mean_gpu_step_s: gpu_step / steps as f64,
            speedup_gpu: gpu1 / mean_gpu_compute_s,
            speedup_ideal: ranks as f64,
        });
        let hidden = modeled - exposed;
        if ranks > 1 {
            hidden_sum += hidden;
            modeled_sum += modeled;
        }
        // closed form: perfect compute scaling of the 1-rank step plus
        // the mean per-rank exposed exchange the overlap could not hide
        let model_step = overlap_model_step_s(t1, ranks, steps, exposed);
        points.push(RankPoint {
            ranks,
            steps,
            mean_step_s,
            mean_compute_s: compute_s / steps as f64,
            host_workers: mr.workers(),
            host_wall_serial_s: wall_serial / host_steps as f64,
            host_wall_pool_s: wall_pool / host_steps as f64,
            modeled_exchange_s: modeled,
            exposed_exchange_s: exposed,
            hidden_fraction: if modeled == 0.0 { 1.0 } else { hidden / modeled },
            speedup_exec: t1 / mean_step_s,
            speedup_model: t1 / model_step,
            speedup_ideal: ranks as f64,
        });
    }
    Report {
        deck: format!("weibel {}x{}x{} ppc {ppc} u=0.3", grid.0, grid.1, grid.2),
        grid,
        ppc,
        network: "Selene (GPU-aware α–β)".into(),
        points,
        hidden_fraction_overall: if modeled_sum == 0.0 {
            1.0
        } else {
            hidden_sum / modeled_sum
        },
        gpu: GpuRanksReport {
            platform: GPU_PLATFORM.into(),
            scale: GPU_SCALE,
            scaled_llc_bytes: scaled_llc,
            superlinear_at: gpu_points
                .iter()
                .find(|p| p.ranks > 1 && p.speedup_gpu > p.speedup_ideal)
                .map(|p| p.ranks),
            points: gpu_points,
        },
    }
}

/// Run the `ranks` target and print the summary table.
pub fn run() -> Report {
    // LLC-resident on every platform the paper tables: 16³ cells
    let report = sweep((16, 16, 16), 4, 2, 6);
    println!("executed multi-rank stepping — {} over {}", report.deck, report.network);
    println!(
        "{:>6} {:>12} {:>12} {:>10} {:>10} {:>8}",
        "ranks", "step (µs)", "compute (µs)", "exec ×", "model ×", "hidden"
    );
    for p in &report.points {
        println!(
            "{:>6} {:>12.1} {:>12.1} {:>10.2} {:>10.2} {:>7.0}%",
            p.ranks,
            p.mean_step_s * 1e6,
            p.mean_compute_s * 1e6,
            p.speedup_exec,
            p.speedup_model,
            p.hidden_fraction * 100.0
        );
    }
    println!("measured wall of a step on this host (no rank has a device of its own here):");
    println!(
        "{:>6} {:>16} {:>8} {:>14} {:>8}",
        "ranks", "in turn (µs)", "lanes", "at once (µs)", "×"
    );
    for p in &report.points {
        println!(
            "{:>6} {:>16.1} {:>8} {:>14.1} {:>8.2}",
            p.ranks,
            p.host_wall_serial_s * 1e6,
            p.host_workers,
            p.host_wall_pool_s * 1e6,
            p.host_wall_serial_s / p.host_wall_pool_s
        );
    }
    println!(
        "overlap hides {:.0}% of modeled exchange time across multi-rank points",
        report.hidden_fraction_overall * 100.0
    );
    println!(
        "modeled {} (LLC/{:.0} = {} KiB) per-rank compute:",
        report.gpu.platform,
        report.gpu.scale,
        report.gpu.scaled_llc_bytes / 1024
    );
    println!(
        "{:>6} {:>10} {:>9} {:>14} {:>8} {:>8}",
        "ranks", "owned", "in-cache", "compute (µs)", "gpu ×", "ideal ×"
    );
    for p in &report.gpu.points {
        println!(
            "{:>6} {:>10} {:>9} {:>14.1} {:>8.2} {:>8.2}",
            p.ranks,
            p.owned_cells,
            if p.in_cache { "yes" } else { "no" },
            p.mean_gpu_compute_s * 1e6,
            p.speedup_gpu,
            p.speedup_ideal
        );
    }
    match report.gpu.superlinear_at {
        Some(r) => println!("superlinear knee: modeled speedup crosses ideal at {r} ranks"),
        None => println!("no superlinear point in this sweep"),
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_arm_goes_superlinear_once_per_rank_grid_fits_the_llc() {
        if crate::skip_heavy_in_debug() {
            return;
        }
        let report = sweep((16, 16, 16), 4, 1, 4);
        let gpu = &report.gpu;
        assert_eq!(gpu.points.len(), RANK_COUNTS.len());
        // the deck is sized so the cache bit flips inside the sweep
        assert!(!gpu.points[0].in_cache, "1 rank must spill the scaled LLC");
        assert!(gpu.points.last().unwrap().in_cache, "8 ranks must fit");
        let knee = gpu.superlinear_at.expect("sweep must cross ideal speedup");
        let first_fit = gpu
            .points
            .iter()
            .find(|p| p.in_cache)
            .map(|p| p.ranks)
            .expect("some point fits");
        // LRU transitions are smooth: partial reuse pushes the speedup
        // over ideal no later than the full fit...
        assert!(
            knee <= first_fit,
            "knee at {knee} ranks must not trail the cache fit at {first_fit}"
        );
        // ...and once the per-rank working set actually fits, the cliff
        // is unmistakable: well past ideal at the fit, and still pulling
        // away at the deepest point
        let fit_point =
            gpu.points.iter().find(|p| p.ranks == first_fit).expect("fit point");
        assert!(
            fit_point.speedup_gpu >= 1.5 * fit_point.speedup_ideal,
            "cache fit must be a cliff: {} < 1.5x ideal {}",
            fit_point.speedup_gpu,
            fit_point.speedup_ideal
        );
        let last = gpu.points.last().unwrap();
        assert!(
            last.speedup_gpu >= 2.0 * last.speedup_ideal,
            "deep in cache the modeled speedup must stay far above ideal"
        );
        for p in &report.gpu.points {
            assert!(p.mean_gpu_compute_s > 0.0, "armed model must charge time");
            assert!(p.mean_gpu_step_s >= p.mean_gpu_compute_s);
        }
    }
}

