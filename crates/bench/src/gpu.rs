//! `repro -- gpu`: the one-sweep SimGpu target.
//!
//! For every Table-1 GPU the sweep runs the *same* Weibel deck through
//! `pk::SimGpu` — real kernels, bit-identical to `Serial`, with every
//! memory access charged through the `memsim` cost model — once per arm
//! of the tuner's GPU space (one arm per sort order). One run per arm
//! yields both the arm's order row and the tuner's [`Measurement`], and
//! the sweep reports two things the paper claims:
//!
//! 1. **Crossover**: the executed per-order push costs (from the SimGpu
//!    ledger, i.e. the cell streams the simulation actually visited)
//!    rank the orders (Figs 6–8 winners).
//! 2. **Prior**: the particle-aware cache prior's prediction (sort or
//!    not), beside the best arm of [`tuner::config_space`] (the sort
//!    schedule on a fixed Auto/Atomic base) under the tuner's own cost.
//!    `repro tune` tests the tuner itself against a sweep.
//!
//! The deck is scaled per platform: the model LLC is shrunk until the
//! grid's push working set is ~4× the cache, which puts every GPU on the
//! steep side of the Fig 9 cliff where sorting order matters. No wall
//! clock enters, so `results/gpu.json` is the same on every run.

use memsim::gpu::GpuModel;
use memsim::platform::Platform;
use memsim::push::{fits_llc_with_particles, grid_footprint_bytes, CELL_FOOTPRINT_BYTES};
use pk::SimGpu;
use psort::SortOrder;
use serde::Serialize;
use tuner::{config_space, Config, Measurement};
use vpic_core::{Deck, Simulation};

/// Weibel deck shape: 24³ cells × 6 ppc (counter-streaming, so two
/// electron beams plus a neutralizing ion background). 24³ = 13,824
/// cells is the paper's Fig 9 V100 sweet spot; with the per-platform
/// LLC scale below every GPU sits past its cache cliff.
const SHAPE: (usize, usize, usize) = (24, 24, 24);
const PPC: usize = 6;
const U_BEAM: f32 = 0.4;

/// Sort cadence for every sorting arm (and the tuner's interval axis).
const SORT_INTERVAL: usize = 5;

/// Measured steps per arm, after [`WARMUP`] unmeasured settle steps.
const STEPS: usize = 6;
const WARMUP: usize = 2;

/// One sort-order arm on one platform.
#[derive(Debug, Clone, Serialize)]
pub struct OrderRow {
    /// Arm name: `unsorted`, `standard`, `strided`, `tiled-strided`.
    pub order: String,
    /// Modeled time per step from the SimGpu ledger, seconds.
    pub modeled_step_s: f64,
    /// Of that, the push kernel per step.
    pub push_step_s: f64,
    /// Amortized sort charge per step.
    pub sort_step_s: f64,
    /// Modeled cost per particle push, ns.
    pub cost_ns_per_push: f64,
}

/// One GPU platform's sweep.
#[derive(Debug, Clone, Serialize)]
pub struct PlatformReport {
    /// Platform name (Table 1).
    pub platform: String,
    /// LLC shrink factor applied so the deck sits past the cache cliff.
    pub scale: f64,
    /// The scaled model LLC, bytes.
    pub scaled_llc_bytes: u64,
    /// Tile parameter for the tiled-strided arm.
    pub tile: usize,
    /// What the particle-aware cache prior said (false ⇒ sort).
    pub prior_unsorted: bool,
    /// Per-arm executed costs.
    pub orders: Vec<OrderRow>,
    /// Orders fastest→slowest by executed push time.
    pub executed_ranking: Vec<String>,
    /// Exhaustive-sweep best arm under the tuner's cost.
    pub best_config: String,
    /// Its cost, ns/push.
    pub best_cost_ns: f64,
}

/// The whole `gpu` target: one report per Table-1 GPU.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Deck name.
    pub deck: String,
    /// Grid cells.
    pub grid_cells: u64,
    /// Particles across species.
    pub particles: u64,
    /// Sort cadence of the sorting arms.
    pub sort_interval: u64,
    /// Measured steps per arm.
    pub steps: u64,
    /// Unmeasured warmup steps per arm.
    pub warmup: u64,
    /// Per-platform results.
    pub platforms: Vec<PlatformReport>,
}

fn build_deck() -> Simulation {
    Deck::weibel(SHAPE.0, SHAPE.1, SHAPE.2, PPC, U_BEAM).build()
}

fn order_name(order: Option<SortOrder>) -> String {
    order.map_or_else(|| "unsorted".to_string(), |o| o.name().to_string())
}

/// LLC shrink factor putting this platform past the cache cliff: the
/// scaled cache is a quarter of the deck's grid footprint, so the push
/// working set spills and sorting order decides the bandwidth bill.
fn scale_for(platform: &Platform, cells: usize) -> f64 {
    (4.0 * platform.llc_bytes as f64 / grid_footprint_bytes(cells) as f64).max(1.0)
}

/// Tile parameter: half the scaled LLC's worth of cells (same rule as
/// `fig7`, applied to the per-platform scale).
fn tile_for(scaled_llc: u64, cells: usize) -> usize {
    let t = scaled_llc as f64 / (2.0 * CELL_FOOTPRINT_BYTES as f64);
    (t as usize).clamp(16, (cells / 4).max(16))
}

/// Run one arm on a fresh deck: its order row and the tuner's
/// [`Measurement`], both read from one SimGpu ledger (the tuner's cost
/// only ever compares arms, so modeled and wall ns are interchangeable).
fn run_arm(platform: &Platform, scale: f64, cfg: &Config) -> (OrderRow, Measurement) {
    let mut sim = build_deck();
    sim.apply_tune_config(cfg, 1);
    let gpu = SimGpu::scaled(platform.clone(), scale);
    sim.run_on(&gpu, WARMUP);
    gpu.reset();
    let stats = sim.run_on(&gpu, STEPS);
    let s = STEPS as f64;
    let row = OrderRow {
        order: order_name(cfg.order),
        modeled_step_s: gpu.modeled_time() / s,
        push_step_s: gpu.kernel_time("push") / s,
        sort_step_s: gpu.kernel_time("sort") / s,
        cost_ns_per_push: gpu.modeled_time() * 1e9 / stats.pushed.max(1) as f64,
    };
    let measurement = Measurement {
        steps: STEPS as u64,
        pushed: stats.pushed as u64,
        crossings: stats.crossings as u64,
        step_ns: (gpu.modeled_time() * 1e9) as u64,
        sort_ns: (gpu.kernel_time("sort") * 1e9) as u64,
        sorts: gpu.records().iter().filter(|r| r.label == "sort").count() as u64,
    };
    (row, measurement)
}

fn ranking(rows: &[(String, f64)]) -> Vec<String> {
    let mut sorted: Vec<_> = rows.to_vec();
    sorted.sort_by(|a, b| a.1.total_cmp(&b.1));
    sorted.into_iter().map(|(name, _)| name).collect()
}

fn run_platform(platform: &Platform) -> PlatformReport {
    let cells = build_deck().grid.cells();
    let scale = scale_for(platform, cells);
    let scaled_llc = GpuModel::scaled(platform.clone(), scale).llc_bytes();
    let tile = tile_for(scaled_llc, cells);
    // the prior must see the same cache the model charges: a platform
    // copy with the scaled LLC, and the resident particle window
    let scaled_platform = {
        let mut p = platform.clone();
        p.llc_bytes = scaled_llc;
        p
    };
    let resident = cluster::scaling::resident_particles(platform);
    let prior_unsorted = fits_llc_with_particles(&scaled_platform, cells, resident);

    // the device compiler owns the lanes, so the strategy is moot, and
    // at 10⁴-thread concurrency duplicating the scatter does not pay:
    // on a GPU the tuning problem is the sort schedule alone
    let base = Config::unsorted(vsimd::Strategy::Auto, pk::atomic::ScatterMode::Atomic);

    // executed sweep: every arm through SimGpu, once. Costs are
    // deterministic (fresh deck, modeled ns, no wall clock), so one run
    // per arm serves the order table and the best arm alike
    let arms = config_space(&base, tile, &[SORT_INTERVAL]);
    let (orders, measured): (Vec<OrderRow>, Vec<Measurement>) =
        arms.iter().map(|cfg| run_arm(platform, scale, cfg)).unzip();
    let executed_ranking =
        ranking(&orders.iter().map(|r| (r.order.clone(), r.push_step_s)).collect::<Vec<_>>());
    let (best, best_cost_ns) = arms
        .iter()
        .zip(&measured)
        .map(|(cfg, m)| (cfg, m.cost_per_particle(cfg.interval)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty sweep");

    let report = PlatformReport {
        platform: platform.name.to_string(),
        scale,
        scaled_llc_bytes: scaled_llc,
        tile,
        prior_unsorted,
        orders,
        executed_ranking,
        best_config: best.label(),
        best_cost_ns,
    };
    println!(
        "{:<14} scale {:>6.1} tile {:>4} prior {:<8} winner {:<13} best {}",
        report.platform,
        report.scale,
        report.tile,
        if report.prior_unsorted { "unsorted" } else { "sort" },
        report.executed_ranking[0],
        report.best_config,
    );
    report
}

/// Run the full GPU sweep: executed per-order costs and the best arm.
pub fn run() -> Report {
    let probe = build_deck();
    println!(
        "SimGpu sweep — weibel {}³ ({} cells, {} particles), {WARMUP} warmup + {STEPS} measured steps/arm",
        SHAPE.0,
        probe.grid.cells(),
        probe.particle_count(),
    );
    Report {
        deck: "weibel".into(),
        grid_cells: probe.grid.cells() as u64,
        particles: probe.particle_count() as u64,
        sort_interval: SORT_INTERVAL as u64,
        steps: STEPS as u64,
        warmup: WARMUP as u64,
        platforms: memsim::platform::gpus().iter().map(run_platform).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_best_arm_sorts_in_the_executed_winner_on_every_gpu() {
        if crate::skip_heavy_in_debug() {
            return;
        }
        let report = run();
        assert_eq!(report.platforms.len(), memsim::platform::gpus().len());
        for p in &report.platforms {
            // the exhaustive sweep's best arm sorts in the order whose
            // executed push ranks first
            let best_order = p.best_config.split('/').next().unwrap();
            assert_eq!(
                best_order, p.executed_ranking[0],
                "{}: best arm {} vs executed ranking {:?}",
                p.platform, p.best_config, p.executed_ranking
            );
            // past the cache cliff a sorted order must beat unsorted, as
            // the cache prior predicts
            assert!(!p.prior_unsorted, "{}: the prior must predict sorting", p.platform);
            let unsorted = p.orders.iter().find(|o| o.order == "unsorted").unwrap();
            let best_sorted = p
                .orders
                .iter()
                .filter(|o| o.order != "unsorted")
                .map(|o| o.push_step_s)
                .fold(f64::INFINITY, f64::min);
            assert!(
                best_sorted < unsorted.push_step_s,
                "{}: sorting must pay past the cliff",
                p.platform
            );
        }
    }

    #[test]
    fn scale_puts_every_gpu_past_the_cliff() {
        let cells = SHAPE.0 * SHAPE.1 * SHAPE.2;
        for p in memsim::platform::gpus() {
            let scale = scale_for(&p, cells);
            let model = GpuModel::scaled(p.clone(), scale);
            assert!(
                grid_footprint_bytes(cells) > model.llc_bytes(),
                "{}: grid must spill the scaled LLC",
                p.name
            );
        }
    }
}
