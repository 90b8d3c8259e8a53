//! `repro -- gpu`: the one-sweep SimGpu target.
//!
//! For every Table-1 GPU the sweep runs the *same* Weibel deck through
//! `pk::SimGpu` — real kernels, bit-identical to `Serial`, with every
//! memory access charged through the `memsim` cost model — once per
//! sort-order arm, and then checks three things the paper claims:
//!
//! 1. **Crossover**: the executed per-order push costs (from the SimGpu
//!    ledger, i.e. the cell streams the simulation actually visited)
//!    rank the orders the same way the standalone `memsim::push` model
//!    ranks the deck's initial population (Figs 6–8 winners).
//! 2. **Tuning**: a [`tuner::Tuner`] over [`tuner::gpu_config_space`],
//!    seeded with the particle-aware cache prior and fed the modeled
//!    costs, commits to an arm within 10% of the exhaustive sweep's best.
//! 3. **Rooflines**: every (platform, order) push kernel is placed under
//!    the platform's roofline (`memsim::roofline`) in one pass — the Fig 8
//!    plot for *all six* GPUs, saved as `results/gpu-roofline.json`.
//!
//! The deck is scaled per platform: the model LLC is shrunk until the
//! grid's push working set is ~4× the cache, which puts every GPU on the
//! steep side of the Fig 9 cliff where sorting order matters.
//!
//! Knobs: `GPU_STEPS` (measured steps per arm, default 6), `GPU_WARMUP`
//! (unmeasured settle steps, default 2).

use crate::env_usize;
use memsim::gpu::GpuModel;
use memsim::platform::Platform;
use memsim::push::{
    fits_llc_with_particles, gpu_push, grid_footprint_bytes, PushSpec, CELL_FOOTPRINT_BYTES,
};
use memsim::roofline::Roofline;
use memsim::trace::KernelCost;
use pk::SimGpu;
use psort::{sort_pairs, SortOrder};
use serde::Serialize;
use tuner::{gpu_config_space, Config, Measurement, Tuner};
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
    /// Standalone `memsim::push` prediction on the deck's initial
    /// population pre-ordered by this arm, seconds per step.
    pub predicted_push_s: f64,
    /// Modeled cost per particle push, ns.
    pub cost_ns_per_push: f64,
}

/// One GPU platform's sweep + tuner outcome.
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
    /// Per-arm executed + predicted costs.
    pub orders: Vec<OrderRow>,
    /// Orders fastest→slowest by executed push time.
    pub executed_ranking: Vec<String>,
    /// Orders fastest→slowest by standalone prediction.
    pub predicted_ranking: Vec<String>,
    /// Executed and predicted agree on the winning order.
    pub winner_agrees: bool,
    /// Executed and predicted agree on the full ordering.
    pub ranking_agrees: bool,
    /// The arm the tuner committed to.
    pub tuned_config: String,
    /// Its cost under the sweep protocol, ns/push.
    pub tuned_cost_ns: f64,
    /// Exhaustive-sweep best arm.
    pub best_config: String,
    /// Its cost, ns/push.
    pub best_cost_ns: f64,
    /// `tuned / best` — acceptance asks ≤ 1.10.
    pub ratio: f64,
    /// Epochs the tuner spent before committing.
    pub tuner_epochs: u64,
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

/// Run one arm on a fresh deck and return the modeled measurement: the
/// SimGpu ledger's nanoseconds slot straight into [`Measurement`] (the
/// tuner only ever compares costs, so modeled and wall ns are
/// interchangeable).
fn measure_arm(
    platform: &Platform,
    scale: f64,
    cfg: &Config,
    warmup: usize,
    steps: usize,
) -> Measurement {
    let mut sim = build_deck();
    sim.apply_tune_config(cfg, 1);
    let gpu = SimGpu::scaled(platform.clone(), scale);
    sim.run_on(&gpu, warmup);
    gpu.reset();
    let stats = sim.run_on(&gpu, steps);
    let sorts = gpu.records().iter().filter(|r| r.label == "sort").count() as u64;
    Measurement {
        steps: steps as u64,
        pushed: stats.pushed as u64,
        crossings: stats.crossings as u64,
        step_ns: (gpu.modeled_time() * 1e9) as u64,
        sort_ns: (gpu.kernel_time("sort") * 1e9) as u64,
        sorts,
    }
}

/// Per-kernel step costs for one arm (the sweep's detailed row).
fn run_order(
    platform: &Platform,
    scale: f64,
    order: Option<SortOrder>,
    warmup: usize,
    steps: usize,
) -> (f64, f64, f64, f64) {
    let mut sim = build_deck();
    sim.sort_order = order;
    sim.sort_interval = SORT_INTERVAL;
    let gpu = SimGpu::scaled(platform.clone(), scale);
    sim.run_on(&gpu, warmup);
    gpu.reset();
    let stats = sim.run_on(&gpu, steps);
    let s = steps as f64;
    (
        gpu.modeled_time() / s,
        gpu.kernel_time("push") / s,
        gpu.kernel_time("sort") / s,
        gpu.modeled_time() * 1e9 / stats.pushed.max(1) as f64,
    )
}

/// Standalone prediction: each species' initial cells, pre-ordered by
/// the arm, through `memsim::push::gpu_push` — the Figs 6–8 methodology,
/// with zero simulation in the loop. Returns the summed per-step push
/// time and the largest species' [`KernelCost`] (the roofline sample).
fn predict_order(model: &GpuModel, order: Option<SortOrder>) -> (f64, KernelCost) {
    let sim = build_deck();
    let cells = sim.grid.cells();
    let mut total = 0.0;
    let mut biggest: Option<(usize, KernelCost)> = None;
    for s in &sim.species {
        if s.cell.is_empty() {
            continue;
        }
        let mut keys = s.cell.clone();
        if let Some(o) = order {
            let mut idx: Vec<u32> = (0..keys.len() as u32).collect();
            sort_pairs(o, &mut keys, &mut idx);
        }
        let cost = gpu_push(model, &PushSpec::vpic(&keys, cells)).cost;
        total += cost.time;
        if biggest.as_ref().is_none_or(|(n, _)| s.len() > *n) {
            biggest = Some((s.len(), cost));
        }
    }
    (total, biggest.expect("deck has particles").1)
}

fn ranking(rows: &[(String, f64)]) -> Vec<String> {
    let mut sorted: Vec<_> = rows.to_vec();
    sorted.sort_by(|a, b| a.1.total_cmp(&b.1));
    sorted.into_iter().map(|(name, _)| name).collect()
}

fn run_platform(
    platform: &Platform,
    warmup: usize,
    steps: usize,
    rooflines: &mut Vec<memsim::roofline::RooflineSample>,
) -> PlatformReport {
    let probe = build_deck();
    let cells = probe.grid.cells();
    let particles = probe.particle_count();
    let scale = scale_for(platform, cells);
    let model = GpuModel::scaled(platform.clone(), scale);
    let scaled_llc = model.llc_bytes();
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

    // 1. executed sweep: every order through SimGpu, plus the standalone
    // prediction for the same arm
    let arms = SortOrder::gpu_arm_set(tile);
    let roof = Roofline::of(platform);
    let mut orders = Vec::new();
    for order in arms {
        let name = order_name(order);
        let (step_s, push_s, sort_s, cost_ns) = run_order(platform, scale, order, warmup, steps);
        let (predicted, cost) = predict_order(&model, order);
        rooflines.push(roof.sample(format!("{} / {name}", platform.name), &cost));
        orders.push(OrderRow {
            order: name,
            modeled_step_s: step_s,
            push_step_s: push_s,
            sort_step_s: sort_s,
            predicted_push_s: predicted,
            cost_ns_per_push: cost_ns,
        });
    }
    let executed_ranking =
        ranking(&orders.iter().map(|r| (r.order.clone(), r.push_step_s)).collect::<Vec<_>>());
    let predicted_ranking =
        ranking(&orders.iter().map(|r| (r.order.clone(), r.predicted_push_s)).collect::<Vec<_>>());
    let winner_agrees = executed_ranking[0] == predicted_ranking[0];
    let ranking_agrees = executed_ranking == predicted_ranking;

    // 2. the tuner over the same space, fed modeled costs. Costs are
    // deterministic (no wall clock anywhere), so one epoch per arm is an
    // exact measurement and the engine commits after one pass.
    let tuner_arms = gpu_config_space(tile, &[SORT_INTERVAL]);
    // measurements are deterministic (fresh deck, modeled ns, no wall
    // clock), so one measurement per arm serves both the tuner's epochs
    // and the exhaustive sweep
    let mut measured: std::collections::HashMap<String, Measurement> = Default::default();
    let mut measure = |cfg: &Config| {
        *measured
            .entry(cfg.label())
            .or_insert_with(|| measure_arm(platform, scale, cfg, warmup, steps))
    };
    let mut t = Tuner::new(tuner_arms.clone(), steps).with_cache_prior(prior_unsorted);
    let mut epochs = 0u64;
    while t.committed().is_none() && epochs < 4 * tuner_arms.len() as u64 {
        let cfg = *t.current();
        let m = measure(&cfg);
        t.finish_epoch(&m);
        epochs += 1;
    }
    let tuned = *t
        .committed()
        .or_else(|| t.best().map(|(c, _)| c))
        .expect("tuner measured at least one arm");

    // 3. exhaustive sweep under the identical protocol
    let sweep: Vec<(String, f64)> = tuner_arms
        .iter()
        .map(|a| (a.label(), measure(a).cost_per_particle(a.interval)))
        .collect();
    let (best_config, best_cost_ns) = sweep
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .cloned()
        .expect("non-empty sweep");
    let tuned_label = tuned.label();
    let tuned_cost_ns = sweep
        .iter()
        .find(|(l, _)| *l == tuned_label)
        .map(|(_, c)| *c)
        .unwrap_or_else(|| {
            measure_arm(platform, scale, &tuned, warmup, steps).cost_per_particle(tuned.interval)
        });

    let report = PlatformReport {
        platform: platform.name.to_string(),
        scale,
        scaled_llc_bytes: scaled_llc,
        tile,
        prior_unsorted,
        orders,
        executed_ranking,
        predicted_ranking,
        winner_agrees,
        ranking_agrees,
        tuned_config: tuned_label,
        tuned_cost_ns,
        best_config: best_config.clone(),
        best_cost_ns,
        ratio: tuned_cost_ns / best_cost_ns,
        tuner_epochs: epochs,
    };
    println!(
        "{:<14} scale {:>6.1} tile {:>4} prior {:<8} winner {:<13} ({}) tuned {:<28} ratio {:.3}",
        report.platform,
        report.scale,
        report.tile,
        if report.prior_unsorted { "unsorted" } else { "sort" },
        report.executed_ranking[0],
        if report.winner_agrees { "agrees" } else { "DISAGREES" },
        report.tuned_config,
        report.ratio
    );
    let _ = particles; // reported at the top level
    report
}

/// Run the full GPU sweep: executed costs, crossover check, tuner vs
/// exhaustive, and the all-platform roofline file.
pub fn run() -> Report {
    let steps = env_usize("GPU_STEPS", 6);
    let warmup = env_usize("GPU_WARMUP", 2);
    let probe = build_deck();
    println!(
        "SimGpu sweep — weibel {}³ ({} cells, {} particles), {} warmup + {} measured steps/arm",
        SHAPE.0,
        probe.grid.cells(),
        probe.particle_count(),
        warmup,
        steps
    );
    let mut rooflines = Vec::new();
    let platforms: Vec<PlatformReport> = memsim::platform::gpus()
        .iter()
        .map(|p| run_platform(p, warmup, steps, &mut rooflines))
        .collect();
    match crate::save_json("gpu-roofline", &rooflines) {
        Ok(path) => println!("rooflines: {} samples → {}", rooflines.len(), path.display()),
        Err(e) => eprintln!("failed to save rooflines: {e}"),
    }
    Report {
        deck: "weibel".into(),
        grid_cells: probe.grid.cells() as u64,
        particles: probe.particle_count() as u64,
        sort_interval: SORT_INTERVAL as u64,
        steps: steps as u64,
        warmup: warmup as u64,
        platforms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_and_tuner_agree_on_every_gpu() {
        if crate::skip_heavy_in_debug() {
            return;
        }
        let report = run();
        assert_eq!(report.platforms.len(), memsim::platform::gpus().len());
        for p in &report.platforms {
            assert!(
                p.winner_agrees,
                "{}: executed winner {:?} vs predicted {:?}",
                p.platform, p.executed_ranking, p.predicted_ranking
            );
            assert!(
                p.ratio <= 1.10,
                "{}: tuned {} ({:.2} ns) vs best {} ({:.2} ns): ratio {:.3}",
                p.platform, p.tuned_config, p.tuned_cost_ns, p.best_config, p.best_cost_ns, p.ratio
            );
            // past the cache cliff a sorted order must beat unsorted
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
