//! `tune` target: the adaptive tuner vs. an exhaustive sweep.
//!
//! For each deck (Weibel, laser-plasma) this target:
//!
//! 1. seeds a tuner with the cache-model prior for the modelled platform
//!    (`PLATFORM`) and lets it run its
//!    explore/commit loop live on this host;
//! 2. sweeps **every** arm of the same configuration space as a fixed
//!    config (the ablation), measuring each the same way;
//! 3. re-measures the tuner's committed choice under the sweep's
//!    protocol and reports `ratio = tuned / best-fixed` — the paper-style
//!    acceptance number (converged when ≤ 1.10).
//!
//! Knobs (env vars, for CI's short-budget smoke run):
//! `TUNE_EPOCH_STEPS` (default 12), `TUNE_SWEEP_STEPS` (default 50,
//! covers the longest sort interval).

use crate::env_usize;
use pk::Serial;
use serde::Serialize;
use tuner::{config_space, Config, Tuner};
use vpic_core::{Deck, Simulation};

/// Tile parameter for the tiled-strided arms (CPU rule: thread count;
/// this is a small-deck host run, so a modest tile).
const TILE: usize = 16;

/// The Table-1 platform whose modelled cache seeds the tuner's prior.
const PLATFORM: &str = "EPYC 7763";

/// One fixed configuration's sweep measurement.
#[derive(Serialize)]
pub struct ArmCost {
    /// `Config::label()` of the arm.
    pub config: String,
    /// Measured ns per particle push (sort time amortized naturally over
    /// the measurement window).
    pub cost_ns: f64,
}

/// Tuner-vs-sweep outcome on one deck.
#[derive(Serialize)]
pub struct DeckReport {
    /// Deck name.
    pub deck: String,
    /// Grid cells (the prior's input).
    pub cells: u64,
    /// Platform the cache prior was computed against.
    pub platform: String,
    /// Whether the prior said "grid fits LLC → start unsorted".
    pub prior_unsorted: bool,
    /// Steps per tuner epoch.
    pub epoch_steps: u64,
    /// Epochs the tuner ran.
    pub epochs: u64,
    /// The arm the tuner committed to.
    pub tuned_config: String,
    /// The committed arm re-measured under the sweep protocol, ns/push.
    pub tuned_cost_ns: f64,
    /// Best fixed arm from the exhaustive sweep.
    pub best_config: String,
    /// Its cost, ns/push.
    pub best_cost_ns: f64,
    /// `tuned_cost_ns / best_cost_ns` — 1.0 is a perfect pick.
    pub ratio: f64,
    /// The full ablation: every fixed arm's measured cost.
    pub sweep: Vec<ArmCost>,
}

/// The `tune` target's result.
#[derive(Serialize)]
pub struct Report {
    /// One entry per deck.
    pub decks: Vec<DeckReport>,
}

/// Windows per fixed-config measurement; the minimum is reported.
/// Wall-clock noise is one-sided (preemption only slows a window down),
/// so min-of-N is the sharper estimate of an arm's true cost.
const MEASURE_WINDOWS: usize = 3;

/// Measure one fixed config on a fresh deck: apply, warm up, then time
/// `steps` steps of wall clock per particle pushed, taking the best of
/// [`MEASURE_WINDOWS`] windows. Each window covers the longest sort
/// interval, so every arm's sort cost is amortized naturally.
fn measure_fixed(build: &dyn Fn() -> Simulation, cfg: &Config, steps: usize) -> f64 {
    let mut sim = build();
    sim.apply_tune_config(cfg, 1);
    // warmup: populate sort scratch, settle the branch predictor, and get
    // past the first (full) sort before any timed window opens
    sim.run_on(&Serial, steps.min(5));
    let mut best = f64::INFINITY;
    for _ in 0..MEASURE_WINDOWS {
        let t0 = telemetry::now_ns();
        let stats = sim.run_on(&Serial, steps);
        let dt = telemetry::now_ns().saturating_sub(t0);
        if stats.pushed > 0 {
            best = best.min(dt as f64 / stats.pushed as f64);
        }
    }
    best
}

fn run_deck(name: &str, build: &dyn Fn() -> Simulation) -> DeckReport {
    let epoch_steps = env_usize("TUNE_EPOCH_STEPS", 12);
    let sweep_steps = env_usize("TUNE_SWEEP_STEPS", 50);
    let platform = memsim::platform::by_name(PLATFORM).expect("a Table-1 platform");

    let probe = build();
    let cells = probe.grid.cells();
    let prior_unsorted = memsim::push::grid_fits_llc(&platform, cells);
    let arms = config_space(TILE, &tuner::DEFAULT_INTERVALS);

    // 1. the live tuned run: explore every arm, then a few committed
    // epochs. The pick is the arm the tuner last committed to: a
    // committed epoch that reads 1.5× its commit-time cost sends the
    // engine exploring again, and mid-sweep it has no verdict of its own.
    let mut sim = build();
    let tuner = Tuner::new(arms.clone(), epoch_steps)
        .with_cache_prior(prior_unsorted)
        .with_refinement(8);
    sim.set_tuner(tuner);
    let mut last_committed = None;
    for _ in 0..arms.len() + 8 + 3 {
        sim.run_on(&Serial, epoch_steps);
        let committed = sim.tuner().and_then(|t| t.committed());
        last_committed = committed.copied().or(last_committed);
    }
    let tuner = sim.take_tuner().expect("tuner armed");
    let tuned_config = last_committed
        .or_else(|| tuner.best().map(|(c, _)| *c))
        .expect("tuner measured at least one arm");

    // 2. exhaustive sweep: every arm as a fixed config (the ablation)
    let sweep: Vec<ArmCost> = arms
        .iter()
        .map(|a| ArmCost { config: a.label(), cost_ns: measure_fixed(build, a, sweep_steps) })
        .collect();
    let best = sweep
        .iter()
        .min_by(|a, b| a.cost_ns.total_cmp(&b.cost_ns))
        .expect("non-empty sweep");

    // 3. the tuner's pick, re-measured under the sweep's own protocol.
    // The pick is itself one of the swept arms, so the sweep's sample of
    // it is equally valid — keep the min of the two (one-sided noise).
    let tuned_label = tuned_config.label();
    let tuned_cost_ns = sweep
        .iter()
        .filter(|a| a.config == tuned_label)
        .map(|a| a.cost_ns)
        .fold(measure_fixed(build, &tuned_config, sweep_steps), f64::min);

    let report = DeckReport {
        deck: name.to_string(),
        cells: cells as u64,
        platform: PLATFORM.to_string(),
        prior_unsorted,
        epoch_steps: epoch_steps as u64,
        epochs: tuner.epochs(),
        tuned_config: tuned_label,
        tuned_cost_ns,
        best_config: best.config.clone(),
        best_cost_ns: best.cost_ns,
        ratio: tuned_cost_ns / best.cost_ns,
        sweep,
    };
    println!(
        "tune[{name}]: prior({PLATFORM}, {cells} cells) → {}; {} epochs",
        if report.prior_unsorted { "start unsorted" } else { "start sorting" },
        report.epochs,
    );
    println!(
        "  tuned  {:<28} {:>8.2} ns/push\n  best   {:<28} {:>8.2} ns/push   ratio {:.3}",
        report.tuned_config, report.tuned_cost_ns, report.best_config, report.best_cost_ns,
        report.ratio
    );
    report
}

/// Run the tuner-vs-sweep comparison on both decks.
pub fn run() -> Report {
    type DeckBuilder = Box<dyn Fn() -> Simulation>;
    let decks: Vec<(&str, DeckBuilder)> = vec![
        ("weibel", Box::new(|| Deck::weibel(8, 8, 8, 6, 0.4).build())),
        ("lpi", Box::new(|| Deck::lpi(16, 8, 8, 4).build())),
    ];
    Report {
        decks: decks.iter().map(|(name, build)| run_deck(name, build.as_ref())).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuner_converges_near_the_best_fixed_config() {
        if crate::skip_heavy_in_debug() {
            return;
        }
        let _g = crate::telemetry_test_lock();
        // short-but-real budget; the wide margin absorbs timer noise on a
        // busy CI host — `repro -- tune` reports the true ratio
        std::env::set_var("TUNE_EPOCH_STEPS", "6");
        std::env::set_var("TUNE_SWEEP_STEPS", "20");
        let report = run();
        std::env::remove_var("TUNE_EPOCH_STEPS");
        std::env::remove_var("TUNE_SWEEP_STEPS");
        assert_eq!(report.decks.len(), 2);
        for d in &report.decks {
            assert!(d.prior_unsorted, "both small decks fit the modelled LLC");
            assert!(d.epochs as usize >= 80, "{}: explored the space ({})", d.deck, d.epochs);
            assert!(d.tuned_cost_ns.is_finite() && d.best_cost_ns > 0.0);
            assert_eq!(d.sweep.len(), config_space(TILE, &tuner::DEFAULT_INTERVALS).len());
            assert!(
                d.ratio < 1.5,
                "{}: tuned {} ({:.2} ns) vs best {} ({:.2} ns): ratio {:.3}",
                d.deck,
                d.tuned_config,
                d.tuned_cost_ns,
                d.best_config,
                d.best_cost_ns,
                d.ratio
            );
        }
    }
}
