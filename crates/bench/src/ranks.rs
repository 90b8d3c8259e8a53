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
//! the same time on the simulator's own pool (`step()`). Every rank runs
//! [`MultiRankSim::new`]'s defaults. CI runs the target and uploads
//! `results/ranks.json`.
//!
//! The cache-driven superlinear regime of the paper's strong scaling is
//! Fig 10's (`repro fig10`, [`cluster::scaling`]), priced by
//! `memsim::push` at the paper's scale.

use cluster::scaling::overlap_model_step_s;
use cluster::{systems, MultiRankSim};
use serde::Serialize;
use std::time::Instant;
use vpic_core::Deck;

/// Rank counts the sweep executes.
const RANK_COUNTS: [usize; 4] = [1, 2, 4, 8];

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
    /// overlap-effectiveness headline (reported, not asserted).
    pub hidden_fraction_overall: f64,
}

/// Execute the sweep. `steps` measured steps per rank count after
/// `warmup` unmeasured ones.
fn sweep(grid: (usize, usize, usize), ppc: usize, warmup: usize, steps: usize) -> Report {
    let network = systems::selene().network;
    let reference = Deck::weibel(grid.0, grid.1, grid.2, ppc, 0.3).build();
    let mut points = Vec::new();
    let mut t1 = f64::NAN;
    let mut hidden_sum = 0.0;
    let mut modeled_sum = 0.0;
    for &ranks in &RANK_COUNTS {
        let configured = || MultiRankSim::new(&reference, ranks, network);
        // what the host executed: the two ways of running a step
        // alternating, and five times the steps — a shared host's
        // millisecond steps jitter
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
        // the virtual columns read per-rank compute walls, so this sweep
        // steps its ranks in turn: on a host with fewer free cores than
        // lanes, ranks that share a core would each read the other's time
        // slices as compute
        let mut mr = configured();
        for _ in 0..warmup {
            mr.step_on(&pk::Serial);
        }
        let mut step_s = 0.0;
        let mut compute_s = 0.0;
        let mut modeled = 0.0;
        let mut exposed = 0.0;
        for _ in 0..steps {
            let (_, _, t) = mr.step_on(&pk::Serial);
            step_s += t.step_s;
            compute_s += t.compute_s;
            modeled += t.modeled_exchange_s;
            exposed += t.exposed_exchange_s;
        }
        let mean_step_s = step_s / steps as f64;
        if ranks == 1 {
            t1 = mean_step_s;
        }
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
    report
}
