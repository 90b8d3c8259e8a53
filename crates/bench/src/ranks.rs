//! Executed multi-rank stepping vs the closed-form overlap model.
//!
//! Drives [`cluster::MultiRankSim`] over the LLC-resident Weibel deck at
//! 1/2/4/8 virtual ranks and reports, per rank count: the executed step
//! time (real per-rank kernels + real halo exchange, network time from
//! the α–β model), the fraction of modeled exchange hidden behind
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
//! A shared host drifts between speed levels for seconds at a time, so
//! the rank counts are measured in interleaved rounds: each round steps
//! every rank count's simulators a few steps in turn, and each timed
//! column is reported as the median and quartiles of its steps
//! ([`Spread`]), a slow spell costing every rank count some samples
//! rather than one rank count all of its own.
//!
//! The cache-driven superlinear regime of the paper's strong scaling is
//! Fig 10's (`repro fig10`, [`cluster::scaling`]), priced by
//! `memsim::push` at the paper's scale.

use cluster::scaling::overlap_model_step_s;
use cluster::{systems, MultiRankSim, NetworkModel};
use serde::Serialize;
use std::time::Instant;
use vpic_core::{Deck, Simulation};

/// Rank counts the sweep executes.
const RANK_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Unmeasured steps of every simulator before the first round.
const WARMUP: usize = 2;

/// Rounds of the sweep, and the steps each round gives every column of
/// every rank count: 30 measured steps a column.
const ROUNDS: usize = 10;
const STEPS_PER_ROUND: usize = 3;

/// The median and quartiles of one column's per-step samples, s.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Spread {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Spread {
    /// The nearest-rank quartiles of `samples` (at least one).
    fn of(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        let at = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
        Self { q1: at(0.25), median: at(0.5), q3: at(0.75) }
    }
}

/// One executed rank-count point.
#[derive(Debug, Clone, Serialize)]
pub struct RankPoint {
    /// Virtual ranks stepped.
    pub ranks: usize,
    /// Measured steps of each timed column (after warmup).
    pub steps: usize,
    /// Executed step: max over ranks of compute + exposed exchange, s.
    pub step_s: Spread,
    /// Compute wall of the slowest rank, s.
    pub compute_s: Spread,
    /// Lanes `MultiRankSim::step` ran the ranks over on this host:
    /// `min(ranks, available parallelism)`.
    pub host_workers: usize,
    /// Measured wall of `step_on(&Serial)`, the ranks in turn on the
    /// calling thread, s.
    pub host_wall_serial_s: Spread,
    /// Measured wall of `step()`, the ranks at the same time on
    /// `host_workers` lanes, s.
    pub host_wall_pool_s: Spread,
    /// Σ modeled exchange time across ranks and steps, s.
    pub modeled_exchange_s: f64,
    /// Σ exchange time not hidden behind overlapped compute, s.
    pub exposed_exchange_s: f64,
    /// Fraction of modeled exchange hidden by the overlap schedule.
    pub hidden_fraction: f64,
    /// Executed speedup: the 1-rank median step ÷ this point's.
    pub speedup_exec: f64,
    /// Closed-form speedup: `T(1) / (T(1)/N + mean exposed per rank)`,
    /// `T(1)` the 1-rank median step.
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

/// One rank count's simulators and samples. The virtual columns read
/// per-rank compute walls, so `virt` steps its ranks in turn: on a host
/// with fewer free cores than lanes, ranks that share a core would each
/// read the other's time slices as compute. The wall of that same step is
/// the host's in-turn column; `at_once` is its other way of running a
/// step, alternating step by step.
struct Column {
    ranks: usize,
    virt: MultiRankSim,
    at_once: MultiRankSim,
    step: Vec<f64>,
    compute: Vec<f64>,
    serial: Vec<f64>,
    pool: Vec<f64>,
    modeled: f64,
    exposed: f64,
}

impl Column {
    fn new(reference: &Simulation, ranks: usize, network: NetworkModel) -> Self {
        let configured = || MultiRankSim::new(reference, ranks, network);
        let (mut virt, mut at_once) = (configured(), configured());
        for _ in 0..WARMUP {
            virt.step_on(&pk::Serial);
            at_once.step();
        }
        let samples = || Vec::with_capacity(ROUNDS * STEPS_PER_ROUND);
        Self {
            ranks,
            virt,
            at_once,
            step: samples(),
            compute: samples(),
            serial: samples(),
            pool: samples(),
            modeled: 0.0,
            exposed: 0.0,
        }
    }

    /// One round's steps of both simulators, one after the other.
    fn round(&mut self) {
        for _ in 0..STEPS_PER_ROUND {
            let wall = Instant::now();
            let (_, _, t) = self.virt.step_on(&pk::Serial);
            self.serial.push(wall.elapsed().as_secs_f64());
            self.step.push(t.step_s);
            self.compute.push(t.compute_s);
            self.modeled += t.modeled_exchange_s;
            self.exposed += t.exposed_exchange_s;
            let t = Instant::now();
            self.at_once.step();
            self.pool.push(t.elapsed().as_secs_f64());
        }
    }
}

/// Execute the sweep: every rank count's simulators set up and warmed,
/// then [`ROUNDS`] rounds over the rank counts in turn.
fn sweep(grid: (usize, usize, usize), ppc: usize) -> Report {
    let network = systems::selene().network;
    let reference = Deck::weibel(grid.0, grid.1, grid.2, ppc, 0.3).build();
    let mut columns: Vec<Column> =
        RANK_COUNTS.iter().map(|&ranks| Column::new(&reference, ranks, network)).collect();
    for _ in 0..ROUNDS {
        for column in &mut columns {
            column.round();
        }
    }
    let t1 = Spread::of(columns[0].step.clone()).median;
    let (mut hidden_sum, mut modeled_sum) = (0.0, 0.0);
    let points = columns
        .into_iter()
        .map(|c| {
            let steps = c.step.len();
            let step_s = Spread::of(c.step);
            let hidden = c.modeled - c.exposed;
            if c.ranks > 1 {
                hidden_sum += hidden;
                modeled_sum += c.modeled;
            }
            // closed form: perfect compute scaling of the 1-rank step plus
            // the mean per-rank exposed exchange the overlap could not hide
            let model_step = overlap_model_step_s(t1, c.ranks, steps, c.exposed);
            RankPoint {
                ranks: c.ranks,
                steps,
                step_s,
                compute_s: Spread::of(c.compute),
                host_workers: c.at_once.workers(),
                host_wall_serial_s: Spread::of(c.serial),
                host_wall_pool_s: Spread::of(c.pool),
                modeled_exchange_s: c.modeled,
                exposed_exchange_s: c.exposed,
                hidden_fraction: if c.modeled == 0.0 { 1.0 } else { hidden / c.modeled },
                speedup_exec: t1 / step_s.median,
                speedup_model: t1 / model_step,
                speedup_ideal: c.ranks as f64,
            }
        })
        .collect();
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
    let report = sweep((16, 16, 16), 4);
    println!("executed multi-rank stepping — {} over {}", report.deck, report.network);
    println!("median [quartiles] of {} steps a column, in {ROUNDS} interleaved rounds", ROUNDS * STEPS_PER_ROUND);
    let us = |s: &Spread| format!("{:.1} [{:.1}–{:.1}]", s.median * 1e6, s.q1 * 1e6, s.q3 * 1e6);
    println!(
        "{:>6} {:>26} {:>26} {:>8} {:>8} {:>7}",
        "ranks", "step (µs)", "compute (µs)", "exec ×", "model ×", "hidden"
    );
    for p in &report.points {
        println!(
            "{:>6} {:>26} {:>26} {:>8.2} {:>8.2} {:>6.0}%",
            p.ranks,
            us(&p.step_s),
            us(&p.compute_s),
            p.speedup_exec,
            p.speedup_model,
            p.hidden_fraction * 100.0
        );
    }
    println!("measured wall of a step on this host (no rank has a device of its own here):");
    println!("{:>6} {:>26} {:>6} {:>26} {:>6}", "ranks", "in turn (µs)", "lanes", "at once (µs)", "×");
    for p in &report.points {
        println!(
            "{:>6} {:>26} {:>6} {:>26} {:>6.2}",
            p.ranks,
            us(&p.host_wall_serial_s),
            p.host_workers,
            us(&p.host_wall_pool_s),
            p.host_wall_serial_s.median / p.host_wall_pool_s.median
        );
    }
    println!(
        "overlap hides {:.0}% of modeled exchange time across multi-rank points",
        report.hidden_fraction_overall * 100.0
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_spread_is_the_nearest_rank_quartiles_of_its_samples() {
        let s = Spread::of(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        let one = Spread::of(vec![7.0]);
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
    }
}
