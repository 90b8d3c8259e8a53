//! One run of one workload: set-up, the measured closed loop, the
//! correctness checks, and (with tracing on) the per-layer budget.
//!
//! Closed loop, one caller: the next step is issued when the previous one
//! returns. End-to-end numbers come from a run with the benchmark's tracing
//! off and the library's `telemetry` disabled; per-layer numbers from a
//! separate traced run.

use crate::catalogue::{Metric, Workload, END_TO_END, PER_LAYER};
use crate::host;
use crate::json;
use crate::stats::{median, percentile, supported};
use crate::trace::{self, traced_step, Recorder, Scratch, SORT_INTERVAL, SORT_ORDER};
use serde::{Serialize, Value};
use std::time::Instant;
use vpic2::ckpt::crc32::crc32;
use vpic2::cluster::exchange::MigrationStats;
use vpic2::cluster::multirank::{MultiRankSim, StepTiming};
use vpic2::cluster::systems;
use vpic2::core::accumulate::Accumulator;
use vpic2::core::push::{push_species_on, PushStats};
use vpic2::core::{load_interpolators_into, Deck, FieldArray, InterpolatorArray, Simulation};
use vpic2::memsim::push::{FLOPS_PER_PARTICLE, PARTICLE_BYTES};
use vpic2::pk::atomic::ScatterMode;
use vpic2::pk::{ExecSpace, Serial, Threads};
use vpic2::telemetry;
use vpic2::tuner;
use vpic2::vsimd::Strategy;

/// Worker lanes of `weibel-threads`, and the most threads any workload keeps
/// alive (the reference host has two cores).
const LANES: usize = 2;
const RANKS: usize = 4;
/// Steps every set-up runs before measurement starts; the first of them
/// performs the first sort.
const WARMUP_STEPS: usize = 2;
const MIB: f64 = (1 << 20) as f64;

/// Problem and calibration sizes. The benchmark always runs [`FULL`]; the
/// tests shrink it so that a debug build finishes in seconds.
pub struct Sizing {
    /// Weibel deck: cells per side, electrons per cell.
    pub weibel: (usize, usize),
    /// LPI deck: cells along x, y, z (one electron per cell).
    pub lpi: (usize, usize, usize),
    /// Triad arrays as a multiple of the LLC size.
    pub triad_llc_multiple: u64,
    pub flop_iters: usize,
    pub setup_reps: usize,
    pub empty_dispatches: usize,
}

pub const FULL: Sizing = Sizing {
    weibel: (32, 16),
    lpi: (96, 64, 64),
    triad_llc_multiple: 4,
    flop_iters: 20_000_000,
    setup_reps: 5,
    empty_dispatches: 2000,
};

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// How long to measure, as a share of [`REFERENCE_SECONDS`]: see
    /// [`Args::steps`].
    pub seconds: f64,
    pub trace: bool,
}

/// The run length the reference step counts were sized for.
const REFERENCE_SECONDS: f64 = 30.0;

impl Args {
    /// Measured steps N of the untraced run: the workload's reference count
    /// scaled by `seconds` ÷ [`REFERENCE_SECONDS`] and cut to whole blocks of
    /// [`SORT_INTERVAL`], at least one.
    ///
    /// A count, not a stopwatch, ends the run. The physics is not
    /// stationary — as the instability grows, steps and sorts get dearer (a
    /// Weibel step goes from 153 to 175 ms over 80 steps, a sort from 400 to
    /// 650 ms) — so a run that stopped on time would measure different work
    /// on a noisy host, and more of the dear late steps on a faster commit.
    /// On the reference host N steps take about `seconds`.
    pub fn steps(&self) -> usize {
        let reference = if self.workload.is_weibel() { 200.0 } else { 320.0 };
        let blocks = (reference * self.seconds / REFERENCE_SECONDS) as usize / SORT_INTERVAL;
        blocks.max(1) * SORT_INTERVAL
    }
}

/// What one run found.
pub struct Outcome {
    /// Operations: measured steps and correctness checks.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(Metric, f64)>,
    /// Numbers that are not metrics: input sizes, sample counts, digests,
    /// ungated percentiles, calibration sizes.
    pub detail: Value,
    /// The spans of the traced run, for `results/trace-<workload>.json`.
    pub trace: Option<Value>,
}

impl Outcome {
    /// The result line the driver reads.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(m, v)| {
                let entry = vec![
                    ("value".into(), Value::Float(*v)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ];
                (m.name.to_string(), Value::Map(entry))
            })
            .collect();
        json::render(
            &Value::Map(vec![
                ("correct".into(), Value::Bool(self.failed == 0)),
                ("attempted".into(), Value::UInt(self.attempted)),
                ("failed".into(), Value::UInt(self.failed)),
                ("metrics".into(), Value::Map(metrics)),
            ]),
            false,
        )
    }
}

// ── the thing being stepped ────────────────────────────────────────────────

/// The whole-domain state of a subject: its own simulation, or one gathered
/// from its ranks.
enum State<'a> {
    Own(&'a Simulation),
    Gathered(Box<Simulation>),
}

impl std::ops::Deref for State<'_> {
    type Target = Simulation;

    fn deref(&self) -> &Simulation {
        match self {
            State::Own(sim) => sim,
            State::Gathered(sim) => sim,
        }
    }
}

/// A configured simulation the measured loop can step and inspect.
trait Subject {
    fn step(&mut self) -> PushStats;
    /// For digests and invariants.
    fn state(&self) -> State<'_>;
    /// Advance `steps` steps through the benchmark's own phase list. `false`
    /// when the subject's step cannot be driven from outside.
    fn traced_steps(&mut self, _steps: usize, _rec: &mut Recorder) -> bool {
        false
    }
    fn cluster(&self) -> Option<&Ranks> {
        None
    }
}

struct Single<S> {
    sim: Simulation,
    space: S,
}

impl<S: ExecSpace> Subject for Single<S> {
    fn step(&mut self) -> PushStats {
        self.sim.step_on(&self.space)
    }

    fn state(&self) -> State<'_> {
        State::Own(&self.sim)
    }

    fn traced_steps(&mut self, steps: usize, rec: &mut Recorder) -> bool {
        let mut scratch = Scratch::for_sim(&self.sim, self.space.concurrency());
        for _ in 0..steps {
            traced_step(&mut self.sim, &self.space, &mut scratch, rec);
        }
        true
    }
}

/// The executed multi-rank driver, keeping what each step returns.
struct Ranks {
    sim: MultiRankSim,
    log: Vec<(MigrationStats, StepTiming)>,
}

impl Subject for Ranks {
    fn step(&mut self) -> PushStats {
        let (push, migration, timing) = self.sim.step();
        self.log.push((migration, timing));
        push
    }

    fn state(&self) -> State<'_> {
        State::Gathered(Box::new(self.sim.gather()))
    }

    fn cluster(&self) -> Option<&Ranks> {
        Some(self)
    }
}

pub fn deck(workload: Workload, seed: u64, sizing: &Sizing) -> Deck {
    let mut deck = if workload.is_weibel() {
        let (n, ppc) = sizing.weibel;
        Deck::weibel(n, n, n, ppc, 0.4)
    } else {
        let (nx, ny, nz) = sizing.lpi;
        // electron-only for occupancy, not physics: one particle per cell
        Deck { ions: false, ..Deck::lpi(nx, ny, nz, 1) }
    };
    deck.seed = seed;
    deck
}

/// Deck build + configuration (+ pool / rank partition) + warm-up steps, the
/// first of which sorts. Everything but the sort schedule is what
/// `Deck::build()` gives a user.
fn set_up(workload: Workload, seed: u64, sizing: &Sizing) -> Box<dyn Subject> {
    let mut sim = deck(workload, seed, sizing).build();
    sim.sort_order = Some(SORT_ORDER);
    sim.sort_interval = SORT_INTERVAL;
    let mut subject: Box<dyn Subject> = match workload {
        Workload::WeibelSorted | Workload::LpiGridheavy => Box::new(Single { sim, space: Serial }),
        Workload::WeibelThreads => {
            sim.configure_scatter(LANES, ScatterMode::Duplicated);
            Box::new(Single { sim, space: Threads::new(LANES) })
        }
        Workload::WeibelRanks4 => {
            let mut ranks = MultiRankSim::new(&sim, RANKS, systems::selene().network);
            let config = tuner::Config {
                order: sim.sort_order,
                interval: sim.sort_interval,
                strategy: sim.strategy,
                scatter: sim.scatter_mode,
                tile: None,
            };
            for r in 0..RANKS {
                ranks.set_rank_config(r, &config);
            }
            Box::new(Ranks { sim: ranks, log: Vec::new() })
        }
    };
    for _ in 0..WARMUP_STEPS {
        subject.step();
    }
    subject
}

// ── correctness ────────────────────────────────────────────────────────────

/// CRC-32 over the bits of ex, ey, ez, bx, by, bz.
pub fn field_digest(f: &FieldArray) -> u32 {
    let mut bytes = Vec::with_capacity(6 * 4 * f.ex.len());
    for component in [&f.ex, &f.ey, &f.ez, &f.bx, &f.by, &f.bz] {
        for x in component {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    crc32(&bytes)
}

#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: std::fmt::Arguments<'_>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("CHECK FAILED: {what}");
        }
    }
}

#[derive(Clone, Copy)]
struct Invariants {
    particles: usize,
    energy: f64,
    gauss: f64,
}

impl Invariants {
    fn of(sim: &Simulation) -> Self {
        Self {
            particles: sim.particle_count(),
            energy: sim.energies().total(),
            gauss: sim.gauss_residual(),
        }
    }
}

/// The plain reference every run holds itself to: the same deck stepped on
/// `pk::Serial` with atomic scatter and no sorting.
struct Reference {
    /// Invariants of the freshly built deck.
    initial: Invariants,
    /// Field digest after the warm-up steps.
    warm_digest: u32,
}

impl Reference {
    fn new(workload: Workload, seed: u64, sizing: &Sizing) -> Self {
        let mut sim = deck(workload, seed, sizing).build();
        let initial = Invariants::of(&sim);
        sim.run(WARMUP_STEPS);
        Self { initial, warm_digest: field_digest(&sim.fields) }
    }
}

/// Checks (b) to (d) of the issue on the state after the measured steps;
/// returns the energy drift and the Gauss residual.
fn check_invariants(
    workload: Workload,
    reference: &Reference,
    sim: &Simulation,
    checks: &mut Checks,
) -> (f64, f64) {
    let Invariants { particles, energy, gauss } = Invariants::of(sim);
    let initial = &reference.initial;
    checks.check(
        particles == initial.particles,
        format_args!("{particles} particles, started with {}", initial.particles),
    );
    let drift = ((energy - initial.energy) / initial.energy).abs();
    if workload.is_weibel() {
        checks.check(drift <= 0.02, format_args!("energy drifted {drift:e}, over 2%"));
        checks.check(gauss <= 1e-5, format_args!("Gauss residual {gauss:e}, over 1e-5"));
    } else {
        // the antenna injects energy, so it is reported and not gated; the
        // electron-only deck starts with a Gauss residual that charge-
        // conserving deposition must keep where it is
        checks.check(energy.is_finite(), format_args!("energy is {energy}"));
        let moved = ((gauss - initial.gauss) / initial.gauss).abs();
        checks.check(
            moved <= 1e-4,
            format_args!("Gauss residual {} -> {gauss}, moved {moved:e}", initial.gauss),
        );
    }
    (drift, gauss)
}

// ── the measured loop ──────────────────────────────────────────────────────

/// Per-step wall times of a run of whole blocks.
struct Timed {
    step_s: Vec<f64>,
    pushed: u64,
    crossings: u64,
}

impl Timed {
    fn total_s(&self) -> f64 {
        self.step_s.iter().sum()
    }
}

/// Step `subject` `steps` times (a whole number of blocks), timing each.
fn measure(subject: &mut dyn Subject, steps: usize) -> Timed {
    let mut run = Timed { step_s: Vec::with_capacity(steps), pushed: 0, crossings: 0 };
    for _ in 0..steps {
        let t = Instant::now();
        let stats = subject.step();
        run.step_s.push(t.elapsed().as_secs_f64());
        run.pushed += stats.pushed as u64;
        run.crossings += stats.crossings as u64;
    }
    run
}

/// What a run accumulates on its way to an [`Outcome`].
struct Run<'a> {
    args: &'a Args,
    sizing: &'a Sizing,
    reference: Reference,
    checks: Checks,
    detail: Vec<(String, Value)>,
    trace: Option<Value>,
}

impl Run<'_> {
    fn note(&mut self, key: &str, value: impl Serialize) {
        self.detail.push((key.into(), value.to_value()));
    }

    fn set_up(&self) -> Box<dyn Subject> {
        set_up(self.args.workload, self.args.seed, self.sizing)
    }

    fn check_invariants(&mut self, sim: &Simulation) -> (f64, f64) {
        check_invariants(self.args.workload, &self.reference, sim, &mut self.checks)
    }
}

pub fn run(args: &Args, sizing: &Sizing) -> Outcome {
    // the library reads PK_PROFILE on first use; the benchmark decides
    telemetry::set_enabled(false);
    let reference = Reference::new(args.workload, args.seed, sizing);
    let mut run =
        Run { args, sizing, reference, checks: Checks::default(), detail: Vec::new(), trace: None };
    run.note("workload", args.workload.name());
    run.note("seed", args.seed);
    run.note("particles", run.reference.initial.particles);
    let (steps, metrics) = if args.trace { run.per_layer() } else { run.end_to_end() };
    Outcome {
        attempted: steps as u64 + run.checks.attempted,
        failed: run.checks.failed,
        metrics,
        detail: Value::Map(run.detail),
        trace: run.trace,
    }
}

impl Run<'_> {
    /// The untraced run: N steps, timed one by one. Returns N and every
    /// end-to-end metric.
    fn end_to_end(&mut self) -> (usize, Vec<(Metric, f64)>) {
        let mut setup_s = Vec::new();
        let mut subject = None;
        for _ in 0..self.sizing.setup_reps {
            // one workload's memory at a time, so the high-water mark is its own
            drop(subject.take());
            let t = Instant::now();
            let s = self.set_up();
            setup_s.push(t.elapsed().as_secs_f64());
            let (digest, reference) = (field_digest(&s.state().fields), self.reference.warm_digest);
            self.checks.check(
                digest == reference,
                format_args!(
                    "digest {digest:08x} after warm-up, plain reference has {reference:08x}"
                ),
            );
            subject = Some(s);
        }
        let mut subject = subject.expect("setup_reps is at least 1");
        // from here the high-water mark is the configured workload's own: the
        // reference, the earlier set-ups and the checks' copies are behind it
        host::reset_peak_rss();
        let run = measure(&mut *subject, self.args.steps());
        let peak_rss_mib = host::peak_rss_mib();
        let state = subject.state();
        self.check_invariants(&state);

        let step_ms: Vec<f64> = run.step_s.iter().map(|s| s * 1e3).collect();
        self.note("steps", step_ms.len());
        // one deck, seed and N have one digest, whatever stepped them
        self.note("field_digest", field_digest(&state.fields));
        // step times are printed and kept, not gated: on a shared host their
        // median jumps between two levels from one run to the next
        self.note("step_ms_p50", median(&step_ms));
        if supported(step_ms.len(), 90.0) {
            self.note("step_ms_p90", percentile(&step_ms, 90.0));
        }
        // measured blocks start WARMUP_STEPS after a sort, so each block's
        // sort step falls that many steps before its end
        let sort_ms: Vec<f64> = step_ms
            .iter()
            .skip(SORT_INTERVAL - WARMUP_STEPS)
            .step_by(SORT_INTERVAL)
            .copied()
            .collect();
        self.note("sort_step_ms_p50", median(&sort_ms));
        self.note("sort_steps", sort_ms.len());
        self.note("step_ms", &step_ms);

        let values = [run.pushed as f64 / run.total_s(), median(&setup_s), peak_rss_mib];
        (step_ms.len(), END_TO_END.iter().map(|g| g.metric).zip(values).collect())
    }
}

// ── the traced run ─────────────────────────────────────────────────────────

/// Per-layer metrics by name; the ones a workload does not set read 0.
struct Layers(Vec<(Metric, f64)>);

impl Layers {
    fn new() -> Self {
        Self(PER_LAYER.iter().map(|m| (*m, 0.0)).collect())
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self.0.iter_mut().find(|(m, _)| m.name == name);
        slot.unwrap_or_else(|| panic!("{name} is not in the catalogue")).1 = value;
    }
}

impl Run<'_> {
    /// The traced run. Returns the steps it timed and every per-layer metric.
    fn per_layer(&mut self) -> (usize, Vec<(Metric, f64)>) {
        let (args, sizing) = (self.args, self.sizing);
        let mut layers = Layers::new();
        let host_info = host::info();
        let mut triad = host::Triad::new(&host_info, sizing.triad_llc_multiple);
        let triad_before = triad.gbps();
        let peak_gflops = host::peak_gflops_f32(sizing.flop_iters);

        // an untraced run of T = N/2 steps first: it fixes the digest and wall
        // time the traced run is held against. A workload without a traced run
        // spends that run's steps here.
        let mut subject = self.set_up();
        let steps = match subject.cluster() {
            None => (args.steps() / 2).next_multiple_of(SORT_INTERVAL),
            Some(_) => args.steps(),
        };
        let untraced = measure(&mut *subject, steps);
        let particles = untraced.pushed as f64 / steps as f64;
        let state = subject.state();
        let cells = state.grid.cells();
        let digest = field_digest(&state.fields);
        let (drift, gauss) = self.check_invariants(&state);
        drop(state);
        layers.set("core.energy_drift_rel", drift);
        layers.set("core.gauss_residual", gauss);
        layers.set(
            "core.push.crossings_per_particle",
            untraced.crossings as f64 / untraced.pushed as f64,
        );

        layers.set("telemetry.enabled_step_ratio", telemetry_step_ratio(&mut *subject));

        if let Some(ranks) = subject.cluster() {
            // what `MultiRankSim::step` returns, over the untraced steps only
            let log = &ranks.log[WARMUP_STEPS..WARMUP_STEPS + steps];
            let per_step = |f: &dyn Fn(&(MigrationStats, StepTiming)) -> f64| {
                log.iter().map(f).sum::<f64>() / steps as f64
            };
            let migrants = per_step(&|(m, _)| m.migrants as f64);
            let exposed = per_step(&|(_, t)| t.exposed_exchange_s);
            let modeled = per_step(&|(_, t)| t.modeled_exchange_s);
            let populations = ranks.sim.rank_populations();
            let mean = populations.iter().sum::<usize>() as f64 / populations.len() as f64;
            layers.set(
                "cluster.step_ns_per_particle",
                untraced.total_s() * 1e9 / untraced.pushed as f64,
            );
            layers.set("cluster.migrants_per_step", migrants);
            layers.set("cluster.migrant_fraction", migrants / particles);
            layers.set(
                "cluster.rank_imbalance",
                *populations.iter().max().expect("4 ranks") as f64 / mean,
            );
            layers.set("cluster.compute_s_per_step", per_step(&|(_, t)| t.compute_s));
            layers.set("cluster.exposed_exchange_s_per_step.modeled", exposed);
            layers.set(
                "cluster.hidden_fraction.modeled",
                if modeled == 0.0 { 1.0 } else { 1.0 - exposed / modeled },
            );
        }

        // the same T steps again from a fresh set-up, through the phase list
        drop(subject);
        let mut subject = self.set_up();
        let mut rec = Recorder::new();
        if subject.traced_steps(steps, &mut rec) {
            let traced_digest = field_digest(&subject.state().fields);
            self.checks.check(
                traced_digest == digest,
                format_args!(
                    "digest {traced_digest:08x} after {steps} traced steps, not {digest:08x}"
                ),
            );
            self.checks.check(
                rec.pushed == untraced.pushed,
                format_args!("traced run pushed {}, untraced {}", rec.pushed, untraced.pushed),
            );
            let coverage = rec.coverage();
            self.checks.check(
                coverage >= 0.95,
                format_args!("phase spans cover {coverage} of the traced wall, under 0.95"),
            );
            budget_from_spans(&rec, cells as f64, &mut layers);
            let push_ns = rec.total_ns(trace::PUSH) as f64 / rec.pushed as f64;
            let flops_per_byte = FLOPS_PER_PARTICLE / PARTICLE_BYTES as f64;
            let roof_gflops = peak_gflops.min(triad_before * flops_per_byte);
            layers.set("core.push.roofline_fraction", FLOPS_PER_PARTICLE / push_ns / roof_gflops);
            layers.set("trace.coverage", coverage);
            layers.set(
                "trace.overhead_ratio",
                rec.total_ns(trace::STEP) as f64 * 1e-9 / untraced.total_s(),
            );
            self.trace = Some(rec.to_json());
        }

        strategy_sweep(&subject.state(), &mut layers);
        drop(subject);
        layers.set("pk.empty_dispatch_ns_p50", empty_dispatch_ns_p50(sizing.empty_dispatches));

        let triad_after = triad.gbps();
        let triad_drift = triad_after / triad_before;
        layers.set("host.triad_gbps", triad_before);
        layers.set("host.peak_gflops_f32", peak_gflops);
        layers.set("host.nproc", host_info.nproc as f64);
        layers.set("host.llc_mib", host_info.llc_bytes as f64 / MIB);
        layers.set("host.triad_drift", triad_drift);

        self.note("steps", steps);
        self.note("cells", cells);
        self.note("field_digest", digest);
        self.note("triad_array_mib", triad.array_bytes() as f64 / MIB);
        self.note("triad_llc_multiple", triad.llc_multiple);
        self.note("triad_cache_assisted", triad.llc_multiple < 4.0);
        self.note("triad_gbps_after", triad_after);
        self.note("host_drifted", !(0.9..=1.1).contains(&triad_drift));
        self.note("push_flops_per_particle_computed", FLOPS_PER_PARTICLE);
        self.note("push_bytes_per_particle_computed", PARTICLE_BYTES);
        (steps + SORT_INTERVAL, layers.0)
    }
}

/// One more block, the library's own telemetry recording on every second
/// step: Σ wall of the steps with it on ÷ Σ wall of their neighbours with it
/// off. Interleaving cancels the drift of step cost along a run; the pair
/// that holds the block's sort step is left out.
fn telemetry_step_ratio(subject: &mut dyn Subject) -> f64 {
    let (mut off, mut on) = (0.0, 0.0);
    for pair in 0..SORT_INTERVAL / 2 {
        let mut wall = [0.0; 2];
        for (enabled, wall) in [false, true].into_iter().zip(&mut wall) {
            telemetry::set_enabled(enabled);
            let t = Instant::now();
            subject.step();
            *wall = t.elapsed().as_secs_f64();
        }
        // measured blocks start WARMUP_STEPS after a sort, so the next sort
        // falls that many steps before the block's end
        if pair != (SORT_INTERVAL - WARMUP_STEPS) / 2 {
            off += wall[0];
            on += wall[1];
        }
    }
    telemetry::set_enabled(false);
    on / off
}

/// The layer budget of the traced steps: each phase's busy time per particle
/// or per cell, and its share of the step wall.
fn budget_from_spans(rec: &Recorder, cells: f64, layers: &mut Layers) {
    let steps = rec.named(trace::STEP).count() as f64;
    let wall = rec.total_ns(trace::STEP) as f64;
    let pushed = rec.pushed as f64;
    let per_cell = |name| rec.total_ns(name) as f64 / (cells * steps);
    let push = rec.total_ns(trace::PUSH) as f64;
    let sort = rec.total_ns(trace::SORT) as f64;
    let grid: u64 = [trace::INTERPOLATE, trace::CLEAR_J, trace::UNLOAD, trace::FIELD_SOLVE]
        .map(|n| rec.total_ns(n))
        .iter()
        .sum();
    // push cost by position in the sort interval: right after a sort, and
    // right before the next
    let push_at = |phase: u64| {
        let (ns, n) = rec
            .named(trace::PUSH)
            .filter(|s| s.step % SORT_INTERVAL as u64 == phase)
            .fold((0, 0), |(ns, n), s| (ns + s.ns(), n + 1));
        ns as f64 / (n as f64 * pushed / steps)
    };
    layers.set("core.push.ns_per_particle", push / pushed);
    layers.set("core.push.share", push / wall);
    layers.set("core.push.post_sort_ns_per_particle", push_at(0));
    layers.set("core.push.pre_sort_ns_per_particle", push_at(SORT_INTERVAL as u64 - 1));
    layers.set("core.sort.ns_per_particle_step", sort / pushed);
    layers.set("core.sort.ms_per_sort", sort * 1e-6 / rec.named(trace::SORT).count() as f64);
    layers.set("core.sort.share", sort / wall);
    let sorted = rec.sorted_particles as f64;
    layers.set("psort.sort_pairs.ns_per_key", rec.sort_pairs_ns as f64 / sorted);
    layers.set("core.sort.permute_ns_per_particle", (sort - rec.sort_pairs_ns as f64) / sorted);
    layers.set("core.interpolate.ns_per_cell", per_cell(trace::INTERPOLATE));
    layers.set("core.clear_j.ns_per_cell", per_cell(trace::CLEAR_J));
    layers.set("core.unload.ns_per_cell", per_cell(trace::UNLOAD));
    layers.set("core.field_solve.ns_per_cell", per_cell(trace::FIELD_SOLVE));
    layers.set("core.grid.share", grid as f64 / wall);
    layers.set("pk.dispatches_per_step", rec.dispatches as f64 / steps);
}

/// Three push passes and three grid sweeps per vectorisation strategy on
/// `pk::Serial`, each strategy starting from its own clone of the sorted
/// state; the median pass counts.
fn strategy_sweep(state: &Simulation, layers: &mut Layers) {
    const PASSES: usize = 3;
    let grid = &state.grid;
    let mut sorted = state.species.clone();
    for s in &mut sorted {
        s.sort(SORT_ORDER);
    }
    let particles: usize = sorted.iter().map(|s| s.len()).sum();
    let acc = Accumulator::new(grid.cells(), 1, ScatterMode::Atomic);
    let mut interp = InterpolatorArray::new();
    load_interpolators_into(&Serial, Strategy::Auto, &state.fields, &mut interp);
    for strategy in Strategy::ALL {
        let name = strategy.name();
        let mut species = sorted.clone();
        let push_ns: Vec<f64> = (0..PASSES)
            .map(|_| {
                acc.reset();
                let t = Instant::now();
                for s in &mut species {
                    push_species_on(&Serial, strategy, grid, s, &interp, &acc);
                }
                t.elapsed().as_nanos() as f64
            })
            .collect();
        layers.set(
            &format!("vsimd.push_ns_per_particle.{name}"),
            median(&push_ns) / particles as f64,
        );

        let mut fields = state.fields.clone();
        let mut acc = Accumulator::new(grid.cells(), 1, ScatterMode::Atomic);
        let mut interp = InterpolatorArray::new();
        let grid_ns: Vec<f64> = (0..PASSES)
            .map(|_| {
                let t = Instant::now();
                load_interpolators_into(&Serial, strategy, &fields, &mut interp);
                fields.clear_j_on(&Serial);
                acc.reset();
                acc.unload_on(&Serial, strategy, &mut fields);
                fields.advance_b_on(&Serial, strategy, 0.5);
                fields.advance_e_on(&Serial, strategy);
                fields.advance_b_on(&Serial, strategy, 0.5);
                t.elapsed().as_nanos() as f64
            })
            .collect();
        layers
            .set(&format!("vsimd.grid_ns_per_cell.{name}"), median(&grid_ns) / grid.cells() as f64);
    }
}

/// Median cost of a `parallel_for` that does nothing, on the two-lane pool.
fn empty_dispatch_ns_p50(dispatches: usize) -> f64 {
    let pool = Threads::new(LANES);
    let ns: Vec<f64> = (0..dispatches)
        .map(|_| {
            let t = Instant::now();
            pool.parallel_for(LANES, |_| {});
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&ns)
}
