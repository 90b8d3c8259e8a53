//! The differential lattice. A [`Point`] is a deck, a step count and one
//! of two steppers — [`Sim`], [`Ranks`] — with a value on every axis that
//! stepper has. [`check`] steps it and holds it to **one reference per
//! (deck, steps)**, [`reference`]: the deck stepped on `Serial` with
//! `Simulation::new`'s defaults. [`same_state`] is the one comparator; the
//! push statistics must be the reference's too. A point's own checks
//! travel with it: a `SimGpu` ledger charged the push, the field solve and
//! any sort that fired, a snapshot leaves the live run as it was and the run resumed from it, on
//! another space or on ranks, is that run (in array order when it resumed
//! on one rank), a tuned point closed an epoch every epoch length and its
//! schedule, replayed on a fresh deck, gives its bits in its array order,
//! and a rank point's every step statistics and snapshot bytes are its
//! `Serial`-worker twin's. The slices at the end are the enumerated
//! points; `tests/lattice.rs` draws points at random.
#![allow(dead_code)] // each test binary runs only its own slices

use proptest::TestRng;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use vpic2::ckpt::faults::rewritten;
use vpic2::cluster::exchange::MigrationStats;
use vpic2::cluster::{systems, MultiRankSim, NetworkModel};
use vpic2::core::push::PushStats;
use vpic2::core::{Deck, Simulation, Species};
use vpic2::memsim::platform;
use vpic2::pk::atomic::ScatterMode;
use vpic2::pk::{ExecSpace, Serial, SimGpu, Threads};
use vpic2::psort::SortOrder;
use vpic2::tuner::{Config, ScheduleEntry, Tuner};
use vpic2::vsimd::Strategy;

/// The decks, each at the one size every stepper steps it (the LPI deck
/// takes the laser drive through every stepper). `Thin` is a Weibel deck
/// of 4 × 3 × 5 cells, which two to sixteen ranks cut into blocks one and
/// two cells wide: a segment in a plus-side halo cell of such a block
/// deposits onto the second plus-side shell, and along a one-rank axis
/// that shell holds periodic images of the rank's own cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeckKind {
    Weibel,
    Lpi,
    Uniform,
    Thin,
}

impl DeckKind {
    pub const ALL: [DeckKind; 4] = [DeckKind::Weibel, DeckKind::Lpi, DeckKind::Uniform, DeckKind::Thin];

    /// The decks the suites cycle their steppers through; the rank suites
    /// add points on `Thin` on top of them.
    pub const CYCLED: [DeckKind; 3] = [DeckKind::Weibel, DeckKind::Lpi, DeckKind::Uniform];

    pub fn deck(self) -> Deck {
        match self {
            DeckKind::Weibel => Deck::weibel(6, 6, 6, 3, 0.3),
            DeckKind::Lpi => Deck::lpi(8, 4, 4, 4),
            DeckKind::Uniform => Deck::uniform(4, 4, 4, 4),
            DeckKind::Thin => Deck::weibel(4, 3, 5, 3, 0.3),
        }
    }
}

/// Where a [`Sim`] point steps; `Gpu` names a Table-1 GPU for `SimGpu`.
#[derive(Debug, Clone, Copy)]
pub enum Space {
    Serial,
    Threads(usize),
    Gpu(&'static str),
}

impl Space {
    pub fn gpus() -> impl Iterator<Item = Space> {
        platform::gpus().into_iter().map(|p| Space::Gpu(p.name))
    }
}

/// Duplicated scatter has at least as many replicas as the space has lanes.
#[derive(Debug, Clone, Copy)]
pub enum Scatter {
    Atomic,
    Duplicated(usize),
}

/// The tuner's arms: every knob an arm can turn, every strategy and every
/// sorted order.
pub fn arms() -> Vec<Config> {
    use ScatterMode::{Atomic, Duplicated};
    vec![
        Config::unsorted(Strategy::Auto, Atomic),
        Config::sorted(SortOrder::Standard, 3, Strategy::Guided, Duplicated),
        Config::sorted(SortOrder::TiledStrided { tile: 8 }, 2, Strategy::Manual, Atomic),
        Config::sorted(SortOrder::Strided, 4, Strategy::AdHoc, Duplicated),
    ]
}

/// A `Simulation` point; [`Sim::default`] is the reference's own.
#[derive(Debug, Clone, Copy)]
pub struct Sim {
    pub space: Space,
    pub strategy: Strategy,
    pub scatter: Scatter,
    /// Sort order and interval.
    pub sort: Option<(SortOrder, usize)>,
    /// Snapshot after this many steps; the live run goes on, then a run
    /// restored from the snapshot runs the rest too, on this many ranks
    /// (more than one only when untuned); on one rank, on
    /// [`Sim::resume_space`].
    pub checkpoint: Option<(usize, usize)>,
    /// A tuner over [`arms`] with epochs of this many steps.
    pub tuned: Option<usize>,
}

impl Default for Sim {
    fn default() -> Self {
        let (space, strategy, scatter) = (Space::Serial, Strategy::default(), Scatter::Atomic);
        Sim { space, strategy, scatter, sort: None, checkpoint: None, tuned: None }
    }
}

impl Sim {
    /// A sort fires: no tuner replaces it.
    fn sorts(&self) -> bool {
        self.sort.is_some() && self.tuned.is_none()
    }

    /// Where a one-rank resume steps: `Serial` after threads, two threads
    /// after `Serial` when every lane has a replica, the live run's `SimGpu`.
    fn resume_space(&self) -> Space {
        match (self.space, self.scatter) {
            (Space::Threads(_), _) => Space::Serial,
            (Space::Serial, Scatter::Atomic) => Space::Threads(2),
            (Space::Serial, Scatter::Duplicated(replicas)) if replicas >= 2 => Space::Threads(2),
            (space, _) => space,
        }
    }

    fn run(&self, deck: &Deck, steps: usize) -> (Simulation, PushStats) {
        match self.space {
            Space::Serial => self.run_on(&Serial, deck, steps),
            Space::Threads(n) => self.run_on(&Threads::new(n), deck, steps),
            Space::Gpu(name) => {
                let gpu = SimGpu::scaled(platform::by_name(name).unwrap(), 40.0);
                let run = self.run_on(&gpu, deck, steps);
                assert!(gpu.modeled_time() > 0.0, "no cost charged");
                let charged: Vec<&str> = gpu.records().iter().map(|r| r.label).collect();
                let sort = self.sorts().then_some("sort");
                for kernel in ["push", "field_solve"].into_iter().chain(sort) {
                    assert!(charged.contains(&kernel), "{kernel} never charged");
                }
                run
            }
        }
    }

    fn run_on(&self, space: &impl ExecSpace, deck: &Deck, steps: usize) -> (Simulation, PushStats) {
        let mut sim = deck.build();
        sim.strategy = self.strategy;
        if let Scatter::Duplicated(replicas) = self.scatter {
            sim.configure_scatter(replicas, ScatterMode::Duplicated);
        }
        if let Some((order, interval)) = self.sort {
            (sim.sort_order, sim.sort_interval) = (Some(order), interval);
        }
        if let Some(epoch) = self.tuned {
            sim.set_tuner(Tuner::new(arms(), epoch));
        }
        let (k, resume) = self.checkpoint.unwrap_or((steps, 1));
        let mut stats = sim.run_on(space, k);
        let snapshot = (k < steps).then(|| sim.checkpoint_bytes());
        add(&mut stats, sim.run_on(space, steps - k));
        let sim = self.finish(deck, sim);
        if let Some(bytes) = snapshot {
            let mut resumed = Simulation::restore_bytes(&bytes).expect("restore");
            let resumed = if resume == 1 {
                match self.resume_space() {
                    Space::Serial => resumed.run_on(&Serial, steps - k),
                    Space::Threads(n) => resumed.run_on(&Threads::new(n), steps - k),
                    Space::Gpu(_) => resumed.run_on(space, steps - k),
                };
                self.finish(deck, resumed)
            } else {
                let mut ranks = MultiRankSim::new(&resumed, resume, net());
                ranks.run(steps - k);
                ranks.gather()
            };
            // a tuner's arms after the snapshot are the clock's: `finish`
            // held the resumed run to its own schedule; ranks keep the
            // snapshot's particle order and sort no more
            if self.tuned.is_none() {
                let canonical = resume == 1 || !self.sorts();
                assert_eq!(same_state(&sim, &resumed, canonical), None, "resumed vs uninterrupted");
            }
        }
        (sim, stats)
    }

    /// The end of a run: when tuned, an epoch closed every `epoch` steps
    /// and the schedule replay.
    fn finish(&self, deck: &Deck, mut sim: Simulation) -> Simulation {
        if let (Some(tuner), Some(epoch)) = (sim.take_tuner(), self.tuned) {
            // an epoch closes before the step after its last
            let closed = sim.step_count().saturating_sub(1) / epoch as u64;
            assert_eq!(tuner.epochs(), closed, "epochs closed");
            replay(deck, tuner.schedule(), &sim);
        }
        sim
    }
}

fn net() -> NetworkModel {
    systems::selene().network
}

/// A tuned run's recorded schedule, replayed on a fresh deck, gives its
/// bits in its array order.
fn replay(deck: &Deck, schedule: &[ScheduleEntry], tuned: &Simulation) {
    assert!(!schedule.is_empty(), "a tuned run records its schedule");
    let mut replayed = deck.build();
    for step in 0..tuned.step_count() {
        for e in schedule.iter().filter(|e| e.step == step) {
            replayed.apply_tune_config(&e.config, e.workers);
        }
        replayed.step();
    }
    assert_eq!(tuned.bit_diff(&replayed), None, "schedule replay");
}

/// Per-rank configurations: as `MultiRankSim::new` leaves them, a
/// (strategy, scatter) pair per rank (the heterogeneous system the paper
/// targets), or that and a sort order and interval per rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Configs {
    Uniform,
    Heterogeneous,
    ScheduledSort,
}

impl Configs {
    pub const ALL: [Configs; 3] = [Self::Uniform, Self::Heterogeneous, Self::ScheduledSort];

    fn apply(self, mr: &mut MultiRankSim) {
        use ScatterMode::{Atomic, Duplicated};
        use Strategy::{AdHoc, Auto, Guided, Manual};
        let picks = [(Manual, Duplicated), (AdHoc, Atomic), (Guided, Duplicated), (Auto, Atomic)];
        let orders = [SortOrder::Strided, SortOrder::Standard, SortOrder::TiledStrided { tile: 8 }];
        if let Configs::Uniform = self {
            return;
        }
        for r in 0..mr.ranks() {
            let mut cfg = Config::unsorted(picks[r % 4].0, picks[r % 4].1);
            if let Configs::ScheduledSort = self {
                (cfg.order, cfg.interval) = (Some(orders[r % 3]), 1 + r % 3);
            }
            mr.set_rank_config(r, &cfg);
        }
    }
}

/// What the ranks of a step run over: the calling thread, a pool of this
/// many lanes (three over four or eight ranks gives uneven chunks), or
/// `MultiRankSim::step`'s own pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workers {
    Serial,
    Lanes(usize),
    Owned,
}

impl Workers {
    pub const ALL: [Workers; 4] = [Self::Serial, Self::Lanes(2), Self::Lanes(3), Self::Owned];

    fn step(self, mr: &mut MultiRankSim) -> (PushStats, MigrationStats) {
        let (push, migration, _) = match self {
            Workers::Serial => mr.step_on(&Serial),
            Workers::Lanes(n) => mr.step_on(&Threads::new(n)),
            Workers::Owned => mr.step(),
        };
        (push, migration)
    }

    /// The next in [`Workers::ALL`]: what a point resumes on.
    fn next(self) -> Workers {
        let i = Self::ALL.iter().position(|&w| w == self).expect("a listed worker");
        Self::ALL[(i + 1) % Self::ALL.len()]
    }
}

/// A `MultiRankSim` point, compared through its gather, and with its
/// [`Trace`] held to its `Workers::Serial` twin's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ranks {
    pub ranks: usize,
    pub configs: Configs,
    pub workers: Workers,
    /// Checkpoint after this many steps and resume on this many ranks,
    /// stepped by the next workers; on one rank from more, as the
    /// single-domain `Simulation` the snapshot also is.
    pub checkpoint: Option<(usize, usize)>,
}

/// What the workers must not change: every cluster step's statistics,
/// and the checkpoint's bytes with `telemetry` blanked (it carries
/// process-lifetime counter totals, which every write bumps while
/// profiling is on; the pool is host state and not in the bytes).
#[derive(Clone, Default)]
pub struct Trace {
    steps: Vec<(PushStats, MigrationStats)>,
    snapshot: Option<Vec<u8>>,
}

impl Trace {
    fn diff(&self, serial: &Trace) -> Option<String> {
        let (got, want) = (&self.steps, &serial.steps);
        if let Some(i) = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i)) {
            return Some(format!("step {i}: {:?} vs Serial's {:?}", got.get(i), want.get(i)));
        }
        (self.snapshot != serial.snapshot).then(|| "snapshot bytes differ from Serial's".into())
    }
}

impl Ranks {
    pub fn new(ranks: usize) -> Ranks {
        Ranks { ranks, configs: Configs::Uniform, workers: Workers::Serial, checkpoint: None }
    }

    fn run(&self, deck: &Deck, steps: usize) -> (Simulation, PushStats, Trace) {
        // pools are shared per lane count and shut down with their last
        // handle: hold one each so a step does not respawn the threads
        let _pools = (Threads::new(2), Threads::new(3));
        let mut mr = MultiRankSim::new(&deck.build(), self.ranks, net());
        self.configs.apply(&mut mr);
        let (mut stats, mut trace, mut workers) =
            (PushStats::default(), Trace::default(), self.workers);
        let (k, resume) = self.checkpoint.unwrap_or((steps, self.ranks));
        for step in 0..steps {
            if step == k {
                let bytes = mr.checkpoint_bytes();
                trace.snapshot = Some(rewritten(&bytes, "telemetry", |_, _| ()));
                if resume == self.ranks {
                    mr = MultiRankSim::restore_bytes(&bytes).expect("restore");
                } else {
                    let mut sim = Simulation::restore_bytes(&bytes).expect("restore");
                    if resume == 1 {
                        add(&mut stats, sim.run(steps - k));
                        return (sim, stats, trace);
                    }
                    mr = MultiRankSim::new(&sim, resume, net());
                }
                workers = workers.next();
            }
            let (push, migration) = workers.step(&mut mr);
            add(&mut stats, push);
            trace.steps.push((push, migration));
        }
        (mr.gather(), stats, trace)
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Stepper {
    Sim(Sim),
    Ranks(Ranks),
}

#[derive(Debug, Clone, Copy)]
pub struct Point {
    pub deck: DeckKind,
    pub steps: usize,
    pub stepper: Stepper,
}

/// A stepped point: its state, its push statistics, whether it is in
/// canonical array order (no sort fired, ranks gathered),
/// and a rank point's [`Trace`].
struct Run {
    state: Simulation,
    stats: PushStats,
    canonical: bool,
    trace: Option<Trace>,
}

impl Point {
    fn run(&self) -> Run {
        let (deck, steps) = (self.deck.deck(), self.steps);
        match self.stepper {
            Stepper::Sim(p) => {
                let (state, stats) = p.run(&deck, steps);
                let canonical = p.tuned.is_none() && !p.sorts();
                Run { state, stats, canonical, trace: None }
            }
            Stepper::Ranks(p) => {
                let (state, stats, trace) = p.run(&deck, steps);
                Run { state, stats, canonical: true, trace: Some(trace) }
            }
        }
    }

    /// A point drawn from the valid combinations only — duplicated scatter
    /// has a replica per lane, a checkpoint falls inside the run — so that
    /// no draw is rejected.
    pub fn draw(rng: &mut TestRng) -> Point {
        fn pick<T: Copy>(rng: &mut TestRng, of: &[T]) -> T {
            of[rng.below(of.len() as u64) as usize]
        }
        let below = |rng: &mut TestRng, n: usize| rng.below(n as u64) as usize;
        let (deck, steps) = (pick(rng, &DeckKind::ALL), 2 + below(rng, 5));
        let inside = |rng: &mut TestRng| (below(rng, 2) == 0).then(|| 1 + below(rng, steps - 1));
        let epoch = |rng: &mut TestRng| 2 + below(rng, 3);
        let stepper = match below(rng, 4) {
            0 => Stepper::Ranks(Ranks {
                ranks: pick(rng, &[1, 2, 4, 8, 16]),
                configs: pick(rng, &Configs::ALL),
                workers: pick(rng, &Workers::ALL),
                checkpoint: inside(rng).map(|k| (k, pick(rng, &[1, 2, 4, 8]))),
            }),
            _ => {
                let mut spaces = vec![Space::Serial, Space::Threads(2), Space::Threads(3)];
                spaces.extend(Space::gpus());
                let space = pick(rng, &spaces);
                let lanes = if let Space::Threads(n) = space { n } else { 1 };
                let replicas = lanes + below(rng, 5 - lanes);
                let scatters = [Scatter::Atomic, Scatter::Duplicated(replicas)];
                let tile = 1 + below(rng, 64);
                let order = pick(rng, &SortOrder::fig7_set(tile));
                let tuned = (below(rng, 4) == 0).then(|| epoch(rng));
                let resume: &[usize] = if tuned.is_none() { &[1, 2, 4, 8] } else { &[1] };
                Stepper::Sim(Sim {
                    space,
                    strategy: pick(rng, &Strategy::ALL),
                    scatter: pick(rng, &scatters),
                    sort: (below(rng, 2) == 0).then(|| (order, 1 + below(rng, 4))),
                    checkpoint: inside(rng).map(|k| (k, pick(rng, resume))),
                    tuned,
                })
            }
        };
        Point { deck, steps, stepper }
    }
}

/// The one reference: `deck` stepped `steps` times on `Serial` with
/// `Simulation::new`'s defaults (unsorted, atomic, one rank),
/// and its push statistics.
pub fn reference(deck: DeckKind, steps: usize) -> (Simulation, PushStats) {
    let mut sim = deck.deck().build();
    let stats = sim.run(steps);
    (sim, stats)
}

fn add(total: &mut PushStats, more: PushStats) {
    total.pushed += more.pushed;
    total.crossings += more.crossings;
}

/// The one comparator. In canonical order, `Simulation::bit_diff`;
/// otherwise `bit_diff` of both sides with each species' records sorted
/// by bits, which compares the nine field arrays by bits and every
/// species as a multiset of whole records (cell and seven floats).
pub fn same_state(want: &Simulation, got: &Simulation, canonical: bool) -> Option<String> {
    if canonical {
        return want.bit_diff(got);
    }
    let by_record = |sim: &Simulation| {
        let mut out = Simulation::new(sim.grid.clone());
        out.set_step_count(sim.step_count());
        for (to, from) in out.fields.arrays_mut().into_iter().zip(sim.fields.arrays()) {
            to.copy_from_slice(from);
        }
        for s in &sim.species {
            let mut order: Vec<usize> = (0..s.len()).collect();
            order.sort_by_cached_key(|&p| (s.cell[p], s.floats().map(|a| a[p].to_bits())));
            let mut sorted = Species::new(s.name.clone(), s.q, s.m);
            order.into_iter().for_each(|p| sorted.push_record(&s.record(p)));
            out.add_species(sorted);
        }
        out
    };
    by_record(want).bit_diff(&by_record(got))
}

/// Check every point, holding each to a reference built once per (deck,
/// steps), and a rank point's [`Trace`] to that of its twin on `Serial`
/// workers, run once per (deck, steps, twin). A failure, a panic inside a
/// point's run included, names the point.
pub fn check(points: impl IntoIterator<Item = Point>) {
    let (mut references, mut serial_traces) = (HashMap::new(), HashMap::new());
    for point in points {
        let (deck, steps) = (point.deck, point.steps);
        let diff = catch_unwind(AssertUnwindSafe(|| {
            let got = point.run();
            let (want, pushed) =
                references.entry((deck, steps)).or_insert_with(|| reference(deck, steps));
            if got.stats != *pushed {
                return Some(format!("{:?} vs {pushed:?}", got.stats));
            }
            if let (Stepper::Ranks(p), Some(trace)) = (point.stepper, &got.trace) {
                let serial = Ranks { workers: Workers::Serial, ..p };
                let twin = serial_traces.entry((deck, steps, serial)).or_insert_with(|| {
                    if p == serial {
                        trace.clone()
                    } else {
                        serial.run(&deck.deck(), steps).2
                    }
                });
                if let Some(diff) = trace.diff(twin) {
                    return Some(diff);
                }
            }
            same_state(want, &got.state, got.canonical)
        }));
        let diff = diff.unwrap_or_else(|cause| {
            Some(match cause.downcast::<String>() {
                Ok(text) => *text,
                Err(cause) => cause.downcast_ref::<&str>().map_or("panic", |s| s).to_string(),
            })
        });
        if let Some(diff) = diff {
            panic!("{point:?}: {diff}");
        }
    }
}

// ── Slices ─────────────────────────────────────────────────────────────
//
// The enumerated points, named by the contract they check, each run from
// the test file of that contract. Between them every value of every axis
// appears.

/// `steppers`, each stepped `steps` times, on the decks in turn.
fn on_decks(steps: usize, steppers: impl IntoIterator<Item = Stepper>) -> Vec<Point> {
    let points = steppers.into_iter().enumerate();
    points.map(|(i, stepper)| Point { deck: DeckKind::CYCLED[i % 3], steps, stepper }).collect()
}

/// No sort, then the four orders of Fig 7.
const ORDERS: [Option<SortOrder>; 5] = [
    None,
    Some(SortOrder::Random),
    Some(SortOrder::Standard),
    Some(SortOrder::Strided),
    Some(SortOrder::TiledStrided { tile: 8 }),
];

/// Every strategy × every sort order, sorting twice in ten steps.
pub fn strategies_by_sorts() -> Vec<Point> {
    let sims = Strategy::ALL.into_iter().flat_map(|strategy| {
        ORDERS.map(|order| Sim { strategy, sort: order.map(|o| (o, 5)), ..Sim::default() })
    });
    on_decks(10, sims.map(Stepper::Sim))
}

/// Atomic, and duplicated over one to four replicas, on one to three lanes.
pub fn scatters() -> Vec<Point> {
    let sims = [1, 2, 3].into_iter().flat_map(|lanes| {
        let space = if lanes == 1 { Space::Serial } else { Space::Threads(lanes) };
        let scatters = (lanes..=4).map(Scatter::Duplicated).chain([Scatter::Atomic]);
        scatters.map(move |scatter| Sim { space, scatter, ..Sim::default() })
    });
    on_decks(8, sims.map(Stepper::Sim))
}

/// `SimGpu` under every sort order, strategy and scatter mode, and resumed
/// from a checkpoint.
pub fn gpu_space() -> Vec<Point> {
    let gpu = Sim { space: Space::Gpu("V100"), ..Sim::default() };
    let sims = ORDERS.into_iter().enumerate().map(|(i, order)| Sim {
        strategy: Strategy::ALL[i % 4],
        scatter: [Scatter::Atomic, Scatter::Duplicated(1)][i % 2],
        sort: order.map(|o| (o, 2)),
        ..gpu
    });
    let sims = sims.chain([Sim { checkpoint: Some((2, 1)), ..gpu }]);
    on_decks(4, sims.map(Stepper::Sim))
}

/// Every Table-1 GPU, sorting every other step.
pub fn every_gpu() -> Vec<Point> {
    let sort = Some((SortOrder::Strided, 2));
    on_decks(4, Space::gpus().map(|space| Stepper::Sim(Sim { space, sort, ..Sim::default() })))
}

/// A checkpoint at each step of a run, resumed on one to eight ranks:
/// every sort order and cadence, every scatter replica count.
pub fn checkpoints() -> Vec<Point> {
    let sims = (0..10).map(|i| Sim {
        scatter: if i % 5 == 0 { Scatter::Atomic } else { Scatter::Duplicated(i % 5) },
        sort: ORDERS[i % 5].map(|o| (o, 1 + i % 4)),
        checkpoint: Some((1 + i % 5, [1, 2, 4, 8][i % 4])),
        ..Sim::default()
    });
    on_decks(6, sims.map(Stepper::Sim))
}

/// The same on two and three lanes, under every strategy.
pub fn threaded_checkpoints() -> Vec<Point> {
    let sims = (0..4).map(|i| Sim {
        space: Space::Threads(2 + i % 2),
        strategy: Strategy::ALL[i],
        scatter: Scatter::Duplicated(2 + i % 2 + i / 2),
        checkpoint: Some((1 + i, 1)),
        ..Sim::default()
    });
    on_decks(6, sims.map(Stepper::Sim))
}

/// A tuner with two-, three- and four-step epochs (its arms sort every
/// two, three and four steps, so an arm can swap in mid-cycle) on every
/// space, and resumed from a checkpoint.
pub fn tuned(steps: usize) -> Vec<Point> {
    let spaces = [Space::Threads(2), Space::Threads(3), Space::Gpu("A100")];
    let sims = (0..5).map(|i| {
        let tuned = Sim { tuned: Some(2 + i % 3), ..Sim::default() };
        match i {
            0 => tuned,
            1 => Sim { checkpoint: Some((5, 1)), ..tuned },
            _ => Sim { space: spaces[i - 2], ..tuned },
        }
    });
    on_decks(steps, sims.map(Stepper::Sim))
}

/// Every fresh partition, and every rank count × per-rank configuration ×
/// rank worker: checkpointed after three of six steps and resumed on as
/// many ranks by the next workers, the four workers of a case on one deck
/// (their `Serial` twin first). The thin deck takes every fresh partition
/// and every rank count's case with one configuration each, in turn.
pub fn ranks_by_workers() -> Vec<Point> {
    let counts = [1, 2, 4, 8, 16].map(Ranks::new);
    let mut points = on_decks(0, counts.into_iter().cycle().take(15).map(Stepper::Ranks));
    points.extend(counts.map(|r| Point { deck: DeckKind::Thin, steps: 0, stepper: Stepper::Ranks(r) }));
    let case = |r: Ranks, configs| Ranks { configs, checkpoint: Some((3, r.ranks)), ..r };
    let cases = counts.into_iter().flat_map(|r| Configs::ALL.map(|configs| case(r, configs)));
    let decks = (0..).map(|i| DeckKind::CYCLED[(i + i / 3) % 3]);
    let thin = counts.into_iter().enumerate().map(|(c, r)| case(r, Configs::ALL[c % 3]));
    for (deck, case) in decks.zip(cases).chain(thin.map(|case| (DeckKind::Thin, case))) {
        let at = |workers| Stepper::Ranks(Ranks { workers, ..case });
        points.extend(Workers::ALL.map(|w| Point { deck, steps: 6, stepper: at(w) }));
    }
    points
}

/// A cluster checkpoint taken on N ranks and restored on M, for every N
/// and M in 1, 2, 4, 8, and on the thin deck for N to 2N (8 to 1); and on
/// Weibel and LPI, a single-domain run's own checkpoint resumed on four
/// ranks, and a four-rank one resumed as a single domain.
pub fn checkpoint_by_restore_ranks() -> Vec<Point> {
    let pair = |i: usize, restore: usize| Ranks {
        ranks: 1 << (i / 4),
        configs: Configs::ALL[i % 3],
        workers: Workers::ALL[(i + i / 4) % 4],
        checkpoint: Some((1 + i % 3, 1 << restore)),
    };
    let mut points = on_decks(4, (0..16).map(|i| Stepper::Ranks(pair(i, i % 4))));
    let thin = (0..4).map(|n| Stepper::Ranks(pair(4 * n + n, (n + 1) % 4)));
    points.extend(thin.map(|stepper| Point { deck: DeckKind::Thin, steps: 4, stepper }));
    let to_four = Stepper::Sim(Sim { checkpoint: Some((2, 4)), ..Sim::default() });
    let to_one = Stepper::Ranks(Ranks { checkpoint: Some((2, 1)), ..Ranks::new(4) });
    for deck in [DeckKind::Weibel, DeckKind::Lpi] {
        points.extend([to_four, to_one].map(|stepper| Point { deck, steps: 4, stepper }));
    }
    points
}

/// Sixteen ranks on every deck: the smallest rank grids.
pub fn sixteen_ranks() -> Vec<Point> {
    let stepper = Stepper::Ranks(Ranks { workers: Workers::Owned, ..Ranks::new(16) });
    DeckKind::ALL.map(|deck| Point { deck, steps: 8, stepper }).into()
}
