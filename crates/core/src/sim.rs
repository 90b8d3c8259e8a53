//! The simulation driver: the VPIC main loop.
//!
//! One [`Simulation::step`] is VPIC's advance: push every species from the
//! fields (each cell's coefficients built once from E and B → Boris →
//! mover/deposit into the accumulator's edge totals), then advance B and
//! E on the Yee mesh, the E advance taking the current from the totals.
//! The
//! sorting hook ([`Simulation::sort_particles`]) and the strategy/scatter
//! knobs expose exactly the paper's tuning axes.

use crate::accumulate::{Accumulator, Drive};
use crate::energy::EnergySnapshot;
use crate::field::FieldArray;
use crate::grid::Grid;
use crate::push::{push_fields_on, Fields, PushStats};
use crate::species::{Scratch, Species};
use pk::atomic::ScatterMode;
use pk::{ExecSpace, Serial};
use psort::SortOrder;
use tuner::{Config, Measurement, Tuner};
use vsimd::Strategy;

// ── Accounting footprint of the grid-side streaming kernel ────────────────
//
// Per-cell byte/flop counts charged to accounting spaces (`pk::SimGpu`).
// The field solve sweeps the grid arrays with no data-dependent reuse, so
// a streaming model is exact; the footprint comes from the array reads and
// writes each pass performs (f32 = 4 B, i64 = 8 B), the curl stencil's
// neighbor reads taken from cache.

/// The field solve, B½, fused E, B½, per cell: each B half-advance reads
/// E (12 B) and updates B (24 B); the E advance reads the three `i64` edge
/// totals (24 B) and B (12 B) and updates E (24 B). The totals' zeroing
/// writes back the lines just read and is not priced.
const FIELD_SOLVE_BYTES: f64 = 132.0;
/// Curl + update arithmetic across the three passes (60), and each edge
/// total's conversion, scale and add (12).
const FIELD_SOLVE_FLOPS: f64 = 72.0;

/// A plane-antenna current driver (the laser injector for the LPI deck):
/// adds `amplitude · sin(ω·t)` to `jz` over the `x = plane` cells each
/// step, launching an electromagnetic wave into the plasma.
#[derive(Debug, Clone)]
pub struct LaserDriver {
    /// x-plane index of the antenna.
    pub plane: usize,
    /// Peak driven current density.
    pub amplitude: f32,
    /// Angular frequency (normalized; ω = 2πc/λ with λ in cells).
    pub omega: f32,
}

impl LaserDriver {
    /// The driven current of step `step` at timestep `dt`:
    /// `amplitude · sin(ω·t)` with `t = step · dt` rounded to `f32` once.
    pub fn drive_at(&self, step: u64, dt: f32) -> f32 {
        let t = (step as f64 * dt as f64) as f32;
        self.amplitude * (self.omega * t).sin()
    }
}

/// The owned state of one simulation.
pub struct Simulation {
    /// Grid geometry.
    pub grid: Grid,
    /// Field state.
    pub fields: FieldArray,
    /// Particle species.
    pub species: Vec<Species>,
    /// Vectorization strategy of the push; starts as
    /// [`Strategy::default`], the top strategy native to the build target.
    /// The grid kernels take it and ignore it.
    pub strategy: Strategy,
    /// Scatter mode for current deposition.
    pub scatter_mode: ScatterMode,
    /// Optional sorting applied every `sort_interval` steps.
    pub sort_order: Option<SortOrder>,
    /// Steps between sorts (VPIC decks typically sort every ~20 steps).
    pub sort_interval: usize,
    /// Optional laser antenna.
    pub laser: Option<LaserDriver>,
    pub(crate) step: u64,
    /// Steps since the last scheduled sort fired. Starts saturated so
    /// the first step with sorting enabled sorts (unless every species is
    /// already in the requested order, in which case the per-species
    /// skip makes it free).
    pub(crate) steps_since_sort: usize,
    acc: Accumulator,
    /// The particle phase's scratch, one `u32` and one `f32` buffer: the
    /// scheduled sort's permutation and spare column, then the push's
    /// coefficient cache (tags and records). A step sorts before it
    /// pushes and the push empties the cache first, so neither reads what
    /// the other left; kept between steps only so that no step allocates
    /// it. Sized by the longest species and the cache, not by their sum.
    /// Derived state, not checkpointed.
    scratch: Scratch,
    /// The scratch of push blocks 1 and up, each block's coefficient
    /// cache (block 0's is `scratch`): made by the first step that pushes
    /// in several blocks and kept, so that no block copies or rebuilds
    /// another's cache. Empty while every push is one block. Derived
    /// state, not checkpointed.
    block_scratch: Vec<Scratch>,
    /// Worker count the accumulator was last sized for. Tracked here
    /// (the accumulator only materializes replicas in duplicated mode)
    /// so a resumed run keeps its replicas; the bits do not depend on
    /// the count (deposits sum as fixed-point integers with wrapping
    /// adds, in any order).
    pub(crate) scatter_workers: usize,
    /// The adaptive tuner, when [`Simulation::set_tuner`] armed one.
    pub(crate) tuner: Option<Box<Tuner>>,
    /// Wall time the last step spent sorting, ns (`None`: no sort fired).
    pub(crate) last_sort_ns: Option<u64>,
}

impl Simulation {
    /// A simulation with empty fields and no species.
    pub fn new(grid: Grid) -> Self {
        let fields = FieldArray::new(grid.clone());
        let acc = Accumulator::new(grid.cells(), 1, ScatterMode::Atomic);
        Self {
            grid,
            fields,
            species: Vec::new(),
            strategy: Strategy::default(),
            scatter_mode: ScatterMode::Atomic,
            sort_order: None,
            sort_interval: 20,
            laser: None,
            step: 0,
            steps_since_sort: usize::MAX,
            acc,
            scratch: Scratch::default(),
            block_scratch: Vec::new(),
            scatter_workers: 1,
            tuner: None,
            last_sort_ns: None,
        }
    }

    /// Add a species, returning its index.
    pub fn add_species(&mut self, species: Species) -> usize {
        debug_assert!(species.validate(&self.grid).is_ok());
        self.species.push(species);
        self.species.len() - 1
    }

    /// Steps taken so far.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Elapsed simulation time.
    pub fn time(&self) -> f64 {
        self.step as f64 * self.grid.dt as f64
    }

    /// Total particles across species.
    pub fn particle_count(&self) -> usize {
        self.species.iter().map(|s| s.len()).sum()
    }

    /// Sort every species' particles by cell index under `order`
    /// (the paper's §3.2 hook), through the simulation's scratch, with
    /// the bits of [`Species::sort`]. Species already in `order` are
    /// skipped; returns how many species actually moved.
    pub fn sort_particles(&mut self, order: SortOrder) -> usize {
        let Self { species, scratch, .. } = self;
        species.iter_mut().map(|s| s.sort_with(order, None, scratch) as usize).sum()
    }

    /// The scheduled sort of every driver: advance the schedule a step
    /// and, when a sort is due, sort each species not already in order
    /// inside a `sim.sort` span, count those that moved
    /// (`sim.species_sorted`), time it for the tuner and charge `space`
    /// each permutation gather. A rank driver calls it before
    /// [`Simulation::begin_step`] with `ids[s]`, the global ids of species
    /// `s`, which follow the permutation so every particle keeps its id.
    pub fn sort_if_due<S: ExecSpace>(&mut self, space: &S, mut ids: Option<&mut [Vec<u32>]>) {
        let due = self
            .sort_order
            .filter(|_| self.sort_interval > 0 && self.steps_since_sort >= self.sort_interval);
        self.steps_since_sort = if due.is_some() { 1 } else { self.steps_since_sort.saturating_add(1) };
        self.last_sort_ns = None;
        let Some(order) = due else { return };
        let _s = telemetry::span("sim.sort").arg("order", order);
        let t0 = telemetry::now_ns();
        let mut moved = 0u64;
        for (si, s) in self.species.iter_mut().enumerate() {
            let ids = ids.as_deref_mut().map(|ids| ids[si].as_mut_slice());
            let sorted = s.sort_with(order, ids, &mut self.scratch);
            moved += u64::from(sorted);
            if sorted && space.accounting() {
                // charge the sort as the record-permutation gather it
                // performs: `perm[i]` is the old index read to fill slot
                // `i`, over the 8-field 32 B SoA record
                space.charge(&pk::gpu::Access::Gather {
                    label: "sort",
                    keys: &self.scratch.words,
                    table_len: s.len().max(1),
                    elem_bytes: 32,
                    stream_bytes: 32.0,
                    flops: 0.0,
                    atomic: false,
                });
            }
        }
        self.last_sort_ns = Some(telemetry::now_ns().saturating_sub(t0));
        telemetry::count("sim.species_sorted", moved);
    }

    /// The configuration the simulation runs: sort order and cadence,
    /// strategy and scatter mode. The inverse of
    /// [`Simulation::apply_tune_config`], which leaves it unchanged.
    pub fn config(&self) -> Config {
        Config {
            order: self.sort_order,
            interval: self.sort_interval,
            strategy: self.strategy,
            scatter: self.scatter_mode,
            tile: None,
        }
    }

    /// Apply one tuner arm: strategy, scatter mode (the accumulator is
    /// rebuilt for `workers` replicas), sort order and cadence. A changed
    /// sort order forces a sort on the next step. This is the *only*
    /// mutation the adaptive tuner performs, and replaying the same calls
    /// at the same steps (see [`Tuner::schedule`]) reproduces a tuned run
    /// bit-for-bit.
    pub fn apply_tune_config(&mut self, cfg: &Config, workers: usize) {
        self.strategy = cfg.strategy;
        self.configure_scatter(workers.max(1), cfg.scatter);
        if self.sort_order != cfg.order {
            // the next step sorts, however recently one ran
            self.steps_since_sort = usize::MAX;
        }
        self.sort_order = cfg.order;
        self.sort_interval = cfg.interval;
    }

    /// Arm the adaptive tuner: from the next step on, `tuner` measures
    /// epochs and swaps configurations at epoch boundaries (never inside
    /// a step, so physics is bit-identical per-epoch to a fixed-config
    /// run).
    pub fn set_tuner(&mut self, tuner: Tuner) {
        self.tuner = Some(Box::new(tuner));
    }

    /// The armed tuner, if any.
    pub fn tuner(&self) -> Option<&Tuner> {
        self.tuner.as_deref()
    }

    /// Disarm and return the tuner (e.g. to read its schedule).
    pub fn take_tuner(&mut self) -> Option<Tuner> {
        self.tuner.take().map(|b| *b)
    }

    /// Advance one full step on the calling thread; returns aggregate
    /// push statistics.
    pub fn step(&mut self) -> PushStats {
        self.step_on(&Serial)
    }

    /// Advance one full step with the particle push distributed over
    /// `space` (e.g. a pooled [`pk::Threads`]); returns aggregate push
    /// statistics. With a duplicated scatter mode, size the accumulator
    /// via [`Simulation::configure_scatter`] with at least
    /// `space.concurrency()` workers.
    pub fn step_on<S: ExecSpace>(&mut self, space: &S) -> PushStats {
        // the armed tuner's hook (DESIGN §9): apply the arm it asks for
        // between steps, then feed it what the clock around the step saw
        let workers = space.concurrency();
        if let Some(cfg) = self.tuner.as_mut().and_then(|t| t.before_step(self.step, workers)) {
            self.apply_tune_config(&cfg, workers);
        }
        let t0 = telemetry::now_ns();
        let stats = self.step_inner(space);
        let step_ns = telemetry::now_ns().saturating_sub(t0);
        if let Some(t) = &mut self.tuner {
            t.after_step(&Measurement {
                steps: 1,
                pushed: stats.pushed as u64,
                crossings: stats.crossings as u64,
                step_ns,
                sort_ns: self.last_sort_ns.unwrap_or(0),
                sorts: u64::from(self.last_sort_ns.is_some()),
            });
        }
        stats
    }

    fn step_inner<S: ExecSpace>(&mut self, space: &S) -> PushStats {
        let _step_span =
            telemetry::span("sim.step").arg("step", self.step).arg("space", space.name());
        // periodic sort, as VPIC decks schedule it
        self.sort_if_due(space, None);
        let stats = self.particle_phase(space);
        telemetry::count("sim.particles_pushed", stats.pushed as u64);
        telemetry::count("sim.cell_crossings", stats.crossings as u64);
        self.advance_fields(space);
        self.step += 1;
        stats
    }

    /// The particle half of a step, written once for every driver: reset
    /// the accumulator (free when the last E advance consumed it), then push
    /// species by species over the SoA arrays into the accumulator, each
    /// cell's coefficients built from E and B when a push block first
    /// needs them, into that block's cache, which every species shares, in
    /// the buffers of the block's scratch (block 0's is the simulation's
    /// `scratch`).
    fn particle_phase<S: ExecSpace>(&mut self, space: &S) -> PushStats {
        let _s = telemetry::span("sim.push").arg("species", self.species.len());
        self.acc.reset();
        let mut stats = PushStats::default();
        let longest = self.species.iter().map(Species::len).max().unwrap_or(0);
        let blocks = space.concurrency().min(longest).max(1);
        if self.block_scratch.len() < blocks - 1 {
            self.block_scratch.resize_with(blocks - 1, Scratch::default);
        }
        let mut srcs: Vec<Fields> = std::iter::once(&mut self.scratch)
            .chain(&mut self.block_scratch[..blocks - 1])
            .map(|s| Fields::new(&self.fields, std::mem::take(s)))
            .collect();
        for s in &mut self.species {
            let st = push_fields_on(space, self.strategy, &self.grid, s, &mut srcs, &self.acc);
            if st.crossings > 0 {
                // crossings moved particles out of their sorted
                // positions; the next scheduled sort is real work
                s.mark_unsorted();
            }
            stats.pushed += st.pushed;
            stats.crossings += st.crossings;
        }
        let homes = std::iter::once(&mut self.scratch).chain(&mut self.block_scratch);
        for (home, src) in homes.zip(srcs) {
            *home = src.into_scratch();
        }
        stats
    }

    /// The grid-side tail of a step: the leapfrog field advance, B½, E
    /// from the accumulator's edge totals (which it consumes) with the
    /// laser antenna's current on its plane, B½; charged to an accounting
    /// space as one streaming sweep.
    fn advance_fields<S: ExecSpace>(&mut self, space: &S) {
        let _s = telemetry::span("sim.field_solve");
        let g = &self.grid;
        let drive = self.laser.as_ref().map(|l| Drive {
            value: l.drive_at(self.step, g.dt),
            x: l.plane,
            ys: 0..g.ny,
            zs: 0..g.nz,
        });
        self.fields.advance_b_on(space, self.strategy, 0.5);
        self.acc.advance_e_on(space, &mut self.fields, drive.as_ref());
        self.fields.advance_b_on(space, self.strategy, 0.5);
        if space.accounting() {
            let cells = self.grid.cells() as f64;
            let (bytes, flops) = (cells * FIELD_SOLVE_BYTES, cells * FIELD_SOLVE_FLOPS);
            space.charge(&pk::gpu::Access::Stream { label: "field_solve", bytes, flops });
        }
    }

    /// Advance `n` steps.
    pub fn run(&mut self, n: usize) -> PushStats {
        self.run_on(&Serial, n)
    }

    /// Advance `n` steps with the push distributed over `space`.
    pub fn run_on<S: ExecSpace>(&mut self, space: &S, n: usize) -> PushStats {
        let mut total = PushStats::default();
        for _ in 0..n {
            let s = self.step_on(space);
            total.pushed += s.pushed;
            total.crossings += s.crossings;
        }
        total
    }

    /// Energy bookkeeping snapshot.
    pub fn energies(&self) -> EnergySnapshot {
        let _s = telemetry::span("sim.diagnostics");
        EnergySnapshot::capture(self)
    }

    /// Maximum Gauss-law residual `|∇·E − ρ|` over all nodes. With
    /// charge-conserving deposition this stays at its initial value
    /// (≈0 for neutral starts) instead of growing secularly.
    #[allow(clippy::needless_range_loop)] // voxel-indexed sweep matches the math
    pub fn gauss_residual(&self) -> f64 {
        let g = &self.grid;
        let mut rho = vec![0.0f64; g.cells()];
        for s in &self.species {
            for p in 0..s.len() {
                crate::accumulate::deposit_rho_node(
                    g,
                    &mut rho,
                    s.cell[p] as usize,
                    s.dx[p],
                    s.dy[p],
                    s.dz[p],
                    s.q * s.w[p],
                );
            }
        }
        let cell_volume = (g.dx * g.dy * g.dz) as f64;
        let mut worst = 0.0f64;
        for v in 0..g.cells() {
            let xm = g.neighbor(v, (-1, 0, 0));
            let ym = g.neighbor(v, (0, -1, 0));
            let zm = g.neighbor(v, (0, 0, -1));
            let f = &self.fields;
            let div_e = ((f.ex[v] - f.ex[xm]) / g.dx
                + (f.ey[v] - f.ey[ym]) / g.dy
                + (f.ez[v] - f.ez[zm]) / g.dz) as f64;
            let resid = (div_e - rho[v] / cell_volume).abs();
            worst = worst.max(resid);
        }
        worst
    }

    /// Size the accumulator for a worker count and scatter mode: what a
    /// tuner configuration applies, and how a caller sizes the duplicated
    /// mode's replicas for a pool ([`Simulation::step_on`]). An
    /// accumulator already built for both is kept and reset (free when
    /// the last E advance consumed it); any other is rebuilt.
    pub fn configure_scatter(&mut self, workers: usize, mode: ScatterMode) {
        if (self.acc.scatter_mode(), self.scatter_workers) == (mode, workers) {
            self.acc.reset();
        } else {
            self.acc = Accumulator::new(self.grid.cells(), workers, mode);
        }
        self.scatter_mode = mode;
        self.scatter_workers = workers;
    }

    // ── Multi-rank stepping seams (DESIGN §12) ─────────────────────────
    //
    // A decomposed cluster step interleaves halo exchange with the
    // phases of `step_inner`, so the rank driver enters at its seams:
    // the particle phase (fills the private accumulator), the E advance
    // that consumes it, and the step-counter bump. The B advances are
    // driven piecewise by the caller through the public `fields`; the
    // accumulator's raw fixed-point edge totals are exposed so
    // rank-boundary partial deposits can be summed exactly (integer adds
    // commute, so the merge is order- and partition-independent).

    /// First phase of a decomposed step: [`Simulation::step`]'s particle
    /// phase (accumulator reset, push from the fields) on the
    /// calling thread. Sorting is the caller's — see
    /// [`Simulation::sort_if_due`].
    pub fn begin_step(&mut self) -> PushStats {
        self.particle_phase(&Serial)
    }

    /// Second phase of a decomposed step: advance E by a full step on the
    /// calling thread, the current taken from the (halo-merged) edge
    /// totals, which it leaves zero, and `drive` added to `jz` on its
    /// cells ([`Accumulator::advance_e_on`]). Must run after every
    /// rank-boundary partial has been merged via
    /// [`Simulation::acc_set_cell_raw`] and B's halo filled.
    pub fn advance_e_from_totals(&mut self, drive: Option<&Drive>) {
        self.acc.advance_e_on(&Serial, &mut self.fields, drive);
    }

    /// The raw fixed-point totals of the edges `cell` owns — the unit that
    /// ships between ranks during the current halo exchange.
    pub fn acc_cell_raw(&self, cell: usize) -> [i64; crate::accumulate::EDGES] {
        self.acc.cell_raw(cell)
    }

    /// Overwrite the totals of the edges `cell` owns with `raw` (halo fill).
    pub fn acc_set_cell_raw(&self, cell: usize, raw: &[i64; crate::accumulate::EDGES]) {
        self.acc.set_cell_raw(cell, raw)
    }

    /// Final phase of a decomposed step: advance the step counter (the
    /// caller has driven the field advance piecewise through `fields`).
    pub fn finish_step(&mut self) {
        self.step += 1;
    }

    /// Set the step counter directly — the multi-rank gather stamps the
    /// assembled global snapshot with the cluster step so `time()` and
    /// energy snapshots line up with the reference run.
    pub fn set_step_count(&mut self, n: u64) {
        self.step = n;
    }

    /// Where `self` and `other` first differ, or `None` when they are
    /// bit-identical: step count, grid, the six field arrays, then every
    /// species' name, charge, mass and eight particle arrays, floats by
    /// bit pattern. The energy ledger folds these arrays in order, so it
    /// needs no comparison of its own.
    pub fn bit_diff(&self, other: &Simulation) -> Option<String> {
        if self.step != other.step {
            return Some(format!("step count: {} vs {}", self.step, other.step));
        }
        if self.grid != other.grid {
            return Some(format!("grid: {:?} vs {:?}", self.grid, other.grid));
        }
        let field = floats_diff(&FieldArray::NAMES, &self.fields.arrays(), &other.fields.arrays());
        if field.is_some() {
            return field;
        }
        if self.species.len() != other.species.len() {
            return Some(format!("{} vs {} species", self.species.len(), other.species.len()));
        }
        self.species.iter().zip(&other.species).enumerate().find_map(|(si, (a, b))| {
            let same_kind = a.name == b.name
                && a.q.to_bits() == b.q.to_bits()
                && a.m.to_bits() == b.m.to_bits();
            if !same_kind {
                let kind = |s: &Species| format!("{:?} q={} m={}", s.name, s.q, s.m);
                return Some(format!("species {si}: {} vs {}", kind(a), kind(b)));
            }
            first_diff("cell", &a.cell, &b.cell, |c| c)
                .or_else(|| floats_diff(&Species::FLOAT_NAMES, &a.floats(), &b.floats()))
                .map(|d| format!("species {si} ({}) {d}", a.name))
        })
    }
}

/// [`first_diff`] over two tables of `f32` arrays, row by row, each row
/// worded by its entry in `names`.
pub(crate) fn floats_diff(names: &[&str], a: &[&[f32]], b: &[&[f32]]) -> Option<String> {
    let mut rows = names.iter().zip(a.iter().zip(b));
    rows.find_map(|(name, (x, y))| first_diff(name, x, y, f32::to_bits))
}

/// The first index at which two arrays differ by bit pattern (or their
/// lengths, when those differ), worded for an assertion message.
fn first_diff<T: Copy>(what: &str, a: &[T], b: &[T], bits: impl Fn(T) -> u32) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("{what}: {} vs {} values", a.len(), b.len()));
    }
    let i = a.iter().zip(b).position(|(&x, &y)| bits(x) != bits(y))?;
    Some(format!("{what}[{i}]: {:#010x} vs {:#010x}", bits(a[i]), bits(b[i])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deck::Deck;
    use tuner::Phase;

    fn neutral_pair_sim(nx: usize) -> Simulation {
        let grid = Grid::new(nx, nx, nx);
        let mut sim = Simulation::new(grid.clone());
        let mut e = Species::new("electron", -1.0, 1.0);
        // weight chosen so ω_p·dt ≈ 0.2 (resolved plasma oscillation)
        let ppc = 2000.0 / grid.cells() as f32;
        let w = 0.13 / ppc;
        e.load_uniform(&grid, 2000, 0.05, (0.0, 0.0, 0.0), w, 11);
        // ions colocated with electrons: exact initial neutrality
        let mut ion = Species::new("ion", 1.0, crate::constants::ION_MASS_RATIO);
        ion.dx = e.dx.clone();
        ion.dy = e.dy.clone();
        ion.dz = e.dz.clone();
        ion.cell = e.cell.clone();
        ion.ux = vec![0.0; e.len()];
        ion.uy = vec![0.0; e.len()];
        ion.uz = vec![0.0; e.len()];
        ion.w = e.w.clone();
        sim.add_species(e);
        sim.add_species(ion);
        sim
    }

    #[test]
    fn step_counts_and_time_advance() {
        let mut sim = neutral_pair_sim(4);
        assert_eq!(sim.step_count(), 0);
        let stats = sim.run(3);
        assert_eq!(sim.step_count(), 3);
        assert_eq!(stats.pushed, 3 * sim.particle_count());
        assert!((sim.time() - 3.0 * sim.grid.dt as f64).abs() < 1e-9);
    }

    #[test]
    fn particles_stay_valid_over_many_steps() {
        let mut sim = neutral_pair_sim(4);
        sim.run(25);
        for s in &sim.species {
            s.validate(&sim.grid).unwrap();
        }
    }

    #[test]
    fn gauss_law_residual_stays_small() {
        let mut sim = neutral_pair_sim(4);
        let r0 = sim.gauss_residual();
        assert!(r0 < 1e-5, "neutral start: {r0}");
        sim.run(20);
        let r1 = sim.gauss_residual();
        assert!(
            r1 < 5e-4,
            "charge-conserving deposition must keep Gauss residual bounded: {r1}"
        );
    }

    #[test]
    fn total_energy_bounded_in_thermal_plasma() {
        let mut sim = neutral_pair_sim(5);
        let e0 = sim.energies().total();
        sim.run(50);
        let e1 = sim.energies().total();
        let drift = ((e1 - e0) / e0).abs();
        assert!(drift < 0.05, "energy drift {drift} over 50 steps");
    }

    /// Step a Weibel deck on `space`, sorting every second step, and hold
    /// every push block's scratch where the first step put it.
    fn every_block_scratch_stays_put_after_warmup<S: ExecSpace>(space: &S) {
        // the sort's permutation and spare column and the records block 0
        // builds from the fields share one scratch the simulation keeps;
        // every other block keeps a cache of its own, made by the first
        // step. All are sized on the first step and reused after it, on
        // sorting steps too
        let mut sim = Deck::weibel(6, 6, 6, 4, 0.3).build();
        sim.sort_order = Some(SortOrder::Standard);
        sim.sort_interval = 2;
        let lanes = space.concurrency();
        if lanes > 1 {
            sim.configure_scatter(lanes, ScatterMode::Duplicated);
        }
        sim.step_on(space);
        let buffers = |sim: &Simulation| -> Vec<_> {
            std::iter::once(&sim.scratch).chain(&sim.block_scratch).map(Scratch::buffers).collect()
        };
        let warm = buffers(&sim);
        assert_eq!(warm.len(), lanes, "one scratch per push block");
        let longest = sim.species.iter().map(Species::len).max().unwrap();
        let records = crate::interp::COEFFS * sim.grid.cells();
        for (block, &[(_, words), (_, floats)]) in warm.iter().enumerate() {
            let sorted = if block == 0 { longest } else { 0 };
            assert!(words >= sorted.max(sim.grid.cells()), "block {block}'s tags or permutation: {words}");
            assert!(floats >= sorted.max(records), "block {block}'s records or spare column: {floats}");
        }
        let mut sorts = 0;
        for _ in 0..6 {
            let dirty = sim.species.iter().any(|s| s.current_order() != sim.sort_order);
            sim.step_on(space);
            sorts += usize::from(sim.last_sort_ns.is_some() && dirty);
            assert_eq!(buffers(&sim), warm, "a scratch moved or grew after warm-up");
            let own = sim.species.iter().any(Species::holds_sort_buffers);
            assert!(!own, "a species made sort buffers of its own");
        }
        assert_eq!(sorts, 3, "every second step sorts moved particles");
    }

    #[test]
    fn the_push_cache_is_allocation_free_after_warmup() {
        every_block_scratch_stays_put_after_warmup(&Serial);
    }

    #[test]
    fn the_push_caches_are_allocation_free_after_warmup_on_two_lanes() {
        // two push blocks into the duplicated scatter's two replicas
        every_block_scratch_stays_put_after_warmup(&pk::Threads::new(2));
    }

    #[test]
    fn a_new_simulation_takes_the_default_strategy() {
        let sim = Simulation::new(Grid::new(2, 2, 2));
        assert_eq!(sim.strategy, Strategy::default());
        assert!(sim.strategy.is_native());
    }

    #[test]
    fn bit_diff_names_the_first_array_and_index_that_differ() {
        let a = neutral_pair_sim(4);
        let mut b = neutral_pair_sim(4);
        assert_eq!(a.bit_diff(&b), None);
        // equal as floats, different as bits
        b.fields.bz[7] = -0.0;
        assert_eq!(a.bit_diff(&b).as_deref(), Some("bz[7]: 0x00000000 vs 0x80000000"));
        b.fields.bz[7] = 0.0;
        b.species[1].w[3] *= 2.0;
        let d = a.bit_diff(&b).expect("weights differ");
        assert!(d.starts_with(&format!("species 1 ({}) w[3]", a.species[1].name)), "{d}");
        b.species[1].w.pop();
        assert!(a.bit_diff(&b).expect("lengths differ").contains("values"));
        b.species.pop();
        assert_eq!(a.bit_diff(&b).as_deref(), Some("2 vs 1 species"));
        b.set_step_count(1);
        assert_eq!(a.bit_diff(&b).as_deref(), Some("step count: 0 vs 1"));
    }

    #[test]
    fn laser_driver_injects_field_energy() {
        let grid = Grid::new(16, 4, 4);
        let mut sim = Simulation::new(grid);
        sim.laser = Some(LaserDriver { plane: 0, amplitude: 0.1, omega: 0.5 });
        assert_eq!(sim.energies().total(), 0.0);
        sim.run(30);
        let (fe, fb) = sim.fields.energies();
        assert!(fe > 0.0 && fb > 0.0, "antenna must radiate: E={fe}, B={fb}");
    }

    #[test]
    fn applying_the_running_config_leaves_it_unchanged() {
        let mut sim = neutral_pair_sim(4);
        let arm = Config::sorted(SortOrder::Strided, 3, Strategy::Guided, ScatterMode::Duplicated);
        for stepped in [false, true] {
            if stepped {
                sim.apply_tune_config(&arm, 2);
                sim.run(4);
            }
            let running = sim.config();
            sim.apply_tune_config(&running, 2);
            assert_eq!(sim.config(), running, "stepped: {stepped}");
        }
        assert_eq!(sim.config(), arm);
    }

    fn small_arms() -> Vec<Config> {
        vec![
            Config::unsorted(Strategy::Auto, ScatterMode::Atomic),
            Config::sorted(SortOrder::Standard, 5, Strategy::Auto, ScatterMode::Atomic),
            Config::sorted(SortOrder::Strided, 5, Strategy::Manual, ScatterMode::Atomic),
        ]
    }

    #[test]
    fn tuner_walks_epochs_and_records_the_schedule() {
        let mut sim = Deck::weibel(6, 6, 6, 4, 0.3).build();
        sim.set_tuner(Tuner::new(small_arms(), 3));
        // 3 arms × 3-step epochs: 9 steps of exploration, then commit
        sim.run(12);
        let t = sim.take_tuner().expect("tuner still armed");
        assert!(t.epochs() >= 3, "3 exploration epochs must have closed: {}", t.epochs());
        assert_eq!(t.phase(), Phase::Committed);
        assert!(t.committed().is_some());
        let sched = t.schedule();
        assert!(!sched.is_empty());
        assert_eq!(sched[0].step, 0, "first arm applies before the first step");
        assert_eq!(sched[0].config, small_arms()[0]);
        // entries are strictly ordered by step and aligned to epochs
        assert!(sched.windows(2).all(|w| w[0].step < w[1].step));
        for e in &sched[1..] {
            assert_eq!(e.step % 3, 0, "configs only swap at epoch boundaries: {e:?}");
        }
        // the sim ends up running the committed arm
        assert_eq!(sim.config(), *t.committed().unwrap());
    }

    #[test]
    fn saturated_event_shard_does_not_stretch_the_exploration() {
        // past 2^18 events a profiled run's shard evicts its oldest event
        // for each new one and counts the drop; an epoch's numbers come
        // from the clock around the step, so each arm is still scored
        // after one epoch
        let was_enabled = telemetry::enabled();
        telemetry::set_enabled(true);
        for _ in 0..=(1u32 << 18) {
            drop(telemetry::span("tune.test.fill"));
        }
        let mut sim = Deck::weibel(6, 6, 6, 4, 0.3).build();
        sim.set_tuner(Tuner::new(small_arms(), 3));
        // nine steps of exploration; the tenth step's bookkeeping closes
        // the third epoch and commits
        sim.run(10);
        let dropped = telemetry::snapshot().dropped_events;
        telemetry::set_enabled(was_enabled);
        assert!(dropped > 0, "the test thread's shard must be saturated");
        let t = sim.take_tuner().expect("tuner still armed");
        assert_eq!(t.epochs(), 3);
        assert_eq!(t.phase(), Phase::Committed);
        let steps: Vec<u64> = t.schedule().iter().map(|e| e.step).collect();
        assert!(steps.starts_with(&[0, 3, 6]), "one epoch per arm: {steps:?}");
    }
}
