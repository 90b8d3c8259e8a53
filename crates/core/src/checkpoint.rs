//! Deterministic checkpoint/restart for [`Simulation`] (DESIGN §10).
//!
//! A checkpoint is a [`ckpt`] container holding everything that feeds the
//! next step's arithmetic: grid geometry, the nine field arrays, every
//! species' SoA particle arrays and `last_sort` skip-cache claim, the
//! scalar loop state (step count, sort cadence phase, strategy, scatter
//! mode *and replica count* — replica count changes deposition summation
//! order, which is bit-visible), the armed [`TuneDriver`]'s full state,
//! lifetime telemetry counter totals, and an energy ledger used as an
//! end-to-end cross-check on restore. Restoring on the same build and
//! stepping produces bit-identical physics to the uninterrupted run
//! (property-tested in `tests/checkpoint_restart.rs`).
//!
//! What is deliberately *not* serialized: per-species sort scratch
//! (re-warms on the first post-restore sort), the accumulator (rebuilt
//! via [`Simulation::configure_scatter`] from the saved worker count),
//! and the tuner's open telemetry window mark (positions in a dead
//! process's stream — see [`crate::tune::DriverState`]).
//!
//! Every decode error is typed ([`RestoreError`]); a checkpoint that
//! parses but disagrees with itself (array length mismatch, unknown enum
//! tag, energy ledger that does not match the restored state) is
//! [`RestoreError::SchemaDrift`], never a silently wrong simulation.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;

use crate::field::FieldArray;
use crate::grid::Grid;
use crate::push::PushStats;
use crate::sim::{LaserDriver, Simulation};
use crate::species::Species;
use crate::tile::TilePolicy;
use crate::tune::{DriverState, ScheduleEntry, TuneDriver};
use ckpt::{RestoreError, SectionBuf, SectionReader, Snapshot, Writer};
use pk::atomic::ScatterMode;
use pk::{DispatchPanic, ExecSpace, Serial};
use psort::SortOrder;
use tuner::{Config, Phase, TileCfg, TunerState};
use vsimd::Strategy;

/// A step failed in a recoverable way. The simulation state is
/// unspecified after an error (the step was torn mid-flight): discard the
/// [`Simulation`] and restore from the last good checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepError {
    /// Worker-pool lanes panicked during a dispatched push
    /// (see [`pk::DispatchPanic`]).
    WorkerPanic {
        /// How many lanes died.
        panicked_lanes: usize,
    },
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::WorkerPanic { panicked_lanes } => {
                write!(f, "step aborted: {panicked_lanes} worker lane(s) panicked")
            }
        }
    }
}

impl std::error::Error for StepError {}

// ------------------------------------------------------------- enum tags

fn strategy_tag(s: Strategy) -> u8 {
    match s {
        Strategy::Auto => 0,
        Strategy::Guided => 1,
        Strategy::Manual => 2,
        Strategy::AdHoc => 3,
    }
}

fn strategy_from(tag: u8) -> Result<Strategy, RestoreError> {
    Ok(match tag {
        0 => Strategy::Auto,
        1 => Strategy::Guided,
        2 => Strategy::Manual,
        3 => Strategy::AdHoc,
        t => return Err(RestoreError::SchemaDrift(format!("unknown strategy tag {t}"))),
    })
}

fn scatter_tag(m: ScatterMode) -> u8 {
    match m {
        ScatterMode::Atomic => 0,
        ScatterMode::Duplicated => 1,
    }
}

fn scatter_from(tag: u8) -> Result<ScatterMode, RestoreError> {
    Ok(match tag {
        0 => ScatterMode::Atomic,
        1 => ScatterMode::Duplicated,
        t => return Err(RestoreError::SchemaDrift(format!("unknown scatter tag {t}"))),
    })
}

fn phase_tag(p: Phase) -> u8 {
    match p {
        Phase::Exploring => 0,
        Phase::Refining => 1,
        Phase::Committed => 2,
    }
}

fn phase_from(tag: u8) -> Result<Phase, RestoreError> {
    Ok(match tag {
        0 => Phase::Exploring,
        1 => Phase::Refining,
        2 => Phase::Committed,
        t => return Err(RestoreError::SchemaDrift(format!("unknown phase tag {t}"))),
    })
}

fn put_order(b: &mut SectionBuf, order: Option<SortOrder>) {
    match order {
        None => b.put_u8(0),
        Some(SortOrder::Random) => b.put_u8(1),
        Some(SortOrder::Standard) => b.put_u8(2),
        Some(SortOrder::Strided) => b.put_u8(3),
        Some(SortOrder::TiledStrided { tile }) => {
            b.put_u8(4);
            b.put_usize(tile);
        }
    }
}

/// Decode what [`put_order`] wrote. A tiled-strided order with a zero
/// tile is drift: its first sort would panic.
fn get_order(r: &mut SectionReader<'_>) -> Result<Option<SortOrder>, RestoreError> {
    Ok(match r.get_u8()? {
        0 => None,
        1 => Some(SortOrder::Random),
        2 => Some(SortOrder::Standard),
        3 => Some(SortOrder::Strided),
        4 => match r.get_usize()? {
            0 => return Err(RestoreError::SchemaDrift("tiled-strided sort order, tile 0".into())),
            tile => Some(SortOrder::TiledStrided { tile }),
        },
        t => return Err(RestoreError::SchemaDrift(format!("unknown sort-order tag {t}"))),
    })
}

/// Encode one tuner configuration: sort order, interval, strategy,
/// scatter mode and tiling.
pub fn put_config(b: &mut SectionBuf, c: &Config) {
    put_order(b, c.order);
    b.put_usize(c.interval);
    b.put_u8(strategy_tag(c.strategy));
    b.put_u8(scatter_tag(c.scatter));
    match c.tile {
        None => b.put_bool(false),
        Some(t) => {
            b.put_bool(true);
            b.put_usize(t.tile_cells);
            b.put_bool(t.compress);
        }
    }
}

/// Decode what [`put_config`] wrote.
pub fn get_config(r: &mut SectionReader<'_>) -> Result<Config, RestoreError> {
    Ok(Config {
        order: get_order(r)?,
        interval: r.get_usize()?,
        strategy: strategy_from(r.get_u8()?)?,
        scatter: scatter_from(r.get_u8()?)?,
        tile: if r.get_bool()? {
            Some(TileCfg { tile_cells: r.get_usize()?, compress: r.get_bool()? })
        } else {
            None
        },
    })
}

// ---------------------------------------------------------- tuner state

fn put_driver_state(b: &mut SectionBuf, d: &DriverState) {
    let t: &TunerState = &d.tuner;
    b.put_usize(t.arms.len());
    for arm in &t.arms {
        put_config(b, arm);
    }
    b.put_usize(t.epoch_steps);
    b.put_u8(phase_tag(t.phase));
    b.put_usize(t.cursor);
    for cost in &t.costs {
        b.put_bool(cost.is_some());
        b.put_f64(cost.unwrap_or(0.0));
    }
    b.put_f64s(&t.rates);
    b.put_f64(t.committed_cost);
    b.put_f64(t.baseline_rate);
    b.put_f64(t.rate_ewma);
    b.put_usize(t.refine_top);
    b.put_usize(t.refine_queue.len());
    for &i in &t.refine_queue {
        b.put_usize(i);
    }
    b.put_u64(t.explorations);
    b.put_u64(d.acc_steps);
    b.put_u64(d.acc_pushed);
    b.put_u64(d.acc_crossings);
    b.put_u64(d.acc_step_ns);
    b.put_u64(d.acc_sort_ns);
    b.put_u64(d.acc_sorts);
    b.put_usize(d.schedule.len());
    for e in &d.schedule {
        b.put_u64(e.step);
        put_config(b, &e.config);
        b.put_usize(e.workers);
    }
    b.put_u64(d.epochs);
    b.put_bool(d.started);
}

fn get_driver_state(r: &mut SectionReader<'_>) -> Result<DriverState, RestoreError> {
    let n_arms = r.get_usize()?;
    let mut arms = Vec::new();
    for _ in 0..n_arms {
        arms.push(get_config(r)?);
    }
    let epoch_steps = r.get_usize()?;
    let phase = phase_from(r.get_u8()?)?;
    let cursor = r.get_usize()?;
    let mut costs = Vec::new();
    for _ in 0..n_arms {
        let present = r.get_bool()?;
        let v = r.get_f64()?;
        costs.push(present.then_some(v));
    }
    let rates = r.get_f64s()?;
    let committed_cost = r.get_f64()?;
    let baseline_rate = r.get_f64()?;
    let rate_ewma = r.get_f64()?;
    let refine_top = r.get_usize()?;
    let n_queue = r.get_usize()?;
    let mut refine_queue = Vec::new();
    for _ in 0..n_queue {
        refine_queue.push(r.get_usize()?);
    }
    let explorations = r.get_u64()?;
    let tuner = TunerState {
        arms,
        epoch_steps,
        phase,
        cursor,
        costs,
        rates,
        committed_cost,
        baseline_rate,
        rate_ewma,
        refine_top,
        refine_queue,
        explorations,
    };
    let acc_steps = r.get_u64()?;
    let acc_pushed = r.get_u64()?;
    let acc_crossings = r.get_u64()?;
    let acc_step_ns = r.get_u64()?;
    let acc_sort_ns = r.get_u64()?;
    let acc_sorts = r.get_u64()?;
    let n_sched = r.get_usize()?;
    let mut schedule = Vec::new();
    for _ in 0..n_sched {
        schedule.push(ScheduleEntry {
            step: r.get_u64()?,
            config: get_config(r)?,
            workers: r.get_usize()?,
        });
    }
    let epochs = r.get_u64()?;
    let started = r.get_bool()?;
    Ok(DriverState {
        tuner,
        acc_steps,
        acc_pushed,
        acc_crossings,
        acc_step_ns,
        acc_sort_ns,
        acc_sorts,
        schedule,
        epochs,
        started,
    })
}

// ------------------------------------------------------------ write path

impl Simulation {
    /// Build the checkpoint container for the current state.
    ///
    /// Tiled simulations are handled transparently: the engine is
    /// drained into the canonical particle layout (an exact round trip —
    /// ids are canonical, so untile→retile is bit-lossless), the
    /// snapshot is taken untiled, the tile policy is recorded in a
    /// `tiling` section, and tiling is re-enabled before returning.
    /// [`Simulation::restore_from_snapshot`] re-enables tiling from the
    /// recorded policy, so a preempted tiled job resumes tiled. Counts
    /// nothing: the caller may add sections before writing.
    pub fn checkpoint_writer(&mut self) -> Writer {
        let tile_policy = self.tile_engine().map(|e| e.policy().clone());
        if tile_policy.is_some() {
            let _s = telemetry::span("ckpt.untile").arg("step", self.step);
            self.disable_tiling();
        }
        let mut w = self.checkpoint_writer_canonical();
        if let Some(policy) = tile_policy {
            let t = w.section("tiling");
            t.put_usize(policy.tile_cells);
            t.put_bool(policy.compress);
            t.put_usize(policy.max_hot);
            match &policy.spill_dir {
                None => t.put_bool(false),
                Some(dir) => {
                    t.put_bool(true);
                    t.put_str(&dir.to_string_lossy());
                }
            }
            let _s = telemetry::span("ckpt.retile").arg("step", self.step);
            self.enable_tiling(policy);
        }
        w
    }

    /// The checkpoint container for a simulation already in canonical
    /// (untiled) particle layout.
    fn checkpoint_writer_canonical(&self) -> Writer {
        debug_assert!(self.tiling.is_none(), "canonical writer needs the untiled layout");
        let mut w = Writer::new();

        let g = w.section("grid");
        g.put_usize(self.grid.nx);
        g.put_usize(self.grid.ny);
        g.put_usize(self.grid.nz);
        g.put_f32(self.grid.dx);
        g.put_f32(self.grid.dy);
        g.put_f32(self.grid.dz);
        g.put_f32(self.grid.dt);

        let s = w.section("sim");
        s.put_u64(self.step);
        // usize::MAX (the "sort immediately" sentinel) survives as
        // u64::MAX; the restore path saturates it back
        s.put_u64(self.steps_since_sort as u64);
        s.put_u8(strategy_tag(self.strategy));
        s.put_u8(scatter_tag(self.scatter_mode));
        s.put_usize(self.scatter_workers);
        put_order(s, self.sort_order);
        s.put_usize(self.sort_interval);
        s.put_bool(self.laser.is_some());
        if let Some(l) = &self.laser {
            s.put_usize(l.plane);
            s.put_f32(l.amplitude);
            s.put_f32(l.omega);
        }

        let f = w.section("fields");
        for arr in self.fields.arrays() {
            f.put_f32s(arr);
        }

        let sp = w.section("species");
        sp.put_usize(self.species.len());
        for s in &self.species {
            sp.put_str(&s.name);
            sp.put_f32(s.q);
            sp.put_f32(s.m);
            sp.put_u32s(&s.cell);
            for arr in s.floats() {
                sp.put_f32s(arr);
            }
            put_order(sp, s.current_order());
        }

        if let Some(driver) = &self.tuner {
            put_driver_state(w.section("tuner"), &driver.state());
        }

        let counters = telemetry::counters();
        let t = w.section("telemetry");
        t.put_usize(counters.len());
        for (name, value) in &counters {
            t.put_str(name);
            t.put_u64(*value);
        }

        let snap = self.energies();
        let e = w.section("energy");
        e.put_f64(snap.time);
        e.put_f64(snap.field_e);
        e.put_f64(snap.field_b);
        e.put_f64s(&snap.kinetic);

        w
    }

    /// The checkpoint as an owned byte buffer. Counts
    /// `ckpt.bytes_written` and records a `ckpt.write` span.
    pub fn checkpoint_bytes(&mut self) -> Vec<u8> {
        let _s = telemetry::span("ckpt.write").arg("step", self.step);
        let bytes = self.checkpoint_writer().to_bytes();
        telemetry::count("ckpt.bytes_written", bytes.len() as u64);
        bytes
    }

    /// Write the checkpoint to `path` atomically (temp file + fsync +
    /// rename), rotating any existing snapshot to `<path>.prev` so a
    /// crash mid-write always leaves one good snapshot behind.
    pub fn checkpoint_to(&mut self, path: &Path) -> std::io::Result<u64> {
        let _s = telemetry::span("ckpt.write").arg("step", self.step);
        let bytes = ckpt::save_atomic(path, &self.checkpoint_writer())?;
        telemetry::count("ckpt.bytes_written", bytes);
        Ok(bytes)
    }

    // --------------------------------------------------------- read path

    /// Rebuild a simulation from checkpoint bytes. Counts
    /// `ckpt.bytes_read` (after counter baselines are adopted, so the
    /// bump is live, not absorbed into the baseline) and records a
    /// `ckpt.restore` span.
    pub fn restore_bytes(bytes: &[u8]) -> Result<Self, RestoreError> {
        let _s = telemetry::span("ckpt.restore");
        let snap = Snapshot::from_bytes(bytes)?;
        let sim = Self::restore_from_snapshot(&snap)?;
        telemetry::count("ckpt.bytes_read", bytes.len() as u64);
        Ok(sim)
    }

    /// Restore from `path`, falling back to the rotated `<path>.prev`
    /// snapshot when the primary is missing or fails *any* stage of
    /// validation (container, CRC, schema, energy cross-check). Returns
    /// the simulation and whether the fallback was used; when both fail,
    /// the primary's error is returned.
    pub fn restore_from_path(path: &Path) -> Result<(Self, bool), RestoreError> {
        let read = |p: &Path| {
            std::fs::read(p).map_err(RestoreError::from).and_then(|b| Self::restore_bytes(&b))
        };
        match read(path) {
            Ok(sim) => Ok((sim, false)),
            Err(primary) => match read(&ckpt::file::prev_path(path)) {
                Ok(sim) => Ok((sim, true)),
                Err(_) => {
                    if telemetry::enabled() {
                        telemetry::dump_flight(&format!(
                            "ckpt.restore: primary and .prev both failed for {}: {primary}",
                            path.display()
                        ));
                    }
                    Err(primary)
                }
            },
        }
    }

    /// Rebuild a simulation from a parsed snapshot. Every section is
    /// decoded strictly (leftover bytes, length mismatches, and unknown
    /// tags are [`RestoreError::SchemaDrift`]); the energy ledger saved
    /// at checkpoint time is recomputed from the restored state and must
    /// match bit-for-bit. Sections it does not read, such as a cluster
    /// snapshot's `cluster` section, are ignored.
    pub(crate) fn restore_from_snapshot(snap: &Snapshot) -> Result<Self, RestoreError> {
        let mut g = snap.section("grid")?;
        let grid = Grid {
            nx: g.get_usize()?,
            ny: g.get_usize()?,
            nz: g.get_usize()?,
            dx: g.get_f32()?,
            dy: g.get_f32()?,
            dz: g.get_f32()?,
            dt: g.get_f32()?,
        };
        g.finish()?;
        if grid.nx == 0 || grid.ny == 0 || grid.nz == 0 {
            return Err(RestoreError::SchemaDrift("grid has zero cells".into()));
        }
        // the header's cell count sizes every allocation below, so it must
        // first match the field arrays the container really carries
        let mut f = snap.section("fields")?;
        let mut fields: [Vec<f32>; 9] = Default::default();
        for arr in &mut fields {
            *arr = f.get_f32s()?;
        }
        f.finish()?;
        let cells = grid.nx.checked_mul(grid.ny).and_then(|c| c.checked_mul(grid.nz));
        for (name, arr) in FieldArray::NAMES.iter().zip(&fields) {
            if cells != Some(arr.len()) {
                return Err(RestoreError::SchemaDrift(format!(
                    "field {name} has {} values for a {}x{}x{} grid",
                    arr.len(),
                    grid.nx,
                    grid.ny,
                    grid.nz
                )));
            }
        }
        let mut sim = Simulation::new(grid);

        let mut s = snap.section("sim")?;
        sim.step = s.get_u64()?;
        sim.steps_since_sort = usize::try_from(s.get_u64()?).unwrap_or(usize::MAX);
        sim.strategy = strategy_from(s.get_u8()?)?;
        let scatter_mode = scatter_from(s.get_u8()?)?;
        let scatter_workers = s.get_usize()?;
        sim.sort_order = get_order(&mut s)?;
        sim.sort_interval = s.get_usize()?;
        if s.get_bool()? {
            let (plane, amplitude, omega) = (s.get_usize()?, s.get_f32()?, s.get_f32()?);
            sim.laser = Some(LaserDriver { plane, amplitude, omega });
        }
        s.finish()?;
        if scatter_workers == 0 {
            return Err(RestoreError::SchemaDrift("scatter worker count is zero".into()));
        }
        if sim.laser.as_ref().is_some_and(|l| l.plane >= sim.grid.nx) {
            return Err(RestoreError::SchemaDrift("laser plane outside the grid".into()));
        }
        // rebuilds the accumulator exactly as the checkpointed run had it
        // (replica count is bit-visible in deposition order)
        sim.configure_scatter(scatter_workers, scatter_mode);

        for (dst, arr) in sim.fields.arrays_mut().into_iter().zip(fields) {
            *dst = arr;
        }

        let mut sp = snap.section("species")?;
        let n_species = sp.get_usize()?;
        for _ in 0..n_species {
            let name = sp.get_str()?;
            let q = sp.get_f32()?;
            let m = sp.get_f32()?;
            if m.is_nan() || m <= 0.0 {
                return Err(RestoreError::SchemaDrift(format!(
                    "species {name:?} mass {m} is not positive"
                )));
            }
            let mut species = Species::new(name.clone(), q, m);
            species.cell = sp.get_u32s()?;
            let n = species.cell.len();
            for (arr_name, arr) in Species::FLOAT_NAMES.iter().zip(species.floats_mut()) {
                *arr = sp.get_f32s()?;
                if arr.len() != n {
                    return Err(RestoreError::SchemaDrift(format!(
                        "species {name:?}: {arr_name} has {} values for {n} particles",
                        arr.len()
                    )));
                }
            }
            let order = get_order(&mut sp)?;
            species.validate(&sim.grid).map_err(|e| {
                RestoreError::SchemaDrift(format!("species {:?}: {e}", species.name))
            })?;
            species.set_order_hint(order);
            species.debug_validate_sorted();
            sim.species.push(species);
        }
        sp.finish()?;

        if snap.has_section("tuner") {
            let mut t = snap.section("tuner")?;
            let state = get_driver_state(&mut t)?;
            t.finish()?;
            let driver = TuneDriver::from_state(state)
                .map_err(|e| RestoreError::SchemaDrift(format!("tuner state: {e}")))?;
            sim.set_tuner(driver);
        }

        let mut t = snap.section("telemetry")?;
        let n_counters = t.get_usize()?;
        let mut saved = std::collections::BTreeMap::new();
        for _ in 0..n_counters {
            let name = t.get_str()?;
            let value = t.get_u64()?;
            saved.insert(name, value);
        }
        t.finish()?;
        telemetry::restore_counter_baselines(&saved);

        // the energy ledger doubles as an end-to-end integrity check:
        // recompute it from the restored state and require bit equality
        let mut e = snap.section("energy")?;
        let time = e.get_f64()?;
        let field_e = e.get_f64()?;
        let field_b = e.get_f64()?;
        let kinetic = e.get_f64s()?;
        e.finish()?;
        let now = sim.energies();
        let matches = now.time.to_bits() == time.to_bits()
            && now.field_e.to_bits() == field_e.to_bits()
            && now.field_b.to_bits() == field_b.to_bits()
            && now.kinetic.len() == kinetic.len()
            && now.kinetic.iter().zip(&kinetic).all(|(a, b)| a.to_bits() == b.to_bits());
        if !matches {
            return Err(RestoreError::SchemaDrift(
                "energy ledger does not match the restored state".into(),
            ));
        }

        // re-enable tiling last: the sections above (species arrays,
        // energy cross-check) all read the canonical layout, and
        // retiling is an exact, deterministic round trip
        if snap.has_section("tiling") {
            let mut t = snap.section("tiling")?;
            let tile_cells = t.get_usize()?;
            let compress = t.get_bool()?;
            let max_hot = t.get_usize()?;
            let spill_dir = if t.get_bool()? {
                Some(std::path::PathBuf::from(t.get_str()?))
            } else {
                None
            };
            t.finish()?;
            if tile_cells == 0 || max_hot == 0 {
                return Err(RestoreError::SchemaDrift(
                    "tiling policy with zero tile_cells or max_hot".into(),
                ));
            }
            sim.enable_tiling(TilePolicy { tile_cells, compress, max_hot, spill_dir });
        }

        Ok(sim)
    }

    // ---------------------------------------------------- recoverable step

    /// [`Simulation::step_on`], but a worker-pool lane panic surfaces as
    /// a typed [`StepError::WorkerPanic`] instead of unwinding through
    /// the caller. Any other panic payload is re-raised unchanged. On
    /// `Err` the step was torn mid-flight and the simulation state is
    /// unspecified: restore from the last checkpoint.
    pub fn try_step_on<S: ExecSpace>(&mut self, space: &S) -> Result<PushStats, StepError> {
        match catch_unwind(AssertUnwindSafe(|| self.step_on(space))) {
            Ok(stats) => Ok(stats),
            Err(payload) => match payload.downcast::<DispatchPanic>() {
                Ok(dp) => {
                    // leave post-mortem evidence: the flight recorder holds
                    // the last spans before the lane died
                    if telemetry::enabled() {
                        telemetry::dump_flight(&format!(
                            "sim.try_step: worker panic on {} lane(s) at step {}",
                            dp.panicked_lanes, self.step
                        ));
                    }
                    Err(StepError::WorkerPanic { panicked_lanes: dp.panicked_lanes })
                }
                Err(other) => resume_unwind(other),
            },
        }
    }

    /// [`Simulation::try_step_on`] on the calling thread.
    pub fn try_step(&mut self) -> Result<PushStats, StepError> {
        self.try_step_on(&Serial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deck::Deck;
    use tuner::Tuner;

    fn weibel() -> Simulation {
        Deck::weibel(6, 6, 6, 4, 0.3).build()
    }

    #[test]
    fn round_trip_restores_bit_identical_state() {
        let mut sim = weibel();
        sim.sort_order = Some(SortOrder::Standard);
        sim.sort_interval = 3;
        sim.run(7);
        let bytes = sim.checkpoint_bytes();
        let restored = Simulation::restore_bytes(&bytes).expect("restore");
        assert_eq!(sim.bit_diff(&restored), None);
        assert_eq!(restored.sort_order, Some(SortOrder::Standard));
        assert_eq!(restored.sort_interval, 3);
        for (sa, sb) in sim.species.iter().zip(&restored.species) {
            assert_eq!(sa.current_order(), sb.current_order());
        }
    }

    #[test]
    fn resumed_run_matches_the_uninterrupted_one() {
        let mut full = weibel();
        full.run(12);
        let mut half = weibel();
        half.run(5);
        let bytes = half.checkpoint_bytes();
        let mut resumed = Simulation::restore_bytes(&bytes).expect("restore");
        resumed.run(7);
        assert_eq!(full.bit_diff(&resumed), None);
    }

    #[test]
    fn tuner_armed_checkpoint_round_trips_the_driver() {
        let arms = vec![
            Config::unsorted(Strategy::Auto, ScatterMode::Atomic),
            Config {
                order: Some(SortOrder::Standard),
                interval: 5,
                strategy: Strategy::Auto,
                scatter: ScatterMode::Atomic,
                tile: Some(TileCfg { tile_cells: 256, compress: true }),
            },
        ];
        let mut sim = weibel();
        sim.set_tuner(TuneDriver::new(Tuner::new(arms, 3)));
        // stop inside the first epoch: the tiled arm must round-trip
        // through the codec without ever being applied (checkpointing
        // requires the canonical untiled layout)
        sim.run(2);
        let bytes = sim.checkpoint_bytes();
        let restored = Simulation::restore_bytes(&bytes).expect("restore");
        let a = sim.tuner().expect("original armed").state();
        let b = restored.tuner().expect("restored armed").state();
        assert_eq!(a, b);
    }

    #[test]
    fn tiled_checkpoint_is_transparent_and_resumes_tiled() {
        use crate::tile::TilePolicy;
        // uninterrupted tiled reference
        let mut full = weibel();
        full.enable_tiling(TilePolicy::new(16));
        full.run(9);
        full.disable_tiling();
        // same run, checkpointed mid-flight while tiled
        let mut half = weibel();
        half.enable_tiling(TilePolicy::new(16));
        half.run(4);
        let bytes = half.checkpoint_bytes();
        // the snapshot is transparent: the sim is still tiled and still
        // steppable afterwards, bit-identically
        assert!(half.is_tiled(), "checkpoint must retile transparently");
        let mut resumed = Simulation::restore_bytes(&bytes).expect("tiled restore");
        assert!(resumed.is_tiled(), "restore must re-enable tiling");
        let p = resumed.tile_engine().unwrap().policy().clone();
        assert_eq!((p.tile_cells, p.compress, p.max_hot), (16, true, 2));
        half.run(5);
        resumed.run(5);
        half.disable_tiling();
        resumed.disable_tiling();
        assert_eq!(full.bit_diff(&half), None);
        assert_eq!(full.bit_diff(&resumed), None);
    }

    #[test]
    fn tiled_checkpoint_carries_the_spill_policy() {
        use crate::tile::TilePolicy;
        let dir = std::env::temp_dir().join(format!("vpic-ckpt-spill-{}", std::process::id()));
        let mut sim = weibel();
        let mut policy = TilePolicy::new(8);
        policy.max_hot = 3;
        policy.compress = false;
        policy.spill_dir = Some(dir.clone());
        sim.enable_tiling(policy.clone());
        sim.run(2);
        let bytes = sim.checkpoint_bytes();
        drop(sim); // Drop sweeps this sim's spill files
        let restored = Simulation::restore_bytes(&bytes).expect("restore");
        assert_eq!(restored.tile_engine().unwrap().policy(), &policy);
        drop(restored);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_sections_surface_typed_errors() {
        let mut sim = weibel();
        sim.run(2);
        let bytes = sim.checkpoint_bytes();
        // truncation anywhere is typed
        match Simulation::restore_bytes(&bytes[..bytes.len() / 2]) {
            Err(RestoreError::Truncated | RestoreError::BadCrc { .. }) => {}
            other => panic!("truncated restore must fail typed, got {:?}", other.err()),
        }
        // a flipped bit is caught by a section CRC
        let mut flipped = bytes.clone();
        flipped[bytes.len() / 2] ^= 0x10;
        match Simulation::restore_bytes(&flipped) {
            Err(_) => {}
            Ok(_) => panic!("bit flip must not restore"),
        }
    }

    #[test]
    fn energy_cross_check_rejects_tampered_state() {
        let mut sim = weibel();
        sim.run(2);
        // build a container whose energy ledger disagrees with its state
        let bytes = sim.checkpoint_bytes();
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        let mut tampered = Writer::new();
        for name in snap.section_names() {
            let mut r = snap.section(name).unwrap();
            if name == "energy" {
                let time = r.get_f64().unwrap();
                let field_e = r.get_f64().unwrap();
                let field_b = r.get_f64().unwrap();
                let kinetic = r.get_f64s().unwrap();
                let e = tampered.section("energy");
                e.put_f64(time);
                e.put_f64(field_e + 1.0); // lie about the field energy
                e.put_f64(field_b);
                e.put_f64s(&kinetic);
            } else {
                tampered.section(name).put_raw(r.take_rest());
            }
        }
        match Simulation::restore_bytes(&tampered.to_bytes()) {
            Err(RestoreError::SchemaDrift(msg)) => {
                assert!(msg.contains("energy"), "unexpected drift message: {msg}")
            }
            other => panic!("tampered energy must be SchemaDrift, got {:?}", other.err()),
        }
    }

    #[test]
    fn zero_tile_sort_order_is_schema_drift() {
        // restoring it used to succeed, and the first scheduled sort
        // then panicked on the zero tile
        let mut sim = weibel();
        sim.sort_order = Some(SortOrder::TiledStrided { tile: 0 });
        match Simulation::restore_bytes(&sim.checkpoint_bytes()) {
            Err(RestoreError::SchemaDrift(msg)) => assert!(msg.contains("tile 0"), "{msg}"),
            other => panic!("a zero tile must be SchemaDrift, got {:?}", other.err()),
        }
    }

    /// `bytes` rebuilt with the grid section claiming `dims` cells.
    fn regridded(bytes: &[u8], dims: [usize; 3]) -> Vec<u8> {
        let snap = Snapshot::from_bytes(bytes).unwrap();
        let mut out = Writer::new();
        for name in snap.section_names() {
            let mut r = snap.section(name).unwrap();
            let s = out.section(name);
            if name == "grid" {
                for d in dims {
                    r.get_usize().unwrap();
                    s.put_usize(d);
                }
            }
            s.put_raw(r.take_rest());
        }
        out.to_bytes()
    }

    fn assert_field_drift(bytes: &[u8]) {
        match Simulation::restore_bytes(bytes) {
            Err(RestoreError::SchemaDrift(msg)) => {
                assert!(msg.contains("field ex"), "unexpected drift message: {msg}")
            }
            other => panic!("a grid the fields do not fill must drift, got {:?}", other.err()),
        }
    }

    #[test]
    fn oversized_grid_claim_is_rejected_before_allocating() {
        // 4096³ cells over 216-cell fields: building first would ask the
        // allocator for terabytes and abort
        let bytes = weibel().checkpoint_bytes();
        assert_field_drift(&regridded(&bytes, [4096; 3]));
    }

    #[test]
    fn grid_claim_overflowing_usize_is_rejected() {
        let bytes = weibel().checkpoint_bytes();
        assert_field_drift(&regridded(&bytes, [1 << 22; 3]));
    }

    #[test]
    fn worker_panic_surfaces_as_a_typed_step_error() {
        let mut sim = weibel();
        // inject a panic through the pool by dispatching a poisoned task
        // on the same space the step uses
        let pool = pk::WorkerPool::new(2);
        let err = pool.try_run(&|lane| {
            if lane == 1 {
                panic!("injected lane failure");
            }
        });
        assert!(err.is_err());
        // and the sim-facing wrapper converts lane panics to StepError
        let stats = sim.try_step().expect("serial step cannot panic");
        assert!(stats.pushed > 0);
    }

    #[test]
    fn atomic_file_round_trip_and_fallback() {
        let dir = std::env::temp_dir().join(format!("vpic-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.vpck");
        let mut sim = weibel();
        sim.run(3);
        sim.checkpoint_to(&path).unwrap();
        sim.run(2);
        sim.checkpoint_to(&path).unwrap(); // rotates the first to .prev
        let (restored, fell_back) = Simulation::restore_from_path(&path).unwrap();
        assert!(!fell_back);
        assert_eq!(sim.bit_diff(&restored), None);
        // corrupt the primary: restore falls back to the rotated snapshot
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, ckpt::faults::truncated(&bytes, bytes.len() / 3)).unwrap();
        let (older, fell_back) = Simulation::restore_from_path(&path).unwrap();
        assert!(fell_back);
        assert_eq!(older.step_count(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
