//! Deterministic checkpoint/restart for [`Simulation`] (DESIGN §10).
//!
//! A checkpoint is a [`ckpt`] container holding everything that feeds the
//! next step's arithmetic: grid geometry, the nine field arrays, every
//! species' SoA particle arrays and `last_sort` skip-cache claim, the
//! scalar loop state (step count, sort cadence phase, scatter replica
//! count — it changes deposition summation order, which is bit-visible —
//! and [`Simulation::config`]), the armed [`tuner::Tuner`] in the
//! encoding the `tuner` crate owns, lifetime telemetry counter totals,
//! and an energy ledger used as an end-to-end cross-check on restore.
//! Restoring on the same build and stepping produces bit-identical
//! physics to the uninterrupted run (the checkpoint axis of the
//! differential lattice, `tests/lattice/mod.rs`).
//!
//! What is deliberately *not* serialized: per-species sort scratch
//! (re-warms on the first post-restore sort) and the accumulator
//! (rebuilt from the saved configuration and worker count).
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
use ckpt::{RestoreError, Snapshot, Writer};
use pk::{DispatchPanic, ExecSpace};
use tuner::{get_order, put_order, Config, Tuner};

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

// ------------------------------------------------------------ write path

impl Simulation {
    /// Build the checkpoint container for the current state. Counts
    /// nothing: the caller may add sections before writing.
    pub fn checkpoint_writer(&self) -> Writer {
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
        s.put_usize(self.scatter_workers);
        self.config().put(s);
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

        if let Some(tuner) = &self.tuner {
            tuner.put(w.section("tuner"));
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
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let _s = telemetry::span("ckpt.write").arg("step", self.step);
        let bytes = self.checkpoint_writer().to_bytes();
        telemetry::count("ckpt.bytes_written", bytes.len() as u64);
        bytes
    }

    /// Write the checkpoint to `path` atomically (temp file + fsync +
    /// rename), rotating any existing snapshot to `<path>.prev` so a
    /// crash mid-write always leaves one good snapshot behind.
    pub fn checkpoint_to(&self, path: &Path) -> std::io::Result<u64> {
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
    /// match bit-for-bit. A `tiling` section, written by the removed
    /// tiled execution, is drift. Other sections it does not read, such as
    /// a cluster snapshot's `cluster` section, are ignored.
    pub(crate) fn restore_from_snapshot(snap: &Snapshot) -> Result<Self, RestoreError> {
        if snap.has_section("tiling") {
            return Err(RestoreError::SchemaDrift(
                "tiling section: tiled stepping was removed".into(),
            ));
        }
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
        let steps_since_sort = usize::try_from(s.get_u64()?).unwrap_or(usize::MAX);
        let scatter_workers = s.get_usize()?;
        let config = Config::get(&mut s)?;
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
        // (replica count is bit-visible in deposition order); the sort
        // phase is set after, since a changed order forces a sort
        sim.apply_tune_config(&config, scatter_workers);
        sim.steps_since_sort = steps_since_sort;

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
            sim.set_tuner(Tuner::get(&mut t)?);
            t.finish()?;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deck::Deck;
    use ckpt::faults::rewritten;
    use pk::atomic::ScatterMode;
    use psort::SortOrder;
    use tuner::Phase;
    use vsimd::Strategy;

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
    fn tuner_armed_checkpoint_round_trips_the_tuner() {
        let arms = vec![
            Config::unsorted(Strategy::Auto, ScatterMode::Atomic),
            Config::sorted(SortOrder::Standard, 5, Strategy::Guided, ScatterMode::Duplicated),
        ];
        let mut sim = weibel();
        sim.set_tuner(Tuner::new(arms, 3));
        // stop inside the first epoch: the second arm round-trips through
        // the codec before it is ever applied
        sim.run(2);
        let bytes = sim.checkpoint_bytes();
        let mut restored = Simulation::restore_bytes(&bytes).expect("restore");
        assert!(restored.tuner().is_some());
        assert_eq!(restored.tuner(), sim.tuner());
        // the restored tuner keeps driving: the second arm runs, then commits
        restored.run(5);
        let t = restored.take_tuner().unwrap();
        assert_eq!(t.phase(), Phase::Committed);
        // the schedule stays one continuous, strictly ordered history
        assert!(t.schedule().windows(2).all(|w| w[0].step < w[1].step));
    }

    fn assert_tiled_drift(bytes: &[u8]) {
        match Simulation::restore_bytes(bytes) {
            Err(RestoreError::SchemaDrift(msg)) => {
                assert!(msg.contains("tiled stepping was removed"), "{msg}")
            }
            other => panic!("a tiled snapshot must be SchemaDrift, got {:?}", other.err()),
        }
    }

    #[test]
    fn a_set_tile_flag_in_the_sim_config_is_schema_drift() {
        let bytes = rewritten(&weibel().checkpoint_bytes(), "sim", |r, s| {
            // step, sort phase, scatter workers, then the config up to
            // its tile flag: order, interval, strategy and scatter tags
            for _ in 0..3 {
                s.put_u64(r.get_u64().unwrap());
            }
            put_order(s, get_order(r).unwrap());
            s.put_usize(r.get_usize().unwrap());
            s.put_raw(&[r.get_u8().unwrap(), r.get_u8().unwrap()]);
            assert!(!r.get_bool().unwrap(), "the writer clears the tile flag");
            s.put_bool(true);
            s.put_raw(r.take_rest());
        });
        assert_tiled_drift(&bytes);
    }

    #[test]
    fn a_tiling_section_is_schema_drift() {
        let mut w = weibel().checkpoint_writer();
        w.section("tiling").put_usize(64);
        assert_tiled_drift(&w.to_bytes());
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
        let tampered = rewritten(&sim.checkpoint_bytes(), "energy", |r, e| {
            e.put_f64(r.get_f64().unwrap()); // time
            e.put_f64(r.get_f64().unwrap() + 1.0); // lie about the field energy
            e.put_raw(r.take_rest());
        });
        match Simulation::restore_bytes(&tampered) {
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
        rewritten(bytes, "grid", |r, s| {
            for d in dims {
                r.get_usize().unwrap();
                s.put_usize(d);
            }
            s.put_raw(r.take_rest());
        })
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
        // a particle in a cell the grid does not have fails the push's
        // checked gather inside a pool lane; no sort may touch it first
        let mut sim = weibel();
        sim.sort_order = None;
        let pool = pk::Threads::new(2);
        sim.step_on(&pool);
        *sim.species.last_mut().unwrap().cell.last_mut().unwrap() = u32::MAX;
        match sim.try_step_on(&pool) {
            Err(StepError::WorkerPanic { panicked_lanes }) => assert!(panicked_lanes >= 1),
            other => panic!("expected a typed lane panic, got {other:?}"),
        }
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
