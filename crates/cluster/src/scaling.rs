//! The strong-scaling generator (paper Fig 10).
//!
//! For each GPU count, the per-GPU step time is
//! `push + field-advance + communication`:
//!
//! * **push** — from `memsim::push::gpu_push` over the rank's share of
//!   the grid, with a random (sorting-disabled, as in §5.5) particle
//!   order. As ranks multiply, the local grid shrinks into the GPU's
//!   last-level cache and the per-particle cost drops — the superlinear
//!   mechanism.
//! * **field advance** — bandwidth-bound sweep over the local cells.
//! * **communication** — the α–β model over six ghost-face messages plus
//!   migrated particles: the particles of the rank's boundary cell layer
//!   (surface/volume × local particles) times a fixed thermal-flux
//!   fraction, `BOUNDARY_CROSS_FRACTION` = 0.05 a step. The constant is
//!   an estimate, not fitted to the [`crate::exchange::MigrationStats`]
//!   that [`crate::MultiRankSim`] measures.

use crate::decompose::Decomposition;
use crate::systems::System;
use memsim::gpu::GpuModel;
use memsim::platform::{Platform, PlatformKind};
use memsim::push::{fits_llc_with_particles, grid_fits_llc, gpu_push, PushSpec, PARTICLE_BYTES};
use psort::patterns::random_cells;
use serde::Serialize;

/// Ghost bytes per surface cell per exchange: 6 field components × 4 B.
const GHOST_BYTES_PER_CELL: f64 = 24.0;

/// Fraction of a rank-boundary cell layer's particles that migrate per
/// step (thermal flux estimate, ≈ v̄·dt/2 with v̄ ≈ 0.2c benchmark decks).
const BOUNDARY_CROSS_FRACTION: f64 = 0.05;

/// Cell count the push model is evaluated at; larger local grids are
/// evaluated at this size with the LLC shrunk by the same factor, which
/// preserves every working-set:cache ratio while bounding model cost.
const MODEL_CELLS: usize = 48_000;

/// Model particles per cell (per-particle cost is ppc-insensitive in
/// both the cache-resident and streaming regimes).
const MODEL_PPC: usize = 3;

/// One point on a strong-scaling curve.
#[derive(Debug, Clone, Serialize)]
pub struct ScalePoint {
    /// GPU count.
    pub gpus: usize,
    /// Cells per GPU.
    pub local_cells: usize,
    /// Particles per GPU.
    pub local_particles: usize,
    /// Push time per step, seconds.
    pub push_time: f64,
    /// Field-advance time per step, seconds.
    pub field_time: f64,
    /// Communication time per step, seconds.
    pub comm_time: f64,
    /// Total step time, seconds.
    pub step_time: f64,
    /// Whether the local grid fits in the GPU's LLC.
    pub grid_in_cache: bool,
    /// Particle pushes per nanosecond (per GPU).
    pub pushes_per_ns: f64,
}

impl ScalePoint {
    /// Speedup of this point relative to a baseline step time.
    pub(crate) fn speedup_vs(&self, baseline: &ScalePoint) -> f64 {
        baseline.step_time / self.step_time
    }
}

/// Particle records resident in a GPU's LLC alongside the grid: one warp
/// in flight per compute unit. This is the *occupancy window* that
/// competes with grid data for cache, not the whole population (particles
/// stream; the grid is the reused set). CPUs prefetch through their LLC
/// rather than holding a fixed window, so they contribute zero here.
pub fn resident_particles(platform: &Platform) -> usize {
    match platform.kind {
        PlatformKind::Gpu => platform.compute_units * platform.warp_width,
        PlatformKind::Cpu => 0,
    }
}

/// The in-cache predicate behind [`ScalePoint::grid_in_cache`]: on GPUs,
/// the grid footprint *plus* the resident particle window must fit
/// ([`memsim::push::fits_llc_with_particles`] — a grid that barely fits
/// alone still thrashes once the occupancy window moves in); on CPUs the
/// grid-only predicate, matching the live tuner's prior.
pub(crate) fn local_grid_in_cache(platform: &Platform, local_cells: usize) -> bool {
    match platform.kind {
        PlatformKind::Gpu => {
            fits_llc_with_particles(platform, local_cells, resident_particles(platform))
        }
        PlatformKind::Cpu => grid_fits_llc(platform, local_cells),
    }
}

/// The paper's grid choice per system: "carefully selecting the size of
/// our grid to match the peak performance in Figure 9" — the global grid
/// is the Fig 9 peak size times the GPU count where superlinearity should
/// peak (8× for Sierra, 64× for Selene and Tuolumne).
pub fn paper_global_grid(system: &System) -> (usize, usize, usize) {
    match system.name {
        "Sierra" => (48, 48, 48),      // 8 × 24³ (Fig 9 peak 13,824)
        "Selene" => (176, 176, 176),   // 64 × 44³ (Fig 9 peak 85,184)
        "Tuolumne" => (136, 136, 136), // 64 × 34³ (Fig 9 peak 39,304)
        _ => (64, 64, 64),
    }
}

/// Generate the strong-scaling curve for `system` over its paper sweep.
///
/// `global_grid` is the fixed total problem; `ppc` sets the fixed total
/// particle count (`cells × ppc`).
pub fn strong_scaling(
    system: &System,
    global_grid: (usize, usize, usize),
    ppc: usize,
) -> Vec<ScalePoint> {
    let platform = system.platform();
    let global_cells = global_grid.0 * global_grid.1 * global_grid.2;
    let total_particles = global_cells * ppc;
    let mut points = Vec::with_capacity(system.sweep.len());
    for &gpus in &system.sweep {
        let decomp = Decomposition::new(global_grid, gpus);
        let local_cells = decomp.local_cells(0);
        let local_particles = total_particles / gpus;
        // push model: random order (sorting disabled, §5.5), evaluated
        // at a bounded grid size with the cache scaled by the same factor
        let model_cells = local_cells.min(MODEL_CELLS);
        let scale = local_cells as f64 / model_cells as f64;
        let model_n = (model_cells * MODEL_PPC).min(local_particles).max(1);
        let cells = random_cells(model_n, model_cells, 0x5CA1E + gpus as u64);
        let model = GpuModel::scaled(platform.clone(), scale.max(1.0));
        // atomic terms are excluded from the per-particle extrapolation:
        // in random order their fixed (N-independent) hot-cell component
        // would be mis-scaled, and at these grid sizes and occupancies
        // they are negligible at real particle counts
        let spec = PushSpec { atomic_ops: 0, ..PushSpec::vpic(&cells, model_cells) };
        let push = gpu_push(&model, &spec);
        let per_particle = push.cost.time / model_n as f64;
        let push_time = per_particle * local_particles as f64;
        // field advance: E+B+J sweep, ~100 B touched per cell
        let field_time = local_cells as f64 * 100.0 / platform.dram_bw;
        // communication: ghost faces + migrated particles, one packed
        // message per *remote* face (periodic self-neighbor faces are
        // in-memory copies: a single rank sends nothing, and surface
        // cells are counted per remote face to match)
        let faces = decomp.remote_faces(0);
        let comm_time = if faces == 0 {
            0.0
        } else {
            let face_cells = decomp.surface_cells(0) as f64 / faces as f64;
            let boundary_particles =
                decomp.surface_cells(0) as f64 / local_cells as f64 * local_particles as f64;
            let migrants = boundary_particles * BOUNDARY_CROSS_FRACTION;
            let bytes_per_msg = face_cells * GHOST_BYTES_PER_CELL
                + migrants * PARTICLE_BYTES as f64 / faces as f64;
            system.network.exchange_time(faces, bytes_per_msg)
        };
        // VPIC's sends are non-blocking and overlapped with the push;
        // only the non-overlapped remainder extends the step
        let step_time = field_time + push_time.max(comm_time);
        points.push(ScalePoint {
            gpus,
            local_cells,
            local_particles,
            push_time,
            field_time,
            comm_time,
            step_time,
            // particle-aware on GPUs, grid-only on CPUs — shared with the
            // live tuner's cache prior family
            grid_in_cache: local_grid_in_cache(&platform, local_cells),
            pushes_per_ns: local_particles as f64 / (push_time * 1e9),
        });
    }
    points
}

/// The closed-form overlap model the executed step is reported against,
/// `T(N) = T(1)/N + exposed(N)`: perfect compute scaling of the one-rank
/// step `t1_s` plus the mean exchange time per rank and step that no
/// window hid, from `exposed_exchange_s` — the sum of
/// [`crate::StepTiming::exposed_exchange_s`] (itself a sum over ranks) over
/// `steps` steps.
pub fn overlap_model_step_s(t1_s: f64, ranks: usize, steps: usize, exposed_exchange_s: f64) -> f64 {
    t1_s / ranks as f64 + exposed_exchange_s / (steps * ranks) as f64
}

/// Speedups relative to the sweep's first point, paired with the ideal
/// linear speedup for the same GPU ratio.
pub fn speedup_curve(points: &[ScalePoint]) -> Vec<(usize, f64, f64)> {
    let base = &points[0];
    points
        .iter()
        .map(|p| {
            (
                p.gpus,
                p.speedup_vs(base),
                p.gpus as f64 / base.gpus as f64,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems;

    #[test]
    fn sierra_superlinear_then_comm_limited() {
        let sys = systems::sierra();
        let pts = strong_scaling(&sys, paper_global_grid(&sys), 48);
        let curve = speedup_curve(&pts);
        // paper: 25× speedup for 8× GPUs (1 → 8); accept clearly
        // superlinear (> 1.3× ideal)
        let at8 = curve.iter().find(|c| c.0 == 8).unwrap();
        assert!(
            at8.1 > 1.5 * at8.2,
            "Sierra must be superlinear at 8 GPUs: {:.1}x vs ideal {:.0}x",
            at8.1,
            at8.2
        );
        // beyond 8 the efficiency (speedup/ideal) must fall
        let eff = |g: usize| {
            let c = curve.iter().find(|c| c.0 == g).unwrap();
            c.1 / c.2
        };
        assert!(
            eff(32) < eff(8),
            "communication must erode efficiency at 32 GPUs: {} vs {}",
            eff(32),
            eff(8)
        );
        // and communication dominates the 32-GPU step
        let p32 = pts.iter().find(|p| p.gpus == 32).unwrap();
        assert!(p32.comm_time > p32.push_time, "V100@32: comm-limited");
    }

    #[test]
    fn selene_sustains_superlinear_to_512() {
        let sys = systems::selene();
        let pts = strong_scaling(&sys, paper_global_grid(&sys), 32);
        let curve = speedup_curve(&pts);
        // paper: 19× for 8× (8 → 64)
        let at64 = curve.iter().find(|c| c.0 == 64).unwrap();
        assert!(
            at64.1 > 1.3 * at64.2,
            "Selene superlinear at 64: {:.1}x vs ideal {:.0}x",
            at64.1,
            at64.2
        );
        // near-ideal or better all the way to 512
        let at512 = curve.iter().find(|c| c.0 == 512).unwrap();
        assert!(
            at512.1 > 0.8 * at512.2,
            "Selene ≥ near-ideal at 512: {:.0}x vs ideal {:.0}x",
            at512.1,
            at512.2
        );
    }

    #[test]
    fn tuolumne_superlinear_at_64() {
        let sys = systems::tuolumne();
        let pts = strong_scaling(&sys, paper_global_grid(&sys), 32);
        let curve = speedup_curve(&pts);
        // paper: 90.5× for 64×
        let at64 = curve.iter().find(|c| c.0 == 64).unwrap();
        assert!(
            at64.1 > at64.2,
            "Tuolumne superlinear at 64: {:.1}x vs {:.0}x",
            at64.1,
            at64.2
        );
    }

    #[test]
    fn cache_transition_drives_the_superlinearity() {
        let sys = systems::sierra();
        let pts = strong_scaling(&sys, paper_global_grid(&sys), 48);
        let p1 = &pts[0];
        let p8 = pts.iter().find(|p| p.gpus == 8).unwrap();
        assert!(!p1.grid_in_cache, "1 GPU: grid exceeds LLC");
        assert!(p8.grid_in_cache, "8 GPUs: grid fits LLC");
        assert!(p8.pushes_per_ns > p1.pushes_per_ns * 1.5);
    }

    #[test]
    fn superlinear_knee_pinned_at_8_gpus_on_sierra() {
        // regression pin for the particle-aware in-cache bit: the knee
        // (first in-cache sweep point) must stay at 8 GPUs — drifting to
        // 4 or 16 means the resident-particle window changed size
        let sys = systems::sierra();
        let pts = strong_scaling(&sys, paper_global_grid(&sys), 48);
        let knee = pts.iter().find(|p| p.grid_in_cache).map(|p| p.gpus);
        assert_eq!(knee, Some(8), "Sierra knee moved");
        for p in &pts {
            assert_eq!(p.grid_in_cache, p.gpus >= 8, "monotone at {} GPUs", p.gpus);
        }
    }

    #[test]
    fn gpu_in_cache_bit_counts_resident_particles() {
        use memsim::platform::by_name;
        use memsim::push::grid_footprint_bytes;
        let v100 = by_name("V100").unwrap();
        // V100: one warp per CU in flight, 64 B per record
        assert_eq!(resident_particles(&v100), 80 * 32);
        // boundary case: a grid that barely fits alone no longer fits
        // once the 163,840 B occupancy window is charged
        let cells = 14_400;
        assert!(grid_footprint_bytes(cells) <= v100.llc_bytes);
        assert!(grid_fits_llc(&v100, cells));
        assert!(!local_grid_in_cache(&v100, cells));
        // far smaller grids still read in-cache
        assert!(local_grid_in_cache(&v100, 13_000));
        // CPUs keep the grid-only predicate (and zero resident window)
        let milan = by_name("EPYC 7763").unwrap();
        assert_eq!(resident_particles(&milan), 0);
        assert_eq!(local_grid_in_cache(&milan, 500_000), grid_fits_llc(&milan, 500_000));
    }

    #[test]
    fn grids_match_fig9_peaks() {
        let s = systems::sierra();
        let g = paper_global_grid(&s);
        assert_eq!(g.0 * g.1 * g.2, 8 * 13_824);
        let s = systems::selene();
        let g = paper_global_grid(&s);
        assert_eq!(g.0 * g.1 * g.2, 64 * 85_184);
        let s = systems::tuolumne();
        let g = paper_global_grid(&s);
        assert_eq!(g.0 * g.1 * g.2, 64 * 39_304);
    }
}
