//! GPU particle-push cost model (paper Figs 7, 8, 9 and the per-GPU term
//! of Fig 10).
//!
//! The VPIC particle push, seen by the memory system, is per particle:
//!
//! 1. **stream** — load the particle record, store it back (`particle_bytes`);
//! 2. **gather** — read the cell's interpolator coefficients
//!    (`interp_bytes`, shared by every particle in the cell);
//! 3. **compute** — the Boris rotation etc. (`flops_per_particle`);
//! 4. **scatter** — atomically accumulate the particle's current into the
//!    cell's accumulator (`accum_bytes`, `atomic_ops_per_particle` words).
//!
//! What sorting changes is only the *order* of `cells`, and therefore the
//! warp-level coalescing, the cache residency of the per-cell data, and
//! the atomic conflict rate — exactly the quantities this model counts.
//!
//! The per-cell bytes are VPIC's layout, the paper's subject: a
//! precomputed interpolator record and a 12-slot accumulator per cell.
//! The host push `vpic-core` runs keeps neither — it builds a record per
//! cell from the E and B arrays as it reaches the cell and adds to one
//! fixed-point total per Yee edge (24 B a cell) — and no model here
//! prices that layout.

use crate::cache::CacheSim;
use crate::gpu::GpuModel;
use crate::trace::KernelCost;
use serde::Serialize;

/// Interpolator coefficients gathered per cell: 18 f32 fields plus
/// alignment padding and neighbor metadata ≈ 240 B (VPIC's
/// `interpolator_t` is 18 floats; the padded/indexed form rounds to 240).
/// VPIC's layout: the host push builds its records from the fields and
/// stores no per-cell array of them.
pub(crate) const INTERP_BYTES: u64 = 240;

/// Current accumulator scattered per cell: 12 f32 components with the
/// 4-way bank replication VPIC uses ≈ 192 B. VPIC's layout: the host
/// accumulator is one `i64` total per Yee edge, 24 B a cell.
pub(crate) const ACCUM_BYTES: u64 = 192;

/// Per-cell cache footprint during the push (interpolator + accumulator).
/// 432 B/cell puts the V100's 6 MB LLC at ≈14.5 k resident cells,
/// matching the paper's Fig 9 peak at 13,824 grid points.
pub const CELL_FOOTPRINT_BYTES: u64 = INTERP_BYTES + ACCUM_BYTES;

/// Particle record streamed per push: 8 f32 fields (dx,dy,dz,cell,
/// ux,uy,uz,w) read and written = 64 B.
pub const PARTICLE_BYTES: u64 = 64;

/// FLOPs per particle push (field interpolation + Boris rotation +
/// current form factors), from counting the VPIC kernel.
pub const FLOPS_PER_PARTICLE: f64 = 250.0;

/// Atomic accumulator words updated per particle (12 current components).
pub(crate) const ATOMIC_OPS_PER_PARTICLE: u64 = 12;

/// A particle-push workload: the per-particle cell indices in execution
/// order plus the kernel's per-particle costs.
#[derive(Debug, Clone)]
pub struct PushSpec<'a> {
    /// Cell index of each particle, in the order the kernel visits them.
    pub cells: &'a [u32],
    /// Total grid cells (addressable interpolator/accumulator entries).
    pub grid_cells: usize,
    /// Bytes gathered per cell visit.
    pub interp_bytes: u64,
    /// Bytes scattered (atomically) per cell visit.
    pub accum_bytes: u64,
    /// Bytes streamed per particle (record read + write).
    pub particle_bytes: u64,
    /// FLOPs per particle.
    pub flops_per_particle: f64,
    /// Atomic word updates per particle.
    pub atomic_ops: u64,
}

impl<'a> PushSpec<'a> {
    /// A spec with the VPIC default per-particle costs.
    pub fn vpic(cells: &'a [u32], grid_cells: usize) -> Self {
        Self {
            cells,
            grid_cells,
            interp_bytes: INTERP_BYTES,
            accum_bytes: ACCUM_BYTES,
            particle_bytes: PARTICLE_BYTES,
            flops_per_particle: FLOPS_PER_PARTICLE,
            atomic_ops: ATOMIC_OPS_PER_PARTICLE,
        }
    }

    /// Number of particles.
    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }

}

/// Cache footprint of a grid's per-cell push data (interpolator +
/// accumulator) at the default VPIC record sizes.
pub fn grid_footprint_bytes(cells: usize) -> u64 {
    cells as u64 * CELL_FOOTPRINT_BYTES
}

/// The paper's superlinear-scaling heuristic as a predicate: does the
/// per-rank grid's push working set fit in the platform's last-level
/// cache? When it does, gather/scatter traffic stays cache-resident and
/// sorting particles buys little — `cluster::scaling` uses this to model
/// the strong-scaling cliff and the adaptive tuner uses the *same*
/// function to seed its search from "sorting off".
pub fn grid_fits_llc(platform: &crate::platform::Platform, cells: usize) -> bool {
    grid_footprint_bytes(cells) <= platform.llc_bytes
}

/// Full push working set: the grid's per-cell data *plus* the particle
/// records streaming through the cache. The grid-only footprint is the
/// steady-state floor (records stream once per step); this is the bound
/// that matters when a rank's particles must stay resident while the
/// kernel traverses them.
pub(crate) fn working_set_bytes(cells: usize, particles: usize) -> u64 {
    grid_footprint_bytes(cells) + particles as u64 * PARTICLE_BYTES
}

/// Particle-bytes-aware variant of [`grid_fits_llc`]: does a working set
/// of `cells` grid cells and `particles` resident particle records fit
/// the platform's LLC?
pub fn fits_llc_with_particles(
    platform: &crate::platform::Platform,
    cells: usize,
    particles: usize,
) -> bool {
    working_set_bytes(cells, particles) <= platform.llc_bytes
}

/// Outcome of a modelled push, with the paper's Fig 9 metric attached.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PushCost {
    /// Full bottleneck decomposition.
    pub cost: KernelCost,
    /// Particles pushed per nanosecond (Fig 9's y-axis).
    pub pushes_per_ns: f64,
}

/// Model the push kernel on a GPU.
///
/// The kernel is accounted in *steady state* (the paper times many steps
/// of a running simulation): a warm-up pass populates the cache before
/// the measured pass counts misses.
pub fn gpu_push(model: &GpuModel, spec: &PushSpec<'_>) -> PushCost {
    let p = model.platform();
    let w = p.warp_width;
    let sector = p.sector_bytes;
    let n = spec.len() as f64;
    let mut llc = CacheSim::new(model.llc_bytes(), p.llc_assoc, sector);

    let interp_sectors = spec.interp_bytes.div_ceil(sector);
    let accum_sectors = spec.accum_bytes.div_ceil(sector);
    // address-space split: interpolators first, accumulators after
    let accum_base_sector = spec.grid_cells as u64 * interp_sectors;

    let mut transactions: u64 = 0;
    let mut gather_misses: u64 = 0;
    let mut scatter_misses: u64 = 0;
    let mut conflicts: u64 = 0;
    let mut seq_pairs: u64 = 0;
    let mut total_pairs: u64 = 0;
    let mut distinct: Vec<u64> = Vec::with_capacity(w);

    for pass in 0..2 {
        let measured = pass == 1;
        for warp in spec.cells.chunks(w) {
            distinct.clear();
            distinct.extend(warp.iter().map(|&c| c as u64));
            distinct.sort_unstable();
            distinct.dedup();
            let d = distinct.len() as u64;
            if measured {
                // DRAM row/burst locality: adjacent cell records stream
                // at full bandwidth, scattered ones pay row-activation
                // overhead
                if d >= 2 {
                    total_pairs += d - 1;
                    for pair in distinct.windows(2) {
                        if pair[1] == pair[0] + 1 {
                            seq_pairs += 1;
                        }
                    }
                }
                transactions += d * (interp_sectors + accum_sectors);
                // intra-warp atomic serialization: colliding replays
                conflicts += (warp.len() as u64 - d) * spec.atomic_ops;
            }
            // gather: every distinct cell's interpolator sectors
            for &c in &distinct {
                for s in 0..interp_sectors {
                    if !llc.access_line(c * interp_sectors + s) && measured {
                        gather_misses += 1;
                    }
                }
            }
            // scatter: every distinct cell's accumulator sectors
            for &c in &distinct {
                for s in 0..accum_sectors {
                    if !llc.access_line(accum_base_sector + c * accum_sectors + s)
                        && measured
                    {
                        scatter_misses += 1;
                    }
                }
            }
        }
    }

    // colliding writes during current deposition (the paper's hypothesis
    // for the A100 fall-off at very high particles-per-cell): among the
    // particles concurrently in flight (≈ the platform's MLP window), the
    // hottest cell's updates serialize, each replay exposing part of the
    // memory round trip rather than just the atomic ALU cost.
    let window = (p.max_inflight as usize).max(1);
    let hottest = window_hotness(spec, window) * spec.atomic_ops;
    let replay_cost = p.atomic_ns + p.dram_latency / 4.0;
    // intra-warp conflict replays also re-arbitrate at the L2
    let conflict_cost = p.atomic_ns + p.dram_latency / 8.0;

    let stream_bytes = n * spec.particle_bytes as f64;
    let dram_bytes =
        (gather_misses + 2 * scatter_misses) as f64 * sector as f64 + stream_bytes;
    let llc_traffic = transactions as f64 * sector as f64 + stream_bytes;
    let flops = n * spec.flops_per_particle;
    let cus = p.compute_units as f64;
    // scattered (non-sequential) record streams lose DRAM row locality;
    // CDNA parts degrade harder on scattered traffic (paper Fig 7:
    // "vendor-specific cache and memory differences play a key role")
    let seq_fraction = if total_pairs == 0 {
        1.0
    } else {
        seq_pairs as f64 / total_pairs as f64
    };
    let eff_floor = match p.vendor {
        crate::platform::Vendor::Amd => 0.30,
        _ => 0.45,
    };
    let dram_eff = eff_floor + (1.0 - eff_floor) * seq_fraction;

    let cost = KernelCost {
        dram_bytes,
        llc_bytes: llc_traffic,
        useful_bytes: stream_bytes
            + n * (spec.interp_bytes + 2 * spec.accum_bytes) as f64,
        flops,
        t_dram: dram_bytes / (p.dram_bw * dram_eff),
        t_llc: llc_traffic / p.llc_bw,
        t_issue: transactions as f64 / (cus * 1.0e9),
        t_atomic: (conflicts as f64 * conflict_cost / cus)
            .max(hottest as f64 * replay_cost),
        t_latency: transactions as f64 * p.dram_latency / p.max_inflight,
        t_compute: flops / p.peak_flops_f32,
        ..Default::default()
    }
    .finish();

    let pushes_per_ns = if cost.time > 0.0 { n / cost.time / 1e9 } else { 0.0 };
    PushCost { cost, pushes_per_ns }
}

/// Largest same-cell multiplicity within any `window` of consecutive
/// particles — the number of *temporally clustered* colliding writes.
/// A strided order spreads a cell's particles across the whole stream
/// (multiplicity ≈ 1 per window); a tiny grid makes every window hot.
fn window_hotness(spec: &PushSpec<'_>, window: usize) -> u64 {
    if spec.cells.is_empty() {
        return 0;
    }
    let mut counts = vec![0u32; spec.grid_cells];
    let mut touched: Vec<u32> = Vec::new();
    let mut best = 0u32;
    for chunk in spec.cells.chunks(window.max(1)) {
        for &c in chunk {
            let v = counts[c as usize] + 1;
            counts[c as usize] = v;
            if v == 1 {
                touched.push(c);
            }
            if v > best {
                best = v;
            }
        }
        for &c in &touched {
            counts[c as usize] = 0;
        }
        touched.clear();
    }
    best as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform;

    fn random_cells(n: usize, grid: usize, seed: u64) -> Vec<u32> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) % grid as u64) as u32
            })
            .collect()
    }

    #[test]
    fn cell_footprint_matches_fig9_calibration() {
        // 6 MB V100 LLC / 432 B per cell ≈ 14.5k cells ≈ the paper's
        // 13,824-point peak
        let v100 = platform::by_name("V100").unwrap();
        let resident = v100.llc_bytes / CELL_FOOTPRINT_BYTES;
        assert!((12_000..20_000).contains(&resident), "{resident}");
    }

    #[test]
    fn grid_fits_llc_matches_platform_data() {
        // V100: 6 MB LLC / 432 B per cell → the Fig 9 peak grid
        // (24³ = 13,824 cells) fits; the next refinement does not
        let v100 = platform::by_name("V100").unwrap();
        assert!(grid_fits_llc(&v100, 13_824));
        assert!(!grid_fits_llc(&v100, 48 * 48 * 24));
        // EPYC 7763 (256 MB L3) holds over half a million cells
        let milan = platform::by_name("EPYC 7763").unwrap();
        assert!(grid_fits_llc(&milan, 500_000));
        assert!(!grid_fits_llc(&milan, 1_000_000));
        // A100 (40 MB): between the two
        let a100 = platform::by_name("A100").unwrap();
        assert!(grid_fits_llc(&a100, 44 * 44 * 44));
        assert!(!grid_fits_llc(&a100, 64 * 64 * 64));
        assert_eq!(grid_footprint_bytes(1), CELL_FOOTPRINT_BYTES);
    }

    #[test]
    fn particle_aware_working_set_matches_table1_platforms() {
        assert_eq!(working_set_bytes(100, 0), grid_footprint_bytes(100));
        assert_eq!(working_set_bytes(100, 7), 100 * 432 + 7 * 64);
        // V100 (6 MB LLC): the Fig 9 peak grid fits bare, but at 64
        // particles per cell the particle records push it out
        let v100 = platform::by_name("V100").unwrap();
        assert!(fits_llc_with_particles(&v100, 13_824, 0));
        assert!(!fits_llc_with_particles(&v100, 13_824, 64 * 13_824));
        // EPYC 7763 (256 MB L3) holds the same population with room
        let milan = platform::by_name("EPYC 7763").unwrap();
        assert!(fits_llc_with_particles(&milan, 13_824, 64 * 13_824));
    }

    #[test]
    fn grid_in_cache_is_faster_than_grid_out_of_cache() {
        let v100 = platform::by_name("V100").unwrap();
        let model = GpuModel::new(v100);
        let n = 200_000;
        let small = random_cells(n, 10_000, 7);
        let large = random_cells(n, 400_000, 7);
        let fast = gpu_push(&model, &PushSpec::vpic(&small, 10_000));
        let slow = gpu_push(&model, &PushSpec::vpic(&large, 400_000));
        assert!(
            fast.pushes_per_ns > 1.5 * slow.pushes_per_ns,
            "cache-resident grid must be much faster: {} vs {}",
            fast.pushes_per_ns,
            slow.pushes_per_ns
        );
    }

    #[test]
    fn tiny_grid_collapses_under_colliding_writes() {
        let a100 = platform::by_name("A100").unwrap();
        let model = GpuModel::new(a100);
        let n = 200_000;
        let tiny = random_cells(n, 32, 3);
        let good = random_cells(n, 50_000, 3);
        let c_tiny = gpu_push(&model, &PushSpec::vpic(&tiny, 32));
        let c_good = gpu_push(&model, &PushSpec::vpic(&good, 50_000));
        assert!(
            c_tiny.pushes_per_ns < c_good.pushes_per_ns,
            "very high particles-per-cell must be slower (Fig 9 left edge)"
        );
        assert_eq!(c_tiny.cost.bottleneck(), "atomics");
    }

    #[test]
    fn fig9_peaks_are_ordered_v100_a100_mi300a() {
        // at each GPU's own optimal grid size, newer GPUs push faster
        let n = 200_000;
        let peak_of = |name: &str, grid: usize| {
            let p = platform::by_name(name).unwrap();
            let cells = random_cells(n, grid, 11);
            gpu_push(&GpuModel::new(p), &PushSpec::vpic(&cells, grid)).pushes_per_ns
        };
        let v100 = peak_of("V100", 13_824);
        let a100 = peak_of("A100", 85_184);
        let mi300 = peak_of("MI300A (GPU)", 39_304);
        assert!(v100 < a100, "paper: ~4 vs ~6 pushes/ns ({v100:.2} vs {a100:.2})");
        assert!(a100 < mi300, "paper: ~6 vs ~9 pushes/ns ({a100:.2} vs {mi300:.2})");
        // magnitudes within a factor ~3 of the paper's 4/6/9
        assert!((1.0..=14.0).contains(&v100), "{v100}");
        assert!((2.0..=20.0).contains(&a100), "{a100}");
        assert!((3.0..=30.0).contains(&mi300), "{mi300}");
    }

    #[test]
    fn sorted_cells_reduce_transactions_but_raise_conflicts() {
        let grid = 50_000;
        let n = 100_000;
        let random = random_cells(n, grid, 5);
        let mut standard = random.clone();
        standard.sort_unstable();
        let model = GpuModel::new(platform::by_name("MI250").unwrap());
        let c_rnd = gpu_push(&model, &PushSpec::vpic(&random, grid));
        let c_std = gpu_push(&model, &PushSpec::vpic(&standard, grid));
        // sorting clusters duplicates: fewer distinct cells per warp →
        // less cache traffic and fewer transactions...
        assert!(c_std.cost.llc_bytes < c_rnd.cost.llc_bytes);
        // ...but more intra-warp atomic conflicts
        assert!(c_std.cost.t_atomic > c_rnd.cost.t_atomic);
    }

    #[test]
    fn empty_spec_is_free() {
        let model = GpuModel::new(platform::by_name("H100").unwrap());
        let cells: Vec<u32> = vec![];
        let c = gpu_push(&model, &PushSpec::vpic(&cells, 10));
        assert_eq!(c.pushes_per_ns, 0.0);
        assert_eq!(c.cost.time, 0.0);
    }

    #[test]
    fn window_hotness_counts() {
        let spec = PushSpec::vpic(&[1, 1, 2, 1, 0], 4);
        // whole stream in one window: cell 1 appears 3 times
        assert_eq!(window_hotness(&spec, 100), 3);
        // window of 2: at most two of the same cell land together
        assert_eq!(window_hotness(&spec, 2), 2);
        // strided-like stream: no window repeats
        let strided = PushSpec::vpic(&[0, 1, 2, 3, 0, 1, 2, 3], 4);
        assert_eq!(window_hotness(&strided, 4), 1);
        assert_eq!(spec.len(), 5);
    }
}
