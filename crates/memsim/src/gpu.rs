//! GPU execution-cost model.
//!
//! Executes a [`GatherScatterSpec`] "on" a GPU [`Platform`]: consecutive
//! elements form warps; per warp and stencil point the model counts the
//! distinct memory sectors (coalescing), drives the shared last-level
//! cache simulation with the real sector stream (reuse), and tallies
//! same-address overlaps (atomic serialization). The resulting bottleneck
//! terms reproduce the paper's GPU sorting results (Figs 6–8):
//!
//! * *standard* order → broadcast gathers but warp-wide atomic conflicts;
//! * *random* order → fully divergent transactions and line-granularity
//!   DRAM amplification;
//! * *strided* order → perfect coalescing but a table-sized streaming
//!   working set every pass;
//! * *tiled strided* order → coalescing **and** cache-resident tiles.

use crate::cache::CacheSim;
use crate::platform::{Platform, PlatformKind};
use crate::trace::{GatherScatterSpec, KernelCost};

/// GPU issue rate: memory transactions retired per second per SM/CU.
const ISSUE_RATE_PER_CU: f64 = 1.0e9;

/// A GPU platform plus model options.
#[derive(Debug, Clone)]
pub struct GpuModel {
    platform: Platform,
    /// Simulated LLC capacity override (bytes) for scaled-down runs.
    llc_bytes: u64,
}

impl GpuModel {
    /// Model for a GPU platform at its native cache size.
    ///
    /// # Panics
    /// Panics if `platform` is not a GPU.
    pub fn new(platform: Platform) -> Self {
        assert_eq!(platform.kind, PlatformKind::Gpu, "GpuModel needs a GPU platform");
        let llc = platform.llc_bytes;
        Self { platform, llc_bytes: llc }
    }

    /// Shrink the simulated cache by `problem_scale` — used when the
    /// modelled problem is `problem_scale`× smaller than the paper's, so
    /// capacity ratios (working set : LLC) are preserved.
    pub fn scaled(platform: Platform, problem_scale: f64) -> Self {
        assert!(problem_scale >= 1.0, "problem_scale is paper_size / model_size ≥ 1");
        let llc = ((platform.llc_bytes as f64 / problem_scale) as u64).max(4096);
        let mut m = Self::new(platform);
        m.llc_bytes = llc;
        m
    }

    /// The platform descriptor.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Simulated LLC capacity (after any scaling).
    pub fn llc_bytes(&self) -> u64 {
        self.llc_bytes
    }

    /// Execute the kernel model and return its cost decomposition.
    pub fn run(&self, spec: &GatherScatterSpec<'_>) -> KernelCost {
        let p = &self.platform;
        let w = p.warp_width;
        let n = spec.len() as f64;
        let sector = p.sector_bytes;
        let mut llc = CacheSim::new(self.llc_bytes, p.llc_assoc, sector);

        let mut transactions: u64 = 0;
        let mut gather_miss_sectors: u64 = 0;
        let mut scatter_miss_sectors: u64 = 0;
        let mut conflicts: u64 = 0;
        let mut scratch: Vec<u64> = Vec::with_capacity(w);

        for warp in spec.keys.chunks(w) {
            // gather phase: one access per stencil point per lane
            for &off in spec.stencil {
                scratch.clear();
                for &k in warp {
                    scratch.push(spec.stencil_index(k, off) * spec.elem_bytes / sector);
                }
                scratch.sort_unstable();
                scratch.dedup();
                transactions += scratch.len() as u64;
                for &s in &scratch {
                    if !llc.access_line(s) {
                        gather_miss_sectors += 1;
                    }
                }
            }
            // scatter phase (atomic kernels only): accumulate into table[key]
            if spec.atomic {
                scratch.clear();
                for &k in warp {
                    scratch.push(k as u64 * spec.elem_bytes / sector);
                }
                scratch.sort_unstable();
                scratch.dedup();
                transactions += scratch.len() as u64;
                for &s in &scratch {
                    if !llc.access_line_write(s) {
                        scatter_miss_sectors += 1;
                    }
                }
                // same-element overlaps within the warp serialize
                let mut elems: Vec<u64> = warp.iter().map(|&k| k as u64).collect();
                elems.sort_unstable();
                elems.dedup();
                conflicts += warp.len() as u64 - elems.len() as u64;
            }
        }

        // global hottest-address serialization (cross-warp conflicts)
        let hottest = if spec.atomic { hottest_multiplicity(spec.keys) } else { 0 };

        let stream_bytes = n * spec.stream_bytes;
        // reads (misses) plus dirty-line drain (writebacks) hit DRAM
        let dram_bytes = (gather_miss_sectors + scatter_miss_sectors + llc.total_writebacks())
            as f64
            * sector as f64
            + stream_bytes;
        let llc_bytes_moved = transactions as f64 * sector as f64 + stream_bytes;
        let flops = n * spec.flops;

        let cus = p.compute_units as f64;
        KernelCost {
            dram_bytes,
            llc_bytes: llc_bytes_moved,
            useful_bytes: spec.useful_bytes(),
            flops,
            t_dram: dram_bytes / p.dram_bw,
            t_llc: llc_bytes_moved / p.llc_bw,
            t_issue: transactions as f64 / (cus * ISSUE_RATE_PER_CU),
            t_atomic: (conflicts as f64 * p.atomic_ns / cus)
                .max(hottest as f64 * p.atomic_ns),
            t_latency: transactions as f64 * p.dram_latency / p.max_inflight,
            t_compute: flops / p.peak_flops_f32,
            ..Default::default()
        }
        .finish()
    }

    /// Cost of a pure streaming kernel: `bytes` moved once with no reuse
    /// structure worth simulating and no atomics, plus `flops` of
    /// arithmetic. Bandwidth- or compute-bound — the model for the
    /// grid-side field kernels (interpolator load, accumulator unload,
    /// leapfrog advance).
    pub fn stream(&self, bytes: f64, flops: f64) -> KernelCost {
        let p = &self.platform;
        KernelCost {
            dram_bytes: bytes,
            llc_bytes: bytes,
            useful_bytes: bytes,
            flops,
            t_dram: bytes / p.dram_bw,
            t_llc: bytes / p.llc_bw,
            t_compute: flops / p.peak_flops_f32,
            ..Default::default()
        }
        .finish()
    }
}

/// Highest multiplicity of any single key value in the stream.
fn hottest_multiplicity(keys: &[u32]) -> u64 {
    if keys.is_empty() {
        return 0;
    }
    let max = *keys.iter().max().unwrap() as usize;
    // histogram is fine: tables in this repo are ≤ tens of millions
    let mut counts = vec![0u32; max + 1];
    let mut best = 0u32;
    for &k in keys {
        let c = counts[k as usize] + 1;
        counts[k as usize] = c;
        if c > best {
            best = c;
        }
    }
    best as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform;

    fn a100() -> Platform {
        platform::by_name("A100").unwrap()
    }

    fn spec<'a>(keys: &'a [u32], table_len: usize) -> GatherScatterSpec<'a> {
        GatherScatterSpec {
            keys,
            table_len,
            elem_bytes: 8,
            stencil: &[0],
            stream_bytes: 8.0,
            flops: 2.0,
            atomic: true,
        }
    }

    #[test]
    #[should_panic(expected = "needs a GPU platform")]
    fn rejects_cpu_platform() {
        let _ = GpuModel::new(platform::by_name("Grace").unwrap());
    }

    #[test]
    fn contiguous_unique_keys_run_near_stream_bandwidth() {
        let n = 1 << 20;
        let keys: Vec<u32> = (0..n as u32).collect();
        let m = GpuModel::scaled(a100(), 1024.0); // table ≫ scaled LLC
        let cost = m.run(&spec(&keys, n));
        let bw = cost.bandwidth();
        let stream = a100().dram_bw;
        // logical movement (32 B/elem) over physical traffic (24 B/elem)
        // permits up to 4/3 of STREAM
        assert!(
            bw > 0.6 * stream && bw < 1.4 * stream,
            "contiguous should be near STREAM: {bw:.3e} vs {stream:.3e}"
        );
    }

    #[test]
    fn broadcast_order_is_atomics_bound() {
        // standard-sorted highly repeated keys: runs of 4096 equal keys
        let n = 1 << 18;
        let reps = 4096;
        let keys: Vec<u32> = (0..n).map(|i| (i / reps) as u32).collect();
        let m = GpuModel::scaled(a100(), 1024.0);
        let cost = m.run(&spec(&keys, n / reps));
        assert_eq!(cost.bottleneck(), "atomics");
    }

    #[test]
    fn strided_order_beats_standard_order_with_repeated_keys() {
        // 64 repeats of 4096 unique keys
        let unique = 4096u32;
        let reps = 64;
        let standard: Vec<u32> = (0..unique).flat_map(|k| std::iter::repeat_n(k, reps)).collect();
        let strided: Vec<u32> = (0..reps).flat_map(|_| 0..unique).collect();
        let m = GpuModel::scaled(a100(), 4096.0); // table far exceeds scaled LLC
        let c_std = m.run(&spec(&standard, unique as usize));
        let c_str = m.run(&spec(&strided, unique as usize));
        assert!(
            c_str.time < c_std.time / 2.0,
            "paper Fig 7: strided >2x faster than standard on NVIDIA: {} vs {}",
            c_str.time,
            c_std.time
        );
    }

    #[test]
    fn tiled_order_beats_strided_when_tile_fits_cache() {
        let unique = 1u32 << 16;
        let reps = 32usize;
        let strided: Vec<u32> = (0..reps).flat_map(|_| 0..unique).collect();
        // tiled: tiles of 1024 distinct keys, each tile repeated `reps` times
        let tile = 1024u32;
        let mut tiled = Vec::with_capacity(strided.len());
        for chunk_base in (0..unique).step_by(tile as usize) {
            for _ in 0..reps {
                for k in 0..tile {
                    tiled.push(chunk_base + k);
                }
            }
        }
        // scale so the full table misses but one tile fits
        let m = GpuModel::scaled(a100(), 2_000.0);
        assert!(m.llc_bytes() < u64::from(unique) * 8);
        assert!(m.llc_bytes() > u64::from(tile) * 8);
        let c_str = m.run(&spec(&strided, unique as usize));
        let c_til = m.run(&spec(&tiled, unique as usize));
        assert!(
            c_til.time < 0.75 * c_str.time,
            "tiled reuse must beat strided: {} vs {}",
            c_til.time,
            c_str.time
        );
        assert!(c_til.dram_bytes < 0.5 * c_str.dram_bytes);
    }

    #[test]
    fn random_order_amplifies_dram_traffic() {
        let unique = 1u32 << 16;
        let reps = 8usize;
        let strided: Vec<u32> = (0..reps).flat_map(|_| 0..unique).collect();
        // deterministic shuffle
        let mut random = strided.clone();
        let mut s = 0x12345678u64;
        for i in (1..random.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            random.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let m = GpuModel::scaled(a100(), 2_000.0);
        let c_str = m.run(&spec(&strided, unique as usize));
        let c_rnd = m.run(&spec(&random, unique as usize));
        assert!(
            c_rnd.time > 1.5 * c_str.time,
            "random must be slower: {} vs {}",
            c_rnd.time,
            c_str.time
        );
    }

    #[test]
    fn hottest_multiplicity_counts() {
        assert_eq!(hottest_multiplicity(&[]), 0);
        assert_eq!(hottest_multiplicity(&[1, 2, 3]), 1);
        assert_eq!(hottest_multiplicity(&[1, 2, 1, 1, 3, 2]), 3);
    }

    #[test]
    fn scaled_model_shrinks_cache_only() {
        let base = GpuModel::new(a100());
        let scaled = GpuModel::scaled(a100(), 100.0);
        assert_eq!(base.llc_bytes(), a100().llc_bytes);
        assert!(scaled.llc_bytes() < base.llc_bytes() / 50);
        assert_eq!(scaled.platform().name, "A100");
    }

    #[test]
    fn scaled_model_floors_at_one_page() {
        // extreme scales clamp to 4096 B — a zero/tiny cache would make
        // CacheSim degenerate and every access a miss regardless of order
        for p in platform::gpus() {
            let m = GpuModel::scaled(p.clone(), 1.0e12);
            assert_eq!(m.llc_bytes(), 4096, "{} must floor at one page", p.name);
        }
        // and the floor only engages when the scale actually demands it
        let mild = GpuModel::scaled(a100(), 2.0);
        assert_eq!(mild.llc_bytes(), a100().llc_bytes / 2);
    }

    #[test]
    fn stream_kernel_is_bandwidth_bound_at_low_intensity() {
        let m = GpuModel::new(a100());
        let c = m.stream(1.0e9, 1.0e8); // AI = 0.1 flop/B: far left of ridge
        assert_eq!(c.bottleneck(), "dram-bandwidth");
        assert!((c.time - 1.0e9 / a100().dram_bw).abs() < 1e-12);
        assert!((c.bandwidth() - a100().dram_bw).abs() < 1.0);
        // compute-heavy stream flips to the flops roof
        let hot = m.stream(1.0e6, 1.0e13);
        assert_eq!(hot.bottleneck(), "compute");
    }
}
