//! CPU execution-cost model.
//!
//! Threads take contiguous chunks of the element stream (the Kokkos
//! OpenMP-backend static schedule). The model simulates one representative
//! thread's chunk against its *share* of the last-level cache (capacity
//! contention between threads), then scales traffic by the thread count.
//!
//! The atomic-accumulation terms are the CPU side of the paper's sorting
//! story (Fig 5): with *standard* order a thread's repeated keys form
//! dependent read-modify-write chains (serialized, latency-exposed); with
//! *strided* order chains disappear but every access misses the cache and
//! drags a whole line from DRAM; with *tiled strided* order the tile stays
//! cache-resident and chains are broken — the best of both.
//!
//! Calibration note: duplicated-address atomic RMWs are charged
//! `CPU_RMW_FACTOR × atomic_ns` when cache-resident, plus a
//! `dram_latency` exposure when chained or missing. This reproduces the
//! paper's *ordering* (tiled > standard ≳ strided or tiled > strided ≳
//! standard per platform) and the HBM-platforms-suffer-more trend; the
//! absolute size of the repeated-keys bandwidth collapse in Fig 5b
//! (≈100×) is under-predicted (≈5–20×), see EXPERIMENTS.md.

use crate::cache::CacheSim;
use crate::platform::{Platform, PlatformKind};
use crate::trace::{GatherScatterSpec, KernelCost};

/// Cache-resident duplicated-address RMW cost, in units of `atomic_ns`.
const CPU_RMW_FACTOR: f64 = 2.0;
/// Fraction of `dram_latency` exposed per chained (same-address
/// consecutive) RMW — the dependent-chain serialization. Partial
/// overlap with neighbouring work keeps this below a full round trip;
/// calibrated so the standard order lands between tiled-strided (cache
/// hits) and strided (cache misses), the paper's Fig 5b ordering.
const CPU_CHAIN_LATENCY: f64 = 0.4;
/// Fraction of `dram_latency` exposed per cache-missing RMW.
const CPU_MISS_LATENCY: f64 = 1.5;
/// Outstanding misses one core can sustain (memory-level parallelism).
const CPU_MLP: f64 = 10.0;

/// A CPU platform plus model options.
#[derive(Debug, Clone)]
pub struct CpuModel {
    platform: Platform,
    threads: usize,
    llc_bytes: u64,
}

impl CpuModel {
    /// Model for a CPU platform using all of its cores.
    ///
    /// # Panics
    /// Panics if `platform` is not a CPU.
    pub fn new(platform: Platform) -> Self {
        assert_eq!(platform.kind, PlatformKind::Cpu, "CpuModel needs a CPU platform");
        let threads = platform.cores;
        let llc = platform.llc_bytes;
        Self { platform, threads, llc_bytes: llc }
    }

    /// Shrink the simulated cache by `problem_scale` (paper problem size /
    /// modelled problem size), preserving working-set:cache ratios.
    pub fn scaled(platform: Platform, problem_scale: f64) -> Self {
        assert!(problem_scale >= 1.0);
        let shrunk = ((platform.llc_bytes as f64 / problem_scale) as u64).max(4096);
        let mut m = Self::new(platform);
        m.llc_bytes = shrunk;
        m
    }

    /// Execute the kernel model and return its cost decomposition.
    pub fn run(&self, spec: &GatherScatterSpec<'_>) -> KernelCost {
        let p = &self.platform;
        let t = self.threads.max(1);
        let n_total = spec.len();
        if n_total == 0 {
            return KernelCost::default().finish();
        }
        // representative thread: the first contiguous chunk
        let chunk_len = n_total.div_ceil(t);
        let chunk = &spec.keys[..chunk_len.min(n_total)];
        let line = p.line_bytes;
        // this thread's fair share of the LLC
        let share = (self.llc_bytes / t as u64).max(line * 8);
        let mut cache = CacheSim::new(share, p.llc_assoc.min(8), line);

        let mut gather_misses: u64 = 0;
        let mut scatter_misses: u64 = 0;
        let mut chained: u64 = 0;
        let mut dup_hits: u64 = 0;
        let mut dup_misses: u64 = 0;
        // per-element duplicate detection across the whole stream: an
        // address is "duplicated" if its key occurs more than once
        let dup = duplication_table(spec.keys, spec.table_len);

        let mut prev_key = u64::MAX;
        for &k in chunk {
            if spec.atomic {
                // the scatter RMW probes its line *before* the gather of
                // the same element would have warmed it: whether the
                // accumulator was already resident decides the RMW's
                // latency exposure
                let idx = k as u64;
                let hit = cache.access_write(idx * spec.elem_bytes);
                if !hit {
                    scatter_misses += 1;
                }
                if idx == prev_key {
                    chained += 1;
                } else if dup[k as usize] {
                    if hit {
                        dup_hits += 1;
                    } else {
                        dup_misses += 1;
                    }
                }
                prev_key = idx;
            }
            for &off in spec.stencil {
                let idx = spec.stencil_index(k, off);
                if !cache.access(idx * spec.elem_bytes) {
                    gather_misses += 1;
                }
            }
        }

        let scale = n_total as f64 / chunk.len() as f64; // ≈ thread count
        let stream_bytes = n_total as f64 * spec.stream_bytes;
        let wb = cache.total_writebacks();
        let dram_bytes =
            (gather_misses + scatter_misses + wb) as f64 * line as f64 * scale + stream_bytes;
        let accesses_per_elem = spec.stencil.len() as f64 + if spec.atomic { 1.0 } else { 0.0 };
        let llc_traffic = chunk.len() as f64 * accesses_per_elem * spec.elem_bytes as f64 * scale
            + stream_bytes;
        let flops = n_total as f64 * spec.flops;

        // per-thread serial terms (threads run concurrently, so these are
        // *not* divided by the thread count)
        let t_atomic = chained as f64
            * (CPU_RMW_FACTOR * p.atomic_ns + CPU_CHAIN_LATENCY * p.dram_latency)
            + dup_hits as f64 * CPU_RMW_FACTOR * p.atomic_ns
            + dup_misses as f64 * (CPU_RMW_FACTOR * p.atomic_ns + CPU_MISS_LATENCY * p.dram_latency);
        let t_latency = (gather_misses as f64 * p.dram_latency) / CPU_MLP;

        KernelCost {
            dram_bytes,
            llc_bytes: llc_traffic,
            useful_bytes: spec.useful_bytes(),
            flops,
            t_dram: dram_bytes / p.dram_bw,
            t_llc: llc_traffic / p.llc_bw,
            t_issue: 0.0,
            t_atomic,
            t_latency,
            t_compute: flops / p.peak_flops_f32,
            ..Default::default()
        }
        .finish()
    }
}

/// `dup[k]` is true when key `k` occurs more than once in the stream.
fn duplication_table(keys: &[u32], table_len: usize) -> Vec<bool> {
    let mut counts = vec![0u8; table_len];
    for &k in keys {
        let c = &mut counts[k as usize];
        *c = c.saturating_add(1);
    }
    counts.into_iter().map(|c| c > 1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform;

    fn epyc() -> Platform {
        platform::by_name("EPYC 7763").unwrap()
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
    #[should_panic(expected = "needs a CPU platform")]
    fn rejects_gpu_platform() {
        let _ = CpuModel::new(platform::by_name("A100").unwrap());
    }

    #[test]
    fn contiguous_unique_keys_near_stream() {
        let n = 1 << 20;
        let keys: Vec<u32> = (0..n as u32).collect();
        let m = CpuModel::scaled(epyc(), 1024.0);
        let cost = m.run(&spec(&keys, n));
        let bw = cost.bandwidth();
        let stream = epyc().dram_bw;
        assert!(
            bw > 0.3 * stream && bw < 1.5 * stream,
            "contiguous should be near STREAM: {bw:.3e} vs {stream:.3e}"
        );
    }

    #[test]
    fn repeated_keys_collapse_bandwidth() {
        let unique = 1u32 << 12;
        let reps = 128usize;
        let standard: Vec<u32> = (0..unique).flat_map(|k| std::iter::repeat_n(k, reps)).collect();
        let contiguous: Vec<u32> = (0..standard.len() as u32).collect();
        let m = CpuModel::scaled(epyc(), 2048.0);
        let c_rep = m.run(&spec(&standard, unique as usize));
        let c_con = m.run(&spec(&contiguous, standard.len()));
        assert!(
            c_rep.bandwidth() < c_con.bandwidth() / 3.0,
            "repeated keys must collapse CPU bandwidth: {:.3e} vs {:.3e}",
            c_rep.bandwidth(),
            c_con.bandwidth()
        );
    }

    #[test]
    fn tiled_order_is_best_on_cpu_with_repeats() {
        let unique = 1u32 << 14;
        let reps = 64usize;
        let standard: Vec<u32> = (0..unique).flat_map(|k| std::iter::repeat_n(k, reps)).collect();
        let strided: Vec<u32> = (0..reps).flat_map(|_| 0..unique).collect();
        let tile = 128u32; // paper: tile = thread count
        let mut tiled = Vec::with_capacity(strided.len());
        for base in (0..unique).step_by(tile as usize) {
            for _ in 0..reps {
                for k in 0..tile {
                    tiled.push(base + k);
                }
            }
        }
        // scale so one tile fits a thread's cache share but the strided
        // working set (the whole table) does not
        let m = CpuModel::scaled(epyc(), 500.0);
        let c_std = m.run(&spec(&standard, unique as usize));
        let c_str = m.run(&spec(&strided, unique as usize));
        let c_til = m.run(&spec(&tiled, unique as usize));
        assert!(
            c_til.time < c_std.time && c_til.time < c_str.time,
            "tiled must win on CPU: tiled {} std {} strided {}",
            c_til.time,
            c_std.time,
            c_str.time
        );
        // paper: strided often matches or underperforms standard on CPU
        assert!(
            c_str.time > 0.4 * c_std.time,
            "strided should not dramatically beat standard on CPU: {} vs {}",
            c_str.time,
            c_std.time
        );
    }

    #[test]
    fn hbm_platforms_suffer_more_from_repeats() {
        // relative drop (repeated vs contiguous) should be worse on the
        // higher-latency HBM part than on the DDR part (paper §5.4)
        let unique = 1u32 << 12;
        let reps = 128usize;
        let standard: Vec<u32> = (0..unique).flat_map(|k| std::iter::repeat_n(k, reps)).collect();
        let contiguous: Vec<u32> = (0..standard.len() as u32).collect();
        let drop_of = |name: &str| {
            let m = CpuModel::scaled(platform::by_name(name).unwrap(), 2048.0);
            let rep = m.run(&spec(&standard, unique as usize)).bandwidth();
            let con = m.run(&spec(&contiguous, standard.len())).bandwidth();
            con / rep
        };
        let ddr = drop_of("SPR DDR");
        let hbm = drop_of("SPR HBM");
        assert!(
            hbm > ddr,
            "HBM platform should show the more severe relative drop: {hbm:.1}x vs {ddr:.1}x"
        );
    }

    #[test]
    fn empty_stream_is_free() {
        let m = CpuModel::new(epyc());
        let keys: Vec<u32> = vec![];
        let cost = m.run(&spec(&keys, 16));
        assert_eq!(cost.time, 0.0);
    }

    #[test]
    fn duplication_table_flags_only_repeats() {
        let d = duplication_table(&[0, 1, 1, 3], 5);
        assert_eq!(d, vec![false, true, false, false, false]);
    }
}
