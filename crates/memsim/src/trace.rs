//! Kernel descriptions and access-stream statistics.
//!
//! A [`GatherScatterSpec`] describes a kernel by its *actual* key array —
//! the sequence of table indices touched, in execution order, exactly as
//! produced by a sorting algorithm in `psort`. The statistics extracted
//! here (per-group distinct sectors, same-address conflicts, dependency
//! run lengths) are what the paper's mechanisms — coalescing, atomic
//! serialization, reuse — act on.

use serde::Serialize;

/// A gather/scatter kernel over a table, described by its access stream.
#[derive(Debug, Clone)]
pub struct GatherScatterSpec<'a> {
    /// Table indices in execution order (the sorted key array).
    pub keys: &'a [u32],
    /// Number of addressable table entries (`max key + 1` or larger).
    pub table_len: usize,
    /// Bytes per table element (8 for the paper's f64 benchmark).
    pub elem_bytes: u64,
    /// Stencil offsets applied to every key: `[0]` for plain
    /// gather-scatter, five offsets for the paper's 5-point stencil.
    pub stencil: &'a [i64],
    /// Streaming bytes per element (the `values` read plus any ordered
    /// write-back) — traffic that bypasses reuse.
    pub stream_bytes: f64,
    /// Floating-point operations per element.
    pub flops: f64,
    /// Whether the scatter phase is an atomic accumulation.
    pub atomic: bool,
}

impl GatherScatterSpec<'_> {
    /// Number of elements processed.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Clamp `key + offset` into the table (paper's stencil benchmark
    /// clamps at the boundary).
    #[inline]
    pub(crate) fn stencil_index(&self, key: u32, off: i64) -> u64 {
        let idx = key as i64 + off;
        idx.clamp(0, self.table_len as i64 - 1) as u64
    }

    /// Logical bytes the kernel must move regardless of caching: the
    /// streaming traffic plus one read per stencil point, plus a
    /// read-modify-write (two element moves) for an atomic scatter. This
    /// is the paper's "total amount of data movement" numerator for
    /// bandwidth.
    pub(crate) fn useful_bytes(&self) -> f64 {
        let n = self.len() as f64;
        let accesses_per_elem = self.stencil.len() as f64 + if self.atomic { 2.0 } else { 0.0 };
        n * self.stream_bytes + n * accesses_per_elem * self.elem_bytes as f64
    }
}

/// Count distinct `sector_bytes` sectors touched per group of `group`
/// consecutive elements, summed over groups and stencil points.
pub fn transaction_count(
    spec: &GatherScatterSpec<'_>,
    group: usize,
    stencil: &[i64],
    sector_bytes: u64,
) -> u64 {
    let group = group.max(1);
    let sector_bytes = sector_bytes.max(1);
    let mut total = 0u64;
    let mut scratch: Vec<u64> = Vec::with_capacity(group);
    for chunk in spec.keys.chunks(group) {
        for &off in stencil {
            scratch.clear();
            for &k in chunk {
                scratch.push(spec.stencil_index(k, off) * spec.elem_bytes / sector_bytes);
            }
            scratch.sort_unstable();
            scratch.dedup();
            total += scratch.len() as u64;
        }
    }
    total
}

/// The bottleneck decomposition of a modelled kernel execution.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct KernelCost {
    /// Wall time, seconds (max of the component terms).
    pub time: f64,
    /// DRAM traffic in bytes (cache misses × line size + streaming).
    pub dram_bytes: f64,
    /// Last-level-cache traffic in bytes (all cached accesses).
    pub llc_bytes: f64,
    /// The kernel's logical data movement (bandwidth numerator).
    pub useful_bytes: f64,
    /// Floating-point operations executed.
    pub flops: f64,
    /// Time if DRAM bandwidth were the only limit.
    pub t_dram: f64,
    /// Time if LLC bandwidth were the only limit.
    pub t_llc: f64,
    /// Time if transaction issue were the only limit.
    pub t_issue: f64,
    /// Time if atomic serialization were the only limit.
    pub t_atomic: f64,
    /// Time if memory latency (limited MLP) were the only limit.
    pub t_latency: f64,
    /// Time if peak FLOP throughput were the only limit.
    pub t_compute: f64,
}

impl KernelCost {
    /// Finalize: wall time = the slowest component.
    pub(crate) fn finish(mut self) -> Self {
        self.time = self
            .t_dram
            .max(self.t_llc)
            .max(self.t_issue)
            .max(self.t_atomic)
            .max(self.t_latency)
            .max(self.t_compute);
        self
    }

    /// The paper's bandwidth metric: logical data movement / runtime.
    pub fn bandwidth(&self) -> f64 {
        if self.time > 0.0 {
            self.useful_bytes / self.time
        } else {
            0.0
        }
    }

    /// Achieved FLOP/s.
    pub(crate) fn gflops(&self) -> f64 {
        if self.time > 0.0 {
            self.flops / self.time / 1e9
        } else {
            0.0
        }
    }

    /// Roofline arithmetic intensity: FLOPs per DRAM byte.
    pub(crate) fn arithmetic_intensity(&self) -> f64 {
        if self.dram_bytes > 0.0 {
            self.flops / self.dram_bytes
        } else {
            0.0
        }
    }

    /// Name of the binding bottleneck term.
    #[cfg(test)]
    pub(crate) fn bottleneck(&self) -> &'static str {
        let pairs = [
            (self.t_dram, "dram-bandwidth"),
            (self.t_llc, "llc-bandwidth"),
            (self.t_issue, "issue"),
            (self.t_atomic, "atomics"),
            (self.t_latency, "latency"),
            (self.t_compute, "compute"),
        ];
        pairs
            .iter()
            .max_by(|a, b| a.0.total_cmp(&b.0))
            .map(|p| p.1)
            .unwrap_or("none")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec<'a>(keys: &'a [u32], stencil: &'a [i64]) -> GatherScatterSpec<'a> {
        GatherScatterSpec {
            keys,
            table_len: 1 << 20,
            elem_bytes: 8,
            stencil,
            stream_bytes: 8.0,
            flops: 2.0,
            atomic: true,
        }
    }

    #[test]
    fn contiguous_keys_coalesce() {
        let keys: Vec<u32> = (0..128).collect();
        let s = spec(&keys, &[0]);
        // 32-lane groups of consecutive 8-byte elements: 32*8/32 = 8 sectors
        let t = transaction_count(&s, 32, &[0], 32);
        assert_eq!(t, 4 * 8);
    }

    #[test]
    fn broadcast_keys_conflict() {
        let keys = vec![7u32; 64];
        let s = spec(&keys, &[0]);
        let t = transaction_count(&s, 32, &[0], 32);
        assert_eq!(t, 2, "same address → one sector per group");
    }

    #[test]
    fn random_like_keys_fully_diverge() {
        // widely spread keys: every lane hits its own sector
        let keys: Vec<u32> = (0..64).map(|i| i * 1000).collect();
        let s = spec(&keys, &[0]);
        let t = transaction_count(&s, 32, &[0], 32);
        assert_eq!(t, 64);
    }

    #[test]
    fn stencil_multiplies_transactions() {
        let keys: Vec<u32> = (100..164).collect();
        let five: [i64; 5] = [0, -1, 1, -32, 32];
        let s = spec(&keys, &five);
        let t1 = transaction_count(&s, 32, &[0], 32);
        let t5 = transaction_count(&s, 32, &five, 32);
        assert!(t5 > t1 * 3, "five offsets touch more sectors: {t5} vs {t1}");
    }

    #[test]
    fn stencil_clamps_at_boundaries() {
        let keys = vec![0u32, 1];
        let s = GatherScatterSpec { table_len: 4, ..spec(&keys, &[0]) };
        assert_eq!(s.stencil_index(0, -5), 0);
        assert_eq!(s.stencil_index(1, 100), 3);
        assert_eq!(s.stencil_index(1, 1), 2);
    }

    #[test]
    fn useful_bytes_counts_logical_traffic() {
        let keys: Vec<u32> = (0..10).collect();
        let s = spec(&keys, &[0]); // atomic: gather + RMW scatter, 8B stream
        assert_eq!(s.useful_bytes(), 10.0 * 8.0 + 10.0 * 3.0 * 8.0);
        let g = GatherScatterSpec { atomic: false, ..spec(&keys, &[0]) };
        assert_eq!(g.useful_bytes(), 10.0 * 8.0 + 10.0 * 8.0);
    }

    #[test]
    fn kernel_cost_takes_max_and_names_bottleneck() {
        let c = KernelCost {
            t_dram: 2.0,
            t_llc: 1.0,
            t_issue: 0.5,
            t_atomic: 3.0,
            t_latency: 0.1,
            t_compute: 0.2,
            useful_bytes: 6.0e9,
            flops: 3.0e9,
            dram_bytes: 1.0e9,
            ..Default::default()
        }
        .finish();
        assert_eq!(c.time, 3.0);
        assert_eq!(c.bottleneck(), "atomics");
        assert_eq!(c.bandwidth(), 2.0e9);
        assert_eq!(c.gflops(), 1.0);
        assert_eq!(c.arithmetic_intensity(), 3.0);
    }
}
