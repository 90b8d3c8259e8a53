//! Platform descriptors: the reproduction's Table 1.
//!
//! Core counts, last-level cache sizes, and main-memory bandwidths are
//! taken directly from the paper's Table 1. The remaining microarchitectural
//! parameters (latencies, LLC bandwidth, peak FLOP rates, atomic costs) are
//! not in the paper; they are filled in from public vendor specifications
//! and documented per field. They feed the [`crate::cpu`] / [`crate::gpu`]
//! cost models.

use serde::Serialize;

/// CPU socket vs GPU accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PlatformKind {
    /// Host processor: threads over cores, SIMD lanes within a thread.
    Cpu,
    /// Accelerator: warps over SMs/CUs, coalescing across lanes.
    Gpu,
}

/// Hardware vendor (drives a few model details, e.g. AMD's larger
/// wavefronts and sector sizes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Vendor {
    /// Intel x86-64.
    Intel,
    /// AMD x86-64 CPUs and CDNA GPUs.
    Amd,
    /// Fujitsu/ARM (A64FX).
    Fujitsu,
    /// Nvidia GPUs and Grace CPUs.
    Nvidia,
}

/// One row of Table 1 plus the model parameters derived from public specs.
#[derive(Debug, Clone, Serialize)]
pub struct Platform {
    /// Display name, matching the paper's figures.
    pub name: &'static str,
    /// CPU or GPU.
    pub kind: PlatformKind,
    /// Hardware vendor.
    pub vendor: Vendor,
    /// Table 1 "Core count": CPU hardware cores, or GPU FP32 lanes
    /// (CUDA cores / stream processors).
    pub cores: usize,
    /// Execution groups that issue independently: CPU cores, GPU SMs/CUs.
    pub compute_units: usize,
    /// Lanes that issue one instruction together: CPU f32 SIMD width,
    /// GPU warp/wavefront width.
    pub warp_width: usize,
    /// Table 1 "Last Level Cache" in bytes.
    pub llc_bytes: u64,
    /// LLC associativity used by the cache simulation.
    pub llc_assoc: usize,
    /// Cache line size in bytes.
    pub line_bytes: u64,
    /// Memory transaction granularity (GPU sector; = line on CPUs).
    pub sector_bytes: u64,
    /// Table 1 "Main Memory Bandwidth" (STREAM Triad), bytes/s.
    pub dram_bw: f64,
    /// Main memory latency, seconds (public spec estimates).
    pub dram_latency: f64,
    /// LLC bandwidth, bytes/s (public spec estimates).
    pub llc_bw: f64,
    /// Peak FP32 throughput, FLOP/s.
    pub peak_flops_f32: f64,
    /// Cost of one serialized atomic RMW at the point of coherence, s.
    pub atomic_ns: f64,
    /// Maximum outstanding memory transactions platform-wide (MLP limit):
    /// caps how much latency can be hidden.
    pub max_inflight: f64,
    /// Main memory capacity in bytes (Table 1 "Main Memory").
    pub mem_bytes: u64,
    /// Memory technology label for Table 1 printing.
    pub mem_kind: &'static str,
}

const GB: u64 = 1024 * 1024 * 1024;
const MB: u64 = 1024 * 1024;
const GBPS: f64 = 1.0e9;

impl Platform {
    /// True for GPU platforms.
    pub fn is_gpu(&self) -> bool {
        self.kind == PlatformKind::Gpu
    }

    /// The paper's tile-size rule (§5.4): "Tile sizes match the number of
    /// CPU threads or three times the number of GPU cores."
    pub fn paper_tile_size(&self) -> usize {
        match self.kind {
            PlatformKind::Cpu => self.cores,
            PlatformKind::Gpu => 3 * self.cores,
        }
    }
}

/// The six CPU platforms of Table 1 (paper §5.1).
pub fn cpus() -> Vec<Platform> {
    vec![
        // Fujitsu A64FX: 48 cores, 32 GB HBM2, 4×8 MB L2 (its LLC), SVE-512.
        Platform {
            name: "A64FX",
            kind: PlatformKind::Cpu,
            vendor: Vendor::Fujitsu,
            cores: 48,
            compute_units: 48,
            warp_width: 16, // 512-bit SVE / f32
            llc_bytes: 32 * MB,
            llc_assoc: 16,
            line_bytes: 256,
            sector_bytes: 256,
            dram_bw: 424.0 * GBPS,
            dram_latency: 135e-9, // HBM2 on A64FX is high latency
            llc_bw: 3600.0 * GBPS,
            peak_flops_f32: 6.8e12, // 48 cores × 2×512-bit FMA @ 2.2 GHz
            atomic_ns: 40e-9,
            max_inflight: 48.0 * 8.0,
            mem_bytes: 32 * GB,
            mem_kind: "HBM",
        },
        // AMD EPYC 7763 (Zen 3, dual socket): 2×64 cores, DDR4-3200.
        Platform {
            name: "EPYC 7763",
            kind: PlatformKind::Cpu,
            vendor: Vendor::Amd,
            cores: 128,
            compute_units: 128,
            warp_width: 8, // AVX2 / f32
            llc_bytes: 256 * MB,
            llc_assoc: 16,
            line_bytes: 64,
            sector_bytes: 64,
            dram_bw: 165.0 * GBPS,
            dram_latency: 95e-9,
            llc_bw: 3000.0 * GBPS,
            peak_flops_f32: 5.0e12, // 128 × 2×256-bit FMA @ 2.45 GHz
            atomic_ns: 25e-9,
            max_inflight: 128.0 * 10.0,
            mem_bytes: 512 * GB,
            mem_kind: "DDR4",
        },
        // Intel Xeon Platinum 8480 (Sapphire Rapids, DDR5): "SPR DDR".
        Platform {
            name: "SPR DDR",
            kind: PlatformKind::Cpu,
            vendor: Vendor::Intel,
            cores: 112,
            compute_units: 112,
            warp_width: 16, // AVX-512 / f32
            llc_bytes: 105 * MB,
            llc_assoc: 15,
            line_bytes: 64,
            sector_bytes: 64,
            dram_bw: 96.77 * GBPS, // paper's measured Triad (low for config used)
            dram_latency: 110e-9,
            llc_bw: 2800.0 * GBPS,
            peak_flops_f32: 10.0e12,
            atomic_ns: 25e-9,
            max_inflight: 112.0 * 10.0,
            mem_bytes: 256 * GB,
            mem_kind: "DDR5",
        },
        // Intel Xeon Max 9480 (Sapphire Rapids + HBM2e): "SPR HBM".
        Platform {
            name: "SPR HBM",
            kind: PlatformKind::Cpu,
            vendor: Vendor::Intel,
            cores: 112,
            compute_units: 112,
            warp_width: 16,
            llc_bytes: 105 * MB,
            llc_assoc: 15,
            line_bytes: 64,
            sector_bytes: 64,
            dram_bw: 266.05 * GBPS,
            dram_latency: 130e-9, // HBM trades latency for bandwidth
            llc_bw: 2800.0 * GBPS,
            peak_flops_f32: 10.0e12,
            atomic_ns: 25e-9,
            max_inflight: 112.0 * 12.0,
            mem_bytes: 128 * GB,
            mem_kind: "HBM2e",
        },
        // Nvidia Grace (dual superchip halves): 2×72 Neoverse V2 cores.
        Platform {
            name: "Grace",
            kind: PlatformKind::Cpu,
            vendor: Vendor::Nvidia,
            cores: 144,
            compute_units: 144,
            warp_width: 4, // 4×128-bit SIMD units; NEON width per issue
            llc_bytes: 114 * MB,
            llc_assoc: 12,
            line_bytes: 64,
            sector_bytes: 64,
            dram_bw: 390.0 * GBPS,
            dram_latency: 105e-9,
            llc_bw: 3200.0 * GBPS,
            peak_flops_f32: 7.1e12,
            atomic_ns: 22e-9,
            max_inflight: 144.0 * 10.0,
            mem_bytes: 480 * GB,
            mem_kind: "LPDDR5X",
        },
        // AMD MI300A CPU side: 24 Zen 4 cores sharing the APU's HBM3.
        Platform {
            name: "MI300A (CPU)",
            kind: PlatformKind::Cpu,
            vendor: Vendor::Amd,
            cores: 24,
            compute_units: 24,
            warp_width: 16, // AVX-512 on Zen 4 (double-pumped)
            llc_bytes: 256 * MB,
            llc_assoc: 16,
            line_bytes: 64,
            sector_bytes: 64,
            dram_bw: 202.18 * GBPS,
            dram_latency: 140e-9,
            llc_bw: 1800.0 * GBPS,
            peak_flops_f32: 2.8e12,
            atomic_ns: 30e-9,
            max_inflight: 24.0 * 10.0,
            mem_bytes: 128 * GB,
            mem_kind: "HBM3",
        },
    ]
}

/// The six GPU platforms of Table 1 (paper §5.1).
pub fn gpus() -> Vec<Platform> {
    vec![
        // Nvidia V100S (Sierra's V100 modelled with the paper's V100S row).
        Platform {
            name: "V100",
            kind: PlatformKind::Gpu,
            vendor: Vendor::Nvidia,
            cores: 5120,
            compute_units: 80,
            warp_width: 32,
            llc_bytes: 6 * MB,
            llc_assoc: 16,
            line_bytes: 128,
            sector_bytes: 32,
            dram_bw: 886.4 * GBPS,
            dram_latency: 425e-9,
            llc_bw: 2700.0 * GBPS,
            peak_flops_f32: 15.7e12,
            atomic_ns: 12e-9,
            max_inflight: 80.0 * 512.0,
            mem_bytes: 32 * GB,
            mem_kind: "HBM2",
        },
        Platform {
            name: "A100",
            kind: PlatformKind::Gpu,
            vendor: Vendor::Nvidia,
            cores: 6912,
            compute_units: 108,
            warp_width: 32,
            llc_bytes: 40 * MB,
            llc_assoc: 16,
            line_bytes: 128,
            sector_bytes: 32,
            dram_bw: 1682.0 * GBPS,
            dram_latency: 400e-9,
            llc_bw: 5000.0 * GBPS,
            peak_flops_f32: 19.5e12,
            atomic_ns: 9e-9,
            max_inflight: 108.0 * 512.0,
            mem_bytes: 80 * GB,
            mem_kind: "HBM2e",
        },
        Platform {
            name: "H100",
            kind: PlatformKind::Gpu,
            vendor: Vendor::Nvidia,
            cores: 16896,
            compute_units: 132,
            warp_width: 32,
            llc_bytes: 50 * MB,
            llc_assoc: 16,
            line_bytes: 128,
            sector_bytes: 32,
            dram_bw: 3713.0 * GBPS,
            dram_latency: 380e-9,
            llc_bw: 8000.0 * GBPS,
            peak_flops_f32: 66.9e12,
            atomic_ns: 6e-9,
            max_inflight: 132.0 * 512.0,
            mem_bytes: 96 * GB,
            mem_kind: "HBM3",
        },
        // AMD MI100 (CDNA1): 120 CUs, wave64.
        Platform {
            name: "MI100",
            kind: PlatformKind::Gpu,
            vendor: Vendor::Amd,
            cores: 7680,
            compute_units: 120,
            warp_width: 64,
            llc_bytes: 8 * MB,
            llc_assoc: 16,
            line_bytes: 128,
            sector_bytes: 64, // CDNA L2 transaction granularity
            dram_bw: 970.9 * GBPS,
            dram_latency: 480e-9,
            llc_bw: 3000.0 * GBPS,
            peak_flops_f32: 23.1e12,
            atomic_ns: 18e-9, // AMD atomics serialize harder at L2 (paper Fig 7)
            max_inflight: 120.0 * 320.0,
            mem_bytes: 32 * GB,
            mem_kind: "HBM2",
        },
        // AMD MI250 (one package, both GCDs; figures use a single GCD where noted).
        Platform {
            name: "MI250",
            kind: PlatformKind::Gpu,
            vendor: Vendor::Amd,
            cores: 13312,
            compute_units: 208,
            warp_width: 64,
            llc_bytes: 16 * MB,
            llc_assoc: 16,
            line_bytes: 128,
            sector_bytes: 64,
            dram_bw: 2498.0 * GBPS,
            dram_latency: 470e-9,
            llc_bw: 6000.0 * GBPS,
            peak_flops_f32: 45.3e12,
            atomic_ns: 16e-9,
            max_inflight: 208.0 * 320.0,
            mem_bytes: 128 * GB,
            mem_kind: "HBM2e",
        },
        // AMD MI300A GPU side: 228 CUs + 256 MB Infinity Cache.
        Platform {
            name: "MI300A (GPU)",
            kind: PlatformKind::Gpu,
            vendor: Vendor::Amd,
            cores: 14592,
            compute_units: 228,
            warp_width: 64,
            llc_bytes: 256 * MB,
            llc_assoc: 16,
            line_bytes: 128,
            sector_bytes: 64,
            dram_bw: 3254.0 * GBPS,
            dram_latency: 500e-9,
            llc_bw: 6500.0 * GBPS,
            peak_flops_f32: 61.3e12,
            atomic_ns: 14e-9,
            max_inflight: 228.0 * 320.0,
            mem_bytes: 128 * GB,
            mem_kind: "HBM3",
        },
    ]
}

/// All twelve platforms, CPUs first (Table 1 order).
pub fn all() -> Vec<Platform> {
    let mut v = cpus();
    v.extend(gpus());
    v
}

/// Look up a platform by (case-insensitive) name.
pub fn by_name(name: &str) -> Option<Platform> {
    all().into_iter().find(|p| p.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_platforms_six_each() {
        assert_eq!(cpus().len(), 6);
        assert_eq!(gpus().len(), 6);
        assert_eq!(all().len(), 12);
        assert!(cpus().iter().all(|p| p.kind == PlatformKind::Cpu));
        assert!(gpus().iter().all(|p| p.kind == PlatformKind::Gpu));
    }

    #[test]
    fn names_unique_and_lookup_works() {
        let names: Vec<&str> = all().iter().map(|p| p.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert!(by_name("a100").is_some());
        assert!(by_name("H100").is_some());
        assert!(by_name("Xeon 9999").is_none());
    }

    #[test]
    fn table1_core_counts_match_paper() {
        // spot-check the paper's Table 1 values survived transcription
        assert_eq!(by_name("A64FX").unwrap().cores, 48);
        assert_eq!(by_name("EPYC 7763").unwrap().cores, 128);
        assert_eq!(by_name("V100").unwrap().cores, 5120);
        assert_eq!(by_name("H100").unwrap().cores, 16896);
        assert_eq!(by_name("MI250").unwrap().cores, 13312);
        assert_eq!(by_name("MI300A (GPU)").unwrap().cores, 14592);
    }

    #[test]
    fn table1_bandwidth_and_cache_match_paper() {
        let h100 = by_name("H100").unwrap();
        assert_eq!(h100.dram_bw, 3713.0e9);
        assert_eq!(h100.llc_bytes, 50 * 1024 * 1024);
        let a64 = by_name("A64FX").unwrap();
        assert_eq!(a64.dram_bw, 424.0e9);
        assert_eq!(a64.llc_bytes, 32 * 1024 * 1024);
        let mi300 = by_name("MI300A (GPU)").unwrap();
        assert_eq!(mi300.llc_bytes, 256 * 1024 * 1024);
    }

    #[test]
    fn physically_sane_parameters() {
        for p in all() {
            assert!(p.llc_bw > p.dram_bw, "{}: LLC must outrun DRAM", p.name);
            assert!(p.sector_bytes <= p.line_bytes, "{}", p.name);
            assert!(p.warp_width >= 1 && p.compute_units >= 1, "{}", p.name);
            assert!(p.dram_latency > 0.0 && p.atomic_ns > 0.0, "{}", p.name);
            assert!(p.peak_flops_f32 > 1e12, "{}", p.name);
            assert!(p.llc_bytes < p.mem_bytes, "{}", p.name);
        }
    }

    #[test]
    fn paper_tile_rule() {
        assert_eq!(by_name("EPYC 7763").unwrap().paper_tile_size(), 128);
        assert_eq!(by_name("A100").unwrap().paper_tile_size(), 3 * 6912);
    }
}
