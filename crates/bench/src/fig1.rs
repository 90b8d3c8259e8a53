//! Figure 1 — breakdown of VPIC 1.2 code by SIMD vector length and
//! platform.
//!
//! The paper's claim: over 57% of VPIC 1.2 is its custom SIMD library
//! (duplicated per ISA and vector width), and only 11% implements the
//! physics kernels. The manifest below reconstructs the upstream VPIC 1.2
//! `src/util/v4|v8|v16` tree structure (one implementation file per
//! (width, ISA) pair, sized to match the paper's percentages); the tool
//! then counts *this* repository the same way to quantify how much
//! per-ISA code the portable approach eliminated.

use serde::Serialize;

/// One component of a codebase, classified for the Fig 1 breakdown.
#[derive(Debug, Clone, Serialize)]
pub struct CodeComponent {
    /// Component label (e.g. `v8/avx2`).
    pub name: &'static str,
    /// Target platform/ISA (`all` for portable code).
    pub platform: &'static str,
    /// Vector width in bits (0 = not SIMD code).
    pub vector_bits: u32,
    /// Lines of code.
    pub loc: u64,
    /// Category: `simd`, `kernel`, or `other`.
    pub category: &'static str,
}

/// Reconstructed VPIC 1.2 manifest (per-ISA file structure from the
/// upstream repository; sizes normalized to reproduce the paper's 57%
/// SIMD / 11% kernels split).
pub(crate) fn vpic12_manifest() -> Vec<CodeComponent> {
    let simd = |name, platform, bits, loc| CodeComponent {
        name,
        platform,
        vector_bits: bits,
        loc,
        category: "simd",
    };
    vec![
        simd("v4/portable", "all", 128, 2200),
        simd("v4/sse", "x86", 128, 2600),
        simd("v4/avx", "x86", 128, 2700),
        simd("v4/avx2", "x86", 128, 2700),
        simd("v4/neon", "arm", 128, 2500),
        simd("v4/altivec", "power", 128, 2600),
        simd("v8/portable", "all", 256, 2900),
        simd("v8/avx", "x86", 256, 3400),
        simd("v8/avx2", "x86", 256, 3400),
        simd("v16/portable", "all", 512, 3600),
        simd("v16/avx512", "x86 (KNL)", 512, 4100),
        CodeComponent {
            name: "species_advance (kernels)",
            platform: "all",
            vector_bits: 0,
            loc: 6310,
            category: "kernel",
        },
        CodeComponent {
            name: "grid/fields/mp/util (other)",
            platform: "all",
            vector_bits: 0,
            loc: 18358,
            category: "other",
        },
    ]
}

/// Aggregate percentages from a manifest.
#[derive(Debug, Clone, Serialize)]
pub struct Breakdown {
    /// Total lines.
    pub total: u64,
    /// Lines of SIMD-support code.
    pub simd: u64,
    /// Lines of physics-kernel code.
    pub kernel: u64,
    /// Fraction of the codebase that is SIMD support.
    pub simd_fraction: f64,
    /// Fraction that is physics kernels.
    pub kernel_fraction: f64,
}

/// Compute the breakdown of a manifest.
pub(crate) fn breakdown(manifest: &[CodeComponent]) -> Breakdown {
    let total: u64 = manifest.iter().map(|c| c.loc).sum();
    let simd: u64 = manifest.iter().filter(|c| c.category == "simd").map(|c| c.loc).sum();
    let kernel: u64 = manifest.iter().filter(|c| c.category == "kernel").map(|c| c.loc).sum();
    Breakdown {
        total,
        simd,
        kernel,
        simd_fraction: simd as f64 / total as f64,
        kernel_fraction: kernel as f64 / total as f64,
    }
}

/// Lines of a source file's code: every line above its `#[cfg(test)]`
/// test module, so a unit test added to a file does not count as code.
fn code_lines(body: &str) -> u64 {
    let lines: Vec<&str> = body.lines().collect();
    let tests = lines.windows(2).position(|w| w[0] == "#[cfg(test)]" && w[1].starts_with("mod "));
    tests.unwrap_or(lines.len()) as u64
}

/// Count this repository's code the same way: per-ISA SIMD code vs
/// portable SIMD vs kernels, test modules excluded. A file of the
/// inventory that cannot be read (a source that moved, or an installed
/// binary without its sources) is an error naming it.
pub(crate) fn this_repo_manifest() -> Result<Vec<CodeComponent>, String> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let count = |files: &[&str]| -> Result<u64, String> {
        files.iter().try_fold(0, |loc, rel| {
            let body = std::fs::read_to_string(root.join(rel))
                .map_err(|e| format!("fig1 self-inventory: cannot read {rel}: {e}"))?;
            Ok(loc + code_lines(&body))
        })
    };
    Ok(vec![
        CodeComponent {
            name: "vsimd/v4 (SSE ad hoc)",
            platform: "x86",
            vector_bits: 128,
            loc: count(&["crates/vsimd/src/v4.rs"])?,
            category: "simd",
        },
        CodeComponent {
            name: "vsimd/v8 (AVX2 ad hoc)",
            platform: "x86",
            vector_bits: 256,
            loc: count(&["crates/vsimd/src/v8.rs"])?,
            category: "simd",
        },
        CodeComponent {
            name: "vsimd portable (simd+transpose+math+chunks+lane trait)",
            platform: "all",
            vector_bits: 0,
            loc: count(&[
                "crates/vsimd/src/simd.rs",
                "crates/vsimd/src/transpose.rs",
                "crates/vsimd/src/math.rs",
                "crates/vsimd/src/chunks.rs",
                "crates/vsimd/src/push_lane.rs",
            ])?,
            category: "simd",
        },
        CodeComponent {
            name: "vpic-core kernels (push+interp+accumulate)",
            platform: "all",
            vector_bits: 0,
            loc: count(&[
                "crates/core/src/push.rs",
                "crates/core/src/interp.rs",
                "crates/core/src/accumulate.rs",
            ])?,
            category: "kernel",
        },
    ])
}

/// Figure-1 result bundle.
#[derive(Debug, Clone, Serialize)]
pub struct Fig1 {
    /// The VPIC 1.2 reconstruction.
    pub vpic12: Vec<CodeComponent>,
    /// Its aggregate split.
    pub vpic12_breakdown: Breakdown,
    /// This repository, classified the same way (if sources available).
    pub ours: Option<Vec<CodeComponent>>,
}

/// Produce and print Figure 1.
pub fn run() -> Fig1 {
    let vpic12 = vpic12_manifest();
    let b = breakdown(&vpic12);
    println!("Figure 1 — VPIC 1.2 code breakdown by SIMD width/platform");
    println!("{:<28} {:>9} {:>6} {:>8}", "component", "platform", "bits", "LoC");
    for c in &vpic12 {
        println!("{:<28} {:>9} {:>6} {:>8}", c.name, c.platform, c.vector_bits, c.loc);
    }
    println!(
        "SIMD support: {} LoC ({:.0}%)   kernels: {} LoC ({:.0}%)   total: {}",
        b.simd,
        100.0 * b.simd_fraction,
        b.kernel,
        100.0 * b.kernel_fraction,
        b.total
    );
    let ours = this_repo_manifest().inspect_err(|e| eprintln!("{e}")).ok();
    if let Some(m) = &ours {
        println!("\nThis reproduction, classified the same way:");
        for c in m {
            println!("{:<52} {:>8}", c.name, c.loc);
        }
        let per_isa: u64 = m
            .iter()
            .filter(|c| c.category == "simd" && c.platform != "all")
            .map(|c| c.loc)
            .sum();
        println!(
            "per-ISA SIMD: {} LoC vs VPIC 1.2's {} LoC ({}x less)",
            per_isa,
            b.simd,
            b.simd / per_isa.max(1)
        );
    }
    Fig1 { vpic12_breakdown: b, vpic12, ours }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_reproduces_paper_percentages() {
        let b = breakdown(&vpic12_manifest());
        assert!(
            (b.simd_fraction - 0.57).abs() < 0.01,
            "paper: >57% SIMD, got {:.3}",
            b.simd_fraction
        );
        assert!(
            (b.kernel_fraction - 0.11).abs() < 0.01,
            "paper: 11% kernels, got {:.3}",
            b.kernel_fraction
        );
    }

    #[test]
    fn manifest_covers_five_isas() {
        let m = vpic12_manifest();
        let isas: std::collections::HashSet<&str> = m
            .iter()
            .filter(|c| c.category == "simd" && c.platform != "all")
            .map(|c| c.platform)
            .collect();
        // paper §4.2: AVX, AVX2, AVX512 (Xeon Phi), Neon, Altivec
        assert!(isas.len() >= 3, "{isas:?}");
        assert!(m.iter().any(|c| c.vector_bits == 512));
    }

    #[test]
    fn code_lines_stop_at_the_test_module() {
        let code = "//! doc\n#[cfg(test)]\nfn f() {}\n\n";
        assert_eq!(code_lines(code), 4, "a cfg(test) item that is not the module is code");
        assert_eq!(code_lines(&format!("{code}#[cfg(test)]\nmod tests {{\n}}\n")), 4);
    }

    #[test]
    fn our_repo_counts_and_is_far_smaller() {
        let ours = this_repo_manifest().unwrap_or_else(|e| panic!("{e}"));
        let per_isa: u64 = ours
            .iter()
            .filter(|c| c.category == "simd" && c.platform != "all")
            .map(|c| c.loc)
            .sum();
        let vpic_simd = breakdown(&vpic12_manifest()).simd;
        assert!(per_isa > 0);
        assert!(
            per_isa * 10 < vpic_simd,
            "portable approach must cut per-ISA code >10x: {per_isa} vs {vpic_simd}"
        );
    }
}
