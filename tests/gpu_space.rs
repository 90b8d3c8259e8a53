//! The `SimGpu` execution space's two contracts, end to end:
//!
//! 1. **Bit-identity** — stepping a simulation on `SimGpu` produces
//!    exactly the bits of the `Serial` run for every deck, sort order,
//!    vectorization strategy and scatter mode. The modelled space reports
//!    `concurrency() == 1` and runs the same block/chunk/reduce schedule
//!    as `Serial`; cost charging happens strictly outside the kernel
//!    arithmetic.
//! 2. **Honest descriptors** — the platform table the model charges
//!    against is the committed Table 1 (`results/table1.json`), with the
//!    vendor microarchitectural constants (warp width, line and sector
//!    sizes) the paper's §5 GPU discussion relies on, and the
//!    problem-scaling helper never collapses the modelled LLC below one
//!    page.

#[path = "lattice/mod.rs"]
mod lattice;

use lattice::check;
use vpic2::memsim::{platform, GpuModel};
use vpic2::pk::SimGpu;

/// The tentpole contract, as slices of the differential lattice
/// (`lattice/mod.rs`): `step_on(&SimGpu)` is bitwise `Serial` under every
/// sort order, strategy and scatter mode, and resumed, and each
/// point's ledger charged the push, the field solve and any sort.
#[test]
fn sim_gpu_is_bit_identical_to_serial() {
    check(lattice::gpu_space());
}

/// The per-platform spot check the sweep in `repro -- gpu` relies on.
#[test]
fn sim_gpu_bit_identity_on_every_table1_gpu() {
    check(lattice::every_gpu());
}

#[test]
fn scaled_model_floors_the_llc_at_one_page() {
    for p in platform::gpus() {
        // native scale keeps the descriptor's LLC...
        assert_eq!(
            GpuModel::scaled(p.clone(), 1.0).llc_bytes(),
            p.llc_bytes,
            "{}",
            p.name
        );
        // ...a moderate scale divides it...
        assert_eq!(
            GpuModel::scaled(p.clone(), 2.0).llc_bytes(),
            p.llc_bytes / 2,
            "{}",
            p.name
        );
        // ...and an absurd scale clamps at 4096 B instead of collapsing
        // the cache simulation to zero sets
        let floored = SimGpu::scaled(p.clone(), 1e15);
        assert_eq!(floored.model().llc_bytes(), 4096, "{}", p.name);
    }
}

/// Pull `key` out of a raw JSON text chunk (the vendored `serde_json`
/// shim is write-only, so the committed table is checked by string
/// search).
fn json_number(chunk: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    let i = chunk.find(&pat).unwrap_or_else(|| panic!("{key} missing"));
    let rest = chunk[i + pat.len()..].trim_start();
    let end = rest
        .find([',', '\n', '}'])
        .unwrap_or_else(|| panic!("{key} unterminated"));
    rest[..end].trim().parse().unwrap_or_else(|_| panic!("{key} not a number"))
}

#[test]
fn table1_json_matches_every_gpu_descriptor() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/table1.json");
    let text = std::fs::read_to_string(path).expect("committed results/table1.json");
    for p in platform::gpus() {
        let marker = format!("\"platform\": \"{}\"", p.name);
        let start = text
            .find(&marker)
            .unwrap_or_else(|| panic!("{} missing from table1.json", p.name));
        let chunk = &text[start..];
        let end = chunk[marker.len()..]
            .find("\"platform\"")
            .map(|i| i + marker.len())
            .unwrap_or(chunk.len());
        let chunk = &chunk[..end];
        let llc_mb = json_number(chunk, "llc_mb");
        let spec_bw = json_number(chunk, "spec_bw_gbps");
        assert!(
            (llc_mb - p.llc_bytes as f64 / (1 << 20) as f64).abs() < 1e-9,
            "{}: table llc {llc_mb} MB vs descriptor {} B",
            p.name,
            p.llc_bytes
        );
        assert!(
            (spec_bw - p.dram_bw / 1e9).abs() / spec_bw < 1e-9,
            "{}: table bw {spec_bw} GB/s vs descriptor {}",
            p.name,
            p.dram_bw
        );
    }
}

#[test]
fn gpu_descriptors_carry_the_vendor_microarchitecture() {
    use vpic2::memsim::platform::Vendor;
    for p in platform::gpus() {
        match p.vendor {
            Vendor::Nvidia => {
                assert_eq!(p.warp_width, 32, "{}", p.name);
                assert_eq!(p.line_bytes, 128, "{}", p.name);
                assert_eq!(p.sector_bytes, 32, "{}: sectored L2", p.name);
            }
            Vendor::Amd => {
                assert_eq!(p.warp_width, 64, "{}: CDNA wavefront", p.name);
                assert_eq!(p.line_bytes, 128, "{}", p.name);
                assert_eq!(p.sector_bytes, 64, "{}: CDNA granularity", p.name);
            }
            other => panic!("{}: unexpected GPU vendor {other:?}", p.name),
        }
    }
}
