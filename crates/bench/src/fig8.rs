//! Figure 8 — rooflines of the particle push under each sorting order on
//! H100, MI250, and MI300A.
//!
//! The paper profiles with nsight-compute/rocprof; here the model's FLOP
//! and DRAM-byte counters place each sorting order on the platform
//! roofline. Paper shapes: on H100 standard sort has high intensity but
//! ~1% utilization, strided raises utilization but lowers intensity, and
//! tiled-strided recovers the intensity while lifting throughput ≈12×;
//! MI250 shows the same pattern (≈20× throughput). MI300A is
//! bandwidth-bound at low intensity for every order.

use crate::fig7;
use memsim::roofline::{Roofline, RooflineSample};
use psort::SortOrder;
use serde::Serialize;

/// The three GPUs of Figure 8.
pub(crate) const GPUS: [&str; 3] = ["H100", "MI250", "MI300A (GPU)"];

/// One roofline point.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8Row {
    /// GPU platform.
    pub platform: String,
    /// Sorting order.
    pub order: String,
    /// The roofline placement.
    pub sample: RooflineSample,
}

/// Produce and print Figure 8.
pub fn run() -> Vec<Fig8Row> {
    println!("Figure 8 — push-kernel rooflines by sorting order");
    let mut rows = Vec::new();
    for gpu in GPUS {
        let platform = memsim::platform::by_name(gpu).expect("known GPU");
        let roof = Roofline::of(&platform);
        println!(
            "\n{gpu}: ridge at {:.1} FLOP/B, peak {:.1} TFLOP/s, {:.0} GB/s",
            roof.ridge(),
            roof.peak_flops / 1e12,
            roof.peak_bw / 1e9
        );
        println!(
            "{:<16} {:>10} {:>12} {:>10}",
            "order", "AI (F/B)", "GFLOP/s", "% of peak"
        );
        let tile = fig7::tile_for(gpu);
        for order in SortOrder::sorted_set(tile) {
            let cost = fig7::push_cost(gpu, order).cost;
            let sample = roof.sample(order.name(), &cost);
            println!(
                "{:<16} {:>10.2} {:>12.1} {:>9.2}%",
                order.name(),
                sample.arithmetic_intensity,
                sample.gflops,
                100.0 * sample.peak_fraction
            );
            rows.push(Fig8Row {
                platform: gpu.to_string(),
                order: order.name().to_string(),
                sample,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_of<'a>(rows: &'a [Fig8Row], p: &str, o: &str) -> &'a RooflineSample {
        &rows.iter().find(|r| r.platform == p && r.order == o).unwrap().sample
    }

    #[test]
    fn h100_tiled_lifts_throughput_an_order_of_magnitude() {
        if crate::skip_heavy_in_debug() {
            return;
        }
        let rows = run();
        let std_s = sample_of(&rows, "H100", "standard");
        let til_s = sample_of(&rows, "H100", "tiled-strided");
        let gain = til_s.gflops / std_s.gflops;
        // paper: 550 GF/s → 6.51 TF/s (11.8×); accept the same order of
        // magnitude
        assert!((4.0..60.0).contains(&gain), "H100 tiled gain {gain}");
    }

    #[test]
    fn standard_order_has_higher_intensity_than_strided() {
        if crate::skip_heavy_in_debug() {
            return;
        }
        // standard reuses cached cell data (few DRAM bytes → high AI);
        // strided streams the grid every pass (low AI)
        let rows = run();
        for p in ["H100", "MI250"] {
            let std_ai = sample_of(&rows, p, "standard").arithmetic_intensity;
            let str_ai = sample_of(&rows, p, "strided").arithmetic_intensity;
            assert!(
                std_ai > str_ai,
                "{p}: AI(standard)={std_ai} must exceed AI(strided)={str_ai}"
            );
        }
    }

    #[test]
    fn every_order_stays_under_the_roofline() {
        if crate::skip_heavy_in_debug() {
            return;
        }
        let rows = run();
        for r in &rows {
            assert!(
                r.sample.attainable_fraction <= 1.05,
                "{}/{} exceeds its roofline: {}",
                r.platform,
                r.order,
                r.sample.attainable_fraction
            );
            assert!(r.sample.gflops > 0.0);
        }
    }

    #[test]
    fn standard_utilization_is_poor_everywhere() {
        if crate::skip_heavy_in_debug() {
            return;
        }
        // paper: H100 standard at ~1% of peak FP32
        let rows = run();
        for p in GPUS {
            let f = sample_of(&rows, p, "standard").peak_fraction;
            assert!(f < 0.10, "{p}: standard order should waste the GPU ({f})");
        }
    }
}
