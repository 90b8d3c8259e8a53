//! Roofline analysis (paper Fig 8).
//!
//! The paper profiles the push kernel with nsight-compute/rocprof and
//! plots achieved FP32 throughput against arithmetic intensity under each
//! sorting order. Here the model's own FLOP and DRAM-byte counters play
//! the role of the profiler: a [`RooflineSample`] is placed under a
//! [`Roofline`] built from the platform's peak FLOP rate and bandwidth.

use crate::platform::Platform;
use crate::trace::KernelCost;
use serde::Serialize;

/// A platform's roofline: the attainable-performance envelope.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Roofline {
    /// Peak FP32 throughput, FLOP/s.
    pub peak_flops: f64,
    /// Peak DRAM bandwidth, bytes/s.
    pub peak_bw: f64,
}

impl Roofline {
    /// Build from a platform descriptor.
    pub fn of(platform: &Platform) -> Self {
        Self { peak_flops: platform.peak_flops_f32, peak_bw: platform.dram_bw }
    }

    /// Attainable FLOP/s at arithmetic intensity `ai` (FLOP/byte):
    /// `min(peak, ai × bw)`.
    pub(crate) fn attainable(&self, ai: f64) -> f64 {
        (ai * self.peak_bw).min(self.peak_flops)
    }

    /// The ridge point: intensity above which the kernel is compute-bound.
    pub fn ridge(&self) -> f64 {
        self.peak_flops / self.peak_bw
    }

    /// Place a kernel cost under this roofline.
    pub fn sample(&self, label: impl Into<String>, cost: &KernelCost) -> RooflineSample {
        let ai = cost.arithmetic_intensity();
        let gflops = cost.gflops();
        RooflineSample {
            label: label.into(),
            arithmetic_intensity: ai,
            gflops,
            peak_fraction: gflops * 1e9 / self.peak_flops,
            attainable_fraction: if self.attainable(ai) > 0.0 {
                gflops * 1e9 / self.attainable(ai)
            } else {
                0.0
            },
        }
    }
}

/// One kernel's position on a roofline plot.
#[derive(Debug, Clone, Serialize)]
pub struct RooflineSample {
    /// Series label (e.g. the sorting order).
    pub label: String,
    /// FLOPs per DRAM byte.
    pub arithmetic_intensity: f64,
    /// Achieved GFLOP/s.
    pub gflops: f64,
    /// Fraction of the platform's absolute FP32 peak.
    pub peak_fraction: f64,
    /// Fraction of the roofline-attainable value at this intensity.
    pub attainable_fraction: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform;

    #[test]
    fn attainable_is_min_of_slopes() {
        let r = Roofline { peak_flops: 10e12, peak_bw: 1e12 };
        assert_eq!(r.ridge(), 10.0);
        assert_eq!(r.attainable(1.0), 1e12);
        assert_eq!(r.attainable(10.0), 10e12);
        assert_eq!(r.attainable(100.0), 10e12);
    }

    #[test]
    fn sample_computes_fractions() {
        let r = Roofline { peak_flops: 10e12, peak_bw: 1e12 };
        let cost = KernelCost {
            flops: 2e12,
            dram_bytes: 1e12,
            t_dram: 1.0,
            ..Default::default()
        }
        .finish();
        let s = r.sample("test", &cost);
        assert_eq!(s.arithmetic_intensity, 2.0);
        assert_eq!(s.gflops, 2000.0);
        assert!((s.peak_fraction - 0.2).abs() < 1e-12);
        assert!((s.attainable_fraction - 1.0).abs() < 1e-12, "memory-bound at its roof");
    }

    #[test]
    fn h100_ridge_is_to_the_right_of_v100() {
        // H100 grew compute faster than bandwidth
        let h = Roofline::of(&platform::by_name("H100").unwrap());
        let v = Roofline::of(&platform::by_name("V100").unwrap());
        assert!(h.ridge() > v.ridge() * 0.9);
        assert!(h.peak_flops > v.peak_flops);
    }
}
