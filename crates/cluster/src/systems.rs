//! The paper's three scaling systems (§5.1/§5.5).
//!
//! GPU descriptors come from `memsim::platform`; interconnect parameters
//! are public-specification estimates for each machine's fabric and MPI
//! stack generation. The decisive qualitative difference is GPU-aware
//! MPI: Sierra's runs staged through the host (the paper attributes the
//! V100 roll-off to communication and names GPU-aware MPI as the fix),
//! while Selene (NVLink/HDR + GPUDirect) and Tuolumne (Slingshot-11 +
//! unified APU memory) send device memory directly.

use crate::network::NetworkModel;
use memsim::platform;
use memsim::Platform;
use serde::Serialize;

/// One scaling system: a GPU model plus its fabric.
#[derive(Debug, Clone, Serialize)]
pub struct System {
    /// System name as in the paper.
    pub name: &'static str,
    /// GPU platform name in `memsim::platform`.
    pub gpu: &'static str,
    /// GPUs per node (Sierra 4× V100, Selene 8× A100, Tuolumne 4× MI300A).
    pub gpus_per_node: usize,
    /// Interconnect model.
    pub network: NetworkModel,
    /// GPU counts the paper sweeps on this system.
    pub sweep: Vec<usize>,
}

impl System {
    /// The GPU platform descriptor.
    pub(crate) fn platform(&self) -> Platform {
        platform::by_name(self.gpu).expect("known platform")
    }
}

/// Sierra (LLNL): IBM AC922 nodes, 4× V100, EDR InfiniBand, pre-GPUDirect
/// MPI stack → staged messages.
pub fn sierra() -> System {
    System {
        name: "Sierra",
        gpu: "V100",
        gpus_per_node: 4,
        network: NetworkModel {
            latency: 2.0e-6,
            bandwidth: 12.5e9, // EDR ~100 Gb/s per port
            gpu_aware: false,
            staging_bw: 12.0e9, // PCIe3 x16 staging
        },
        sweep: vec![1, 2, 4, 8, 16, 32],
    }
}

/// Selene (Nvidia): DGX A100 SuperPod, 8× A100, HDR InfiniBand with
/// GPUDirect RDMA.
pub fn selene() -> System {
    System {
        name: "Selene",
        gpu: "A100",
        gpus_per_node: 8,
        network: NetworkModel {
            latency: 2.0e-6,
            bandwidth: 25.0e9, // HDR 200 Gb/s
            gpu_aware: true,
            staging_bw: 20.0e9,
        },
        sweep: vec![8, 16, 32, 64, 128, 256, 512],
    }
}

/// Tuolumne (LLNL): 4× MI300A APU nodes on Slingshot-11; unified memory
/// makes transfers effectively GPU-aware.
pub(crate) fn tuolumne() -> System {
    System {
        name: "Tuolumne",
        gpu: "MI300A (GPU)",
        gpus_per_node: 4,
        network: NetworkModel {
            latency: 2.5e-6,
            bandwidth: 25.0e9, // Slingshot-11 200 Gb/s
            gpu_aware: true,
            staging_bw: 48.0e9,
        },
        sweep: vec![1, 2, 4, 8, 16, 32, 64],
    }
}

/// All three systems in paper order.
pub fn all() -> Vec<System> {
    vec![sierra(), selene(), tuolumne()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platforms_resolve() {
        for s in all() {
            let p = s.platform();
            assert!(p.is_gpu(), "{}", s.name);
            assert!(!s.sweep.is_empty());
            assert!(s.sweep.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn sierra_is_the_only_staged_system() {
        assert!(!sierra().network.gpu_aware);
        assert!(selene().network.gpu_aware);
        assert!(tuolumne().network.gpu_aware);
    }

    #[test]
    fn sweeps_match_paper_figures() {
        assert_eq!(sierra().sweep.first(), Some(&1));
        assert_eq!(sierra().sweep.last(), Some(&32));
        assert_eq!(selene().sweep.first(), Some(&8));
        assert_eq!(selene().sweep.last(), Some(&512));
        assert_eq!(tuolumne().sweep.last(), Some(&64));
    }
}
