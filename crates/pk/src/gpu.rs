//! `SimGpu` — the modelled-GPU execution space.
//!
//! The paper's portability claim is *one kernel source on every backend*.
//! This reproduction has no device to run on, so the GPU backend executes
//! kernels **functionally on the host** — through exactly the same
//! [`ExecSpace`] dispatch as [`crate::Serial`], in the same order, so
//! results are bit-identical — while every dispatch *charges* its real
//! memory behaviour to `memsim`'s trace-driven hardware model:
//!
//! * the particle push is costed by `memsim::push::gpu_push` over the
//!   kernel's **actual** cell-visit order (warp formation over consecutive
//!   indices, per-warp distinct-sector counting, LLC simulation,
//!   same-address atomic serialization);
//! * the sort is costed as the permutation gather it really performs;
//! * the grid-side field kernels are costed as bandwidth-bound streams.
//!
//! The division of labour is strict: kernels describe *what they touch*
//! via [`Access`] at their dispatch sites; the cost arithmetic lives
//! entirely in `memsim`. A [`SimGpu`] accumulates one [`KernelRecord`]
//! per charged dispatch in an internal ledger; callers bracket a step
//! with [`SimGpu::reset`] / [`SimGpu::modeled_time`] to read the modeled
//! per-step cost of the code that just ran.
//!
//! Why functional execution stays bit-identical to `Serial`: `SimGpu`
//! has no dispatch code of its own. It reports `concurrency() == 1`, and
//! its one dispatch, `run_chunks_mut`, is `Serial`'s call; every pattern
//! is written once in [`ExecSpace`] over that dispatch, so a kernel on
//! `SimGpu` runs the serial path itself, not a copy of it. `SimGpu` is
//! `Serial` plus the ledger ([`ExecSpace::accounting`] and
//! [`ExecSpace::charge`]), and cost charging happens strictly outside the
//! arithmetic.

use crate::space::{ExecSpace, Serial};
use memsim::gpu::GpuModel;
use memsim::platform::Platform;
use memsim::push::{gpu_push, PushSpec};
use memsim::trace::{GatherScatterSpec, KernelCost};
use std::sync::Mutex;

/// One kernel's memory-access description, declared at its dispatch site.
///
/// Real backends ([`crate::Serial`], [`crate::Threads`]) ignore these;
/// [`SimGpu`] maps each variant onto the matching `memsim` model. Charge
/// sites should gate on [`ExecSpace::accounting`] when building the
/// description costs anything (e.g. a key-array conversion).
#[derive(Debug)]
pub enum Access<'a> {
    /// The VPIC particle push: `cells[i]` is the cell index of the `i`-th
    /// particle *in the order the kernel visits them* (i.e. after any
    /// sort), which is everything the coalescing/cache/atomic model needs.
    /// Priced as VPIC lays it out — one interpolator record gathered and
    /// one accumulator row scattered per particle (`memsim::push`) —
    /// whether the host kernel gathers stored records or builds them from
    /// the fields.
    Push {
        /// Per-particle cell indices in execution order.
        cells: &'a [u32],
        /// Addressable interpolator/accumulator entries.
        grid_cells: usize,
    },
    /// A gather(/scatter) over a table, described by its actual key
    /// stream — e.g. the sort's record permutation.
    Gather {
        /// Ledger label.
        label: &'static str,
        /// Table indices in execution order.
        keys: &'a [u32],
        /// Addressable table entries.
        table_len: usize,
        /// Bytes per gathered element.
        elem_bytes: u64,
        /// Streaming bytes per element (ordered write-back).
        stream_bytes: f64,
        /// FLOPs per element.
        flops: f64,
        /// Whether the scatter phase is an atomic accumulation.
        atomic: bool,
    },
    /// A streaming sweep with no reuse structure worth simulating: the
    /// grid-side field kernels (interpolator load, accumulator unload,
    /// leapfrog advance).
    Stream {
        /// Ledger label.
        label: &'static str,
        /// Total bytes moved.
        bytes: f64,
        /// Total FLOPs executed.
        flops: f64,
    },
}

/// One charged dispatch in a [`SimGpu`] ledger.
#[derive(Debug, Clone, Copy)]
pub struct KernelRecord {
    /// Ledger label (`"push"`, `"sort"`, `"field_solve"`, …).
    pub label: &'static str,
    /// Elements processed (particles, keys; 0 for pure streams).
    pub elements: usize,
    /// The model's full bottleneck decomposition.
    pub cost: KernelCost,
}

/// The modelled-GPU execution space (module docs).
///
/// Cheap to construct per platform; `Sync`, so it drops into any
/// `step_on(&space)` call site. The ledger is behind a mutex, but with
/// `concurrency() == 1` charges never contend.
#[derive(Debug)]
pub struct SimGpu {
    model: GpuModel,
    ledger: Mutex<Vec<KernelRecord>>,
}

impl SimGpu {
    /// A space whose simulated LLC is shrunk by `problem_scale`, for
    /// decks `problem_scale`× smaller than the paper's runs (preserves
    /// working-set : cache ratios — see [`GpuModel::scaled`]); `1.0` models
    /// the platform at its native capacity.
    ///
    /// # Panics
    /// Panics if `platform` is not a GPU (same contract as [`GpuModel`]).
    pub fn scaled(platform: Platform, problem_scale: f64) -> Self {
        Self { model: GpuModel::scaled(platform, problem_scale), ledger: Mutex::new(Vec::new()) }
    }

    /// The underlying cost model.
    pub fn model(&self) -> &GpuModel {
        &self.model
    }

    /// Clear the ledger (start of a measured window).
    pub fn reset(&self) {
        self.lock().clear();
    }

    /// Snapshot the records charged since the last reset.
    pub fn records(&self) -> Vec<KernelRecord> {
        self.lock().clone()
    }

    /// Modeled wall time of everything charged since the last reset:
    /// Σ per-kernel `cost.time` (kernels launch back-to-back on one
    /// stream, the paper's execution style).
    pub fn modeled_time(&self) -> f64 {
        self.lock().iter().map(|r| r.cost.time).sum()
    }

    /// Modeled time charged to kernels labelled `label`.
    pub fn kernel_time(&self, label: &str) -> f64 {
        self.lock().iter().filter(|r| r.label == label).map(|r| r.cost.time).sum()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<KernelRecord>> {
        self.ledger.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl ExecSpace for SimGpu {
    fn concurrency(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        "SimGpu"
    }

    fn run_chunks_mut<T: Send>(
        &self,
        data: &mut [T],
        parts: usize,
        f: &(dyn Fn(usize, &mut [T]) + Sync),
    ) {
        Serial.run_chunks_mut(data, parts, f)
    }

    fn accounting(&self) -> bool {
        true
    }

    fn charge(&self, access: &Access<'_>) {
        let record = match *access {
            Access::Push { cells, grid_cells } => {
                if cells.is_empty() {
                    return;
                }
                let push = gpu_push(&self.model, &PushSpec::vpic(cells, grid_cells));
                KernelRecord { label: "push", elements: cells.len(), cost: push.cost }
            }
            Access::Gather {
                label,
                keys,
                table_len,
                elem_bytes,
                stream_bytes,
                flops,
                atomic,
            } => {
                if keys.is_empty() {
                    return;
                }
                let cost = self.model.run(&GatherScatterSpec {
                    keys,
                    table_len,
                    elem_bytes,
                    stencil: &[0],
                    stream_bytes,
                    flops,
                    atomic,
                });
                KernelRecord { label, elements: keys.len(), cost }
            }
            Access::Stream { label, bytes, flops } => {
                KernelRecord { label, elements: 0, cost: self.model.stream(bytes, flops) }
            }
        };
        telemetry::count("pk.gpu.charges", 1);
        self.lock().push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::Sum;

    fn v100() -> SimGpu {
        SimGpu::scaled(memsim::platform::by_name("V100").unwrap(), 1.0)
    }

    #[test]
    fn patterns_match_serial_bitwise() {
        let gpu = v100();
        let serial = Serial;
        let n = 4097;
        // parallel_for_mut: same writes
        let mut a = vec![0.0f32; n];
        let mut b = vec![0.0f32; n];
        serial.parallel_for_mut(&mut a, |i, v| *v = 1.0 / (1.0 + i as f32));
        gpu.parallel_for_mut(&mut b, |i, v| *v = 1.0 / (1.0 + i as f32));
        assert_eq!(a, b);
        // parallel_reduce: identical fold order ⇒ identical f32 bits
        let ra = serial.parallel_reduce(n, Sum::<f32>::new(), |i| a[i]);
        let rb = gpu.parallel_reduce(n, Sum::<f32>::new(), |i| b[i]);
        assert_eq!(ra.to_bits(), rb.to_bits());
    }

    #[test]
    fn reports_single_lane_accounting_space() {
        let gpu = v100();
        assert_eq!(gpu.concurrency(), 1);
        assert_eq!(gpu.name(), "SimGpu");
        assert!(gpu.accounting());
        assert!(!Serial.accounting());
        assert_eq!(gpu.model().platform().name, "V100");
    }

    #[test]
    fn push_charge_lands_in_ledger() {
        let gpu = v100();
        let cells: Vec<u32> = (0..4096).map(|i| (i * 37 % 1024) as u32).collect();
        gpu.charge(&Access::Push { cells: &cells, grid_cells: 1024 });
        let recs = gpu.records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].label, "push");
        assert_eq!(recs[0].elements, 4096);
        assert!(recs[0].cost.time > 0.0);
        assert!(gpu.modeled_time() > 0.0);
        assert_eq!(gpu.kernel_time("push"), gpu.modeled_time());
        assert_eq!(gpu.kernel_time("sort"), 0.0);
    }

    #[test]
    fn stream_and_gather_charges_accumulate_and_reset_clears() {
        let gpu = v100();
        gpu.charge(&Access::Stream { label: "field_solve", bytes: 1.0e6, flops: 5.0e5 });
        let keys: Vec<u32> = (0..1024).rev().collect();
        gpu.charge(&Access::Gather {
            label: "sort",
            keys: &keys,
            table_len: 1024,
            elem_bytes: 32,
            stream_bytes: 32.0,
            flops: 0.0,
            atomic: false,
        });
        assert_eq!(gpu.records().len(), 2);
        let total = gpu.modeled_time();
        assert!(
            (gpu.kernel_time("field_solve") + gpu.kernel_time("sort") - total).abs()
                < 1e-18
        );
        gpu.reset();
        assert_eq!(gpu.records().len(), 0);
        assert_eq!(gpu.modeled_time(), 0.0);
    }

    #[test]
    fn empty_charges_are_free() {
        let gpu = v100();
        gpu.charge(&Access::Push { cells: &[], grid_cells: 64 });
        gpu.charge(&Access::Gather {
            label: "sort",
            keys: &[],
            table_len: 1,
            elem_bytes: 32,
            stream_bytes: 32.0,
            flops: 0.0,
            atomic: false,
        });
        assert!(gpu.records().is_empty());
    }

    #[test]
    fn scaled_space_shrinks_model_cache() {
        let p = memsim::platform::by_name("A100").unwrap();
        let native = SimGpu::scaled(p.clone(), 1.0);
        let scaled = SimGpu::scaled(p, 100.0);
        assert!(scaled.model().llc_bytes() < native.model().llc_bytes() / 50);
    }
}
