//! # pk — Portability Kernels
//!
//! A Kokkos-analog performance-portability layer in Rust. This crate provides
//! the abstractions that the rest of the VPIC 2.0 reproduction is written
//! against, mirroring the role Kokkos plays in the paper:
//!
//! * **Execution spaces** ([`Serial`], [`Threads`], [`SimGpu`]) — pluggable
//!   backends for the parallel patterns, mirroring `Kokkos::Serial` /
//!   `Kokkos::OpenMP` / `Kokkos::Cuda`. A backend supplies one dispatch,
//!   [`ExecSpace::run_chunks_mut`]. The GPU backend's is [`Serial`]'s, so
//!   it executes the same kernels functionally (bit-identical to
//!   [`Serial`]) while charging their memory behaviour through the
//!   `memsim` hardware model.
//! * **Lane windows** — [`ExecSpace::parallel_windows`] cuts a [`Split`]
//!   bundle of parallel slices (a kernel's output arrays, a species'
//!   particle arrays) at the space's static block boundaries in whole
//!   units (a grid row, a particle) and hands each block its window,
//!   with safe `split_at_mut`s: no kernel rebuilds a slice from a raw
//!   pointer. The crate's raw-pointer code is the pool's lifetime erasure
//!   of a dispatched job ([`pool`]) and the [`prefetch`] hint.
//! * **Parallel patterns** — [`ExecSpace::parallel_for`],
//!   [`ExecSpace::parallel_for_mut`] and [`ExecSpace::parallel_reduce`]
//!   (through [`ExecSpace::run_blocks`] and [`ExecSpace::reduce_blocks`])
//!   over a statically partitioned [`RangePolicy`], mirroring
//!   `Kokkos::parallel_for` / `parallel_reduce`. Each is written once, as
//!   lane windows of unit 1, and makes one `run_chunks_mut` call.
//! * **Atomics** ([`atomic`]) — the fixed-point
//!   [`atomic::FixedScatterBuf`] for contended scatter phases (current
//!   deposition), written atomically only where a lane has more than one
//!   writer, mirroring `Kokkos::ScatterView`.
//! * **Sorting** ([`sort`]) — a stable `argsort` and the gather through
//!   its permutation (`Kokkos::Experimental::sort_by_key`'s two halves),
//!   plus the `min_max` and histogram primitives the paper's Algorithms 1
//!   and 2 need (`Kokkos::MinMax`).
//!
//! ## Example
//!
//! ```
//! use pk::prelude::*;
//!
//! let space = Serial;
//! let mut y = vec![0.0f64; 1024];
//! let x: Vec<f64> = (0..1024).map(|i| i as f64).collect();
//! // y = 2x  (a trivial parallel_for)
//! space.parallel_for_mut(&mut y, |i, yi| *yi = 2.0 * x[i]);
//! let total: f64 = space.parallel_reduce(0..1024, Sum::<f64>::new(), |i| y[i]);
//! assert_eq!(total, 2.0 * (1023.0 * 1024.0 / 2.0));
//! ```

pub mod atomic;
pub mod gpu;
pub mod pool;
pub mod range;
pub mod reduce;
pub mod sort;
pub mod space;

pub use gpu::{Access, KernelRecord, SimGpu};
pub use pool::{DispatchPanic, WorkerPool};
pub use range::RangePolicy;
pub use reduce::{Min, MinMax, Reducer, Sum};
pub use space::{Blocks, ExecSpace, Serial, Split, Threads};

/// Hint the cache that the line holding `*at` is about to be read or
/// written — what a kernel that streams an index array says about the
/// records it will gather `n` elements from now, so that their misses
/// overlap the work in between. It computes nothing: one `prefetcht0` on
/// x86-64, nothing under Miri and on other targets.
#[inline(always)]
pub fn prefetch<T>(at: &T) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: SSE is part of the x86-64 baseline, so the instruction
        // exists on every CPU this arm is compiled for; a prefetch never
        // faults and writes nothing, and the address is that of a live
        // reference.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(at).cast()) }
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = at;
}

/// Convenience prelude: `use pk::prelude::*;`.
pub mod prelude {
    pub use crate::atomic::AtomicF64Buf;
    pub use crate::gpu::SimGpu;
    pub use crate::range::RangePolicy;
    pub use crate::reduce::{Min, MinMax, Reducer, Sum};
    pub use crate::sort::{apply_permutation, min_max, sort_permutation};
    pub use crate::space::{ExecSpace, Serial, Threads};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn doc_example_holds() {
        let space = Serial;
        let mut y = vec![0.0f64; 16];
        let x: Vec<f64> = (0..16).map(|i| i as f64).collect();
        space.parallel_for_mut(&mut y, |i, yi| *yi = 2.0 * x[i]);
        let total: f64 = space.parallel_reduce(0..16, Sum::<f64>::new(), |i| y[i]);
        assert_eq!(total, 2.0 * (15.0 * 16.0 / 2.0));
    }
}
