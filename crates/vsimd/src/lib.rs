//! # vsimd — portable SIMD library and vectorization strategies
//!
//! This crate reproduces the *compute optimization* layer of VPIC 2.0
//! (paper §3.1/§4.2). It provides the building blocks for the paper's four
//! vectorization strategies:
//!
//! | Paper strategy | Paper implementation | Here |
//! |---|---|---|
//! | **auto** | Kokkos loops + `#pragma ivdep` | plain indexed loops left to rustc/LLVM auto-vectorization |
//! | **guided** | `#pragma omp simd` + kernel splitting | fixed-width chunked loops ([`chunks`]) that reliably auto-vectorize, with difficult math split out |
//! | **manual** | Kokkos SIMD (C++26 `std::simd`) | the portable [`Simd`](simd) lane types and a register [`transpose`] |
//! | **ad hoc** | VPIC 1.2 per-ISA intrinsics (AVX/AVX2/AVX512/NEON/Altivec) | `v8::V8F32` over AVX2 (x86-64 only) for the push where the CPU has it, detected at run time; [`v4::V4F32`] over SSE on x86-64 without AVX2 (off x86-64 it is the portable `SimdF32<4>`) |
//!
//! The actual kernels written in each strategy live in the `rajaperf`
//! crate (microbenchmarks) and `vpic-core`, whose particle push is
//! generic over [`PushLane`], the one lane trait: one body, instantiated
//! per strategy. `vpic-core`'s grid kernels have one body each, whatever
//! the strategy.

// indexed fixed-trip loops are the explicit idiom this crate exists to
// demonstrate (they are what the vectorizer lowers predictably)
#![allow(clippy::needless_range_loop)]

pub mod chunks;
pub mod math;
pub mod push_lane;
pub mod simd;
pub mod strategy;
pub mod transpose;
pub mod v4;
#[cfg(target_arch = "x86_64")]
pub mod v8;

pub use push_lane::{PushLane, Xyz, MAX_LANES};
pub use simd::{SimdF32, SimdF64};
pub use strategy::Strategy;
