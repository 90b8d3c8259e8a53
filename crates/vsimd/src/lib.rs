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
//! | **manual** | Kokkos SIMD (C++26 `std::simd`) | the portable [`Simd`](simd) lane types with [`Mask`]s, gathers, and register [`transpose`]s |
//! | **ad hoc** | VPIC 1.2 per-ISA intrinsics (AVX/AVX2/AVX512/NEON/Altivec) | [`v4::V4F32`] over `std::arch` SSE on x86-64 (scalar elsewhere) plus runtime-dispatched AVX2 slice kernels in [`adhoc`] |
//!
//! The actual kernels written in each strategy live in the `rajaperf`
//! crate (microbenchmarks) and `vpic-core`, whose grid kernels are generic
//! over [`StencilLane`] and whose particle push is generic over
//! [`PushLane`]: one body, instantiated per strategy.

// indexed fixed-trip loops are the explicit idiom this crate exists to
// demonstrate (they are what the vectorizer lowers predictably), and the
// V4 type mirrors VPIC 1.2's add/sub/mul/div method names on purpose
#![allow(clippy::needless_range_loop)]
#![allow(clippy::should_implement_trait)]

pub mod adhoc;
pub mod chunks;
pub mod mask;
pub mod math;
pub mod push_lane;
pub mod simd;
pub mod stencil;
pub mod strategy;
pub mod transpose;
pub mod v4;

pub use mask::Mask;
pub use push_lane::{PushLane, Xyz};
pub use simd::{SimdF32, SimdF64, SimdI32};
pub use stencil::StencilLane;
pub use strategy::Strategy;

/// Preferred portable lane count for `f32` on the build target.
///
/// Mirrors `Kokkos::Experimental::native_simd<float>::size()`: 8 where
/// AVX2 is enabled at compile time, else 4 (SSE/NEON width).
pub const NATIVE_F32_LANES: usize = if cfg!(target_feature = "avx2") { 8 } else { 4 };

/// Preferred portable lane count for `f64` on the build target.
pub const NATIVE_F64_LANES: usize = NATIVE_F32_LANES / 2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // target-dependent constants
    fn native_lane_constants_are_consistent() {
        assert!(NATIVE_F32_LANES == 4 || NATIVE_F32_LANES == 8);
        assert_eq!(NATIVE_F64_LANES * 2, NATIVE_F32_LANES);
    }
}
