//! Ad hoc 4-lane SIMD: VPIC 1.2's `v4float` for SSE, over one `__m128`.
//!
//! On x86-64 every [lane op](crate::PushLane) is one SSE
//! instruction (SSE2 is part of the x86-64 baseline, so no runtime
//! dispatch is needed). On other targets `V4F32` is the portable
//! [`SimdF32<4>`](crate::SimdF32), the *manual* body — which is precisely
//! the paper's point about ad hoc libraries: the fast path exists only
//! where someone hand-wrote it (Figure 1's per-ISA code bodies), and VPIC
//! 1.2 carries five such implementations. Its tests are `PushLane`'s, in
//! `push_lane.rs` and `tests/properties.rs`, and run on every target.
//!
//! Only the ops `PushLane` needs, all IEEE-754 correctly rounded (no FMA,
//! no `rsqrt`), so lane `l` computes exactly what `f32` computes.

// SAFETY of the `unsafe` blocks below: SSE2 is part of the x86-64
// baseline, so the intrinsics are always available on this cfg; the only
// memory-touching intrinsics (`_mm_loadu_ps`/`_mm_storeu_ps`) read or
// write a slice of exactly four floats, bounds-checked when it is taken,
// and tolerate any alignment.
#[cfg(target_arch = "x86_64")]
use crate::push_lane::{load_tr_4, store_tr_4, PushLane, MAX_LANES};
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Four packed `f32` lanes in one SSE register.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub struct V4F32(__m128);

/// Four `f32` lanes: off x86-64 the ad hoc type is the portable one.
#[cfg(not(target_arch = "x86_64"))]
pub type V4F32 = crate::simd::SimdF32<4>;

#[cfg(target_arch = "x86_64")]
impl V4F32 {
    /// Lanewise `self <= rhs` packed as a bitmask, lane 0 in bit 0
    /// (`cmpleps` + `movmskps`); a NaN on either side clears the bit.
    #[inline(always)]
    fn le_bits(self, rhs: Self) -> u32 {
        unsafe { _mm_movemask_ps(_mm_cmple_ps(self.0, rhs.0)) as u32 }
    }

    /// In-register 4×4 transpose (`_MM_TRANSPOSE4_PS`), the ad hoc
    /// counterpart of [`crate::transpose::transpose_4x4`].
    #[inline(always)]
    fn transpose(rows: [Self; 4]) -> [Self; 4] {
        unsafe {
            let [Self(mut r0), Self(mut r1), Self(mut r2), Self(mut r3)] = rows;
            _MM_TRANSPOSE4_PS(&mut r0, &mut r1, &mut r2, &mut r3);
            [Self(r0), Self(r1), Self(r2), Self(r3)]
        }
    }
}

#[cfg(target_arch = "x86_64")]
impl PushLane for V4F32 {
    const LANES: usize = 4;

    #[inline(always)]
    fn splat(v: f32) -> Self {
        unsafe { Self(_mm_set1_ps(v)) }
    }

    #[inline(always)]
    fn load(src: &[f32], offset: usize) -> Self {
        let src = &src[offset..offset + 4];
        unsafe { Self(_mm_loadu_ps(src.as_ptr())) }
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32], offset: usize) {
        let dst = &mut dst[offset..offset + 4];
        unsafe { _mm_storeu_ps(dst.as_mut_ptr(), self.0) }
    }

    #[inline(always)]
    fn extract(self, l: usize) -> f32 {
        let mut out = [0.0f32; 4];
        self.store(&mut out, 0);
        out[l]
    }

    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        unsafe { Self(_mm_add_ps(self.0, rhs.0)) }
    }

    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        unsafe { Self(_mm_sub_ps(self.0, rhs.0)) }
    }

    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        unsafe { Self(_mm_mul_ps(self.0, rhs.0)) }
    }

    #[inline(always)]
    fn div(self, rhs: Self) -> Self {
        unsafe { Self(_mm_div_ps(self.0, rhs.0)) }
    }

    #[inline(always)]
    fn sqrt(self) -> Self {
        unsafe { Self(_mm_sqrt_ps(self.0)) }
    }

    #[inline(always)]
    fn within_bits(self, lo: Self, hi: Self) -> u32 {
        lo.le_bits(self) & self.le_bits(hi)
    }

    #[inline(always)]
    fn load_tr<const N: usize>(rows: [&[f32; N]; MAX_LANES]) -> [Self; N] {
        load_tr_4(rows, V4F32::transpose)
    }

    #[inline(always)]
    fn store_tr<const N: usize>(cols: [Self; N], rows: &mut [[f32; N]; MAX_LANES]) {
        store_tr_4(cols, rows, V4F32::transpose)
    }
}
