//! Ad hoc 8-lane SIMD: VPIC 1.2's `v8float` for AVX2, over one `__m256`.
//!
//! x86-64 only, and unlike [`crate::v4`] not part of the baseline: AVX is
//! an extension a CPU may lack, so these instructions run only where the
//! CPU was asked first. `vpic-core`'s push asks once per chunk
//! (`is_x86_feature_detected!("avx2")`) and then calls its one
//! `#[target_feature(enable = "avx2")]` entry; every method here is
//! `#[inline(always)]` so that it compiles *into* that entry with AVX on —
//! reached through a call from code built for the baseline, each
//! intrinsic would run behind a call of its own. There is no scalar
//! fallback: a host without AVX2 runs [`crate::v4::V4F32`].
//!
//! Only the ops [`PushLane`] needs, all IEEE-754 correctly rounded (no
//! FMA, no `rsqrt`), so lane `l` computes exactly what `f32` computes.

use crate::push_lane::{blocks, PushLane, MAX_LANES};
use crate::stencil::StencilLane;
use std::arch::x86_64::*;

/// Eight packed `f32` lanes in one AVX register.
///
/// Its methods are safe functions that execute AVX instructions, so they
/// are sound only on a CPU with AVX2: inside the push's AVX2 entry
/// (`vpic-core`'s `push::push_avx2`, which the push calls only after
/// `is_x86_feature_detected!("avx2")`), or in a test that made the same
/// check first.
#[derive(Clone, Copy)]
pub struct V8F32(__m256);

/// Transpose the 4×4 block in each 128-bit half of the four registers on
/// its own (`_MM_TRANSPOSE4_PS` per half): row `r` of a half becomes
/// column `r`. The eight-row transposes keep records `l` and `l + 4` in
/// the two halves of register `l`, so one in-lane transpose serves both.
#[inline(always)]
fn transpose_halves(rows: [V8F32; 4]) -> [V8F32; 4] {
    let [V8F32(r0), V8F32(r1), V8F32(r2), V8F32(r3)] = rows;
    // SAFETY: AVX, only inside the AVX2 entry or after detection (type doc).
    unsafe {
        let (t0, t1) = (_mm256_unpacklo_ps(r0, r1), _mm256_unpackhi_ps(r0, r1));
        let (t2, t3) = (_mm256_unpacklo_ps(r2, r3), _mm256_unpackhi_ps(r2, r3));
        [
            V8F32(_mm256_shuffle_ps::<0x44>(t0, t2)),
            V8F32(_mm256_shuffle_ps::<0xEE>(t0, t2)),
            V8F32(_mm256_shuffle_ps::<0x44>(t1, t3)),
            V8F32(_mm256_shuffle_ps::<0xEE>(t1, t3)),
        ]
    }
}

impl StencilLane for V8F32 {
    const LANES: usize = 8;

    #[inline(always)]
    fn splat(v: f32) -> Self {
        // SAFETY: AVX, only inside the AVX2 entry or after detection (type doc).
        unsafe { Self(_mm256_set1_ps(v)) }
    }

    #[inline(always)]
    fn load(src: &[f32], offset: usize) -> Self {
        let src = &src[offset..offset + 8];
        // SAFETY: AVX as for `splat`; eight floats in bounds, any alignment.
        unsafe { Self(_mm256_loadu_ps(src.as_ptr())) }
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32], offset: usize) {
        let dst = &mut dst[offset..offset + 8];
        // SAFETY: AVX as for `splat`; eight floats in bounds, any alignment.
        unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), self.0) }
    }

    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        // SAFETY: AVX, only inside the AVX2 entry or after detection (type doc).
        unsafe { Self(_mm256_add_ps(self.0, rhs.0)) }
    }

    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        // SAFETY: AVX, only inside the AVX2 entry or after detection (type doc).
        unsafe { Self(_mm256_sub_ps(self.0, rhs.0)) }
    }

    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        // SAFETY: AVX, only inside the AVX2 entry or after detection (type doc).
        unsafe { Self(_mm256_mul_ps(self.0, rhs.0)) }
    }

    #[inline(always)]
    fn extract(self, l: usize) -> f32 {
        let mut out = [0.0f32; 8];
        self.store(&mut out, 0);
        out[l]
    }
}

impl PushLane for V8F32 {
    #[inline(always)]
    fn div(self, rhs: Self) -> Self {
        // SAFETY: AVX, only inside the AVX2 entry or after detection (type doc).
        unsafe { Self(_mm256_div_ps(self.0, rhs.0)) }
    }

    #[inline(always)]
    fn sqrt(self) -> Self {
        // SAFETY: AVX, only inside the AVX2 entry or after detection (type doc).
        unsafe { Self(_mm256_sqrt_ps(self.0)) }
    }

    #[inline(always)]
    fn within_bits(self, lo: Self, hi: Self) -> u32 {
        // ordered compares: a NaN on either side clears the bit
        // SAFETY: AVX, only inside the AVX2 entry or after detection (type doc).
        unsafe {
            let above = _mm256_cmp_ps::<_CMP_LE_OQ>(lo.0, self.0);
            let below = _mm256_cmp_ps::<_CMP_LE_OQ>(self.0, hi.0);
            _mm256_movemask_ps(_mm256_and_ps(above, below)) as u32
        }
    }

    /// Records `l` and `l + 4` into the halves of register `l` (two
    /// 128-bit loads), then one in-lane transpose per block of four fields.
    #[inline(always)]
    fn load_tr<const N: usize>(rows: [&[f32; N]; MAX_LANES]) -> [Self; N] {
        let mut cols = [Self::splat(0.0); N];
        for offset in blocks(N) {
            let mut pairs = [Self::splat(0.0); 4];
            for (l, pair) in pairs.iter_mut().enumerate() {
                let (lo, hi) = (&rows[l][offset..offset + 4], &rows[l + 4][offset..offset + 4]);
                // SAFETY: AVX as for `splat`; four floats in bounds per load.
                *pair = unsafe { Self(_mm256_set_m128(_mm_loadu_ps(hi.as_ptr()), _mm_loadu_ps(lo.as_ptr()))) };
            }
            cols[offset..offset + 4].copy_from_slice(&transpose_halves(pairs));
        }
        cols
    }

    /// The inverse of [`V8F32::load_tr`]: one in-lane transpose per block
    /// of four fields, then the halves of register `l` stored to records
    /// `l` and `l + 4`.
    #[inline(always)]
    fn store_tr<const N: usize>(cols: [Self; N], rows: &mut [[f32; N]; MAX_LANES]) {
        for offset in blocks(N) {
            let block = [cols[offset], cols[offset + 1], cols[offset + 2], cols[offset + 3]];
            let pairs = transpose_halves(block);
            for l in 0..4 {
                let (lo, hi) = rows.split_at_mut(l + 4);
                let (lo, hi) = (&mut lo[l][offset..offset + 4], &mut hi[0][offset..offset + 4]);
                // SAFETY: AVX as for `splat`; four floats in bounds per store.
                unsafe {
                    _mm_storeu_ps(lo.as_mut_ptr(), _mm256_castps256_ps128(pairs[l].0));
                    _mm_storeu_ps(hi.as_mut_ptr(), _mm256_extractf128_ps::<1>(pairs[l].0));
                }
            }
        }
    }
}
