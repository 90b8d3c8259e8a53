//! Ad hoc 4-lane SIMD: the VPIC 1.2 `v4float` class reproduced with
//! `std::arch` intrinsics.
//!
//! On x86-64 every operation maps to an SSE instruction (SSE2 is part of
//! the x86-64 baseline, so no runtime dispatch is needed); on other
//! targets a scalar fallback with identical semantics is compiled — which
//! is precisely the paper's point about ad hoc libraries: the fast path
//! exists only where someone hand-wrote it (Figure 1's per-ISA code
//! bodies), and VPIC 1.2 carries five such implementations.
//!
//! Note [`V4F32::rsqrt`] follows VPIC 1.2: the hardware estimate
//! (`rsqrtps`, ~12 bits) refined by one Newton–Raphson step (~23 bits) —
//! faster but *not* bit-identical to `1.0 / x.sqrt()`.

// SAFETY of the `unsafe` blocks below: SSE2 is part of the x86-64
// baseline, so the intrinsics are always available on this cfg; the only
// memory-touching intrinsics (`_mm_loadu_ps`/`_mm_storeu_ps`) are guarded
// by explicit slice bounds assertions at their call sites and tolerate
// any alignment.
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Four packed `f32` lanes backed by an SSE register on x86-64.
#[derive(Clone, Copy)]
pub struct V4F32(
    #[cfg(target_arch = "x86_64")] __m128,
    #[cfg(not(target_arch = "x86_64"))] [f32; 4],
);

#[cfg(target_arch = "x86_64")]
impl V4F32 {
    /// All lanes set to `v`.
    #[inline(always)]
    pub(crate) fn splat(v: f32) -> Self {
        unsafe { Self(_mm_set1_ps(v)) }
    }

    /// Load 4 contiguous floats from `src[offset..]` (unaligned load).
    #[inline(always)]
    pub(crate) fn load(src: &[f32], offset: usize) -> Self {
        assert!(offset + 4 <= src.len(), "V4F32::load out of bounds");
        unsafe { Self(_mm_loadu_ps(src.as_ptr().add(offset))) }
    }

    /// Store 4 lanes into `dst[offset..]` (unaligned store).
    #[inline(always)]
    pub(crate) fn store(self, dst: &mut [f32], offset: usize) {
        assert!(offset + 4 <= dst.len(), "V4F32::store out of bounds");
        unsafe { _mm_storeu_ps(dst.as_mut_ptr().add(offset), self.0) }
    }

    /// Lane-wise addition (`addps`).
    #[inline(always)]
    pub fn add(self, rhs: Self) -> Self {
        unsafe { Self(_mm_add_ps(self.0, rhs.0)) }
    }

    /// Lane-wise subtraction (`subps`).
    #[inline(always)]
    pub fn sub(self, rhs: Self) -> Self {
        unsafe { Self(_mm_sub_ps(self.0, rhs.0)) }
    }

    /// Lane-wise multiplication (`mulps`).
    #[inline(always)]
    pub fn mul(self, rhs: Self) -> Self {
        unsafe { Self(_mm_mul_ps(self.0, rhs.0)) }
    }

    /// Lane-wise division (`divps`).
    #[inline(always)]
    pub fn div(self, rhs: Self) -> Self {
        unsafe { Self(_mm_div_ps(self.0, rhs.0)) }
    }

    /// Lane-wise square root (`sqrtps`).
    #[inline(always)]
    pub(crate) fn sqrt(self) -> Self {
        unsafe { Self(_mm_sqrt_ps(self.0)) }
    }

    /// Fast reciprocal square root: `rsqrtps` estimate + one
    /// Newton–Raphson refinement (the VPIC 1.2 recipe).
    #[inline(always)]
    pub fn rsqrt(self) -> Self {
        unsafe {
            let est = _mm_rsqrt_ps(self.0);
            // y1 = y0 * (1.5 - 0.5 * x * y0 * y0)
            let half = _mm_set1_ps(0.5);
            let three_halves = _mm_set1_ps(1.5);
            let y2 = _mm_mul_ps(est, est);
            let xh = _mm_mul_ps(self.0, half);
            let corr = _mm_sub_ps(three_halves, _mm_mul_ps(xh, y2));
            Self(_mm_mul_ps(est, corr))
        }
    }

    /// Lane-wise `self <= rhs` packed as a bitmask, lane 0 in bit 0
    /// (`cmpleps` + `movmskps`); a NaN on either side clears the bit.
    #[inline(always)]
    pub(crate) fn le_bits(self, rhs: Self) -> u32 {
        unsafe { _mm_movemask_ps(_mm_cmple_ps(self.0, rhs.0)) as u32 }
    }

    /// Extract all lanes.
    #[inline(always)]
    pub fn to_array(self) -> [f32; 4] {
        let mut out = [0.0f32; 4];
        unsafe { _mm_storeu_ps(out.as_mut_ptr(), self.0) };
        out
    }

    /// Build from an array.
    #[inline(always)]
    pub fn from_array(a: [f32; 4]) -> Self {
        unsafe { Self(_mm_loadu_ps(a.as_ptr())) }
    }

    /// In-register 4×4 transpose (`_MM_TRANSPOSE4_PS`), the ad hoc
    /// counterpart of [`crate::transpose::transpose_4x4`].
    #[inline(always)]
    pub fn transpose(rows: [Self; 4]) -> [Self; 4] {
        unsafe {
            let mut r0 = rows[0].0;
            let mut r1 = rows[1].0;
            let mut r2 = rows[2].0;
            let mut r3 = rows[3].0;
            _MM_TRANSPOSE4_PS(&mut r0, &mut r1, &mut r2, &mut r3);
            [Self(r0), Self(r1), Self(r2), Self(r3)]
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
impl V4F32 {
    /// All lanes set to `v`.
    #[inline(always)]
    pub(crate) fn splat(v: f32) -> Self {
        Self([v; 4])
    }

    /// Load 4 contiguous floats.
    #[inline(always)]
    pub(crate) fn load(src: &[f32], offset: usize) -> Self {
        assert!(offset + 4 <= src.len(), "V4F32::load out of bounds");
        let mut out = [0.0f32; 4];
        out.copy_from_slice(&src[offset..offset + 4]);
        Self(out)
    }

    /// Store 4 lanes.
    #[inline(always)]
    pub(crate) fn store(self, dst: &mut [f32], offset: usize) {
        assert!(offset + 4 <= dst.len(), "V4F32::store out of bounds");
        dst[offset..offset + 4].copy_from_slice(&self.0);
    }

    /// Lane-wise addition.
    #[inline(always)]
    pub fn add(self, rhs: Self) -> Self {
        let mut o = [0.0; 4];
        for l in 0..4 {
            o[l] = self.0[l] + rhs.0[l];
        }
        Self(o)
    }

    /// Lane-wise subtraction.
    #[inline(always)]
    pub fn sub(self, rhs: Self) -> Self {
        let mut o = [0.0; 4];
        for l in 0..4 {
            o[l] = self.0[l] - rhs.0[l];
        }
        Self(o)
    }

    /// Lane-wise multiplication.
    #[inline(always)]
    pub fn mul(self, rhs: Self) -> Self {
        let mut o = [0.0; 4];
        for l in 0..4 {
            o[l] = self.0[l] * rhs.0[l];
        }
        Self(o)
    }

    /// Lane-wise division.
    #[inline(always)]
    pub fn div(self, rhs: Self) -> Self {
        let mut o = [0.0; 4];
        for l in 0..4 {
            o[l] = self.0[l] / rhs.0[l];
        }
        Self(o)
    }

    /// Lane-wise square root.
    #[inline(always)]
    pub(crate) fn sqrt(self) -> Self {
        let mut o = [0.0; 4];
        for l in 0..4 {
            o[l] = self.0[l].sqrt();
        }
        Self(o)
    }

    /// Reciprocal square root (exact on the fallback path).
    #[inline(always)]
    pub fn rsqrt(self) -> Self {
        let mut o = [0.0; 4];
        for l in 0..4 {
            o[l] = 1.0 / self.0[l].sqrt();
        }
        Self(o)
    }

    /// Lane-wise `self <= rhs` packed as a bitmask, lane 0 in bit 0; a
    /// NaN on either side clears the bit.
    #[inline(always)]
    pub(crate) fn le_bits(self, rhs: Self) -> u32 {
        let mut bits = 0;
        for l in 0..4 {
            bits |= ((self.0[l] <= rhs.0[l]) as u32) << l;
        }
        bits
    }

    /// Extract all lanes.
    #[inline(always)]
    pub fn to_array(self) -> [f32; 4] {
        self.0
    }

    /// Build from an array.
    #[inline(always)]
    pub fn from_array(a: [f32; 4]) -> Self {
        Self(a)
    }

    /// 4×4 transpose.
    #[inline(always)]
    pub fn transpose(rows: [Self; 4]) -> [Self; 4] {
        let mut out = [[0.0f32; 4]; 4];
        for r in 0..4 {
            for c in 0..4 {
                out[c][r] = rows[r].0[c];
            }
        }
        [Self(out[0]), Self(out[1]), Self(out[2]), Self(out[3])]
    }
}

impl std::fmt::Debug for V4F32 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "V4F32({:?})", self.to_array())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splat_and_roundtrip() {
        let v = V4F32::splat(3.25);
        assert_eq!(v.to_array(), [3.25; 4]);
        let a = [1.0f32, 2.0, 3.0, 4.0];
        assert_eq!(V4F32::from_array(a).to_array(), a);
    }

    #[test]
    fn load_store_unaligned_offsets() {
        let src: Vec<f32> = (0..16).map(|i| i as f32).collect();
        for off in 0..12 {
            let v = V4F32::load(&src, off);
            let mut dst = vec![0.0f32; 16];
            v.store(&mut dst, off);
            assert_eq!(&dst[off..off + 4], &src[off..off + 4]);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn load_out_of_bounds_panics() {
        let src = vec![0.0f32; 6];
        let _ = V4F32::load(&src, 3);
    }

    #[test]
    fn arithmetic_matches_scalar() {
        let a = V4F32::from_array([1.0, 2.0, 3.0, 4.0]);
        let b = V4F32::from_array([0.5, 0.25, 2.0, -1.0]);
        assert_eq!(a.add(b).to_array(), [1.5, 2.25, 5.0, 3.0]);
        assert_eq!(a.sub(b).to_array(), [0.5, 1.75, 1.0, 5.0]);
        assert_eq!(a.mul(b).to_array(), [0.5, 0.5, 6.0, -4.0]);
        assert_eq!(a.div(b).to_array(), [2.0, 8.0, 1.5, -4.0]);
    }

    #[test]
    fn le_bits_packs_lane_zero_first_and_drops_nan() {
        let a = V4F32::from_array([1.0, 2.0, f32::NAN, -1.0]);
        let b = V4F32::from_array([1.0, 1.5, 0.0, f32::INFINITY]);
        assert_eq!(a.le_bits(b), 0b1001);
        assert_eq!(b.le_bits(a), 0b0011);
    }

    #[test]
    fn sqrt_exact_rsqrt_approximate() {
        let v = V4F32::from_array([1.0, 4.0, 9.0, 16.0]);
        assert_eq!(v.sqrt().to_array(), [1.0, 2.0, 3.0, 4.0]);
        let r = v.rsqrt().to_array();
        let want = [1.0, 0.5, 1.0 / 3.0, 0.25];
        for l in 0..4 {
            let rel = ((r[l] - want[l]) / want[l]).abs();
            assert!(rel < 1e-5, "lane {l}: {} vs {}, rel {rel}", r[l], want[l]);
        }
    }

    #[test]
    fn transpose_matches_portable() {
        let rows = [
            V4F32::from_array([0.0, 1.0, 2.0, 3.0]),
            V4F32::from_array([10.0, 11.0, 12.0, 13.0]),
            V4F32::from_array([20.0, 21.0, 22.0, 23.0]),
            V4F32::from_array([30.0, 31.0, 32.0, 33.0]),
        ];
        let t = V4F32::transpose(rows);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(t[c].to_array()[r], rows[r].to_array()[c]);
            }
        }
    }
}
