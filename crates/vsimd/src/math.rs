//! Vector-friendly math functions.
//!
//! Transcendental calls (`exp`, `sin`, …) are the canonical
//! auto-vectorization breakers the paper highlights for the PLANCKIAN
//! kernel: compilers either scalarize them or need a vector math library.
//! Here we provide range-reduced polynomial `exp` approximations whose
//! bodies are straight-line FMA chains — exactly the shape that vectorizes
//! when called lane-wise from [`crate::simd`] types, and the shape the
//! *guided* strategy splits into its own loop.

use crate::simd::SimdF64;

/// Fused multiply-add that never falls back to the (catastrophically
/// slow) software `fma()` libm routine: on targets with a hardware FMA
/// unit it contracts, elsewhere it compiles to separate multiply+add.
#[inline(always)]
pub(crate) fn fma_f32(a: f32, b: f32, c: f32) -> f32 {
    if cfg!(target_feature = "fma") {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// `f64` twin of `fma_f32`.
#[inline(always)]
pub fn fma_f64(a: f64, b: f64, c: f64) -> f64 {
    if cfg!(target_feature = "fma") {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// Fast `exp` for `f32`, accurate to ~2 ulp over `[-87, 88]`.
///
/// Range reduction `x = k·ln2 + r` with `|r| ≤ ln2/2`, then a degree-6
/// polynomial for `exp(r)` and an exponent-field reconstruction of `2^k`.
#[inline(always)]
pub fn fast_exp_f32(x: f32) -> f32 {
    // clamp to the representable range to avoid NaN from the bit tricks
    let x = x.clamp(-87.0, 88.0);
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    const LN2_HI: f32 = 0.693_145_75;
    const LN2_LO: f32 = 1.428_606_8e-6;
    let k = (x * LOG2E).round();
    let r = x - k * LN2_HI - k * LN2_LO;
    // exp(r) ~= 1 + r + r^2/2! + ... + r^6/6!  (Horner, FMA-friendly)
    let p = 1.0f32 / 720.0;
    let p = fma_f32(p, r, 1.0 / 120.0);
    let p = fma_f32(p, r, 1.0 / 24.0);
    let p = fma_f32(p, r, 1.0 / 6.0);
    let p = fma_f32(p, r, 0.5);
    let p = fma_f32(p, r, 1.0);
    let p = fma_f32(p, r, 1.0);
    // 2^k via exponent bits
    let two_k = f32::from_bits((((k as i32) + 127) as u32) << 23);
    p * two_k
}

/// Fast `exp` for `f64`, accurate to ~1e-13 relative over `[-700, 700]`.
#[inline(always)]
pub fn fast_exp_f64(x: f64) -> f64 {
    let x = x.clamp(-700.0, 700.0);
    const LOG2E: f64 = std::f64::consts::LOG2_E;
    const LN2_HI: f64 = 0.693_147_180_369_123_8;
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
    let k = (x * LOG2E).round();
    let r = x - k * LN2_HI - k * LN2_LO;
    // degree-10 Taylor via Horner
    let mut p = 1.0f64 / 3_628_800.0;
    for c in [
        1.0 / 362_880.0,
        1.0 / 40_320.0,
        1.0 / 5_040.0,
        1.0 / 720.0,
        1.0 / 120.0,
        1.0 / 24.0,
        1.0 / 6.0,
        0.5,
        1.0,
        1.0,
    ] {
        p = fma_f64(p, r, c);
    }
    let two_k = f64::from_bits((((k as i64) + 1023) as u64) << 52);
    p * two_k
}

impl<const N: usize> SimdF64<N> {
    /// Lane-wise fast `exp` (see [`fast_exp_f64`]).
    #[inline(always)]
    pub fn exp(self) -> Self {
        let mut out = [0.0f64; N];
        for l in 0..N {
            out[l] = fast_exp_f64(self.0[l]);
        }
        Self(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_exp_f32_matches_std_to_tolerance() {
        for i in -870..=880 {
            let x = i as f32 / 10.0;
            let got = fast_exp_f32(x);
            let want = x.exp();
            let rel = if want == 0.0 { got.abs() } else { ((got - want) / want).abs() };
            assert!(rel < 3e-6, "x={x}: got {got}, want {want}, rel {rel}");
        }
    }

    #[test]
    fn fast_exp_f64_matches_std_to_tolerance() {
        for i in -7000..=7000 {
            let x = i as f64 / 10.0;
            let got = fast_exp_f64(x);
            let want = x.exp();
            let rel = ((got - want) / want).abs();
            assert!(rel < 1e-12, "x={x}: rel {rel}");
        }
    }

    #[test]
    fn exp_handles_extremes_without_nan() {
        assert!(fast_exp_f32(-1000.0).is_finite());
        assert!(fast_exp_f32(1000.0).is_finite());
        assert!(fast_exp_f64(-10_000.0).is_finite());
        assert!(fast_exp_f64(10_000.0).is_finite());
        assert_eq!(fast_exp_f32(0.0), 1.0);
        assert_eq!(fast_exp_f64(0.0), 1.0);
    }

    #[test]
    fn simd_exp_is_lanewise() {
        let w = SimdF64::<4>::from([0.0, 1.0, -2.0, 5.0]);
        let e = w.exp();
        for l in 0..4 {
            assert_eq!(e.lane(l), fast_exp_f64(w.lane(l)));
        }
    }
}
