//! PLANCKIAN: `w[i] = y[i] / (exp(u[i] / v[i]) − 1)` — the
//! transcendental-in-the-loop kernel. The `exp` call is what breaks
//! compiler auto-vectorization (a libm call per element); the guided
//! strategy's fix is the paper's "splitting kernels to separate
//! difficult-to-vectorize mathematical functions".

use vsimd::chunks::for_each_chunk_mut;
use vsimd::math::fast_exp_f64;
use vsimd::simd::SimdF64;
use vsimd::Strategy;

/// Auto strategy: straight loop with libm `exp` — the compiler will not
/// vectorize across the call.
pub(crate) fn auto(u: &[f64], v: &[f64], y: &[f64], w: &mut [f64]) {
    assert!(u.len() == v.len() && v.len() == y.len() && y.len() == w.len());
    for i in 0..w.len() {
        w[i] = y[i] / ((u[i] / v[i]).exp() - 1.0);
    }
}

/// Guided strategy: kernel split. Pass 1 computes the ratios into the
/// output buffer (trivially vectorized); pass 2 applies the polynomial
/// `exp` in fixed-width chunks (vectorizable: no libm call); pass 3 forms
/// the quotient.
pub(crate) fn guided(u: &[f64], v: &[f64], y: &[f64], w: &mut [f64]) {
    assert!(u.len() == v.len() && v.len() == y.len() && y.len() == w.len());
    // pass 1: w = u / v
    for i in 0..w.len() {
        w[i] = u[i] / v[i];
    }
    // pass 2: w = exp(w), chunked polynomial
    for_each_chunk_mut::<f64, 8>(
        w,
        |_, chunk| {
            for val in chunk.iter_mut() {
                *val = fast_exp_f64(*val);
            }
        },
        |_, val| *val = fast_exp_f64(*val),
    );
    // pass 3: w = y / (w - 1)
    for i in 0..w.len() {
        w[i] = y[i] / (w[i] - 1.0);
    }
}

/// Manual strategy: one fused pass over explicit lanes with the lane-wise
/// polynomial `exp`.
pub(crate) fn manual(u: &[f64], v: &[f64], y: &[f64], w: &mut [f64]) {
    assert!(u.len() == v.len() && v.len() == y.len() && y.len() == w.len());
    const W: usize = 4;
    let n = w.len();
    let main = n - n % W;
    let one = SimdF64::<W>::splat(1.0);
    let mut i = 0;
    while i < main {
        let uv = SimdF64::<W>::load(u, i);
        let vv = SimdF64::<W>::load(v, i);
        let yv = SimdF64::<W>::load(y, i);
        let e = (uv / vv).exp();
        (yv / (e - one)).store(w, i);
        i += W;
    }
    for k in main..n {
        w[k] = y[k] / (fast_exp_f64(u[k] / v[k]) - 1.0);
    }
}

/// Dispatch by strategy (ad hoc maps to manual, as in AXPY).
pub fn run(strategy: Strategy, u: &[f64], v: &[f64], y: &[f64], w: &mut [f64]) {
    match strategy {
        Strategy::Auto => auto(u, v, y, w),
        Strategy::Guided => guided(u, v, y, w),
        Strategy::Manual | Strategy::AdHoc => manual(u, v, y, w),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let u: Vec<f64> = (0..n).map(|i| 0.5 + (i % 17) as f64 * 0.3).collect();
        let v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64 * 0.2).collect();
        let y: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        (u, v, y)
    }

    #[test]
    fn strategies_agree_with_reference() {
        let n = 517;
        let (u, v, y) = inputs(n);
        let mut want = vec![0.0; n];
        auto(&u, &v, &y, &mut want);
        for s in [Strategy::Guided, Strategy::Manual] {
            let mut w = vec![0.0; n];
            run(s, &u, &v, &y, &mut w);
            for (g, r) in w.iter().zip(&want) {
                let rel = ((g - r) / r).abs();
                assert!(rel < 1e-11, "{s}: {g} vs {r} (rel {rel})");
            }
        }
    }

    #[test]
    fn physical_sanity_planck_denominator() {
        // u/v > 0 → exp(u/v) > 1 → denominator positive → w has y's sign
        let (u, v, y) = inputs(64);
        let mut w = vec![0.0; 64];
        manual(&u, &v, &y, &mut w);
        assert!(w.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn guided_split_equals_fused() {
        let n = 97;
        let (u, v, y) = inputs(n);
        let mut a = vec![0.0; n];
        let mut b = vec![0.0; n];
        guided(&u, &v, &y, &mut a);
        manual(&u, &v, &y, &mut b);
        for (x, z) in a.iter().zip(&b) {
            assert!((x - z).abs() < 1e-11 * z.abs().max(1.0));
        }
    }
}
