//! AXPY: `y[i] += a * x[i]` — the baseline "compilers handle this" kernel.

use vsimd::chunks::zip_chunks_mut;
use vsimd::simd::SimdF64;
use vsimd::Strategy;

/// Auto strategy: the plain loop, vectorization left entirely to LLVM
/// (the paper's Kokkos-with-`#pragma ivdep` baseline).
pub(crate) fn auto(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy extent mismatch");
    for i in 0..y.len() {
        y[i] += a * x[i];
    }
}

/// Guided strategy: exact fixed-width chunks so the vectorizer cannot
/// miss (the paper's `#pragma omp simd`).
pub(crate) fn guided(a: f64, x: &[f64], y: &mut [f64]) {
    zip_chunks_mut::<f64, f64, 8>(
        y,
        x,
        |_, yc, xc| {
            for l in 0..8 {
                yc[l] += a * xc[l];
            }
        },
        |_, yi, xi| *yi += a * xi,
    );
}

/// Manual strategy: explicit `vsimd` lanes (the paper's Kokkos SIMD).
pub(crate) fn manual(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy extent mismatch");
    const W: usize = 4;
    let n = y.len();
    let main = n - n % W;
    let av = SimdF64::<W>::splat(a);
    let mut i = 0;
    while i < main {
        let xv = SimdF64::<W>::load(x, i);
        let yv = SimdF64::<W>::load(y, i);
        av.mul_add(xv, yv).store(y, i);
        i += W;
    }
    for k in main..n {
        y[k] = vsimd::math::fma_f64(a, x[k], y[k]);
    }
}

/// Dispatch by strategy (ad hoc falls back to manual for f64 — the VPIC
/// 1.2 library is f32-only, as in the paper).
pub fn run(strategy: Strategy, a: f64, x: &[f64], y: &mut [f64]) {
    match strategy {
        Strategy::Auto => auto(a, x, y),
        Strategy::Guided => guided(a, x, y),
        Strategy::Manual | Strategy::AdHoc => manual(a, x, y),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(n: usize) -> (Vec<f64>, Vec<f64>) {
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.2).cos()).collect();
        (x, y)
    }

    #[test]
    fn all_strategies_agree() {
        let n = 1003;
        let (x, y0) = inputs(n);
        let mut want = y0.clone();
        auto(2.5, &x, &mut want);
        for s in [Strategy::Guided, Strategy::Manual, Strategy::AdHoc] {
            let mut y = y0.clone();
            run(s, 2.5, &x, &mut y);
            for (g, w) in y.iter().zip(&want) {
                assert!((g - w).abs() < 1e-12, "{s}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn empty_input_ok() {
        let mut y: Vec<f64> = vec![];
        run(Strategy::Manual, 1.0, &[], &mut y);
    }
}
