//! PI_REDUCE: `π ≈ Σᵢ 4 / (1 + ((i+½)·dx)²) · dx` — the reduction
//! kernel. A naive serial accumulation is a loop-carried dependence the
//! vectorizer must *reassociate* to break; whether it does so is exactly
//! the auto-vs-manual gap the paper measures ("manual vectorization is up
//! to 80% faster than auto and guided on non-MI300A CPUs").

use vsimd::simd::SimdF64;
use vsimd::Strategy;

/// Auto strategy: naive serial accumulation (single dependence chain).
pub(crate) fn auto(n: usize) -> f64 {
    let dx = 1.0 / n as f64;
    let mut pi = 0.0;
    for i in 0..n {
        let x = (i as f64 + 0.5) * dx;
        pi += 4.0 / (1.0 + x * x);
    }
    pi * dx
}

/// Guided strategy: the dependence chain split into 8 independent
/// accumulators (the `omp simd reduction(+:pi)` restructuring).
#[allow(clippy::needless_range_loop)] // fixed-width lane loop, kept explicit
pub(crate) fn guided(n: usize) -> f64 {
    let dx = 1.0 / n as f64;
    const W: usize = 8;
    let main = n - n % W;
    let mut acc = [0.0f64; W];
    let mut i = 0;
    while i < main {
        for l in 0..W {
            let x = ((i + l) as f64 + 0.5) * dx;
            acc[l] += 4.0 / (1.0 + x * x);
        }
        i += W;
    }
    let mut pi: f64 = acc.iter().sum();
    for k in main..n {
        let x = (k as f64 + 0.5) * dx;
        pi += 4.0 / (1.0 + x * x);
    }
    pi * dx
}

/// Manual strategy: explicit lanes with a vector index and one horizontal
/// reduction at the end.
pub(crate) fn manual(n: usize) -> f64 {
    let dx = 1.0 / n as f64;
    const W: usize = 4;
    let main = n - n % W;
    let dxv = SimdF64::<W>::splat(dx);
    let four = SimdF64::<W>::splat(4.0);
    let one = SimdF64::<W>::splat(1.0);
    let mut acc = SimdF64::<W>::zero();
    let mut base = SimdF64::<W>::from([0.5, 1.5, 2.5, 3.5]);
    let step = SimdF64::<W>::splat(W as f64);
    let mut i = 0;
    while i < main {
        let x = base * dxv;
        acc += four / (one + x * x);
        base += step;
        i += W;
    }
    let mut pi = acc.reduce_sum();
    for k in main..n {
        let x = (k as f64 + 0.5) * dx;
        pi += 4.0 / (1.0 + x * x);
    }
    pi * dx
}

/// Dispatch by strategy (ad hoc maps to manual).
pub fn run(strategy: Strategy, n: usize) -> f64 {
    match strategy {
        Strategy::Auto => auto(n),
        Strategy::Guided => guided(n),
        Strategy::Manual | Strategy::AdHoc => manual(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_to_pi() {
        for s in [Strategy::Auto, Strategy::Guided, Strategy::Manual] {
            let approx = run(s, 1_000_000);
            assert!(
                (approx - std::f64::consts::PI).abs() < 1e-9,
                "{s}: {approx}"
            );
        }
    }

    #[test]
    fn strategies_agree_tightly() {
        let a = auto(10_001);
        let g = guided(10_001);
        let m = manual(10_001);
        assert!((a - g).abs() < 1e-12);
        assert!((a - m).abs() < 1e-12);
    }

    #[test]
    fn error_shrinks_with_n() {
        let coarse = (auto(100) - std::f64::consts::PI).abs();
        let fine = (auto(10_000) - std::f64::consts::PI).abs();
        assert!(fine < coarse / 100.0, "midpoint rule is O(1/n^2)");
    }

    #[test]
    fn tail_handling_on_non_multiple_lengths() {
        for n in [1usize, 3, 7, 9, 13] {
            let a = auto(n);
            let g = guided(n);
            let m = manual(n);
            assert!((a - g).abs() < 1e-13, "n={n}");
            assert!((a - m).abs() < 1e-13, "n={n}");
        }
    }
}
