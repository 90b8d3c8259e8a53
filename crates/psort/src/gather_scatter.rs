//! Executable gather-scatter workload (the microbenchmark of §5.4, run
//! for real on the host).
//!
//! For each element `i`: gather `table[key[i] + off]` over the stencil,
//! combine with the streamed `values[i]`, and atomically accumulate into
//! `out[key[i]]`. The kernel's result is independent of element order up
//! to floating-point associativity — which is what lets every sorting
//! order be validated against every other.

use pk::prelude::*;

/// The gather-scatter kernel, serial reference implementation.
///
/// `out[key[i]] += values[i] * Σ_off table[clamp(key[i] + off)]`
pub fn run_serial(keys: &[u32], values: &[f64], table: &[f64], stencil: &[i64]) -> Vec<f64> {
    assert_eq!(keys.len(), values.len(), "key/value extent mismatch");
    let mut out = vec![0.0f64; table.len()];
    for (&k, &v) in keys.iter().zip(values) {
        let mut acc = 0.0;
        for &off in stencil {
            let idx = (k as i64 + off).clamp(0, table.len() as i64 - 1) as usize;
            acc += table[idx];
        }
        out[k as usize] += v * acc;
    }
    out
}

/// The gather-scatter kernel executed on an execution space with atomic
/// scatter (the portable implementation VPIC 2.0 would run).
pub fn run_parallel<S: ExecSpace>(
    space: &S,
    keys: &[u32],
    values: &[f64],
    table: &[f64],
    stencil: &[i64],
) -> Vec<f64> {
    assert_eq!(keys.len(), values.len(), "key/value extent mismatch");
    let out = AtomicF64Buf::zeros(table.len());
    space.parallel_for(keys.len(), |i| {
        let k = keys[i];
        let mut acc = 0.0;
        for &off in stencil {
            let idx = (k as i64 + off).clamp(0, table.len() as i64 - 1) as usize;
            acc += table[idx];
        }
        out.fetch_add(k as usize, values[i] * acc);
    });
    out.to_vec()
}

/// FLOPs per element of the kernel (for roofline accounting):
/// `stencil.len()` adds for the gather sum, one multiply, one accumulate.
pub fn flops_per_element(stencil_len: usize) -> f64 {
    stencil_len as f64 + 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns;
    use crate::sorts;
    use crate::SortOrder;

    fn table(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.37).sin() + 2.0).collect()
    }

    #[test]
    fn serial_reference_simple_case() {
        let keys = vec![0u32, 1, 0];
        let values = vec![1.0, 2.0, 3.0];
        let t = vec![10.0, 20.0];
        let out = run_serial(&keys, &values, &t, &[0]);
        assert_eq!(out, vec![10.0 + 30.0, 40.0]);
    }

    #[test]
    fn stencil_clamps_at_edges() {
        let keys = vec![0u32];
        let values = vec![1.0];
        let t = vec![1.0, 2.0, 4.0];
        // offsets -1 (clamped to 0) + 0 + 1 → 1 + 1 + 2 = 4
        let out = run_serial(&keys, &values, &t, &[-1, 0, 1]);
        assert_eq!(out[0], 4.0);
    }

    #[test]
    fn parallel_matches_serial() {
        let keys = patterns::repeated_keys(64, 10, 3);
        let values: Vec<f64> = (0..keys.len()).map(|i| (i % 7) as f64).collect();
        let t = table(64);
        let stencil = patterns::five_point_stencil(8);
        let want = run_serial(&keys, &values, &t, &stencil);
        let got = run_parallel(&Threads::new(4), &keys, &values, &t, &stencil);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9, "{g} vs {w}");
        }
    }

    #[test]
    fn result_is_order_invariant_across_all_sorts() {
        let keys = patterns::repeated_keys(32, 8, 7);
        let values: Vec<f64> = (0..keys.len()).map(|i| 1.0 + (i as f64) * 0.01).collect();
        let t = table(32);
        let stencil = patterns::five_point_stencil(8);
        let reference = run_serial(&keys, &values, &t, &stencil);
        for order in SortOrder::fig7_set(8) {
            let mut k = keys.clone();
            let mut v = values.clone();
            sorts::sort_pairs(order, &mut k, &mut v);
            let got = run_serial(&k, &v, &t, &stencil);
            for (g, w) in got.iter().zip(&reference) {
                assert!(
                    (g - w).abs() < 1e-9,
                    "order {order} changed the physics: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn flop_count_matches_kernel_shape() {
        assert_eq!(flops_per_element(1), 3.0);
        assert_eq!(flops_per_element(5), 7.0);
    }
}
