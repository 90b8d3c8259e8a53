//! The GPU arm space: sort orders × Table-1 GPU platforms.
//!
//! On a GPU the paper's tuning problem collapses to one axis: *which sort
//! order* (Figs 6–8). Vectorization strategy is meaningless (the device
//! compiler owns the lanes) and the deposition scatter is always atomic
//! (`ScatterView` duplication doesn't pay at 10⁴-thread concurrency), so
//! the GPU space is [`psort::SortOrder::gpu_arm_set`] × sort cadence —
//! small enough to sweep exhaustively in one epoch each.
//!
//! The arms are ordinary [`Config`]s: the same [`crate::Tuner`] engine
//! explores them, scored by modeled per-step cost from a `pk::SimGpu`
//! ledger instead of wall time ([`crate::Measurement`] carries
//! nanoseconds; modeled seconds × 1e9 slot straight in, since the engine
//! only ever compares costs). The cache prior is the particle-aware LLC
//! predicate, `memsim::push::fits_llc_with_particles` — on GPUs the
//! resident particle window shares the LLC with the grid, so the
//! grid-only predicate would call the cliff too early.

use crate::config::Config;
use pk::atomic::ScatterMode;
use psort::SortOrder;
use vsimd::Strategy;

/// The GPU configuration space: `{unsorted, standard, strided,
/// tiled-strided(tile)}` × `intervals`. Unsorted arms come first so a
/// cache prior that prefers them is honored by arm order even before
/// [`crate::Tuner::with_cache_prior`] reorders.
pub fn gpu_config_space(tile: usize, intervals: &[usize]) -> Vec<Config> {
    let mut arms = Vec::new();
    for order in SortOrder::gpu_arm_set(tile) {
        match order {
            None => arms.push(Config::unsorted(Strategy::Auto, ScatterMode::Atomic)),
            Some(o) => {
                for &interval in intervals {
                    arms.push(Config::sorted(o, interval, Strategy::Auto, ScatterMode::Atomic));
                }
            }
        }
    }
    arms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_space_is_one_axis_per_order() {
        let arms = gpu_config_space(216, &[5, 20]);
        // 1 unsorted + 3 orders × 2 intervals
        assert_eq!(arms.len(), 1 + 3 * 2);
        assert!(arms[0].order.is_none());
        assert!(arms.iter().all(|a| a.strategy == Strategy::Auto));
        assert!(arms.iter().all(|a| a.scatter == ScatterMode::Atomic));
        assert!(arms.iter().all(|a| a.order != Some(SortOrder::Random)));
        // distinct labels (the tuner keys results by them)
        let mut labels: Vec<String> = arms.iter().map(Config::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), arms.len());
    }
}
