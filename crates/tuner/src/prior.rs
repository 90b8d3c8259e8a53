//! The cache-model prior: one footprint predicate shared with
//! `cluster::scaling`.
//!
//! The paper's §6 superlinear strong scaling comes from the per-rank grid
//! shrinking until its push working set (interpolators + accumulators)
//! fits in last-level cache, at which point gather/scatter traffic stops
//! going to DRAM and sorting particles buys almost nothing. The
//! strong-scaling model marks that regime with
//! [`memsim::push::grid_fits_llc`]; the live tuner seeds its search from
//! the *same* function so the model and the runtime can never disagree
//! about where the cliff is.

use memsim::platform::Platform;

/// True when the modelled push working set of `cells` grid cells fits the
/// platform's LLC — in which case the tuner explores the "sorting off"
/// arms first (see [`crate::Tuner::with_cache_prior`]).
pub fn prefer_unsorted(platform: &Platform, cells: usize) -> bool {
    memsim::push::grid_fits_llc(platform, cells)
}

/// Particle-bytes-aware variant of [`prefer_unsorted`]: counts the
/// resident particle records alongside the grid's per-cell data, so a
/// cache-sized grid drowning in particles still reads as out-of-cache
/// (and the tuner keeps the sorted and tiled arms in play).
pub(crate) fn prefer_unsorted_with_particles(
    platform: &Platform,
    cells: usize,
    particles: usize,
) -> bool {
    memsim::push::fits_llc_with_particles(platform, cells, particles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::platform::by_name;

    #[test]
    fn prior_matches_memsim_platform_data() {
        // V100 (6 MB LLC): the Fig 9 peak grid of 13,824 cells fits —
        // prior says run unsorted; a 2× refinement spills
        let v100 = by_name("V100").unwrap();
        assert!(prefer_unsorted(&v100, 24 * 24 * 24));
        assert!(!prefer_unsorted(&v100, 48 * 24 * 24 * 2));
        // EPYC 7763 (256 MB L3) keeps even large grids resident
        let milan = by_name("EPYC 7763").unwrap();
        assert!(prefer_unsorted(&milan, 64 * 64 * 64));
        // A100 (40 MB): between the two
        let a100 = by_name("A100").unwrap();
        assert!(prefer_unsorted(&a100, 44 * 44 * 44));
        assert!(!prefer_unsorted(&a100, 64 * 64 * 64));
    }

    #[test]
    fn particle_aware_prior_matches_table1_platforms() {
        // V100: the Fig 9 peak grid fits bare but not at 64 ppc
        let v100 = by_name("V100").unwrap();
        assert!(prefer_unsorted_with_particles(&v100, 13_824, 0));
        assert!(!prefer_unsorted_with_particles(&v100, 13_824, 64 * 13_824));
        // EPYC 7763 (256 MB L3): same population stays resident
        let milan = by_name("EPYC 7763").unwrap();
        assert!(prefer_unsorted_with_particles(&milan, 13_824, 64 * 13_824));
        // zero particles degenerates to the grid-only prior
        for p in [&v100, &milan] {
            for cells in [1_000usize, 13_824, 500_000] {
                assert_eq!(
                    prefer_unsorted_with_particles(p, cells, 0),
                    prefer_unsorted(p, cells)
                );
            }
        }
    }

    #[test]
    fn a_bracket_of_the_llc_tile_feeds_tile_arms() {
        let t = memsim::push::llc_tile_cells(&by_name("V100").unwrap(), 4);
        let axis = [t / 2, t, t * 2];
        let base = [crate::Config::unsorted(
            vsimd::Strategy::Auto,
            pk::atomic::ScatterMode::Atomic,
        )];
        let arms = crate::tile_arms(&base, &axis);
        // 1 untiled + 3 sizes × {compressed, raw}
        assert_eq!(arms.len(), 1 + 3 * 2);
        assert!(arms[1..].iter().all(|a| a.tile.is_some()));
    }

    #[test]
    fn prior_seeds_the_tuner_with_sorting_off() {
        // the acceptance-criteria wiring: platform data → prior → first
        // explored arm has sorting disabled
        let v100 = by_name("V100").unwrap();
        let arms = crate::config_space(16, &crate::DEFAULT_INTERVALS);
        let t = crate::Tuner::new(arms, 10).with_cache_prior(prefer_unsorted(&v100, 13_824));
        assert!(t.current().order.is_none());
    }
}
