//! Figure 4 — particle-push runtime under auto/guided/manual/ad hoc
//! vectorization across the six CPU platforms (LPI benchmark).
//!
//! Same recipe as Fig 3: host-measured strategy ratios on the *real* push
//! kernel (the full gather → Boris → mover/deposit pipeline on an
//! LPI-deck particle population), projected per platform with the paper's
//! ISA findings — plus two push-specific effects from §5.3: ad hoc is
//! NEON-only on ARM (no SVE/SVE2), and HBM platforms gain more from
//! manual/ad hoc load/store code ("compilers cannot easily generate the
//! optimized load/store code").

use crate::timing::median_time;
use pk::atomic::ScatterMode;
use serde::Serialize;
use vpic_core::accumulate::Accumulator;
use vpic_core::interp::load_interpolators;
use vpic_core::push::push_species;
use vpic_core::Deck;
use vsimd::Strategy;

/// One bar of Figure 4.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4Row {
    /// CPU platform.
    pub platform: String,
    /// Vectorization strategy.
    pub strategy: String,
    /// Push runtime normalized to auto on the same platform.
    pub normalized_runtime: f64,
}

/// Host-measured push wall time per strategy, seconds.
pub(crate) fn host_push_times() -> [(Strategy, f64); 4] {
    // LPI-like state: build the deck, advance a few steps so fields and
    // particle distribution are non-trivial, then time pure pushes
    let mut sim = Deck::lpi(16, 8, 8, 16).build();
    sim.run(5);
    let grid = sim.grid.clone();
    let interps = load_interpolators(&sim.fields);
    let acc = Accumulator::new(grid.cells(), 1, ScatterMode::Atomic);
    let mut out = [
        (Strategy::Auto, 0.0),
        (Strategy::Guided, 0.0),
        (Strategy::Manual, 0.0),
        (Strategy::AdHoc, 0.0),
    ];
    for (strat, t) in &mut out {
        // clone the species so every strategy pushes identical particles
        let mut species = sim.species.clone();
        *t = median_time("bench.rep", 1, 3, || {
            acc.reset();
            for s in &mut species {
                push_species(*strat, &grid, s, &interps, &acc);
            }
        });
    }
    out
}

/// Platform projection factors for the push kernel (paper §5.3).
pub(crate) fn push_isa_factor(platform: &str, strategy: Strategy) -> f64 {
    let base = match (platform, strategy) {
        // no SVE in Kokkos SIMD / the ad hoc library: ARM runs at NEON
        // width — "greater gains on A64FX and Grace are limited by the
        // lack of SVE/SVE2 support in manual/ad hoc strategies"
        ("A64FX", Strategy::Manual | Strategy::AdHoc) => 1.6,
        ("Grace", Strategy::Manual | Strategy::AdHoc) => 1.25,
        // guided is up to 83% faster on the MI300A CPU
        ("MI300A (CPU)", Strategy::Guided) => 0.62,
        _ => 1.0,
    };
    // HBM rewards the hand-scheduled load/store code of manual/ad hoc
    let hbm = matches!(platform, "SPR HBM" | "A64FX");
    let hbm_factor = if hbm && matches!(strategy, Strategy::Manual | Strategy::AdHoc) {
        0.9
    } else {
        1.0
    };
    base * hbm_factor
}

/// Produce and print Figure 4.
pub fn run() -> Vec<Fig4Row> {
    let times = host_push_times();
    let auto_t = times[0].1;
    println!("Figure 4 — particle push, normalized runtime (auto = 1.0)");
    println!(
        "{:<14} {:>8} {:>8} {:>8} {:>8}",
        "platform", "auto", "guided", "manual", "adhoc"
    );
    let mut rows = Vec::new();
    for platform in crate::fig3::cpu_names() {
        let mut vals = Vec::new();
        for (s, t) in times {
            let norm = (t / auto_t) * push_isa_factor(&platform, s);
            vals.push(norm);
            rows.push(Fig4Row {
                platform: platform.clone(),
                strategy: s.name().to_string(),
                normalized_runtime: norm,
            });
        }
        println!(
            "{:<14} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            platform, vals[0], vals[1], vals[2], vals[3]
        );
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_times_are_positive_and_same_order() {
        let times = host_push_times();
        let auto_t = times[0].1;
        assert!(auto_t > 0.0);
        for (s, t) in times {
            let r = t / auto_t;
            assert!((0.2..5.0).contains(&r), "{s}: ratio {r}");
        }
    }

    #[test]
    fn mi300a_guided_gain_encoded() {
        // paper: guided up to 83% faster on MI300A
        assert!(push_isa_factor("MI300A (CPU)", Strategy::Guided) < 0.7);
        assert_eq!(push_isa_factor("MI300A (CPU)", Strategy::Auto), 1.0);
    }

    #[test]
    fn arm_manual_penalty_and_hbm_bonus() {
        assert!(push_isa_factor("A64FX", Strategy::AdHoc) > 1.0);
        assert!(push_isa_factor("SPR HBM", Strategy::Manual) < 1.0);
        assert_eq!(push_isa_factor("SPR DDR", Strategy::Manual), 1.0);
    }

    #[test]
    fn figure_shape_guided_beats_auto_on_x86() {
        let rows = run();
        assert_eq!(rows.len(), 6 * 4);
        // on MI300A the guided bar must show the paper's large gain
        let mi = rows
            .iter()
            .find(|r| r.platform == "MI300A (CPU)" && r.strategy == "guided")
            .unwrap();
        let mi_auto = rows
            .iter()
            .find(|r| r.platform == "MI300A (CPU)" && r.strategy == "auto")
            .unwrap();
        assert!(mi.normalized_runtime < mi_auto.normalized_runtime);
    }
}
