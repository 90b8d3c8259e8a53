//! The four vectorization strategies of the paper (§3.1), as a runtime
//! selector so benchmarks and the repro harness can sweep them.

use std::fmt;

/// A vectorization strategy, in increasing order of developer effort
/// (paper: "Manual vectorization requires more effort than auto or guided
/// but much less than ad hoc").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Strategy {
    /// Compiler auto-vectorization of plain loops (Kokkos default;
    /// `#pragma ivdep` in the paper's implementation).
    Auto,
    /// Forced/assisted auto-vectorization: restructured fixed-width loops
    /// and split-out math (`#pragma omp simd` in the paper).
    Guided,
    /// Explicit portable SIMD types ([`crate::simd`]; Kokkos SIMD in the
    /// paper).
    Manual,
    /// Per-ISA intrinsics (the VPIC 1.2 custom SIMD library in the
    /// paper): the push runs eight AVX2 lanes (`crate::v8`, x86-64 only)
    /// where CPU detection finds AVX2 and four SSE lanes ([`crate::v4`])
    /// elsewhere.
    AdHoc,
}

/// The highest-effort strategy that [`Strategy::is_native`] on the build
/// target: ad hoc where its intrinsics exist (x86-64), manual elsewhere.
/// Every strategy computes the same bits, so the default is simply the one
/// the strategy sweep reads fastest.
impl Default for Strategy {
    fn default() -> Self {
        if Strategy::AdHoc.is_native() {
            Strategy::AdHoc
        } else {
            Strategy::Manual
        }
    }
}

impl Strategy {
    /// All strategies, in paper order.
    pub const ALL: [Strategy; 4] = [
        Strategy::Auto,
        Strategy::Guided,
        Strategy::Manual,
        Strategy::AdHoc,
    ];

    /// The three strategies evaluated on the RAJAPerf microkernels
    /// (Figure 3 excludes ad hoc, which exists only inside VPIC 1.2).
    pub const MICRO: [Strategy; 3] = [Strategy::Auto, Strategy::Guided, Strategy::Manual];

    /// Short lowercase name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Auto => "auto",
            Strategy::Guided => "guided",
            Strategy::Manual => "manual",
            Strategy::AdHoc => "adhoc",
        }
    }

    /// Whether this strategy has a genuine (non-fallback) implementation
    /// on the build target. Ad hoc is per-ISA by definition: it is real
    /// only where its intrinsics exist (x86-64 here; the paper's table
    /// row for A64FX/Grace is the same story with SVE missing).
    pub fn is_native(self) -> bool {
        match self {
            Strategy::Auto | Strategy::Guided | Strategy::Manual => true,
            Strategy::AdHoc => cfg!(target_arch = "x86_64"),
        }
    }

}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_each_once() {
        for (i, a) in Strategy::ALL.iter().enumerate() {
            assert!(Strategy::ALL[i + 1..].iter().all(|b| a != b));
        }
    }

    #[test]
    fn micro_excludes_adhoc() {
        assert!(!Strategy::MICRO.contains(&Strategy::AdHoc));
        assert_eq!(Strategy::MICRO.len(), 3);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(format!("{}", Strategy::Guided), "guided");
    }

    #[test]
    fn default_is_the_top_native_strategy() {
        let default = Strategy::default();
        assert!(default.is_native());
        let want = if cfg!(target_arch = "x86_64") { Strategy::AdHoc } else { Strategy::Manual };
        assert_eq!(default, want);
    }

    #[test]
    fn portable_strategies_always_native() {
        assert!(Strategy::Auto.is_native());
        assert!(Strategy::Guided.is_native());
        assert!(Strategy::Manual.is_native());
    }
}
