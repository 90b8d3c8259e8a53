//! The sorting-order selector swept by benchmarks and the repro harness.

use std::fmt;

/// Which order to arrange (key, value) pairs in before a kernel runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SortOrder {
    /// No sorting: a deterministic shuffle (the paper's "random" series in
    /// Fig 7, and what an unsorted particle population looks like).
    Random,
    /// Stable ascending sort by key — the paper's "standard
    /// classification".
    Standard,
    /// Algorithm 1 — strided sort: each key rewritten to `(key − min) +
    /// ordinal × range`, where `ordinal` counts its earlier occurrences,
    /// then sorted by the rewritten keys. The result is a concatenation of
    /// strictly-increasing subsequences: the first occurrence of every key
    /// in ascending order, then every second occurrence, and so on — so
    /// consecutive GPU threads touch consecutive table entries
    /// (coalesced).
    Strided,
    /// Algorithm 2 — tiled strided sort: the key domain split into chunks
    /// of `tile` consecutive keys, each chunk's pairs laid out as `max_r`
    /// repeating tiles (`max_r` the global maximum key multiplicity), keys
    /// in strided (strictly increasing) order within a tile. A GPU thread
    /// block therefore reads one coalesced, tile-sized working set over
    /// and over — reuse the plain strided order cannot offer.
    TiledStrided {
        /// Distinct keys per tile. The paper's rule: CPU thread count, or
        /// 3× the GPU core count.
        tile: usize,
    },
}

impl SortOrder {
    /// The four orders of Fig 7, with the paper's GPU tile rule applied.
    pub fn fig7_set(tile: usize) -> [SortOrder; 4] {
        [
            SortOrder::Random,
            SortOrder::Standard,
            SortOrder::Strided,
            SortOrder::TiledStrided { tile },
        ]
    }

    /// The three sorted orders of Figs 5/6 (random excluded).
    pub fn sorted_set(tile: usize) -> [SortOrder; 3] {
        [
            SortOrder::Standard,
            SortOrder::Strided,
            SortOrder::TiledStrided { tile },
        ]
    }

    /// Figure label.
    pub fn name(&self) -> &'static str {
        match self {
            SortOrder::Random => "random",
            SortOrder::Standard => "standard",
            SortOrder::Strided => "strided",
            SortOrder::TiledStrided { .. } => "tiled-strided",
        }
    }
}

impl fmt::Display for SortOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SortOrder::TiledStrided { tile } => write!(f, "tiled-strided(tile={tile})"),
            other => f.write_str(other.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_have_expected_members() {
        let f7 = SortOrder::fig7_set(64);
        assert_eq!(f7.len(), 4);
        assert_eq!(f7[0], SortOrder::Random);
        assert_eq!(f7[3], SortOrder::TiledStrided { tile: 64 });
        let s = SortOrder::sorted_set(8);
        assert!(!s.contains(&SortOrder::Random));
    }

    #[test]
    fn display_includes_tile() {
        assert_eq!(SortOrder::Strided.to_string(), "strided");
        assert_eq!(
            SortOrder::TiledStrided { tile: 128 }.to_string(),
            "tiled-strided(tile=128)"
        );
        assert_eq!(SortOrder::TiledStrided { tile: 1 }.name(), "tiled-strided");
    }
}
