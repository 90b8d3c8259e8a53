//! Range policies: how an index range is partitioned across workers.
//!
//! Mirrors `Kokkos::RangePolicy` with the static schedule, the Kokkos
//! default on CPU backends: each worker gets one contiguous block.

use std::ops::Range;

/// An iteration range, split statically across workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangePolicy {
    /// Half-open iteration range.
    pub range: Range<usize>,
}

impl RangePolicy {
    /// Policy over `0..n`.
    pub fn new(n: usize) -> Self {
        Self { range: 0..n }
    }

    /// Policy over an explicit half-open range.
    pub(crate) fn over(range: Range<usize>) -> Self {
        Self { range }
    }

    /// Number of iterations.
    pub(crate) fn len(&self) -> usize {
        self.range.end.saturating_sub(self.range.start)
    }

    /// Split the range into `parts` near-equal contiguous blocks. Returns
    /// exactly `min(parts, len)` non-empty blocks.
    pub fn static_blocks(&self, parts: usize) -> Vec<Range<usize>> {
        let n = self.len();
        if n == 0 {
            return Vec::new();
        }
        let parts = parts.max(1).min(n);
        let base = n / parts;
        let rem = n % parts;
        let mut blocks = Vec::with_capacity(parts);
        let mut start = self.range.start;
        for p in 0..parts {
            let sz = base + usize::from(p < rem);
            blocks.push(start..start + sz);
            start += sz;
        }
        debug_assert_eq!(start, self.range.end);
        blocks
    }
}

impl From<Range<usize>> for RangePolicy {
    fn from(range: Range<usize>) -> Self {
        RangePolicy::over(range)
    }
}

impl From<usize> for RangePolicy {
    fn from(n: usize) -> Self {
        RangePolicy::new(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_blocks_partition_exactly() {
        let p = RangePolicy::over(3..103);
        let blocks = p.static_blocks(7);
        assert_eq!(blocks.len(), 7);
        assert_eq!(blocks.first().unwrap().start, 3);
        assert_eq!(blocks.last().unwrap().end, 103);
        let total: usize = blocks.iter().map(|b| b.len()).sum();
        assert_eq!(total, 100);
        // contiguous, non-overlapping
        for w in blocks.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // near-equal: sizes differ by at most 1
        let sizes: Vec<usize> = blocks.iter().map(|b| b.len()).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn static_blocks_never_empty() {
        let p = RangePolicy::new(3);
        let blocks = p.static_blocks(8);
        assert_eq!(blocks.len(), 3);
        assert!(blocks.iter().all(|b| !b.is_empty()));
    }

    #[test]
    fn empty_range_yields_no_blocks() {
        let p = RangePolicy::new(0);
        assert_eq!(p.len(), 0);
        assert!(p.static_blocks(4).is_empty());
    }

    #[test]
    fn conversions() {
        let a: RangePolicy = 10usize.into();
        assert_eq!(a.range, 0..10);
        let b: RangePolicy = (5..9).into();
        assert_eq!(b.len(), 4);
    }
}
