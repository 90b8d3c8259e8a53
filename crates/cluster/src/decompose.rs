//! 3-D Cartesian domain decomposition.
//!
//! The same arithmetic an MPI-parallel VPIC performs: factor the rank
//! count into a near-cubic processor grid, give each rank a contiguous
//! block of cells, and know your six face neighbors. Surface cell counts
//! drive the halo-exchange traffic model.

use serde::Serialize;

/// A 3-D block decomposition of a global grid over `ranks()` ranks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Decomposition {
    /// Processor grid dimensions `(px, py, pz)`.
    pub dims: (usize, usize, usize),
    /// Global grid extent `(nx, ny, nz)` in cells.
    pub global: (usize, usize, usize),
}

impl Decomposition {
    /// Decompose `global` over `ranks` ranks with a near-cubic processor
    /// grid that minimizes total surface area.
    ///
    /// Among equally-balanced factorizations, one that fits the global
    /// extent (no more ranks than cells along any axis) is preferred, so
    /// decks with 1-cell axes get all their ranks along the long axes
    /// instead of empty blocks. When no factorization fits (e.g. a prime
    /// rank count larger than every axis), the extent-blind near-cubic
    /// choice is kept and the surplus ranks own zero cells — `owner`
    /// never returns such a rank.
    ///
    /// # Panics
    /// Panics if `ranks` is zero or any global extent is zero.
    pub fn new(global: (usize, usize, usize), ranks: usize) -> Self {
        assert!(ranks >= 1, "need at least one rank");
        assert!(global.0 >= 1 && global.1 >= 1 && global.2 >= 1);
        // fit the extent if any factorization does; `(ranks, 1, 1)` fits
        // the extent-blind search, so the last fallback is never taken
        let dims = best_dims(ranks, global)
            .or_else(|| best_dims(ranks, (ranks, ranks, ranks)))
            .unwrap_or((ranks, 1, 1));
        Self { dims, global }
    }

    /// [`Decomposition::new`] for executed stepping, where every rank must
    /// own at least one cell — or the reason `global` and `ranks` admit
    /// no such layout (the checked entry for extents read from a file).
    pub fn covering(global: (usize, usize, usize), ranks: usize) -> Result<Self, String> {
        let cells = global.0.saturating_mul(global.1).saturating_mul(global.2);
        if cells == 0 || ranks == 0 || ranks > cells {
            return Err(format!("{ranks} ranks over {global:?} cells"));
        }
        let d = Self::new(global, ranks);
        match (0..d.ranks()).find(|&r| d.local_cells(r) == 0) {
            Some(r) => Err(format!("rank {r} owns no cells: {ranks} ranks over {global:?}")),
            None => Ok(d),
        }
    }

    /// Total ranks.
    pub fn ranks(&self) -> usize {
        self.dims.0 * self.dims.1 * self.dims.2
    }

    /// Rank coordinates of rank `r` (x-fastest).
    pub(crate) fn coords(&self, r: usize) -> (usize, usize, usize) {
        debug_assert!(r < self.ranks());
        let (px, py, _) = self.dims;
        (r % px, (r / px) % py, r / (px * py))
    }

    /// Rank id from coordinates.
    pub(crate) fn rank_of(&self, c: (usize, usize, usize)) -> usize {
        let (px, py, _) = self.dims;
        c.0 + px * (c.1 + py * c.2)
    }

    /// Local cell extent of rank `r` (block distribution; remainders go
    /// to the lower-coordinate ranks).
    pub fn local_extent(&self, r: usize) -> (usize, usize, usize) {
        let (cx, cy, cz) = self.coords(r);
        (
            block_len(self.global.0, self.dims.0, cx),
            block_len(self.global.1, self.dims.1, cy),
            block_len(self.global.2, self.dims.2, cz),
        )
    }

    /// Starting global cell coordinate of rank `r`'s block.
    pub fn local_origin(&self, r: usize) -> (usize, usize, usize) {
        let (cx, cy, cz) = self.coords(r);
        (
            block_start(self.global.0, self.dims.0, cx),
            block_start(self.global.1, self.dims.1, cy),
            block_start(self.global.2, self.dims.2, cz),
        )
    }

    /// Owning rank of global cell `(ix, iy, iz)`.
    pub fn owner(&self, ix: usize, iy: usize, iz: usize) -> usize {
        self.rank_of((
            block_index(self.global.0, self.dims.0, ix),
            block_index(self.global.1, self.dims.1, iy),
            block_index(self.global.2, self.dims.2, iz),
        ))
    }

    /// Local cell count of rank `r`.
    pub fn local_cells(&self, r: usize) -> usize {
        let (x, y, z) = self.local_extent(r);
        x * y * z
    }

    /// Surface cell count of rank `r` (cells with a face on the block
    /// boundary, counted per *remote* face: the halo-exchange volume).
    ///
    /// Faces along an axis with a single rank are periodic
    /// self-neighbors — their halo is filled from the rank's own block
    /// without any network traffic — so they are excluded here; a single
    /// rank therefore has zero surface, matching its zero exchange cost.
    pub(crate) fn surface_cells(&self, r: usize) -> usize {
        let (x, y, z) = self.local_extent(r);
        if x * y * z == 0 {
            return 0; // empty rank (more ranks than cells on an axis)
        }
        let (px, py, pz) = self.dims;
        let fx = if px > 1 { 2 * y * z } else { 0 };
        let fy = if py > 1 { 2 * x * z } else { 0 };
        let fz = if pz > 1 { 2 * x * y } else { 0 };
        fx + fy + fz
    }

    /// Number of the six faces of `r` whose neighbor is a *different*
    /// rank — the per-step message count the network model should charge.
    /// Consistent with [`Decomposition::surface_cells`]: both exclude
    /// periodic self-neighbor faces.
    pub(crate) fn remote_faces(&self, r: usize) -> usize {
        self.face_neighbors(r).iter().filter(|&&n| n != r).count()
    }

    /// The six periodic face-neighbor ranks of `r`
    /// (−x, +x, −y, +y, −z, +z). With one rank along an axis, both
    /// neighbors are `r` itself.
    pub fn face_neighbors(&self, r: usize) -> [usize; 6] {
        let (cx, cy, cz) = self.coords(r);
        let (px, py, pz) = self.dims;
        let wrap = |c: usize, d: isize, n: usize| -> usize {
            (((c as isize + d) % n as isize + n as isize) % n as isize) as usize
        };
        [
            self.rank_of((wrap(cx, -1, px), cy, cz)),
            self.rank_of((wrap(cx, 1, px), cy, cz)),
            self.rank_of((cx, wrap(cy, -1, py), cz)),
            self.rank_of((cx, wrap(cy, 1, py), cz)),
            self.rank_of((cx, cy, wrap(cz, -1, pz))),
            self.rank_of((cx, cy, wrap(cz, 1, pz))),
        ]
    }
}

/// The best-balanced factorization `(a, b, c)` of `n` with no factor
/// above its axis of `within` (the smallest spread between the largest
/// and the smallest factor, the first in `(a, b)` order on ties), or
/// `None` when no factorization fits.
fn best_dims(n: usize, within: (usize, usize, usize)) -> Option<(usize, usize, usize)> {
    let mut best = None;
    let mut best_score = usize::MAX;
    for a in (1..=n).filter(|a| n.is_multiple_of(*a)) {
        let rem = n / a;
        for b in (1..=rem).filter(|b| rem.is_multiple_of(*b)) {
            let c = rem / b;
            let score = a.max(b).max(c) - a.min(b).min(c);
            if a <= within.0 && b <= within.1 && c <= within.2 && score < best_score {
                best_score = score;
                best = Some((a, b, c));
            }
        }
    }
    best
}

fn block_len(n: usize, parts: usize, idx: usize) -> usize {
    let base = n / parts;
    base + usize::from(idx < n % parts)
}

fn block_start(n: usize, parts: usize, idx: usize) -> usize {
    let base = n / parts;
    let rem = n % parts;
    idx * base + idx.min(rem)
}

fn block_index(n: usize, parts: usize, coord: usize) -> usize {
    debug_assert!(coord < n);
    // inverse of block_start/block_len; parts ≥ 1 so base and rem cannot
    // both be zero when coord < n
    let base = n / parts;
    let rem = n % parts;
    let big = (base + 1) * rem; // cells covered by the larger blocks
    if coord < big {
        coord / (base + 1)
    } else {
        // base == 0 implies big == n > coord, so this branch has base ≥ 1
        rem + (coord - big).checked_div(base).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_dims_are_balanced() {
        let best = |n| best_dims(n, (n, n, n)).unwrap();
        assert_eq!(best(1), (1, 1, 1));
        assert_eq!(best(8), (2, 2, 2));
        assert_eq!(best(64), (4, 4, 4));
        let (a, b, c) = best(512);
        assert_eq!(a * b * c, 512);
        assert_eq!((a, b, c), (8, 8, 8));
        let (a, b, c) = best(12);
        assert_eq!(a * b * c, 12);
        assert!(a.max(b).max(c) <= 4);
    }

    #[test]
    fn blocks_cover_domain_exactly() {
        let d = Decomposition::new((37, 23, 11), 12);
        let mut owned = vec![0u32; 37 * 23 * 11];
        for r in 0..d.ranks() {
            let (ox, oy, oz) = d.local_origin(r);
            let (lx, ly, lz) = d.local_extent(r);
            for z in oz..oz + lz {
                for y in oy..oy + ly {
                    for x in ox..ox + lx {
                        owned[x + 37 * (y + 23 * z)] += 1;
                        assert_eq!(d.owner(x, y, z), r, "owner mismatch at ({x},{y},{z})");
                    }
                }
            }
        }
        assert!(owned.iter().all(|&c| c == 1), "every cell owned exactly once");
    }

    #[test]
    fn local_cells_sum_to_global() {
        for ranks in [1, 2, 7, 8, 64, 100] {
            let d = Decomposition::new((50, 40, 30), ranks);
            let total: usize = (0..d.ranks()).map(|r| d.local_cells(r)).sum();
            assert_eq!(total, 50 * 40 * 30, "ranks={ranks}");
        }
    }

    #[test]
    fn face_neighbors_are_symmetric() {
        let d = Decomposition::new((32, 32, 32), 8);
        for r in 0..8 {
            let n = d.face_neighbors(r);
            // -x neighbor's +x neighbor is r
            assert_eq!(d.face_neighbors(n[0])[1], r);
            assert_eq!(d.face_neighbors(n[2])[3], r);
            assert_eq!(d.face_neighbors(n[4])[5], r);
        }
    }

    #[test]
    fn single_rank_is_its_own_neighbor() {
        let d = Decomposition::new((8, 8, 8), 1);
        assert_eq!(d.face_neighbors(0), [0; 6]);
        assert_eq!(d.local_cells(0), 512);
    }

    #[test]
    fn surface_shrinks_slower_than_volume() {
        // strong scaling: volume per rank ∝ 1/n, surface ∝ 1/n^(2/3)
        // (compared between two fully-decomposed rank counts: a single
        // rank has zero surface since all its faces are self-neighbors)
        let g = (128, 128, 128);
        let v8 = Decomposition::new(g, 8);
        let v64 = Decomposition::new(g, 64);
        let vol_ratio = v8.local_cells(0) as f64 / v64.local_cells(0) as f64;
        let surf_ratio = v8.surface_cells(0) as f64 / v64.surface_cells(0) as f64;
        assert!((vol_ratio - 8.0).abs() < 1.0);
        assert!((surf_ratio - 4.0).abs() < 1.0, "surface scales as n^(2/3): {surf_ratio}");
    }

    #[test]
    fn single_rank_has_no_remote_surface() {
        let d = Decomposition::new((8, 8, 8), 1);
        assert_eq!(d.surface_cells(0), 0, "all six faces are self-neighbors");
        assert_eq!(d.remote_faces(0), 0);
    }

    #[test]
    fn one_cell_axes_get_no_ranks_and_no_self_faces() {
        // a pancake deck: ranks must land on the extended axes only
        let d = Decomposition::new((1, 8, 8), 4);
        assert_eq!(d.dims, (1, 2, 2), "ranks avoid the 1-cell axis");
        for r in 0..4 {
            let (x, y, z) = d.local_extent(r);
            assert_eq!((x, y, z), (1, 4, 4));
            // x faces are periodic self-neighbors: excluded from surface
            assert_eq!(d.surface_cells(r), 2 * x * z + 2 * x * y);
            assert_eq!(d.remote_faces(r), 4);
            let n = d.face_neighbors(r);
            assert_eq!(n[0], r, "1-rank axis: -x neighbor is self");
            assert_eq!(n[1], r, "1-rank axis: +x neighbor is self");
        }
        // a needle deck: every rank along the single long axis
        let d = Decomposition::new((1, 1, 16), 4);
        assert_eq!(d.dims, (1, 1, 4));
        assert_eq!(d.local_extent(0), (1, 1, 4));
        assert_eq!(d.surface_cells(0), 2, "only the two z faces are remote");
        assert_eq!(d.remote_faces(0), 2);
        // owner stays in range and matches the block layout on 1-cell axes
        for z in 0..16 {
            assert_eq!(d.owner(0, 0, z), z / 4);
        }
    }

    #[test]
    fn ranks_beyond_cells_leave_empty_ranks_unowned() {
        // 7 ranks over 4 cells along z: no factorization fits, so the
        // extent-blind fallback keeps (1,1,7) and three ranks are empty
        let d = Decomposition::new((4, 4, 4), 7);
        assert_eq!(d.dims, (1, 1, 7));
        for r in 4..7 {
            assert_eq!(d.local_cells(r), 0, "rank {r} owns nothing");
            assert_eq!(d.surface_cells(r), 0, "empty rank exchanges nothing");
        }
        // owner never returns an empty rank
        for z in 0..4 {
            for y in 0..4 {
                for x in 0..4 {
                    let o = d.owner(x, y, z);
                    assert!(d.local_cells(o) > 0, "cell ({x},{y},{z}) → empty rank {o}");
                }
            }
        }
    }

    #[test]
    fn block_index_inverts_block_start() {
        for (n, parts) in [(10, 3), (37, 5), (8, 8), (100, 7)] {
            for idx in 0..parts {
                let start = block_start(n, parts, idx);
                let len = block_len(n, parts, idx);
                for c in start..start + len {
                    assert_eq!(block_index(n, parts, c), idx, "n={n} parts={parts} c={c}");
                }
            }
        }
    }
}
