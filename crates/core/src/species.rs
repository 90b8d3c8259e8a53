//! Particle species with VPIC's storage layout.
//!
//! Particles are SoA: cell-relative offsets `dx, dy, dz ∈ [-1, 1]`, the
//! owning cell's voxel index `i`, normalized momentum `ux, uy, uz`
//! (γβ components), and a statistical weight `w`. Keeping the cell index
//! explicit is what makes "sort particles by cell index" (the paper's
//! §3.2) a plain key/value sort.

use crate::grid::Grid;
use psort::SortOrder;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The two buffers a sort works through, lent by its caller: `words`
/// takes the `u32` permutation and `floats` is the spare column every
/// column is gathered into. A [`crate::Simulation`] lends its
/// particle-phase scratch, whose same two buffers hold the push's
/// coefficient cache (tags and records) after the sort; a species sorted
/// by [`Species::sort`] keeps a pair of its own, made by its first sort.
/// Neither buffer ever becomes a species column: the sort hands both
/// back, so once they are sized for the longest population they lend to,
/// no sort makes a buffer.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch {
    pub(crate) words: Vec<u32>,
    pub(crate) floats: Vec<f32>,
}

#[cfg(test)]
impl Scratch {
    /// Where the two buffers are and how large, for no-allocation checks.
    pub(crate) fn buffers(&self) -> [(usize, usize); 2] {
        [
            (self.words.as_ptr() as usize, self.words.capacity()),
            (self.floats.as_ptr() as usize, self.floats.capacity()),
        ]
    }
}

/// A single particle by value — the unit that migrates between ranks.
/// `cell` is in the coordinate system of whichever grid the record is
/// currently addressed to (the multi-rank driver rewrites it in flight).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParticleRecord {
    /// Cell-relative x offset, in `[-1, 1]`.
    pub dx: f32,
    /// Cell-relative y offset.
    pub dy: f32,
    /// Cell-relative z offset.
    pub dz: f32,
    /// Owning cell voxel index.
    pub cell: u32,
    /// Normalized momentum γβx.
    pub ux: f32,
    /// Normalized momentum γβy.
    pub uy: f32,
    /// Normalized momentum γβz.
    pub uz: f32,
    /// Statistical weight.
    pub w: f32,
}

/// One particle species (electrons, ions, …).
#[derive(Debug, Clone)]
pub struct Species {
    /// Display name.
    pub name: String,
    /// Charge in normalized units.
    pub q: f32,
    /// Mass in normalized units.
    pub m: f32,
    /// Cell-relative x offset per particle, in `[-1, 1]`.
    pub dx: Vec<f32>,
    /// Cell-relative y offset.
    pub dy: Vec<f32>,
    /// Cell-relative z offset.
    pub dz: Vec<f32>,
    /// Owning cell voxel index.
    pub cell: Vec<u32>,
    /// Normalized momentum γβx.
    pub ux: Vec<f32>,
    /// Normalized momentum γβy.
    pub uy: Vec<f32>,
    /// Normalized momentum γβz.
    pub uz: Vec<f32>,
    /// Statistical weight.
    pub w: Vec<f32>,
    /// The order the arrays are currently known to be in, if any. `None`
    /// after loading, after cell crossings, or after any other mutation
    /// routed through this struct's methods; direct field writes do not
    /// dirty it (callers doing that should [`Species::mark_unsorted`]).
    last_sort: Option<SortOrder>,
    /// The sort buffers of [`Species::sort`]; empty until it first runs,
    /// and never made for a species a simulation sorts.
    scratch: Scratch,
}

/// Remove the elements at `indices` (strictly ascending) from `v` by
/// backfill (VPIC's): the holes, highest first, each take the element then
/// at the end of `v`, so the work is one move per index and the survivors
/// do not keep their order. Every array that loses the same indices this
/// way moves its elements alike, which keeps arrays that are parallel
/// parallel: [`Species::drain_with_ids`] runs it over a species' eight
/// arrays and the ids beside them.
fn remove_sorted_indices<T>(v: &mut Vec<T>, indices: &[usize]) {
    debug_assert!(indices.windows(2).all(|w| w[0] < w[1]), "indices must ascend");
    for &i in indices.iter().rev() {
        v.swap_remove(i);
    }
}

/// Gather the `u32` column `col` through `perm` into the spare column as
/// bits (`f32::from_bits` and `to_bits` move them unchanged) and copy it
/// back: how `cell` and the rank driver's ids follow a sort.
fn gather_bits(perm: &[u32], spare: &mut Vec<f32>, col: &mut [u32]) {
    spare.clear();
    spare.extend(perm.iter().map(|&p| f32::from_bits(col[p as usize])));
    for (c, bits) in col.iter_mut().zip(spare.iter()) {
        *c = bits.to_bits();
    }
}

impl Species {
    /// An empty species.
    pub fn new(name: impl Into<String>, q: f32, m: f32) -> Self {
        assert!(m > 0.0, "mass must be positive");
        Self {
            name: name.into(),
            q,
            m,
            dx: Vec::new(),
            dy: Vec::new(),
            dz: Vec::new(),
            cell: Vec::new(),
            ux: Vec::new(),
            uy: Vec::new(),
            uz: Vec::new(),
            w: Vec::new(),
            last_sort: None,
            scratch: Scratch::default(),
        }
    }

    /// Names of the seven `f32` particle arrays, in [`Species::floats`]
    /// order.
    pub(crate) const FLOAT_NAMES: [&'static str; 7] = ["dx", "dy", "dz", "ux", "uy", "uz", "w"];

    /// The seven `f32` particle arrays, a record's fields less `cell`:
    /// with `cell`, the eight arrays a checkpoint, a bitwise comparison
    /// and a rank gather walk.
    pub fn floats(&self) -> [&[f32]; 7] {
        let Self { dx, dy, dz, ux, uy, uz, w, .. } = self;
        [dx, dy, dz, ux, uy, uz, w].map(Vec::as_slice)
    }

    /// The arrays of [`Species::floats`], in its order, mutably.
    pub fn floats_mut(&mut self) -> [&mut Vec<f32>; 7] {
        self.columns_mut().1
    }

    /// `cell` and the arrays of [`Species::floats`], mutably. Writing
    /// through them does not dirty the sort claim;
    /// [`Species::mark_unsorted`] after.
    pub(crate) fn columns_mut(&mut self) -> (&mut Vec<u32>, [&mut Vec<f32>; 7]) {
        let Self { cell, dx, dy, dz, ux, uy, uz, w, .. } = self;
        (cell, [dx, dy, dz, ux, uy, uz, w])
    }

    /// Reserve room for `additional` more particles in each of the eight
    /// arrays.
    pub fn reserve(&mut self, additional: usize) {
        let (cell, floats) = self.columns_mut();
        cell.reserve(additional);
        for arr in floats {
            arr.reserve(additional);
        }
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.cell.len()
    }

    /// True when the species holds no particles.
    pub fn is_empty(&self) -> bool {
        self.cell.is_empty()
    }

    /// Append one particle.
    #[allow(clippy::too_many_arguments)]
    pub fn push_particle(
        &mut self,
        dx: f32,
        dy: f32,
        dz: f32,
        cell: u32,
        ux: f32,
        uy: f32,
        uz: f32,
        w: f32,
    ) {
        debug_assert!((-1.0..=1.0).contains(&dx));
        debug_assert!((-1.0..=1.0).contains(&dy));
        debug_assert!((-1.0..=1.0).contains(&dz));
        self.dx.push(dx);
        self.dy.push(dy);
        self.dz.push(dz);
        self.cell.push(cell);
        self.ux.push(ux);
        self.uy.push(uy);
        self.uz.push(uz);
        self.w.push(w);
        self.last_sort = None;
    }

    /// Copy out particle `p` as a by-value record (for rank migration).
    pub fn record(&self, p: usize) -> ParticleRecord {
        ParticleRecord {
            dx: self.dx[p],
            dy: self.dy[p],
            dz: self.dz[p],
            cell: self.cell[p],
            ux: self.ux[p],
            uy: self.uy[p],
            uz: self.uz[p],
            w: self.w[p],
        }
    }

    /// Append a migrated particle record.
    pub fn push_record(&mut self, r: &ParticleRecord) {
        self.push_particle(r.dx, r.dy, r.dz, r.cell, r.ux, r.uy, r.uz, r.w);
    }

    /// The drain of the id ledger: remove the particles at `indices`
    /// (strictly ascending) and their entries of `ids`, the id array kept
    /// parallel to the particles, handing each `(id, record)` to `out` in
    /// ascending index order. The holes fill from the tail
    /// (`remove_sorted_indices` on all nine arrays), so the survivors
    /// do not keep their order but keep their ids. This is the migrant
    /// drain of the multi-rank exchange: ascending-index order makes the
    /// outgoing stream deterministic for a given array state.
    pub fn drain_with_ids(
        &mut self,
        ids: &mut Vec<u32>,
        indices: &[usize],
        mut out: impl FnMut(u32, ParticleRecord),
    ) {
        debug_assert_eq!(ids.len(), self.len(), "ids must be parallel to the particles");
        if indices.is_empty() {
            return;
        }
        for &p in indices {
            out(ids[p], self.record(p));
        }
        remove_sorted_indices(ids, indices);
        let (cell, floats) = self.columns_mut();
        remove_sorted_indices(cell, indices);
        for arr in floats {
            remove_sorted_indices(arr, indices);
        }
        self.last_sort = None;
    }

    /// Every particle as `(id, record)`, in array order, with its id from
    /// `ids`, the id array kept parallel to the particles: what
    /// [`Species::assemble_by_id`] takes.
    pub fn records_with_ids<'a>(
        &'a self,
        ids: &'a [u32],
    ) -> impl Iterator<Item = (u32, ParticleRecord)> + 'a {
        debug_assert_eq!(ids.len(), self.len(), "ids must be parallel to the particles");
        ids.iter().enumerate().map(|(p, &id)| (id, self.record(p)))
    }

    /// The assembly of the id ledger: replace the particles with the `n`
    /// `records`, each placed at its id, so the record with id `i` lands
    /// at index `i`. The ids must be `0..n`, each once: the canonical
    /// order the multi-rank gather rebuilds.
    pub fn assemble_by_id(
        &mut self,
        n: usize,
        records: impl IntoIterator<Item = (u32, ParticleRecord)>,
    ) {
        let (cell, floats) = self.columns_mut();
        cell.clear();
        cell.resize(n, 0);
        for arr in floats {
            arr.clear();
            arr.resize(n, 0.0);
        }
        let mut placed = 0;
        for (id, r) in records {
            let p = id as usize;
            let (cell, [dx, dy, dz, ux, uy, uz, w]) = self.columns_mut();
            [dx[p], dy[p], dz[p]] = [r.dx, r.dy, r.dz];
            [ux[p], uy[p], uz[p], w[p]] = [r.ux, r.uy, r.uz, r.w];
            cell[p] = r.cell;
            placed += 1;
        }
        assert_eq!(placed, n, "by-id assembly: {placed} records for {n} ids");
        self.last_sort = None;
    }

    /// Seed `n` particles uniformly over the grid with a Maxwellian-ish
    /// (Gaussian per component) momentum spread `vth` plus drift
    /// `(ux0, uy0, uz0)`.
    pub fn load_uniform(
        &mut self,
        grid: &Grid,
        n: usize,
        vth: f32,
        drift: (f32, f32, f32),
        weight: f32,
        seed: u64,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let cells = grid.cells() as u32;
        self.reserve(n);
        for _ in 0..n {
            let cell = rng.gen_range(0..cells);
            // Box-Muller pairs for the thermal spread
            let gauss = |rng: &mut ChaCha8Rng| -> f32 {
                let u1: f32 = rng.gen_range(1e-7..1.0);
                let u2: f32 = rng.gen_range(0.0..1.0);
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
            };
            self.push_particle(
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                cell,
                drift.0 + vth * gauss(&mut rng),
                drift.1 + vth * gauss(&mut rng),
                drift.2 + vth * gauss(&mut rng),
                weight,
            );
        }
    }

    /// Lorentz factor of particle `p`.
    #[inline(always)]
    pub fn gamma(&self, p: usize) -> f32 {
        (1.0 + self.ux[p] * self.ux[p] + self.uy[p] * self.uy[p] + self.uz[p] * self.uz[p]).sqrt()
    }

    /// Total kinetic energy `Σ w·m·(γ−1)` (normalized units, `c = 1`).
    pub fn kinetic_energy(&self) -> f64 {
        let mut total = 0.0f64;
        for p in 0..self.len() {
            total += (self.w[p] * self.m) as f64 * (self.gamma(p) as f64 - 1.0);
        }
        total
    }

    /// Total momentum `Σ w·m·u` per component.
    pub fn momentum(&self) -> (f64, f64, f64) {
        let mut px = 0.0f64;
        let mut py = 0.0f64;
        let mut pz = 0.0f64;
        for p in 0..self.len() {
            let wm = (self.w[p] * self.m) as f64;
            px += wm * self.ux[p] as f64;
            py += wm * self.uy[p] as f64;
            pz += wm * self.uz[p] as f64;
        }
        (px, py, pz)
    }

    /// Total charge `Σ w·q`.
    pub fn charge(&self) -> f64 {
        self.w.iter().map(|&w| (w * self.q) as f64).sum()
    }

    /// Reorder the particle arrays by cell index under `order` — the
    /// paper's sorting hook. All eight SoA arrays move in tandem.
    ///
    /// Returns `false` (and does nothing) when the arrays are already in
    /// `order` and nothing has dirtied them since — so a freshly sorted
    /// population re-sorted on the next scheduled step costs nothing.
    /// `Random` is never skipped: re-shuffling is a new permutation each
    /// time, not an idempotent arrangement.
    ///
    /// The species sorts through buffers of its own, made by the first
    /// call; a [`crate::Simulation`] sorts its species through its own
    /// scratch instead ([`crate::Simulation::sort_particles`]), with the
    /// same bits.
    pub fn sort(&mut self, order: SortOrder) -> bool {
        let mut own = std::mem::take(&mut self.scratch);
        let moved = self.sort_with(order, &mut own);
        self.scratch = own;
        moved
    }

    /// [`Species::sort`] through the buffers `scratch` lends. The
    /// permutation is computed once, by [`psort::permutation_into`] (O(N)
    /// on cell keys), into `scratch.words`, and each array is gathered
    /// through it once into the spare column, `scratch.floats` (reads
    /// follow the permutation, writes stream). A float array is then
    /// swapped with the spare, not copied back, so the buffers rotate
    /// among the seven float columns and the spare; `cell`, the one `u32`
    /// array, passes through the spare as its bits (`f32::from_bits` and
    /// `to_bits` move them unchanged) and is copied back. The first float
    /// column is left holding the lent buffer, so it is copied once more,
    /// into the spare the last swap left, and swapped back: the lender
    /// gets its own buffer, and a column only ever holds a column's. The
    /// sort therefore needs 8 B per particle of the lender, and once the
    /// buffers are sized it makes none. What it allocates per call is
    /// the argsort's counting buckets (4 B per cell of the key range)
    /// and, for the strided orders, their rewritten `u64` keys.
    pub(crate) fn sort_with(&mut self, order: SortOrder, scratch: &mut Scratch) -> bool {
        if self.last_sort == Some(order) && order != SortOrder::Random {
            // the skip serves the cached "already sorted" claim — verify
            // it in debug builds, since a caller that mutated the public
            // SoA fields without mark_unsorted() would otherwise get a
            // silently stale skip here
            self.debug_validate_sorted();
            return false;
        }
        let Self { cell, dx, dy, dz, ux, uy, uz, w, .. } = self;
        let Scratch { words: perm, floats: spare } = scratch;
        psort::permutation_into(order, cell, perm);
        gather_bits(perm, spare, cell);
        for arr in [&mut *dx, dy, dz, ux, uy, uz, w] {
            spare.clear();
            spare.extend(perm.iter().map(|&p| arr[p as usize]));
            std::mem::swap(arr, spare);
        }
        spare.clear();
        spare.extend_from_slice(dx);
        std::mem::swap(dx, spare);
        self.last_sort = Some(order);
        true
    }

    /// The sort of the id ledger: [`Species::sort_with`], with `ids`, the
    /// id array kept parallel to the particles, gathered through the
    /// permutation so that every particle keeps its id. The ids pass
    /// through the lent spare column as bits, the way `cell` does, so the
    /// sort makes no buffer for them either. `Standard` is stable:
    /// particles in one cell keep the order they had.
    pub(crate) fn sort_with_ids(
        &mut self,
        order: SortOrder,
        ids: &mut [u32],
        scratch: &mut Scratch,
    ) -> bool {
        debug_assert_eq!(ids.len(), self.len(), "ids must be parallel to the particles");
        if !self.sort_with(order, scratch) {
            return false;
        }
        gather_bits(&scratch.words, &mut scratch.floats, ids);
        true
    }

    /// The order the arrays are known to be in, if any.
    pub fn current_order(&self) -> Option<SortOrder> {
        self.last_sort
    }

    /// Forget the known ordering, forcing the next [`Species::sort`] to
    /// run. The simulation loop calls this when cell crossings move
    /// particles out of their sorted positions; callers that mutate the
    /// SoA fields directly should call it too.
    pub fn mark_unsorted(&mut self) {
        self.last_sort = None;
    }

    /// Restore path only: adopt a checkpointed `last_sort` claim without
    /// re-sorting. The checkpoint layer restores the particle arrays
    /// bit-exactly alongside this, and validates the claim in debug
    /// builds via [`Species::debug_validate_sorted`].
    pub(crate) fn set_order_hint(&mut self, order: Option<SortOrder>) {
        self.last_sort = order;
    }

    /// Debug-assertion guard for the `last_sort` skip cache: check that
    /// the cell array really is in the claimed order. Valid because every
    /// non-`Random` order is a pure function of the key multiset, so an
    /// array genuinely in that order re-sorts to itself (for `Standard`:
    /// the cells ascend); any divergence means particles were mutated
    /// without [`Species::mark_unsorted`] and the skip cache would serve
    /// stale answers. O(n), debug builds only; release builds compile to
    /// nothing.
    pub(crate) fn debug_validate_sorted(&self) {
        #[cfg(debug_assertions)]
        if let Some(order) = self.last_sort {
            let in_order = match order {
                SortOrder::Random => return,
                SortOrder::Standard => self.cell.windows(2).all(|w| w[0] <= w[1]),
                _ => psort::sorts::ordered_keys(order, &self.cell).0 == self.cell,
            };
            assert!(
                in_order,
                "species {:?}: cell array is not in the claimed {order} order — \
                 particles were mutated without mark_unsorted()",
                self.name
            );
        }
    }

    /// Whether the species holds sort buffers of its own, which only
    /// [`Species::sort`] makes.
    #[cfg(test)]
    pub(crate) fn holds_sort_buffers(&self) -> bool {
        self.scratch.buffers().iter().any(|&(_, capacity)| capacity > 0)
    }

    /// True when particle data is self-consistent (offsets in range,
    /// cells in range, finite momenta). Used by tests and debug asserts.
    pub fn validate(&self, grid: &Grid) -> Result<(), String> {
        let cells = grid.cells() as u32;
        for p in 0..self.len() {
            if !(-1.0..=1.0).contains(&self.dx[p])
                || !(-1.0..=1.0).contains(&self.dy[p])
                || !(-1.0..=1.0).contains(&self.dz[p])
            {
                return Err(format!(
                    "particle {p} offsets out of range: ({}, {}, {})",
                    self.dx[p], self.dy[p], self.dz[p]
                ));
            }
            if self.cell[p] >= cells {
                return Err(format!("particle {p} cell {} out of range", self.cell[p]));
            }
            if !self.ux[p].is_finite() || !self.uy[p].is_finite() || !self.uz[p].is_finite() {
                return Err(format!("particle {p} momentum not finite"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_count() {
        let mut s = Species::new("e", -1.0, 1.0);
        assert!(s.is_empty());
        s.push_particle(0.0, 0.5, -0.5, 3, 0.1, 0.0, 0.0, 1.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.cell[0], 3);
    }

    #[test]
    fn uniform_load_is_valid_and_deterministic() {
        let g = Grid::new(8, 8, 8);
        let mut a = Species::new("e", -1.0, 1.0);
        a.load_uniform(&g, 1000, 0.1, (0.0, 0.0, 0.0), 1.0, 42);
        assert_eq!(a.len(), 1000);
        a.validate(&g).unwrap();
        let mut b = Species::new("e", -1.0, 1.0);
        b.load_uniform(&g, 1000, 0.1, (0.0, 0.0, 0.0), 1.0, 42);
        assert_eq!(a.cell, b.cell);
        assert_eq!(a.ux, b.ux);
    }

    #[test]
    fn thermal_load_statistics() {
        let g = Grid::new(4, 4, 4);
        let mut s = Species::new("e", -1.0, 1.0);
        let vth = 0.05;
        s.load_uniform(&g, 20_000, vth, (0.2, 0.0, 0.0), 1.0, 7);
        let n = s.len() as f64;
        let mean_ux: f64 = s.ux.iter().map(|&u| u as f64).sum::<f64>() / n;
        assert!((mean_ux - 0.2).abs() < 0.005, "drift recovered: {mean_ux}");
        let var_uy: f64 = s.uy.iter().map(|&u| (u as f64).powi(2)).sum::<f64>() / n;
        assert!(
            (var_uy.sqrt() - vth as f64).abs() < 0.005,
            "thermal spread recovered: {}",
            var_uy.sqrt()
        );
    }

    #[test]
    fn gamma_and_energy() {
        let mut s = Species::new("e", -1.0, 1.0);
        s.push_particle(0.0, 0.0, 0.0, 0, 0.0, 0.0, 0.0, 1.0);
        s.push_particle(0.0, 0.0, 0.0, 0, 3.0, 0.0, 4.0, 2.0);
        assert_eq!(s.gamma(0), 1.0);
        assert!((s.gamma(1) - 26.0f32.sqrt()).abs() < 1e-6);
        let ke = s.kinetic_energy();
        assert!((ke - 2.0 * (26.0f64.sqrt() - 1.0)).abs() < 1e-5);
        assert_eq!(s.charge(), -3.0);
        let (px, _, pz) = s.momentum();
        assert!((px - 6.0).abs() < 1e-6);
        assert!((pz - 8.0).abs() < 1e-6);
    }

    #[test]
    fn sort_keeps_particles_intact() {
        let g = Grid::new(4, 4, 4);
        let mut s = Species::new("e", -1.0, 1.0);
        s.load_uniform(&g, 500, 0.1, (0.0, 0.0, 0.0), 1.0, 3);
        let ke0 = s.kinetic_energy();
        let q0 = s.charge();
        // pair each particle's cell with a fingerprint of its state
        let mut pairs0: Vec<(u32, u32)> = (0..s.len())
            .map(|p| (s.cell[p], s.ux[p].to_bits()))
            .collect();
        for order in SortOrder::fig7_set(16) {
            s.sort(order);
            s.validate(&g).unwrap();
            assert!((s.kinetic_energy() - ke0).abs() < 1e-9);
            assert_eq!(s.charge(), q0);
            let mut pairs: Vec<(u32, u32)> = (0..s.len())
                .map(|p| (s.cell[p], s.ux[p].to_bits()))
                .collect();
            pairs.sort_unstable();
            pairs0.sort_unstable();
            assert_eq!(pairs, pairs0, "sort broke cell↔momentum pairing ({order})");
        }
    }

    #[test]
    fn sort_skips_when_already_in_requested_order() {
        let g = Grid::new(4, 4, 4);
        let mut s = Species::new("e", -1.0, 1.0);
        s.load_uniform(&g, 300, 0.1, (0.0, 0.0, 0.0), 1.0, 5);
        assert_eq!(s.current_order(), None, "loading dirties the order");
        assert!(s.sort(SortOrder::Standard));
        assert_eq!(s.current_order(), Some(SortOrder::Standard));
        let before = s.cell.clone();
        assert!(!s.sort(SortOrder::Standard), "idempotent re-sort must be skipped");
        assert_eq!(s.cell, before);
        // a different order is real work again
        assert!(s.sort(SortOrder::Strided));
        // crossings (or any dirtying) re-enable the sort
        s.sort(SortOrder::Standard);
        s.mark_unsorted();
        assert!(s.sort(SortOrder::Standard));
        // Random is a fresh shuffle every time, never skipped
        assert!(s.sort(SortOrder::Random));
        assert!(s.sort(SortOrder::Random));
        // appending a particle dirties the order too
        s.sort(SortOrder::Standard);
        s.push_particle(0.0, 0.0, 0.0, 0, 0.0, 0.0, 0.0, 1.0);
        assert!(s.sort(SortOrder::Standard));
    }

    #[test]
    fn the_id_ledger_follows_the_reference_permutation_for_every_order() {
        // (cells, n): empty, single, one cell, dense, and sparse enough
        // (range > 8 n) that the argsort falls back to comparing
        for (cells, n) in [(64u32, 0usize), (64, 1), (1, 50), (64, 500), (1 << 20, 40)] {
            let mut loaded = Species::new("e", -1.0, 1.0);
            let mut state = 0x9E37_79B9_7F4A_7C15u64;
            for p in 0..n {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let cell = ((state >> 33) % cells as u64) as u32;
                // every array carries the load index, so a gather that
                // went wrong in any one of them shows
                let tag = p as f32;
                let x = tag / n as f32;
                loaded.push_particle(x, 0.0, -0.5, cell, tag, -tag, 2.0 * tag, 1.0 + tag);
            }
            for order in SortOrder::fig7_set(8) {
                let (mut s, mut ids) = (loaded.clone(), (0..n as u32).collect::<Vec<_>>());
                let mut lent = Scratch::default();
                assert!(s.sort_with_ids(order, &mut ids, &mut lent));
                let perm: &[u32] = &lent.words;
                let as_u32 =
                    |perm: Vec<usize>| perm.into_iter().map(|p| p as u32).collect::<Vec<_>>();
                let reference = as_u32(psort::sorts::ordered_keys(order, &loaded.cell).1);
                assert_eq!(perm, reference, "{order}, {n} in {cells}");
                if order == SortOrder::Standard {
                    let reference = as_u32(pk::sort::sort_permutation(&loaded.cell));
                    assert_eq!(perm, reference, "{n} in {cells}");
                }
                for (i, &p) in perm.iter().enumerate() {
                    let want = (p, loaded.record(p as usize));
                    assert_eq!((ids[i], s.record(i)), want, "{order}, {n} in {cells}, slot {i}");
                }
                // drain every third particle: (id, record) pairs leave in
                // ascending index order
                let drained: Vec<usize> = (0..n).step_by(3).collect();
                let want: Vec<_> = drained.iter().map(|&p| (ids[p], s.record(p))).collect();
                let mut out = Vec::new();
                s.drain_with_ids(&mut ids, &drained, |id, r| out.push((id, r)));
                assert_eq!(out, want, "{order}, {n} in {cells}");
                // survivors and drained alike go back to their load index
                let mut back = Species::new("e", -1.0, 1.0);
                back.assemble_by_id(n, s.records_with_ids(&ids).chain(out));
                let canonical = (0..n).all(|p| back.record(p) == loaded.record(p));
                assert!(canonical, "{order}, {n} in {cells}");
            }
        }
    }

    #[test]
    fn the_sort_hands_its_buffers_back_and_makes_none_after_warmup() {
        let g = Grid::new(4, 4, 4);
        let mut loaded = Species::new("e", -1.0, 1.0);
        loaded.load_uniform(&g, 1000, 0.1, (0.0, 0.0, 0.0), 1.0, 13);
        let n = loaded.len();
        // the eight columns' buffers as (address, capacity), in address
        // order: the swaps rotate them among the float columns
        let columns = |s: &Species| {
            let Species { dx, dy, dz, ux, uy, uz, w, cell, .. } = s;
            let mut columns: Vec<(usize, usize)> = [dx, dy, dz, ux, uy, uz, w]
                .iter()
                .map(|a| (a.as_ptr() as usize, a.capacity()))
                .collect();
            columns.push((cell.as_ptr() as usize, cell.capacity()));
            columns.sort_unstable();
            columns
        };
        // through buffers the caller lends, then through the species' own
        for own in [false, true] {
            let (mut s, mut lent) = (loaded.clone(), Scratch::default());
            let mut sorted = |s: &mut Species, order| {
                let moved = if own { s.sort(order) } else { s.sort_with(order, &mut lent) };
                assert!(moved, "{order}");
                let scratch = if own { &s.scratch } else { &lent };
                (columns(s), scratch.buffers(), [scratch.words.len(), scratch.floats.len()])
            };
            // warmup: one sort sizes the two buffers, 8 B per particle
            let warm = sorted(&mut s, SortOrder::Standard);
            assert_eq!(warm.2, [n, n]);
            // steady state: every order, with dirtying in between, must
            // make no buffer, resize none, and give neither side a buffer
            // of the other's
            for order in [
                SortOrder::Strided,
                SortOrder::Standard,
                SortOrder::TiledStrided { tile: 8 },
                SortOrder::Random,
                SortOrder::Standard,
            ] {
                s.mark_unsorted();
                let steady = sorted(&mut s, order);
                assert_eq!(steady, warm, "sort made, resized or kept a buffer ({order}, own {own})");
                assert_eq!(s.holds_sort_buffers(), own, "{order}");
            }
        }
    }

    #[test]
    fn a_sort_with_ids_moves_no_buffer_and_keeps_every_id_beside_its_particle() {
        let g = Grid::new(4, 4, 4);
        let mut s = Species::new("e", -1.0, 1.0);
        s.load_uniform(&g, 1000, 0.1, (0.0, 0.0, 0.0), 1.0, 17);
        let loaded = s.clone();
        let mut ids: Vec<u32> = (0..s.len() as u32).collect();
        let mut lent = Scratch::default();
        // warmup: the first sort sizes the lent buffers
        assert!(s.sort_with_ids(SortOrder::Standard, &mut ids, &mut lent));
        let warm = (lent.buffers(), ids.as_ptr() as usize, ids.capacity());
        for order in [
            SortOrder::Strided,
            SortOrder::Random,
            SortOrder::TiledStrided { tile: 8 },
            SortOrder::Standard,
        ] {
            s.mark_unsorted();
            assert!(s.sort_with_ids(order, &mut ids, &mut lent), "{order}");
            let now = (lent.buffers(), ids.as_ptr() as usize, ids.capacity());
            assert_eq!(now, warm, "the sort made, resized or moved a buffer ({order})");
            for (p, &id) in ids.iter().enumerate() {
                assert_eq!(s.record(p), loaded.record(id as usize), "{order}: particle {p}");
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "without mark_unsorted")]
    fn unmarked_mutation_is_caught_by_the_skip_guard() {
        // the bug class the guard exists for: mutate the public SoA
        // fields after a sort, skip mark_unsorted(), and re-sort — the
        // skip path must trip the debug assertion instead of silently
        // serving the stale "already sorted" claim
        let g = Grid::new(4, 4, 4);
        let mut s = Species::new("e", -1.0, 1.0);
        s.load_uniform(&g, 100, 0.1, (0.0, 0.0, 0.0), 1.0, 21);
        s.sort(SortOrder::Standard);
        s.cell.swap(0, 99); // direct mutation, no mark_unsorted()
        s.sort(SortOrder::Standard);
    }

    #[test]
    fn marked_mutation_passes_the_skip_guard() {
        let g = Grid::new(4, 4, 4);
        let mut s = Species::new("e", -1.0, 1.0);
        s.load_uniform(&g, 100, 0.1, (0.0, 0.0, 0.0), 1.0, 21);
        for order in [SortOrder::Standard, SortOrder::Strided, SortOrder::TiledStrided { tile: 8 }]
        {
            s.sort(order);
            s.debug_validate_sorted();
            assert!(!s.sort(order), "clean skip after a real sort");
            // the sanctioned path: mutate, mark, re-sort
            s.cell.swap(0, 99);
            s.mark_unsorted();
            assert!(s.sort(order));
            s.debug_validate_sorted();
        }
    }

    #[test]
    fn standard_sort_orders_cells() {
        let g = Grid::new(4, 4, 4);
        let mut s = Species::new("e", -1.0, 1.0);
        s.load_uniform(&g, 200, 0.1, (0.0, 0.0, 0.0), 1.0, 9);
        s.sort(SortOrder::Standard);
        assert!(s.cell.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn validate_catches_bad_cell() {
        let g = Grid::new(2, 2, 2);
        let mut s = Species::new("e", -1.0, 1.0);
        s.push_particle(0.0, 0.0, 0.0, 100, 0.0, 0.0, 0.0, 1.0);
        assert!(s.validate(&g).is_err());
    }

    #[test]
    fn drain_with_ids_keeps_the_survivors_and_their_ids_parallel() {
        let g = Grid::new(4, 4, 4);
        let mut s = Species::new("e", -1.0, 1.0);
        s.load_uniform(&g, 10, 0.1, (0.0, 0.0, 0.0), 1.0, 3);
        let before: Vec<ParticleRecord> = (0..10).map(|p| s.record(p)).collect();
        let mut ids: Vec<u32> = (0..10).collect();
        let mut out = Vec::new();
        // holes at both ends, two side by side, and the tail itself
        let drained = [0, 3, 4, 9];
        s.drain_with_ids(&mut ids, &drained, |id, r| out.push((id, r)));
        assert_eq!(out, drained.map(|p| (p as u32, before[p])), "ascending index order");
        // every survivor once, each still beside its own id
        let mut kept = ids.clone();
        kept.sort_unstable();
        assert_eq!(kept, [1, 2, 5, 6, 7, 8]);
        for (p, &id) in ids.iter().enumerate() {
            assert_eq!(s.record(p), before[id as usize], "particle {p} lost its id");
        }
        // draining nothing is a no-op
        s.drain_with_ids(&mut ids, &[], |_, _| unreachable!());
        assert_eq!((s.len(), ids.len()), (6, 6));
        // records round-trip through push_record
        let mut t = Species::new("t", -1.0, 1.0);
        for (_, r) in &out {
            t.push_record(r);
        }
        let records: Vec<ParticleRecord> = out.iter().map(|&(_, r)| r).collect();
        assert_eq!((0..t.len()).map(|p| t.record(p)).collect::<Vec<_>>(), records);
    }

    #[test]
    fn remove_sorted_indices_backfills_from_the_tail() {
        let mut ids = vec![10u64, 11, 12, 13, 14, 15];
        remove_sorted_indices(&mut ids, &[1, 4]);
        assert_eq!(ids, vec![10, 15, 12, 13]);
        remove_sorted_indices(&mut ids, &[]);
        assert_eq!(ids, vec![10, 15, 12, 13]);
        remove_sorted_indices(&mut ids, &[0, 1, 2, 3]);
        assert!(ids.is_empty());
    }
}
