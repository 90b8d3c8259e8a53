//! Cache-tiled particle stepping with compressed SoA tiles (DESIGN §14).
//!
//! [`TileEngine`] partitions each species' cell-sorted SoA into
//! contiguous cell-range tiles. A tiled step streams the tiles in fixed
//! ascending order through sort-maintenance → push → deposit with only a
//! bounded pool of tiles decompressed at once; everything else lives as
//! a losslessly compressed [`ptile`] blob in RAM or spilled to disk
//! through `ckpt`'s atomic-write/CRC container. That caps the resident
//! particle working set at `max_hot` LLC-sized tiles, so populations far
//! beyond the uncompressed RAM budget still step.
//!
//! A tile is a [`Species`] plus the load id of each particle, the id
//! ledger the multi-rank driver keeps per rank too: it is sorted, drained
//! and reassembled by `Species`' id-carrying operations, and it is what
//! the codec encodes.
//!
//! ## Determinism argument
//!
//! The tiled path is bit-identical to the untiled path for any tile
//! size, pool size, worker count, and strategy because every ingredient
//! is order-invariant:
//!
//! * per-particle push arithmetic is a pure function of the particle
//!   and its cell's interpolator — all four strategies walk the same
//!   IEEE op tree (see `push.rs`), so storage order, partitioning, and
//!   tile boundaries cannot change a trajectory;
//! * current deposits accumulate in fixed-point `i64` edge totals
//!   (wrapping integer adds commute), so deposit order across tiles and
//!   workers is invisible; the unload converts them in fixed edge order;
//! * cross-tile migration is deterministic: tiles are visited in fixed
//!   ascending order, emigrants drain in ascending index order into the
//!   destination tile's pending buffer, and every visit sorts the tile
//!   stably by cell — so a tile's order is a pure function of the order
//!   its particles arrived in, and the unload places each by its id.
//!
//! A particle that crosses into another tile mid-step has already been
//! pushed this step, so it parks in the destination's *pending* buffer
//! and joins that tile at its next visit — each particle is pushed
//! exactly once per step, exactly like the untiled traversal.

use crate::accumulate::Accumulator;
use crate::grid::Grid;
use crate::interp::Interpolator;
use crate::push::{push_species_on, PushStats};
use crate::species::{ParticleRecord, Species};
use pk::ExecSpace;
use psort::SortOrder;
use ptile::raw_size;
use std::path::PathBuf;
use vsimd::Strategy;

/// How a simulation is tiled: tile geometry, codec, pool bound, and the
/// optional spill directory. `tile_cells` is normally sized so one
/// tile's cells + particles fit the platform LLC (see
/// `memsim::push::llc_tile_cells`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TilePolicy {
    /// Grid cells per tile (the last tile may be short).
    pub tile_cells: usize,
    /// Compress released tiles (packed [`ptile`] encoding) instead of
    /// storing raw blobs.
    pub compress: bool,
    /// Decompressed tiles resident at once (the pool bound, ≥ 1).
    pub max_hot: usize,
    /// When set, released tiles are written here (atomic + CRC via
    /// `ckpt`) instead of kept as RAM blobs — the out-of-core mode.
    pub spill_dir: Option<PathBuf>,
}

impl TilePolicy {
    /// Policy with the given tile size, compression on, a 2-tile pool,
    /// and no spill.
    pub fn new(tile_cells: usize) -> Self {
        Self { tile_cells: tile_cells.max(1), compress: true, max_hot: 2, spill_dir: None }
    }
}

impl Default for TilePolicy {
    fn default() -> Self {
        Self::new(512)
    }
}

/// Lifetime counters for residency / codec behaviour, exposed to the
/// bench and tests (telemetry hists carry the distributions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileStats {
    /// Tile visits that needed particle data.
    pub fetches: u64,
    /// Visits served from the hot pool (no codec work).
    pub hot_hits: u64,
    /// Hot tiles encoded back out to make room.
    pub evictions: u64,
    /// Blob decodes (RAM or disk).
    pub decodes: u64,
    /// Blob encodes.
    pub encodes: u64,
    /// Spill-file writes / reads.
    pub spill_writes: u64,
    /// Spill-file reads.
    pub spill_reads: u64,
    /// Total encoded bytes produced (compression-ratio numerator).
    pub encoded_bytes: u64,
    /// Total raw bytes those encodes covered (ratio denominator).
    pub raw_bytes_encoded: u64,
    /// Peak uncompressed bytes resident in the hot pool at once — the
    /// in-RAM capacity budget actually used.
    pub peak_hot_raw_bytes: u64,
    /// Bytes currently on disk in spill files.
    pub spilled_bytes: u64,
}

/// Where one tile's particles currently live.
enum TileState {
    /// No particles stored (count 0).
    Empty,
    /// Decompressed in pool slot `.0`.
    Hot(usize),
    /// Encoded blob in RAM.
    Blob(Vec<u8>),
    /// Encoded blob on disk (`spill_path`), `bytes` long on disk.
    Spilled { bytes: u64 },
}

struct Tile {
    /// Particles stored in this tile (excludes `pending`).
    count: usize,
    state: TileState,
    /// Migrants that crossed into this tile mid-step; appended (and
    /// first pushed) at the tile's next visit.
    pending: Vec<(u64, ParticleRecord)>,
}

struct SpeciesTiles {
    q: f32,
    m: f32,
    tiles: Vec<Tile>,
    /// Per-step double buffer: `pending` swaps in here at the start of
    /// the species traversal so this step's crossings and last step's
    /// arrivals never mix.
    arrivals: Vec<Vec<(u64, ParticleRecord)>>,
}

/// One pool slot: a reusable decompressed tile.
struct Slot {
    body: Species,
    ids: Vec<u64>,
    owner: Option<(usize, usize)>,
    /// LRU stamp (bumped on every touch; deterministic — the traversal
    /// order is fixed, so so is the eviction sequence).
    stamp: u64,
}

/// Where released tiles go — a [`ptile`] blob in RAM or a spill file —
/// with the policy that picks it and the engine's lifetime counters.
struct ColdStore {
    policy: TilePolicy,
    stats: TileStats,
}

impl ColdStore {
    fn spill_path(&self, si: usize, t: usize) -> PathBuf {
        self.policy
            .spill_dir
            .as_ref()
            .expect("spill path without spill dir")
            .join(format!("tile-s{si}-t{t}.ptl"))
    }

    /// Encode tile `(si, t)`, given as its columns and ids, into its
    /// cold state.
    fn put(
        &mut self,
        si: usize,
        t: usize,
        cell: &[u32],
        floats: [&[f32]; 7],
        ids: &[u64],
    ) -> TileState {
        let n = cell.len();
        if n == 0 {
            return TileState::Empty;
        }
        let t0 = telemetry::now_ns();
        let blob = ptile::encode(cell, floats, ids, self.policy.compress);
        telemetry::hist!("tile.codec.encode.ns", telemetry::now_ns().saturating_sub(t0));
        telemetry::hist!("tile.codec.ratio.pct", (blob.len() * 100 / raw_size(n)) as u64);
        self.stats.encodes += 1;
        self.stats.encoded_bytes += blob.len() as u64;
        self.stats.raw_bytes_encoded += raw_size(n) as u64;
        if self.policy.spill_dir.is_some() {
            let path = self.spill_path(si, t);
            let mut w = ckpt::format::Writer::new();
            w.section("tile").put_raw(&blob);
            let t0 = telemetry::now_ns();
            let bytes = ckpt::file::save_atomic(&path, &w)
                .unwrap_or_else(|e| panic!("tile spill write {path:?}: {e}"));
            telemetry::hist!("tile.spill.write.ns", telemetry::now_ns().saturating_sub(t0));
            self.stats.spill_writes += 1;
            self.stats.spilled_bytes += bytes;
            TileState::Spilled { bytes }
        } else {
            TileState::Blob(blob)
        }
    }

    /// Decode tile `(si, t)`'s cold `state` into `body` and `ids`. The
    /// body drops its sort claim: it held another tile a moment ago.
    fn take(
        &mut self,
        si: usize,
        t: usize,
        state: TileState,
        body: &mut Species,
        ids: &mut Vec<u64>,
    ) {
        match state {
            TileState::Empty => {
                body.clear();
                ids.clear();
            }
            TileState::Blob(blob) => {
                let t0 = telemetry::now_ns();
                let (cell, floats) = body.columns_mut();
                ptile::decode_into(&blob, cell, floats, ids)
                    .unwrap_or_else(|e| panic!("tile blob s{si} t{t}: {e}"));
                telemetry::hist!("tile.codec.decode.ns", telemetry::now_ns().saturating_sub(t0));
                self.stats.decodes += 1;
            }
            TileState::Spilled { bytes } => {
                let path = self.spill_path(si, t);
                let t0 = telemetry::now_ns();
                let snap = ckpt::file::load(&path)
                    .unwrap_or_else(|e| panic!("tile spill read {path:?}: {e:?}"));
                let mut r = snap
                    .section("tile")
                    .unwrap_or_else(|e| panic!("tile spill section {path:?}: {e:?}"));
                let (cell, floats) = body.columns_mut();
                ptile::decode_into(r.take_rest(), cell, floats, ids)
                    .unwrap_or_else(|e| panic!("tile spill blob {path:?}: {e}"));
                r.finish().unwrap_or_else(|e| panic!("tile spill trailer {path:?}: {e:?}"));
                // a spill file is a single-read cache: the tile's truth is
                // now in RAM, so the file is dead weight (and would go
                // stale the moment the hot copy advances). Removing it
                // here is what keeps the spill dir bounded by the *cold*
                // population instead of by every tile ever evicted.
                let _ = std::fs::remove_file(&path);
                telemetry::hist!("tile.spill.read.ns", telemetry::now_ns().saturating_sub(t0));
                self.stats.spill_reads += 1;
                self.stats.spilled_bytes = self.stats.spilled_bytes.saturating_sub(bytes);
                self.stats.decodes += 1;
            }
            TileState::Hot(_) => unreachable!("take on a hot tile"),
        }
        body.mark_unsorted();
    }
}

/// The tiled stepping engine owned by `Simulation` while tiling is
/// enabled. See the module docs for the determinism argument.
pub struct TileEngine {
    cold: ColdStore,
    tile_count: usize,
    per_species: Vec<SpeciesTiles>,
    slots: Vec<Slot>,
    clock: u64,
    /// Reusable emigrant-index scratch (no steady-state allocation).
    drain_idx: Vec<usize>,
}

impl TileEngine {
    /// Engine over a `cells`-cell grid with `n_species` empty species
    /// sets. Particles arrive via [`TileEngine::load_species`].
    pub(crate) fn new(policy: TilePolicy, cells: usize, n_species: usize) -> Self {
        assert!(policy.tile_cells >= 1, "tile_cells must be >= 1");
        let tile_count = cells.div_ceil(policy.tile_cells);
        // Pre-reserve the migrant queues: a tile's first in-migrant can
        // arrive arbitrarily late (slow thermal drift across a far
        // boundary), and a first-touch allocation then would break the
        // no-alloc steady state. ~1.3 KB/tile/species covers typical
        // per-step flux; heavier flux grows a queue once and keeps it.
        const MIGRANT_RESERVE: usize = 32;
        let per_species = (0..n_species)
            .map(|_| SpeciesTiles {
                q: 0.0,
                m: 1.0,
                tiles: (0..tile_count)
                    .map(|_| Tile {
                        count: 0,
                        state: TileState::Empty,
                        pending: Vec::with_capacity(MIGRANT_RESERVE),
                    })
                    .collect(),
                arrivals: (0..tile_count)
                    .map(|_| Vec::with_capacity(MIGRANT_RESERVE))
                    .collect(),
            })
            .collect();
        let slots = (0..policy.max_hot.max(1))
            .map(|_| Slot {
                body: Species::new("tile-slot", -1.0, 1.0),
                ids: Vec::new(),
                owner: None,
                stamp: 0,
            })
            .collect();
        Self {
            cold: ColdStore { policy, stats: TileStats::default() },
            tile_count,
            per_species,
            slots,
            clock: 0,
            drain_idx: Vec::new(),
        }
    }

    /// The policy the engine was built with.
    pub fn policy(&self) -> &TilePolicy {
        &self.cold.policy
    }

    /// Lifetime residency/codec counters.
    pub fn stats(&self) -> TileStats {
        self.cold.stats
    }

    /// Total particles across all tiles and pending buffers.
    pub(crate) fn particle_count(&self) -> usize {
        self.per_species
            .iter()
            .map(|sp| {
                sp.tiles.iter().map(|t| t.count + t.pending.len()).sum::<usize>()
                    + sp.arrivals.iter().map(|a| a.len()).sum::<usize>()
            })
            .sum()
    }

    /// Capacities of every reusable buffer (pool slots, drain scratch,
    /// pending/arrival rings) in a fixed order — for
    /// no-alloc-after-warmup assertions.
    pub fn scratch_capacities(&self) -> Vec<usize> {
        let mut caps = Vec::new();
        for s in &self.slots {
            caps.extend([
                s.body.cell.capacity(),
                s.body.dx.capacity(),
                s.body.ux.capacity(),
                s.body.w.capacity(),
                s.ids.capacity(),
            ]);
        }
        caps.push(self.drain_idx.capacity());
        for sp in &self.per_species {
            for t in &sp.tiles {
                caps.push(t.pending.capacity());
            }
            for a in &sp.arrivals {
                caps.push(a.capacity());
            }
        }
        caps
    }

    /// Free a pool slot, evicting the deterministic LRU victim (lowest
    /// stamp, then lowest slot index) if none is vacant.
    fn acquire_slot(&mut self) -> usize {
        if let Some(free) = self.slots.iter().position(|s| s.owner.is_none()) {
            return free;
        }
        let victim = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(i, s)| (s.stamp, *i))
            .map(|(i, _)| i)
            .expect("pool has at least one slot");
        let s = &mut self.slots[victim];
        let (vsi, vt) = s.owner.take().expect("victim owner");
        let state = self.cold.put(vsi, vt, &s.body.cell, s.body.floats(), &s.ids);
        self.per_species[vsi].tiles[vt].state = state;
        self.cold.stats.evictions += 1;
        telemetry::count("tile.evictions", 1);
        victim
    }

    /// Open tile `(si, t)` for its visit: make it hot, append last
    /// step's arrivals, and sort it stably by cell. Returns its pool slot.
    fn open(&mut self, si: usize, t: usize) -> usize {
        self.cold.stats.fetches += 1;
        telemetry::count("tile.fetches", 1);
        self.clock += 1;
        let slot = if let TileState::Hot(slot) = self.per_species[si].tiles[t].state {
            self.cold.stats.hot_hits += 1;
            telemetry::count("tile.hot_hits", 1);
            slot
        } else {
            let slot = self.acquire_slot();
            let tile = &mut self.per_species[si].tiles[t];
            let state = std::mem::replace(&mut tile.state, TileState::Hot(slot));
            let s = &mut self.slots[slot];
            self.cold.take(si, t, state, &mut s.body, &mut s.ids);
            debug_assert_eq!(s.body.len(), tile.count, "tile s{si} t{t} count drift");
            (s.body.q, s.body.m) = (self.per_species[si].q, self.per_species[si].m);
            s.owner = Some((si, t));
            slot
        };
        let s = &mut self.slots[slot];
        s.stamp = self.clock;
        for (id, rec) in self.per_species[si].arrivals[t].drain(..) {
            s.body.push_record(&rec);
            s.ids.push(id);
        }
        s.body.sort_with_ids(SortOrder::Standard, &mut s.ids);
        slot
    }

    /// Take ownership of `source`'s particles, assigning canonical ids
    /// in array order and distributing cell-sorted tiles. `source` is
    /// left empty (metadata intact).
    pub(crate) fn load_species(&mut self, si: usize, source: &mut Species) {
        (self.per_species[si].q, self.per_species[si].m) = (source.q, source.m);
        // the stable sort keeps ids ascending within a cell and leaves
        // every tile a contiguous run of the source
        let mut ids: Vec<u64> = (0..source.len() as u64).collect();
        source.sort_with_ids(SortOrder::Standard, &mut ids);
        let tile_cells = self.cold.policy.tile_cells;
        let mut start = 0;
        for t in 0..self.tile_count {
            let end =
                start + source.cell[start..].partition_point(|&c| c as usize / tile_cells == t);
            let r = start..end;
            let floats = source.floats().map(|a| &a[r.clone()]);
            let state = self.cold.put(si, t, &source.cell[r.clone()], floats, &ids[r]);
            let tile = &mut self.per_species[si].tiles[t];
            (tile.count, tile.state) = (end - start, state);
            start = end;
        }
        source.clear();
    }

    /// Reassemble species `si` into the empty `dest` in canonical (id)
    /// order — the exact array order an untiled, sort-free run would
    /// have, so energies and checkpoints match the untiled path bitwise.
    pub(crate) fn unload_species(&mut self, si: usize, dest: &mut Species) {
        debug_assert!(dest.is_empty(), "a tiled species' arrays are empty");
        let mut all = Vec::new();
        for slot in self.slots.iter_mut().filter(|s| s.owner.is_some_and(|(osi, _)| osi == si)) {
            all.extend(slot.body.records_with_ids(&slot.ids));
            slot.owner = None;
            slot.body.clear();
            slot.ids.clear();
        }
        let (mut body, mut ids) = (Species::new("tile-unload", -1.0, 1.0), Vec::new());
        for t in 0..self.tile_count {
            let tile = &mut self.per_species[si].tiles[t];
            tile.count = 0;
            all.append(&mut tile.pending);
            match std::mem::replace(&mut tile.state, TileState::Empty) {
                TileState::Hot(_) | TileState::Empty => {}
                // `take` also unlinks a spilled tile's file, so a full
                // unload leaves the spill dir empty
                state => {
                    self.cold.take(si, t, state, &mut body, &mut ids);
                    all.extend(body.records_with_ids(&ids));
                }
            }
        }
        for a in &mut self.per_species[si].arrivals {
            all.append(a);
        }
        dest.assemble_by_id(all.len(), all);
    }

    /// One tiled particle phase: stream every species' tiles in fixed
    /// ascending order through arrival-append → stable cell sort → push →
    /// emigrant drain. The caller owns the surrounding field phases;
    /// deposits land in `acc` exactly as the untiled push.
    pub(crate) fn step_all<S: ExecSpace>(
        &mut self,
        space: &S,
        strategy: Strategy,
        grid: &Grid,
        interps: &[Interpolator],
        acc: &Accumulator,
    ) -> PushStats {
        let mut stats = PushStats::default();
        let tile_cells = self.cold.policy.tile_cells;
        for si in 0..self.per_species.len() {
            // phase split: last step's crossings become this step's
            // arrivals; this step's crossings go to fresh pending
            let sp = &mut self.per_species[si];
            for (tile, arrivals) in sp.tiles.iter_mut().zip(&mut sp.arrivals) {
                std::mem::swap(&mut tile.pending, arrivals);
            }
            for t in 0..self.tile_count {
                if self.per_species[si].tiles[t].count == 0
                    && self.per_species[si].arrivals[t].is_empty()
                {
                    continue;
                }
                let slot = self.open(si, t);
                // fused per-tile traversal: gather + Boris + mover +
                // deposit on the execution space
                let s = &mut self.slots[slot];
                let pstats = push_species_on(space, strategy, grid, &mut s.body, interps, acc);
                if pstats.crossings > 0 {
                    // crossings moved particles out of their sorted
                    // positions; the next visit's sort is real work
                    s.body.mark_unsorted();
                }
                stats.pushed += pstats.pushed;
                stats.crossings += pstats.crossings;
                // drain emigrants (ascending index order) into their
                // destination tiles' pending buffers
                self.drain_idx.clear();
                let emigrant = |&i: &usize| s.body.cell[i] as usize / tile_cells != t;
                self.drain_idx.extend((0..s.body.len()).filter(emigrant));
                let tiles = &mut self.per_species[si].tiles;
                s.body.drain_with_ids(&mut s.ids, &self.drain_idx, |id, rec| {
                    tiles[rec.cell as usize / tile_cells].pending.push((id, rec));
                });
                tiles[t].count = s.body.len();
            }
        }
        let hot_raw: u64 =
            self.slots.iter().map(|s| raw_size(s.body.len()) as u64).sum();
        self.cold.stats.peak_hot_raw_bytes = self.cold.stats.peak_hot_raw_bytes.max(hot_raw);
        stats
    }
}

/// Spill files are scratch, not durable state: an engine dropped without
/// a full unload (a tiled `Simulation` going out of scope, or discarded
/// after a failed step) must not leave `.ptl` litter behind. Read-backs
/// already unlink eagerly, so only tiles still in `Spilled` state — plus
/// any `.tmp`/`.prev` siblings a crash-interrupted save staged — remain
/// to sweep.
impl Drop for TileEngine {
    fn drop(&mut self) {
        if self.cold.policy.spill_dir.is_none() {
            return;
        }
        for si in 0..self.per_species.len() {
            for t in 0..self.tile_count {
                if matches!(self.per_species[si].tiles[t].state, TileState::Spilled { .. }) {
                    let path = self.cold.spill_path(si, t);
                    let _ = std::fs::remove_file(ckpt::file::tmp_path(&path));
                    let _ = std::fs::remove_file(ckpt::file::prev_path(&path));
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;

    fn loaded(grid: &Grid, n: usize, seed: u64) -> Species {
        let mut s = Species::new("e", -1.0, 1.0);
        s.load_uniform(grid, n, 0.1, (0.05, 0.0, 0.0), 1.0, seed);
        s
    }

    #[test]
    fn load_then_unload_restores_canonical_order() {
        let grid = Grid::new(6, 6, 6);
        let mut s = loaded(&grid, 500, 3);
        let before: Vec<ParticleRecord> = (0..s.len()).map(|p| s.record(p)).collect();
        for tile_cells in [1, 7, 64, 1000] {
            let mut engine = TileEngine::new(TilePolicy::new(tile_cells), grid.cells(), 1);
            engine.load_species(0, &mut s);
            assert!(s.is_empty());
            assert_eq!(engine.particle_count(), 500);
            engine.unload_species(0, &mut s);
            let after: Vec<ParticleRecord> = (0..s.len()).map(|p| s.record(p)).collect();
            assert_eq!(after, before, "tile_cells={tile_cells}");
        }
    }

    #[test]
    fn spill_round_trips_through_disk() {
        let grid = Grid::new(4, 4, 4);
        let dir = std::env::temp_dir().join(format!("ptile-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut s = loaded(&grid, 300, 9);
        let before: Vec<ParticleRecord> = (0..s.len()).map(|p| s.record(p)).collect();
        let mut policy = TilePolicy::new(8);
        policy.spill_dir = Some(dir.clone());
        let mut engine = TileEngine::new(policy, grid.cells(), 1);
        engine.load_species(0, &mut s);
        assert!(engine.stats().spill_writes > 0);
        assert!(engine.stats().spilled_bytes > 0);
        engine.unload_species(0, &mut s);
        let after: Vec<ParticleRecord> = (0..s.len()).map(|p| s.record(p)).collect();
        assert_eq!(after, before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_is_bounded_by_pool_size() {
        let grid = Grid::new(8, 8, 8);
        let mut s = loaded(&grid, 2000, 5);
        let mut policy = TilePolicy::new(16);
        policy.max_hot = 2;
        let mut engine = TileEngine::new(policy, grid.cells(), 1);
        engine.load_species(0, &mut s);
        // touch every tile twice; the pool must stay at 2 hot slots
        let f = crate::field::FieldArray::new(grid.clone());
        let interps = crate::interp::load_interpolators(&f);
        let acc = Accumulator::new(grid.cells(), 1, pk::atomic::ScatterMode::Atomic);
        for _ in 0..2 {
            acc.reset();
            engine.step_all(&pk::Serial, Strategy::Auto, &grid, &interps, &acc);
        }
        assert_eq!(engine.slots.len(), 2);
        assert!(engine.stats().evictions > 0, "more tiles than slots must evict");
        assert_eq!(engine.particle_count(), 2000, "no particle lost");
    }

    /// The order physics cannot see: bits are order-free, so only the
    /// codec ratio and locality would show a tile pushed unsorted. Every
    /// opened tile must have ascending cells and ids beside their
    /// records — including a slot refilled with another tile's data,
    /// which must not inherit its last owner's sort claim.
    #[test]
    fn every_opened_tile_is_cell_sorted_with_its_ids_beside_their_records() {
        let grid = Grid::new(8, 8, 8);
        let mut s = loaded(&grid, 2000, 11);
        // the weight carries the load id (no field here, so no physics)
        for (p, w) in s.w.iter_mut().enumerate() {
            *w = p as f32;
        }
        let mut policy = TilePolicy::new(16);
        policy.max_hot = 2;
        let mut engine = TileEngine::new(policy, grid.cells(), 1);
        engine.load_species(0, &mut s);
        let f = crate::field::FieldArray::new(grid.clone());
        let interps = crate::interp::load_interpolators(&f);
        let acc = Accumulator::new(grid.cells(), 1, pk::atomic::ScatterMode::Atomic);
        let tiles = engine.tile_count;
        for step in 0..3 {
            acc.reset();
            let pushed = engine.step_all(&pk::Serial, Strategy::Auto, &grid, &interps, &acc);
            assert!(pushed.crossings > 0, "the test needs tiles the push leaves unsorted");
            // ascending then descending: each slot is refilled from a
            // stored tile right after holding a freshly sorted one
            for t in (0..tiles).chain((0..tiles).rev()) {
                let slot = engine.open(0, t);
                let slot = &engine.slots[slot];
                let (cell, ids, w) = (&slot.body.cell, &slot.ids, &slot.body.w);
                assert!(cell.windows(2).all(|c| c[0] <= c[1]), "step {step}, tile {t} unsorted");
                assert!(ids.iter().zip(w).all(|(&id, &w)| w == id as f32), "step {step}, tile {t}");
                assert!(cell.iter().all(|&c| c as usize / 16 == t), "tile {t} holds a stranger");
            }
        }
        assert_eq!(engine.particle_count(), 2000);
    }

    #[test]
    fn spill_dir_is_clean_after_full_cycle_and_after_drop() {
        let dir =
            std::env::temp_dir().join(format!("ptile-leak-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let list = |tag: &str| -> Vec<String> {
            std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| format!("{tag}: {:?}", e.unwrap().file_name()))
                .collect()
        };
        let mut policy = TilePolicy::new(8);
        policy.max_hot = 2;
        policy.spill_dir = Some(dir.clone());
        // enable → step → disable must leave the spill dir empty: every
        // spilled tile is either read back (unlinked eagerly) or swept by
        // the unload
        let mut sim = crate::deck::Deck::weibel(4, 4, 4, 4, 0.3).build();
        sim.enable_tiling(policy.clone());
        sim.run(3);
        assert!(sim.tile_engine().unwrap().stats().spill_writes > 0, "test must spill");
        sim.disable_tiling();
        let leftovers = list("after disable");
        assert!(leftovers.is_empty(), "spill files leaked: {leftovers:?}");
        // dropping a still-tiled simulation (the discard path)
        // sweeps whatever is still spilled, including .prev/.tmp litter
        let mut sim = crate::deck::Deck::weibel(4, 4, 4, 4, 0.3).build();
        sim.enable_tiling(policy);
        sim.run(2);
        drop(sim);
        let leftovers = list("after drop");
        assert!(leftovers.is_empty(), "dropped engine leaked spill files: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
