//! Real multi-rank stepping with overlapped halo exchange (DESIGN §12).
//!
//! [`MultiRankSim`] drives N per-rank [`Simulation`]s through the full
//! VPIC step. Any simulation — a freshly built deck or a restored
//! snapshot — is partitioned via [`Decomposition`] into per-rank grids
//! with a halo shell (one cell on the minus sides, two on the plus
//! sides); every step performs real field halo
//! exchange and particle migration between the ranks, serialized through
//! reusable per-link buffers, with latency and bandwidth charged through
//! the [`NetworkModel`]. Interior field kernels run while boundary shells
//! wait on in-flight exchanges, so the executed step time reflects the
//! paper's compute/communication overlap rather than their sum.
//!
//! ## Supersteps
//!
//! The ranks run at the same time. A step is four rank-local supersteps,
//! each one [`ExecSpace::parallel_for_mut`] over the rank states, cut
//! where an exchange has to have arrived: (1) due sort, push, migrant
//! drain, deposition partials, first half B advance, *pack* B; (2) merge
//! the peers' partials, unload, laser, *unpack* B, E advance, *pack* E,
//! interior half B advance; (3) *unpack* E, boundary shells, *pack* B,
//! append the migrants; (4) *unpack* B, close the step.
//!
//! One rule makes that safe without `unsafe`: inside a superstep a rank
//! mutates only its own `RankState` and reads only what a peer
//! *published in an earlier superstep*. What a peer may read — partials,
//! per-link migrant outboxes, per-link packed halo values — a rank
//! writes into its own `Sends`, and the calling thread swaps that into
//! the `published` table between two dispatches; the exchange plans are
//! immutable. No rank's arithmetic or append order depends on the lane
//! that ran it, so the gathered state is the same on every
//! [`ExecSpace`], and [`MultiRankSim::step`] is
//! [`MultiRankSim::step_on`] on a pool the simulator owns.
//!
//! ## Bit-identity
//!
//! The correctness oracle: for any rank count and any worker count, the
//! gathered global state is bit-identical to the single-rank run. Three
//! disciplines make that hold, extending PRs 1 and 5 per-kernel
//! determinism across ranks:
//!
//! * **Fixed-point deposition** — the accumulator stores quantized `i64`
//!   partials, so rank-boundary current merges are integer adds: exactly
//!   associative and commutative, independent of which rank's array a
//!   segment landed in.
//! * **Shared row bodies** — every field kernel runs one body per cell
//!   whether sweeping the whole grid, a row interior, or a boundary box,
//!   so halo grids reproduce the global sweep cell-for-cell.
//! * **Deterministic migrant ordering** — migrants drain in ascending
//!   array order, carry their global load index, are taken from the
//!   outboxes in ascending source rank and appended sorted by
//!   `(species, id)`; the gather reassembles canonical global arrays by
//!   id, restoring the single-rank summation order everywhere.
//!
//! Halo cells compute garbage during full-grid sweeps (they wrap inside
//! the local grid); every consumer reads them only after the exchange
//! that overwrites them with the owner's canonical values, and owned
//! cells never wrap because CFL limits motion and stencils to one cell.
//! The second plus-side shell is there for the current alone: a segment
//! in a plus-side halo cell puts weight on edges of the cell one further
//! up. Its field values are never exchanged and never read.
//!
//! ## Checkpoints
//!
//! Because the gather is the single-rank state, a cluster snapshot is
//! [`MultiRankSim::gather`]'s [`Simulation`] snapshot plus one `cluster`
//! section (rank count, network, each rank's configuration). It restores
//! at the rank count that wrote it through [`MultiRankSim::restore_bytes`],
//! and at any other through [`MultiRankSim::new`] on
//! [`Simulation::restore_bytes`].

use crate::decompose::Decomposition;
use crate::exchange::MigrationStats;
use crate::network::NetworkModel;
use ckpt::{RestoreError, Snapshot};
use pk::ExecSpace;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use vpic_core::accumulate::EDGES;
use vpic_core::push::PushStats;
use vpic_core::sim::LaserDriver;
use vpic_core::{FieldArray, Grid, ParticleRecord, Simulation};

/// Bytes shipped per migrating particle: the 32-byte phase-space record
/// plus the 8-byte global id that keeps gather order canonical.
pub(crate) const MIGRANT_BYTES: usize = 40;

/// Bytes per halo cell per field exchange (3 components × f32).
pub(crate) const FIELD_HALO_BYTES: usize = 12;

/// Bytes per shared cell for the current-accumulator exchange
/// (3 fixed-point i64 edge totals).
pub(crate) const ACC_HALO_BYTES: usize = EDGES * 8;

/// Where a particle found outside the owned box must go.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Route {
    /// An owned cell (canonical index: stays put).
    Owned,
    /// A halo image of a cell this rank owns (periodic self-neighbor
    /// axis): remap to the canonical local index, no migration.
    Remap(u32),
    /// A halo image of a cell another rank owns: migrate over the link
    /// with this index in the rank's `links`.
    Remote(u32),
}

/// One neighbor link of a rank: the per-pair exchange plan. Both
/// endpoints build the pair's overlap list in the same (ascending global
/// cell) order, so position `k` refers to the same global cell on both
/// sides without shipping indices.
#[derive(Debug, Clone)]
struct Link {
    /// The other rank (may be `self` for periodic self-copies, which
    /// move no network bytes).
    rank: usize,
    /// Index of the link back to this rank in the peer's `links`.
    back: usize,
    /// Positions into this rank's `shared` table for the pair's overlap
    /// cells, ascending-global order.
    acc_pos: Vec<u32>,
    /// Field halo send plan: this rank's canonical local index of each
    /// overlap cell *it* owns, ascending-global order.
    field_src: Vec<u32>,
    /// Field halo receive plan: flattened local image indices of each
    /// overlap cell *the other rank* owns, grouped per cell by
    /// `field_dst_off`, ascending-global order.
    field_dst: Vec<u32>,
    /// Offsets into `field_dst`: cell `k`'s images are
    /// `field_dst[off[k]..off[k+1]]`.
    field_dst_off: Vec<u32>,
}

/// Per-rank geometry and exchange plan, all precomputed at construction
/// and immutable afterwards — any rank may read any rank's plan.
#[derive(Debug, Clone)]
struct RankPlan {
    origin: (usize, usize, usize),
    extent: (usize, usize, usize),
    /// The local grid — the owned block at `1..=extent` per axis, one halo
    /// cell below it and two above — and the global one it is a piece of.
    grid: Grid,
    global: Grid,
    /// Global cell id of every local cell (halo included).
    local_to_global: Vec<u32>,
    /// Migration routing for every local cell.
    route: Vec<Route>,
    /// Cells that exist in more than one local array (or more than once
    /// in this one): `(global, local images)` ascending by global id.
    shared: Vec<(u32, Vec<u32>)>,
    /// Neighbor links, ascending by rank id (self link last if present).
    links: Vec<Link>,
}

impl RankPlan {
    /// The local cells among `images` that the field kernels read: those
    /// of the owned block and the one-cell shell around it, not of the
    /// second plus-side shell.
    fn field_images<'a>(&'a self, images: &'a [u32]) -> impl Iterator<Item = u32> + 'a {
        let (lx, ly, lz) = self.extent;
        images.iter().copied().filter(move |&lv| {
            let (x, y, z) = self.grid.coords(lv as usize);
            x <= lx + 1 && y <= ly + 1 && z <= lz + 1
        })
    }

    /// Canonical local index of an owned global cell.
    fn canonical(&self, g: u32) -> u32 {
        let (gx, gy, gz) = self.global.coords(g as usize);
        let (ox, oy, oz) = self.origin;
        self.grid.voxel(gx - ox + 1, gy - oy + 1, gz - oz + 1) as u32
    }

    /// The links that cross to another rank.
    fn remote_links(&self, r: usize) -> impl Iterator<Item = (usize, &Link)> {
        self.links.iter().enumerate().filter(move |(_, l)| l.rank != r)
    }

    /// One field-halo exchange as rank `r` receives it, a directed message
    /// per remote link with cells to read: `(modeled s, messages, bytes)`.
    fn halo_charge(&self, r: usize, network: &NetworkModel) -> (f64, u64, u64) {
        let mut charge = (0.0, 0, 0);
        for (_, link) in self.remote_links(r) {
            let bytes = (link.field_dst_off.len() - 1) * FIELD_HALO_BYTES;
            if bytes > 0 {
                charge.0 += network.message_time(bytes as f64);
                charge.1 += 1;
                charge.2 += bytes as u64;
            }
        }
        charge
    }
}

/// A migrating particle in flight: species index, global load index, and
/// the phase-space record with `cell` rewritten to the *global* cell id.
#[derive(Debug, Clone, Copy)]
struct Migrant {
    species: u32,
    id: u64,
    rec: ParticleRecord,
}

/// Everything one rank writes for its peers: filled in its own
/// [`RankState`], read by a peer only from the `published` table.
#[derive(Debug)]
struct Sends {
    /// Deposition partials per shared cell: this rank's images summed.
    partials: Vec<[i64; EDGES]>,
    /// Out-migrants per link, in drain order.
    migrants: Vec<Vec<Migrant>>,
    /// Per link, the last-packed triple (B or E) of each `field_src` cell.
    halo: Vec<Vec<[f32; 3]>>,
}

impl Sends {
    fn for_plan(plan: &RankPlan) -> Self {
        Self {
            partials: vec![[0; EDGES]; plan.shared.len()],
            migrants: vec![Vec::new(); plan.links.len()],
            halo: plan.links.iter().map(|l| vec![[0.0; 3]; l.field_src.len()]).collect(),
        }
    }
}

/// What a superstep may read besides its own rank: every rank's plan,
/// and what every rank published before the last barrier.
#[derive(Clone, Copy)]
struct Seen<'a> {
    plans: &'a [RankPlan],
    published: &'a [Sends],
}

/// The barrier between two supersteps: what each rank wrote becomes what
/// its peers may read, and the buffers read last time come back to be
/// overwritten. Only the first superstep rewrites more than the halos.
fn publish(ranks: &mut [RankState], published: &mut [Sends], halos_only: bool) {
    for (st, seen) in ranks.iter_mut().zip(published) {
        if halos_only {
            std::mem::swap(&mut st.sends.halo, &mut seen.halo);
        } else {
            std::mem::swap(&mut st.sends, seen);
        }
    }
}

/// Which component triple a halo exchange moves.
#[derive(Debug, Clone, Copy)]
enum FieldSet {
    E,
    B,
}

impl FieldSet {
    fn of(self, f: &mut FieldArray) -> [&mut Vec<f32>; 3] {
        let [ex, ey, ez, bx, by, bz, ..] = f.arrays_mut();
        match self {
            FieldSet::E => [ex, ey, ez],
            FieldSet::B => [bx, by, bz],
        }
    }
}

/// One rank's clock for one step, s: the measured wall of each compute
/// segment in schedule order (a pack counts with the kernel before it),
/// and the modeled time of each exchange.
#[derive(Debug, Clone, Copy, Default)]
struct RankClock {
    push: f64,
    b1: f64,
    merge: f64,
    unload: f64,
    bfill: f64,
    e: f64,
    b2i: f64,
    efill: f64,
    b2b: f64,
    append: f64,
    b2fill: f64,
    x_acc: f64,
    x_b: f64,
    x_e: f64,
    x_mig: f64,
    x_b2: f64,
}

impl RankClock {
    /// `(compute, modeled, exposed)`: the rank's compute wall, its modeled
    /// exchange time, and the part of that no compute window hides. An
    /// exchange is hidden by the segments between its launch and its wait
    /// point: the accumulator exchange by the first B half-advance, the B
    /// halos by merge + unload, the E halos by the interior B half-advance,
    /// the migrants by everything from the first B half-advance through
    /// the boundary shells, the post-advance B halos by the migrant append.
    /// What a window does not cover extends the step.
    fn overlap(&self) -> (f64, f64, f64) {
        let through_shells = self.b1
            + self.merge
            + self.unload
            + self.bfill
            + self.e
            + self.b2i
            + self.efill
            + self.b2b;
        let compute = self.push + through_shells + self.append + self.b2fill;
        let waits = [
            (self.x_acc, self.b1),
            (self.x_b, self.merge + self.unload),
            (self.x_e, self.b2i),
            (self.x_mig, through_shells),
            (self.x_b2, self.append),
        ];
        let modeled = waits.iter().map(|w| w.0).sum();
        let exposed = waits.iter().map(|&(charge, window)| (charge - window).max(0.0)).sum();
        (compute, modeled, exposed)
    }
}

/// One rank's share of the step's scalars, reduced in rank order.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    clock: RankClock,
    push: PushStats,
    /// Particles held when the push ran, and drained to peers after it.
    population: usize,
    drained: usize,
    messages: u64,
    halo_bytes: u64,
}

/// Seconds since `t0` (a [`telemetry::now_ns`] reading).
fn since(t0: u64) -> f64 {
    telemetry::now_ns().saturating_sub(t0) as f64 * 1e-9
}

/// One rank's live state: what only its own supersteps touch.
struct RankState {
    sim: Simulation,
    /// Global load index of every particle, per species, parallel to the
    /// species arrays. Migrates with the particle; the gather reassembles
    /// canonical global order from it.
    ids: Vec<Vec<u64>>,
    /// Deposition totals per shared cell, merged across its holders.
    totals: Vec<[i64; EDGES]>,
    /// What this rank is writing for its peers ([`publish`]).
    sends: Sends,
    tally: Tally,
    /// Reusable scratch: out-migrants' indices, the migrants taken from
    /// the peers' outboxes.
    drain_idx: Vec<usize>,
    incoming: Vec<Migrant>,
}

impl RankState {
    fn new(sim: Simulation, ids: Vec<Vec<u64>>, plan: &RankPlan) -> Self {
        Self {
            sim,
            ids,
            totals: vec![[0; EDGES]; plan.shared.len()],
            sends: Sends::for_plan(plan),
            tally: Tally::default(),
            drain_idx: Vec::new(),
            incoming: Vec::new(),
        }
    }

    /// Superstep 1, on the rank's own state alone: due sort, push, drain
    /// and partials, then the first half B advance and the B pack behind
    /// the accumulator and migrant exchanges.
    fn push_pack(&mut self, r: usize, plan: &RankPlan, net: &NetworkModel) {
        let _rs = telemetry::rank_span("cluster.rank_push", r);
        let mut tally = Tally::default();
        let t0 = telemetry::now_ns();
        // scheduled per-rank sort, the decomposed twin of the one in
        // `step_on`: done here, not inside `begin_step`, because the id
        // maps are parallel to the SoA arrays and must follow the same
        // permutation. Bit-safe: it permutes records within a rank, and
        // the gather goes by id (the per-rank tuning contract below).
        if let Some(order) = self.sim.consume_due_sort() {
            for (s, ids) in self.sim.species.iter_mut().zip(&mut self.ids) {
                s.sort_with_ids(order, ids);
            }
        }
        tally.push = self.sim.begin_step();
        tally.population = self.sim.particle_count();
        // migrant drain: ascending index per species, into the outbox of
        // the link each particle left over
        for outbox in &mut self.sends.migrants {
            outbox.clear();
        }
        for (si, (s, ids)) in self.sim.species.iter_mut().zip(&mut self.ids).enumerate() {
            self.drain_idx.clear();
            let mut remapped = false;
            for p in 0..s.len() {
                match plan.route[s.cell[p] as usize] {
                    Route::Owned => {}
                    Route::Remap(c) => {
                        s.cell[p] = c;
                        remapped = true;
                    }
                    Route::Remote(_) => self.drain_idx.push(p),
                }
            }
            if remapped {
                s.mark_unsorted();
            }
            if self.drain_idx.is_empty() {
                continue;
            }
            tally.drained += self.drain_idx.len();
            let outboxes = &mut self.sends.migrants;
            s.drain_with_ids(ids, &self.drain_idx, |id, mut rec| {
                let Route::Remote(link) = plan.route[rec.cell as usize] else {
                    unreachable!("drained cells are remote");
                };
                rec.cell = plan.local_to_global[rec.cell as usize];
                outboxes[link as usize].push(Migrant { species: si as u32, id, rec });
            });
        }
        // deposition partials over this rank's images of shared cells
        for (sum, (_, images)) in self.sends.partials.iter_mut().zip(&plan.shared) {
            *sum = [0; EDGES];
            for &img in images {
                let raw = self.sim.acc_cell_raw(img as usize);
                for e in 0..EDGES {
                    sum[e] = sum[e].wrapping_add(raw[e]);
                }
            }
        }
        tally.clock.push = since(t0);
        // the accumulator exchange: one directed message per remote link
        for (_, link) in plan.remote_links(r) {
            let bytes = link.acc_pos.len() * ACC_HALO_BYTES;
            tally.clock.x_acc += net.message_time(bytes as f64);
            tally.messages += 1;
            tally.halo_bytes += bytes as u64;
        }
        let t0 = telemetry::now_ns();
        let strategy = self.sim.strategy;
        self.sim.fields.advance_b_on(&pk::Serial, strategy, 0.5);
        self.pack_halos(r, plan, FieldSet::B);
        tally.clock.b1 = since(t0);
        // the three field-halo exchanges of a step move the same cells:
        // B before the E advance (hidden by merge + unload), E (hidden by
        // the interior B half-advance), B after the advance
        let (time, messages, bytes) = plan.halo_charge(r, net);
        tally.clock.x_b = time;
        tally.clock.x_e = time;
        tally.clock.x_b2 = time;
        tally.messages += 3 * messages;
        tally.halo_bytes += 3 * bytes;
        self.tally = tally;
    }

    /// Superstep 2, after the accumulator and B exchanges: merge, unload,
    /// laser, unpack B, advance and pack E, then the interior half B
    /// advance while the E exchange is in flight.
    fn merge_and_advance_e(&mut self, r: usize, seen: Seen, drive: Option<(usize, f32)>) {
        let plan = &seen.plans[r];
        let t0 = telemetry::now_ns();
        self.totals.copy_from_slice(&seen.published[r].partials);
        for (_, link) in plan.remote_links(r) {
            // the peer's link back to us lists the same overlap cells in
            // the same ascending-global order
            let theirs = &seen.plans[link.rank].links[link.back].acc_pos;
            let partials = &seen.published[link.rank].partials;
            debug_assert_eq!(link.acc_pos.len(), theirs.len());
            for (&mine, &theirs) in link.acc_pos.iter().zip(theirs) {
                let (dst, src) = (&mut self.totals[mine as usize], &partials[theirs as usize]);
                for e in 0..EDGES {
                    dst[e] = dst[e].wrapping_add(src[e]);
                }
            }
        }
        for (total, (_, images)) in self.totals.iter().zip(&plan.shared) {
            for &img in images {
                self.sim.acc_set_cell_raw(img as usize, total);
            }
        }
        self.tally.clock.merge = since(t0);
        let t0 = telemetry::now_ns();
        self.sim.unload_currents();
        let (ox, (lx, ly, lz)) = (plan.origin.0, plan.extent);
        if let Some((plane, drive)) = drive.filter(|(plane, _)| (ox..ox + lx).contains(plane)) {
            let fields = &mut self.sim.fields;
            LaserDriver::add_drive(fields, drive, plane - ox + 1, 1..ly + 1, 1..lz + 1);
        }
        self.tally.clock.unload = since(t0);
        let t0 = telemetry::now_ns();
        self.unpack_halos(r, seen, FieldSet::B);
        self.tally.clock.bfill = since(t0);
        let t0 = telemetry::now_ns();
        let strategy = self.sim.strategy;
        self.sim.fields.advance_e_on(&pk::Serial, strategy);
        self.pack_halos(r, plan, FieldSet::E);
        self.tally.clock.e = since(t0);
        let t0 = telemetry::now_ns();
        self.sim.fields.advance_b_box(1..lx, 1..ly, 1..lz, 0.5);
        self.tally.clock.b2i = since(t0);
    }

    /// Superstep 3, after the E and migrant exchanges: unpack E, sweep
    /// the shells the interior pass skipped, pack the advanced B, append
    /// the incoming migrants sorted by `(species, id)`.
    fn close_b_and_append(&mut self, r: usize, seen: Seen, net: &NetworkModel) {
        let plan = &seen.plans[r];
        let t0 = telemetry::now_ns();
        self.unpack_halos(r, seen, FieldSet::E);
        self.tally.clock.efill = since(t0);
        let t0 = telemetry::now_ns();
        let (lx, ly, lz) = plan.extent;
        // the three plus-face shells: disjoint, and together with the
        // interior box they cover the owned region exactly once
        self.sim.fields.advance_b_box(lx..lx + 1, 1..ly + 1, 1..lz + 1, 0.5);
        self.sim.fields.advance_b_box(1..lx, ly..ly + 1, 1..lz + 1, 0.5);
        self.sim.fields.advance_b_box(1..lx, 1..ly, lz..lz + 1, 0.5);
        self.pack_halos(r, plan, FieldSet::B);
        self.tally.clock.b2b = since(t0);
        let t0 = telemetry::now_ns();
        // links ascend by peer rank: the outboxes are taken in ascending
        // source rank, and the receiver is charged each incoming send
        self.incoming.clear();
        for (_, link) in plan.remote_links(r) {
            let sent = &seen.published[link.rank].migrants[link.back];
            if !sent.is_empty() {
                self.tally.clock.x_mig += net.message_time((sent.len() * MIGRANT_BYTES) as f64);
                self.tally.messages += 1;
                self.incoming.extend_from_slice(sent);
            }
        }
        self.incoming.sort_by_key(|m| (m.species, m.id));
        for m in &self.incoming {
            let mut rec = m.rec;
            rec.cell = plan.canonical(m.rec.cell);
            self.sim.species[m.species as usize].push_record(&rec);
            self.ids[m.species as usize].push(m.id);
        }
        self.tally.clock.append = since(t0);
    }

    /// Superstep 4, after the post-advance B exchange: unpack, close.
    fn finish(&mut self, r: usize, seen: Seen) {
        let t0 = telemetry::now_ns();
        self.unpack_halos(r, seen, FieldSet::B);
        self.tally.clock.b2fill = since(t0);
        self.sim.finish_step();
    }

    /// The send half of a field-halo exchange: the canonical values of
    /// every cell a remote peer holds an image of.
    fn pack_halos(&mut self, r: usize, plan: &RankPlan, set: FieldSet) {
        let [x, y, z] = set.of(&mut self.sim.fields);
        for (li, link) in plan.remote_links(r) {
            for (slot, &src) in self.sends.halo[li].iter_mut().zip(&link.field_src) {
                *slot = [x[src as usize], y[src as usize], z[src as usize]];
            }
        }
    }

    /// The receive half, its wire time charged at launch: the owner's
    /// values — packed by the peer a superstep ago, or this rank's own
    /// cell on a periodic self link — land in every local image.
    fn unpack_halos(&mut self, r: usize, seen: Seen, set: FieldSet) {
        let _s = telemetry::rank_span("cluster.halo_fill", r);
        let [x, y, z] = set.of(&mut self.sim.fields);
        for link in &seen.plans[r].links {
            let packed = &seen.published[link.rank].halo[link.back];
            debug_assert!(link.rank == r || packed.len() == link.field_dst_off.len() - 1);
            for (k, images) in link.field_dst_off.windows(2).enumerate() {
                let value = if link.rank == r {
                    let src = link.field_src[k] as usize;
                    [x[src], y[src], z[src]]
                } else {
                    packed[k]
                };
                for &dst in &link.field_dst[images[0] as usize..images[1] as usize] {
                    x[dst as usize] = value[0];
                    y[dst as usize] = value[1];
                    z[dst as usize] = value[2];
                }
            }
        }
    }
}

/// Executed/modeled timing of one multi-rank step.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct StepTiming {
    /// Largest per-rank compute wall (all kernel and copy segments), s.
    pub compute_s: f64,
    /// Sum over ranks of modeled exchange time, s.
    pub modeled_exchange_s: f64,
    /// Sum over ranks of the exchange time *not* hidden behind interior
    /// compute, s.
    pub exposed_exchange_s: f64,
    /// Sum over ranks of the exchange time hidden behind overlapped
    /// compute windows, s.
    pub hidden_exchange_s: f64,
    /// Executed step time: max over ranks of compute + exposed, s.
    pub step_s: f64,
}

/// N real per-rank simulations stepping in lockstep with halo exchange,
/// particle migration, and modeled network charges (module docs).
pub struct MultiRankSim {
    /// The rank layout.
    pub decomp: Decomposition,
    /// The interconnect being modeled.
    pub network: NetworkModel,
    laser: Option<LaserDriver>,
    plans: Vec<RankPlan>,
    ranks: Vec<RankState>,
    /// What each rank last published for its peers (module docs).
    published: Vec<Sends>,
    step: u64,
    /// The pool [`MultiRankSim::step`] runs the ranks over: one lane per
    /// rank up to the host's parallelism. Host state, never checkpointed.
    space: pk::Threads,
}

impl MultiRankSim {
    /// Partition `sim` — any simulation, a restored one included
    /// — over `ranks` ranks. Its array order is the canonical particle
    /// order [`MultiRankSim::gather`] rebuilds; its step count, laser and
    /// strategy carry over.
    ///
    /// Per-rank sims start with no sort scheduled;
    /// [`MultiRankSim::set_rank_config`] schedules one per rank, and the
    /// gathered state is bit-identical to the single-rank run either way.
    ///
    /// # Panics
    /// Panics if the decomposition leaves any rank without cells (more
    /// ranks than cells along an axis): such degenerate layouts are
    /// rejected, not emulated.
    pub fn new(sim: &Simulation, ranks: usize, network: NetworkModel) -> Self {
        let g = sim.grid.clone();
        let decomp =
            Decomposition::covering((g.nx, g.ny, g.nz), ranks).unwrap_or_else(|e| panic!("{e}"));
        let plans = build_plans(&decomp, &g);
        let mut states: Vec<RankState> = plans
            .iter()
            .map(|plan| {
                debug_assert_eq!(plan.grid.dt, g.dt, "unit cells: dt is extent-independent");
                let mut rsim = Simulation::new(plan.grid.clone());
                rsim.strategy = sim.strategy;
                // size every array and the ids for a rank's share, so
                // the scatter below and steady-state appends rarely grow
                let share = |s: &vpic_core::Species| s.len() / plans.len() + 16;
                for s in &sim.species {
                    let mut rs = vpic_core::Species::new(s.name.clone(), s.q, s.m);
                    rs.reserve(share(s));
                    rsim.add_species(rs);
                }
                let ids = sim.species.iter().map(|s| Vec::with_capacity(share(s))).collect();
                RankState::new(rsim, ids, plan)
            })
            .collect();
        // scatter particles to their owning rank, carrying the global
        // load index as the identity the gather reassembles
        for (si, s) in sim.species.iter().enumerate() {
            for p in 0..s.len() {
                let (gx, gy, gz) = g.coords(s.cell[p] as usize);
                let r = decomp.owner(gx, gy, gz);
                let st = &mut states[r];
                let mut rec = s.record(p);
                rec.cell = plans[r].canonical(s.cell[p]);
                st.sim.species[si].push_record(&rec);
                st.ids[si].push(p as u64);
            }
        }
        // copy the field state (owned and halo alike) straight from the
        // global arrays: every image starts as its owner's value, so no
        // exchange is needed before the first step
        for (st, plan) in states.iter_mut().zip(&plans) {
            let local = st.sim.fields.arrays_mut();
            for (local, global) in local.into_iter().zip(sim.fields.arrays()) {
                for (lv, &gv) in plan.local_to_global.iter().enumerate() {
                    local[lv] = global[gv as usize];
                }
            }
        }
        let lanes = std::thread::available_parallelism().map_or(1, |n| n.get()).min(states.len());
        Self {
            decomp,
            network,
            laser: sim.laser.clone(),
            published: plans.iter().map(Sends::for_plan).collect(),
            plans,
            ranks: states,
            step: sim.step_count(),
            space: pk::Threads::new(lanes),
        }
    }

    /// The global grid (every plan holds the one it is a piece of).
    fn global(&self) -> &Grid {
        &self.plans[0].global
    }

    /// Rank count.
    pub fn ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Particles currently owned by each rank.
    pub fn rank_populations(&self) -> Vec<usize> {
        self.ranks.iter().map(|r| r.sim.particle_count()).collect()
    }

    /// Lanes [`MultiRankSim::step`] runs the ranks over on this host.
    pub fn workers(&self) -> usize {
        self.space.concurrency()
    }

    // ── Per-rank tuning ────────────────────────────────────────────────
    //
    // Heterogeneous systems want heterogeneous configurations: a GPU
    // rank and a CPU rank pick different strategies and scatter modes.
    // Every per-rank knob is bit-safe — all strategies walk one IEEE op
    // tree, deposits are order-independent fixed-point adds, and the
    // gather reassembles canonical order by id — so ranks may diverge in
    // configuration while the gathered state stays bit-identical to the
    // single-rank run.

    /// Apply a fixed tuner configuration to one rank's simulation.
    pub fn set_rank_config(&mut self, rank: usize, cfg: &tuner::Config) {
        self.ranks[rank].sim.apply_tune_config(cfg, 1);
    }

    /// Advance one lockstep multi-rank step on the simulator's own pool
    /// ([`MultiRankSim::workers`] lanes; one lane runs inline).
    pub fn step(&mut self) -> (PushStats, MigrationStats, StepTiming) {
        let space = self.space.clone();
        self.step_on(&space)
    }

    /// Advance one lockstep multi-rank step with the ranks distributed
    /// over `space`: four rank-local supersteps with a publish between
    /// them (module docs). The result does not depend on `space`.
    pub fn step_on<S: ExecSpace>(&mut self, space: &S) -> (PushStats, MigrationStats, StepTiming) {
        let ranks = self.ranks.len();
        let _span = telemetry::span("cluster.exchange").arg("ranks", ranks).arg("step", self.step);
        let drive = self.laser.as_ref().map(|l| (l.plane, l.drive_at(self.step, self.global().dt)));
        let Self { ranks, published, plans, network, .. } = self;
        let (plans, net) = (&plans[..], &*network);
        space.parallel_for_mut(ranks, |r, st| st.push_pack(r, &plans[r], net));
        publish(ranks, published, false);
        let seen = Seen { plans, published };
        space.parallel_for_mut(ranks, |r, st| st.merge_and_advance_e(r, seen, drive));
        publish(ranks, published, true);
        let seen = Seen { plans, published };
        space.parallel_for_mut(ranks, |r, st| st.close_b_and_append(r, seen, net));
        publish(ranks, published, true);
        let seen = Seen { plans, published };
        space.parallel_for_mut(ranks, |r, st| st.finish(r, seen));
        self.step += 1;
        // the step's scalars, reduced in rank order. Overlap accounting:
        // each exchange is hidden by the compute window between its
        // launch and its wait point
        let mut push = PushStats::default();
        let mut mig = MigrationStats::default();
        let mut timing = StepTiming::default();
        let (mut messages, mut halo_bytes) = (0u64, 0u64);
        for st in &self.ranks {
            let t = &st.tally;
            push.pushed += t.push.pushed;
            push.crossings += t.push.crossings;
            mig.total += t.population;
            mig.migrants += t.drained;
            mig.max_out_of_rank = mig.max_out_of_rank.max(t.drained);
            messages += t.messages;
            halo_bytes += t.halo_bytes;
            let (compute, modeled, exposed) = t.clock.overlap();
            timing.compute_s = timing.compute_s.max(compute);
            timing.modeled_exchange_s += modeled;
            timing.exposed_exchange_s += exposed;
            timing.hidden_exchange_s += modeled - exposed;
            timing.step_s = timing.step_s.max(compute + exposed);
            // per-rank exchange-overlap distributions: exposed is the tail
            // that actually extends the step, hidden is what the compute
            // window absorbed
            telemetry::hist!("cluster.exposed_exchange.ns", (exposed * 1e9) as u64);
            telemetry::hist!(
                "cluster.hidden_exchange.ns",
                ((modeled - exposed).max(0.0) * 1e9) as u64
            );
        }
        if telemetry::enabled() {
            telemetry::count("cluster.migrants", mig.migrants as u64);
            telemetry::count("cluster.bytes_moved", (mig.migrants * MIGRANT_BYTES) as u64);
            telemetry::count("cluster.halo_bytes", halo_bytes);
            telemetry::count("cluster.messages", messages);
            telemetry::hist!("cluster.migrants.per_step", mig.migrants as u64);
        }
        (push, mig, timing)
    }

    /// Run `n` steps; returns aggregate push stats.
    pub fn run(&mut self, n: usize) -> PushStats {
        let mut total = PushStats::default();
        for _ in 0..n {
            let (p, _, _) = self.step();
            total.pushed += p.pushed;
            total.crossings += p.crossings;
        }
        total
    }

    /// Reassemble the global single-domain state: owned field cells by
    /// global id, particles by their global load index. Bit-identical to
    /// the single-rank run (module docs).
    pub fn gather(&self) -> Simulation {
        let mut out = Simulation::new(self.global().clone());
        out.strategy = self.ranks[0].sim.strategy;
        out.laser = self.laser.clone();
        out.set_step_count(self.step);
        for (st, plan) in self.ranks.iter().zip(&self.plans) {
            // a rank's owned cells are the ones routed nowhere
            let global = out.fields.arrays_mut();
            for (global, local) in global.into_iter().zip(st.sim.fields.arrays()) {
                for (lv, &gv) in plan.local_to_global.iter().enumerate() {
                    if plan.route[lv] == Route::Owned {
                        global[gv as usize] = local[lv];
                    }
                }
            }
        }
        for si in 0..self.ranks[0].sim.species.len() {
            let tmpl = &self.ranks[0].sim.species[si];
            let total: usize = self.ranks.iter().map(|st| st.sim.species[si].len()).sum();
            let mut s = vpic_core::Species::new(tmpl.name.clone(), tmpl.q, tmpl.m);
            // each particle lands at its global load index
            s.assemble_by_id(
                total,
                self.ranks.iter().zip(&self.plans).flat_map(|(st, plan)| {
                    let ledger = st.sim.species[si].records_with_ids(&st.ids[si]);
                    ledger.map(|(id, mut rec)| {
                        rec.cell = plan.local_to_global[rec.cell as usize];
                        (id, rec)
                    })
                }),
            );
            out.add_species(s);
        }
        out
    }

    /// Serialize the cluster: [`MultiRankSim::gather`]'s single-domain
    /// snapshot plus one `cluster` section — the rank count, the network
    /// model and each rank's configuration. Ids, halo shells, exchange
    /// plans and what the ranks publish are rebuilt by
    /// [`MultiRankSim::new`], the pool is host state, and a rank's sort
    /// phase restarts (DESIGN §12): none of them is carried. Counts
    /// `ckpt.bytes_written` once, for the whole container.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let _s = telemetry::span("ckpt.write").arg("step", self.step);
        let mut w = self.gather().checkpoint_writer();
        let c = w.section("cluster");
        c.put_usize(self.ranks.len());
        c.put_f64(self.network.latency);
        c.put_f64(self.network.bandwidth);
        c.put_bool(self.network.gpu_aware);
        c.put_f64(self.network.staging_bw);
        for st in &self.ranks {
            st.sim.config().put(c);
        }
        let bytes = w.to_bytes();
        telemetry::count("ckpt.bytes_written", bytes.len() as u64);
        bytes
    }

    /// Restore a cluster checkpointed by
    /// [`MultiRankSim::checkpoint_bytes`]: the single-domain snapshot is
    /// restored and validated first ([`Simulation::restore_bytes`]), then
    /// partitioned over the recorded rank count, and each rank gets its
    /// recorded configuration. To resume at another rank count, call
    /// [`MultiRankSim::new`] on [`Simulation::restore_bytes`] of the same
    /// bytes.
    pub fn restore_bytes(bytes: &[u8]) -> Result<Self, RestoreError> {
        let sim = Simulation::restore_bytes(bytes)?;
        let snap = Snapshot::from_bytes(bytes)?;
        let mut c = snap.section("cluster")?;
        let ranks = c.get_usize()?;
        let network = NetworkModel {
            latency: c.get_f64()?,
            bandwidth: c.get_f64()?,
            gpu_aware: c.get_bool()?,
            staging_bw: c.get_f64()?,
        };
        let g = &sim.grid;
        Decomposition::covering((g.nx, g.ny, g.nz), ranks)
            .map_err(|e| RestoreError::SchemaDrift(format!("cluster: {e}")))?;
        let configs =
            (0..ranks).map(|_| tuner::Config::get(&mut c)).collect::<Result<Vec<_>, _>>()?;
        c.finish()?;
        let mut mr = Self::new(&sim, ranks, network);
        for (r, cfg) in configs.iter().enumerate() {
            mr.set_rank_config(r, cfg);
        }
        Ok(mr)
    }
}

/// Build every rank's geometry and exchange plan. Two ranks exchange iff
/// their local arrays (owned block + halo shell) intersect in global
/// space; the pair's overlap list is enumerated in ascending global-cell
/// order on both sides, so buffer position identifies the cell without
/// shipping indices. Current partials cover the whole overlap, field
/// halos only the cells [`RankPlan::field_images`] names.
fn build_plans(decomp: &Decomposition, global: &Grid) -> Vec<RankPlan> {
    let nranks = decomp.ranks();
    // per-rank: global cell → local images, plus local_to_global
    let mut maps: Vec<BTreeMap<u32, Vec<u32>>> = Vec::with_capacity(nranks);
    let mut plans: Vec<RankPlan> = Vec::with_capacity(nranks);
    for r in 0..nranks {
        let origin = decomp.local_origin(r);
        let extent = decomp.local_extent(r);
        let (lx, ly, lz) = extent;
        let local = Grid::new(lx + 3, ly + 3, lz + 3);
        let mut l2g = vec![0u32; local.cells()];
        let mut map: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for (lv, g) in l2g.iter_mut().enumerate() {
            let (x, y, z) = local.coords(lv);
            let gx = (origin.0 + x + global.nx - 1) % global.nx;
            let gy = (origin.1 + y + global.ny - 1) % global.ny;
            let gz = (origin.2 + z + global.nz - 1) % global.nz;
            *g = global.voxel(gx, gy, gz) as u32;
            map.entry(*g).or_default().push(lv as u32);
        }
        maps.push(map);
        plans.push(RankPlan {
            origin,
            extent,
            grid: local,
            global: global.clone(),
            local_to_global: l2g,
            route: Vec::new(),
            shared: Vec::new(),
            links: Vec::new(),
        });
    }
    // shared cells: multiplicity > 1 locally, or present in another rank
    let mut shared_keys: Vec<BTreeSet<u32>> = maps
        .iter()
        .map(|m| m.iter().filter(|(_, v)| v.len() > 1).map(|(&k, _)| k).collect())
        .collect();
    let mut pair_overlap: BTreeMap<(usize, usize), Vec<u32>> = BTreeMap::new();
    for r in 0..nranks {
        for n in (r + 1)..nranks {
            let (small, large) = if maps[r].len() <= maps[n].len() { (r, n) } else { (n, r) };
            let inter: Vec<u32> = maps[small]
                .keys()
                .filter(|k| maps[large].contains_key(k))
                .copied()
                .collect();
            if inter.is_empty() {
                continue;
            }
            for &g in &inter {
                shared_keys[r].insert(g);
                shared_keys[n].insert(g);
            }
            pair_overlap.insert((r, n), inter);
        }
    }
    // materialize shared tables and position lookups
    let mut shared_pos: Vec<BTreeMap<u32, u32>> = Vec::with_capacity(nranks);
    for r in 0..nranks {
        let mut table = Vec::with_capacity(shared_keys[r].len());
        let mut pos = BTreeMap::new();
        for (i, &g) in shared_keys[r].iter().enumerate() {
            table.push((g, maps[r][&g].clone()));
            pos.insert(g, i as u32);
        }
        plans[r].shared = table;
        shared_pos.push(pos);
    }
    // links: remote pairs, then the periodic self-copy link
    let owner_of = |g: u32| {
        let (gx, gy, gz) = global.coords(g as usize);
        decomp.owner(gx, gy, gz)
    };
    for (&(r, n), overlap) in &pair_overlap {
        let mk = |me: usize, other: usize| -> Link {
            let mut link = Link {
                rank: other,
                back: 0,
                acc_pos: Vec::with_capacity(overlap.len()),
                field_src: Vec::new(),
                field_dst: Vec::new(),
                field_dst_off: vec![0],
            };
            for &g in overlap {
                link.acc_pos.push(shared_pos[me][&g]);
                let o = owner_of(g);
                let fields = |r: usize| plans[r].field_images(&maps[r][&g]);
                if o == me && fields(other).next().is_some() {
                    link.field_src.push(plans[me].canonical(g));
                } else if o == other && fields(me).next().is_some() {
                    link.field_dst.extend(fields(me));
                    link.field_dst_off.push(link.field_dst.len() as u32);
                }
            }
            link
        };
        let link_rn = mk(r, n);
        let link_nr = mk(n, r);
        debug_assert_eq!(link_rn.field_src.len(), link_nr.field_dst_off.len() - 1);
        debug_assert_eq!(link_nr.field_src.len(), link_rn.field_dst_off.len() - 1);
        plans[r].links.push(link_rn);
        plans[n].links.push(link_nr);
    }
    // the loop body indexes several parallel per-rank arrays
    #[allow(clippy::needless_range_loop)]
    for r in 0..nranks {
        plans[r].links.sort_by_key(|l| l.rank);
        // periodic self-copies: a cell this rank owns that also appears
        // as halo images of itself (single-rank axes)
        let mut link = Link {
            rank: r,
            back: 0,
            acc_pos: Vec::new(),
            field_src: Vec::new(),
            field_dst: Vec::new(),
            field_dst_off: vec![0],
        };
        for (g, images) in &plans[r].shared {
            if owner_of(*g) != r {
                continue;
            }
            let canon = plans[r].canonical(*g);
            let start = link.field_dst.len();
            link.field_dst.extend(plans[r].field_images(images).filter(|&img| img != canon));
            if link.field_dst.len() > start {
                link.field_src.push(canon);
                link.field_dst_off.push(link.field_dst.len() as u32);
            }
        }
        if !link.field_src.is_empty() {
            plans[r].links.push(link);
        }
    }
    // with the link order final, name every link's twin and route every
    // local cell: an image of a cell another rank owns migrates over the
    // link to its owner. Links are built in pairs, so the lookups hold by
    // construction — checked here, once, so that a step has nothing left
    // to look up
    let link_to = |plans: &[RankPlan], r: usize, peer: usize| {
        plans[r].links.iter().position(|l| l.rank == peer).expect("links are symmetric")
    };
    for r in 0..nranks {
        for li in 0..plans[r].links.len() {
            plans[r].links[li].back = link_to(&plans, plans[r].links[li].rank, r);
        }
        let route = plans[r].local_to_global.iter().enumerate().map(|(lv, &g)| {
            let owner = owner_of(g);
            if owner != r {
                Route::Remote(link_to(&plans, r, owner) as u32)
            } else if plans[r].canonical(g) as usize == lv {
                Route::Owned
            } else {
                Route::Remap(plans[r].canonical(g))
            }
        });
        plans[r].route = route.collect();
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems;
    use vpic_core::Deck;

    fn net() -> NetworkModel {
        systems::selene().network
    }

    /// One step of two ranks on two lanes over a 4³ deck: a rank point
    /// smaller than any of the differential lattice's
    /// (`tests/lattice/mod.rs`), the step CI's Miri job can afford.
    #[test]
    fn two_ranks_on_two_lanes_step_a_four_cubed_deck() {
        let mut reference = Deck::weibel(4, 4, 4, 1, 0.3).build();
        let mut mr = MultiRankSim::new(&reference, 2, net());
        // the portable strategy: no vendor intrinsics for Miri to model
        let auto = tuner::Config::unsorted(vsimd::Strategy::Auto, pk::atomic::ScatterMode::Atomic);
        for r in 0..2 {
            mr.set_rank_config(r, &auto);
        }
        reference.step();
        mr.step_on(&pk::Threads::new(2));
        assert_eq!(mr.gather().bit_diff(&reference), None, "2 ranks on 2 lanes");
    }

    #[test]
    fn per_rank_scheduled_sort_fires_and_keeps_gather_bit_identical() {
        let reference = Deck::weibel(8, 8, 8, 2, 0.3).build();
        let mut plain = MultiRankSim::new(&reference, 4, net());
        let mut sorted = MultiRankSim::new(&reference, 4, net());
        let strided = tuner::Config::sorted(
            psort::SortOrder::Strided,
            1,
            vsimd::Strategy::Auto,
            pk::atomic::ScatterMode::Duplicated,
        );
        for r in 0..4 {
            sorted.set_rank_config(r, &strided);
        }
        for step in 1..=3 {
            plain.step();
            sorted.step();
            // the scheduled per-rank sort actually reorders the streams…
            let moved = (0..4).any(|r| {
                sorted.ranks[r].sim.species.iter().zip(&plain.ranks[r].sim.species).any(
                    |(ss, ps)| ss.cell != ps.cell,
                )
            });
            assert!(moved, "step {step}: strided sort left every rank untouched");
            // …while the id maps follow the permutation, so the gathered
            // canonical-order state stays bit-identical
            assert_eq!(plain.gather().bit_diff(&sorted.gather()), None, "sorted step {step}");
        }
    }

    #[test]
    fn migration_stats_aggregate_across_species() {
        let mut reference = Deck::weibel(8, 8, 8, 4, 0.3).build();
        let mut mr = MultiRankSim::new(&reference, 8, net());
        let mut any = false;
        for _ in 0..6 {
            reference.step();
            let (_, m, _) = mr.step();
            assert!(m.max_out_of_rank <= m.migrants, "peak cannot exceed total");
            assert_eq!(m.total, reference.particle_count());
            if m.migrants > 0 {
                any = true;
                // the per-rank peak must bound migrants / ranks (pigeonhole
                // over the *summed* species counts)
                assert!(m.max_out_of_rank * mr.ranks() >= m.migrants);
            }
        }
        assert!(any, "a 0.3c beam deck must migrate particles");
    }

    #[test]
    fn ranks_stay_balanced_and_migration_grows_with_rank_count() {
        let sim = Deck::uniform(8, 8, 8, 8).build();
        let pops = MultiRankSim::new(&sim, 8, net()).rank_populations();
        assert_eq!(pops.iter().sum::<usize>(), sim.particle_count());
        let (mn, mx) = (pops.iter().min().unwrap(), pops.iter().max().unwrap());
        assert!(*mx < 2 * *mn, "uniform deck → roughly balanced ranks: {pops:?}");
        let mean_fraction = |ranks| {
            let mut mr = MultiRankSim::new(&sim, ranks, net());
            (0..5).map(|_| mr.step().1.fraction()).sum::<f64>() / 5.0
        };
        // thermal vth = 0.05 → well under 10% of particles cross a rank
        // boundary per step; more ranks → more boundary surface
        let (few, many) = (mean_fraction(2), mean_fraction(8));
        assert!(many > 0.0 && many < 0.1, "migration fraction {many}");
        assert!(many > few, "{many} vs {few}");
    }

    #[test]
    fn single_rank_charges_no_network_time() {
        let reference = Deck::weibel(8, 8, 8, 2, 0.3).build();
        let mut mr = MultiRankSim::new(&reference, 1, net());
        for _ in 0..3 {
            let (_, m, t) = mr.step();
            assert_eq!(m.migrants, 0, "periodic self-crossings are remaps, not migrants");
            assert_eq!(t.modeled_exchange_s, 0.0);
            assert_eq!(t.exposed_exchange_s, 0.0);
        }
    }

    #[test]
    fn exchange_counters_and_span_recorded() {
        let msgs0 = telemetry::counter("cluster.messages");
        let halo0 = telemetry::counter("cluster.halo_bytes");
        let was_enabled = telemetry::enabled();
        telemetry::set_enabled(true);
        let reference = Deck::weibel(8, 8, 8, 2, 0.3).build();
        let mut mr = MultiRankSim::new(&reference, 8, net());
        mr.step();
        telemetry::set_enabled(was_enabled);
        assert!(telemetry::counter("cluster.messages") > msgs0, "directed messages recorded");
        assert!(telemetry::counter("cluster.halo_bytes") > halo0, "halo payload recorded");
    }

    /// A clock whose five exchanges are all charged `charge`, with unit
    /// compute segments except the ones a test sets.
    fn clock(charge: f64) -> RankClock {
        RankClock {
            push: 1.0,
            b1: 1.0,
            merge: 1.0,
            unload: 1.0,
            bfill: 1.0,
            e: 1.0,
            b2i: 1.0,
            efill: 1.0,
            b2b: 1.0,
            append: 1.0,
            b2fill: 1.0,
            x_acc: charge,
            x_b: charge,
            x_e: charge,
            x_mig: charge,
            x_b2: charge,
        }
    }

    #[test]
    fn a_window_hides_its_exchange_up_to_its_own_length() {
        // every window is at least one segment long: charges of 1 vanish
        assert_eq!(clock(1.0).overlap(), (11.0, 5.0, 0.0));
        // charges of 1.5: the one-segment windows (accumulator behind B½,
        // E behind the interior B½, post-advance B behind the append)
        // expose the half they cannot cover, merge + unload covers the B
        // halos, and the migrants have eight segments
        assert_eq!(clock(1.5).overlap(), (11.0, 7.5, 1.5));
        // no window at all exposes the whole charge
        let bare = RankClock { x_acc: 0.25, x_mig: 0.5, ..RankClock::default() };
        assert_eq!(bare.overlap(), (0.0, 0.75, 0.75));
    }

    #[test]
    fn the_migration_window_spans_the_first_b_half_through_the_boundary_shells() {
        // B½, merge, unload, B fill, E, interior B½, E fill, shells: eight
        // segments — neither the push before nor the append after counts
        let migrants_only =
            |x_mig| RankClock { x_mig, push: 100.0, append: 100.0, ..clock(0.0) }.overlap();
        assert_eq!(migrants_only(8.0), (209.0, 8.0, 0.0));
        assert_eq!(migrants_only(9.0), (209.0, 9.0, 1.0));
        // each of the eight lengthens the window by its own time
        let segments: [fn(&mut RankClock) -> &mut f64; 8] = [
            |c| &mut c.b1,
            |c| &mut c.merge,
            |c| &mut c.unload,
            |c| &mut c.bfill,
            |c| &mut c.e,
            |c| &mut c.b2i,
            |c| &mut c.efill,
            |c| &mut c.b2b,
        ];
        for (i, segment) in segments.iter().enumerate() {
            let mut c = RankClock { x_mig: 9.0, ..clock(0.0) };
            *segment(&mut c) += 1.0;
            assert_eq!(c.overlap().2, 0.0, "segment {i}");
        }
    }

    #[test]
    fn executed_step_timing_is_consistent_on_weibel() {
        let reference = Deck::weibel(16, 16, 16, 4, 0.3).build();
        let mut mr = MultiRankSim::new(&reference, 8, net());
        for step in 0..5 {
            let (_, _, t) = mr.step();
            assert!(t.modeled_exchange_s > 0.0, "8 ranks must exchange");
            let parts = t.hidden_exchange_s + t.exposed_exchange_s;
            assert!(
                (parts - t.modeled_exchange_s).abs() <= 1e-12 * t.modeled_exchange_s,
                "step {step}: hidden + exposed = {parts} vs modeled {}",
                t.modeled_exchange_s
            );
            let hidden_fraction = t.hidden_exchange_s / t.modeled_exchange_s;
            assert!((0.0..=1.0).contains(&hidden_fraction), "step {step}: {hidden_fraction}");
            // the slowest rank's compute + exposed: at least the largest
            // compute wall, at most that plus every rank's exposed time
            assert!(t.step_s >= t.compute_s, "step {step}");
            assert!(t.step_s <= t.compute_s + t.exposed_exchange_s, "step {step}");
        }
    }

    #[test]
    fn truncated_checkpoint_is_rejected() {
        let reference = Deck::weibel(8, 8, 8, 2, 0.3).build();
        let mut a = MultiRankSim::new(&reference, 2, net());
        a.run(2);
        let snap = a.checkpoint_bytes();
        let cut = ckpt::faults::truncated(&snap, snap.len() - 7);
        assert!(
            MultiRankSim::restore_bytes(&cut).is_err(),
            "truncation must map to a typed error, never Ok"
        );
    }
}
