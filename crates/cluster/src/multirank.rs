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
//! drain, deposition partials, first half B advance, *pack* B; (2) add
//! the holders' partials into the owned cells, *unpack* B, E advance from
//! the edge totals with the laser on the owned rows, *pack* E, interior
//! half B advance; (3) *unpack* E, boundary shells, *pack* B, append the
//! migrants; (4) *unpack* B, close the step.
//!
//! ## The exchange plan
//!
//! Every local cell is either the canonical copy of a cell its rank owns
//! or an *image* of a cell some rank owns — a neighbor, or the rank
//! itself on an axis it spans alone. A rank groups its images by owner
//! into one holder → owner `Link` each, cells ascending by global id,
//! and every owner lists the links that hold its cells. All three
//! exchanges run over that one plan: each holder sends the owner its
//! images' current summed per cell, the owner sends back the field
//! values of the cells the field kernels read, and a particle that
//! crossed into an image leaves over the link to the cell's owner. Only
//! the owner's canonical cell takes the merged current; the E an image's
//! current advances is overwritten by the owner's before anything reads
//! it.
//!
//! One rule makes that safe without `unsafe`: inside a superstep a rank
//! mutates only its own `RankState` and reads only what a peer
//! *published in an earlier superstep*. What a peer may read — per-link
//! partials and migrant outboxes, packed halo values per holding link — a rank
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
//!   partials, so the owner's total of a cell — its own deposits plus
//!   every holder's images — is an integer sum: exactly associative and
//!   commutative, independent of which rank's array a segment landed in.
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
//! up. No field kernel reads its values.
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
use std::collections::BTreeMap;
use vpic_core::accumulate::{Drive, EDGES};
use vpic_core::push::PushStats;
use vpic_core::sim::LaserDriver;
use vpic_core::{FieldArray, Grid, ParticleRecord, Simulation};

/// Bytes shipped per migrating particle: the 32-byte phase-space record
/// plus the 4-byte global id that keeps gather order canonical.
pub(crate) const MIGRANT_BYTES: usize = 36;

/// Room a rank species' columns and ids get beyond the particles the
/// rank starts with: `count / 8 + 16`, a population drift of 12.5 % of
/// the count plus 16. Migration moves a rank's population only by its
/// net inflow; on the benchmark's Weibel deck (32³, 4 ranks) the beams'
/// filaments moved a rank species by up to 6.1 % in 1 000 steps, and
/// `set_up_sizes_every_rank_array_once` holds a small Weibel deck inside
/// the headroom. Room no particle reaches is never touched, so it costs
/// address space, not resident memory. A rank that outgrows it grows its
/// arrays the way a `Vec` does.
fn headroom(count: usize) -> usize {
    count / 8 + 16
}

/// Bytes per halo cell per field exchange (3 components × f32).
pub(crate) const FIELD_HALO_BYTES: usize = 12;

/// Bytes per linked cell for the current exchange (3 fixed-point i64
/// edge totals).
pub(crate) const ACC_HALO_BYTES: usize = EDGES * 8;

/// What a local cell is, for a particle found in it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Route {
    /// The canonical copy of a cell this rank owns: stays put.
    Owned,
    /// An image of a cell this rank owns (periodic self-neighbor axis):
    /// remap to the canonical local index, no migration.
    Remap(u32),
    /// An image of a cell another rank owns: migrate over the link with
    /// this index in the rank's `links`.
    Remote(u32),
}

/// The images one rank, the holder, keeps of the cells one owner owns
/// (the holder itself on an axis it spans alone), cells ascending by
/// global id. The owner reads the holder's link from the shared plans,
/// so position `k` names the same cell on both sides and no index ships.
#[derive(Debug, Clone)]
struct Link {
    /// The rank that owns the link's cells.
    owner: usize,
    /// This link's position in the owner's `held_by`.
    back: usize,
    /// The owner's canonical local index of cell `k`.
    canon: Vec<u32>,
    /// The holder's images of cell `k`: `images[off[k]..off[k + 1]]`.
    images: Vec<u32>,
    off: Vec<u32>,
    /// The cells `k` with an image the field kernels read, ascending.
    fields: Vec<u32>,
}

impl Link {
    fn images(&self, k: usize) -> &[u32] {
        &self.images[self.off[k] as usize..self.off[k + 1] as usize]
    }
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
    /// This rank's images, one link per owner, ascending by owner.
    links: Vec<Link>,
    /// The links that hold this rank's cells: `(holder, index into the
    /// holder's links)`, ascending by holder.
    held_by: Vec<(usize, usize)>,
}

impl RankPlan {
    /// Whether the field kernels read local cell `lv`: a cell of the owned
    /// block or the one-cell shell around it, not of the second plus-side
    /// shell.
    fn field_read(&self, lv: u32) -> bool {
        let ((x, y, z), (lx, ly, lz)) = (self.grid.coords(lv as usize), self.extent);
        x <= lx + 1 && y <= ly + 1 && z <= lz + 1
    }

    /// Canonical local index of an owned global cell.
    fn canonical(&self, g: u32) -> u32 {
        let (gx, gy, gz) = self.global.coords(g as usize);
        let (ox, oy, oz) = self.origin;
        self.grid.voxel(gx - ox + 1, gy - oy + 1, gz - oz + 1) as u32
    }

    /// The links to another rank.
    fn remote_links(&self, r: usize) -> impl Iterator<Item = &Link> {
        self.links.iter().filter(move |l| l.owner != r)
    }

    /// One field-halo exchange as rank `r` receives it, a directed message
    /// per remote link with cells to read: `(modeled s, messages, bytes)`.
    fn halo_charge(&self, r: usize, network: &NetworkModel) -> (f64, u64, u64) {
        let mut charge = (0.0, 0, 0);
        for link in self.remote_links(r).filter(|l| !l.fields.is_empty()) {
            let bytes = link.fields.len() * FIELD_HALO_BYTES;
            charge.0 += network.message_time(bytes as f64);
            charge.1 += 1;
            charge.2 += bytes as u64;
        }
        charge
    }
}

/// Wrapping integer adds of one cell's edge totals: `dst += src`.
fn add_edges(dst: &mut [i64; EDGES], src: &[i64; EDGES]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = d.wrapping_add(*s);
    }
}

/// A migrating particle in flight: species index, global load index, and
/// the phase-space record with `cell` rewritten to the *global* cell id.
#[derive(Debug, Clone, Copy)]
struct Migrant {
    species: u32,
    id: u32,
    rec: ParticleRecord,
}

/// Everything one rank writes for its peers: filled in its own
/// [`RankState`], read by a peer only from the `published` table.
#[derive(Debug)]
struct Sends {
    /// Per link, the deposition partials of each cell: its images summed.
    partials: Vec<Vec<[i64; EDGES]>>,
    /// Out-migrants per link, in drain order.
    migrants: Vec<Vec<Migrant>>,
    /// Per `held_by` entry, the last-packed triple (B or E) of each of the
    /// holder's `fields` cells.
    halo: Vec<Vec<[f32; 3]>>,
}

impl Sends {
    fn for_rank(r: usize, plans: &[RankPlan]) -> Self {
        let plan = &plans[r];
        let fields = |&(h, li): &(usize, usize)| plans[h].links[li].fields.len();
        Self {
            partials: plan.links.iter().map(|l| vec![[0; EDGES]; l.canon.len()]).collect(),
            migrants: vec![Vec::new(); plan.links.len()],
            halo: plan.held_by.iter().map(|held| vec![[0.0; 3]; fields(held)]).collect(),
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
        let [ex, ey, ez, bx, by, bz] = f.arrays_mut();
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
    /// point: the current exchange by the first B half-advance, the B
    /// halos by the merge, the E halos by the interior B half-advance,
    /// the migrants by everything from the first B half-advance through
    /// the boundary shells, the post-advance B halos by the migrant append.
    /// What a window does not cover extends the step.
    fn overlap(&self) -> (f64, f64, f64) {
        let through_shells =
            self.b1 + self.merge + self.bfill + self.e + self.b2i + self.efill + self.b2b;
        let compute = self.push + through_shells + self.append + self.b2fill;
        let waits = [
            (self.x_acc, self.b1),
            (self.x_b, self.merge),
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
    ids: Vec<Vec<u32>>,
    /// What this rank is writing for its peers ([`publish`]).
    sends: Sends,
    tally: Tally,
    /// Reusable scratch: out-migrants' indices, the migrants taken from
    /// the peers' outboxes.
    drain_idx: Vec<usize>,
    incoming: Vec<Migrant>,
}

impl RankState {
    fn new(sim: Simulation, ids: Vec<Vec<u32>>, sends: Sends) -> Self {
        Self {
            sim,
            ids,
            sends,
            tally: Tally::default(),
            drain_idx: Vec::new(),
            incoming: Vec::new(),
        }
    }

    /// Superstep 1, on the rank's own state alone: due sort, push, drain
    /// and partials, then the first half B advance and the B pack behind
    /// the accumulator and migrant exchanges.
    fn push_pack(&mut self, r: usize, plans: &[RankPlan], net: &NetworkModel) {
        let plan = &plans[r];
        let _rs = telemetry::rank_span("cluster.rank_push", r);
        let mut tally = Tally::default();
        let t0 = telemetry::now_ns();
        // `step_on`'s scheduled sort, entered here, not in `begin_step`,
        // because the id maps parallel the SoA arrays and follow the same
        // permutation. Bit-safe: it permutes records within a rank, and
        // the gather goes by id (the per-rank tuning contract below).
        self.sim.sort_if_due(&pk::Serial, Some(&mut self.ids));
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
        // deposition partials: each link's images summed per cell
        for (sums, link) in self.sends.partials.iter_mut().zip(&plan.links) {
            for (k, sum) in sums.iter_mut().enumerate() {
                *sum = [0; EDGES];
                for &img in link.images(k) {
                    add_edges(sum, &self.sim.acc_cell_raw(img as usize));
                }
            }
        }
        tally.clock.push = since(t0);
        // the current exchange: one directed message per remote link
        for link in plan.remote_links(r) {
            let bytes = link.canon.len() * ACC_HALO_BYTES;
            tally.clock.x_acc += net.message_time(bytes as f64);
            tally.messages += 1;
            tally.halo_bytes += bytes as u64;
        }
        let t0 = telemetry::now_ns();
        let strategy = self.sim.strategy;
        self.sim.fields.advance_b_on(&pk::Serial, strategy, 0.5);
        self.pack_halos(r, plans, FieldSet::B);
        tally.clock.b1 = since(t0);
        // the three field-halo exchanges of a step move the same cells:
        // B before the E advance (hidden by the merge), E (hidden by
        // the interior B half-advance), B after the advance
        let (time, messages, bytes) = plan.halo_charge(r, net);
        tally.clock.x_b = time;
        tally.clock.x_e = time;
        tally.clock.x_b2 = time;
        tally.messages += 3 * messages;
        tally.halo_bytes += 3 * bytes;
        self.tally = tally;
    }

    /// Superstep 2, after the current and B exchanges: merge, unpack B,
    /// advance E from the edge totals with the laser's drive on the owned
    /// rows of its plane, pack E, then the interior half B advance while
    /// the E exchange is in flight.
    fn merge_and_advance_e(&mut self, r: usize, seen: Seen, drive: Option<(usize, f32)>) {
        let plan = &seen.plans[r];
        let t0 = telemetry::now_ns();
        // every holder's partials, this rank's own images included, added
        // into the canonical cells: the owned totals are whole, and no
        // image's current is read again
        for &(h, li) in &plan.held_by {
            let partials = &seen.published[h].partials[li];
            for (&c, partial) in seen.plans[h].links[li].canon.iter().zip(partials) {
                let mut total = self.sim.acc_cell_raw(c as usize);
                add_edges(&mut total, partial);
                self.sim.acc_set_cell_raw(c as usize, &total);
            }
        }
        self.tally.clock.merge = since(t0);
        let t0 = telemetry::now_ns();
        self.unpack_halos(r, seen, FieldSet::B);
        self.tally.clock.bfill = since(t0);
        let t0 = telemetry::now_ns();
        let (ox, (lx, ly, lz)) = (plan.origin.0, plan.extent);
        let drive = drive.filter(|(plane, _)| (ox..ox + lx).contains(plane)).map(|(plane, value)| {
            Drive { value, x: plane - ox + 1, ys: 1..ly + 1, zs: 1..lz + 1 }
        });
        self.sim.advance_e_from_totals(drive.as_ref());
        self.pack_halos(r, seen.plans, FieldSet::E);
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
        self.pack_halos(r, seen.plans, FieldSet::B);
        self.tally.clock.b2b = since(t0);
        let t0 = telemetry::now_ns();
        // the holding links ascend by holder: the outboxes are taken in
        // ascending source rank, and the receiver is charged each incoming
        // send (a rank's link to itself carries none: those are remaps)
        self.incoming.clear();
        for &(h, li) in &plan.held_by {
            let sent = &seen.published[h].migrants[li];
            if !sent.is_empty() {
                self.tally.clock.x_mig += net.message_time((sent.len() * MIGRANT_BYTES) as f64);
                self.tally.messages += 1;
                self.incoming.extend_from_slice(sent);
            }
        }
        // the keys are unique: an unstable sort gives the one order, and
        // makes no buffer
        self.incoming.sort_unstable_by_key(|m| (m.species, m.id));
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
    /// every cell a holder's field kernels read an image of.
    fn pack_halos(&mut self, r: usize, plans: &[RankPlan], set: FieldSet) {
        let [x, y, z] = set.of(&mut self.sim.fields);
        for (packed, &(h, li)) in self.sends.halo.iter_mut().zip(&plans[r].held_by) {
            let link = &plans[h].links[li];
            for (slot, &k) in packed.iter_mut().zip(&link.fields) {
                let c = link.canon[k as usize] as usize;
                *slot = [x[c], y[c], z[c]];
            }
        }
    }

    /// The receive half, its wire time charged at launch: the owner's
    /// values, packed a superstep ago (by this rank itself on a periodic
    /// self link), land in every image of the cells.
    fn unpack_halos(&mut self, r: usize, seen: Seen, set: FieldSet) {
        let _s = telemetry::rank_span("cluster.halo_fill", r);
        let [x, y, z] = set.of(&mut self.sim.fields);
        for link in &seen.plans[r].links {
            let packed = &seen.published[link.owner].halo[link.back];
            debug_assert_eq!(packed.len(), link.fields.len());
            for (&k, value) in link.fields.iter().zip(packed) {
                for &img in link.images(k as usize) {
                    let img = img as usize;
                    (x[img], y[img], z[img]) = (value[0], value[1], value[2]);
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
    /// The virtual step — every rank on a device of its own: max over
    /// ranks of measured compute + modeled exposed exchange, s.
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
    /// The particles scatter by count: each global cell's home (its owner
    /// and the owner's canonical local cell) is looked up in one table,
    /// each rank's particles are counted per species, and each rank
    /// species' eight arrays and ids are made once, at the count plus a
    /// fixed headroom of an eighth of it and 16 more for migration, then
    /// filled in ascending load index.
    ///
    /// Per-rank sims start with no sort scheduled;
    /// [`MultiRankSim::set_rank_config`] schedules one per rank, and the
    /// gathered state is bit-identical to the single-rank run either way.
    ///
    /// # Panics
    /// Panics if the decomposition leaves any rank without cells (more
    /// ranks than cells along an axis): such degenerate layouts are
    /// rejected, not emulated. Panics if a species holds more particles
    /// than a `u32` id can name.
    pub fn new(sim: &Simulation, ranks: usize, network: NetworkModel) -> Self {
        let g = sim.grid.clone();
        let decomp =
            Decomposition::covering((g.nx, g.ny, g.nz), ranks).unwrap_or_else(|e| panic!("{e}"));
        let plans = build_plans(&decomp, &g);
        // every global cell's home: the rank that owns it and the one local
        // cell of that rank routed nowhere, its canonical copy
        let mut home = vec![(0u32, 0u32); g.cells()];
        for (r, plan) in plans.iter().enumerate() {
            for (lv, &gv) in plan.local_to_global.iter().enumerate() {
                if plan.route[lv] == Route::Owned {
                    home[gv as usize] = (r as u32, lv as u32);
                }
            }
        }
        let mut counts = vec![vec![0; sim.species.len()]; plans.len()];
        for (si, s) in sim.species.iter().enumerate() {
            let (name, n) = (&s.name, s.len());
            assert!(u32::try_from(n).is_ok(), "species {name:?}: {n} particles overflow a u32 id");
            for &c in &s.cell {
                counts[home[c as usize].0 as usize][si] += 1;
            }
        }
        let mut states: Vec<RankState> = plans
            .iter()
            .zip(&counts)
            .enumerate()
            .map(|(r, (plan, counts))| {
                debug_assert_eq!(plan.grid.dt, g.dt, "unit cells: dt is extent-independent");
                let mut rsim = Simulation::new(plan.grid.clone());
                rsim.strategy = sim.strategy;
                let mut ids = Vec::with_capacity(counts.len());
                for (s, &count) in sim.species.iter().zip(counts) {
                    let room = count + headroom(count);
                    let mut rs = vpic_core::Species::new(s.name.clone(), s.q, s.m);
                    rs.reserve(room);
                    rsim.add_species(rs);
                    ids.push(Vec::with_capacity(room));
                }
                RankState::new(rsim, ids, Sends::for_rank(r, &plans))
            })
            .collect();
        // in ascending load index, carrying it as the identity the gather
        // reassembles
        for (si, s) in sim.species.iter().enumerate() {
            for p in 0..s.len() {
                let (r, canon) = home[s.cell[p] as usize];
                let st = &mut states[r as usize];
                let mut rec = s.record(p);
                rec.cell = canon;
                st.sim.species[si].push_record(&rec);
                st.ids[si].push(p as u32);
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
            published: (0..plans.len()).map(|r| Sends::for_rank(r, &plans)).collect(),
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
        space.parallel_for_mut(ranks, |r, st| st.push_pack(r, plans, net));
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
            timing.step_s = timing.step_s.max(compute + exposed);
        }
        if telemetry::enabled() {
            telemetry::count("cluster.migrants", mig.migrants as u64);
            telemetry::count("cluster.bytes_moved", (mig.migrants * MIGRANT_BYTES) as u64);
            telemetry::count("cluster.halo_bytes", halo_bytes);
            telemetry::count("cluster.messages", messages);
            // exposed is the exchange that extends the step, hidden what
            // the compute windows absorbed
            let exposed = timing.exposed_exchange_s;
            let hidden = timing.modeled_exchange_s - exposed;
            telemetry::count("cluster.exposed_exchange_ns", (exposed * 1e9) as u64);
            telemetry::count("cluster.hidden_exchange_ns", (hidden * 1e9) as u64);
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

/// Build every rank's geometry and exchange plan: each rank's images
/// grouped by owner into one [`Link`] each (module docs), cells ascending
/// by global id, and each owner's `held_by`, ascending by holder.
fn build_plans(decomp: &Decomposition, global: &Grid) -> Vec<RankPlan> {
    let mut plans: Vec<RankPlan> = (0..decomp.ranks())
        .map(|r| {
            let (origin, extent) = (decomp.local_origin(r), decomp.local_extent(r));
            let grid = Grid::new(extent.0 + 3, extent.1 + 3, extent.2 + 3);
            // local cell → global by periodic wrap, the halo one cell below
            let wrap = |o: usize, x: usize, n: usize| (o + x + n - 1) % n;
            let local_to_global = (0..grid.cells())
                .map(|lv| {
                    let (x, y, z) = grid.coords(lv);
                    let (nx, ny, nz) = (global.nx, global.ny, global.nz);
                    let (gx, gy, gz) = (wrap(origin.0, x, nx), wrap(origin.1, y, ny), wrap(origin.2, z, nz));
                    global.voxel(gx, gy, gz) as u32
                })
                .collect();
            RankPlan {
                origin,
                extent,
                grid,
                global: global.clone(),
                local_to_global,
                route: Vec::new(),
                links: Vec::new(),
                held_by: Vec::new(),
            }
        })
        .collect();
    let owner_of = |g: u32| {
        let (gx, gy, gz) = global.coords(g as usize);
        decomp.owner(gx, gy, gz)
    };
    for r in 0..plans.len() {
        let plan = &plans[r];
        // every image, by owner and then by global cell
        let mut images: BTreeMap<(usize, u32), Vec<u32>> = BTreeMap::new();
        for (lv, &g) in plan.local_to_global.iter().enumerate() {
            let owner = owner_of(g);
            if owner != r || plan.canonical(g) as usize != lv {
                images.entry((owner, g)).or_default().push(lv as u32);
            }
        }
        let mut route = vec![Route::Owned; plan.grid.cells()];
        let mut links: Vec<Link> = Vec::new();
        for ((owner, g), group) in images {
            if links.last().is_none_or(|l| l.owner != owner) {
                let (canon, images, fields) = (Vec::new(), Vec::new(), Vec::new());
                links.push(Link { owner, back: 0, canon, images, off: vec![0], fields });
            }
            let li = links.len() - 1;
            let (link, canon) = (&mut links[li], plans[owner].canonical(g));
            for &lv in &group {
                route[lv as usize] = if owner == r { Route::Remap(canon) } else { Route::Remote(li as u32) };
            }
            if group.iter().any(|&lv| plan.field_read(lv)) {
                link.fields.push(link.canon.len() as u32);
            }
            link.canon.push(canon);
            link.images.extend(group);
            link.off.push(link.images.len() as u32);
        }
        (plans[r].route, plans[r].links) = (route, links);
    }
    // every owner lists the links that hold its cells, ascending by holder
    for r in 0..plans.len() {
        for li in 0..plans[r].links.len() {
            let owner = plans[r].links[li].owner;
            plans[r].links[li].back = plans[owner].held_by.len();
            plans[owner].held_by.push((r, li));
        }
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

    /// The plan of every rank at the lattice's rank counts over its decks'
    /// grids (Weibel 6³, LPI 8 × 4 × 4, uniform 4³ and the 4 × 3 × 5
    /// `Thin` deck, whose blocks are one and two cells wide): each image
    /// sits in the one link to its cell's owner, and the two ends of a
    /// link agree on every cell.
    #[test]
    fn every_image_links_once_to_its_owner() {
        for (nx, ny, nz) in [(6, 6, 6), (8, 4, 4), (4, 4, 4), (4, 3, 5)] {
            let global = Grid::new(nx, ny, nz);
            for ranks in [1, 2, 4, 8, 16] {
                let decomp = Decomposition::covering((nx, ny, nz), ranks).unwrap();
                let plans = build_plans(&decomp, &global);
                let owner_of = |g: u32| {
                    let (gx, gy, gz) = global.coords(g as usize);
                    decomp.owner(gx, gy, gz)
                };
                let mut holders = 0;
                for (r, plan) in plans.iter().enumerate() {
                    let what = format!("{nx}×{ny}×{nz} on {ranks}, rank {r}");
                    let mut linked = vec![0; plan.grid.cells()];
                    let owners: Vec<usize> = plan.links.iter().map(|l| l.owner).collect();
                    assert!(owners.is_sorted_by(|a, b| a < b), "{what}: one link per owner, ascending");
                    for (li, link) in plan.links.iter().enumerate() {
                        let owner = &plans[link.owner];
                        assert_eq!(owner.held_by[link.back], (r, li), "{what}: link {li}'s back");
                        let mut cells = Vec::new();
                        for (k, &canon) in link.canon.iter().enumerate() {
                            let g = owner.local_to_global[canon as usize];
                            assert_eq!(owner.route[canon as usize], Route::Owned, "{what}: canon {k}");
                            for &img in link.images(k) {
                                linked[img as usize] += 1;
                                assert_eq!(plan.local_to_global[img as usize], g, "{what}: image of {k}");
                                assert_eq!(owner_of(g), link.owner, "{what}: cell {g}'s owner");
                            }
                            cells.push(g);
                            // the field kernels read the owned block and the
                            // one-cell shell around it
                            let (lx, ly, lz) = plan.extent;
                            let read = link.images(k).iter().any(|&img| {
                                let (x, y, z) = plan.grid.coords(img as usize);
                                x <= lx + 1 && y <= ly + 1 && z <= lz + 1
                            });
                            assert_eq!(link.fields.contains(&(k as u32)), read, "{what}: fields {k}");
                        }
                        assert!(!cells.is_empty() && cells.is_sorted_by(|a, b| a < b), "{what}: cells ascend");
                        assert!(link.fields.is_sorted_by(|a, b| a < b), "{what}: fields ascend");
                    }
                    for (lv, &g) in plan.local_to_global.iter().enumerate() {
                        let canonical = owner_of(g) == r && plan.canonical(g) as usize == lv;
                        assert_eq!(plan.route[lv] == Route::Owned, canonical, "{what}: cell {lv}");
                        assert_eq!(linked[lv], usize::from(!canonical), "{what}: cell {lv} in links");
                    }
                    let held: Vec<usize> = plan.held_by.iter().map(|&(h, _)| h).collect();
                    assert!(held.is_sorted_by(|a, b| a < b), "{what}: held_by ascends by holder");
                    holders += held.len();
                }
                let links: usize = plans.iter().map(|p| p.links.len()).sum();
                assert_eq!(holders, links, "{nx}×{ny}×{nz} on {ranks}: every link held once");
            }
        }
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

    /// The set-up makes every rank species' arrays and ids once, at its
    /// count plus the headroom, and the deck's migration stays inside the
    /// headroom, so over twenty steps, sorts included, no rank column or
    /// id buffer is made again.
    #[test]
    fn set_up_sizes_every_rank_array_once() {
        let reference = Deck::weibel(16, 16, 16, 8, 0.4).build();
        let mut mr = MultiRankSim::new(&reference, 4, net());
        let sorted = tuner::Config::sorted(
            psort::SortOrder::Standard,
            5,
            vsimd::Strategy::default(),
            pk::atomic::ScatterMode::Atomic,
        );
        for r in 0..4 {
            mr.set_rank_config(r, &sorted);
        }
        // every rank species' nine buffers as (address, capacity), sorted:
        // a sort rotates the buffers of the float columns among them
        let buffers = |mr: &MultiRankSim| -> Vec<Vec<(usize, usize)>> {
            let at = |p: *const u8, cap| (p as usize, cap);
            let mut all = Vec::new();
            for st in &mr.ranks {
                for (s, ids) in st.sim.species.iter().zip(&st.ids) {
                    let floats = [&s.dx, &s.dy, &s.dz, &s.ux, &s.uy, &s.uz, &s.w];
                    let mut bufs: Vec<_> =
                        floats.iter().map(|v| at(v.as_ptr().cast(), v.capacity())).collect();
                    bufs.push(at(s.cell.as_ptr().cast(), s.cell.capacity()));
                    bufs.push(at(ids.as_ptr().cast(), ids.capacity()));
                    bufs.sort_unstable();
                    all.push(bufs);
                }
            }
            all
        };
        let lens = |mr: &MultiRankSim| -> Vec<usize> {
            mr.ranks.iter().flat_map(|st| st.sim.species.iter().map(|s| s.len())).collect()
        };
        let (made, start) = (buffers(&mr), lens(&mr));
        for (bufs, &n) in made.iter().zip(&start) {
            for &(_, capacity) in bufs {
                assert!((n..=n + headroom(n)).contains(&capacity), "{n} particles, room for {capacity}");
            }
        }
        for step in 1..=20 {
            mr.step();
            for (&n, &n0) in lens(&mr).iter().zip(&start) {
                let grown = n.saturating_sub(n0);
                assert!(grown <= headroom(n0), "step {step}: {n0} → {n} particles outgrow the headroom");
            }
            assert_eq!(buffers(&mr), made, "step {step}: a rank array was made again");
        }
    }

    /// A step keeps no J: its E advance takes the current from the edge
    /// totals, so J is never sized — on `Serial`, on two lanes and on every
    /// rank of four, over a deck with a laser.
    #[test]
    fn a_step_never_sizes_j() {
        let deck = Deck::lpi(8, 4, 4, 2);
        let (mut serial, mut threads) = (deck.build(), deck.build());
        let mut ranks = MultiRankSim::new(&deck.build(), 4, net());
        let pool = pk::Threads::new(2);
        let no_j = |f: &FieldArray| [&f.jx, &f.jy, &f.jz].iter().all(|j| j.capacity() == 0);
        for step in 1..=5 {
            serial.step_on(&pk::Serial);
            threads.step_on(&pool);
            ranks.step();
            assert!(no_j(&serial.fields), "Serial, step {step}");
            assert!(no_j(&threads.fields), "two lanes, step {step}");
            for (r, st) in ranks.ranks.iter().enumerate() {
                assert!(no_j(&st.sim.fields), "rank {r} of 4, step {step}");
            }
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

    /// Telemetry sees a rank step's exchanges, and a rank's due sort as
    /// `Simulation::step_on`'s own: one `sim.sort` span per rank, and a
    /// `sim.species_sorted` count for every species it moved.
    #[test]
    fn exchange_counters_and_span_recorded() {
        let msgs0 = telemetry::counter("cluster.messages");
        let halo0 = telemetry::counter("cluster.halo_bytes");
        let exposed0 = telemetry::counter("cluster.exposed_exchange_ns");
        let hidden0 = telemetry::counter("cluster.hidden_exchange_ns");
        let sorted0 = telemetry::counter("sim.species_sorted");
        let reference = Deck::weibel(8, 8, 8, 2, 0.3).build();
        let mut mr = MultiRankSim::new(&reference, 8, net());
        // an order no other test sorts by, so only this test's spans carry it
        let order = psort::SortOrder::TiledStrided { tile: 5 };
        let atomic = pk::atomic::ScatterMode::Atomic;
        let cfg = tuner::Config::sorted(order, 1, vsimd::Strategy::default(), atomic);
        for r in 0..8 {
            mr.set_rank_config(r, &cfg);
        }
        let was_enabled = telemetry::enabled();
        telemetry::set_enabled(true);
        let (.., timing) = mr.step();
        telemetry::set_enabled(was_enabled);
        assert!(telemetry::counter("cluster.messages") > msgs0, "directed messages recorded");
        assert!(telemetry::counter("cluster.halo_bytes") > halo0, "halo payload recorded");
        // the step's exchange split in ns; other tests may step with
        // telemetry on meanwhile, so each counter rises by at least it
        let counters = telemetry::counters();
        let hidden_s = timing.modeled_exchange_s - timing.exposed_exchange_s;
        for (name, before, step_s) in [
            ("cluster.exposed_exchange_ns", exposed0, timing.exposed_exchange_s),
            ("cluster.hidden_exchange_ns", hidden0, hidden_s),
        ] {
            let step_ns = (step_s * 1e9) as u64;
            let rose = counters.get(name).expect("exchange counter recorded") - before;
            assert!(rose >= step_ns, "{name} rose by {rose}, the step's split is {step_ns}");
        }
        let tag = ("order", order.to_string());
        let events = telemetry::snapshot().events;
        let sorts = events.iter().filter(|e| e.name == "sim.sort" && e.args.contains(&tag));
        assert_eq!(sorts.count(), 8, "one sort span per rank");
        // every rank species starts unsorted, so the first sort moves each
        // (other tests may count sorts of their own meanwhile)
        let moved = telemetry::counter("sim.species_sorted") - sorted0;
        assert!(moved >= 8 * reference.species.len() as u64, "{moved} species sorted");
    }

    /// A clock whose five exchanges are all charged `charge`, with unit
    /// compute segments except the ones a test sets.
    fn clock(charge: f64) -> RankClock {
        RankClock {
            push: 1.0,
            b1: 1.0,
            merge: 1.0,
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
        assert_eq!(clock(1.0).overlap(), (10.0, 5.0, 0.0));
        // charges of 1.5: the one-segment windows (accumulator behind B½,
        // B behind the merge, E behind the interior B½, post-advance B
        // behind the append) expose the half they cannot cover, and the
        // migrants have seven segments
        assert_eq!(clock(1.5).overlap(), (10.0, 7.5, 2.0));
        // no window at all exposes the whole charge
        let bare = RankClock { x_acc: 0.25, x_mig: 0.5, ..RankClock::default() };
        assert_eq!(bare.overlap(), (0.0, 0.75, 0.75));
    }

    #[test]
    fn the_migration_window_spans_the_first_b_half_through_the_boundary_shells() {
        // B½, merge, B fill, E, interior B½, E fill, shells: seven
        // segments — neither the push before nor the append after counts
        let migrants_only =
            |x_mig| RankClock { x_mig, push: 100.0, append: 100.0, ..clock(0.0) }.overlap();
        assert_eq!(migrants_only(7.0), (208.0, 7.0, 0.0));
        assert_eq!(migrants_only(8.0), (208.0, 8.0, 1.0));
        // each of the seven lengthens the window by its own time
        let segments: [fn(&mut RankClock) -> &mut f64; 7] = [
            |c| &mut c.b1,
            |c| &mut c.merge,
            |c| &mut c.bfill,
            |c| &mut c.e,
            |c| &mut c.b2i,
            |c| &mut c.efill,
            |c| &mut c.b2b,
        ];
        for (i, segment) in segments.iter().enumerate() {
            let mut c = RankClock { x_mig: 8.0, ..clock(0.0) };
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
            let exposed = t.exposed_exchange_s;
            assert!((0.0..=t.modeled_exchange_s).contains(&exposed), "step {step}: {exposed}");
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
