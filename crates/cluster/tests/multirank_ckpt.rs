//! Property tests for multi-rank checkpoint/restart (DESIGN §12).
//!
//! A mid-run [`cluster::MultiRankSim`] snapshot carries the per-rank
//! simulations and particle identity maps; exchange plans, the published
//! table and the pool are derived or host state rebuilt on restore. The property: resuming
//! from any mid-run snapshot is bit-identical to never having stopped,
//! for any rank count and any checkpoint step — and any truncation of
//! the snapshot maps to a typed error, never a silently-wrong `Ok`.

use ckpt::{RestoreError, SectionBuf, SectionReader, Snapshot, Writer};
use cluster::{systems, MultiRankSim};
use proptest::prelude::*;
use vpic_core::{Deck, Simulation};

proptest! {
    /// Checkpoint anywhere mid-run, restore, continue: the resumed
    /// cluster gathers bit-identically to the uninterrupted one at every
    /// subsequent step. What the ranks publish for each other never needs
    /// to be carried — snapshots are taken between steps, and the next
    /// step rewrites all of it before reading any.
    #[test]
    fn midrun_checkpoint_resumes_bit_identical(
        ranks_pow in 0usize..4,       // 1, 2, 4, 8 ranks
        pre in 1usize..4,             // steps before the snapshot
        post in 1usize..4,            // steps after it
    ) {
        let ranks = 1usize << ranks_pow;
        let deck = Deck::weibel(8, 8, 8, 2, 0.3).build();
        let net = systems::selene().network;
        let mut live = MultiRankSim::new(&deck, ranks, net);
        live.run(pre);
        let snap = live.checkpoint_bytes();
        let mut resumed = MultiRankSim::restore_bytes(&snap).expect("clean snapshot restores");
        prop_assert_eq!(resumed.step_count(), live.step_count());
        prop_assert_eq!(resumed.ranks(), live.ranks());
        for _ in 0..post {
            live.step();
            resumed.step();
            assert_eq!(live.gather().bit_diff(&resumed.gather()), None);
        }
    }

    /// Any truncation of a snapshot — header, section directory, or
    /// payload — is a typed [`ckpt::RestoreError`], never `Ok`.
    #[test]
    fn truncated_snapshot_never_restores(
        ranks_pow in 0usize..3,
        keep_frac in 0.0f64..0.999,
    ) {
        let ranks = 1usize << ranks_pow;
        let deck = Deck::weibel(8, 8, 8, 2, 0.3).build();
        let mut live = MultiRankSim::new(&deck, ranks, systems::selene().network);
        live.run(1);
        let snap = live.checkpoint_bytes();
        let keep = ((snap.len() as f64) * keep_frac) as usize;
        let cut = ckpt::faults::truncated(&snap, keep);
        prop_assert!(
            MultiRankSim::restore_bytes(&cut).is_err(),
            "truncation to {keep}/{} bytes must be rejected",
            snap.len()
        );
    }
}

/// A two-rank snapshot of the 8³ deck, one step in.
fn two_rank_snapshot() -> Vec<u8> {
    let deck = Deck::weibel(8, 8, 8, 2, 0.3).build();
    let mut live = MultiRankSim::new(&deck, 2, systems::selene().network);
    live.run(1);
    live.checkpoint_bytes()
}

/// `bytes` rebuilt section by section — CRC-valid, like every container
/// `ckpt::Writer` makes — with section `name` rewritten by `rewrite`.
fn rebuilt(
    bytes: &[u8],
    name: &str,
    rewrite: impl Fn(&mut SectionReader<'_>, &mut SectionBuf),
) -> Vec<u8> {
    let snap = Snapshot::from_bytes(bytes).unwrap();
    let mut w = Writer::new();
    for section in snap.section_names() {
        let mut r = snap.section(section).unwrap();
        if section == name {
            rewrite(&mut r, w.section(section));
        } else {
            w.section(section).put_raw(r.take_rest());
        }
    }
    w.to_bytes()
}

/// The snapshot with `cluster.meta`'s extents and rank count replaced.
fn with_meta(bytes: &[u8], extents: [usize; 3], ranks: usize) -> Vec<u8> {
    rebuilt(bytes, "cluster.meta", |r, w| {
        w.put_u64(r.get_u64().unwrap());
        for n in extents.into_iter().chain([ranks]) {
            r.get_usize().unwrap();
            w.put_usize(n);
        }
        w.put_raw(r.take_rest());
    })
}

/// The snapshot with `rank1.ids` re-encoded from `edit`ed id lists.
fn with_rank1_ids(bytes: &[u8], edit: impl Fn(&mut Vec<Vec<u64>>)) -> Vec<u8> {
    rebuilt(bytes, "rank1.ids", |r, w| {
        let mut ids: Vec<Vec<u64>> = (0..r.get_usize().unwrap())
            .map(|_| (0..r.get_usize().unwrap()).map(|_| r.get_u64().unwrap()).collect())
            .collect();
        edit(&mut ids);
        w.put_usize(ids.len());
        for species in &ids {
            w.put_usize(species.len());
            species.iter().for_each(|&id| w.put_u64(id));
        }
    })
}

#[track_caller]
fn assert_drift(bytes: &[u8], names: &str) {
    match MultiRankSim::restore_bytes(bytes) {
        Err(RestoreError::SchemaDrift(msg)) => {
            assert!(msg.contains(names), "drift must name {names:?}: {msg}")
        }
        other => panic!("expected SchemaDrift naming {names:?}, got {:?}", other.err()),
    }
}

/// Every self-inconsistent but CRC-valid cluster snapshot is a typed
/// `SchemaDrift` naming the offending field — never a panic, an
/// allocation sized by the file, or an `Ok` that indexes out of bounds
/// on its first step or gather.
#[test]
fn self_inconsistent_cluster_snapshots_are_schema_drift() {
    let good = two_rank_snapshot();
    assert!(MultiRankSim::restore_bytes(&rebuilt(&good, "", |_, _| ())).is_ok());

    // extents ≥ 1, and no more cells than the file could hold
    assert_drift(&with_meta(&good, [0, 8, 8], 2), "cluster.meta: 2 ranks over (0, 8, 8)");
    assert_drift(&with_meta(&good, [1 << 20; 3], 2), "cluster.meta: 1048576x");
    assert_drift(&with_meta(&good, [usize::MAX, 2, 2], 2), "cluster.meta");
    // 1 ≤ ranks ≤ cells
    assert_drift(&with_meta(&good, [8, 8, 8], 0), "cluster.meta: 0 ranks");
    assert_drift(&with_meta(&good, [8, 8, 8], 513), "cluster.meta: 513 ranks");
    assert_drift(&with_meta(&good, [8, 8, 8], usize::MAX), "cluster.meta");
    // every rank owns cells: 11 is prime and longer than any axis
    assert_drift(&with_meta(&good, [8, 8, 8], 11), "owns no cells");

    // a rank's grid is its plan's grid
    let other_grid = Deck::weibel(4, 4, 4, 2, 0.3).build().checkpoint_bytes();
    assert_drift(&rebuilt(&good, "rank1.sim", |_, w| w.put_raw(&other_grid)), "rank1.sim: grid");
    // ... and it carries rank 0's species
    let snap = Snapshot::from_bytes(&good).unwrap();
    let rank1 = Simulation::restore_bytes(snap.section("rank1.sim").unwrap().take_rest());
    let grid = rank1.unwrap().grid;
    let no_species = Simulation::new(grid).checkpoint_bytes();
    assert_drift(&rebuilt(&good, "rank1.sim", |_, w| w.put_raw(&no_species)), "species count");

    // one id per particle, per species
    assert_drift(&with_rank1_ids(&good, |ids| ids[0].truncate(1)), "rank1.ids: lengths");
    assert_drift(&with_rank1_ids(&good, |ids| ids.truncate(1)), "rank1.ids: lengths");
    // every id below the species' global population
    assert_drift(&with_rank1_ids(&good, |ids| ids[1][0] = u64::MAX), "rank1.ids: species 1");
}
