//! Property tests for multi-rank checkpoint/restart (DESIGN §12).
//!
//! A [`cluster::MultiRankSim`] snapshot is the gathered single-domain
//! [`Simulation`] snapshot plus one `cluster` section: the rank count, the
//! network model and each rank's configuration. Everything else — ids,
//! halo shells, exchange plans, what the ranks publish, the pool — is
//! rebuilt by `MultiRankSim::new`. The properties: any truncation or
//! single flipped bit maps to a typed error or to the original state,
//! never to a silently different one. That resuming from any mid-run
//! snapshot, at the rank count that wrote it or at any other, is
//! bit-identical to never having stopped is a slice of the differential
//! lattice (`tests/multirank.rs`).

use ckpt::faults::rewritten;
use ckpt::{RestoreError, Snapshot};
use cluster::{systems, MultiRankSim};
use proptest::prelude::*;
use psort::SortOrder;
use vpic_core::{Deck, Simulation};

/// Rank `r`'s configuration in these tests: scatter modes and sort
/// schedules that differ from rank to rank, so the `cluster` section
/// carries something a default rank would not have.
fn config(r: usize) -> tuner::Config {
    use pk::atomic::ScatterMode::{Atomic, Duplicated};
    let orders = [None, Some(SortOrder::Strided), Some(SortOrder::TiledStrided { tile: 8 })];
    tuner::Config {
        order: orders[r % 3],
        interval: 1 + r % 3,
        ..tuner::Config::unsorted(vsimd::Strategy::Auto, [Atomic, Duplicated][r % 2])
    }
}

/// `sim` over `ranks` ranks, each given [`config`].
fn configured(sim: &Simulation, ranks: usize) -> MultiRankSim {
    let mut mr = MultiRankSim::new(sim, ranks, systems::selene().network);
    for r in 0..ranks {
        mr.set_rank_config(r, &config(r));
    }
    mr
}

proptest! {
    /// Any truncation of a snapshot — header, section directory, or
    /// payload — is a typed [`ckpt::RestoreError`], never `Ok`.
    #[test]
    fn truncated_snapshot_never_restores(
        ranks_pow in 0usize..3,
        cut_at in any::<usize>(),
    ) {
        let ranks = 1usize << ranks_pow;
        let deck = Deck::weibel(8, 8, 8, 2, 0.3).build();
        let mut live = MultiRankSim::new(&deck, ranks, systems::selene().network);
        live.run(1);
        let snap = live.checkpoint_bytes();
        let keep = cut_at % snap.len();
        let cut = ckpt::faults::truncated(&snap, keep);
        prop_assert!(
            MultiRankSim::restore_bytes(&cut).is_err(),
            "truncation to {keep}/{} bytes must be rejected",
            snap.len()
        );
    }

    /// Any single flipped bit of a 2- or 4-rank snapshot is a typed
    /// [`RestoreError`], or restores a cluster that gathers to exactly the
    /// state that was written.
    #[test]
    fn bit_flipped_snapshot_is_typed_or_harmless(
        ranks_pow in 1usize..3,
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut live = configured(&Deck::weibel(8, 8, 8, 2, 0.3).build(), 1 << ranks_pow);
        live.run(1);
        let snap = live.checkpoint_bytes();
        let byte = pos % snap.len();
        let flipped = ckpt::faults::with_bit_flipped(&snap, byte, bit);
        if let Ok(restored) = MultiRankSim::restore_bytes(&flipped) {
            prop_assert_eq!(restored.gather().bit_diff(&live.gather()), None);
        }
    }
}

/// The payload of section `name`.
fn section(bytes: &[u8], name: &str) -> Vec<u8> {
    Snapshot::from_bytes(bytes).unwrap().section(name).unwrap().take_rest().to_vec()
}

/// One format: the sections of the gathered snapshot plus `cluster`, no
/// larger than the two together, read by the single-domain restore as the
/// gather itself, and carrying the rank table through a restore byte for
/// byte.
#[test]
fn a_cluster_snapshot_is_the_gathered_one_plus_a_cluster_section() {
    let names = |bytes: &[u8]| -> Vec<String> {
        Snapshot::from_bytes(bytes).unwrap().section_names().map(String::from).collect()
    };
    for ranks in [1, 2, 4, 8] {
        let mut live = configured(&Deck::weibel(8, 8, 8, 2, 0.3).build(), ranks);
        live.run(3);
        let snap = live.checkpoint_bytes();
        let gathered = live.gather().checkpoint_bytes();
        let mut expected = names(&gathered);
        expected.push("cluster".into());
        assert_eq!(names(&snap), expected, "{ranks} ranks");
        // the container frames a section with its name, a u16 name length,
        // a u64 payload length and a CRC-32
        let table = section(&snap, "cluster");
        let framed = 2 + "cluster".len() + 8 + table.len() + 4;
        assert!(snap.len() <= gathered.len() + framed, "{ranks} ranks: {} B", snap.len());
        assert!(framed < 300, "{ranks} ranks: a {framed} B cluster section");
        let single = Simulation::restore_bytes(&snap).expect("a single-domain snapshot too");
        assert_eq!(single.bit_diff(&live.gather()), None, "{ranks} ranks");
        let restored = MultiRankSim::restore_bytes(&snap).expect("restore");
        assert_eq!(section(&restored.checkpoint_bytes(), "cluster"), table, "{ranks} ranks");
    }
}

/// The `cluster` section is the container's last, so the random cuts and
/// flips above almost never land in it: every cut inside it is a typed
/// error, and every single-bit flip of its payload — re-framed with a
/// valid CRC, so the decoder itself reads it — is a typed error or
/// restores the written state into a cluster that steps.
#[test]
fn every_cut_and_flip_of_the_cluster_section_is_typed_or_harmless() {
    let mut live = configured(&Deck::weibel(4, 4, 4, 2, 0.3).build(), 4);
    live.run(1);
    let (snap, gathered) = (live.checkpoint_bytes(), live.gather());
    let table = section(&snap, "cluster");
    let framed = 2 + "cluster".len() + 8 + table.len() + 4;
    for keep in snap.len() - framed..snap.len() {
        let cut = ckpt::faults::truncated(&snap, keep);
        assert!(MultiRankSim::restore_bytes(&cut).is_err(), "cut to {keep}/{} B", snap.len());
    }
    for bit in 0..table.len() * 8 {
        let flipped = rewritten(&snap, "cluster", |r, w| {
            let mut payload = r.take_rest().to_vec();
            payload[bit / 8] ^= 1 << (bit % 8);
            w.put_raw(&payload);
        });
        if let Ok(mut restored) = MultiRankSim::restore_bytes(&flipped) {
            assert_eq!(restored.gather().bit_diff(&gathered), None, "bit {bit}");
            restored.step();
        }
    }
}

/// A two-rank snapshot of the 8³ deck, one step in.
fn two_rank_snapshot() -> Vec<u8> {
    let mut live = configured(&Deck::weibel(8, 8, 8, 2, 0.3).build(), 2);
    live.run(1);
    live.checkpoint_bytes()
}

/// The snapshot with the `grid` section's extents replaced.
fn with_extents(bytes: &[u8], extents: [usize; 3]) -> Vec<u8> {
    rewritten(bytes, "grid", |r, w| {
        for n in extents {
            r.get_usize().unwrap();
            w.put_usize(n);
        }
        w.put_raw(r.take_rest());
    })
}

/// The snapshot with the `cluster` section's rank count replaced.
fn with_ranks(bytes: &[u8], ranks: usize) -> Vec<u8> {
    rewritten(bytes, "cluster", |r, w| {
        r.get_usize().unwrap();
        w.put_usize(ranks);
        w.put_raw(r.take_rest());
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
    assert!(MultiRankSim::restore_bytes(&rewritten(&good, "", |_, _| ())).is_ok());

    // extents ≥ 1, and exactly the cells the field arrays hold
    assert_drift(&with_extents(&good, [0, 8, 8]), "grid has zero cells");
    assert_drift(&with_extents(&good, [1 << 20; 3]), "field ex has 512 values");
    assert_drift(&with_extents(&good, [usize::MAX, 2, 2]), "field ex");
    // 1 ≤ ranks ≤ cells
    assert_drift(&with_ranks(&good, 0), "cluster: 0 ranks");
    assert_drift(&with_ranks(&good, 513), "cluster: 513 ranks");
    assert_drift(&with_ranks(&good, usize::MAX), "cluster");
    // every rank owns cells: 11 is prime and longer than any axis
    assert_drift(&with_ranks(&good, 11), "owns no cells");

    // there is no tiled execution: rank 1's row is the section's tail,
    // and a row ends on its tile flag
    let tiled_row = rewritten(&good, "cluster", |r, w| {
        let rest = r.take_rest();
        w.put_raw(&rest[..rest.len() - 1]);
        w.put_bool(true);
    });
    assert_drift(&tiled_row, "tiled arm");
    // ... nor a `tiling` section for the simulation the ranks partition
    let mut w = Deck::weibel(8, 8, 8, 2, 0.3).build().checkpoint_writer();
    w.section("tiling").put_usize(64);
    w.section("cluster").put_raw(&section(&good, "cluster"));
    assert_drift(&w.to_bytes(), "tiling section");
}
