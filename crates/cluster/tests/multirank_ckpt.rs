//! Property tests for multi-rank checkpoint/restart (DESIGN §12).
//!
//! A mid-run [`cluster::MultiRankSim`] snapshot carries the per-rank
//! simulations and particle identity maps; exchange plans, the published
//! table and the pool are derived or host state rebuilt on restore. The property: resuming
//! from any mid-run snapshot is bit-identical to never having stopped,
//! for any rank count and any checkpoint step — and any truncation of
//! the snapshot maps to a typed error, never a silently-wrong `Ok`.

use cluster::{systems, MultiRankSim};
use proptest::prelude::*;
use vpic_core::{Deck, Simulation};

fn assert_bits_eq(a: &Simulation, b: &Simulation) {
    for (name, x, y) in [
        ("ex", &a.fields.ex, &b.fields.ex),
        ("ey", &a.fields.ey, &b.fields.ey),
        ("ez", &a.fields.ez, &b.fields.ez),
        ("bx", &a.fields.bx, &b.fields.bx),
        ("by", &a.fields.by, &b.fields.by),
        ("bz", &a.fields.bz, &b.fields.bz),
        ("jx", &a.fields.jx, &b.fields.jx),
        ("jy", &a.fields.jy, &b.fields.jy),
        ("jz", &a.fields.jz, &b.fields.jz),
    ] {
        for v in 0..x.len() {
            assert_eq!(x[v].to_bits(), y[v].to_bits(), "{name}[{v}]");
        }
    }
    assert_eq!(a.species.len(), b.species.len());
    for (sa, sb) in a.species.iter().zip(&b.species) {
        assert_eq!(sa.cell, sb.cell);
        for p in 0..sa.len() {
            assert_eq!(sa.dx[p].to_bits(), sb.dx[p].to_bits());
            assert_eq!(sa.dy[p].to_bits(), sb.dy[p].to_bits());
            assert_eq!(sa.dz[p].to_bits(), sb.dz[p].to_bits());
            assert_eq!(sa.ux[p].to_bits(), sb.ux[p].to_bits());
            assert_eq!(sa.uy[p].to_bits(), sb.uy[p].to_bits());
            assert_eq!(sa.uz[p].to_bits(), sb.uz[p].to_bits());
            assert_eq!(sa.w[p].to_bits(), sb.w[p].to_bits());
        }
    }
    let (ea, eb) = (a.energies(), b.energies());
    assert_eq!(ea.field_e.to_bits(), eb.field_e.to_bits());
    assert_eq!(ea.field_b.to_bits(), eb.field_b.to_bits());
    for (ka, kb) in ea.kinetic.iter().zip(&eb.kinetic) {
        assert_eq!(ka.to_bits(), kb.to_bits());
    }
}

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
            assert_bits_eq(&live.gather(), &resumed.gather());
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
