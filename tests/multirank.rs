//! Tier-1: real multi-rank stepping (DESIGN §12).
//!
//! The correctness oracle for `cluster::MultiRankSim`, as slices of the
//! differential lattice (`lattice/mod.rs`): for every rank count,
//! per-rank configuration and rank worker, and across a checkpoint
//! restored at any rank count, the gathered global state and the push
//! statistics are the single-rank run's, bit for bit, and the workers
//! change no step's statistics and no snapshot byte. Every step's timing
//! adds up for any clock, and the closed-form overlap model
//! `repro -- ranks` reports is pinned on fixed numbers.

#[path = "lattice/mod.rs"]
mod lattice;

use cluster::scaling::overlap_model_step_s;
use cluster::{systems, MultiRankSim};
use vpic_core::Deck;

/// Ranks × per-rank configurations × rank workers, resumed mid-run by the
/// next workers, and every fresh partition: the slice CI loops, since a
/// publication that races instead of being missed outright shows only now
/// and then.
#[test]
fn gathered_state_bit_identical_across_rank_counts() {
    lattice::check(lattice::ranks_by_workers());
}

/// What holds for any clock on an executed sweep: every step's timing
/// adds up — the exposed exchange is at most the modeled one, the step is
/// the slowest rank's compute plus what its windows left exposed — and one
/// rank exchanges nothing. How the executed speedup compares with the
/// closed-form overlap model is a measured wall over a modeled message:
/// it depends on the build profile and on what else the host's cores are
/// running (the ranks of a step run at the same time), so it is reported
/// by `repro -- ranks` and never asserted; the closed form itself is
/// pinned on fixed numbers below, the way `RankClock::overlap` is in
/// `cluster::multirank`.
#[test]
fn executed_timing_adds_up_for_any_clock() {
    let reference = Deck::weibel(16, 16, 16, 4, 0.3).build();
    let net = systems::selene().network;
    for ranks in [1usize, 2, 4, 8] {
        let mut mr = MultiRankSim::new(&reference, ranks, net);
        mr.run(1); // warmup
        for _ in 0..3 {
            let (_, _, t) = mr.step();
            let exposed = t.exposed_exchange_s;
            assert!((0.0..=t.modeled_exchange_s).contains(&exposed), "{ranks} ranks: {exposed}");
            // the slowest rank's compute + exposed: no less than the largest
            // compute wall, no more than that plus every rank's exposed time
            // (with one rank, exactly its compute)
            assert!(t.step_s >= t.compute_s, "{ranks} ranks");
            assert!(t.step_s <= t.compute_s + t.exposed_exchange_s, "{ranks} ranks");
            if ranks == 1 {
                assert_eq!(t.modeled_exchange_s, 0.0, "one rank exchanges nothing");
            } else {
                assert!(t.modeled_exchange_s > 0.0, "{ranks} ranks must exchange");
            }
        }
    }
}

/// The closed form `T(N) = T(1)/N + exposed(N)` on fixed numbers: the
/// exposure summed over ranks and steps enters as its mean per rank and
/// step, and with nothing exposed the model is ideal scaling.
#[test]
fn overlap_model_closed_form_on_fixed_numbers() {
    // 8 ms alone; 4 ranks, 3 steps, 2.4 ms exposed in all → 0.2 ms each
    assert_eq!(overlap_model_step_s(8.0, 4, 3, 2.4), 2.0 + 2.4 / 12.0);
    assert_eq!(overlap_model_step_s(8.0, 4, 3, 0.0), 2.0);
    assert_eq!(overlap_model_step_s(8.0, 1, 5, 0.0), 8.0);
    // exposure is not divided away by more steps of the same exposure
    assert_eq!(overlap_model_step_s(8.0, 2, 1, 1.0), overlap_model_step_s(8.0, 2, 10, 10.0));
    // speedup over the one-rank step falls below ideal by exactly the
    // exposed share
    let speedup = 8.0 / overlap_model_step_s(8.0, 8, 1, 8.0);
    assert_eq!(speedup, 4.0);
}

/// A cluster checkpoint taken on N ranks resumes on M, for every N and M
/// in 1, 2, 4, 8; a single-domain one resumes on four ranks.
#[test]
fn midrun_cluster_checkpoint_resumes_bit_identical() {
    lattice::check(lattice::checkpoint_by_restore_ranks());
}
