//! The serving layer's two headline contracts, tested end to end:
//!
//! 1. **Preemption is bit-transparent** — a job parked at any point and
//!    resumed, with slices landing on different worker pools, finishes
//!    in a state bit-identical to an uninterrupted single-space run.
//!    Checked for plain, tiled, and tuner-armed tenants as slices of the
//!    differential lattice (`lattice/mod.rs`); a tuned job's recorded
//!    schedule, replayed on a fresh deck, also reproduces it exactly.
//! 2. **Failure is contained per tenant** — a corrupted parked blob
//!    (`ckpt::faults`) or a panic thrown inside a tenant's step
//!    quarantines that job only; the rest of the fleet completes.

#[path = "lattice/mod.rs"]
mod lattice;

use lattice::{check, reference, served, DeckKind, Job, Store, Tiles};
use proptest::prelude::*;
use vpic2::core::{Deck, Simulation, TilePolicy};
use vpic2::serve::{FleetPrior, JobPhase, JobSpec, ServePolicy, Server};

fn deck() -> Deck {
    DeckKind::Weibel.deck()
}

fn policy(pools: Vec<usize>, quantum: u32) -> ServePolicy {
    ServePolicy {
        max_jobs: 16,
        max_bytes: 256 << 20,
        max_resident: 2,
        pools,
        quantum,
        tuner_epoch: 2,
    }
}

#[test]
fn preempted_plain_job_is_bit_identical() {
    check(served(Job::Plain));
}

/// The park forces an untile → snapshot → retile round trip on top of the
/// pool migration.
#[test]
fn preempted_tiled_job_is_bit_identical() {
    let tiled = |store| served(Job::Tiled(Tiles { cells: 16, max_hot: 1, store }));
    check([Store::Raw, Store::Compressed, Store::Spilled].map(tiled).concat());
}

#[test]
fn preempted_tuned_job_replays_bit_identically() {
    check([2, 3, 4].map(|epoch| served(Job::Tuned(epoch))).concat());
}

proptest! {
    /// Corrupting a parked blob (truncation — the classic torn
    /// migration) quarantines exactly that job; its neighbor finishes.
    #[test]
    fn corrupt_parked_blob_quarantines_that_job_only(keep_permille in 0u32..999) {
        let mut srv = Server::new(policy(vec![2], 2));
        let victim = srv.submit(JobSpec::new(deck(), 8)).unwrap();
        let bystander = srv.submit(JobSpec::new(deck(), 8)).unwrap();
        srv.run_round();
        srv.park(victim).unwrap();
        {
            let blob = srv.parked_blob_mut(victim).expect("parked");
            let keep = (blob.len() * keep_permille as usize) / 1000;
            *blob = ckpt::faults::truncated(blob, keep);
        }
        let report = srv.run_until_done(1_000);
        prop_assert_eq!(report.quarantined, 1);
        prop_assert_eq!(report.completed, 1);
        let vs = srv.status(victim).unwrap();
        prop_assert_eq!(vs.phase, JobPhase::Quarantined);
        prop_assert!(vs.detail.contains("unreadable"), "detail: {}", vs.detail);
        prop_assert_eq!(srv.status(bystander).unwrap().phase, JobPhase::Done);
    }
}

/// A bit-flipped parked blob either fails typed (quarantine) or — when
/// the flip lands in dead bytes — restores to exactly the original
/// state and the job completes normally. Never a silent divergence.
#[test]
fn bit_flipped_parked_blob_is_typed_or_harmless() {
    let (reference, _) = reference(DeckKind::Weibel, 6);
    for (byte_permille, bit) in [(10usize, 0u8), (250, 3), (500, 5), (900, 7)] {
        let mut srv = Server::new(policy(vec![2], 2));
        let id = srv.submit(JobSpec::new(deck(), 6)).unwrap();
        srv.run_round();
        srv.park(id).unwrap();
        {
            let blob = srv.parked_blob_mut(id).expect("parked");
            let byte = (blob.len() * byte_permille) / 1000;
            *blob = ckpt::faults::with_bit_flipped(blob, byte, bit);
        }
        srv.run_until_done(1_000);
        match srv.status(id).unwrap().phase {
            JobPhase::Quarantined => {}
            JobPhase::Done => {
                let served =
                    Simulation::restore_bytes(srv.final_blob(id).unwrap()).expect("restore");
                assert_eq!(reference.bit_diff(&served), None);
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
}

/// A tenant whose step panics (tile spill into an uncreatable
/// directory: the parent is a regular file) is quarantined with the
/// panic text; the fleet keeps going. This is the graceful-degradation
/// contract: no tenant can take the server down.
#[test]
fn in_step_panic_quarantines_the_tenant_and_the_fleet_survives() {
    let dir = std::env::temp_dir().join(format!("vpic2-serve-panic-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let blocker = dir.join("not-a-dir");
    std::fs::write(&blocker, b"occupied").unwrap();

    let mut srv = Server::new(policy(vec![2], 2));
    let mut hostile = JobSpec::new(deck(), 8);
    // max_hot=1 over many tiles forces a spill on the first step, and
    // the spill directory cannot be created — the spill write panics
    let mut tile = TilePolicy::new(4);
    tile.max_hot = 1;
    tile.spill_dir = Some(blocker.join("spill"));
    hostile.tile = Some(tile);
    let hostile = srv.submit(hostile).unwrap();
    let healthy = srv.submit(JobSpec::new(deck(), 8)).unwrap();

    let report = srv.run_until_done(1_000);
    assert_eq!(report.quarantined, 1);
    assert_eq!(report.completed, 1);
    let hs = srv.status(hostile).unwrap();
    assert_eq!(hs.phase, JobPhase::Quarantined);
    assert!(hs.detail.contains("panic in step"), "detail: {}", hs.detail);
    assert_eq!(srv.status(healthy).unwrap().phase, JobPhase::Done);

    std::fs::remove_dir_all(&dir).ok();
}

/// Fleet warm start, observed end to end: after a tuned tenant commits,
/// the next tenant of the same deck class starts its exploration at the
/// fleet-committed arm (its schedule's first entry), not at the default
/// first arm — unless they already coincide.
///
/// The first tenant runs 10 steps: four 2-step exploration epochs (one
/// per serving arm), the commit, and one committed epoch that ends with
/// the job and is never scored. A longer job would let wall time decide
/// the outcome: a slow committed epoch re-opens exploration, and the arm
/// the tenant ends on is then no longer the arm the fleet records.
#[test]
fn second_tenant_of_a_class_warm_starts_from_the_fleet_commit() {
    let mut srv = Server::new(policy(vec![2], 4));
    let mut first = JobSpec::new(deck(), 10);
    first.tune = true;
    let first = srv.submit(first).unwrap();
    srv.run_until_done(1_000);
    let committed = srv.tune_schedule(first).expect("first tenant tuned")
        .last()
        .expect("nonempty schedule")
        .config;
    // the fleet recorded one commit, of that arm: nothing below can pass
    // on a cold start
    let class = FleetPrior::class_of(&deck());
    assert_eq!(srv.fleet().commits(&class), 1, "the first tenant's commit reached the fleet");
    assert_eq!(
        srv.fleet().reorder(&class, &mut vec![committed]),
        1,
        "the fleet recorded the arm the tenant committed"
    );

    let mut second = JobSpec::new(deck(), 30);
    second.tune = true;
    let second = srv.submit(second).unwrap();
    srv.run_until_done(1_000);
    let sched = srv.tune_schedule(second).expect("second tenant tuned");
    assert_eq!(
        sched.first().expect("nonempty").config,
        committed,
        "the fleet-committed arm must be explored first"
    );
}
