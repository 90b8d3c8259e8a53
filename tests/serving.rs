//! The serving layer's two headline contracts, tested end to end:
//!
//! 1. **Preemption is bit-transparent** — a job parked at any point and
//!    resumed, with slices landing on different worker pools, finishes
//!    in a state bit-identical to an uninterrupted single-space run.
//!    Property-tested for plain, tiled, and tuner-armed tenants (the
//!    tuned oracle is schedule replay: timing decides *which* arms
//!    commit, but the recorded schedule replayed on a fresh deck must
//!    reproduce the tuned run exactly).
//! 2. **Failure is contained per tenant** — a corrupted parked blob
//!    (`ckpt::faults`) or a panic thrown inside a tenant's step
//!    quarantines that job only; the rest of the fleet completes.

use proptest::prelude::*;
use vpic2::core::{Deck, Simulation, TilePolicy};
use vpic2::serve::{FleetPrior, JobId, JobPhase, JobSpec, ServeError, ServePolicy, Server};

fn deck() -> Deck {
    Deck::weibel(5, 5, 5, 3, 0.3)
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

/// Park `id`, tolerating a job that already ran to completion (small
/// step budgets can finish inside `park_after` rounds — the preempt-at-
/// zero cases still cover the park-before-first-step corner).
fn park_unless_done(srv: &mut Server, id: JobId) {
    match srv.park(id) {
        Ok(()) | Err(ServeError::NotRunnable(_)) => {}
        Err(e) => panic!("park failed: {e}"),
    }
}

/// Run `spec` on a server with the given pools, parking it after
/// `park_after` rounds, and return the restored final simulation.
fn serve_one(spec: JobSpec, pools: Vec<usize>, quantum: u32, park_after: u64) -> Simulation {
    let mut srv = Server::new(policy(pools, quantum));
    let id = srv.submit(spec).expect("admitted");
    for _ in 0..park_after {
        srv.run_round();
    }
    park_unless_done(&mut srv, id);
    let report = srv.run_until_done(1_000);
    assert_eq!(report.quarantined, 0, "job failed: {:?}", srv.status(id));
    assert_eq!(srv.status(id).unwrap().phase, JobPhase::Done);
    Simulation::restore_bytes(srv.final_blob(id).expect("final blob")).expect("final restore")
}

proptest! {
    /// Plain tenant: preempt at a random point, resume across a random
    /// pool mix — final state matches an uninterrupted serial run bit
    /// for bit.
    #[test]
    fn preempted_plain_job_is_bit_identical(
        steps in 3u64..10,
        quantum in 1u32..4,
        pool_a in 1usize..5,
        pool_b in 1usize..5,
        park_after in 0u64..4,
    ) {
        let mut reference = deck().build();
        reference.run(steps as usize);

        let spec = JobSpec::new(deck(), steps);
        let served = serve_one(spec, vec![pool_a, pool_b], quantum, park_after);
        assert_eq!(reference.bit_diff(&served), None);
    }

    /// Tiled tenant: the park forces an untile → snapshot → retile
    /// round trip on top of the pool migration; still bit-identical.
    #[test]
    fn preempted_tiled_job_is_bit_identical(
        steps in 3u64..9,
        tile_cells in 1usize..80,
        max_hot in 1usize..3,
        compress in any::<bool>(),
        quantum in 1u32..4,
        park_after in 0u64..4,
    ) {
        let mut tile = TilePolicy::new(tile_cells);
        tile.compress = compress;
        tile.max_hot = max_hot;

        let mut reference = deck().build();
        reference.enable_tiling(tile.clone());
        reference.run(steps as usize);
        reference.disable_tiling();

        let mut spec = JobSpec::new(deck(), steps);
        spec.tile = Some(tile);
        let mut served = serve_one(spec, vec![2, 3], quantum, park_after);
        prop_assert!(served.is_tiled(), "final blob must preserve the tiling policy");
        served.disable_tiling();
        assert_eq!(reference.bit_diff(&served), None);
    }

    /// Tuner-armed tenant: which arms commit depends on wall-clock
    /// timing, so the oracle is *schedule replay* — applying the
    /// recorded `(step, config, workers)` history to a fresh deck
    /// reproduces the served run exactly, preemption and all.
    #[test]
    fn preempted_tuned_job_replays_bit_identically(
        steps in 6u64..14,
        quantum in 1u32..4,
        park_after in 0u64..4,
    ) {
        let mut srv = Server::new(policy(vec![2, 1], quantum));
        let mut spec = JobSpec::new(deck(), steps);
        spec.tune = true;
        let id = srv.submit(spec).expect("admitted");
        for _ in 0..park_after {
            srv.run_round();
        }
        park_unless_done(&mut srv, id);
        srv.run_until_done(1_000);
        prop_assert_eq!(srv.status(id).unwrap().phase, JobPhase::Done);
        let served = Simulation::restore_bytes(srv.final_blob(id).unwrap()).expect("restore");

        let schedule = srv.tune_schedule(id).expect("tuned job records its schedule");
        prop_assert!(!schedule.is_empty());
        let mut replay = deck().build();
        for step in 0..steps {
            for e in schedule.iter().filter(|e| e.step == step) {
                replay.apply_tune_config(&e.config, e.workers);
            }
            replay.step();
        }
        assert_eq!(replay.bit_diff(&served), None);
    }

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
    for (byte_permille, bit) in [(10usize, 0u8), (250, 3), (500, 5), (900, 7)] {
        let mut srv = Server::new(policy(vec![2], 2));
        let reference = {
            let mut sim = deck().build();
            sim.run(6);
            sim
        };
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
