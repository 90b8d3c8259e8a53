//! Checkpoint/restart's two contracts, end to end:
//!
//! 1. **Bit-identical resume** — for any deck configuration, checkpoint
//!    at step k, restore, run to step n: the result is indistinguishable
//!    from the uninterrupted run, including with the adaptive tuner
//!    armed (the resumed run continues the recorded schedule exactly).
//! 2. **No silent divergence** — every injected fault (truncation at any
//!    byte, any single-bit flip, a crash mid-write, a worker-pool panic
//!    mid-step) yields a *typed* error or a clean fallback to the
//!    previous good snapshot; a restore never silently produces a
//!    different simulation.

#[path = "lattice/mod.rs"]
mod lattice;

use lattice::{reference, DeckKind};
use proptest::prelude::*;
use vpic2::ckpt;
use vpic2::ckpt::{RestoreError, Snapshot};
use vpic2::core::{Deck, Simulation, StepError};
use vpic2::pk::atomic::ScatterMode;
use vpic2::pk::Threads;
use vpic2::psort::SortOrder;
use vpic2::tuner::{Config, Phase, ScheduleEntry, Tuner};
use vpic2::vsimd::Strategy as VecStrategy;

/// Checkpoint at k, restore, run to n — bit-identical to running straight
/// through, for every deck, sort order and cadence, and scatter replica
/// count (a slice of the differential lattice, `lattice/mod.rs`).
#[test]
fn restore_resumes_bit_identically() {
    lattice::check(lattice::checkpoints());
}

/// Same resume contract with the *parallel field pipeline* armed:
/// threaded execution, every vectorization strategy, and replicated
/// scatter. The persistent interpolator array and unload scratch are
/// derived state — a restored run rebuilds them on its first step and
/// must land on exactly the bits of the uninterrupted run.
#[test]
fn restore_resumes_bit_identically_with_parallel_field_pipeline() {
    lattice::check(lattice::threaded_checkpoints());
}

proptest! {
    /// Every prefix truncation of a snapshot fails with a typed error —
    /// never an `Ok` carrying partial state.
    #[test]
    fn every_truncation_is_typed(keep_permille in 0u32..1000) {
        let mut sim = Deck::weibel(4, 4, 4, 3, 0.3).build();
        sim.run(2);
        let bytes = sim.checkpoint_bytes();
        let keep = (bytes.len() * keep_permille as usize) / 1000;
        match Simulation::restore_bytes(&ckpt::faults::truncated(&bytes, keep)) {
            Err(
                RestoreError::Truncated
                | RestoreError::BadCrc { .. }
                | RestoreError::SchemaDrift(_)
                | RestoreError::VersionMismatch { .. },
            ) => {}
            Err(e) => panic!("untyped error for truncation at {keep}: {e:?}"),
            Ok(_) => panic!("truncation at {keep}/{} restored silently", bytes.len()),
        }
    }

    /// Any single flipped bit fails typed: the CRC (or strict decode)
    /// catches it; restore never silently diverges.
    #[test]
    fn every_bit_flip_is_typed(pos_permille in 0u32..1000, bit in 0u8..8) {
        let mut sim = Deck::weibel(4, 4, 4, 3, 0.3).build();
        sim.run(2);
        let bytes = sim.checkpoint_bytes();
        let byte = (bytes.len() * pos_permille as usize) / 1000;
        let byte = byte.min(bytes.len() - 1);
        match Simulation::restore_bytes(&ckpt::faults::with_bit_flipped(&bytes, byte, bit)) {
            Err(_) => {}
            Ok(restored) => {
                // flips that survive must land in dead bytes only —
                // the restored state has to be exactly the original
                assert_eq!(sim.bit_diff(&restored), None);
            }
        }
    }
}

#[test]
fn crash_mid_write_falls_back_to_the_previous_snapshot() {
    let dir = std::env::temp_dir().join(format!("vpic-crash-write-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snap.vpck");

    let mut sim = Deck::weibel(4, 4, 4, 3, 0.3).build();
    sim.run(3);
    sim.checkpoint_to(&path).unwrap();
    sim.run(2);
    // the process dies mid-write of the *next* snapshot: only a torn
    // temp file is left, the good snapshot is untouched
    let next = sim.checkpoint_bytes();
    ckpt::faults::crash_mid_write(&path, &next, next.len() / 2).unwrap();
    let (restored, fell_back) = Simulation::restore_from_path(&path).unwrap();
    assert!(!fell_back, "primary snapshot is still the good one");
    assert_eq!(restored.step_count(), 3);

    // now the primary itself is corrupt: fallback to the rotated copy
    sim.checkpoint_to(&path).unwrap(); // rotates step-3 snapshot to .prev
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, ckpt::faults::with_bit_flipped(&bytes, bytes.len() / 2, 3)).unwrap();
    let (restored, fell_back) = Simulation::restore_from_path(&path).unwrap();
    assert!(fell_back, "corrupt primary must fall back");
    assert_eq!(restored.step_count(), 3);

    // both gone: the primary's typed error surfaces
    std::fs::remove_file(ckpt::file::prev_path(&path)).unwrap();
    match Simulation::restore_from_path(&path) {
        Err(RestoreError::BadCrc { .. } | RestoreError::SchemaDrift(_)) => {}
        other => panic!("expected the primary's typed error, got {:?}", other.err()),
    }
    // a path never written, and no `.prev` beside it: the read's I/O error
    match Simulation::restore_from_path(&dir.join("never-written.vpck")) {
        Err(RestoreError::Io(_)) => {}
        other => panic!("expected an I/O error, got {:?}", other.err()),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn worker_panic_mid_step_is_recoverable_and_resumable() {
    // a record in a cell the grid does not have panics the push in a pool
    // lane; the step returns that as a typed error...
    let pool = Threads::new(2);
    let mut sim = DeckKind::Weibel.deck().build();
    sim.sort_order = None;
    sim.run_on(&pool, 3);
    let snapshot = sim.checkpoint_bytes();
    *sim.species.last_mut().unwrap().cell.last_mut().unwrap() = u32::MAX;
    match sim.try_step_on(&pool) {
        Err(StepError::WorkerPanic { panicked_lanes }) => assert!(panicked_lanes >= 1),
        other => panic!("expected a typed lane panic, got {other:?}"),
    }
    // ...and the same pool runs the recovery: restore the last snapshot
    // and finish the run
    let mut recovered = Simulation::restore_bytes(&snapshot).expect("restore after panic");
    recovered.run_on(&pool, 5);
    assert_eq!(reference(DeckKind::Weibel, 8).0.bit_diff(&recovered), None);
}

/// Three arms that differ in every knob a tuned run can change.
fn arms() -> Vec<Config> {
    vec![
        Config::unsorted(VecStrategy::Auto, ScatterMode::Atomic),
        Config::sorted(SortOrder::Standard, 4, VecStrategy::Guided, ScatterMode::Atomic),
        Config::sorted(SortOrder::Strided, 3, VecStrategy::Manual, ScatterMode::Atomic),
    ]
}

#[test]
fn tuner_armed_resume_continues_the_schedule_exactly() {
    let arms = arms();
    let epoch = 3;
    let (k, n) = (7usize, 16usize); // interrupt mid-epoch, mid-exploration

    // tuned run, interrupted at k and resumed from the checkpoint
    let mut tuned = Deck::weibel(4, 4, 4, 3, 0.3).build();
    tuned.set_tuner(Tuner::new(arms.clone(), epoch));
    tuned.run(k);
    let bytes = tuned.checkpoint_bytes();
    let mut resumed = Simulation::restore_bytes(&bytes).expect("tuner-armed restore");
    let restored = resumed.tuner().expect("tuner restored");
    assert_eq!(
        restored,
        tuned.tuner().expect("tuner armed"),
        "restored tuner must carry the engine state, the epoch in flight and the schedule"
    );
    assert_eq!(restored.epochs(), 2, "epochs close before steps 3 and 6");
    resumed.run(n - k);

    // arm choices depend on wall-clock measurements, so the oracle is
    // the run's own recorded schedule: replaying it on a fresh deck
    // must reproduce the resumed run bit-for-bit, with the pre- and
    // post-restore entries forming one continuous history
    let tuner = resumed.take_tuner().expect("tuner still armed");
    let schedule: Vec<ScheduleEntry> = tuner.schedule().to_vec();
    assert!(schedule.windows(2).all(|w| w[0].step < w[1].step), "schedule not continuous");
    // the schedule gains an entry only when the configuration changes,
    // which the wall clock decides; the epoch count does not depend on it
    assert_eq!(
        tuner.epochs(),
        5,
        "the resumed run must have kept tuning past the restore point (epochs close before steps 9, 12 and 15)"
    );
    let mut replayed = Deck::weibel(4, 4, 4, 3, 0.3).build();
    for step in 0..n as u64 {
        for e in schedule.iter().filter(|e| e.step == step) {
            replayed.apply_tune_config(&e.config, e.workers);
        }
        replayed.step();
    }
    assert_eq!(resumed.bit_diff(&replayed), None);
}

/// The `tuner` section's decoder, cut and flipped. A snapshot stopped
/// mid-refinement carries every part of a tuner: explored costs, a refine
/// queue, an epoch in flight and a schedule. Every prefix of the section's
/// payload, re-framed CRC-valid so the decoder itself reads it, is
/// `SchemaDrift`. Every single-bit flip of it is `SchemaDrift` or restores
/// the written physics with a tuner that steps through an epoch boundary:
/// either the written tuner (`==`), or, for a flip in a value no check can
/// judge (a cost, a rate, a counter, a schedule step), another consistent
/// one — which `Tuner::put` writes back as exactly the flipped payload, so
/// the decoder read it field for field and only the flipped value changed.
#[test]
fn every_cut_and_flip_of_the_tuner_section_is_typed_or_harmless() {
    let epoch = 2;
    let mut sim = Deck::weibel(4, 4, 4, 3, 0.3).build();
    sim.set_tuner(Tuner::new(arms(), epoch).with_refinement(2));
    // three exploring epochs close before steps 2, 4 and 6
    sim.run(7);
    let written = sim.tuner().expect("tuner armed").clone();
    assert_eq!(written.phase(), Phase::Refining);
    let bytes = sim.checkpoint_bytes();
    let snap = Snapshot::from_bytes(&bytes).unwrap();
    let payload = snap.section("tuner").unwrap().take_rest().to_vec();
    let with_payload = |p: &[u8]| ckpt::faults::rewritten(&bytes, "tuner", |_, w| w.put_raw(p));
    assert_eq!(with_payload(&payload), bytes);
    let put_back = |t: &Tuner| {
        let mut w = ckpt::Writer::new();
        t.put(w.section("tuner"));
        let bytes = w.to_bytes();
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        let mut r = snap.section("tuner").unwrap();
        r.take_rest().to_vec()
    };
    assert_eq!(put_back(&written), payload);
    for keep in 0..payload.len() {
        match Simulation::restore_bytes(&with_payload(&payload[..keep])) {
            Err(RestoreError::SchemaDrift(_)) => {}
            other => panic!("cut to {keep}/{} B: {:?}", payload.len(), other.err()),
        }
    }
    let (mut typed, mut same) = (0, 0);
    for bit in 0..payload.len() * 8 {
        let mut flipped = payload.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        match Simulation::restore_bytes(&with_payload(&flipped)) {
            Err(RestoreError::SchemaDrift(_)) => typed += 1,
            Err(e) => panic!("bit {bit}: untyped {e:?}"),
            Ok(mut restored) => {
                assert_eq!(restored.bit_diff(&sim), None, "bit {bit}");
                let tuner = restored.tuner().expect("tuner restored");
                assert!(put_back(tuner) == flipped, "bit {bit}: decoded inexactly");
                same += usize::from(restored.tuner() == Some(&written));
                restored.run(epoch + 1);
            }
        }
    }
    assert!(typed > 0 && same > 0, "{typed} typed, {same} equal of {} flips", payload.len() * 8);
}
