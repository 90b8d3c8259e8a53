//! Counter-baseline semantics across a restore, in a dedicated binary:
//! these assertions are exact counts against the process-global telemetry
//! registry, so they must not share a process with other instrumented
//! simulation tests (and the scenarios below share one #[test] because
//! `telemetry::reset` is process-global too).

use vpic2::cluster::{systems, MultiRankSim};
use vpic2::core::{Deck, Simulation};
use vpic2::telemetry;

#[test]
fn restore_carries_lifetime_counters_without_double_counting() {
    // --- same-process restore: totals must not jump -------------------
    let mut sim = Deck::weibel(4, 4, 4, 3, 0.3).build();
    telemetry::set_enabled(true);
    sim.run(4);
    let pushed_before = telemetry::counter("sim.particles_pushed");
    assert!(pushed_before > 0, "instrumented run must count pushes");
    let bytes = sim.checkpoint_bytes();

    // everything in the snapshot is already in the live counters, so
    // the lifetime total must not move
    let mut restored = Simulation::restore_bytes(&bytes).expect("restore");
    let after_restore = telemetry::counter("sim.particles_pushed");
    assert_eq!(pushed_before, after_restore, "restore double-counted lifetime counters");

    // a counter delta taken across a second restore stays monotonic and
    // sees only live activity, never the adopted baseline
    let mark = telemetry::counter("sim.particles_pushed");
    let _ = Simulation::restore_bytes(&bytes).expect("second restore");
    let delta = telemetry::counter("sim.particles_pushed") - mark;
    assert_eq!(delta, 0, "baselines leaked into a counter delta");
    restored.run(1);
    let delta = telemetry::counter("sim.particles_pushed") - mark;
    assert_eq!(
        delta,
        restored.particle_count() as u64,
        "the delta must report exactly the post-restore step's pushes"
    );
    // the lifetime total keeps growing on top of what came before
    assert_eq!(
        telemetry::counter("sim.particles_pushed"),
        pushed_before + restored.particle_count() as u64
    );
    // the restore itself is accounted: bytes_read counts the snapshot
    // twice (two restores above), live — not absorbed into the baseline
    assert!(telemetry::counter("ckpt.bytes_read") >= 2 * bytes.len() as u64);

    // --- fresh-process restore: history arrives as baselines ----------
    // simulate "another process wrote this": reset wipes the live
    // registry, then the snapshot's totals arrive purely as baselines
    let mut sim = Deck::weibel(4, 4, 4, 3, 0.3).build();
    sim.run(3);
    let bytes = sim.checkpoint_bytes();
    let pushed_total = telemetry::counter("sim.particles_pushed");

    telemetry::reset();
    assert_eq!(telemetry::counter("sim.particles_pushed"), 0);
    let mut restored = Simulation::restore_bytes(&bytes).expect("restore");
    assert_eq!(
        telemetry::counter("sim.particles_pushed"),
        pushed_total,
        "a fresh process must adopt the saved lifetime totals"
    );
    restored.run(1);
    telemetry::set_enabled(false);
    assert_eq!(
        telemetry::counter("sim.particles_pushed"),
        pushed_total + restored.particle_count() as u64,
        "post-restore work stacks on the carried history"
    );

    // --- a cluster checkpoint counts its whole container, once --------
    let deck = Deck::weibel(4, 4, 4, 3, 0.3).build();
    let mut mr = MultiRankSim::new(&deck, 2, systems::selene().network);
    mr.run(1);
    telemetry::set_enabled(true);
    let written = telemetry::counter("ckpt.bytes_written");
    let bytes = mr.checkpoint_bytes();
    let delta = telemetry::counter("ckpt.bytes_written") - written;
    telemetry::set_enabled(false);
    assert_eq!(delta, bytes.len() as u64, "one count per cluster checkpoint");
}
