//! Checkpoint cost: what one snapshot costs relative to one step.
//!
//! Measures the Weibel deck's serialize-to-memory, atomic-write-to-disk,
//! and restore times against the median step time, and verifies end to
//! end that a checkpoint/restore mid-run resumes bit-identically to the
//! uninterrupted run — the number EXPERIMENTS.md quotes for "checkpoint
//! cost"; CI runs the resume check and uploads `results/ckpt.json`.

use crate::timing::median_time;
use serde::Serialize;
use std::hint::black_box;
use vpic_core::{Deck, Simulation};

/// The `ckpt` target's result set.
#[derive(Serialize)]
pub struct Report {
    /// Deck the measurements ran on.
    pub deck: String,
    /// Particles in the deck.
    pub particles: u64,
    /// Grid cells.
    pub cells: u64,
    /// Snapshot size on the wire, bytes.
    pub snapshot_bytes: u64,
    /// Median simulation step, milliseconds.
    pub step_ms: f64,
    /// Median serialize-to-memory, milliseconds.
    pub serialize_ms: f64,
    /// Median atomic write to disk (temp file + fsync + rename), ms.
    pub disk_write_ms: f64,
    /// Median restore-from-bytes, milliseconds.
    pub restore_ms: f64,
    /// Serialize cost in units of steps (the amortization number: a
    /// checkpoint every N steps costs `this / N` relative overhead).
    pub serialize_cost_steps: f64,
    /// Whether a mid-run checkpoint/restore resumed bit-identically to
    /// the uninterrupted run.
    pub resume_bit_identical: bool,
}

/// Run the checkpoint-cost measurement and print the summary table.
pub fn run() -> Report {
    let deck = Deck::weibel(12, 12, 12, 8, 0.3);
    let mut sim = deck.build();
    sim.run(5); // past the initial transient

    let (warmup, reps) = (2, 9);
    let step_s = median_time("bench.ckpt.step", warmup, reps, || {
        sim.step();
    });
    let snapshot_bytes = sim.checkpoint_bytes().len() as u64;
    let serialize_s = median_time("bench.ckpt.serialize", warmup, reps, || {
        black_box(sim.checkpoint_bytes());
    });

    let dir = std::env::temp_dir().join(format!("vpic-ckpt-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bench.vpck");
    let disk_s = median_time("bench.ckpt.disk", warmup, reps, || {
        sim.checkpoint_to(&path).expect("atomic save");
    });
    let bytes = std::fs::read(&path).expect("read snapshot back");
    let restore_s = median_time("bench.ckpt.restore", warmup, reps, || {
        black_box(Simulation::restore_bytes(&bytes).expect("restore"));
    });
    std::fs::remove_dir_all(&dir).ok();

    // end-to-end: interrupt at step k, restore, run to n — must match
    // the uninterrupted run exactly
    let mut full = deck.build();
    full.run(12);
    let mut half = deck.build();
    half.run(5);
    let mut resumed =
        Simulation::restore_bytes(&half.checkpoint_bytes()).expect("mid-run restore");
    resumed.run(7);
    let resume_bit_identical = full.bit_diff(&resumed).is_none();

    let report = Report {
        deck: "weibel 12x12x12 ppc=8".into(),
        particles: sim.particle_count() as u64,
        cells: sim.grid.cells() as u64,
        snapshot_bytes,
        step_ms: step_s * 1e3,
        serialize_ms: serialize_s * 1e3,
        disk_write_ms: disk_s * 1e3,
        restore_ms: restore_s * 1e3,
        serialize_cost_steps: if step_s > 0.0 { serialize_s / step_s } else { 0.0 },
        resume_bit_identical,
    };

    println!("checkpoint cost — {} ({} particles)", report.deck, report.particles);
    println!("  snapshot size       {:>10} bytes", report.snapshot_bytes);
    println!("  step                {:>10.3} ms", report.step_ms);
    println!(
        "  serialize           {:>10.3} ms  ({:.2} steps)",
        report.serialize_ms, report.serialize_cost_steps
    );
    println!("  atomic disk write   {:>10.3} ms", report.disk_write_ms);
    println!("  restore             {:>10.3} ms", report.restore_ms);
    println!("  resume bit-identical: {}", report.resume_bit_identical);
    assert!(report.resume_bit_identical, "restore must resume bit-identically");
    report
}
