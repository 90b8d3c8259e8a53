//! Crash-and-resume drill: run a Weibel deck with periodic checkpoints,
//! kill the process at an arbitrary point (CI sends SIGKILL at a random
//! delay), restore from the last good snapshot, and finish the run —
//! the final state must be bit-identical to an uninterrupted reference.
//!
//! ```sh
//! cargo run --release --example kill_resume -- reference
//! cargo run --release --example kill_resume -- run /tmp/ckpt-dir &
//! sleep 0.7; kill -9 $!
//! cargo run --release --example kill_resume -- resume /tmp/ckpt-dir
//! ```
//!
//! `reference` and `resume` both end with a `final=` line carrying the
//! bit patterns of the final energy ledger and a hash over every
//! particle and field array; diffing the two lines is the whole check.

use std::path::Path;
use std::time::Duration;
use vpic2::core::{Deck, Simulation};

const TOTAL_STEPS: u64 = 120;
const CKPT_EVERY: u64 = 10;

fn deck() -> Deck {
    Deck::weibel(8, 8, 8, 6, 0.3)
}

/// FNV-1a over every bit of simulation state the physics depends on.
fn state_hash(sim: &Simulation) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    eat(&sim.step_count().to_le_bytes());
    // E and B: a step keeps no J
    for arr in sim.fields.arrays() {
        for v in arr.iter() {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    for s in &sim.species {
        for c in &s.cell {
            eat(&c.to_le_bytes());
        }
        for arr in [&s.dx, &s.dy, &s.dz, &s.ux, &s.uy, &s.uz, &s.w] {
            for v in arr.iter() {
                eat(&v.to_bits().to_le_bytes());
            }
        }
    }
    h
}

fn print_final(sim: &Simulation) {
    let e = sim.energies();
    println!(
        "final= step={} energy_bits={:016x} state_hash={:016x}",
        sim.step_count(),
        e.total().to_bits(),
        state_hash(sim)
    );
}

/// Step to `TOTAL_STEPS`, checkpointing every `CKPT_EVERY` steps when a
/// directory is given; `pace` adds a per-step sleep so an external
/// killer has a window to land mid-run.
fn drive(sim: &mut Simulation, dir: Option<&Path>, pace: bool) {
    while sim.step_count() < TOTAL_STEPS {
        if let Some(d) = dir {
            if sim.step_count().is_multiple_of(CKPT_EVERY) {
                let bytes = sim.checkpoint_to(&d.join("snap.vpck")).expect("checkpoint");
                println!("checkpointed step {} ({bytes} bytes)", sim.step_count());
            }
        }
        if pace {
            std::thread::sleep(Duration::from_millis(15));
        }
        sim.step();
    }
    print_final(sim);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("reference") => {
            let mut sim = deck().build();
            drive(&mut sim, None, false);
        }
        Some("run") => {
            let dir = Path::new(args.get(2).map(String::as_str).unwrap_or("/tmp/vpic-ckpt"));
            std::fs::create_dir_all(dir).expect("checkpoint dir");
            let mut sim = deck().build();
            drive(&mut sim, Some(dir), true);
        }
        Some("resume") => {
            let dir = Path::new(args.get(2).map(String::as_str).unwrap_or("/tmp/vpic-ckpt"));
            let (mut sim, fell_back) =
                Simulation::restore_from_path(&dir.join("snap.vpck")).expect("restore");
            println!(
                "restored step {} from {}",
                sim.step_count(),
                if fell_back { "rotated .prev snapshot" } else { "primary snapshot" }
            );
            drive(&mut sim, Some(dir), false);
        }
        _ => {
            eprintln!("usage: kill_resume reference | run <dir> | resume <dir>");
            std::process::exit(2);
        }
    }
}
