//! Adaptive auto-tuning: arm a simulation with the tuner and watch it
//! explore the sort schedule ({unsorted} ∪ {sort order × interval}, on
//! the deck's own push strategy and scatter mode) online, then commit to
//! the cheapest arm for the rest of the run.
//!
//! ```sh
//! cargo run --release --example autotune
//! ```

use vpic2::core::Deck;
use vpic2::memsim::platform::by_name;
use vpic2::memsim::push::grid_fits_llc;
use vpic2::pk::Serial;
use vpic2::tuner::{config_space, Tuner, DEFAULT_INTERVALS};

fn main() {
    let deck = Deck::weibel(8, 8, 8, 6, 0.4);
    let mut sim = deck.build();
    let cells = sim.grid.cells();

    // cache-model prior: if the whole field grid fits in the platform's
    // last-level cache, gather/scatter stays cheap without sorting — start
    // the exploration from the unsorted arm
    let platform = by_name("EPYC 7763").unwrap();
    let start_unsorted = grid_fits_llc(&platform, cells);
    println!(
        "deck: {} cells, {} particles; prior({}): {}",
        cells,
        sim.particle_count(),
        platform.name,
        if start_unsorted { "grid fits LLC, start unsorted" } else { "grid spills LLC, start sorting" }
    );

    // one epoch per arm, re-measure the 8 cheapest, then commit
    let arms = config_space(&sim.config(), 16, &DEFAULT_INTERVALS);
    let epoch_steps = 10;
    let tuner = Tuner::new(arms.clone(), epoch_steps)
        .with_cache_prior(start_unsorted)
        .with_refinement(8);
    sim.set_tuner(tuner);

    // (#arms + refinement + a few committed epochs) worth of steps
    let steps = (arms.len() + 8 + 3) * epoch_steps;
    sim.run_on(&Serial, steps);

    let t = sim.take_tuner().expect("tuner armed");
    println!("\n{} epochs", t.epochs());
    let (best, cost) = t.best().expect("measured arms");
    println!("committed: {} ({:.1} ns/particle amortized)", best.label(), cost);

    // the recorded schedule replays the run bit-identically: each entry is
    // the exact step a config took effect
    println!("\nschedule ({} changes):", t.schedule().len());
    for entry in t.schedule().iter().take(5) {
        println!("  step {:>4}: {}", entry.step, entry.config.label());
    }
    if t.schedule().len() > 5 {
        println!("  ... and {} more", t.schedule().len() - 5);
    }
    match t.committed() {
        Some(c) => println!("\nok: tuner committed to {}", c.label()),
        None => println!("\ntuner still exploring (raise `steps` to let it commit)"),
    }
}
