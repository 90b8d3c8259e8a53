//! Strong-scaling exploration (paper §5.5): sweep GPU counts on the three
//! modelled systems and watch the cache-driven superlinear region appear
//! and then yield to communication.
//!
//! ```sh
//! cargo run --release --example strong_scaling
//! ```

use std::time::Instant;
use vpic2::cluster::scaling::{paper_global_grid, speedup_curve, strong_scaling};
use vpic2::cluster::{systems, MultiRankSim};
use vpic2::core::Deck;
use vpic2::pk::Serial;

fn main() {
    // first, a *real* decomposed run: migration measured, physics intact,
    // and the same steps timed with the ranks in turn on this thread and
    // at the same time on the simulator's own pool (one step each to warm)
    let sim = Deck::uniform(12, 12, 12, 8).build();
    let mut ranks = MultiRankSim::new(&sim, 8, systems::selene().network);
    let mut in_turn = MultiRankSim::new(&sim, 8, systems::selene().network);
    ranks.step();
    in_turn.step_on(&Serial);
    let t = Instant::now();
    let frac = (0..5).map(|_| ranks.step().1.fraction()).sum::<f64>() / 5.0;
    let at_once = t.elapsed() / 5;
    let t = Instant::now();
    for _ in 0..5 {
        in_turn.step_on(&Serial);
    }
    let one_by_one = t.elapsed() / 5;
    println!(
        "measured particle migration across 8 executed ranks: {:.2}% per step",
        frac * 100.0
    );
    println!(
        "measured wall of a step on this host: {one_by_one:.2?} with the ranks in turn, \
         {at_once:.2?} at the same time on {} lanes\n",
        ranks.workers()
    );

    for sys in systems::all() {
        let grid = paper_global_grid(&sys);
        let points = strong_scaling(&sys, grid, 32);
        let curve = speedup_curve(&points);
        println!(
            "{} ({} / node of {}), grid {}x{}x{}:",
            sys.name, sys.gpus_per_node, sys.gpu, grid.0, grid.1, grid.2
        );
        println!(
            "  {:>6} {:>10} {:>8} {:>10} {:>9}",
            "GPUs", "speedup", "ideal", "step", "in-cache"
        );
        for (c, p) in curve.iter().zip(&points) {
            let marker = if c.1 > c.2 { "superlinear" } else { "" };
            println!(
                "  {:>6} {:>9.1}x {:>7.0}x {:>10.2?} {:>9} {}",
                c.0,
                c.1,
                c.2,
                std::time::Duration::from_secs_f64(p.step_time),
                p.grid_in_cache,
                marker
            );
        }
        println!();
    }
    println!("ok: superlinear regions driven by LLC capacity; roll-off driven by the network");
}
