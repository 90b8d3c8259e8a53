//! Strong-scaling exploration (paper §5.5): sweep GPU counts on the three
//! modelled systems and watch the cache-driven superlinear region appear
//! and then yield to communication.
//!
//! ```sh
//! cargo run --release --example strong_scaling
//! ```

use vpic2::cluster::scaling::{paper_global_grid, speedup_curve, strong_scaling};
use vpic2::cluster::{systems, MultiRankSim};
use vpic2::core::Deck;

fn main() {
    // first, a *real* decomposed run: migration measured, physics intact
    let sim = Deck::uniform(12, 12, 12, 8).build();
    let mut ranks = MultiRankSim::new(&sim, 8, systems::selene().network);
    let frac = (0..5).map(|_| ranks.step().1.fraction()).sum::<f64>() / 5.0;
    println!(
        "measured particle migration across 8 executed ranks: {:.2}% per step\n",
        frac * 100.0
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
