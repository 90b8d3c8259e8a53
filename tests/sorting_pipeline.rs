//! Cross-crate integration: the sorting pipeline end to end — patterns →
//! sorts → structural verification → kernel execution → hardware model.

use vpic2::memsim::trace::GatherScatterSpec;
use vpic2::memsim::{platform, CpuModel, GpuModel};
use vpic2::psort::gather_scatter::{run_parallel, run_serial};
use vpic2::psort::{patterns, sort_pairs, verify, SortOrder};
use vpic2::pk::prelude::*;

#[test]
fn full_pipeline_all_orders_all_engines() {
    let unique = 4096;
    let reps = 32;
    let keys0 = patterns::repeated_keys(unique, reps, 42);
    let values: Vec<f64> = (0..keys0.len()).map(|i| 1.0 + (i % 5) as f64).collect();
    let table: Vec<f64> = (0..unique).map(|i| (i as f64).sqrt()).collect();
    let stencil = patterns::five_point_stencil(64);
    let reference = run_serial(&keys0, &values, &table, &stencil);

    let a100 = platform::by_name("A100").unwrap();
    let epyc = platform::by_name("EPYC 7763").unwrap();
    for order in SortOrder::fig7_set(128) {
        let mut keys = keys0.clone();
        let mut vals = values.clone();
        sort_pairs(order, &mut keys, &mut vals);
        // structure
        match order {
            SortOrder::Standard => assert!(verify::is_standard_order(&keys)),
            SortOrder::Strided => assert!(verify::is_strided_order(&keys)),
            SortOrder::TiledStrided { tile } => {
                assert!(verify::is_tiled_strided_order(&keys, tile))
            }
            SortOrder::Random => {}
        }
        // host kernel correctness (serial + threaded)
        let serial = run_serial(&keys, &vals, &table, &stencil);
        let threaded = run_parallel(&Threads::new(4), &keys, &vals, &table, &stencil);
        for i in 0..unique {
            assert!((serial[i] - reference[i]).abs() < 1e-9, "{order}");
            assert!((threaded[i] - reference[i]).abs() < 1e-9, "{order} threaded");
        }
        // hardware models accept the stream and produce finite costs
        let spec = GatherScatterSpec {
            keys: &keys,
            table_len: unique,
            elem_bytes: 8,
            stencil: &stencil,
            stream_bytes: 8.0,
            flops: 7.0,
            atomic: true,
        };
        let g = GpuModel::scaled(a100.clone(), 64.0).run(&spec);
        let c = CpuModel::scaled(epyc.clone(), 64.0).run(&spec);
        assert!(g.time > 0.0 && g.time.is_finite(), "{order} gpu");
        assert!(c.time > 0.0 && c.time.is_finite(), "{order} cpu");
        assert!(g.bandwidth() > 1e9, "{order}: gpu bandwidth sane");
    }
}

#[test]
fn species_sort_feeds_the_push_model() {
    use vpic2::core::Deck;
    use vpic2::memsim::push::{gpu_push, PushSpec};
    let mut sim = Deck::uniform(12, 12, 12, 8).build();
    sim.run(3);
    let model = GpuModel::new(platform::by_name("A100").unwrap());
    let mut times = Vec::new();
    for order in SortOrder::fig7_set(256) {
        sim.sort_particles(order);
        let cells = &sim.species[1].cell;
        let cost = gpu_push(&model, &PushSpec::vpic(cells, sim.grid.cells()));
        assert!(cost.cost.time > 0.0);
        times.push((order.name(), cost.cost.time));
    }
    // the orders must not all model identically (sorting matters)
    let min = times.iter().map(|t| t.1).fold(f64::INFINITY, f64::min);
    let max = times.iter().map(|t| t.1).fold(0.0, f64::max);
    assert!(max / min > 1.2, "sorting should change modelled cost: {times:?}");
}

#[test]
fn standard_sort_pairs_is_a_stable_tandem_sort() {
    // every psort order reorders keys and values in tandem through
    // pk::sort::argsort; the standard order must equal a from-scratch
    // stable sort by key
    let keys0 = patterns::repeated_keys(100, 11, 5);
    let mut keys = keys0.clone();
    let mut vals: Vec<usize> = (0..keys.len()).collect();
    sort_pairs(SortOrder::Standard, &mut keys, &mut vals);
    let mut want: Vec<(u32, usize)> = keys0.iter().enumerate().map(|(i, &k)| (k, i)).collect();
    want.sort(); // stable by (key, original index)
    for (i, &(k, v)) in want.iter().enumerate() {
        assert_eq!(keys[i], k);
        assert_eq!(vals[i], v);
    }
}

#[test]
fn the_scheduled_sort_through_the_scratch_matches_species_sort_bitwise() {
    // a simulation sorts its species through one scratch sized by the
    // longest; the second species is the shorter, so it sorts through
    // buffers longer than itself. Species::sort keeps buffers of its own.
    use vpic2::core::{Grid, Simulation, Species};
    let build = |order: Option<SortOrder>| {
        let grid = Grid::new(8, 8, 8);
        let mut sim = Simulation::new(grid.clone());
        for (name, q, m, n, seed) in [("electron", -1.0, 1.0, 3000, 5), ("ion", 1.0, 25.0, 1100, 6)]
        {
            let mut s = Species::new(name, q, m);
            s.load_uniform(&grid, n, 0.2, (0.0, 0.0, 0.0), 0.01, seed);
            sim.add_species(s);
        }
        sim.sort_order = order;
        sim.sort_interval = 2;
        sim
    };
    let orders =
        |sim: &Simulation| sim.species.iter().map(|s| s.current_order()).collect::<Vec<_>>();
    for order in SortOrder::fig7_set(8) {
        // the hook alone: the arrays right after the sort
        let (mut hook, mut own) = (build(None), build(None));
        assert_eq!(hook.sort_particles(order), 2, "{order}");
        for s in &mut own.species {
            assert!(s.sort(order), "{order}");
        }
        assert_eq!(hook.bit_diff(&own), None, "{order}");
        assert_eq!(orders(&hook), [Some(order); 2], "{order}");
        assert_eq!(orders(&hook), orders(&own), "{order}");
        // the step's schedule, every second step, against the species'
        // own sort before the same steps
        let (mut scheduled, mut by_hand) = (build(Some(order)), build(None));
        for step in 0..6 {
            if step % 2 == 0 {
                for s in &mut by_hand.species {
                    s.sort(order);
                }
            }
            scheduled.step();
            by_hand.step();
            assert_eq!(scheduled.bit_diff(&by_hand), None, "{order}, step {step}");
            assert_eq!(orders(&scheduled), orders(&by_hand), "{order}, step {step}");
        }
    }
}
