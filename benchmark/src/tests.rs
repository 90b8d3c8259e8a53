//! Tests that hold the catalogue, `BENCHMARK.json` and what a run actually
//! emits together, plus `compare` and the digest.

use crate::catalogue::{
    Better, Metric, Workload, CHECK_FAIL_SHARE, DERIVED, END_TO_END, PER_LAYER,
};
use crate::compare::compare;
use crate::json::{self, as_f64, as_map, get};
use crate::workload::{self, field_digest, Args, Sizing};
use serde::Value;
use std::collections::BTreeSet;

/// Small enough that a debug build steps every workload in seconds, large
/// enough (16 electrons per cell, like the real deck) that the physics checks
/// still hold.
const TINY: Sizing = Sizing {
    weibel: (8, 16),
    lpi: (12, 8, 8),
    triad_llc_multiple: 0,
    flop_iters: 1000,
    setup_reps: 1,
    empty_dispatches: 20,
};

fn declared() -> Value {
    json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match get(v, key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key}: expected a string, found {other:?}"),
    }
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match get(v, key) {
        Some(Value::Seq(items)) => items,
        other => panic!("{key}: expected a list, found {other:?}"),
    }
}

fn better(v: &Value) -> Better {
    match text(v, "better") {
        "higher" => Better::Higher,
        "lower" => Better::Lower,
        other => panic!("better: {other:?}"),
    }
}

fn all_of(allowed: &str, s: &str) -> bool {
    s.chars().all(|c| c.is_ascii_alphanumeric() || allowed.contains(c))
}

#[test]
fn every_name_and_unit_is_well_formed_and_used_once() {
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .map(|g| g.metric)
        .chain(PER_LAYER)
        .chain(DERIVED)
        .chain([CHECK_FAIL_SHARE])
        .collect();
    let names: Vec<&str> =
        metrics.iter().map(|m| m.name).chain(Workload::ALL.map(Workload::name)).collect();
    for name in &names {
        assert!(!name.is_empty() && name.len() <= 64 && all_of("_.-", name), "name {name:?}");
        assert!(
            name.as_bytes()[0].is_ascii_alphanumeric(),
            "name {name:?} must start with a letter or digit"
        );
    }
    assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len(), "a name is used twice");
    for m in &metrics {
        assert!(
            !m.unit.is_empty() && m.unit.len() <= 16 && all_of("_/%.-", m.unit),
            "unit {:?}",
            m.unit
        );
    }
    for w in Workload::ALL {
        assert_eq!(Workload::from_name(w.name()), Some(w));
        assert!(
            w.why().len() <= 200 && !w.why().contains('\n'),
            "{}: why is one line of at most 200",
            w.name()
        );
    }
}

#[test]
fn benchmark_json_declares_exactly_the_catalogue() {
    let file = declared();
    assert_eq!(as_f64(get(&file, "run_seconds").unwrap()), Some(crate::RUN_SECONDS));
    assert_eq!(list(&file, "paths"), [Value::Str("benchmark".into())]);

    let workloads: Vec<(&str, &str)> =
        list(&file, "workloads").iter().map(|w| (text(w, "name"), text(w, "why"))).collect();
    assert_eq!(workloads, Workload::DECLARED.map(|w| (w.name(), w.why())));

    let end_to_end: Vec<_> = list(&file, "end_to_end")
        .iter()
        .map(|m| {
            (text(m, "name"), text(m, "unit"), better(m), as_f64(get(m, "bound").unwrap()).unwrap())
        })
        .collect();
    assert_eq!(
        end_to_end,
        END_TO_END.map(|g| (g.metric.name, g.metric.unit, g.metric.better, g.bound))
    );

    let per_layer: Vec<_> = list(&file, "per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), better(m)))
        .collect();
    assert_eq!(per_layer, PER_LAYER.map(|m| (m.name, m.unit, m.better)));
}

#[test]
fn a_run_emits_exactly_the_declared_names_and_passes_its_checks() {
    let file = declared();
    let names =
        |key| list(&file, key).iter().map(|m| text(m, "name").to_string()).collect::<BTreeSet<_>>();
    for workload in Workload::ALL {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = workload::run(&Args { workload, seed: 3, seconds: 0.0, trace }, &TINY);
            assert_eq!(outcome.failed, 0, "{} trace {trace}: a check failed", workload.name());
            assert!(outcome.attempted >= 20);
            assert_eq!(outcome.trace.is_some(), trace && workload != Workload::WeibelRanks4);

            // the line the driver reads: four keys, every declared metric,
            // nothing else, each a number with a unit
            let line = json::parse(&outcome.result_line()).unwrap();
            let keys: Vec<&str> = as_map(&line).unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(get(&line, "correct"), Some(&Value::Bool(true)));
            let metrics = as_map(get(&line, "metrics").unwrap()).unwrap();
            let emitted: BTreeSet<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(emitted, names(key), "{} trace {trace}", workload.name());
            for (name, entry) in metrics {
                let value = as_f64(get(entry, "value").unwrap())
                    .unwrap_or_else(|| panic!("{name} is not a number"));
                assert!(value.is_finite() && value >= 0.0, "{name} = {value}");
                assert!(!text(entry, "unit").is_empty());
                if !trace {
                    assert!(value > 0.0, "end-to-end metric {name} must never be 0");
                }
            }
        }
    }
}

#[test]
fn field_digest_repeats_for_a_seed_and_differs_between_seeds() {
    let tiny = Sizing { weibel: (4, 8), ..TINY };
    let digest = |seed| {
        let mut sim = workload::deck(Workload::WeibelSorted, seed, &tiny).build();
        sim.run(5);
        field_digest(&sim.fields)
    };
    assert_eq!(digest(1), digest(1));
    assert_ne!(digest(1), digest(2));
}

/// A result file with every workload reporting the same end-to-end values.
fn result_file(steps_per_s: f64, setup_s: f64, smoke: bool, fail_share: f64) -> Value {
    let values = [steps_per_s, setup_s, 70.0];
    let end_to_end = END_TO_END
        .iter()
        .zip(values)
        .map(|(g, v)| (g.metric.name.to_string(), Value::Float(v)))
        .collect();
    let entry = Value::Map(vec![
        (CHECK_FAIL_SHARE.name.into(), Value::Float(fail_share)),
        ("end_to_end".into(), Value::Map(end_to_end)),
    ]);
    let workloads = Workload::ALL.map(|w| (w.name().to_string(), entry.clone())).to_vec();
    Value::Map(vec![
        ("smoke".into(), Value::Bool(smoke)),
        ("workloads".into(), Value::Map(workloads)),
    ])
}

#[test]
fn compare_passes_identical_files_and_flags_a_slowdown_past_the_bound() {
    let base = result_file(6.0e6, 0.9, false, 0.0);
    let same = compare(&base, &base).unwrap();
    assert!(same.ok());
    assert_eq!(same.rows.len(), Workload::ALL.len() * END_TO_END.len());

    // both time metrics carry one bound; slow every workload down by a
    // factor just past it, and by one just inside it
    let bound = END_TO_END[0].bound;
    assert_eq!(END_TO_END[1].bound, bound);
    let slowed = |factor: f64| result_file(6.0e6 / factor, 0.9 * factor, false, 0.0);
    let slow = compare(&base, &slowed(1.0 / (1.0 - bound) + 0.05)).unwrap();
    assert!(!slow.ok());
    let flagged: BTreeSet<&str> =
        slow.rows.iter().filter(|r| r.regressed).map(|r| r.metric).collect();
    assert_eq!(flagged, BTreeSet::from(["particle_steps_per_s", "setup_s"]));
    assert!(slow.render().contains("OUTSIDE BOUND"));
    assert!(compare(&base, &slowed(1.0 + bound - 0.05)).unwrap().ok());

    // an improvement is never a regression
    assert!(compare(&base, &result_file(9.0e6, 0.5, false, 0.0)).unwrap().ok());
}

#[test]
fn compare_refuses_smoke_runs_and_failed_checks() {
    let good = result_file(6.0e6, 0.9, false, 0.0);
    assert!(compare(&good, &result_file(6.0e6, 0.9, true, 0.0)).is_err());
    assert!(compare(&result_file(6.0e6, 0.9, false, 0.01), &good).is_err());
    assert!(compare(&good, &Value::Map(vec![("smoke".into(), Value::Bool(false))])).is_err());
}
