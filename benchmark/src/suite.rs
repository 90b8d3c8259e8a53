//! `run`: every workload, untraced then traced, one child process at a time,
//! so no more threads are alive than the workload itself starts and each
//! child's memory high-water mark is its own.

use crate::catalogue::{Metric, Workload, CHECK_FAIL_SHARE, DERIVED};
use crate::json::{self, as_f64, as_map, get, get_path};
use serde::Value;
use std::process::{Command, ExitCode};
use std::time::{SystemTime, UNIX_EPOCH};

/// Marks the line on which a workload run prints its detail object.
pub const DETAIL_PREFIX: &str = "detail ";

/// A smoke run measures this share of the requested time.
const SMOKE_SHARE: f64 = 0.1;

/// One metric by name, value and unit; small values keep their digits.
pub fn metric_line(metric: &Metric, value: f64) -> String {
    if value != 0.0 && value.abs() < 1e-3 {
        format!("{:<46} {value:>18.6e} {}", metric.name, metric.unit)
    } else {
        format!("{:<46} {value:>18.6} {}", metric.name, metric.unit)
    }
}

/// What one child process reported.
struct Child {
    attempted: u64,
    failed: u64,
    /// Metric name to value.
    metrics: Vec<(String, Value)>,
    detail: Value,
}

impl Child {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == name).and_then(|(_, v)| as_f64(v))
    }

    fn digest(&self) -> Option<&Value> {
        get(&self.detail, "field_digest")
    }
}

/// Run one workload in a child process, echo what it prints, read its last
/// two lines. A child that dies, or whose result cannot be read, fails every
/// operation it was given: one attempted, one failed.
fn spawn(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Child {
    let failed = |why: String| {
        println!("CHECK FAILED: {} (trace {}): {why}", workload.name(), trace as u8);
        Child { attempted: 1, failed: 1, metrics: Vec::new(), detail: Value::Map(Vec::new()) }
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return failed(format!("cannot find this executable: {e}")),
    };
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output();
    let output = match output {
        Ok(output) => output,
        Err(e) => return failed(format!("cannot start the child: {e}")),
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    if !output.status.success() {
        print!("{stdout}");
        return failed(format!("child ended with {}", output.status));
    }
    let parsed = (|| {
        let result = json::parse(lines.pop()?).ok()?;
        let detail = json::parse(lines.pop()?.strip_prefix(DETAIL_PREFIX)?).ok()?;
        let count = |key| match get(&result, key) {
            Some(Value::UInt(n)) => Some(*n),
            _ => None,
        };
        let metrics = as_map(get(&result, "metrics")?)?
            .iter()
            .map(|(name, entry)| Some((name.clone(), get(entry, "value")?.clone())))
            .collect::<Option<Vec<_>>>()?;
        Some(Child { attempted: count("attempted")?, failed: count("failed")?, metrics, detail })
    })();
    for line in lines {
        println!("  {line}");
    }
    parsed.unwrap_or_else(|| {
        failed("the child's last two lines are not a detail and a result line".into())
    })
}

pub fn run(seed: u64, seconds: f64, smoke: bool) -> Result<ExitCode, String> {
    let seconds = if smoke { seconds * SMOKE_SHARE } else { seconds };
    let mut runs = Vec::new();
    for workload in Workload::ALL {
        println!("── {} — {}", workload.name(), workload.why());
        if !Workload::DECLARED.contains(&workload) {
            println!(" (for `run` and `compare` only: BENCHMARK.json does not declare it)");
        }
        println!(" end to end (tracing off, telemetry off), seed {seed}, --seconds {seconds:.1}:");
        let untraced = spawn(workload, seed, seconds, false);
        println!(" per layer (traced run):");
        let traced = spawn(workload, seed, seconds, true);
        runs.push((workload, untraced, traced));
    }

    // the check that needs more than one child: the three Weibel workloads
    // step one deck and seed N times, so they end on one field digest
    let reference_digest = runs[0].1.digest().cloned();
    let mut entries = Vec::new();
    let mut all_passed = true;
    for (workload, untraced, traced) in &runs {
        let mut attempted = untraced.attempted + traced.attempted;
        let mut failed = untraced.failed + traced.failed;
        if workload.is_weibel() {
            attempted += 1;
            if untraced.digest().is_none() || untraced.digest() != reference_digest.as_ref() {
                println!(
                    "CHECK FAILED: {}: final field digest differs from {}'s",
                    workload.name(),
                    Workload::ALL[0].name()
                );
                failed += 1;
            }
        }
        let share = failed as f64 / attempted as f64;
        all_passed &= failed == 0;
        println!(
            "{:<16} {:<46} {share:>18.6} {}  ({failed} of {attempted})",
            workload.name(),
            CHECK_FAIL_SHARE.name,
            CHECK_FAIL_SHARE.unit
        );
        entries.push((
            workload.name().to_string(),
            Value::Map(vec![
                ("why".into(), Value::Str(workload.why().into())),
                ("end_to_end".into(), Value::Map(untraced.metrics.clone())),
                ("per_layer".into(), Value::Map(traced.metrics.clone())),
                (CHECK_FAIL_SHARE.name.into(), Value::Float(share)),
                ("attempted".into(), Value::UInt(attempted)),
                ("failed".into(), Value::UInt(failed)),
                ("detail".into(), untraced.detail.clone()),
                ("traced_detail".into(), traced.detail.clone()),
            ]),
        ));
    }

    // ratios between workloads of this one invocation
    let find = |w: Workload| runs.iter().find(|(x, ..)| *x == w).expect("every workload ran");
    let (_, sorted, sorted_traced) = find(Workload::WeibelSorted);
    let (_, threads, threads_traced) = find(Workload::WeibelThreads);
    let (_, _, ranks_traced) = find(Workload::WeibelRanks4);
    let ratio = |a: Option<f64>, b: Option<f64>| a.zip(b).map(|(a, b)| a / b);
    let push = "core.push.ns_per_particle";
    let rate = "particle_steps_per_s";
    let derived = [
        ratio(sorted_traced.metric(push), threads_traced.metric(push)),
        ratio(threads.metric(rate), sorted.metric(rate).map(|r| 2.0 * r)),
        // whole-step ns per particle is the reciprocal of the headline
        ratio(
            ranks_traced.metric("cluster.step_ns_per_particle"),
            sorted.metric(rate).map(|r| 1e9 / r),
        ),
    ];
    println!("── between workloads");
    let mut derived_entries = Vec::new();
    for (metric, value) in DERIVED.iter().zip(derived) {
        match value {
            Some(v) => println!("{}", metric_line(metric, v)),
            None => println!("{:<46} {:>18} (a run it needs did not finish)", metric.name, "-"),
        }
        derived_entries.push((metric.name.to_string(), value.map_or(Value::Null, Value::Float)));
    }
    let first = get_path(&entries[0].1, &["per_layer", "host.triad_gbps"]).and_then(as_f64);
    let last = get_path(&runs[runs.len() - 1].2.detail, &["triad_gbps_after"]).and_then(as_f64);
    if let Some(drift) = ratio(last, first) {
        let flag = if (0.9..=1.1).contains(&drift) {
            ""
        } else {
            "  HOST DRIFTED: treat this run's times as noisy"
        };
        println!(
            "{:<46} {drift:>18.6} ratio (last run's Triad after ÷ first run's before){flag}",
            "host.triad_drift"
        );
        derived_entries.push(("host.triad_drift".into(), Value::Float(drift)));
    }

    let stamp = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    let file = Value::Map(vec![
        ("stamp".into(), Value::UInt(stamp)),
        ("seed".into(), Value::UInt(seed)),
        ("seconds".into(), Value::Float(seconds)),
        ("smoke".into(), Value::Bool(smoke)),
        ("workloads".into(), Value::Map(entries)),
        ("between_workloads".into(), Value::Map(derived_entries)),
    ]);
    let dir = crate::results_dir();
    let path = dir.join(format!("{stamp}.json"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, json::render(&file, true)))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(if all_passed { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
