//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--profile[=path]] <target>...
//! ```
//!
//! `repro --help` lists the targets, one row each of the table
//! `TARGETS`: the paper's figures and Table 1, which `all` runs, and the
//! beyond-paper `ckpt`, `gpu`, `ranks` and `tune`. `--profile[=path]`
//! enables telemetry, prints the span summary table and writes a
//! Chrome/Perfetto trace to `path` (default trace.json) and a
//! machine-readable summary to `results/telemetry.json`. JSON copies of
//! every result land in `results/` (override with `REPRO_RESULTS_DIR`).

use bench::{ckpt, fig1, fig10, fig3, fig4, fig5, fig7, fig8, fig9, gpu, ranks, save_json};
use bench::{table1, tune};
use std::path::PathBuf;
use std::process::ExitCode;

type Runner = fn(&str) -> std::io::Result<PathBuf>;

/// Every target, once: its name (the stem of the `results/` file it
/// writes), whether `all` runs it, what it shows, and its runner, which
/// computes and prints the data and saves it under that name.
const TARGETS: [(&str, bool, &str, Runner); 14] = [
    ("fig1", true, "VPIC 1.2 SIMD code breakdown", |n| save_json(n, &fig1::run())),
    ("table1", true, "platforms + STREAM Triad validation", |n| save_json(n, &table1::run())),
    ("fig3", true, "RAJAPerf vectorization strategies (CPUs)", |n| save_json(n, &fig3::run())),
    ("fig4", true, "particle-push vectorization strategies", |n| save_json(n, &fig4::run())),
    ("fig5", true, "CPU gather-scatter bandwidth by sorting", |n| save_json(n, &fig5::run_cpu())),
    ("fig6", true, "GPU gather-scatter bandwidth by sorting", |n| save_json(n, &fig5::run_gpu())),
    ("fig7", true, "push kernel vs sorting order (GPUs)", |n| save_json(n, &fig7::run())),
    ("fig8", true, "push-kernel rooflines (H100/MI250/MI300A)", |n| save_json(n, &fig8::run())),
    ("fig9", true, "pushes/ns vs grid size (cache cliff)", |n| save_json(n, &fig9::run())),
    ("fig10", true, "strong scaling (Sierra/Selene/Tuolumne)", |n| save_json(n, &fig10::run())),
    ("ckpt", false, "checkpoint cost vs step cost, resume check", |n| save_json(n, &ckpt::run())),
    ("gpu", false, "SimGpu sort-order costs and best arm", |n| save_json(n, &gpu::run())),
    ("ranks", false, "executed multi-rank stepping vs the model", |n| save_json(n, &ranks::run())),
    ("tune", false, "adaptive tuner vs exhaustive config sweep", |n| save_json(n, &tune::run())),
];

fn run_target(name: &str) -> bool {
    let started = std::time::Instant::now();
    let Some((.., run)) = TARGETS.iter().find(|t| t.0 == name) else {
        eprintln!("unknown target: {name}");
        return false;
    };
    match run(name) {
        Ok(path) => {
            println!(
                "\n[{name}] done in {:.1}s → {}\n",
                started.elapsed().as_secs_f64(),
                path.display()
            );
            true
        }
        Err(e) => {
            eprintln!("[{name}] failed to save results: {e}");
            false
        }
    }
}

/// Print the span summary table and write the Chrome trace and the JSON
/// summary.
fn write_profile(trace_path: &str) -> std::io::Result<()> {
    let snap = telemetry::snapshot();
    let stats = telemetry::aggregate(&snap.events);
    print!("{}", telemetry::format_summary(&stats));
    std::fs::write(trace_path, telemetry::chrome_trace(&snap.events))?;
    let dir = bench::results_dir();
    std::fs::create_dir_all(&dir)?;
    let summary_path = dir.join("telemetry.json");
    std::fs::write(&summary_path, telemetry::summary_json(&snap))?;
    println!(
        "profile: {} span(s) → {trace_path} (load in ui.perfetto.dev) + {}",
        snap.events.len(),
        summary_path.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut profile: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--profile" {
            profile = Some("trace.json".into());
        } else if let Some(path) = arg.strip_prefix("--profile=") {
            profile = Some(path.to_string());
        } else {
            targets.push(arg);
        }
    }
    if targets.is_empty() || targets.iter().any(|a| a == "-h" || a == "--help") {
        println!("usage: repro [--profile[=path]] <target>...   (`all`: every target marked *)");
        for (name, in_all, about, _) in TARGETS {
            println!("  {name:<7}{} {about}", if in_all { '*' } else { ' ' });
        }
        println!("  --profile[=path]  telemetry on; span summary, trace to path (trace.json)");
        return ExitCode::SUCCESS;
    }
    if profile.is_some() {
        telemetry::set_enabled(true);
    }
    let mut ok = true;
    for arg in &targets {
        if arg == "all" {
            for (t, ..) in TARGETS.iter().filter(|t| t.1) {
                ok &= run_target(t);
            }
        } else {
            ok &= run_target(arg);
        }
    }
    if let Some(path) = &profile {
        if let Err(e) = write_profile(path) {
            eprintln!("failed to write profile: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every committed `results/*.json` is written by exactly one target,
    /// and every target's file is committed (`--profile`'s gitignored
    /// `telemetry.json` aside).
    #[test]
    fn every_results_file_has_one_target_and_every_target_its_file() {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut files: Vec<String> = std::fs::read_dir(dir).unwrap()
            .filter_map(|e| e.unwrap().file_name().to_str()?.strip_suffix(".json").map(Into::into))
            .filter(|stem| stem != "telemetry")
            .collect();
        files.sort();
        let mut targets: Vec<&str> = TARGETS.iter().map(|t| t.0).collect();
        targets.sort();
        assert_eq!(files, targets, "a name twice in either list differs too");
    }
}
