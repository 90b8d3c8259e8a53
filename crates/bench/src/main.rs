//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro <target> [targets...]
//!   fig1   VPIC 1.2 SIMD code breakdown
//!   table1 platform table + STREAM Triad validation
//!   fig3   RAJAPerf vectorization strategies (CPUs)
//!   fig4   particle-push vectorization strategies (CPUs)
//!   fig5   CPU gather-scatter bandwidth by sorting
//!   fig6   GPU gather-scatter bandwidth by sorting
//!   fig7   push kernel vs sorting order (GPUs)
//!   fig8   push-kernel rooflines (H100/MI250/MI300A)
//!   fig9   pushes/ns vs grid size (cache cliff)
//!   fig10  strong scaling (Sierra/Selene/Tuolumne)
//!   all    everything above
//!
//!   ckpt              checkpoint/restore cost vs step cost, resume check
//!   gpu               SimGpu one-sweep: per-platform sort-order costs
//!                     on executed kernels, tuner vs exhaustive
//!   ranks             executed multi-rank stepping: speedup + overlap
//!                     at 1/2/4/8 virtual ranks vs the closed-form model
//!   tune              adaptive tuner vs exhaustive config sweep
//!                     (TUNE_EPOCH_STEPS / TUNE_SWEEP_STEPS)
//!   ablate-tile       tiled-strided tile-size sweep (A100)
//!   ablate-gpu-aware  Sierra with GPU-aware MPI forced on
//!   ablate-weak       weak scaling on all three systems
//!
//! options:
//!   --profile[=path]  enable telemetry; print the span summary table,
//!                     write a Chrome/Perfetto trace to `path` (default
//!                     trace.json) and a machine-readable summary to
//!                     `results/telemetry.json`
//! ```
//!
//! JSON copies of every result land in `results/` (override with
//! `REPRO_RESULTS_DIR`).

use std::process::ExitCode;

const TARGETS: [&str; 10] = [
    "fig1", "table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
];

fn run_target(name: &str) -> bool {
    let started = std::time::Instant::now();
    let saved = match name {
        "fig1" => bench::save_json("fig1", &bench::fig1::run()),
        "table1" => bench::save_json("table1", &bench::table1::run()),
        "fig3" => bench::save_json("fig3", &bench::fig3::run()),
        "fig4" => bench::save_json("fig4", &bench::fig4::run()),
        "fig5" => bench::save_json("fig5", &bench::fig5::run_cpu()),
        "fig6" => bench::save_json("fig6", &bench::fig5::run_gpu()),
        "fig7" => bench::save_json("fig7", &bench::fig7::run()),
        "fig8" => bench::save_json("fig8", &bench::fig8::run()),
        "fig9" => bench::save_json("fig9", &bench::fig9::run()),
        "fig10" => bench::save_json("fig10", &bench::fig10::run()),
        "ablate-tile" => bench::save_json("ablate-tile", &bench::ablate::run_tile()),
        "ablate-gpu-aware" => {
            bench::save_json("ablate-gpu-aware", &bench::ablate::run_gpu_aware())
        }
        "ablate-weak" => bench::save_json("ablate-weak", &bench::ablate::run_weak()),
        "ckpt" => bench::save_json("ckpt", &bench::ckpt::run()),
        "gpu" => bench::save_json("gpu", &bench::gpu::run()),
        "ranks" => bench::save_json("ranks", &bench::ranks::run()),
        "tune" => bench::save_json("tune", &bench::tune::run()),
        other => {
            eprintln!("unknown target: {other}");
            return false;
        }
    };
    match saved {
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

/// Print the span summary + histogram tables and write the Chrome trace
/// and the JSON summary.
fn write_profile(trace_path: &str) -> std::io::Result<()> {
    let snap = telemetry::snapshot();
    let stats = telemetry::aggregate(&snap.events);
    print!("{}", telemetry::format_summary(&stats));
    print!("{}", telemetry::format_metrics(&snap.metrics));
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
        println!(
            "usage: repro [--profile[=path]] <target>...   targets: {} all\n\
             \x20      extra: ckpt gpu ranks tune \
             ablate-tile ablate-gpu-aware ablate-weak",
            TARGETS.join(" ")
        );
        return ExitCode::SUCCESS;
    }
    if profile.is_some() {
        telemetry::set_enabled(true);
    }
    let mut ok = true;
    for arg in &targets {
        if arg == "all" {
            for t in TARGETS {
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
