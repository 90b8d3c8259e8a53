//! # bench — the reproduction harness
//!
//! One module per paper table/figure. Each module's `run()` returns the
//! figure's data (serde-serializable) and pretty-prints the same
//! rows/series the paper reports; the `repro` binary dispatches on
//! subcommands and stores JSON under `results/`.
//!
//! Where a figure is *measured* (host wall-clock: Figs 3 and 4's strategy
//! ratios, the sorting kernels) the harness times real code; where it is
//! *modelled* (the twelve Table-1 platforms, GPUs, the cluster) it drives
//! `memsim`/`cluster` with real key/cell streams. EXPERIMENTS.md records
//! which is which, per figure.

pub mod ablate;
pub mod ckpt;
pub mod fig1;
pub mod fig10;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod gpu;
pub mod ranks;
pub mod table1;
pub mod timing;
pub mod tune;

use serde::Serialize;
use std::io::Write;
use std::path::PathBuf;


/// True in unoptimized builds, where the trace-driven model tests are
/// impractically slow (they run in full under `--release`, as CI does).
#[cfg(test)]
pub(crate) fn skip_heavy_in_debug() -> bool {
    if cfg!(debug_assertions) {
        eprintln!("skipping model-heavy test in debug build; run with --release");
        true
    } else {
        false
    }
}

/// A step-budget knob from the environment, `default` when unset or
/// unparsable (CI shortens the measured targets through these).
pub(crate) fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Where the harness writes JSON results.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("REPRO_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    PathBuf::from(dir)
}

/// Serialize a figure's data to `results/<name>.json`.
pub fn save_json<T: Serialize>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    let mut f = std::fs::File::create(&path)?;
    let json = serde_json::to_string_pretty(value).expect("serializable");
    f.write_all(json.as_bytes())?;
    f.write_all(b"\n")?;
    Ok(path)
}

/// Format seconds human-readably.
pub(crate) fn fmt_time(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.2} µs", s * 1e6)
    } else {
        format!("{:.0} ns", s * 1e9)
    }
}

/// Serializes tests that flip the process-global telemetry flag so they
/// cannot race each other (or poison a concurrent measurement).
#[cfg(test)]
pub(crate) fn telemetry_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_time(2.5), "2.50 s");
        assert_eq!(fmt_time(2.5e-3), "2.50 ms");
        assert_eq!(fmt_time(2.5e-6), "2.50 µs");
        assert_eq!(fmt_time(2.6e-9), "3 ns");
    }

    #[test]
    fn save_json_roundtrips() {
        std::env::set_var("REPRO_RESULTS_DIR", "/tmp/repro-test-results");
        let path = save_json("unit-test", &vec![1, 2, 3]).unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains('1') && body.contains('3'));
        std::env::remove_var("REPRO_RESULTS_DIR");
    }
}
