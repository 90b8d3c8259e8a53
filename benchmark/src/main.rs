//! The repo benchmark. Three entry points, all run from the root of the repo:
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark run [--seed <n>] [--seconds <s>] [--smoke]
//! benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is one run of one workload and ends with the result line
//! `BENCHMARK.json` promises; `run` calls it once per workload and tracing
//! mode, one child process at a time. See `README.md` beside this package.

mod catalogue;
mod compare;
mod host;
mod json;
mod stats;
mod suite;
#[cfg(test)]
mod tests;
mod trace;
mod workload;

use catalogue::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

/// Seconds one workload run measures, unless `--seconds` says otherwise; the
/// same figure `BENCHMARK.json` gives as `run_seconds`.
const RUN_SECONDS: f64 = 20.0;

/// Where result and trace files go, relative to the root of the repo.
fn results_dir() -> PathBuf {
    PathBuf::from("benchmark/results")
}

const USAGE: &str = "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
       benchmark run [--seed <n>] [--seconds <s>] [--smoke]
       benchmark compare <a.json> <b.json>";

/// `--name value` pairs and bare `--flags`, as the three entry points need
/// them.
struct Options(Vec<String>);

impl Options {
    fn flag(&mut self, name: &str) -> bool {
        let at = self.0.iter().position(|a| a == name);
        at.map(|i| self.0.remove(i)).is_some()
    }

    fn value<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        let text = self.0.remove(i + 1);
        self.0.remove(i);
        text.parse().map(Some).map_err(|_| format!("{name}: cannot read {text:?}"))
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
        }
    }
}

fn seconds_in_range(seconds: f64) -> Result<f64, String> {
    if (0.0..=600.0).contains(&seconds) {
        Ok(seconds)
    } else {
        Err(format!("--seconds {seconds} is outside 0..=600"))
    }
}

fn one_workload(mut opts: Options) -> Result<ExitCode, String> {
    let name: String = opts.value("--workload")?.ok_or("--workload is required")?;
    let workload = Workload::from_name(&name).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; one of {}",
            Workload::ALL.map(Workload::name).join(", ")
        )
    })?;
    let args = workload::Args {
        workload,
        seed: opts.value("--seed")?.unwrap_or(1),
        seconds: seconds_in_range(opts.value("--seconds")?.unwrap_or(RUN_SECONDS))?,
        trace: match opts.value::<u8>("--trace")?.unwrap_or(0) {
            0 => false,
            1 => true,
            other => return Err(format!("--trace {other}: 0 or 1")),
        },
    };
    opts.done()?;
    let outcome = workload::run(&args, &workload::FULL);
    // inputs, sample counts and ungated figures first, beside the metrics
    for (key, value) in json::as_map(&outcome.detail).unwrap_or_default() {
        if !matches!(value, serde::Value::Seq(_)) {
            println!("# {key} = {}", json::render(value, false));
        }
    }
    for (metric, value) in &outcome.metrics {
        println!("{}", suite::metric_line(metric, *value));
    }
    if let Some(spans) = &outcome.trace {
        let path = results_dir().join(format!("trace-{}.json", workload.name()));
        let written = std::fs::create_dir_all(results_dir())
            .and_then(|()| std::fs::write(&path, json::render(spans, false)));
        if let Err(e) = written {
            // the spans have served the metrics already; the file is for a reader
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    println!("{}{}", suite::DETAIL_PREFIX, json::render(&outcome.detail, false));
    println!("{}", outcome.result_line());
    Ok(ExitCode::SUCCESS)
}

fn every_workload(mut opts: Options) -> Result<ExitCode, String> {
    let smoke = opts.flag("--smoke");
    let seed = opts.value("--seed")?.unwrap_or(1);
    let seconds = seconds_in_range(opts.value("--seconds")?.unwrap_or(RUN_SECONDS))?;
    opts.done()?;
    suite::run(seed, seconds, smoke)
}

fn compare_files(mut paths: Vec<String>) -> Result<ExitCode, String> {
    let [a, b] = paths.as_mut_slice() else {
        return Err(USAGE.into());
    };
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let report = compare::compare(&read(a)?, &read(b)?)?;
    print!("{}", report.render());
    Ok(if report.ok() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => every_workload(Options(args.split_off(1))),
        Some("compare") => compare_files(args.split_off(1)),
        Some(first) if first.starts_with("--") => one_workload(Options(args)),
        _ => Err(USAGE.into()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}
