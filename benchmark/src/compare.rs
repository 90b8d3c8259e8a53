//! `compare <a.json> <b.json>`: hold two result files of `run` against the
//! bounds the catalogue fixes.

use crate::catalogue::{Better, Workload, CHECK_FAIL_SHARE, END_TO_END};
use crate::json::{as_f64, get, get_path};
use serde::Value;

/// One workload × end-to-end metric pair.
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub unit: &'static str,
    pub base: f64,
    pub new: f64,
    pub bound: f64,
    /// `new` is worse than `base` by more than `bound`.
    pub regressed: bool,
}

impl Row {
    /// `new` ÷ `base`.
    pub fn ratio(&self) -> f64 {
        self.new / self.base
    }
}

pub struct Report {
    pub rows: Vec<Row>,
}

impl Report {
    pub fn ok(&self) -> bool {
        self.rows.iter().all(|r| !r.regressed)
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<16} {:<22} {:>14} {:>14} {:>16} {:>6}  verdict\n",
            "workload", "metric", "base (a)", "new (b)", "ratio (b/a)", "bound"
        );
        for r in &self.rows {
            out += &format!(
                "{:<16} {:<22} {:>14.6} {:>14.6} {:>16.4} {:>5.0}%  {}\n",
                r.workload,
                format!("{} [{}]", r.metric, r.unit),
                r.base,
                r.new,
                r.ratio(),
                r.bound * 100.0,
                if r.regressed { "OUTSIDE BOUND" } else { "ok" }
            );
        }
        out
    }
}

/// Compare two parsed result files. An error means the files cannot be
/// compared at all: a smoke run, a failed check, a missing number.
pub fn compare(base: &Value, new: &Value) -> Result<Report, String> {
    for (label, file) in [("a", base), ("b", new)] {
        if get(file, "smoke") != Some(&Value::Bool(false)) {
            return Err(format!(
                "file {label} is a smoke run (or says nothing about it): too short to compare"
            ));
        }
    }
    let number = |file: &Value, label: &str, path: &[&str]| {
        get_path(file, path)
            .and_then(as_f64)
            .ok_or_else(|| format!("file {label} has no number at {}", path.join("/")))
    };
    let mut rows = Vec::new();
    for workload in Workload::ALL.map(Workload::name) {
        for (label, file) in [("a", base), ("b", new)] {
            let share = number(file, label, &["workloads", workload, CHECK_FAIL_SHARE.name])?;
            if share > 0.0 {
                return Err(format!(
                    "file {label}: {workload} has {} = {share}",
                    CHECK_FAIL_SHARE.name
                ));
            }
        }
        for gated in END_TO_END {
            let path = ["workloads", workload, "end_to_end", gated.metric.name];
            let (a, b) = (number(base, "a", &path)?, number(new, "b", &path)?);
            let regressed = match gated.metric.better {
                Better::Higher => b < a * (1.0 - gated.bound),
                Better::Lower => b > a * (1.0 + gated.bound),
            };
            rows.push(Row {
                workload,
                metric: gated.metric.name,
                unit: gated.metric.unit,
                base: a,
                new: b,
                bound: gated.bound,
                regressed,
            });
        }
    }
    Ok(Report { rows })
}
