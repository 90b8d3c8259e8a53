//! Flight recorder: the newest span events of every shard, rendered into
//! a deterministic post-mortem report when a run dies — a worker-lane
//! panic surfacing as `StepError::WorkerPanic`, or a checkpoint restore
//! that fails validation — so a dead run leaves evidence instead of
//! nothing.
//!
//! It reads the span pipeline's own buffers: they fill only while
//! profiling is enabled (the same one-relaxed-load gate as everything
//! else) and evict their oldest events at the cap, so the *last* moments
//! before a crash survive even in a soak run that dropped millions of
//! earlier events.
//!
//! [`render_flight_report`] is a pure function of its snapshot —
//! byte-identical output for fixed input, same discipline as the other
//! exporters.

use crate::registry::{Snapshot, FLIGHT_TAIL};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Render a snapshot's events, counters and drop count as the post-mortem
/// report text. Pure: timestamps and counts
/// are carried in, never sampled.
pub(crate) fn render_flight_report(context: &str, snap: &Snapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== vpic2 flight recorder ==");
    let _ = writeln!(out, "context: {context}");
    let _ = writeln!(out, "ring_events: {}", snap.events.len());
    let _ = writeln!(out, "dropped_events: {}", snap.dropped_events);
    if snap.events.is_empty() {
        let _ = writeln!(
            out,
            "(ring empty — enable profiling with PK_PROFILE=1 or telemetry::set_enabled \
             to capture evidence)"
        );
    }
    let _ = writeln!(out, "\n-- counters --");
    for (k, v) in &snap.counters {
        let _ = writeln!(out, "{k} = {v}");
    }
    let _ = writeln!(out, "\n-- recent events (oldest first) --");
    let _ = writeln!(out, "{:>14} {:>12} {:>5}  name / args", "start_ns", "dur_ns", "track");
    for e in &snap.events {
        let _ = write!(out, "{:>14} {:>12} {:>5}  {}", e.start_ns, e.dur_ns, e.track, e.name);
        for (k, v) in &e.args {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
    }
    out
}

/// Write the flight report — every shard's newest 256 events
/// merged, counters, drop totals, with `context` as the headline — to
/// `$PK_FLIGHT_DIR/flight-report.txt` (defaulting to the working
/// directory) and return the path. Failures are reported on stderr, never
/// panicked — this runs on paths that are already handling an error.
pub fn dump_flight(context: &str) -> Option<PathBuf> {
    let dir = std::env::var("PK_FLIGHT_DIR").unwrap_or_else(|_| ".".into());
    let path = Path::new(&dir).join("flight-report.txt");
    let report = render_flight_report(context, &crate::registry::newest(FLIGHT_TAIL));
    let write = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, report));
    match write {
        Ok(()) => {
            eprintln!("flight recorder: wrote {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("flight recorder: failed to write {}: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Event;
    use std::collections::BTreeMap;

    fn synthetic() -> Snapshot {
        Snapshot {
            events: vec![
                Event {
                    name: "sim.step".into(),
                    cat: "span",
                    track: 0,
                    start_ns: 1_000,
                    dur_ns: 9_500,
                    args: vec![("step", "7".into())],
                },
                Event {
                    name: "sim.push::lane".into(),
                    cat: "lane",
                    track: 2,
                    start_ns: 1_310,
                    dur_ns: 6_400,
                    args: vec![],
                },
            ],
            counters: BTreeMap::from([
                ("pk.pool.worker_panics".to_string(), 1u64),
                ("sim.particles_pushed".to_string(), 4096u64),
            ]),
            dropped_events: 3,
        }
    }

    #[test]
    fn report_is_byte_deterministic() {
        let snap = synthetic();
        let a = render_flight_report("test: worker panic", &snap);
        let b = render_flight_report("test: worker panic", &snap);
        assert_eq!(a, b);
    }

    #[test]
    fn report_carries_context_events_and_counters() {
        let out = render_flight_report("sim.try_step: worker panic on 2 lane(s)", &synthetic());
        assert!(out.contains("context: sim.try_step: worker panic on 2 lane(s)"));
        assert!(out.contains("dropped_events: 3"));
        assert!(out.contains("pk.pool.worker_panics = 1"));
        assert!(out.contains("sim.step step=7"));
        assert!(out.contains("sim.push::lane"));
    }

    #[test]
    fn empty_ring_reports_the_gate_hint() {
        let snap = Snapshot::default();
        let out = render_flight_report("nothing recorded", &snap);
        assert!(out.contains("ring_events: 0"));
        assert!(out.contains("PK_PROFILE"));
    }

    #[test]
    fn dump_writes_under_flight_dir() {
        let dir = std::env::temp_dir().join("vpic2-flight-test");
        std::env::set_var("PK_FLIGHT_DIR", &dir);
        let path = dump_flight("unit test dump").expect("dump must succeed");
        std::env::remove_var("PK_FLIGHT_DIR");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("context: unit test dump"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
