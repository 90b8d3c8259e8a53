//! Exporters: summary table, summary JSON, and Chrome `trace_event` JSON.
//!
//! Every function here is a pure function of its input — timestamps are
//! injected via the events, never sampled — so output is byte-identical
//! for a fixed event sequence (the determinism tests below pin this).

use crate::metrics::MetricsSnapshot;
use crate::registry::{Event, Snapshot};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Aggregated statistics for one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// Span name.
    pub name: String,
    /// Occurrences.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Mean duration, ns.
    pub mean_ns: u64,
    /// Median duration, ns (nearest-rank).
    pub p50_ns: u64,
    /// 95th-percentile duration, ns (nearest-rank).
    pub p95_ns: u64,
    /// 99th-percentile duration, ns (nearest-rank).
    pub p99_ns: u64,
    /// Longest single occurrence, ns.
    pub max_ns: u64,
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Aggregate events by span name, largest total first (name-ordered ties).
pub fn aggregate(events: &[Event]) -> Vec<SpanStat> {
    let mut durs: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for e in events {
        durs.entry(e.name.as_str()).or_default().push(e.dur_ns);
    }
    let mut stats: Vec<SpanStat> = durs
        .into_iter()
        .map(|(name, mut d)| {
            d.sort_unstable();
            let total: u64 = d.iter().sum();
            SpanStat {
                name: name.to_string(),
                count: d.len() as u64,
                total_ns: total,
                mean_ns: total / d.len() as u64,
                p50_ns: percentile(&d, 50.0),
                p95_ns: percentile(&d, 95.0),
                p99_ns: percentile(&d, 99.0),
                max_ns: *d.last().unwrap(),
            }
        })
        .collect();
    stats.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
    stats
}

/// Human-readable duration: picks s/ms/µs/ns to keep 3-4 significant digits.
fn fmt_ns(ns: u64) -> String {
    let s = ns as f64 / 1e9;
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.2} µs", s * 1e6)
    } else {
        format!("{ns} ns")
    }
}

/// Render the end-of-run summary table (count, total, mean, p50, p95,
/// p99, max per span name, largest total first).
pub fn format_summary(stats: &[SpanStat]) -> String {
    let name_w = stats.iter().map(|s| s.name.len()).max().unwrap_or(4).max(4);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<name_w$} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "span", "count", "total", "mean", "p50", "p95", "p99", "max"
    );
    for s in stats {
        let _ = writeln!(
            out,
            "{:<name_w$} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            s.name,
            s.count,
            fmt_ns(s.total_ns),
            fmt_ns(s.mean_ns),
            fmt_ns(s.p50_ns),
            fmt_ns(s.p95_ns),
            fmt_ns(s.p99_ns),
            fmt_ns(s.max_ns),
        );
    }
    out
}

/// Render the histogram table (count/mean/p50/p95/p99), name-ordered.
/// Empty string when nothing was recorded.
pub fn format_metrics(metrics: &MetricsSnapshot) -> String {
    let mut out = String::new();
    if !metrics.hists.is_empty() {
        let name_w = metrics.hists.keys().map(|n| n.len()).max().unwrap_or(9).max(9);
        let _ = writeln!(
            out,
            "{:<name_w$} {:>10} {:>12} {:>12} {:>12} {:>12}",
            "histogram", "count", "mean", "p50", "p95", "p99"
        );
        for (name, h) in &metrics.hists {
            let _ = writeln!(
                out,
                "{:<name_w$} {:>10} {:>12} {:>12} {:>12} {:>12}",
                name,
                h.count,
                h.mean(),
                h.percentile(50.0),
                h.percentile(95.0),
                h.percentile(99.0),
            );
        }
    }
    out
}

/// JSON-escape a string (quotes, backslashes, control characters).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Microseconds with fixed 3-decimal nanosecond remainder (`ts`/`dur`
/// fields of the Chrome trace format are microseconds).
fn fmt_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// The Chrome-trace process an event belongs to: virtual rank `r` (from a
/// `rank` span argument, as `rank_span` attaches) maps to `pid = r + 1`;
/// everything else stays on the host process `pid = 0`. Perfetto groups
/// tracks by pid, so multirank traces render one lane group per rank
/// instead of one flat track list.
fn event_pid(e: &Event) -> u32 {
    e.args
        .iter()
        .find(|(k, _)| *k == "rank")
        .and_then(|(_, v)| v.parse::<u32>().ok())
        .map_or(0, |r| r.saturating_add(1))
}

/// Render events as a Chrome `trace_event` JSON array — loadable in
/// `chrome://tracing` and Perfetto. One `tid` (track) per worker lane
/// with thread-name metadata, and one `pid` (process) per virtual rank
/// with process-name metadata, so multirank traces group by rank.
pub fn chrome_trace(events: &[Event]) -> String {
    let mut out = String::from("[\n");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"vpic2\"}}",
    );
    let mut tracks: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut rank_pids: BTreeSet<u32> = BTreeSet::new();
    for e in events {
        let pid = event_pid(e);
        tracks.insert((pid, e.track));
        if pid > 0 {
            rank_pids.insert(pid);
        }
    }
    for &pid in &rank_pids {
        let _ = write!(
            out,
            ",\n{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"rank {}\"}}}}",
            pid - 1
        );
    }
    for &(pid, t) in &tracks {
        let label = if t == 0 { "lane 0 (caller)".to_string() } else { format!("lane {t}") };
        let _ = write!(
            out,
            ",\n{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{t},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{label}\"}}}}"
        );
    }
    for e in events {
        let _ = write!(
            out,
            ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\
             \"ts\":{},\"dur\":{}",
            esc(&e.name),
            esc(e.cat),
            event_pid(e),
            e.track,
            fmt_us(e.start_ns),
            fmt_us(e.dur_ns),
        );
        if !e.args.is_empty() {
            out.push_str(",\"args\":{");
            for (i, (k, v)) in e.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":\"{}\"", esc(k), esc(v));
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n]\n");
    out
}

/// Render a snapshot as machine-readable summary JSON: counters, per-span
/// stats, streaming histograms, and the dropped-event count.
pub fn summary_json(snap: &Snapshot) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"dropped_events\": {},", snap.dropped_events);
    out.push_str("  \"counters\": {");
    for (i, (k, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": {}", esc(k), v);
    }
    if !snap.counters.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n  \"spans\": [");
    let stats = aggregate(&snap.events);
    for (i, s) in stats.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \"mean_ns\": {}, \
             \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
            esc(&s.name),
            s.count,
            s.total_ns,
            s.mean_ns,
            s.p50_ns,
            s.p95_ns,
            s.p99_ns,
            s.max_ns,
        );
    }
    if !stats.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"hists\": [");
    for (i, (name, h)) in snap.metrics.hists.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"name\": \"{}\", \"count\": {}, \"sum\": {}, \"mean\": {}, \
             \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
            esc(name),
            h.count,
            h.sum,
            h.mean(),
            h.percentile(50.0),
            h.percentile(95.0),
            h.percentile(99.0),
        );
    }
    if !snap.metrics.hists.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed synthetic event sequence with injected timestamps — no
    /// wall-clock sampling anywhere, matching the shims' no-`Date::now`
    /// determinism story.
    fn synthetic_events() -> Vec<Event> {
        vec![
            Event {
                name: "sim.step".into(),
                cat: "span",
                track: 0,
                start_ns: 1_000,
                dur_ns: 9_500,
                args: vec![("step", "0".into()), ("space", "Threads".into())],
            },
            Event {
                name: "sim.push".into(),
                cat: "span",
                track: 0,
                start_ns: 1_200,
                dur_ns: 7_000,
                args: vec![],
            },
            Event {
                name: "sim.push::lane".into(),
                cat: "lane",
                track: 1,
                start_ns: 1_300,
                dur_ns: 6_500,
                args: vec![],
            },
            Event {
                name: "sim.push::lane".into(),
                cat: "lane",
                track: 2,
                start_ns: 1_310,
                dur_ns: 6_400,
                args: vec![],
            },
            Event {
                name: "odd \"name\"\twith\nescapes\\".into(),
                cat: "span",
                track: 0,
                start_ns: 12_000,
                dur_ns: 1,
                args: vec![("k", "v\"w".into())],
            },
        ]
    }

    #[test]
    fn chrome_trace_is_byte_deterministic() {
        let events = synthetic_events();
        let a = chrome_trace(&events);
        let b = chrome_trace(&events);
        assert_eq!(a, b, "same events must render byte-identically");
    }

    #[test]
    fn chrome_trace_shape() {
        let events = synthetic_events();
        let out = chrome_trace(&events);
        assert!(out.starts_with("[\n"));
        assert!(out.ends_with("\n]\n"));
        // one thread_name metadata record per distinct track
        assert_eq!(out.matches("\"thread_name\"").count(), 3);
        assert!(out.contains("\"name\":\"lane 0 (caller)\""));
        assert!(out.contains("\"name\":\"lane 2\""));
        // complete events with microsecond timestamps: 1000 ns = 1.000 µs
        assert!(out.contains("\"ts\":1.000,\"dur\":9.500"));
        // escapes survive
        assert!(out.contains("odd \\\"name\\\"\\twith\\nescapes\\\\"));
        // every line is one JSON object or a bracket — no trailing commas
        assert!(!out.contains(",\n]"));
    }

    #[test]
    fn chrome_trace_groups_ranked_events_by_pid() {
        let mut events = synthetic_events();
        events.push(Event {
            name: "cluster.exchange".into(),
            cat: "span",
            track: 0,
            start_ns: 5_000,
            dur_ns: 700,
            args: vec![("rank", "2".into())],
        });
        let out = chrome_trace(&events);
        // rank 2 becomes Perfetto pid 3 with its own process_name...
        assert!(out.contains("\"pid\":3,\"tid\":0,\"name\":\"process_name\""));
        assert!(out.contains("\"name\":\"rank 2\""));
        // ...and the ranked event emits under that pid
        assert!(out.contains("\"ph\":\"X\",\"pid\":3,\"tid\":0"));
        // rank-less events stay under the root process
        assert!(out.contains("\"ph\":\"X\",\"pid\":0,\"tid\":0"));
        // thread_name metadata now covers the (pid 3, tid 0) track too
        assert!(out.contains("\"pid\":3,\"tid\":0,\"name\":\"thread_name\""));
        assert_eq!(chrome_trace(&events), out, "still byte-deterministic with ranks");
    }

    /// A fixed synthetic metrics snapshot to pair with the events.
    fn synthetic_metrics() -> MetricsSnapshot {
        let mut m = MetricsSnapshot::default();
        let mut h = crate::metrics::HistData::default();
        for v in [100u64, 200, 400, 800, 6400] {
            h.count += 1;
            h.sum += v;
            *h.buckets.entry(crate::metrics::bucket_index(v) as u32).or_insert(0) += 1;
        }
        m.hists.insert("cluster.exposed_exchange.ns".to_string(), h);
        m
    }

    fn synthetic_snapshot() -> Snapshot {
        Snapshot {
            events: synthetic_events(),
            counters: [
                ("sim.particles_pushed".to_string(), 16384u64),
                ("pk.pool.dispatches".to_string(), 12u64),
            ]
            .into_iter()
            .collect(),
            dropped_events: 0,
            metrics: synthetic_metrics(),
        }
    }

    #[test]
    fn summary_json_is_byte_deterministic() {
        let snap = synthetic_snapshot();
        let a = summary_json(&snap);
        let b = summary_json(&snap);
        assert_eq!(a, b);
        assert!(a.contains("\"pk.pool.dispatches\": 12"));
        assert!(a.contains("\"dropped_events\": 0"));
        assert!(a.contains("\"name\": \"sim.push::lane\", \"count\": 2, \"total_ns\": 12900"));
        // streaming metrics render alongside the span stats
        assert!(a.contains("\"hists\": ["));
        assert!(a.contains("\"name\": \"cluster.exposed_exchange.ns\", \"count\": 5, \"sum\": 7900"));
        assert!(a.contains("\"p99\": "));
    }

    #[test]
    fn empty_inputs_render_valid_skeletons() {
        let empty = chrome_trace(&[]);
        assert!(empty.contains("process_name"));
        assert!(!empty.contains(",\n]"));
        let json = summary_json(&Snapshot::default());
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"spans\": []"));
    }

    #[test]
    fn aggregate_computes_stats() {
        let stats = aggregate(&synthetic_events());
        // largest total first
        assert_eq!(stats[0].name, "sim.push::lane");
        assert_eq!(stats[0].count, 2);
        assert_eq!(stats[0].total_ns, 12_900);
        assert_eq!(stats[0].mean_ns, 6_450);
        assert_eq!(stats[0].p50_ns, 6_400);
        assert_eq!(stats[0].p95_ns, 6_500);
        assert_eq!(stats[0].max_ns, 6_500);
        assert_eq!(stats[1].name, "sim.step");
    }

    #[test]
    fn percentile_nearest_rank() {
        let d: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&d, 50.0), 50);
        assert_eq!(percentile(&d, 95.0), 95);
        assert_eq!(percentile(&d, 100.0), 100);
        assert_eq!(percentile(&[7], 95.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn summary_table_lists_every_span() {
        let table = format_summary(&aggregate(&synthetic_events()));
        assert!(table.lines().next().unwrap().contains("p95"));
        assert!(table.contains("sim.step"));
        assert!(table.contains("sim.push::lane"));
        // header + one row per name (the "odd" name embeds a raw newline,
        // so it contributes two lines)
        assert_eq!(table.lines().count(), 1 + 4 + 1);
    }
}
