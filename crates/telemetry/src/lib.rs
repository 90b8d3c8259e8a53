//! # telemetry — kernel-level tracing and counters
//!
//! The observability layer for the VPIC 2.0 reproduction, playing the role
//! of Kokkos' profiling hooks: every kernel dispatch, simulation phase,
//! sort pass, and virtual exchange can open a named [`span`] or bump a
//! [`count`]er, and the resulting event stream exports as
//!
//! * a human-readable end-of-run summary table ([`format_summary`]),
//! * machine-readable JSON ([`summary_json`]), and
//! * a Chrome `trace_event` file ([`chrome_trace`]) loadable in
//!   `chrome://tracing` or <https://ui.perfetto.dev>, with one track per
//!   worker lane, grouped per virtual rank.
//!
//! A sample is a span argument or a counter: the crate keeps no
//! distributions of its own. Beside the exporters it carries a *flight
//! recorder*: [`dump_flight`] renders the newest span events into a
//! deterministic post-mortem report when a run dies (worker panic, failed
//! restore).
//!
//! ## The zero-cost-off contract
//!
//! Profiling is off by default. [`enabled`] is a single relaxed atomic
//! load; a [`span`] created while disabled is a `None` that allocates
//! nothing, records nothing, and formats none of its arguments. The guard
//! test in `tests/overhead.rs` holds the disabled span path to under
//! 5 ns/iteration over an empty loop. Enable with the `PK_PROFILE`
//! environment variable (any value but `""`/`0`) or [`set_enabled`].
//!
//! ## Clocks and determinism
//!
//! All timestamps come from one process-wide monotonic clock ([`now_ns`]:
//! nanoseconds since the first telemetry call). The exporters are pure
//! functions of their input events — timestamps are carried in, never
//! sampled — so a fixed synthetic event sequence renders byte-identically
//! every time (tested in `export.rs`).
//!
//! ## Spans, tracks, and lanes
//!
//! Spans are RAII guards: they must be dropped in LIFO order on the thread
//! that opened them (the natural shape of scoped `let _s = span(..)`
//! usage). Each event lands on a *track*: worker-pool lanes claim tracks
//! equal to their lane index via [`set_lane`], other threads get fresh
//! track ids on first use — so in the single-driver binary, track 0 is the
//! caller/lane-0 thread and tracks 1..N are pool workers.

mod export;
mod flight;
mod registry;

pub use export::{aggregate, chrome_trace, format_summary, summary_json, SpanStat};
pub use flight::dump_flight;
pub use registry::{
    counter, counters, reset, restore_counter_baselines, snapshot, Event, Snapshot,
};

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

// ---------------------------------------------------------------- enabled

const UNINIT: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(UNINIT);

/// True when profiling is active. One relaxed atomic load on the fast
/// path; the first call reads the `PK_PROFILE` environment variable.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var("PK_PROFILE").map(|v| !v.is_empty() && v != "0").unwrap_or(false);
    // lose the race gracefully: an explicit set_enabled() wins
    let _ = STATE.compare_exchange(
        UNINIT,
        if on { ON } else { OFF },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    STATE.load(Ordering::Relaxed) == ON
}

/// Turn profiling on or off at run time (overrides `PK_PROFILE`).
pub fn set_enabled(on: bool) {
    STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

// ------------------------------------------------------------------ clock

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide telemetry epoch (the first call).
/// Monotonic; the single clock every span, bench timer, and export shares.
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// ----------------------------------------------------------------- tracks

const UNASSIGNED_TRACK: u32 = u32::MAX;

thread_local! {
    static TRACK: Cell<u32> = const { Cell::new(UNASSIGNED_TRACK) };
}

static NEXT_TRACK: AtomicU32 = AtomicU32::new(0);

/// Pin this thread's events to the track of worker lane `lane`. Called by
/// the `pk` worker pool so each lane renders as its own row in the trace.
pub fn set_lane(lane: usize) {
    TRACK.with(|t| t.set(lane as u32));
}

/// The track id this thread's events land on (assigning a fresh one on
/// first use). The first thread to record — the driver — gets track 0,
/// which is also pool lane 0 (the dispatching caller).
pub fn current_track() -> u32 {
    TRACK.with(|t| {
        let v = t.get();
        if v != UNASSIGNED_TRACK {
            return v;
        }
        let id = NEXT_TRACK.fetch_add(1, Ordering::Relaxed);
        t.set(id);
        id
    })
}

// ------------------------------------------------------------ label stack

thread_local! {
    static NAME_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// The innermost open span's name on this thread, if profiling is on.
/// The worker pool uses this to label per-lane busy time with the kernel
/// being dispatched.
pub fn current_label() -> Option<String> {
    if !enabled() {
        return None;
    }
    NAME_STACK.with(|s| s.borrow().last().cloned())
}

// ------------------------------------------------------------------ spans

struct ActiveSpan {
    name: Cow<'static, str>,
    cat: &'static str,
    /// Explicit track override (worker-lane spans); `None` = this thread's.
    track: Option<u32>,
    start_ns: u64,
    args: Vec<(&'static str, String)>,
}

/// An RAII span guard: records one duration event on drop. Disabled spans
/// are a no-op `None`.
pub struct Span(Option<Box<ActiveSpan>>);

impl Span {
    /// A span that records nothing (the disabled-path value).
    #[inline]
    pub fn disabled() -> Span {
        Span(None)
    }

    /// Attach a key/value argument (shown in the trace viewer). No-op —
    /// the value is not even formatted — when the span is disabled.
    pub fn arg(mut self, key: &'static str, value: impl std::fmt::Display) -> Self {
        if let Some(a) = self.0.as_mut() {
            a.args.push((key, value.to_string()));
        }
        self
    }
}

/// Open a named span. Returns a no-op guard when profiling is off.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        Span(None)
    } else {
        begin(Cow::Borrowed(name), "span", None)
    }
}

/// A span attributed to virtual rank `rank`: per-rank phase timing in a
/// multi-rank lockstep driver (`cluster::multirank`). Equivalent to
/// [`span`] with a `rank` argument, spelled as a helper so every rank
/// phase is tagged the same way and profiles can group by it.
#[inline]
pub fn rank_span(name: &'static str, rank: usize) -> Span {
    if !enabled() {
        Span(None)
    } else {
        begin(Cow::Borrowed(name), "span", None).arg("rank", rank)
    }
}

/// A span pinned to worker lane `lane`'s track: per-lane busy time inside
/// a pool dispatch. Not pushed on the label stack (it *is* the leaf).
#[inline]
pub fn lane_span(name: impl Into<Cow<'static, str>>, lane: usize) -> Span {
    if !enabled() {
        return Span(None);
    }
    Span(Some(Box::new(ActiveSpan {
        name: name.into(),
        cat: "lane",
        track: Some(lane as u32),
        start_ns: now_ns(),
        args: Vec::new(),
    })))
}

#[cold]
fn begin(name: Cow<'static, str>, cat: &'static str, track: Option<u32>) -> Span {
    NAME_STACK.with(|s| s.borrow_mut().push(name.to_string()));
    Span(Some(Box::new(ActiveSpan { name, cat, track, start_ns: now_ns(), args: Vec::new() })))
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(a) = self.0.take() {
            let end = now_ns();
            if a.track.is_none() {
                NAME_STACK.with(|s| {
                    s.borrow_mut().pop();
                });
            }
            registry::record(Event {
                name: a.name.into_owned(),
                cat: a.cat,
                track: a.track.unwrap_or_else(current_track),
                start_ns: a.start_ns,
                dur_ns: end.saturating_sub(a.start_ns),
                args: a.args,
            });
        }
    }
}

// --------------------------------------------------------------- counters

/// Add `n` to the named counter. No-op when profiling is off.
#[inline]
pub fn count(name: &'static str, n: u64) {
    if enabled() {
        registry::add_counter(name, n);
    }
}

// ----------------------------------------------------------------- timing

/// Run `f`, returning its result and elapsed nanoseconds on the telemetry
/// clock. Always measures (bench harnesses need the number either way);
/// additionally records a span when profiling is on — so figure timings
/// and sim-internal spans agree on one clock by construction.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
    let _s = span(name);
    let t0 = now_ns();
    let r = f();
    (r, now_ns().saturating_sub(t0))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that flip the global enabled flag.
    fn flag_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = flag_lock();
        let was = enabled();
        set_enabled(false);
        let before = snapshot().events.len();
        for _ in 0..100 {
            let _s = span("test.disabled").arg("k", 1);
        }
        count("test.disabled.counter", 5);
        let after = snapshot();
        set_enabled(was);
        assert_eq!(after.events.len(), before);
        assert!(!after.counters.contains_key("test.disabled.counter"));
    }

    #[test]
    fn enabled_spans_and_counters_land_in_snapshot() {
        let _g = flag_lock();
        let was = enabled();
        set_enabled(true);
        {
            let _outer = span("test.outer").arg("n", 42);
            assert_eq!(current_label().as_deref(), Some("test.outer"));
            let _inner = span("test.inner");
            assert_eq!(current_label().as_deref(), Some("test.inner"));
        }
        count("test.counter", 3);
        count("test.counter", 4);
        let snap = snapshot();
        set_enabled(was);
        let outer = snap.events.iter().find(|e| e.name == "test.outer").expect("outer recorded");
        assert!(outer.args.iter().any(|(k, v)| *k == "n" && v == "42"));
        assert!(snap.events.iter().any(|e| e.name == "test.inner"));
        assert!(snap.counters.get("test.counter").is_some_and(|&v| v >= 7));
    }

    #[test]
    fn nesting_is_preserved_in_timestamps() {
        let _g = flag_lock();
        let was = enabled();
        set_enabled(true);
        let t_mark = now_ns();
        {
            let _outer = span("test.nest.outer");
            let _inner = span("test.nest.inner");
            std::hint::black_box(0u64);
        }
        let snap = snapshot();
        set_enabled(was);
        let find = |n: &str| {
            snap.events
                .iter()
                .filter(|e| e.name == n && e.start_ns >= t_mark)
                .max_by_key(|e| e.start_ns)
                .unwrap()
                .clone()
        };
        let outer = find("test.nest.outer");
        let inner = find("test.nest.inner");
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
    }

    #[test]
    fn lane_spans_carry_their_lane_as_track() {
        let _g = flag_lock();
        let was = enabled();
        set_enabled(true);
        {
            let _s = lane_span("test.lane-span", 7);
        }
        let snap = snapshot();
        set_enabled(was);
        let ev = snap.events.iter().find(|e| e.name == "test.lane-span").unwrap();
        assert_eq!(ev.track, 7);
        assert_eq!(ev.cat, "lane");
    }

    #[test]
    fn timed_measures_even_when_disabled() {
        let _g = flag_lock();
        let was = enabled();
        set_enabled(false);
        let (v, ns) = timed("test.timed", || {
            std::hint::black_box((0..10_000u64).sum::<u64>())
        });
        set_enabled(was);
        assert_eq!(v, 9_999 * 10_000 / 2);
        assert!(ns > 0, "disabled timed() must still measure");
    }

    #[test]
    fn clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
