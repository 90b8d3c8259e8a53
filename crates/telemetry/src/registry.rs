//! The global event/counter registry: sharded mutexes so concurrent
//! worker lanes never contend on one lock, bounded so an instrumented
//! soak run cannot grow memory without limit. Each shard keeps its newest
//! [`MAX_EVENTS_PER_SHARD`] events; the flight recorder reads the newest
//! [`FLIGHT_TAIL`] of the same buffer.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// One completed span occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Span name (aggregation key for the summary).
    pub name: String,
    /// Category: `"span"` (scoped region) or `"lane"` (per-lane busy time).
    pub cat: &'static str,
    /// Track the event renders on (worker lane, or a per-thread id).
    pub track: u32,
    /// Start, nanoseconds on the telemetry clock.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Key/value annotations (kernel name, range length, …).
    pub args: Vec<(&'static str, String)>,
}

const SHARD_COUNT: usize = 16;

/// Per-shard event cap. Beyond it each new event evicts the shard's
/// oldest, which is counted as dropped rather than silently vanishing
/// (the drop count is exported), so the newest events — a dying run's
/// last moments — are always kept.
const MAX_EVENTS_PER_SHARD: usize = 1 << 18;

/// Events per shard the flight report reads: the newest of each buffer.
pub(crate) const FLIGHT_TAIL: usize = 256;

#[derive(Default)]
struct Shard {
    /// The newest events, oldest first.
    events: VecDeque<Event>,
    counters: HashMap<&'static str, u64>,
    /// Events evicted to keep `events` within the cap.
    dropped: u64,
}

impl Shard {
    fn record(&mut self, event: Event) {
        if self.events.len() == MAX_EVENTS_PER_SHARD {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// The newest `n` events, oldest first.
    fn newest(&self, n: usize) -> impl Iterator<Item = &Event> {
        self.events.iter().skip(self.events.len().saturating_sub(n))
    }
}

static SHARDS: OnceLock<Vec<Mutex<Shard>>> = OnceLock::new();
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD_IDX: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn shards() -> &'static [Mutex<Shard>] {
    SHARDS.get_or_init(|| (0..SHARD_COUNT).map(|_| Mutex::new(Shard::default())).collect())
}

fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().unwrap_or_else(|e| e.into_inner())
}

/// This thread's home shard (round-robin assigned on first use, so pool
/// lanes spread across shards instead of hashing onto one).
fn my_shard() -> &'static Mutex<Shard> {
    let idx = SHARD_IDX.with(|i| {
        let v = i.get();
        if v != usize::MAX {
            return v;
        }
        let v = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARD_COUNT;
        i.set(v);
        v
    });
    &shards()[idx]
}

pub(crate) fn record(event: Event) {
    lock(my_shard()).record(event);
}

pub(crate) fn add_counter(name: &'static str, n: u64) {
    let mut shard = lock(my_shard());
    *shard.counters.entry(name).or_insert(0) += n;
}

/// Baselines carried over from a restored checkpoint: lifetime counter
/// totals recorded by a previous process, added on top of this process's
/// live shard counters so restored runs keep reporting monotonic lifetime
/// totals (`pool.created`, `sim.particles_pushed`, …) without
/// double-counting.
static BASELINES: OnceLock<Mutex<BTreeMap<String, u64>>> = OnceLock::new();

fn baselines() -> &'static Mutex<BTreeMap<String, u64>> {
    BASELINES.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Live in-process total of a named counter, baselines excluded.
fn live_counter(name: &str) -> u64 {
    shards().iter().map(|s| lock(s).counters.get(name).copied().unwrap_or(0)).sum()
}

/// Current total of a named counter (0 if never bumped): this process's
/// shard totals plus any baseline restored from a checkpoint.
pub fn counter(name: &str) -> u64 {
    let base = baselines()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(name)
        .copied()
        .unwrap_or(0);
    base + live_counter(name)
}

/// Adopt lifetime-counter totals saved in a checkpoint. For each saved
/// counter the baseline grows by however much the saved total exceeds the
/// [`counter`] total visible right now — so restoring into a fresh
/// process carries the full history forward, while restoring a snapshot
/// this same process wrote earlier adds nothing (the live counters
/// already cover it). Totals only ever grow; re-applying the same saved
/// map is idempotent.
pub fn restore_counter_baselines(saved: &BTreeMap<String, u64>) {
    for (name, &saved_total) in saved {
        let current = counter(name);
        if saved_total > current {
            let mut base = baselines().lock().unwrap_or_else(|e| e.into_inner());
            *base.entry(name.clone()).or_insert(0) += saved_total - current;
        }
    }
}

/// All counter totals (baselines included, matching [`counter`]),
/// name-ordered. Unlike [`snapshot`] this clones no events, so it is
/// cheap enough for the checkpoint write path.
pub fn counters() -> BTreeMap<String, u64> {
    let mut out: BTreeMap<String, u64> =
        baselines().lock().unwrap_or_else(|e| e.into_inner()).clone();
    for s in shards() {
        let shard = lock(s);
        for (&k, &v) in &shard.counters {
            *out.entry(k.to_string()).or_insert(0) += v;
        }
    }
    out
}

/// A merged, ordered copy of everything recorded so far.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// All events, sorted by (start, longest-first, track, name) so
    /// parents precede their children and the order is deterministic for
    /// a fixed event set.
    pub events: Vec<Event>,
    /// Counter totals, name-ordered.
    pub counters: BTreeMap<String, u64>,
    /// Events a shard evicted to stay within its cap.
    pub dropped_events: u64,
}

/// Merge every shard into one ordered [`Snapshot`] (does not reset).
/// Counter totals include restored baselines, matching [`counter`].
pub fn snapshot() -> Snapshot {
    newest(MAX_EVENTS_PER_SHARD)
}

/// Every shard's newest `per_shard` events merged and ordered, with the
/// counter totals and the drop count.
pub(crate) fn newest(per_shard: usize) -> Snapshot {
    let mut snap = Snapshot::default();
    for (k, &v) in baselines().lock().unwrap_or_else(|e| e.into_inner()).iter() {
        snap.counters.insert(k.clone(), v);
    }
    for s in shards() {
        let shard = lock(s);
        snap.events.extend(shard.newest(per_shard).cloned());
        for (&k, &v) in &shard.counters {
            *snap.counters.entry(k.to_string()).or_insert(0) += v;
        }
        snap.dropped_events += shard.dropped;
    }
    snap.events.sort_by(event_order);
    snap
}

/// The canonical event ordering: (start, longest-first, track, name), so
/// parents precede their children and fixed event sets order identically.
fn event_order(a: &Event, b: &Event) -> std::cmp::Ordering {
    a.start_ns
        .cmp(&b.start_ns)
        .then(b.dur_ns.cmp(&a.dur_ns))
        .then(a.track.cmp(&b.track))
        .then(a.name.cmp(&b.name))
}

/// Clear all recorded events, counters and restored baselines.
pub fn reset() {
    for s in shards() {
        let mut shard = lock(s);
        shard.events.clear();
        shard.counters.clear();
        shard.dropped = 0;
    }
    baselines().lock().unwrap_or_else(|e| e.into_inner()).clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, start: u64, dur: u64) -> Event {
        Event {
            name: name.to_string(),
            cat: "span",
            track: 0,
            start_ns: start,
            dur_ns: dur,
            args: Vec::new(),
        }
    }

    #[test]
    fn snapshot_orders_parents_before_children() {
        // same start: the longer (enclosing) event must come first
        let mut events = [ev("child", 100, 10), ev("parent", 100, 50), ev("early", 5, 1)];
        events.sort_by(|a, b| {
            a.start_ns
                .cmp(&b.start_ns)
                .then(b.dur_ns.cmp(&a.dur_ns))
                .then(a.track.cmp(&b.track))
                .then(a.name.cmp(&b.name))
        });
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["early", "parent", "child"]);
    }

    #[test]
    fn restored_baselines_carry_lifetime_totals_without_double_count() {
        // fresh-process restore: nothing live yet, the saved total carries
        // over wholesale
        let name = "registry.test.baseline.fresh";
        assert_eq!(counter(name), 0);
        let mut saved = BTreeMap::new();
        saved.insert(name.to_string(), 1000u64);
        restore_counter_baselines(&saved);
        assert_eq!(counter(name), 1000);
        // re-applying the same checkpoint adds nothing (idempotent)
        restore_counter_baselines(&saved);
        assert_eq!(counter(name), 1000);
        // live increments stack on top of the baseline
        add_counter("registry.test.baseline.fresh", 5);
        assert_eq!(counter(name), 1005);
        // same-process restore: the saved total is already covered by
        // live + baseline, so nothing is double-counted
        let mut resaved = BTreeMap::new();
        resaved.insert(name.to_string(), counter(name));
        restore_counter_baselines(&resaved);
        assert_eq!(counter(name), 1005);
        // snapshot() reports the same baseline-inclusive totals
        assert_eq!(snapshot().counters.get(name).copied(), Some(1005));
    }

    #[test]
    fn flight_ring_keeps_the_most_recent_events() {
        let n = FLIGHT_TAIL + 10;
        for i in 0..n {
            record(ev("registry.test.flight", i as u64, 1));
        }
        let fs = newest(FLIGHT_TAIL);
        let mine: Vec<_> =
            fs.events.iter().filter(|e| e.name == "registry.test.flight").collect();
        assert!(mine.len() <= FLIGHT_TAIL, "the flight tail must stay bounded");
        assert!(
            mine.iter().any(|e| e.start_ns == (n - 1) as u64),
            "the newest event must be in the tail"
        );
        assert!(!mine.iter().any(|e| e.start_ns == 0), "the oldest event must be past the tail");
    }

    #[test]
    fn a_capped_shard_keeps_its_newest_events() {
        let (cap, k) = (MAX_EVENTS_PER_SHARD as u64, 10);
        let mut shard = Shard::default();
        for i in 0..cap + k {
            shard.record(ev("registry.test.cap", i, 1));
        }
        assert_eq!(shard.dropped, k);
        let held: Vec<u64> = shard.events.iter().map(|e| e.start_ns).collect();
        assert_eq!(held, (k..cap + k).collect::<Vec<_>>(), "the newest 2^18 stay");
        let tail: Vec<u64> = shard.newest(FLIGHT_TAIL).map(|e| e.start_ns).collect();
        assert_eq!(tail, (cap + k - FLIGHT_TAIL as u64..cap + k).collect::<Vec<_>>());
    }

    #[test]
    fn counters_accumulate_across_threads() {
        // add_counter is the post-enabled-check internal path, so this
        // needs no flag and cannot interfere with the flag-flipping tests
        let before = counter("registry.test.cross-thread");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..100 {
                        add_counter("registry.test.cross-thread", 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(counter("registry.test.cross-thread"), before + 400);
    }
}
