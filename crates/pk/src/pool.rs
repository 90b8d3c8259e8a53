//! Persistent worker pool backing the [`Threads`](crate::Threads)
//! execution space.
//!
//! The original `Threads` backend spawned OS threads on every dispatch
//! (`crossbeam::scope` per `parallel_for`), which puts a thread
//! create/join round-trip (tens of microseconds) on the critical path of
//! every kernel launch — the exact overhead Kokkos' pinned `Threads`
//! backend exists to avoid. This module provides the Kokkos-style
//! alternative: a fixed set of long-lived workers, spawned once, that park
//! on a condvar between dispatches.
//!
//! Design:
//!
//! * a pool with `lanes` lanes spawns `lanes - 1` OS threads; the caller
//!   participates as lane 0, so a 1-lane pool runs inline with no threads
//!   and no synchronization;
//! * [`WorkerPool::run`] publishes one job — a `Fn(lane)` — under a mutex,
//!   bumps an epoch counter, and wakes all workers; each worker runs the
//!   job for its own lane exactly once per epoch;
//! * lane panics are caught, counted, and surfaced on the **calling**
//!   thread after every lane has finished (so borrowed data is never
//!   touched after the dispatch returns) — as a typed [`DispatchPanic`]
//!   unwind from [`WorkerPool::run`], which a caller with a restore point
//!   armed catches and downcasts (the checkpoint/restart path treats a
//!   dead lane as a recoverable fault, not a process abort);
//! * `Drop` sets a shutdown flag, wakes the workers, and joins them.
//!
//! Pools are cached per worker count in a process-wide registry
//! (`global`) so `Threads::new(4)` constructed repeatedly (e.g. in a
//! test loop) reuses one set of OS threads instead of respawning.

use std::cell::Cell;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, Weak};
use std::thread::JoinHandle;

/// Typed panic payload for a dispatch in which one or more lanes
/// panicked. [`WorkerPool::run`] re-raises it with `resume_unwind` (the
/// original per-lane panic messages were already printed by the panic
/// hook when each lane failed), so a `catch_unwind` around a pooled
/// kernel can downcast to this type and distinguish "a lane died
/// mid-dispatch, state is suspect — restore from the last snapshot" from
/// unrelated panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchPanic {
    /// How many lanes' tasks panicked during the dispatch.
    pub panicked_lanes: usize,
}

impl std::fmt::Display for DispatchPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} pool lane(s) panicked during dispatch", self.panicked_lanes)
    }
}

impl std::error::Error for DispatchPanic {}

/// The job currently being dispatched: a lifetime-erased pointer to the
/// caller's `Fn(lane)`. Valid only while the owning [`WorkerPool::run`]
/// call is blocked, which is exactly the window workers read it in.
#[derive(Clone, Copy)]
struct Job {
    task: *const (dyn Fn(usize) + Sync),
}

// SAFETY: the pointee is `Sync` (shared-callable from any thread) and the
// dispatch protocol guarantees it outlives every worker's use of it.
unsafe impl Send for Job {}

struct PoolState {
    /// Incremented once per dispatch; workers run one job per new epoch.
    epoch: u64,
    /// The published job for the current epoch.
    job: Option<Job>,
    /// Workers that have not yet finished the current epoch's job.
    remaining: usize,
    /// Worker panics observed during the current epoch.
    worker_panics: usize,
    /// Set by `Drop`; workers exit their loop when they observe it.
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers park here between dispatches.
    work_cv: Condvar,
    /// The dispatching caller parks here until `remaining == 0`.
    done_cv: Condvar,
}

thread_local! {
    /// The `Shared` of the pool whose task is currently executing on this
    /// thread (null when none). Distinguishes true reentrancy — `run`
    /// called from inside a task of the *same* pool, which can never make
    /// progress — from two independent threads dispatching concurrently,
    /// which is legal and serialized by [`WorkerPool::dispatch`].
    static ACTIVE_POOL: Cell<*const Shared> = const { Cell::new(std::ptr::null()) };
}

/// RAII marker: records `shared` as this thread's active pool for the
/// duration of one task invocation, restoring the previous value on drop
/// (including via panic unwind).
struct TaskScope {
    prev: *const Shared,
}

impl TaskScope {
    fn enter(shared: &Shared) -> Self {
        let prev = ACTIVE_POOL.with(|c| c.replace(shared as *const Shared));
        TaskScope { prev }
    }
}

impl Drop for TaskScope {
    fn drop(&mut self) {
        let prev = self.prev;
        ACTIVE_POOL.with(|c| c.set(prev));
    }
}

impl Shared {
    /// Lock the state, ignoring poisoning: a panicking kernel must not
    /// wedge the pool (panics are re-raised by `run` itself).
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A fixed set of persistent worker threads (see module docs).
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Serializes whole dispatches: pools are shared process-wide (see
    /// [`global`]), so independent threads may call [`run`](Self::run)
    /// concurrently; the second caller waits here until the first
    /// dispatch fully completes.
    dispatch: Mutex<()>,
    handles: Vec<JoinHandle<()>>,
    lanes: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("lanes", &self.lanes).finish()
    }
}

impl WorkerPool {
    /// Build a pool with `lanes` lanes (minimum 1). Spawns `lanes - 1`
    /// threads; the dispatching caller is always lane 0.
    pub fn new(lanes: usize) -> Self {
        let lanes = lanes.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                remaining: 0,
                worker_panics: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (1..lanes)
            .map(|lane| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pk-worker-{lane}"))
                    .spawn(move || worker_loop(&shared, lane))
                    .expect("spawning pool worker")
            })
            .collect();
        telemetry::count("pk.pool.created", 1);
        WorkerPool { shared, dispatch: Mutex::new(()), handles, lanes }
    }

    /// Number of lanes (caller + spawned workers).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Run `task(lane)` once on every lane, returning when all lanes have
    /// finished. The caller executes lane 0 itself. If any lane panics,
    /// a typed [`DispatchPanic`] unwind is raised here — after every other
    /// lane has completed, so data borrowed by `task` is never used past
    /// this call.
    ///
    /// Concurrent dispatch from independent threads is allowed (pools are
    /// shared process-wide, see `global`): the second caller blocks
    /// until the first dispatch completes. Dispatch is not *reentrant*,
    /// though — calling `run` from inside a task on the same pool can
    /// never make progress and panics.
    ///
    /// When profiling is enabled (`PK_PROFILE` / `telemetry::set_enabled`)
    /// every dispatch opens a `pk.pool.dispatch` span and records each
    /// lane's busy time on that lane's own trace track — lane imbalance is
    /// read directly off the per-lane `<kernel>::lane` rows.
    pub fn run(&self, task: &(dyn Fn(usize) + Sync)) {
        let panicked_lanes = if !telemetry::enabled() {
            self.run_inner(task)
        } else {
            telemetry::count("pk.pool.dispatches", 1);
            // label lane busy-time with the kernel being dispatched (the
            // innermost open span on the calling thread, e.g.
            // "pk.parallel_for" under a "sim.push" phase)
            let kernel = telemetry::current_label().unwrap_or_else(|| "pk.dispatch".to_string());
            let lane_label = format!("{kernel}::lane");
            let _span =
                telemetry::span("pk.pool.dispatch").arg("lanes", self.lanes).arg("kernel", kernel);
            let lane_label = &lane_label;
            self.run_inner(&move |lane| {
                let _busy = telemetry::lane_span(lane_label.clone(), lane);
                task(lane);
            })
        };
        if panicked_lanes > 0 {
            telemetry::count("pk.pool.worker_panics", panicked_lanes as u64);
            // resume_unwind, not panic_any: every lane's own panic message
            // already went through the panic hook, so re-raising must not
            // print a second (payload-less) report
            resume_unwind(Box::new(DispatchPanic { panicked_lanes }));
        }
    }

    /// Dispatch `task` over every lane and count how many panicked.
    fn run_inner(&self, task: &(dyn Fn(usize) + Sync)) -> usize {
        if self.handles.is_empty() {
            return usize::from(catch_unwind(AssertUnwindSafe(|| task(0))).is_err());
        }
        assert!(
            ACTIVE_POOL.with(|c| c.get()) != Arc::as_ptr(&self.shared),
            "nested dispatch on the same WorkerPool"
        );
        // Serialize with any dispatch already in flight from another
        // thread. Poisoning is ignored: a panicking kernel is re-raised
        // by `run` itself and must not wedge the pool.
        let _dispatch = self.dispatch.lock().unwrap_or_else(|e| e.into_inner());
        // SAFETY: the borrow lifetime may be erased because workers only
        // dereference the pointer between the notify below and the
        // `remaining == 0` wait, during which this frame (and therefore
        // `task`'s borrows) is pinned.
        let erased: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(task) };
        {
            let mut st = self.shared.lock();
            debug_assert!(st.job.is_none(), "dispatch mutex must serialize jobs");
            st.job = Some(Job { task: erased });
            st.epoch = st.epoch.wrapping_add(1);
            st.remaining = self.handles.len();
            st.worker_panics = 0;
            self.shared.work_cv.notify_all();
        }
        let mine = catch_unwind(AssertUnwindSafe(|| {
            let _scope = TaskScope::enter(&self.shared);
            task(0)
        }));
        let worker_panics = {
            let mut st = self.shared.lock();
            while st.remaining > 0 {
                st = self
                    .shared
                    .done_cv
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
            }
            st.job = None;
            st.worker_panics
        };
        worker_panics + usize::from(mine.is_err())
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, lane: usize) {
    // pool workers render on the trace track of their lane index
    telemetry::set_lane(lane);
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    if let Some(job) = st.job {
                        seen_epoch = st.epoch;
                        break job;
                    }
                }
                st = shared.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        // SAFETY: `run` keeps the caller frame alive until `remaining`
        // reaches 0, which happens only after this call returns.
        let task = unsafe { &*job.task };
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            let _scope = TaskScope::enter(shared);
            task(lane)
        }))
        .is_err();
        let mut st = shared.lock();
        if panicked {
            st.worker_panics += 1;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done_cv.notify_one();
        }
    }
}

static REGISTRY: OnceLock<Mutex<HashMap<usize, Weak<WorkerPool>>>> = OnceLock::new();

/// The process-wide pool for `lanes` lanes. Live pools are shared (two
/// `Threads::new(4)` handles drive the same workers); once every handle is
/// dropped the pool shuts down, and the next request respawns it.
pub(crate) fn global(lanes: usize) -> Arc<WorkerPool> {
    let lanes = lanes.max(1);
    let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = registry.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(pool) = map.get(&lanes).and_then(Weak::upgrade) {
        return pool;
    }
    // Drop stale entries for pools whose every handle has gone away, so
    // drop/recreate loops don't grow the map without bound.
    let before = map.len();
    map.retain(|_, weak| weak.strong_count() > 0);
    telemetry::count("pk.pool.registry_pruned", (before - map.len()) as u64);
    let pool = Arc::new(WorkerPool::new(lanes));
    map.insert(lanes, Arc::downgrade(&pool));
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_lane_runs_exactly_once_per_dispatch() {
        let pool = WorkerPool::new(4);
        let counts: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..100 {
            pool.run(&|lane| {
                counts[lane].fetch_add(1, Ordering::Relaxed);
            });
        }
        for c in &counts {
            assert_eq!(c.load(Ordering::Relaxed), 100);
        }
    }

    #[test]
    fn single_lane_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        pool.run(&|lane| {
            assert_eq!(lane, 0);
            assert_eq!(std::thread::current().id(), caller);
        });
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = WorkerPool::new(3);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|lane| {
                if lane == 1 {
                    panic!("lane 1 failure");
                }
            });
        }));
        assert!(result.is_err(), "worker panic must reach the caller");
        // the pool stays usable after a panic
        let hits = AtomicUsize::new(0);
        pool.run(&|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn lane_panic_unwinds_with_a_typed_payload() {
        // the payload `run` re-raises must downcast to DispatchPanic, so a
        // catch_unwind further up (Simulation::try_step_on) can tell "a
        // pool lane died" apart from arbitrary panics
        let pool = WorkerPool::new(3);
        let cause = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|lane| {
                if lane > 0 {
                    panic!("both workers fail");
                }
            });
        }))
        .expect_err("lane panics must unwind");
        let dp = cause.downcast::<DispatchPanic>().expect("typed DispatchPanic payload");
        assert_eq!(dp.panicked_lanes, 2);
    }

    #[test]
    fn try_run_reports_lane_panics_as_errors() {
        // what a restore point sees: the lane panic caught as a typed
        // DispatchPanic, and the pool usable afterwards, including on the
        // inline single-lane path
        const NONE: usize = usize::MAX;
        let caught = |pool: &WorkerPool, fail: usize| {
            catch_unwind(AssertUnwindSafe(|| {
                pool.run(&|lane| {
                    if lane == fail {
                        panic!("lane {fail} failure");
                    }
                })
            }))
            .map_err(|cause| *cause.downcast::<DispatchPanic>().expect("typed payload"))
        };
        let pool = WorkerPool::new(3);
        assert_eq!(caught(&pool, NONE), Ok(()));
        let err = caught(&pool, 2).expect_err("panicking lane must surface");
        assert_eq!(err, DispatchPanic { panicked_lanes: 1 });
        assert!(err.to_string().contains("1 pool lane(s)"));
        assert_eq!(caught(&pool, NONE), Ok(()));
        let inline = WorkerPool::new(1);
        assert_eq!(caught(&inline, 0), Err(DispatchPanic { panicked_lanes: 1 }));
        assert_eq!(caught(&inline, NONE), Ok(()));
    }

    #[test]
    fn caller_panic_still_joins_workers() {
        let pool = WorkerPool::new(2);
        let worker_done = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|lane| {
                if lane == 0 {
                    panic!("caller lane failure");
                }
                worker_done.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err());
        assert_eq!(
            worker_done.load(Ordering::Relaxed),
            1,
            "worker lane must have completed before the panic resumed"
        );
    }

    #[test]
    fn drop_shuts_the_pool_down() {
        let pool = WorkerPool::new(4);
        pool.run(&|_| {});
        drop(pool); // must not hang
    }

    #[test]
    fn concurrent_dispatch_from_independent_threads_serializes() {
        // Regression: pools are shared process-wide, so two Threads
        // handles may dispatch from different OS threads at once. That
        // used to trip the nested-dispatch assert; it must now serialize.
        let pool = Arc::new(WorkerPool::new(4));
        let total = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        pool.run(&|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 8 * 50 * 4);
    }

    #[test]
    fn reentrant_dispatch_from_caller_lane_panics() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|lane| {
                if lane == 0 {
                    pool.run(&|_| {});
                }
            });
        }));
        assert!(result.is_err(), "reentrant dispatch must panic, not deadlock");
        // the pool stays usable afterwards
        let hits = AtomicUsize::new(0);
        pool.run(&|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn reentrant_dispatch_from_worker_lane_panics() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|lane| {
                if lane == 1 {
                    pool.run(&|_| {});
                }
            });
        }));
        assert!(result.is_err(), "worker-lane reentrancy must panic, not deadlock");
    }

    #[test]
    fn registry_prunes_dead_entries() {
        // dead Weak entries are cleared when a pool is (re)created
        drop(global(11));
        drop(global(13));
        let _live = global(12);
        let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
        let map = registry.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!map.contains_key(&11), "dead 11-lane entry must be pruned");
        assert!(!map.contains_key(&13), "dead 13-lane entry must be pruned");
        assert!(map.contains_key(&12));
    }

    #[test]
    fn pool_lifetime_counters_exported() {
        // extends the PR 1 registry-prune regression test: the prune is
        // now observable as a telemetry counter across a drop/recreate
        // loop, alongside created/dispatch/panic lifetime counters
        let was = telemetry::enabled();
        telemetry::set_enabled(true);
        let created0 = telemetry::counter("pk.pool.created");
        let pruned0 = telemetry::counter("pk.pool.registry_pruned");
        let dispatch0 = telemetry::counter("pk.pool.dispatches");
        let panics0 = telemetry::counter("pk.pool.worker_panics");
        for _ in 0..5 {
            // each recreate finds the previous iteration's Weak entry dead
            // and prunes it before inserting the fresh pool
            drop(global(17));
        }
        let pool = WorkerPool::new(2);
        pool.run(&|_| {});
        let _ = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|lane| {
                if lane == 1 {
                    panic!("telemetry counter probe");
                }
            });
        }));
        telemetry::set_enabled(was);
        assert!(telemetry::counter("pk.pool.created") >= created0 + 6);
        assert!(
            telemetry::counter("pk.pool.registry_pruned") >= pruned0 + 4,
            "every recreate after the first must prune the dead 17-lane entry"
        );
        assert!(telemetry::counter("pk.pool.dispatches") >= dispatch0 + 2);
        assert!(telemetry::counter("pk.pool.worker_panics") > panics0);
    }

    #[test]
    fn registry_shares_live_pools_per_lane_count() {
        let a = global(3);
        let b = global(3);
        assert!(Arc::ptr_eq(&a, &b), "same lane count must share one pool");
        let c = global(2);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn dispatch_from_many_epochs_sees_fresh_closures() {
        let pool = WorkerPool::new(3);
        for round in 0..50usize {
            let sum = AtomicUsize::new(0);
            pool.run(&|lane| {
                sum.fetch_add(round * 10 + lane, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 3 * round * 10 + (1 + 2));
        }
    }
}
