//! Execution spaces: where parallel patterns run.
//!
//! Mirrors `Kokkos::Serial` and `Kokkos::OpenMP`/`Kokkos::Threads`. The
//! GPU execution space of this reproduction is *modelled* rather than real
//! (see the `memsim` crate): kernels run functionally on the host while a
//! hardware model accounts their memory behaviour.

use crate::pool::{self, SendPtr, WorkerPool};
use crate::range::RangePolicy;
use crate::reduce::Reducer;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// Kokkos-style profiling hook at the dispatch boundary: every pattern
/// opens a named span carrying the backend, worker count, range length
/// and (when one is open) the enclosing kernel label — so every kernel in
/// the stack is observable for free when `PK_PROFILE` is set.
fn dispatch_span(op: &'static str, space: &str, workers: usize, len: usize) -> telemetry::Span {
    if !telemetry::enabled() {
        return telemetry::Span::disabled();
    }
    let kernel = telemetry::current_label();
    let s = telemetry::span(op).arg("space", space).arg("workers", workers).arg("len", len);
    match kernel {
        Some(k) => s.arg("kernel", k),
        None => s,
    }
}

/// A backend capable of executing the parallel patterns.
///
/// The two required primitives are [`ExecSpace::run_blocks`] (read-only
/// index-space dispatch) and [`ExecSpace::run_chunks_mut`] (disjoint
/// mutable-slice dispatch); everything else has default implementations in
/// terms of them.
pub trait ExecSpace: Sync {
    /// Number of workers this space dispatches to (`Kokkos::concurrency()`).
    fn concurrency(&self) -> usize;

    /// Human-readable backend name.
    fn name(&self) -> &'static str;

    /// Execute `f` over contiguous sub-ranges that exactly partition the
    /// policy's range. Blocks may run concurrently.
    fn run_blocks(&self, policy: &RangePolicy, f: &(dyn Fn(Range<usize>) + Sync));

    /// Split `data` into `parts` near-equal contiguous chunks and run
    /// `f(offset, chunk)` for each, possibly concurrently. `offset` is the
    /// index of the chunk's first element within `data`.
    fn run_chunks_mut<T: Send>(
        &self,
        data: &mut [T],
        parts: usize,
        f: &(dyn Fn(usize, &mut [T]) + Sync),
    );

    /// Reduce per-block partial values with `reducer.join`.
    ///
    /// Each block folds sequentially from the reducer identity, then the
    /// partials are joined in block order, so results are deterministic for
    /// a fixed space/worker count (the Kokkos guarantee).
    fn reduce_blocks<R: Reducer>(
        &self,
        policy: &RangePolicy,
        reducer: &R,
        f: &(dyn Fn(Range<usize>) -> R::Value + Sync),
    ) -> R::Value;

    /// `Kokkos::parallel_for`: invoke `f(i)` for every index in the policy.
    fn parallel_for<P: Into<RangePolicy>>(&self, policy: P, f: impl Fn(usize) + Sync) {
        let policy = policy.into();
        let _hook =
            dispatch_span("pk.parallel_for", self.name(), self.concurrency(), policy.len());
        self.run_blocks(&policy, &|block| {
            for i in block {
                f(i);
            }
        });
    }

    /// `Kokkos::parallel_for` over a mutable slice: invoke
    /// `f(i, &mut data[i])` for every element, with disjoint mutable access.
    fn parallel_for_mut<T: Send>(&self, data: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
        let parts = self.concurrency();
        let _hook = dispatch_span("pk.parallel_for_mut", self.name(), parts, data.len());
        self.run_chunks_mut(data, parts, &|offset, chunk| {
            for (k, item) in chunk.iter_mut().enumerate() {
                f(offset + k, item);
            }
        });
    }

    /// `Kokkos::parallel_reduce`: reduce `f(i)` over the policy's range.
    fn parallel_reduce<P: Into<RangePolicy>, R: Reducer>(
        &self,
        policy: P,
        reducer: R,
        f: impl Fn(usize) -> R::Value + Sync,
    ) -> R::Value {
        let policy = policy.into();
        let _hook =
            dispatch_span("pk.parallel_reduce", self.name(), self.concurrency(), policy.len());
        self.reduce_blocks(&policy, &reducer, &|block| {
            let mut acc = reducer.identity();
            for i in block {
                acc = reducer.join(acc, f(i));
            }
            acc
        })
    }

    /// Whether this space charges memory-access costs ([`crate::gpu::SimGpu`]
    /// returns `true`). Charge sites should gate any work done purely to
    /// *build* an access description behind this, so real backends pay
    /// nothing.
    fn accounting(&self) -> bool {
        false
    }

    /// Account a kernel's memory behaviour against the space's hardware
    /// model. A no-op on real backends; [`crate::gpu::SimGpu`] records a
    /// costed ledger entry.
    fn charge(&self, _access: &crate::gpu::Access<'_>) {}
}

/// The serial execution space (`Kokkos::Serial`): everything runs on the
/// calling thread, in index order.
#[derive(Debug, Clone, Copy, Default)]
pub struct Serial;

impl ExecSpace for Serial {
    fn concurrency(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        "Serial"
    }

    fn run_blocks(&self, policy: &RangePolicy, f: &(dyn Fn(Range<usize>) + Sync)) {
        if !policy.is_empty() {
            f(policy.range.clone());
        }
    }

    fn run_chunks_mut<T: Send>(
        &self,
        data: &mut [T],
        _parts: usize,
        f: &(dyn Fn(usize, &mut [T]) + Sync),
    ) {
        if !data.is_empty() {
            f(0, data);
        }
    }

    fn reduce_blocks<R: Reducer>(
        &self,
        policy: &RangePolicy,
        reducer: &R,
        f: &(dyn Fn(Range<usize>) -> R::Value + Sync),
    ) -> R::Value {
        if policy.is_empty() {
            reducer.identity()
        } else {
            f(policy.range.clone())
        }
    }
}

/// The host-threads execution space (`Kokkos::Threads`/`Kokkos::OpenMP`
/// analog), backed by a persistent [`WorkerPool`]: the workers are spawned
/// once (shared process-wide per worker count) and park between
/// dispatches, so a kernel launch costs a mutex/condvar hand-off instead
/// of a thread create/join round-trip.
///
/// Cloning is cheap and clones share the same pool. The pool shuts down
/// (joining its threads) when the last handle for its worker count drops.
#[derive(Clone)]
pub struct Threads {
    pool: Arc<WorkerPool>,
}

impl std::fmt::Debug for Threads {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Threads").field("workers", &self.pool.lanes()).finish()
    }
}

impl Threads {
    /// A space with `workers` worker lanes (minimum 1). Lane 0 is the
    /// dispatching caller; lanes 1.. are pooled OS threads.
    pub fn new(workers: usize) -> Self {
        Self { pool: pool::global(workers) }
    }

    /// A space sized to the machine's available parallelism.
    pub(crate) fn hardware() -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self::new(workers)
    }
}

impl Default for Threads {
    fn default() -> Self {
        Self::hardware()
    }
}

impl ExecSpace for Threads {
    fn concurrency(&self) -> usize {
        self.pool.lanes()
    }

    fn name(&self) -> &'static str {
        "Threads"
    }

    fn run_blocks(&self, policy: &RangePolicy, f: &(dyn Fn(Range<usize>) + Sync)) {
        let blocks = policy.static_blocks(self.pool.lanes());
        match blocks.len() {
            0 => {}
            1 => f(blocks[0].clone()),
            _ => {
                let lanes = self.pool.lanes();
                let blocks = &blocks;
                self.pool.run(&|lane| {
                    let mut b = lane;
                    while b < blocks.len() {
                        f(blocks[b].clone());
                        b += lanes;
                    }
                });
            }
        }
    }

    fn run_chunks_mut<T: Send>(
        &self,
        data: &mut [T],
        parts: usize,
        f: &(dyn Fn(usize, &mut [T]) + Sync),
    ) {
        let n = data.len();
        if n == 0 {
            return;
        }
        let blocks = RangePolicy::new(n).static_blocks(parts.max(1));
        if blocks.len() <= 1 {
            f(0, data);
            return;
        }
        // Hand lane `k` chunks k, k+lanes, k+2·lanes, …: the strided
        // assignment partitions the chunk list, and the chunks partition
        // `data`, so every element has exactly one mutable owner.
        let base = SendPtr(data.as_mut_ptr());
        let spans: Vec<(usize, usize)> = blocks.iter().map(|b| (b.start, b.len())).collect();
        let lanes = self.pool.lanes();
        let spans = &spans;
        self.pool.run(&move |lane| {
            let ptr = base.get();
            let mut c = lane;
            while c < spans.len() {
                let (start, len) = spans[c];
                // SAFETY: spans are disjoint, in-bounds, and each is
                // visited by exactly one lane (see above).
                let chunk = unsafe { std::slice::from_raw_parts_mut(ptr.add(start), len) };
                f(start, chunk);
                c += lanes;
            }
        });
    }

    fn reduce_blocks<R: Reducer>(
        &self,
        policy: &RangePolicy,
        reducer: &R,
        f: &(dyn Fn(Range<usize>) -> R::Value + Sync),
    ) -> R::Value {
        let blocks = policy.static_blocks(self.pool.lanes());
        match blocks.len() {
            0 => reducer.identity(),
            1 => f(blocks[0].clone()),
            _ => {
                // one slot per block, filled by whichever lane owns the
                // block, then joined in block order: deterministic for a
                // fixed space/worker count (the Kokkos guarantee)
                let slots: Vec<Mutex<Option<R::Value>>> =
                    blocks.iter().map(|_| Mutex::new(None)).collect();
                let lanes = self.pool.lanes();
                let (blocks, slots) = (&blocks, &slots);
                self.pool.run(&|lane| {
                    let mut b = lane;
                    while b < blocks.len() {
                        let v = f(blocks[b].clone());
                        *slots[b].lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
                        b += lanes;
                    }
                });
                let mut acc = reducer.identity();
                for slot in slots {
                    let v = slot
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .take()
                        .expect("every block produced a partial");
                    acc = reducer.join(acc, v);
                }
                acc
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::{Min, MinMax, Sum};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn spaces() -> (Serial, Threads) {
        (Serial, Threads::new(4))
    }

    #[test]
    fn parallel_for_visits_every_index_once() {
        let (serial, threads) = spaces();
        let n = 1000;
        for run in 0..2 {
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            let f = |i: usize| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            };
            if run == 0 {
                serial.parallel_for(n, f);
            } else {
                threads.parallel_for(n, f);
            }
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn reduce_blocks_bitwise_deterministic_across_runs() {
        // per-block partials joined in block order: repeated runs at a
        // fixed worker count must agree to the bit even for f32 sums
        let threads = Threads::new(4);
        let policy = RangePolicy::new(10_000);
        let reducer = Sum::<f32>::new();
        let f = |block: Range<usize>| {
            let mut acc = 0.0f32;
            for i in block {
                acc += 1.0 / (1.0 + i as f32);
            }
            acc
        };
        let first = threads.reduce_blocks(&policy, &reducer, &f);
        for _ in 0..20 {
            let again = threads.reduce_blocks(&policy, &reducer, &f);
            assert_eq!(again.to_bits(), first.to_bits());
        }
    }

    #[test]
    fn parallel_for_mut_writes_by_global_index() {
        let (serial, threads) = spaces();
        let mut a = vec![0usize; 257];
        serial.parallel_for_mut(&mut a, |i, v| *v = i * 2);
        assert!(a.iter().enumerate().all(|(i, &v)| v == i * 2));
        let mut b = vec![0usize; 257];
        threads.parallel_for_mut(&mut b, |i, v| *v = i * 2);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_reduce_matches_sequential() {
        let (serial, threads) = spaces();
        let data: Vec<f64> = (0..10_000).map(|i| (i as f64).sin()).collect();
        let seq: f64 = data.iter().sum();
        let s = serial.parallel_reduce(data.len(), Sum::<f64>::new(), |i| data[i]);
        assert!((s - seq).abs() < 1e-9);
        let t = threads.parallel_reduce(data.len(), Sum::<f64>::new(), |i| data[i]);
        assert!((t - seq).abs() < 1e-9);
    }

    #[test]
    fn parallel_reduce_min_and_minmax() {
        let threads = Threads::new(4);
        let data: Vec<i64> = (0..999).map(|i| ((i * 7919) % 1543) as i64 - 500).collect();
        let mn = threads.parallel_reduce(data.len(), Min::<i64>::new(), |i| data[i]);
        let (lo, hi) =
            threads.parallel_reduce(data.len(), MinMax::<i64>::new(), |i| (data[i], data[i]));
        assert_eq!(mn, *data.iter().min().unwrap());
        assert_eq!((lo, hi), (mn, *data.iter().max().unwrap()));
    }

    #[test]
    fn parallel_reduce_empty_range_is_identity() {
        let (serial, threads) = spaces();
        assert_eq!(serial.parallel_reduce(0usize, Sum::<u32>::new(), |_| 1), 0);
        assert_eq!(threads.parallel_reduce(0usize, Sum::<u32>::new(), |_| 1), 0);
    }

    #[test]
    fn threads_space_reports_concurrency() {
        assert_eq!(Threads::new(7).concurrency(), 7);
        assert_eq!(Threads::new(0).concurrency(), 1);
        assert_eq!(Serial.concurrency(), 1);
        assert!(Threads::hardware().concurrency() >= 1);
    }

    #[test]
    fn float_reduction_deterministic_per_space() {
        let threads = Threads::new(4);
        let data: Vec<f32> = (0..4096).map(|i| 1.0 / (1.0 + i as f32)).collect();
        let a = threads.parallel_reduce(data.len(), Sum::<f32>::new(), |i| data[i]);
        let b = threads.parallel_reduce(data.len(), Sum::<f32>::new(), |i| data[i]);
        assert_eq!(a, b, "same space + worker count must reproduce bitwise");
    }
}
