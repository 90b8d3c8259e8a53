//! Execution spaces: where parallel patterns run.
//!
//! Mirrors `Kokkos::Serial` and `Kokkos::OpenMP`/`Kokkos::Threads`. The
//! GPU execution space of this reproduction is *modelled* rather than real
//! (see the `memsim` crate): kernels run functionally on the host while a
//! hardware model accounts their memory behaviour.

use crate::pool::{self, WorkerPool};
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

/// A bundle of parallel slices that [`ExecSpace::parallel_windows`] cuts
/// into lane windows: a slice, or a pair or array of bundles of one
/// length, every slice cut at the same index.
pub trait Split: Sized + Send {
    /// Elements in each slice of the bundle (a pair or array of bundles
    /// whose lengths differ panics).
    fn len(&self) -> usize;

    /// Whether the bundle has no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every slice cut at element `mid`: the bundle of the `..mid` parts
    /// and the bundle of the `mid..` parts.
    fn split_at(self, mid: usize) -> (Self, Self);

    /// The bundle cut into consecutive pieces of `unit > 0` elements (a
    /// grid row, say), the last one shorter when `unit` does not divide
    /// the length.
    fn pieces(self, unit: usize) -> impl Iterator<Item = Self> {
        assert!(unit > 0, "a piece holds at least one element");
        let mut left = self.len();
        let mut rest = Some(self);
        std::iter::from_fn(move || {
            let mid = unit.min(left);
            let (piece, tail) = rest.take().filter(|_| mid > 0)?.split_at(mid);
            left -= mid;
            rest = Some(tail);
            Some(piece)
        })
    }
}

impl<T: Send> Split for &mut [T] {
    fn len(&self) -> usize {
        <[T]>::len(self)
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        self.split_at_mut(mid)
    }
}

impl<T: Sync> Split for &[T] {
    fn len(&self) -> usize {
        <[T]>::len(self)
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        <[T]>::split_at(self, mid)
    }
}

/// An index range, split like a slice of its indices: what
/// [`ExecSpace::run_blocks`] and [`ExecSpace::reduce_blocks`] cut. (A
/// `Split` impl on `Range` itself would make its `len` ambiguous wherever
/// `Split` is imported.)
struct Indices(Range<usize>);

impl Split for Indices {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let Range { start, end } = self.0;
        (Indices(start..start + mid), Indices(start + mid..end))
    }
}

/// The one length of a bundle's slices.
fn common_len(lens: &[usize]) -> usize {
    let n = lens.first().copied().unwrap_or(0);
    assert!(lens.iter().all(|&l| l == n), "bundled slices differ in length: {lens:?}");
    n
}

impl<A: Split, B: Split> Split for (A, B) {
    fn len(&self) -> usize {
        common_len(&[self.0.len(), self.1.len()])
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let ((a0, a1), (b0, b1)) = (self.0.split_at(mid), self.1.split_at(mid));
        ((a0, b0), (a1, b1))
    }
}

impl<A: Split + Default, const N: usize> Split for [A; N] {
    fn len(&self) -> usize {
        common_len(&self.each_ref().map(A::len))
    }

    fn split_at(mut self, mid: usize) -> (Self, Self) {
        let tails = self.each_mut().map(|a| {
            let (head, tail) = std::mem::take(a).split_at(mid);
            *a = head;
            tail
        });
        (self, tails)
    }
}

/// The per-block results of [`ExecSpace::parallel_windows`], in block
/// order.
#[derive(Debug)]
pub struct Blocks<R> {
    /// A one-block dispatch's result, kept off the heap; a dispatch
    /// over several blocks has every result in `rest`.
    first: Option<R>,
    rest: std::vec::IntoIter<R>,
}

impl<R> Iterator for Blocks<R> {
    type Item = R;

    fn next(&mut self) -> Option<R> {
        self.first.take().or_else(|| self.rest.next())
    }
}

/// One block of [`ExecSpace::parallel_windows`]: its first unit and
/// window until it runs, then its result.
type Slot<D, R> = (Option<(usize, D)>, Option<R>);

/// The body of [`ExecSpace::parallel_windows`], which every pattern
/// runs; `op`, when given, names the dispatch span it opens.
fn windows<S: ExecSpace + ?Sized, D: Split, R: Send>(
    space: &S,
    op: Option<&'static str>,
    data: D,
    unit: usize,
    f: impl Fn(usize, usize, D) -> R + Sync,
) -> Blocks<R> {
    let len = data.len();
    assert!(
        unit > 0 && len.is_multiple_of(unit),
        "{len} elements are not whole units of {unit}"
    );
    let units = len / unit;
    let parts = space.concurrency().min(units);
    let _hook = op.map(|op| dispatch_span(op, space.name(), space.concurrency(), units));
    let run = |block: usize, slots: &mut [Slot<D, R>]| {
        for (k, (window, out)) in slots.iter_mut().enumerate() {
            if let Some((first, data)) = window.take() {
                *out = Some(f(block + k, first, data));
            }
        }
    };
    let done = |(_, out): Slot<D, R>| out.expect("run_chunks_mut runs every window");
    if parts <= 1 {
        let mut one = [(Some((0, data)), None)];
        space.run_chunks_mut(&mut one[..parts], 1, &run);
        let [one] = one;
        return Blocks { first: (parts == 1).then(|| done(one)), rest: Vec::new().into_iter() };
    }
    let mut slots = Vec::with_capacity(parts);
    let mut rest = data;
    for block in RangePolicy::new(units).static_blocks(parts) {
        let (window, tail) = rest.split_at(block.len() * unit);
        slots.push((Some((block.start, window)), None));
        rest = tail;
    }
    space.run_chunks_mut(&mut slots, parts, &run);
    Blocks { first: None, rest: slots.into_iter().map(done).collect::<Vec<_>>().into_iter() }
}

/// A backend capable of executing the parallel patterns.
///
/// The one required dispatch is [`ExecSpace::run_chunks_mut`] (disjoint
/// mutable-slice dispatch). Every pattern is written once, over
/// [`ExecSpace::parallel_windows`], and makes exactly one
/// `run_chunks_mut` call, so a backend's order of running blocks is the
/// order every pattern inherits.
pub trait ExecSpace: Sync {
    /// Number of workers this space dispatches to (`Kokkos::concurrency()`).
    fn concurrency(&self) -> usize;

    /// Human-readable backend name.
    fn name(&self) -> &'static str;

    /// Split `data` into `parts` near-equal contiguous chunks and run
    /// `f(offset, chunk)` for each, possibly concurrently. `offset` is the
    /// index of the chunk's first element within `data`.
    fn run_chunks_mut<T: Send>(
        &self,
        data: &mut [T],
        parts: usize,
        f: &(dyn Fn(usize, &mut [T]) + Sync),
    );

    /// Execute `f` over contiguous sub-ranges that exactly partition the
    /// policy's range: its [`RangePolicy::static_blocks`] over
    /// [`ExecSpace::concurrency`] parts. Blocks may run concurrently.
    fn run_blocks(&self, policy: &RangePolicy, f: &(dyn Fn(Range<usize>) + Sync)) {
        let blocks = windows(self, None, Indices(policy.range.clone()), 1, |_, _, Indices(b)| f(b));
        blocks.for_each(drop);
    }

    /// Reduce per-block partial values with `reducer.join`.
    ///
    /// Each block folds sequentially from the reducer identity, then the
    /// partials are joined in block order, so results are deterministic for
    /// a fixed space/worker count (the Kokkos guarantee). A one-block
    /// range returns its block's value as it is; an empty one the identity.
    fn reduce_blocks<R: Reducer>(
        &self,
        policy: &RangePolicy,
        reducer: &R,
        f: &(dyn Fn(Range<usize>) -> R::Value + Sync),
    ) -> R::Value {
        let Blocks { first, rest } =
            windows(self, None, Indices(policy.range.clone()), 1, |_, _, Indices(b)| f(b));
        first.unwrap_or_else(|| rest.fold(reducer.identity(), |acc, v| reducer.join(acc, v)))
    }

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
        windows(self, Some("pk.parallel_for_mut"), data, 1, |_, first, chunk| {
            for (k, item) in chunk.iter_mut().enumerate() {
                f(first + k, item);
            }
        })
        .for_each(drop);
    }

    /// Cut `data` (a [`Split`] bundle of slices) in whole units of `unit`
    /// elements — a grid row, a particle, a key — into one window per
    /// block of the units and run `f(block, first_unit, window)` on each,
    /// possibly concurrently; the blocks' results come back in block
    /// order. The blocks are the units' [`RangePolicy::static_blocks`] over
    /// [`ExecSpace::concurrency`] parts, the partition every pattern uses.
    /// The dispatch is one [`ExecSpace::run_chunks_mut`] call over one
    /// slot per block; a one-lane space's slot is on the stack, so it
    /// allocates nothing. Panics unless `unit > 0` divides `data.len()`.
    fn parallel_windows<D: Split, R: Send>(
        &self,
        data: D,
        unit: usize,
        f: impl Fn(usize, usize, D) -> R + Sync,
    ) -> Blocks<R> {
        windows(self, Some("pk.parallel_windows"), data, unit, f)
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
}

impl ExecSpace for Threads {
    fn concurrency(&self) -> usize {
        self.pool.lanes()
    }

    fn name(&self) -> &'static str {
        "Threads"
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
        // one slot per chunk, taken by the lane that owns the chunk: lane
        // `k` owns chunks k, k+lanes, k+2·lanes, …
        let mut rest = data;
        let slots: Vec<_> = blocks
            .iter()
            .map(|b| {
                let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(b.len());
                rest = tail;
                Mutex::new(Some((b.start, chunk)))
            })
            .collect();
        let lanes = self.pool.lanes();
        let slots = &slots;
        self.pool.run(&|lane| {
            for slot in slots.iter().skip(lane).step_by(lanes) {
                let chunk = slot.lock().unwrap_or_else(|e| e.into_inner()).take();
                if let Some((start, chunk)) = chunk {
                    f(start, chunk);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::SimGpu;
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
    }

    /// `parallel_windows` over `len` elements in units of `unit`: every
    /// element in exactly one window, the windows the space's static
    /// blocks of the units, their results in block order.
    fn check_windows<S: ExecSpace>(space: &S, len: usize, unit: usize) {
        let ids: Vec<usize> = (0..len).collect();
        let mut hits = vec![0u32; len];
        let got: Vec<_> = space
            .parallel_windows((&mut hits[..], &ids[..]), unit, |block, first, (hits, ids)| {
                assert_eq!(ids[0], first * unit, "a window starts at its first unit");
                hits.iter_mut().for_each(|h| *h += 1);
                (block, first..first + ids.len() / unit)
            })
            .collect();
        let blocks = RangePolicy::new(len / unit).static_blocks(space.concurrency());
        let want: Vec<_> = blocks.into_iter().enumerate().collect();
        let lanes = space.concurrency();
        assert_eq!(got, want, "{} on {lanes} lanes, {len} elements of {unit}", space.name());
        assert!(hits.iter().all(|&h| h == 1), "{} on {lanes} lanes: {hits:?}", space.name());
    }

    fn sim_gpu() -> SimGpu {
        SimGpu::scaled(memsim::platform::by_name("V100").unwrap(), 1.0)
    }

    #[test]
    fn windows_partition_the_data_once_in_block_order_on_every_space() {
        // empty, one element, fewer units than lanes, uneven splits, rows
        let cases = [(0, 1), (1, 1), (2, 1), (7, 1), (10, 1), (8, 8), (12, 4), (35, 5)];
        for (len, unit) in cases {
            check_windows(&Serial, len, unit);
            check_windows(&sim_gpu(), len, unit);
            for lanes in 1..=3 {
                check_windows(&Threads::new(lanes), len, unit);
            }
        }
    }

    #[test]
    fn bundles_of_pairs_and_arrays_split_together_by_rows() {
        let (rows, nx) = (7, 3);
        let ids: Vec<usize> = (0..rows * nx).collect();
        let (mut a, mut b, mut c) = (vec![0; rows * nx], vec![0; rows * nx], vec![0; rows * nx]);
        let bundle = ([&mut a[..], &mut b[..]], (&mut c[..], &ids[..]));
        Threads::new(3).parallel_windows(bundle, nx, |_, first, window| {
            for (r, ([a, b], (c, ids))) in (first..).zip(window.pieces(nx)) {
                assert_eq!(ids, &(r * nx..(r + 1) * nx).collect::<Vec<_>>()[..]);
                a.fill(r);
                b.fill(2 * r);
                c.copy_from_slice(ids);
            }
        });
        assert!((0..rows * nx).all(|i| a[i] == i / nx && b[i] == 2 * (i / nx) && c[i] == i));
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn a_bundle_of_unequal_slices_is_refused() {
        let (mut a, b) = (vec![0u8; 4], vec![0u8; 3]);
        Serial.parallel_windows((&mut a[..], &b[..]), 1, |_, _, _| ());
    }

    /// A space that counts the `run_chunks_mut` calls made through it.
    struct Counted<'a, S> {
        inner: &'a S,
        calls: AtomicU64,
    }

    impl<S: ExecSpace> ExecSpace for Counted<'_, S> {
        fn concurrency(&self) -> usize {
            self.inner.concurrency()
        }

        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn run_chunks_mut<T: Send>(
            &self,
            data: &mut [T],
            parts: usize,
            f: &(dyn Fn(usize, &mut [T]) + Sync),
        ) {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.run_chunks_mut(data, parts, f)
        }
    }

    /// The `run_chunks_mut` calls that `parallel_for`, `parallel_for_mut`,
    /// `parallel_reduce` and `parallel_windows` each make on `space`.
    fn dispatches<S: ExecSpace>(space: &S) -> [u64; 4] {
        let counted = Counted { inner: space, calls: 0.into() };
        let calls = || counted.calls.swap(0, Ordering::Relaxed);
        let hits: Vec<AtomicU64> = (0..10).map(|_| 0.into()).collect();
        counted.parallel_for(10, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        let for_calls = calls();
        let mut data = [0usize; 10];
        counted.parallel_for_mut(&mut data, |i, v| *v = i);
        let for_mut_calls = calls();
        let total = counted.parallel_reduce(10, Sum::<usize>::new(), |i| data[i]);
        let reduce_calls = calls();
        let sum: usize = counted.parallel_windows(&mut data[..], 2, |b, _, w| b + w.len()).sum();
        let windows_calls = calls();
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!((data, total), (std::array::from_fn(|i| i), 45));
        assert_eq!(sum, 10 + (0..counted.concurrency().min(5)).sum::<usize>());
        [for_calls, for_mut_calls, reduce_calls, windows_calls]
    }

    #[test]
    fn a_dispatch_is_one_run_chunks_mut_call() {
        assert_eq!(dispatches(&Serial), [1; 4]);
        assert_eq!(dispatches(&sim_gpu()), [1; 4]);
        assert_eq!(dispatches(&Threads::new(1)), [1; 4]);
        assert_eq!(dispatches(&Threads::new(3)), [1; 4]);
    }

    /// The bits of a `Sum::<f32>` over `data` on `space`, by
    /// `parallel_reduce` and by `reduce_blocks` with every block `-0.0`.
    fn f32_sums<S: ExecSpace>(space: &S, data: &[f32]) -> (u32, u32) {
        let sum = space.parallel_reduce(data.len(), Sum::<f32>::new(), |i| data[i]);
        let policy = RangePolicy::new(data.len());
        let zeros = space.reduce_blocks(&policy, &Sum::<f32>::new(), &|_| -0.0);
        (sum.to_bits(), zeros.to_bits())
    }

    #[test]
    fn float_sums_keep_their_bits_on_every_space() {
        let data: Vec<f32> = (0..1000)
            .map(|i| if i % 7 == 0 { -0.0 } else { (i as f32 - 500.5) / (1.0 + i as f32) })
            .collect();
        // a one-block reduction is its block's value, not joined to the
        // identity: `-0.0` stays `-0.0` (`0.0 + -0.0` is `+0.0`)
        let one_block = f32_sums(&Serial, &data);
        assert_eq!(one_block.1, (-0.0f32).to_bits());
        assert_eq!(f32_sums(&sim_gpu(), &data), one_block);
        assert_eq!(f32_sums(&Threads::new(1), &data), one_block);
        // several blocks fold from the identity, in block order
        let threads = Threads::new(3);
        let blocks = f32_sums(&threads, &data);
        assert_eq!(blocks.1, 0.0f32.to_bits());
        for _ in 0..20 {
            assert_eq!(f32_sums(&threads, &data), blocks);
        }
    }
}
