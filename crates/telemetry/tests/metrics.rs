//! Property tests for the streaming-metrics layer: merge is associative,
//! percentiles are a pure function of the recorded multiset (any thread
//! interleaving, any stripe assignment), and the exporters stay
//! byte-identical for fixed inputs when fed through the real pipeline.
//!
//! Lives in its own integration binary because the concurrency property
//! flips the global enabled flag.

use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Serialize tests that touch the process-global registry/flag.
fn global_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Build a `HistData` from samples without going through the registry.
fn hist_of(samples: &[u64]) -> telemetry::HistData {
    let mut h = telemetry::HistData::default();
    for &v in samples {
        h.count += 1;
        h.sum += v;
        *h.buckets.entry(telemetry::bucket_index(v) as u32).or_insert(0) += 1;
    }
    h
}

proptest! {
    /// (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c): bucket counts are commutative sums,
    /// so merge order can never change a reported percentile.
    #[test]
    fn merge_is_associative(
        a in prop::collection::vec(0u64..1_000_000, 0..40),
        b in prop::collection::vec(0u64..1_000_000, 0..40),
        c in prop::collection::vec(0u64..1_000_000, 0..40),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        // and commutative
        let mut ba = hb.clone();
        ba.merge(&ha);
        let mut ab = ha.clone();
        ab.merge(&hb);
        prop_assert_eq!(&ab, &ba);
    }

    /// Percentiles depend only on the sample multiset: shuffling the
    /// recording order (any interleaving a scheduler could produce)
    /// yields an identical snapshot.
    #[test]
    fn percentiles_are_order_independent(
        samples in prop::collection::vec(0u64..10_000_000, 1..120),
        seed in 0u64..1_000,
    ) {
        let forward = hist_of(&samples);
        // deterministic shuffle driven by the generated seed
        let mut shuffled = samples.clone();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        for i in (1..shuffled.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            shuffled.swap(i, (state as usize) % (i + 1));
        }
        let backward = hist_of(&shuffled);
        prop_assert_eq!(&forward, &backward);
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            prop_assert_eq!(forward.percentile(p), backward.percentile(p));
        }
    }

    /// Every percentile reads back within one bucket (≤12.5% relative
    /// error) of a true sample, and the floors are monotone in p.
    #[test]
    fn percentile_stays_within_quantization(
        samples in prop::collection::vec(1u64..1_000_000_000, 1..80),
    ) {
        let h = hist_of(&samples);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let mut prev = 0u64;
        for p in [10.0, 50.0, 90.0, 95.0, 99.0] {
            let got = h.percentile(p);
            prop_assert!(got >= prev, "percentile not monotone at p{p}");
            prev = got;
            // nearest-rank true value for the same p
            let idx = (((p / 100.0) * sorted.len() as f64).ceil() as usize)
                .clamp(1, sorted.len()) - 1;
            let truth = sorted[idx];
            // reported floor never exceeds the truth, and the truth sits
            // inside the reported bucket
            prop_assert!(got <= truth, "floor {got} above true p{p} {truth}");
            let bucket_end = telemetry::bucket_floor(
                telemetry::bucket_index(truth) + 1
            );
            prop_assert!(truth < bucket_end);
        }
    }
}

/// The concurrency property: a fixed multiset recorded from many threads
/// (landing on different stripes) snapshots identically to the same
/// multiset recorded serially — determinism does not depend on the
/// scheduler.
#[test]
fn concurrent_recording_matches_serial() {
    let _g = global_lock();
    telemetry::set_enabled(true);
    let h = telemetry::histogram("test.metrics.concurrent");
    let serial = telemetry::histogram("test.metrics.serial");
    let samples: Vec<u64> = (0..4096u64).map(|i| i.wrapping_mul(2654435761) % 1_000_000).collect();

    std::thread::scope(|s| {
        for chunk in samples.chunks(512) {
            s.spawn(move || {
                for &v in chunk {
                    h.record(v);
                }
            });
        }
    });
    for &v in &samples {
        serial.record(v);
    }
    telemetry::set_enabled(false);

    let concurrent_snap = h.snapshot();
    let serial_snap = serial.snapshot();
    assert_eq!(concurrent_snap, serial_snap, "stripe merge must erase the interleaving");
    assert_eq!(concurrent_snap.count, 4096);
    for p in [50.0, 95.0, 99.0] {
        assert_eq!(concurrent_snap.percentile(p), serial_snap.percentile(p));
    }
}

/// End-to-end determinism: fixed values through the real macro pipeline,
/// exported twice, must be byte-identical.
#[test]
fn exporters_are_byte_identical_through_the_pipeline() {
    let _g = global_lock();
    telemetry::set_enabled(true);
    for v in [3u64, 14, 159, 2653, 58979] {
        telemetry::hist!("test.metrics.pipeline", v);
    }
    telemetry::set_enabled(false);
    let snap = telemetry::snapshot();
    let json = telemetry::summary_json(&snap);
    assert_eq!(json, telemetry::summary_json(&snap));
    assert_eq!(
        telemetry::format_metrics(&snap.metrics),
        telemetry::format_metrics(&snap.metrics)
    );
    assert!(json.contains("\"name\": \"test.metrics.pipeline\", \"count\": 5"));
}
