//! Property-based tests for the portability layer's core invariants.

use pk::prelude::*;
use proptest::prelude::*;

proptest! {
    /// The inline fixed-point rounding is bit-for-bit `round`: on random
    /// bit patterns (every exponent, NaNs, infinities), on deposit-sized
    /// values, and on exact ties of the quantum.
    #[test]
    fn quantize_is_round_half_away(
        bits in any::<u64>(),
        small in -4.0f64..4.0,
        tie in any::<i64>(),
    ) {
        use pk::atomic::{FixedScatterBuf, FIXED_SCATTER_SCALE};
        let tie = ((tie >> 13) as f64 + 0.5) / FIXED_SCATTER_SCALE;
        for v in [f64::from_bits(bits), small, small * 1e-6, small * 1e-12, tie] {
            let want = (v * FIXED_SCATTER_SCALE).round() as i64;
            prop_assert_eq!(FixedScatterBuf::quantize(v), want, "{:e}", v);
        }
    }

    /// Parallel reductions on Threads equal sequential folds (exact for ints).
    #[test]
    fn threads_reduce_matches_sequential(data in prop::collection::vec(any::<i32>(), 0..500), workers in 1usize..6) {
        let t = Threads::new(workers);
        let sum = t.parallel_reduce(data.len(), Sum::<i64>::new(), |i| data[i] as i64);
        let want: i64 = data.iter().map(|&v| v as i64).sum();
        prop_assert_eq!(sum, want);
        if !data.is_empty() {
            let mn = t.parallel_reduce(data.len(), Min::<i32>::new(), |i| data[i]);
            prop_assert_eq!(mn, *data.iter().min().unwrap());
        }
    }

    /// min_max agrees with the standard library on any float data.
    #[test]
    fn min_max_matches_std(data in prop::collection::vec(-1e6f64..1e6, 1..300)) {
        let got = min_max(&Serial, &data).unwrap();
        let lo = data.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(got, (lo, hi));
    }

    /// Histogram totals the input length and counts every key.
    #[test]
    fn histogram_is_exact(keys in prop::collection::vec(3u64..40, 0..300)) {
        let h = pk::sort::histogram(&keys, 3, 39);
        prop_assert_eq!(h.iter().map(|&c| c as usize).sum::<usize>(), keys.len());
        for (i, &c) in h.iter().enumerate() {
            let k = 3 + i as u64;
            prop_assert_eq!(c as usize, keys.iter().filter(|&&x| x == k).count());
        }
    }
}

/// Properties of `pk::atomic` (named so that `cargo test atomic::` — what
/// the Miri job runs — takes them along with the module's unit tests).
mod atomic {
    use pk::atomic::{Claim, FixedScatterBuf, ScatterMode};
    use proptest::prelude::*;

    proptest! {
        /// However a sequence of `(slot, raw)` adds is dealt to writers,
        /// whichever of them hold their lane alone (plain adds) or shared
        /// (atomic adds), on however many lanes, every slot ends on the
        /// serial wrapping sum: claims that conflict wait, none loses an
        /// add.
        #[test]
        fn claimed_adds_equal_the_serial_wrapping_sum(
            adds in prop::collection::vec((0usize..5, any::<i64>()), 0..120),
            sole in prop::collection::vec(any::<bool>(), 1..5),
            lanes in 1usize..4,
        ) {
            let writers = sole.len();
            let buf = FixedScatterBuf::new(5, lanes, ScatterMode::Duplicated);
            let start = std::sync::Barrier::new(writers);
            std::thread::scope(|scope| {
                for (w, &sole) in sole.iter().enumerate() {
                    let (buf, start, adds) = (&buf, &start, &adds);
                    let claim = if sole { Claim::Sole } else { Claim::Shared };
                    scope.spawn(move || {
                        start.wait();
                        // several claims per writer, so that sole and
                        // shared holders of one lane alternate
                        for deal in adds.chunks(writers).collect::<Vec<_>>().chunks(8) {
                            let lane = buf.claim(w, claim);
                            for &(slot, raw) in deal.iter().filter_map(|hand| hand.get(w)) {
                                lane.add_raw_run(slot, &[raw]);
                            }
                        }
                    });
                }
            });
            for slot in 0..5 {
                let want = adds.iter().filter(|a| a.0 == slot).fold(0i64, |s, a| s.wrapping_add(a.1));
                prop_assert_eq!(buf.get_raw(slot), want, "slot {}", slot);
            }
        }
    }
}
