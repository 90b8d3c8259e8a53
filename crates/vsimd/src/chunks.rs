//! Guided-vectorization loop helpers.
//!
//! The paper's *guided* strategy forces vectorization with
//! `#pragma omp simd` and splits kernels so hard-to-vectorize math sits in
//! its own loop. Rust has no vectorization pragma; the equivalent
//! guidance is to restructure the loop so LLVM's vectorizer cannot miss:
//! a main loop over exact fixed-width chunks (no trip-count unknowns, no
//! bounds checks, no cross-iteration dependence visible) plus a scalar
//! tail. These helpers encode that restructuring once.

/// Apply `f` to every element of exact `W`-sized chunk arrays of `data`,
/// then `tail` to the remainder. The chunk closure sees `&mut [T; W]`, so
/// the compiler knows the trip count exactly.
#[inline(always)]
pub fn for_each_chunk_mut<T, const W: usize>(
    data: &mut [T],
    mut f: impl FnMut(usize, &mut [T; W]),
    mut tail: impl FnMut(usize, &mut T),
) {
    let n = data.len();
    let main = n - n % W;
    let mut base = 0;
    while base < main {
        let chunk: &mut [T; W] = (&mut data[base..base + W]).try_into().expect("exact chunk");
        f(base, chunk);
        base += W;
    }
    for (k, item) in data[main..].iter_mut().enumerate() {
        tail(main + k, item);
    }
}

/// Zip two slices in exact `W`-sized chunks: `f(base, &mut a_chunk,
/// &b_chunk)` over the main part, `tail` over the remainder.
#[inline(always)]
pub fn zip_chunks_mut<A, B, const W: usize>(
    a: &mut [A],
    b: &[B],
    mut f: impl FnMut(usize, &mut [A; W], &[B; W]),
    mut tail: impl FnMut(usize, &mut A, &B),
) {
    assert_eq!(a.len(), b.len(), "zip_chunks_mut length mismatch");
    let n = a.len();
    let main = n - n % W;
    let mut base = 0;
    while base < main {
        let ca: &mut [A; W] = (&mut a[base..base + W]).try_into().expect("exact chunk");
        let cb: &[B; W] = (&b[base..base + W]).try_into().expect("exact chunk");
        f(base, ca, cb);
        base += W;
    }
    for k in main..n {
        tail(k, &mut a[k], &b[k]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_each_chunk_covers_all_including_tail() {
        let mut v: Vec<u32> = vec![0; 37];
        for_each_chunk_mut::<u32, 8>(
            &mut v,
            |base, chunk| {
                for (l, x) in chunk.iter_mut().enumerate() {
                    *x = (base + l) as u32;
                }
            },
            |i, x| *x = i as u32,
        );
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u32));
    }

    #[test]
    fn for_each_chunk_exact_multiple_has_empty_tail() {
        let mut v = vec![1u8; 32];
        let mut tail_calls = 0;
        for_each_chunk_mut::<u8, 16>(
            &mut v,
            |_, chunk| {
                for x in chunk.iter_mut() {
                    *x += 1;
                }
            },
            |_, _| tail_calls += 1,
        );
        assert_eq!(tail_calls, 0);
        assert!(v.iter().all(|&x| x == 2));
    }

    #[test]
    fn zip_chunks_axpy_matches_reference() {
        let n = 53;
        let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let mut y = vec![1.0f32; n];
        let a = 2.0f32;
        zip_chunks_mut::<f32, f32, 16>(
            &mut y,
            &x,
            |_, yc, xc| {
                for l in 0..16 {
                    yc[l] += a * xc[l];
                }
            },
            |_, yi, xi| *yi += a * xi,
        );
        for i in 0..n {
            assert_eq!(y[i], 1.0 + 2.0 * i as f32);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn zip_chunks_length_mismatch_panics() {
        let mut a = vec![0.0f32; 4];
        let b = vec![0.0f32; 5];
        zip_chunks_mut::<f32, f32, 4>(&mut a, &b, |_, _, _| {}, |_, _, _| {});
    }
}
