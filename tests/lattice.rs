//! The differential lattice's own tests: its comparator, and points drawn
//! at random from every stepper's valid combinations (`PROPTEST_CASES` of
//! them). The enumerated slices run from the files whose contracts they
//! check; `lattice/mod.rs` holds the points, the reference and the
//! comparator.

#[path = "lattice/mod.rs"]
mod lattice;

use lattice::{check, reference, same_state, DeckKind, Point};
use proptest::{case_count, seed_for, TestRng};
use vpic2::core::Species;

/// The comparator sees whole records: one flipped bit in one record, or
/// one array permuted on its own, is a difference; two whole records
/// swapped is not, unless the point claims canonical order.
#[test]
fn the_comparator_compares_whole_records() {
    let (want, _) = reference(DeckKind::Weibel, 0);
    let changed = |change: &dyn Fn(&mut Species)| {
        let (mut got, _) = reference(DeckKind::Weibel, 0);
        change(&mut got.species[1]);
        got
    };
    let flipped = changed(&|s| s.uz[5] = f32::from_bits(s.uz[5].to_bits() ^ 1));
    assert!(same_state(&want, &flipped, false).is_some(), "one flipped bit");
    let ux_swapped = changed(&|s| s.ux.swap(3, 4));
    assert!(same_state(&want, &ux_swapped, false).is_some(), "two records' ux swapped");
    let swapped = changed(&|s| {
        s.cell.swap(3, 4);
        s.floats_mut().into_iter().for_each(|a| a.swap(3, 4));
    });
    assert_eq!(same_state(&want, &swapped, false), None, "two whole records swapped");
    assert!(same_state(&want, &swapped, true).is_some(), "swapped in canonical order");
}

#[test]
fn random_points_match_the_reference() {
    let mut rng = TestRng::new(seed_for("random_points_match_the_reference"));
    check((0..case_count()).map(|_| Point::draw(&mut rng)));
}
