//! The discrete configuration space the tuner searches, and the
//! checkpoint encoding of an arm.

use ckpt::{RestoreError, SectionBuf, SectionReader};
use pk::atomic::ScatterMode;
use psort::SortOrder;
use vsimd::Strategy;

/// Sort cadences swept by default (steps between sorts). VPIC decks
/// typically sort every ~20 steps; 5 and 50 bracket it.
pub const DEFAULT_INTERVALS: [usize; 3] = [5, 20, 50];

/// One arm of the search: a complete setting of the paper's tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Sorting order, or `None` to disable sorting (the cache-fit regime).
    pub order: Option<SortOrder>,
    /// Steps between sorts. Ignored when `order` is `None`.
    pub interval: usize,
    /// Vectorization strategy. One knob drives the whole step: the
    /// particle push *and* the grid-side field pipeline (interpolator
    /// load, curl sweeps, current unload) all dispatch on the
    /// simulation's single `strategy` field, so committing an arm
    /// retunes every kernel at once. All field-kernel strategies are
    /// bit-identical by construction, so the tuner's exploration never
    /// perturbs the physics.
    pub strategy: Strategy,
    /// Current-deposition scatter mode.
    pub scatter: ScatterMode,
    /// Always `None`: an uninhabited placeholder kept only because the
    /// benchmark's `Config` literal still names it. There is no tiled
    /// execution; the field goes when that literal does (ROADMAP 1(i)).
    pub tile: Option<std::convert::Infallible>,
}

impl Config {
    /// A conservative default arm: no sorting, portable strategy, atomic
    /// scatter.
    pub fn unsorted(strategy: Strategy, scatter: ScatterMode) -> Self {
        Self { order: None, interval: 0, strategy, scatter, tile: None }
    }

    /// An arm that sorts in `order` every `interval` steps.
    pub fn sorted(
        order: SortOrder,
        interval: usize,
        strategy: Strategy,
        scatter: ScatterMode,
    ) -> Self {
        Self { order: Some(order), interval, strategy, scatter, tile: None }
    }

    /// Compact human-readable label, used as the key in `results/tune.json`
    /// (e.g. `"standard/i20/guided/atomic"` or `"unsorted/manual/dup"`).
    pub fn label(&self) -> String {
        let strat = match self.strategy {
            Strategy::Auto => "auto",
            Strategy::Guided => "guided",
            Strategy::Manual => "manual",
            Strategy::AdHoc => "adhoc",
        };
        let scatter = match self.scatter {
            ScatterMode::Atomic => "atomic",
            ScatterMode::Duplicated => "dup",
        };
        match self.order {
            None => format!("unsorted/{strat}/{scatter}"),
            Some(o) => format!("{}/i{}/{strat}/{scatter}", o.name(), self.interval),
        }
    }

    /// Encode the arm: sort order, interval, strategy and scatter mode,
    /// then a tile flag that is always `false` (the format keeps the byte
    /// a tiled arm once set).
    pub fn put(&self, b: &mut SectionBuf) {
        put_order(b, self.order);
        b.put_usize(self.interval);
        b.put_u8(match self.strategy {
            Strategy::Auto => 0,
            Strategy::Guided => 1,
            Strategy::Manual => 2,
            Strategy::AdHoc => 3,
        });
        b.put_u8(match self.scatter {
            ScatterMode::Atomic => 0,
            ScatterMode::Duplicated => 1,
        });
        b.put_bool(false);
    }

    /// Decode what [`Config::put`] wrote. An unknown tag, or a set tile
    /// flag (an arm of the removed tiled execution), is
    /// [`RestoreError::SchemaDrift`].
    pub fn get(r: &mut SectionReader<'_>) -> Result<Self, RestoreError> {
        let order = get_order(r)?;
        let interval = r.get_usize()?;
        let strategy = match r.get_u8()? {
            0 => Strategy::Auto,
            1 => Strategy::Guided,
            2 => Strategy::Manual,
            3 => Strategy::AdHoc,
            t => return Err(RestoreError::SchemaDrift(format!("unknown strategy tag {t}"))),
        };
        let scatter = match r.get_u8()? {
            0 => ScatterMode::Atomic,
            1 => ScatterMode::Duplicated,
            t => return Err(RestoreError::SchemaDrift(format!("unknown scatter tag {t}"))),
        };
        if r.get_bool()? {
            return Err(RestoreError::SchemaDrift("tiled arm: tiled stepping was removed".into()));
        }
        Ok(Self { order, interval, strategy, scatter, tile: None })
    }
}

/// Encode a sort order, or its absence.
pub fn put_order(b: &mut SectionBuf, order: Option<SortOrder>) {
    match order {
        None => b.put_u8(0),
        Some(SortOrder::Random) => b.put_u8(1),
        Some(SortOrder::Standard) => b.put_u8(2),
        Some(SortOrder::Strided) => b.put_u8(3),
        Some(SortOrder::TiledStrided { tile }) => {
            b.put_u8(4);
            b.put_usize(tile);
        }
    }
}

/// Decode what [`put_order`] wrote. A tiled-strided order with a zero
/// tile is drift: its first sort would panic.
pub fn get_order(r: &mut SectionReader<'_>) -> Result<Option<SortOrder>, RestoreError> {
    Ok(match r.get_u8()? {
        0 => None,
        1 => Some(SortOrder::Random),
        2 => Some(SortOrder::Standard),
        3 => Some(SortOrder::Strided),
        4 => match r.get_usize()? {
            0 => return Err(RestoreError::SchemaDrift("tiled-strided sort order, tile 0".into())),
            tile => Some(SortOrder::TiledStrided { tile }),
        },
        t => return Err(RestoreError::SchemaDrift(format!("unknown sort-order tag {t}"))),
    })
}

/// The full search space: {None, Standard, Strided, TiledStrided{tile}} ×
/// `intervals` × all four strategies × both scatter modes. The unsorted
/// arms carry no interval axis, so the space is
/// `(1 + 3·|intervals|) · 4 · 2` arms (80 at the default three
/// intervals). [`SortOrder::Random`] is deliberately excluded: re-shuffling
/// is never a performance optimization and its permutation is not a pure
/// function of the keys, which would break schedule-replay determinism.
pub fn config_space(tile: usize, intervals: &[usize]) -> Vec<Config> {
    let strategies = [Strategy::Auto, Strategy::Guided, Strategy::Manual, Strategy::AdHoc];
    let scatters = [ScatterMode::Atomic, ScatterMode::Duplicated];
    let mut arms = Vec::new();
    for &strategy in &strategies {
        for &scatter in &scatters {
            arms.push(Config::unsorted(strategy, scatter));
            for order in SortOrder::sorted_set(tile) {
                for &interval in intervals {
                    arms.push(Config::sorted(order, interval, strategy, scatter));
                }
            }
        }
    }
    arms
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn space_has_expected_size_and_no_random() {
        let arms = config_space(16, &DEFAULT_INTERVALS);
        assert_eq!(arms.len(), (1 + 3 * 3) * 4 * 2);
        assert!(arms.iter().all(|a| a.order != Some(SortOrder::Random)));
        // every arm is distinct
        for (i, a) in arms.iter().enumerate() {
            assert!(!arms[i + 1..].contains(a), "duplicate arm {}", a.label());
        }
    }

    #[test]
    fn labels_are_unique_and_stable() {
        let arms = config_space(8, &[5, 20]);
        let mut labels: Vec<String> = arms.iter().map(Config::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), arms.len());
        let c = Config::sorted(SortOrder::Standard, 20, Strategy::Guided, ScatterMode::Atomic);
        assert_eq!(c.label(), "standard/i20/guided/atomic");
        assert_eq!(
            Config::unsorted(Strategy::Manual, ScatterMode::Duplicated).label(),
            "unsorted/manual/dup"
        );
    }

    /// What `put` writes into one section, read back by `get`, which must
    /// consume all of it.
    pub(crate) fn reread<T>(
        put: impl FnOnce(&mut SectionBuf),
        get: impl FnOnce(&mut SectionReader<'_>) -> Result<T, RestoreError>,
    ) -> Result<T, RestoreError> {
        let mut w = ckpt::Writer::new();
        put(w.section("s"));
        let snap = ckpt::Snapshot::from_bytes(&w.to_bytes()).unwrap();
        let mut r = snap.section("s").unwrap();
        let v = get(&mut r)?;
        r.finish().map(|()| v)
    }

    #[test]
    fn every_arm_round_trips_and_an_unknown_tag_is_drift() {
        let mut arms = config_space(8, &[5]);
        arms.push(Config { order: Some(SortOrder::Random), ..arms[0] });
        for arm in &arms {
            assert_eq!(&reread(|b| arm.put(b), Config::get).unwrap(), arm, "{}", arm.label());
        }
        // an unsorted arm — order tag 0, an 8-byte interval, strategy and
        // scatter tags, the tile flag — cut after its first bad byte
        let bad: [(&[u8], &str); 4] = [
            (&[5], "sort-order tag 5"),
            (&[0, 0, 0, 0, 0, 0, 0, 0, 0, 4], "strategy tag 4"),
            (&[0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 2], "scatter tag 2"),
            (&[0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 1], "tiled arm"),
        ];
        for (bytes, what) in bad {
            match reread(|b| b.put_raw(bytes), Config::get) {
                Err(RestoreError::SchemaDrift(msg)) => assert!(msg.contains(what), "{msg}"),
                other => panic!("{what}: expected drift, got {other:?}"),
            }
        }
    }
}
