//! The job submission surface: what a tenant hands the server.
//!
//! A [`JobSpec`] is a deck plus run-control knobs (step budget,
//! scheduler weight, deadline, tuning/tiling requests). Tenants can
//! build one programmatically or submit a **deckfile** — a tiny
//! `key=value` text format ([`JobSpec::parse`]) mirroring how VPIC runs
//! are configured by input decks. Parsing is total: every malformed
//! input is a typed [`SpecError`], never a panic.

use std::path::PathBuf;
use vpic_core::{Deck, TilePolicy};

/// Why a deckfile (or a programmatic spec) was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A required key is absent (`deck=`, `steps=`).
    MissingKey(&'static str),
    /// A key the format does not define.
    UnknownKey {
        /// 1-based deckfile line.
        line: usize,
        /// The offending key.
        key: String,
    },
    /// A token without `=`, or a value that does not parse.
    BadValue {
        /// 1-based deckfile line.
        line: usize,
        /// The key whose value failed.
        key: String,
        /// The raw value text.
        value: String,
        /// What the parser wanted.
        expected: &'static str,
    },
    /// `deck=` names no known deck.
    UnknownDeck(String),
    /// The assembled spec violates an invariant (zero steps, zero
    /// weight, degenerate grid…).
    Invalid(&'static str),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingKey(k) => write!(f, "deckfile is missing required key `{k}`"),
            Self::UnknownKey { line, key } => {
                write!(f, "deckfile line {line}: unknown key `{key}`")
            }
            Self::BadValue { line, key, value, expected } => {
                write!(f, "deckfile line {line}: `{key}={value}` — expected {expected}")
            }
            Self::UnknownDeck(d) => {
                write!(f, "unknown deck `{d}` (expected uniform, weibel, or lpi)")
            }
            Self::Invalid(why) => write!(f, "invalid job spec: {why}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// A complete, validated job description.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Tenant-visible job name (defaults to the deck name).
    pub name: String,
    /// The simulation configuration.
    pub deck: Deck,
    /// Total steps the job wants.
    pub steps: u64,
    /// Scheduler share: slices granted per round (≥ 1).
    pub weight: u32,
    /// Cancel the job if it has not finished within this many scheduler
    /// rounds of admission. Rounds, not wall time, so the contract is
    /// deterministic and testable.
    pub deadline_rounds: Option<u64>,
    /// Arm the adaptive tuner for this job.
    pub tune: bool,
    /// Run the job on the tiled execution path under this policy.
    pub tile: Option<TilePolicy>,
}

impl JobSpec {
    /// A plain job: run `deck` for `steps` steps at weight 1, no
    /// deadline, no tuning, untiled.
    pub fn new(deck: Deck, steps: u64) -> Self {
        Self {
            name: deck.name.clone(),
            deck,
            steps,
            weight: 1,
            deadline_rounds: None,
            tune: false,
            tile: None,
        }
    }

    /// Estimated resident working set: the paper's per-cell field/
    /// interpolator/accumulator state plus the SoA particle record
    /// (see `memsim::push::working_set_bytes`). Admission control
    /// prices the job at this estimate.
    pub(crate) fn estimated_bytes(&self) -> u64 {
        let (nx, ny, nz) = self.deck.shape;
        let cells = nx * ny * nz;
        let species = if self.deck.ions { 2 } else { 1 };
        memsim::push::working_set_bytes(cells, self.deck.electron_count() * species)
    }

    /// Check the invariants the scheduler relies on.
    pub(crate) fn validate(&self) -> Result<(), SpecError> {
        if self.steps == 0 {
            return Err(SpecError::Invalid("steps must be ≥ 1"));
        }
        if self.weight == 0 {
            return Err(SpecError::Invalid("weight must be ≥ 1"));
        }
        let (nx, ny, nz) = self.deck.shape;
        if nx == 0 || ny == 0 || nz == 0 {
            return Err(SpecError::Invalid("grid extent must be ≥ 1 in every axis"));
        }
        if self.deck.ppc == 0 {
            return Err(SpecError::Invalid("ppc must be ≥ 1"));
        }
        if let Some(t) = &self.tile {
            if t.tile_cells == 0 || t.max_hot == 0 {
                return Err(SpecError::Invalid("tile_cells and tile_hot must be ≥ 1"));
            }
        }
        if self.deadline_rounds == Some(0) {
            return Err(SpecError::Invalid("deadline_rounds must be ≥ 1"));
        }
        Ok(())
    }

    /// Parse a deckfile: whitespace-separated `key=value` tokens,
    /// `#` starts a comment, blank lines ignored.
    ///
    /// ```text
    /// # a tuned, tiled Weibel tenant
    /// deck=weibel nx=6 ny=6 nz=6 ppc=4 drift=0.3
    /// steps=40 weight=2 deadline_rounds=200
    /// tune=on tile=64 tile_hot=2 tile_compress=on
    /// ```
    ///
    /// Keys: `deck` (uniform|weibel|lpi, required), `nx ny nz` (default
    /// 6), `ppc` (default 4), `drift` (weibel beam speed), `seed`,
    /// `name`, `steps` (required), `weight`, `deadline_rounds`,
    /// `tune` (on|off), `tile` (cells per tile — presence enables the
    /// tiled path), `tile_hot`, `tile_compress` (on|off), `spill`
    /// (directory for tile spill files).
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let mut deck_kind: Option<String> = None;
        let mut name: Option<String> = None;
        let (mut nx, mut ny, mut nz) = (6usize, 6usize, 6usize);
        let mut ppc = 4usize;
        let mut drift = 0.3f32;
        let mut seed: Option<u64> = None;
        let mut steps: Option<u64> = None;
        let mut weight = 1u32;
        let mut deadline_rounds: Option<u64> = None;
        let mut tune = false;
        let mut tile_cells: Option<usize> = None;
        let mut tile_hot: Option<usize> = None;
        let mut tile_compress = true;
        let mut spill: Option<PathBuf> = None;

        for (li, raw) in text.lines().enumerate() {
            let line = li + 1;
            let body = raw.split('#').next().unwrap_or("");
            for tok in body.split_whitespace() {
                let Some((key, value)) = tok.split_once('=') else {
                    return Err(SpecError::BadValue {
                        line,
                        key: tok.to_string(),
                        value: String::new(),
                        expected: "a key=value token",
                    });
                };
                let bad = |expected: &'static str| SpecError::BadValue {
                    line,
                    key: key.to_string(),
                    value: value.to_string(),
                    expected,
                };
                match key {
                    "deck" => deck_kind = Some(value.to_string()),
                    "name" => name = Some(value.to_string()),
                    "nx" => nx = value.parse().map_err(|_| bad("a cell count"))?,
                    "ny" => ny = value.parse().map_err(|_| bad("a cell count"))?,
                    "nz" => nz = value.parse().map_err(|_| bad("a cell count"))?,
                    "ppc" => ppc = value.parse().map_err(|_| bad("particles per cell"))?,
                    "drift" => drift = value.parse().map_err(|_| bad("a beam speed"))?,
                    "seed" => seed = Some(value.parse().map_err(|_| bad("an RNG seed"))?),
                    "steps" => steps = Some(value.parse().map_err(|_| bad("a step count"))?),
                    "weight" => weight = value.parse().map_err(|_| bad("a scheduler weight"))?,
                    "deadline_rounds" => {
                        deadline_rounds =
                            Some(value.parse().map_err(|_| bad("a round count"))?)
                    }
                    "tune" => tune = parse_switch(value).ok_or_else(|| bad("on or off"))?,
                    "tile" => {
                        // `TilePolicy::new` clamps 0 to 1; reject here
                        // so the tenant hears about the typo instead
                        let cells: usize = value.parse().map_err(|_| bad("cells per tile"))?;
                        if cells == 0 {
                            return Err(bad("a nonzero tile size"));
                        }
                        tile_cells = Some(cells);
                    }
                    "tile_hot" => {
                        tile_hot = Some(value.parse().map_err(|_| bad("a hot-pool size"))?)
                    }
                    "tile_compress" => {
                        tile_compress = parse_switch(value).ok_or_else(|| bad("on or off"))?
                    }
                    "spill" => spill = Some(PathBuf::from(value)),
                    _ => {
                        return Err(SpecError::UnknownKey { line, key: key.to_string() });
                    }
                }
            }
        }

        let kind = deck_kind.ok_or(SpecError::MissingKey("deck"))?;
        let mut deck = match kind.as_str() {
            "uniform" => Deck::uniform(nx, ny, nz, ppc),
            "weibel" => Deck::weibel(nx, ny, nz, ppc, drift),
            "lpi" => Deck::lpi(nx, ny, nz, ppc),
            _ => return Err(SpecError::UnknownDeck(kind)),
        };
        if let Some(s) = seed {
            deck.seed = s;
        }
        let tile = tile_cells.map(|cells| {
            let mut p = TilePolicy::new(cells);
            p.compress = tile_compress;
            if let Some(hot) = tile_hot {
                p.max_hot = hot;
            }
            p.spill_dir = spill.clone();
            p
        });
        let spec = Self {
            name: name.unwrap_or_else(|| deck.name.clone()),
            deck,
            steps: steps.ok_or(SpecError::MissingKey("steps"))?,
            weight,
            deadline_rounds,
            tune,
            tile,
        };
        spec.validate()?;
        Ok(spec)
    }
}

fn parse_switch(v: &str) -> Option<bool> {
    match v {
        "on" | "true" | "1" => Some(true),
        "off" | "false" | "0" => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_deckfile() {
        let spec = JobSpec::parse(
            "# tenant 7\n\
             deck=weibel nx=5 ny=6 nz=7 ppc=3 drift=0.25 seed=99\n\
             name=tenant-7 steps=40 weight=2 deadline_rounds=200\n\
             tune=on tile=64 tile_hot=2 tile_compress=off\n",
        )
        .expect("valid deckfile");
        assert_eq!(spec.name, "tenant-7");
        assert_eq!(spec.deck.shape, (5, 6, 7));
        assert_eq!(spec.deck.ppc, 3);
        assert_eq!(spec.deck.seed, 99);
        assert_eq!(spec.steps, 40);
        assert_eq!(spec.weight, 2);
        assert_eq!(spec.deadline_rounds, Some(200));
        assert!(spec.tune);
        let tile = spec.tile.expect("tiled");
        assert_eq!(tile.tile_cells, 64);
        assert_eq!(tile.max_hot, 2);
        assert!(!tile.compress);
    }

    #[test]
    fn defaults_fill_in() {
        let spec = JobSpec::parse("deck=uniform steps=5").expect("minimal deckfile");
        assert_eq!(spec.deck.shape, (6, 6, 6));
        assert_eq!(spec.weight, 1);
        assert!(!spec.tune);
        assert!(spec.tile.is_none());
        assert_eq!(spec.name, spec.deck.name);
    }

    #[test]
    fn every_malformed_input_is_typed() {
        assert!(matches!(JobSpec::parse("steps=5"), Err(SpecError::MissingKey("deck"))));
        assert!(matches!(JobSpec::parse("deck=uniform"), Err(SpecError::MissingKey("steps"))));
        assert!(matches!(
            JobSpec::parse("deck=vlasov steps=5"),
            Err(SpecError::UnknownDeck(d)) if d == "vlasov"
        ));
        assert!(matches!(
            JobSpec::parse("deck=uniform steps=5 flux=9"),
            Err(SpecError::UnknownKey { line: 1, key }) if key == "flux"
        ));
        assert!(matches!(
            JobSpec::parse("deck=uniform\nsteps=banana"),
            Err(SpecError::BadValue { line: 2, .. })
        ));
        assert!(matches!(
            JobSpec::parse("deck=uniform steps"),
            Err(SpecError::BadValue { .. })
        ));
        assert!(matches!(
            JobSpec::parse("deck=uniform steps=0"),
            Err(SpecError::Invalid(_))
        ));
        assert!(matches!(
            JobSpec::parse("deck=uniform steps=5 weight=0"),
            Err(SpecError::Invalid(_))
        ));
        assert!(matches!(
            JobSpec::parse("deck=uniform steps=5 tile=0"),
            Err(SpecError::BadValue { .. })
        ));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let spec = JobSpec::parse(
            "\n# header\n  deck=lpi   # trailing comment\n\nsteps=3\n",
        )
        .expect("comments stripped");
        assert!(spec.deck.laser.is_some());
    }

    #[test]
    fn estimate_scales_with_the_deck() {
        let small = JobSpec::parse("deck=uniform nx=4 ny=4 nz=4 ppc=2 steps=1").unwrap();
        let large = JobSpec::parse("deck=uniform nx=8 ny=8 nz=8 ppc=8 steps=1").unwrap();
        assert!(large.estimated_bytes() > 4 * small.estimated_bytes());
    }
}
