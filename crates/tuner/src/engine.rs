//! The explore → commit → drift state machine.

use crate::config::Config;
use crate::measure::Measurement;

/// Where the tuner is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Measuring candidate arms one epoch at a time.
    Exploring,
    /// Re-measuring the top arms of the exploration pass (enabled by
    /// [`Tuner::with_refinement`]) before committing.
    Refining,
    /// Running the winning arm, watching for drift.
    Committed,
}

/// Relative change in the crossing-rate EWMA (vs. the rate at commit
/// time) that triggers re-exploration.
const DRIFT_TOLERANCE: f64 = 0.5;

/// Committed-cost regression factor that triggers re-exploration even
/// when the crossing rate looks stable.
const COST_TOLERANCE: f64 = 1.5;

/// EWMA smoothing for the committed-phase crossing rate.
const EWMA_ALPHA: f64 = 0.5;

/// The epoch-based auto-tuner. Feed it one [`Measurement`] per epoch via
/// [`Tuner::finish_epoch`]; run whatever [`Tuner::current`] says in
/// between. The struct is pure state — it never reads a clock — so its
/// decisions are a deterministic function of the measurements it is fed.
#[derive(Debug, Clone)]
pub struct Tuner {
    arms: Vec<Config>,
    epoch_steps: usize,
    phase: Phase,
    /// Index of the arm being measured (Exploring) or run (Committed).
    cursor: usize,
    /// Cost per particle of each measured arm this exploration round.
    costs: Vec<Option<f64>>,
    /// Crossing rate observed while measuring each arm.
    rates: Vec<f64>,
    committed_cost: f64,
    /// Crossing rate at commit time; the drift baseline.
    baseline_rate: f64,
    /// Committed-phase crossing-rate EWMA.
    rate_ewma: f64,
    /// How many of the best-explored arms get a second measurement epoch
    /// before committing (0 disables refinement).
    refine_top: usize,
    /// Arm indices still queued for refinement.
    refine_queue: Vec<usize>,
    explorations: u64,
}

/// The complete serializable state of a [`Tuner`]: every field
/// [`Tuner::finish_epoch`] reads or writes, with public fields so a
/// checkpoint layer can encode it without this crate knowing the format.
/// Round trip: [`Tuner::state`] → persist → [`Tuner::from_state`]. The
/// engine is pure (no wall clock), so a restored tuner fed the same
/// measurements makes the same decisions as the original — the property
/// `tests/checkpoint_restart.rs` leans on.
#[derive(Debug, Clone, PartialEq)]
pub struct TunerState {
    /// Candidate arms, in exploration order.
    pub arms: Vec<Config>,
    /// Steps per measurement epoch.
    pub epoch_steps: usize,
    /// Lifecycle phase.
    pub phase: Phase,
    /// Arm being measured (Exploring/Refining) or run (Committed).
    pub cursor: usize,
    /// Per-arm cost measured this exploration round.
    pub costs: Vec<Option<f64>>,
    /// Per-arm crossing rate measured this exploration round.
    pub rates: Vec<f64>,
    /// Cost of the committed arm at commit time.
    pub committed_cost: f64,
    /// Crossing rate at commit time (drift baseline).
    pub baseline_rate: f64,
    /// Committed-phase crossing-rate EWMA.
    pub rate_ewma: f64,
    /// Top-N refinement budget.
    pub refine_top: usize,
    /// Arm indices still queued for refinement.
    pub refine_queue: Vec<usize>,
    /// Exploration rounds started.
    pub explorations: u64,
}

impl Tuner {
    /// A tuner over `arms`, measuring each for `epoch_steps` simulation
    /// steps. Exploration visits arms in order, so the caller controls
    /// the prior by ordering (see [`Tuner::with_cache_prior`]).
    pub fn new(arms: Vec<Config>, epoch_steps: usize) -> Self {
        assert!(!arms.is_empty(), "tuner needs at least one arm");
        assert!(epoch_steps > 0, "epochs must contain at least one step");
        let n = arms.len();
        Self {
            arms,
            epoch_steps,
            phase: Phase::Exploring,
            cursor: 0,
            costs: vec![None; n],
            rates: vec![0.0; n],
            committed_cost: f64::INFINITY,
            baseline_rate: 0.0,
            rate_ewma: 0.0,
            refine_top: 0,
            refine_queue: Vec::new(),
            explorations: 1,
        }
    }

    /// After the exploration pass, re-measure the `top` cheapest arms for
    /// one more epoch each and keep each arm's *minimum* cost before
    /// committing. Wall-clock noise is one-sided — a preempted epoch can
    /// only make an arm look slower, never faster — so the minimum of two
    /// epochs is the sharper estimate of an arm's true cost, and ranking
    /// the contenders by it costs only `top` extra epochs.
    pub fn with_refinement(mut self, top: usize) -> Self {
        self.refine_top = top;
        self
    }

    /// Apply the cache-model prior (the paper's superlinear-scaling
    /// heuristic, computed by [`crate::prior::prefer_unsorted`]): when the
    /// grid's push working set fits the LLC, the unsorted arms are
    /// explored first; otherwise the sorting arms are. Ordering is what
    /// the prior controls — under a short exploration budget the tuner
    /// commits to the best arm *measured so far*, so the prior's arms get
    /// first claim on the budget. The reorder is stable within each group.
    pub fn with_cache_prior(mut self, grid_fits_llc: bool) -> Self {
        self.arms.sort_by_key(|a| {
            let unsorted = a.order.is_none();
            if grid_fits_llc {
                !unsorted as u8
            } else {
                unsorted as u8
            }
        });
        self
    }

    /// Steps per measurement epoch.
    pub fn epoch_steps(&self) -> usize {
        self.epoch_steps
    }

    /// The configuration to run right now.
    pub fn current(&self) -> &Config {
        &self.arms[self.cursor]
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The committed arm, if the tuner has converged.
    pub fn committed(&self) -> Option<&Config> {
        (self.phase == Phase::Committed).then(|| &self.arms[self.cursor])
    }

    /// Best (config, cost-per-particle) measured so far, if any.
    pub fn best(&self) -> Option<(&Config, f64)> {
        self.costs
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|c| (i, c)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, c)| (&self.arms[i], c))
    }

    /// Export the complete engine state for checkpointing.
    pub fn state(&self) -> TunerState {
        TunerState {
            arms: self.arms.clone(),
            epoch_steps: self.epoch_steps,
            phase: self.phase,
            cursor: self.cursor,
            costs: self.costs.clone(),
            rates: self.rates.clone(),
            committed_cost: self.committed_cost,
            baseline_rate: self.baseline_rate,
            rate_ewma: self.rate_ewma,
            refine_top: self.refine_top,
            refine_queue: self.refine_queue.clone(),
            explorations: self.explorations,
        }
    }

    /// Rebuild a tuner from checkpointed state. Internal-consistency
    /// violations (empty arm set, cursor or refine queue out of range,
    /// mismatched per-arm vector lengths) are rejected so a drifted
    /// snapshot cannot resurrect an engine that would index out of
    /// bounds on its next epoch.
    pub fn from_state(s: TunerState) -> Result<Self, String> {
        if s.arms.is_empty() {
            return Err("tuner state has no arms".into());
        }
        if s.epoch_steps == 0 {
            return Err("tuner state has zero epoch_steps".into());
        }
        let n = s.arms.len();
        if s.cursor >= n {
            return Err(format!("tuner cursor {} out of range for {n} arms", s.cursor));
        }
        if s.costs.len() != n || s.rates.len() != n {
            return Err(format!(
                "per-arm vectors sized {}/{} for {n} arms",
                s.costs.len(),
                s.rates.len()
            ));
        }
        if let Some(&bad) = s.refine_queue.iter().find(|&&i| i >= n) {
            return Err(format!("refine queue entry {bad} out of range for {n} arms"));
        }
        Ok(Self {
            arms: s.arms,
            epoch_steps: s.epoch_steps,
            phase: s.phase,
            cursor: s.cursor,
            costs: s.costs,
            rates: s.rates,
            committed_cost: s.committed_cost,
            baseline_rate: s.baseline_rate,
            rate_ewma: s.rate_ewma,
            refine_top: s.refine_top,
            refine_queue: s.refine_queue,
            explorations: s.explorations,
        })
    }

    /// Ingest the epoch that just ran under [`Tuner::current`] and return
    /// the configuration for the next epoch.
    pub fn finish_epoch(&mut self, m: &Measurement) -> Config {
        match self.phase {
            Phase::Exploring => {
                let interval = self.arms[self.cursor].interval;
                self.costs[self.cursor] = Some(m.cost_per_particle(interval));
                self.rates[self.cursor] = m.crossing_rate();
                if self.cursor + 1 < self.arms.len() {
                    self.cursor += 1;
                } else if self.refine_top > 0 {
                    self.start_refinement();
                } else {
                    self.commit();
                }
            }
            Phase::Refining => {
                let interval = self.arms[self.cursor].interval;
                let cost = m.cost_per_particle(interval);
                if cost < self.costs[self.cursor].unwrap_or(f64::INFINITY) {
                    self.costs[self.cursor] = Some(cost);
                    self.rates[self.cursor] = m.crossing_rate();
                }
                self.refine_queue.remove(0);
                match self.refine_queue.first() {
                    Some(&next) => self.cursor = next,
                    None => self.commit(),
                }
            }
            Phase::Committed => {
                let cost = m.cost_per_particle(self.arms[self.cursor].interval);
                let rate = m.crossing_rate();
                self.rate_ewma = (1.0 - EWMA_ALPHA) * self.rate_ewma + EWMA_ALPHA * rate;
                let base = self.baseline_rate.max(1e-12);
                let drifted = (self.rate_ewma - self.baseline_rate).abs() / base > DRIFT_TOLERANCE;
                let regressed =
                    self.committed_cost.is_finite() && cost > self.committed_cost * COST_TOLERANCE;
                if drifted || regressed {
                    self.reexplore();
                }
            }
        }
        self.arms[self.cursor]
    }

    fn start_refinement(&mut self) {
        let mut ranked: Vec<(usize, f64)> = self
            .costs
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|c| (i, c)))
            .filter(|(_, c)| c.is_finite())
            .collect();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
        self.refine_queue = ranked.iter().take(self.refine_top).map(|&(i, _)| i).collect();
        match self.refine_queue.first() {
            Some(&first) => {
                self.cursor = first;
                self.phase = Phase::Refining;
            }
            None => self.commit(),
        }
    }

    fn commit(&mut self) {
        let best = self
            .costs
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|c| (i, c)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        self.cursor = best;
        self.committed_cost = self.costs[best].unwrap_or(f64::INFINITY);
        self.baseline_rate = self.rates[best];
        self.rate_ewma = self.baseline_rate;
        self.phase = Phase::Committed;
    }

    fn reexplore(&mut self) {
        self.phase = Phase::Exploring;
        self.cursor = 0;
        self.costs = vec![None; self.arms.len()];
        self.rates = vec![0.0; self.arms.len()];
        self.refine_queue.clear();
        self.committed_cost = f64::INFINITY;
        self.explorations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pk::atomic::ScatterMode;
    use psort::SortOrder;
    use vsimd::Strategy;

    fn arm(order: Option<SortOrder>, interval: usize) -> Config {
        Config { order, interval, strategy: Strategy::Auto, scatter: ScatterMode::Atomic, tile: None }
    }

    /// Deterministic synthetic epoch: `ns_per_step` of push plus one
    /// `sort_ns` sort, over 10 steps × 100 particles.
    fn epoch(ns_per_step: u64, sort_ns: u64, crossings: u64) -> Measurement {
        Measurement {
            steps: 10,
            pushed: 1000,
            crossings,
            step_ns: 10 * ns_per_step + sort_ns,
            sort_ns,
            sorts: u64::from(sort_ns > 0),
        }
    }

    fn three_arm_tuner() -> Tuner {
        Tuner::new(
            vec![
                arm(None, 0),
                arm(Some(SortOrder::Standard), 5),
                arm(Some(SortOrder::Strided), 20),
            ],
            10,
        )
    }

    #[test]
    fn selects_the_known_best_arm() {
        let mut t = three_arm_tuner();
        assert_eq!(t.phase(), Phase::Exploring);
        // unsorted: 800 ns/step; standard/i5: 500 + 1000/5 = 700;
        // strided/i20: 600 + 1000/20 = 650 ← best
        assert_eq!(t.current().order, None);
        t.finish_epoch(&epoch(800, 0, 100));
        assert_eq!(t.current().order, Some(SortOrder::Standard));
        t.finish_epoch(&epoch(500, 1000, 100));
        assert_eq!(t.current().order, Some(SortOrder::Strided));
        let next = t.finish_epoch(&epoch(600, 1000, 100));
        assert_eq!(t.phase(), Phase::Committed);
        assert_eq!(next.order, Some(SortOrder::Strided));
        assert_eq!(t.committed().unwrap().order, Some(SortOrder::Strided));
        let (best, cost) = t.best().unwrap();
        assert_eq!(best.order, Some(SortOrder::Strided));
        assert!((cost - 6.5).abs() < 1e-12);
    }

    #[test]
    fn amortization_beats_raw_epoch_cost() {
        // standard/i50's epoch contains one forced sort in 10 steps; raw
        // epoch time would charge it at 1/10 and pick unsorted, but the
        // amortized model charges 1/50 and correctly prefers sorting
        let mut t = Tuner::new(vec![arm(None, 0), arm(Some(SortOrder::Standard), 50)], 10);
        t.finish_epoch(&epoch(700, 0, 100));
        t.finish_epoch(&epoch(600, 3000, 100)); // 600 + 3000/50 = 660 < 700
        assert_eq!(t.committed().unwrap().order, Some(SortOrder::Standard));
    }

    #[test]
    fn drift_in_crossing_rate_triggers_reexploration() {
        let mut t = three_arm_tuner();
        for _ in 0..3 {
            t.finish_epoch(&epoch(600, 500, 100));
        }
        assert_eq!(t.phase(), Phase::Committed);
        assert_eq!(t.explorations, 1);
        // same cost, stable crossings: stays committed
        t.finish_epoch(&epoch(600, 500, 100));
        assert_eq!(t.phase(), Phase::Committed);
        // crossing rate jumps 60%: the EWMA damps the first epochs (one
        // noisy epoch must not throw away a converged config) but a
        // sustained shift crosses the drift threshold
        t.finish_epoch(&epoch(600, 500, 160));
        assert_eq!(t.phase(), Phase::Committed, "one shifted epoch is absorbed");
        t.finish_epoch(&epoch(600, 500, 160));
        assert_eq!(t.phase(), Phase::Committed);
        t.finish_epoch(&epoch(600, 500, 160));
        assert_eq!(t.phase(), Phase::Exploring, "sustained drift re-explores");
        assert_eq!(t.explorations, 2);
        assert_eq!(t.current(), &t.arms[0], "re-exploration restarts from the first arm");
    }

    #[test]
    fn refinement_remeasures_contenders_and_keeps_the_min() {
        let mut t = three_arm_tuner().with_refinement(2);
        t.finish_epoch(&epoch(700, 0, 100)); // arm0: 7.0
        t.finish_epoch(&epoch(500, 500, 100)); // arm1 (i5): 5.0 + 1.0 = 6.0
        t.finish_epoch(&epoch(775, 500, 100)); // arm2 (i20): 7.75 + 0.25 = 8.0
        // all arms explored: the top 2 get a second epoch, cheapest first
        assert_eq!(t.phase(), Phase::Refining);
        assert_eq!(t.current(), &t.arms[1]);
        // arm1's re-measure is much slower — its min stays 6.0
        t.finish_epoch(&epoch(900, 500, 100));
        assert_eq!(t.phase(), Phase::Refining);
        assert_eq!(t.current(), &t.arms[0]);
        // arm0's re-measure comes in at 5.5: the sharper estimate wins
        t.finish_epoch(&epoch(550, 0, 100));
        assert_eq!(t.phase(), Phase::Committed);
        assert_eq!(t.committed(), Some(&t.arms[0]));
        let (_, cost) = t.best().unwrap();
        assert!((cost - 5.5).abs() < 1e-12, "{cost}");
    }

    #[test]
    fn committed_cost_regression_triggers_reexploration() {
        let mut t = three_arm_tuner();
        for _ in 0..3 {
            t.finish_epoch(&epoch(600, 500, 100));
        }
        assert_eq!(t.phase(), Phase::Committed);
        // crossings stable but the committed arm got 2× slower
        t.finish_epoch(&epoch(1300, 500, 100));
        assert_eq!(t.phase(), Phase::Exploring);
    }

    #[test]
    fn state_round_trip_preserves_decisions() {
        // freeze a tuner mid-refinement, round-trip its state, and feed
        // both copies the same epochs: every decision must match
        let mut a = three_arm_tuner().with_refinement(2);
        a.finish_epoch(&epoch(700, 0, 100));
        a.finish_epoch(&epoch(500, 500, 100));
        a.finish_epoch(&epoch(775, 500, 100));
        assert_eq!(a.phase(), Phase::Refining);
        let mut b = Tuner::from_state(a.state()).expect("valid state");
        assert_eq!(a.state(), b.state());
        for m in [epoch(900, 500, 100), epoch(550, 0, 100), epoch(560, 0, 100)] {
            assert_eq!(a.finish_epoch(&m), b.finish_epoch(&m));
            assert_eq!(a.phase(), b.phase());
            assert_eq!(a.state(), b.state());
        }
        assert_eq!(a.phase(), Phase::Committed);
    }

    #[test]
    fn inconsistent_state_is_rejected() {
        let good = three_arm_tuner().state();
        let empty = TunerState { arms: Vec::new(), ..good.clone() };
        assert!(Tuner::from_state(empty).is_err());
        let bad_cursor = TunerState { cursor: 3, ..good.clone() };
        assert!(Tuner::from_state(bad_cursor).is_err());
        let bad_lens = TunerState { costs: vec![None; 1], ..good.clone() };
        assert!(Tuner::from_state(bad_lens).is_err());
        let bad_queue = TunerState { refine_queue: vec![9], ..good.clone() };
        assert!(Tuner::from_state(bad_queue).is_err());
        let no_epochs = TunerState { epoch_steps: 0, ..good };
        assert!(Tuner::from_state(no_epochs).is_err());
    }

    #[test]
    fn cache_prior_orders_exploration() {
        let arms = crate::config_space(16, &[5, 20]);
        let fits = Tuner::new(arms.clone(), 10).with_cache_prior(true);
        assert!(fits.current().order.is_none(), "fits-in-LLC prior starts unsorted");
        let n_unsorted = arms.iter().filter(|a| a.order.is_none()).count();
        assert!(fits.arms[..n_unsorted].iter().all(|a| a.order.is_none()));
        let spills = Tuner::new(arms, 10).with_cache_prior(false);
        assert!(spills.current().order.is_some(), "spills-LLC prior starts sorting");
    }
}
