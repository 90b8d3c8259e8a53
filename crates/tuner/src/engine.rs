//! The explore → commit → drift state machine, the epoch bookkeeping
//! around it, and its checkpoint encoding.

use crate::config::Config;
use crate::measure::Measurement;
use ckpt::{RestoreError, SectionBuf, SectionReader};

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

/// One line of a tuned run's configuration history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// Step count at which the config was applied (it governs this step
    /// and onward, until the next entry).
    pub step: u64,
    /// The configuration applied.
    pub config: Config,
    /// Worker count the scatter accumulator was sized for.
    pub workers: usize,
}

/// The epoch-based auto-tuner. A stepper asks [`Tuner::before_step`] for
/// the arm to apply and reports each step to [`Tuner::after_step`]; every
/// `epoch_steps` observed steps the closed epoch is scored and the next
/// arm chosen. The struct is pure
/// state — it never reads a clock — so its decisions are a deterministic
/// function of what it is fed, and a copy read back from
/// [`Tuner::put`]'s bytes continues exactly where the original stopped.
#[derive(Debug, Clone, PartialEq)]
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
    /// What the steps of the epoch in flight observed.
    epoch: Measurement,
    /// Every arm applied, with the step it took effect at.
    schedule: Vec<ScheduleEntry>,
    /// Closed measurement epochs.
    epochs: u64,
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
            epoch: Measurement::default(),
            schedule: Vec::new(),
            epochs: 0,
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
    /// heuristic, `memsim::push::grid_fits_llc`): when the
    /// grid's push working set fits the LLC, the unsorted arms are
    /// explored first; otherwise the sorting arms are. Ordering is what
    /// the prior controls — under a short exploration budget the tuner
    /// commits to the best arm *measured so far*, so the prior's arms get
    /// first claim on the budget. The reorder is stable within each group.
    pub fn with_cache_prior(mut self, grid_fits_llc: bool) -> Self {
        // `false` sorts first: the arms whose sorting matches the prior
        self.arms.sort_by_key(|a| a.order.is_none() != grid_fits_llc);
        self
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
        self.cheapest().map(|(i, c)| (&self.arms[i], c))
    }

    /// `(arm index, cost)` of every arm measured this round.
    fn measured(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.costs.iter().enumerate().filter_map(|(i, c)| c.map(|c| (i, c)))
    }

    fn cheapest(&self) -> Option<(usize, f64)> {
        self.measured().min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// The config history: which arm governed the run from which step.
    /// Replaying these through the simulation's `apply_tune_config` at
    /// the recorded steps reproduces the tuned run exactly.
    pub fn schedule(&self) -> &[ScheduleEntry] {
        &self.schedule
    }

    /// Closed measurement epochs.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Epoch bookkeeping before step `step` runs on `workers` workers:
    /// the arm to apply before it, if one is due — the first arm on the
    /// first call, and after every `epoch_steps` observed steps the arm
    /// the closed epoch's score selects, when that is not the one already
    /// running. Every arm returned is recorded in [`Tuner::schedule`].
    pub fn before_step(&mut self, step: u64, workers: usize) -> Option<Config> {
        let next = if self.schedule.is_empty() {
            *self.current()
        } else if self.epoch.steps < self.epoch_steps as u64 {
            return None;
        } else {
            let prev = *self.current();
            let closed = std::mem::take(&mut self.epoch);
            let next = self.finish_epoch(&closed);
            self.epochs += 1;
            if next == prev {
                return None;
            }
            next
        };
        self.schedule.push(ScheduleEntry { step, config: next, workers });
        Some(next)
    }

    /// Fold one step's observations into the epoch in flight.
    pub fn after_step(&mut self, step: &Measurement) {
        let e = &mut self.epoch;
        e.steps += step.steps;
        e.pushed += step.pushed;
        e.crossings += step.crossings;
        e.step_ns += step.step_ns;
        e.sort_ns += step.sort_ns;
        e.sorts += step.sorts;
    }

    /// Ingest the epoch that just ran under [`Tuner::current`] and return
    /// the configuration for the next epoch.
    fn finish_epoch(&mut self, m: &Measurement) -> Config {
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
        let mut ranked: Vec<_> = self.measured().filter(|(_, c)| c.is_finite()).collect();
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
        let best = self.cheapest().map_or(0, |(i, _)| i);
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
    }

    /// Encode every field: the engine state, the epoch in flight, the
    /// schedule and the epoch count.
    pub fn put(&self, b: &mut SectionBuf) {
        put_list(b, &self.arms, |b, arm| arm.put(b));
        b.put_usize(self.epoch_steps);
        b.put_u8(match self.phase {
            Phase::Exploring => 0,
            Phase::Refining => 1,
            Phase::Committed => 2,
        });
        b.put_usize(self.cursor);
        put_list(b, &self.costs, |b, cost| {
            b.put_bool(cost.is_some());
            if let Some(c) = cost {
                b.put_f64(*c);
            }
        });
        b.put_f64s(&self.rates);
        for v in [self.committed_cost, self.baseline_rate, self.rate_ewma] {
            b.put_f64(v);
        }
        b.put_usize(self.refine_top);
        put_list(b, &self.refine_queue, |b, &i| b.put_usize(i));
        let e = &self.epoch;
        for v in [e.steps, e.pushed, e.crossings, e.step_ns, e.sort_ns, e.sorts] {
            b.put_u64(v);
        }
        put_list(b, &self.schedule, |b, s| {
            b.put_u64(s.step);
            s.config.put(b);
            b.put_usize(s.workers);
        });
        b.put_u64(self.epochs);
    }

    /// Decode what [`Tuner::put`] wrote. A tuner that would index out of
    /// bounds on its next epoch — no arms, zero-step epochs, a cursor or
    /// refine-queue entry past the arms, per-arm vectors of another
    /// length, or refining with nothing queued — is
    /// [`RestoreError::SchemaDrift`], as is an unknown tag.
    pub fn get(r: &mut SectionReader<'_>) -> Result<Self, RestoreError> {
        let drift = |what: String| RestoreError::SchemaDrift(format!("tuner: {what}"));
        let t = Self {
            arms: get_list(r, Config::get)?,
            epoch_steps: r.get_usize()?,
            phase: match r.get_u8()? {
                0 => Phase::Exploring,
                1 => Phase::Refining,
                2 => Phase::Committed,
                t => return Err(drift(format!("unknown phase tag {t}"))),
            },
            cursor: r.get_usize()?,
            costs: get_list(r, |r| Ok(if r.get_bool()? { Some(r.get_f64()?) } else { None }))?,
            rates: r.get_f64s()?,
            committed_cost: r.get_f64()?,
            baseline_rate: r.get_f64()?,
            rate_ewma: r.get_f64()?,
            refine_top: r.get_usize()?,
            refine_queue: get_list(r, |r| r.get_usize())?,
            epoch: Measurement {
                steps: r.get_u64()?,
                pushed: r.get_u64()?,
                crossings: r.get_u64()?,
                step_ns: r.get_u64()?,
                sort_ns: r.get_u64()?,
                sorts: r.get_u64()?,
            },
            schedule: get_list(r, |r| {
                let (step, config) = (r.get_u64()?, Config::get(r)?);
                Ok(ScheduleEntry { step, config, workers: r.get_usize()? })
            })?,
            epochs: r.get_u64()?,
        };

        let n = t.arms.len();
        if n == 0 {
            return Err(drift("no arms".into()));
        }
        if t.epoch_steps == 0 {
            return Err(drift("zero-step epochs".into()));
        }
        if t.cursor >= n {
            return Err(drift(format!("cursor {} out of range for {n} arms", t.cursor)));
        }
        if t.costs.len() != n || t.rates.len() != n {
            let (c, k) = (t.costs.len(), t.rates.len());
            return Err(drift(format!("per-arm vectors sized {c}/{k} for {n} arms")));
        }
        if let Some(&bad) = t.refine_queue.iter().find(|&&i| i >= n) {
            return Err(drift(format!("refine queue entry {bad} out of range for {n} arms")));
        }
        if t.phase == Phase::Refining && t.refine_queue.is_empty() {
            return Err(drift("refining with an empty refine queue".into()));
        }
        Ok(t)
    }
}

/// A count, then each item encoded by `put`.
fn put_list<T>(b: &mut SectionBuf, items: &[T], put: impl Fn(&mut SectionBuf, &T)) {
    b.put_usize(items.len());
    for item in items {
        put(b, item);
    }
}

/// Decode what [`put_list`] wrote, each item by `get`.
fn get_list<T>(
    r: &mut SectionReader<'_>,
    get: impl Fn(&mut SectionReader<'_>) -> Result<T, RestoreError>,
) -> Result<Vec<T>, RestoreError> {
    let n = r.get_usize()?;
    (0..n).map(|_| get(r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tests::reread;
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

    /// One step of 100 particles taking `ns`.
    fn one_step(ns: u64) -> Measurement {
        Measurement { steps: 1, pushed: 100, crossings: 10, step_ns: ns, ..Default::default() }
    }

    #[test]
    fn bookkeeping_applies_the_first_arm_then_one_per_closed_epoch() {
        let mut t = Tuner::new(three_arm_tuner().arms, 2);
        let mut applied = Vec::new();
        // arm costs 1900, 1500 and 1100 ns per two-step epoch: the last
        // explored arm wins, so committing to it applies nothing new
        for step in 0..7u64 {
            if let Some(cfg) = t.before_step(step, 4) {
                applied.push(ScheduleEntry { step, config: cfg, workers: 4 });
            }
            t.after_step(&one_step(1000 - 100 * step));
        }
        let arms = three_arm_tuner().arms;
        let expected: Vec<ScheduleEntry> = [0, 2, 4]
            .into_iter()
            .zip(arms)
            .map(|(step, config)| ScheduleEntry { step, config, workers: 4 })
            .collect();
        assert_eq!(applied, expected);
        assert_eq!(t.schedule(), expected);
        assert_eq!(t.epochs(), 3);
        assert_eq!(t.committed(), Some(&expected[2].config));
    }

    /// `t` written by [`Tuner::put`] and read back by [`Tuner::get`].
    fn round_trip(t: &Tuner) -> Result<Tuner, RestoreError> {
        reread(|b| t.put(b), Tuner::get)
    }

    #[test]
    fn encoding_round_trip_preserves_decisions() {
        // freeze a tuner mid-refinement with a step in flight, round-trip
        // it, and feed both copies the same epochs: every decision matches
        let mut a = three_arm_tuner().with_refinement(2);
        a.before_step(0, 1);
        a.finish_epoch(&epoch(700, 0, 100));
        a.finish_epoch(&epoch(500, 500, 100));
        a.finish_epoch(&epoch(775, 500, 100));
        a.after_step(&one_step(123));
        assert_eq!(a.phase(), Phase::Refining);
        let mut b = round_trip(&a).expect("valid tuner");
        assert_eq!(a, b);
        for m in [epoch(900, 500, 100), epoch(550, 0, 100), epoch(560, 0, 100)] {
            assert_eq!(a.finish_epoch(&m), b.finish_epoch(&m));
            assert_eq!(a, b);
        }
        assert_eq!(a.phase(), Phase::Committed);
    }

    #[test]
    fn each_inconsistency_is_named_schema_drift() {
        let good = three_arm_tuner();
        assert_eq!(round_trip(&good).unwrap(), good);
        let cases = [
            (Tuner { arms: Vec::new(), ..good.clone() }, "no arms"),
            (Tuner { epoch_steps: 0, ..good.clone() }, "zero-step epochs"),
            (Tuner { cursor: 3, ..good.clone() }, "cursor 3 out of range for 3 arms"),
            (Tuner { costs: vec![None; 1], ..good.clone() }, "per-arm vectors sized 1/3"),
            (Tuner { rates: vec![0.0; 4], ..good.clone() }, "per-arm vectors sized 3/4"),
            (Tuner { refine_queue: vec![9], ..good.clone() }, "refine queue entry 9"),
            (Tuner { phase: Phase::Refining, ..good.clone() }, "empty refine queue"),
        ];
        for (bad, what) in cases {
            match round_trip(&bad) {
                Err(RestoreError::SchemaDrift(msg)) => assert!(msg.contains(what), "{msg}"),
                other => panic!("{what}: expected drift, got {other:?}"),
            }
        }
    }

    #[test]
    fn cache_prior_orders_exploration() {
        let arms = crate::config_space(&arm(None, 0), 16, &[5, 20]);
        let fits = Tuner::new(arms.clone(), 10).with_cache_prior(true);
        assert!(fits.current().order.is_none(), "fits-in-LLC prior starts unsorted");
        let n_unsorted = arms.iter().filter(|a| a.order.is_none()).count();
        assert!(fits.arms[..n_unsorted].iter().all(|a| a.order.is_none()));
        let spills = Tuner::new(arms, 10).with_cache_prior(false);
        assert!(spills.current().order.is_some(), "spills-LLC prior starts sorting");
    }
}
