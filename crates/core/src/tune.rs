//! The simulation side of the adaptive tuner: epoch bookkeeping around
//! [`crate::Simulation::step_on`].
//!
//! The [`tuner::Tuner`] state machine is pure — it only sees
//! [`tuner::Measurement`]s and returns [`tuner::Config`]s. This driver
//! owns the loop that feeds it: it counts an epoch's steps, pushes,
//! crossings, wall time and sort time — from the clock around the step,
//! never the event stream, so profiling cannot perturb a measurement —
//! and applies the next configuration *between* steps, never inside one.
//! Every applied config is recorded in [`TuneDriver::schedule`] with the
//! step it took effect at — replaying that schedule through
//! [`crate::Simulation::apply_tune_config`] on an identical deck
//! reproduces the tuned run's physics bit-for-bit (property-tested in
//! `tests/adaptive_tuning.rs`).

use crate::push::PushStats;
use crate::sim::Simulation;
use tuner::{Config, Measurement, Tuner, TunerState};

/// One line of the tuned run's configuration history.
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

/// Per-epoch accumulators, reset at every epoch boundary.
#[derive(Debug, Clone, Copy, Default)]
struct EpochAcc {
    steps: u64,
    pushed: u64,
    crossings: u64,
    step_ns: u64,
    sort_ns: u64,
    sorts: u64,
}

/// The serializable state of a [`TuneDriver`]: the engine state plus the
/// driver's epoch accumulators and recorded schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct DriverState {
    /// The pure engine's state.
    pub tuner: TunerState,
    /// Steps folded into the current (incomplete) epoch.
    pub acc_steps: u64,
    /// Particles pushed in the current epoch.
    pub acc_pushed: u64,
    /// Cell crossings in the current epoch.
    pub acc_crossings: u64,
    /// Wall time of the current epoch's steps, ns.
    pub acc_step_ns: u64,
    /// Wall time the current epoch spent sorting, ns.
    pub acc_sort_ns: u64,
    /// Sorts that fired in the current epoch.
    pub acc_sorts: u64,
    /// The recorded `(step, config, workers)` history.
    pub schedule: Vec<ScheduleEntry>,
    /// Completed measurement epochs.
    pub epochs: u64,
    /// Whether the first arm has been applied yet.
    pub started: bool,
}

/// Drives a [`Tuner`] from inside the simulation loop. Arm it with
/// [`crate::Simulation::set_tuner`].
#[derive(Debug)]
pub struct TuneDriver {
    tuner: Tuner,
    acc: EpochAcc,
    schedule: Vec<ScheduleEntry>,
    epochs: u64,
    started: bool,
}

impl TuneDriver {
    /// Wrap a configured tuner.
    pub fn new(tuner: Tuner) -> Self {
        Self {
            tuner,
            acc: EpochAcc::default(),
            schedule: Vec::new(),
            epochs: 0,
            started: false,
        }
    }

    /// The underlying state machine (phase, committed arm, best cost…).
    pub fn tuner(&self) -> &Tuner {
        &self.tuner
    }

    /// Completed measurement epochs.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The config history: which arm governed the run from which step.
    /// Replaying these through [`Simulation::apply_tune_config`] at the
    /// recorded steps reproduces the tuned run exactly.
    pub fn schedule(&self) -> &[ScheduleEntry] {
        &self.schedule
    }

    /// Export the driver's complete serializable state.
    pub fn state(&self) -> DriverState {
        DriverState {
            tuner: self.tuner.state(),
            acc_steps: self.acc.steps,
            acc_pushed: self.acc.pushed,
            acc_crossings: self.acc.crossings,
            acc_step_ns: self.acc.step_ns,
            acc_sort_ns: self.acc.sort_ns,
            acc_sorts: self.acc.sorts,
            schedule: self.schedule.clone(),
            epochs: self.epochs,
            started: self.started,
        }
    }

    /// Rebuild a driver from checkpointed state, resuming the recorded
    /// schedule and the in-flight epoch exactly where they stopped. The
    /// engine state is validated (see [`Tuner::from_state`]).
    pub(crate) fn from_state(s: DriverState) -> Result<Self, String> {
        let tuner = Tuner::from_state(s.tuner)?;
        Ok(Self {
            tuner,
            acc: EpochAcc {
                steps: s.acc_steps,
                pushed: s.acc_pushed,
                crossings: s.acc_crossings,
                step_ns: s.acc_step_ns,
                sort_ns: s.acc_sort_ns,
                sorts: s.acc_sorts,
            },
            schedule: s.schedule,
            epochs: s.epochs,
            started: s.started,
        })
    }

    /// Epoch bookkeeping before a step runs: on the first call, apply the
    /// first candidate; on epoch boundaries, score the finished epoch and
    /// apply whatever the tuner says to run next.
    ///
    /// Public so external steppers (e.g. the multi-rank driver, which
    /// bypasses [`Simulation::step_on`]) can run their own per-rank
    /// tuning loop with the same bookkeeping.
    pub(crate) fn before_step(&mut self, sim: &mut Simulation, workers: usize) {
        if !self.started {
            self.started = true;
            let cfg = *self.tuner.current();
            self.apply(sim, cfg, workers);
            return;
        }
        if self.acc.steps < self.tuner.epoch_steps() as u64 {
            return;
        }
        let m = Measurement {
            steps: self.acc.steps,
            pushed: self.acc.pushed,
            crossings: self.acc.crossings,
            step_ns: self.acc.step_ns,
            sort_ns: self.acc.sort_ns,
            sorts: self.acc.sorts,
        };
        let prev = *self.tuner.current();
        let next = self.tuner.finish_epoch(&m);
        self.epochs += 1;
        if next != prev {
            self.apply(sim, next, workers);
        }
        self.acc = EpochAcc::default();
    }

    /// Fold one step's observations into the current epoch.
    pub(crate) fn after_step(
        &mut self,
        stats: &PushStats,
        step_ns: u64,
        sort_ns: u64,
        sort_fired: bool,
    ) {
        self.acc.steps += 1;
        self.acc.pushed += stats.pushed as u64;
        self.acc.crossings += stats.crossings as u64;
        self.acc.step_ns += step_ns;
        self.acc.sort_ns += sort_ns;
        self.acc.sorts += u64::from(sort_fired);
    }

    fn apply(&mut self, sim: &mut Simulation, cfg: Config, workers: usize) {
        sim.apply_tune_config(&cfg, workers);
        self.schedule.push(ScheduleEntry { step: sim.step_count(), config: cfg, workers });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deck::Deck;
    use pk::atomic::ScatterMode;
    use psort::SortOrder;
    use vsimd::Strategy;

    fn small_arms() -> Vec<Config> {
        vec![
            Config::unsorted(Strategy::Auto, ScatterMode::Atomic),
            Config {
                order: Some(SortOrder::Standard),
                interval: 5,
                strategy: Strategy::Auto,
                scatter: ScatterMode::Atomic,
                tile: None,
            },
            Config {
                order: Some(SortOrder::Strided),
                interval: 5,
                strategy: Strategy::Manual,
                scatter: ScatterMode::Atomic,
                tile: None,
            },
        ]
    }

    #[test]
    fn driver_walks_epochs_and_records_the_schedule() {
        let mut sim = Deck::weibel(6, 6, 6, 4, 0.3).build();
        sim.set_tuner(TuneDriver::new(Tuner::new(small_arms(), 3)));
        // 3 arms × 3-step epochs: 9 steps of exploration, then commit
        sim.run(12);
        let d = sim.take_tuner().expect("driver still armed");
        assert!(d.epochs() >= 3, "3 exploration epochs must have closed: {}", d.epochs());
        assert_eq!(d.tuner().phase(), tuner::Phase::Committed);
        assert!(d.tuner().committed().is_some());
        let sched = d.schedule();
        assert!(!sched.is_empty());
        assert_eq!(sched[0].step, 0, "first arm applies before the first step");
        assert_eq!(sched[0].config, small_arms()[0]);
        // entries are strictly ordered by step and aligned to epochs
        assert!(sched.windows(2).all(|w| w[0].step < w[1].step));
        for e in &sched[1..] {
            assert_eq!(e.step % 3, 0, "configs only swap at epoch boundaries: {e:?}");
        }
        // the sim ends up running the committed arm
        let committed = *d.tuner().committed().unwrap();
        assert_eq!(sim.strategy, committed.strategy);
        assert_eq!(sim.sort_order, committed.order);
    }

    #[test]
    fn saturated_event_shard_does_not_stretch_the_exploration() {
        // past 2^18 events a profiled run's shard evicts its oldest event
        // for each new one and counts the drop; an epoch's numbers come
        // from the clock around the step, so each arm is still scored
        // after one epoch
        let was_enabled = telemetry::enabled();
        telemetry::set_enabled(true);
        for _ in 0..=(1u32 << 18) {
            drop(telemetry::span("tune.test.fill"));
        }
        let mut sim = Deck::weibel(6, 6, 6, 4, 0.3).build();
        sim.set_tuner(TuneDriver::new(Tuner::new(small_arms(), 3)));
        // nine steps of exploration; the tenth step's bookkeeping closes
        // the third epoch and commits
        sim.run(10);
        let dropped = telemetry::snapshot().dropped_events;
        telemetry::set_enabled(was_enabled);
        assert!(dropped > 0, "the test thread's shard must be saturated");
        let d = sim.take_tuner().expect("driver still armed");
        assert_eq!(d.epochs(), 3);
        assert_eq!(d.tuner().phase(), tuner::Phase::Committed);
        let steps: Vec<u64> = d.schedule().iter().map(|e| e.step).collect();
        assert!(steps.starts_with(&[0, 3, 6]), "one epoch per arm: {steps:?}");
    }

    #[test]
    fn driver_state_round_trip_resumes_the_schedule() {
        let mut sim = Deck::weibel(6, 6, 6, 4, 0.3).build();
        sim.set_tuner(TuneDriver::new(Tuner::new(small_arms(), 3)));
        sim.run(5); // mid-epoch: one arm scored, the next one in flight
        let d = sim.take_tuner().unwrap();
        let resumed = TuneDriver::from_state(d.state()).expect("valid state");
        assert_eq!(resumed.state(), d.state());
        assert_eq!(resumed.schedule(), d.schedule());
        assert_eq!(resumed.epochs(), d.epochs());
        // the restored driver keeps driving: re-arm and finish the run
        sim.set_tuner(resumed);
        sim.run(7);
        let d = sim.take_tuner().unwrap();
        assert_eq!(d.tuner().phase(), tuner::Phase::Committed);
        // the schedule stays one continuous, strictly ordered history
        assert!(d.schedule().windows(2).all(|w| w[0].step < w[1].step));
    }

    #[test]
    fn unarmed_simulation_is_unaffected() {
        let mut a = Deck::weibel(6, 6, 6, 4, 0.3).build();
        let mut b = Deck::weibel(6, 6, 6, 4, 0.3).build();
        a.run(5);
        b.run(5);
        assert!(a.tuner().is_none());
        for (sa, sb) in a.species.iter().zip(&b.species) {
            assert_eq!(sa.cell, sb.cell);
            assert_eq!(sa.ux, sb.ux);
        }
    }
}
