//! Epoch measurements and the amortized cost model.

/// What a stepper observed running a single [`crate::Config`]: over one
/// step, or summed over an epoch of them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Measurement {
    /// Steps in the epoch.
    pub steps: u64,
    /// Particles pushed across the epoch (steps × population).
    pub pushed: u64,
    /// Cell crossings across the epoch (the drift signal: sorting decays
    /// as particles mix, and the crossing rate tracks that mixing).
    pub crossings: u64,
    /// Total wall time of the epoch's steps, ns (includes sorting).
    pub step_ns: u64,
    /// Of `step_ns`, time spent sorting particles.
    pub sort_ns: u64,
    /// Sort events that fired during the epoch.
    pub sorts: u64,
}

impl Measurement {
    /// The tuner's objective: nanoseconds per particle push, with the
    /// sort's cost charged at its *amortized* per-step share.
    ///
    /// A sort every `interval` steps costs `mean_sort / interval` per
    /// step no matter how many sorts happened to land inside this
    /// particular epoch (an epoch shorter than the interval still sees
    /// the forced epoch-boundary sort, which would otherwise overcharge
    /// long intervals). Unmeasurable epochs score `+∞` so they can never
    /// win.
    pub fn cost_per_particle(&self, interval: usize) -> f64 {
        if self.steps == 0 || self.pushed == 0 {
            return f64::INFINITY;
        }
        let base_ns = self.step_ns.saturating_sub(self.sort_ns) as f64 / self.steps as f64;
        let sort_share = if self.sorts > 0 && interval > 0 {
            (self.sort_ns as f64 / self.sorts as f64) / interval as f64
        } else {
            0.0
        };
        (base_ns + sort_share) / (self.pushed as f64 / self.steps as f64)
    }

    /// Cell crossings per particle push (0 for an empty epoch).
    pub(crate) fn crossing_rate(&self) -> f64 {
        if self.pushed == 0 {
            0.0
        } else {
            self.crossings as f64 / self.pushed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_amortizes_sort_over_interval() {
        // 10 steps × 100 particles, 5000 ns of push + one 1000 ns sort
        let m = Measurement {
            steps: 10,
            pushed: 1000,
            crossings: 50,
            step_ns: 6000,
            sort_ns: 1000,
            sorts: 1,
        };
        // base 500 ns/step; sort charged 1000/50 = 20 ns/step at i=50,
        // even though the epoch only saw the one forced sort
        let c = m.cost_per_particle(50);
        assert!((c - (500.0 + 20.0) / 100.0).abs() < 1e-12, "{c}");
        // at i=5 the same sort costs 200 ns/step
        let c5 = m.cost_per_particle(5);
        assert!((c5 - (500.0 + 200.0) / 100.0).abs() < 1e-12, "{c5}");
        assert!((m.crossing_rate() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn unsorted_epochs_charge_no_sort_share() {
        let m = Measurement { steps: 4, pushed: 400, step_ns: 2000, ..Default::default() };
        assert!((m.cost_per_particle(0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_epochs_cost_infinity() {
        assert!(Measurement::default().cost_per_particle(20).is_infinite());
        let no_particles = Measurement { steps: 3, ..Default::default() };
        assert!(no_particles.cost_per_particle(20).is_infinite());
        assert_eq!(no_particles.crossing_rate(), 0.0);
    }
}
