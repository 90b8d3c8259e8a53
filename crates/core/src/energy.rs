//! Energy and conservation diagnostics.
//!
//! VPIC emits an energy ledger (field + per-species kinetic) every few
//! steps; decks judge health by its drift. Same here: the snapshot is the
//! contract the integration tests check, and the time series is what the
//! Weibel example plots.

use crate::sim::Simulation;
use serde::Serialize;

/// One energy ledger entry.
#[derive(Debug, Clone, Serialize)]
pub struct EnergySnapshot {
    /// Simulation time.
    pub time: f64,
    /// Electric field energy.
    pub field_e: f64,
    /// Magnetic field energy.
    pub field_b: f64,
    /// Kinetic energy per species, in species order.
    pub kinetic: Vec<f64>,
}

impl EnergySnapshot {
    /// Capture the ledger from a simulation.
    pub(crate) fn capture(sim: &Simulation) -> Self {
        let (field_e, field_b) = sim.fields.energies();
        Self {
            time: sim.time(),
            field_e,
            field_b,
            kinetic: sim.species.iter().map(|s| s.kinetic_energy()).collect(),
        }
    }

    /// Total energy (fields + all species).
    pub fn total(&self) -> f64 {
        self.field_e + self.field_b + self.kinetic.iter().sum::<f64>()
    }
}

/// A recorded energy history.
#[derive(Debug, Default, Clone, Serialize)]
pub struct EnergyHistory {
    /// Snapshots in time order.
    pub entries: Vec<EnergySnapshot>,
}

impl EnergyHistory {
    /// Empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the current state.
    pub fn record(&mut self, sim: &Simulation) {
        self.entries.push(sim.energies());
    }

    /// Relative drift of total energy from the first entry, at entry `i`
    /// (0.0 when the history is empty, `i` is out of range, or the
    /// baseline is zero).
    pub(crate) fn drift(&self, i: usize) -> f64 {
        let e0 = self.entries.first().map(|e| e.total()).unwrap_or(0.0);
        if e0 == 0.0 {
            return 0.0;
        }
        match self.entries.get(i) {
            Some(e) => (e.total() - e0) / e0,
            None => 0.0,
        }
    }

    /// Worst absolute relative drift across the history.
    pub fn max_drift(&self) -> f64 {
        (0..self.entries.len())
            .map(|i| self.drift(i).abs())
            .fold(0.0, f64::max)
    }

    /// Magnetic field energy series (the Weibel growth observable).
    pub fn field_b_series(&self) -> Vec<(f64, f64)> {
        self.entries.iter().map(|e| (e.time, e.field_b)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use crate::species::Species;

    fn small_sim() -> Simulation {
        let grid = Grid::new(4, 4, 4);
        let mut sim = Simulation::new(grid.clone());
        let mut e = Species::new("e", -1.0, 1.0);
        e.load_uniform(&grid, 100, 0.1, (0.0, 0.0, 0.0), 1.0, 5);
        sim.add_species(e);
        sim
    }

    #[test]
    fn snapshot_totals_add_up() {
        let sim = small_sim();
        let snap = sim.energies();
        assert_eq!(snap.kinetic.len(), 1);
        assert!(snap.kinetic[0] > 0.0);
        assert_eq!(snap.field_e, 0.0);
        assert!((snap.total() - snap.kinetic[0]).abs() < 1e-12);
    }

    #[test]
    fn history_tracks_drift() {
        let mut sim = small_sim();
        let mut h = EnergyHistory::new();
        h.record(&sim);
        sim.run(5);
        h.record(&sim);
        assert_eq!(h.entries.len(), 2);
        assert!(h.max_drift() < 0.5);
        assert_eq!(h.drift(0), 0.0);
        assert_eq!(h.field_b_series().len(), 2);
    }

    #[test]
    fn empty_history_is_harmless() {
        let h = EnergyHistory::new();
        assert_eq!(h.max_drift(), 0.0);
        assert!(h.field_b_series().is_empty());
    }
}
