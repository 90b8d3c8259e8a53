//! Per-step particle-migration bookkeeping.
//!
//! [`MigrationStats`] is what [`crate::MultiRankSim::step`] returns for
//! the particles that changed owning rank: the migration counts — the
//! quantity the strong-scaling network model needs — are *measured* from
//! the executed particle motion instead of assumed.

use serde::Serialize;

/// Per-step migration bookkeeping.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct MigrationStats {
    /// Particles that changed owning rank this step.
    pub migrants: usize,
    /// Total particles (for fraction computations).
    pub total: usize,
    /// Largest number of migrants leaving any single rank.
    pub max_out_of_rank: usize,
}

impl MigrationStats {
    /// Fraction of particles that migrated.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.migrants as f64 / self.total as f64
        }
    }
}
