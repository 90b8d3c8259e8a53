//! Benchmark decks: reproducible simulation setups.
//!
//! VPIC runs are configured by "decks"; the paper's evaluation uses a
//! laser–plasma instability (LPI) deck throughout. Three decks are
//! provided, covering the scenarios the repro harness and examples need:
//!
//! * [`Deck::uniform`] — a quiet neutral thermal plasma (correctness /
//!   baseline deck);
//! * [`Deck::weibel`] — counter-streaming electron beams whose anisotropy
//!   drives magnetic field growth (the classic Weibel instability);
//! * [`Deck::lpi`] — a laser antenna driving a plasma slab, the
//!   reproduction's stand-in for the paper's LPI benchmark.

use crate::constants::ION_MASS_RATIO;
use crate::grid::Grid;
use crate::sim::{LaserDriver, Simulation};
use crate::species::Species;
use serde::Serialize;

/// A reproducible simulation configuration.
#[derive(Debug, Clone, Serialize)]
pub struct Deck {
    /// Deck name (appears in harness output).
    pub name: String,
    /// Grid extent in cells.
    pub shape: (usize, usize, usize),
    /// Electron macro-particles per cell.
    pub ppc: usize,
    /// Electron thermal momentum spread.
    pub vth: f32,
    /// Electron drift (two beams get ±drift).
    pub drift: (f32, f32, f32),
    /// Whether to add a mobile ion background (colocated, neutralizing).
    pub ions: bool,
    /// Two counter-streaming electron beams instead of one population.
    pub counter_streaming: bool,
    /// Laser antenna configuration.
    pub laser: Option<(usize, f32, f32)>, // (plane, amplitude, omega)
    /// Target plasma frequency in normalized units. Macro-particle
    /// weights are scaled so `ω_p² = weight × ppc`; keeping
    /// `ω_p·dt ≲ 0.3` resolves the plasma oscillation (the PIC stability
    /// condition `ω_p·dt < 2` with margin).
    pub omega_p: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Deck {
    /// A quiet, neutral, thermal plasma.
    pub fn uniform(nx: usize, ny: usize, nz: usize, ppc: usize) -> Self {
        Self {
            name: "uniform-thermal".into(),
            shape: (nx, ny, nz),
            ppc,
            vth: 0.05,
            drift: (0.0, 0.0, 0.0),
            ions: true,
            counter_streaming: false,
            laser: None,
            omega_p: 0.3,
            seed: 20250707,
        }
    }

    /// Counter-streaming beams along ±z → Weibel filamentation.
    pub fn weibel(nx: usize, ny: usize, nz: usize, ppc: usize, u_beam: f32) -> Self {
        Self {
            name: "weibel".into(),
            shape: (nx, ny, nz),
            ppc,
            vth: 0.01,
            drift: (0.0, 0.0, u_beam),
            ions: true,
            counter_streaming: true,
            laser: None,
            omega_p: 0.4,
            seed: 8,
        }
    }

    /// Laser–plasma interaction: antenna at `x = 0` driving a thermal
    /// slab (the paper's benchmark analog).
    pub fn lpi(nx: usize, ny: usize, nz: usize, ppc: usize) -> Self {
        Self {
            name: "lpi".into(),
            shape: (nx, ny, nz),
            ppc,
            vth: 0.02,
            drift: (0.0, 0.0, 0.0),
            ions: true,
            counter_streaming: false,
            // λ = 8 cells → ω = 2π/8; amplitude in the mildly
            // relativistic regime the paper's LPI deck probes
            laser: Some((0, 0.2, std::f32::consts::TAU / 8.0)),
            omega_p: 0.3,
            seed: 42,
        }
    }

    /// Total electron macro-particles this deck loads.
    pub(crate) fn electron_count(&self) -> usize {
        self.shape.0 * self.shape.1 * self.shape.2 * self.ppc
    }

    /// Build the simulation: load species, set drivers.
    pub fn build(&self) -> Simulation {
        let grid = Grid::new(self.shape.0, self.shape.1, self.shape.2);
        let mut sim = Simulation::new(grid.clone());
        let n = self.electron_count();
        // weight so that total electron density gives the target ω_p
        let w = self.omega_p * self.omega_p / self.ppc as f32;
        if self.counter_streaming {
            let half = n / 2;
            let mut up = Species::new("electron+", -1.0, 1.0);
            up.load_uniform(&grid, half, self.vth, self.drift, w, self.seed);
            let mut down = Species::new("electron-", -1.0, 1.0);
            let neg = (-self.drift.0, -self.drift.1, -self.drift.2);
            down.load_uniform(&grid, n - half, self.vth, neg, w, self.seed ^ 0xBEEF);
            if self.ions {
                sim.add_species(neutralizer(&[&up, &down]));
            }
            sim.add_species(up);
            sim.add_species(down);
        } else {
            let mut e = Species::new("electron", -1.0, 1.0);
            e.load_uniform(&grid, n, self.vth, self.drift, w, self.seed);
            if self.ions {
                sim.add_species(neutralizer(&[&e]));
            }
            sim.add_species(e);
        }
        if let Some((plane, amplitude, omega)) = self.laser {
            sim.laser = Some(LaserDriver { plane, amplitude, omega });
        }
        sim
    }
}

/// A cold ion species exactly colocated with the given electrons so the
/// initial state is charge-neutral node by node.
fn neutralizer(electrons: &[&Species]) -> Species {
    let mut ion = Species::new("ion", 1.0, ION_MASS_RATIO);
    for e in electrons {
        for p in 0..e.len() {
            ion.push_particle(
                e.dx[p], e.dy[p], e.dz[p], e.cell[p], 0.0, 0.0, 0.0, e.w[p],
            );
        }
    }
    ion
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_deck_is_neutral_and_quiet() {
        let sim = Deck::uniform(4, 4, 4, 8).build();
        assert_eq!(sim.species.len(), 2);
        let total_q: f64 = sim.species.iter().map(|s| s.charge()).sum();
        assert!(total_q.abs() < 1e-9, "net charge {total_q}");
        assert!(sim.gauss_residual() < 1e-5);
        assert_eq!(sim.particle_count(), 2 * 4 * 4 * 4 * 8);
    }

    #[test]
    fn weibel_deck_has_two_opposed_beams() {
        let sim = Deck::weibel(4, 4, 8, 8, 0.3).build();
        assert_eq!(sim.species.len(), 3);
        let up = &sim.species[1];
        let down = &sim.species[2];
        let mean = |s: &Species| s.uz.iter().map(|&u| u as f64).sum::<f64>() / s.len() as f64;
        assert!(mean(up) > 0.25);
        assert!(mean(down) < -0.25);
        // net current ≈ 0
        let (_, _, pz_up) = up.momentum();
        let (_, _, pz_down) = down.momentum();
        assert!((pz_up + pz_down).abs() / pz_up.abs() < 0.1);
    }

    #[test]
    fn weibel_grows_magnetic_field() {
        let mut sim = Deck::weibel(8, 8, 8, 16, 0.4).build();
        let (_, b0) = sim.fields.energies();
        assert_eq!(b0, 0.0);
        sim.run(60);
        let (_, b1) = sim.fields.energies();
        assert!(b1 > 1e-8, "Weibel filamentation must grow B: {b1}");
        // and the energy comes from the beams: kinetic energy drops
        let snap = sim.energies();
        assert!(snap.field_b > 0.0);
    }

    #[test]
    fn lpi_deck_drives_laser_into_plasma() {
        let mut sim = Deck::lpi(24, 4, 4, 4).build();
        assert!(sim.laser.is_some());
        let ke0: f64 = sim.energies().kinetic.iter().sum();
        sim.run(60);
        let snap = sim.energies();
        let ke1: f64 = snap.kinetic.iter().sum();
        assert!(snap.field_e + snap.field_b > 0.0, "laser field present");
        assert!(ke1 > ke0, "plasma heated by the laser: {ke0} → {ke1}");
    }

    #[test]
    fn decks_are_reproducible() {
        let a = Deck::lpi(8, 4, 4, 4).build();
        let b = Deck::lpi(8, 4, 4, 4).build();
        assert_eq!(a.species[1].cell, b.species[1].cell);
        assert_eq!(a.species[1].ux, b.species[1].ux);
    }

    #[test]
    fn electron_count_formula() {
        let d = Deck::uniform(4, 5, 6, 7);
        assert_eq!(d.electron_count(), 4 * 5 * 6 * 7);
    }
}
