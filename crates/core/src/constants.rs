//! Normalized units and numerical constants.
//!
//! The simulation uses VPIC-style normalized units: lengths in cells,
//! time in units where `c = 1`, charge/mass in units of the electron's.
//! All stability margins live here so decks and tests share them.

/// Ion (proton) mass ratio used by the default decks. A reduced mass
/// ratio (100 instead of 1836) is standard practice for benchmark decks —
/// it shortens the ion timescale so short runs exercise both species.
pub(crate) const ION_MASS_RATIO: f32 = 100.0;

/// Courant safety factor applied below the 3-D CFL limit.
pub(crate) const CFL_SAFETY: f32 = 0.95;

/// 3-D Courant limit for unit cells: `c·dt < 1/√3`.
pub(crate) fn courant_dt(dx: f32, dy: f32, dz: f32) -> f32 {
    let inv = (1.0 / (dx * dx) + 1.0 / (dy * dy) + 1.0 / (dz * dz)).sqrt();
    CFL_SAFETY / inv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn courant_unit_cube() {
        let dt = courant_dt(1.0, 1.0, 1.0);
        assert!(dt < 1.0 / 3f32.sqrt());
        assert!(dt > 0.5 / 3f32.sqrt());
    }

    #[test]
    fn courant_tightens_with_smaller_cells() {
        assert!(courant_dt(0.5, 1.0, 1.0) < courant_dt(1.0, 1.0, 1.0));
    }
}
