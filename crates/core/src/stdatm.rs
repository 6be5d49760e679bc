//! Standard stratification (the reference atmosphere of the IAP transform).
//!
//! The variable substitution of Eq. 1 subtracts a *standard stratification*
//! — reference profiles `T̃(σ)` and `p̃_s` — so the prognostic variables
//! carry only deviations, which is what makes the transformed system
//! energy-conserving.  We use the International Standard Atmosphere
//! temperature profile (6.5 K/km lapse rate capped by an isothermal
//! stratosphere), sampled at the model's σ levels.

use agcm_mesh::grid::constants as c;
use agcm_mesh::LatLonGrid;

/// Reference (standard-stratification) profiles.
#[derive(Debug, Clone)]
pub struct StandardAtmosphere {
    /// `T̃` at each σ level centre \[K\], length `nz`.
    pub t_tilde: Vec<f64>,
    /// Standard surface pressure `p̃_s` \[Pa\].
    pub ps_tilde: f64,
    /// `p̃_es = p̃_s − p_t`.
    pub pes_tilde: f64,
    /// Surface temperature `T̃_s` \[K\].
    pub ts: f64,
    /// Surface air density of the standard atmosphere
    /// `ρ̃_sa = p̃_s/(R·T̃_s)` \[kg m⁻³\] (Eq. 6).
    pub rho_sa: f64,
}

/// ISA sea-level temperature \[K\].
const T_SEA_LEVEL: f64 = 288.15;
/// ISA tropospheric lapse rate \[K/m\].
const LAPSE_RATE: f64 = 6.5e-3;
/// ISA stratospheric (isothermal) temperature \[K\].
const T_STRATOSPHERE: f64 = 216.65;

/// ISA temperature at pressure `p` \[Pa\].
fn isa_temperature(p: f64) -> f64 {
    // T = T0 (p/p0)^(RΓ/g), floored at the tropopause temperature
    let expo = c::R_DRY * LAPSE_RATE / c::GRAVITY;
    (T_SEA_LEVEL * (p / c::P_REF).max(1e-6).powf(expo)).max(T_STRATOSPHERE)
}

impl StandardAtmosphere {
    /// Sample the standard atmosphere at the σ levels of `grid`.
    pub fn new(grid: &LatLonGrid) -> Self {
        let ps_tilde = c::P_REF;
        let pes_tilde = ps_tilde - c::P_TOP;
        let t_tilde: Vec<f64> = grid
            .sigma()
            .centers()
            .iter()
            .map(|&s| isa_temperature(c::P_TOP + s * pes_tilde))
            .collect();
        let ts = isa_temperature(ps_tilde);
        StandardAtmosphere {
            t_tilde,
            ps_tilde,
            pes_tilde,
            ts,
            rho_sa: ps_tilde / (c::R_DRY * ts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isa_profile_shape() {
        assert!((isa_temperature(c::P_REF) - T_SEA_LEVEL).abs() < 1e-9);
        // monotone decreasing with height until the stratosphere
        assert!(isa_temperature(8.0e4) < isa_temperature(9.0e4));
        // stratospheric floor
        assert_eq!(isa_temperature(5.0e3), T_STRATOSPHERE);
    }

    #[test]
    fn sampled_profile() {
        let grid = LatLonGrid::new(8, 6, 10).unwrap();
        let sa = StandardAtmosphere::new(&grid);
        assert_eq!(sa.t_tilde.len(), 10);
        // colder aloft (k = 0 is the top)
        assert!(sa.t_tilde[0] <= sa.t_tilde[9]);
        assert!(sa.t_tilde[0] >= T_STRATOSPHERE);
        assert!(sa.ts > 280.0 && sa.ts < 295.0);
        // sea-level density ≈ 1.2 kg/m³
        assert!((sa.rho_sa - 1.2).abs() < 0.1);
        assert!((sa.pes_tilde - (c::P_REF - c::P_TOP)).abs() < 1e-9);
    }
}
