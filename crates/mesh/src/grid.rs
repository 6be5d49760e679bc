//! Global latitude–longitude mesh geometry.
//!
//! The dynamical core discretizes the sphere with a regular
//! latitude–longitude mesh (the paper's §2.2): `nx` points around each
//! latitude circle, `ny` latitude rows between the poles and `nz`
//! terrain-following σ levels, with Arakawa C staggering in the horizontal.
//!
//! Conventions (matching the paper's index notation):
//!
//! * `x` = longitude, index `i ∈ [0, nx)`, periodic, `λ_i = i·Δλ`,
//!   `Δλ = 2π/nx`.  `U` lives at `λ_{i-1/2}`.
//! * `y` = latitude expressed as **colatitude** `θ` (0 at the north pole, π
//!   at the south pole — the equations use `sin θ` which is positive in the
//!   interior).  Scalar rows sit at `θ_j = (j + 1/2)·Δθ` with `Δθ = π/ny`,
//!   so no scalar row sits exactly on a pole and `sin θ_j > 0` everywhere.
//!   `V` lives at `θ_{j+1/2} = (j+1)·Δθ`.
//! * `z` = σ level, index `k ∈ [0, nz)`, cell centres `σ_k = (k + 1/2)·Δσ`,
//!   interfaces `σ_{k±1/2}`, uniform `Δσ = 1/nz`.
//!
//! All trigonometric tables are precomputed once per grid; the inner loops
//! of the operators only ever index into slices.

use crate::error::MeshError;

/// Physical and model constants of the dynamical core (§2.1 of the paper).
pub mod constants {
    /// Earth radius `a` \[m\].
    pub const EARTH_RADIUS: f64 = 6.371e6;
    /// Angular velocity of the earth rotation `Ω` \[s⁻¹\].
    pub const EARTH_OMEGA: f64 = 7.292e-5;
    /// Gas constant for dry air `R` \[J kg⁻¹ K⁻¹\].
    pub const R_DRY: f64 = 287.04;
    /// Specific heat of dry air at constant pressure `c_p` \[J kg⁻¹ K⁻¹\].
    const CP_DRY: f64 = 1004.64;
    /// `κ = R/c_p`.
    pub const KAPPA: f64 = R_DRY / CP_DRY;
    /// Characteristic velocity of gravity wave propagation `b` \[m s⁻¹\]
    /// (Eq. 1 of the paper).
    pub const B_GRAVITY_WAVE: f64 = 87.8;
    /// Pressure at the model top layer `p_t` \[Pa\] (2.2 hPa).
    pub const P_TOP: f64 = 220.0;
    /// Reference pressure `p_0` \[Pa\] (1000 hPa).
    pub const P_REF: f64 = 100_000.0;
    /// Dissipation coefficient `k_sa` of the surface-pressure diffusion
    /// term `D_sa` (Eq. 6).
    pub const K_SA: f64 = 0.1;
    /// Gravitational acceleration \[m s⁻²\] (used by the Held–Suarez setup).
    pub const GRAVITY: f64 = 9.80616;
}

/// Vertical σ coordinate levels.
///
/// `σ = (p - p_t)/p_es` runs from 0 at the model top to 1 at the surface.
/// Cell centres carry the prognostic variables; interfaces carry the vertical
/// velocity `σ̇` used by the vertical convection term `L₃`.
#[derive(Debug, Clone, PartialEq)]
pub struct SigmaLevels {
    /// Interface values `σ_{k-1/2}`, length `nz + 1`, `σ_{-1/2} = 0`,
    /// `σ_{nz-1/2} = 1`, strictly increasing.
    interfaces: Vec<f64>,
    /// Centre values `σ_k`, length `nz`.
    centers: Vec<f64>,
    /// Layer thicknesses `Δσ_k`, length `nz`.
    thickness: Vec<f64>,
}

impl SigmaLevels {
    /// Uniform levels: `Δσ_k = 1/nz` (`nz ≥ 1`).
    pub fn uniform(nz: usize) -> Result<Self, MeshError> {
        Self::from_interfaces((0..=nz).map(|k| k as f64 / nz as f64).collect())
    }

    /// Build from explicit interface values.  Must start at 0, end at 1 and
    /// be strictly increasing.
    fn from_interfaces(interfaces: Vec<f64>) -> Result<Self, MeshError> {
        if interfaces.len() < 2 {
            return Err(MeshError::InvalidSigma("need at least 2 interfaces".into()));
        }
        if (interfaces[0]).abs() > 1e-14 {
            return Err(MeshError::InvalidSigma("first interface must be 0".into()));
        }
        if (interfaces[interfaces.len() - 1] - 1.0).abs() > 1e-14 {
            return Err(MeshError::InvalidSigma("last interface must be 1".into()));
        }
        for w in interfaces.windows(2) {
            if w[1] <= w[0] {
                return Err(MeshError::InvalidSigma(
                    "interfaces must be strictly increasing".into(),
                ));
            }
        }
        let nz = interfaces.len() - 1;
        let centers: Vec<f64> = (0..nz)
            .map(|k| 0.5 * (interfaces[k] + interfaces[k + 1]))
            .collect();
        let thickness: Vec<f64> = (0..nz).map(|k| interfaces[k + 1] - interfaces[k]).collect();
        Ok(SigmaLevels {
            interfaces,
            centers,
            thickness,
        })
    }

    /// Number of levels `nz`.
    pub fn nz(&self) -> usize {
        self.centers.len()
    }

    /// Interface values `σ_{k-1/2}`, length `nz + 1`.
    pub fn interfaces(&self) -> &[f64] {
        &self.interfaces
    }

    /// Centre values `σ_k`, length `nz`.
    pub fn centers(&self) -> &[f64] {
        &self.centers
    }

    /// Thicknesses `Δσ_k`, length `nz`.
    pub fn thickness(&self) -> &[f64] {
        &self.thickness
    }
}

/// Global latitude–longitude mesh with Arakawa C staggering.
///
/// Construction precomputes every geometric table the operators need; the
/// struct is immutable afterwards and cheap to share (`Arc<LatLonGrid>` in
/// multi-rank runs).
#[derive(Debug, Clone)]
pub struct LatLonGrid {
    nx: usize,
    ny: usize,
    sigma: SigmaLevels,
    /// Longitude spacing `Δλ`.
    dlambda: f64,
    /// Colatitude spacing `Δθ`.
    dtheta: f64,
    /// Colatitude of scalar rows `θ_j = (j+1/2)Δθ`, length `ny`.
    theta_c: Vec<f64>,
    /// `sin θ_j` at scalar rows.
    sin_c: Vec<f64>,
    /// `cos θ_j` at scalar rows.
    cos_c: Vec<f64>,
    /// `sin θ_{j+1/2}` at V rows.
    sin_v: Vec<f64>,
    /// `cos θ_{j+1/2}` at V rows.
    cos_v: Vec<f64>,
}

impl LatLonGrid {
    /// Create a grid with `nx × ny` horizontal points and uniform σ levels.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Result<Self, MeshError> {
        if nx < 4 || ny < 4 || nz < 1 {
            return Err(MeshError::InvalidGrid { nx, ny, nz });
        }
        let sigma = SigmaLevels::uniform(nz)?;
        let dlambda = 2.0 * std::f64::consts::PI / nx as f64;
        let dtheta = std::f64::consts::PI / ny as f64;
        let theta_c: Vec<f64> = (0..ny).map(|j| (j as f64 + 0.5) * dtheta).collect();
        // V rows sit at `θ_{j+1/2} = (j+1)Δθ`; the last one is on the south
        // pole and is treated as a boundary
        let theta_v: Vec<f64> = (0..ny).map(|j| (j as f64 + 1.0) * dtheta).collect();
        let sin_c = theta_c.iter().map(|t| t.sin()).collect();
        let cos_c = theta_c.iter().map(|t| t.cos()).collect();
        let sin_v = theta_v.iter().map(|t| t.sin()).collect();
        let cos_v = theta_v.iter().map(|t| t.cos()).collect();
        Ok(LatLonGrid {
            nx,
            ny,
            sigma,
            dlambda,
            dtheta,
            theta_c,
            sin_c,
            cos_c,
            sin_v,
            cos_v,
        })
    }

    /// The 50 km-resolution mesh of the paper's evaluation:
    /// `n_x × n_y × n_z = 720 × 360 × 30`.
    pub fn paper_50km() -> Result<Self, MeshError> {
        Self::new(720, 360, 30)
    }

    /// Number of longitude points.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of latitude rows.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Number of vertical levels.
    pub fn nz(&self) -> usize {
        self.sigma.nz()
    }

    /// Total number of mesh points `n = nx·ny·nz`.
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz()
    }

    /// Grids are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// σ levels.
    pub fn sigma(&self) -> &SigmaLevels {
        &self.sigma
    }

    /// Longitude spacing `Δλ` \[rad\].
    pub fn dlambda(&self) -> f64 {
        self.dlambda
    }

    /// Colatitude spacing `Δθ` \[rad\].
    pub fn dtheta(&self) -> f64 {
        self.dtheta
    }

    /// `sin θ` at scalar rows (length `ny`).
    pub fn sin_center(&self) -> &[f64] {
        &self.sin_c
    }

    /// `cos θ` at scalar rows (length `ny`).
    pub fn cos_center(&self) -> &[f64] {
        &self.cos_c
    }

    /// `sin θ` at V rows (length `ny`; entry `ny-1` is the south pole and is
    /// ~0 — V is pinned to zero there by the boundary conditions).
    pub fn sin_vface(&self) -> &[f64] {
        &self.sin_v
    }

    /// `cos θ` at V rows (length `ny`).
    pub fn cos_vface(&self) -> &[f64] {
        &self.cos_v
    }

    /// Latitude (geographic, radians, positive north) of scalar row `j`.
    pub fn latitude(&self, j: usize) -> f64 {
        std::f64::consts::FRAC_PI_2 - self.theta_c[j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn uniform_sigma_levels() {
        let s = SigmaLevels::uniform(4).unwrap();
        assert_eq!(s.nz(), 4);
        assert_eq!(s.interfaces(), &[0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(s.centers(), &[0.125, 0.375, 0.625, 0.875]);
        assert!(s.thickness().iter().all(|&d| (d - 0.25).abs() < 1e-15));
    }

    #[test]
    fn custom_sigma_levels() {
        let s = SigmaLevels::from_interfaces(vec![0.0, 0.1, 0.4, 1.0]).unwrap();
        assert_eq!(s.nz(), 3);
        assert!((s.thickness()[0] - 0.1).abs() < 1e-15);
        assert!((s.thickness()[2] - 0.6).abs() < 1e-15);
        assert!((s.centers()[1] - 0.25).abs() < 1e-15);
    }

    #[test]
    fn invalid_sigma_levels_rejected() {
        assert!(SigmaLevels::from_interfaces(vec![0.0]).is_err());
        assert!(SigmaLevels::from_interfaces(vec![0.1, 1.0]).is_err());
        assert!(SigmaLevels::from_interfaces(vec![0.0, 0.9]).is_err());
        assert!(SigmaLevels::from_interfaces(vec![0.0, 0.5, 0.5, 1.0]).is_err());
        assert!(SigmaLevels::from_interfaces(vec![0.0, 0.7, 0.3, 1.0]).is_err());
    }

    #[test]
    fn grid_geometry() {
        let g = LatLonGrid::new(8, 6, 3).unwrap();
        assert_eq!(g.nx(), 8);
        assert_eq!(g.ny(), 6);
        assert_eq!(g.nz(), 3);
        assert_eq!(g.len(), 8 * 6 * 3);
        assert!((g.dlambda() - 2.0 * PI / 8.0).abs() < 1e-15);
        assert!((g.dtheta() - PI / 6.0).abs() < 1e-15);
        // scalar rows avoid the poles: sinθ strictly positive
        assert!(g.sin_center().iter().all(|&s| s > 0.0));
        // colatitude increases monotonically
        for j in 1..g.ny() {
            assert!(g.theta_c[j] > g.theta_c[j - 1]);
        }
        // last V row is the south pole
        assert!(g.sin_vface()[g.ny() - 1].abs() < 1e-12);
    }

    #[test]
    fn grid_symmetry_about_equator() {
        let g = LatLonGrid::new(16, 10, 2).unwrap();
        for j in 0..g.ny() {
            let jj = g.ny() - 1 - j;
            assert!((g.sin_center()[j] - g.sin_center()[jj]).abs() < 1e-12);
            assert!((g.cos_center()[j] + g.cos_center()[jj]).abs() < 1e-12);
            assert!((g.latitude(j) + g.latitude(jj)).abs() < 1e-12);
        }
    }

    #[test]
    fn paper_grid() {
        let g = LatLonGrid::paper_50km().unwrap();
        assert_eq!((g.nx(), g.ny(), g.nz()), (720, 360, 30));
    }

    #[test]
    fn too_small_grid_rejected() {
        assert!(LatLonGrid::new(2, 6, 3).is_err());
        assert!(LatLonGrid::new(8, 2, 3).is_err());
        assert!(LatLonGrid::new(8, 6, 0).is_err());
        assert!(SigmaLevels::uniform(0).is_err());
    }

    #[test]
    fn kappa_constant() {
        assert!((constants::KAPPA - 2.0 / 7.0).abs() < 2e-3);
    }
}
