//! The paper's stencil tables (Tables 1, 2 and 3) as data.
//!
//! Each row of the tables gives the mesh-point offsets the update of
//! `v_{i,j,k}` reads for one term of the dynamical core, expressed in the
//! prognostic variables.  These declared footprints drive the halo widths
//! and communication volumes of every algorithm in this crate; tests verify
//! that the actual operator implementations read **within** them (the
//! implementations use standard second-order C-grid differences, which are
//! subsets of the paper's footprints — see `DESIGN.md`).

use agcm_mesh::{Axis, StencilFootprint};

// ---------------------------------------------------------------------------
// Table 1: stencil computation in the adaptation process
// ---------------------------------------------------------------------------

/// `P_λ^(1)`: x: i, i±1, i−2; y: j; z: k, k+1.
fn t1_p_lambda_1() -> StencilFootprint {
    StencilFootprint::new("P_lambda^(1)", vec![-2, -1, 1], vec![], vec![1])
}

/// `P_λ^(2)`: x: i, i±1, i−2; y: j; z: k.
fn t1_p_lambda_2() -> StencilFootprint {
    StencilFootprint::new("P_lambda^(2)", vec![-2, -1, 1], vec![], vec![])
}

/// `f*V`: x: i, i−1; y: j, j−1; z: k.
fn t1_fstar_v() -> StencilFootprint {
    StencilFootprint::new("f*V", vec![-1], vec![-1], vec![])
}

/// `P_θ^(1)`: x: i; y: j, j+1; z: k, k+1.
fn t1_p_theta_1() -> StencilFootprint {
    StencilFootprint::new("P_theta^(1)", vec![], vec![1], vec![1])
}

/// `P_θ^(2)`: x: i; y: j, j+1; z: k.
fn t1_p_theta_2() -> StencilFootprint {
    StencilFootprint::new("P_theta^(2)", vec![], vec![1], vec![])
}

/// `f*U`: x: i, i+1; y: j, j+1; z: k.
fn t1_fstar_u() -> StencilFootprint {
    StencilFootprint::new("f*U", vec![1], vec![1], vec![])
}

/// `Ω^(1)`: x: i; y: j; z: k, k+1.
fn t1_omega_1() -> StencilFootprint {
    StencilFootprint::new("Omega^(1)", vec![], vec![], vec![1])
}

/// `Ω_θ^(2)`: x: i; y: j, j±1; z: k.
fn t1_omega_theta_2() -> StencilFootprint {
    StencilFootprint::new("Omega_theta^(2)", vec![], vec![-1, 1], vec![])
}

/// `Ω_λ^(2)`: x: i, i±1, i−2, i±3; y: j; z: k.
fn t1_omega_lambda_2() -> StencilFootprint {
    StencilFootprint::new("Omega_lambda^(2)", vec![-3, -2, -1, 1, 3], vec![], vec![])
}

/// `D(P)`: printed as "x: i, i−1 i+2, i±3; y: j, j−1; z: k" — the x list is
/// garbled in the paper (it omits `i+1`, which any C-grid flux divergence
/// reads); declared here as the symmetric superset `i, i±1, i±2, i±3`,
/// which leaves every halo width and communication volume unchanged
/// (the x-extent stays 3).
/// The y list is also widened from the printed "j, j−1" to `j, j±1`: the
/// C-grid meridional mass flux `(PV sin θ)_{j+1/2}` reads `P` on both sides
/// of the V face.  The adaptation union's y-extent (±1) is unchanged.
fn t1_d_of_p() -> StencilFootprint {
    StencilFootprint::new("D(P)", vec![-3, -2, -1, 1, 2, 3], vec![-1, 1], vec![])
}

/// `D_sa`: x: i, i±1; y: j, j±1; z: k.
fn t1_d_sa() -> StencilFootprint {
    StencilFootprint::new("D_sa", vec![-1, 1], vec![-1, 1], vec![])
}

/// All Table 1 rows in printed order.
pub fn table1() -> Vec<StencilFootprint> {
    vec![
        t1_p_lambda_1(),
        t1_p_lambda_2(),
        t1_fstar_v(),
        t1_p_theta_1(),
        t1_p_theta_2(),
        t1_fstar_u(),
        t1_omega_1(),
        t1_omega_theta_2(),
        t1_omega_lambda_2(),
        t1_d_of_p(),
        t1_d_sa(),
    ]
}

// ---------------------------------------------------------------------------
// Table 2: stencil computation in the advection process
// ---------------------------------------------------------------------------

/// `L₁(U)`: x: i, i±1, i±2, i±3; y: j; z: k, k+1.
fn t2_l1_u() -> StencilFootprint {
    StencilFootprint::new("L1(U)", vec![-3, -2, -1, 1, 2, 3], vec![], vec![1])
}

/// `L₂(U)`: x: i, i−1; y: j, j±1; z: k.
fn t2_l2_u() -> StencilFootprint {
    StencilFootprint::new("L2(U)", vec![-1], vec![-1, 1], vec![])
}

/// `L₃(U)`: x: i, i−1; y: j; z: k, k±1.
fn t2_l3_u() -> StencilFootprint {
    StencilFootprint::new("L3(U)", vec![-1], vec![], vec![-1, 1])
}

/// `L₁(V)`: x: i, i±1, i+2, i±3; y: j, j+1; z: k.
fn t2_l1_v() -> StencilFootprint {
    StencilFootprint::new("L1(V)", vec![-3, -1, 1, 2, 3], vec![1], vec![])
}

/// `L₂(V)`: x: i; y: j, j±1; z: k.
fn t2_l2_v() -> StencilFootprint {
    StencilFootprint::new("L2(V)", vec![], vec![-1, 1], vec![])
}

/// `L₃(V)`: x: i; y: j, j+1; z: k, k±1.
fn t2_l3_v() -> StencilFootprint {
    StencilFootprint::new("L3(V)", vec![], vec![1], vec![-1, 1])
}

/// `L₁(Φ)`: x: i, i±1, i+2, i±3; y: j; z: k.
fn t2_l1_phi() -> StencilFootprint {
    StencilFootprint::new("L1(Phi)", vec![-3, -1, 1, 2, 3], vec![], vec![])
}

/// `L₂(Φ)`: x: i; y: j, j±1; z: k.
fn t2_l2_phi() -> StencilFootprint {
    StencilFootprint::new("L2(Phi)", vec![], vec![-1, 1], vec![])
}

/// `L₃(Φ)`: x: i; y: j; z: k, k±1.
fn t2_l3_phi() -> StencilFootprint {
    StencilFootprint::new("L3(Phi)", vec![], vec![], vec![-1, 1])
}

/// All Table 2 rows in printed order.
pub fn table2() -> Vec<StencilFootprint> {
    vec![
        t2_l1_u(),
        t2_l2_u(),
        t2_l3_u(),
        t2_l1_v(),
        t2_l2_v(),
        t2_l3_v(),
        t2_l1_phi(),
        t2_l2_phi(),
        t2_l3_phi(),
    ]
}

// ---------------------------------------------------------------------------
// Table 3: stencil computation in the smoothing
// ---------------------------------------------------------------------------

/// `P₁`: x: i, i±1, i±2; y: j; z: k.
fn t3_p1() -> StencilFootprint {
    StencilFootprint::new("P1", vec![-2, -1, 1, 2], vec![], vec![])
}

/// `P₂`: x: i, i±1, i±2; y: j, j±1, j±2; z: k.
fn t3_p2() -> StencilFootprint {
    StencilFootprint::new("P2", vec![-2, -1, 1, 2], vec![-2, -1, 1, 2], vec![])
}

/// Both Table 3 rows.
pub fn table3() -> Vec<StencilFootprint> {
    vec![t3_p1(), t3_p2()]
}

// ---------------------------------------------------------------------------
// Unions and halo derivation
// ---------------------------------------------------------------------------

/// Union footprint of one adaptation sweep (`Â`).
pub fn adaptation_union() -> StencilFootprint {
    StencilFootprint::union_of("adaptation", &table1())
}

/// Union footprint of one advection sweep (`L̃`).
pub fn advection_union() -> StencilFootprint {
    StencilFootprint::union_of("advection", &table2())
}

/// Union footprint of the smoothing (`S̃`).
pub fn smoothing_union() -> StencilFootprint {
    StencilFootprint::union_of("smoothing", &table3())
}

/// Union of everything applied between exchanges in the *original*
/// algorithm (one sweep of any operator): determines Algorithm 1's
/// (shallow) halo widths.
pub fn per_sweep_union() -> StencilFootprint {
    adaptation_union()
        .union(&advection_union())
        .union(&smoothing_union())
}

/// Per-sweep footprint of the adaptation process *as implemented*: the
/// paper's Table 1 union, widened to `k−1` in z.  Table 1 charges the
/// vertical mass-flux/geopotential integrals to the collective operator `C`,
/// but when a sweep is evaluated redundantly on deep z-halo layers (the CA
/// scheme), extending those integrals into the halo reads one layer further
/// on *both* z sides per sweep — which is also what the paper's Figure 4
/// depicts: halo areas of depth 3M on all four sides of the (y, z) block.
pub fn adaptation_impl_union() -> StencilFootprint {
    adaptation_union().union(&StencilFootprint::new("z-prefix", vec![], vec![], vec![-1]))
}

/// Halo widths (low, high) along an axis for the CA deep-halo scheme: the
/// footprint of `3M` adaptation sweeps between exchanges (§4.3.1), whose
/// halos are reused for the 3 advection sweeps (their dilated footprint is
/// also covered when `M ≥ 1`), plus in y the two extra latitude rows the
/// fused smoothing needs (§4.3.2).
pub fn ca_halo_extent(m_iters: u32, axis: Axis) -> (u32, u32) {
    let adap = adaptation_impl_union().repeated(3 * m_iters);
    let adv = advection_union().repeated(3);
    let u = adap.union(&adv).union(&smoothing_union().union(&adap));
    let (lo, hi) = u.required_halo(axis);
    match axis {
        Axis::Y => (lo + 2, hi + 2), // former/later smoothing margin
        _ => (lo, hi),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agcm_mesh::Axis;

    /// Assert a footprint's offsets along each axis match exactly.
    fn assert_fp(fp: &StencilFootprint, x: &[i32], y: &[i32], z: &[i32]) {
        assert_eq!(fp.x.offsets(), x, "{}: x", fp.name);
        assert_eq!(fp.y.offsets(), y, "{}: y", fp.name);
        assert_eq!(fp.z.offsets(), z, "{}: z", fp.name);
    }

    #[test]
    fn adaptation_footprints_match_table1() {
        assert_fp(&t1_p_lambda_1(), &[-2, -1, 0, 1], &[0], &[0, 1]);
        assert_fp(&t1_p_lambda_2(), &[-2, -1, 0, 1], &[0], &[0]);
        assert_fp(&t1_fstar_v(), &[-1, 0], &[-1, 0], &[0]);
        assert_fp(&t1_p_theta_1(), &[0], &[0, 1], &[0, 1]);
        assert_fp(&t1_p_theta_2(), &[0], &[0, 1], &[0]);
        assert_fp(&t1_fstar_u(), &[0, 1], &[0, 1], &[0]);
        assert_fp(&t1_omega_1(), &[0], &[0], &[0, 1]);
        assert_fp(&t1_omega_theta_2(), &[0], &[-1, 0, 1], &[0]);
        assert_fp(&t1_omega_lambda_2(), &[-3, -2, -1, 0, 1, 3], &[0], &[0]);
        assert_fp(&t1_d_of_p(), &[-3, -2, -1, 0, 1, 2, 3], &[-1, 0, 1], &[0]);
        assert_fp(&t1_d_sa(), &[-1, 0, 1], &[-1, 0, 1], &[0]);
        assert_eq!(table1().len(), 11);
    }

    #[test]
    fn advection_footprints_match_table2() {
        assert_fp(&t2_l1_u(), &[-3, -2, -1, 0, 1, 2, 3], &[0], &[0, 1]);
        assert_fp(&t2_l2_u(), &[-1, 0], &[-1, 0, 1], &[0]);
        assert_fp(&t2_l3_u(), &[-1, 0], &[0], &[-1, 0, 1]);
        assert_fp(&t2_l1_v(), &[-3, -1, 0, 1, 2, 3], &[0, 1], &[0]);
        assert_fp(&t2_l2_v(), &[0], &[-1, 0, 1], &[0]);
        assert_fp(&t2_l3_v(), &[0], &[0, 1], &[-1, 0, 1]);
        assert_fp(&t2_l1_phi(), &[-3, -1, 0, 1, 2, 3], &[0], &[0]);
        assert_fp(&t2_l2_phi(), &[0], &[-1, 0, 1], &[0]);
        assert_fp(&t2_l3_phi(), &[0], &[0], &[-1, 0, 1]);
        assert_eq!(table2().len(), 9);
    }

    #[test]
    fn smoothing_footprints_match_table3() {
        assert_fp(&t3_p1(), &[-2, -1, 0, 1, 2], &[0], &[0]);
        assert_fp(&t3_p2(), &[-2, -1, 0, 1, 2], &[-2, -1, 0, 1, 2], &[0]);
    }

    #[test]
    fn unions_have_expected_extents() {
        let a = adaptation_union();
        assert_eq!(a.required_halo(Axis::X), (3, 3));
        assert_eq!(a.required_halo(Axis::Y), (1, 1));
        assert_eq!(a.required_halo(Axis::Z), (0, 1));
        let l = advection_union();
        assert_eq!(l.required_halo(Axis::X), (3, 3));
        assert_eq!(l.required_halo(Axis::Y), (1, 1));
        assert_eq!(l.required_halo(Axis::Z), (1, 1));
        let s = smoothing_union();
        assert_eq!(s.required_halo(Axis::X), (2, 2));
        assert_eq!(s.required_halo(Axis::Y), (2, 2));
        assert_eq!(s.required_halo(Axis::Z), (0, 0));
    }

    #[test]
    fn ca_halo_depth_scales_with_m() {
        // 3M adaptation sweeps, each of y-extent 1 → y halo 3M (+2 smoothing)
        let (ylo, yhi) = ca_halo_extent(3, Axis::Y);
        assert_eq!((ylo, yhi), (11, 11));
        let (ylo1, _) = ca_halo_extent(1, Axis::Y);
        assert_eq!(ylo1, 5);
        // z: 3M deep on both sides (Figure 4) — the implemented adaptation
        // sweep couples to k±1 through the vertical prefix integrals
        let (zlo, zhi) = ca_halo_extent(3, Axis::Z);
        assert_eq!((zlo, zhi), (9, 9));
    }

    #[test]
    fn per_sweep_union_is_algorithm1_halo() {
        let u = per_sweep_union();
        assert_eq!(u.required_halo(Axis::X), (3, 3));
        assert_eq!(u.required_halo(Axis::Y), (2, 2)); // smoothing dominates
        assert_eq!(u.required_halo(Axis::Z), (1, 1));
    }
}
