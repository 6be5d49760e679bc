//! Side-by-side run of the original Algorithm 1 and the
//! communication-avoiding Algorithm 2 on real (thread-backed) ranks.
//!
//! Prints, per algorithm: the halo-exchange frequency, point-to-point
//! message/byte counts, collective counts — and the maximum difference of
//! the final states, demonstrating that the CA algorithm reproduces the
//! approximate-iteration numerics while cutting the exchange frequency from
//! `3M + 4` to 2 (§4.3.1, §4.2.2 of Xiao et al., ICPP 2018).
//!
//! ```text
//! cargo run -p agcm-core --release --example ca_comparison
//! ```

use agcm_comm::Universe;
use agcm_core::init;
use agcm_core::par::{Alg1Model, CaModel, GlobalState};
use agcm_core::ModelConfig;
use agcm_mesh::ProcessGrid;

const STEPS: usize = 4;
const RANKS: usize = 4;

fn config() -> ModelConfig {
    let mut cfg = ModelConfig::test_medium();
    cfg.ny = 48; // 4 y-blocks of 12 rows hold the 3M+2 = 11-deep halo (M = 3)
    cfg
}

fn main() {
    let cfg = config();
    println!(
        "mesh {}x{}x{}, M = {}, {} steps on {} ranks (Y-Z decomposition 4x1)\n",
        cfg.nx, cfg.ny, cfg.nz, cfg.m_iters, STEPS, RANKS
    );

    // ---- Algorithm 1 (original) ----
    let cfg1 = cfg.clone();
    let mut r1 = Universe::run(RANKS, move |comm| {
        comm.stats().set_event_logging(true); // collective_events is opt-in
        let mut m = Alg1Model::new(&cfg1, ProcessGrid::yz(4, 1).unwrap(), comm).unwrap();
        let ic = init::perturbed_rest(m.geom(), 250.0, 1.0, 11);
        m.set_state(&ic);
        m.run(comm, STEPS).unwrap();
        let snap = comm.stats().snapshot();
        let colls = comm.stats().collective_events().len();
        (
            m.gather_state(comm).unwrap(),
            m.exchange_count(),
            snap,
            colls,
        )
    });
    let (g1, ex1, s1, c1) = r1.remove(0);
    let g1: GlobalState = g1.unwrap();

    // ---- Algorithm 2 (communication-avoiding) ----
    let cfg2 = cfg.clone();
    let mut r2 = Universe::run(RANKS, move |comm| {
        comm.stats().set_event_logging(true); // collective_events is opt-in
        let mut m = CaModel::new(&cfg2, ProcessGrid::yz(4, 1).unwrap(), comm).unwrap();
        let ic = init::perturbed_rest(m.geom(), 250.0, 1.0, 11);
        m.set_state(&ic);
        m.run(comm, STEPS).unwrap();
        let snap = comm.stats().snapshot();
        let colls = comm.stats().collective_events().len();
        (
            m.gather_state(comm).unwrap(),
            m.exchange_count(),
            snap,
            colls,
        )
    });
    let (g2, ex2, s2, c2) = r2.remove(0);
    let g2: GlobalState = g2.unwrap();

    let m = cfg.m_iters as u64;
    println!("                       original (Alg 1)    comm-avoiding (Alg 2)");
    println!(
        "exchanges / step       {:>10.1}           {:>10.1}   (paper: {} -> 2)",
        ex1 as f64 / STEPS as f64,
        (ex2 as f64 - 1.0) / STEPS as f64, // minus the one final smoothing
        3 * m + 4
    );
    println!(
        "p2p messages (rank 0)  {:>10}           {:>10}",
        s1.p2p_sends, s2.p2p_sends
    );
    println!(
        "p2p volume (MB)        {:>10.2}           {:>10.2}   (CA ships deeper halos)",
        s1.p2p_send_bytes() as f64 / 1e6,
        s2.p2p_send_bytes() as f64 / 1e6
    );
    println!(
        "collective events      {:>10}           {:>10}   (p_z = 1 here: the z-sum is local;",
        c1, c2
    );
    println!(
        "                                                     with p_z > 1 it is 3M vs 2M per step)"
    );

    let diff = g1.max_abs_diff(&g2);
    let scale = g1.phi.iter().fold(0.0f64, |a, &v| a.max(v.abs())).max(1.0);
    println!(
        "\nfinal-state difference: max |Alg1 - Alg2| = {diff:.3e} (solution scale {scale:.3e})"
    );
    println!(
        "the two algorithms differ exactly by the approximate nonlinear \
         iteration of Eq. 13 —\nsmall relative to the solution, by design \
         (the highest-order correction term is approximated)."
    );
}
