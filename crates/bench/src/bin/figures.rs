//! Regenerate every table and figure of the paper's evaluation (§5).
//!
//! ```text
//! cargo run -p agcm-bench --release --bin figures -- all
//! cargo run -p agcm-bench --release --bin figures -- fig1|fig6|fig7|fig8|theory|tables|validate
//! ```
//!
//! Figures 1, 6, 7, 8 are the cost model's walk of each algorithm's step
//! program (`core::analysis::predict`) at the paper's rank counts under the
//! calibrated `tianhe2` constants; `validate` re-derives the walk's counts
//! from *executing* runs at laptop scale and prints the (exact) agreement.
//! Absolute seconds are model-calibrated; the comparisons the paper draws
//! (who wins, by what factor, where) are the reproduction targets — see
//! EXPERIMENTS.md.

use agcm_bench::{paper_step, steps_10_years, PAPER_RANKS};
use agcm_comm::{p2p_only_delta, CostModel, Universe};
use agcm_core::analysis::{self, AlgKind, CaMode, Prediction};
use agcm_core::{init, tables, Integrator, ModelConfig};
use agcm_mesh::ProcessGrid;
use agcm_obs as obs;

const USAGE: &str = "usage: figures [all|fig1|fig6|fig7|fig8|theory|tables|validate|verify]";

fn main() {
    let what = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    println!("figures {what}: built for {}", obs::build_isa());
    let cfg = ModelConfig::paper_50km();
    let model = CostModel::tianhe2();
    match what.as_str() {
        "fig1" => fig1(&cfg, &model),
        "fig6" => fig6(&cfg, &model),
        "fig7" => fig7(&cfg, &model),
        "fig8" => fig8(&cfg, &model),
        "theory" => theory(&cfg),
        "tables" => print_tables(),
        "validate" => validate(),
        "verify" => verify(),
        "all" => {
            print_tables();
            fig1(&cfg, &model);
            fig6(&cfg, &model);
            fig7(&cfg, &model);
            fig8(&cfg, &model);
            theory(&cfg);
            validate();
            verify();
        }
        other => {
            eprintln!("unknown figure '{other}'\n{USAGE}");
            std::process::exit(2);
        }
    }
}

fn header(title: &str) {
    println!("\n{:=^78}", format!(" {title} "));
}

/// One predicted step at a paper rank count; the paper's meshes and grids
/// are constants of this binary, so a refusal is a bug worth its message.
fn step(cfg: &ModelConfig, alg: AlgKind, p: usize, ideal: bool, model: &CostModel) -> Prediction {
    paper_step(cfg, alg, p, ideal, model).unwrap_or_else(|e| {
        eprintln!("{} at p = {p}: {e}", alg.label());
        std::process::exit(1);
    })
}

/// The three lines of Figures 6–8 at `p` ranks: X-Y, Y-Z, CA.
fn lines(cfg: &ModelConfig, p: usize, model: &CostModel) -> [Prediction; 3] {
    [
        AlgKind::OriginalXY,
        AlgKind::OriginalYZ,
        AlgKind::CommAvoiding,
    ]
    .map(|alg| step(cfg, alg, p, false, model))
}

/// What stands behind a figure that runs the model where no run can check
/// it.
fn validated() {
    println!("model: {}", analysis::VALIDATION);
}

/// Figure 1: percentage of time for communication and computation in the
/// dynamical core (original algorithm, Y-Z decomposition, 720x360x30).
fn fig1(cfg: &ModelConfig, model: &CostModel) {
    header("Figure 1 — communication vs computation share of the dynamical core");
    println!(
        "{:>6} {:>14} {:>14} {:>12} {:>12}",
        "p", "comm time ms", "comp time ms", "comm %", "comp %"
    );
    for p in PAPER_RANKS {
        let c = step(cfg, AlgKind::OriginalYZ, p, false, model);
        let comm = c.path.stencil_s() + c.path.collective_s;
        println!(
            "{p:>6} {:>14.2} {:>14.2} {:>11.1}% {:>11.1}%",
            comm * 1e3,
            c.path.compute_s * 1e3,
            100.0 * comm / c.makespan_s,
            100.0 * c.path.compute_s / c.makespan_s
        );
    }
    println!("paper: \"the communication time dominates the runtime of the dynamical core\"");
    validated();
}

/// Figure 6: time for collective communication over a 10-model-year run.
fn fig6(cfg: &ModelConfig, model: &CostModel) {
    header("Figure 6 — collective communication time (10 model years)");
    let k = steps_10_years(cfg);
    println!(
        "{:>6} {:>18} {:>18} {:>18} {:>10}",
        "p", "X-Y (F) [s]", "Y-Z (C) [s]", "CA (C) [s]", "YZ/CA"
    );
    let mut speedups = Vec::new();
    for p in PAPER_RANKS {
        let [xy, yz, ca] = lines(cfg, p, model).map(|c| c.path.collective_s * k);
        speedups.push(yz / ca);
        println!(
            "{p:>6} {:>18.0} {:>18.0} {:>18.0} {:>9.2}x",
            xy,
            yz,
            ca,
            yz / ca
        );
    }
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    println!(
        "average Y-Z/CA collective speedup: {avg:.2}x   (paper: 1.4x; one third of the\n\
         z-direction summations removed by the approximate nonlinear iteration, §4.2.2)"
    );
    println!("X-Y's Fourier-filtering collectives dominate, as in the paper's Figure 6.");
    validated();
}

/// Figure 7: communication time of the stencil computation.
fn fig7(cfg: &ModelConfig, model: &CostModel) {
    header("Figure 7 — stencil (halo) communication time (10 model years)");
    let k = steps_10_years(cfg);
    println!(
        "{:>6} {:>13} {:>13} {:>13} {:>13} {:>8} {:>8}",
        "p", "X-Y [s]", "Y-Z [s]", "CA [s]", "CA-ideal[s]", "YZ/CA", "ideal"
    );
    let mut sp = Vec::new();
    let mut spi = Vec::new();
    let mut volumes = Vec::new();
    for p in PAPER_RANKS {
        let at = lines(cfg, p, model);
        let most = |c: &Prediction| c.ranks.iter().map(|r| r.elems).max().unwrap_or(0);
        volumes.push((p, at.each_ref().map(most)));
        let [xy, yz, ca] = at.map(|c| c.path.stencil_s() * k);
        let cai = step(cfg, AlgKind::CommAvoiding, p, true, model)
            .path
            .stencil_s()
            * k;
        sp.push(yz / ca);
        spi.push(yz / cai);
        println!(
            "{p:>6} {:>13.0} {:>13.0} {:>13.0} {:>13.0} {:>7.2}x {:>7.2}x",
            xy,
            yz,
            ca,
            cai,
            yz / ca,
            yz / cai
        );
    }
    println!(
        "average Y-Z/CA stencil speedup: {:.2}x executable (clamped halo depth), {:.2}x under\n\
         the paper's idealized 2-exchange accounting   (paper: 3x-6x, 3.9x average;\n\
         17,400 s -> 2,800 s at p = 1024)",
        sp.iter().sum::<f64>() / sp.len() as f64,
        spi.iter().sum::<f64>() / spi.len() as f64
    );
    // per-rank volumes: the paper's W^stencil comparison (§5.2)
    println!("\nper-rank halo volumes per step (f64 elements) — the paper's W^stencil ordering:");
    println!("{:>6} {:>12} {:>12} {:>12}", "p", "X-Y", "Y-Z", "CA");
    for (p, [xy, yz, ca]) in volumes {
        println!("{p:>6} {xy:>12} {yz:>12} {ca:>12}");
    }
    println!(
        "W_XY << W_YZ (n_x >> n_y, n_z — §5.2), and CA ships slightly more than Y-Z\n\
         (redundant corner halos) while cutting the frequency from 13 to 2 per step."
    );
    validated();
}

/// Figure 8: total runtime of the dynamical core.
fn fig8(cfg: &ModelConfig, model: &CostModel) {
    header("Figure 8 — total runtime of the dynamical core (10 model years)");
    let k = steps_10_years(cfg);
    println!(
        "{:>6} {:>13} {:>13} {:>13} {:>10} {:>10}",
        "p", "X-Y [s]", "Y-Z [s]", "CA [s]", "vs XY", "vs YZ"
    );
    let mut best_red: f64 = 0.0;
    let mut yz_speedups = Vec::new();
    for p in PAPER_RANKS {
        let [xy, yz, ca] = lines(cfg, p, model).map(|c| c.makespan_s * k);
        let red = 1.0 - ca / xy;
        best_red = best_red.max(red);
        yz_speedups.push(yz / ca);
        println!(
            "{p:>6} {:>13.0} {:>13.0} {:>13.0} {:>9.1}% {:>9.2}x",
            xy,
            yz,
            ca,
            100.0 * red,
            yz / ca
        );
    }
    println!(
        "max total-runtime reduction vs X-Y: {:.0}%   (paper: 54% at p = 512)",
        100.0 * best_red
    );
    println!(
        "average speedup vs Y-Z: {:.2}x   (paper: 1.4x)",
        yz_speedups.iter().sum::<f64>() / yz_speedups.len() as f64
    );
    validated();
}

/// §5.3: the W/S cost formulas and the lower bounds of Theorems 4.1/4.2.
fn theory(cfg: &ModelConfig) {
    header("§5.3 — theoretical communication (W) and synchronization (S) costs");
    let k = 1;
    println!("per time step (K = 1), M = {}:", cfg.m_iters);
    println!(
        "{:>6} {:>14} {:>14} {:>14} {:>8} {:>8} {:>8}",
        "p", "W_XY", "W_YZ", "W_CA", "S_XY", "S_YZ", "S_CA"
    );
    for p in PAPER_RANKS {
        let (Ok(yz), Ok(xy)) = (agcm_bench::yz_grid(p), agcm_bench::xy_grid(p)) else {
            continue; // not a rank count the paper's grids are defined for
        };
        let (py, pz) = (yz.py(), yz.pz());
        let (px, pyx) = (xy.px(), xy.py());
        println!(
            "{p:>6} {:>14.3e} {:>14.3e} {:>14.3e} {:>8.0} {:>8.0} {:>8.0}",
            analysis::w_xy(cfg, px, pyx, k),
            analysis::w_yz(cfg, py, pz, k),
            analysis::w_ca(cfg, py, pz, k),
            analysis::s_xy(cfg, k),
            analysis::s_yz(cfg, k),
            analysis::s_ca(cfg, k),
        );
    }
    println!("\nW_XY >> W_YZ > W_CA and S_XY > S_YZ > S_CA — §5.3's conclusion.");
    println!("\nlower bounds:");
    println!(
        "  Theorem 4.1 (F, per rank, one circle): {:.0} words at p_x = 16; 0 at p_x = 1 —\n\
         the Y-Z decomposition eliminates the high-order term (§4.2.1)",
        analysis::fft_lower_bound(cfg.nx, 16)
    );
    println!(
        "  Theorem 4.2 (C, total): 2(p_z-1)·n_x·n_y = {:.3e} words at p_z = 8,\n\
         attained by the ring/allgather family the runtime implements",
        analysis::reduction_lower_bound(cfg.nx, cfg.ny, 8)
    );
}

/// Tables 1–3: the declared stencil footprints.
fn print_tables() {
    header("Tables 1-3 — stencil footprints (declared = enforced by tests)");
    println!("Table 1 (adaptation):");
    for fp in tables::table1() {
        println!("  {fp}");
    }
    println!("Table 2 (advection):");
    for fp in tables::table2() {
        println!("  {fp}");
    }
    println!("Table 3 (smoothing):");
    for fp in tables::table3() {
        println!("  {fp}");
    }
    let u = tables::adaptation_union();
    println!("adaptation union: {u}");
    let (ylo, yhi) = tables::ca_halo_extent(3, agcm_mesh::Axis::Y);
    println!("CA deep halo (M = 3): y = {ylo}/{yhi}, matching Figure 4's 3M(+2) layers");
}

/// Execute small real runs and show the predictor matching them exactly.
fn validate() {
    header("validation — executing runtime vs cost-model traffic counts");
    let mut cfg = ModelConfig::test_medium();
    cfg.m_iters = 1;
    for (name, alg, pg) in [
        (
            "original Y-Z",
            AlgKind::OriginalYZ,
            ProcessGrid::yz(2, 2).unwrap(),
        ),
        (
            "original X-Y",
            AlgKind::OriginalXY,
            ProcessGrid::xy(2, 2).unwrap(),
        ),
        (
            "comm-avoiding",
            AlgKind::CommAvoiding,
            ProcessGrid::yz(2, 2).unwrap(),
        ),
    ] {
        let cfg2 = cfg.clone();
        let measured = Universe::run(4, move |comm| {
            comm.stats().set_event_logging(true); // collective_events is opt-in
            let mut m = Integrator::parallel(&cfg2, alg, pg, comm).unwrap();
            let ic = init::perturbed_rest(m.geom(), 100.0, 1.0, 3);
            m.set_state(&ic);
            let mut step = |c| m.step(Some(c)).unwrap();
            step(comm); // warm-up (CA cache bootstrap)
            let s0 = comm.stats().snapshot();
            let e0 = comm.stats().collective_events().len();
            step(comm);
            let d = comm.stats().snapshot().delta(&s0);
            let ev = comm.stats().collective_events()[e0..].to_vec();
            let pure = p2p_only_delta(&d, &ev);
            (pure.p2p_sends, pure.p2p_send_elems)
        });
        let predicted = analysis::predict(&cfg, alg, pg, CaMode::Grouped, &CostModel::BENCH_HOST)
            .expect("the validation grids decompose the test mesh");
        println!("{name} (4 ranks, measured vs predicted per-rank):");
        for (rank, (&(msgs, elems), want)) in measured.iter().zip(&predicted.ranks).enumerate() {
            let ok = want.msgs == msgs && want.elems == elems;
            println!(
                "  rank {rank}: msgs {msgs:>4} vs {:>4}, elems {elems:>7} vs {:>7}  {}",
                want.msgs,
                want.elems,
                if ok { "EXACT" } else { "MISMATCH" }
            );
            assert!(ok, "prediction diverged from the executing runtime");
        }
    }
    println!("every count matches: the figures above rest on the executing implementation.");
}

/// Static certification of the paper-mesh communication schedules
/// (`agcm-verify`): matched, deadlock-free, counts equal to the §5.3
/// closed forms — no threads spawned, any rank count.
fn verify() {
    header("verify — static certification of the communication schedules");
    let mut report = String::from("# Static certification report\n\n## Schedule counts\n\n");
    let certs = match agcm_verify::certify_paper_ranks() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("CERTIFICATION FAILED: {e}");
            std::process::exit(1);
        }
    };
    let head = format!(
        "{:>6} {:>14} {:>14} {:>12} {:>12} {:>12}",
        "p", "Alg1 exch/Δt", "CA exch/Δt", "Alg1 colls", "CA colls", "events"
    );
    println!("{head}");
    report.push_str(&format!("```\n{head}\n"));
    for c in &certs {
        let row = format!(
            "{:>6} {:>14} {:>14} {:>12} {:>12} {:>12}",
            c.p,
            c.alg1.exchanges,
            c.ca_ideal.exchanges,
            c.alg1.collectives,
            c.ca_ideal.collectives,
            c.alg1.actions + c.ca_ideal.actions + c.ca_grouped.actions,
        );
        println!("{row}");
        report.push_str(&row);
        report.push('\n');
    }
    report.push_str("```\n");
    println!(
        "each row: send/recv matching exact, deadlock-freedom proven by virtual\n\
         execution, counts equal to core::analysis and the §5.3 closed forms\n\
         (13 -> 2 halo exchanges per step; vertical collectives 3M -> 2M)."
    );
    // the dataflow proof: every read of every executable schedule is
    // covered by the preceding exchange's halo depth (verify::dataflow)
    report.push_str("\n## Dataflow (halo-coverage) proof\n\n");
    let fmt_df = |a: &agcm_verify::AlgCertification| match (a.dataflow_reads, a.dataflow_margin) {
        (Some(r), Some(m)) => format!("{r} reads, slack {m}"),
        (Some(r), None) => format!("{r} reads (serial)"),
        (None, _) => "n/a (idealized)".into(),
    };
    let head = format!(
        "{:>6} {:>26} {:>26} {:>26}",
        "p", "Alg1 grouped", "CA grouped", "CA ideal"
    );
    println!("{head}");
    report.push_str(&format!("```\n{head}\n"));
    for c in &certs {
        let row = format!(
            "{:>6} {:>26} {:>26} {:>26}",
            c.p,
            fmt_df(&c.alg1),
            fmt_df(&c.ca_grouped),
            fmt_df(&c.ca_ideal),
        );
        println!("{row}");
        report.push_str(&row);
        report.push('\n');
    }
    report.push_str("```\n");
    println!(
        "dataflow: every stencil read of every executable schedule is proven\n\
         covered by the preceding exchange's declared halo depth (AccessSpec\n\
         registry x verify::dataflow); slack 0 = some depth consumed exactly."
    );
    // Algorithm 2's halo depth is a decision: the feasible ladder, what
    // each rung is predicted to cost, and the rung each machine picks
    report.push_str("\n## Sweep-group ladder (Algorithm 2)\n\n```\n");
    let paper = ModelConfig::paper_50km();
    // the benchmark's two Algorithm 2 cells
    let small = ModelConfig {
        ny: 24,
        ..ModelConfig::test_medium()
    };
    let mid = ModelConfig {
        nx: 180,
        ny: 90,
        ..paper.clone()
    };
    let y2 = ProcessGrid::yz(2, 1).expect("yz(2,1)");
    let mut grids = vec![("small 24x24x8", small, y2), ("mid 180x90x30", mid, y2)];
    grids.extend(certs.iter().map(|c| {
        let pg = agcm_verify::paper_yz_grid(c.p).expect("a certified rank count has a grid");
        ("paper 720x360x30", paper.clone(), pg)
    }));
    for (label, cfg, pg) in grids {
        for line in ladder_lines(label, &cfg, pg) {
            println!("{line}");
            report.push_str(&line);
            report.push('\n');
        }
    }
    report.push_str("```\n");
    println!(
        "ladder: every rung listed passed the matching, deadlock, count and\n\
         dataflow certification; the predicted terms are the critical path's,\n\
         core::analysis::predict's (left: bench host, right: tianhe2)."
    );
    // the cross-check pins the static model to the executing runtime
    report.push_str("\n## Runtime cross-checks\n\n");
    let cfg = ModelConfig::test_medium();
    let pg = ProcessGrid::yz(2, 2).unwrap();
    for alg in [AlgKind::OriginalYZ, AlgKind::CommAvoiding] {
        match agcm_verify::cross_check(&cfg, alg, pg) {
            Ok(_) => {
                println!("runtime cross-check {alg:?} @ 4 ranks: EXACT");
                report.push_str(&format!("- runtime cross-check {alg:?} @ 4 ranks: EXACT\n"));
            }
            Err(e) => {
                eprintln!("runtime cross-check {alg:?} FAILED:\n{e}");
                std::process::exit(1);
            }
        }
    }
    // and the trace stream (agcm-obs spans) to the static schedule
    for alg in [AlgKind::OriginalYZ, AlgKind::CommAvoiding] {
        match agcm_verify::trace_cross_check(&cfg, alg, pg) {
            Ok(rep) if rep.is_consistent() => {
                println!("trace cross-check {alg:?} @ 4 ranks: EXACT");
                report.push_str(&format!("- trace cross-check {alg:?} @ 4 ranks: EXACT\n"));
            }
            Ok(rep) => {
                eprintln!(
                    "trace cross-check {alg:?} FAILED:\n{}",
                    rep.errors.join("\n")
                );
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("trace cross-check {alg:?} FAILED:\n{e}");
                std::process::exit(1);
            }
        }
    }
    // publish the certification as a build artifact (CI uploads it)
    let out = std::path::Path::new("target/certification-report.md");
    std::fs::create_dir_all("target").expect("create target dir");
    std::fs::write(out, &report).expect("write certification report");
    println!("certification report written to {}", out.display());
}

/// The sweep-group ladder of Algorithm 2 on one grid: every rung certified
/// (matching, deadlock-freedom, counts, dataflow), its exchanges, messages
/// and bytes a step, and its predicted step under the bench host's
/// constants and the paper machine's, with the rung each would pick.
fn ladder_lines(label: &str, cfg: &ModelConfig, pg: ProcessGrid) -> Vec<String> {
    use agcm_core::analysis::{ca_ladder, ca_pick};
    use agcm_core::par::schedule;
    let (_, py, pz) = pg.dims();
    let machines = [CostModel::BENCH_HOST, CostModel::tianhe2()];
    let picks = machines.map(|m| ca_pick(cfg, &pg, &m).0);
    let mut lines = vec![format!(
        "{label} yz({py},{pz}): {} picks g = {}, {} picks g = {}",
        machines[0].name, picks[0], machines[1].name, picks[1]
    )];
    lines.push(format!(
        "{:>4} {:>5} {:>4} {:>5} {:>5} {:>9} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
        "g",
        "fuse",
        "g_a",
        "exch",
        "msgs",
        "bytes",
        "comm ms",
        "comp ms",
        "total ms",
        "comm ms",
        "comp ms",
        "total ms"
    ));
    let fail = |g: usize, e: &dyn std::fmt::Display| -> ! {
        eprintln!("CERTIFICATION FAILED: {label} yz({py},{pz}) g = {g}: {e}");
        std::process::exit(1);
    };
    for (g, fuse, ga) in ca_ladder(cfg, &pg) {
        let mode = CaMode::Groups(g, fuse, ga);
        if let Err(e) = agcm_verify::certify_one(cfg, AlgKind::CommAvoiding, mode, pg) {
            fail(g, &e);
        }
        let exch = schedule::exchange_count(&schedule::alg2_step_for(cfg, &pg, g, fuse, ga));
        let cost = machines.map(|m| {
            analysis::predict(cfg, AlgKind::CommAvoiding, pg, mode, &m)
                .unwrap_or_else(|e| fail(g, &e))
        });
        // the critical path's terms
        let terms = |c: &Prediction| {
            format!(
                "{:>9.3} {:>9.3} {:>9.3}",
                (c.path.stencil_s() + c.path.collective_s) * 1e3,
                c.path.compute_s * 1e3,
                c.makespan_s * 1e3
            )
        };
        let busiest = cost[0].ranks.iter().max_by_key(|r| (r.elems, r.msgs));
        let (msgs, elems) = busiest.map_or((0, 0), |r| (r.msgs, r.elems));
        lines.push(format!(
            "{g:>4} {fuse:>5} {ga:>4} {exch:>5} {msgs:>5} {:>9} | {} | {}",
            elems * 8,
            terms(&cost[0]),
            terms(&cost[1])
        ));
    }
    lines
}
