//! Layer probes: the benchmark times a layer's public function itself, on
//! rank 0's share of the workload's mesh (1 warm call, then 7 timed calls
//! — 3 when one call takes longer than a quarter second — and the median).

use crate::model::{initial_condition, launch};
use crate::paths;
use crate::stats::{best_case, fit_alpha_beta, median};
use crate::workloads::{Alg, Mesh, Workload};
use agcm_comm::Communicator;
use agcm_core::access::{self, AccessSpec};
use agcm_core::adaptation::adaptation_tendency;
use agcm_core::advection::advection_tendency;
use agcm_core::analysis::ca_group_size;
use agcm_core::dycore::Engine;
use agcm_core::filterop::filter_state_local;
use agcm_core::par::exchange::{state_fields, HaloExchanger};
use agcm_core::par::schedule;
use agcm_core::resilience::Checkpoint;
use agcm_core::serial::SerialModel;
use agcm_core::smoothing::{smooth_rows, RowMask};
use agcm_core::vertical::{apply_c, ZContext};
use agcm_core::{
    pool, read_checkpoint, tables, write_checkpoint, LocalGeometry, ModelConfig, State,
};
use agcm_fft::FilterScratch;
use agcm_mesh::{Decomposition, HaloWidths};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Median seconds of one call of `f`, with an untimed `reset` before each
/// call: 1 warm call, then `calls` timed ones — by default 7, or 3 when the
/// warm call took longer than a quarter second.
fn timed_calls(calls: Option<usize>, mut reset: impl FnMut(), mut f: impl FnMut()) -> f64 {
    let mut once = || {
        reset();
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let warm = once();
    let calls = calls.unwrap_or(if warm > 0.25 { 3 } else { 7 });
    median(&(0..calls).map(|_| once()).collect::<Vec<f64>>())
}

fn timed(f: impl FnMut()) -> f64 {
    timed_calls(None, || {}, f)
}

/// The halo a workload's model allocates around its fields.
fn model_halo(w: &Workload, cfg: &ModelConfig) -> HaloWidths {
    match w.alg {
        Alg::Alg2 => {
            let (g, fuse, ga) = ca_group_size(cfg, &w.process_grid());
            let d = schedule::ca_depths(g, fuse, ga);
            d.deep.max(d.shallow).max(d.smooth)
        }
        _ => HaloWidths::for_footprint(&tables::per_sweep_union()),
    }
}

/// Depth of the workload's characteristic halo exchange.
fn exchange_depth(w: &Workload, cfg: &ModelConfig) -> HaloWidths {
    match w.alg {
        Alg::Alg2 => {
            let (g, fuse, ga) = ca_group_size(cfg, &w.process_grid());
            schedule::ca_depths(g, fuse, ga).deep
        }
        _ => schedule::depth_sweep(),
    }
}

fn rank0_geometry(w: &Workload, cfg: &ModelConfig) -> Result<LocalGeometry, String> {
    let grid = Arc::new(cfg.grid().map_err(|e| e.to_string())?);
    let decomp = Decomposition::new(cfg.extents(), w.process_grid()).map_err(|e| e.to_string())?;
    Ok(LocalGeometry::new(
        cfg,
        grid,
        &decomp,
        0,
        model_halo(w, cfg),
    ))
}

pub struct KernelProbe {
    pub ns_name: &'static str,
    pub ns_per_point: f64,
    /// Bytes the kernel's declared arrays hold, once each, over the time:
    /// *computed*, not measured traffic.
    pub gbps: Option<(&'static str, f64)>,
    /// Time at one pool worker ÷ time at the workload's worker count.
    pub pool_speedup: Option<(&'static str, f64)>,
}

/// Bytes of every array `spec` declares, each counted once per access.
fn computed_bytes(spec: &AccessSpec, geom: &LocalGeometry) -> f64 {
    let plane = (geom.nx * geom.ny) as f64;
    spec.fields
        .iter()
        .map(|a| match a.field {
            "psa" | "vsum" | "dsa" => plane,
            _ => plane * geom.nz as f64,
        })
        .sum::<f64>()
        * 8.0
}

/// `(seconds at the ambient worker count, seconds at one worker)`; with
/// one ambient worker the two are the same measurement.
fn at_both_worker_counts(pooled: bool, mut probe: impl FnMut() -> f64) -> (f64, f64) {
    let secs = probe();
    let single = if pooled {
        pool::with_workers(1, &mut probe)
    } else {
        secs
    };
    (secs, single)
}

/// Names of a stencil kernel's three figures and its `core::access` key.
struct Stencil {
    ns: &'static str,
    gbps: &'static str,
    pool: &'static str,
    spec: &'static str,
}

const ADAPTATION: Stencil = Stencil {
    ns: "core.adaptation.ns_per_point",
    gbps: "core.adaptation.gbps_computed",
    pool: "core.pool.kernel_speedup.adaptation",
    spec: "adaptation",
};
const ADVECTION: Stencil = Stencil {
    ns: "core.advection.ns_per_point",
    gbps: "core.advection.gbps_computed",
    pool: "core.pool.kernel_speedup.advection",
    spec: "advection",
};
const SMOOTHING: Stencil = Stencil {
    ns: "core.smoothing.ns_per_point",
    gbps: "core.smoothing.gbps_computed",
    pool: "core.pool.kernel_speedup.smoothing",
    spec: "smooth.s1",
};
const VERTICAL: Stencil = Stencil {
    ns: "core.vertical.ns_per_point",
    gbps: "core.vertical.gbps_computed",
    pool: "core.pool.kernel_speedup.vertical",
    spec: "vertical.c",
};

impl Stencil {
    fn figures(&self, geom: &LocalGeometry, (secs, single): (f64, f64)) -> KernelProbe {
        let spec = access::spec(self.spec).expect("kernel registered in core::access");
        let points = (geom.nx * geom.ny * geom.nz) as f64;
        KernelProbe {
            ns_name: self.ns,
            ns_per_point: secs * 1e9 / points,
            gbps: Some((self.gbps, computed_bytes(spec, geom) / secs / 1e9)),
            pool_speedup: Some((self.pool, single / secs)),
        }
    }
}

/// Time the six kernels and the FFT row filter on rank 0's geometry.
pub fn kernels(w: &Workload, cfg: &ModelConfig, seed: u64) -> Result<Vec<KernelProbe>, String> {
    let mut engine = Engine::new(cfg, rank0_geometry(w, cfg)?, true);
    let region = engine.geom.interior();
    let halo = engine.geom.halo;
    let pooled = w.threads > 1;

    // inputs: the run's initial condition, boundaries filled, and the C
    // diagnostics computed from it — the data the first step sees
    let mut arg = initial_condition(&engine.geom, seed);
    engine.fill(&mut arg);
    let (gy0, gy1) = (-(halo.ym as isize), (engine.geom.ny + halo.yp) as isize);
    engine
        .diag
        .update_surface(&engine.geom, &engine.stdatm, &arg, gy0, gy1);
    let run_c = |engine: &mut Engine| {
        apply_c(
            &engine.geom,
            &engine.stdatm,
            &arg,
            &mut engine.diag,
            region,
            &ZContext::Serial,
            true,
        )
        .expect("the serial C has no communication to fail");
    };
    let vertical = at_both_worker_counts(pooled, || timed(|| run_c(&mut engine)));
    let mut out = vec![VERTICAL.figures(&engine.geom, vertical)];

    let (geom, diag, filter) = (&engine.geom, &engine.diag, &engine.filter);
    let mut tend = State::like(&arg);
    let t = at_both_worker_counts(pooled, || {
        timed(|| adaptation_tendency(geom, &arg, diag, &mut tend, region))
    });
    out.push(ADAPTATION.figures(geom, t));
    let t = at_both_worker_counts(pooled, || {
        timed(|| advection_tendency(geom, &arg, diag, &mut tend, region))
    });
    out.push(ADVECTION.figures(geom, t));
    let t = at_both_worker_counts(pooled, || {
        timed(|| {
            smooth_rows(
                geom,
                cfg.smooth_beta,
                &arg,
                &mut tend,
                region,
                RowMask::FULL,
                false,
            )
        })
    });
    out.push(SMOOTHING.figures(geom, t));

    // the polar filter, per filtered point; every call filters a fresh copy
    // so repeated damping cannot drive the data towards denormals
    let global_row = |j: isize| geom.global_j(j).clamp(0, geom.grid.ny() as i64 - 1) as usize;
    let n_active = (0..geom.ny as isize)
        .filter(|&j| filter.is_active(global_row(j)))
        .count();
    let filtered = (n_active * geom.nx * (3 * geom.nz + 1)).max(1) as f64;
    let mut scratch = FilterScratch::new();
    let (secs, single) = at_both_worker_counts(pooled, || {
        let work = std::cell::RefCell::new(&mut tend);
        timed_calls(
            None,
            || work.borrow_mut().copy_from(&arg),
            || filter_state_local(geom, filter, &mut work.borrow_mut(), region, &mut scratch),
        )
    });
    out.push(KernelProbe {
        ns_name: "core.filterop.ns_per_point",
        ns_per_point: secs * 1e9 / filtered,
        gbps: None,
        pool_speedup: Some(("core.pool.kernel_speedup.filterop", single / secs)),
    });

    // one FFT-filtered longitude circle per active global row
    let pristine: Vec<f64> = arg.phi.row(0, geom.nx as isize, 0, 0).to_vec();
    let mut row = pristine.clone();
    let active: Vec<usize> = (0..geom.grid.ny())
        .filter(|&j| filter.is_active(j))
        .collect();
    let secs = timed(|| {
        for &j in &active {
            row.copy_from_slice(&pristine);
            filter.apply_row_with(j, &mut row, &mut scratch);
        }
        black_box(&row);
    });
    out.push(KernelProbe {
        ns_name: "fft.filter_row.ns_per_point",
        ns_per_point: secs * 1e9 / (active.len().max(1) * geom.nx) as f64,
        gbps: None,
        pool_speedup: None,
    });

    // Held–Suarez forcing through the engine (a no-op where the mesh's
    // configuration has it off)
    let points = (geom.nx * geom.ny * geom.nz) as f64;
    tend.copy_from(&arg);
    let secs = timed(|| engine.apply_forcing(&mut tend, region));
    out.push(KernelProbe {
        ns_name: "core.forcing.ns_per_point",
        ns_per_point: secs * 1e9 / points,
        gbps: None,
        pool_speedup: None,
    });
    Ok(out)
}

/// Best-case seconds of a serial step of the workload's iteration at one
/// worker: the numerator of `step.parallel_efficiency`.  A workload that is
/// itself serial at one worker is its own anchor; `None` on the paper mesh,
/// where three serial steps cost half a minute.
pub fn serial_anchor(
    w: &Workload,
    cfg: &ModelConfig,
    seed: u64,
    step_s: f64,
) -> Result<Option<f64>, String> {
    if w.ranks() * w.threads == 1 {
        return Ok(Some(step_s));
    }
    if w.mesh == Mesh::Paper {
        return Ok(None);
    }
    pool::with_workers(1, || {
        let mut m = SerialModel::new(cfg, w.alg.iteration()).map_err(|e| e.to_string())?;
        let ic = initial_condition(m.geom(), seed);
        m.set_state(&ic);
        let mut step = || {
            let t = Instant::now();
            m.step();
            t.elapsed().as_secs_f64()
        };
        // three steps, or as many as fit in half a second on small meshes
        let warm = step();
        let n = ((0.5 / warm) as usize).clamp(3, 200);
        let mut steps: Vec<f64> = (0..n).map(|_| step()).collect();
        steps.sort_by(f64::total_cmp);
        Ok(Some(best_case(&steps)))
    })
}

pub struct CkptProbe {
    pub bytes: u64,
    pub write_s: f64,
    pub read_s: f64,
}

/// Write and read back `ck` in a scratch directory under `out/`.
pub fn checkpoint(ck: &Checkpoint) -> Result<CkptProbe, String> {
    let dir = paths::scratch_dir("ckpt")?;
    let path = dir.join("rank0.ckpt");
    let mut error = None;
    let mut note = |r: std::io::Result<()>| {
        if let Err(e) = r {
            error.get_or_insert(e.to_string());
        }
    };
    let write_s = timed(|| note(write_checkpoint(&path, ck)));
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let read_s = timed(|| note(read_checkpoint(&path).map(|back| drop(black_box(back)))));
    let _ = std::fs::remove_dir_all(&dir);
    match error {
        Some(e) => Err(format!("checkpoint probe: {e}")),
        None => Ok(CkptProbe {
            bytes,
            write_s,
            read_s,
        }),
    }
}

/// Payloads of the ping-pong ladder, in `f64` elements, with round trips.
const LADDER: [(usize, usize); 5] = [
    (1, 400),
    (128, 400),
    (1024, 300),
    (8192, 100),
    (131_072, 30),
];

pub const PINGPONG_NAMES: [&str; 5] = [
    "comm.pingpong.half_rtt_s.8B",
    "comm.pingpong.half_rtt_s.1KiB",
    "comm.pingpong.half_rtt_s.8KiB",
    "comm.pingpong.half_rtt_s.64KiB",
    "comm.pingpong.half_rtt_s.1MiB",
];

#[derive(Debug, Clone, Default)]
pub struct CommProbe {
    pub half_rtt_s: Vec<f64>,
    pub alpha_s: f64,
    pub beta_s_per_byte: f64,
    pub fit_rel_rmse: f64,
    pub exchange_post_s: f64,
    pub exchange_finish_s: f64,
    pub allgather_s: f64,
    pub barrier_s: f64,
}

const PING_TAG: u32 = 7;
/// Untimed round trips before each rung (reader threads and caches settle).
const WARM_TRIPS: usize = 50;

fn comm_probe_rank(w: &Workload, cfg: &ModelConfig, c: &Communicator) -> Result<CommProbe, String> {
    let e = |e: agcm_comm::CommError| e.to_string();
    let rank = c.rank();
    let peer = 1 - rank;
    let mut out = CommProbe::default();

    // ping-pong: median half round trip per rung
    let mut ladder = Vec::new();
    for &(elems, trips) in &LADDER {
        let buf = vec![1.0f64; elems];
        c.barrier().map_err(e)?;
        let mut rtts = Vec::with_capacity(trips);
        for trip in 0..trips + WARM_TRIPS {
            let t = Instant::now();
            if rank == 0 {
                c.send(peer, PING_TAG, &buf).map_err(e)?;
                black_box(c.recv(peer, PING_TAG).map_err(e)?);
            } else {
                black_box(c.recv(peer, PING_TAG).map_err(e)?);
                c.send(peer, PING_TAG, &buf).map_err(e)?;
            }
            if trip >= WARM_TRIPS {
                rtts.push(t.elapsed().as_secs_f64());
            }
        }
        let half = 0.5 * median(&rtts);
        out.half_rtt_s.push(half);
        ladder.push((8.0 * elems as f64, half));
    }
    (out.alpha_s, out.beta_s_per_byte, out.fit_rel_rmse) = fit_alpha_beta(&ladder);

    // halo exchange of the four state fields at the workload's depth,
    // split at the post/finish seam; a barrier aligns the ranks first
    let decomp = Decomposition::new(cfg.extents(), w.process_grid()).map_err(|e| e.to_string())?;
    let (nx, ny, nz) = decomp.subdomain(rank).extents();
    let mut st = State::new(nx, ny, nz, model_halo(w, cfg));
    let mut exchanger = HaloExchanger::new(decomp, rank);
    let depth = exchange_depth(w, cfg);
    let (mut posts, mut finishes) = (Vec::new(), Vec::new());
    for round in 0..8 {
        c.barrier().map_err(e)?;
        let t = Instant::now();
        let pending = exchanger
            .post_sends(c, depth, &mut state_fields(&mut st))
            .map_err(e)?;
        let posted = t.elapsed().as_secs_f64();
        exchanger
            .finish_recvs(c, pending, &mut state_fields(&mut st))
            .map_err(e)?;
        if round > 0 {
            posts.push(posted);
            finishes.push(t.elapsed().as_secs_f64() - posted);
        }
    }
    out.exchange_post_s = median(&posts);
    out.exchange_finish_s = median(&finishes);

    // collectives: the z-column slab `apply_c` allgathers, and a barrier
    let slab = vec![0.0f64; nx * (2 * ny + 2)];
    let mut fail = None;
    // a fixed call count: both ranks must enter each collective equally often
    out.allgather_s = timed_calls(
        Some(7),
        || {},
        || match c.allgather(&slab) {
            Ok(all) => drop(black_box(all)),
            Err(err) => fail = Some(err.to_string()),
        },
    );
    out.barrier_s = timed_calls(
        Some(7),
        || {},
        || {
            if let Err(err) = c.barrier() {
                fail = Some(err.to_string());
            }
        },
    );
    fail.map_or(Ok(out), Err)
}

/// Probe the transport, exchange and collective layers in a fresh world of
/// the workload's size and transport; rank 0's figures are reported.
pub fn comm_layers(w: &Workload, cfg: &ModelConfig) -> Result<CommProbe, String> {
    let outs = launch(w, |comm| {
        let c = comm.ok_or("the comm probes need a communicator")?;
        comm_probe_rank(w, cfg, c)
    })?;
    outs.into_iter().next().ok_or("world without ranks")?
}
