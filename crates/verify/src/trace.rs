//! The trace check of an in-process world.
//!
//! The span tracer (`agcm-obs`) observes the *executing* integrators from
//! the inside: one `ExchangeWait` span per completed halo exchange, one
//! `Collective` span per collective call (tagged with the operator phase it
//! ran under).  [`trace_cross_check`] runs a real thread-backed model for
//! two steps, keeps the second (steady-state) step — as `agcm-run --trace`
//! does — and hands it to [`crate::critpath::analyze`] against the graph of
//! the program the model walked: the paper's `3M + 4` (Algorithm 1) and
//! `2` (Algorithm 2) exchanges per step, and the §4.2.2 `3M → 2M`
//! vertical-collective cut.
//!
//! Where [`crate::runtime`] pins the static model to the runtime's *byte
//! counters*, this pins it to the *trace stream* — the same stream the
//! Chrome-trace exporter and overlap profile consume — so a span that goes
//! missing (or double-fires) in the instrumentation is caught here.

use crate::critpath::{self, CriticalPathReport};
use crate::graph::ScheduleGraph;
use agcm_comm::Universe;
use agcm_core::analysis::AlgKind;
use agcm_core::{init, Integrator, ModelConfig};
use agcm_mesh::ProcessGrid;
use agcm_obs as obs;

/// The step the check keeps: the models stamp spans with their
/// pre-increment step counter, so the warm-up records step 0 and the
/// steady-state step (warm `C` cache, pending smoothing) step 1.
const MEASURED_STEP: u64 = 1;

/// Run `alg` on `pgrid` under the tracer for two steps and join the
/// steady-state step's spans to the program the integrator walked.
///
/// Takes the process-global tracer exclusively for the duration (see
/// [`agcm_obs::exclusive`]); prior buffered events are discarded.  `Err`
/// when the model does not run; otherwise the verdict is the report's
/// [`CriticalPathReport::is_consistent`].
pub fn trace_cross_check(
    cfg: &ModelConfig,
    alg: AlgKind,
    pgrid: ProcessGrid,
) -> Result<CriticalPathReport, String> {
    let _guard = obs::exclusive();
    obs::reset();
    obs::enable();
    let run_cfg = cfg.clone();
    let programs = Universe::run(pgrid.size(), move |comm| {
        let mut m = Integrator::parallel(&run_cfg, alg, pgrid, comm).map_err(|e| e.to_string())?;
        let ic = init::perturbed_rest(m.geom(), 100.0, 1.0, 3);
        m.set_state(&ic);
        for _ in 0..=MEASURED_STEP {
            m.step(Some(comm)).map_err(|e| e.to_string())?;
        }
        Ok::<_, String>(m.program().to_vec())
    });
    obs::disable();
    let events: Vec<obs::Event> = obs::drain()
        .into_iter()
        .filter(|e| e.step == MEASURED_STEP)
        .collect();
    // SPMD: every rank walked the same program
    let programs = programs.into_iter().collect::<Result<Vec<_>, _>>()?;
    let graph = ScheduleGraph::of_program(cfg, pgrid, &programs[0])?;
    Ok(critpath::analyze(&events, &graph))
}
