//! One interface over the three integrators, and the launch of a
//! workload's world.  Only un-suffixed public entry points of the
//! repository's crates are used here and in the probes.

use crate::paths;
use crate::workloads::{Alg, Transport, Workload};
use agcm_comm::{Communicator, Endpoint, Universe};
use agcm_core::par::alg1::{gather_state_impl, Alg1Model, GlobalState};
use agcm_core::par::alg2::CaModel;
use agcm_core::resilience::Checkpoint;
use agcm_core::serial::{Iteration, SerialModel};
use agcm_core::{init, LocalGeometry, ModelConfig};

/// The initial condition of every run: rest, a 150 Pa surface-pressure
/// bump and unit noise on `Φ`.  The workload seed enters here and nowhere
/// else.
pub fn initial_condition(geom: &LocalGeometry, seed: u64) -> agcm_core::State {
    init::perturbed_rest(geom, 150.0, 1.0, seed)
}

pub enum Model {
    Serial(Box<SerialModel>),
    Alg1(Box<Alg1Model>),
    Alg2(Box<CaModel>),
}

const NO_COMM: &str = "a parallel model needs a communicator";

fn need<'c>(comm: &Option<&'c Communicator>) -> Result<&'c Communicator, String> {
    comm.ok_or_else(|| NO_COMM.to_string())
}

impl Model {
    pub fn new(
        w: &Workload,
        cfg: &ModelConfig,
        comm: Option<&mut Communicator>,
    ) -> Result<Model, String> {
        let parallel = || comm.ok_or_else(|| NO_COMM.to_string());
        Ok(match w.alg {
            Alg::Serial => Model::Serial(Box::new(
                SerialModel::new(cfg, Iteration::Exact).map_err(|e| e.to_string())?,
            )),
            Alg::Alg1 => Model::Alg1(Box::new(
                Alg1Model::new(cfg, w.process_grid(), parallel()?).map_err(|e| e.to_string())?,
            )),
            Alg::Alg2 => Model::Alg2(Box::new(
                CaModel::new(cfg, w.process_grid(), parallel()?).map_err(|e| e.to_string())?,
            )),
        })
    }

    pub fn geom(&self) -> &LocalGeometry {
        match self {
            Model::Serial(m) => m.geom(),
            Model::Alg1(m) => m.geom(),
            Model::Alg2(m) => m.geom(),
        }
    }

    pub fn set_seeded_state(&mut self, seed: u64) {
        let ic = initial_condition(self.geom(), seed);
        match self {
            Model::Serial(m) => m.set_state(&ic),
            Model::Alg1(m) => m.set_state(&ic),
            Model::Alg2(m) => m.set_state(&ic),
        }
    }

    pub fn step(&mut self, comm: Option<&Communicator>) -> Result<(), String> {
        match self {
            Model::Serial(m) => {
                m.step();
                Ok(())
            }
            Model::Alg1(m) => m.step(need(&comm)?).map_err(|e| e.to_string()),
            Model::Alg2(m) => m.step(need(&comm)?).map_err(|e| e.to_string()),
        }
    }

    /// Apply what the last step deferred (Algorithm 2's smoothing).
    pub fn finish(&mut self, comm: Option<&Communicator>) -> Result<(), String> {
        match self {
            Model::Alg2(m) => m.finish(need(&comm)?).map_err(|e| e.to_string()),
            _ => Ok(()),
        }
    }

    /// The global state on rank 0, `None` elsewhere.
    pub fn gather(&self, comm: Option<&Communicator>) -> Result<Option<GlobalState>, String> {
        match self {
            Model::Serial(m) => Ok(Some(GlobalState::from_serial(&m.state, m.geom()))),
            Model::Alg1(m) => {
                gather_state_impl(&m.state, m.geom(), need(&comm)?).map_err(|e| e.to_string())
            }
            Model::Alg2(m) => {
                gather_state_impl(&m.state, m.geom(), need(&comm)?).map_err(|e| e.to_string())
            }
        }
    }

    pub fn capture(&self) -> Checkpoint {
        match self {
            Model::Serial(m) => m.capture(),
            Model::Alg1(m) => m.capture(),
            Model::Alg2(m) => m.capture(),
        }
    }

    /// Halo exchanges completed so far (0 for the serial model).
    pub fn exchange_count(&self) -> u64 {
        match self {
            Model::Serial(_) => 0,
            Model::Alg1(m) => m.exchange_count(),
            Model::Alg2(m) => m.exchange_count(),
        }
    }
}

/// Run `body` on every rank of a fresh world of the workload's size and
/// transport; rank results come back in rank order.  The serial workloads
/// run `body(None)` on the calling thread.
pub fn launch<T: Send>(
    w: &Workload,
    body: impl Fn(Option<&mut Communicator>) -> T + Sync,
) -> Result<Vec<T>, String> {
    match w.transport {
        Transport::None => Ok(vec![body(None)]),
        Transport::Mpsc => Ok(Universe::run(w.ranks(), |comm| body(Some(comm)))),
        Transport::Uds => {
            let base = paths::unique_name("ep")?;
            let endpoint = Endpoint::parse(&base.to_string_lossy())?;
            Ok(Universe::run_sockets(w.ranks(), &endpoint, |comm| {
                body(Some(comm))
            }))
        }
    }
}
