//! Static extraction of the per-step communication event graph.
//!
//! [`ScheduleGraph::extract`] replays the schedule metadata of
//! [`agcm_core::par::schedule`] through the same geometry the executing
//! exchanger uses — [`link_messages`] per rank, field set and depth (one
//! message per neighbour link), and [`wire_tag`]/[`dir_index`] for the exact
//! wire tags — to produce every send, receive and collective of one
//! steady-state time step, for every rank, **without spawning a thread**.
//!
//! The graph also stores each rank's *program*: its actions in issue order
//! (an exchange posts all sends, then blocks on its receives; a collective
//! is a barrier over its subcommunicator).  The deadlock analysis virtually
//! executes these programs; the mutation methods below deliberately corrupt
//! them so tests can show each analysis rejecting a broken schedule.

use agcm_core::analysis::{AlgKind, CaMode};
use agcm_core::par::schedule::{self, StepOp};
use agcm_core::par::{dir_index, link_messages, wire_tag};
use agcm_core::ModelConfig;
use agcm_mesh::{Decomposition, ProcessGrid};
use std::collections::HashMap;

/// One posted (buffered, non-blocking) send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendEvent {
    /// Sending rank.
    pub src: u32,
    /// Destination rank.
    pub dst: u32,
    /// Wire tag ([`wire_tag`]).
    pub tag: u32,
    /// Payload `f64` element count.
    pub elems: u64,
    /// Index into [`ScheduleGraph::ops`].
    pub op: u32,
}

/// One blocking receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvEvent {
    /// Receiving rank.
    pub rank: u32,
    /// Expected source rank.
    pub src: u32,
    /// Expected wire tag.
    pub tag: u32,
    /// Expected payload element count.
    pub elems: u64,
    /// Index into [`ScheduleGraph::ops`].
    pub op: u32,
    /// Tombstone set by [`ScheduleGraph::drop_recv`] (negative tests).
    pub dropped: bool,
}

/// One entry of a rank's program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Post send `sends[i]` (never blocks: the runtime's sends are eager).
    Send(u32),
    /// Block until send matching `recvs[i]` has been posted.
    Recv(u32),
    /// Enter barrier `groups[i]` (models a collective: no rank leaves a
    /// collective before every member has entered it).
    Barrier(u32),
}

/// The statically extracted communication schedule of one time step.
#[derive(Debug, Clone)]
pub struct ScheduleGraph {
    /// Number of ranks.
    pub p: usize,
    /// The step's operation list (identical on every rank — SPMD).
    pub ops: Vec<StepOp>,
    /// All send events, in rank-major program order.
    pub sends: Vec<SendEvent>,
    /// All receive events, in rank-major program order.
    pub recvs: Vec<RecvEvent>,
    /// Collective barrier instances: member ranks of each.
    pub groups: Vec<Vec<u32>>,
    /// Per-rank action sequences.
    pub programs: Vec<Vec<Action>>,
}

impl ScheduleGraph {
    /// Extract the steady-state step schedule of `alg` on `pgrid`.
    ///
    /// `mode` selects the CA accounting ([`CaMode`]); it is ignored for
    /// Algorithm 1.  Fails on invalid configurations (e.g. Algorithm 2 on
    /// an X-Y grid), mirroring the model constructors.
    pub fn extract(
        cfg: &ModelConfig,
        alg: AlgKind,
        mode: CaMode,
        pgrid: ProcessGrid,
    ) -> Result<ScheduleGraph, String> {
        if alg == AlgKind::CommAvoiding && pgrid.px() != 1 {
            return Err("Algorithm 2 requires a Y-Z decomposition (p_x = 1)".into());
        }
        let ops = match alg {
            AlgKind::CommAvoiding => schedule::alg2_step(cfg, &pgrid, mode),
            _ => schedule::alg1_step(cfg, &pgrid),
        };
        Self::of_program(cfg, pgrid, &ops)
    }

    /// Extract the event graph of a step program — e.g. the one a live
    /// integrator executes (`Integrator::program`) — on `pgrid`.
    pub fn of_program(
        cfg: &ModelConfig,
        pgrid: ProcessGrid,
        ops: &[StepOp],
    ) -> Result<ScheduleGraph, String> {
        let decomp = Decomposition::new(cfg.extents(), pgrid)
            .map_err(|e| format!("invalid decomposition: {e}"))?;
        let p = pgrid.size();
        let (_, _, pz) = pgrid.dims();
        let px = pgrid.px();
        let mut g = ScheduleGraph {
            p,
            ops: ops.to_vec(),
            sends: Vec::new(),
            recvs: Vec::new(),
            groups: Vec::new(),
            programs: Vec::with_capacity(p),
        };
        // barrier instance per (collective op, subcommunicator color)
        let mut barrier_ids: HashMap<(u32, u32, u32), u32> = HashMap::new();
        for rank in 0..p {
            let ext = decomp.subdomain(rank).extents();
            let (cx, cy, cz) = pgrid.coords(rank);
            let mut prog = Vec::new();
            let mut seq: u64 = 0;
            for (oi, op) in ops.iter().enumerate() {
                match op {
                    StepOp::Exchange(ex) => {
                        let geoms: Vec<_> =
                            ex.fields.shapes().iter().map(|s| s.geom(ext)).collect();
                        let msgs = link_messages(&decomp, rank, ex.depth, &geoms);
                        let recv0 = g.recvs.len() as u32;
                        for msg in &msgs {
                            let (dx, dy, dz) = msg.link.offset;
                            let from = dir_index((-dx, -dy, -dz));
                            let send_tag = wire_tag(seq, dir_index(msg.link.offset));
                            let recv_tag = wire_tag(seq, from);
                            prog.push(Action::Send(g.sends.len() as u32));
                            g.sends.push(SendEvent {
                                src: rank as u32,
                                dst: msg.link.rank as u32,
                                tag: send_tag,
                                elems: msg.send_elems() as u64,
                                op: oi as u32,
                            });
                            g.recvs.push(RecvEvent {
                                rank: rank as u32,
                                src: msg.link.rank as u32,
                                tag: recv_tag,
                                elems: msg.recv_elems() as u64,
                                op: oi as u32,
                                dropped: false,
                            });
                        }
                        prog.extend((recv0..g.recvs.len() as u32).map(Action::Recv));
                        seq += 1;
                    }
                    StepOp::ZAllgather => {
                        debug_assert!(pz > 1);
                        let key = (oi as u32, cx as u32, cy as u32);
                        let id = *barrier_ids.entry(key).or_insert_with(|| {
                            g.groups.push(Vec::new());
                            (g.groups.len() - 1) as u32
                        });
                        g.groups[id as usize].push(rank as u32);
                        prog.push(Action::Barrier(id));
                    }
                    StepOp::FilterTranspose => {
                        debug_assert!(px > 1);
                        let key = (oi as u32, cy as u32, cz as u32);
                        let id = *barrier_ids.entry(key).or_insert_with(|| {
                            g.groups.push(Vec::new());
                            (g.groups.len() - 1) as u32
                        });
                        g.groups[id as usize].push(rank as u32);
                        prog.push(Action::Barrier(id));
                    }
                    // kernel applications carry no communication events;
                    // the dataflow pass (`crate::dataflow`) replays them
                    StepOp::Compute(_) => {}
                }
            }
            g.programs.push(prog);
        }
        Ok(g)
    }

    /// Number of halo exchanges per step (same on every rank).
    pub fn exchange_ops(&self) -> u64 {
        schedule::exchange_count(&self.ops)
    }

    /// Number of collective calls per rank per step.
    pub fn collective_ops(&self) -> u64 {
        schedule::collective_count(&self.ops)
    }

    // --- deliberate corruption, for negative tests -----------------------

    /// Flip tag bits of the `nth` send of `rank`.  Returns false when the
    /// rank has fewer sends.
    pub fn retag_send(&mut self, rank: usize, nth: usize, xor: u32) -> bool {
        let mut seen = 0;
        for s in self.sends.iter_mut() {
            if s.src == rank as u32 {
                if seen == nth {
                    s.tag ^= xor;
                    return true;
                }
                seen += 1;
            }
        }
        false
    }

    /// Delete the `nth` receive of `rank` (the rank simply never posts it).
    pub fn drop_recv(&mut self, rank: usize, nth: usize) -> bool {
        let mut seen = 0;
        for r in self.recvs.iter_mut() {
            if r.rank == rank as u32 && !r.dropped {
                if seen == nth {
                    r.dropped = true;
                    return true;
                }
                seen += 1;
            }
        }
        false
    }

    /// Reorder exchange `op` on **every** rank so its receives are issued
    /// before its sends — the classic head-of-line blocking schedule that
    /// deadlocks without buffered sends.
    pub fn recvs_before_sends(&mut self, op: usize) {
        for prog in self.programs.iter_mut() {
            let belongs = |a: &Action, sends: &[SendEvent], recvs: &[RecvEvent]| match a {
                Action::Send(i) => sends[*i as usize].op == op as u32,
                Action::Recv(i) => recvs[*i as usize].op == op as u32,
                Action::Barrier(_) => false,
            };
            let idx: Vec<usize> = (0..prog.len())
                .filter(|&i| belongs(&prog[i], &self.sends, &self.recvs))
                .collect();
            let mut reordered: Vec<Action> = idx
                .iter()
                .map(|&i| prog[i])
                .filter(|a| matches!(a, Action::Recv(_)))
                .collect();
            reordered.extend(
                idx.iter()
                    .map(|&i| prog[i])
                    .filter(|a| matches!(a, Action::Send(_))),
            );
            for (&i, a) in idx.iter().zip(reordered) {
                prog[i] = a;
            }
        }
    }

    /// Swap the first two barrier entries of `rank`'s program — a
    /// collective-order mismatch across ranks.  Returns false when the rank
    /// enters fewer than two barriers.
    pub fn swap_barriers(&mut self, rank: usize) -> bool {
        let prog = &mut self.programs[rank];
        let bars: Vec<usize> = (0..prog.len())
            .filter(|&i| matches!(prog[i], Action::Barrier(_)))
            .collect();
        if bars.len() < 2 {
            return false;
        }
        prog.swap(bars[0], bars[1]);
        true
    }
}
