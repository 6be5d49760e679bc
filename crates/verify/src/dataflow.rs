//! Stencil dataflow certification: prove every kernel read of a step
//! schedule is covered by the halo layers the preceding exchange shipped.
//!
//! The count analyses ([`crate::counts`]) certify *how much* the schedules
//! communicate; this module certifies that what they communicate is
//! *enough*.  It virtually executes the per-step operation list
//! ([`agcm_core::par::schedule`]) against the per-kernel access
//! declarations ([`agcm_core::access`]), tracking, per buffer and per
//! axis side, how many halo layers are currently valid:
//!
//! * an [`StepOp::Exchange`] makes `min(depth, block extent)` layers of
//!   its field list valid (a single-hop exchange can never ship more rows
//!   than the neighbouring rank owns — the clamp that forces
//!   [`agcm_core::analysis::ca_group_size`] to group sweeps),
//! * a [`StepOp::Compute`] at validity dilation `d` *requires*
//!   `max(0, d + extent)` valid layers for every declared read, then
//!   leaves its outputs valid to exactly `d` layers (plus the declared
//!   write growth: `φ'` one extra row, `g_w` one extra interface),
//! * the collective operator `C` consumes one pending
//!   [`StepOp::ZAllgather`] whenever a sub-update runs it fresh with
//!   `p_z > 1` — so deleting a collective whose column sums are still
//!   read is caught, not just miscounted,
//! * the whole-x filter consumes two pending
//!   [`StepOp::FilterTranspose`] legs when x is decomposed.
//!
//! [`check`] either returns a [`FlowProof`] — every read of the step was
//! covered, with the tightest margin observed — or the first
//! [`Counterexample`], naming the operator, field, axis side, uncovered
//! offset and failing op index.  The negative-test helpers
//! ([`shrink_exchange`], [`drop_collective`]) and
//! [`agcm_core::par::schedule::alg2_step_for`] (over-fused what-if
//! schedules) exist so tests can show the analyzer *rejecting* broken
//! schedules, not merely blessing good ones.

use agcm_core::access::{self, AccessSpec, FieldAccess};
use agcm_core::analysis::{AlgKind, CaMode};
use agcm_core::par::schedule::{self, CSource, ComputeOp, ExchangeOp, StepOp};
use agcm_core::ModelConfig;
use agcm_mesh::{Axis, ProcessGrid};
use std::fmt;

/// "Unbounded" halo validity: the axis is not decomposed (its halo is
/// maintained locally — periodic wrap in x, physical boundary fill in
/// y/z), so no read can outrun it.
const INF: u64 = u64::MAX;

/// Side index: `[x−, x+, y−, y+, z−, z+]`.
const SIDES: usize = 6;

fn side_axis(side: usize) -> Axis {
    Axis::ALL[side / 2]
}

/// Per-side valid halo layers of one buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Avail([u64; SIDES]);

impl Avail {
    fn uniform(v: u64) -> Self {
        Avail([v; SIDES])
    }
}

/// Why a schedule failed certification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// A declared read reaches beyond the valid halo layers.
    UncoveredHalo,
    /// A sub-update runs the collective `C` fresh but no z-allgather
    /// precedes it — its column sums would use stale remote blocks.
    MissingCollective,
    /// The schedule emitted a compute op with no [`access`] registry
    /// entry, so its read footprint cannot be proved (e.g. an
    /// over-fused kernel that was never certified).
    UnregisteredOp,
    /// The whole-x filter runs without its two transpose legs.
    MissingTranspose,
}

/// The first uncovered read of a broken schedule: operator, field, offset
/// and step, as the tentpole demands.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Failure class.
    pub kind: FailureKind,
    /// Index into the step's operation list.
    pub op_index: usize,
    /// Human description of the failing kernel application, e.g.
    /// `"adaptation (sweep 4, sub-update 1)"`.
    pub operator: String,
    /// The field whose read is uncovered.
    pub field: &'static str,
    /// Axis of the uncovered offset.
    pub axis: Axis,
    /// `true` when the positive side of the axis fails.
    pub positive: bool,
    /// Halo layers the read requires (the uncovered offset's magnitude).
    pub needed: u64,
    /// Halo layers actually valid.
    pub have: u64,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.positive { "+" } else { "−" };
        match self.kind {
            FailureKind::UncoveredHalo => write!(
                f,
                "op {}: {} reads `{}` at {}{sign}{} but only {} halo layer(s) are valid",
                self.op_index, self.operator, self.field, self.axis, self.needed, self.have
            ),
            FailureKind::MissingCollective => write!(
                f,
                "op {}: {} runs C fresh on `{}` whole-column sums with no z-allgather pending",
                self.op_index, self.operator, self.field
            ),
            FailureKind::UnregisteredOp => write!(
                f,
                "op {}: {} is not in the access registry — footprint unprovable",
                self.op_index, self.operator
            ),
            FailureKind::MissingTranspose => write!(
                f,
                "op {}: {} needs 2 filter-transpose legs for whole-x `{}` rows, {} pending",
                self.op_index, self.operator, self.field, self.have
            ),
        }
    }
}

/// Proof that every read of the step was covered.
#[derive(Debug, Clone, Copy)]
pub struct FlowProof {
    /// Operations replayed.
    pub ops: usize,
    /// Kernel applications checked.
    pub computes: usize,
    /// Exchanges applied.
    pub exchanges: usize,
    /// Z-allgathers consumed by fresh `C` runs.
    pub collectives_consumed: usize,
    /// Individual (field, axis side) read requirements discharged.
    pub reads_checked: u64,
    /// Smallest `valid − required` slack over all finite checks; `Some(0)`
    /// means some exchange depth is *exactly* consumed — the schedule has
    /// no wasted halo.
    pub min_margin: Option<u64>,
}

struct FlowState {
    /// Valid halo layers of the evaluation state (`u, v, φ, p_sa` travel
    /// together).
    eval: Avail,
    /// Valid halo layers of the iteration base (the state the first
    /// sub-update of the iteration evaluated).
    base: Avail,
    /// Valid halo layers of the cached `C` outputs.
    vsum: Avail,
    gw: Avail,
    phi_p: Avail,
    /// Z-allgathers announced but not yet consumed by a fresh `C`.
    pending_allgathers: usize,
    /// Filter-transpose legs announced but not yet consumed.
    pending_transposes: usize,
    /// Minimum owned block extent per axis (floor, as `ca_group_size`).
    block: [u64; 3],
    /// Ranks per axis.
    pdims: [usize; 3],
}

impl FlowState {
    fn new(cfg: &ModelConfig, pgrid: &ProcessGrid) -> Self {
        let (px, py, pz) = pgrid.dims();
        let block = |n: usize, p: usize| if p > 1 { (n / p) as u64 } else { INF };
        let fresh = |_: ()| {
            let mut a = Avail::uniform(0);
            for side in 0..SIDES {
                if [px, py, pz][side / 2] == 1 {
                    a.0[side] = INF;
                }
            }
            a
        };
        let start = fresh(());
        FlowState {
            eval: start,
            base: start,
            vsum: start,
            gw: start,
            phi_p: start,
            pending_allgathers: 0,
            pending_transposes: 0,
            block: [block(cfg.nx, px), block(cfg.ny, py), block(cfg.nz, pz)],
            pdims: [px, py, pz],
        }
    }

    fn decomposed(&self, side: usize) -> bool {
        self.pdims[side / 2] > 1
    }

    /// Halo layers one exchange of `depth` makes valid on `side` — clamped
    /// to the neighbour's block extent (single-hop).
    fn shipped(&self, depth: &agcm_mesh::HaloWidths, side: usize) -> u64 {
        if !self.decomposed(side) {
            return INF;
        }
        let d = [depth.xm, depth.xp, depth.ym, depth.yp, depth.zm, depth.zp][side] as u64;
        d.min(self.block[side / 2])
    }

    fn apply_exchange(&mut self, ex: &ExchangeOp) {
        let mut a = Avail::uniform(0);
        for side in 0..SIDES {
            a.0[side] = self.shipped(&ex.depth, side);
        }
        self.eval = a;
        if ex.fields.has_gw() {
            self.gw = a;
        }
        if ex.fields.has_c() {
            self.vsum = a;
            self.phi_p = a;
        }
    }

    /// Layers `read` requires on `side` when evaluated at dilation `dil`.
    /// Regions dilate in y and z only (x is never decomposed under CA and
    /// never region-dilated).
    fn needed(dil: i16, read: &FieldAccess, side: usize) -> u64 {
        let axis = side_axis(side);
        let (neg, pos) = read.bounds.along(axis);
        let ext = if side.is_multiple_of(2) { neg } else { pos } as i64;
        let d = if axis == Axis::X { 0 } else { dil as i64 };
        (d + ext).max(0) as u64
    }

    fn avail_of(&self, field: &str) -> &Avail {
        match field {
            "vsum" => &self.vsum,
            "gw" => &self.gw,
            "phi_p" => &self.phi_p,
            _ => &self.eval,
        }
    }
}

/// Tracks counterexample context while checking one compute op.
struct Checker<'a> {
    oi: usize,
    operator: String,
    proof: &'a mut FlowProof,
}

impl Checker<'_> {
    fn require(
        &mut self,
        avail: &Avail,
        dil: i16,
        read: &FieldAccess,
    ) -> Result<(), Counterexample> {
        for side in 0..SIDES {
            let have = avail.0[side];
            let needed = FlowState::needed(dil, read, side);
            if have < needed {
                return Err(Counterexample {
                    kind: FailureKind::UncoveredHalo,
                    op_index: self.oi,
                    operator: self.operator.clone(),
                    field: read.field,
                    axis: side_axis(side),
                    positive: side % 2 == 1,
                    needed,
                    have,
                });
            }
            self.proof.reads_checked += 1;
            if have != INF {
                let margin = have - needed;
                self.proof.min_margin =
                    Some(self.proof.min_margin.map_or(margin, |m| m.min(margin)));
            }
        }
        Ok(())
    }
}

/// Locally derived diagnostics: recomputed on the evaluation region from
/// the state every sub-update (`update_surface`/`update_dsa`/`update_dp`),
/// so their halo coverage reduces to the state reads already declared
/// (`p_sa` at ±1) and never to an exchange.
fn locally_derived(field: &str) -> bool {
    matches!(field, "dp" | "dsa")
}

fn apply_compute(
    st: &mut FlowState,
    oi: usize,
    c: &ComputeOp,
    proof: &mut FlowProof,
) -> Result<(), Counterexample> {
    let operator = if c.sub > 0 {
        format!("{} (sweep {}, sub-update {})", c.op, c.sweep, c.sub)
    } else {
        format!("{} (sweep {})", c.op, c.sweep)
    };
    // A kernel the schedule emits but the registry does not declare has no
    // provable footprint — e.g. an over-fused pair whose combined reads were
    // never certified. It must fail the proof, not silently run.
    let Some(spec) = access::spec(c.op) else {
        return Err(Counterexample {
            kind: FailureKind::UnregisteredOp,
            op_index: oi,
            operator,
            field: "*",
            axis: Axis::X,
            positive: true,
            needed: 0,
            have: 0,
        });
    };
    let mut ck = Checker {
        oi,
        operator,
        proof,
    };

    // the first sub-update's base is its evaluation state, as exchanged
    if c.snapshot_base {
        st.base = st.eval;
    }

    // the collective C runs (and its outputs land) before the stencil
    // tendency reads them
    if c.c == CSource::Fresh {
        let cspec = access::spec("vertical.c").expect("vertical.c registered");
        for read in cspec.reads() {
            if locally_derived(read.field) {
                continue;
            }
            if read.whole_z && st.pdims[2] > 1 && st.pending_allgathers == 0 {
                return Err(Counterexample {
                    kind: FailureKind::MissingCollective,
                    op_index: oi,
                    operator: format!("vertical.C @ {}", ck.operator),
                    field: read.field,
                    axis: Axis::Z,
                    positive: true,
                    needed: 1,
                    have: 0,
                });
            }
            ck.require(st.avail_of(read.field), c.dilate, read)?;
        }
        if st.pdims[2] > 1 {
            // one allgather serves all of C's whole-column sums
            st.pending_allgathers -= 1;
            ck.proof.collectives_consumed += 1;
        }
        apply_writes(st, cspec, c.dilate);
    }

    // whole-x reads (the filter) need their transpose legs when x is
    // decomposed
    if spec.reads().any(|r| r.whole_x) && st.pdims[0] > 1 {
        if st.pending_transposes < 2 {
            return Err(Counterexample {
                kind: FailureKind::MissingTranspose,
                op_index: oi,
                operator: ck.operator,
                field: spec.reads().find(|r| r.whole_x).map(|r| r.field).unwrap(),
                axis: Axis::X,
                positive: true,
                needed: 2,
                have: st.pending_transposes as u64,
            });
        }
        st.pending_transposes -= 2;
    }

    // every declared stencil read against the current validity
    for read in spec.reads() {
        if locally_derived(read.field) {
            continue;
        }
        ck.require(st.avail_of(read.field), c.dilate, read)?;
    }
    // the combine `out = form(base, dt·tendency)` — in the sweep for a
    // filter-inactive row, after the filter for an active one — reads the
    // base point-wise on the region
    if c.reads_base {
        let base_read = FieldAccess {
            field: "base",
            dir: access::AccessDir::Read,
            bounds: access::OffsetBox::pointwise(),
            whole_x: false,
            whole_z: false,
        };
        ck.require(&st.base, c.dilate, &base_read)?;
    }

    apply_writes(st, spec, c.dilate);
    proof.computes += 1;
    Ok(())
}

/// A kernel's writes leave its outputs valid to exactly the evaluation
/// dilation (plus the declared write growth); anything beyond is stale.
fn apply_writes(st: &mut FlowState, spec: &AccessSpec, dil: i16) {
    let wrote_state = spec
        .writes()
        .any(|w| matches!(w.field, "u" | "v" | "phi" | "psa"));
    let valid = dil.max(0) as u64;
    let set = |st: &FlowState, grow: &access::OffsetBox| {
        let mut a = Avail::uniform(0);
        for side in 0..SIDES {
            if !st.decomposed(side) {
                a.0[side] = INF;
                continue;
            }
            let axis = side_axis(side);
            let (neg, pos) = grow.along(axis);
            let g = if side % 2 == 0 { neg } else { pos } as u64;
            a.0[side] = if axis == Axis::X { INF } else { valid + g };
        }
        a
    };
    // a negative dilation is a partial scratch write (the fused former
    // smoothing on the shrunk interior): the exchanged buffer stays the
    // readable one until the later smoothing completes and publishes it
    if wrote_state && dil >= 0 {
        st.eval = set(st, &access::OffsetBox::pointwise());
    }
    for w in spec.writes() {
        match w.field {
            "vsum" => st.vsum = set(st, &w.bounds),
            "gw" => st.gw = set(st, &w.bounds),
            "phi_p" => st.phi_p = set(st, &w.bounds),
            _ => {}
        }
    }
}

/// Replay `ops` and prove (or refute) halo coverage of every read.
pub fn check_ops(
    cfg: &ModelConfig,
    pgrid: &ProcessGrid,
    ops: &[StepOp],
) -> Result<FlowProof, Counterexample> {
    let mut st = FlowState::new(cfg, pgrid);
    let mut proof = FlowProof {
        ops: ops.len(),
        computes: 0,
        exchanges: 0,
        collectives_consumed: 0,
        reads_checked: 0,
        min_margin: None,
    };
    for (oi, op) in ops.iter().enumerate() {
        match op {
            StepOp::Exchange(ex) => {
                st.apply_exchange(ex);
                proof.exchanges += 1;
            }
            StepOp::ZAllgather => st.pending_allgathers += 1,
            StepOp::FilterTranspose => st.pending_transposes += 1,
            StepOp::Compute(c) => apply_compute(&mut st, oi, c, &mut proof)?,
        }
    }
    Ok(proof)
}

/// Build the step schedule of `alg`/`mode` on `pgrid` and
/// [`check_ops`] it.
pub fn check(
    cfg: &ModelConfig,
    alg: AlgKind,
    mode: CaMode,
    pgrid: &ProcessGrid,
) -> Result<FlowProof, Counterexample> {
    let ops = match alg {
        AlgKind::CommAvoiding => schedule::alg2_step(cfg, pgrid, mode),
        _ => schedule::alg1_step(cfg, pgrid),
    };
    check_ops(cfg, pgrid, &ops)
}

// --- deliberate corruption, for negative tests ---------------------------

/// Shrink the `nth` exchange's y depth by `dy` and z depth by `dz` layers
/// (saturating).  Returns false when the schedule has fewer exchanges.
pub fn shrink_exchange(ops: &mut [StepOp], nth: usize, dy: usize, dz: usize) -> bool {
    let mut seen = 0;
    for op in ops.iter_mut() {
        if let StepOp::Exchange(ex) = op {
            if seen == nth {
                ex.depth.ym = ex.depth.ym.saturating_sub(dy);
                ex.depth.yp = ex.depth.yp.saturating_sub(dy);
                ex.depth.zm = ex.depth.zm.saturating_sub(dz);
                ex.depth.zp = ex.depth.zp.saturating_sub(dz);
                return true;
            }
            seen += 1;
        }
    }
    false
}

/// Delete the `nth` z-allgather from the schedule.  Returns false when
/// there are fewer collectives.
pub fn drop_collective(ops: &mut Vec<StepOp>, nth: usize) -> bool {
    let mut seen = 0;
    for (i, op) in ops.iter().enumerate() {
        if matches!(op, StepOp::ZAllgather) {
            if seen == nth {
                ops.remove(i);
                return true;
            }
            seen += 1;
        }
    }
    false
}
