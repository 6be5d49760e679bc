//! Machine-readable step programs of the three integrations.
//!
//! [`alg1_step`] and [`alg2_step_for`] list, in program order, every halo
//! exchange, collective and kernel application of one time step.  The list
//! is **what runs**: [`crate::Integrator`] builds it once in its
//! constructor and its `step` is a walk over it; the static analyzer
//! (`agcm-verify`) turns the same object into a send/recv/collective event
//! graph and a halo-coverage proof without running a single rank.  The
//! serial reference is [`alg1_step`] on [`ProcessGrid::serial`] (with
//! [`approximate`] applied for the Eq. 13 iteration).
//!
//! Two predicates of the interpreter decide what a walk skips, so one list
//! serves the first step, the steady state and the epilogue: a
//! [`CSource::Cached`] sub-update runs `C` fresh while no cache exists, and
//! the smoothing ops (with an exchange that feeds nothing else) run only
//! while a smoothing is pending — the forcing sets it, the smoothing clears
//! it.  The exchange `seq` numbering starts at 0 for the step's first
//! exchange; the running counter of a live [`super::HaloExchanger`] is
//! offset by a constant that is identical on every rank, so tag matching is
//! unaffected.

use crate::analysis::CaMode;
use crate::config::ModelConfig;
use crate::geometry::{GrowSides, Region};
use crate::tables;
use agcm_mesh::{HaloWidths, ProcessGrid};

/// Shape of one exchanged array, relative to the rank's subdomain extents
/// `(nxl, nyl, nzl)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldShape {
    /// A prognostic 3-D field: `(nxl, nyl, nzl)`.
    Level3,
    /// An interface 3-D field (`g_w`): `(nxl, nyl, nzl + 1)`.
    Interface3,
    /// A surface 2-D field (`p_sa`, `vsum`): `(nxl, nyl, 1)`; never
    /// exchanged along z.
    Surface2,
}

impl FieldShape {
    /// Local extents of the field on a subdomain of the given extents.
    pub fn extents(self, sub: (usize, usize, usize)) -> (usize, usize, usize) {
        let (nx, ny, nz) = sub;
        match self {
            FieldShape::Level3 => (nx, ny, nz),
            FieldShape::Interface3 => (nx, ny, nz + 1),
            FieldShape::Surface2 => (nx, ny, 1),
        }
    }

    /// Whether the field is two-dimensional (skips z-offset neighbours).
    pub fn is_2d(self) -> bool {
        matches!(self, FieldShape::Surface2)
    }

    /// What the exchange planner needs of the field on a subdomain of the
    /// given extents ([`super::exchange::link_messages`]).
    pub fn geom(self, sub: (usize, usize, usize)) -> super::exchange::FieldGeom {
        (self.extents(sub), self.is_2d())
    }
}

/// The arrays one exchange carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExFields {
    /// The state: `u`, `v`, `φ`, `p_sa`.
    State,
    /// The state and the frozen `g_w` (advection).
    StateGw,
    /// The state and the cached `C` outputs `vsum`, `g_w`, `φ'` — the deep
    /// and group exchanges of Algorithm 2 (the paper's "length of ξ being
    /// ten").
    StateC,
}

impl ExFields {
    /// The arrays in wire order: a link's message packs their boxes in the
    /// order of this slice.
    pub fn shapes(self) -> &'static [FieldShape] {
        use FieldShape::{Interface3, Level3, Surface2};
        match self {
            ExFields::State => &[Level3, Level3, Level3, Surface2],
            ExFields::StateGw => &[Level3, Level3, Level3, Surface2, Interface3],
            ExFields::StateC => &[
                Level3, Level3, Level3, Surface2, Surface2, Interface3, Level3,
            ],
        }
    }

    /// Whether the exchange carries `g_w`.
    pub fn has_gw(self) -> bool {
        self != ExFields::State
    }

    /// Whether the exchange carries `vsum` and `φ'`.
    pub fn has_c(self) -> bool {
        self == ExFields::StateC
    }
}

/// One halo exchange in the step schedule.  It refreshes the evaluation
/// state of the kernel that follows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExchangeOp {
    /// What the exchange carries (for reports).
    pub label: &'static str,
    /// Halo depth of the exchange.
    pub depth: HaloWidths,
    /// The arrays it carries.
    pub fields: ExFields,
    /// Whether the integrator splits it into post/compute/finish (§4.3.1):
    /// the part of the next kernel that reads no halo runs while the
    /// messages fly, the rest once they are in.
    pub overlapped: bool,
}

/// Where one compute op's operator-`C` diagnostics (`vsum`, `g_w`, `φ'`)
/// come from (§4.2.2's approximate iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CSource {
    /// The kernel does not touch the `C` outputs (advection, smoothing,
    /// filter).
    NotUsed,
    /// Sub-update 1 reuses the previous iteration's cached outputs, whose
    /// halos the deep/group exchange shipped (Eq. 13).
    Cached,
    /// Sub-updates 2 and 3 run `C` fresh on the region — one z-allgather
    /// when `p_z > 1`.
    Fresh,
}

/// One kernel application in the step schedule.  Compute ops carry no
/// communication; the interpreter runs them and the dataflow pass
/// (`agcm-verify`) replays *which reads happen between which exchanges*
/// and proves every one covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComputeOp {
    /// Kernel key into [`crate::access::spec`]: the fused
    /// `"adaptation.fused"` / `"advection.fused"` sub-update sweeps,
    /// `"filter"` (run by the sub-update it follows), `"forcing"`,
    /// `"smooth.s1"`, `"smooth.s2"`.
    pub op: &'static str,
    /// 1-based sweep number within its phase (adaptation `1..=3M`,
    /// advection `1..=3`).
    pub sweep: u16,
    /// Sub-update within the Lin–Rood iteration (`1..=3`; 0 when not a
    /// sub-update).  It picks the buffers: 1 sweeps `ψ → η₁` with `ψ` as
    /// its own base, 2 `η₁ → mid` as the midpoint on base `ψ`, 3
    /// `mid → η₁` on base `ψ`, after which `η₁` is the next `ψ`.
    pub sub: u8,
    /// Evaluation-region dilation beyond the interior, in halo layers
    /// (the CA validity countdown; negative = the part of the interior
    /// that reads no exchanged halo, the fused former smoothing).
    pub dilate: i16,
    /// The evaluation state becomes the iteration base: the first
    /// sub-update of an iteration reads one state as both.
    pub snapshot_base: bool,
    /// The kernel reads the iteration base in addition to the evaluation
    /// state.
    pub reads_base: bool,
    /// Operator-`C` usage of this kernel.
    pub c: CSource,
}

impl ComputeOp {
    /// The region the kernel sweeps on a block of `ny` rows and `nz` levels
    /// with `halo` allocated around it: the interior grown by `dilate` on
    /// the sides that face a neighbour, or (negative) [`Self::halo_free`].
    pub fn region(&self, ny: usize, nz: usize, halo: HaloWidths, grow: GrowSides) -> Region {
        match self.dilate as isize {
            d if d < 0 => self.halo_free(ny, nz, grow),
            d => Region::interior(ny, nz).dilate(d, d, ny, nz, halo, grow),
        }
    }

    /// The part of the interior on which the kernel reads no exchanged
    /// halo: the interior less the depth its sweep is exchanged at, on the
    /// sides that face a neighbour.
    pub fn halo_free(&self, ny: usize, nz: usize, grow: GrowSides) -> Region {
        let reach = if self.is_smoothing() {
            depth_smooth()
        } else {
            depth_sweep()
        };
        Region::interior(ny, nz).shrink(reach.ym as isize, reach.zm as isize, grow)
    }

    /// Whether the kernel is one of the two smoothing passes.
    pub fn is_smoothing(&self) -> bool {
        self.op.starts_with("smooth")
    }

    /// Whether an overlapped exchange can be split around the kernel (post →
    /// its halo-free part → finish → the rest): only a kernel that issues
    /// no collective of its own.
    pub fn splits(&self) -> bool {
        self.dilate < 0 || self.op == "advection.fused"
    }
}

/// One entry of a step's program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOp {
    /// A halo exchange; consumes one exchange `seq` number.
    Exchange(ExchangeOp),
    /// One allgather of column block sums over the z-subcommunicator,
    /// issued by the fresh `C` of the sub-update that follows (§4.2.2).
    /// Present only when `p_z > 1`.
    ZAllgather,
    /// One alltoallv leg of the distributed polar filter over the
    /// x-subcommunicator, issued by the sub-update the filter belongs to
    /// (X-Y decomposition only; two per application).
    FilterTranspose,
    /// One kernel application (no communication of its own).
    Compute(ComputeOp),
}

/// A halo `x` columns, `y` rows and `z` levels deep on both sides.
fn depth(x: usize, y: usize, z: usize) -> HaloWidths {
    HaloWidths {
        xm: x,
        xp: x,
        ym: y,
        yp: y,
        zm: z,
        zp: z,
    }
}

/// Halo depth of the adaptation/advection sweeps of Algorithm 1 (x needs
/// the full table extent 3; y/z one layer).
pub fn depth_sweep() -> HaloWidths {
    depth(3, 1, 1)
}

/// Halo depth of the smoothing exchange, `(2, 2, 0)` (Table 3).
pub fn depth_smooth() -> HaloWidths {
    depth(2, 2, 0)
}

/// The five exchange depths of Algorithm 2, derived from the sweep-group
/// sizes `(g, fuse, ga)` of [`crate::analysis::ca_group_size`] (or any other
/// rung of [`crate::analysis::ca_ladder`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaDepths {
    /// First exchange of the step: `g (+2 when the smoothing is fused)`
    /// layers in y, `g` in z.
    pub deep: HaloWidths,
    /// Iteration-aligned group boundary exchanges: `g` layers.
    pub group: HaloWidths,
    /// Mid-iteration refresh when `g = 1`: one layer.
    pub sweep: HaloWidths,
    /// Advection exchanges: `ga` layers.
    pub shallow: HaloWidths,
    /// The separate smoothing exchange when fusion does not fit.
    pub smooth: HaloWidths,
}

/// Compute [`CaDepths`] for group sizes `(g, fuse, ga)`.
pub fn ca_depths(g: usize, fuse: bool, ga: usize) -> CaDepths {
    CaDepths {
        deep: depth(3, g + if fuse { 2 } else { 0 }, g),
        group: depth(3, g, g),
        sweep: depth_sweep(),
        shallow: depth(3, ga, ga),
        smooth: depth_smooth(),
    }
}

/// Every exchange depth a model running `ops` uses: the program's own and
/// the smoothing epilogue's ([`smoothing`], which `finish` runs).
pub fn exchange_depths(ops: &[StepOp]) -> impl Iterator<Item = HaloWidths> + '_ {
    let of = |op: &StepOp| match op {
        StepOp::Exchange(ex) => Some(ex.depth),
        _ => None,
    };
    ops.iter().filter_map(of).chain([depth_smooth()])
}

/// The halo a rank running `ops` allocates around its fields.  A side that
/// faces a neighbour (`grow`) holds the deepest exchange that lands on it;
/// a side on a pole, the model top or the surface is never exchanged into
/// and no sweep region grows across it, so it holds what the boundary fill
/// feeds a single sweep — Algorithm 1's halo.
pub fn halo_alloc(ops: &[StepOp], grow: GrowSides) -> HaloWidths {
    let fill = HaloWidths::for_footprint(&tables::per_sweep_union());
    let ex = exchange_depths(ops).fold(fill, |a, d| a.max(d));
    let side = |on: bool, ex: usize, fill: usize| if on { ex } else { fill };
    HaloWidths {
        xm: ex.xm,
        xp: ex.xp,
        ym: side(grow.north, ex.ym, fill.ym),
        yp: side(grow.south, ex.yp, fill.yp),
        zm: side(grow.top, ex.zm, fill.zm),
        zp: side(grow.bottom, ex.zp, fill.zp),
    }
}

fn exchange(label: &'static str, depth: HaloWidths, fields: ExFields, overlapped: bool) -> StepOp {
    StepOp::Exchange(ExchangeOp {
        label,
        depth,
        fields,
        overlapped,
    })
}

/// A kernel application; the sub-update number decides the base flags.
fn kernel(op: &'static str, sweep: usize, sub: usize, dilate: i16, c: CSource) -> StepOp {
    StepOp::Compute(ComputeOp {
        op,
        sweep: sweep as u16,
        sub: sub as u8,
        dilate,
        snapshot_base: sub == 1,
        reads_base: sub > 0,
        c,
    })
}

/// One sub-update: the fused sweep (tendency + combination of the
/// filter-inactive rows, certified under its own registry key whichever
/// way the filter runs) with the collectives it issues announced ahead of
/// it, then its filter application — forward + inverse transpose when x is
/// split.
fn subupdate(
    ops: &mut Vec<StepOp>,
    pgrid: &ProcessGrid,
    op: &'static str,
    sweep: usize,
    dilate: i16,
    c: CSource,
) {
    if c == CSource::Fresh && pgrid.pz() > 1 {
        ops.push(StepOp::ZAllgather);
    }
    ops.push(kernel(op, sweep, (sweep - 1) % 3 + 1, dilate, c));
    if pgrid.px() > 1 {
        ops.extend([StepOp::FilterTranspose; 2]);
    }
    ops.push(kernel("filter", sweep, 0, dilate, CSource::NotUsed));
}

/// The smoothing on its own exchange: the tail of an Algorithm 1 step, the
/// head of an Algorithm 2 step whose blocks cannot take the fused form, and
/// the epilogue `finish` runs after the last step of Algorithm 2.
pub fn smoothing() -> [StepOp; 2] {
    [
        exchange("smooth", depth_smooth(), ExFields::State, false),
        kernel("smooth.s1", 1, 0, 0, CSource::NotUsed),
    ]
}

/// The Held–Suarez forcing on the interior.  It ends the dynamics of a
/// step: what it leaves awaits its smoothing.
fn forcing() -> StepOp {
    kernel("forcing", 1, 0, 0, CSource::NotUsed)
}

/// Turn an exact program into the approximate nonlinear iteration of
/// Eq. 13: the first sub-update of every adaptation iteration reuses the
/// cached `C` outputs.
pub fn approximate(ops: &mut [StepOp]) {
    for op in ops {
        match op {
            StepOp::Compute(k) if k.op == "adaptation.fused" && k.sub == 1 => k.c = CSource::Cached,
            _ => {}
        }
    }
}

/// One Algorithm 1 step under `pgrid`: `3M + 4` exchanges, `3M`
/// z-allgathers when `p_z > 1` and `2(3M + 3)` filter transposes when
/// `p_x > 1`.
pub fn alg1_step(cfg: &ModelConfig, pgrid: &ProcessGrid) -> Vec<StepOp> {
    let mut ops = Vec::new();
    let sweep = depth_sweep();
    let labels = ["adapt ψ", "adapt η₁", "adapt mid"];
    for s in 1..=3 * cfg.m_iters {
        ops.push(exchange(labels[(s - 1) % 3], sweep, ExFields::State, false));
        subupdate(&mut ops, pgrid, "adaptation.fused", s, 0, CSource::Fresh);
    }
    // advection: the frozen g_w travels with the first exchange
    ops.push(exchange("advect ψ+g_w", sweep, ExFields::StateGw, false));
    subupdate(&mut ops, pgrid, "advection.fused", 1, 0, CSource::NotUsed);
    for (s, label) in [(2, "advect η₁"), (3, "advect mid")] {
        ops.push(exchange(label, sweep, ExFields::State, false));
        subupdate(&mut ops, pgrid, "advection.fused", s, 0, CSource::NotUsed);
    }
    ops.push(forcing());
    ops.extend(smoothing());
    ops
}

/// One Algorithm 2 step: `⌈3M/g⌉ + ⌈3/g_a⌉ (+1 when the smoothing is not
/// fused)` exchanges and `2M` z-allgathers — the paper's 2 exchanges and
/// the 1/3 collective reduction when the full depth fits (`g = 3M`, fused).
///
/// `mode` selects the sweep groups (see [`CaMode`]): the rung the model
/// executes with, the paper's full depth, or explicit ones.
pub fn alg2_step(cfg: &ModelConfig, pgrid: &ProcessGrid, mode: CaMode) -> Vec<StepOp> {
    let (g, fuse, ga) = mode.groups(cfg, pgrid);
    alg2_step_for(cfg, pgrid, g, fuse, ga)
}

/// [`alg2_step`] for explicit group sizes `(g, fuse, ga)` — the program
/// `CaModel::with_groups` executes.  This is how every rung of the ladder
/// is generated, and how the dataflow pass builds *what-if* schedules —
/// e.g. a group one rung above the ladder's top — and proves the analyzer
/// rejects them.  `g` must be a divisor-aligned group size (`1` or a
/// multiple of 3 up to `3M`), `ga` in `1..=3`.  An exchange lands before
/// sweep `s` iff `(s-1) % g == 0`, and sub-updates 2 and 3 of each
/// iteration run the collective `C` fresh (§4.2.2).
pub fn alg2_step_for(
    cfg: &ModelConfig,
    pgrid: &ProcessGrid,
    g: usize,
    fuse: bool,
    ga: usize,
) -> Vec<StepOp> {
    let d = ca_depths(g, fuse, ga);
    let mut ops = Vec::new();
    if !fuse {
        ops.extend(smoothing());
    }
    // validity countdown of the fused adaptation sweeps (§4.3.2): a group
    // exchange makes g halo layers valid; each iteration consumes 3.
    let mut valid = 0usize;
    for s in 1..=3 * cfg.m_iters {
        let sub = (s - 1) % 3 + 1;
        if (s - 1) % g == 0 {
            ops.push(if s == 1 {
                exchange("deep ξ (fused smoothing)", d.deep, ExFields::StateC, true)
            } else if sub == 1 {
                exchange("group ξ", d.group, ExFields::StateC, false)
            } else {
                // g = 1 only: mid-iteration refresh of the evaluation state
                exchange("sweep refresh", d.sweep, ExFields::State, false)
            });
            if s == 1 && fuse {
                // former smoothing on the rows that read no halo (while
                // the deep exchange flies), later smoothing on edge + halo
                // rows once it lands
                ops.push(kernel("smooth.s1", 1, 0, -2, CSource::NotUsed));
                ops.push(kernel("smooth.s2", 1, 0, g as i16, CSource::NotUsed));
            }
            valid = g;
        }
        // region_k = dilate(valid - k): halo layers still valid for this
        // sub-update's output (0 on the plain interior when g = 1)
        let dilate = if g == 1 { 0 } else { valid as i16 - sub as i16 };
        // sub-updates 2 and 3 run C fresh; sub-update 1 reuses the cache
        let c = if sub == 1 {
            CSource::Cached
        } else {
            CSource::Fresh
        };
        subupdate(&mut ops, pgrid, "adaptation.fused", s, dilate, c);
        if sub == 3 {
            valid = valid.saturating_sub(3);
        }
    }
    // advection countdown: g_a valid layers per shallow exchange, one
    // consumed per sweep; the last sweep covers the interior only
    let mut valida = 0usize;
    for s in 1..=3usize {
        if (s - 1) % ga == 0 {
            ops.push(exchange(
                "advect ψ+g_w",
                d.shallow,
                ExFields::StateGw,
                s == 1,
            ));
            valida = ga;
        }
        let dilate = match s {
            1 => (ga - 1) as i16,
            2 => (valida as i16 - 1).min(1),
            _ => 0,
        };
        subupdate(
            &mut ops,
            pgrid,
            "advection.fused",
            s,
            dilate,
            CSource::NotUsed,
        );
        valida -= 1;
    }
    ops.push(forcing());
    ops
}

/// Number of exchanges in a schedule.
pub fn exchange_count(ops: &[StepOp]) -> u64 {
    ops.iter()
        .filter(|o| matches!(o, StepOp::Exchange(_)))
        .count() as u64
}

/// Number of collective calls (z-allgathers + filter transposes).
pub fn collective_count(ops: &[StepOp]) -> u64 {
    ops.iter()
        .filter(|o| matches!(o, StepOp::ZAllgather | StepOp::FilterTranspose))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ModelConfig {
        ModelConfig::paper_50km()
    }

    #[test]
    fn alg1_yz_has_13_exchanges_and_3m_collectives() {
        let c = cfg();
        let ops = alg1_step(&c, &ProcessGrid::yz(16, 8).unwrap());
        assert_eq!(exchange_count(&ops), 3 * c.m_iters as u64 + 4);
        assert_eq!(collective_count(&ops), 3 * c.m_iters as u64);
    }

    #[test]
    fn alg1_xy_has_filter_transposes_instead() {
        let c = cfg();
        let ops = alg1_step(&c, &ProcessGrid::xy(16, 8).unwrap());
        assert_eq!(exchange_count(&ops), 3 * c.m_iters as u64 + 4);
        // 2 transposes per application, 3M + 3 applications, no allgathers
        assert_eq!(collective_count(&ops), 2 * (3 * c.m_iters as u64 + 3));
    }

    #[test]
    fn alg2_full_depth_is_two_exchanges_and_2m_collectives() {
        // the paper's 13 -> 2 and 3M -> 2M, on the explicit full-depth groups
        let c = cfg();
        let pg = ProcessGrid::yz(16, 8).unwrap();
        let ops = alg2_step_for(&c, &pg, 3 * c.m_iters, true, 3);
        assert_eq!(exchange_count(&ops), 2);
        assert_eq!(collective_count(&ops), 2 * c.m_iters as u64);
        assert_eq!(ops, alg2_step(&c, &pg, CaMode::PaperIdeal));
    }

    #[test]
    fn every_rung_exchanges_by_the_grouping_formula() {
        use crate::analysis::{ca_group_size, ca_ladder};
        let c = cfg();
        for (py, pz) in [(2, 1), (16, 8), (64, 8), (128, 8)] {
            let pg = ProcessGrid::yz(py, pz).unwrap();
            let ladder = ca_ladder(&c, &pg);
            for &(g, fuse, ga) in &ladder {
                // one exchange a sweep at g = 1, one a group above it
                let adapt = (3 * c.m_iters).div_ceil(g) as u64;
                let expect = adapt + 3u64.div_ceil(ga as u64) + u64::from(!fuse);
                let ops = alg2_step_for(&c, &pg, g, fuse, ga);
                assert_eq!(exchange_count(&ops), expect, "py={py} pz={pz} g={g}");
                let z_allgathers = if pz > 1 { 2 * c.m_iters as u64 } else { 0 };
                assert_eq!(collective_count(&ops), z_allgathers);
            }
            // the executing schedule is the rung the cost rule picks
            let (g, fuse, ga) = ca_group_size(&c, &pg);
            assert!(ladder.contains(&(g, fuse, ga)), "py={py} pz={pz}");
            assert_eq!(
                alg2_step(&c, &pg, CaMode::Grouped),
                alg2_step_for(&c, &pg, g, fuse, ga)
            );
        }
    }

    #[test]
    fn halos_are_sized_per_side() {
        let c = cfg();
        let pg = ProcessGrid::yz(16, 8).unwrap();
        let alloc = |g, fuse, ga, grow| halo_alloc(&alg2_step_for(&c, &pg, g, fuse, ga), grow);
        let sides = |north, south, top, bottom| GrowSides {
            north,
            south,
            top,
            bottom,
        };
        // north-pole rank of a y-split: deep towards the neighbour only
        let h = alloc(9, true, 3, sides(false, true, false, false));
        assert_eq!((h.ym, h.yp, h.zm, h.zp), (2, 11, 1, 1));
        assert_eq!((h.xm, h.xp), (3, 3));
        // an interior rank of a y-z split holds the exchange depth all round
        let h = alloc(9, true, 3, sides(true, true, true, true));
        assert_eq!((h.ym, h.yp, h.zm, h.zp), (11, 11, 9, 9));
        // a shallow rung still holds the smoothing's two rows
        let h = alloc(1, false, 1, sides(true, true, true, true));
        assert_eq!((h.ym, h.yp, h.zm, h.zp), (2, 2, 1, 1));
        // Algorithm 1 holds the per-sweep union wherever the rank sits
        let h = halo_alloc(&alg1_step(&c, &pg), sides(false, true, true, false));
        assert_eq!((h.xm, h.ym, h.yp, h.zm, h.zp), (3, 2, 2, 1, 1));
    }

    #[test]
    fn the_forcing_is_a_kernel_of_every_program_and_costs_no_message() {
        let c = cfg();
        let pg = ProcessGrid::yz(16, 8).unwrap();
        for ops in [alg1_step(&c, &pg), alg2_step_for(&c, &pg, 3, true, 3)] {
            let forcings = ops
                .iter()
                .filter(|o| matches!(o, StepOp::Compute(k) if k.op == "forcing"))
                .count();
            assert_eq!(forcings, 1);
        }
        // the Eq. 13 variant of the serial program differs in C sources only
        let exact = alg1_step(&c, &ProcessGrid::serial());
        let mut approx = exact.clone();
        approximate(&mut approx);
        let cached = |ops: &[StepOp]| {
            ops.iter()
                .filter(|o| matches!(o, StepOp::Compute(k) if k.c == CSource::Cached))
                .count()
        };
        assert_eq!((cached(&exact), cached(&approx)), (0, c.m_iters));
        assert_eq!(exchange_count(&exact), exchange_count(&approx));
    }

    #[test]
    fn serial_grids_have_no_collectives() {
        let c = cfg();
        let ops = alg1_step(&c, &ProcessGrid::serial());
        assert_eq!(collective_count(&ops), 0);
        let ops = alg2_step(&c, &ProcessGrid::serial(), CaMode::Grouped);
        assert_eq!(collective_count(&ops), 0);
    }
}
