//! Machine-readable per-step communication schedules of both parallel
//! algorithms.
//!
//! [`alg1_step`] and [`alg2_step`] list, in program order, every halo
//! exchange and collective one time step performs at steady state — the
//! metadata [`super::alg1`] and [`super::alg2`] execute and that the static
//! analyzer (`agcm-verify`) turns into a send/recv/collective event graph
//! without running a single rank.  The halo depths here are *the* depths the
//! integrators use ([`depth_sweep`], [`depth_smooth`], [`ca_depths`]), so
//! schedule metadata and executing code cannot drift apart.
//!
//! "Steady state" means: the operator-`C` cache is warm (`engine.c_cached`,
//! so Algorithm 2's first sub-update reuses cached outputs — the §4.2.2
//! approximate iteration) and, for Algorithm 2, the previous step left a
//! smoothing pending (every step after the first).  The exchange `seq`
//! numbering below starts at 0 for the step's first exchange; the running
//! counter of a live [`super::HaloExchanger`] is offset by a constant that
//! is identical on every rank, so tag matching is unaffected.

use crate::analysis::CaMode;
use crate::config::ModelConfig;
use crate::geometry::GrowSides;
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
}

/// The 4-array state exchange: `u`, `v`, `φ`, `p_sa`.
pub const STATE4: &[FieldShape] = &[
    FieldShape::Level3,
    FieldShape::Level3,
    FieldShape::Level3,
    FieldShape::Surface2,
];

/// The 5-array advection exchange: `STATE4` + the frozen `g_w`.
pub const ADV5: &[FieldShape] = &[
    FieldShape::Level3,
    FieldShape::Level3,
    FieldShape::Level3,
    FieldShape::Surface2,
    FieldShape::Interface3,
];

/// The 7-array deep/group exchange of Algorithm 2: `STATE4` + the cached
/// `C` outputs `vsum`, `g_w`, `φ'` (the paper's "length of ξ being ten").
pub const DEEP7: &[FieldShape] = &[
    FieldShape::Level3,
    FieldShape::Level3,
    FieldShape::Level3,
    FieldShape::Surface2,
    FieldShape::Surface2,
    FieldShape::Interface3,
    FieldShape::Level3,
];

/// One halo exchange in the step schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExchangeOp {
    /// What the exchange carries (for reports).
    pub label: &'static str,
    /// Halo depth of the exchange.
    pub depth: HaloWidths,
    /// The arrays, in wire order: the field index of the tag is the
    /// position in this slice.
    pub fields: &'static [FieldShape],
    /// Whether the integrator splits it into post/compute/finish (§4.3.1).
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
/// communication; they exist so the dataflow pass (`agcm-verify`) can
/// replay *which reads happen between which exchanges* and prove every
/// one covered.  The fields mirror the integrators' call sites exactly
/// ([`super::Alg1Model`], [`super::CaModel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComputeOp {
    /// Kernel key into [`crate::access::spec`] (`"adaptation"`,
    /// `"advection"`, the fused `".fused"` sub-update sweeps the step
    /// loops run, `"smooth.s1"`, `"smooth.s2"`, `"filter"`).
    pub op: &'static str,
    /// 1-based sweep number within its phase (adaptation `1..=3M`,
    /// advection `1..=3`).
    pub sweep: u16,
    /// Sub-update within the Lin–Rood iteration (`1..=3`; 0 when not a
    /// sub-update, e.g. smoothing).
    pub sub: u8,
    /// Evaluation-region dilation beyond the interior, in halo layers
    /// (the CA validity countdown; negative = shrunk region, the fused
    /// former smoothing).
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

/// One entry of a step's communication schedule, in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOp {
    /// A halo exchange; consumes one exchange `seq` number.
    Exchange(ExchangeOp),
    /// One allgather of column block sums over the z-subcommunicator (the
    /// operator `C`, §4.2.2).  Present only when `p_z > 1`.
    ZAllgather,
    /// One alltoallv leg of the distributed polar filter over the
    /// x-subcommunicator (X-Y decomposition only; two per application).
    FilterTranspose,
    /// One kernel application (no communication of its own).
    Compute(ComputeOp),
}

/// Halo depth of the adaptation/advection sweeps of Algorithm 1 (x needs
/// the full table extent 3; y/z one layer).
pub fn depth_sweep() -> HaloWidths {
    HaloWidths {
        xm: 3,
        xp: 3,
        ym: 1,
        yp: 1,
        zm: 1,
        zp: 1,
    }
}

/// Halo depth of the smoothing exchange, `(2, 2, 0)` (Table 3).
pub fn depth_smooth() -> HaloWidths {
    HaloWidths {
        xm: 2,
        xp: 2,
        ym: 2,
        yp: 2,
        zm: 0,
        zp: 0,
    }
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

impl CaDepths {
    /// The halo a rank allocates around its fields.  A side that faces a
    /// neighbour (`grow`) holds the deepest exchange that lands on it; a
    /// side on a pole, the model top or the surface is never exchanged into
    /// and no sweep region grows across it, so it holds what the boundary
    /// fill feeds a single sweep — Algorithm 1's halo.
    pub fn alloc(&self, grow: GrowSides) -> HaloWidths {
        let ex = self.deep.max(self.shallow).max(self.smooth);
        let fill = HaloWidths::for_footprint(&tables::per_sweep_union());
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
}

/// Compute [`CaDepths`] for group sizes `(g, fuse, ga)`.
pub fn ca_depths(g: usize, fuse: bool, ga: usize) -> CaDepths {
    let ysm = g + if fuse { 2 } else { 0 };
    CaDepths {
        deep: HaloWidths {
            xm: 3,
            xp: 3,
            ym: ysm,
            yp: ysm,
            zm: g,
            zp: g,
        },
        group: HaloWidths {
            xm: 3,
            xp: 3,
            ym: g,
            yp: g,
            zm: g,
            zp: g,
        },
        sweep: depth_sweep(),
        shallow: HaloWidths {
            xm: 3,
            xp: 3,
            ym: ga,
            yp: ga,
            zm: ga,
            zp: ga,
        },
        smooth: depth_smooth(),
    }
}

/// Communication schedule of one Algorithm 1 step ([`super::Alg1Model`])
/// under `pgrid`: `3M + 4` exchanges, `3M` z-allgathers when `p_z > 1` and
/// `2(3M + 3)` filter transposes when `p_x > 1`.
pub fn alg1_step(cfg: &ModelConfig, pgrid: &ProcessGrid) -> Vec<StepOp> {
    let (px, _, pz) = pgrid.dims();
    let mut ops = Vec::new();
    let sweep = depth_sweep();
    // one filter application = forward + inverse transpose
    let filter = |ops: &mut Vec<StepOp>, sweep: u16| {
        if px > 1 {
            ops.push(StepOp::FilterTranspose);
            ops.push(StepOp::FilterTranspose);
        }
        ops.push(StepOp::Compute(ComputeOp {
            op: "filter",
            sweep,
            sub: 0,
            dilate: 0,
            snapshot_base: false,
            reads_base: false,
            c: CSource::NotUsed,
        }));
    };
    // every sub-update runs the one fused sweep (tendency + combination of
    // the filter-inactive rows), whichever way the filter itself runs; the
    // fused kernels certify under their own registry keys
    let (adapt_op, advect_op) = ("adaptation.fused", "advection.fused");
    for iter in 0..cfg.m_iters {
        for (si, label) in ["adapt ψ", "adapt η₁", "adapt mid"].iter().enumerate() {
            let s = (3 * iter + si + 1) as u16;
            ops.push(StepOp::Exchange(ExchangeOp {
                label,
                depth: sweep,
                fields: STATE4,
                overlapped: false,
            }));
            // the sub-update runs C fresh (exact iteration) + one filter
            if pz > 1 {
                ops.push(StepOp::ZAllgather);
            }
            ops.push(StepOp::Compute(ComputeOp {
                op: adapt_op,
                sweep: s,
                sub: (si + 1) as u8,
                dilate: 0,
                snapshot_base: si == 0,
                reads_base: true,
                c: CSource::Fresh,
            }));
            filter(&mut ops, s);
        }
    }
    // advection: the frozen g_w travels with the first exchange
    let advect = |ops: &mut Vec<StepOp>, s: u16| {
        ops.push(StepOp::Compute(ComputeOp {
            op: advect_op,
            sweep: s,
            sub: s as u8,
            dilate: 0,
            snapshot_base: s == 1,
            reads_base: true,
            c: CSource::NotUsed,
        }));
    };
    ops.push(StepOp::Exchange(ExchangeOp {
        label: "advect ψ+g_w",
        depth: sweep,
        fields: ADV5,
        overlapped: false,
    }));
    advect(&mut ops, 1);
    filter(&mut ops, 1);
    for (si, label) in ["advect η₁", "advect mid"].iter().enumerate() {
        ops.push(StepOp::Exchange(ExchangeOp {
            label,
            depth: sweep,
            fields: STATE4,
            overlapped: false,
        }));
        advect(&mut ops, (si + 2) as u16);
        filter(&mut ops, (si + 2) as u16);
    }
    ops.push(StepOp::Exchange(ExchangeOp {
        label: "smooth",
        depth: depth_smooth(),
        fields: STATE4,
        overlapped: false,
    }));
    ops.push(StepOp::Compute(ComputeOp {
        op: "smooth.s1",
        sweep: 1,
        sub: 0,
        dilate: 0,
        snapshot_base: false,
        reads_base: false,
        c: CSource::NotUsed,
    }));
    ops
}

/// Communication schedule of one Algorithm 2 step ([`super::CaModel`]) at
/// steady state: `⌈3M/g⌉ + ⌈3/g_a⌉ (+1 when the smoothing is not fused)`
/// exchanges and `2M` z-allgathers — the paper's 2 exchanges and the 1/3
/// collective reduction when the full depth fits (`g = 3M`, fused).
///
/// `mode` selects the sweep groups (see [`CaMode`]): the rung the model
/// executes with, the paper's full depth, or explicit ones.  Every ordering
/// mirrors `CaModel::step` exactly: an exchange lands before sweep `s` iff
/// `(s-1) % g == 0`, and sub-updates 2 and 3 of each iteration run the
/// collective `C` fresh (§4.2.2).
pub fn alg2_step(cfg: &ModelConfig, pgrid: &ProcessGrid, mode: CaMode) -> Vec<StepOp> {
    let (g, fuse, ga) = mode.groups(cfg, pgrid);
    alg2_step_for(cfg, pgrid, g, fuse, ga)
}

/// [`alg2_step`] for explicit group sizes `(g, fuse, ga)` — the schedule
/// `CaModel::with_groups` executes.  This is how every rung of the ladder
/// is generated, and how the dataflow pass builds *what-if* schedules —
/// e.g. a group one rung above the ladder's top — and proves the analyzer
/// rejects them.  `g` must be a divisor-aligned
/// group size (`1` or a multiple of 3 up to `3M`), `ga` in `1..=3`.
pub fn alg2_step_for(
    cfg: &ModelConfig,
    pgrid: &ProcessGrid,
    g: usize,
    fuse: bool,
    ga: usize,
) -> Vec<StepOp> {
    let (_, _, pz) = pgrid.dims();
    let total = 3 * cfg.m_iters;
    // the fused kernel keys, as in alg1
    let (adapt_op, advect_op) = ("adaptation.fused", "advection.fused");
    let d = ca_depths(g, fuse, ga);
    let mut ops = Vec::new();
    let filter = |ops: &mut Vec<StepOp>, sweep: u16, dilate: i16| {
        ops.push(StepOp::Compute(ComputeOp {
            op: "filter",
            sweep,
            sub: 0,
            dilate,
            snapshot_base: false,
            reads_base: false,
            c: CSource::NotUsed,
        }));
    };
    let smooth = |ops: &mut Vec<StepOp>, op: &'static str, dilate: i16| {
        ops.push(StepOp::Compute(ComputeOp {
            op,
            sweep: 1,
            sub: 0,
            dilate,
            snapshot_base: false,
            reads_base: false,
            c: CSource::NotUsed,
        }));
    };
    if !fuse {
        ops.push(StepOp::Exchange(ExchangeOp {
            label: "smooth (separate)",
            depth: d.smooth,
            fields: STATE4,
            overlapped: false,
        }));
        smooth(&mut ops, "smooth.s1", 0);
    }
    // validity countdown of the fused adaptation sweeps (§4.3.2): a group
    // exchange makes g halo layers valid; each iteration consumes 3.
    let mut valid = 0usize;
    for s in 1..=total {
        if (s - 1) % g == 0 {
            let op = if s == 1 {
                ExchangeOp {
                    label: "deep ξ (fused smoothing)",
                    depth: d.deep,
                    fields: DEEP7,
                    overlapped: true,
                }
            } else if (s - 1) % 3 == 0 {
                ExchangeOp {
                    label: "group ξ",
                    depth: d.group,
                    fields: DEEP7,
                    overlapped: false,
                }
            } else {
                // g = 1 only: mid-iteration refresh of the evaluation state
                ExchangeOp {
                    label: "sweep refresh",
                    depth: d.sweep,
                    fields: STATE4,
                    overlapped: false,
                }
            };
            ops.push(StepOp::Exchange(op));
            if s == 1 && fuse {
                // former smoothing on the shrunk interior (overlapping the
                // deep exchange), later smoothing on edge + halo rows once
                // it lands
                smooth(&mut ops, "smooth.s1", -2);
                smooth(&mut ops, "smooth.s2", g as i16);
            }
            valid = g;
        }
        let sub = ((s - 1) % 3 + 1) as u8;
        // region_k = dilate(valid - k): halo layers still valid for this
        // sub-update's output (0 on the plain interior when g = 1)
        let dilate = if g == 1 { 0 } else { valid as i16 - sub as i16 };
        // sub-updates 2 and 3 run C fresh; sub-update 1 reuses the cache
        let c = if sub == 1 {
            CSource::Cached
        } else {
            CSource::Fresh
        };
        if c == CSource::Fresh && pz > 1 {
            ops.push(StepOp::ZAllgather);
        }
        ops.push(StepOp::Compute(ComputeOp {
            op: adapt_op,
            sweep: s as u16,
            sub,
            dilate,
            snapshot_base: sub == 1,
            reads_base: true,
            c,
        }));
        filter(&mut ops, s as u16, dilate);
        if sub == 3 {
            valid = valid.saturating_sub(3);
        }
    }
    // advection countdown: g_a valid layers per shallow exchange, one
    // consumed per sweep (CaModel: dila(g_a - 1), then min(valid - 1, 1),
    // then the interior)
    let mut valida = 0usize;
    for s in 1..=3usize {
        if (s - 1) % ga == 0 {
            ops.push(StepOp::Exchange(ExchangeOp {
                label: "advect ψ+g_w",
                depth: d.shallow,
                fields: ADV5,
                overlapped: s == 1,
            }));
            valida = ga;
        }
        let dilate = match s {
            1 => (ga - 1) as i16,
            2 => (valida as i16 - 1).min(1),
            _ => 0,
        };
        ops.push(StepOp::Compute(ComputeOp {
            op: advect_op,
            sweep: s as u16,
            sub: s as u8,
            dilate,
            snapshot_base: s == 1,
            reads_base: true,
            c: CSource::NotUsed,
        }));
        filter(&mut ops, s as u16, dilate);
        valida -= 1;
    }
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
        let d = ca_depths(9, true, 3);
        let sides = |north, south, top, bottom| GrowSides {
            north,
            south,
            top,
            bottom,
        };
        // north-pole rank of a y-split: deep towards the neighbour only
        let h = d.alloc(sides(false, true, false, false));
        assert_eq!((h.ym, h.yp, h.zm, h.zp), (2, 11, 1, 1));
        assert_eq!((h.xm, h.xp), (3, 3));
        // an interior rank of a y-z split holds the exchange depth all round
        let h = d.alloc(sides(true, true, true, true));
        assert_eq!((h.ym, h.yp, h.zm, h.zp), (11, 11, 9, 9));
        // a shallow rung still holds the smoothing's two rows
        let h = ca_depths(1, false, 1).alloc(sides(true, true, true, true));
        assert_eq!((h.ym, h.yp, h.zm, h.zp), (2, 2, 1, 1));
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
