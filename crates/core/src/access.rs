//! Machine-checkable access declarations for every hot kernel.
//!
//! The paper's Tables 1–3 state, per operator term, which mesh-point
//! offsets the update of `(i, j, k)` reads.  [`crate::tables`] keeps those
//! printed rows as data; this module states the same contract at the level
//! the certification pass needs: **per kernel, per field**, as read/write
//! offset *boxes* in `(x, y, z)` — an [`AccessSpec`] per hot kernel
//! (adaptation, advection, S1/S2 smoothing, the vertical-sum operator `C`,
//! and the Fourier filter).
//!
//! Three consumers keep the declarations honest:
//!
//! * `agcm-verify`'s dataflow pass composes these boxes over the per-step
//!   operation list ([`crate::par::schedule`]) and proves every read is
//!   covered by the preceding exchange's halo depth,
//! * the registry self-tests below assert each kernel's union equals the
//!   corresponding Tables 1–3 union from [`crate::tables`], so the
//!   field-level refinement can never drift from the paper's footprints,
//! * `agcm-mesh`'s access sanitizer (feature `access-sanitizer`) diffs the
//!   index ranges a kernel *actually* touches at runtime against the box
//!   declared here.

use agcm_mesh::Axis;

/// A per-field offset box: how many layers beyond the evaluation region the
/// kernel may touch on each side of each axis (all extents are ≥ 0; e.g.
/// `xm = 3` means offsets down to `i − 3` may be read).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffsetBox {
    /// Layers on the negative x side.
    pub xm: u32,
    /// Layers on the positive x side.
    pub xp: u32,
    /// Layers on the negative y side.
    pub ym: u32,
    /// Layers on the positive y side.
    pub yp: u32,
    /// Layers on the negative z side.
    pub zm: u32,
    /// Layers on the positive z side.
    pub zp: u32,
}

impl OffsetBox {
    /// Build a box from per-side extents.
    pub const fn new(xm: u32, xp: u32, ym: u32, yp: u32, zm: u32, zp: u32) -> Self {
        OffsetBox {
            xm,
            xp,
            ym,
            yp,
            zm,
            zp,
        }
    }

    /// The point-wise box (touches only the evaluation region itself).
    pub const fn pointwise() -> Self {
        OffsetBox::new(0, 0, 0, 0, 0, 0)
    }

    /// Extents (negative side, positive side) along `axis`.
    pub fn along(&self, axis: Axis) -> (u32, u32) {
        match axis {
            Axis::X => (self.xm, self.xp),
            Axis::Y => (self.ym, self.yp),
            Axis::Z => (self.zm, self.zp),
        }
    }

    /// Component-wise union (max of extents).
    pub fn union(&self, o: &OffsetBox) -> OffsetBox {
        OffsetBox {
            xm: self.xm.max(o.xm),
            xp: self.xp.max(o.xp),
            ym: self.ym.max(o.ym),
            yp: self.yp.max(o.yp),
            zm: self.zm.max(o.zm),
            zp: self.zp.max(o.zp),
        }
    }

    /// Whether an offset `(di, dj, dk)` relative to the evaluation region
    /// lies inside the box.
    pub fn contains(&self, di: i64, dj: i64, dk: i64) -> bool {
        -(self.xm as i64) <= di
            && di <= self.xp as i64
            && -(self.ym as i64) <= dj
            && dj <= self.yp as i64
            && -(self.zm as i64) <= dk
            && dk <= self.zp as i64
    }
}

/// Whether a field access is a read or a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessDir {
    /// The kernel reads the field.
    Read,
    /// The kernel writes the field.
    Write,
}

/// One field's declared access within a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldAccess {
    /// Field name (`"u"`, `"v"`, `"phi"`, `"psa"`, `"vsum"`, `"gw"`,
    /// `"phi_p"`, `"dp"`, `"dsa"`).
    pub field: &'static str,
    /// Read or write.
    pub dir: AccessDir,
    /// The offset box relative to the evaluation region.
    pub bounds: OffsetBox,
    /// The access spans the whole (periodic) x circle — the Fourier
    /// filter's rows.  The box's x extents are ignored when set.
    pub whole_x: bool,
    /// The access spans the whole global column — the collective operator
    /// `C`'s sums, satisfied by a z-allgather (or `p_z = 1`), never by a
    /// halo.  The box's z extents still apply to the *local* prefix walks.
    pub whole_z: bool,
}

impl FieldAccess {
    const fn read(field: &'static str, bounds: OffsetBox) -> Self {
        FieldAccess {
            field,
            dir: AccessDir::Read,
            bounds,
            whole_x: false,
            whole_z: false,
        }
    }

    const fn write(field: &'static str, bounds: OffsetBox) -> Self {
        FieldAccess {
            field,
            dir: AccessDir::Write,
            bounds,
            whole_x: false,
            whole_z: false,
        }
    }

    const fn whole_x(mut self) -> Self {
        self.whole_x = true;
        self
    }

    const fn whole_z(mut self) -> Self {
        self.whole_z = true;
        self
    }
}

/// The declared access contract of one hot kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessSpec {
    /// Registry key — also the `op` of [`crate::par::schedule::ComputeOp`].
    pub op: &'static str,
    /// Every field the kernel touches.
    pub fields: &'static [FieldAccess],
}

impl AccessSpec {
    /// The declared accesses of `field` in `dir`, if any.
    pub fn access(&self, field: &str, dir: AccessDir) -> Option<&'static FieldAccess> {
        self.fields
            .iter()
            .find(|a| a.field == field && a.dir == dir)
    }

    /// Union box over all reads.
    pub fn read_union(&self) -> OffsetBox {
        self.fields
            .iter()
            .filter(|a| a.dir == AccessDir::Read)
            .fold(OffsetBox::pointwise(), |acc, a| acc.union(&a.bounds))
    }

    /// All read accesses.
    pub fn reads(&self) -> impl Iterator<Item = &'static FieldAccess> {
        self.fields.iter().filter(|a| a.dir == AccessDir::Read)
    }

    /// All write accesses.
    pub fn writes(&self) -> impl Iterator<Item = &'static FieldAccess> {
        self.fields.iter().filter(|a| a.dir == AccessDir::Write)
    }
}

const PW: OffsetBox = OffsetBox::pointwise();

const ADAPTATION_FIELDS: [FieldAccess; 13] = [
    // prognostic reads: the Table 1 x extent (±3) and the C-grid
    // meridional coupling (±1); single level.
    FieldAccess::read("u", OffsetBox::new(3, 3, 1, 1, 0, 0)),
    FieldAccess::read("v", OffsetBox::new(3, 3, 1, 1, 0, 0)),
    FieldAccess::read("phi", OffsetBox::new(3, 3, 1, 1, 0, 0)),
    // p'_sa feeds the point-wise surface diagnostics `p_es`/`P`, read
    // at j ± 1 by the pressure-gradient and Ω terms.
    FieldAccess::read("psa", OffsetBox::new(3, 3, 1, 1, 0, 0)),
    // C outputs: φ' at (j, j+1) — declared symmetric in y like D(P);
    // g_w at interfaces (k, k+1); vsum/dsa/dp produced on the region.
    FieldAccess::read("phi_p", OffsetBox::new(3, 3, 1, 1, 0, 0)),
    FieldAccess::read("gw", OffsetBox::new(1, 1, 0, 0, 0, 1)),
    FieldAccess::read("dp", OffsetBox::new(1, 1, 0, 0, 0, 0)),
    FieldAccess::read("vsum", OffsetBox::new(1, 1, 0, 0, 0, 0)),
    FieldAccess::read("dsa", PW),
    FieldAccess::write("u", PW),
    FieldAccess::write("v", PW),
    FieldAccess::write("phi", PW),
    FieldAccess::write("psa", PW),
];

/// The adaptation sweep `Â` (Table 1's stencil part; the z-global terms
/// enter through the `C` diagnostics declared in [`VERTICAL_C`]).
pub const ADAPTATION: AccessSpec = AccessSpec {
    op: "adaptation",
    fields: &ADAPTATION_FIELDS,
};

/// The *fused* adaptation sub-update (`crate::adaptation::
/// fused_adaptation_update`): tendency + per-row combine in one pass (the
/// filter-active rows combined in place after the filter).  The
/// point-wise `base` read of the combine is modeled by the schedule's
/// `reads_base`, and the output write is the state write already declared,
/// so the fused kernel's contract is exactly the sweep's field list — but
/// it MUST be registered under its own key: a fused kernel the schedule
/// emits without a registry entry fails certification with a named
/// `UnregisteredOp` counterexample instead of silently running.
pub const ADAPTATION_FUSED: AccessSpec = AccessSpec {
    op: "adaptation.fused",
    fields: &ADAPTATION_FIELDS,
};

/// The collective operator `C` ([`crate::vertical::apply_c`]): whole-column
/// sums (the z-allgather) plus local prefix/suffix walks that read one
/// row/level beyond the region — the `z ± 1` widening of
/// [`crate::tables::adaptation_impl_union`].
pub const VERTICAL_C: AccessSpec = AccessSpec {
    op: "vertical.c",
    fields: &[
        // D(P) inputs (Table 1 row `D(P)`: x ±3 declared, y ±1).
        FieldAccess::read("u", OffsetBox::new(3, 3, 1, 1, 0, 0)).whole_z(),
        FieldAccess::read("v", OffsetBox::new(3, 3, 1, 1, 0, 0)).whole_z(),
        // φ'-integrand on rows grown by one, one level into the halo.
        FieldAccess::read("phi", OffsetBox::new(1, 1, 1, 1, 1, 1)).whole_z(),
        FieldAccess::read("psa", OffsetBox::new(1, 1, 1, 1, 0, 0)),
        FieldAccess::write("dsa", PW),
        FieldAccess::write("dp", OffsetBox::new(1, 1, 0, 0, 0, 0)),
        FieldAccess::write("vsum", OffsetBox::new(1, 1, 0, 0, 0, 0)),
        // g_w holds interfaces k − 1/2 … one entry past the region.
        FieldAccess::write("gw", OffsetBox::new(1, 1, 0, 0, 0, 1)),
        // φ' is produced on the region grown by one latitude row.
        FieldAccess::write("phi_p", OffsetBox::new(1, 1, 1, 1, 0, 0)),
    ],
};

const ADVECTION_FIELDS: [FieldAccess; 9] = [
    FieldAccess::read("u", OffsetBox::new(3, 3, 1, 1, 1, 1)),
    FieldAccess::read("v", OffsetBox::new(3, 3, 1, 1, 1, 1)),
    FieldAccess::read("phi", OffsetBox::new(3, 3, 1, 1, 1, 1)),
    FieldAccess::read("psa", OffsetBox::new(3, 3, 1, 1, 0, 0)),
    // the frozen continuity flux, read at (j, j+1) × (k, k+1); the
    // row-sliced kernel fetches the common x slice ±2 (uses ±1)
    FieldAccess::read("gw", OffsetBox::new(2, 2, 0, 1, 0, 1)),
    FieldAccess::write("u", PW),
    FieldAccess::write("v", PW),
    FieldAccess::write("phi", PW),
    FieldAccess::write("psa", PW),
];

/// The advection sweep `L̃` (Table 2).
pub const ADVECTION: AccessSpec = AccessSpec {
    op: "advection",
    fields: &ADVECTION_FIELDS,
};

/// The *fused* advection sub-update — same contract rationale as
/// [`ADAPTATION_FUSED`].
pub const ADVECTION_FUSED: AccessSpec = AccessSpec {
    op: "advection.fused",
    fields: &ADVECTION_FIELDS,
};

/// The smoothing operator (Table 3): `P₁` (x-only, ±2) on winds, `P₂`
/// (x and y, ±2) on `Φ` and `p'_sa`.  `smooth.s1` is the former/full
/// smoothing; `smooth.s2` the later smoothing that completes edge and halo
/// rows after the fused deep exchange lands (§4.3.2) — same footprint.
pub const SMOOTH_S1: AccessSpec = AccessSpec {
    op: "smooth.s1",
    fields: &SMOOTH_FIELDS,
};

/// The later (post-exchange) smoothing: identical contract to
/// [`SMOOTH_S1`], evaluated on edge rows and (redundantly) the halo.
pub const SMOOTH_S2: AccessSpec = AccessSpec {
    op: "smooth.s2",
    fields: &SMOOTH_FIELDS,
};

const SMOOTH_FIELDS: [FieldAccess; 8] = [
    FieldAccess::read("u", OffsetBox::new(2, 2, 0, 0, 0, 0)),
    FieldAccess::read("v", OffsetBox::new(2, 2, 0, 0, 0, 0)),
    FieldAccess::read("phi", OffsetBox::new(2, 2, 2, 2, 0, 0)),
    FieldAccess::read("psa", OffsetBox::new(2, 2, 2, 2, 0, 0)),
    FieldAccess::write("u", PW),
    FieldAccess::write("v", PW),
    FieldAccess::write("phi", PW),
    FieldAccess::write("psa", PW),
];

/// The Held–Suarez forcing ([`crate::dycore::Engine::apply_forcing`]):
/// point-wise on the winds and `Φ`, plus the rows of `p'_sa` — over the
/// whole x halo — that `update_surface` turns into the `p_es` / `P` the
/// relaxation reads.  It writes the interior only, so whatever halo
/// validity its argument had is gone after it.
pub const FORCING: AccessSpec = AccessSpec {
    op: "forcing",
    fields: &[
        FieldAccess::read("u", PW),
        FieldAccess::read("v", PW),
        FieldAccess::read("phi", PW),
        FieldAccess::read("psa", OffsetBox::new(3, 3, 0, 0, 0, 0)),
        FieldAccess::write("u", PW),
        FieldAccess::write("v", PW),
        FieldAccess::write("phi", PW),
    ],
};

/// The polar Fourier filter: whole-x rows (communication-free under the
/// Y-Z decomposition, §4.2.1; two transposes per application when x is
/// decomposed).
pub const FILTER: AccessSpec = AccessSpec {
    op: "filter",
    fields: &[
        FieldAccess::read("u", PW).whole_x(),
        FieldAccess::read("v", PW).whole_x(),
        FieldAccess::read("phi", PW).whole_x(),
        FieldAccess::read("psa", PW).whole_x(),
        FieldAccess::write("u", PW).whole_x(),
        FieldAccess::write("v", PW).whole_x(),
        FieldAccess::write("phi", PW).whole_x(),
        FieldAccess::write("psa", PW).whole_x(),
    ],
};

/// Every registered kernel spec.
pub fn registry() -> &'static [AccessSpec] {
    &[
        ADAPTATION,
        ADAPTATION_FUSED,
        VERTICAL_C,
        ADVECTION,
        ADVECTION_FUSED,
        SMOOTH_S1,
        SMOOTH_S2,
        FORCING,
        FILTER,
    ]
}

/// Look a kernel up by its registry key.
pub fn spec(op: &str) -> Option<&'static AccessSpec> {
    registry().iter().find(|s| s.op == op)
}

/// Union of the read boxes of a set of specs — the per-sweep footprint the
/// dataflow analysis dilates.
pub fn read_union_of(ops: &[&AccessSpec]) -> OffsetBox {
    ops.iter()
        .fold(OffsetBox::pointwise(), |acc, s| acc.union(&s.read_union()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables;
    use agcm_mesh::StencilFootprint;

    fn footprint_extents(fp: &StencilFootprint, axis: Axis) -> (u32, u32) {
        fp.required_halo(axis)
    }

    fn assert_union_matches(b: OffsetBox, fp: &StencilFootprint) {
        for axis in Axis::ALL {
            assert_eq!(
                b.along(axis),
                footprint_extents(fp, axis),
                "{}: {axis} extents",
                fp.name
            );
        }
    }

    #[test]
    fn adaptation_spec_union_equals_table1_impl_union() {
        // one adaptation sub-update = stencil part + C diagnostics
        let u = read_union_of(&[&ADAPTATION, &VERTICAL_C]);
        assert_union_matches(u, &tables::adaptation_impl_union());
    }

    #[test]
    fn advection_spec_union_equals_table2_union() {
        assert_union_matches(ADVECTION.read_union(), &tables::advection_union());
    }

    #[test]
    fn smoothing_spec_union_equals_table3_union() {
        assert_union_matches(SMOOTH_S1.read_union(), &tables::smoothing_union());
        assert_union_matches(SMOOTH_S2.read_union(), &tables::smoothing_union());
    }

    #[test]
    fn registry_lookup_and_roles() {
        for s in registry() {
            assert!(spec(s.op).is_some(), "{} not found", s.op);
            assert!(s.reads().count() > 0, "{} declares no reads", s.op);
            assert!(s.writes().count() > 0, "{} declares no writes", s.op);
        }
        assert!(spec("nonexistent").is_none());
        let a = spec("adaptation").unwrap();
        let gw = a.access("gw", AccessDir::Read).unwrap();
        assert_eq!(gw.bounds.along(Axis::Z), (0, 1));
        assert!(!gw.whole_z);
        let c = spec("vertical.c").unwrap();
        assert!(c.access("phi", AccessDir::Read).unwrap().whole_z);
        assert!(
            spec("filter")
                .unwrap()
                .access("u", AccessDir::Read)
                .unwrap()
                .whole_x
        );
    }

    #[test]
    fn offset_box_contains_and_union() {
        let b = OffsetBox::new(1, 2, 0, 1, 0, 0);
        assert!(b.contains(-1, 0, 0));
        assert!(b.contains(2, 1, 0));
        assert!(!b.contains(-2, 0, 0));
        assert!(!b.contains(0, -1, 0));
        let u = b.union(&OffsetBox::new(0, 0, 3, 0, 1, 0));
        assert_eq!(u, OffsetBox::new(1, 2, 3, 1, 1, 0));
    }
}
