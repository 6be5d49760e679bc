//! Fixture coverage for the lint pass: each rule fires on a minimal
//! triggering source, stays silent on clean code, honours the
//! `lint:allow` waiver and the `cfg(test)` exemption, and never
//! matches inside comments or string literals.

use agcm_lint::{lint_fused_access, lint_source, lint_tree, rules_for, Rule};

const ALL: &[Rule] = &[Rule::Alloc, Rule::RawIndex, Rule::Unwrap];

#[test]
fn alloc_rule_fires_on_each_allocation_pattern() {
    let fixtures = [
        ("let v = Vec::new();", "Vec::new"),
        ("let v = vec![0.0; n];", "vec!"),
        ("let b = Box::new(x);", "Box::new"),
        ("let s = format!(\"{x}\");", "format!"),
        ("let s = String::from(\"x\");", "String::from"),
        ("let v = xs.to_vec();", ".to_vec()"),
        ("let s = x.to_string();", ".to_string()"),
        ("let v = x.clone();", ".clone()"),
        ("let v = Vec::with_capacity(3);", "with_capacity"),
        ("let v = it.collect();", ".collect()"),
    ];
    for (src, pat) in fixtures {
        let v = lint_source("k.rs", src, &[Rule::Alloc]);
        assert_eq!(v.len(), 1, "{src}");
        assert_eq!(v[0].pattern, pat, "{src}");
        assert_eq!(v[0].rule, Rule::Alloc);
        assert_eq!(v[0].line, 1);
    }
}

#[test]
fn raw_index_rule_fires_on_raw_accessors() {
    for (src, pat) in [
        ("let s = f.raw();", ".raw()"),
        ("let s = f.raw_mut();", ".raw_mut()"),
        ("let p = f.idx(i, j, k);", ".idx("),
        ("let p = data.as_ptr();", "as_ptr"),
        ("let p = data.as_mut_ptr();", "as_mut_ptr"),
    ] {
        let v = lint_source("k.rs", src, &[Rule::RawIndex]);
        assert_eq!(v.len(), 1, "{src}");
        assert_eq!(v[0].pattern, pat, "{src}");
    }
}

#[test]
fn unwrap_rule_fires_and_expect_is_permitted() {
    let v = lint_source("t.rs", "let x = rx.recv().unwrap();", &[Rule::Unwrap]);
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].pattern, ".unwrap()");
    // .expect("…") documents the invariant — allowed
    let v = lint_source(
        "t.rs",
        "let x = rx.recv().expect(\"sender alive\");",
        &[Rule::Unwrap],
    );
    assert!(v.is_empty());
}

#[test]
fn clean_kernel_code_passes_all_rules() {
    let src = r#"
pub fn kernel(f: &Field3, out: &mut Field3, region: Region) {
    for k in region.z0..region.z1 {
        for j in region.y0..region.y1 {
            let r = f.row(-3, nx + 3, j, k);
            let o = out.row_mut(0, nx, j, k);
            for (p, x) in o.iter_mut().enumerate() {
                *x = r[p] + r[p + 1];
            }
        }
    }
}
"#;
    assert!(lint_source("k.rs", src, ALL).is_empty());
}

#[test]
fn waiver_on_same_or_preceding_line_suppresses_the_finding() {
    let same = "let v: Vec<f64> = Vec::new(); // lint:allow(alloc) build-time only";
    assert!(lint_source("k.rs", same, &[Rule::Alloc]).is_empty());
    let above = "// init-time table build: lint:allow(alloc)\nlet v = Vec::new();";
    assert!(lint_source("k.rs", above, &[Rule::Alloc]).is_empty());
    // a waiver for a DIFFERENT rule does not suppress
    let wrong = "let v = Vec::new(); // lint:allow(unwrap)";
    assert_eq!(lint_source("k.rs", wrong, &[Rule::Alloc]).len(), 1);
    // a waiver two lines up does not suppress
    let far = "// lint:allow(alloc)\n\nlet v = Vec::new();";
    assert_eq!(lint_source("k.rs", far, &[Rule::Alloc]).len(), 1);
}

#[test]
fn test_modules_and_cfg_test_items_are_exempt() {
    let src = r#"
pub fn hot(f: &Field3) -> f64 {
    f.get(0, 0, 0)
}

#[cfg(test)]
pub fn scalar_reference(n: usize) -> Vec<f64> {
    let mut v = vec![0.0; n];
    v[0] = 1.0;
    v
}

#[cfg(any(test, debug_assertions))]
fn checked(xs: &[f64]) -> Vec<f64> {
    xs.to_vec()
}

#[cfg(all(not(feature = "access-sanitizer"), test))]
fn fixture() -> String {
    String::from("x")
}

#[cfg(test)]
mod tests {
    #[test]
    fn alloc_happens_here() {
        let v = Vec::new();
        let s = format!("{v:?}");
        assert!(s.raw().unwrap().is_empty());
    }
}
"#;
    assert!(lint_source("k.rs", src, ALL).is_empty());
}

/// Only `test` as a cfg word in positive position exempts an item: code
/// gated on anything else — a feature, a feature whose *name* contains
/// "test", the absence of `test` — runs in production.
#[test]
fn non_test_cfg_gates_are_not_exempt() {
    for gate in [
        "feature = \"access-sanitizer\"",
        "feature = \"latest\"",
        "not(test)",
        "any(not(test), feature = \"x\")",
        "all(unix, not(any(test, miri)))",
        "testing",
    ] {
        let src = format!("#[cfg({gate})]\nfn hot() {{ let v = Vec::new(); }}");
        let v = lint_source("k.rs", &src, &[Rule::Alloc]);
        assert_eq!(v.len(), 1, "cfg({gate})");
        assert_eq!(v[0].line, 2, "cfg({gate})");
    }
}

#[test]
fn comments_and_strings_never_trigger() {
    let src = r#"
// Vec::new() would allocate here, so the kernel uses .raw() — not!
/* block comment: x.unwrap() */
let msg = "call .unwrap() or Vec::new or f.raw() for fun";
let raw = r#inner#;
let c = '"';
"#
    .replace("r#inner#", "r#\".unwrap() inside raw string\"#");
    assert!(lint_source("k.rs", &src, ALL).is_empty());
}

#[test]
fn policy_binds_kernels_and_transport_only() {
    assert_eq!(
        rules_for("crates/core/src/adaptation.rs"),
        vec![Rule::Alloc, Rule::RawIndex, Rule::FusedAccess]
    );
    // the pooled FFT worker path: allocation-free, but its row buffers are
    // plain slices — no row-API rule
    assert_eq!(rules_for("crates/fft/src/filter.rs"), vec![Rule::Alloc]);
    assert_eq!(
        rules_for("crates/comm/src/transport.rs"),
        vec![Rule::Unwrap]
    );
    assert!(rules_for("crates/core/src/serial.rs").is_empty());
    assert!(rules_for("crates/mesh/src/field.rs").is_empty());
}

const FUSED_MODULE: &str = "
pub fn plain_kernel() {}
pub fn fused_adaptation_update(x: f64) -> f64 { x }
";

#[test]
fn fused_kernel_without_registry_entry_is_flagged() {
    // registry knows only the unfused key
    let access = "pub const ADAPTATION: AccessSpec = AccessSpec { op: \"adaptation\" };";
    let v = lint_fused_access("crates/core/src/adaptation.rs", FUSED_MODULE, access);
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].rule, Rule::FusedAccess);
    assert_eq!(v[0].pattern, "fn fused_");
    assert_eq!(v[0].line, 3);
}

#[test]
fn fused_kernel_with_registry_entry_passes() {
    let access = "pub const ADAPTATION_FUSED: AccessSpec =
        AccessSpec { op: \"adaptation.fused\" };";
    let v = lint_fused_access("crates/core/src/adaptation.rs", FUSED_MODULE, access);
    assert!(v.is_empty());
}

#[test]
fn fused_access_respects_waiver_and_test_gating() {
    let access = "";
    let waived = "
// lint:allow(fused-access)
pub fn fused_adaptation_update(x: f64) -> f64 { x }
";
    assert!(lint_fused_access("crates/core/src/adaptation.rs", waived, access).is_empty());
    let gated = "
#[cfg(test)]
pub fn fused_adaptation_update(x: f64) -> f64 { x }
";
    assert!(lint_fused_access("crates/core/src/adaptation.rs", gated, access).is_empty());
}

#[test]
fn fused_access_key_is_per_module_stem() {
    // an advection registration does not cover an adaptation fused kernel
    let access = "AccessSpec { op: \"advection.fused\" }";
    let v = lint_fused_access("crates/core/src/adaptation.rs", FUSED_MODULE, access);
    assert_eq!(v.len(), 1);
    // …but it does cover advection's own
    let v = lint_fused_access("crates/core/src/advection.rs", FUSED_MODULE, access);
    assert!(v.is_empty());
}

/// The enforcement test: the real workspace tree is clean.  Any allocation
/// / raw-index / unwrap introduced into a bound module fails this test
/// (and the `agcm-lint` CI step) until waived or fixed.
#[test]
fn workspace_tree_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root");
    let violations = lint_tree(root).expect("lint walk");
    assert!(
        violations.is_empty(),
        "lint violations:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
