//! Fixture coverage for the lint pass: each rule fires on a minimal
//! triggering source, stays silent on clean code, honours the
//! `lint:allow` waiver and the `cfg(test)` exemption, and never
//! matches inside comments or string literals (nor, for the pub-caller
//! rule, counts a `pub use` re-export as a caller).

use agcm_lint::{lint_fused_access, lint_pub_callers, lint_source, lint_tree, rules_for, Rule};

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
    assert_eq!(rules_for("crates/mesh/src/field.rs"), vec![Rule::Unwrap]);
}

/// The no-unwrap rule binds `agcm-comm` by directory: a module added to it
/// tomorrow is under the rule without a policy edit.
#[test]
fn a_new_comm_module_is_under_the_no_unwrap_rule() {
    assert_eq!(
        rules_for("crates/comm/src/new_module.rs"),
        vec![Rule::Unwrap]
    );
    assert_eq!(rules_for("crates/comm/src/lib.rs"), vec![Rule::Unwrap]);
    assert!(rules_for("crates/comm/tests/fault_injection.rs").is_empty());
}

/// The no-unwrap rule binds `agcm-mesh` by directory as well: a mesh file
/// added tomorrow is under it, and its unwraps are findings.
#[test]
fn a_new_mesh_module_is_under_the_no_unwrap_rule() {
    let rel = "crates/mesh/src/new_module.rs";
    assert_eq!(rules_for(rel), vec![Rule::Unwrap]);
    let src = "pub fn cells(n: Option<usize>) -> usize { n.unwrap() }";
    let v = lint_source(rel, src, &rules_for(rel));
    assert_eq!(v.len(), 1);
    assert_eq!(
        (v[0].rule, v[0].pattern.as_str()),
        (Rule::Unwrap, ".unwrap()")
    );
    assert!(rules_for("crates/mesh/tests/proptest_mesh.rs").is_empty());
}

/// `(path, source)` pairs for [`lint_pub_callers`].
fn tree(files: &[(&str, &str)]) -> Vec<(String, String)> {
    files
        .iter()
        .map(|&(p, s)| (p.to_string(), s.to_string()))
        .collect()
}

const LONE: &str = "pub fn lone() -> u32 { 1 }\n";

#[test]
fn pub_caller_fires_on_a_lone_pub_item() {
    for (src, name) in [
        (LONE, "lone"),
        ("pub struct S;", "S"),
        ("pub enum E { A }", "E"),
        ("pub trait T {}", "T"),
        ("pub const C: u32 = 1;", "C"),
        ("pub const fn cf() {}", "cf"),
        ("pub type Alias = u32;", "Alias"),
        ("pub static STATIC: u32 = 1;", "STATIC"),
        ("impl S {\n    pub fn method(&self) {}\n}", "method"),
    ] {
        let v = lint_pub_callers(&tree(&[("crates/x/src/a.rs", src)]));
        assert_eq!(v.len(), 1, "{src}");
        assert_eq!(v[0].rule, Rule::PubCaller);
        assert_eq!(v[0].pattern, name, "{src}");
        assert_eq!(v[0].file, "crates/x/src/a.rs");
    }
    // a mention in the declaring file itself is no outside caller
    let own =
        "pub fn lone() {}\nfn user() { lone() }\n#[cfg(test)]\nmod t { fn f() { super::lone() } }";
    let v = lint_pub_callers(&tree(&[("crates/x/src/a.rs", own)]));
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].line, 1);
}

#[test]
fn pub_caller_is_cleared_by_code_in_another_file() {
    for caller in [
        ("crates/x/src/b.rs", "fn f() -> u32 { crate::a::lone() }"),
        (
            "crates/y/tests/t.rs",
            "#[test] fn t() { assert_eq!(x::lone(), 1); }",
        ),
        (
            "crates/x/src/c.rs",
            "#[cfg(test)] mod tests { fn t() { lone(); } }",
        ),
        ("benchmark/src/main.rs", "use x::lone;"),
    ] {
        let v = lint_pub_callers(&tree(&[("crates/x/src/a.rs", LONE), caller]));
        assert!(v.is_empty(), "{caller:?}");
    }
}

#[test]
fn pub_caller_is_not_cleared_by_comments_strings_reexports_or_declarations() {
    for other in [
        "// lone() is called nowhere\n/* lone */\n/// [`lone`]\nfn f() {}",
        "fn f() -> &'static str { \"lone\" }",
        "pub use crate::a::lone;",
        "pub use crate::a::{lone, other};",
        "pub(crate) use crate::a::lone;",
        "fn lone() {}",
    ] {
        let v = lint_pub_callers(&tree(&[
            ("crates/x/src/a.rs", LONE),
            ("crates/x/src/lib.rs", other),
        ]));
        assert_eq!(v.len(), 1, "{other}");
        assert_eq!(v[0].pattern, "lone", "{other}");
    }
}

#[test]
fn pub_caller_honours_an_in_place_waiver() {
    let same = "pub fn lone() {} // lint:allow(pub-caller) entry point of a binary\n";
    let above = "#[derive(Debug)]\n// lint:allow(pub-caller) read by a test harness\npub struct S;";
    let wrong = "// lint:allow(unwrap)\npub fn lone() {}";
    for (src, n) in [(same, 0), (above, 0), (wrong, 1)] {
        assert_eq!(
            lint_pub_callers(&tree(&[("crates/x/src/a.rs", src)])).len(),
            n,
            "{src}"
        );
    }
}

#[test]
fn pub_caller_binds_only_pub_items_of_crate_sources() {
    let src = "
pub(crate) fn narrow() {}
pub(super) struct Up;
fn private() {}
pub mod m {}
pub use other::Thing;
pub struct Named { pub field: u32 }
#[cfg(test)]
pub fn test_helper() {}
macro_rules! m { ($name:ident) => { pub fn $name() {} } }
";
    let v = lint_pub_callers(&tree(&[
        ("crates/x/src/a.rs", src),
        ("crates/x/src/b.rs", "Named"),
    ]));
    assert!(v.is_empty(), "{v:?}");
    // outside `crates/*/src` nothing is bound
    for path in [
        "crates/x/tests/t.rs",
        "crates/x/examples/e.rs",
        "benchmark/src/lib.rs",
    ] {
        assert!(
            lint_pub_callers(&tree(&[(path, LONE)])).is_empty(),
            "{path}"
        );
    }
}

/// A type its callers hold without naming — returned by a called `pub`
/// function, or a field of a called `pub` struct — is reached; rustc would
/// refuse it narrower than its function.
#[test]
fn pub_caller_reaches_types_through_called_signatures() {
    let src = "
pub struct Report { detail: Detail }
pub struct Detail;
pub struct Unused;
pub fn make() -> Report { Report { detail: Detail } }
pub fn internal() -> Unused { Unused }
";
    let v = lint_pub_callers(&tree(&[
        ("crates/x/src/a.rs", src),
        ("crates/y/src/b.rs", "fn f() { x::make(); }"),
    ]));
    let flagged: Vec<&str> = v.iter().map(|v| v.pattern.as_str()).collect();
    assert_eq!(flagged, ["Unused", "internal"]);
    // a private struct exposes nothing
    let private = "struct Opts { pub alg: Alg }\npub enum Alg { One }";
    let v = lint_pub_callers(&tree(&[
        ("crates/x/src/a.rs", private),
        ("crates/x/src/b.rs", "fn f(o: Opts) { o.alg; }"),
    ]));
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].pattern, "Alg");
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
/// / raw-index / unwrap introduced into a bound module, or a `pub` item no
/// other file calls, fails this test (and the `agcm-lint` CI step) until
/// waived or fixed.
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
