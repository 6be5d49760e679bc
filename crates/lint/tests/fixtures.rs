//! Fixture coverage for the lint pass: each rule fires on a minimal
//! triggering source appended to a file of the workspace, stays silent on
//! clean code, honours the `lint:allow` waiver where its key takes one and
//! the `cfg(test)` exemption, and never matches inside comments or string
//! literals (nor, for the pub-caller rule, counts a `pub use` re-export as
//! a caller).  Every guard of the table fails on the workspace with the
//! mutation it was written for (`mutated`), and the unmutated workspace is
//! clean.
//!
//! The table's text-mode rows read this file, so a name they forbid is
//! spelled here in two `concat!` pieces.

use agcm_lint::guards::GUARDS;
use agcm_lint::Violation;
use agcm_lint::{code_lines, lint_files, lint_fused_access, lint_pub_callers, read_tree};
use std::path::Path;
use std::sync::OnceLock;

const ALL: &[&str] = &["alloc", "raw-index", "unwrap"];

/// A kernel module: under all three per-file rules.
const KERNEL: &str = "crates/core/src/adaptation.rs";

/// The per-file rules among `ALL` whose rows read `rel`.
fn rules_for(rel: &str) -> Vec<&'static str> {
    let mut keys: Vec<&str> = GUARDS
        .iter()
        .filter(|g| ALL.contains(&g.key) && g.covers(rel))
        .map(|g| g.key)
        .collect();
    keys.dedup();
    keys
}

/// The findings of the rules `keys` on the workspace with `code` appended
/// to `rel` (other guards, the line budgets among them, may fire too).
fn found(keys: &[&str], rel: &str, code: &str) -> Vec<Violation> {
    let v = mutated(rel, append(code));
    v.into_iter().filter(|v| keys.contains(&v.rule)).collect()
}

/// The line that code appended to `rel` starts on.
fn tail(rel: &str) -> usize {
    let file = workspace().iter().find(|f| f.0 == rel);
    file.map_or(0, |f| f.1.lines().count()) + 2
}

#[test]
fn alloc_rule_fires_on_each_allocation_pattern() {
    let fixtures = [
        ("let v = Vec::new();", r"\bVec::new"),
        ("let v = vec![0.0; n];", r"\bvec!"),
        ("let b = Box::new(x);", r"\bBox::new"),
        ("let s = format!(\"{x}\");", r"\bformat!"),
        ("let s = String::from(\"x\");", r"\bString::from"),
        ("let v = xs.to_vec();", ".to_vec()"),
        ("let s = x.to_string();", ".to_string()"),
        ("let v = x.clone();", ".clone()"),
        ("let v = Vec::with_capacity(3);", r"\bwith_capacity"),
        ("let v = it.collect();", ".collect()"),
    ];
    for (src, pat) in fixtures {
        let v = found(&["alloc"], KERNEL, src);
        assert_eq!(v.len(), 1, "{src}");
        assert_eq!(v[0].pattern, pat, "{src}");
        assert_eq!((v[0].file.as_str(), v[0].line), (KERNEL, tail(KERNEL)));
    }
}

#[test]
fn raw_index_rule_fires_on_raw_accessors() {
    for (src, pat) in [
        ("let s = f.raw();", ".raw()"),
        ("let s = f.raw_mut();", ".raw_mut()"),
        ("let p = f.idx(i, j, k);", ".idx("),
        ("let p = data.as_ptr();", r"\bas_ptr"),
        ("let p = data.as_mut_ptr();", r"\bas_mut_ptr"),
    ] {
        let v = found(&["raw-index"], KERNEL, src);
        assert_eq!(v.len(), 1, "{src}");
        assert_eq!(v[0].pattern, pat, "{src}");
    }
}

#[test]
fn unwrap_rule_fires_and_expect_is_permitted() {
    let rel = "crates/comm/src/transport.rs";
    let v = found(&["unwrap"], rel, "let x = rx.recv().unwrap();");
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].pattern, ".unwrap()");
    // .expect("…") documents the invariant — allowed
    let v = found(
        &["unwrap"],
        rel,
        "let x = rx.recv().expect(\"sender alive\");",
    );
    assert!(v.is_empty());
}

#[test]
fn clean_kernel_code_passes_all_rules() {
    let src = r#"
fn kernel(f: &Field3, out: &mut Field3, region: Region) {
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
    assert!(found(ALL, KERNEL, src).is_empty());
}

#[test]
fn waiver_on_same_or_preceding_line_suppresses_the_finding() {
    let alloc = |src: &str| found(&["alloc"], KERNEL, src).len();
    assert_eq!(
        alloc("let v = Vec::new(); // lint:allow(alloc) build-time only"),
        0
    );
    assert_eq!(
        alloc("// init-time table build: lint:allow(alloc)\nlet v = Vec::new();"),
        0
    );
    // a waiver for a DIFFERENT rule does not suppress
    assert_eq!(alloc("let v = Vec::new(); // lint:allow(unwrap)"), 1);
    // a waiver two lines up does not suppress
    assert_eq!(alloc("// lint:allow(alloc)\n\nlet v = Vec::new();"), 1);
}

/// Only the per-file rules and the `fused-access` and `pub-caller` checks
/// take a waiver: a structural guard's finding stands under one, and is
/// printed without the waiver hint.
#[test]
fn a_structural_guard_takes_no_waiver() {
    let cases = [
        (
            "one-unsafe",
            "crates/run/src/main.rs",
            "// SAFETY: nothing\n// lint:allow(one-unsafe)\nfn f() { unsafe {} }",
        ),
        (
            "deleted-knobs",
            "crates/core/src/dycore.rs",
            concat!(
                "// lint:allow(deleted-knobs)\nfn f(e: &mut Engine) { e.set_fu",
                "sion(true); }"
            ),
        ),
        (
            "one-step-loop",
            "crates/core/src/smoothing.rs",
            "fn f(ex: &mut Exchanger) { ex.post_sends(x); } // lint:allow(one-step-loop)",
        ),
    ];
    for (key, rel, code) in cases {
        let v = found(&[key], rel, code);
        assert!(
            v.iter().any(|v| v.file == rel && v.line > 0),
            "{key} waived in {rel}: {v:?}"
        );
        assert!(v.iter().all(|v| !v.to_string().contains("lint:allow")));
    }
}

#[test]
fn test_modules_and_cfg_test_items_are_exempt() {
    let src = r#"
fn hot(f: &Field3) -> f64 {
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
    assert!(found(ALL, KERNEL, src).is_empty());
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
        let v = found(&["alloc"], KERNEL, &src);
        assert_eq!(v.len(), 1, "cfg({gate})");
        assert_eq!(v[0].line, tail(KERNEL) + 1, "cfg({gate})");
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
    assert!(found(ALL, KERNEL, &src).is_empty());
}

#[test]
fn policy_binds_kernels_and_transport_only() {
    assert_eq!(rules_for(KERNEL), ["alloc", "raw-index", "unwrap"]);
    // and the fused-access check: a kernel's unregistered fused sweep
    let v = mutated("crates/core/src/smoothing.rs", |t| {
        format!("{t}\npub fn fused_smoothing_update() {{}}\n")
    });
    assert!(fired(&v, "fused-access"), "{v:?}");
    // the pooled FFT worker path: allocation-free, but its row buffers are
    // plain slices — no row-API rule
    assert_eq!(rules_for("crates/fft/src/filter.rs"), ["alloc"]);
    assert_eq!(rules_for("crates/comm/src/transport.rs"), ["unwrap"]);
    assert_eq!(rules_for("crates/core/src/serial.rs"), ["unwrap"]);
    assert_eq!(rules_for("crates/mesh/src/field.rs"), ["unwrap"]);
    assert!(rules_for("crates/run/src/bin/agcm-soak.rs").is_empty());
}

/// The model and the `figures` binary are under the no-unwrap rule by
/// directory; their tests and examples are not.
#[test]
fn core_and_bench_sources_are_under_the_no_unwrap_rule() {
    for rel in [
        "crates/core/src/new_module.rs",
        "crates/core/src/par/new_module.rs",
        "crates/bench/src/bin/figures.rs",
    ] {
        assert!(rules_for(rel).contains(&"unwrap"), "{rel}");
    }
    assert!(rules_for("crates/core/tests/step_fingerprints.rs").is_empty());
    assert!(rules_for("crates/core/examples/quickstart.rs").is_empty());
}

/// A module that is test code as a whole says so with an inner
/// `#![cfg(test)]` ahead of its items, and the rules pass over it; a
/// later one, or a non-test gate, exempts nothing.
#[test]
fn a_file_gated_on_test_as_a_whole_is_exempt() {
    let rel = "crates/core/src/oracles.rs";
    let whole = "//! oracles\n\n#![cfg(test)]\n\nfn f() { x.unwrap(); }\n";
    assert!(found(ALL, rel, whole).is_empty());
    let gated = "#![cfg(feature = \"x\")]\nfn f() { x.unwrap(); }\n";
    assert_eq!(found(ALL, rel, gated).len(), 1);
    let late = "fn f() { x.unwrap(); }\nmod m {\n#![cfg(test)]\n}\n";
    assert_eq!(found(ALL, rel, late).len(), 1);
}

/// The no-unwrap rule binds `agcm-comm` by directory: a module added to it
/// tomorrow is under the rule without a policy edit.
#[test]
fn a_new_comm_module_is_under_the_no_unwrap_rule() {
    assert_eq!(rules_for("crates/comm/src/new_module.rs"), ["unwrap"]);
    assert_eq!(rules_for("crates/comm/src/lib.rs"), ["unwrap"]);
    assert!(rules_for("crates/comm/tests/fault_injection.rs").is_empty());
}

/// The no-unwrap rule binds `agcm-mesh` by directory as well: a mesh file
/// added tomorrow is under it, and its unwraps are findings.
#[test]
fn a_new_mesh_module_is_under_the_no_unwrap_rule() {
    let rel = "crates/mesh/src/new_module.rs";
    assert_eq!(rules_for(rel), ["unwrap"]);
    let src = "fn cells(n: Option<usize>) -> usize { n.unwrap() }";
    let v = found(ALL, rel, src);
    assert_eq!(v.len(), 1);
    assert_eq!((v[0].rule, v[0].pattern.as_str()), ("unwrap", ".unwrap()"));
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
        assert_eq!(v[0].rule, "pub-caller");
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
    assert_eq!(v[0].rule, "fused-access");
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

// ---------------------------------------------------------------------------
// the guard table on the workspace
// ---------------------------------------------------------------------------

fn root() -> &'static Path {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    crate_dir
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
}

/// The workspace tree as `agcm-lint` reads it, read once.
fn workspace() -> &'static [(String, String)] {
    static TREE: OnceLock<Vec<(String, String)>> = OnceLock::new();
    TREE.get_or_init(|| read_tree(root()).expect("read the workspace"))
}

/// The findings on the workspace with the text of `rel` replaced by
/// `edit` of it (a new file gets `edit("")`).
fn mutated(rel: &str, edit: impl FnOnce(&str) -> String) -> Vec<Violation> {
    let mut files = workspace().to_vec();
    match files.iter_mut().find(|f| f.0 == rel) {
        Some(f) => f.1 = edit(&f.1),
        None => files.push((rel.to_string(), edit(""))),
    }
    lint_files(&files).expect("every table location present")
}

/// Whether guard `key` reported a finding: the unmutated workspace is
/// clean, so it is the mutation's.
fn fired(v: &[Violation], key: &str) -> bool {
    v.iter().any(|v| v.rule == key)
}

/// `text` with `line` inserted before its 1-based line `n`.
fn insert_at(text: &str, n: usize, line: &str) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    lines.insert(n - 1, line);
    lines.join("\n") + "\n"
}

/// Append `code` to the file.
fn append(code: &str) -> impl FnOnce(&str) -> String + '_ {
    move |t| format!("{t}\n{code}\n")
}

/// Assert that appending `code` to `rel` fails guard `key`.
fn fails(key: &str, rel: &str, code: &str) {
    let v = mutated(rel, append(code));
    assert!(fired(&v, key), "{key} passed `{code}` in {rel}: {v:?}");
}

/// Assert that appending `code` to `rel` does not fail guard `key`.
fn passes(key: &str, rel: &str, code: &str) {
    let v = mutated(rel, append(code));
    assert!(!fired(&v, key), "{key} failed `{code}`: {v:?}");
}

/// The enforcement test: the real workspace tree is clean.  Any guard of
/// the table broken, a line budget exceeded, or a `pub` item no other file
/// calls, fails this test (and the `agcm-lint` CI step) until waived or
/// fixed.
#[test]
fn workspace_tree_is_clean() {
    let violations = lint_files(workspace()).expect("lint walk");
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

#[test]
fn deleted_knobs_stay_deleted_in_code_strings_and_manifests() {
    let key = "deleted-knobs";
    fails(
        key,
        "crates/core/src/dycore.rs",
        concat!("fn f(e: &mut Engine) { e.set_fu", "sion(true); }"),
    );
    let env = concat!("fn g() { let _ = std::env::var(\"AGCM_TILE", "_J\"); }");
    fails(key, "crates/run/src/lib.rs", env);
    fails(
        key,
        "crates/core/Cargo.toml",
        concat!("[features]\nset_gr", "oup = []"),
    );
}

#[test]
fn one_kernel_path_reads_workflows_and_features() {
    let key = "one-kernel-path";
    fails(
        key,
        ".github/workflows/ci.yml",
        concat!("      AGCM_BEN", "CH_ITERS: 1"),
    );
    fails(
        key,
        "crates/core/Cargo.toml",
        concat!("[features]\nscalar-r", "ows = []"),
    );
    fails(
        key,
        "crates/core/src/adaptation.rs",
        concat!("pub enum Kernel", "Path { Lanes }"),
    );
}

#[test]
fn one_isa_refuses_target_features_and_fused_multiply_add() {
    let key = "one-isa";
    fails(
        key,
        "crates/fft/src/fft.rs",
        concat!("#[target", "_feature(enable = \"avx2\")]\nfn f() {}"),
    );
    fails(
        key,
        "crates/core/src/lanes.rs",
        concat!("fn g(x: f64) -> f64 { x.mul", "_add(x, x) }"),
    );
    let v = mutated(".cargo/config.toml", |t| {
        t.replace("target-cpu=", "target-cpu-")
    });
    assert!(fired(&v, key), "{v:?}");
}

#[test]
fn one_message_per_link_refuses_a_field_index_and_a_second_codec() {
    let key = "one-message-per-link";
    fails(
        key,
        "crates/core/src/par/exchange.rs",
        concat!("// wire_", "tag(seq, dir, field)"),
    );
    fails(
        key,
        "crates/verify/src/lib.rs",
        concat!("pub fn wire_", "tag(seq: u64, dir: u32) {}"),
    );
    passes(
        key,
        "crates/core/src/par/exchange.rs",
        concat!("// wire_", "tag(seq, dir)"),
    );
}

#[test]
fn one_band_axis_refuses_a_z_slab_view() {
    fails(
        "one-band-axis",
        "crates/core/src/pool.rs",
        concat!("fn f() { split_z", "_slabs(); }"),
    );
}

#[test]
fn one_field_type_matches_whole_words() {
    let key = "one-field-type";
    fails(
        key,
        "crates/mesh/src/field.rs",
        concat!("pub struct Field", "2;"),
    );
    passes(
        key,
        "crates/mesh/src/field.rs",
        concat!("pub struct Field", "2x;"),
    );
}

/// The step primitives in `smooth_band`, on the stepping path — the mutation
/// the former grep guard missed: it stopped reading `smoothing.rs` at line
/// 24's `#[cfg(test)]`.
#[test]
fn one_step_loop_sees_code_after_an_early_cfg_test() {
    let (key, rel) = ("one-step-loop", "crates/core/src/smoothing.rs");
    let v = mutated(rel, |t| insert_at(t, 200, "            ex.post_sends(x);"));
    assert!(fired(&v, key), "{v:?}");
    // after a gated `use` and after a gated oracle fn, in a new module
    let call = "fn step(ex: &mut Exchanger) { ex.post_sends(x); }";
    fails(
        key,
        "crates/core/src/blind.rs",
        &format!("#[cfg(test)]\nuse std::fmt;\n{call}"),
    );
    let oracle = "#[cfg(test)]\npub fn oracle() -> u32 {\n    1\n}";
    fails(
        key,
        "crates/core/src/blind.rs",
        &format!("{oracle}\n{call}"),
    );
    // a test calls what it likes
    passes(key, rel, &format!("#[cfg(test)]\nmod more {{ {call} }}"));
    // and the interpreter must still call each primitive
    let v = mutated("crates/core/src/integrator.rs", |t| {
        t.replace(".post_sends(", ".posts(")
    });
    assert!(fired(&v, key), "{v:?}");
}

/// A second generator that spells a sub-update — Algorithm 2's program
/// written out by hand again — fails; the engine's sub-update entry points
/// are other names.
#[test]
fn one_program_keeps_the_sub_update_in_algorithm_1s_generator() {
    let (key, rel) = ("one-program", "crates/core/src/par/schedule.rs");
    let second = "pub fn alg3_step(pg: &ProcessGrid) -> Vec<StepOp> {\n    let mut ops = Vec::new();\n    subupdate(&mut ops, pg, \"advection.fused\", 1, CSource::NotUsed);\n    ops\n}";
    fails(key, rel, second);
    fails(
        key,
        "crates/core/src/par/alg2.rs",
        "fn f(o: &mut Vec<StepOp>) { subupdate(o, g, k, 1, c); }",
    );
    passes(
        key,
        "crates/core/src/integrator.rs",
        "fn f(e: &mut Engine) { e.adaptation_subupdate(s); }",
    );
    // and Algorithm 1's generator must still spell it
    let v = mutated(rel, |t| t.replace("subupdate(", "sub_update("));
    assert!(fired(&v, key), "{v:?}");
}

#[test]
fn three_state_buffers_and_none_allocated_by_the_sweep() {
    let key = "three-state-buffers";
    let v = mutated("crates/core/src/integrator.rs", |t| {
        t.replace(
            "pub struct Integrator {",
            "pub struct Integrator {\n    spare: State,",
        )
    });
    assert!(fired(&v, key), "{v:?}");
    fails(
        key,
        "crates/core/src/sweep.rs",
        "fn spare(s: &State) -> State { State::like(s) }",
    );
}

#[test]
fn phi_p_and_dp_stay_with_their_owners() {
    let key = "phi-p-where-cached";
    fails(
        key,
        "crates/core/src/dycore.rs",
        "fn peek(diag: &Diag) -> f64 { diag.dp.get(0, 0, 0) }",
    );
    let phi = "fn peek(diag: &Diag) -> f64 { diag.phi_p.get(0, 0, 0) }";
    fails(key, "crates/core/src/integrator.rs", phi);
}

#[test]
fn one_cost_model_refuses_fitters_and_constants_outside_model_rs() {
    let key = "one-cost-model";
    fails(
        key,
        "crates/comm/src/lib.rs",
        concat!("pub fn fit_gam", "ma() {}"),
    );
    fails(
        key,
        "crates/core/src/analysis.rs",
        concat!("fn p() { predict", "_step(); }"),
    );
    let literal = "fn m() -> CostModel { CostModel { alpha: 0.0, ..CostModel::BENCH_HOST } }";
    fails(key, "crates/core/src/analysis.rs", literal);
    passes(
        key,
        "crates/core/src/analysis.rs",
        &format!("#[cfg(test)]\nmod m {{ {literal} }}"),
    );
}

#[test]
fn one_launcher_spawns_and_polls_once() {
    let key = "one-launcher";
    fails(
        key,
        "crates/run/src/lib.rs",
        "fn spawn2() { let _ = Command::new(\"x\"); }",
    );
    fails(key, "crates/run/src/elastic.rs", "fn await_world() {}");
    fails(
        key,
        ".github/workflows/ci.yml",
        concat!("      AGCM_SUPER", "VISED: 1"),
    );
}

#[test]
fn one_worker_steps_the_model_twice() {
    let key = "one-worker";
    fails(
        key,
        "crates/run/src/soak.rs",
        "fn again(m: &mut M) { m.step(Some(&c)); }",
    );
    fails(
        key,
        "crates/run/src/lib.rs",
        concat!("fn classic_wo", "rker() {}"),
    );
}

#[test]
fn one_rollback_keeps_the_in_process_runner_deleted() {
    fails(
        "one-rollback",
        "crates/core/src/resilience.rs",
        concat!("pub struct Resilient", "Runner;"),
    );
}

#[test]
fn crash_only_matches_whole_words() {
    fails(
        "crash-only",
        "crates/comm/src/transport.rs",
        concat!("fn re", "wire() {}"),
    );
    passes(
        "crash-only",
        "crates/comm/src/transport.rs",
        concat!("fn re", "wires() {}"),
    );
}

#[test]
fn crash_only_keeps_the_retrying_exchange_deleted() {
    fails(
        "crash-only",
        "crates/core/src/par/exchange.rs",
        concat!("pub struct Retry", "Policy { pub max_attempts: u32 }"),
    );
    fails(
        "crash-only",
        "crates/comm/tests/fault_injection.rs",
        concat!("// m.set_fr", "amed(true);"),
    );
    fails(
        "crash-only",
        "crates/comm/src/stats.rs",
        concat!("fn f(k: FaultKind) { if k == FaultKind::Co", "rrupt {} }"),
    );
}

#[test]
fn one_kill_keeps_the_step_abort_the_receive_site_and_tcp_deleted() {
    let key = "one-kill";
    for (rel, code) in [
        ("crates/run/src/lib.rs", concat!("// AGCM_KILL", "_STEP=3")),
        (
            "crates/run/src/elastic.rs",
            concat!("fn f(w: &W) { w.kill", "_step; }"),
        ),
        (
            "crates/comm/src/fault.rs",
            concat!("fn g(s: &S) -> bool { s.is", "_send }"),
        ),
        (
            "crates/comm/src/transport.rs",
            concat!("use std::net::Tcp", "Stream;"),
        ),
    ] {
        fails(key, rel, code);
    }
    passes(
        key,
        "crates/run/src/elastic.rs",
        concat!("fn f(w: &W) { w.kill", "_steps; }"),
    );
}

#[test]
fn one_way_home_gathers_once() {
    let key = "one-way-home";
    fails(
        key,
        "crates/run/src/lib.rs",
        concat!("fn write_st", "ate() {}"),
    );
    fails(
        key,
        "crates/run/src/elastic.rs",
        "fn g(m: &M) { m.gather_state(c); }",
    );
}

#[test]
fn one_trace_check_refuses_the_feature_and_the_figures_subcommand() {
    let key = "one-trace-check";
    fails(
        key,
        "crates/obs/src/lib.rs",
        concat!("#[cfg(feature = \"tr", "ace\")]\nfn t() {}"),
    );
    let rel = "crates/bench/src/bin/figures.rs";
    let v = mutated(rel, |t| {
        t.replace(
            "\"all\" =>",
            concat!("\"tr", "ace\" => {}\n        \"all\" =>"),
        )
    });
    assert!(fired(&v, key), "{v:?}");
}

/// The X-Y transpose filter on the allocating oracle — the path it ran
/// before it went through the batched kernel.
#[test]
fn one_transform_path_keeps_the_oracle_in_tests() {
    let (key, rel) = ("one-transform-path", "crates/fft/src/distributed.rs");
    let call = "fn f(filter: &FourierFilter, row: &mut [f64]) { filter.apply_row(0, row); }";
    fails(key, rel, call);
    fails(
        key,
        "crates/core/src/filterop.rs",
        "fn g(x: &[f64]) -> usize { agcm_fft::irfft(&agcm_fft::rfft(x), x.len()).len() }",
    );
    // a test compares against it, and the oracle's own files define it
    passes(key, rel, &format!("#[cfg(test)]\nmod more {{ {call} }}"));
    passes(key, "crates/fft/src/filter.rs", call);
}

#[test]
fn one_unsafe_block_under_its_safety_line() {
    let key = "one-unsafe";
    let block = "// SAFETY: nothing\nfn f() { unsafe {} }";
    fails(key, "crates/core/src/pool.rs", block);
    fails(key, "crates/mesh/src/pages.rs", block);
    fails(
        key,
        "crates/core/src/pool.rs",
        &format!("#[cfg(test)]\nmod t {{\n{block}\n}}"),
    );
    fails(
        key,
        "crates/core/src/pool.rs",
        "extern \"C\" { fn free(p: *mut u8); }",
    );
    let rel = "crates/mesh/src/pages.rs";
    let v = mutated(rel, |t| {
        t.replace("\n    unsafe {", "\n    let _gap = 0;\n    unsafe {")
    });
    assert!(
        v.iter()
            .any(|v| v.rule == key && v.file == rel && v.line > 0),
        "{v:?}"
    );
    let v = mutated("crates/comm/src/lib.rs", |t| {
        t.replace("#![forbid(unsafe_code)]", "")
    });
    assert!(fired(&v, key), "{v:?}");
    let v = mutated("crates/mesh/src/lib.rs", |t| {
        t.replace("#![deny(unsafe_code)]", "")
    });
    assert!(fired(&v, key), "{v:?}");
}

/// Code after `#[cfg(test)] mod golden;` is code (the former counter
/// stopped reading `core/src/lib.rs` there), a `#[cfg(test)]` fn is code,
/// and a `#[cfg(test)]` module is not.
#[test]
fn line_budgets_count_what_a_test_module_does_not_hide() {
    let key = "line-budget";
    // `n` more code lines than budget `name` has room for
    let over = |name: &str, line: &str| {
        let lines = code_lines(workspace());
        let (b, n) = lines.iter().find(|(b, _)| b.name == name).expect(name);
        line.repeat(b.max + 1 - n)
    };
    let tail = over("agcm-core", "pub const TAIL: u32 = 1;\n");
    let v = mutated("crates/core/src/lib.rs", append(&tail));
    assert!(fired(&v, key), "{v:?}");
    let oracles = over("integrator + par", "#[cfg(test)]\nfn oracle() {}\n");
    let v = mutated("crates/core/src/par/extra.rs", |_| oracles);
    assert!(fired(&v, key), "{v:?}");
    let module = format!(
        "#[cfg(test)]\nmod extra {{\n{}}}",
        over("integrator + par", "fn f() {}\n")
    );
    passes(key, "crates/core/src/par/mod.rs", &module);
}

/// A location the table names that the tree lacks — a renamed owner file,
/// a renamed owner fn — is a refusal, not an empty guard.
#[test]
fn a_table_location_missing_from_the_tree_is_an_error() {
    for (from, to) in [
        (
            "crates/core/src/integrator.rs",
            "crates/core/src/interpreter.rs",
        ),
        ("crates/mesh/src/pages.rs", "crates/mesh/src/alloc.rs"),
        ("crates/comm/src/model.rs", "crates/comm/src/costs.rs"),
    ] {
        let mut files = workspace().to_vec();
        let f = files.iter_mut().find(|f| f.0 == from).expect("in the tree");
        f.0 = to.to_string();
        let err = lint_files(&files).expect_err(from);
        assert!(err.contains(from), "{err}");
    }
    let mut files = workspace().to_vec();
    let f = files
        .iter_mut()
        .find(|f| f.0.ends_with("core/src/integrator.rs"));
    let f = f.expect("in the tree");
    f.1 = f.1.replace("pub fn capture(", "pub fn snapshot(");
    let err = lint_files(&files).expect_err("capture renamed");
    assert!(err.contains("integrator.rs::capture"), "{err}");
    // and on disk: a checkout without the table's paths
    let dir = std::env::temp_dir().join(format!("agcm-lint-fixture-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("crates/x/src")).expect("temp tree");
    std::fs::write(dir.join("crates/x/src/lib.rs"), "pub fn f() {}\n").expect("temp file");
    let files = read_tree(&dir).expect("read the temp tree");
    std::fs::remove_dir_all(&dir).expect("remove the temp tree");
    assert_eq!(files.len(), 1);
    assert!(lint_files(&files).is_err());
}
