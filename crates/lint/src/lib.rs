//! # agcm-lint — repo-specific static lint pass
//!
//! Three structural rules clippy cannot express, enforced over the
//! workspace source tree (no rustc plumbing — a hand-rolled lexer that
//! strips comments, string/char literals and `#[cfg(test)]`-gated items,
//! then scans the residual code):
//!
//! * [`Rule::Alloc`] — **no allocation-capable calls in the zero-alloc
//!   stepping paths** (the hot kernel modules).  The runtime guard in
//!   `core/tests/zero_alloc.rs` catches steady-state allocations that
//!   actually happen; this lint catches them at review time, including on
//!   cold branches the test never takes.
//! * [`Rule::RawIndex`] — **no raw indexing outside the row API in kernel
//!   modules**: kernels go through `row`/`row_mut`/`get`/`set`, never
//!   `.raw()`/`.idx()`/pointer casts, so the access sanitizer and the
//!   declared `AccessSpec` footprints see every touch.
//! * [`Rule::Unwrap`] — **no `.unwrap()` in transport/resilience code**:
//!   fault-injection drives those paths through every error arm, and an
//!   unwrap turns an injected, recoverable fault into an abort.
//!   `.expect("…")` is permitted — the message documents the invariant.
//! * [`Rule::FusedAccess`] — **every fused kernel is registered**: a kernel
//!   module defining a `fn fused_*` sweep must have a matching
//!   `"<module>.fused"` op key in the `core::access` registry
//!   ([`ACCESS_REGISTRY`]), so the `verify::dataflow` proof can resolve the
//!   fused footprint.  The runtime backstop is the `UnregisteredOp`
//!   counterexample certification raises on an unregistered op; this lint
//!   catches the omission at review time, before any schedule runs.
//!
//! A finding can be waived in place with `// lint:allow(<rule>)` on the
//! same line or the line above, where `<rule>` is `alloc`, `raw-index` or
//! `unwrap`.  The waiver comment is expected to say *why* (reviewed like
//! any other code).
//!
//! Which rules bind which files is the repo policy in [`rules_for`]; the
//! `agcm-lint` binary walks `crates/*/src` and applies it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// One lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Allocation-capable call in a zero-alloc stepping path.
    Alloc,
    /// Raw indexing outside the row API in a kernel module.
    RawIndex,
    /// `.unwrap()` in transport/resilience code.
    Unwrap,
    /// A `fn fused_*` kernel with no matching access-registry op key.
    FusedAccess,
}

impl Rule {
    /// The `lint:allow(...)` key for this rule.
    pub fn key(self) -> &'static str {
        match self {
            Rule::Alloc => "alloc",
            Rule::RawIndex => "raw-index",
            Rule::Unwrap => "unwrap",
            Rule::FusedAccess => "fused-access",
        }
    }

    /// Code patterns whose presence (in lexed code, not comments/strings)
    /// violates the rule.
    fn patterns(self) -> &'static [&'static str] {
        match self {
            Rule::Alloc => &[
                "Vec::new",
                "vec!",
                "Box::new",
                "format!",
                "String::from",
                ".to_vec()",
                ".to_string()",
                ".to_owned()",
                ".clone()",
                "with_capacity",
                ".collect()",
            ],
            Rule::RawIndex => &[".raw()", ".raw_mut()", ".idx(", "as_ptr", "as_mut_ptr"],
            Rule::Unwrap => &[".unwrap()"],
            // cross-file rule — checked by `lint_fused_access`, not the
            // per-file pattern scan
            Rule::FusedAccess => &[],
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// File the finding is in (as passed to the linter).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// The matched pattern.
    pub pattern: &'static str,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] `{}` (waive with `// lint:allow({})`)",
            self.file, self.line, self.rule, self.pattern, self.rule
        )
    }
}

// ---------------------------------------------------------------------------
// lexer: blank out comments and literals, collect lint:allow directives
// ---------------------------------------------------------------------------

struct Lexed {
    /// Source with comments and string/char literals replaced by spaces
    /// (newlines kept, so offsets and line numbers are unchanged).
    code: Vec<u8>,
    /// `(line, rule-key)` for every `lint:allow(...)` comment.
    allows: Vec<(usize, String)>,
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn lex(src: &str) -> Lexed {
    let s = src.as_bytes();
    let mut code = s.to_vec();
    let mut allows = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    let blank = |code: &mut [u8], from: usize, to: usize| {
        for c in code.iter_mut().take(to).skip(from) {
            if *c != b'\n' {
                *c = b' ';
            }
        }
    };
    while i < s.len() {
        match s[i] {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'/' if i + 1 < s.len() && s[i + 1] == b'/' => {
                let start = i;
                while i < s.len() && s[i] != b'\n' {
                    i += 1;
                }
                let text = &src[start..i];
                if let Some(p) = text.find("lint:allow(") {
                    if let Some(q) = text[p..].find(')') {
                        let key = text[p + "lint:allow(".len()..p + q].trim();
                        allows.push((line, key.to_string()));
                    }
                }
                blank(&mut code, start, i);
            }
            b'/' if i + 1 < s.len() && s[i + 1] == b'*' => {
                let start = i;
                let mut depth = 1;
                i += 2;
                while i < s.len() && depth > 0 {
                    if s[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if s[i] == b'/' && i + 1 < s.len() && s[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if s[i] == b'*' && i + 1 < s.len() && s[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                blank(&mut code, start, i);
            }
            b'"' => {
                let start = i;
                i += 1;
                while i < s.len() {
                    match s[i] {
                        b'\\' => i += 2,
                        b'\n' => {
                            line += 1;
                            i += 1;
                        }
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                blank(&mut code, start, i);
            }
            b'r' | b'b' if !(i > 0 && is_ident(s[i - 1])) => {
                // maybe a raw/byte string: r"", r#""#, br"", b"" …
                let start = i;
                let mut j = i + 1;
                if s[i] == b'b' && j < s.len() && s[j] == b'r' {
                    j += 1;
                }
                let mut hashes = 0usize;
                while j < s.len() && s[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                let raw = j > i + 1 || s[i] == b'r';
                if j < s.len() && s[j] == b'"' && (raw || s[i] == b'b') {
                    j += 1;
                    loop {
                        if j >= s.len() {
                            break;
                        }
                        if s[j] == b'\n' {
                            line += 1;
                            j += 1;
                        } else if !raw && s[j] == b'\\' {
                            j += 2;
                        } else if s[j] == b'"' {
                            let mut h = 0usize;
                            while j + 1 + h < s.len() && s[j + 1 + h] == b'#' && h < hashes {
                                h += 1;
                            }
                            if h == hashes {
                                j += 1 + hashes;
                                break;
                            }
                            j += 1;
                        } else {
                            j += 1;
                        }
                    }
                    blank(&mut code, start, j);
                    i = j;
                } else {
                    i += 1;
                }
            }
            b'\'' => {
                // char literal vs lifetime
                if i + 1 < s.len() && s[i + 1] == b'\\' {
                    let start = i;
                    i += 2;
                    while i < s.len() && s[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                    blank(&mut code, start, i);
                } else if i + 2 < s.len() && s[i + 2] == b'\'' {
                    blank(&mut code, i, i + 3);
                    i += 3;
                } else {
                    i += 1; // lifetime: leave the identifier as code
                }
            }
            _ => i += 1,
        }
    }
    Lexed { code, allows }
}

// ---------------------------------------------------------------------------
// cfg(test) item skipping
// ---------------------------------------------------------------------------

/// Whether a `#[cfg(…)]` attribute (code view: string literals blanked, so
/// a feature *named* like `test` is not a word here) has `test` as a cfg
/// word in positive position: `cfg(test)`, `cfg(any(test, …))`,
/// `cfg(all(test, …))` — never under a `not(…)`, whose item is compiled
/// into production.
fn gates_on_test(attr: &[u8]) -> bool {
    // one entry per open `(`: whether it is the paren of a `not`
    let mut negated = Vec::new();
    let mut i = 0usize;
    while i < attr.len() {
        if attr[i] == b')' {
            negated.pop();
        }
        if !is_ident(attr[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < attr.len() && is_ident(attr[i]) {
            i += 1;
        }
        let word = &attr[start..i];
        while i < attr.len() && attr[i].is_ascii_whitespace() {
            i += 1;
        }
        if i < attr.len() && attr[i] == b'(' {
            negated.push(word == b"not");
            i += 1;
        } else if word == b"test" && !negated.contains(&true) {
            return true;
        }
    }
    false
}

/// Blank every item gated by a `#[cfg(…)]` attribute that
/// [`gates_on_test`]: test modules and the per-point reference kernels the
/// tests compare against are exempt from the stepping-path rules.
fn blank_test_gated(src: &str, code: &mut [u8]) {
    let s = src.as_bytes();
    let mut i = 0usize;
    while let Some(p) = find_in_code(code, i, b"#[cfg(") {
        // find the attribute's closing `]` (brackets nest in cfg(any(…)))
        let mut j = p + 2;
        let mut depth = 1; // the `[` of `#[`
        while j < s.len() && depth > 0 {
            match code[j] {
                b'[' => depth += 1,
                b']' => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        if !gates_on_test(&code[p..j]) {
            i = j;
            continue;
        }
        // skip to the gated item's body: the first `{` or `;` at depth 0
        // (further attributes / visibility / signature in between)
        let mut k = j;
        let mut par = 0i32;
        while k < s.len() {
            match code[k] {
                b'(' | b'[' => par += 1,
                b')' | b']' => par -= 1,
                b'{' if par == 0 => break,
                b';' if par == 0 => break,
                _ => {}
            }
            k += 1;
        }
        let end = if k < s.len() && code[k] == b'{' {
            let mut depth = 0i32;
            let mut m = k;
            while m < s.len() {
                match code[m] {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            m += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                m += 1;
            }
            m
        } else {
            (k + 1).min(s.len())
        };
        for c in code.iter_mut().take(end).skip(p) {
            if *c != b'\n' {
                *c = b' ';
            }
        }
        i = end;
    }
}

fn find_in_code(code: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    code[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

// ---------------------------------------------------------------------------
// scanning
// ---------------------------------------------------------------------------

/// Lint one source file's text against `rules`.
pub fn lint_source(file: &str, src: &str, rules: &[Rule]) -> Vec<Violation> {
    let mut lexed = lex(src);
    blank_test_gated(src, &mut lexed.code);
    let mut out = Vec::new();
    for &rule in rules {
        for &pat in rule.patterns() {
            let mut from = 0usize;
            while let Some(p) = find_in_code(&lexed.code, from, pat.as_bytes()) {
                from = p + pat.len();
                // `vec!` must not match e.g. `to_vec!`-like idents
                if pat.as_bytes()[0].is_ascii_alphabetic() && p > 0 && is_ident(lexed.code[p - 1]) {
                    continue;
                }
                let line = 1 + lexed.code[..p].iter().filter(|&&b| b == b'\n').count();
                let waived = lexed
                    .allows
                    .iter()
                    .any(|(l, k)| (*l == line || *l + 1 == line) && k == rule.key());
                if !waived {
                    out.push(Violation {
                        file: file.to_string(),
                        line,
                        rule,
                        pattern: pat,
                    });
                }
            }
        }
    }
    out.sort_by_key(|v| v.line);
    out
}

/// Cross-file rule: every `fn fused_*` kernel in `module_src` must have a
/// `"<module-stem>.fused"` op key registered in the access-registry source
/// (`access_src`, normally [`ACCESS_REGISTRY`]).  Waivable with
/// `// lint:allow(fused-access)` on the `fn` line or the line above.
pub fn lint_fused_access(module_rel: &str, module_src: &str, access_src: &str) -> Vec<Violation> {
    let mut lexed = lex(module_src);
    blank_test_gated(module_src, &mut lexed.code);
    let stem = Path::new(module_rel)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    // the op key lives in a string literal, so search the raw registry text
    let token = format!("\"{stem}.fused\"");
    let registered = access_src.contains(&token);
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(p) = find_in_code(&lexed.code, from, b"fn fused_") {
        from = p + "fn fused_".len();
        if registered {
            continue;
        }
        let line = 1 + lexed.code[..p].iter().filter(|&&b| b == b'\n').count();
        let waived = lexed
            .allows
            .iter()
            .any(|(l, k)| (*l == line || *l + 1 == line) && k == Rule::FusedAccess.key());
        if !waived {
            out.push(Violation {
                file: module_rel.to_string(),
                line,
                rule: Rule::FusedAccess,
                pattern: "fn fused_",
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// repo policy
// ---------------------------------------------------------------------------

/// The kernel modules bound by [`Rule::Alloc`] and [`Rule::RawIndex`] —
/// the zero-alloc stepping paths whose footprints the `core::access`
/// registry declares.
pub const KERNEL_MODULES: &[&str] = &[
    "crates/core/src/adaptation.rs",
    "crates/core/src/advection.rs",
    "crates/core/src/smoothing.rs",
    "crates/core/src/vertical.rs",
    "crates/core/src/filterop.rs",
    "crates/core/src/diag.rs",
    "crates/core/src/forcing.rs",
];

/// Modules bound by [`Rule::Alloc`] only: the FFT polar filter's stepping
/// path (the batched `FourierFilter::apply_rows_with`, the `FilterScratch`
/// arenas it consumes and the transform kernel behind them), the tendency
/// sweep driver with its per-worker `SweepScratch` row buffers, and the
/// worker pool with the row-band views it splits (`core::pool`,
/// `mesh::band`: a phase at one worker must not touch the heap) must stay
/// allocation-free at steady state — only the allocating test oracle and
/// first-sight table/arena construction carry waivers — but these modules
/// index plain slices (the band views *are* the row API), so the row-API
/// rule does not apply.  So must the step-program interpreter
/// (`core::integrator`): its walk touches no heap; refused constructors and
/// checkpoint snapshots carry the waivers.  `C`'s per-worker rows are warmed in `core::diag`
/// and the Held–Suarez row body lives in `core::forcing`, both kernel
/// modules above.
pub const ALLOC_ONLY_MODULES: &[&str] = &[
    "crates/fft/src/filter.rs",
    "crates/fft/src/fft.rs",
    "crates/core/src/sweep.rs",
    "crates/core/src/pool.rs",
    "crates/core/src/integrator.rs",
    "crates/mesh/src/band.rs",
];

/// The access registry the [`Rule::FusedAccess`] cross-file rule consults.
pub const ACCESS_REGISTRY: &str = "crates/core/src/access.rs";

/// Transport/resilience modules bound by [`Rule::Unwrap`]: every error arm
/// here is reachable under fault injection — in the launcher (`agcm-run`,
/// `agcm-soak`) by a killed or failing worker — or, in the record codec
/// (`obs::dist`), by bytes the parent reads but did not write.
pub const NO_UNWRAP_MODULES: &[&str] = &[
    "crates/obs/src/dist.rs",
    "crates/comm/src/transport.rs",
    "crates/comm/src/runtime.rs",
    "crates/comm/src/collective.rs",
    "crates/comm/src/fault.rs",
    "crates/core/src/resilience.rs",
    "crates/run/src/lib.rs",
    "crates/run/src/elastic.rs",
    "crates/run/src/soak.rs",
];

/// Which rules bind a workspace-relative path (forward slashes).
pub fn rules_for(rel: &str) -> Vec<Rule> {
    let mut rules = Vec::new();
    if KERNEL_MODULES.iter().any(|m| rel.ends_with(m)) {
        rules.push(Rule::Alloc);
        rules.push(Rule::RawIndex);
        rules.push(Rule::FusedAccess);
    }
    if ALLOC_ONLY_MODULES.iter().any(|m| rel.ends_with(m)) {
        rules.push(Rule::Alloc);
    }
    if NO_UNWRAP_MODULES.iter().any(|m| rel.ends_with(m)) {
        rules.push(Rule::Unwrap);
    }
    rules
}

/// Walk `root` (a workspace checkout) and lint every bound file.
pub fn lint_tree(root: &Path) -> io::Result<Vec<Violation>> {
    let mut out = Vec::new();
    for rel in KERNEL_MODULES
        .iter()
        .chain(ALLOC_ONLY_MODULES)
        .chain(NO_UNWRAP_MODULES)
        .chain([&ACCESS_REGISTRY])
    {
        let path = root.join(rel);
        if !path.exists() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("policy file missing: {}", path.display()),
            ));
        }
    }
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                let rules = rules_for(&rel);
                if !rules.is_empty() {
                    let src = fs::read_to_string(&path)?;
                    out.extend(lint_source(&rel, &src, &rules));
                    if rules.contains(&Rule::FusedAccess) {
                        let access = fs::read_to_string(root.join(ACCESS_REGISTRY))?;
                        out.extend(lint_fused_access(&rel, &src, &access));
                    }
                }
            }
        }
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(out)
}
