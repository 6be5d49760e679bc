//! # agcm-lint — repo-specific static lint pass
//!
//! Five structural rules clippy and rustc cannot express, enforced over
//! the workspace source tree (no rustc plumbing — a hand-rolled lexer that
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
//!   (`ACCESS_REGISTRY`), so the `verify::dataflow` proof can resolve the
//!   fused footprint.  The runtime backstop is the `UnregisteredOp`
//!   counterexample certification raises on an unregistered op; this lint
//!   catches the omission at review time, before any schedule runs.
//! * [`Rule::PubCaller`] — **every `pub` item has a caller outside its
//!   file**: a `pub` fn, struct, enum, trait, const, type or static
//!   declared under `crates/*/src` must be named, in code, by another
//!   `.rs` file under `crates/` or `benchmark/` (tests count; a comment, a
//!   string or a `pub use` re-export does not).  rustc's `dead_code` cannot
//!   see a `pub` item; once narrowed to private or `pub(crate)` it can.
//!
//! A finding can be waived in place with `// lint:allow(<rule>)` on the
//! same line or the line above, where `<rule>` is the rule's key
//! ([`Rule::key`]).  The waiver comment is expected to say *why* (reviewed
//! like any other code); there is no allowlist file.
//!
//! Which per-file rules bind which files is the repo policy in
//! [`rules_for`]; the pub-caller rule binds every file under `crates/*/src`.
//! The `agcm-lint` binary walks `crates/` and `benchmark/` and applies
//! both.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashSet;
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
    /// A `pub` item no other file names in code.
    PubCaller,
}

impl Rule {
    /// The `lint:allow(...)` key for this rule.
    pub fn key(self) -> &'static str {
        match self {
            Rule::Alloc => "alloc",
            Rule::RawIndex => "raw-index",
            Rule::Unwrap => "unwrap",
            Rule::FusedAccess => "fused-access",
            Rule::PubCaller => "pub-caller",
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
            // cross-file rules — checked by `lint_fused_access` and
            // `lint_pub_callers`, not the per-file pattern scan
            Rule::FusedAccess | Rule::PubCaller => &[],
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
    /// The matched pattern (for [`Rule::PubCaller`], the item's name).
    pub pattern: String,
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

impl Lexed {
    /// Whether a `lint:allow(<rule>)` sits on `line` or the line above.
    fn waives(&self, line: usize, rule: Rule) -> bool {
        self.allows
            .iter()
            .any(|(l, k)| (*l == line || *l + 1 == line) && k == rule.key())
    }
}

fn line_of(code: &[u8], p: usize) -> usize {
    1 + code[..p].iter().filter(|&&b| b == b'\n').count()
}

/// Replace `code[from..to]` by spaces, newlines kept.
fn blank(code: &mut [u8], from: usize, to: usize) {
    for c in code.iter_mut().take(to).skip(from) {
        if *c != b'\n' {
            *c = b' ';
        }
    }
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
/// A file whose inner `#![cfg(…)]`, ahead of its first item, gates on
/// test (a module that is test code as a whole) is blanked from there on.
fn blank_test_gated(src: &str, code: &mut [u8]) {
    let s = src.as_bytes();
    if let Some(p) = find_in_code(code, 0, b"#![cfg(") {
        let heads_the_file = !code[..p].iter().any(|&b| b == b';' || b == b'{');
        if heads_the_file && gates_on_test(&code[p..attr_end(code, p + 2)]) {
            blank(code, p, s.len());
            return;
        }
    }
    let mut i = 0usize;
    while let Some(p) = find_in_code(code, i, b"#[cfg(") {
        let j = attr_end(code, p + 1);
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
            block_end(code, k)
        } else {
            (k + 1).min(s.len())
        };
        blank(code, p, end);
        i = end;
    }
}

/// One past the `]` that closes an attribute whose `[` is at `open`
/// (brackets nest in `cfg(any(…))`).
fn attr_end(code: &[u8], open: usize) -> usize {
    let mut j = open + 1;
    let mut depth = 1;
    while j < code.len() && depth > 0 {
        match code[j] {
            b'[' => depth += 1,
            b']' => depth -= 1,
            _ => {}
        }
        j += 1;
    }
    j
}

/// One past the `}` that closes the `{` at `open`.
fn block_end(code: &[u8], open: usize) -> usize {
    let mut depth = 0i32;
    for (m, &b) in code.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return m + 1;
                }
            }
            _ => {}
        }
    }
    code.len()
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
                let line = line_of(&lexed.code, p);
                if !lexed.waives(line, rule) {
                    out.push(Violation {
                        file: file.to_string(),
                        line,
                        rule,
                        pattern: pat.to_string(),
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
/// (`access_src`, normally `ACCESS_REGISTRY`).  Waivable with
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
        let line = line_of(&lexed.code, p);
        if !lexed.waives(line, Rule::FusedAccess) {
            out.push(Violation {
                file: module_rel.to_string(),
                line,
                rule: Rule::FusedAccess,
                pattern: "fn fused_".to_string(),
            });
        }
    }
    out
}

/// The identifiers of lexed code in order, each with its byte offset.
fn words(code: &[u8]) -> impl Iterator<Item = (usize, &str)> {
    let mut i = 0usize;
    std::iter::from_fn(move || {
        i += code[i..].iter().take_while(|&&b| !is_ident(b)).count();
        let start = i;
        i += code[i..].iter().take_while(|&&b| is_ident(b)).count();
        (start < i).then(|| (start, std::str::from_utf8(&code[start..i]).unwrap_or("")))
    })
}

/// The keywords that declare the name after them.
const DECLARES: &[&str] = &[
    "fn", "struct", "enum", "union", "trait", "type", "const", "static", "mod", "let",
];

/// The names a file's code calls: every word but a declared name and
/// the words of a `pub use …;` or `pub(…) use …;` re-export.
fn called_names(code: &[u8]) -> HashSet<String> {
    let ws: Vec<(usize, &str)> = words(code).collect();
    let mut out = HashSet::new();
    let mut skip_to = 0;
    for (n, &(p, w)) in ws.iter().enumerate() {
        let prev = if n > 0 { ws[n - 1].1 } else { "" };
        if p < skip_to {
            continue;
        } else if w == "use" && (prev == "pub" || code[..p].trim_ascii_end().ends_with(b")")) {
            skip_to = p + code[p..].iter().position(|&b| b == b';').unwrap_or(0);
        } else if !DECLARES.contains(&prev) {
            out.insert(w.to_string());
        }
    }
    out
}

/// One `pub` (not `pub(…)`) item declared outside `#[cfg(test)]`.
struct PubItem {
    line: usize,
    name: String,
    /// A struct, enum, union, trait or type alias.
    is_type: bool,
    /// What a caller of the item reaches: a fn's signature, a const's or
    /// static's type, an alias's target, a type's whole declaration.
    sig: std::ops::Range<usize>,
}

/// End of the signature that starts at `from`: the first of `stops` at
/// bracket depth 0 (`(`, `[` and `<`; the `>` of `->` closes nothing).
fn sig_end(code: &[u8], from: usize, stops: &[u8]) -> usize {
    let mut depth = 0i32;
    for (q, &b) in code.iter().enumerate().skip(from) {
        match b {
            b'(' | b'[' | b'<' => depth += 1,
            b'>' if code[q - 1] == b'-' => {}
            b')' | b']' | b'>' => depth -= 1,
            _ if depth <= 0 && stops.contains(&b) => return q,
            _ => {}
        }
    }
    code.len()
}

/// Every `pub` fn, struct, enum, union, trait, const, type and static a
/// file's code declares.
fn pub_items(code: &[u8]) -> Vec<PubItem> {
    let ws: Vec<(usize, &str)> = words(code).collect();
    let word = |k: usize| ws.get(k).map_or("", |w| w.1);
    let mut out = Vec::new();
    for (n, &(p, _)) in ws.iter().enumerate().filter(|(_, w)| w.1 == "pub") {
        if code[p + 3..].trim_ascii_start().starts_with(b"(") {
            continue;
        }
        // qualifiers: `pub unsafe fn`, `pub const fn` (not `pub const X`)
        let mut k = n + 1;
        while matches!(word(k), "unsafe" | "async" | "extern")
            || (word(k) == "const" && matches!(word(k + 1), "fn" | "unsafe"))
        {
            k += 1;
        }
        let (is_type, stops): (bool, &[u8]) = match word(k) {
            "fn" => (false, b"{;"),
            "const" | "static" => (false, b"=;"),
            "type" => (true, b";"),
            "struct" | "enum" | "union" | "trait" => (true, b"{;"),
            _ => continue,
        };
        // the name follows its keyword directly (a `$name` macro fragment
        // does not)
        let (Some(&(kp, kw)), Some(&(q, name))) = (ws.get(k), ws.get(k + 1)) else {
            continue;
        };
        if !code[kp + kw.len()..q].iter().all(u8::is_ascii_whitespace) {
            continue;
        }
        let mut end = sig_end(code, q + name.len(), stops);
        if is_type && code.get(end) == Some(&b'{') {
            end = block_end(code, end);
        }
        out.push(PubItem {
            line: line_of(code, p),
            name: name.to_string(),
            is_type,
            sig: q + name.len()..end,
        });
    }
    out
}

/// Cross-file rule [`Rule::PubCaller`] over `files` — `(workspace-relative
/// path, source)` of every `.rs` file under `crates/` and `benchmark/`:
/// every `pub` item declared outside `#[cfg(test)]` in a
/// `crates/<name>/src` file must be named in the code of another file.  A
/// word in a comment, a string literal or a `pub use` statement, or the
/// name in another item's declaration (`fn name`), is not a caller; test
/// code is.  A `pub` type is also reached when a reached `pub` item of its
/// own file names it in its signature (`pub fn f() -> T`) or declaration
/// (`pub struct S { field: T }`): its callers hold a `T` without naming it,
/// and rustc would refuse `T` narrower than `f`.  Waivable in place on the
/// `pub` line or the line above, with the rule's key.
pub fn lint_pub_callers(files: &[(String, String)]) -> Vec<Violation> {
    let lexed: Vec<Lexed> = files.iter().map(|(_, src)| lex(src)).collect();
    let callers: Vec<HashSet<String>> = lexed.iter().map(|l| called_names(&l.code)).collect();
    let mut out = Vec::new();
    for (f, ((rel, src), l)) in files.iter().zip(&lexed).enumerate() {
        let mut parts = rel.split('/');
        if parts.next() != Some("crates") || parts.nth(1) != Some("src") {
            continue;
        }
        let mut code = l.code.clone();
        blank_test_gated(src, &mut code);
        let items = pub_items(&code);
        let mut reached: Vec<bool> = items
            .iter()
            .map(|d| {
                callers
                    .iter()
                    .enumerate()
                    .any(|(g, words)| g != f && words.contains(&d.name))
            })
            .collect();
        // a type named in a reached signature is reached, to a fixpoint
        let exposed = |t: &PubItem, reached: &[bool]| {
            items
                .iter()
                .zip(reached)
                .any(|(d, &r)| r && words(&code[d.sig.clone()]).any(|(_, w)| w == t.name))
        };
        while let Some(t) = (0..items.len())
            .find(|&t| !reached[t] && items[t].is_type && exposed(&items[t], &reached))
        {
            reached[t] = true;
        }
        for (d, _) in items.into_iter().zip(reached).filter(|(_, r)| !r) {
            if !l.waives(d.line, Rule::PubCaller) {
                out.push(Violation {
                    file: rel.clone(),
                    line: d.line,
                    rule: Rule::PubCaller,
                    pattern: d.name,
                });
            }
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
const KERNEL_MODULES: &[&str] = &[
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
const ALLOC_ONLY_MODULES: &[&str] = &[
    "crates/fft/src/filter.rs",
    "crates/fft/src/fft.rs",
    "crates/core/src/sweep.rs",
    "crates/core/src/pool.rs",
    "crates/core/src/integrator.rs",
    "crates/mesh/src/band.rs",
];

/// The access registry the [`Rule::FusedAccess`] cross-file rule consults.
const ACCESS_REGISTRY: &str = "crates/core/src/access.rs";

/// Transport/resilience modules bound by [`Rule::Unwrap`]: every error arm
/// here is reachable under fault injection — in the launcher (`agcm-run`,
/// `agcm-soak`) by a killed or failing worker — or, in `agcm-obs` (the
/// record codec, the trace validator), by bytes the parent reads but did
/// not write.  The mesh layer (`agcm-mesh`) under every rank is bound too:
/// its refusals are typed errors and nothing else in it can fail, and so
/// is `agcm-verify`, whose analyses answer a broken schedule or trace with
/// a counterexample, not an abort.  So are the model (`agcm-core`), whose
/// refusals are `ModelError`s, and the `figures` binary, whose failures
/// are the error `main` returns.  An entry ending in `/` binds every
/// file under that directory, so a new module there is under the rule
/// from its first line.  A path is bound by an entry it starts with.
const NO_UNWRAP_MODULES: &[&str] = &[
    "crates/obs/src/",
    "crates/verify/src/",
    "crates/comm/src/",
    "crates/mesh/src/",
    "crates/core/src/",
    "crates/bench/src/",
    "crates/run/src/lib.rs",
    "crates/run/src/elastic.rs",
    "crates/run/src/soak.rs",
];

/// Which per-file rules bind a workspace-relative path (forward slashes).
/// [`Rule::PubCaller`] is not among them: it binds every `crates/*/src`
/// file, through [`lint_pub_callers`].
pub fn rules_for(rel: &str) -> Vec<Rule> {
    let listed = |modules: &[&str]| modules.iter().any(|m| rel.starts_with(m));
    let mut rules = Vec::new();
    if listed(KERNEL_MODULES) {
        rules.push(Rule::Alloc);
        rules.push(Rule::RawIndex);
        rules.push(Rule::FusedAccess);
    }
    if listed(ALLOC_ONLY_MODULES) {
        rules.push(Rule::Alloc);
    }
    if listed(NO_UNWRAP_MODULES) {
        rules.push(Rule::Unwrap);
    }
    rules
}

/// Walk `root` (a workspace checkout): lint every file under `crates/`
/// its per-file rules bind, and the pub-caller rule over `crates/` and
/// `benchmark/`.
pub fn lint_tree(root: &Path) -> io::Result<Vec<Violation>> {
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
    // every `.rs` file under `crates/` and `benchmark/` (not `target/`)
    let mut files = Vec::new();
    let mut stack = vec![root.join("crates"), root.join("benchmark")];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() && !path.ends_with("target") {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                files.push((rel, fs::read_to_string(&path)?));
            }
        }
    }
    files.sort();
    let access = fs::read_to_string(root.join(ACCESS_REGISTRY))?;
    let mut out = lint_pub_callers(&files);
    for (rel, src) in files.iter().filter(|(rel, _)| rel.starts_with("crates/")) {
        let rules = rules_for(rel);
        out.extend(lint_source(rel, src, &rules));
        if rules.contains(&Rule::FusedAccess) {
            out.extend(lint_fused_access(rel, src, &access));
        }
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(out)
}
