//! # agcm-lint — the repo's structural guards, in one table
//!
//! What the reproduction's claims rest on — one step loop runs the
//! certified program, one cost model prices it, one kernel path, one
//! worker, one `unsafe` block, allocation-free stepping paths — is held by
//! the rows of one committed table, [`guards::GUARDS`].  A row ([`Guard`])
//! is a key, a match mode, a scope, patterns and a bound:
//!
//! * the **key** names the guard.  Only the keys of `guards::WAIVABLE`
//!   — the per-file rules `alloc`, `raw-index` and `unwrap`, and the
//!   `fused-access` and `pub-caller` checks — waive a line finding in
//!   place, with `// lint:allow(<key>) <why>` on the same line or the line
//!   above; a structural guard has no in-place exception;
//! * the **mode** ([`Mode`]) is code as the hand-rolled lexer leaves it —
//!   comments, string and char literals and (unless kept) `#[cfg(test)]`
//!   items blanked — or the raw text of every file in scope, where a name
//!   in a string, a cargo feature or a workflow line lives;
//! * the **scope** is files, directories or item bodies;
//! * the **bound** ([`Bound`]) is absent, exactly `N` lines, present in
//!   every file, or only inside named owners.
//!
//! The table is the whole policy — there is no allowlist beside it — and a
//! location it names that the tree lacks is a refusal ([`lint_files`]), so
//! a rename cannot empty a guard.  Four checks read the table but are not
//! rows:
//!
//! * `line-budget` — the code lines of each [`guards::BUDGETS`] scope:
//!   lines left once comments and `#[cfg(test)]` modules are blanked (a
//!   `mod x;` declaration is one item; a file headed by an inner
//!   `#![cfg(test)]` is all test).  A `#[cfg(test)]` function counts, so
//!   gating cannot meet a budget;
//! * under key `one-unsafe`, every `unsafe {` directly under its
//!   `// SAFETY:` line;
//! * `fused-access` — a kernel module's `fn fused_*` sweep needs its
//!   `"<module>.fused"` op key in the `core::access` registry, so the
//!   `verify::dataflow` proof can resolve its footprint;
//! * `pub-caller` — a `pub` item under `crates/*/src` must be named, in
//!   code, by another `.rs` file under `crates/` or `benchmark/` (tests
//!   count; a comment, a string or a `pub use` re-export does not):
//!   rustc's `dead_code` cannot see a `pub` item, but can once narrowed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[rustfmt::skip]
pub mod guards;

use guards::{ACCESS_REGISTRY, BUDGETS, GUARDS, KERNELS, SAFETY_SCOPE, WAIVABLE};
use std::collections::HashSet;
use std::ops::Range;
use std::path::Path;
use std::{fmt, fs, io};

/// The file that holds the table: text-mode rows do not read it.
const TABLE_FILE: &str = "crates/lint/src/guards.rs";
const LINE_BUDGET: &str = "line-budget";
const FUSED_ACCESS: &str = "fused-access";
const PUB_CALLER: &str = "pub-caller";

/// What a row's patterns are matched against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `.rs` files, comments, literals and `#[cfg(test)]` items blanked.
    Code,
    /// `.rs` files, comments and literals blanked, test items kept.
    CodeAndTests,
    /// The raw text of every file in scope, of any type, as `grep -r`
    /// reads it: comments, literals, tests, `Cargo.toml`, workflows.
    Text,
}

/// How many matches of each of its patterns a row allows in its scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// None.
    Absent,
    /// On exactly this many lines.
    Exactly(usize),
    /// At least one in every file of the scope.
    Present,
    /// Only inside these owners (locations like the scope's), and at least
    /// one there.
    OnlyIn(&'static [&'static str]),
}

/// One row of the guard table.
pub struct Guard {
    /// The guard's name, and its waiver key if `guards::WAIVABLE` lists
    /// it; rows that share it are adjacent.
    pub key: &'static str,
    /// What the patterns are matched against.
    pub mode: Mode,
    /// Where: files, directories (`dir/`), `*` for one path component, `!`
    /// to exclude, `path::name` for the bodies of `fn name` or
    /// `struct name` in that file.
    pub scope: &'static [&'static str],
    /// What: literal text; `\b` at either end asks for a word boundary
    /// there, and `*` matches one or more characters of the line up to the
    /// pattern's next character.
    pub patterns: &'static [&'static str],
    /// How many.
    pub bound: Bound,
}

/// A ceiling on the code lines of a set of `.rs` files.
pub struct Budget {
    /// What it is reported as.
    pub name: &'static str,
    /// The files, as a row's scope names them.
    pub scope: &'static [&'static str],
    /// The most code lines they may hold.
    pub max: usize,
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The file, or for a finding about a whole scope, the scope.
    pub file: String,
    /// 1-based line number; 0 for a finding about a whole file or scope.
    pub line: usize,
    /// The key of the guard or check.
    pub rule: &'static str,
    /// The matched pattern (for `pub-caller`, the item's name), or for a
    /// line-0 finding, what is wrong.
    pub pattern: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (file, rule, what) = (&self.file, self.rule, &self.pattern);
        match self.line {
            0 => write!(f, "{file}: [{rule}] {what}"),
            n if WAIVABLE.contains(&rule) => write!(
                f,
                "{file}:{n}: [{rule}] `{what}` (waive: // lint:allow({rule}))"
            ),
            n => write!(f, "{file}:{n}: [{rule}] `{what}`"),
        }
    }
}

fn finding(file: &str, line: usize, rule: &'static str, what: impl Into<String>) -> Violation {
    let (file, pattern) = (file.to_string(), what.into());
    Violation {
        file,
        line,
        rule,
        pattern,
    }
}

/// The key of every guard and check.
pub fn rule_keys() -> Vec<&'static str> {
    let mut keys: Vec<&str> = GUARDS.iter().map(|g| g.key).collect();
    keys.dedup();
    keys.extend([LINE_BUDGET, FUSED_ACCESS, PUB_CALLER]);
    keys
}

// ---------------------------------------------------------------------------
// lexer: blank out comments and literals, collect lint:allow directives
// ---------------------------------------------------------------------------

struct Lexed {
    /// Source with comments (and string/char literals) replaced by spaces
    /// (newlines kept, so offsets and line numbers are unchanged).
    code: String,
    /// `(line, key)` for every `lint:allow(...)` comment.
    allows: Vec<(usize, String)>,
}

impl Lexed {
    /// Whether `key` takes a waiver and a `lint:allow(<key>)` sits on
    /// `line` or the line above.
    fn waives(&self, line: usize, key: &str) -> bool {
        if !WAIVABLE.contains(&key) {
            return false;
        }
        let mut allows = self.allows.iter();
        allows.any(|(l, k)| (*l == line || *l + 1 == line) && k == key)
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

/// Blank `src`'s comments — and, with `literals`, its string and char
/// literals — and collect its waivers.
fn lex(src: &str, literals: bool) -> Lexed {
    let s = src.as_bytes();
    let mut code = s.to_vec();
    let blank_literal = |code: &mut [u8], from, to| {
        if literals {
            blank(code, from, to);
        }
    };
    let mut allows = Vec::new();
    let mut i = 0usize;
    while i < s.len() {
        match s[i] {
            b'/' if i + 1 < s.len() && s[i + 1] == b'/' => {
                let start = i;
                while i < s.len() && s[i] != b'\n' {
                    i += 1;
                }
                let text = &src[start..i];
                if let Some(p) = text.find("lint:allow(") {
                    if let Some(q) = text[p..].find(')') {
                        let key = text[p + "lint:allow(".len()..p + q].trim();
                        allows.push((line_of(s, start), key.to_string()));
                    }
                }
                blank(&mut code, start, i);
            }
            b'/' if i + 1 < s.len() && s[i + 1] == b'*' => {
                let start = i;
                let mut depth = 1;
                i += 2;
                while i < s.len() && depth > 0 {
                    if s[i] == b'/' && i + 1 < s.len() && s[i + 1] == b'*' {
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
                while i < s.len() && s[i] != b'"' {
                    i += if s[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
                blank_literal(&mut code, start, i);
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
                    let closes = |j: usize| {
                        let tail = s.get(j + 1..j + 1 + hashes);
                        s[j] == b'"' && tail.is_some_and(|t| t.iter().all(|&c| c == b'#'))
                    };
                    while j < s.len() && !closes(j) {
                        j += if !raw && s[j] == b'\\' { 2 } else { 1 };
                    }
                    j += 1 + hashes;
                    blank_literal(&mut code, start, j);
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
                    blank_literal(&mut code, start, i);
                } else if i + 2 < s.len() && s[i + 2] == b'\'' {
                    blank_literal(&mut code, i, i + 3);
                    i += 3;
                } else {
                    i += 1; // lifetime: leave the identifier as code
                }
            }
            _ => i += 1,
        }
    }
    let code = String::from_utf8_lossy(&code).into_owned();
    Lexed { code, allows }
}

// ---------------------------------------------------------------------------
// cfg(test) items
// ---------------------------------------------------------------------------

/// Whether a `#[cfg(…)]` attribute (code view: string literals blanked, so
/// a feature *named* like `test` is not a word here) has `test` as a cfg
/// word in positive position: `cfg(test)`, `cfg(any(test, …))`,
/// `cfg(all(test, …))` — never under a `not(…)`, whose item is compiled
/// into production.
fn gates_on_test(attr: &[u8]) -> bool {
    // one entry per open `(`: whether it is the paren of a `not`
    let mut negated = Vec::new();
    let mut last = 0;
    for (p, w) in words(attr) {
        let closed = attr[last..p].iter().filter(|&&b| b == b')').count();
        negated.truncate(negated.len().saturating_sub(closed));
        last = p + w.len();
        if attr[last..].trim_ascii_start().starts_with(b"(") {
            negated.push(w == "not");
        } else if w == "test" && !negated.contains(&true) {
            return true;
        }
    }
    false
}

/// The spans of every item of lexed `code` gated by a `#[cfg(…)]` that
/// [`gates_on_test`] — with `mods_only`, of every such `mod` item (a
/// `mod x;` declaration is one item).  A file whose inner `#![cfg(…)]`,
/// ahead of its first item, gates on test (a module that is test code as a
/// whole) is one span from there on.
fn test_items(code: &str, mods_only: bool) -> Vec<Range<usize>> {
    let b = code.as_bytes();
    if let Some(p) = code.find("#![cfg(") {
        let heads_the_file = !b[..p].iter().any(|&c| c == b';' || c == b'{');
        if heads_the_file && gates_on_test(&b[p..close(b, p + 2)]) {
            return std::iter::once(p..b.len()).collect();
        }
    }
    let mut out = Vec::new();
    let mut i = 0usize;
    while let Some(p) = code[i..].find("#[cfg(").map(|p| p + i) {
        let j = close(b, p + 1);
        if !gates_on_test(&b[p..j]) {
            i = j;
            continue;
        }
        let k = head_end(b, j);
        let end = if k < b.len() && b[k] == b'{' {
            close(b, k)
        } else {
            (k + 1).min(b.len())
        };
        if !mods_only || words(&b[j..k.min(b.len())]).any(|(_, w)| w == "mod") {
            out.push(p..end);
        }
        i = end;
    }
    out
}

/// Where the item whose head starts at `from` (attributes, visibility,
/// signature) opens its body: the first `{` or `;` at bracket depth 0.
fn head_end(b: &[u8], from: usize) -> usize {
    let mut depth = 0i32;
    let n = b[from..].iter().position(|&c| {
        depth += i32::from(matches!(c, b'(' | b'[')) - i32::from(matches!(c, b')' | b']'));
        depth == 0 && matches!(c, b'{' | b';')
    });
    from + n.unwrap_or(b.len() - from)
}

/// One past the bracket that closes the `[` or `{` at `open` (brackets
/// nest in `cfg(any(…))`).
fn close(code: &[u8], open: usize) -> usize {
    // in ASCII, `]` and `}` are two past `[` and `{`
    let (o, c) = (code[open], code[open] + 2);
    let mut depth = 0i32;
    for (m, &b) in code.iter().enumerate().skip(open) {
        depth += i32::from(b == o) - i32::from(b == c);
        if depth == 0 {
            return m + 1;
        }
    }
    code.len()
}

// ---------------------------------------------------------------------------
// patterns and locations
// ---------------------------------------------------------------------------

/// Byte offsets where `pat` matches `hay`: literal text, except that `\b`
/// at either end asks for a word boundary there and `*` matches one or
/// more characters of the line, none of them the pattern's next character.
fn find(hay: &str, pat: &str) -> Vec<usize> {
    let (left, pat) = pat.strip_prefix("\\b").map_or((false, pat), |p| (true, p));
    let (right, pat) = pat.strip_suffix("\\b").map_or((false, pat), |p| (true, p));
    let mut parts = pat.split('*');
    let head = parts.next().unwrap_or_default();
    let rest: Vec<&[u8]> = parts.map(str::as_bytes).collect();
    let h = hay.as_bytes();
    let matches_at = |p: usize| {
        let mut end = p + head.len();
        for part in &rest {
            let stop = part.first().copied().unwrap_or(b'\n');
            let n = h[end..]
                .iter()
                .take_while(|&&b| b != b'\n' && b != stop)
                .count();
            if n == 0 || !h[end + n..].starts_with(part) {
                return false;
            }
            end += n + part.len();
        }
        !(left && p > 0 && is_ident(h[p - 1]) || right && end < h.len() && is_ident(h[end]))
    };
    hay.match_indices(head)
        .map(|(p, _)| p)
        .filter(|&p| matches_at(p))
        .collect()
}

/// A scope or owner entry: whether it excludes (`!`), its path, and the
/// item whose bodies it names (`path::name`).
fn location(entry: &str) -> (bool, &str, Option<&str>) {
    let neg = entry.starts_with('!');
    let rest = &entry[usize::from(neg)..];
    match rest.split_once("::") {
        Some((path, item)) => (neg, path, Some(item)),
        None => (neg, rest, None),
    }
}

/// Whether a location's path names `rel`: the file itself, or a file under
/// it when it ends in `/`; `*` stands for any one component.
fn names(path: &str, rel: &str) -> bool {
    let (mut want, mut have) = (path.split('/'), rel.split('/'));
    loop {
        match (want.next(), have.next()) {
            (None, None) | (Some(""), Some(_)) => return true,
            (Some(w), Some(h)) if w == "*" || w == h => {}
            _ => return false,
        }
    }
}

/// Whether an entry of `scope` names `rel` and no `!` entry excludes it.
fn in_scope(scope: &[&str], rel: &str) -> bool {
    let named = |neg: bool| {
        let mut entries = scope.iter().map(|e| location(e));
        entries.any(|(n, path, _)| n == neg && names(path, rel))
    };
    named(false) && !named(true)
}

impl Guard {
    /// Whether the row reads `rel`, a workspace-relative path: its scope
    /// names it, a code mode reads `.rs` files only, and a text mode does
    /// not read the table's own file.
    pub fn covers(&self, rel: &str) -> bool {
        let text = self.mode == Mode::Text;
        in_scope(self.scope, rel) && (text && rel != TABLE_FILE || !text && rel.ends_with(".rs"))
    }

    fn owners(&self) -> &'static [&'static str] {
        match self.bound {
            Bound::OnlyIn(owners) => owners,
            _ => &[],
        }
    }
}

/// Every body of a `fn name` or `struct name` in lexed code.
fn item_bodies(code: &str, name: &str) -> Vec<Range<usize>> {
    let heads = [format!("\\bfn {name}\\b"), format!("\\bstruct {name}\\b")];
    let b = code.as_bytes();
    let opens = heads
        .iter()
        .flat_map(|h| find(code, h))
        .map(|p| head_end(b, p));
    let opens = opens.filter(|&q| b.get(q) == Some(&b'{'));
    opens.map(|q| q..close(b, q)).collect()
}

/// The spans of `src` the including `locs` name: all of it, or the bodies
/// of the items they name in it.
fn regions(locs: &[&str], src: &Source) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let named = locs.iter().map(|e| location(e));
    for (_, _, item) in named.filter(|l| !l.0 && names(l.1, src.rel)) {
        match item {
            None => return std::iter::once(0..src.text.len()).collect(),
            Some(name) => out.extend(item_bodies(&src.lexed.code, name)),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// the rows
// ---------------------------------------------------------------------------

/// A file of the tree and its views, which share byte offsets.
struct Source<'a> {
    rel: &'a str,
    text: &'a str,
    /// Comments and literals blanked, and the waivers (lexed as Rust
    /// whatever the file; code modes read `.rs` files only).
    lexed: Lexed,
    /// The same with `#[cfg(test)]` items blanked too.
    code: String,
}

/// `code` with the [`test_items`] of `tokens`, its lexed view, blanked.
fn without_tests(code: &str, tokens: &str, mods_only: bool) -> Vec<u8> {
    let mut code = code.as_bytes().to_vec();
    for r in test_items(tokens, mods_only) {
        blank(&mut code, r.start, r.end);
    }
    code
}

impl<'a> Source<'a> {
    fn new(rel: &'a str, text: &'a str) -> Self {
        let lexed = lex(text, true);
        let code = without_tests(&lexed.code, &lexed.code, false);
        let code = String::from_utf8_lossy(&code).into_owned();
        Source {
            rel,
            text,
            lexed,
            code,
        }
    }

    fn view(&self, mode: Mode) -> &str {
        match mode {
            Mode::Code => &self.code,
            Mode::CodeAndTests => &self.lexed.code,
            Mode::Text => self.text,
        }
    }

    /// Lines with code, literals included, once comments and test modules
    /// are blanked.
    fn code_lines(&self) -> usize {
        let bare = without_tests(&lex(self.text, false).code, &self.lexed.code, true);
        let lines = bare.split(|&b| b == b'\n');
        lines.filter(|l| !l.trim_ascii().is_empty()).count()
    }
}

fn sources(files: &[(String, String)]) -> Vec<Source<'_>> {
    files.iter().map(|(rel, t)| Source::new(rel, t)).collect()
}

/// Check one row over the tree.
fn check_row(g: &Guard, srcs: &[Source]) -> Vec<Violation> {
    let owners = g.owners();
    let files: Vec<&Source> = srcs.iter().filter(|s| g.covers(s.rel)).collect();
    let scope = g.scope.join(", ");
    let mut out = Vec::new();
    for &pat in g.patterns {
        // (file, line, inside an owner), one per line
        let mut hits: Vec<(&Source, usize, bool)> = Vec::new();
        for &s in &files {
            let (within, owned, view) = (regions(g.scope, s), regions(owners, s), s.view(g.mode));
            for p in find(view, pat) {
                let line = line_of(view.as_bytes(), p);
                let new = hits.last().is_none_or(|h| h.0.rel != s.rel || h.1 != line);
                if new && within.iter().any(|r| r.contains(&p)) {
                    hits.push((s, line, owned.iter().any(|r| r.contains(&p))));
                }
            }
        }
        let stray = hits
            .iter()
            .filter(|h| !h.2 && !h.0.lexed.waives(h.1, g.key));
        match g.bound {
            Bound::Absent | Bound::OnlyIn(_) => {
                out.extend(stray.map(|h| finding(h.0.rel, h.1, g.key, pat)));
            }
            Bound::Exactly(n) if hits.len() != n => {
                let what = format!("`{pat}` on {} lines, not {n}", hits.len());
                out.push(finding(&scope, 0, g.key, what));
            }
            Bound::Exactly(_) => {}
            Bound::Present => {
                let bare = files
                    .iter()
                    .filter(|s| !hits.iter().any(|h| h.0.rel == s.rel));
                out.extend(bare.map(|s| finding(s.rel, 0, g.key, format!("`{pat}` is missing"))));
            }
        }
        if !owners.is_empty() && !hits.iter().any(|h| h.2) {
            let what = format!("`{pat}` is not in {}", owners.join(", "));
            out.push(finding(&scope, 0, g.key, what));
        }
    }
    out
}

/// The first location the table names that no file of the tree answers
/// to: a path no file is at or under, or an item its file does not define.
fn missing_location(srcs: &[Source]) -> Option<&'static str> {
    let rows = GUARDS.iter().flat_map(|g| g.scope.iter().chain(g.owners()));
    let budgets = BUDGETS.iter().flat_map(|b| b.scope);
    let others = KERNELS
        .iter()
        .chain(SAFETY_SCOPE)
        .chain([&ACCESS_REGISTRY, &TABLE_FILE]);
    rows.chain(budgets).chain(others).copied().find(|entry| {
        let (_, path, item) = location(entry);
        let defines = |s: &Source| item.is_none_or(|i| !item_bodies(&s.lexed.code, i).is_empty());
        !srcs.iter().any(|s| names(path, s.rel) && defines(s))
    })
}

/// Every `unsafe {` of `s`, tests included, must sit directly under a run
/// of `//` lines whose first line, and no later one, holds `// SAFETY:`.
fn lint_safety(s: &Source) -> Vec<Violation> {
    let lines: Vec<&str> = s.text.lines().collect();
    let mut out = Vec::new();
    for p in find(&s.lexed.code, "unsafe {") {
        let n = line_of(s.text.as_bytes(), p);
        let above = &lines[..n - 1];
        let run = above
            .iter()
            .rev()
            .take_while(|l| l.trim_start().starts_with("//"));
        let first = above.len() - run.count();
        if (first..above.len()).rfind(|&i| above[i].contains("// SAFETY:")) != Some(first) {
            out.push(finding(
                s.rel,
                n,
                "one-unsafe",
                "no // SAFETY: line directly above",
            ));
        }
    }
    out
}

/// Each line budget with the code lines its scope holds.
fn budget_counts(srcs: &[Source]) -> Vec<(&'static Budget, usize)> {
    let count = |b: &Budget| {
        let files = srcs
            .iter()
            .filter(|s| s.rel.ends_with(".rs") && in_scope(b.scope, s.rel));
        files.map(Source::code_lines).sum()
    };
    BUDGETS.iter().map(|b| (b, count(b))).collect()
}

/// Each line budget with the code lines its scope holds in `files`.
pub fn code_lines(files: &[(String, String)]) -> Vec<(&'static Budget, usize)> {
    budget_counts(&sources(files))
}

/// Cross-file rule `fused-access`: every `fn fused_*` kernel in
/// `module_src` must have a `"<module-stem>.fused"` op key registered in
/// the access-registry source (`access_src`).  Waivable with
/// `// lint:allow(fused-access)` on the `fn` line or the line above.
pub fn lint_fused_access(module_rel: &str, module_src: &str, access_src: &str) -> Vec<Violation> {
    let s = Source::new(module_rel, module_src);
    let stem = Path::new(module_rel).file_stem().unwrap_or_default();
    // the op key lives in a string literal, so search the raw registry text
    if access_src.contains(&format!("\"{}.fused\"", stem.to_string_lossy())) {
        return Vec::new();
    }
    let lines = find(&s.code, "fn fused_").into_iter();
    let lines = lines.map(|p| line_of(s.code.as_bytes(), p));
    let lines = lines.filter(|&line| !s.lexed.waives(line, FUSED_ACCESS));
    lines
        .map(|line| finding(module_rel, line, FUSED_ACCESS, "fn fused_"))
        .collect()
}

// ---------------------------------------------------------------------------
// pub-caller
// ---------------------------------------------------------------------------

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
            end = close(code, end);
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

/// Cross-file rule `pub-caller` over `files` — `(workspace-relative
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
    pub_callers(&sources(files))
}

fn pub_callers(srcs: &[Source]) -> Vec<Violation> {
    let rust: Vec<&Source> = srcs.iter().filter(|s| s.rel.ends_with(".rs")).collect();
    let callers: Vec<HashSet<String>> = rust
        .iter()
        .map(|s| called_names(s.lexed.code.as_bytes()))
        .collect();
    let mut out = Vec::new();
    for (f, s) in rust.iter().enumerate() {
        let mut parts = s.rel.split('/');
        if parts.next() != Some("crates") || parts.nth(1) != Some("src") {
            continue;
        }
        let code = s.code.as_bytes();
        let items = pub_items(code);
        let called =
            |name: &String| (callers.iter().enumerate()).any(|(g, c)| g != f && c.contains(name));
        let mut reached: Vec<bool> = items.iter().map(|d| called(&d.name)).collect();
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
            if !s.lexed.waives(d.line, PUB_CALLER) {
                out.push(finding(s.rel, d.line, PUB_CALLER, d.name));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// the tree
// ---------------------------------------------------------------------------

/// Every file of the checkout at `root` the lint reads, `(workspace-relative
/// path, text)` in order: the `.rs` files under `crates/` and `benchmark/`,
/// and every other file under `crates/`, `.github/` and `.cargo/`, as
/// `grep -r` would read them (no `target/`).
pub fn read_tree(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let mut stack: Vec<_> = ["crates", "benchmark", ".github", ".cargo"]
        .iter()
        .map(|d| root.join(d))
        .filter(|d| d.is_dir())
        .collect();
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy();
            let rel = rel.replace('\\', "/");
            if path.is_dir() && !path.ends_with("target") {
                stack.push(path);
            } else if path.is_file() && (rel.ends_with(".rs") || !rel.starts_with("benchmark/")) {
                files.push((rel, String::from_utf8_lossy(&fs::read(&path)?).into_owned()));
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lint a tree, `(workspace-relative path, text)` of each file as
/// [`read_tree`] returns it: every row of the table, the line budgets, the
/// `// SAFETY:` check, `fused-access` over the kernel modules and
/// `pub-caller`.  `Err` names a location the table names that the tree
/// does not have.
pub fn lint_files(files: &[(String, String)]) -> Result<Vec<Violation>, String> {
    let srcs = sources(files);
    if let Some(entry) = missing_location(&srcs) {
        return Err(format!("{TABLE_FILE} names {entry}, absent from the tree"));
    }
    let mut out = pub_callers(&srcs);
    out.extend(GUARDS.iter().flat_map(|g| check_row(g, &srcs)));
    for (b, n) in budget_counts(&srcs).into_iter().filter(|&(b, n)| n > b.max) {
        let what = format!("{n} code lines, budget {}", b.max);
        out.push(finding(b.name, 0, LINE_BUDGET, what));
    }
    let registry = srcs.iter().find(|s| s.rel == ACCESS_REGISTRY);
    let access = registry.map_or("", |s| s.text);
    for s in &srcs {
        if s.rel.ends_with(".rs") && in_scope(SAFETY_SCOPE, s.rel) {
            out.extend(lint_safety(s));
        }
        if in_scope(KERNELS, s.rel) {
            out.extend(lint_fused_access(s.rel, s.text, access));
        }
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(out)
}
