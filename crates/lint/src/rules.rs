//! The rule engine: three contract rules, inline suppressions, and the
//! unsafe-site collector that feeds the committed registry.
//!
//! Every rule operates on the lexed token stream (see [`crate::lexer`])
//! so nothing ever fires inside a string, char literal, or comment.
//! Scoping is by path: each rule documents exactly which files it
//! watches and which it deliberately ignores (tests and examples may
//! set knobs; no library source is allowed an env read; and so on).
//! `W-UNSAFE` and `W-ENV` look at one file at a time; `W-DEADPUB` looks
//! at the whole file set. One scope pass per file tells every rule, per
//! token, whether it ships (not under `#[cfg(test)]`), whether it sits
//! in a `use` declaration, and which `fn` and which type (its
//! definition or an `impl` of it) enclose it.
//!
//! # Suppressions
//!
//! A finding on line `L` is suppressed by a *plain* (non-doc, non-
//! block) comment of the form
//!
//! ```text
//! code(); // lint:allow(W-RULE): a real reason
//! ```
//!
//! either trailing on `L` itself or alone on the line(s) immediately
//! above the first code line it governs. The reason is mandatory: a
//! bare suppression, an empty reason, or an unknown rule id is itself
//! reported (rule id `W-ALLOW`) and the suppression stays inert. A
//! `W-DEADPUB` reason must open with one of the three exemption
//! classes ([`DEADPUB_CLASSES`]) and name who uses the item; on a
//! type, it covers the type's impls. Registry mismatches
//! (unregistered/stale unsafe sites) are not suppressible — that is the
//! point of the registry.

use crate::lexer::{lex, LexedFile, Token, TokenKind};
use crate::registry::{self, Entry};

/// The three contract rules, in report order.
pub const RULES: [&str; 3] = ["W-UNSAFE", "W-ENV", "W-DEADPUB"];

/// How a `W-DEADPUB` suppression's reason must open: the item is a
/// reference a test compares production output against, a constructor
/// whose value the engine consumes, or a fault-injection entry.
pub const DEADPUB_CLASSES: [&str; 3] = ["oracle for ", "consumed by ", "fault injection for "];

/// Pseudo-rule id for malformed suppressions.
pub const RULE_ALLOW: &str = "W-ALLOW";

/// One source file handed to the engine: a workspace-relative path
/// (forward slashes) and its contents.
pub struct SourceFile {
    pub path: String,
    pub src: String,
}

/// One diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub rule: String,
    pub file: String,
    pub line: usize,
    pub message: String,
}

impl Finding {
    fn new(rule: &str, file: &str, line: usize, message: String) -> Self {
        Finding {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            message,
        }
    }
}

/// An `unsafe` site discovered by W-UNSAFE, in registry terms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnsafeSite {
    pub line: usize,
    pub entry: Entry,
}

/// An item that only `benchmark/src` reaches (W-DEADPUB).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pinned {
    pub file: String,
    /// `name`, or `Type::name` for a method.
    pub item: String,
}

/// Code-size counts over the shipped code of `crates/*/src`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Lines carrying a shipped token: comments, blank lines and
    /// `#[cfg(test)]` items do not count.
    pub non_test_lines: usize,
    pub pub_fn: usize,
    pub pub_crate_fn: usize,
    pub pub_types: usize,
    /// Valid `lint:allow(W-DEADPUB)` exemptions, in every scanned file.
    pub deadpub_exemptions: usize,
}

/// Everything one engine run produces.
#[derive(Debug, Default)]
pub struct LintOutcome {
    pub findings: Vec<Finding>,
    pub pinned_by_benchmark: Vec<Pinned>,
    pub unsafe_sites: Vec<UnsafeSite>,
    pub counts: Counts,
    pub files_scanned: usize,
}

impl LintOutcome {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Run the whole engine over `files`, then reconcile unsafe sites
/// against `registry_text` (the contents of `UNSAFE_REGISTRY.txt`;
/// `None` means the file is absent, which is only clean if the tree
/// has no unsafe at all).
pub fn lint_files(files: &[SourceFile], registry_text: Option<&str>) -> LintOutcome {
    let mut out = LintOutcome {
        files_scanned: files.len(),
        ..Default::default()
    };
    let lexed: Vec<LexedFile> = files.iter().map(|f| lex(&f.src)).collect();
    let scopes: Vec<Scopes> = lexed.iter().map(|lx| scan_scopes(&lx.tokens)).collect();
    let dead = rule_deadpub(files, &lexed, &scopes, &mut out);
    for (((f, lexed), scopes), dead) in files.iter().zip(&lexed).zip(&scopes).zip(dead) {
        lint_one(f, lexed, scopes, dead, &mut out);
    }
    registry::reconcile(&out.unsafe_sites, registry_text, &mut out.findings);
    out.findings
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    out
}

// ---------------------------------------------------------------------------
// Per-file pass
// ---------------------------------------------------------------------------

/// The single-file rules over `f`, plus the suppression filter over
/// their findings and over `raw` — what the whole-set rule found here.
fn lint_one(
    f: &SourceFile,
    lexed: &LexedFile,
    scopes: &Scopes,
    mut raw: Vec<Finding>,
    out: &mut LintOutcome,
) {
    let (suppressions, mut allow_findings) = collect_suppressions(f, lexed);
    out.findings.append(&mut allow_findings);
    out.counts.deadpub_exemptions += suppressions.iter().filter(|s| s.0 == "W-DEADPUB").count();

    rule_unsafe(f, lexed, scopes, &mut raw, &mut out.unsafe_sites);
    rule_env(f, lexed, &mut raw);

    for finding in raw {
        let key = (finding.rule.clone(), finding.line);
        if !suppressions.contains(&key) {
            out.findings.push(finding);
        }
    }
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

/// Parse every `lint:allow` comment. Returns the set of
/// `(rule, line)` pairs that are validly suppressed, plus `W-ALLOW`
/// findings for malformed ones.
fn collect_suppressions(f: &SourceFile, lexed: &LexedFile) -> (Vec<(String, usize)>, Vec<Finding>) {
    let mut suppressed = Vec::new();
    let mut findings = Vec::new();
    for c in &lexed.comments {
        // Only plain `//` comments qualify: strip the slashes, then
        // whitespace. Doc comments leave a `!` or are prose that does
        // not *start* with the marker, so documentation that merely
        // mentions the syntax never becomes a suppression.
        let body = c.text.trim_start_matches('/').trim_start();
        let Some(rest) = body.strip_prefix("lint:allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            findings.push(Finding::new(
                RULE_ALLOW,
                &f.path,
                c.first_line,
                "malformed suppression: missing `)`".to_string(),
            ));
            continue;
        };
        let rule = rest[..close].trim();
        let after = &rest[close + 1..];
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if !RULES.contains(&rule) {
            findings.push(Finding::new(
                RULE_ALLOW,
                &f.path,
                c.first_line,
                format!("suppression names unknown rule `{rule}`; suppression ignored"),
            ));
            continue;
        }
        if reason.is_empty() {
            findings.push(Finding::new(
                RULE_ALLOW,
                &f.path,
                c.first_line,
                format!(
                    "bare suppression of {rule}: a `lint:allow` must carry \
                     `: <reason>`; suppression ignored"
                ),
            ));
            continue;
        }
        if rule == "W-DEADPUB" && !DEADPUB_CLASSES.iter().any(|c| reason.starts_with(c)) {
            findings.push(Finding::new(
                RULE_ALLOW,
                &f.path,
                c.first_line,
                format!(
                    "W-DEADPUB exemption must open with one of {DEADPUB_CLASSES:?} \
                     and name the user; suppression ignored"
                ),
            ));
            continue;
        }
        // Trailing on a code line governs that line; a standalone
        // comment governs the next line that has code.
        let target = if lexed.line_has_code(c.first_line) {
            Some(c.first_line)
        } else {
            lexed
                .tokens
                .iter()
                .find(|t| t.line > c.last_line)
                .map(|t| t.line)
        };
        if let Some(line) = target {
            suppressed.push((rule.to_string(), line));
        }
    }
    (suppressed, findings)
}

// ---------------------------------------------------------------------------
// Path scoping helpers
// ---------------------------------------------------------------------------

fn has_component(path: &str, name: &str) -> bool {
    path.split('/').any(|c| c == name)
}

/// Test and example *directories* are exempt from W-ENV: test and demo
/// code may set knobs freely.
fn is_test_or_example(path: &str) -> bool {
    is_test_dir(path) || has_component(path, "examples")
}

/// Test *directories*: code here is not a caller for W-DEADPUB.
fn is_test_dir(path: &str) -> bool {
    has_component(path, "tests") || has_component(path, "benches")
}

// ---------------------------------------------------------------------------
// Scope pass — one walk per file that yields, per token, what the rules
// needing more than a token window read.
// ---------------------------------------------------------------------------

/// Per-token scope facts of one file.
struct Scopes {
    /// `false` inside an item under `#[cfg(test)]`: the attribute, any
    /// attributes after it, and the item through its closing `}` or `;`.
    shipped: Vec<bool>,
    /// Inside a `use` declaration, `pub use` included.
    in_use: Vec<bool>,
    /// Index of the enclosing `fn`'s name. Closures open no scope, so
    /// an unsafe block in a parallel closure belongs to the fn that
    /// owns it — which is what the registry wants to show.
    in_fn: Vec<Option<usize>>,
    /// Index of the name of the type whose definition or `impl` (header
    /// included) encloses the token: an impl's self type.
    owner: Vec<Option<usize>>,
    /// Names of the file modules declared `#[cfg(test)] mod name;`.
    test_mods: Vec<String>,
}

const CFG_TEST: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
const TYPE_KEYWORDS: [&str; 4] = ["struct", "enum", "trait", "type"];
/// Tokens after which an `impl` opens an item, not an `impl Trait` type.
const ITEM_START: [&str; 5] = [";", "{", "}", "]", "unsafe"];

fn scan_scopes(toks: &[Token]) -> Scopes {
    let n = toks.len();
    let mut s = Scopes {
        shipped: vec![true; n],
        in_use: vec![false; n],
        in_fn: Vec::with_capacity(n),
        owner: Vec::with_capacity(n),
        test_mods: Vec::new(),
    };
    // Open `fn` and type bodies: (is a fn, name index, brace depth).
    let mut open: Vec<(bool, usize, usize)> = Vec::new();
    let (mut braces, mut parens) = (0usize, 0usize);
    let (mut pending_fn, mut pending_owner, mut in_use) = (None, None, false);
    for (i, t) in toks.iter().enumerate() {
        if s.shipped[i] && seq_at(toks, i, &CFG_TEST) {
            let end = item_end(toks, i + CFG_TEST.len());
            if tok_is(toks, end, ";") && tok_is(toks, end - 2, "mod") {
                s.test_mods.push(toks[end - 1].text.clone());
            }
            s.shipped[i..=end].fill(false);
        }
        let innermost = |is_fn: bool| open.iter().rev().find(|o| o.0 == is_fn).map(|o| o.1);
        if tok_is(toks, i, "fn") {
            pending_fn = ident_at(toks, i + 1);
        } else if tok_is(toks, i, "impl") && (i == 0 || tok_in(toks, i - 1, &ITEM_START)) {
            pending_owner = impl_self_type(toks, i);
        } else if tok_in(toks, i, &TYPE_KEYWORDS) && innermost(false).is_none() {
            // Outside impls and traits, so not an associated `type`.
            pending_owner = ident_at(toks, i + 1);
        } else if tok_is(toks, i, "use") {
            in_use = true;
        }
        s.in_use[i] = in_use;
        s.in_fn.push(innermost(true));
        s.owner.push(pending_owner.or(innermost(false)));
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" => parens += 1,
            ")" | "]" => parens = parens.saturating_sub(1),
            "{" => {
                braces += 1;
                if let Some(ty) = pending_owner.take() {
                    open.push((false, ty, braces));
                } else if let Some(name) = pending_fn.take() {
                    open.push((true, name, braces));
                }
            }
            "}" => {
                if open.last().is_some_and(|o| o.2 == braces) {
                    open.pop();
                }
                braces = braces.saturating_sub(1);
            }
            // A `;` at signature level ends a bodyless item: a trait
            // method, `struct S;`, `type T = U;` (but `[u8; 4]` does not).
            ";" if parens == 0 => (pending_fn, pending_owner, in_use) = (None, None, false),
            _ => {}
        }
    }
    s
}

/// Index of the last token of the item whose attributes or keywords
/// start at `from`: its closing `}`, or its `;` at depth 0.
fn item_end(toks: &[Token], from: usize) -> usize {
    let (mut depth, mut in_attr) = (0usize, false);
    for (i, t) in toks.iter().enumerate().skip(from) {
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "#" if depth == 0 => in_attr = true,
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 && !in_attr && t.text == "}" {
                    return i;
                }
                in_attr &= depth > 0;
            }
            ";" if depth == 0 => return i,
            _ => {}
        }
    }
    toks.len() - 1
}

/// The self type of the `impl` at `at`: the first path after the
/// generics, or after `for` in a trait impl, by its last segment
/// (`impl<T> a::Grid<T>` is `Grid`).
fn impl_self_type(toks: &[Token], at: usize) -> Option<usize> {
    let (mut angle, mut ty) = (0usize, None);
    for (i, t) in toks.iter().enumerate().skip(at + 1) {
        match t.text.as_str() {
            "{" | ";" | "where" if angle == 0 => break,
            "<" => angle += 1,
            ">" if !tok_is(toks, i - 1, "-") => angle = angle.saturating_sub(1),
            "for" if angle == 0 => ty = None,
            _ if angle == 0 && ty.is_none() && !tok_is(toks, i + 1, ":") => ty = ident_at(toks, i),
            _ => {}
        }
    }
    ty
}

// ---------------------------------------------------------------------------
// W-UNSAFE — every unsafe fn/block/impl/trait carries a SAFETY comment
// and matches the committed registry.
// ---------------------------------------------------------------------------

fn rule_unsafe(
    f: &SourceFile,
    lexed: &LexedFile,
    scopes: &Scopes,
    raw: &mut Vec<Finding>,
    sites: &mut Vec<UnsafeSite>,
) {
    let toks = &lexed.tokens;
    let name =
        |at: Option<usize>, none: &str| at.map_or(none.to_string(), |k| toks[k].text.clone());
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text != "unsafe" {
            continue;
        }
        let (kind, context) = match toks.get(i + 1) {
            // An unsafe fn or trait is registered under its own name;
            // an unsafe impl under its self type.
            Some(n) if n.kind == TokenKind::Ident && (n.text == "fn" || n.text == "trait") => {
                let own = ident_at(toks, i + 2).or(scopes.in_fn[i]);
                (n.text.as_str(), name(own, "<module>"))
            }
            Some(n) if n.kind == TokenKind::Ident && n.text == "impl" => {
                ("impl", name(scopes.owner[i + 1], "<impl>"))
            }
            // `#[unsafe(...)]` attributes (Rust 2024) are not sites.
            Some(n) if n.kind == TokenKind::Punct && n.text == "(" => continue,
            _ => ("block", name(scopes.in_fn[i], "<module>")),
        };
        if !has_safety_doc(lexed, t.line) {
            raw.push(Finding::new(
                "W-UNSAFE",
                &f.path,
                t.line,
                format!(
                    "unsafe {kind} in `{context}` has no `// SAFETY:` comment \
                     (contiguous block above, or trailing on the same line)"
                ),
            ));
        }
        sites.push(UnsafeSite {
            line: t.line,
            entry: Entry {
                file: f.path.clone(),
                kind: kind.to_string(),
                context,
            },
        });
    }
}

/// `true` if line `line` carries a SAFETY justification: a comment on
/// the line itself, or a contiguous comment block immediately above
/// (attribute lines may sit between), any line of which contains
/// `SAFETY` or the rustdoc `# Safety` section heading.
fn has_safety_doc(lexed: &LexedFile, line: usize) -> bool {
    let is_safety = |text: &str| text.contains("SAFETY") || text.contains("# Safety");
    if lexed.comments_on_line(line).any(|c| is_safety(&c.text)) {
        return true;
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        if let Some(c) = lexed.comments_on_line(l).next() {
            if is_safety(&c.text) {
                return true;
            }
            l = c.first_line;
            continue;
        }
        if lexed.line_has_code(l) {
            if lexed.line_starts_attribute(l) {
                continue;
            }
            return false;
        }
        // Blank line: the justification must be contiguous.
        return false;
    }
    false
}

// ---------------------------------------------------------------------------
// W-ENV — no non-test, non-example source reads the process
// environment or names a GALACTOS_* knob: ζ is a function of the
// EngineConfig and the build target.
// ---------------------------------------------------------------------------

fn rule_env(f: &SourceFile, lexed: &LexedFile, raw: &mut Vec<Finding>) {
    if is_test_or_example(&f.path) {
        return;
    }
    for reader in ["var", "var_os", "vars", "vars_os"] {
        for i in seq_matches(&lexed.tokens, &["env", ":", ":", reader]) {
            raw.push(Finding::new(
                "W-ENV",
                &f.path,
                lexed.tokens[i].line,
                format!("env::{reader} read outside tests and examples"),
            ));
        }
    }
    for t in &lexed.tokens {
        // lint:allow(W-ENV): the rule implementation must name its own needle.
        if t.kind == TokenKind::Str && t.text.starts_with("GALACTOS_") {
            raw.push(Finding::new(
                "W-ENV",
                &f.path,
                t.line,
                format!(
                    "`{}` knob name referenced outside tests and examples",
                    t.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// W-DEADPUB — public means called: the items of crates/*/src (`pub`
// types, `pub` and `pub(crate)` fns) are resolved against the shipped
// sites that name or call them.
// ---------------------------------------------------------------------------

/// How far a file's sites reach, and so an item, ordered so that an
/// item reaches as far as its furthest site and a method no further
/// than its type: not at all (tests), only `benchmark/src`, shipped.
const DEAD: u8 = 0;
const BENCH: u8 = 1;
const SHIPPED: u8 = 2;

/// The item a `pub` / `pub(crate)` at `at` opens, if it is a fn or a
/// `pub` type: (crate-wide, index of its `fn` or type keyword).
/// `const`, `async`, `unsafe` and `extern "C"` may sit in between.
fn pub_item(toks: &[Token], at: usize) -> Option<(bool, usize)> {
    let crate_wide = tok_is(toks, at + 1, "(");
    if !tok_is(toks, at, "pub") || crate_wide && !tok_is(toks, at + 2, "crate") {
        return None;
    }
    let mut kw = if crate_wide { at + 4 } else { at + 1 };
    while tok_in(toks, kw, &["const", "async", "unsafe", "extern"])
        || toks.get(kw).is_some_and(|t| t.kind == TokenKind::Str)
    {
        kw += 1;
    }
    let is_type = !crate_wide && tok_in(toks, kw, &TYPE_KEYWORDS);
    let is_item = (is_type || tok_is(toks, kw, "fn")) && ident_at(toks, kw + 1).is_some();
    is_item.then_some((crate_wide, kw))
}

/// One finding list per file, unsuppressed; the benchmark-pinned items
/// and the counts go straight into `out`. An item is reached by the
/// shipped sites — outside test directories, `#[cfg(test)]` items and
/// `use` declarations; examples, the bench bins, the facade and
/// `benchmark/src` are shipped — that:
///
/// * for a `pub` type, name it outside its definition and its impls;
/// * for a method, call it as `.name(`, `Type::name` or, in an impl of
///   the type, `Self::name` — and its type must be reached too;
/// * for a free fn, name it other than as `fn name` or `.name`.
///
/// A dead type's finding covers its methods, so an exemption on the
/// type covers its impls. An item that only `benchmark/src` reaches is
/// listed under `pinned_by_benchmark`, not reported.
fn rule_deadpub(
    files: &[SourceFile],
    lexed: &[LexedFile],
    scopes: &[Scopes],
    out: &mut LintOutcome,
) -> Vec<Vec<Finding>> {
    use std::collections::{HashMap, HashSet};
    // Files that are `#[cfg(test)] mod name;` of a sibling do not ship.
    let mut test_files: HashSet<String> = HashSet::new();
    for (f, sc) in files.iter().zip(scopes) {
        let dir = f.path.rsplit_once('/').map_or("", |(d, _)| d);
        for m in &sc.test_mods {
            test_files.insert(format!("{dir}/{m}.rs"));
            test_files.insert(format!("{dir}/{m}/mod.rs"));
        }
    }
    let reach_of_file: Vec<u8> = files
        .iter()
        .map(|f| match &f.path {
            p if is_test_dir(p) || test_files.contains(p) => DEAD,
            p if p.starts_with("benchmark/src/") => BENCH,
            _ => SHIPPED,
        })
        .collect();

    // Every shipped identifier outside `use` declarations, by spelling;
    // and the item index, (file, `pub`, keyword), counted as it is built.
    let mut sites: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    let mut items = Vec::new();
    for (k, f) in files
        .iter()
        .enumerate()
        .filter(|&(k, _)| reach_of_file[k] != DEAD)
    {
        let (toks, sc) = (&lexed[k].tokens, &scopes[k]);
        let mut parts = f.path.split('/');
        let counted = (parts.next(), parts.nth(1)) == (Some("crates"), Some("src"));
        let mut last_line = 0;
        for (i, t) in toks.iter().enumerate().filter(|&(i, _)| sc.shipped[i]) {
            if t.kind == TokenKind::Ident && !sc.in_use[i] {
                sites.entry(&t.text).or_default().push((k, i));
            }
            if !counted {
                continue;
            }
            out.counts.non_test_lines += usize::from(t.line != last_line);
            last_line = t.line;
            let Some((crate_wide, kw)) = pub_item(toks, i) else {
                continue;
            };
            *match (tok_is(toks, kw, "fn"), crate_wide) {
                (false, _) => &mut out.counts.pub_types,
                (true, false) => &mut out.counts.pub_fn,
                (true, true) => &mut out.counts.pub_crate_fn,
            } += 1;
            items.push((k, i, kw));
        }
    }

    let is = |k: usize, i: usize, want: &str| tok_is(&lexed[k].tokens, i, want);
    let before = |k: usize, i: usize, d: usize, want: &str| i >= d && is(k, i - d, want);
    let owner = |k: usize, i: usize| scopes[k].owner[i].map(|j| lexed[k].tokens[j].text.as_str());
    let reach = |name: &str, counts: &dyn Fn(usize, usize) -> bool| {
        let named = sites.get(name).map_or(&[][..], Vec::as_slice);
        let counted = named.iter().filter(|&&(k, i)| counts(k, i));
        counted.fold(DEAD, |r, &(k, _)| r.max(reach_of_file[k]))
    };
    let type_reach = |ty: &str| reach(ty, &|k, i| owner(k, i) != Some(ty));

    let mut found: Vec<Vec<Finding>> = files.iter().map(|_| Vec::new()).collect();
    for &(k, at, kw) in &items {
        let name = lexed[k].tokens[kw + 1].text.as_str();
        let (r, item) = match (is(k, kw, "fn"), scopes[k].owner[at]) {
            (false, _) => (type_reach(name), name.to_string()),
            (true, None) => (
                reach(name, &|k, i| {
                    !before(k, i, 1, "fn") && !before(k, i, 1, ".")
                }),
                name.to_string(),
            ),
            (true, Some(ty)) => {
                let ty = lexed[k].tokens[ty].text.as_str();
                let t = type_reach(ty);
                let called = reach(name, &|k, i| {
                    (before(k, i, 1, ".") && (is(k, i + 1, "(") || is(k, i + 1, ":")))
                        || (before(k, i, 1, ":") && before(k, i, 2, ":"))
                            && (before(k, i, 3, ty)
                                || before(k, i, 3, "Self") && owner(k, i) == Some(ty))
                });
                // The type's own finding or pinned entry covers the method.
                let r = t.min(called);
                if r == t && t != SHIPPED {
                    continue;
                }
                (r, format!("{ty}::{name}"))
            }
        };
        match r {
            DEAD => found[k].push(Finding::new(
                "W-DEADPUB",
                &files[k].path,
                lexed[k].tokens[at].line,
                format!(
                    "`{item}` is public but no shipped code reaches it (a `use` \
                     line is not a caller): delete it with the tests that checked \
                     only it, or exempt it with a classed lint:allow"
                ),
            )),
            BENCH => out.pinned_by_benchmark.push(Pinned {
                file: files[k].path.clone(),
                item,
            }),
            _ => {}
        }
    }
    found
}

// ---------------------------------------------------------------------------
// Token-sequence matching
// ---------------------------------------------------------------------------

/// Is token `i` the ident or punct `want`?
fn tok_is(toks: &[Token], i: usize, want: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| matches!(t.kind, TokenKind::Ident | TokenKind::Punct) && t.text == want)
}

/// Is token `i` one of `set`?
fn tok_in(toks: &[Token], i: usize, set: &[&str]) -> bool {
    set.iter().any(|want| tok_is(toks, i, want))
}

/// `Some(i)` if token `i` is an identifier.
fn ident_at(toks: &[Token], i: usize) -> Option<usize> {
    toks.get(i)
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|_| i)
}

/// Do the idents/puncts of `pat` occur consecutively from `i`?
fn seq_at(toks: &[Token], i: usize, pat: &[&str]) -> bool {
    pat.iter()
        .enumerate()
        .all(|(k, want)| tok_is(toks, i + k, want))
}

/// Indices where the idents/puncts of `pat` occur consecutively.
fn seq_matches(toks: &[Token], pat: &[&str]) -> Vec<usize> {
    (0..toks.len()).filter(|&i| seq_at(toks, i, pat)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> LintOutcome {
        lint_files(
            &[SourceFile {
                path: path.to_string(),
                src: src.to_string(),
            }],
            Some(""),
        )
    }

    fn rules_of(out: &LintOutcome) -> Vec<&str> {
        out.findings.iter().map(|f| f.rule.as_str()).collect()
    }

    // ----- Suppressions -----

    #[test]
    fn bare_suppression_is_a_finding_and_inert() {
        let out = run(
            "crates/core/src/engine.rs",
            "fn f() {\n    // lint:allow(W-ENV)\n    let v = std::env::var(\"HOME\");\n}",
        );
        let mut rules = rules_of(&out);
        rules.sort_unstable();
        assert_eq!(rules, ["W-ALLOW", "W-ENV"]);
    }

    #[test]
    fn suppression_with_reason() {
        let out = run(
            "crates/core/src/engine.rs",
            "fn knob() { // lint:allow(W-ENV): a build-time path, not a knob\n    let v = std::env::var(\"OUT_DIR\");\n}",
        );
        // Trailing comment governs line 1, but the read is line 2 — use
        // a standalone comment above instead.
        assert_eq!(rules_of(&out), ["W-ENV"]);
        let out = run(
            "crates/core/src/engine.rs",
            "fn knob() {\n    // lint:allow(W-ENV): a build-time path, not a knob\n    let v = std::env::var(\"OUT_DIR\");\n}",
        );
        assert!(out.is_clean());
    }

    #[test]
    fn unknown_rule_suppression_is_a_finding() {
        let out = run(
            "crates/core/src/lib.rs",
            "// lint:allow(W-BOGUS): some reason\nfn f() {}",
        );
        assert_eq!(rules_of(&out), ["W-ALLOW"]);
    }

    #[test]
    fn doc_comment_mentioning_syntax_is_not_a_suppression() {
        let out = run(
            "crates/core/src/lib.rs",
            "/// Suppress with `// lint:allow(W-BOGUS): reason` inline.\nfn f() {}",
        );
        assert!(out.is_clean());
    }

    // ----- W-DEADPUB -----

    fn run_set(files: &[(&str, &str)]) -> LintOutcome {
        let files: Vec<SourceFile> = files
            .iter()
            .map(|(path, src)| SourceFile {
                path: path.to_string(),
                src: src.to_string(),
            })
            .collect();
        lint_files(&files, Some(""))
    }

    #[test]
    fn deadpub_counts_callers_in_shipped_code_only() {
        let def = "pub fn lonely() {}\npub(crate) fn shy() {}\nfn private() {}";
        // Nothing names them: both public items fire, the private one
        // is the compiler's business.
        let out = run_set(&[("crates/core/src/a.rs", def)]);
        assert_eq!(rules_of(&out), ["W-DEADPUB", "W-DEADPUB"]);
        assert_eq!((out.findings[0].line, out.findings[1].line), (1, 2));
        // Tests, benches, a `#[cfg(test)]` item and a `#[cfg(test)] mod x;`
        // file are not callers; a second definition is not a use.
        let out = run_set(&[
            ("crates/core/src/a.rs", def),
            ("crates/core/tests/t.rs", "fn t() { lonely(); shy(); }"),
            ("crates/core/src/b.rs", "#[cfg(test)]\nmod tests { fn t() { lonely(); shy(); } }\n#[cfg(test)]\npub mod util;\nfn lonely() {}"),
            ("crates/core/src/util.rs", "pub fn helper() { shy(); }"),
        ]);
        assert_eq!(rules_of(&out), ["W-DEADPUB", "W-DEADPUB"]);
        // An example, a bench bin, the facade or benchmark/src is; only
        // benchmark/src pins what it calls.
        for caller in [
            "examples/demo.rs",
            "crates/bench/src/bin/fig.rs",
            "src/lib.rs",
            "benchmark/src/ladder.rs",
        ] {
            let out = run_set(&[
                ("crates/core/src/a.rs", def),
                (caller, "fn f() { lonely(); shy() }"),
            ]);
            assert!(out.is_clean(), "{caller}: {:?}", out.findings);
            let pinned = out.pinned_by_benchmark.iter().map(|p| p.item.as_str());
            let want: &[&str] = if caller.starts_with("benchmark/") {
                &["lonely", "shy"]
            } else {
                &[]
            };
            assert_eq!(pinned.collect::<Vec<_>>(), want, "{caller}");
        }
        // Only crates/*/src is held to the rule.
        assert!(run_set(&[("src/lib.rs", def), ("examples/e.rs", def)]).is_clean());
    }

    #[test]
    fn deadpub_exemption_needs_a_class() {
        let classed = "// lint:allow(W-DEADPUB): oracle for Engine::compute in tests/oracle.rs\npub fn naive() {}";
        assert!(run("crates/core/src/naive.rs", classed).is_clean());
        let unclassed = "// lint:allow(W-DEADPUB): tests use it\npub fn naive() {}";
        let out = run("crates/core/src/naive.rs", unclassed);
        assert_eq!(rules_of(&out), ["W-ALLOW", "W-DEADPUB"]);
    }

    #[test]
    fn deadpub_resolves_methods_through_their_impl_type() {
        let def = "pub struct Grid<T>(T);\nimpl<T: Copy> crate::Grid<T> {\n    pub fn cells(&self) {}\n    pub fn side(&self) {}\n}\nimpl<T> Default for Grid<T> {\n    fn default() -> Self { Self::cells(); todo!() }\n}";
        // `Self::cells` in a trait impl of `Grid` calls it; a local
        // `side` calls nothing.
        let caller = "fn main() { let g: Grid<f64> = Default::default(); let side = 2; }";
        let out = run_set(&[("crates/math/src/grid.rs", def), ("examples/e.rs", caller)]);
        assert_eq!(rules_of(&out), ["W-DEADPUB"]);
        assert_eq!(out.findings[0].line, 4);
    }

    // ----- W-ENV -----

    #[test]
    fn env_fires_outside_designated_modules() {
        // No module is designated: the former backend resolver is
        // watched like any other source.
        for path in [
            "crates/grid/src/mesh.rs",
            "crates/core/src/kernel/backend.rs",
        ] {
            let out = run(path, "fn f() { let v = std::env::var(\"GALACTOS_MESH\"); }");
            // Both the read and the knob literal fire.
            assert_eq!(rules_of(&out), ["W-ENV", "W-ENV"], "{path}");
        }
    }

    #[test]
    fn env_allowed_in_tests() {
        let out = run(
            "crates/core/tests/knobs.rs",
            "fn f() { std::env::set_var(\"GALACTOS_KERNEL\", \"simd\"); let v = std::env::var(\"GALACTOS_KERNEL\"); }",
        );
        assert!(out.is_clean());
    }

    // ----- W-UNSAFE -----

    #[test]
    fn unsafe_block_without_safety_comment_fires() {
        let out = run(
            "crates/math/src/fft.rs",
            "fn f(p: *const f64) -> f64 { unsafe { *p } }",
        );
        // Missing SAFETY + unregistered (empty registry).
        let mut rules = rules_of(&out);
        rules.sort_unstable();
        assert_eq!(rules, ["W-UNSAFE", "W-UNSAFE"]);
    }

    #[test]
    fn unsafe_with_safety_comment_and_registry_is_clean() {
        let src = "fn f(p: *const f64) -> f64 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}";
        let out = lint_files(
            &[SourceFile {
                path: "crates/math/src/fft.rs".to_string(),
                src: src.to_string(),
            }],
            Some("crates/math/src/fft.rs | block | f\n"),
        );
        assert!(out.is_clean(), "findings: {:?}", out.findings);
        assert_eq!(out.unsafe_sites.len(), 1);
        assert_eq!(out.unsafe_sites[0].entry.context, "f");
    }

    #[test]
    fn unsafe_fn_accepts_doc_safety_section() {
        let src = "/// Does things.\n///\n/// # Safety\n/// `p` must be valid.\nunsafe fn read(p: *const f64) -> f64 { *p }";
        let out = lint_files(
            &[SourceFile {
                path: "crates/math/src/fft.rs".to_string(),
                src: src.to_string(),
            }],
            Some("crates/math/src/fft.rs | fn | read\n"),
        );
        assert!(out.is_clean(), "findings: {:?}", out.findings);
    }

    #[test]
    fn unsafe_impl_context_is_implementing_type() {
        let src = "// SAFETY: columns are disjoint.\nunsafe impl Sync for DisjointCols {}";
        let out = lint_files(
            &[SourceFile {
                path: "crates/math/src/fft.rs".to_string(),
                src: src.to_string(),
            }],
            Some("crates/math/src/fft.rs | impl | DisjointCols\n"),
        );
        assert!(out.is_clean(), "findings: {:?}", out.findings);
        assert_eq!(out.unsafe_sites[0].entry.kind, "impl");
    }

    #[test]
    fn stale_registry_entry_fires() {
        let out = lint_files(
            &[SourceFile {
                path: "crates/math/src/fft.rs".to_string(),
                src: "fn f() {}".to_string(),
            }],
            Some("crates/math/src/fft.rs | block | gone\n"),
        );
        assert_eq!(rules_of(&out), ["W-UNSAFE"]);
        assert!(out.findings[0].message.contains("stale"));
        assert_eq!(out.findings[0].file, registry::REGISTRY_FILE);
    }

    #[test]
    fn unsafe_in_closure_attributes_to_enclosing_fn() {
        let src = "fn outer(rows: &[*mut f64]) {\n    rows.iter().for_each(|r| {\n        // SAFETY: rows are disjoint.\n        unsafe { drop(r) }\n    });\n}";
        let out = run("crates/math/src/fft.rs", src);
        assert_eq!(out.unsafe_sites.len(), 1);
        assert_eq!(out.unsafe_sites[0].entry.context, "outer");
    }

    #[test]
    fn safety_comment_separated_by_blank_line_does_not_count() {
        let out = run(
            "crates/math/src/fft.rs",
            "fn f(p: *const f64) -> f64 {\n    // SAFETY: stale, too far away.\n\n    unsafe { *p }\n}",
        );
        assert!(rules_of(&out).contains(&"W-UNSAFE"));
    }
}
