//! The rule engine: two contract rules and inline suppressions.
//!
//! Every rule operates on the lexed token stream (see [`crate::lexer`])
//! so nothing ever fires inside a string, char literal, or comment.
//! Scoping is by path: each rule documents exactly which files it
//! watches and which it deliberately ignores (tests and examples may
//! set knobs; no library source is allowed an env read; and so on).
//! `W-ENV` looks at one file at a time; `W-DEADPUB` looks at the whole
//! file set. One scope pass per file tells every rule, per token,
//! whether it ships (not under `#[cfg(test)]`), whether it sits in a
//! `use` declaration, and which type (its definition or an `impl` of
//! it) encloses it. `W-DEADPUB` also counts the parameters of a method
//! and the arguments of a call, so `.name(…)` names a method only at its
//! own arity.
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
//! type, it covers the type's impls. It answers for the item's callers
//! only: a `pub fn` that nothing outside its crate names is reported
//! whatever the comment above it says.

use crate::lexer::{lex, LexedFile, Token, TokenKind};

/// The two contract rules, in report order.
pub const RULES: [&str; 2] = ["W-ENV", "W-DEADPUB"];

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
    pub counts: Counts,
    pub files_scanned: usize,
}

impl LintOutcome {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Run the whole engine over `files`.
pub(crate) fn lint_files(files: &[SourceFile]) -> LintOutcome {
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

    rule_env(f, lexed, scopes, &mut raw);

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
    /// Index of the name of the type whose definition or `impl` (header
    /// included) encloses the token: an impl's self type.
    owner: Vec<Option<usize>>,
    /// Names of the file modules declared `#[cfg(test)] mod name;`.
    test_mods: Vec<String>,
    /// Names of the types with an `impl Deref` or `DerefMut`.
    derefs: Vec<String>,
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
        owner: Vec::with_capacity(n),
        test_mods: Vec::new(),
        derefs: Vec::new(),
    };
    // Open type bodies (definitions and impls): (name index, brace depth).
    let mut open: Vec<(usize, usize)> = Vec::new();
    let (mut braces, mut parens) = (0usize, 0usize);
    let (mut pending_owner, mut in_use) = (None, false);
    for (i, t) in toks.iter().enumerate() {
        if s.shipped[i] && seq_at(toks, i, &CFG_TEST) {
            let end = item_end(toks, i + CFG_TEST.len());
            if tok_is(toks, end, ";") && tok_is(toks, end - 2, "mod") {
                s.test_mods.push(toks[end - 1].text.clone());
            }
            s.shipped[i..=end].fill(false);
        }
        let innermost = open.last().map(|o| o.0);
        if tok_is(toks, i, "impl") && (i == 0 || tok_in(toks, i - 1, &ITEM_START)) {
            pending_owner = impl_self_type(toks, i);
            let mut header = toks[i..].iter().take_while(|t| t.text != "{");
            if header.any(|t| t.text == "Deref" || t.text == "DerefMut") {
                s.derefs.extend(pending_owner.map(|j| toks[j].text.clone()));
            }
        } else if tok_in(toks, i, &TYPE_KEYWORDS) && innermost.is_none() {
            // Outside impls and traits, so not an associated `type`.
            pending_owner = ident_at(toks, i + 1);
        } else if tok_is(toks, i, "use") {
            in_use = true;
        }
        s.in_use[i] = in_use;
        s.owner.push(pending_owner.or(innermost));
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" => parens += 1,
            ")" | "]" => parens = parens.saturating_sub(1),
            "{" => {
                braces += 1;
                if let Some(ty) = pending_owner.take() {
                    open.push((ty, braces));
                }
            }
            "}" => {
                if open.last().is_some_and(|o| o.1 == braces) {
                    open.pop();
                }
                braces = braces.saturating_sub(1);
            }
            // A `;` at signature level ends a bodyless item: `struct S;`,
            // `type T = U;`, a `use` (but `[u8; 4]` does not).
            ";" if parens == 0 => (pending_owner, in_use) = (None, false),
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
// W-ENV — no non-test, non-example source reads the process
// environment or names a GALACTOS_* knob: ζ is a function of the
// EngineConfig and the build target.
// ---------------------------------------------------------------------------

/// The `std::env` functions that read the process environment.
const ENV_READERS: [&str; 4] = ["var", "var_os", "vars", "vars_os"];

fn rule_env(f: &SourceFile, lexed: &LexedFile, scopes: &Scopes, raw: &mut Vec<Finding>) {
    if is_test_or_example(&f.path) {
        return;
    }
    let toks = &lexed.tokens;
    // `use std::env as e;` makes `e::` name the module too.
    let mut modules = vec!["env"];
    for i in seq_matches(toks, &["env", "as"]) {
        if let Some(alias) = ident_at(toks, i + 2).filter(|_| scopes.in_use[i]) {
            modules.push(toks[alias].text.as_str());
        }
    }
    let paths = modules
        .iter()
        .flat_map(|m| seq_matches(toks, &[*m, ":", ":"]));
    for i in paths {
        let next = i + 3;
        let in_use = scopes.in_use[i];
        // A path names the reader right after `env::`; a `use` may also
        // name it inside an `env::{…}` group, or import it by `env::*`.
        let named = if in_use && tok_is(toks, next, "{") {
            next + 1..item_end(toks, next)
        } else {
            next..next + 1
        };
        for t in named.filter_map(|j| toks.get(j)) {
            if t.kind == TokenKind::Ident && ENV_READERS.contains(&t.text.as_str()) {
                raw.push(Finding::new(
                    "W-ENV",
                    &f.path,
                    t.line,
                    format!("env::{} read outside tests and examples", t.text),
                ));
            }
        }
        if in_use && tok_is(toks, next, "*") {
            raw.push(Finding::new(
                "W-ENV",
                &f.path,
                toks[next].line,
                "env::* imports the environment readers outside tests and examples".to_string(),
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
// W-DEADPUB — `pub` means another crate names it, and public means
// called: the `pub` items of crates/*/src are resolved against the
// sites that name them outside their crate and the shipped sites that
// call them. A `pub(crate) fn` is rustc's: `dead_code` reports it.
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

/// The crate a file is compiled into, as far as the boundary check
/// needs: `crates/<c>/src/` is the library of `c`, except its bin
/// targets (`src/main.rs`, `src/bin/`); every other file (tests,
/// examples, benches, a bin, the facade, `benchmark/`) is outside every
/// library and is keyed by its own path.
fn crate_of(path: &str) -> &str {
    let mut parts = path.splitn(4, '/');
    match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some("crates"), Some(c), Some("src"), Some(rest))
            if rest != "main.rs" && !rest.starts_with("bin/") =>
        {
            &path[.."crates/".len() + c.len() + "/src".len()]
        }
        _ => path,
    }
}

/// One finding list per file, unsuppressed; the boundary findings, the
/// benchmark-pinned items and the counts go straight into `out`.
///
/// A `pub fn` must first be named outside its crate (see [`crate_of`]):
/// by any file there, a test, a `#[cfg(test)]` item or a `use` line
/// included, in the call shapes below. Otherwise it is a finding that
/// asks for `pub(crate)`, which no exemption suppresses: an oracle that
/// only its own crate's unit tests name belongs under `#[cfg(test)]`.
///
/// A `pub` type, and a `pub fn` named outside, must then be reached by
/// the shipped sites — outside test directories, `#[cfg(test)]` items
/// and `use` declarations; examples, the bench bins, the facade and
/// `benchmark/src` are shipped — that:
///
/// * for a `pub` type, name it outside its definition and its impls;
/// * for a method, call it as `Type::name`, in an impl of the type as
///   `Self::name`, or as `.name(…)` — and its type must be reached too;
/// * for a free fn, name it other than as `fn name` or `.name`.
///
/// A `.name(…)` call names a method only if the method takes `self` and
/// as many other parameters as the call has top-level arguments, and a
/// call on a bare `self` names only a method of the enclosing impl's
/// type, unless that type implements `Deref`. No other receiver is
/// resolved: a call with the right argument count names every method of
/// its spelling, so a zero-argument `.len()` anywhere keeps every
/// `pub fn len(&self)` named. Only the compiler can close that gap
/// (one library crate, where `dead_code` sees every caller).
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

    // Every identifier, by spelling; and the item index, (file, `pub`,
    // keyword) over shipped code, counted as it is built.
    let mut sites: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    let mut items = Vec::new();
    for (k, f) in files.iter().enumerate() {
        let (toks, sc) = (&lexed[k].tokens, &scopes[k]);
        let mut parts = f.path.split('/');
        let counted = reach_of_file[k] != DEAD
            && (parts.next(), parts.nth(1)) == (Some("crates"), Some("src"));
        let mut last_line = 0;
        for (i, t) in toks.iter().enumerate() {
            if t.kind == TokenKind::Ident {
                sites.entry(&t.text).or_default().push((k, i));
            }
            if !counted || !sc.shipped[i] {
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
            if !crate_wide {
                items.push((k, i, kw));
            }
        }
    }

    let is = |k: usize, i: usize, want: &str| tok_is(&lexed[k].tokens, i, want);
    let before = |k: usize, i: usize, d: usize, want: &str| i >= d && is(k, i - d, want);
    let owner = |k: usize, i: usize| scopes[k].owner[i].map(|j| lexed[k].tokens[j].text.as_str());
    let named = |name: &str| sites.get(name).map_or(&[][..], Vec::as_slice).iter();
    let reach = |name: &str, counts: &dyn Fn(usize, usize) -> bool| {
        let shipped = |k: usize, i: usize| scopes[k].shipped[i] && !scopes[k].in_use[i];
        let counted = named(name).filter(|&&(k, i)| shipped(k, i) && counts(k, i));
        counted.fold(DEAD, |r, &(k, _)| r.max(reach_of_file[k]))
    };
    let type_reach = |ty: &str| reach(ty, &|k, i| owner(k, i) != Some(ty));
    let fn_shape = |k: usize, i: usize| !before(k, i, 1, "fn") && !before(k, i, 1, ".");
    // Types that deref to another: a call on their `self` is unresolved.
    let derefs: HashSet<&str> = scopes
        .iter()
        .flat_map(|s| &s.derefs)
        .map(String::as_str)
        .collect();
    // `params` is the method's (parameter count, has a receiver), if its
    // signature parses. A `.name(…)` call must match both; on a bare
    // `self` it names only a method of the enclosing impl's type.
    let method_shape = |ty: &str, params: Option<(usize, bool)>, k: usize, i: usize| {
        if before(k, i, 1, ".") {
            let other = |u: &str| u != ty && !derefs.contains(u);
            let other_self = before(k, i, 2, "self") && owner(k, i).is_some_and(other);
            let arity = call_arity(&lexed[k].tokens, i);
            return !other_self && arity.is_some_and(|n| params.is_none_or(|p| p == (n, true)));
        }
        (before(k, i, 1, ":") && before(k, i, 2, ":"))
            && (before(k, i, 3, ty) || before(k, i, 3, "Self") && owner(k, i) == Some(ty))
    };

    let crates: Vec<&str> = files.iter().map(|f| crate_of(&f.path)).collect();
    let mut found: Vec<Vec<Finding>> = files.iter().map(|_| Vec::new()).collect();
    for &(k, at, kw) in &items {
        let name = lexed[k].tokens[kw + 1].text.as_str();
        let home = crates[k];
        let outside = |shape: &dyn Fn(usize, usize) -> bool| {
            named(name).any(|&(j, i)| crates[j] != home && shape(j, i))
        };
        let (r, item, out_named) = match (is(k, kw, "fn"), scopes[k].owner[at]) {
            (false, _) => (type_reach(name), name.to_string(), true),
            (true, None) => (reach(name, &fn_shape), name.to_string(), outside(&fn_shape)),
            (true, Some(ty)) => {
                let ty = lexed[k].tokens[ty].text.as_str();
                let t = type_reach(ty);
                let params = fn_params(&lexed[k].tokens, kw);
                let shape = |k, i| method_shape(ty, params, k, i);
                let called = reach(name, &shape);
                // The type's own finding or pinned entry covers the method.
                let r = t.min(called);
                if r == t && t != SHIPPED {
                    continue;
                }
                (r, format!("{ty}::{name}"), outside(&shape))
            }
        };
        let line = lexed[k].tokens[at].line;
        if !out_named {
            out.findings.push(Finding::new(
                "W-DEADPUB",
                &files[k].path,
                line,
                format!(
                    "`{item}` is `pub` but nothing outside `{home}` names it: make it `pub(crate)`"
                ),
            ));
            continue;
        }
        match r {
            DEAD => found[k].push(Finding::new(
                "W-DEADPUB",
                &files[k].path,
                line,
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

/// The parameter count of the fn whose `fn` keyword is at `kw`, not
/// counting a receiver, and whether it has one; `None` if no parameter
/// list follows its name and generics.
fn fn_params(toks: &[Token], kw: usize) -> Option<(usize, bool)> {
    let open = after_generics(toks, kw + 2);
    let items = tok_is(toks, open, "(").then(|| list_items(toks, open, true).0)?;
    let lead = |t: &&Token| t.text == "&" || t.text == "mut" || t.kind == TokenKind::Lifetime;
    let receiver = items
        .first()
        .is_some_and(|&s| tok_is(toks, s + toks[s..].iter().take_while(lead).count(), "self"));
    Some((items.len() - usize::from(receiver), receiver))
}

/// The argument count of the method call whose name is at `at`,
/// `.name(…)` or `.name::<…>(…)`; `None` if no argument list follows.
fn call_arity(toks: &[Token], at: usize) -> Option<usize> {
    let turbofish = seq_at(toks, at + 1, &[":", ":"]);
    let open = after_generics(toks, at + 1 + 2 * usize::from(turbofish));
    tok_is(toks, open, "(").then(|| list_items(toks, open, false).0.len())
}

/// The index after the generics that open at `at`, or `at` if none do.
fn after_generics(toks: &[Token], at: usize) -> usize {
    if tok_is(toks, at, "<") {
        list_items(toks, at, true).1 + 1
    } else {
        at
    }
}

/// Tokens after which a `|` in an argument list opens a closure's
/// parameters, not an operator (`a | b`, `a || b`).
const CLOSURE_AFTER: [&str; 5] = ["(", ",", "&", "mut", "move"];

/// Where each item of the list that the bracket at `open` opens starts,
/// and the index of its closing bracket. Top-level commas split it, and
/// a trailing comma opens no item. In a signature every `<` opens
/// generics; in a call only a turbofish `::<` does, and a closure's
/// `|…|` parameters are skipped.
fn list_items(toks: &[Token], open: usize, sig: bool) -> (Vec<usize>, usize) {
    let (mut depth, mut angle) = (0usize, 0usize);
    let (mut items, mut start, mut i) = (Vec::new(), open + 1, open + 1);
    while let Some(t) = toks.get(i) {
        let generic = sig || angle > 0;
        let punct = (t.kind == TokenKind::Punct).then_some(t.text.as_str());
        match punct.unwrap_or("") {
            "<" if generic || tok_is(toks, i - 1, ":") => (depth, angle) = (depth + 1, angle + 1),
            ">" if !generic || tok_is(toks, i - 1, "-") => {}
            ">" | ")" | "]" | "}" if depth == 0 => break,
            ">" => (depth, angle) = (depth - 1, angle.saturating_sub(1)),
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "|" if !sig && tok_in(toks, i - 1, &CLOSURE_AFTER) => {
                let params = toks[i + 1..].iter().take_while(|t| t.text != "|");
                i += 1 + params.count();
            }
            "," if depth == 0 => {
                items.extend((start < i).then_some(start));
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    items.extend((start < i).then_some(start));
    (items, i)
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
        lint_files(&[SourceFile {
            path: path.to_string(),
            src: src.to_string(),
        }])
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
        lint_files(&files)
    }

    /// The messages of `out`'s findings, by line.
    fn messages(out: &LintOutcome) -> Vec<(usize, &str)> {
        out.findings
            .iter()
            .map(|f| (f.line, f.message.as_str()))
            .collect()
    }

    #[test]
    fn deadpub_counts_callers_in_shipped_code_only() {
        let def = "pub fn lonely() {}\npub(crate) fn shy() {}\nfn private() {}";
        // Nothing names them: the `pub` fn fires, the `pub(crate)` and
        // private ones are the compiler's business.
        let out = run_set(&[("crates/core/src/a.rs", def)]);
        assert_eq!(rules_of(&out), ["W-DEADPUB"]);
        assert_eq!(out.findings[0].line, 1);
        // Tests, benches, a `#[cfg(test)]` item and a `#[cfg(test)] mod x;`
        // file are not callers; a second definition is not a use.
        let out = run_set(&[
            ("crates/core/src/a.rs", def),
            ("crates/core/tests/t.rs", "fn t() { lonely(); shy(); }"),
            ("crates/core/src/b.rs", "#[cfg(test)]\nmod tests { fn t() { lonely(); shy(); } }\n#[cfg(test)]\npub mod util;\nfn lonely() {}"),
            ("crates/core/src/util.rs", "pub fn helper() { lonely(); }"),
        ]);
        let got = messages(&out);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].1.contains("no shipped code reaches it"), "{got:?}");
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
                &["lonely"]
            } else {
                &[]
            };
            assert_eq!(pinned.collect::<Vec<_>>(), want, "{caller}");
        }
        // Only crates/*/src is held to the rule.
        assert!(run_set(&[("src/lib.rs", def), ("examples/e.rs", def)]).is_clean());
    }

    #[test]
    fn deadpub_pub_needs_a_name_outside_its_crate() {
        let def = "pub struct Tree;\nimpl Tree {\n    pub fn walk(&self) {}\n}\npub fn lonely() {}";
        // Shipped code of its own crate calls both, so both are live.
        let home = "fn f(t: &Tree) { lonely(); t.walk(); Tree::walk(t); }";
        let crate_only = [
            ("crates/core/src/a.rs", def),
            ("crates/core/src/b.rs", home),
        ];
        let out = run_set(&crate_only);
        assert_eq!(rules_of(&out), ["W-DEADPUB", "W-DEADPUB"]);
        for ((line, message), item) in messages(&out).into_iter().zip(["Tree::walk", "lonely"]) {
            assert!(
                message.starts_with(&format!("`{item}` is `pub` but nothing outside"))
                    && message.ends_with("make it `pub(crate)`"),
                "{line}: {message}"
            );
        }
        assert_eq!((out.findings[0].line, out.findings[1].line), (3, 5));
        // A test module, a `#[cfg(test)] mod x;` file or a `use` line of
        // its own crate, or a same-spelled definition elsewhere, names
        // neither.
        let out = run_set(&[
            crate_only[0],
            crate_only[1],
            ("crates/core/src/c.rs", "use crate::a::lonely;\n#[cfg(test)]\nmod tests { fn t(t: &super::Tree) { super::lonely(); t.walk(); } }"),
            ("crates/grid/src/d.rs", "pub(crate) fn lonely() {}\nfn walk() {}"),
        ]);
        assert_eq!(rules_of(&out), ["W-DEADPUB", "W-DEADPUB"]);
        // Another crate's `src`, a `tests/` directory (its own crate's
        // included), `benchmark/src` and a bin target under the same
        // `src/` are outside the library, whatever reaches there.
        for (path, src) in [
            (
                "crates/grid/src/x.rs",
                "fn g(t: &Tree) { lonely(); t.walk(); }",
            ),
            (
                "crates/core/tests/t.rs",
                "fn t(t: &Tree) { lonely(); Tree::walk(t); }",
            ),
            (
                "crates/grid/tests/t.rs",
                "#[test]\nfn t() { lonely(); Tree.walk(); }",
            ),
            (
                "benchmark/src/main.rs",
                "fn main() { lonely(); Tree::walk(&Tree); }",
            ),
            (
                "crates/core/src/main.rs",
                "fn main() { lonely(); Tree.walk(); }",
            ),
            (
                "crates/core/src/bin/tool.rs",
                "fn main() { lonely(); Tree.walk(); }",
            ),
        ] {
            let out = run_set(&[crate_only[0], crate_only[1], (path, src)]);
            assert!(out.is_clean(), "{path}: {:?}", out.findings);
            assert!(out.pinned_by_benchmark.is_empty(), "{path}");
        }
        // Another crate's `use` line names a fn; a method cannot be
        // imported, so it still fires.
        let out = run_set(&[
            crate_only[0],
            crate_only[1],
            (
                "crates/grid/src/y.rs",
                "use galactos_core::a::{lonely, Tree};",
            ),
        ]);
        assert_eq!(rules_of(&out), ["W-DEADPUB"]);
        assert_eq!(out.findings[0].line, 3);
    }

    #[test]
    fn deadpub_exemption_needs_a_class() {
        let caller = ("crates/core/tests/oracle.rs", "fn t() { naive(); }");
        let classed = "// lint:allow(W-DEADPUB): oracle for Engine::compute in tests/oracle.rs\npub fn naive() {}";
        assert!(run_set(&[("crates/core/src/naive.rs", classed), caller]).is_clean());
        let unclassed = "// lint:allow(W-DEADPUB): tests use it\npub fn naive() {}";
        let out = run_set(&[("crates/core/src/naive.rs", unclassed), caller]);
        assert_eq!(rules_of(&out), ["W-ALLOW", "W-DEADPUB"]);
        // An exemption answers for the callers, not for `pub`: an oracle
        // only its own crate's unit tests name is not exempt.
        let out = run("crates/core/src/naive.rs", classed);
        assert_eq!(rules_of(&out), ["W-DEADPUB"]);
        assert!(out.findings[0].message.ends_with("make it `pub(crate)`"));
    }

    #[test]
    fn deadpub_resolves_methods_through_their_impl_type() {
        let def = "pub struct Grid<T>(T);\nimpl<T: Copy> crate::Grid<T> {\n    pub fn cells(&self) {}\n    pub fn side(&self) {}\n}\nimpl<T> Default for Grid<T> {\n    fn default() -> Self { Self::cells(); todo!() }\n}";
        // `Self::cells` in a trait impl of `Grid` calls it; a local
        // `side` calls nothing. A test names both outside the crate.
        let caller = "fn main() { let g: Grid<f64> = Default::default(); let side = 2; }";
        let test = "fn t(g: Grid<f64>) { Grid::cells(&g); g.side(); }";
        let out = run_set(&[
            ("crates/math/src/grid.rs", def),
            ("examples/e.rs", caller),
            ("crates/math/tests/t.rs", test),
        ]);
        assert_eq!(rules_of(&out), ["W-DEADPUB"]);
        assert_eq!(out.findings[0].line, 4);
        assert!(out.findings[0]
            .message
            .contains("no shipped code reaches it"));
    }

    #[test]
    fn deadpub_method_calls_need_its_arity_and_receiver() {
        let def = "pub struct Tree;\nimpl Tree {\n    pub fn walk(&self, depth: usize) {}\n    pub fn step(&mut self) {}\n    pub fn seen<T: Into<(u8, u8)>>(&self, a: T, b: &dyn Fn(u8, u8) -> u8) {}\n    pub fn path(&self) {}\n    pub fn make(n: u8) -> Self { Tree }\n}";
        let home = "fn f(mut t: Tree) { t.walk(1); t.step(); t.seen((1, 2), &|a, b| a | b); t.path(); Tree::make(1); }";
        // Outside its crate: `walk` only with another argument count,
        // `step` only on the `self` of another type, `make` (no
        // receiver) only as a method call.
        let outside = "struct Other;\nimpl Other {\n    fn f(&mut self, t: Tree) {\n        t.walk();\n        self.step();\n        t.make(1);\n        t.seen::<(u8, u8)>(vec![1, 2].into(), &|a: Vec<u8>, b| b);\n        Tree::path(&t);\n    }\n}";
        let out = run_set(&[
            ("crates/core/src/a.rs", def),
            ("crates/core/src/b.rs", home),
            ("crates/grid/src/c.rs", outside),
        ]);
        let got: Vec<_> = out.findings.iter().map(|f| f.line).collect();
        assert_eq!(got, [3, 4, 7], "{:?}", out.findings);
        assert!(out
            .findings
            .iter()
            .all(|f| f.message.ends_with("make it `pub(crate)`")));
        // A matching call on an unresolved receiver, or on the `self` of
        // a type that derefs, names it; no method call names `make`.
        let resolved = "struct W(Tree);\nimpl std::ops::Deref for W {\n    type Target = Tree;\n    fn deref(&self) -> &Tree { &self.0 }\n}\nimpl W {\n    fn f(&mut self, t: Tree) { self.step(); t.walk(2,); self.0.make::<>(3); }\n}";
        let out = run_set(&[
            ("crates/core/src/a.rs", def),
            ("crates/core/src/b.rs", home),
            ("crates/grid/src/c.rs", outside),
            ("crates/grid/src/d.rs", resolved),
        ]);
        let got: Vec<_> = out.findings.iter().map(|f| f.line).collect();
        assert_eq!(got, [7], "{:?}", out.findings);
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
    fn env_fires_on_braced_and_glob_imports() {
        // A reader named in a `use` group, or imported by a glob, fires
        // where the `use` names it, whatever it is later called.
        for (src, line) in [
            ("use std::env::{var};\nfn f() { let v = var(\"HOME\"); }", 1),
            (
                "use std::{fs,\n    env::{self, var_os as os}};\nfn f() { os(\"HOME\"); }",
                2,
            ),
            ("use std::env::*;\nfn f() { let v = var(\"HOME\"); }", 1),
        ] {
            let out = run("crates/core/src/engine.rs", src);
            let got: Vec<_> = out
                .findings
                .iter()
                .map(|f| (f.rule.as_str(), f.line))
                .collect();
            assert_eq!(got, [("W-ENV", line)], "{src}");
        }
        // The module itself and a non-reader are not reads.
        let out = run(
            "crates/core/src/engine.rs",
            "use std::env::{self};\nuse std::env::{args};\nfn f() { let n = std::env::args().count(); }",
        );
        assert!(out.is_clean(), "{:?}", out.findings);
    }

    #[test]
    fn env_fires_on_renamed_module() {
        // A module renamed by `use` still reads the environment.
        let out = run(
            "crates/core/src/engine.rs",
            "use std::env as e;\nfn f() { let v = e::var(\"HOME\"); }",
        );
        let got: Vec<_> = out
            .findings
            .iter()
            .map(|f| (f.rule.as_str(), f.line))
            .collect();
        assert_eq!(got, [("W-ENV", 2)]);
        // A `let` binding named like an alias is not a path.
        let out = run(
            "crates/core/src/engine.rs",
            "use std::env as e;\nfn f(e: u8) -> u8 { e }",
        );
        assert!(out.is_clean(), "{:?}", out.findings);
    }

    #[test]
    fn env_allowed_in_tests() {
        let out = run(
            "crates/core/tests/knobs.rs",
            "fn f() { std::env::set_var(\"GALACTOS_KERNEL\", \"simd\"); let v = std::env::var(\"GALACTOS_KERNEL\"); }",
        );
        assert!(out.is_clean());
    }
}
