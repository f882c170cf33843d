//! `galactos-lint` — the workspace invariant checker.
//!
//! The repo's lexical contracts (no environment reads in library code,
//! no `pub` fn that only its own crate names, no public item that
//! nothing ships) are enforced here as
//! build-breaking static analysis, not just rustdoc prose and runtime
//! tests. The contracts that need types live with the compiler
//! instead: clippy's `disallowed-methods` (workspace `clippy.toml`)
//! keeps every clock read in `obs::clock`, the catalog crate denies
//! narrowing casts on its GCAT readers (`io`, `shard`), and the rayon
//! stand-in has no unordered parallel `sum`, so an order-dependent
//! float reduction does not compile (a `compile_fail` doctest in
//! `core::engine` pins that). `unsafe` is rustc's: the workspace lints
//! deny `unsafe_code`, `galactos_simd::run_at` alone allows it, and
//! clippy's `undocumented_unsafe_blocks` asks each block for a
//! `// SAFETY:` comment; a test here pins that configuration and that
//! the `unsafe` keyword appears nowhere else, `benchmark/` included.
//! The tool is offline and dependency-free by design: a small
//! hand-rolled lexer (no `syn`, no crates.io) feeds a rule engine; any
//! finding makes the binary exit nonzero, and CI runs it on every push.
//!
//! # Rules
//!
//! | rule | contract |
//! |------|----------|
//! | `W-ENV` | no `env::var*` read and no `GALACTOS_*` literal in any non-test, non-example source |
//! | `W-DEADPUB` | a `pub fn` under `crates/*/src` is named outside its crate (another crate, a `tests/` dir, an example, the facade, `benchmark/`, a bin target under the same `src/`; `use` lines count) or must be `pub(crate)`; a `pub` type or `pub fn` is reached by shipped code — a type named outside its definition and impls, a method called as `Type::name` / `Self::name` / `.name(…)` with its own argument count (on a bare `self`, only of the enclosing impl's type) on a reached type, a free fn named; `use` lines never count — or carries a classed exemption; what only `benchmark/src` reaches is listed, not reported. A `pub(crate) fn` is rustc's `dead_code` |
//!
//! See [`rules`] for the precise scoping of each rule and the
//! suppression syntax.
//!
//! # Scan policy
//!
//! All `.rs` files under the workspace root are scanned **except**
//! anything under `vendor/` (third-party stand-ins are not ours to
//! audit), `target/`, `fixtures/` (the lint's own test corpus
//! contains deliberate violations), and `.git/`. Test and example
//! *directories* are scanned but exempt from `W-ENV` — test and demo
//! code may set knobs — and test directories are not callers for
//! `W-DEADPUB`, though they are outside the crate whose `pub fn`s they
//! name.
//!
//! # Report
//!
//! `LINT_REPORT.json` carries the findings, `pinned_by_benchmark`
//! (items only `benchmark/src` reaches) and `counts`: the lines of
//! `crates/*/src` that carry shipped code, its `pub fn`s, `pub(crate)
//! fn`s and `pub` types, and the `W-DEADPUB` exemptions. Two runs of the lint compare the size of two trees.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod report;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{Finding, LintOutcome, SourceFile};

/// Directory names excluded from the scan, at any depth.
pub const EXCLUDED_DIRS: [&str; 4] = ["vendor", "target", "fixtures", ".git"];

/// Collect every scannable `.rs` file under `root`, as
/// workspace-relative forward-slash paths, sorted for determinism.
pub(crate) fn collect_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    walk(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for rel in paths {
        let src = fs::read_to_string(root.join(&rel))?;
        files.push(SourceFile { path: rel, src });
    }
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if EXCLUDED_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .expect("walked path is under root")
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Run the full lint over the workspace at `root`: collect sources,
/// run every rule.
pub fn lint_root(root: &Path) -> io::Result<LintOutcome> {
    Ok(rules::lint_files(&collect_sources(root)?))
}

/// Walk upward from `start` to the first directory whose `Cargo.toml`
/// declares a `[workspace]` — the default `--root`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lexer::TokenKind;

    #[test]
    fn workspace_root_is_discoverable_from_crate_dir() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root above crates/lint");
        assert!(root.join("Cargo.toml").exists());
        assert!(root.join("crates").is_dir());
    }

    #[test]
    fn collect_excludes_vendor_and_fixtures() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).unwrap();
        let files = collect_sources(&root).unwrap();
        assert!(!files.is_empty());
        for f in &files {
            for excluded in EXCLUDED_DIRS {
                assert!(
                    !f.path.split('/').any(|c| c == excluded),
                    "{} should be excluded",
                    f.path
                );
            }
        }
        assert!(files.iter().any(|f| f.path == "crates/lint/src/lib.rs"));
    }

    /// Clippy, not this lint, holds the clock and cast contracts, so
    /// their configuration is pinned here: removing a line of it must
    /// fail a test.
    #[test]
    fn clippy_configuration_holds_the_clock_and_cast_contracts() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).unwrap();
        let squeeze = |text: &str| -> String { text.split_whitespace().collect() };
        let toml = fs::read_to_string(root.join("clippy.toml")).unwrap();
        let toml: Vec<String> = toml
            .lines()
            .filter(|l| !l.trim_start().starts_with('#'))
            .map(squeeze)
            .collect();
        for method in [
            "Instant::now",
            "Instant::elapsed",
            "SystemTime::now",
            "SystemTime::elapsed",
        ] {
            let entry = format!("{{path=\"std::time::{method}\",reason=\"");
            assert!(
                toml.iter().any(|l| l.starts_with(&entry)),
                "clippy.toml does not ban std::time::{method} with a reason"
            );
        }
        let lib = fs::read_to_string(root.join("crates/catalog/src/lib.rs")).unwrap();
        let code: String = lexer::lex(&lib)
            .tokens
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        for module in ["io", "shard"] {
            let deny = format!(
                "#[deny(clippy::cast_possible_truncation,clippy::cast_possible_wrap,\
                 clippy::cast_sign_loss)]pubmod{module};"
            );
            assert!(
                code.contains(&deny),
                "catalog's `{module}` lost its cast deny"
            );
        }
        // Only the clock module may lift the clock ban.
        for f in collect_sources(&root).unwrap() {
            let toks = lexer::lex(&f.src).tokens;
            let lifts = toks
                .iter()
                .any(|t| t.kind == TokenKind::Ident && t.text == "disallowed_methods");
            assert!(
                !lifts || f.path == "crates/obs/src/clock.rs",
                "{} allows clippy::disallowed_methods",
                f.path
            );
        }
    }

    /// The compiler holds the unsafe contract: `unsafe_code` is denied
    /// workspace-wide and only `galactos_simd::run_at` allows it. This
    /// pins what the compiler cannot see: (a) the `unsafe` keyword
    /// appears only in simd's `lib.rs`, twice, in every scanned file
    /// (`benchmark/`, outside the workspace lints, included), each time
    /// under a `// SAFETY:` comment with no blank line between (clippy's
    /// `undocumented_unsafe_blocks` also takes one a blank line away);
    /// (b) the only attribute that lowers `unsafe_code` below deny is on
    /// `fn run_at`; (c) `[workspace.lints]` keeps the three lines that
    /// make the rest hold.
    #[test]
    fn unsafe_lives_only_in_simd_run_at() {
        const SIMD: &str = "crates/simd/src/lib.rs";
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).unwrap();
        let mut sites = Vec::new();
        for f in collect_sources(&root).unwrap() {
            let lexed = lexer::lex(&f.src);
            let toks = &lexed.tokens;
            // Is token `i` the ident or punct `want`?
            let is = |i: Option<usize>, want: &str| {
                i.and_then(|i| toks.get(i)).is_some_and(|t| {
                    t.text == want && matches!(t.kind, TokenKind::Ident | TokenKind::Punct)
                })
            };
            for (i, t) in toks.iter().enumerate() {
                // (a) `#[unsafe(no_mangle)]`-style attributes are not sites.
                if is(Some(i), "unsafe") && !is(Some(i + 1), "(") {
                    // Walk up the comment lines that end right above.
                    let (mut above, mut said) = (t.line - 1, false);
                    while let Some(c) = lexed.comments.iter().find(|c| c.last_line == above) {
                        said |= c
                            .text
                            .trim_start_matches('/')
                            .trim_start()
                            .starts_with("SAFETY:");
                        above = c.first_line - 1;
                    }
                    sites.push((format!("{}:{}", f.path, t.line), said));
                }
                if !is(Some(i), "unsafe_code") {
                    continue;
                }
                // (b) The level is the ident before the attribute's `(`,
                // which opens right after `#[` (an inner `#![` does not
                // sit on an item).
                let open = (0..i).rev().find(|&k| is(Some(k), "(")).unwrap_or(0);
                let level = open.checked_sub(1).map_or("", |k| toks[k].text.as_str());
                if matches!(level, "deny" | "forbid") {
                    continue;
                }
                let outer = is(open.checked_sub(2), "[") && is(open.checked_sub(3), "#");
                let item =
                    (open..toks.len()).find(|&k| ["fn", "{", ";"].iter().any(|w| is(Some(k), w)));
                let on_run_at = outer && is(item, "fn") && is(item.map(|k| k + 1), "run_at");
                assert!(
                    f.path == SIMD && on_run_at,
                    "{}:{}: `{level}(unsafe_code)` outside `galactos_simd::run_at`",
                    f.path,
                    t.line
                );
            }
        }
        assert!(
            sites.len() == 2 && sites.iter().all(|(s, said)| s.starts_with(SIMD) && *said),
            "`unsafe` outside `galactos_simd::run_at`'s two blocks, or with no \
             `// SAFETY:` comment right above: {sites:?}"
        );
        // (c) Squeezed `key=value` lines of a `[table]` in Cargo.toml.
        let manifest = fs::read_to_string(root.join("Cargo.toml")).unwrap();
        let table = |name: &str| -> Vec<String> {
            let mut lines = manifest.lines().map(str::trim);
            lines.find(|l| *l == format!("[{name}]"));
            lines
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.starts_with('#'))
                .map(|l| l.split_whitespace().collect())
                .collect()
        };
        let rust = table("workspace.lints.rust");
        for lint in ["unsafe_code", "unsafe_op_in_unsafe_fn"] {
            assert!(
                rust.contains(&format!("{lint}=\"deny\"")),
                "[workspace.lints.rust] does not deny {lint}"
            );
        }
        let clippy = table("workspace.lints.clippy");
        assert!(
            ["warn", "deny"]
                .iter()
                .any(|level| clippy.contains(&format!("undocumented_unsafe_blocks=\"{level}\""))),
            "[workspace.lints.clippy] does not check undocumented_unsafe_blocks"
        );
    }

    /// The whole point: the current tree is clean under its own lint.
    #[test]
    fn workspace_is_clean() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).unwrap();
        let outcome = lint_root(&root).unwrap();
        let rendered: Vec<String> = outcome
            .findings
            .iter()
            .map(|f| format!("{} {}:{} {}", f.rule, f.file, f.line, f.message))
            .collect();
        assert!(
            outcome.is_clean(),
            "workspace has lint findings:\n{}",
            rendered.join("\n")
        );
    }
}
