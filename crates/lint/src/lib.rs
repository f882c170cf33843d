//! `galactos-lint` — the workspace invariant checker.
//!
//! The repo's correctness contracts (thread-count bit-stability,
//! zero-cost uninstrumented hot paths, no environment reads in
//! library code, checked header parsing, audited `unsafe`) are enforced
//! here as build-breaking static analysis, not just rustdoc prose and
//! runtime tests. The tool is offline and dependency-free by design:
//! a small hand-rolled lexer (no `syn`, no crates.io) feeds a rule
//! engine; any finding makes the binary exit nonzero, and CI runs it
//! on every push.
//!
//! # Rules
//!
//! | rule | contract |
//! |------|----------|
//! | `W-UNSAFE` | every `unsafe` fn/block/impl carries a `SAFETY` justification **and** matches the committed [`registry::REGISTRY_FILE`] |
//! | `W-CLOCK` | `Instant::now` only in `obs::clock`, tests/examples, or instrument-gated code |
//! | `W-ENV` | no `env::var*` read and no `GALACTOS_*` literal in any non-test, non-example source |
//! | `W-DETERMINISM` | parallel float reductions go through the ordered two-arg `fold`/`reduce` helpers |
//! | `W-CAST` | no bare `as` narrowing in `catalog::io` / `shard.rs` header parsing |
//! | `W-DEADPUB` | a `pub fn` / `pub(crate) fn` under `crates/*/src` is named by shipped code besides its definition, or carries a classed exemption |
//!
//! See [`rules`] for the precise scoping of each rule and the
//! suppression syntax, and [`registry`] for the unsafe-registry
//! format and workflow.
//!
//! # Scan policy
//!
//! All `.rs` files under the workspace root are scanned **except**
//! anything under `vendor/` (third-party stand-ins are not ours to
//! audit), `target/`, `fixtures/` (the lint's own test corpus
//! contains deliberate violations), and `.git/`. Test and example
//! *directories* are scanned but exempt from the runtime-path rules
//! (`W-CLOCK`, `W-ENV`) — test and demo code may read clocks and set
//! knobs — and test directories are not callers for `W-DEADPUB`.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod registry;
pub mod report;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{lint_files, Finding, LintOutcome, SourceFile};

/// Directory names excluded from the scan, at any depth.
pub const EXCLUDED_DIRS: [&str; 4] = ["vendor", "target", "fixtures", ".git"];

/// Collect every scannable `.rs` file under `root`, as
/// workspace-relative forward-slash paths, sorted for determinism.
pub fn collect_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
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
/// read the registry if present, run every rule.
pub fn lint_root(root: &Path) -> io::Result<LintOutcome> {
    let files = collect_sources(root)?;
    let registry_text = match fs::read_to_string(root.join(registry::REGISTRY_FILE)) {
        Ok(text) => Some(text),
        Err(e) if e.kind() == io::ErrorKind::NotFound => None,
        Err(e) => return Err(e),
    };
    Ok(lint_files(&files, registry_text.as_deref()))
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
