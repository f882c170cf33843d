//! The fixture corpus: a must-not-fire tree (`fixtures/clean`) where
//! every rule has a legitimate near-miss, and a must-fire tree
//! (`fixtures/violations`) seeding each rule's violations.
//! Both trees are excluded from the workspace scan (`fixtures/` is an
//! excluded directory) and only ever linted by pointing the engine at
//! them directly.

use std::path::{Path, PathBuf};

use galactos_lint::{lint_root, LintOutcome};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn run(name: &str) -> LintOutcome {
    lint_root(&fixture(name)).expect("fixture tree is readable")
}

#[test]
fn clean_tree_is_clean() {
    let out = run("clean");
    let rendered: Vec<String> = out
        .findings
        .iter()
        .map(|f| format!("{} {}:{} {}", f.rule, f.file, f.line, f.message))
        .collect();
    assert!(
        out.is_clean(),
        "clean fixture tree produced findings:\n{}",
        rendered.join("\n")
    );
    // The documented, registered unsafe block was still *seen*.
    assert_eq!(out.unsafe_sites.len(), 1);
    assert_eq!(out.unsafe_sites[0].entry.context, "read_cell");
}

#[test]
fn violations_tree_fires_every_rule() {
    let out = run("violations");
    let got: Vec<(String, String, usize)> = out
        .findings
        .iter()
        .map(|f| (f.rule.clone(), f.file.clone(), f.line))
        .collect();
    let want: Vec<(String, String, usize)> = [
        ("W-UNSAFE", "UNSAFE_REGISTRY.txt", 3),     // stale entry
        ("W-CLOCK", "crates/bench/src/main.rs", 9), // bench is not allowlisted
        ("W-CAST", "crates/catalog/src/io.rs", 4),
        ("W-ALLOW", "crates/core/src/clock.rs", 7), // bare suppression
        ("W-CLOCK", "crates/core/src/clock.rs", 8), // ... which stays inert
        ("W-DEADPUB", "crates/core/src/dead.rs", 6), // named by its test only
        ("W-ALLOW", "crates/core/src/dead.rs", 10), // exemption without a class
        ("W-DEADPUB", "crates/core/src/dead.rs", 11), // ... which stays inert
        ("W-DETERMINISM", "crates/core/src/reduce.rs", 5),
        ("W-ENV", "crates/grid/src/env.rs", 5), // env::var read
        ("W-ENV", "crates/grid/src/env.rs", 5), // GALACTOS_ literal
        ("W-UNSAFE", "crates/math/src/mem.rs", 5), // missing SAFETY
        ("W-UNSAFE", "crates/math/src/mem.rs", 5), // unregistered
        ("W-CLOCK", "crates/obs/src/span.rs", 7), // outside obs::clock
    ]
    .into_iter()
    .map(|(r, f, l)| (r.to_string(), f.to_string(), l))
    .collect();
    assert_eq!(got, want, "full findings: {:#?}", out.findings);
}

#[test]
fn every_rule_id_appears_in_violations() {
    let out = run("violations");
    for rule in galactos_lint::rules::RULES {
        assert!(
            out.findings.iter().any(|f| f.rule == rule),
            "rule {rule} has no must-fire fixture"
        );
    }
    assert!(out
        .findings
        .iter()
        .any(|f| f.rule == galactos_lint::rules::RULE_ALLOW));
}
