//! The fixture corpus: a must-not-fire tree (`fixtures/clean`) where
//! every rule has a legitimate near-miss, and a must-fire tree
//! (`fixtures/violations`) seeding each rule's violations.
//! Both trees are excluded from the workspace scan (`fixtures/` is an
//! excluded directory) and only ever linted by pointing the engine at
//! them directly.

use std::path::{Path, PathBuf};

use galactos_lint::rules::{Counts, Pinned};
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
    // What only `benchmark/src` reaches is pinned, not reported.
    let pinned = |item: &str| Pinned {
        file: "crates/math/src/grid.rs".to_string(),
        item: item.to_string(),
    };
    assert_eq!(
        out.pinned_by_benchmark,
        [pinned("read_binary"), pinned("Engine::traversal_kind")]
    );
    let counts = Counts {
        non_test_lines: 37,
        pub_fn: 9,
        pub_crate_fn: 2,
        pub_types: 2,
        deadpub_exemptions: 1,
    };
    assert_eq!(out.counts, counts);
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
        ("W-DEADPUB", "crates/catalog/src/io.rs", 4), // a benchmark test only
        ("W-DEADPUB", "crates/catalog/src/io.rs", 10), // its own crate only
        ("W-DEADPUB", "crates/core/src/dead.rs", 6),  // its own unit test only
        ("W-ALLOW", "crates/core/src/dead.rs", 10),   // exemption without a class
        ("W-DEADPUB", "crates/core/src/dead.rs", 11), // ... which stays inert
        ("W-ENV", "crates/grid/src/env.rs", 7),       // env::var read
        ("W-ENV", "crates/grid/src/env.rs", 7),       // GALACTOS_ literal
        ("W-ALLOW", "crates/grid/src/env.rs", 11),    // bare suppression
        ("W-ENV", "crates/grid/src/env.rs", 12),      // ... which stays inert
        ("W-DEADPUB", "crates/math/src/shape.rs", 8), // impl and `use` only
        ("W-DEADPUB", "crates/math/src/shape.rs", 21), // a local `volume`
        ("W-DEADPUB", "crates/math/src/shape.rs", 33), // a free fn `to_array`
        ("W-DEADPUB", "crates/math/src/shape.rs", 38), // `pub const fn`, `pub use` only
        ("W-DEADPUB", "crates/obs/src/summary.rs", 4), // a facade `pub use`
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
