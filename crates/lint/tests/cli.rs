//! End-to-end CLI behavior: exit codes, report emission, and the
//! `--print-unsafe` registry workflow, pinned through the real binary
//! (`CARGO_BIN_EXE_galactos-lint`).

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_galactos-lint"))
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn temp_report(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("galactos-lint-{tag}-{}.json", std::process::id()))
}

#[test]
fn violations_exit_nonzero_with_report() {
    let report = temp_report("violations");
    let out = bin()
        .arg("--root")
        .arg(fixture("violations"))
        .arg("--report")
        .arg(&report)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "findings must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Human diagnostics carry file:line anchors.
    assert!(
        stdout.contains("crates/grid/src/env.rs:12"),
        "missing anchor in:\n{stdout}"
    );
    let json = std::fs::read_to_string(&report).expect("report written");
    std::fs::remove_file(&report).ok();
    assert!(json.contains("\"status\": \"findings\""));
    for rule in ["W-UNSAFE", "W-ENV", "W-DEADPUB", "W-ALLOW"] {
        assert!(json.contains(rule), "report missing {rule}:\n{json}");
    }
}

#[test]
fn clean_exits_zero_with_clean_report() {
    let report = temp_report("clean");
    let out = bin()
        .arg("--root")
        .arg(fixture("clean"))
        .arg("--report")
        .arg(&report)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "clean tree must exit 0");
    let json = std::fs::read_to_string(&report).expect("report written");
    std::fs::remove_file(&report).ok();
    assert!(json.contains("\"status\": \"clean\""));
    assert!(json.contains("\"finding_count\": 0"));
    // The registered unsafe site still shows up in the inventory.
    assert!(json.contains("\"context\": \"read_cell\""));
}

#[test]
fn print_unsafe_emits_registry_lines() {
    let out = bin()
        .arg("--root")
        .arg(fixture("clean"))
        .arg("--print-unsafe")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.trim(), "crates/math/src/fft.rs | block | read_cell");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = bin().arg("--frobnicate").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn workspace_tree_is_clean_through_the_binary() {
    // The acceptance criterion, end to end: the real workspace lints
    // clean through the shipped binary.
    let root = galactos_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let report = temp_report("workspace");
    let out = bin()
        .arg("--root")
        .arg(&root)
        .arg("--report")
        .arg(&report)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    std::fs::remove_file(&report).ok();
    assert_eq!(out.status.code(), Some(0), "workspace not clean:\n{stdout}");
}
