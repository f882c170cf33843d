//! Workspace smoke test: every target in the workspace — the
//! `reproduce` paper-figure binary and the 4 examples — must keep
//! compiling as refactors land. `cargo test` alone only builds lib and
//! test targets, so a green test run can hide broken binaries; this
//! test closes that gap by driving `cargo check` over all of them.

use std::path::Path;
use std::process::Command;

#[test]
fn all_targets_check() {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let output = Command::new(cargo)
        .current_dir(manifest_dir)
        .args(["check", "--workspace", "--examples", "--bins", "--quiet"])
        .output()
        .expect("failed to spawn cargo check");
    assert!(
        output.status.success(),
        "cargo check --workspace --examples --bins failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}
