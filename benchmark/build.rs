//! Records the version of the compiler that builds the benchmark, for
//! the run manifest.

use std::process::Command;

fn main() {
    // lint:allow(W-ENV): RUSTC is the compiler Cargo hands a build script, not an engine knob
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=BENCHMARK_RUSTC_VERSION={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
