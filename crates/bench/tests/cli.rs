//! The `reproduce` command line: bad arguments exit 2 with the usage
//! line, and an unwritable CSV or shard directory exits 1 with an error
//! naming it.

use std::process::{Command, Output};

const SUBCOMMANDS: [&str; 8] = [
    "fig01", "fig03", "fig06", "fig07", "sec23", "sec32", "sec61", "table1",
];

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("spawn reproduce")
}

#[test]
fn unknown_subcommand_exits_2_with_every_subcommand_in_the_usage() {
    let out = reproduce(&["fig02"]);
    assert_eq!(out.status.code(), Some(2));
    let usage = String::from_utf8_lossy(&out.stderr);
    for sub in SUBCOMMANDS {
        assert!(usage.contains(sub), "usage lacks {sub}: {usage}");
    }
}

#[test]
fn unparseable_size_exits_2() {
    assert_eq!(reproduce(&["fig03", "4k"]).status.code(), Some(2));
}

#[test]
fn size_for_a_subcommand_without_one_exits_2() {
    assert_eq!(reproduce(&["table1", "4000"]).status.code(), Some(2));
}

#[test]
fn sec23_prints_every_stage_and_the_cost_bound() {
    let out = reproduce(&["sec23", "500"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for stage in ["search", "bin", "kernel", "assembly"] {
        assert!(
            stdout.lines().any(|l| l.trim_start().starts_with(stage)),
            "no {stage} row: {stdout}"
        );
    }
    assert!(
        stdout.contains(
            "anisotropic / isotropic cost ≤ (search + bin + kernel + assembly) / (search + bin + kernel) = "
        ),
        "no bound line: {stdout}"
    );
}

#[test]
fn unwritable_csv_exits_1_naming_the_file() {
    let missing = std::env::temp_dir().join("galactos-cli-test-missing-dir");
    assert!(!missing.exists());
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["fig03", "500"])
        .env("TMPDIR", &missing)
        .output()
        .expect("spawn reproduce");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let csv = missing.join("galactos_fig03.csv");
    assert!(stderr.contains(&*csv.to_string_lossy()), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn missing_shard_directory_exits_1_naming_it() {
    let missing = std::env::temp_dir().join("galactos-cli-test-missing-shard-dir");
    assert!(!missing.exists());
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("sec61")
        .env("TMPDIR", &missing)
        .output()
        .expect("spawn reproduce");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&*missing.to_string_lossy()), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!missing.exists(), "the missing directory was created");
}
