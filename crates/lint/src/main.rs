//! CLI for the workspace invariant checker.
//!
//! ```text
//! galactos-lint [--root DIR] [--report PATH] [--quiet]
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use galactos_lint::{find_workspace_root, lint_root, report};

struct Opts {
    root: Option<PathBuf>,
    report: Option<PathBuf>,
    quiet: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        root: None,
        report: None,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let v = args.next().ok_or("--root needs a directory")?;
                opts.root = Some(PathBuf::from(v));
            }
            "--report" => {
                let v = args.next().ok_or("--report needs a path")?;
                opts.report = Some(PathBuf::from(v));
            }
            "--quiet" => opts.quiet = true,
            "--help" | "-h" => {
                return Err(
                    "usage: galactos-lint [--root DIR] [--report PATH] [--quiet]".to_string(),
                )
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let root = match opts.root.clone().or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|cwd| find_workspace_root(&cwd))
    }) {
        Some(r) => r,
        None => {
            eprintln!("galactos-lint: no workspace root found (use --root)");
            return ExitCode::from(2);
        }
    };

    let outcome = match lint_root(&root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("galactos-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    for f in &outcome.findings {
        println!("{} {}:{} — {}", f.rule, f.file, f.line, f.message);
    }

    let report_path = opts.report.unwrap_or_else(|| root.join("LINT_REPORT.json"));
    let json = report::render(&outcome);
    if let Err(e) = std::fs::write(&report_path, json) {
        eprintln!("galactos-lint: cannot write {}: {e}", report_path.display());
        return ExitCode::from(2);
    }

    if !opts.quiet {
        println!(
            "galactos-lint: {} files scanned, {} finding(s)",
            outcome.files_scanned,
            outcome.findings.len()
        );
    }
    if outcome.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
