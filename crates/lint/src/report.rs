//! Machine-readable output: `LINT_REPORT.json`.
//!
//! Hand-rolled — insertion-ordered keys, stable formatting, no
//! dependencies — so the committed report diffs cleanly and CI can
//! archive it.

use crate::rules::LintOutcome;

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A JSON array of pre-rendered objects, one per line.
fn array(rows: impl Iterator<Item = String>) -> String {
    let rows: Vec<String> = rows.collect();
    if rows.is_empty() {
        return "[]".to_string();
    }
    format!("[\n    {}\n  ]", rows.join(",\n    "))
}

/// Render the full report. Findings arrive already sorted by
/// `(file, line, rule)`; pinned items and unsafe sites in discovery
/// order.
pub fn render(outcome: &LintOutcome) -> String {
    let findings = outcome.findings.iter().map(|f| {
        format!(
            "{{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            escape(&f.rule),
            escape(&f.file),
            f.line,
            escape(&f.message)
        )
    });
    let pinned = outcome.pinned_by_benchmark.iter().map(|p| {
        format!(
            "{{\"file\": \"{}\", \"item\": \"{}\"}}",
            escape(&p.file),
            escape(&p.item)
        )
    });
    let unsafe_sites = outcome.unsafe_sites.iter().map(|site| {
        let e = &site.entry;
        format!(
            "{{\"file\": \"{}\", \"kind\": \"{}\", \"context\": \"{}\"}}",
            escape(&e.file),
            escape(&e.kind),
            escape(&e.context)
        )
    });
    let c = &outcome.counts;
    format!(
        "{{\n  \"tool\": \"galactos-lint\",\n  \"version\": \"{}\",\n  \"files_scanned\": {},\n  \
         \"status\": \"{}\",\n  \"finding_count\": {},\n  \"counts\": {{\"non_test_lines\": {}, \
         \"pub_fn\": {}, \"pub_crate_fn\": {}, \"pub_types\": {}, \"deadpub_exemptions\": {}}},\n  \
         \"findings\": {},\n  \"pinned_by_benchmark\": {},\n  \"unsafe_sites\": {}\n}}\n",
        escape(env!("CARGO_PKG_VERSION")),
        outcome.files_scanned,
        if outcome.is_clean() {
            "clean"
        } else {
            "findings"
        },
        outcome.findings.len(),
        c.non_test_lines,
        c.pub_fn,
        c.pub_crate_fn,
        c.pub_types,
        c.deadpub_exemptions,
        array(findings),
        array(pinned),
        array(unsafe_sites),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Entry;
    use crate::rules::{Counts, Finding, Pinned, UnsafeSite};

    #[test]
    fn clean_report_shape() {
        let out = LintOutcome {
            files_scanned: 7,
            ..Default::default()
        };
        let json = render(&out);
        assert!(json.contains("\"status\": \"clean\""));
        assert!(json.contains("\"finding_count\": 0"));
        assert!(json.contains("\"files_scanned\": 7"));
        assert!(json.contains("\"findings\": []"));
    }

    #[test]
    fn findings_and_escaping() {
        let out = LintOutcome {
            files_scanned: 1,
            findings: vec![Finding {
                rule: "W-ENV".to_string(),
                file: "crates/grid/src/mesh.rs".to_string(),
                line: 12,
                message: "`env::var` read with \"quotes\"\nand newline".to_string(),
            }],
            unsafe_sites: vec![UnsafeSite {
                line: 3,
                entry: Entry {
                    file: "crates/math/src/fft.rs".to_string(),
                    kind: "block".to_string(),
                    context: "fft_cols_raw".to_string(),
                },
            }],
            pinned_by_benchmark: vec![Pinned {
                file: "crates/catalog/src/io.rs".to_string(),
                item: "write_binary".to_string(),
            }],
            counts: Counts {
                non_test_lines: 90,
                pub_fn: 4,
                ..Default::default()
            },
        };
        let json = render(&out);
        assert!(json.contains("\"status\": \"findings\""));
        assert!(
            json.contains("{\"file\": \"crates/catalog/src/io.rs\", \"item\": \"write_binary\"}")
        );
        assert!(json
            .contains("\"counts\": {\"non_test_lines\": 90, \"pub_fn\": 4, \"pub_crate_fn\": 0,"));
        assert!(json.contains("\\\"quotes\\\"\\nand newline"));
        assert!(json.contains("\"context\": \"fft_cols_raw\""));
        // No raw control characters inside strings.
        for line in json.lines() {
            assert!(!line.contains('\t'));
        }
    }
}
