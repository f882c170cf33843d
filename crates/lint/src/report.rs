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

/// Render the full report. Findings arrive already sorted by
/// `(file, line, rule)`; unsafe sites in discovery order.
pub fn render(outcome: &LintOutcome) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"tool\": \"galactos-lint\",\n");
    s.push_str(&format!(
        "  \"version\": \"{}\",\n",
        escape(env!("CARGO_PKG_VERSION"))
    ));
    s.push_str(&format!(
        "  \"files_scanned\": {},\n",
        outcome.files_scanned
    ));
    s.push_str(&format!(
        "  \"status\": \"{}\",\n",
        if outcome.is_clean() {
            "clean"
        } else {
            "findings"
        }
    ));
    s.push_str(&format!(
        "  \"finding_count\": {},\n",
        outcome.findings.len()
    ));
    s.push_str("  \"findings\": [");
    for (i, f) in outcome.findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            escape(&f.rule),
            escape(&f.file),
            f.line,
            escape(&f.message)
        ));
    }
    if !outcome.findings.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n");
    s.push_str("  \"unsafe_sites\": [");
    for (i, site) in outcome.unsafe_sites.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"kind\": \"{}\", \"context\": \"{}\"}}",
            escape(&site.entry.file),
            escape(&site.entry.kind),
            escape(&site.entry.context)
        ));
    }
    if !outcome.unsafe_sites.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Entry;
    use crate::rules::{Finding, UnsafeSite};

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
                rule: "W-CAST".to_string(),
                file: "crates/catalog/src/io.rs".to_string(),
                line: 12,
                message: "bare `as u32` with \"quotes\"\nand newline".to_string(),
            }],
            unsafe_sites: vec![UnsafeSite {
                line: 3,
                entry: Entry {
                    file: "crates/math/src/fft.rs".to_string(),
                    kind: "block".to_string(),
                    context: "fft_cols_raw".to_string(),
                },
            }],
        };
        let json = render(&out);
        assert!(json.contains("\"status\": \"findings\""));
        assert!(json.contains("\\\"quotes\\\"\\nand newline"));
        assert!(json.contains("\"context\": \"fft_cols_raw\""));
        // No raw control characters inside strings.
        for line in json.lines() {
            assert!(!line.contains('\t'));
        }
    }
}
