//! Console table formatting for the `reproduce` subcommands.

/// Print an aligned table: headers then rows, all right-justified to
/// the widest cell per column.
pub(crate) fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (w, cell) in widths.iter().zip(cells) {
            out.push_str(&format!("{cell:>w$}  ", w = w));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Format seconds with adaptive precision.
pub(crate) fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

/// Format a large count with SI-style suffix.
pub(crate) fn fmt_count(n: u64) -> String {
    let x = n as f64;
    if x >= 1e12 {
        format!("{:.2}T", x / 1e12)
    } else if x >= 1e9 {
        format!("{:.2}G", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.2}M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.1}k", x / 1e3)
    } else {
        format!("{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(123.4), "123");
        assert_eq!(fmt_secs(1.234), "1.23");
        assert_eq!(fmt_secs(0.01234), "12.34ms");
        assert_eq!(fmt_secs(1.5e-5), "15.0us");
        assert_eq!(fmt_count(1_500), "1.5k");
        assert_eq!(fmt_count(2_500_000), "2.50M");
        assert_eq!(fmt_count(3_100_000_000), "3.10G");
        assert_eq!(fmt_count(42), "42");
    }

    #[test]
    fn table_prints_without_panic() {
        print_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
