//! Terminal rendering of multipole tables.

/// Render an ASCII heat map of one `(ℓ, ℓ', m)` coefficient over the
/// `(r₁, r₂)` plane — a terminal rendition of the paper's Figure 1
/// right panel. Positive cells print `+▒▓█`-style intensity, negative
/// cells `-`, near-zero `·`.
pub fn ascii_heatmap(values: &[Vec<f64>]) -> String {
    let vmax = values
        .iter()
        .flatten()
        .map(|v| v.abs())
        .fold(0.0f64, f64::max)
        .max(1e-300);
    let mut out = String::new();
    for row in values.iter().rev() {
        for &v in row {
            let t = v / vmax;
            let ch = if t > 0.75 {
                '█'
            } else if t > 0.5 {
                '▓'
            } else if t > 0.25 {
                '▒'
            } else if t > 0.05 {
                '+'
            } else if t < -0.05 {
                '-'
            } else {
                '·'
            };
            out.push(ch);
            out.push(' ');
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn heatmap_renders_signs() {
        let grid = vec![vec![1.0, -1.0], vec![0.0, 0.6]];
        let art = ascii_heatmap(&grid);
        assert!(art.contains('█'));
        assert!(art.contains('-'));
        assert!(art.contains('·'));
        assert_eq!(art.lines().count(), 2);
    }
}
