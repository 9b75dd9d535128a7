//! ASCII chart rendering for terminal-friendly figures.
//!
//! Every figure in the paper is a CDF or a histogram; the experiment
//! binaries print these as text. This module renders the CDFs as actual
//! curves, so a terminal run of `figure3` or `figure6` shows the same
//! shapes as the paper's plots.

use crate::stats::Ecdf;

/// Render one or more CDFs as an ASCII chart.
///
/// Each series is drawn with its own glyph; the y-axis is fixed to [0, 1].
pub fn ascii_cdf(series: &[(&str, &Ecdf)], width: usize, height: usize) -> String {
    let width = width.max(16);
    let height = height.max(4);
    let series: Vec<_> = series.iter().filter(|(_, e)| !e.is_empty()).collect();
    if series.is_empty() {
        return "(no data)\n".to_string();
    }
    let lo = series
        .iter()
        .filter_map(|(_, e)| e.min())
        .fold(f64::INFINITY, f64::min);
    let hi = series
        .iter()
        .filter_map(|(_, e)| e.max())
        .fold(f64::NEG_INFINITY, f64::max);
    let span = if (hi - lo).abs() < f64::EPSILON {
        1.0
    } else {
        hi - lo
    };

    const GLYPHS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, e)) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for (col, x) in (0..width).map(|c| (c, lo + span * c as f64 / (width - 1) as f64)) {
            let y = e.eval(x);
            let row = ((1.0 - y) * (height - 1) as f64).round() as usize;
            let row = row.min(height - 1);
            grid[row][col] = glyph;
        }
    }

    let mut out = String::new();
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            "1.0 |"
        } else if i == height - 1 {
            "0.0 |"
        } else {
            "    |"
        };
        out.push_str(label);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str("    +");
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!(
        "     {:<12.4}{:>width$.4}\n",
        lo,
        hi,
        width = width - 7
    ));
    for (si, (name, _)) in series.iter().enumerate() {
        out.push_str(&format!("     {} {}\n", GLYPHS[si % GLYPHS.len()], name));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_chart_has_expected_shape() {
        let e = Ecdf::new((0..100).map(|i| i as f64).collect());
        let chart = ascii_cdf(&[("uniform", &e)], 40, 10);
        let lines: Vec<&str> = chart.lines().collect();
        assert!(lines[0].starts_with("1.0 |"));
        assert!(lines[9].starts_with("0.0 |"));
        // A uniform CDF is a diagonal: the top row's glyphs are on the
        // right, the bottom row's on the left.
        let top_first = lines[0].find('*').unwrap();
        let bottom_first = lines[9].find('*').unwrap();
        assert!(top_first > bottom_first);
        assert!(chart.contains("uniform"));
    }

    #[test]
    fn multiple_series_use_distinct_glyphs() {
        let a = Ecdf::new(vec![1.0, 2.0, 3.0]);
        let b = Ecdf::new(vec![10.0, 20.0, 30.0]);
        let chart = ascii_cdf(&[("a", &a), ("b", &b)], 30, 8);
        assert!(chart.contains('*'));
        assert!(chart.contains('o'));
    }

    #[test]
    fn empty_series_handled() {
        let e = Ecdf::new(vec![]);
        assert_eq!(ascii_cdf(&[("empty", &e)], 30, 8), "(no data)\n");
    }

    #[test]
    fn constant_series_handled() {
        let e = Ecdf::new(vec![5.0; 10]);
        let chart = ascii_cdf(&[("const", &e)], 30, 8);
        assert!(chart.contains("const"));
    }
}
