//! Tiny ASCII chart rendering for terminal reports.
//!
//! The report binaries print each figure's data as rows; these helpers
//! add a visual: a braille-free, pure-ASCII line for CDFs and a bar
//! column for PDFs. No plotting dependency — the charts go straight into
//! `report` output and log files.

/// Renders a monotone `(x, y)` series (a CDF) as a fixed-width ASCII
/// strip: one character column per bucket, height resolved into the
/// given number of rows.
pub fn render_cdf(points: &[(f64, f64)], width: usize, height: usize) -> String {
    if points.is_empty() || width == 0 || height == 0 {
        return String::new();
    }
    let (x_lo, x_hi) = (points[0].0, points[points.len() - 1].0);
    let span = (x_hi - x_lo).max(1e-12);
    // Resample y onto the width grid.
    let mut ys = vec![0.0f64; width];
    for (col, y) in ys.iter_mut().enumerate() {
        let x = x_lo + span * col as f64 / (width - 1).max(1) as f64;
        // Linear scan is fine at report sizes.
        let mut value = points[0].1;
        for pair in points.windows(2) {
            if x >= pair[0].0 {
                value = if x >= pair[1].0 {
                    pair[1].1
                } else {
                    let t = (x - pair[0].0) / (pair[1].0 - pair[0].0).max(1e-12);
                    pair[0].1 + t * (pair[1].1 - pair[0].1)
                };
            }
        }
        *y = value.clamp(0.0, 1.0);
    }
    let mut out = String::new();
    for row in (0..height).rev() {
        let lo = row as f64 / height as f64;
        out.push_str("  |");
        for &y in &ys {
            out.push(if y >= lo + 1.0 / height as f64 {
                '#'
            } else if y > lo {
                '.'
            } else {
                ' '
            });
        }
        out.push('\n');
    }
    out.push_str("  +");
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!(
        "   {:<12.4}{:>width$.4}\n",
        x_lo,
        x_hi,
        width = width.saturating_sub(11)
    ));
    out
}

/// Renders a `(bin center, density)` series (a PDF) as vertical bars.
pub fn render_pdf(points: &[(f64, f64)], height: usize) -> String {
    if points.is_empty() || height == 0 {
        return String::new();
    }
    let max_d = points.iter().map(|p| p.1).fold(0.0f64, f64::max).max(1e-12);
    let mut out = String::new();
    for row in (0..height).rev() {
        let threshold = max_d * (row as f64 + 0.5) / height as f64;
        out.push_str("  |");
        for &(_, d) in points {
            out.push(if d >= threshold { '#' } else { ' ' });
        }
        out.push('\n');
    }
    out.push_str("  +");
    out.push_str(&"-".repeat(points.len()));
    out.push('\n');
    out.push_str(&format!(
        "   {:<10.1}{:>width$.1}\n",
        points[0].0,
        points[points.len() - 1].0,
        width = points.len().saturating_sub(9)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_strip_shape() {
        let points: Vec<(f64, f64)> = (0..=10).map(|i| (i as f64, i as f64 / 10.0)).collect();
        let s = render_cdf(&points, 20, 4);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 6); // 4 rows + axis + labels
                                    // Top row has marks only near the right edge.
        assert!(lines[0].trim_end().ends_with('#') || lines[0].contains('#'));
        // Bottom data row is mostly filled.
        let bottom = lines[3];
        assert!(bottom.matches('#').count() > 10);
    }

    #[test]
    fn cdf_monotone_fill() {
        // Column fill height must be non-decreasing for a CDF.
        let points: Vec<(f64, f64)> = (0..=20).map(|i| (i as f64, (i as f64 / 20.0))).collect();
        let s = render_cdf(&points, 30, 6);
        let rows: Vec<&str> = s.lines().take(6).collect();
        let height_of_col = |c: usize| {
            rows.iter()
                .filter(|r| r.as_bytes().get(c + 3).copied() == Some(b'#'))
                .count()
        };
        let mut last = 0;
        for c in 0..30 {
            let h = height_of_col(c);
            assert!(h + 1 >= last, "column {c} dropped: {h} < {last}");
            last = h;
        }
    }

    #[test]
    fn pdf_bars_track_density() {
        let points = vec![(0.0, 0.1), (1.0, 1.0), (2.0, 0.2)];
        let s = render_pdf(&points, 5);
        let lines: Vec<&str> = s.lines().collect();
        // The peak column (index 1 -> char offset 4) is filled to the top.
        assert_eq!(lines[0].as_bytes()[4], b'#');
        // The small columns are not.
        assert_ne!(lines[0].as_bytes()[3], b'#');
    }

    #[test]
    fn degenerate_inputs() {
        assert!(render_cdf(&[], 10, 4).is_empty());
        assert!(render_pdf(&[], 4).is_empty());
        assert!(render_cdf(&[(0.0, 0.5)], 0, 4).is_empty());
    }
}
