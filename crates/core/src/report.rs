//! Report emitters: markdown tables, CSV, and ASCII line charts that stand
//! in for the paper's figures.

/// Render a GitHub-flavoured markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push('|');
    for h in headers {
        out.push_str(&format!(" {h} |"));
    }
    out.push('\n');
    out.push('|');
    for _ in headers {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push('|');
        for cell in row {
            out.push_str(&format!(" {cell} |"));
        }
        out.push('\n');
    }
    out
}

/// Render rows as CSV with a header line.
pub fn csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = headers.join(",");
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Render rows as a JSON array of objects keyed by header (hand-rolled;
/// no serde in the workspace). Cells that are plain JSON number literals
/// are emitted unquoted, everything else as an escaped string:
///
/// ```
/// let j = sa_core::report::json(&["pes", "remote"], &[vec!["4".into(), "1.23%".into()]]);
/// assert_eq!(j, "[\n  {\"pes\": 4, \"remote\": \"1.23%\"}\n]\n");
/// ```
pub fn json(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("  {");
        for (j, (h, cell)) in headers.iter().zip(row).enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push('"');
            out.push_str(&json_escape(h));
            out.push_str("\": ");
            if is_json_number(cell) {
                out.push_str(cell);
            } else {
                out.push('"');
                out.push_str(&json_escape(cell));
                out.push('"');
            }
        }
        out.push('}');
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Escape a string for inclusion inside JSON quotes.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Is `s` exactly a JSON number literal (so it can be emitted unquoted)?
fn is_json_number(s: &str) -> bool {
    // JSON grammar: -? int frac? exp?, no leading zeros, no leading '+',
    // no trailing dot. Checking the charset first keeps out parse-able
    // oddities like "inf", "1_000" or whitespace.
    if s.is_empty()
        || s.starts_with('+')
        || !s
            .bytes()
            .all(|b| b.is_ascii_digit() || b"+-.eE".contains(&b))
    {
        return false;
    }
    let rest = s.strip_prefix('-').unwrap_or(s);
    let mantissa = rest.split(['e', 'E']).next().unwrap_or("");
    let int = mantissa.split('.').next().unwrap_or("");
    if int.is_empty() || (int.len() > 1 && int.starts_with('0')) {
        return false;
    }
    if mantissa.contains('.') && mantissa.ends_with('.') {
        return false;
    }
    s.parse::<f64>().is_ok_and(f64::is_finite)
}

/// Format a percentage like the paper's axes (`12.34%`).
pub fn fmt_pct(v: f64) -> String {
    format!("{v:.2}%")
}

/// Render an optional counter for a table cell: the value, or an *empty*
/// cell when the metric was not measured. A blank survives every emitter
/// honestly — CSV keeps the column position, [`json`] emits `""` (never a
/// number), and markdown shows an empty cell — whereas a literal `0` would
/// silently conflate "none happened" with "not measured" (cycles from a
/// backend without a clock) in mixed-oracle pivots.
pub fn fmt_opt_u64(v: Option<u64>) -> String {
    v.map(|x| x.to_string()).unwrap_or_default()
}

/// One plotted series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (e.g. `"Cache, ps 32"`).
    pub label: String,
    /// `(x, y)` points, x ascending.
    pub points: Vec<(f64, f64)>,
}

/// Render series as a fixed-size ASCII line chart (the stand-in for the
/// paper's figures in terminal output and EXPERIMENTS.md).
pub fn ascii_chart(title: &str, series: &[Series], width: usize, height: usize) -> String {
    let symbols = ['*', 'o', '+', 'x', '#', '@'];
    let mut grid = vec![vec![' '; width]; height];

    let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut ymin, mut ymax) = (0.0f64, f64::NEG_INFINITY);
    for s in series {
        for &(x, y) in &s.points {
            xmin = xmin.min(x);
            xmax = xmax.max(x);
            ymin = ymin.min(y);
            ymax = ymax.max(y);
        }
    }
    if !xmin.is_finite() || xmax <= xmin {
        xmax = xmin + 1.0;
    }
    if ymax <= ymin {
        ymax = ymin + 1.0;
    }

    for (si, s) in series.iter().enumerate() {
        let sym = symbols[si % symbols.len()];
        for &(x, y) in &s.points {
            let cx = ((x - xmin) / (xmax - xmin) * (width - 1) as f64).round() as usize;
            let cy = ((y - ymin) / (ymax - ymin) * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            grid[row][cx.min(width - 1)] = sym;
        }
    }

    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!("  y: {ymin:.2} .. {ymax:.2}\n"));
    for row in &grid {
        out.push_str("  |");
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str("  +");
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!("   x: {xmin:.0} .. {xmax:.0}\n"));
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!("   {} {}\n", symbols[si % symbols.len()], s.label));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_shape() {
        let t = markdown_table(
            &["PEs", "remote %"],
            &[
                vec!["4".into(), "1.23%".into()],
                vec!["8".into(), "1.10%".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("PEs"));
        assert!(lines[1].contains("---"));
        assert!(lines[2].contains("1.23%"));
    }

    #[test]
    fn csv_shape() {
        let c = csv(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(c, "a,b\n1,2\n");
    }

    #[test]
    fn json_shape_and_typing() {
        let j = json(
            &["pes", "remote", "note"],
            &[
                vec!["4".into(), "1.23".into(), "ok".into()],
                vec!["8".into(), "0.5".into(), "q\"uote".into()],
            ],
        );
        assert_eq!(
            j,
            "[\n  {\"pes\": 4, \"remote\": 1.23, \"note\": \"ok\"},\n  \
             {\"pes\": 8, \"remote\": 0.5, \"note\": \"q\\\"uote\"}\n]\n"
        );
        assert_eq!(json(&["a"], &[]), "[\n]\n");
    }

    #[test]
    fn json_number_detection() {
        for ok in ["0", "-1", "42", "1.5", "-0.25", "1e5", "2E-3", "1e+5"] {
            assert!(is_json_number(ok), "{ok} should be a JSON number");
        }
        for bad in [
            "", "01", "+5", "1.", ".5", "1_000", " 1", "inf", "NaN", "1.2%", "0x10", "--2", "1e",
            "abc",
        ] {
            assert!(!is_json_number(bad), "{bad} should NOT be a JSON number");
        }
    }

    #[test]
    fn json_escapes_control_chars() {
        let j = json(&["s"], &[vec!["a\n\tb\u{1}".into()]]);
        assert!(j.contains("\"a\\n\\tb\\u0001\""));
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(fmt_pct(21.875), "21.88%");
        assert_eq!(fmt_pct(0.0), "0.00%");
    }

    #[test]
    fn chart_renders_all_series() {
        let s = vec![
            Series {
                label: "cache".into(),
                points: vec![(1.0, 0.0), (32.0, 5.0)],
            },
            Series {
                label: "no cache".into(),
                points: vec![(1.0, 0.0), (32.0, 20.0)],
            },
        ];
        let chart = ascii_chart("Fig 1", &s, 40, 10);
        assert!(chart.contains("Fig 1"));
        assert!(chart.contains('*'));
        assert!(chart.contains('o'));
        assert!(chart.contains("cache"));
        // Height = 10 grid rows plus decorations.
        assert!(chart.lines().count() >= 13);
    }

    #[test]
    fn chart_handles_degenerate_ranges() {
        let s = vec![Series {
            label: "flat".into(),
            points: vec![(1.0, 0.0)],
        }];
        let chart = ascii_chart("flat", &s, 10, 4);
        assert!(chart.contains('*'));
        let empty = ascii_chart("none", &[], 10, 4);
        assert!(empty.contains("none"));
    }
}
