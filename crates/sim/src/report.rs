//! Plain-text table rendering for the `repro` binary.

/// Renders a fixed-width table: headers, a separator, then rows.
///
/// ```
/// let t = gred_sim::report::render_table(
///     &["system", "stretch"],
///     &[vec!["GRED".into(), "1.12".into()]],
/// );
/// assert!(t.contains("GRED"));
/// assert!(t.lines().count() == 3);
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, &w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
            .trim_end()
            .to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(
        &widths
            .iter()
            .map(|&w| "-".repeat(w))
            .collect::<Vec<_>>()
            .join("  "),
    );
    for row in rows {
        out.push('\n');
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Formats a float with 3 decimals (the precision the tables use).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// A result row that knows its own table cells; implemented beside each
/// experiment's row type, so `repro` formats no row itself.
pub trait Cells {
    /// This row's cells, one per column, as they are printed.
    fn cells(&self) -> Vec<String>;
}

/// Every row's cells.
pub fn cells<R: Cells>(rows: &[R]) -> Vec<Vec<String>> {
    rows.iter().map(Cells::cells).collect()
}

/// Renders rows as CSV (RFC-4180-style quoting for cells containing
/// commas, quotes, or newlines).
///
/// ```
/// let csv = gred_sim::report::render_csv(
///     &["system", "note"],
///     &[vec!["GRED".into(), "hello, world".into()]],
/// );
/// assert_eq!(csv, "system,note\nGRED,\"hello, world\"\n");
/// ```
pub fn render_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    fn quote(cell: &str) -> String {
        if cell.contains([',', '"', '\n']) {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    }
    let mut out = String::new();
    out.push_str(
        &headers
            .iter()
            .map(|h| quote(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer-name".into(), "2.5".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("----"));
        // The value column starts at the same offset in every row.
        let col = lines[3].find("2.5").unwrap();
        assert_eq!(lines[2].chars().nth(col), Some('1'));
    }

    #[test]
    fn empty_rows_table() {
        let t = render_table(&["a"], &[]);
        assert_eq!(t.lines().count(), 2);
    }

    #[test]
    fn f3_precision() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f3(2.0), "2.000");
    }
}

#[cfg(test)]
mod csv_tests {
    use super::*;

    #[test]
    fn plain_cells_unquoted() {
        let csv = render_csv(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(csv, "a,b\n1,2\n");
    }

    #[test]
    fn quotes_are_doubled() {
        let csv = render_csv(&["x"], &[vec!["he said \"hi\"".into()]]);
        assert_eq!(csv, "x\n\"he said \"\"hi\"\"\"\n");
    }

    #[test]
    fn empty_table() {
        assert_eq!(render_csv(&["only"], &[]), "only\n");
    }
}
