//! Result tables: the textual "figures" the experiment harness emits.

use std::fmt;

/// A rendered experiment result: headline claim plus a data table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Experiment id, e.g. `"E9"`.
    pub id: String,
    /// Short title.
    pub title: String,
    /// The paper claim this table checks.
    pub claim: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (stringified by the experiment).
    pub rows: Vec<Vec<String>>,
    /// One-line verdict filled by the experiment, e.g.
    /// `"holds on all 12 instances"`.
    pub verdict: String,
    /// Indices of the columns that hold wall-clock measurements (see
    /// [`Table::mark_wall_clock`]).
    pub wall_clock: Vec<usize>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        claim: impl Into<String>,
        headers: &[&str],
    ) -> Self {
        Table {
            id: id.into(),
            title: title.into(),
            claim: claim.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            verdict: String::new(),
            wall_clock: Vec::new(),
        }
    }

    /// Marks the column headed `header` as a wall-clock measurement: the
    /// one kind of cell that differs between two runs of the same code.
    /// [`Table::without_wall_clock`] drops it.
    ///
    /// # Panics
    ///
    /// Panics if no column is headed `header`.
    pub fn mark_wall_clock(&mut self, header: &str) {
        let col = self
            .headers
            .iter()
            .position(|h| h == header)
            .unwrap_or_else(|| panic!("table {} has no column {header:?}", self.id));
        self.wall_clock.push(col);
    }

    /// The table without its wall-clock columns: a pure function of the
    /// code and its seeds, which the registry golden pins.
    pub fn without_wall_clock(&self) -> Table {
        let keep = |cells: &[String]| -> Vec<String> {
            cells
                .iter()
                .enumerate()
                .filter(|(i, _)| !self.wall_clock.contains(i))
                .map(|(_, c)| c.clone())
                .collect()
        };
        Table {
            headers: keep(&self.headers),
            rows: self.rows.iter().map(|r| keep(r)).collect(),
            wall_clock: Vec::new(),
            ..self.clone()
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the headers.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width mismatch in table {}",
            self.id
        );
        self.rows.push(row);
    }

    /// Sets the verdict line.
    pub fn set_verdict(&mut self, verdict: impl Into<String>) {
        self.verdict = verdict.into();
    }

    /// Renders as a JSON document (id, title, claim, headers, rows,
    /// verdict) — the machine-readable artifact CI uploads alongside
    /// `BENCH_engine.json`.
    pub fn to_json_string(&self) -> String {
        use decay_scenario::json::{obj, s, JsonValue};
        let row_array =
            |cells: &[String]| JsonValue::Array(cells.iter().map(|c| s(c)).collect::<Vec<_>>());
        obj(vec![
            ("id", s(&self.id)),
            ("title", s(&self.title)),
            ("claim", s(&self.claim)),
            ("headers", row_array(&self.headers)),
            (
                "rows",
                JsonValue::Array(self.rows.iter().map(|r| row_array(r)).collect()),
            ),
            ("verdict", s(&self.verdict)),
        ])
        .pretty()
    }

    /// Renders as CSV (headers + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} — {} ===", self.id, self.title)?;
        writeln!(f, "claim: {}", self.claim)?;
        // Column widths.
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut parts = Vec::with_capacity(cells.len());
            for (i, c) in cells.iter().enumerate() {
                parts.push(format!("{:>width$}", c, width = widths[i]));
            }
            writeln!(f, "  {}", parts.join("  "))
        };
        line(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        writeln!(f, "  {}", "-".repeat(total))?;
        for row in &self.rows {
            line(f, row)?;
        }
        if !self.verdict.is_empty() {
            writeln!(f, "verdict: {}", self.verdict)?;
        }
        Ok(())
    }
}

/// Formats a float to a compact fixed precision for table cells.
pub fn fmt_f(x: f64) -> String {
    if x.is_infinite() {
        return if x > 0.0 { "inf".into() } else { "-inf".into() };
    }
    if x == 0.0 {
        return "0".into();
    }
    let a = x.abs();
    if a >= 1000.0 {
        format!("{x:.0}")
    } else if a >= 10.0 {
        format!("{x:.1}")
    } else if a >= 0.01 {
        format!("{x:.3}")
    } else {
        format!("{x:.2e}")
    }
}

/// Formats a boolean as a check mark cell.
pub fn fmt_ok(ok: bool) -> String {
    if ok {
        "yes".into()
    } else {
        "NO".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_includes_everything() {
        let mut t = Table::new("E0", "demo", "x holds", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.set_verdict("holds");
        let s = t.to_string();
        assert!(s.contains("E0"));
        assert!(s.contains("demo"));
        assert!(s.contains("x holds"));
        assert!(s.contains("verdict: holds"));
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n1,2\n");
    }

    #[test]
    fn wall_clock_columns_are_dropped() {
        let mut t = Table::new("E0", "demo", "c", &["a", "rate", "b"]);
        t.push_row(vec!["1".into(), "123456".into(), "2".into()]);
        t.mark_wall_clock("rate");
        let stable = t.without_wall_clock();
        assert_eq!(stable.to_csv(), "a,b\n1,2\n");
        assert!(stable.wall_clock.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new("E0", "demo", "c", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(1234.0), "1234");
        assert_eq!(fmt_f(12.34), "12.3");
        assert_eq!(fmt_f(1.2345), "1.234");
        assert_eq!(fmt_f(0.0001234), "1.23e-4");
        assert_eq!(fmt_f(f64::INFINITY), "inf");
    }

    #[test]
    fn bool_formatting() {
        assert_eq!(fmt_ok(true), "yes");
        assert_eq!(fmt_ok(false), "NO");
    }
}
