//! Minimal fixed-width table formatting for experiment output.

use std::fmt;

/// A titled table with a header row and data rows.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table title (experiment id + short description).
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows (already stringified).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed after the table.
    pub notes: Vec<String>,
}

impl Table {
    /// New empty table.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row; panics when the arity differs from the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Append a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render as GitHub-flavored markdown (what the `experiments` binary
    /// prints).
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.header.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.header.iter().map(|_| "---|").collect::<String>()
        ));
        for r in &self.rows {
            out.push_str(&format!("| {} |\n", r.join(" | ")));
        }
        for n in &self.notes {
            out.push_str(&format!("\n{n}\n"));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Column widths.
        let cols = self.header.len();
        let mut w = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            w[i] = h.len();
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        writeln!(f, "== {}", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!("{:>width$}  ", c, width = w[i]));
            }
            writeln!(f, "{}", s.trim_end())
        };
        line(f, &self.header)?;
        writeln!(f, "{}", "-".repeat(w.iter().sum::<usize>() + 2 * cols))?;
        for r in &self.rows {
            line(f, r)?;
        }
        for n in &self.notes {
            writeln!(f, "  {n}")?;
        }
        Ok(())
    }
}

/// Format a float compactly.
pub fn f(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

/// Format a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_fixed_width() {
        let mut t = Table::new("demo", &["a", "bbbb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.note("a note");
        let s = t.to_string();
        assert!(s.contains("demo"));
        assert!(s.contains("bbbb"));
        assert!(s.contains("a note"));
    }

    #[test]
    fn markdown_shape() {
        let mut t = Table::new("demo", &["x", "y"]);
        t.row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.starts_with("### demo"));
        assert!(md.contains("| x | y |"));
        assert!(md.contains("|---|---|"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("demo", &["x", "y"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(12345.6), "12346");
        assert_eq!(f(12.34), "12.3");
        assert_eq!(f(1.2345), "1.234");
        assert_eq!(pct(0.1234), "12.3%");
    }
}
