//! Plain-text rendering of reproduction tables.

use rms_core::cost::RramCost;

/// A simple fixed-width table builder for terminal reports.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String], width: &[usize]| {
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    out.push_str(&format!("{:<w$}", c, w = width[i]));
                } else {
                    out.push_str(&format!("  {:>w$}", c, w = width[i]));
                }
            }
            out.push('\n');
        };
        line(&mut out, &self.header, &width);
        let total: usize = width.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row, &width);
        }
        out
    }
}

/// Formats Table I's costs as `R/S`.
pub fn rs(c: RramCost) -> String {
    format!("{}/{}", c.rrams, c.steps)
}

/// Formats a ratio with two decimals, guarding division by zero.
pub fn ratio(num: u64, den: u64) -> String {
    if den == 0 {
        "-".into()
    } else {
        format!("{:.2}", num as f64 / den as f64)
    }
}

/// Formats a percent change `(a - b) / b`, guarding division by zero.
pub fn percent_change(a: u64, b: u64) -> String {
    if b == 0 {
        "-".into()
    } else {
        format!("{:+.1}%", (a as f64 - b as f64) / b as f64 * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new(&["name", "R", "S"]);
        t.row(vec!["apex1".into(), "123".into(), "7".into()]);
        t.row(vec!["x".into(), "1".into(), "4567".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].contains("apex1"));
        // All lines same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn helpers() {
        assert_eq!(rs(RramCost { rrams: 3, steps: 9 }), "3/9");
        assert_eq!(ratio(10, 4), "2.50");
        assert_eq!(ratio(1, 0), "-");
        assert_eq!(percent_change(110, 100), "+10.0%");
        assert_eq!(percent_change(90, 100), "-10.0%");
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["only one".into()]);
    }
}
