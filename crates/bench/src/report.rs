//! Result tables: aligned console output plus CSV files under `results/`.

use std::fmt::Write as _;
use std::io::Write as _;

/// A simple column-oriented result table.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render to an aligned text block.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(s, "{c:>w$}  ", w = w);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Print to stdout and persist as `results/<name>.csv`; a table without
    /// rows is skipped.
    pub fn emit(&self, name: &str) {
        if self.rows.is_empty() {
            return;
        }
        println!("{}", self.render());
        if let Err(e) = write_csv(name, &self.headers, &self.rows) {
            eprintln!("warning: failed to write results/{name}.csv: {e}");
        }
    }
}

/// Write a CSV file under `results/`.
pub fn write_csv(name: &str, headers: &[String], rows: &[Vec<String>]) -> std::io::Result<()> {
    std::fs::create_dir_all("results")?;
    let mut f = std::fs::File::create(format!("results/{name}.csv"))?;
    writeln!(f, "{}", headers.join(","))?;
    for row in rows {
        writeln!(f, "{}", row.join(","))?;
    }
    Ok(())
}

/// Format seconds as milliseconds with four decimals (the figures' time
/// cells).
pub fn ms(seconds: f64) -> String {
    format!("{:.4}", seconds * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["a", "long_header"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("long_header"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
