//! Result tables: pretty stdout rendering plus optional CSV export.
//!
//! Every figure panel builds [`Table`]s; a run with a CSV directory
//! ([`crate::RunOpts::csv`], `--csv <dir>` on the command line) also
//! writes each table as a CSV file named after its id, ready for plotting.

use std::io::Write;
use std::path::{Path, PathBuf};

/// One figure panel's data: a label column plus numeric series.
#[derive(Debug, Clone)]
pub struct Table {
    /// Identifier used for the CSV file name (e.g. `fig6a`).
    pub id: String,
    /// Human title printed above the table.
    pub title: String,
    /// Name of the label column (e.g. `cardinality`).
    pub x_name: String,
    /// Series names.
    pub series: Vec<String>,
    /// Rows: (label, one value per series).
    pub rows: Vec<(String, Vec<f64>)>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_name: impl Into<String>,
        series: Vec<String>,
    ) -> Self {
        Table {
            id: id.into(),
            title: title.into(),
            x_name: x_name.into(),
            series,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics when the value count does not match the series count.
    pub fn push(&mut self, x: impl std::fmt::Display, values: Vec<f64>) {
        assert_eq!(values.len(), self.series.len(), "row width mismatch");
        self.rows.push((x.to_string(), values));
    }

    /// Renders the table to stdout in the harness's aligned format.
    pub fn print(&self) {
        println!("\n{}\n", self.title);
        print!("{:>12}", self.x_name);
        for s in &self.series {
            print!(" {s:>14}");
        }
        println!();
        for (x, vals) in &self.rows {
            print!("{x:>12}");
            for v in vals {
                print!(" {v:>14.4}");
            }
            println!();
        }
    }

    /// Serializes as CSV (header row then data rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&csv_escape(&self.x_name));
        for s in &self.series {
            out.push(',');
            out.push_str(&csv_escape(s));
        }
        out.push('\n');
        for (x, vals) in &self.rows {
            out.push_str(&csv_escape(x));
            for v in vals {
                out.push_str(&format!(",{v}"));
            }
            out.push('\n');
        }
        out
    }

    /// Writes `<dir>/<id>.csv`.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.id));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.to_csv().as_bytes())?;
        Ok(path)
    }

    /// Prints the table and, when `csv_dir` is set, writes the CSV too.
    /// A failed write is returned, naming the table, so the run fails.
    pub fn emit(&self, csv_dir: Option<&Path>) -> std::io::Result<()> {
        self.print();
        if let Some(dir) = csv_dir {
            let path = self.write_csv(dir).map_err(|e| {
                std::io::Error::new(
                    e.kind(),
                    format!("failed to write {}.csv in {}: {e}", self.id, dir.display()),
                )
            })?;
            println!("[csv] {}", path.display());
        }
        Ok(())
    }
}

/// RFC-4180-ish escaping: quote fields containing separators or quotes.
fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("t1", "Title", "x", vec!["a".into(), "b".into()]);
        t.push(10, vec![1.5, 2.5]);
        t.push("k,2", vec![3.0, 4.0]);
        t
    }

    #[test]
    fn csv_round_shape() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,a,b");
        assert_eq!(lines[1], "10,1.5,2.5");
        assert_eq!(lines[2], "\"k,2\",3,4");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = sample();
        t.push(1, vec![1.0]);
    }

    #[test]
    fn write_csv_creates_file() {
        let dir = std::env::temp_dir().join("msq_table_test");
        let p = sample().write_csv(&dir).expect("writable temp dir");
        let content = std::fs::read_to_string(&p).unwrap();
        assert!(content.starts_with("x,a,b"));
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn emit_returns_a_failed_csv_write() {
        // A directory cannot be created under a regular file, even by root.
        let file = std::env::temp_dir().join("msq_table_emit_not_a_dir");
        std::fs::write(&file, "").expect("writable temp dir");
        let err = sample().emit(Some(&file.join("csv"))).expect_err("write must fail");
        assert!(err.to_string().contains("failed to write t1.csv"), "{err}");
        std::fs::remove_file(file).ok();
    }

    #[test]
    fn escaping_rules() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("q\"q"), "\"q\"\"q\"");
    }
}
