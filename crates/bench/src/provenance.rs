//! The one writer of every `BENCH_*.json` baseline, and the provenance
//! header it opens with; and the one printer (`print_rows`) and CSV
//! writer (`emit_rows`) of every table `msq` shows, over the same rows.
//!
//! Each baseline opens with the same header block: the bench name, the
//! scale, the **grid revision**, and the volatile run context (worker
//! count, git commit, rustc version), then the bench's own header fields.
//! The grid revision is bumped whenever the deterministic `grid` schema or
//! the swept cell list changes, so [`crate::benchdiff`] can refuse
//! apples-to-oranges comparisons instead of reporting every row as drift.
//!
//! A bench builds each cell's `Row` of ordered `(key, value, tag)`
//! columns straight from its outcome and returns them as one [`Grid`];
//! `baseline_json` splits each row. The `grid`
//! row is the cell's `Label` and `Det` columns, the `timings` row its
//! `Label` and `Vol` columns, each in declared order. `bench_diff`
//! compares the grid exactly and bands the wall-clock timings, so a
//! column's tag is the whole of the deterministic/volatile contract.
//! A table is the same rows in long form: one line per cell, its axes
//! as `Label` columns.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use crate::Scale;

/// Revision of the deterministic grids across all BENCH baselines. Bump
/// when the shared layout changes; an emitter whose own `grid` schema or
/// swept cell list changes keeps its own revision in its [`Grid`]
/// (`corebench` is at 8, `sweep` at 3).
///
/// * rev 1 — the pre-header baselines (implicit; files without a
///   `grid_rev` field).
/// * rev 2 — common provenance header, `grid`/`timings` split in every
///   file, scale-bench grid unified to cardinality 10 000 / dim 3 /
///   300 s at sides 10–100.
pub const GRID_REV: u64 = 2;

/// The run context stamped into a baseline's header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Parameter grid the run used.
    pub scale: Scale,
    /// Worker threads the sweep ran with (volatile).
    pub jobs: usize,
    /// Abbreviated git commit of the working tree, `<sha>-dirty` when
    /// tracked files differ from it, or `"unknown"`.
    pub git_commit: String,
    /// `rustc --version` of the toolchain, or `"unknown"`.
    pub rustc: String,
}

/// First line of `cmd`'s stdout, or `None` when the command is missing or
/// fails.
fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim();
    if line.is_empty() {
        None
    } else {
        Some(line.to_string())
    }
}

impl Provenance {
    /// Collects the header for a run: probes `git` and `rustc`, falling
    /// back to `"unknown"` so baselines can still be written in stripped
    /// environments.
    pub fn collect(scale: Scale, jobs: usize) -> Provenance {
        let git_commit = match first_line("git", &["rev-parse", "--short", "HEAD"]) {
            // `git diff --quiet` exits 1 exactly when tracked files differ.
            Some(sha) => commit_stamp(
                &sha,
                Command::new("git")
                    .args(["diff", "--quiet", "HEAD"])
                    .status()
                    .is_ok_and(|s| s.code() == Some(1)),
            ),
            None => "unknown".to_string(),
        };
        Provenance {
            scale,
            jobs,
            git_commit,
            rustc: first_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// The `git_commit` stamp: the commit, marked `-dirty` when the run's
/// tracked files were not the commit's.
fn commit_stamp(sha: &str, dirty: bool) -> String {
    if dirty {
        format!("{sha}-dirty")
    } else {
        sha.to_string()
    }
}

/// Which of a baseline's two arrays a column lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tag {
    /// A cell coordinate: in both arrays, so a timings row names its cell.
    Label,
    /// A deterministic outcome: `grid` only.
    Det,
    /// Wall clock, or derived from it: `timings` only.
    Vol,
}

/// One column's value. Every non-finite float renders as `null`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value {
    /// An integer.
    Int(u64),
    /// A float at a fixed number of decimals (`{:.N}`).
    Fixed(f64, usize),
    /// A float in its shortest round-trip form (`{}`): grid axes such as
    /// a churn fraction.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A string, escaped on output.
    Str(String),
    /// A list, rendered `[a, b]`.
    List(Vec<Value>),
    /// A nested object, rendered `{"k": v, …}` in declared order.
    Object(Vec<(&'static str, Value)>),
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Int(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Int(n as u64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

/// One `(key, value, tag)` column of a [`Row`].
type Column = (&'static str, Value, Tag);

/// One cell of a baseline, as ordered columns.
pub(crate) type Row = Vec<Column>;

/// A [`Tag::Label`] column.
pub(crate) fn label(key: &'static str, value: impl Into<Value>) -> Column {
    (key, value.into(), Tag::Label)
}

/// A [`Tag::Det`] column.
pub(crate) fn det(key: &'static str, value: impl Into<Value>) -> Column {
    (key, value.into(), Tag::Det)
}

/// A [`Tag::Vol`] column.
pub(crate) fn vol(key: &'static str, value: impl Into<Value>) -> Column {
    (key, value.into(), Tag::Vol)
}

/// The integer column `key` of `row`, for a driver's summary lines.
///
/// # Panics
/// Panics when `row` has no integer column `key`.
pub(crate) fn int(row: &Row, key: &str) -> u64 {
    match row.iter().find(|(k, ..)| *k == key) {
        Some((_, Value::Int(n), _)) => *n,
        _ => panic!("no integer column `{key}`"),
    }
}

/// Minimal JSON string escaping: quote, backslash and control characters.
fn json_string(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out + "\""
}

impl Value {
    fn render(&self) -> String {
        match self {
            Value::Int(n) => n.to_string(),
            Value::Fixed(x, decimals) if x.is_finite() => format!("{x:.decimals$}"),
            Value::Float(x) if x.is_finite() => x.to_string(),
            Value::Fixed(..) | Value::Float(_) => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Str(s) => json_string(s),
            Value::List(items) => {
                format!("[{}]", items.iter().map(Value::render).collect::<Vec<_>>().join(", "))
            }
            Value::Object(fields) => object(fields.iter().map(|(key, value)| (*key, value))),
        }
    }
}

/// Renders `{"k": v, …}` on one line.
fn object<'a>(fields: impl Iterator<Item = (&'a str, &'a Value)>) -> String {
    let fields: Vec<String> = fields
        .map(|(key, value)| format!("{}: {}", json_string(key), value.render()))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// A column's value as a table or CSV cell: strings bare, everything
/// else as its JSON literal.
fn cell(value: &Value) -> String {
    match value {
        Value::Str(s) => s.clone(),
        value => value.render(),
    }
}

/// Prints `rows` as an aligned text table under `title`: a header of
/// column keys, then one line per row, each column as wide as its widest
/// cell.
pub(crate) fn print_rows(title: &str, rows: &[Row]) {
    let Some(first) = rows.first() else { return };
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|row| row.iter().map(|(_, value, _)| cell(value)).collect())
        .collect();
    let widths: Vec<usize> = (0..first.len())
        .map(|i| cells.iter().map(|row| row[i].len()).fold(first[i].0.len(), usize::max))
        .collect();
    let line = |cells: Vec<&str>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(cell, width)| format!("{cell:>width$}"))
            .collect();
        padded.join(" ")
    };
    println!("\n== {title} ==");
    println!("{}", line(first.iter().map(|(key, ..)| *key).collect()));
    for row in &cells {
        println!("{}", line(row.iter().map(String::as_str).collect()));
    }
}

/// RFC 4180 quoting: a field holding a separator, a quote or a newline
/// is quoted, its quotes doubled.
fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Renders `rows` as CSV: a header of column keys, then one line per row,
/// each cell as [`print_rows`] shows it.
///
/// # Panics
/// Panics when a row's keys differ from the first row's.
pub(crate) fn rows_to_csv(rows: &[Row]) -> String {
    let Some(first) = rows.first() else { return String::new() };
    let keys: Vec<&str> = first.iter().map(|(key, ..)| *key).collect();
    let mut out = keys.iter().map(|key| csv_escape(key)).collect::<Vec<_>>().join(",") + "\n";
    for row in rows {
        assert!(row.iter().map(|(key, ..)| *key).eq(keys.iter().copied()), "row width mismatch");
        let cells: Vec<String> = row.iter().map(|(_, value, _)| csv_escape(&cell(value))).collect();
        out += &cells.join(",");
        out.push('\n');
    }
    out
}

/// Prints `rows` under `title` and, when `csv` names a directory, writes
/// them to `<csv>/<id>.csv` too. The `Err` names the file, and `msq`
/// exits 1 on it, so a failed write fails the run.
pub(crate) fn emit_rows(
    id: &str,
    title: &str,
    rows: &[Row],
    csv: Option<&Path>,
) -> Result<(), String> {
    print_rows(title, rows);
    let Some(dir) = csv else { return Ok(()) };
    let path = dir.join(format!("{id}.csv"));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, rows_to_csv(rows)))
        .map_err(|e| format!("failed to write {}: {e}", path.display()))?;
    println!("[csv] {}", path.display());
    Ok(())
}

/// One bench's output, built from its outcomes: the rows `msq` prints as
/// its table, and what `--json` writes as `BENCH_<bench>.json`.
#[derive(Debug)]
pub struct Grid {
    /// The baseline's name.
    pub(crate) bench: &'static str,
    /// Revision of the deterministic grid: [`GRID_REV`], or the bench's
    /// own.
    pub(crate) grid_rev: u64,
    /// The bench's own header fields, after the provenance stamp.
    pub(crate) header: Vec<(&'static str, Value)>,
    /// One row per cell.
    pub(crate) rows: Vec<Row>,
}

impl Grid {
    /// Writes the grid as `BENCH_<bench>.json` to the working directory.
    pub fn write(&self, prov: &Provenance) -> Result<(), String> {
        write_baseline(&format!("BENCH_{}.json", self.bench), &baseline_json(self, prov))
    }
}

/// A row's `Label` columns and those tagged `keep`, in declared order, as
/// one JSON object.
fn row_object(row: &Row, keep: Tag) -> String {
    let columns = row.iter().filter(|(_, _, tag)| *tag == Tag::Label || *tag == keep);
    object(columns.map(|(key, value, _)| (*key, value)))
}

/// Renders a baseline: the provenance header stamped at the grid's
/// revision, the bench's header fields, then one `grid` and one `timings`
/// row per [`Row`] (see the module docs for the split). One field or row
/// per line.
fn baseline_json(grid: &Grid, prov: &Provenance) -> String {
    let stamp = [
        ("bench", Value::from(grid.bench)),
        ("scale", Value::Str(format!("{:?}", prov.scale))),
        ("grid_rev", Value::Int(grid.grid_rev)),
        ("jobs", Value::from(prov.jobs)),
        ("git_commit", Value::from(prov.git_commit.as_str())),
        ("rustc", Value::from(prov.rustc.as_str())),
    ];
    let mut out = String::from("{\n");
    for (key, value) in stamp.iter().chain(&grid.header) {
        let _ = writeln!(out, "  {}: {},", json_string(key), value.render());
    }
    for (section, keep, close) in [("grid", Tag::Det, "  ],\n"), ("timings", Tag::Vol, "  ]\n}\n")]
    {
        let _ = writeln!(out, "  \"{section}\": [");
        for (i, row) in grid.rows.iter().enumerate() {
            let sep = if i + 1 < grid.rows.len() { "," } else { "" };
            let _ = writeln!(out, "    {}{sep}", row_object(row, keep));
        }
        out.push_str(close);
    }
    out
}

/// Writes a rendered baseline to `path`. The `Err` names the path, and
/// `msq` exits 1 on it, so a failed write fails the run.
pub fn write_baseline(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("failed to write {path}: {e}"))?;
    println!("[json] wrote {path}");
    Ok(())
}

#[cfg(test)]
impl Provenance {
    /// The header every writer test stamps.
    pub(crate) fn fixture() -> Provenance {
        Provenance {
            scale: Scale::Quick,
            jobs: 4,
            git_commit: "abc1234".to_string(),
            rustc: "rustc 1.80.0".to_string(),
        }
    }
}

/// A rendered baseline's `grid` and `timings` arrays, as text.
#[cfg(test)]
pub(crate) fn sections(json: &str) -> (&str, &str) {
    let (grid, timings) = (json.find("\"grid\": [").unwrap(), json.find("\"timings\": [").unwrap());
    (&json[grid..timings], &json[timings..])
}

#[cfg(test)]
impl Grid {
    /// The baseline this grid renders to under [`Provenance::fixture`].
    pub(crate) fn fixture_json(&self) -> String {
        baseline_json(self, &Provenance::fixture())
    }
}

/// Each row's object in a baseline's `grid` array, as the writer renders
/// it.
#[cfg(test)]
pub(crate) fn grid_objects(rows: &[Row]) -> Vec<String> {
    rows.iter().map(|row| row_object(row, Tag::Det)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_keeps_volatile_and_deterministic_fields_on_separate_lines() {
        let grid = Grid { bench: "unit", grid_rev: GRID_REV, header: Vec::new(), rows: Vec::new() };
        let json = grid.fixture_json();
        assert!(json.starts_with("{\n  \"bench\": \"unit\",\n  \"scale\": \"Quick\",\n"));
        assert!(json.contains(&format!("\n  \"grid_rev\": {GRID_REV},\n")));
        assert!(json.contains("\n  \"jobs\": 4,\n"));
        assert!(json.contains("\n  \"git_commit\": \"abc1234\",\n"));
        assert!(json.contains("\n  \"rustc\": \"rustc 1.80.0\",\n"));
        for line in json.lines() {
            let volatile =
                line.contains("jobs") || line.contains("git_commit") || line.contains("rustc");
            let deterministic = line.contains("scale") || line.contains("grid_rev");
            assert!(!(volatile && deterministic), "mixed line: {line}");
        }
    }

    /// Every value kind, every tag and both separators through the one
    /// writer: what each bench's own test no longer re-checks.
    #[test]
    fn writer_renders_every_value_and_splits_rows_by_tag() {
        let row = |name: &str, x: f64| {
            vec![
                label("name", name),
                label("axis", Value::Float(x)),
                det("count", 7usize),
                vol("seconds", Value::Fixed(x, 3)),
                det("ok", Value::Bool(true)),
                det("nested", Value::Object(vec![("a", Value::Int(1)), ("b", Value::Float(x))])),
                det("list", Value::List(vec![Value::Int(2), Value::Fixed(x, 1)])),
                det("empty", Value::List(Vec::new())),
                vol("rate", Value::Fixed(-x, 1)),
            ]
        };
        let header =
            vec![("total_seconds", Value::Fixed(2.0, 3)), ("missing", Value::Fixed(f64::NAN, 2))];
        let rows = vec![
            row("a\"b\\c\nd\u{1}", 0.25),
            row("nan", f64::NAN),
            row("inf", f64::INFINITY),
            row("-inf", f64::NEG_INFINITY),
        ];
        let json = Grid { bench: "unit", grid_rev: 9, header, rows }.fixture_json();
        let (grid, timings) = sections(&json);
        assert!(json.starts_with("{\n") && json.ends_with("  ]\n}\n"));
        assert!(json.contains("\n  \"grid_rev\": 9,\n"));
        assert!(json.contains("\n  \"total_seconds\": 2.000,\n  \"missing\": null,\n  \"grid\""));
        // Label and Det columns in declared order; escaped strings; a
        // nested object and lists rendered inline.
        assert!(grid.contains(
            "    {\"name\": \"a\\\"b\\\\c\\nd\\u0001\", \"axis\": 0.25, \"count\": 7, \"ok\": true, \
             \"nested\": {\"a\": 1, \"b\": 0.25}, \"list\": [2, 0.2], \"empty\": []},\n"
        ));
        assert!(timings.contains(
            "    {\"name\": \"a\\\"b\\\\c\\nd\\u0001\", \"axis\": 0.25, \"seconds\": 0.250, \
             \"rate\": -0.2},\n"
        ));
        // Every non-finite float is `null`, whatever its variant or depth.
        for name in ["nan", "inf", "-inf"] {
            assert!(grid.contains(&format!(
                "{{\"name\": \"{name}\", \"axis\": null, \"count\": 7, \"ok\": true, \
                 \"nested\": {{\"a\": 1, \"b\": null}}, \"list\": [2, null], \"empty\": []}}"
            )));
            assert!(timings.contains(&format!(
                "{{\"name\": \"{name}\", \"axis\": null, \"seconds\": null, \"rate\": null}}"
            )));
        }
        assert!(!json.contains("NaN") && !json.contains("inf,"));
        // One row per line; the last row of each array has no separator.
        for section in [grid, timings] {
            let lines: Vec<&str> = section.lines().filter(|l| l.starts_with("    {")).collect();
            assert_eq!(lines.len(), 4);
            assert!(lines[..3].iter().all(|l| l.ends_with("},")));
            assert!(lines[3].ends_with('}'), "{}", lines[3]);
        }
        // Det columns never reach timings, Vol columns never reach grid.
        assert!(!grid.contains("seconds") && !grid.contains("rate"));
        assert!(!timings.contains("count") && !timings.contains("nested"));
        let doc = sim_obs::JsonValue::parse(&json).expect("valid JSON");
        let arr = |k| doc.get(k).and_then(sim_obs::JsonValue::as_array).map(<[_]>::len);
        assert_eq!((arr("grid"), arr("timings")), (Some(4), Some(4)));
        // An empty grid still renders both arrays.
        let empty = Grid { bench: "unit", grid_rev: 9, header: Vec::new(), rows: Vec::new() };
        let empty = empty.fixture_json();
        assert!(empty.ends_with("\n  \"grid\": [\n  ],\n  \"timings\": [\n  ]\n}\n"), "{empty}");
    }

    /// Two rows of every tag: a label that needs quoting and a NaN.
    fn sample() -> Vec<Row> {
        vec![
            vec![label("x", 10usize), det("a", Value::Float(1.5)), vol("b", Value::Float(2.5))],
            vec![label("x", "k,2"), det("a", Value::Float(3.0)), vol("b", Value::Float(f64::NAN))],
        ]
    }

    #[test]
    fn csv_round_shape() {
        let csv = rows_to_csv(&sample());
        assert_eq!(csv.lines().collect::<Vec<_>>(), ["x,a,b", "10,1.5,2.5", "\"k,2\",3,null"]);
        assert_eq!(rows_to_csv(&[]), "");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut rows = sample();
        rows[1].pop();
        rows_to_csv(&rows);
    }

    #[test]
    fn write_csv_creates_file() {
        let dir = std::env::temp_dir().join("msq_rows_csv_test");
        emit_rows("t1", "Title", &sample(), Some(&dir)).expect("writable temp dir");
        let path = dir.join("t1.csv");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), rows_to_csv(&sample()));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn emit_returns_a_failed_csv_write() {
        // A directory cannot be created under a regular file, even by root.
        let file = std::env::temp_dir().join("msq_rows_emit_not_a_dir");
        std::fs::write(&file, "").expect("writable temp dir");
        let err = emit_rows("t1", "Title", &sample(), Some(&file.join("csv")))
            .expect_err("write must fail");
        assert!(err.starts_with("failed to write ") && err.contains("/csv/t1.csv: "), "{err}");
        std::fs::remove_file(file).ok();
    }

    #[test]
    fn escaping_rules() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("q\"q"), "\"q\"\"q\"");
        assert_eq!(csv_escape("l\nl"), "\"l\nl\"");
    }

    #[test]
    fn write_baseline_reports_a_failed_write() {
        let err = write_baseline("/nonexistent-dir/for/sure/BENCH_unit.json", "{}\n").unwrap_err();
        assert!(err.contains("failed to write /nonexistent-dir/for/sure/BENCH_unit.json"), "{err}");
    }

    #[test]
    fn a_dirty_tree_is_stamped() {
        assert_eq!(commit_stamp("abc1234", false), "abc1234");
        assert_eq!(commit_stamp("abc1234", true), "abc1234-dirty");
    }

    #[test]
    fn collect_never_panics_and_fills_every_field() {
        let p = Provenance::collect(Scale::Quick, 2);
        assert_eq!(p.jobs, 2);
        assert!(!p.git_commit.is_empty());
        assert!(!p.rustc.is_empty());
    }
}
