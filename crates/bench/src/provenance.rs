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
//! A bench declares each cell once, as a `Row` of ordered
//! `(key, value, tag)` columns; `baseline_json` splits it. The `grid`
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
/// swept cell list changes passes its own revision to `baseline_json`
/// (`corebench` is at 5).
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

/// Renders a baseline: the provenance header stamped at `grid_rev`, the
/// bench's `header` fields, then one `grid` and one `timings` row per
/// [`Row`] (see the module docs for the split). One field or row per line.
pub(crate) fn baseline_json(
    bench: &str,
    prov: &Provenance,
    grid_rev: u64,
    header: &[(&'static str, Value)],
    rows: &[Row],
) -> String {
    let stamp = [
        ("bench", Value::from(bench)),
        ("scale", Value::Str(format!("{:?}", prov.scale))),
        ("grid_rev", Value::Int(grid_rev)),
        ("jobs", Value::from(prov.jobs)),
        ("git_commit", Value::from(prov.git_commit.as_str())),
        ("rustc", Value::from(prov.rustc.as_str())),
    ];
    let mut out = String::from("{\n");
    for (key, value) in stamp.iter().chain(header) {
        let _ = writeln!(out, "  {}: {},", json_string(key), value.render());
    }
    for (section, keep, close) in [("grid", Tag::Det, "  ],\n"), ("timings", Tag::Vol, "  ]\n}\n")]
    {
        let _ = writeln!(out, "  \"{section}\": [");
        for (i, row) in rows.iter().enumerate() {
            let columns = row.iter().filter(|(_, _, tag)| *tag == Tag::Label || *tag == keep);
            let sep = if i + 1 < rows.len() { "," } else { "" };
            let _ =
                writeln!(out, "    {}{sep}", object(columns.map(|(key, value, _)| (*key, value))));
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
mod tests {
    use super::*;

    #[test]
    fn header_keeps_volatile_and_deterministic_fields_on_separate_lines() {
        let json = baseline_json("unit", &Provenance::fixture(), GRID_REV, &[], &[]);
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
            [("total_seconds", Value::Fixed(2.0, 3)), ("missing", Value::Fixed(f64::NAN, 2))];
        let rows = [
            row("a\"b\\c\nd\u{1}", 0.25),
            row("nan", f64::NAN),
            row("inf", f64::INFINITY),
            row("-inf", f64::NEG_INFINITY),
        ];
        let json = baseline_json("unit", &Provenance::fixture(), 9, &header, &rows);
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
            assert_eq!(lines.len(), rows.len());
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
        let empty = baseline_json("unit", &Provenance::fixture(), 9, &[], &[]);
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

    /// Each bench's `to_json` over a fixed two-row fixture (a `None`/NaN
    /// row wherever the writer renders `null`), keyed by bench name.
    fn golden_fixtures() -> Vec<(&'static str, String)> {
        use crate::{attack, chaos, corebench, extensions, monitor, scalebench, servebench, sweep};
        let prov = Provenance::fixture();

        let stages = [
            sweep::StageRecord { name: "fig5a".to_string(), cells: 5, seconds: 1.5, jobs: 4 },
            sweep::StageRecord {
                name: "fig\"8\\b".to_string(),
                cells: 12,
                seconds: 0.0004,
                jobs: 2,
            },
        ];

        let chaos_a = chaos::CellReport {
            arm: "EXT",
            churn: 0.2,
            loss: 0.1,
            arq: true,
            queries: 16,
            mean_completeness: 0.9,
            min_completeness: 0.5,
            spurious: 0,
            timeout_fraction: 0.125,
            timeouts_originator_crash: 1,
            timeouts_no_responses: 0,
            timeouts_partial: 1,
            arq_retries: 7,
            arq_exhausted: 1,
            duplicates_suppressed: 2,
            delivery_failures: 3,
            reissues: 1,
            node_crashes: 3,
            mean_response_seconds: None,
            seconds: 1.25,
        };
        let chaos_b = chaos::CellReport {
            arm: "EXT/noARQ",
            churn: 0.0,
            loss: 0.0,
            arq: false,
            mean_completeness: 1.0,
            min_completeness: 0.987_654_321,
            timeout_fraction: 0.0,
            mean_response_seconds: Some(12.345_6),
            seconds: 0.000_4,
            ..chaos_a.clone()
        };

        let attack_a = attack::CellReport {
            arm: "EXT-BF",
            attack: "filter_poison",
            defense: true,
            churn: 0.2,
            loss: 0.1,
            queries: 16,
            mean_completeness: 0.9,
            mean_honest_completeness: 0.95,
            min_honest_completeness: 0.5,
            spurious: 0,
            timeout_fraction: 0.125,
            frames_sent: 1234,
            result_messages: 99,
            attack_frames_sent: 40,
            attack_frames_dropped: 55,
            filters_rejected: 7,
            reputation_penalties: 12,
            defense_effectiveness: 1.375,
            mean_response_seconds: None,
            seconds: 2.5,
        };
        let attack_b = attack::CellReport {
            arm: "EXT-DF",
            attack: "none",
            defense: false,
            churn: 0.0,
            loss: 0.0,
            mean_completeness: f64::NAN,
            mean_honest_completeness: f64::NAN,
            min_honest_completeness: f64::INFINITY,
            mean_response_seconds: Some(3.141_9),
            seconds: 17.000_5,
            ..attack_a.clone()
        };

        let monitor_a = monitor::CellReport {
            mode: "delta",
            period_s: 30.0,
            churn: 0.25,
            loss: 0.1,
            epochs: 20,
            mean_completeness: 0.97,
            min_completeness: 0.8,
            spurious: 0,
            mean_staleness_s: 31.5,
            messages: 420,
            bytes: 31_000,
            deltas_sent: 60,
            heartbeats: 25,
            deltas_applied: 58,
            arq_retries: 7,
            arq_exhausted: 1,
            lease_expired: 0,
            fold_remove_misses: 0,
            node_crashes: 3,
            energy_j: 1.25,
            seconds: 0.75,
        };
        let monitor_b = monitor::CellReport {
            mode: "requery",
            period_s: 15.0,
            churn: 0.0,
            loss: 0.0,
            mean_staleness_s: 2.000_5,
            energy_j: 0.123_456,
            seconds: 3.0,
            ..monitor_a.clone()
        };

        let scale_a = scalebench::CellReport {
            metrics: scalebench::CellMetrics {
                g: 32,
                devices: 1024,
                cardinality: 10_000,
                dim: 2,
                queries: 4,
                drr: 0.5,
                timeout_fraction: 0.0,
                mean_response_seconds: Some(12.0),
                forward_messages: 4096,
                result_messages: 4096,
                frames_sent: 100_000,
                aodv_frames: 50_000,
                aodv_frames_per_device: 48.828,
                energy_j: 123.0,
            },
            seconds: 9.87,
        };
        let scale_b = scalebench::CellReport {
            metrics: scalebench::CellMetrics {
                g: 4,
                devices: 16,
                drr: 0.123_456_789,
                timeout_fraction: 0.25,
                mean_response_seconds: None,
                aodv_frames_per_device: 0.000_05,
                ..scale_a.metrics.clone()
            },
            seconds: 0.123_4,
        };

        let serve_a = servebench::CellReport {
            metrics: servebench::CellMetrics {
                clients: 64,
                churn: 8,
                epochs: 24,
                sites: 2_000,
                dim: 3,
                lookups: 1_536,
                hits: 1_500,
                misses: 36,
                hit_ratio: 0.9766,
                invalidations: 40,
                cells_touched: 200,
                evictions: 3,
                backfills: 39,
                tuples_served: 30_000,
                stale_p50: 2,
                stale_p99: 8,
                stale_max: 15,
                stale_sum: 3_000,
            },
            seconds: 1.5,
            cold_seconds: 0.9,
            cached_seconds: 0.6,
            cold_requests: 64,
            cached_requests: 1_472,
            reuse_seconds: 0.001,
        };
        let serve_b = servebench::CellReport {
            metrics: servebench::CellMetrics {
                clients: 16,
                churn: 0,
                hit_ratio: 0.875,
                ..serve_a.metrics.clone()
            },
            seconds: 0.25,
            cold_seconds: 0.2,
            cached_seconds: 0.0,
            reuse_seconds: 0.0,
            ..serve_a.clone()
        };

        let neighbors = vec![corebench::NeighborRecord {
            nodes: 100,
            queries: 100,
            grid_ms: 0.05,
            scan_ms: 0.25,
            neighbors: 1_642,
        }];
        let builds = vec![
            corebench::BuildRecord {
                dims: 2,
                tuples: 6_000,
                domain_sizes: vec![999, 1000],
                sort_attr: 1,
                id_bytes: 24_000,
                build_ms: 0.456,
            },
            corebench::BuildRecord {
                dims: 0,
                tuples: 1,
                domain_sizes: Vec::new(),
                sort_attr: 0,
                id_bytes: 0,
                build_ms: 0.001,
            },
        ];
        let scans = vec![corebench::ScanRecord {
            dims: 4,
            dist: "AC",
            tuples: 20_000,
            region: "r500",
            in_range: 15_000,
            window_len: 321,
            id_comparisons: 9_876_543,
            scan_ms: 3.25,
        }];
        let merges = vec![corebench::MergeRecord {
            dims: 5,
            dist: "IN",
            tuples: 20_000,
            inserts: 800,
            kept: 600,
            dominated_removed: 200,
            merge_ms: 0.333,
        }];
        let radios = vec![corebench::RadioRecord {
            g: 10,
            payload_bytes: 200,
            transmissions: 10_000,
            deliveries: 170_000,
            wheel_events: 10_100,
            storm_ms: 12.75,
        }];
        let storages = vec![corebench::StorageRecord {
            model: "flat",
            test: "full",
            dist: "AC",
            dims: 2,
            tuples: 10_000,
            skyline_len: 22,
            value_comparisons: 1_234_567,
            id_comparisons: 0,
            storage_bytes: 281_234,
            scan_ms: 58.812_4,
        }];

        let energy_a = extensions::EnergyReport {
            forwarding: "BF",
            filter: "nofilter",
            queries: 82,
            j_per_query: 0.185_04,
            total_j: 15.169_2,
            bytes_per_query: 10_709.622,
            drr: 0.0,
            seconds: 0.149,
        };
        let energy_b = extensions::EnergyReport {
            forwarding: "DF",
            filter: "dynamic",
            drr: f64::NAN,
            seconds: 0.000_4,
            ..energy_a.clone()
        };

        let multi_a = extensions::MultiFilterReport {
            sweep: "k",
            k: 8,
            selector: "coverage",
            dist: "IN",
            queries: 75,
            drr: -0.012_34,
            tuples_per_query: 35.826_7,
            seconds: 0.543,
        };
        let multi_b = extensions::MultiFilterReport {
            sweep: "selector",
            k: 3,
            selector: "max-spread",
            dist: "AC",
            tuples_per_query: f64::INFINITY,
            ..multi_a.clone()
        };

        let redistribution_a = extensions::RedistributionReport {
            handoff: "off",
            queries: 79,
            locality_m: 468.454_2,
            migrations: 0,
            mean_response_seconds: Some(15.437_4),
            avg_result: 5.460_5,
            kb_on_air: 932.871_1,
            seconds: 0.124,
        };
        let redistribution_b = extensions::RedistributionReport {
            handoff: "on",
            migrations: 138,
            mean_response_seconds: None,
            kb_on_air: 38_435.024_4,
            seconds: 12.982,
            ..redistribution_a.clone()
        };

        vec![
            ("sweep", sweep::to_json(&prov, 2.0, &stages)),
            ("chaos", chaos::to_json(&prov, &[chaos_a, chaos_b])),
            ("attack", attack::to_json(&prov, &[attack_a, attack_b])),
            ("monitor", monitor::to_json(&prov, &[monitor_a, monitor_b])),
            ("scale", scalebench::to_json(&prov, &[scale_a, scale_b])),
            ("serve", servebench::to_json(&prov, &[serve_a, serve_b])),
            (
                "core",
                corebench::to_json(
                    &prov,
                    &corebench::Suite { neighbors, builds, scans, merges, radios, storages },
                ),
            ),
            ("energy", extensions::energy_json(&prov, &[energy_a, energy_b])),
            ("multi-filter", extensions::multi_filter_json(&prov, &[multi_a, multi_b])),
            (
                "redistribution",
                extensions::redistribution_json(&prov, &[redistribution_a, redistribution_b]),
            ),
        ]
    }

    /// The byte-identity proof: each `golden/baseline_<bench>.json` is
    /// the output of that bench's hand-rolled writer on this fixture,
    /// recorded before the writers were folded into [`baseline_json`]
    /// (`energy`, `multi-filter` and `redistribution` never had one: their
    /// goldens pin the row schemas they were gated with).
    #[test]
    fn every_bench_reproduces_its_recorded_golden() {
        for (bench, json) in golden_fixtures() {
            let path = format!("{}/golden/baseline_{bench}.json", env!("CARGO_MANIFEST_DIR"));
            let golden = std::fs::read_to_string(&path).expect("golden recorded");
            assert_eq!(json, golden, "{bench} moved off its golden");
        }
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
