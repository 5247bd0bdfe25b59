//! Comparator for `BENCH_*.json` baselines — the perf-regression gate.
//!
//! Every baseline follows the shared layout ([`crate::provenance`]): a
//! `bench` name, a provenance header, a deterministic `grid` array, and a
//! volatile wall-clock `timings` array keyed by the same cell coordinates.
//! [`diff`] enforces that split:
//!
//! * **Refusal** (`Err`) — the two files are not comparable: different
//!   `bench`, different `scale`, or different `grid_rev` (the swept cell
//!   list changed). Refusing beats reporting every row as drift when the
//!   schema moved under the comparison. Volatile header fields (`jobs`,
//!   `git_commit`, `rustc`) deliberately do **not** refuse — the whole
//!   point is comparing runs across commits and worker counts.
//! * **Drift** — any deterministic `grid` row differs in any field, the
//!   grid or timings row counts differ, or a candidate timings row lacks a
//!   wall-clock field the baseline's has. Deterministic data has no
//!   tolerance: a single changed dominance count or completeness digit is
//!   a real behavioural change (or a seed/schema bug) and fails the diff.
//! * **Regression** — a wall-clock field in `timings` (`seconds`,
//!   `total_seconds`, `*_ms`) grew beyond the tolerance band
//!   `baseline × (1 + tol) + floor`. Only slowdowns fail; speedups pass.
//!   `jobs` and `cells_per_sec` in timings rows are ignored (derived or
//!   environment-bound).
//!
//! **Prefix mode** ([`diff_with`] with `prefix = true`, `msq diff
//! --prefix`) adapts the rules for CI's quick-vs-committed gate: a
//! Quick re-run's grid is a strict prefix of the committed Full grid
//! (same cells, same seeds, fewer rows), so prefix mode exempts `scale`
//! from the identity check, compares grid and timings rows index-wise
//! over the candidate's length (candidate rows beyond the baseline are
//! drift), and skips the top-level wall-clock fields (a subset run's
//! total is incomparable).
//!
//! `msq diff` maps these to exit codes: 0 pass, 1 drift/regression, 2
//! refusal.

use sim_obs::JsonValue;

/// Absolute slack (seconds or milliseconds, per the field's own unit)
/// added on top of the relative band, so sub-100 ms cells aren't failed on
/// scheduler noise.
pub const ABS_FLOOR: f64 = 0.1;

/// Default relative tolerance on wall-clock fields (`msq diff --tol`):
/// ±50 % absorbs machine-to-machine and load variance; order-of-magnitude
/// regressions still fail.
pub const DEFAULT_TOL: f64 = 0.5;

/// Outcome of a successful (non-refused) comparison.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Deterministic differences: each entry names a grid row and field.
    pub drift: Vec<String>,
    /// Wall-clock regressions beyond the tolerance band.
    pub regressions: Vec<String>,
}

impl DiffReport {
    /// True when nothing drifted and nothing regressed.
    pub fn passed(&self) -> bool {
        self.drift.is_empty() && self.regressions.is_empty()
    }
}

/// Header fields that must agree for two baselines to be comparable.
const IDENTITY_FIELDS: [&str; 3] = ["bench", "scale", "grid_rev"];

/// Timings-row fields that are wall-clock and get the tolerance band.
fn is_wall_clock(key: &str) -> bool {
    key == "seconds" || key == "total_seconds" || key.ends_with("_ms")
}

/// Timings-row fields that are neither labels nor gated wall-clock.
fn is_ignored_volatile(key: &str) -> bool {
    key == "jobs" || key == "cells_per_sec"
}

/// Renders a row's label fields (everything that is not wall-clock or
/// ignored) as `k=v` pairs, so findings cite the cell coordinates.
fn row_label(row: &JsonValue) -> String {
    let Some(members) = row.as_object() else {
        return "<non-object row>".to_string();
    };
    let parts: Vec<String> = members
        .iter()
        .filter(|(k, _)| !is_wall_clock(k) && !is_ignored_volatile(k))
        .map(|(k, v)| format!("{k}={}", render(v)))
        .collect();
    parts.join(" ")
}

/// Compact scalar rendering for messages.
fn render(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".to_string(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 1e15 {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        JsonValue::Str(s) => s.clone(),
        JsonValue::Arr(items) => format!("[{} items]", items.len()),
        JsonValue::Obj(members) => format!("{{{} fields}}", members.len()),
    }
}

/// Compares two parsed baselines. `Err` is a refusal (not comparable);
/// `Ok` carries the drift/regression findings.
pub fn diff(baseline: &JsonValue, candidate: &JsonValue, tol: f64) -> Result<DiffReport, String> {
    diff_with(baseline, candidate, tol, false)
}

/// [`diff`] with an explicit mode: `prefix = true` accepts a candidate
/// whose grid is a prefix of the baseline's (a Quick re-run gated against
/// the committed Full baseline) — see the module docs for the exact
/// relaxations.
pub fn diff_with(
    baseline: &JsonValue,
    candidate: &JsonValue,
    tol: f64,
    prefix: bool,
) -> Result<DiffReport, String> {
    for field in IDENTITY_FIELDS {
        if prefix && field == "scale" {
            continue;
        }
        let b = baseline.get(field);
        let c = candidate.get(field);
        match (b, c) {
            (Some(b), Some(c)) if b == c => {}
            (Some(b), Some(c)) => {
                return Err(format!(
                    "refusing to compare: `{field}` differs ({} vs {})",
                    render(b),
                    render(c)
                ));
            }
            _ => {
                return Err(format!(
                    "refusing to compare: `{field}` missing (pre-rev-{} baseline? regenerate \
                     with `msq all --json`)",
                    crate::provenance::GRID_REV
                ));
            }
        }
    }

    let mut report = DiffReport::default();

    let b_grid = baseline
        .get("grid")
        .and_then(JsonValue::as_array)
        .ok_or("refusing to compare: baseline has no `grid` array")?;
    let c_grid = candidate
        .get("grid")
        .and_then(JsonValue::as_array)
        .ok_or("refusing to compare: candidate has no `grid` array")?;
    if prefix {
        if c_grid.is_empty() {
            report.drift.push("candidate grid is empty (nothing to gate)".to_string());
        }
        if c_grid.len() > b_grid.len() {
            report.drift.push(format!(
                "candidate has {} grid rows beyond the baseline's {} (not a prefix)",
                c_grid.len(),
                b_grid.len()
            ));
        }
    } else if b_grid.len() != c_grid.len() {
        report.drift.push(format!(
            "grid row count changed: {} -> {} (same grid_rev — emitter bug?)",
            b_grid.len(),
            c_grid.len()
        ));
    }
    for (i, (b, c)) in b_grid.iter().zip(c_grid).enumerate() {
        if b == c {
            continue;
        }
        // Cite the first differing field, not the whole row.
        let detail = match (b.as_object(), c.as_object()) {
            (Some(bm), Some(cm)) => bm
                .iter()
                .zip(cm)
                .find(|((bk, bv), (ck, cv))| bk != ck || bv != cv)
                .map(|((bk, bv), (ck, cv))| {
                    if bk == ck {
                        format!("`{bk}`: {} -> {}", render(bv), render(cv))
                    } else {
                        format!("key order changed: `{bk}` vs `{ck}`")
                    }
                })
                .unwrap_or_else(|| "field count changed".to_string()),
            _ => "row shape changed".to_string(),
        };
        report.drift.push(format!("grid[{i}] ({}): {detail}", row_label(b)));
    }

    // Timings compare by index — valid once the grids matched, since both
    // arrays are emitted in grid order. Outside prefix mode a timings row
    // or wall-clock value the candidate lacks is drift, not a pass.
    let b_tim = baseline.get("timings").and_then(JsonValue::as_array).unwrap_or(&[]);
    let c_tim = candidate.get("timings").and_then(JsonValue::as_array).unwrap_or(&[]);
    if !prefix && b_tim.len() != c_tim.len() {
        report
            .drift
            .push(format!("timings row count changed: {} -> {}", b_tim.len(), c_tim.len()));
    }
    for (i, (b, c)) in b_tim.iter().zip(c_tim).enumerate() {
        let (Some(bm), Some(_)) = (b.as_object(), c.as_object()) else { continue };
        for (key, bv) in bm {
            let Some(base) = bv.as_f64().filter(|_| is_wall_clock(key)) else { continue };
            let Some(cand) = c.get(key).and_then(JsonValue::as_f64) else {
                if !prefix {
                    report.drift.push(format!("timings[{i}] ({}): `{key}` missing", row_label(b)));
                }
                continue;
            };
            let limit = base * (1.0 + tol) + ABS_FLOOR;
            if cand > limit {
                report.regressions.push(format!(
                    "timings[{i}] ({}): `{key}` {base:.3} -> {cand:.3} (limit {limit:.3} at \
                     tol {tol})",
                    row_label(b)
                ));
            }
        }
    }

    // Top-level wall-clock (e.g. sweep's total_seconds) gets the same
    // band — except in prefix mode, where the candidate ran a subset and
    // its total is incomparable by construction.
    if prefix {
        return Ok(report);
    }
    if let Some(members) = baseline.as_object() {
        for (key, bv) in members {
            if !is_wall_clock(key) {
                continue;
            }
            let (Some(base), Some(cand)) =
                (bv.as_f64(), candidate.get(key).and_then(JsonValue::as_f64))
            else {
                continue;
            };
            let limit = base * (1.0 + tol) + ABS_FLOOR;
            if cand > limit {
                report.regressions.push(format!(
                    "`{key}` {base:.3} -> {cand:.3} (limit {limit:.3} at tol {tol})"
                ));
            }
        }
    }

    Ok(report)
}

/// Parses and compares two baseline documents.
pub fn diff_texts(baseline: &str, candidate: &str, tol: f64) -> Result<DiffReport, String> {
    diff_texts_with(baseline, candidate, tol, false)
}

/// [`diff_texts`] with the prefix mode switch.
pub fn diff_texts_with(
    baseline: &str,
    candidate: &str,
    tol: f64,
    prefix: bool,
) -> Result<DiffReport, String> {
    let b = JsonValue::parse(baseline).map_err(|e| format!("baseline does not parse: {e}"))?;
    let c = JsonValue::parse(candidate).map_err(|e| format!("candidate does not parse: {e}"))?;
    diff_with(&b, &c, tol, prefix)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(grid_rev: u64, grid: &str, timings: &str) -> String {
        format!(
            "{{\n  \"bench\": \"chaos\",\n  \"scale\": \"Quick\",\n  \"grid_rev\": {grid_rev},\n  \
             \"jobs\": 4,\n  \"git_commit\": \"abc\",\n  \"rustc\": \"rustc 1.80\",\n  \
             \"grid\": [{grid}],\n  \"timings\": [{timings}]\n}}\n"
        )
    }

    #[test]
    fn identical_files_pass() {
        let d = doc(2, r#"{"arm": "EXT", "queries": 16}"#, r#"{"arm": "EXT", "seconds": 1.0}"#);
        let rep = diff_texts(&d, &d, 0.5).unwrap();
        assert!(rep.passed(), "{rep:?}");
    }

    #[test]
    fn volatile_header_and_timing_improvements_are_not_findings() {
        let base = doc(2, r#"{"arm": "EXT", "queries": 16}"#, r#"{"arm": "EXT", "seconds": 10.0}"#);
        let cand = doc(2, r#"{"arm": "EXT", "queries": 16}"#, r#"{"arm": "EXT", "seconds": 2.0}"#)
            .replace("\"jobs\": 4", "\"jobs\": 1")
            .replace("\"abc\"", "\"def\"");
        let rep = diff_texts(&base, &cand, 0.5).unwrap();
        assert!(rep.passed(), "{rep:?}");
    }

    #[test]
    fn deterministic_drift_fails_with_cited_field() {
        let base = doc(2, r#"{"arm": "EXT", "queries": 16}"#, "");
        let cand = doc(2, r#"{"arm": "EXT", "queries": 17}"#, "");
        let rep = diff_texts(&base, &cand, 0.5).unwrap();
        assert_eq!(rep.drift.len(), 1);
        assert!(rep.drift[0].contains("`queries`: 16 -> 17"), "{}", rep.drift[0]);
    }

    #[test]
    fn wall_clock_regression_beyond_band_fails() {
        let base = doc(2, r#"{"arm": "EXT"}"#, r#"{"arm": "EXT", "seconds": 10.0}"#);
        let slow = doc(2, r#"{"arm": "EXT"}"#, r#"{"arm": "EXT", "seconds": 20.0}"#);
        let rep = diff_texts(&base, &slow, 0.5).unwrap();
        assert_eq!(rep.regressions.len(), 1);
        assert!(rep.regressions[0].contains("arm=EXT"), "{}", rep.regressions[0]);
        // Within the band: 14.0 < 10*1.5 + 0.1.
        let ok = doc(2, r#"{"arm": "EXT"}"#, r#"{"arm": "EXT", "seconds": 14.0}"#);
        assert!(diff_texts(&base, &ok, 0.5).unwrap().passed());
    }

    #[test]
    fn tiny_cells_get_the_absolute_floor() {
        let base = doc(2, r#"{"g": 10}"#, r#"{"g": 10, "seconds": 0.01}"#);
        // 6x slower but still under 0.01*1.5 + 0.1 — noise, not a finding.
        let cand = doc(2, r#"{"g": 10}"#, r#"{"g": 10, "seconds": 0.06}"#);
        assert!(diff_texts(&base, &cand, 0.5).unwrap().passed());
    }

    #[test]
    fn grid_rev_mismatch_refuses() {
        let base = doc(2, r#"{"arm": "EXT"}"#, "");
        let cand = doc(3, r#"{"arm": "EXT"}"#, "");
        let err = diff_texts(&base, &cand, 0.5).unwrap_err();
        assert!(err.contains("grid_rev"), "{err}");
    }

    #[test]
    fn bench_mismatch_and_missing_header_refuse() {
        let base = doc(2, "", "");
        let other = base.replace("\"chaos\"", "\"attack\"");
        assert!(diff_texts(&base, &other, 0.5).unwrap_err().contains("`bench`"));
        let headerless = base.replace("  \"grid_rev\": 2,\n", "");
        assert!(diff_texts(&base, &headerless, 0.5).unwrap_err().contains("grid_rev"));
    }

    #[test]
    fn prefix_mode_gates_a_quick_rerun_against_the_full_baseline() {
        let full = doc(
            2,
            r#"{"g": 10, "frames": 5}, {"g": 18, "frames": 9}, {"g": 32, "frames": 20}"#,
            r#"{"g": 10, "seconds": 1.0}, {"g": 18, "seconds": 4.0}, {"g": 32, "seconds": 40.0}"#,
        );
        let quick = doc(
            2,
            r#"{"g": 10, "frames": 5}, {"g": 18, "frames": 9}"#,
            r#"{"g": 10, "seconds": 1.2}, {"g": 18, "seconds": 4.1}"#,
        );
        let full = full.replace("\"scale\": \"Quick\"", "\"scale\": \"Full\"");
        // Exact mode refuses on scale; prefix mode compares the prefix.
        assert!(diff_texts(&full, &quick, 0.5).unwrap_err().contains("scale"));
        let rep = diff_texts_with(&full, &quick, 0.5, true).unwrap();
        assert!(rep.passed(), "{rep:?}");

        // A drifted row inside the prefix still fails.
        let drifted = quick.replace("\"frames\": 9", "\"frames\": 10");
        let rep = diff_texts_with(&full, &drifted, 0.5, true).unwrap();
        assert_eq!(rep.drift.len(), 1);
        assert!(rep.drift[0].contains("`frames`: 9 -> 10"), "{}", rep.drift[0]);

        // A slow prefix row still regresses (40 s baseline row unused).
        let slow = quick.replace("\"seconds\": 4.1", "\"seconds\": 9.0");
        let rep = diff_texts_with(&full, &slow, 0.5, true).unwrap();
        assert_eq!(rep.regressions.len(), 1, "{rep:?}");
    }

    #[test]
    fn prefix_mode_rejects_non_prefix_and_empty_candidates() {
        let base = doc(2, r#"{"g": 10}"#, "");
        let longer = doc(2, r#"{"g": 10}, {"g": 18}"#, "");
        let rep = diff_texts_with(&base, &longer, 0.5, true).unwrap();
        assert!(rep.drift[0].contains("not a prefix"), "{}", rep.drift[0]);
        let empty = doc(2, "", "");
        let rep = diff_texts_with(&base, &empty, 0.5, true).unwrap();
        assert!(rep.drift[0].contains("empty"), "{}", rep.drift[0]);
        // grid_rev identity still refuses in prefix mode.
        let rev3 = doc(3, r#"{"g": 10}"#, "");
        assert!(diff_texts_with(&base, &rev3, 0.5, true).unwrap_err().contains("grid_rev"));
    }

    #[test]
    fn prefix_mode_skips_incomparable_top_level_wall_clock() {
        let base = doc(2, r#"{"g": 10}"#, "")
            .replace("  \"jobs\"", "  \"total_seconds\": 100.0,\n  \"jobs\"");
        let cand = doc(2, r#"{"g": 10}"#, "")
            .replace("  \"jobs\"", "  \"total_seconds\": 900.0,\n  \"jobs\"");
        assert!(!diff_texts(&base, &cand, 0.5).unwrap().passed());
        assert!(diff_texts_with(&base, &cand, 0.5, true).unwrap().passed());
    }

    #[test]
    fn timings_row_count_change_is_drift() {
        let base =
            doc(2, r#"{"g": 10}"#, r#"{"g": 10, "seconds": 1.0}, {"g": 10, "seconds": 2.0}"#);
        let cand = doc(2, r#"{"g": 10}"#, r#"{"g": 10, "seconds": 1.0}"#);
        let rep = diff_texts(&base, &cand, 0.5).unwrap();
        assert_eq!(rep.drift, ["timings row count changed: 2 -> 1"], "{rep:?}");
        // A Quick re-run in prefix mode has fewer rows by construction.
        assert!(diff_texts_with(&base, &cand, 0.5, true).unwrap().passed());
    }

    #[test]
    fn missing_wall_clock_key_is_drift() {
        let base = doc(2, r#"{"g": 10}"#, r#"{"g": 10, "seconds": 1.0, "cold_ms": 3.0}"#);
        let cand = doc(2, r#"{"g": 10}"#, r#"{"g": 10, "cold_ms": 3.0}"#);
        let rep = diff_texts(&base, &cand, 0.5).unwrap();
        assert_eq!(rep.drift, ["timings[0] (g=10): `seconds` missing"], "{rep:?}");
        let nulled = cand.replace("{\"g\": 10, ", "{\"g\": 10, \"seconds\": null, ");
        assert!(!diff_texts(&base, &nulled, 0.5).unwrap().passed());
    }

    #[test]
    fn row_count_change_is_drift() {
        let base = doc(2, r#"{"g": 10}, {"g": 18}"#, "");
        let cand = doc(2, r#"{"g": 10}"#, "");
        let rep = diff_texts(&base, &cand, 0.5).unwrap();
        assert!(!rep.passed());
        assert!(rep.drift[0].contains("row count"), "{}", rep.drift[0]);
    }
}
