//! Provenance header shared by every `BENCH_*.json` baseline.
//!
//! Each baseline opens with the same header block: the bench name (written
//! by the emitter), then the scale, the **grid revision**, and the
//! volatile run context (worker count, git commit, rustc version). The
//! grid revision is bumped whenever the deterministic `grid` schema or the
//! swept cell list changes, so [`crate::benchdiff`] can refuse
//! apples-to-oranges comparisons instead of reporting every row as drift.
//!
//! Layout contract (shared with the CI strip-diff): deterministic fields
//! (`scale`, `grid_rev`) and volatile fields (`jobs`, `git_commit`,
//! `rustc`) never share a line, so `grep -v` can drop the volatile ones
//! and byte-compare the rest across worker counts.

use std::fmt::Write as _;
use std::process::Command;

use crate::Scale;

/// Revision of the deterministic grids across all BENCH baselines. Bump
/// when the shared layout changes; an emitter whose own `grid` schema or
/// swept cell list changes stamps its own revision
/// ([`Provenance::header_at`] — `corebench` is at 3).
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
    /// Abbreviated git commit of the working tree, or `"unknown"`.
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
        Provenance {
            scale,
            jobs,
            git_commit: first_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "unknown".to_string()),
            rustc: first_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// Renders the header lines every emitter writes right after its
    /// `"bench"` line. One field per line; volatile fields carry names the
    /// CI strip patterns already drop (`jobs`) or new ones (`git_commit`,
    /// `rustc`) that are constant within one CI run.
    pub fn header(&self) -> String {
        self.header_at(GRID_REV)
    }

    /// [`Self::header`] for an emitter whose grid moved on its own: a new
    /// row in one baseline must not make every other committed baseline
    /// incomparable with its fresh re-run.
    pub fn header_at(&self, grid_rev: u64) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "  \"scale\": \"{:?}\",", self.scale);
        let _ = writeln!(out, "  \"grid_rev\": {grid_rev},");
        let _ = writeln!(out, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(out, "  \"git_commit\": \"{}\",", self.git_commit);
        let _ = writeln!(out, "  \"rustc\": \"{}\",", self.rustc);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_keeps_volatile_and_deterministic_fields_on_separate_lines() {
        let p = Provenance {
            scale: Scale::Quick,
            jobs: 4,
            git_commit: "abc1234".to_string(),
            rustc: "rustc 1.80.0".to_string(),
        };
        let h = p.header();
        assert!(h.contains("\"scale\": \"Quick\",\n"));
        assert!(h.contains(&format!("\"grid_rev\": {GRID_REV},\n")));
        assert!(h.contains("\"jobs\": 4,\n"));
        assert!(h.contains("\"git_commit\": \"abc1234\",\n"));
        for line in h.lines() {
            let volatile =
                line.contains("jobs") || line.contains("git_commit") || line.contains("rustc");
            let deterministic = line.contains("scale") || line.contains("grid_rev");
            assert!(!(volatile && deterministic), "mixed line: {line}");
        }
    }

    #[test]
    fn collect_never_panics_and_fills_every_field() {
        let p = Provenance::collect(Scale::Quick, 2);
        assert_eq!(p.jobs, 2);
        assert!(!p.git_commit.is_empty());
        assert!(!p.rustc.is_empty());
    }
}
