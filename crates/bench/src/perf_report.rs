//! `perf_report`: the profiling driver — one pinned scale-bench scenario
//! run with spans, gauges, and latency histograms all on, rendered as a
//! hotspot report.
//!
//! The scenario is a single [`crate::scalebench`] cell (cardinality
//! 10 000, 3 attributes, 300 s query window — the scale grid's shared
//! point) at a caller-chosen grid side, so its numbers sit on the same
//! axis as `BENCH_scale.json` rows, followed by one serving smoke cell so
//! the front end profiles alongside the engine. Spans attribute wall time
//! to subsystems (`wheel::cascade`, `grid::query`, `aodv::*`,
//! `radio::deliver`, `core::*`, `serve::lookup`, `diagram::materialize`,
//! `diagram::invalidate`); the report names the
//! top subsystems by wall share, prints the full hotspot table, the wheel
//! events the run scheduled per transmission and per delivery, the query
//! latency histograms, and the engine gauge summary.
//!
//! Wall shares are *attribution*, not exclusive time — spans nest, so the
//! shares answer "where would optimisation effort land" rather than
//! summing to 100 %.
//!
//! Usage: `msq perf [--g N] [--json]` (`--g` at least 2, default
//! [`DEFAULT_G`]; `--json` writes `PROFILE_g<N>.json`, the span profile in
//! the shared grid/timings schema, to the current directory).

use std::fmt::Write as _;
use std::time::Instant;

use dist_skyline::config::ObsConfig;
use dist_skyline::runtime::{run_experiment, ManetOutcome};
use sim_obs::{PowHistogram, ProfileReport};

use crate::scalebench::{self, ScaleCell};
use crate::servebench;

/// Default grid side: the Quick scale grid's largest network (1024
/// devices) — big enough that subsystem costs separate, small enough for
/// interactive runs.
pub const DEFAULT_G: usize = 32;

/// The pinned scenario at grid side `g` — the scale grid's shared
/// (cardinality, dim, horizon) point, so profiles line up with
/// `BENCH_scale.json` rows at the same `g`.
pub fn pinned_cell(g: usize) -> ScaleCell {
    ScaleCell { g, cardinality: 10_000, dim: 3, sim_seconds: 300.0 }
}

/// Everything one profiled run produces.
pub struct PerfRun {
    /// The scenario that ran.
    pub cell: ScaleCell,
    /// The experiment outcome (histograms, gauges, records).
    pub outcome: ManetOutcome,
    /// Span profile collected across the run.
    pub profile: ProfileReport,
    /// Deterministic counters from the serving segment.
    pub serve: servebench::CellMetrics,
    /// End-to-end wall seconds (volatile).
    pub wall_seconds: f64,
}

/// A small serving workload run inside the span window, so the hotspot
/// table covers the front end too (`serve::lookup`,
/// `diagram::materialize`, `diagram::invalidate`): one smoke cell of the
/// serve grid — cold pass, cached repeats, churn invalidation — proven
/// exact by [`servebench::run_horizon`] before it reports.
pub fn serve_segment() -> servebench::CellMetrics {
    servebench::run_horizon(&servebench::smoke_cells()[0]).metrics
}

/// Runs the pinned scenario with full instrumentation: spans enabled
/// process-wide for the duration, gauges sampled at the default cadence.
/// Resets the span accumulator before and disables collection after, so
/// back-to-back callers don't bleed into each other.
pub fn run(g: usize) -> PerfRun {
    let cell = pinned_cell(g);
    let mut exp = scalebench::experiment(&cell);
    exp.obs = ObsConfig::sampled();
    sim_obs::set_enabled(true);
    let _ = ProfileReport::collect_and_reset();
    let t0 = Instant::now();
    let outcome = run_experiment(&exp);
    let serve = serve_segment();
    let wall_seconds = t0.elapsed().as_secs_f64();
    sim_obs::set_enabled(false);
    let profile = ProfileReport::collect_and_reset();
    PerfRun { cell, outcome, profile, serve, wall_seconds }
}

/// One sentence naming the top `n` subsystems by attributed wall share.
pub fn narrative(profile: &ProfileReport, n: usize) -> String {
    let total = profile.total_wall_ns().max(1) as f64;
    let tops: Vec<String> = profile
        .top_by_wall()
        .into_iter()
        .take(n)
        .map(|r| format!("{} ({:.1}%)", r.name, 100.0 * r.wall_ns as f64 / total))
        .collect();
    if tops.is_empty() {
        "no spans fired (instrumentation disabled?)".to_string()
    } else {
        format!("top hotspots by attributed wall share: {}", tops.join(", "))
    }
}

/// One summary line for a latency histogram (power-of-two bucket bounds,
/// so p50/p99 are upper bounds, exact and merge-stable).
pub fn hist_line(name: &str, h: &PowHistogram, unit: &str) -> String {
    match h.mean() {
        None => format!("  {name}: (empty)"),
        Some(mean) => format!(
            "  {name}: n={} mean={:.0}{unit} p50<={}{unit} p99<={}{unit} max={}{unit}",
            h.count(),
            mean,
            h.quantile_bound(0.5).unwrap_or(0),
            h.quantile_bound(0.99).unwrap_or(0),
            h.max().unwrap_or(0),
        ),
    }
}

/// What the run asked of the timer wheel, against what the radio did: one
/// wheel event per transmission with a receiver (plus timers), however
/// many copies it delivers. Deterministic — a column of the report that
/// no host can move.
pub fn wheel_line(outcome: &ManetOutcome) -> String {
    let per = |n: u64| outcome.wheel_events as f64 / n.max(1) as f64;
    format!(
        "wheel events scheduled: {} ({:.2} per transmission, {:.2} per delivery)",
        outcome.wheel_events,
        per(outcome.net.frames_sent),
        per(outcome.frame_copies),
    )
}

/// Renders the full report: scenario line, narrative, hotspot table,
/// latency histograms, gauge summary.
pub fn render(run: &PerfRun) -> String {
    let mut out = String::new();
    let m = run.cell.g * run.cell.g;
    let _ = writeln!(
        out,
        "== perf_report: g={} ({m} devices), {} tuples, d={}, {:.0} s window, \
         {:.1} s wall ==\n",
        run.cell.g, run.cell.cardinality, run.cell.dim, run.cell.sim_seconds, run.wall_seconds
    );
    let _ = writeln!(out, "{}\n", narrative(&run.profile, 3));
    out.push_str(&run.profile.render());
    let _ = writeln!(out, "\n{}", wheel_line(&run.outcome));

    let s = &run.serve;
    let _ = writeln!(
        out,
        "\nserving segment (one serve-smoke cell, proven exact): lookups={} \
         hit_ratio={:.3} misses={} invalidations={} evictions={}",
        s.lookups, s.hit_ratio, s.misses, s.invalidations, s.evictions
    );

    out.push_str("\nlatency histograms (simulated time):\n");
    out.push_str(&hist_line("query response", &run.outcome.response_hist, "us"));
    out.push('\n');
    out.push_str(&hist_line("reply latency", &run.outcome.reply_latency_hist, "us"));
    out.push('\n');
    out.push_str(&hist_line("reply hops", &run.outcome.reply_hops_hist, ""));
    out.push('\n');

    if let Some(log) = &run.outcome.gauges {
        out.push_str("\nengine gauges (last / max over the run):\n");
        let mut series: Vec<&str> = log.rows.iter().map(|r| r.series.as_str()).collect();
        series.sort_unstable();
        series.dedup();
        for s in series {
            let _ = writeln!(
                out,
                "  {s:<22} {:>12.1} / {:>12.1}",
                log.last_value(s).unwrap_or(0.0),
                log.max_value(s).unwrap_or(0.0),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_obs::SpanRow;

    fn fake_profile() -> ProfileReport {
        let row = |name: &str, wall_ns: u64| SpanRow {
            name: name.to_string(),
            calls: 10,
            bytes: 0,
            units: 5,
            wall_ns,
        };
        ProfileReport {
            rows: vec![
                row("grid::query", 100),
                row("wheel::cascade", 300),
                row("radio::deliver", 600),
                row("kernel::block_scan", 10),
            ],
        }
    }

    #[test]
    fn pinned_cell_matches_the_scale_grid_point() {
        let c = pinned_cell(64);
        assert_eq!(c.g, 64);
        assert_eq!(c.cardinality, 10_000);
        assert_eq!(c.dim, 3);
        assert_eq!(c.sim_seconds, 300.0);
        // The experiment it builds is the scale bench's, unchanged.
        let exp = scalebench::experiment(&c);
        assert_eq!(exp.data.space.width, 6_400.0);
    }

    #[test]
    fn narrative_names_top_three_hottest_first() {
        let n = narrative(&fake_profile(), 3);
        assert!(n.starts_with("top hotspots"), "{n}");
        let radio = n.find("radio::deliver").unwrap();
        let wheel = n.find("wheel::cascade").unwrap();
        let grid = n.find("grid::query").unwrap();
        assert!(radio < wheel && wheel < grid, "{n}");
        assert!(!n.contains("kernel::block_scan"), "top-3 only: {n}");
        assert!(n.contains("59.4%"), "600/1010 wall share: {n}");
    }

    #[test]
    fn serve_segment_emits_front_end_spans() {
        sim_obs::set_enabled(true);
        let _ = ProfileReport::collect_and_reset();
        let metrics = serve_segment();
        sim_obs::set_enabled(false);
        let profile = ProfileReport::collect_and_reset();
        assert!(metrics.lookups > 0 && metrics.misses > 0);
        // Spans from concurrent tests may also land here; presence is
        // what matters.
        for name in ["serve::lookup", "diagram::materialize", "diagram::invalidate"] {
            assert!(
                profile.rows.iter().any(|r| r.name == name),
                "span `{name}` missing from the serve segment profile"
            );
        }
    }

    /// The `--g 8` smoke cell: a broadcast is one wheel event, so the
    /// wheel holds fewer events than the radio delivers copies — which one
    /// event per copy plus the timers (over half the events of a
    /// 64-device cell) can never do.
    #[test]
    fn wheel_line_counts_transmissions_not_copies() {
        let outcome = run_experiment(&scalebench::experiment(&pinned_cell(8)));
        assert!(outcome.net.frames_sent > 0 && outcome.frame_copies > outcome.net.frames_sent);
        let line = wheel_line(&outcome);
        assert!(line.starts_with("wheel events scheduled: "), "{line}");
        let per_delivery = outcome.wheel_events as f64 / outcome.frame_copies as f64;
        assert!(per_delivery < 0.8, "{line}");
        assert!(line.ends_with(&format!("{per_delivery:.2} per delivery)")), "{line}");
    }

    #[test]
    fn narrative_handles_empty_profile() {
        assert!(narrative(&ProfileReport::default(), 3).contains("no spans"));
    }

    #[test]
    fn hist_line_reports_quantile_bounds() {
        let mut h = PowHistogram::new();
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        let line = hist_line("query response", &h, "us");
        assert!(line.contains("n=4"), "{line}");
        assert!(line.contains("max=100us"), "{line}");
        assert!(hist_line("empty", &PowHistogram::new(), "us").contains("empty"));
    }
}
