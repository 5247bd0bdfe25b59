//! The metric registry, the percentile helper and the result line.
//!
//! Every number the benchmark prints is declared here once: its name,
//! unit, direction, whether the driver holds it to a bound
//! (`end_to_end`) or not (`per_layer`), and whether it is a pure function
//! of the seed (`det`) or host time. `BENCHMARK.json` at the repository
//! root lists exactly these names; a unit test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Where a metric is reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Class {
    /// Printed with `--trace 0`, on every workload; the driver rejects a
    /// change that worsens it by more than `bound` of the parent's median.
    EndToEnd { bound: f64 },
    /// Printed with `--trace 1`. `gate` is the bound `--repeat-check`
    /// still holds the metric to (the user-visible metrics that apply to
    /// some workloads only and so cannot sit in `end_to_end`).
    Layer { gate: Option<f64> },
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub class: Class,
    /// Bit-identical between two runs of the same code and seed.
    pub det: bool,
}

use Better::{Higher, Lower};

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    det: bool,
) -> MetricDef {
    MetricDef { name, unit, better, class: Class::EndToEnd { bound }, det }
}

/// A user-visible metric that only some workloads have.
const fn gated(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    det: bool,
) -> MetricDef {
    MetricDef { name, unit, better, class: Class::Layer { gate: Some(bound) }, det }
}

/// A host-time layer metric (volatile).
const fn time(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Lower, class: Class::Layer { gate: None }, det: false }
}

/// A deterministic layer counter or ratio.
const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, class: Class::Layer { gate: None }, det: true }
}

/// The eight `local_scan` relation classes, in op order.
pub const CLASSES: [&str; 8] = [
    "storage.scan.p50_us.d2_in",
    "storage.scan.p50_us.d2_ac",
    "storage.scan.p50_us.d3_in",
    "storage.scan.p50_us.d3_ac",
    "storage.scan.p50_us.d4_in",
    "storage.scan.p50_us.d4_ac",
    "storage.scan.p50_us.d5_in",
    "storage.scan.p50_us.d5_ac",
];

/// Every metric, end-to-end first. Order is print order.
pub const METRICS: &[MetricDef] = &[
    // ---- end to end: defined on all six workloads ----
    // Host-time bounds are what ten seeds on a shared 2-core VM support:
    // its run-to-run drift alone spreads a wall time by 5-15 %.
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("wall_s", "s", Lower, 0.25, false),
    e2e("op_p50_us", "us", Lower, 0.25, false),
    e2e("peak_rss_mb", "MB", Lower, 0.25, false),
    e2e("completeness", "ratio", Higher, 0.005, true),
    // ---- user-visible, but only some workloads have them ----
    gated("tx_bytes_per_op", "B", Lower, 0.02, true),
    gated("op_p99_us", "us", Lower, 0.15, false),
    gated("op_p95_us", "us", Lower, 0.15, false),
    gated("sim_resp_p50_s", "s", Lower, 0.05, true),
    gated("sim_resp_p95_s", "s", Lower, 0.05, true),
    gated("drr", "ratio", Higher, 0.02, true),
    gated("view_completeness", "ratio", Higher, 0.02, true),
    gated("view_staleness_s", "s", Lower, 0.02, true),
    gated("hit_ratio", "ratio", Higher, 0.02, true),
    gated("stale_age_mean", "epochs", Lower, 0.02, true),
    // ---- set-up phases ----
    time("datagen.generate_s", "s"),
    time("datagen.partition_s", "s"),
    time("storage.build_s", "s"),
    // ---- device_storage ----
    time("storage.scan.busy_s", "s"),
    count("storage.scan.calls", "count", Lower),
    time("storage.scan.ns_per_tuple", "ns"),
    time(CLASSES[0], "us"),
    time(CLASSES[1], "us"),
    time(CLASSES[2], "us"),
    time(CLASSES[3], "us"),
    time(CLASSES[4], "us"),
    time(CLASSES[5], "us"),
    time(CLASSES[6], "us"),
    time(CLASSES[7], "us"),
    count("storage.scan.tuples_scanned", "count", Lower),
    count("storage.scan.in_range", "count", Lower),
    count("storage.scan.id_comparisons", "count", Lower),
    count("storage.scan.value_comparisons", "count", Lower),
    count("storage.scan.skipped", "count", Higher),
    // ---- skyline_core ----
    time("core.merge.busy_s", "s"),
    count("core.merge.inserts", "count", Lower),
    count("core.merge.kept_ratio", "ratio", Higher),
    count("core.block_bnl.calls", "count", Lower),
    time("core.block_bnl.incl_s", "s"),
    count("core.block_sfs.calls", "count", Lower),
    time("core.block_sfs.incl_s", "s"),
    // Differs between processes on `monitor_churn` (3 382 to 3 387 calls
    // over five runs) while every outcome counter stays equal, so it is
    // not held to bit-identity.
    MetricDef {
        name: "core.live.apply_calls",
        unit: "count",
        better: Lower,
        class: Class::Layer { gate: None },
        det: false,
    },
    time("core.live.incl_s", "s"),
    count("core.diagram.materialize_calls", "count", Lower),
    time("core.diagram.materialize_incl_s", "s"),
    count("core.diagram.invalidate_calls", "count", Lower),
    time("core.diagram.invalidate_incl_s", "s"),
    count("core.diagram.cells_touched", "count", Lower),
    count("core.diagram.cells_skipped", "count", Higher),
    count("core.diagram.touch_ratio", "ratio", Lower),
    // ---- manet_sim ----
    count("manet.frames_sent", "count", Lower),
    count("manet.bytes_sent", "B", Lower),
    count("manet.frames_lost", "count", Lower),
    count("manet.unicast_delivery_ratio", "ratio", Higher),
    count("manet.data_drops_forwarded", "count", Lower),
    count("manet.energy_j_per_op", "J", Lower),
    count("manet.aodv.frames", "count", Lower),
    count("manet.aodv.frames_per_device", "count", Lower),
    count("manet.aodv.share", "ratio", Lower),
    count("manet.aodv.on_frame_calls", "count", Lower),
    time("manet.aodv.on_frame_incl_s", "s"),
    count("manet.aodv.route_lookup_calls", "count", Lower),
    count("manet.aodv.send_calls", "count", Lower),
    count("manet.radio.deliver_calls", "count", Lower),
    time("manet.radio.deliver_incl_s", "s"),
    count("manet.radio.tx_calls", "count", Lower),
    time("manet.radio.tx_incl_s", "s"),
    count("manet.radio.fanout", "ratio", Lower),
    count("manet.grid.query_calls", "count", Lower),
    count("manet.grid.query_units", "count", Lower),
    time("manet.grid.query_incl_s", "s"),
    count("manet.grid.sweep_calls", "count", Lower),
    time("manet.grid.probe_ns_per_query", "ns"),
    count("manet.events.cascade_calls", "count", Lower),
    count("manet.events.cascade_units", "count", Lower),
    time("manet.events.cascade_incl_s", "s"),
    time("manet.events.probe_ns_per_op", "ns"),
    time("manet.floor_s", "s"),
    time("manet.ns_per_delivery", "ns"),
    // ---- dist_skyline::runtime ----
    MetricDef {
        name: "dist.data_share",
        unit: "ratio",
        better: Higher,
        class: Class::Layer { gate: None },
        det: false,
    },
    time("dist.bf.wall_s", "s"),
    time("dist.df.wall_s", "s"),
    count("dist.bf.queries", "count", Higher),
    count("dist.df.queries", "count", Higher),
    count("dist.df.sim_resp_p50_s", "s", Lower),
    count("dist.forward_msgs_per_op", "count", Lower),
    count("dist.result_msgs_per_op", "count", Lower),
    count("dist.arq_retries", "count", Lower),
    count("dist.arq_exhausted", "count", Lower),
    count("dist.dups_suppressed", "count", Lower),
    count("dist.delivery_failures", "count", Lower),
    count("dist.reissues", "count", Lower),
    count("dist.timeouts", "count", Lower),
    // ---- dist_skyline::monitor ----
    count("dist.monitor.epochs", "count", Higher),
    count("dist.monitor.msgs_per_epoch", "count", Lower),
    count("dist.monitor.deltas_sent", "count", Lower),
    count("dist.monitor.heartbeats", "count", Lower),
    count("dist.monitor.deltas_applied", "count", Higher),
    count("dist.monitor.apply_ratio", "ratio", Higher),
    count("dist.monitor.arq_retries", "count", Lower),
    count("dist.monitor.arq_exhausted", "count", Lower),
    count("dist.monitor.fold_remove_misses", "count", Lower),
    count("dist.monitor.spurious_per_view", "count", Lower),
    // ---- dist_skyline::serve ----
    count("dist.serve.lookups", "count", Higher),
    count("dist.serve.misses", "count", Lower),
    count("dist.serve.evictions", "count", Lower),
    count("dist.serve.invalidations", "count", Lower),
    count("dist.serve.backfills", "count", Lower),
    time("dist.serve.batch_s", "s"),
    time("dist.serve.ns_per_lookup", "ns"),
    time("dist.serve.lookup_incl_s", "s"),
    time("dist.serve.cold_batch_p50_us", "us"),
    time("dist.serve.ingest_s", "s"),
    time("dist.serve.ingest_p50_ms", "ms"),
    time("dist.serve.ingest_p95_ms", "ms"),
    // ---- the instrument itself ----
    MetricDef {
        name: "obs.trace_overhead_frac",
        unit: "ratio",
        better: Lower,
        class: Class::Layer { gate: None },
        det: false,
    },
    // Grows with the traced reps the budget allowed, so not deterministic.
    MetricDef {
        name: "obs.spans_recorded",
        unit: "count",
        better: Lower,
        class: Class::Layer { gate: None },
        det: false,
    },
    count("obs.trace_events", "count", Lower),
    count("obs.trace_dropped", "count", Lower),
];

/// The definition of `name`.
///
/// # Panics
/// Panics on an undeclared name: every reported number must be in
/// [`METRICS`], or `BENCHMARK.json` would not list it.
pub fn def(name: &str) -> &'static MetricDef {
    METRICS
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared in METRICS"))
}

/// Median, tail and count of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub median: f64,
    pub max: f64,
    /// The highest of p90/p95/p99/p99.9 with at least ten samples beyond
    /// it, as `(percent, value)`; `None` under 100 samples.
    pub tail: Option<(f64, f64)>,
}

/// Nearest-rank percentile of an ascending sample (`q` in `0..=1`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` and summarizes them.
pub fn summarize(samples: &mut [f64]) -> Summary {
    assert!(!samples.is_empty(), "summary of an empty sample");
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let beyond = |q: f64| n - (q * n as f64).ceil() as usize;
    let tail = [0.999, 0.99, 0.95, 0.90]
        .into_iter()
        .find(|&q| beyond(q) >= 10)
        .map(|q| (q * 100.0, percentile(samples, q)));
    Summary { n, min: samples[0], median: percentile(samples, 0.5), max: samples[n - 1], tail }
}

/// Median of an unsorted sample.
pub fn median(mut samples: Vec<f64>) -> f64 {
    summarize(&mut samples).median
}

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub value: f64,
    /// Samples behind the value (reps, ops or calls).
    pub n: usize,
    /// Free text printed beside it: per-rep values, min and max.
    pub note: String,
}

/// The values one run reports, by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    pub values: BTreeMap<&'static str, Value>,
}

impl Report {
    /// Records `value` for `name`, backed by `n` samples.
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        self.set_noted(name, value, n, String::new());
    }

    /// [`set`](Self::set) with a note.
    pub fn set_noted(&mut self, name: &'static str, value: f64, n: usize, note: String) {
        def(name); // refuse undeclared names where they are produced
        self.values.insert(name, Value { value, n, note });
    }

    /// Records the median of `samples` with its per-sample note.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        let s = summarize(&mut samples.to_vec());
        let mut note = format!("min={:.4} max={:.4}", s.min, s.max);
        if samples.len() <= 12 {
            let each: Vec<String> = samples.iter().map(|v| format!("{v:.4}")).collect();
            let _ = write!(note, " each=[{}]", each.join(" "));
        }
        self.set_noted(name, s.median, s.n, note);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.value)
    }

    /// The human-readable lines: `workload  metric  value  unit  n=<samples>`.
    /// Only metrics this run produced are printed, so a layer a workload
    /// never enters has no line.
    pub fn render(&self, workload: &str) -> String {
        let mut out = String::new();
        for m in METRICS {
            if let Some(v) = self.values.get(m.name) {
                let _ = writeln!(
                    out,
                    "{workload:<14} {:<34} {:>16.6} {:<6} n={} {}",
                    m.name, v.value, m.unit, v.n, v.note
                );
            }
        }
        out
    }

    /// The driver's result line. With `trace` off it carries every
    /// end-to-end metric (all must be present); with it on, every
    /// per-layer metric, `0` for a layer the workload does not enter.
    pub fn result_line(&self, trace: bool, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        let mut first = true;
        for m in METRICS {
            let wanted = matches!(m.class, Class::Layer { .. }) == trace;
            if !wanted {
                continue;
            }
            let value = match self.values.get(m.name) {
                Some(v) => v.value,
                None if trace => 0.0,
                None => panic!("end-to-end metric {} was not measured", m.name),
            };
            assert!(value.is_finite(), "metric {} is not finite: {value}", m.name);
            let sep = if first { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
            first = false;
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_obs::JsonValue;

    #[test]
    fn summary_reports_median_supported_tail_and_count() {
        let mut s: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let sum = summarize(&mut s);
        assert_eq!((sum.n, sum.min, sum.median, sum.max), (1000, 1.0, 500.0, 1000.0));
        // p99.9 leaves one sample beyond it, p99 leaves ten.
        assert_eq!(sum.tail, Some((99.0, 990.0)));
        assert_eq!(
            summarize(&mut (1..=200).map(f64::from).collect::<Vec<_>>()).tail,
            Some((95.0, 190.0))
        );
        assert_eq!(
            summarize(&mut (1..=100).map(f64::from).collect::<Vec<_>>()).tail,
            Some((90.0, 90.0))
        );
        assert_eq!(summarize(&mut [3.0, 1.0, 2.0]).tail, None);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        let ok = |s: &str, extra: &str| {
            !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in METRICS {
            assert!(ok(m.name, "_.-") && m.name.len() <= 64, "bad name {}", m.name);
            assert!(ok(m.unit, "_/%.-") && m.unit.len() <= 16, "bad unit {}", m.unit);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            if let Class::EndToEnd { bound } = m.class {
                assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
            }
        }
        let e2e = METRICS.iter().filter(|m| matches!(m.class, Class::EndToEnd { .. })).count();
        assert!((1..=16).contains(&e2e), "{e2e} end-to-end metrics");
        assert!((1..=128).contains(&(METRICS.len() - e2e)), "{} per-layer", METRICS.len() - e2e);
        let setup = def("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
    }

    #[test]
    fn result_line_parses_and_carries_the_right_half() {
        let mut r = Report::default();
        for m in METRICS.iter().filter(|m| matches!(m.class, Class::EndToEnd { .. })) {
            r.set(m.name, 1.25, 3);
        }
        r.set("manet.frames_sent", 7.0, 1);
        for trace in [false, true] {
            let line = r.result_line(trace, true, 10, 0);
            let v = JsonValue::parse(&line).expect("result line is JSON");
            assert_eq!(v.get("correct").and_then(JsonValue::as_bool), Some(true));
            assert_eq!(v.get("attempted").and_then(JsonValue::as_u64), Some(10));
            let metrics = v.get("metrics").and_then(JsonValue::as_object).expect("metrics object");
            let want = METRICS
                .iter()
                .filter(|m| matches!(m.class, Class::Layer { .. }) == trace)
                .count();
            assert_eq!(metrics.len(), want);
            for (name, m) in metrics {
                assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some(def(name).unit));
                assert!(m.get("value").and_then(JsonValue::as_f64).is_some());
            }
        }
        let layers = JsonValue::parse(&r.result_line(true, true, 1, 0)).unwrap();
        let sent = layers.get("metrics").unwrap().get("manet.frames_sent").unwrap();
        assert_eq!(sent.get("value").and_then(JsonValue::as_f64), Some(7.0));
    }

    /// `BENCHMARK.json` is what the driver reads; it must list exactly
    /// what the program prints.
    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = JsonValue::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
                    (s("name"), s("unit"), s("better"), m.get("bound").and_then(JsonValue::as_f64))
                })
                .collect()
        };
        let declared = |layer: bool| -> Vec<(String, String, String, Option<f64>)> {
            METRICS
                .iter()
                .filter(|m| matches!(m.class, Class::Layer { .. }) == layer)
                .map(|m| {
                    let better = if m.better == Lower { "lower" } else { "higher" };
                    let bound = match m.class {
                        Class::EndToEnd { bound } => Some(bound),
                        Class::Layer { .. } => None,
                    };
                    (m.name.to_string(), m.unit.to_string(), better.to_string(), bound)
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), declared(false));
        assert_eq!(listed("per_layer"), declared(true));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
