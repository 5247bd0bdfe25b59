//! **Observability demo**: replay one fixed-seed query mix under a fault
//! plan and reconstruct a per-query timeline from the trace subsystem.
//!
//! The scenario is deliberately small and fully pinned — a 3×3 frozen
//! grid, 1 200 tuples, one query per device, 30 % churn plus 10 % frame
//! loss, the EXT dynamic-filter strategy with ARQ on — so the exported
//! JSONL is byte-stable across machines and `--jobs` settings and can be
//! diffed against the committed golden
//! (`crates/bench/golden/trace_query.jsonl`). Every run first proves the
//! zero-drift invariant ([`dist_skyline::verify_zero_drift`]): the
//! timeline shown is the same history the scorecard counted, exactly.
//!
//! Usage: `msq trace [--query O:C] [--jsonl PATH] [--csv PATH]`

use datagen::Distribution;
use dist_skyline::config::{FilterStrategy, StrategyConfig, TraceConfig};
use dist_skyline::cost_model::DeviceCostModel;
use dist_skyline::runtime::{run_experiment, ManetExperiment, ManetOutcome};
use dist_skyline::{query_ids, timeline_for, verify_zero_drift};
use manet_sim::{ChurnConfig, FaultPlan, QueryId, QueryTraceLog, SimDuration, SimTime};
use skyline_core::vdr::BoundsMode;

/// Master seed of the pinned scenario.
pub const SEED: u64 = 0x7ACE;

/// Simulated seconds (the drain margin is added by `run_experiment`).
pub const SIM_SECONDS: f64 = 300.0;

/// The pinned scenario: every parameter fixed, nothing scale-dependent.
pub fn experiment() -> ManetExperiment {
    let mut exp = ManetExperiment::paper_defaults(
        3,
        1_200,
        2,
        Distribution::Independent,
        f64::INFINITY,
        SEED,
    );
    exp.strategy = StrategyConfig {
        filter: FilterStrategy::Dynamic,
        bounds_mode: BoundsMode::Exact,
        exact_bounds: vec![1000.0; 2],
        ..StrategyConfig::default()
    };
    exp.frozen = true;
    exp.radio.range_m = 400.0;
    exp.radio.loss_probability = 0.1;
    exp.sim_seconds = SIM_SECONDS;
    exp.queries_per_device = (1, 1);
    exp.cost = DeviceCostModel::free();
    exp.dist.trace = TraceConfig::full();
    exp.fault_plan = Some(FaultPlan::random_churn(&ChurnConfig {
        nodes: 9,
        churn_fraction: 0.3,
        earliest: SimTime::from_secs_f64(5.0),
        latest: SimTime::from_secs_f64(SIM_SECONDS * 0.8),
        min_downtime: SimDuration::from_secs_f64(30.0),
        max_downtime: SimDuration::from_secs_f64(90.0),
        protect: Vec::new(),
        seed: SEED ^ 0xFA11,
    }));
    exp
}

/// Runs the pinned scenario and proves the zero-drift invariant.
///
/// # Panics
/// When the trace disagrees with the runtime's counters — that is a bug,
/// not a configuration problem.
pub fn run() -> ManetOutcome {
    let out = run_experiment(&experiment());
    if let Err(e) = verify_zero_drift(&out) {
        panic!("zero-drift violation: {e}");
    }
    out
}

/// The query the report narrates by default: the one with the most events
/// (ties broken by id), i.e. the most eventful life under the fault plan.
pub fn focus_query(log: &QueryTraceLog) -> Option<QueryId> {
    let ids = query_ids(log);
    ids.into_iter()
        .map(|id| (timeline_for(log, id).records.len(), id))
        .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
        .map(|(_, id)| id)
}

/// Renders the run report: drift status, the per-query index, and the
/// focus query's hop-by-hop timeline.
pub fn report(out: &ManetOutcome, focus: Option<QueryId>) -> String {
    use std::fmt::Write as _;
    let log = out.query_trace.as_ref().expect("scenario enables tracing");
    let mut s = String::new();
    let _ = writeln!(
        s,
        "trace_query: seed {SEED:#x}, {} queries, {} trace records, zero-drift OK",
        out.records.len(),
        log.records.len()
    );
    let _ = writeln!(
        s,
        "faults: {} crashes / {} revivals; arq retries {}, duplicates {}, delivery failures {}",
        out.net.node_crashes,
        out.net.node_revivals,
        out.arq_retries,
        out.duplicates_suppressed,
        out.delivery_failures
    );
    let _ = writeln!(s);
    for id in query_ids(log) {
        let tl = timeline_for(log, id);
        let sum = tl.summary();
        let _ = writeln!(
            s,
            "  query {}:{} — {} events over {:.3}s",
            id.origin,
            id.cnt,
            tl.records.len(),
            sum.duration_s
        );
    }
    let focus = focus.or_else(|| focus_query(log));
    if let Some(id) = focus {
        let _ = writeln!(s);
        s.push_str(&timeline_for(log, id).render());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep;
    use dist_skyline::trace_to_jsonl;

    /// The committed golden: the exact JSONL export of the pinned
    /// scenario. Regenerate after *intentional* protocol or trace-schema
    /// changes with
    /// `cargo run --release -p msq-bench --bin msq -- trace \
    ///  --jsonl crates/bench/golden/trace_query.jsonl`
    /// and review the diff like any other behavioral change.
    #[test]
    fn golden_trace_is_reproduced() {
        let out = run();
        let jsonl = trace_to_jsonl(out.query_trace.as_ref().expect("traced"));
        let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/trace_query.jsonl");
        let golden = std::fs::read_to_string(golden_path)
            .unwrap_or_else(|e| panic!("missing golden {golden_path}: {e}"));
        assert!(
            jsonl == golden,
            "trace JSONL drifted from the golden — if the protocol change is \
             intentional, regenerate with `msq trace --jsonl` (see test doc)"
        );
    }

    /// The sweep harness's `--jobs` guarantee extends to trace exports:
    /// running cells on 1 thread and on 4 yields byte-identical JSONL.
    #[test]
    fn trace_export_is_bit_identical_across_jobs() {
        let cells: Vec<f64> = vec![0.0, 0.05, 0.1, 0.15];
        let export = |loss: &f64| {
            let mut exp = experiment();
            exp.radio.loss_probability = *loss;
            let out = run_experiment(&exp);
            trace_to_jsonl(&out.query_trace.expect("traced"))
        };
        let sequential = sweep::parallel_map(&cells, 1, export);
        let parallel = sweep::parallel_map(&cells, 4, export);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn focus_query_is_deterministic_and_report_renders() {
        let out = run();
        let log = out.query_trace.as_ref().expect("traced");
        let a = focus_query(log).expect("queries exist");
        let b = focus_query(log).expect("queries exist");
        assert_eq!(a, b);
        let text = report(&out, None);
        assert!(text.contains("zero-drift OK"));
        assert!(text.contains(&format!("query {}:{}", a.origin, a.cnt)));
        assert!(text.contains("-- duration"));
    }
}
