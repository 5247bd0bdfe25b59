//! Tracing acceptance tests: the zero-drift invariant on the chaos grid.
//!
//! The trace subsystem is only trustworthy if it is *exact*: every
//! aggregate the runtime reports must be reconstructible from the event
//! log with equality, for every strategy, under churn and loss. Any
//! divergence ("drift") between the narrative and the counters is a bug.

use datagen::Distribution;
use dist_skyline::config::{DistConfig, FilterStrategy, Forwarding, StrategyConfig, TraceConfig};
use dist_skyline::cost_model::DeviceCostModel;
use dist_skyline::runtime::{run_experiment, ManetExperiment};
use dist_skyline::{query_ids, timeline_for, trace_to_jsonl, verify_zero_drift};
use manet_sim::{ChurnConfig, FaultPlan, QueryEvent, SimDuration, SimTime, TraceEvent};
use skyline_core::vdr::BoundsMode;

const SIM_SECONDS: f64 = 600.0;

fn base(fwd: Forwarding) -> ManetExperiment {
    let mut exp = ManetExperiment::paper_defaults(
        4,
        4_000,
        2,
        Distribution::Independent,
        f64::INFINITY,
        0xC4A0,
    );
    exp.forwarding = fwd;
    exp.frozen = true;
    exp.radio.range_m = 400.0;
    exp.sim_seconds = SIM_SECONDS;
    exp.queries_per_device = (1, 1);
    exp.cost = DeviceCostModel::free();
    exp
}

fn churn_plan(seed: u64, fraction: f64) -> FaultPlan {
    FaultPlan::random_churn(&ChurnConfig {
        nodes: 16,
        churn_fraction: fraction,
        earliest: SimTime::from_secs_f64(5.0),
        latest: SimTime::from_secs_f64(SIM_SECONDS * 0.8),
        min_downtime: SimDuration::from_secs_f64(60.0),
        max_downtime: SimDuration::from_secs_f64(180.0),
        protect: Vec::new(),
        seed,
    })
}

fn filtering(mode: BoundsMode) -> StrategyConfig {
    StrategyConfig {
        filter: FilterStrategy::Dynamic,
        bounds_mode: mode,
        exact_bounds: vec![1000.0; 2],
        ..StrategyConfig::default()
    }
}

fn arms() -> Vec<(&'static str, Forwarding, StrategyConfig)> {
    vec![
        (
            "straightforward",
            Forwarding::BreadthFirst,
            StrategyConfig {
                filter: FilterStrategy::NoFilter,
                exact_bounds: vec![1000.0; 2],
                ..StrategyConfig::default()
            },
        ),
        ("EXT", Forwarding::BreadthFirst, filtering(BoundsMode::Exact)),
        ("OVE", Forwarding::BreadthFirst, filtering(BoundsMode::Over)),
        ("UNE", Forwarding::BreadthFirst, filtering(BoundsMode::Under)),
        ("EXT-DF", Forwarding::DepthFirst, filtering(BoundsMode::Exact)),
    ]
}

/// Zero drift on the chaos acceptance grid: for every strategy arm, under
/// 20 % churn plus 10 % frame loss, the trace-derived aggregates exactly
/// equal the runtime's counters — including the frame-level NetStats
/// reconstruction and the per-query scorecard copy-checks.
#[test]
fn zero_drift_holds_for_every_strategy_under_chaos() {
    for (name, fwd, strategy) in arms() {
        let mut exp = base(fwd);
        exp.strategy = strategy;
        exp.radio.loss_probability = 0.1;
        exp.fault_plan = Some(churn_plan(0xFA11, 0.2));
        exp.dist.trace = TraceConfig::full();
        let out = run_experiment(&exp);
        assert!(out.net.node_crashes > 0, "{name}: churn must actually fire");
        let agg = verify_zero_drift(&out).unwrap_or_else(|e| panic!("{name}: drift: {e}"));
        assert_eq!(agg.issued as usize, out.records.len(), "{name}: one issue per record");
        assert!(agg.issued > 0, "{name}: trace must not be empty");
    }
}

/// Zero drift also on a quiet network (no faults, no loss) — the baseline
/// case where every message should pair up cleanly.
#[test]
fn zero_drift_holds_without_faults() {
    for (name, fwd, strategy) in arms() {
        let mut exp = base(fwd);
        exp.strategy = strategy;
        exp.dist.trace = TraceConfig::full();
        let out = run_experiment(&exp);
        verify_zero_drift(&out).unwrap_or_else(|e| panic!("{name}: drift: {e}"));
    }
}

/// The verifier actually detects drift: perturbing any counter after the
/// run must fail the check.
#[test]
fn verifier_detects_injected_drift() {
    let mut exp = base(Forwarding::BreadthFirst);
    exp.strategy = filtering(BoundsMode::Exact);
    exp.radio.loss_probability = 0.1;
    exp.fault_plan = Some(churn_plan(0xFA11, 0.2));
    exp.dist.trace = TraceConfig::full();
    let mut out = run_experiment(&exp);
    verify_zero_drift(&out).expect("clean run must verify");

    out.arq_retries += 1;
    let err = verify_zero_drift(&out).expect_err("drifted counter must fail");
    assert!(err.contains("arq_retries"), "error names the drifted counter: {err}");
    out.arq_retries -= 1;

    out.net.frames_sent += 1;
    let err = verify_zero_drift(&out).expect_err("drifted NetStats must fail");
    assert!(err.contains("frames.sent"), "{err}");
    out.net.frames_sent -= 1;

    // One transmission claims a copy the engine never scheduled.
    let clean = out.frame_trace.clone();
    let frames = &mut out.frame_trace.as_mut().expect("frames traced").entries;
    let copies = frames
        .iter_mut()
        .find_map(|(_, e)| match e {
            TraceEvent::FrameSent { copies, .. } => Some(copies),
            _ => None,
        })
        .expect("the run transmitted");
    *copies += 1;
    let err = verify_zero_drift(&out).expect_err("a drifted copy count must fail");
    assert!(err.contains("frames.copies"), "{err}");
    out.frame_trace = clean;
    verify_zero_drift(&out).expect("the untouched log verifies");

    out.records[0].responded += 1;
    let err = verify_zero_drift(&out).expect_err("drifted record must fail");
    assert!(err.contains("query "), "{err}");
    out.records[0].responded -= 1;

    // A lossy ring voids the guarantee loudly and names the knob to raise.
    out.query_trace.as_mut().unwrap().dropped = 3;
    let err = verify_zero_drift(&out).expect_err("dropped records must void the check");
    assert!(err.contains("TraceConfig::per_node_capacity"), "{err}");
}

/// Tracing is opt-in: the default config collects nothing, and the
/// verifier says so instead of vacuously passing.
#[test]
fn tracing_disabled_collects_nothing() {
    let mut exp = base(Forwarding::BreadthFirst);
    exp.strategy = filtering(BoundsMode::Exact);
    assert!(!exp.dist.trace.enabled);
    let out = run_experiment(&exp);
    assert!(out.query_trace.is_none());
    assert!(out.frame_trace.is_none());
    let err = verify_zero_drift(&out).expect_err("an uncollected trace must not verify");
    assert!(err.contains("TraceConfig::enabled"), "{err}");
}

/// Tracing must not perturb the simulation: identical seeds produce
/// bit-identical query records with tracing on and off (the collector
/// observes, it never participates).
#[test]
fn tracing_does_not_change_the_run() {
    let run = |trace: TraceConfig| {
        let mut exp = base(Forwarding::BreadthFirst);
        exp.strategy = filtering(BoundsMode::Exact);
        exp.radio.loss_probability = 0.1;
        exp.fault_plan = Some(churn_plan(0xFA11, 0.2));
        exp.dist.trace = trace;
        run_experiment(&exp)
    };
    let traced = run(TraceConfig::full());
    let plain = run(TraceConfig::default());
    assert_eq!(traced.records, plain.records);
    assert_eq!(traced.net, plain.net);
    assert_eq!(traced.arq_retries, plain.arq_retries);
}

/// The export is deterministic end to end: two identical seeded runs
/// render byte-identical JSONL.
#[test]
fn trace_exports_are_bit_identical_across_runs() {
    let run = || {
        let mut exp = base(Forwarding::BreadthFirst);
        exp.strategy = filtering(BoundsMode::Exact);
        exp.radio.loss_probability = 0.1;
        exp.fault_plan = Some(churn_plan(0xFA11, 0.2));
        exp.dist.trace = TraceConfig::full();
        run_experiment(&exp)
    };
    let a = run().query_trace.expect("traced");
    let b = run().query_trace.expect("traced");
    assert_eq!(trace_to_jsonl(&a), trace_to_jsonl(&b));
}

/// Timelines reconstruct a sensible narrative: every query starts with its
/// issue event, BF queries end with their finalization at the originator,
/// and the DF arm shows token hops.
#[test]
fn timelines_reconstruct_ordered_narratives() {
    for (name, fwd) in [("BF", Forwarding::BreadthFirst), ("DF", Forwarding::DepthFirst)] {
        let mut exp = base(fwd);
        exp.strategy = filtering(BoundsMode::Exact);
        exp.dist.trace = TraceConfig::full();
        let out = run_experiment(&exp);
        let log = out.query_trace.as_ref().expect("traced");
        let ids = query_ids(log);
        assert_eq!(ids.len(), out.records.len(), "{name}");
        let mut saw_token = false;
        for id in ids {
            let tl = timeline_for(log, id);
            assert!(
                matches!(tl.records.first().expect("non-empty").event, QueryEvent::Issued { .. }),
                "{name}: timeline must open with the issue"
            );
            assert!(tl.records.windows(2).all(|w| w[0].seq < w[1].seq), "{name}: order");
            assert!(tl.records.windows(2).all(|w| w[0].at <= w[1].at), "{name}: time monotone");
            saw_token |= tl.records.iter().any(|r| matches!(r.event, QueryEvent::TokenSent { .. }));
            let text = tl.render();
            assert!(text.contains("issued"));
            assert!(text.contains("-- duration"));
        }
        assert_eq!(saw_token, fwd == Forwarding::DepthFirst, "{name}: token hops");
    }
}

/// ARQ recovery shows up in the narrative under loss, and retry events
/// reconcile exactly (already enforced by zero-drift; this pins the
/// qualitative signal).
#[test]
fn arq_recovery_is_visible_under_loss() {
    let mut exp = base(Forwarding::BreadthFirst);
    exp.strategy = filtering(BoundsMode::Exact);
    exp.radio.loss_probability = 0.1;
    exp.dist = DistConfig::default();
    exp.dist.trace = TraceConfig::full();
    let out = run_experiment(&exp);
    assert!(out.arq_retries > 0, "10 % loss must trigger retries");
    let log = out.query_trace.as_ref().expect("traced");
    let retries = log
        .records
        .iter()
        .filter(|r| matches!(r.event, QueryEvent::ArqRetry { .. }))
        .count() as u64;
    assert_eq!(retries, out.arq_retries);
}
