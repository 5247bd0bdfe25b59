//! Pinned trace digests for the protocol paths the BF-only golden
//! (`crates/bench/golden/trace_query.jsonl`) never exercises: the DF token
//! walk with salvage, the attack/defense events, and the delta-monitoring
//! protocol. Each scenario is the `trace_query` recipe (3×3 frozen grid,
//! fixed seed, full tracing, zero-drift proven first) with one axis
//! changed; the assertion is the line count plus the FNV-1a-64 hash of the
//! exported JSONL. On a mismatch the JSONL is written under `target/` so
//! two trees can be diffed line by line.
//!
//! Regenerate a digest only after an *intentional* protocol or
//! trace-schema change, and review the JSONL diff like any other
//! behavioural change.

use datagen::Distribution;
use dist_skyline::config::{DefenseConfig, FilterStrategy, Forwarding, StrategyConfig};
use dist_skyline::cost_model::DeviceCostModel;
use dist_skyline::monitor::{
    run_monitor_experiment, verify_monitor_drift, MonitorExperiment, MonitorMode,
};
use dist_skyline::runtime::{run_experiment, ManetExperiment};
use dist_skyline::{trace_to_jsonl, verify_zero_drift, TraceConfig};
use manet_sim::{
    AttackKind, AttackPlan, AttackRole, ChurnConfig, FaultPlan, QueryTraceLog, SimDuration, SimTime,
};
use skyline_core::vdr::BoundsMode;

const SEED: u64 = 0x7ACE;
const SIM_SECONDS: f64 = 300.0;

/// The `trace_query` recipe without its fault plan.
fn recipe() -> ManetExperiment {
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
    exp
}

fn churn_30() -> FaultPlan {
    FaultPlan::random_churn(&ChurnConfig {
        nodes: 9,
        churn_fraction: 0.3,
        earliest: SimTime::from_secs_f64(5.0),
        latest: SimTime::from_secs_f64(SIM_SECONDS * 0.8),
        min_downtime: SimDuration::from_secs_f64(30.0),
        max_downtime: SimDuration::from_secs_f64(90.0),
        protect: Vec::new(),
        seed: SEED ^ 0xFA11,
    })
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

/// Asserts the digest of `log`; on mismatch dumps the JSONL for diffing.
fn assert_digest(name: &str, log: &QueryTraceLog, must_contain: &[&str], lines: usize, hash: u64) {
    let jsonl = trace_to_jsonl(log);
    for event in must_contain {
        assert!(
            jsonl.contains(&format!("\"event\":\"{event}\"")),
            "{name}: scenario no longer exercises `{event}` — the digest would pin nothing"
        );
    }
    let got = (jsonl.lines().count(), fnv1a64(jsonl.as_bytes()));
    if got != (lines, hash) {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/trace_digests");
        let path = format!("{dir}/{name}.jsonl");
        let dumped = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &jsonl));
        panic!(
            "{name}: trace drifted — got {} lines / fnv1a64 {:#018x}, pinned {lines} / {hash:#018x} \
             (JSONL dump: {path}, write {dumped:?})",
            got.0, got.1
        );
    }
}

#[test]
fn df_walk_under_churn_and_loss_is_pinned() {
    let mut exp = recipe();
    exp.forwarding = Forwarding::DepthFirst;
    exp.fault_plan = Some(churn_30());
    let out = run_experiment(&exp);
    verify_zero_drift(&out).expect("DF scenario drifted");
    assert_digest(
        "df_churn_loss",
        out.query_trace.as_ref().expect("traced"),
        &["token_sent", "token_salvaged", "arq_retry", "delivery_failed", "duplicate_suppressed"],
        269,
        0xa91c_3cf2_87bb_8956,
    );
}

/// The 10 % scenario above never exhausts a token's retries, so its
/// salvages are all routing failures. At 40 % loss the ARQ-exhaustion
/// salvage (which, unlike the routing one, leaves the dead hop out of
/// `DfToken::skipped`) dominates.
#[test]
fn df_walk_under_heavy_loss_exhausts_arq_and_is_pinned() {
    let mut exp = recipe();
    exp.forwarding = Forwarding::DepthFirst;
    exp.radio.loss_probability = 0.4;
    let out = run_experiment(&exp);
    verify_zero_drift(&out).expect("heavy-loss DF scenario drifted");
    assert_digest(
        "df_heavy_loss",
        out.query_trace.as_ref().expect("traced"),
        &["arq_exhausted", "token_salvaged", "delivery_failed"],
        1857,
        0x169d_dda5_6872_55c0,
    );
}

#[test]
fn bf_under_attack_with_all_defenses_is_pinned() {
    let mut exp = recipe();
    exp.dist.defense = DefenseConfig::all();
    let role = |node, kind, spoof| AttackRole {
        node,
        kind,
        from: SimTime::from_secs_f64(5.0),
        until: SimTime::from_secs_f64(SIM_SECONDS + 400.0),
        period: SimDuration::from_secs_f64(1.0),
        sybil_k: 6,
        spoof,
    };
    // One attacker of each kind, so every defense has something to refuse.
    exp.attack_plan = Some(
        AttackPlan::new()
            .assign(role(2, AttackKind::QueryFlood, true))
            .assign(role(4, AttackKind::FilterPoison, false))
            .assign(role(7, AttackKind::Sybil, false)),
    );
    let out = run_experiment(&exp);
    verify_zero_drift(&out).expect("attack scenario drifted");
    assert_digest(
        "bf_attack_defense",
        out.query_trace.as_ref().expect("traced"),
        &["attack_frame_sent", "attack_frame_dropped", "reputation_penalty", "filter_rejected"],
        3673,
        0x692b_4fdc_9404_a0e8,
    );
}

#[test]
fn continuous_monitoring_under_loss_is_pinned() {
    let mut exp = MonitorExperiment::defaults(3, MonitorMode::Continuous, SEED);
    exp.frozen = true;
    exp.radio.range_m = 400.0;
    exp.radio.loss_probability = 0.1;
    exp.duration_s = SIM_SECONDS;
    let out = run_monitor_experiment(&exp);
    verify_monitor_drift(&out).expect("monitor scenario drifted");
    assert_digest(
        "monitor_continuous_loss",
        out.query_trace.as_ref().expect("traced"),
        &["registered", "delta_sent", "delta_applied", "arq_retry", "cancelled"],
        105,
        0xf063_3e7b_7f0e_0f56,
    );
}
