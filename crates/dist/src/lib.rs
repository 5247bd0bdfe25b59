//! # dist-skyline
//!
//! The paper's distributed constrained-skyline query processing (Sections 3
//! and 5.2): query specification, the straightforward and filtering-tuple
//! strategies, exact/over/under dominating-region estimation, dynamic filter
//! updates on multi-hop relays, duplicate-query suppression, breadth-first
//! and depth-first query forwarding, result assembly, and the metrics the
//! paper reports (data reduction rate, response time, message counts).
//!
//! Two runtimes execute the protocol:
//!
//! * [`static_net::StaticGridNetwork`] — the idealized static setting of
//!   the paper's pre-tests (Figs. 6–7): devices on a grid, recursive
//!   outward forwarding, no mobility, optional distance constraint.
//! * [`runtime`] — the full MANET runtime on top of `manet-sim`
//!   (Figs. 8–12): random-waypoint mobility, AODV routing, BF/DF
//!   forwarding, the 80 % response-time rule, and per-query accounting.
//!
//! ## Where things live
//!
//! * protocol building blocks — [`query`], [`config`], [`device`],
//!   [`cost_model`], [`metrics`];
//! * `arq` (crate-private) — the one per-hop ARQ, used by both
//!   [`runtime`] and [`monitor`];
//! * [`runtime`] — `mod.rs` the device state machine, `msg.rs` wire
//!   messages, `handoff.rs` data redistribution, `adversary.rs` attack
//!   roles and defenses, `experiment.rs` the harness and `QueryRecord`;
//! * [`monitor`] — `mod.rs` the standing-query delta protocol,
//!   `experiment.rs` its harness and drift verifier;
//! * [`serve`] — the skyline-diagram serving front end;
//! * [`trace`], [`verify`] — timelines, zero-drift reconciliation, oracle
//!   scoring.

mod arq;
pub mod config;
pub mod cost_model;
pub mod device;
pub mod metrics;
pub mod monitor;
pub mod query;
pub mod runtime;
pub mod serve;
pub mod static_net;
pub mod trace;
pub mod verify;

pub use config::{
    DefenseConfig, DistConfig, FilterStrategy, Forwarding, ObsConfig, StrategyConfig, TraceConfig,
};
pub use device::Device;
pub use metrics::{DrrAccumulator, QueryMetrics};
pub use monitor::{
    run_monitor_experiment, verify_monitor_drift, EpochView, MonMsg, MonitorApp, MonitorConfig,
    MonitorExperiment, MonitorMode, MonitorOutcome,
};
pub use query::{QueryKey, QuerySpec};
pub use runtime::{QueryRecord, TimeoutCause};
pub use serve::{verify_serve_drift, ServeConfig, ServeEngine, ServeStats, ServedAnswer};
pub use trace::{
    query_ids, timeline_for, trace_to_jsonl, verify_zero_drift, LatencyStats, PhaseStat,
    QueryTimeline, TimelineSummary, TraceAggregates,
};
pub use verify::{
    diff_against_truth, score_epoch, score_records, verify_static_query, SpuriousSite,
    VerificationReport,
};

/// The splitmix64 finalizer — the crate's one deterministic hash, behind
/// ARQ jitter and the monitoring harness's site offsets.
pub(crate) fn splitmix64(mut h: u64) -> u64 {
    h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}
