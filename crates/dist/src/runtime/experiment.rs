//! The experiment harness of the one-shot runtime (Section 5.2 of the
//! paper): the run description, the per-query record every originator
//! keeps, and the aggregation of those records and the per-device counters
//! into a [`ManetOutcome`].

use device_storage::HybridRelation;
use manet_sim::engine::{Application, NeighborMode, Simulator};
use manet_sim::mobility::MobilityConfig;
use manet_sim::radio::RadioConfig;
use manet_sim::{
    AttackKind, FrameTraceLog, NetStats, NodeId, Pos, QueryTraceLog, SimDuration, SimTime,
};
use sim_obs::{GaugeLog, GaugeSet, PowHistogram};
use skyline_core::region::Point;
use skyline_core::Tuple;

use super::{token, DeviceApp, ProtoMsg};
use crate::config::{DistConfig, Forwarding, ObsConfig, StrategyConfig, TraceConfig};
use crate::cost_model::DeviceCostModel;
use crate::metrics::DrrAccumulator;
use crate::query::QueryKey;

/// Gauge sampling period (simulated time) when [`ObsConfig::gauges`] is on.
const GAUGE_PERIOD: SimDuration = SimDuration::from_millis(10_000);

/// Ring capacity (samples) per gauge series; overflow drops the oldest
/// samples and counts them on the exported log.
const GAUGE_CAPACITY: usize = 4096;

/// Why a query was closed by its safety timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutCause {
    /// The originator itself crashed with the query in flight.
    OriginatorCrash,
    /// Nothing ever came back — the originator was isolated or the flood
    /// (token) was lost outright.
    NoResponses,
    /// Some devices answered but the completion rule was never met.
    PartialResponses,
}

/// The record kept for every query a device originated.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecord {
    /// Query identity.
    pub key: QueryKey,
    /// Issue time.
    pub issued: SimTime,
    /// Completion time per the protocol's rule, when reached.
    pub completed: Option<SimTime>,
    /// `true` when the query was closed by the safety timeout instead.
    pub timed_out: bool,
    /// Devices that answered (BF) / were visited (DF).
    pub responded: usize,
    /// DRR terms for this query.
    pub drr: DrrAccumulator,
    /// Size of the assembled result.
    pub result_len: usize,
    /// Response time in seconds, when completed normally.
    pub response_seconds: Option<f64>,
    /// Query point (the originator's position at issue time).
    pub pos: Point,
    /// Distance constraint.
    pub radius: f64,
    /// The assembled answer (empty when the originator crashed).
    pub result: Vec<Tuple>,
    /// Devices whose data the answer reflects — accepted responders plus
    /// the originator, sorted.
    pub contributors: Vec<NodeId>,
    /// ARQ retransmissions behind the accepted replies.
    pub retries: u64,
    /// Duplicate replies suppressed.
    pub duplicates: u64,
    /// BF re-floods performed.
    pub reissues: u32,
    /// Failure attribution, for timed-out queries only.
    pub timeout_cause: Option<TimeoutCause>,
    /// Fraction of the sequential-oracle skyline the answer covered
    /// (filled by [`crate::verify::score_records`]).
    pub completeness: Option<f64>,
    /// Answer tuples not in the contributing-device oracle (filled by
    /// [`crate::verify::score_records`]; anything above 0 is a protocol
    /// bug, not a churn artifact).
    pub spurious: u64,
    /// Monitoring queries: number of epoch views taken (0 for one-shot
    /// queries; see [`crate::monitor`]).
    pub epochs: u64,
    /// Monitoring queries: mean per-epoch completeness of the folded view
    /// against the recorded ground truth (`None` for one-shot queries).
    pub epoch_completeness: Option<f64>,
    /// Monitoring queries: mean view staleness in seconds — the average age
    /// of the freshest applied report per device at view time (`None` for
    /// one-shot queries).
    pub staleness_s: Option<f64>,
    /// Per-result-tuple provenance, parallel to `result`: the claimed
    /// responder that first reported each tuple (`usize::MAX` when unknown
    /// — locally seeded sites keep the originator's id, DF merges are
    /// folded anonymously by the walking token).
    pub result_sources: Vec<NodeId>,
    /// The spurious tuples themselves, with first-seen provenance (filled
    /// by [`crate::verify::score_records`]; `spurious` is this list's
    /// length). Makes a poisoned-filter breach attributable instead of a
    /// bare count.
    pub spurious_sites: Vec<crate::verify::SpuriousSite>,
}

impl QueryRecord {
    /// The record of a query issued at `issued` that nothing has answered
    /// or closed yet — the one place the row is spelled out. Originators
    /// (one-shot and monitoring) fill in what they learned before they
    /// publish it.
    pub(crate) fn open(key: QueryKey, issued: SimTime, pos: Point, radius: f64) -> Self {
        QueryRecord {
            key,
            issued,
            completed: None,
            timed_out: false,
            responded: 0,
            drr: DrrAccumulator::default(),
            result_len: 0,
            response_seconds: None,
            pos,
            radius,
            result: Vec::new(),
            contributors: Vec::new(),
            retries: 0,
            duplicates: 0,
            reissues: 0,
            timeout_cause: None,
            completeness: None,
            spurious: 0,
            epochs: 0,
            epoch_completeness: None,
            staleness_s: None,
            result_sources: Vec::new(),
            spurious_sites: Vec::new(),
        }
    }

    /// Closes the record as lost with its originator.
    pub(crate) fn lost_to_crash(mut self) -> Self {
        self.timed_out = true;
        self.timeout_cause = Some(TimeoutCause::OriginatorCrash);
        self
    }
}

// ----------------------------------------------------------------------
// Experiment harness
// ----------------------------------------------------------------------

/// Parameters of one MANET experiment run.
#[derive(Debug, Clone)]
pub struct ManetExperiment {
    /// Grid side; `m = g²` devices.
    pub g: usize,
    /// Global relation specification.
    pub data: datagen::DataSpec,
    /// Strategy configuration.
    pub strategy: StrategyConfig,
    /// Query forwarding.
    pub forwarding: Forwarding,
    /// Distance of interest for all queries.
    pub radius: f64,
    /// Simulation horizon in seconds (paper: 7200).
    pub sim_seconds: f64,
    /// Freeze mobility (static topology).
    pub frozen: bool,
    /// Radio model.
    pub radio: RadioConfig,
    /// Device CPU model.
    pub cost: DeviceCostModel,
    /// Queries per device: `min..=max` (paper: 1..=5).
    pub queries_per_device: (usize, usize),
    /// The mobility-driven data-redistribution extension (off by default —
    /// the paper's protocols keep relations pinned to devices).
    pub handoff: bool,
    /// Neighbour discovery: idealized oracle (default, as in the paper's
    /// simulator usage) or periodic HELLO beacons with realistic staleness.
    pub neighbor_mode: NeighborMode,
    /// Runtime switches (ARQ, re-issue, tracing, defenses, route priming).
    pub dist: DistConfig,
    /// Scripted/seeded faults injected into the engine (none by default).
    pub fault_plan: Option<manet_sim::FaultPlan>,
    /// Seeded adversarial roles assigned to devices (none by default).
    pub attack_plan: Option<manet_sim::AttackPlan>,
    /// Score every record against the sequential oracle (costs one oracle
    /// skyline per query; assumes relations stay pinned, so keep `handoff`
    /// off when enabling this).
    pub compute_completeness: bool,
    /// Caps how many devices originate queries (`None` = all `g²`). The
    /// remaining devices still hold data, serve, and forward — the
    /// scale-bench uses this to grow the *network* without growing the
    /// *workload* proportionally.
    pub querying_devices: Option<usize>,
    /// Engine gauge sampling (off by default — the off path must stay
    /// byte-identical to a build without observability).
    pub obs: ObsConfig,
    /// Master seed.
    pub seed: u64,
}

impl ManetExperiment {
    /// The paper's Table 6/7 defaults for a given scale.
    pub fn paper_defaults(
        g: usize,
        cardinality: usize,
        dim: usize,
        distribution: datagen::Distribution,
        radius: f64,
        seed: u64,
    ) -> Self {
        ManetExperiment {
            g,
            data: datagen::DataSpec::manet_experiment(cardinality, dim, distribution, seed),
            strategy: StrategyConfig {
                exact_bounds: vec![1000.0; dim],
                ..StrategyConfig::default()
            },
            forwarding: Forwarding::BreadthFirst,
            radius,
            sim_seconds: 7200.0,
            frozen: false,
            radio: RadioConfig::default(),
            cost: DeviceCostModel::default(),
            queries_per_device: (1, 5),
            handoff: false,
            neighbor_mode: NeighborMode::Oracle,
            dist: DistConfig::default(),
            fault_plan: None,
            attack_plan: None,
            compute_completeness: false,
            querying_devices: None,
            obs: ObsConfig::default(),
            seed,
        }
    }
}

/// Aggregated outcome of one experiment run.
#[derive(Debug)]
pub struct ManetOutcome {
    /// Every query record from every originator.
    pub records: Vec<QueryRecord>,
    /// Aggregate DRR across all completed queries.
    pub drr: f64,
    /// Mean response time over queries completed by their protocol rule.
    pub mean_response_seconds: Option<f64>,
    /// Median response time (same population).
    pub p50_response_seconds: Option<f64>,
    /// 95th-percentile response time (same population).
    pub p95_response_seconds: Option<f64>,
    /// Mean query-forward messages per query (Fig. 12).
    pub mean_forward_messages: f64,
    /// Mean result messages per query.
    pub mean_result_messages: f64,
    /// Fraction of issued queries that timed out.
    pub timeout_fraction: f64,
    /// Mean distance (m) between a data-holding device and its relation's
    /// centroid at the end of the run — the redistribution extension's
    /// locality metric.
    pub mean_data_locality_m: f64,
    /// Completed data migrations (redistribution extension).
    pub handoff_migrations: u64,
    /// Total radio energy consumed across all devices (joules).
    pub total_energy_joules: f64,
    /// Mean radio energy per issued query (joules) — the paper's
    /// energy-constrained-device motivation, quantified.
    pub energy_per_query_joules: f64,
    /// Mean oracle completeness over scored records (`None` unless
    /// `compute_completeness` was set).
    pub mean_completeness: Option<f64>,
    /// Worst-case completeness over scored records.
    pub min_completeness: Option<f64>,
    /// Total answer tuples outside the contributing-device oracle.
    pub spurious_total: u64,
    /// ARQ retransmissions across all devices.
    pub arq_retries: u64,
    /// ARQ-tracked messages abandoned after max retries.
    pub arq_exhausted: u64,
    /// Duplicate replies / transfers suppressed.
    pub duplicates_suppressed: u64,
    /// Routing-level delivery failures reported to applications.
    pub delivery_failures: u64,
    /// Frames originated by adversarial roles (flood queries, poisoned
    /// replies/rebroadcasts, Sybil forgeries).
    pub attack_frames_sent: u64,
    /// Frames refused by a defensive gate (rate limit, identity, sanity,
    /// reputation isolation, malformed decode).
    pub attack_frames_dropped: u64,
    /// Individual filter tuples stripped by the sanity check.
    pub filters_rejected: u64,
    /// Reputation penalties recorded across all devices.
    pub reputation_penalties: u64,
    /// BF re-floods performed.
    pub reissues: u64,
    /// Timed-out queries whose originator crashed mid-query.
    pub timeouts_originator_crash: u64,
    /// Timed-out queries that never saw a single response.
    pub timeouts_no_responses: u64,
    /// Timed-out queries with some, but not enough, responses.
    pub timeouts_partial: u64,
    /// Total query-forward messages across all queries (the numerator of
    /// `mean_forward_messages`) — BF per-neighbor floods plus DF token
    /// transfers. The trace cross-check reconciles this against the event
    /// log exactly.
    pub total_forward_messages: u64,
    /// Total result messages across all queries (BF replies created; DF
    /// reports no separate result messages).
    pub total_result_messages: u64,
    /// Raw network counters.
    pub net: NetStats,
    /// Per-query event log (populated when [`TraceConfig::enabled`]).
    pub query_trace: Option<QueryTraceLog>,
    /// Frame-level radio log (populated when [`TraceConfig::frames`]).
    pub frame_trace: Option<FrameTraceLog>,
    /// Response-time histogram over protocol-completed queries (µs).
    pub response_hist: PowHistogram,
    /// Hop counts of accepted BF replies, merged across devices.
    pub reply_hops_hist: PowHistogram,
    /// Issue-to-accepted-reply latency (µs), merged across devices.
    pub reply_latency_hist: PowHistogram,
    /// Engine gauge series (populated when [`ObsConfig::gauges`]).
    pub gauges: Option<GaugeLog>,
    /// Events the engine's timer wheel was asked to hold over the run
    /// (transmissions with a receiver, timers, beacon ticks, faults).
    pub wheel_events: u64,
    /// Frame copies those events delivered or dropped on arrival.
    pub frame_copies: u64,
}

// The sweep harness fans experiment cells across worker threads; the
// experiment description and its outcome must stay thread-portable.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ManetExperiment>();
    assert_send_sync::<ManetOutcome>();
};

/// The mobility model of a run: pinned, or the paper's random waypoint
/// over the deployment area.
pub(crate) fn mobility_for(frozen: bool, space: datagen::SpatialExtent) -> MobilityConfig {
    if frozen {
        MobilityConfig::frozen()
    } else {
        MobilityConfig { width: space.width, height: space.height, ..MobilityConfig::paper() }
    }
}

/// An empty simulator with the run's radio, neighbour discovery and
/// tracing. Tracing is strictly opt-in: when off, the engine carries a
/// `None` and every record call is a single branch.
pub(crate) fn new_simulator<P: Clone + 'static, A: Application<P>>(
    radio: RadioConfig,
    seed: u64,
    neighbor_mode: NeighborMode,
    trace: &TraceConfig,
) -> Simulator<P, A> {
    let mut sim = Simulator::new(radio, seed);
    sim.set_neighbor_mode(neighbor_mode);
    if trace.enabled {
        sim.enable_query_trace(trace.per_node_capacity);
        if trace.frames {
            sim.enable_trace(trace.frames_capacity);
        }
    }
    sim
}

/// Builds each cell's relation straight from the generated columns and the
/// cell's row list, no `Tuple` made per row, in cell order. `workers`
/// threads each build one contiguous run of cells, the calling thread the
/// first; a build reads only its own rows, so the relations do not depend
/// on how the cells are split.
fn build_relations(
    columns: &datagen::Columns,
    cells: &[Vec<u32>],
    workers: usize,
) -> Vec<HybridRelation> {
    let build = |rows: &Vec<u32>| {
        HybridRelation::from_columns(&columns.locs, &columns.attrs, columns.dim, rows)
    };
    let per_worker = cells.len().div_ceil(workers.max(1)).max(1);
    let mut runs = cells.chunks(per_worker);
    let Some(first) = runs.next() else { return Vec::new() };
    std::thread::scope(|s| {
        let spawned: Vec<_> = runs
            .map(|run| s.spawn(move || run.iter().map(build).collect::<Vec<_>>()))
            .collect();
        let mut relations: Vec<HybridRelation> = first.iter().map(build).collect();
        for handle in spawned {
            relations.extend(handle.join().expect("relation build panicked"));
        }
        relations
    })
}

/// Runs one MANET experiment end to end.
pub fn run_experiment(exp: &ManetExperiment) -> ManetOutcome {
    let grid = datagen::GridPartitioner::new(exp.g, exp.data.space);
    let columns = exp.data.generate_columns();
    let cells = grid.cell_rows(&columns.locs);
    let m = cells.len();
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let relations = build_relations(&columns, &cells, workers);

    let workload = datagen::WorkloadSpec {
        num_devices: exp.querying_devices.unwrap_or(m).min(m),
        horizon_seconds: exp.sim_seconds,
        min_queries: exp.queries_per_device.0,
        max_queries: exp.queries_per_device.1,
        radius: exp.radius,
        seed: exp.seed ^ 0xDEAD_BEEF,
    }
    .generate();

    let mobility = mobility_for(exp.frozen, exp.data.space);
    let mut sim: Simulator<ProtoMsg, DeviceApp> =
        new_simulator(exp.radio, exp.seed, exp.neighbor_mode, &exp.dist.trace);
    let avg_partition = exp.data.cardinality / m.max(1);
    for (i, rel) in relations.into_iter().enumerate() {
        let mut app =
            DeviceApp::new(i, rel, exp.strategy.clone(), exp.forwarding, exp.cost, m, exp.dist);
        if exp.handoff {
            app.handoff.enable(avg_partition);
        }
        let reqs: Vec<(SimTime, f64)> = workload
            .iter()
            .filter(|q| q.device == i)
            .map(|q| (SimTime::from_secs_f64(q.at_seconds), q.radius))
            .collect();
        app.set_requests(reqs);
        let c = grid.cell_center(i);
        sim.add_node(Pos::new(c.x, c.y), mobility, app, exp.seed ^ 0xA5A5);
    }
    // The oracle scores against per-device tuples; nothing else needs them.
    let oracle_parts: Option<Vec<Vec<Tuple>>> = exp.compute_completeness.then(|| {
        cells
            .iter()
            .map(|rows| rows.iter().map(|&r| columns.tuple(r as usize)).collect())
            .collect()
    });
    drop((columns, cells));
    // Kick each device's first request at its desired time.
    for q in &workload {
        // Only the first timer per device matters for ordering; extra ISSUE
        // timers are harmless (try_issue pops from its own list).
        sim.schedule_app_timer(q.device, SimTime::from_secs_f64(q.at_seconds), token::ISSUE);
    }
    // Start the handoff ticks, staggered per device to avoid probe storms,
    // and the locality sampling (always on — it also measures pinned runs).
    for i in 0..m {
        if exp.handoff {
            let offset = 10.0 + i as f64 * 7.0;
            sim.schedule_app_timer(i, SimTime::from_secs_f64(offset), token::HANDOFF_TICK);
        }
        sim.schedule_app_timer(
            i,
            SimTime::from_secs_f64(30.0 + i as f64 * 1.3),
            token::LOCALITY_SAMPLE,
        );
    }
    if let Some(plan) = &exp.fault_plan {
        sim.install_fault_plan(plan);
    }
    if let Some(plan) = &exp.attack_plan {
        for role in plan.roles() {
            if role.node >= m {
                continue; // plan drawn for a larger network
            }
            sim.app_mut(role.node).set_attack_role(Some(*role));
            // Flooding is timer-driven; the other roles react to traffic.
            if role.kind == AttackKind::QueryFlood {
                sim.schedule_app_timer(role.node, role.from, token::ATTACK_TICK);
            }
        }
    }

    // Run past the horizon so in-flight queries can drain.
    let horizon = SimTime::from_secs_f64(exp.sim_seconds + 400.0);
    let mut gauges = None;
    if exp.obs.gauges {
        // Stepping to intermediate horizons processes exactly the events a
        // single `run_until(horizon)` would, in the same order — sampling
        // between steps reads engine state without perturbing it.
        let mut set = GaugeSet::new();
        let s_pending = set.register("wheel.pending", GAUGE_CAPACITY);
        let s_slots = set.register("wheel.occupied_slots", GAUGE_CAPACITY);
        let s_cells = set.register("grid.cells", GAUGE_CAPACITY);
        let s_bucket = set.register("grid.max_bucket", GAUGE_CAPACITY);
        let s_inflight = set.register("radio.inflight", GAUGE_CAPACITY);
        let s_arq = set.register("arq.backlog", GAUGE_CAPACITY);
        let s_active = set.register("query.active", GAUGE_CAPACITY);
        let s_energy = set.register("energy.total_j", GAUGE_CAPACITY);
        let mut t = SimTime::ZERO;
        while t < horizon {
            t = (t + GAUGE_PERIOD).min(horizon);
            sim.run_until(t);
            let (cells, max_bucket) = sim.grid_stats();
            let arq: usize = (0..m).map(|i| sim.app(i).arq_backlog()).sum();
            let active = (0..m).filter(|&i| sim.app(i).has_active_query()).count();
            set.push(s_pending, t.0, sim.pending_events() as f64);
            set.push(s_slots, t.0, f64::from(sim.wheel_occupied_slots()));
            set.push(s_cells, t.0, cells as f64);
            set.push(s_bucket, t.0, max_bucket as f64);
            set.push(s_inflight, t.0, sim.inflight_frames() as f64);
            set.push(s_arq, t.0, arq as f64);
            set.push(s_active, t.0, active as f64);
            set.push(s_energy, t.0, sim.total_energy_joules());
        }
        gauges = Some(set.into_log());
    } else {
        sim.run_until(horizon);
    }

    let query_trace = sim.take_query_trace();
    let frame_trace = sim.take_frame_trace();
    let apps = || (0..m).map(|i| sim.app(i));
    let count = |field: fn(&DeviceApp) -> u64| apps().map(field).sum::<u64>();

    let mut records: Vec<QueryRecord> = apps().flat_map(|a| a.records.iter().cloned()).collect();
    let (mut mean_completeness, mut min_completeness) = (None, None);
    if let Some(parts) = &oracle_parts {
        crate::verify::score_records(&mut records, parts);
        let scored: Vec<f64> = records.iter().filter_map(|r| r.completeness).collect();
        if !scored.is_empty() {
            mean_completeness = Some(scored.iter().sum::<f64>() / scored.len() as f64);
            min_completeness = Some(scored.iter().copied().fold(f64::INFINITY, f64::min));
        }
    }
    let mut drr = DrrAccumulator::default();
    let mut response_hist = PowHistogram::new();
    let mut rts: Vec<f64> = Vec::new();
    for r in &records {
        drr.merge(&r.drr);
        if let (false, Some(s)) = (r.timed_out, r.response_seconds) {
            response_hist.record(SimDuration::from_secs_f64(s).as_micros());
            rts.push(s);
        }
    }
    rts.sort_by(f64::total_cmp);
    let percentile =
        |q: f64| rts.get(((rts.len().max(1) - 1) as f64 * q).round() as usize).copied();
    let count_cause = |c: TimeoutCause| -> u64 {
        records.iter().filter(|r| r.timeout_cause == Some(c)).count() as u64
    };
    // Histogram merges run in device order, but bucket-wise addition is
    // order-free, so any merge order yields the same bytes.
    let merged = |hist: fn(&DeviceApp) -> &PowHistogram| {
        apps().fold(PowHistogram::new(), |mut acc, a| {
            acc.merge(hist(a));
            acc
        })
    };
    // Time-averaged locality over the whole run (sampled every 60 s on
    // every data-holding device).
    let loc_sum = apps().fold(0.0, |sum, a| sum + a.handoff.locality_sum_m);
    let loc_n = count(|a| a.handoff.locality_samples);
    let nq = records.len().max(1) as f64;
    let total_forward_messages = count(|a| a.forward_messages);
    let total_result_messages = count(|a| a.result_messages);
    let total_energy_joules = sim.total_energy_joules();

    ManetOutcome {
        // Eq. 1 charges one tuple per device for the filter — only when a
        // filter was actually shipped.
        drr: drr.drr(exp.strategy.filter != crate::config::FilterStrategy::NoFilter),
        mean_response_seconds: (!rts.is_empty())
            .then(|| rts.iter().sum::<f64>() / rts.len() as f64),
        p50_response_seconds: percentile(0.5),
        p95_response_seconds: percentile(0.95),
        mean_forward_messages: total_forward_messages as f64 / nq,
        mean_result_messages: total_result_messages as f64 / nq,
        timeout_fraction: records.iter().filter(|r| r.timed_out).count() as f64 / nq,
        mean_data_locality_m: if loc_n == 0 { 0.0 } else { loc_sum / loc_n as f64 },
        handoff_migrations: count(|a| a.handoff.migrations_out),
        total_energy_joules,
        energy_per_query_joules: total_energy_joules / nq,
        mean_completeness,
        min_completeness,
        spurious_total: records.iter().map(|r| r.spurious).sum(),
        arq_retries: count(|a| a.arq.retries),
        arq_exhausted: count(|a| a.arq.exhausted),
        duplicates_suppressed: count(|a| a.duplicates_suppressed),
        delivery_failures: count(|a| a.delivery_failures),
        attack_frames_sent: count(|a| a.attack.frames_sent),
        attack_frames_dropped: count(|a| a.defense.frames_dropped),
        filters_rejected: count(|a| a.defense.filters_rejected),
        reputation_penalties: count(|a| a.defense.penalties),
        reissues: records.iter().map(|r| u64::from(r.reissues)).sum(),
        timeouts_originator_crash: count_cause(TimeoutCause::OriginatorCrash),
        timeouts_no_responses: count_cause(TimeoutCause::NoResponses),
        timeouts_partial: count_cause(TimeoutCause::PartialResponses),
        total_forward_messages,
        total_result_messages,
        net: *sim.stats(),
        query_trace,
        frame_trace,
        response_hist,
        reply_hops_hist: merged(|a| &a.reply_hops),
        reply_latency_hist: merged(|a| &a.reply_latency_us),
        gauges,
        wheel_events: sim.events_scheduled(),
        frame_copies: sim.copies_scheduled(),
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_tables_6_and_7() {
        let exp = ManetExperiment::paper_defaults(
            5,
            500_000,
            2,
            datagen::Distribution::Independent,
            250.0,
            1,
        );
        assert_eq!(exp.sim_seconds, 7200.0);
        assert_eq!(exp.queries_per_device, (1, 5));
        assert_eq!(exp.data.attr_min, 1.0);
        assert_eq!(exp.data.attr_max, 1000.0);
        assert!(!exp.handoff);
        assert!(exp.fault_plan.is_none(), "faults are opt-in");
        assert!(exp.attack_plan.is_none(), "adversaries are opt-in");
        assert!(!exp.compute_completeness);
        assert_eq!(exp.dist, DistConfig::default());
    }

    #[test]
    fn relations_do_not_depend_on_the_worker_count() {
        use device_storage::DeviceRelation;
        let data =
            datagen::DataSpec::manet_experiment(6000, 3, datagen::Distribution::Independent, 5);
        let columns = data.generate_columns();
        let cells = datagen::GridPartitioner::new(4, data.space).cell_rows(&columns.locs);
        let one = build_relations(&columns, &cells, 1);
        assert_eq!(one.len(), cells.len());
        for workers in [2, 7] {
            let many = build_relations(&columns, &cells, workers);
            assert_eq!(many.len(), one.len(), "{workers} workers");
            for (i, (a, b)) in one.iter().zip(&many).enumerate() {
                let what = format!("{workers} workers, cell {i}");
                assert_eq!(a.len(), b.len(), "{what}");
                assert_eq!(a.mbr(), b.mbr(), "{what}: MBR");
                assert_eq!(a.sort_attribute(), b.sort_attribute(), "{what}");
                for j in 0..a.dim() {
                    assert_eq!(a.domain(j), b.domain(j), "{what}: domain {j}");
                }
                for r in 0..a.len() {
                    assert_eq!(a.location(r).x.to_bits(), b.location(r).x.to_bits(), "{what}");
                    assert_eq!(a.location(r).y.to_bits(), b.location(r).y.to_bits(), "{what}");
                    assert_eq!(a.row_ids(r), b.row_ids(r), "{what}: row {r}");
                }
            }
        }
        assert!(build_relations(&columns, &[], 2).is_empty());
    }
}
