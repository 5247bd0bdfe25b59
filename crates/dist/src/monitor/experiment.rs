//! The monitoring experiment harness: the run description, the scoring
//! of every epoch view against the oracle reconstructed from in-situ
//! device recordings, and the zero-drift reconciliation of the trace
//! against the protocol's counters.

use manet_sim::engine::{NeighborMode, Simulator};
use manet_sim::radio::RadioConfig;
use manet_sim::{
    FaultPlan, FrameTraceLog, NetStats, Pos, QueryEvent, QueryTraceLog, SimDuration, SimTime,
};
use sim_obs::dethash::DetHashSet;
use sim_obs::PowHistogram;
use skyline_core::region::{Point, QueryRegion};
use skyline_core::{constrained, Tuple, TupleId};

use super::{mtoken, EpochView, MonMsg, MonitorApp, MonitorConfig, MonitorMode};
use crate::config::DistConfig;
use crate::query::QueryKey;
use crate::runtime::{mobility_for, new_simulator, QueryRecord};
use crate::trace::{verify_frames, DriftCheck, TraceAggregates};
use crate::verify::score_epoch;

/// How long a run continues after the originator cancels (s), so in-flight
/// deltas and acks settle.
const DRAIN_S: f64 = 120.0;

/// One monitoring experiment: a `g × g` device grid, each device carrying
/// `sites_per_device` sites that move with it, one originator (node 0)
/// running a standing range skyline for `duration_s`.
#[derive(Debug, Clone)]
pub struct MonitorExperiment {
    /// Devices per grid side (`m = g²`).
    pub g: usize,
    /// Sites carried per device.
    pub sites_per_device: usize,
    /// Non-spatial attribute dimensionality.
    pub dim: usize,
    /// Attribute distribution.
    pub distribution: datagen::Distribution,
    /// Deployment area.
    pub space: datagen::SpatialExtent,
    /// Monitored range radius (m) around the originator's issue position.
    pub radius: f64,
    /// Freeze mobility.
    pub frozen: bool,
    /// Radio model.
    pub radio: RadioConfig,
    /// Neighbour discovery mode.
    pub neighbor_mode: NeighborMode,
    /// Runtime switches (ARQ, re-issue, tracing).
    pub dist: DistConfig,
    /// Monitoring-protocol knobs.
    pub mon: MonitorConfig,
    /// Delta protocol or naive re-query baseline.
    pub mode: MonitorMode,
    /// Registration issue time (s).
    pub start_s: f64,
    /// Monitoring duration until cancel (s).
    pub duration_s: f64,
    /// Scripted faults (none by default).
    pub fault_plan: Option<FaultPlan>,
    /// Master seed.
    pub seed: u64,
}

impl MonitorExperiment {
    /// Small mobile defaults with full tracing enabled.
    pub fn defaults(g: usize, mode: MonitorMode, seed: u64) -> Self {
        MonitorExperiment {
            g,
            sites_per_device: 4,
            dim: 2,
            distribution: datagen::Distribution::Independent,
            space: datagen::SpatialExtent::PAPER,
            radius: 300.0,
            frozen: false,
            radio: RadioConfig::default(),
            neighbor_mode: NeighborMode::Oracle,
            dist: DistConfig { trace: crate::config::TraceConfig::full(), ..DistConfig::default() },
            mon: MonitorConfig::default(),
            mode,
            start_s: 30.0,
            duration_s: 600.0,
            fault_plan: None,
            seed,
        }
    }
}

/// Aggregated outcome of one monitoring run.
#[derive(Debug)]
pub struct MonitorOutcome {
    /// The originator's closed query record, with the monitoring columns
    /// filled.
    pub record: QueryRecord,
    /// Per-epoch views, scored against the reconstructed oracle.
    pub views: Vec<EpochView>,
    /// `Registered` events (installs + renewals) across all nodes.
    pub registered: u64,
    /// Non-heartbeat deltas / replies sent.
    pub deltas_sent: u64,
    /// Zero-change heartbeats sent.
    pub heartbeats_sent: u64,
    /// Deltas folded at the originator.
    pub deltas_applied: u64,
    /// Lease expiries across all devices.
    pub lease_expired: u64,
    /// Cancellations processed across all nodes.
    pub cancelled: u64,
    /// ARQ retransmissions.
    pub arq_retries: u64,
    /// ARQ-tracked messages abandoned.
    pub arq_exhausted: u64,
    /// Duplicate deltas re-acked without folding.
    pub duplicates_suppressed: u64,
    /// Routing-level delivery failures.
    pub delivery_failures: u64,
    /// `LiveSkyline::remove` misses — any value above 0 is a bug.
    pub fold_remove_misses: u64,
    /// Application messages sent (floods, deltas, replies, acks).
    pub messages_sent: u64,
    /// Application payload bytes sent.
    pub bytes_sent: u64,
    /// Mean per-epoch oracle coverage over all views.
    pub mean_epoch_completeness: Option<f64>,
    /// Mean view staleness (s).
    pub mean_staleness_s: Option<f64>,
    /// Total spurious view members across epochs.
    pub spurious_total: u64,
    /// Total radio energy (J).
    pub total_energy_joules: f64,
    /// Raw network counters.
    pub net: NetStats,
    /// Per-query event log (when tracing was enabled).
    pub query_trace: Option<QueryTraceLog>,
    /// Frame-level radio log (when frame tracing was enabled).
    pub frame_trace: Option<FrameTraceLog>,
    /// Age of folded deltas/replies at apply time (µs since epoch tick).
    pub delta_age_hist: PowHistogram,
}

// The bench sweep fans monitoring cells across worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MonitorExperiment>();
    assert_send_sync::<MonitorOutcome>();
};

/// Deterministic per-site offset from the carrying device, within ±60 m.
fn site_offset(seed: u64, device: usize, slot: usize) -> (f64, f64) {
    let h = crate::splitmix64(seed ^ ((device as u64) << 32) ^ (slot as u64) ^ 0x5EED_0FF5);
    let dx = ((h & 0xFFFF) as f64 / 65_535.0 - 0.5) * 120.0;
    let dy = (((h >> 16) & 0xFFFF) as f64 / 65_535.0 - 0.5) * 120.0;
    (dx, dy)
}

/// The network [`run_monitor_experiment`] runs, built but not started:
/// node `i` carries sites `TupleId(i, 0..k)` (location fields holding the
/// id, offsets from the device), node 0 is the originator, and its
/// registration timer (at `start_s`) and the fault plan are installed.
pub fn monitor_network(exp: &MonitorExperiment) -> Simulator<MonMsg, MonitorApp> {
    let m = exp.g * exp.g;
    let k = exp.sites_per_device.max(1);
    let data =
        datagen::DataSpec::manet_experiment(m * k, exp.dim, exp.distribution, exp.seed).generate();
    let part = datagen::GridPartitioner::new(exp.g, exp.space).partition(&data);

    let mobility = mobility_for(exp.frozen, exp.space);
    let mut sim: Simulator<MonMsg, MonitorApp> =
        new_simulator(exp.radio, exp.seed, exp.neighbor_mode, &exp.dist.trace);
    // Sites encode their id in the tuple's location fields (dominance
    // never reads them); geometric positions ride on the device.
    for i in 0..m {
        let sites: Vec<(TupleId, Tuple, (f64, f64))> = (0..k)
            .map(|j| {
                let attrs = data[i * k + j].attrs.clone();
                let id = TupleId(i as u64, j as u64);
                (id, Tuple::new(i as f64, j as f64, attrs), site_offset(exp.seed, i, j))
            })
            .collect();
        let mut app = MonitorApp::new(i, exp.dist, sites);
        if i == 0 {
            app.set_originator(
                QueryKey { origin: 0, cnt: 0 },
                exp.radius,
                SimDuration::from_secs_f64(exp.duration_s),
                exp.mode,
                exp.mon,
                m,
            );
        }
        let c = part.cell_center(i);
        sim.add_node(Pos::new(c.x, c.y), mobility, app, exp.seed ^ 0xA5A5);
    }
    sim.schedule_app_timer(0, SimTime::from_secs_f64(exp.start_s), mtoken::START);
    if let Some(plan) = &exp.fault_plan {
        sim.install_fault_plan(plan);
    }
    sim
}

/// Runs one monitoring experiment end to end and scores every epoch view
/// against the oracle reconstructed from in-situ device recordings.
pub fn run_monitor_experiment(exp: &MonitorExperiment) -> MonitorOutcome {
    let m = exp.g * exp.g;
    let mut sim = monitor_network(exp);
    sim.run_until(SimTime::from_secs_f64(exp.start_s + exp.duration_s + DRAIN_S));

    // Reconstruct the per-epoch oracle from the devices' in-situ truth
    // recordings: the constrained skyline of the union of every (live)
    // device's local skyline at that epoch — the paper's distributivity
    // property, applied per epoch.
    let truths: Vec<Vec<(u64, Vec<TupleId>)>> = (0..m).map(|i| sim.app(i).truth.clone()).collect();
    let mut views = sim.app(0).views.clone();
    for v in &mut views {
        let recorded = truths.iter().filter_map(|tr| {
            let idx = tr.binary_search_by_key(&v.epoch, |&(e, _)| e).ok()?;
            Some(&tr[idx].1)
        });
        let rows = recorded
            .flatten()
            .map(|&id| (id, &sim.app(id.0 as usize).sites()[id.1 as usize].1));
        let mut oracle: Vec<TupleId> = constrained::skyline(rows, &QueryRegion::unbounded())
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        oracle.sort_unstable();
        let (completeness, spurious) = score_epoch(&v.ids, &oracle);
        v.completeness = Some(completeness);
        v.spurious = spurious;
    }

    // An originator that crashed before its `START` never opened a record.
    let mut record = sim.app_mut(0).record.take().unwrap_or_else(|| {
        let c = datagen::GridPartitioner::new(exp.g, exp.space).cell_center(0);
        QueryRecord::open(
            QueryKey { origin: 0, cnt: 0 },
            SimTime::from_secs_f64(exp.start_s),
            Point::new(c.x, c.y),
            exp.radius,
        )
        .lost_to_crash()
    });

    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            None
        } else {
            Some(xs.iter().sum::<f64>() / xs.len() as f64)
        }
    };
    let comps: Vec<f64> = views.iter().filter_map(|v| v.completeness).collect();
    let stales: Vec<f64> = views.iter().map(|v| v.staleness_s).collect();
    record.epochs = views.len() as u64;
    record.epoch_completeness = mean(&comps);
    record.staleness_s = mean(&stales);

    let query_trace = sim.take_query_trace();
    let frame_trace = sim.take_frame_trace();
    let count = |field: fn(&MonitorApp) -> u64| (0..m).map(|i| field(sim.app(i))).sum::<u64>();
    let mut delta_age_hist = PowHistogram::new();
    for i in 0..m {
        delta_age_hist.merge(&sim.app(i).delta_age_us);
    }
    MonitorOutcome {
        registered: count(|a| a.registered_events),
        deltas_sent: count(|a| a.deltas_sent),
        heartbeats_sent: count(|a| a.heartbeats_sent),
        deltas_applied: count(|a| a.deltas_applied),
        lease_expired: count(|a| a.lease_expired),
        cancelled: count(|a| a.cancelled_events),
        arq_retries: count(|a| a.arq.retries),
        arq_exhausted: count(|a| a.arq.exhausted),
        duplicates_suppressed: count(|a| a.duplicates_suppressed),
        delivery_failures: count(|a| a.delivery_failures),
        fold_remove_misses: count(|a| a.fold_remove_misses),
        messages_sent: count(|a| a.msgs_sent),
        bytes_sent: count(|a| a.bytes_sent),
        mean_epoch_completeness: record.epoch_completeness,
        mean_staleness_s: record.staleness_s,
        spurious_total: views.iter().map(|v| v.spurious).sum(),
        total_energy_joules: sim.total_energy_joules(),
        net: *sim.stats(),
        query_trace,
        frame_trace,
        delta_age_hist,
        record,
        views,
    }
}

/// Zero-drift verification for monitoring runs: recomputes the
/// [`TraceAggregates`] from the event log and reconciles them — exactly —
/// against the runtime counters, checks that every `DeltaApplied` has a
/// matching `DeltaSent` from that device for that epoch, and (when frame
/// tracing was on) reconciles frame counts against [`NetStats`]. Any
/// mismatch is drift: either the trace lies or the counters do.
pub fn verify_monitor_drift(out: &MonitorOutcome) -> Result<TraceAggregates, String> {
    let mut d = DriftCheck::open(out.query_trace.as_ref(), "TraceConfig::per_node_capacity")?;
    let (log, agg) = (d.log, d.agg);
    d.check("registered", agg.registered, out.registered);
    d.check("delta_sent", agg.delta_sent, out.deltas_sent + out.heartbeats_sent);
    d.check("delta_heartbeats", agg.delta_heartbeats, out.heartbeats_sent);
    d.check("delta_applied", agg.delta_applied, out.deltas_applied);
    d.check("lease_expired", agg.lease_expired, out.lease_expired);
    d.check("cancelled", agg.cancelled, out.cancelled);
    d.check("arq_retries", agg.arq_retries, out.arq_retries);
    d.check("arq_exhausted", agg.arq_exhausted, out.arq_exhausted);
    d.check("duplicates_suppressed", agg.duplicates_suppressed, out.duplicates_suppressed);
    d.check("delivery_failures", agg.delivery_failures, out.delivery_failures);
    d.check("node_crashes", agg.crashes, out.net.node_crashes);
    d.check("node_revivals", agg.revivals, out.net.node_revivals);

    // Every applied delta must have been sent: match (device, epoch,
    // heartbeat) across the log.
    let mut sent: DetHashSet<(usize, u64, bool)> = DetHashSet::default();
    for r in &log.records {
        if let QueryEvent::DeltaSent { epoch, heartbeat, .. } = r.event {
            sent.insert((r.node, epoch, heartbeat));
        }
    }
    for r in &log.records {
        if let QueryEvent::DeltaApplied { from, epoch, heartbeat, .. } = r.event {
            if !sent.contains(&(from, epoch, heartbeat)) {
                d.errs.push(format!(
                    "delta applied from device {from} for epoch {epoch} was never sent"
                ));
            }
        }
    }

    if let Some(frames) = out.frame_trace.as_ref() {
        d.errs.extend(verify_frames(frames, &out.net));
    }
    if d.errs.is_empty() {
        Ok(agg)
    } else {
        Err(format!(
            "monitor drift detected ({} checks failed):\n  {}",
            d.errs.len(),
            d.errs.join("\n  ")
        ))
    }
}
