//! `monitor_churn`: one standing range-skyline query kept fresh by the
//! delta protocol over a lossy, crashing network — the only workload
//! through `dist::monitor`, ARQ retries and `LiveSkyline` folding.

use std::time::Instant;

use datagen::{DataSpec, GridPartitioner};
use dist_skyline::monitor::{
    run_monitor_experiment, verify_monitor_drift, MonitorExperiment, MonitorMode,
};
use manet_sim::{ChurnConfig, FaultPlan, SimDuration, SimTime};

use crate::harness::{Mode, Phases, Recorder, Rep, Workload};

/// `(g, monitored seconds)`.
const FULL: (usize, f64) = (8, 600.0);
const SMOKE: (usize, f64) = (4, 120.0);
/// `run_monitor_experiment` draws sites, mobility and radio loss from one
/// master seed, and a monitored view is chaotic in all of them (mean
/// completeness 0.60 to 0.82 over ten churn schedules), so the scenario
/// and its crash schedule are fixed: every run measures the same 39 epochs.
const SCENARIO: u64 = 0x300A;
const CHURN_SEED: u64 = 0xC4_0A11;

pub struct MonitorChurn {
    exp: MonitorExperiment,
}

impl Workload for MonitorChurn {
    const NAME: &'static str = "monitor_churn";

    fn setup(_seed: u64, smoke: bool, phases: &mut Phases) -> Self {
        let (g, duration_s) = if smoke { SMOKE } else { FULL };
        let mut exp = MonitorExperiment::defaults(g, MonitorMode::Continuous, SCENARIO);
        exp.sites_per_device = 20;
        exp.dim = 3;
        exp.duration_s = duration_s;
        exp.radius = 500.0;
        exp.radio.range_m = 400.0;
        exp.radio.loss_probability = 0.1;
        exp.mon.period = SimDuration::from_secs_f64(15.0);
        // A quarter of the devices crash once; the originator is protected,
        // or the run would end early and measure nothing.
        exp.fault_plan = Some(FaultPlan::random_churn(&ChurnConfig {
            nodes: g * g,
            churn_fraction: 0.25,
            earliest: SimTime::from_secs_f64(60.0),
            latest: SimTime::from_secs_f64(exp.start_s + duration_s * 0.8),
            min_downtime: SimDuration::from_secs_f64(60.0),
            max_downtime: SimDuration::from_secs_f64(150.0),
            protect: vec![0],
            seed: CHURN_SEED,
        }));

        // The data work `run_monitor_experiment` redoes inside every call.
        let m = g * g;
        let t = Instant::now();
        let sites = DataSpec::manet_experiment(
            m * exp.sites_per_device,
            exp.dim,
            exp.distribution,
            exp.seed,
        )
        .generate();
        phases.generate_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::hint::black_box(GridPartitioner::new(g, exp.space).partition(&sites));
        phases.partition_s += t.elapsed().as_secs_f64();
        MonitorChurn { exp }
    }

    fn rep(&mut self, mode: Mode, rec: &mut Recorder) -> Rep {
        // The monitor keeps its default full tracing in every mode: the
        // trace is how the protocol's books are checked.
        let (out, wall_s) =
            rec.timed("dist.run_monitor_experiment", |_| run_monitor_experiment(&self.exp));
        let mut rep = Rep { wall_s, ops: out.views.len() as u64, ..Rep::default() };
        let epochs = out.views.len().max(1) as f64;
        // One view is due per period; a missing one is a failed op. Stale
        // members and partial coverage under churn are the protocol's
        // measured quality (`view_completeness`), not failures.
        let due = (self.exp.duration_s / self.exp.mon.period.as_secs_f64()).floor() as u64 - 1;
        rep.failed = due.saturating_sub(rep.ops);
        if out.fold_remove_misses > 0 {
            rep.errors.push(format!("{} LiveSkyline remove misses", out.fold_remove_misses));
        }

        let log = out.query_trace.as_ref();
        rep.det = vec![
            ("tx_bytes_per_op", out.net.bytes_sent as f64 / epochs),
            ("completeness", out.mean_epoch_completeness.unwrap_or(0.0)),
            ("view_completeness", out.mean_epoch_completeness.unwrap_or(0.0)),
            ("view_staleness_s", out.mean_staleness_s.unwrap_or(0.0)),
            ("manet.frames_sent", out.net.frames_sent as f64),
            ("manet.bytes_sent", out.net.bytes_sent as f64),
            ("manet.frames_lost", out.net.frames_lost as f64),
            ("manet.unicast_delivery_ratio", out.net.unicast_delivery_ratio()),
            ("manet.data_drops_forwarded", out.net.data_drops_forwarded as f64),
            ("manet.energy_j_per_op", out.total_energy_joules / epochs),
            ("manet.aodv.frames", out.net.aodv_frames as f64),
            (
                "manet.aodv.frames_per_device",
                out.net.aodv_frames as f64 / (self.exp.g * self.exp.g) as f64,
            ),
            ("manet.aodv.share", out.net.aodv_frames as f64 / out.net.frames_sent.max(1) as f64),
            ("dist.monitor.epochs", epochs),
            ("dist.monitor.msgs_per_epoch", out.messages_sent as f64 / epochs),
            ("dist.monitor.deltas_sent", out.deltas_sent as f64),
            ("dist.monitor.heartbeats", out.heartbeats_sent as f64),
            ("dist.monitor.deltas_applied", out.deltas_applied as f64),
            (
                "dist.monitor.apply_ratio",
                out.deltas_applied as f64 / (out.deltas_sent + out.heartbeats_sent).max(1) as f64,
            ),
            ("dist.monitor.arq_retries", out.arq_retries as f64),
            // Each abandoned message forces a full resync (the resync itself
            // is not visible from outside the protocol).
            ("dist.monitor.arq_exhausted", out.arq_exhausted as f64),
            ("dist.monitor.fold_remove_misses", out.fold_remove_misses as f64),
            ("dist.monitor.spurious_per_view", out.spurious_total as f64 / epochs),
        ];
        if mode.verifies() {
            if let Err(e) = verify_monitor_drift(&out) {
                rep.errors.push(format!("monitor drift check: {e}"));
            }
        }
        if mode == Mode::Traced {
            let frames = out.frame_trace.as_ref();
            let events = log.map_or(0, |l| l.records.len()) + frames.map_or(0, |f| f.entries.len());
            let dropped = log.map_or(0, |l| l.dropped) + frames.map_or(0, |f| f.dropped);
            rep.det.push(("obs.trace_events", events as f64));
            rep.det.push(("obs.trace_dropped", dropped as f64));
        }
        rep
    }

    fn probes(&mut self, _plain_wall_s: f64, rec: &mut Recorder) -> crate::harness::Vals {
        let m = self.exp.g * self.exp.g;
        vec![
            (
                "manet.grid.probe_ns_per_query",
                crate::probes::grid_ns_per_query(
                    m,
                    self.exp.space.width,
                    self.exp.radio.range_m,
                    rec,
                ),
            ),
            ("manet.events.probe_ns_per_op", crate::probes::events_ns_per_op(m, rec)),
        ]
    }
}
