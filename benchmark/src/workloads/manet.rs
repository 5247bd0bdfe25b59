//! `manet_dense` and `manet_wide`: the paper's BF/DF protocol over the
//! discrete-event MANET, sized so that one is bound by data (storage scan,
//! merge, payload) and the other by the control plane (radio deliveries,
//! neighbour queries, AODV repair).

use std::time::Instant;

use datagen::{DataSpec, Distribution, GridPartitioner, SpatialExtent};
use device_storage::{HybridRelation, LocalStats};
use dist_skyline::runtime::{run_experiment, ManetExperiment, ManetOutcome};
use dist_skyline::{
    score_records, verify_zero_drift, Device, DrrAccumulator, Forwarding, ObsConfig, QuerySpec,
    TraceConfig,
};
use skyline_core::region::Point;
use skyline_core::SkylineMerger;

use crate::gen::derive;
use crate::harness::{Mode, Phases, Recorder, Rep, Vals, Workload};
use crate::metrics::percentile;
use crate::probes;

/// `manet_dense`: the paper's largest network holding paper-size data.
/// `(g, tuples, BF originators, DF originators, horizon s)`.
const DENSE: (usize, usize, usize, usize, f64) = (10, 600_000, 16, 4, 7200.0);
const DENSE_SMOKE: (usize, usize, usize, usize, f64) = (4, 16_000, 4, 2, 600.0);
/// Mobility, radio and issue-time seeds of the two `manet_dense` arms.
const DENSE_SCENARIOS: [u64; 2] = [0xD0_5E01, 0xD0_5E02];

/// `manet_wide`: `(g, tuples per device, originators, horizon s)`.
const WIDE: (usize, usize, usize, f64) = (20, 10, 4, 300.0);
const WIDE_SMOKE: (usize, usize, usize, f64) = (8, 10, 2, 120.0);
/// The mobility traces `manet_wide` sums over. A route-repair storm is a
/// rare, expensive event (402 to 17 339 AODV frames for one cell when only
/// the data seed moves), so a drawn trace would make every gate on this
/// workload a coin flip; four fixed traces do not. These four were picked
/// from seeds 1..=32 for complete answers and for storms (12 109, 4 440,
/// 4 855 and 4 053 AODV frames) that the one-tuple floor run reproduces,
/// so `dist.data_share` measures data and not a re-rolled storm.
const WIDE_SCENARIOS: [u64; 4] = [23, 4, 14, 21];

pub struct Manet<const WIDE_NET: bool> {
    /// One `run_experiment` call each; a rep runs them all.
    cells: Vec<ManetExperiment>,
    /// `(position, radius)` of every query of the last checked rep, for
    /// the storage probe.
    queries: Vec<(Point, f64)>,
}

fn dense_cells(seed: u64, smoke: bool) -> Vec<ManetExperiment> {
    let (g, tuples, bf, df, horizon) = if smoke { DENSE_SMOKE } else { DENSE };
    [(Forwarding::BreadthFirst, bf), (Forwarding::DepthFirst, df)]
        .into_iter()
        .zip(DENSE_SCENARIOS)
        .map(|((forwarding, originators), scenario)| {
            let mut exp = ManetExperiment::paper_defaults(
                g,
                tuples,
                4,
                Distribution::Independent,
                500.0,
                scenario,
            );
            // Both arms query the same relation, drawn from `--seed`.
            exp.data.seed = derive(seed, "manet_dense/data");
            exp.forwarding = forwarding;
            exp.queries_per_device = (1, 1);
            exp.querying_devices = Some(originators);
            exp.sim_seconds = horizon;
            exp
        })
        .collect()
}

fn wide_cells(smoke: bool) -> Vec<ManetExperiment> {
    let (g, per_device, originators, horizon) = if smoke { WIDE_SMOKE } else { WIDE };
    let scenarios = if smoke { &WIDE_SCENARIOS[..2] } else { &WIDE_SCENARIOS[..] };
    scenarios
        .iter()
        .map(|&scenario| {
            let mut exp = ManetExperiment::paper_defaults(
                g,
                g * g * per_device,
                3,
                Distribution::Independent,
                f64::INFINITY,
                scenario,
            );
            // Constant density: the area grows with the network.
            let side = 100.0 * g as f64;
            exp.data.space = SpatialExtent::new(side, side);
            exp.queries_per_device = (1, 1);
            exp.querying_devices = Some(originators);
            exp.sim_seconds = horizon;
            exp
        })
        .collect()
}

/// Generates, partitions and loads a cell's relation the way
/// `run_experiment` does inside the timed call.
fn load(data: &DataSpec, g: usize, phases: &mut Phases) -> Vec<Device<HybridRelation>> {
    let t = Instant::now();
    let global = data.generate();
    phases.generate_s += t.elapsed().as_secs_f64();
    let t = Instant::now();
    let part = GridPartitioner::new(g, data.space).partition(&global);
    phases.partition_s += t.elapsed().as_secs_f64();
    let t = Instant::now();
    let devices: Vec<_> = part
        .parts
        .into_iter()
        .enumerate()
        .map(|(i, rows)| Device::new(i, HybridRelation::new(rows)))
        .collect();
    phases.build_s += t.elapsed().as_secs_f64();
    devices
}

/// Sums over the cells of one rep.
#[derive(Default)]
struct Acc {
    ops: u64,
    devices: u64,
    frames_sent: u64,
    bytes_sent: u64,
    frames_lost: u64,
    aodv_frames: u64,
    unicasts_submitted: u64,
    unicasts_delivered: u64,
    data_drops_forwarded: u64,
    energy_j: f64,
    forwards: u64,
    results: u64,
    arq_retries: u64,
    arq_exhausted: u64,
    dups: u64,
    delivery_failures: u64,
    reissues: u64,
    timeouts: u64,
    drr: DrrAccumulator,
    resp: Vec<f64>,
    df_resp: Vec<f64>,
    bf: (u64, f64),
    df: (u64, f64),
    completeness: f64,
    scored: u64,
    trace_events: u64,
    trace_dropped: u64,
}

impl Acc {
    fn add(&mut self, exp: &ManetExperiment, out: &ManetOutcome, wall_s: f64) {
        let n = out.records.len() as u64;
        self.ops += n;
        self.devices += (exp.g * exp.g) as u64;
        self.frames_sent += out.net.frames_sent;
        self.bytes_sent += out.net.bytes_sent;
        self.frames_lost += out.net.frames_lost;
        self.aodv_frames += out.net.aodv_frames;
        self.unicasts_submitted += out.net.app_unicasts_submitted;
        self.unicasts_delivered += out.net.app_unicasts_delivered;
        self.data_drops_forwarded += out.net.data_drops_forwarded;
        self.energy_j += out.total_energy_joules;
        self.forwards += out.total_forward_messages;
        self.results += out.total_result_messages;
        self.arq_retries += out.arq_retries;
        self.arq_exhausted += out.arq_exhausted;
        self.dups += out.duplicates_suppressed;
        self.delivery_failures += out.delivery_failures;
        self.reissues += out.reissues;
        self.timeouts += out.records.iter().filter(|r| r.timed_out).count() as u64;
        let resp = out.records.iter().filter(|r| !r.timed_out).filter_map(|r| r.response_seconds);
        if exp.forwarding == Forwarding::DepthFirst {
            // The serial token's response times are reported apart.
            self.df_resp.extend(resp);
            self.df = (self.df.0 + n, self.df.1 + wall_s);
        } else {
            // DRR and response time are the breadth-first protocol's
            // figures (Figs. 8-11); the serial token has its own.
            self.resp.extend(resp);
            out.records.iter().for_each(|r| self.drr.merge(&r.drr));
            self.bf = (self.bf.0 + n, self.bf.1 + wall_s);
        }
    }

    fn finish(mut self, rep: &mut Rep) {
        let ops = self.ops.max(1) as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 1.0 } else { a as f64 / b as f64 };
        rep.ops = self.ops;
        rep.det.extend([
            ("tx_bytes_per_op", self.bytes_sent as f64 / ops),
            ("drr", self.drr.drr(true)),
            ("manet.frames_sent", self.frames_sent as f64),
            ("manet.bytes_sent", self.bytes_sent as f64),
            ("manet.frames_lost", self.frames_lost as f64),
            (
                "manet.unicast_delivery_ratio",
                ratio(self.unicasts_delivered, self.unicasts_submitted),
            ),
            ("manet.data_drops_forwarded", self.data_drops_forwarded as f64),
            ("manet.energy_j_per_op", self.energy_j / ops),
            ("manet.aodv.frames", self.aodv_frames as f64),
            ("manet.aodv.frames_per_device", self.aodv_frames as f64 / self.devices.max(1) as f64),
            ("manet.aodv.share", self.aodv_frames as f64 / self.frames_sent.max(1) as f64),
            ("dist.bf.queries", self.bf.0 as f64),
            ("dist.df.queries", self.df.0 as f64),
            ("dist.forward_msgs_per_op", self.forwards as f64 / ops),
            ("dist.result_msgs_per_op", self.results as f64 / ops),
            ("dist.arq_retries", self.arq_retries as f64),
            ("dist.arq_exhausted", self.arq_exhausted as f64),
            ("dist.dups_suppressed", self.dups as f64),
            ("dist.delivery_failures", self.delivery_failures as f64),
            ("dist.reissues", self.reissues as f64),
            ("dist.timeouts", self.timeouts as f64),
        ]);
        self.resp.sort_by(f64::total_cmp);
        if !self.resp.is_empty() {
            rep.det.push(("sim_resp_p50_s", percentile(&self.resp, 0.5)));
            rep.det.push(("sim_resp_p95_s", percentile(&self.resp, 0.95)));
        }
        self.df_resp.sort_by(f64::total_cmp);
        if !self.df_resp.is_empty() {
            rep.det.push(("dist.df.sim_resp_p50_s", percentile(&self.df_resp, 0.5)));
        }
        if self.scored > 0 {
            rep.det.push(("completeness", self.completeness / self.scored as f64));
        }
        if self.trace_events > 0 {
            rep.det.push(("obs.trace_events", self.trace_events as f64));
            rep.det.push(("obs.trace_dropped", self.trace_dropped as f64));
        }
        rep.vol.push(("dist.bf.wall_s", self.bf.1));
        if self.df.0 > 0 {
            rep.vol.push(("dist.df.wall_s", self.df.1));
        }
    }
}

impl<const WIDE_NET: bool> Manet<WIDE_NET> {
    fn run_rep(&mut self, mode: Mode, rec: &mut Recorder) -> Rep {
        let mut rep = Rep::default();
        let mut acc = Acc::default();
        if mode.verifies() {
            self.queries.clear();
        }
        for cell in &self.cells {
            let mut exp = cell.clone();
            if mode == Mode::Traced {
                exp.obs = ObsConfig::sampled();
                exp.dist.trace = TraceConfig::full();
            }
            let (mut out, wall_s) = rec.timed("dist.run_experiment", |_| run_experiment(&exp));
            rep.wall_s += wall_s;
            if mode.verifies() {
                // The oracle pass `compute_completeness` would run inside
                // the call, run here instead, so a checked rep's wall time
                // still measures the protocol alone.
                let global = exp.data.generate();
                let parts = GridPartitioner::new(exp.g, exp.data.space).partition(&global).parts;
                score_records(&mut out.records, &parts);
            }
            acc.add(cell, &out, wall_s);
            for r in &out.records {
                let complete = r.completeness.unwrap_or(1.0);
                if r.spurious > 0 {
                    rep.errors
                        .push(format!("{:?}: {} spurious tuples in the answer", r.key, r.spurious));
                }
                rep.failed += u64::from(r.timed_out || complete < 1.0 || r.spurious > 0);
                if mode.verifies() {
                    acc.completeness += complete;
                    acc.scored += 1;
                    self.queries.push((r.pos, r.radius));
                }
            }
            if mode == Mode::Traced {
                if let Err(e) = verify_zero_drift(&out) {
                    rep.errors.push(format!("zero-drift check: {e}"));
                }
                let (q, f) = (out.query_trace.as_ref(), out.frame_trace.as_ref());
                acc.trace_events += q.map_or(0, |l| l.records.len() as u64)
                    + f.map_or(0, |l| l.entries.len() as u64);
                acc.trace_dropped += q.map_or(0, |l| l.dropped) + f.map_or(0, |l| l.dropped);
            }
        }
        acc.finish(&mut rep);
        rep
    }

    /// The same experiments with one tuple per device: what the network
    /// alone costs, and so the ceiling on what a data-layer change can save.
    fn floor_s(&self, rec: &mut Recorder) -> f64 {
        let (_, s) = rec.timed("manet.floor", |_| {
            for cell in &self.cells {
                let mut exp = cell.clone();
                exp.data.cardinality = exp.g * exp.g;
                std::hint::black_box(run_experiment(&exp));
            }
        });
        s
    }

    fn network_probes(&self, plain_wall_s: f64, rec: &mut Recorder) -> Vals {
        let exp = &self.cells[0];
        let floor_s = self.floor_s(rec);
        vec![
            ("manet.floor_s", floor_s),
            ("dist.data_share", 1.0 - floor_s / plain_wall_s),
            (
                "manet.grid.probe_ns_per_query",
                probes::grid_ns_per_query(
                    exp.g * exp.g,
                    exp.data.space.width,
                    exp.radio.range_m,
                    rec,
                ),
            ),
            ("manet.events.probe_ns_per_op", probes::events_ns_per_op(exp.g * exp.g, rec)),
        ]
    }

    /// Replays every (query, device) pair of the checked rep through the
    /// storage layer alone, unfiltered, then merges the replies.
    fn storage_probe(&self, rec: &mut Recorder) -> Vals {
        let exp = &self.cells[0];
        let devices = load(&exp.data, exp.g, &mut Phases::default());
        let (mut scan_s, mut merge_s) = (0.0, 0.0);
        let mut stats = LocalStats::default();
        let (mut calls, mut skipped, mut inserts, mut kept) = (0u64, 0u64, 0u64, 0u64);
        rec.begin("storage.probe");
        for (i, &(pos, radius)) in self.queries.iter().enumerate() {
            let spec = QuerySpec::new(0, (i % 256) as u8, pos, radius);
            let mut replies = Vec::new();
            for d in &devices {
                let (out, s) = rec.timed("storage.scan", |_| d.process(&spec, &[], &exp.strategy));
                scan_s += s;
                calls += 1;
                skipped += u64::from(out.skipped);
                stats.tuples_scanned += out.stats.tuples_scanned;
                stats.in_range += out.stats.in_range;
                stats.id_comparisons += out.stats.id_comparisons;
                stats.value_comparisons += out.stats.value_comparisons;
                replies.push(out.reply);
            }
            let (result, s) = rec.timed("core.merge", |_| {
                let mut merger = SkylineMerger::new();
                for reply in replies {
                    inserts += reply.len() as u64;
                    merger.insert_batch(reply);
                }
                merger.into_result()
            });
            merge_s += s;
            kept += result.len() as u64;
        }
        rec.end();
        vec![
            ("storage.scan.busy_s", scan_s),
            ("storage.scan.calls", calls as f64),
            ("storage.scan.ns_per_tuple", scan_s * 1e9 / stats.tuples_scanned.max(1) as f64),
            ("storage.scan.tuples_scanned", stats.tuples_scanned as f64),
            ("storage.scan.in_range", stats.in_range as f64),
            ("storage.scan.id_comparisons", stats.id_comparisons as f64),
            ("storage.scan.value_comparisons", stats.value_comparisons as f64),
            ("storage.scan.skipped", skipped as f64),
            ("core.merge.busy_s", merge_s),
            ("core.merge.inserts", inserts as f64),
            ("core.merge.kept_ratio", kept as f64 / inserts.max(1) as f64),
        ]
    }
}

impl Workload for Manet<false> {
    const NAME: &'static str = "manet_dense";

    fn setup(seed: u64, smoke: bool, phases: &mut Phases) -> Self {
        let cells = dense_cells(seed, smoke);
        // Both arms load the same relation; one load is the set-up.
        std::hint::black_box(load(&cells[0].data, cells[0].g, phases));
        Manet { cells, queries: Vec::new() }
    }

    fn rep(&mut self, mode: Mode, rec: &mut Recorder) -> Rep {
        self.run_rep(mode, rec)
    }

    fn probes(&mut self, plain_wall_s: f64, rec: &mut Recorder) -> Vals {
        let mut vals = self.network_probes(plain_wall_s, rec);
        vals.extend(self.storage_probe(rec));
        vals
    }
}

impl Workload for Manet<true> {
    const NAME: &'static str = "manet_wide";

    /// Seed-independent by design: see [`WIDE_SCENARIOS`].
    fn setup(_seed: u64, smoke: bool, phases: &mut Phases) -> Self {
        let cells = wide_cells(smoke);
        for cell in &cells {
            std::hint::black_box(load(&cell.data, cell.g, phases));
        }
        Manet { cells, queries: Vec::new() }
    }

    fn rep(&mut self, mode: Mode, rec: &mut Recorder) -> Rep {
        self.run_rep(mode, rec)
    }

    fn probes(&mut self, plain_wall_s: f64, rec: &mut Recorder) -> Vals {
        self.network_probes(plain_wall_s, rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_data_follows_the_seed_and_the_scenario_does_not() {
        let (a, b, c) = (dense_cells(1, true), dense_cells(1, true), dense_cells(2, true));
        assert_eq!(a[0].data.seed, b[0].data.seed);
        assert_ne!(a[0].data.seed, c[0].data.seed);
        assert_eq!(a[0].data.seed, a[1].data.seed, "both arms query one relation");
        assert_eq!(a[0].seed, c[0].seed);
        assert_eq!(
            (a[0].forwarding, a[1].forwarding),
            (Forwarding::BreadthFirst, Forwarding::DepthFirst)
        );
    }

    #[test]
    fn wide_cells_keep_the_paper_density() {
        for e in &wide_cells(false) {
            assert_eq!(e.data.space.width, 100.0 * e.g as f64);
            assert_eq!(e.data.cardinality, e.g * e.g * WIDE.1);
            assert!(e.radius.is_infinite());
        }
    }
}
