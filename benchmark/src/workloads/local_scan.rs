//! `local_scan`: no network. A device pair answers constrained skyline
//! queries the way two neighbours would — the originator scans and picks
//! a filter, the peer scans under that filter, the originator merges —
//! so `device_storage` and `skyline_core` do all the work.

use std::time::Instant;

use datagen::{DataSpec, Distribution};
use device_storage::{HybridRelation, LocalStats};
use dist_skyline::{score_epoch, Device, DrrAccumulator, QuerySpec, StrategyConfig};
use skyline_core::region::Point;
use skyline_core::tuple::batch_wire_size;
use skyline_core::{SkylineMerger, Tuple, TupleId};

use crate::gen::{derive, SplitMix};
use crate::harness::{Mode, Phases, Recorder, Rep, Workload};
use crate::metrics::{median, CLASSES};
use crate::oracle::brute_skyline;

/// Tuples per relation and ops per rep (a multiple of 32, so every class
/// meets every radius equally often; three reps give the 1 000 samples a
/// p99 needs).
const FULL: (usize, usize) = (20_000, 352);
const SMOKE: (usize, usize) = (1_500, 64);
/// Distances of interest cycled through; the last is unbounded.
const RADII: [f64; 4] = [100.0, 250.0, 500.0, f64::INFINITY];
/// One op in this many is checked against the brute-force skyline.
const VERIFY_EVERY: usize = 20;

struct Pair {
    a: Device<HybridRelation>,
    b: Device<HybridRelation>,
    cfg: StrategyConfig,
    /// The generated tuples of both sides, for the oracle.
    sites: Vec<Tuple>,
}

pub struct LocalScan {
    /// One pair per class: d ∈ {2,3,4,5} × {independent, anti-correlated}.
    pairs: Vec<Pair>,
    /// `(class, position, radius)` per op.
    ops: Vec<(usize, Point, f64)>,
}

impl Workload for LocalScan {
    const NAME: &'static str = "local_scan";
    const TAIL: Option<(&'static str, f64)> = Some(("op_p99_us", 0.99));

    fn setup(seed: u64, smoke: bool, phases: &mut Phases) -> Self {
        let (tuples, ops) = if smoke { SMOKE } else { FULL };
        let mut pairs = Vec::new();
        for (class, _) in CLASSES.iter().enumerate() {
            let dim = 2 + class / 2;
            let dist = if class % 2 == 0 {
                Distribution::Independent
            } else {
                Distribution::AntiCorrelated
            };
            let mut sites = Vec::new();
            let mut relation = |side: &str| {
                let tag = format!("local_scan/{class}/{side}");
                let t = Instant::now();
                let data =
                    DataSpec::manet_experiment(tuples, dim, dist, derive(seed, &tag)).generate();
                phases.generate_s += t.elapsed().as_secs_f64();
                sites.extend_from_slice(&data);
                let t = Instant::now();
                let rel = HybridRelation::new(data);
                phases.build_s += t.elapsed().as_secs_f64();
                rel
            };
            let (a, b) = (Device::new(0, relation("a")), Device::new(1, relation("b")));
            let cfg =
                StrategyConfig { exact_bounds: vec![1000.0; dim], ..StrategyConfig::default() };
            pairs.push(Pair { a, b, cfg, sites });
        }
        let mut rng = SplitMix::new(derive(seed, "local_scan/ops"));
        let ops = (0..ops)
            .map(|i| {
                (i % CLASSES.len(), rng.point(1000.0), RADII[(i / CLASSES.len()) % RADII.len()])
            })
            .collect();
        LocalScan { pairs, ops }
    }

    fn rep(&mut self, mode: Mode, rec: &mut Recorder) -> Rep {
        let mut rep = Rep { ops: self.ops.len() as u64, ..Rep::default() };
        let mut scan_us: Vec<Vec<f64>> = vec![Vec::new(); CLASSES.len()];
        let (mut scan_s, mut process_s, mut merge_s) = (0.0, 0.0, 0.0);
        let mut stats = LocalStats::default();
        let mut drr = DrrAccumulator::default();
        let (mut skipped, mut inserts, mut kept, mut bytes) = (0u64, 0u64, 0u64, 0u64);
        let (mut checked, mut completeness) = (0u64, 0.0);

        for (i, &(class, pos, radius)) in self.ops.iter().enumerate() {
            let pair = &self.pairs[class];
            let spec = QuerySpec::new(0, (i % 256) as u8, pos, radius);
            rec.begin("op");
            let t0 = Instant::now();
            rec.begin("storage.scan");
            let (own, filters) = pair.a.originate(&spec, &pair.cfg);
            rec.end();
            let t1 = Instant::now();
            rec.begin("storage.scan");
            let out = pair.b.process(&spec, &filters, &pair.cfg);
            rec.end();
            let t2 = Instant::now();
            rec.begin("core.merge");
            let reply_len = out.reply.len();
            let reply_bytes = batch_wire_size(&out.reply);
            inserts += (own.len() + reply_len) as u64;
            let mut merger = SkylineMerger::with_seed(own);
            merger.insert_batch(out.reply);
            let answer = merger.into_result();
            rec.end();
            let t3 = Instant::now();
            rec.end();

            rep.op_us.push((t3 - t0).as_secs_f64() * 1e6);
            scan_us[class].push((t1 - t0).as_secs_f64() * 1e6);
            scan_us[class].push((t2 - t1).as_secs_f64() * 1e6);
            scan_s += (t2 - t0).as_secs_f64();
            process_s += (t2 - t1).as_secs_f64();
            merge_s += (t3 - t2).as_secs_f64();
            stats.tuples_scanned += out.stats.tuples_scanned;
            stats.in_range += out.stats.in_range;
            stats.id_comparisons += out.stats.id_comparisons;
            stats.value_comparisons += out.stats.value_comparisons;
            skipped += u64::from(out.skipped);
            drr.add(out.unreduced_len, reply_len);
            kept += answer.len() as u64;
            // What the exchange would put on the air: the query with its
            // filter bank out, the reduced local skyline back.
            let filter_bytes: usize = filters.iter().map(|f| f.wire_size()).sum();
            bytes += (spec.wire_size() + filter_bytes + reply_bytes) as u64;

            if mode.verifies() && i % VERIFY_EVERY == 0 {
                let truth = brute_skyline(&pair.sites, &spec.region());
                let ids: Vec<TupleId> = answer.iter().map(TupleId::site).collect();
                let (c, spurious) = score_epoch(&ids, &truth);
                checked += 1;
                completeness += c;
                if spurious > 0 {
                    rep.errors.push(format!("local_scan op {i}: {spurious} spurious tuples"));
                }
                if c < 1.0 || spurious > 0 {
                    rep.failed += 1;
                }
            }
            std::hint::black_box(answer);
        }

        rep.wall_s = rep.op_us.iter().sum::<f64>() / 1e6;
        let n = self.ops.len() as f64;
        rep.det = vec![
            ("tx_bytes_per_op", bytes as f64 / n),
            ("drr", drr.drr(true)),
            ("storage.scan.calls", 2.0 * n),
            ("storage.scan.tuples_scanned", stats.tuples_scanned as f64),
            ("storage.scan.in_range", stats.in_range as f64),
            ("storage.scan.id_comparisons", stats.id_comparisons as f64),
            ("storage.scan.value_comparisons", stats.value_comparisons as f64),
            ("storage.scan.skipped", skipped as f64),
            ("core.merge.inserts", inserts as f64),
            ("core.merge.kept_ratio", kept as f64 / inserts.max(1) as f64),
        ];
        if checked > 0 {
            rep.det.push(("completeness", completeness / checked as f64));
        }
        rep.vol = vec![
            ("storage.scan.busy_s", scan_s),
            ("storage.scan.ns_per_tuple", process_s * 1e9 / stats.tuples_scanned.max(1) as f64),
            ("core.merge.busy_s", merge_s),
        ];
        for (name, us) in CLASSES.iter().zip(scan_us) {
            rep.vol.push((name, median(us)));
        }
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_and_data_follow_the_seed() {
        let make = |seed| LocalScan::setup(seed, true, &mut Phases::default());
        let (a, b, c) = (make(7), make(7), make(8));
        assert_eq!(a.ops, b.ops);
        assert_ne!(a.ops, c.ops);
        assert_eq!(a.pairs[3].sites, b.pairs[3].sites);
        assert_ne!(a.pairs[3].sites, c.pairs[3].sites);
        let half = a.pairs[3].sites.len() / 2;
        assert_ne!(a.pairs[3].sites[..half], a.pairs[3].sites[half..], "the two sides differ");
    }
}
