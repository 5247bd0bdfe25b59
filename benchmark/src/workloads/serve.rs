//! `serve_read` and `serve_write`: the diagram-cache serving front end
//! under a repeated-client workload. The read variant times batches only
//! (ingest is its set-up side); the write variant times each epoch's
//! ingest with that epoch's batches.
//!
//! Closed loop, one caller: `serve_batch` is a synchronous library call,
//! so a caller waits for its answer before asking again.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use datagen::{DataSpec, Distribution};
use dist_skyline::{score_epoch, verify_serve_drift, ServeConfig, ServeEngine};
use skyline_core::diagram::SkyDelta;
use skyline_core::region::Point;
use skyline_core::{Tuple, TupleId};

use crate::gen::{derive, SplitMix};
use crate::harness::{Mode, Phases, Recorder, Rep, Workload};
use crate::metrics::{median, percentile};
use crate::oracle::brute_skyline;

/// Shape of one serving horizon.
#[derive(Debug, Clone, Copy)]
struct Shape {
    sites: usize,
    clients: usize,
    epochs: usize,
    /// Sweeps of the whole client pool per epoch.
    rounds: usize,
    /// Sites added per epoch (each retires two epochs later).
    churn: usize,
    batch: usize,
}

/// 983 040 lookups a horizon: under the engine's one-million-record trace
/// ring, so `verify_serve_drift` stays valid.
const READ: Shape =
    Shape { sites: 4_000, clients: 1_024, epochs: 12, rounds: 80, churn: 8, batch: 64 };
const WRITE: Shape =
    Shape { sites: 4_000, clients: 128, epochs: 48, rounds: 1, churn: 32, batch: 64 };
const READ_SMOKE: Shape =
    Shape { sites: 500, clients: 128, epochs: 4, rounds: 4, churn: 4, batch: 64 };
const WRITE_SMOKE: Shape =
    Shape { sites: 500, clients: 64, epochs: 8, rounds: 1, churn: 8, batch: 64 };
const DIM: usize = 3;
/// Query radii, one per band of the default diagram.
const RADII: [f64; 3] = [90.0, 180.0, 400.0];

pub struct Serve<const WRITE_SIDE: bool> {
    shape: Shape,
    cfg: ServeConfig,
    relation: Vec<Tuple>,
    pool: Vec<(Point, f64)>,
    /// The site delta ingested before epoch `e + 1`.
    deltas: Vec<SkyDelta>,
}

impl<const WRITE_SIDE: bool> Serve<WRITE_SIDE> {
    fn build(seed: u64, smoke: bool, phases: &mut Phases) -> Self {
        let (shape, name) = match (WRITE_SIDE, smoke) {
            (false, false) => (READ, "serve_read"),
            (false, true) => (READ_SMOKE, "serve_read"),
            (true, false) => (WRITE, "serve_write"),
            (true, true) => (WRITE_SMOKE, "serve_write"),
        };
        let t = Instant::now();
        let data_seed = derive(seed, &format!("{name}/sites"));
        let relation =
            DataSpec::manet_experiment(shape.sites, DIM, Distribution::Independent, data_seed)
                .generate();
        let mut rng = SplitMix::new(derive(seed, &format!("{name}/clients")));
        let pool = (0..shape.clients)
            .map(|i| (rng.point(1000.0), RADII[i % RADII.len()]))
            .collect();
        let mut rng = SplitMix::new(derive(seed, &format!("{name}/churn")));
        let mut retire: VecDeque<TupleId> = VecDeque::new();
        let deltas = (1..shape.epochs)
            .map(|_| {
                let mut delta = SkyDelta::default();
                for _ in 0..shape.churn {
                    let site = rng.site(1000.0, DIM);
                    let id = TupleId::site(&site);
                    delta.adds.push((id, site));
                    retire.push_back(id);
                }
                while retire.len() > 2 * shape.churn {
                    delta.removes.push(retire.pop_front().expect("non-empty"));
                }
                delta
            })
            .collect();
        phases.generate_s += t.elapsed().as_secs_f64();

        let cfg = ServeConfig {
            threads: 2,
            slots: shape.epochs + 2,
            backend_g: 8,
            ..ServeConfig::default()
        };
        let me = Serve { shape, cfg, relation, pool, deltas };
        // What a caller never waits for is set-up: building the engine and,
        // on the read side, publishing every epoch of the horizon (with one
        // sweep each, so the diagram holds the cells a publish clones).
        // Timing it here makes work moved from `serve_batch` into ingest
        // show up in `setup_s`. The write side times its ingests instead.
        let t = Instant::now();
        let engine = ServeEngine::new(me.cfg.clone(), me.relation.clone());
        if !WRITE_SIDE {
            for delta in &me.deltas {
                for batch in me.pool.chunks(shape.batch) {
                    std::hint::black_box(engine.serve_batch(batch));
                }
                engine.ingest_epoch(delta);
            }
        }
        phases.build_s += t.elapsed().as_secs_f64();
        me
    }

    fn horizon(&self, mode: Mode, rec: &mut Recorder) -> Rep {
        let shape = self.shape;
        let mut rep = Rep::default();
        let engine = ServeEngine::new(self.cfg.clone(), self.relation.clone());
        // The benchmark's own copy of the live site set, for the recompute.
        let mut live: BTreeMap<TupleId, Tuple> = BTreeMap::new();
        if mode.verifies() {
            live.extend(self.relation.iter().map(|t| (TupleId::site(t), t.clone())));
        }
        let (mut batch_s, mut ingest_ms, mut cold_us) = (0.0, Vec::new(), Vec::new());
        let (mut checked, mut completeness) = (0u64, 0.0);

        for epoch in 0..shape.epochs {
            let mut op_s = 0.0;
            if epoch > 0 {
                let delta = &self.deltas[epoch - 1];
                let (_, s) = rec.timed("dist.serve.ingest_epoch", |_| engine.ingest_epoch(delta));
                ingest_ms.push(s * 1e3);
                op_s += s;
                if mode.verifies() {
                    live.extend(delta.adds.iter().cloned());
                    delta.removes.iter().for_each(|id| {
                        live.remove(id);
                    });
                }
            }
            for round in 0..shape.rounds {
                for (b, batch) in self.pool.chunks(shape.batch).enumerate() {
                    rec.begin("dist.serve.serve_batch");
                    let t = Instant::now();
                    let answers = engine.serve_batch(batch);
                    let s = t.elapsed().as_secs_f64();
                    rec.end();
                    batch_s += s;
                    if answers.iter().any(|a| !a.cached) {
                        cold_us.push(s * 1e6);
                    }
                    if WRITE_SIDE {
                        op_s += s;
                    } else {
                        rep.op_us.push(s * 1e6);
                    }
                    // Recompute one answer of every fourth batch of an
                    // epoch's first sweep from the definition.
                    if mode.verifies() && round == 0 && b % 4 == 0 {
                        let a = &answers[0];
                        let truth =
                            brute_skyline(live.values(), &self.cfg.diagram.canonical_query(a.key));
                        let (c, spurious) = score_epoch(&a.ids, &truth);
                        checked += 1;
                        completeness += c;
                        if c < 1.0 || spurious > 0 {
                            rep.failed += 1;
                            rep.errors.push(format!(
                                "epoch {epoch}: served answer differs from a recompute \
                                 (completeness {c}, {spurious} spurious)"
                            ));
                        }
                    }
                    std::hint::black_box(answers);
                }
            }
            // Write side: an op is one epoch's ingest with its batches.
            // The all-cold epoch 0 fills the cache and is no op.
            if WRITE_SIDE && epoch > 0 {
                rep.op_us.push(op_s * 1e6);
            }
        }
        rep.wall_s = rep.op_us.iter().sum::<f64>() / 1e6;
        rep.ops = rep.op_us.len() as u64;

        let s = engine.stats();
        let lookups = s.lookups.max(1) as f64;
        rep.det = vec![
            ("hit_ratio", s.hits as f64 / lookups),
            ("stale_age_mean", s.staleness.sum() as f64 / lookups),
            ("dist.serve.lookups", s.lookups as f64),
            ("dist.serve.misses", s.misses as f64),
            ("dist.serve.evictions", s.evictions as f64),
            ("dist.serve.invalidations", s.invalidations as f64),
            ("dist.serve.backfills", s.backfills as f64),
            ("core.diagram.cells_touched", s.cells_touched as f64),
            ("core.diagram.cells_skipped", s.cells_skipped as f64),
            (
                "core.diagram.touch_ratio",
                s.cells_touched as f64 / (s.cells_touched + s.cells_skipped).max(1) as f64,
            ),
        ];
        ingest_ms.sort_by(f64::total_cmp);
        rep.vol = vec![
            ("dist.serve.batch_s", batch_s),
            ("dist.serve.ns_per_lookup", batch_s * 1e9 / lookups),
            ("dist.serve.ingest_s", ingest_ms.iter().sum::<f64>() / 1e3),
            ("dist.serve.ingest_p50_ms", percentile(&ingest_ms, 0.5)),
            ("dist.serve.ingest_p95_ms", percentile(&ingest_ms, 0.95)),
        ];
        if !cold_us.is_empty() {
            rep.vol.push(("dist.serve.cold_batch_p50_us", median(cold_us)));
        }

        if mode.verifies() {
            rep.det.push(("completeness", completeness / checked.max(1) as f64));
            if let Err(e) = engine.check_invariants() {
                rep.errors.push(format!("diagram invariants: {e}"));
            }
            let log = engine.take_trace();
            if let Err(e) = verify_serve_drift(&log, &s) {
                rep.errors.push(format!("serve drift check: {e}"));
            }
            if mode == Mode::Traced {
                rep.det.push(("obs.trace_events", log.records.len() as f64));
                rep.det.push(("obs.trace_dropped", log.dropped as f64));
            }
        }
        rep
    }
}

impl Workload for Serve<false> {
    const NAME: &'static str = "serve_read";
    const TAIL: Option<(&'static str, f64)> = Some(("op_p99_us", 0.99));
    fn setup(seed: u64, smoke: bool, phases: &mut Phases) -> Self {
        Self::build(seed, smoke, phases)
    }
    fn rep(&mut self, mode: Mode, rec: &mut Recorder) -> Rep {
        self.horizon(mode, rec)
    }
}

impl Workload for Serve<true> {
    const NAME: &'static str = "serve_write";
    /// 47 ops a horizon: five horizons leave ten samples beyond p95.
    const TAIL: Option<(&'static str, f64)> = Some(("op_p95_us", 0.95));
    fn setup(seed: u64, smoke: bool, phases: &mut Phases) -> Self {
        Self::build(seed, smoke, phases)
    }
    fn rep(&mut self, mode: Mode, rec: &mut Recorder) -> Rep {
        self.horizon(mode, rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_and_churn_follow_the_seed() {
        let make = |seed| Serve::<true>::build(seed, true, &mut Phases::default());
        let (a, b, c) = (make(3), make(3), make(4));
        assert_eq!((&a.pool, &a.deltas, &a.relation), (&b.pool, &b.deltas, &b.relation));
        assert_ne!(a.pool, c.pool);
        assert_ne!(a.deltas, c.deltas);
        assert_ne!(a.relation, c.relation);
        assert_eq!(a.deltas.len(), WRITE_SMOKE.epochs - 1);
        // Sites retire two epochs after they arrive.
        assert!(a.deltas[1].removes.is_empty());
        assert_eq!(a.deltas[2].removes.len(), WRITE_SMOKE.churn);
    }

    #[test]
    fn read_horizon_fits_the_trace_ring() {
        let lookups = READ.clients * READ.epochs * READ.rounds;
        assert!(lookups + READ.epochs * READ.sites < ServeConfig::default().trace_capacity * 2);
        assert!(lookups <= ServeConfig::default().trace_capacity);
    }
}
