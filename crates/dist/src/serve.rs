//! The embeddable query-serving front end (DESIGN §14).
//!
//! The paper's mobile originator re-floods the network for every `Q_ds`
//! even when nothing changed. This module turns repeated queries into
//! cache hits: a [`SkylineDiagram`] quantizes the `(origin, radius)`
//! query plane into cells with constant answers, and [`ServeEngine`]
//! fronts it with a thread-pool batch service over
//! **snapshot-per-epoch** state:
//!
//! * **Lock-free reads.** Each epoch publishes an immutable
//!   [`Snapshot`] (the diagram's frozen answer table + the site list a
//!   cold miss builds its query backend from) into an epoch-pinned slot
//!   ring; readers load the current `Arc` with one atomic acquire and
//!   never take a lock on the hot path.
//! * **Request batching.** [`ServeEngine::serve_batch`] groups requests
//!   by diagram cell, so `n` clients in the same cell cost one lookup
//!   (and at most one cold compute — grouping *is* the single-flight).
//! * **Cold-miss fallback.** A request for an unmaterialized cell runs a
//!   real BF/EXT query through [`StaticGridNetwork::run_query_at`] at
//!   the cell's canonical query point, serves the result, and back-fills
//!   the writer diagram at the next epoch ingest.
//! * **TTL + delta invalidation.** [`ServeEngine::ingest_epoch`] applies
//!   a [`SkyDelta`] through the diagram's intersection test, evicts
//!   cells whose answer outlived `ttl_epochs`, and publishes the next
//!   snapshot.
//!
//! Every serving action is traced (`CacheHit` / `CacheMiss` /
//! `CellInvalidated`) and [`verify_serve_drift`] demands the trace
//! aggregates equal the engine's counters exactly — the same zero-drift
//! discipline the simulator enforces.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use datagen::SpatialExtent;
use device_storage::HybridRelation;
use manet_sim::trace::QueryTraceState;
use manet_sim::{QueryEvent, QueryTraceLog, SimTime};
use sim_obs::PowHistogram;
use skyline_core::diagram::{
    ApplyReport, CellKey, DiagramConfig, FrozenAnswers, SkyDelta, SkylineDiagram,
};
use skyline_core::region::Point;
use skyline_core::{Tuple, TupleId};

use crate::config::StrategyConfig;
use crate::static_net::{grid_network_from_global, StaticGridNetwork};
use crate::trace::{trace_aggregates, TraceAggregates};

/// Configuration of a [`ServeEngine`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads per batch. Fixed by config — never by the caller's
    /// parallelism — so serving results are identical under any `--jobs`.
    pub threads: usize,
    /// Query-plane quantization.
    pub diagram: DiagramConfig,
    /// A cell whose answer has not changed for this many epochs is
    /// evicted at ingest (the staleness backstop); the next request
    /// recomputes it cold.
    pub ttl_epochs: u64,
    /// Snapshot slots. The ring is an append-only epoch log: it retains
    /// every published snapshot so readers stay lock-free without
    /// reclamation machinery, and refuses to publish past capacity —
    /// size it to the serving horizon (one engine per horizon).
    pub slots: usize,
    /// Grid side of the cold-path backend network.
    pub backend_g: usize,
    /// Spatial extent of the backend grid.
    pub space: SpatialExtent,
    /// Strategy for cold-path BF/EXT queries.
    pub strategy: StrategyConfig,
    /// Node id serve events are traced on (the serving originator).
    pub origin_node: usize,
    /// Per-node trace-ring capacity. Must cover every serve event or the
    /// zero-drift guarantee is voided (exactly like `TraceConfig`).
    pub trace_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 4,
            diagram: DiagramConfig::new(125.0, vec![125.0, 250.0, 500.0]),
            ttl_epochs: 16,
            slots: 128,
            backend_g: 4,
            space: SpatialExtent::PAPER,
            strategy: StrategyConfig::default(),
            origin_node: 0,
            trace_capacity: 1 << 20,
        }
    }
}

/// One immutable epoch of serving state: only what readers read. The
/// `LiveSkyline`s stay with the writer.
pub struct Snapshot {
    /// Epoch this snapshot describes.
    pub epoch: u64,
    /// Cached answers of the cells materialized at this epoch; a cell's
    /// id list is shared with the writer and the neighbouring epochs
    /// until a delta changes it.
    answers: FrozenAnswers,
    /// The epoch's site set, shared with neighbouring epochs that an
    /// empty delta separates.
    sites: Arc<[Tuple]>,
    /// Cold-path backend over `sites`, built by this epoch's first cold
    /// miss — an epoch that never misses builds none.
    backend: OnceLock<StaticGridNetwork<HybridRelation>>,
}

/// Epoch-pinned snapshot publication: an append-only slot log with an
/// atomic cursor. Readers do one `Acquire` load plus an `Arc` clone —
/// no locks; the writer `set`s the next [`OnceLock`] slot and advances
/// the cursor with `Release`.
struct SnapshotRing {
    slots: Box<[OnceLock<Arc<Snapshot>>]>,
    /// `index + 1` of the current snapshot; `0` = nothing published.
    current: AtomicUsize,
}

impl SnapshotRing {
    fn new(slots: usize) -> Self {
        assert!(slots > 0, "need at least one snapshot slot");
        SnapshotRing {
            slots: (0..slots).map(|_| OnceLock::new()).collect(),
            current: AtomicUsize::new(0),
        }
    }

    /// Publishes `snap` as the new current snapshot. Single writer only.
    fn publish(&self, snap: Arc<Snapshot>) {
        let idx = self.current.load(Ordering::Relaxed);
        assert!(
            idx < self.slots.len(),
            "snapshot ring exhausted after {idx} epochs: raise ServeConfig::slots \
             or recycle the engine per horizon"
        );
        self.slots[idx].set(snap).ok().expect("slot written once");
        self.current.store(idx + 1, Ordering::Release);
    }

    /// The current snapshot (lock-free).
    fn current(&self) -> Option<Arc<Snapshot>> {
        match self.current.load(Ordering::Acquire) {
            0 => None,
            n => self.slots[n - 1].get().cloned(),
        }
    }
}

/// One answered request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServedAnswer {
    /// Diagram cell the request quantized to.
    pub key: CellKey,
    /// Skyline ids of the canonical answer, sorted.
    pub ids: Vec<TupleId>,
    /// `true` when served from a materialized diagram cell; `false` for
    /// requests resolved by this epoch's cold compute.
    pub cached: bool,
    /// Staleness in epochs (snapshot epoch − the cell's last answer
    /// refresh; 0 for cold answers).
    pub age: u64,
    /// Snapshot epoch the answer was pinned to.
    pub epoch: u64,
}

/// Deterministic lifetime counters of a [`ServeEngine`]. Wall-clock
/// throughput is deliberately absent — benches measure it around the
/// engine so these stay bit-identical across `--jobs` and machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered.
    pub lookups: u64,
    /// Requests served from a cached (or just-computed-by-a-groupmate)
    /// answer.
    pub hits: u64,
    /// Cold computes — real BF/EXT queries issued by the fallback.
    pub misses: u64,
    /// Cached cell answers changed by deltas.
    pub invalidations: u64,
    /// `(site, cell)` intersection-test hits across all ingests.
    pub cells_touched: u64,
    /// `(site, cell)` intersection-test skips across all ingests.
    pub cells_skipped: u64,
    /// Cells evicted by the TTL backstop.
    pub evictions: u64,
    /// Cold keys back-filled into the writer diagram.
    pub backfills: u64,
    /// Σ answer sizes over all requests.
    pub tuples_served: u64,
    /// Epochs ingested (excluding the construction epoch 0).
    pub epochs: u64,
    /// Cold-path backends built: one per epoch that took a cold miss.
    pub backend_builds: u64,
    /// Per-request staleness in epochs.
    pub staleness: PowHistogram,
}

impl ServeStats {
    fn new() -> Self {
        ServeStats {
            lookups: 0,
            hits: 0,
            misses: 0,
            invalidations: 0,
            cells_touched: 0,
            cells_skipped: 0,
            evictions: 0,
            backfills: 0,
            tuples_served: 0,
            epochs: 0,
            backend_builds: 0,
            staleness: PowHistogram::new(),
        }
    }
}

/// Writer-side mutable state (single ingester).
struct Writer {
    epoch: u64,
    diagram: SkylineDiagram,
    /// The diagram's site set as snapshots share it, re-listed by an
    /// ingest whose delta is not empty.
    sites: Arc<[Tuple]>,
}

/// Coordinator-side accounting (stats + trace + pending backfills).
/// Workers never touch this — it is updated after each batch in
/// deterministic cell order.
struct Ledger {
    stats: ServeStats,
    trace: QueryTraceState,
    /// Cold keys awaiting materialization at the next ingest.
    pending: BTreeSet<CellKey>,
}

/// Per-group outcome of a batch worker.
struct GroupResult {
    ids: Arc<[TupleId]>,
    cached: bool,
    age: u64,
    /// `true` when this group ran the cold compute (as opposed to
    /// reusing one from an earlier batch in the same epoch).
    computed_now: bool,
}

/// Cold answers computed this epoch, keyed `(epoch, cell)`: later
/// batches in the same epoch reuse them instead of re-flooding.
type ColdAnswers = BTreeMap<(u64, CellKey), Arc<[TupleId]>>;

/// The embeddable serving front end. One writer ([`ingest_epoch`]
/// [`ServeEngine::ingest_epoch`]) and any number of batch readers;
/// reads are lock-free against the pinned snapshot.
pub struct ServeEngine {
    cfg: ServeConfig,
    ring: SnapshotRing,
    writer: Mutex<Writer>,
    ledger: Mutex<Ledger>,
    cold: Mutex<ColdAnswers>,
    /// Bumped inside each snapshot's backend initialiser.
    backend_builds: AtomicU64,
}

impl ServeEngine {
    /// Builds an engine over `seed` sites and publishes the epoch-0
    /// snapshot.
    pub fn new(cfg: ServeConfig, seed: Vec<Tuple>) -> Self {
        let diagram = SkylineDiagram::with_sites(cfg.diagram.clone(), seed);
        let sites = site_list(&diagram);
        let trace_cap = cfg.trace_capacity;
        let engine = ServeEngine {
            ring: SnapshotRing::new(cfg.slots),
            writer: Mutex::new(Writer { epoch: 0, diagram, sites }),
            ledger: Mutex::new(Ledger {
                stats: ServeStats::new(),
                trace: QueryTraceState::new(trace_cap),
                pending: BTreeSet::new(),
            }),
            cold: Mutex::new(BTreeMap::new()),
            backend_builds: AtomicU64::new(0),
            cfg,
        };
        engine.publish_locked(&engine.writer.lock().expect("writer lock"));
        engine
    }

    /// The configuration in force.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Current snapshot epoch.
    pub fn epoch(&self) -> u64 {
        self.ring.current().map(|s| s.epoch).unwrap_or(0)
    }

    /// Deterministic lifetime counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            backend_builds: self.backend_builds.load(Ordering::Relaxed),
            ..self.ledger.lock().expect("ledger lock").stats.clone()
        }
    }

    /// Drains the serve trace into a log (call once, at the end of the
    /// horizon — the zero-drift check compares cumulative counters).
    pub fn take_trace(&self) -> QueryTraceLog {
        let mut led = self.ledger.lock().expect("ledger lock");
        let cap = self.cfg.trace_capacity;
        std::mem::replace(&mut led.trace, QueryTraceState::new(cap)).into_log()
    }

    /// Proves the writer diagram exact (every cached answer equals a
    /// fresh recompute).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.writer.lock().expect("writer lock").diagram.check_invariants()
    }

    /// Publishes the writer's state: a pointer copy per materialized
    /// cell plus one for the site list.
    fn publish_locked(&self, w: &Writer) {
        self.ring.publish(Arc::new(Snapshot {
            epoch: w.epoch,
            answers: w.diagram.freeze(),
            sites: w.sites.clone(),
            backend: OnceLock::new(),
        }));
    }

    /// Ingests one epoch's site delta: back-fills cold keys from the
    /// previous epoch, applies the delta through the intersection test,
    /// evicts TTL-stale cells, and publishes the next snapshot. Single
    /// writer; concurrent readers keep serving the previous epoch until
    /// the publish lands.
    pub fn ingest_epoch(&self, delta: &SkyDelta) -> ApplyReport {
        let mut w = self.writer.lock().expect("writer lock");
        let mut led = self.ledger.lock().expect("ledger lock");
        w.epoch += 1;
        let epoch = w.epoch;

        // Back-fill: cold answers computed last epoch become materialized
        // cells, stamped with the epoch they were computed against.
        let pending = std::mem::take(&mut led.pending);
        for key in pending {
            w.diagram.materialize(key, epoch - 1);
            led.stats.backfills += 1;
        }

        let report = w.diagram.apply(delta, epoch);
        for key in &report.invalidated {
            led.stats.invalidations += 1;
            led.trace.record(
                SimTime(epoch),
                self.cfg.origin_node,
                None,
                QueryEvent::CellInvalidated { epoch, band: key.band as usize },
            );
        }
        led.stats.cells_touched += report.cells_touched;
        led.stats.cells_skipped += report.cells_skipped;
        led.stats.evictions += w.diagram.evict_stale(epoch, self.cfg.ttl_epochs).len() as u64;
        led.stats.epochs += 1;
        if !delta.is_empty() {
            w.sites = site_list(&w.diagram);
        }

        // Cold answers of earlier epochs will not be asked for again.
        self.cold.lock().expect("cold lock").retain(|&(e, _), _| e >= epoch);

        self.publish_locked(&w);
        report
    }

    /// Answers a batch of `(origin, radius)` requests against the
    /// current snapshot. Requests are grouped by diagram cell; groups
    /// are resolved by a pool of `cfg.threads` workers doing lock-free
    /// snapshot reads (a cold group issues one real backend query).
    /// Counters and traces are settled by the coordinator in cell order,
    /// so every output is bit-identical regardless of thread count.
    pub fn serve_batch(&self, requests: &[(Point, f64)]) -> Vec<ServedAnswer> {
        let snap = self.ring.current().expect("constructor publishes epoch 0");

        let mut groups: BTreeMap<CellKey, Vec<usize>> = BTreeMap::new();
        for (i, &(origin, radius)) in requests.iter().enumerate() {
            groups.entry(self.cfg.diagram.key_for(origin, radius)).or_default().push(i);
        }
        let keys: Vec<CellKey> = groups.keys().copied().collect();

        let results: Vec<OnceLock<GroupResult>> = keys.iter().map(|_| OnceLock::new()).collect();
        // Pure-cached batches (every key materialized in the snapshot)
        // resolve in microseconds; spawning the pool would cost more than
        // the work. The pool only pays off when some group carries a real
        // backend query, so spawn only then. Either path resolves the
        // same groups to the same results — determinism is unaffected.
        let any_cold = keys.iter().any(|&k| snap.answers.answer(k).is_none());
        if !any_cold || self.cfg.threads <= 1 {
            for (i, &key) in keys.iter().enumerate() {
                let group_size = groups[&key].len() as u64;
                results[i]
                    .set(self.resolve(&snap, key, group_size))
                    .ok()
                    .expect("one resolver per group");
            }
        } else {
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..self.cfg.threads.max(1) {
                    s.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&key) = keys.get(i) else { break };
                        let group_size = groups[&key].len() as u64;
                        results[i]
                            .set(self.resolve(&snap, key, group_size))
                            .ok()
                            .expect("one worker per group");
                    });
                }
            });
        }

        // Settle accounting in deterministic cell order.
        let mut led = self.ledger.lock().expect("ledger lock");
        let mut answers: Vec<Option<ServedAnswer>> = vec![None; requests.len()];
        for (i, key) in keys.iter().enumerate() {
            let gr = results[i].get().expect("worker resolved the group");
            let members = &groups[key];
            let n = members.len() as u64;
            led.stats.lookups += n;
            led.stats.tuples_served += gr.ids.len() as u64 * n;
            let tuples = gr.ids.len();
            if gr.computed_now {
                // First resolution of a cold cell this epoch: one miss
                // (the real query), the rest of the group rides it.
                led.stats.misses += 1;
                led.stats.hits += n - 1;
                led.trace.record(
                    SimTime(snap.epoch),
                    self.cfg.origin_node,
                    None,
                    QueryEvent::CacheMiss { epoch: snap.epoch, tuples },
                );
                led.stats.staleness.record(0);
                for _ in 1..n {
                    led.trace.record(
                        SimTime(snap.epoch),
                        self.cfg.origin_node,
                        None,
                        QueryEvent::CacheHit { epoch: snap.epoch, age: 0, tuples },
                    );
                    led.stats.staleness.record(0);
                }
                led.pending.insert(*key);
            } else {
                led.stats.hits += n;
                for _ in 0..n {
                    led.trace.record(
                        SimTime(snap.epoch),
                        self.cfg.origin_node,
                        None,
                        QueryEvent::CacheHit { epoch: snap.epoch, age: gr.age, tuples },
                    );
                    led.stats.staleness.record(gr.age);
                }
                if !gr.cached {
                    // Cold answer reused from an earlier batch: still
                    // awaiting back-fill.
                    led.pending.insert(*key);
                }
            }
            for &req in members {
                answers[req] = Some(ServedAnswer {
                    key: *key,
                    ids: gr.ids.to_vec(),
                    cached: gr.cached,
                    age: gr.age,
                    epoch: snap.epoch,
                });
            }
        }
        answers.into_iter().map(|a| a.expect("every request grouped")).collect()
    }

    /// Resolves one cell group against the pinned snapshot.
    fn resolve(&self, snap: &Snapshot, key: CellKey, group_size: u64) -> GroupResult {
        let mut span = sim_obs::span!("serve::lookup");
        span.add_units(group_size);
        if let Some(ans) = snap.answers.answer(key) {
            return GroupResult {
                age: snap.epoch - ans.refreshed_at.min(snap.epoch),
                ids: ans.ids.clone(),
                cached: true,
                computed_now: false,
            };
        }
        // Cold: reuse this epoch's earlier compute if any, else issue a
        // real backend query at the canonical query point. Grouping
        // guarantees one resolver per key per batch, so no flight races.
        if let Some(ids) = self.cold.lock().expect("cold lock").get(&(snap.epoch, key)) {
            return GroupResult { ids: ids.clone(), cached: false, age: 0, computed_now: false };
        }
        // Concurrent cold groups of one snapshot wait on the one build.
        let backend = snap.backend.get_or_init(|| {
            self.backend_builds.fetch_add(1, Ordering::Relaxed);
            grid_network_from_global(&snap.sites, self.cfg.backend_g, self.cfg.space)
        });
        let region = self.cfg.diagram.canonical_query(key);
        let origin = backend.nearest_device(region.center);
        let out = backend.run_query_at(origin, region.center, region.radius, &self.cfg.strategy);
        let mut ids: Vec<TupleId> = out.result.iter().map(TupleId::site).collect();
        ids.sort_unstable();
        let ids: Arc<[TupleId]> = ids.into();
        self.cold.lock().expect("cold lock").insert((snap.epoch, key), ids.clone());
        GroupResult { ids, cached: false, age: 0, computed_now: true }
    }
}

/// The diagram's live sites, in id order.
fn site_list(diagram: &SkylineDiagram) -> Arc<[Tuple]> {
    diagram.sites().map(|(_, t)| t.clone()).collect()
}

/// Reconciles a serve trace against the engine's counters: hit, miss,
/// and invalidation events must match exactly, and the staleness
/// histogram must account for every request (count and sum). Any drift
/// is a bug in either side.
pub fn verify_serve_drift(
    log: &QueryTraceLog,
    stats: &ServeStats,
) -> Result<TraceAggregates, String> {
    if log.dropped > 0 {
        return Err(format!(
            "serve trace dropped {} records (ring overflow voids the zero-drift guarantee)",
            log.dropped
        ));
    }
    let agg = trace_aggregates(log);
    let mut errs: Vec<String> = Vec::new();
    let mut check = |name: &str, traced: u64, counted: u64| {
        if traced != counted {
            errs.push(format!("{name}: trace says {traced}, counters say {counted}"));
        }
    };
    check("cache_hits", agg.cache_hits, stats.hits);
    check("cache_misses", agg.cache_misses, stats.misses);
    check("cells_invalidated", agg.cells_invalidated, stats.invalidations);
    check("lookups", agg.cache_hits + agg.cache_misses, stats.lookups);
    check("staleness_count", stats.staleness.count(), stats.lookups);
    let traced_age: u64 = log
        .records
        .iter()
        .map(|r| match r.event {
            QueryEvent::CacheHit { age, .. } => age,
            _ => 0,
        })
        .sum();
    check("staleness_sum", traced_age, stats.staleness.sum());
    if errs.is_empty() {
        Ok(agg)
    } else {
        Err(errs.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{DataSpec, Distribution};
    use skyline_core::SkylineMerger;

    fn seed_sites(card: usize, dim: usize, seed: u64) -> Vec<Tuple> {
        DataSpec::manet_experiment(card, dim, Distribution::Independent, seed).generate()
    }

    fn cfg(threads: usize) -> ServeConfig {
        ServeConfig {
            threads,
            diagram: DiagramConfig::new(125.0, vec![125.0, 250.0, 500.0]),
            ttl_epochs: 8,
            slots: 64,
            backend_g: 4,
            ..ServeConfig::default()
        }
    }

    /// Centralized ground truth for the canonical query of `key`.
    fn oracle(sites: &[Tuple], cfg: &ServeConfig, key: CellKey) -> Vec<TupleId> {
        let region = cfg.diagram.canonical_query(key);
        let mut merger = SkylineMerger::new();
        for t in sites {
            if region.contains(t.location()) {
                merger.insert(t.clone());
            }
        }
        let mut ids: Vec<TupleId> = merger.into_result().iter().map(TupleId::site).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn cold_path_equals_diagram_equals_oracle() {
        let sites = seed_sites(2_000, 2, 11);
        let engine = ServeEngine::new(cfg(2), sites.clone());
        let q = (Point::new(480.0, 510.0), 200.0);

        // First request: cold (real backend query).
        let cold = engine.serve_batch(&[q]);
        assert!(!cold[0].cached);
        let key = cold[0].key;
        assert_eq!(cold[0].ids, oracle(&sites, engine.config(), key), "cold path is exact");

        // Next epoch back-fills the diagram; the same request now hits.
        engine.ingest_epoch(&SkyDelta::default());
        let warm = engine.serve_batch(&[q]);
        assert!(warm[0].cached);
        assert_eq!(warm[0].ids, cold[0].ids, "cache agrees with the cold compute");
        assert_eq!(warm[0].age, 1, "answer dates from the construction epoch");
        engine.check_invariants().unwrap();
    }

    #[test]
    fn batching_is_single_flight_per_cell() {
        let sites = seed_sites(1_000, 2, 5);
        let engine = ServeEngine::new(cfg(4), sites);
        // 6 requests, all landing in the same cell.
        let qs: Vec<(Point, f64)> =
            (0..6).map(|i| (Point::new(400.0 + i as f64, 400.0), 180.0)).collect();
        let out = engine.serve_batch(&qs);
        assert!(out.windows(2).all(|w| w[0] == w[1]), "one answer for the whole group");
        let s = engine.stats();
        assert_eq!(s.lookups, 6);
        assert_eq!(s.misses, 1, "one real query for six requests");
        assert_eq!(s.hits, 5);
    }

    #[test]
    fn deltas_invalidate_and_snapshots_stay_pinned() {
        let sites = seed_sites(1_500, 2, 23);
        let engine = ServeEngine::new(cfg(2), sites);
        let q = (Point::new(500.0, 500.0), 200.0);
        engine.serve_batch(&[q]);
        engine.ingest_epoch(&SkyDelta::default()); // back-fill
        let before = engine.serve_batch(&[q]);
        assert!(before[0].cached);

        // A dominating site inside the cell must invalidate it.
        let killer = Tuple::new(505.0, 505.0, vec![0.0, 0.0]);
        let delta =
            SkyDelta { adds: vec![(TupleId::site(&killer), killer.clone())], removes: vec![] };
        let report = engine.ingest_epoch(&delta);
        assert!(report.invalidated.contains(&before[0].key));

        let after = engine.serve_batch(&[q]);
        assert!(after[0].cached, "invalidated cells are refreshed, not dropped");
        assert_eq!(after[0].ids, vec![TupleId::site(&killer)]);
        assert_eq!(after[0].age, 0, "answer refreshed this epoch");
        assert!(after[0].epoch > before[0].epoch);
        engine.check_invariants().unwrap();
    }

    #[test]
    fn ttl_evicts_untouched_cells_back_to_cold() {
        let sites = seed_sites(800, 2, 7);
        let mut c = cfg(1);
        c.ttl_epochs = 2;
        let engine = ServeEngine::new(c, sites);
        let q = (Point::new(300.0, 300.0), 120.0);
        engine.serve_batch(&[q]);
        engine.ingest_epoch(&SkyDelta::default());
        assert!(engine.serve_batch(&[q])[0].cached);
        // Idle epochs outlive the TTL: the cell goes cold again.
        for _ in 0..4 {
            engine.ingest_epoch(&SkyDelta::default());
        }
        assert!(engine.stats().evictions >= 1);
        assert!(!engine.serve_batch(&[q])[0].cached);
    }

    #[test]
    fn thread_count_never_changes_results_or_counters() {
        let sites = seed_sites(2_000, 3, 41);
        let mk = |threads| ServeEngine::new(cfg(threads), sites.clone());
        let drive = |engine: &ServeEngine| {
            let mut all: Vec<ServedAnswer> = Vec::new();
            let mut x = 7u64;
            for epoch in 0..6u64 {
                let qs: Vec<(Point, f64)> = (0..40)
                    .map(|i| {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
                        let px = (x >> 33) % 1000;
                        let py = (x >> 13) % 1000;
                        (Point::new(px as f64, py as f64), 100.0 + (epoch as f64) * 60.0)
                    })
                    .collect();
                all.extend(engine.serve_batch(&qs));
                let churn = Tuple::new(
                    (epoch * 97 % 1000) as f64,
                    (epoch * 131 % 1000) as f64,
                    vec![epoch as f64, 50.0, 50.0],
                );
                engine.ingest_epoch(&SkyDelta {
                    adds: vec![(TupleId::site(&churn), churn.clone())],
                    removes: vec![],
                });
            }
            (all, engine.stats())
        };
        let e1 = mk(1);
        let e4 = mk(4);
        let (a1, s1) = drive(&e1);
        let (a4, s4) = drive(&e4);
        assert_eq!(a1, a4, "served answers must be thread-count independent");
        assert_eq!(s1, s4, "counters must be thread-count independent");
        assert!(s1.backend_builds > 0, "the drive must exercise the lazy backend: {s1:?}");
        let (l1, l4) = (e1.take_trace(), e4.take_trace());
        assert_eq!(l1.records.len(), l4.records.len());
        assert!(l1
            .records
            .iter()
            .zip(&l4.records)
            .all(|(a, b)| a.event == b.event && a.node == b.node && a.at == b.at));
        verify_serve_drift(&l1, &s1).unwrap();
        e1.check_invariants().unwrap();
    }

    #[test]
    fn drift_check_reconciles_and_catches_tampering() {
        let sites = seed_sites(1_000, 2, 3);
        let engine = ServeEngine::new(cfg(2), sites);
        let qs: Vec<(Point, f64)> =
            (0..10).map(|i| (Point::new(100.0 * (i % 5) as f64, 450.0), 150.0)).collect();
        engine.serve_batch(&qs);
        engine.ingest_epoch(&SkyDelta::default());
        engine.serve_batch(&qs);
        let log = engine.take_trace();
        let stats = engine.stats();
        let agg = verify_serve_drift(&log, &stats).unwrap();
        assert_eq!(agg.cache_hits + agg.cache_misses, stats.lookups);
        let mut bad = stats.clone();
        bad.hits += 1;
        let err = verify_serve_drift(&log, &bad).unwrap_err();
        assert!(err.contains("cache_hits"), "{err}");
    }

    #[test]
    fn cold_answers_of_past_epochs_are_dropped() {
        let sites = seed_sites(800, 2, 13);
        let engine = ServeEngine::new(cfg(2), sites);
        for epoch in 0..5u64 {
            // A fresh pair of cells every epoch, so every epoch misses.
            let x = 60.0 + 125.0 * epoch as f64;
            engine.serve_batch(&[(Point::new(x, 60.0), 100.0), (Point::new(x, 60.0), 200.0)]);
            let cold = engine.cold.lock().unwrap();
            assert_eq!(cold.len(), 2, "epoch {epoch}");
            assert!(cold.keys().all(|&(e, _)| e == epoch), "epoch {epoch} holds past keys");
            drop(cold);
            engine.ingest_epoch(&SkyDelta::default());
            assert!(engine.cold.lock().unwrap().is_empty());
        }
        assert_eq!(engine.stats().misses, 10);
    }

    #[test]
    fn a_backend_is_built_once_and_only_by_an_epoch_that_misses() {
        let sites = seed_sites(1_000, 2, 29);
        let engine = ServeEngine::new(cfg(4), sites);
        assert_eq!(engine.stats().backend_builds, 0, "publishing builds nothing");
        // Two cold groups in one batch, resolved by the pool: one build.
        let qs = [(Point::new(300.0, 300.0), 100.0), (Point::new(700.0, 700.0), 200.0)];
        let out = engine.serve_batch(&qs);
        assert!(out.iter().all(|a| !a.cached));
        assert_eq!(engine.stats().misses, 2);
        assert_eq!(engine.stats().backend_builds, 1);
        // A third cold cell of the same epoch reuses that backend.
        engine.serve_batch(&[(Point::new(500.0, 500.0), 400.0)]);
        assert_eq!(engine.stats().backend_builds, 1);
        // Epochs served entirely from the cache build none, churn or not.
        let churn = Tuple::new(310.0, 310.0, vec![0.0, 0.0]);
        engine.ingest_epoch(&SkyDelta {
            adds: vec![(TupleId::site(&churn), churn.clone())],
            removes: vec![],
        });
        for _ in 0..3 {
            assert!(engine.serve_batch(&qs).iter().all(|a| a.cached));
            engine.ingest_epoch(&SkyDelta::default());
        }
        assert_eq!(engine.stats().backend_builds, 1);
        // The next miss builds over its own epoch's sites.
        let late = engine.serve_batch(&[(Point::new(310.0, 310.0), 400.0)]);
        assert!(late[0].ids.contains(&TupleId::site(&churn)));
        assert_eq!(engine.stats().backend_builds, 2);
    }
}
