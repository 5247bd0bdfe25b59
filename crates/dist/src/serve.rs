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
//!   the cell's canonical query point, serves the result, memoizes it
//!   for the epoch's later batches, and back-fills the writer diagram at
//!   the next epoch ingest. Only these queries ever run on worker
//!   threads; a batch with fewer than two of them runs on its caller.
//! * **TTL + delta invalidation.** [`ServeEngine::ingest_epoch`] applies
//!   a [`SkyDelta`] through the diagram's intersection test, evicts
//!   cells whose answer outlived `ttl_epochs`, and publishes the next
//!   snapshot.
//!
//! Serving is traced — a `CacheMiss` per cold compute, a
//! `CellInvalidated` per changed cell, and one `CacheHit` per batch
//! summing its other requests — and [`verify_serve_drift`] demands the
//! trace aggregates equal the engine's counters exactly — the same
//! zero-drift discipline the simulator enforces.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

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
use crate::trace::{DriftCheck, TraceAggregates};

/// Node id serve events are traced on (the serving originator).
const ORIGIN_NODE: usize = 0;

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
    /// Grid side of the cold-path backend network (over
    /// [`SpatialExtent::PAPER`], queried under the default
    /// [`StrategyConfig`]).
    pub backend_g: usize,
    /// Per-node trace-ring capacity. Must cover every serve record — one
    /// hit record per batch, plus one per cold miss, plus one per
    /// invalidated cell — or the zero-drift guarantee is voided (exactly
    /// like `TraceConfig`).
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

    /// The current snapshot's slot (lock-free).
    fn slot(&self) -> Option<&Arc<Snapshot>> {
        match self.current.load(Ordering::Acquire) {
            0 => None,
            n => self.slots[n - 1].get(),
        }
    }

    /// The current snapshot, pinned for as long as the caller holds it.
    fn current(&self) -> Option<Arc<Snapshot>> {
        self.slot().cloned()
    }

    /// Epoch of the current snapshot, read through the slot.
    fn epoch(&self) -> Option<u64> {
        self.slot().map(|snap| snap.epoch)
    }
}

/// One answered request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServedAnswer {
    /// Diagram cell the request quantized to.
    pub key: CellKey,
    /// Skyline ids of the canonical answer, sorted; shared with the
    /// cell's cached list and with the other requests of its group.
    pub ids: Arc<[TupleId]>,
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

/// How one cell group of a batch was answered.
struct GroupResult {
    ids: Arc<[TupleId]>,
    cached: bool,
    age: u64,
    /// `true` when this group ran the cold compute (as opposed to
    /// reusing one from an earlier batch in the same epoch).
    computed_now: bool,
}

/// The requests of one batch that quantize to the same cell.
struct Group {
    key: CellKey,
    /// Requests in the group.
    len: u64,
    /// `None` until one of the three resolve steps answers the cell.
    result: Option<GroupResult>,
}

/// A batch after [`ServeEngine::plan`]: grouped, and answered as far as
/// reading the snapshot and the epoch's cold answers can.
struct BatchPlan {
    /// One group per distinct cell, ascending by key.
    groups: Vec<Group>,
    /// `group_of[i]` indexes request `i`'s group.
    group_of: Vec<usize>,
    /// Indices of the groups no one has an answer for yet: the batch's
    /// real backend queries.
    backend: Vec<usize>,
}

/// Cold answers computed this epoch, keyed `(epoch, cell)`: later
/// batches in the same epoch reuse them instead of re-flooding.
type ColdAnswers = BTreeMap<(u64, CellKey), Arc<[TupleId]>>;

/// The embeddable serving front end. One writer
/// ([`ServeEngine::ingest_epoch`]) and any number of batch readers;
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
        self.ring.epoch().unwrap_or(0)
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
                ORIGIN_NODE,
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
    /// current snapshot. Requests are grouped by diagram cell and each
    /// group is resolved once: from the snapshot, else from this epoch's
    /// memoized cold answers, else by a real backend query — only the
    /// last kind is ever handed to worker threads. Counters and traces
    /// are settled by the coordinator in cell order, so every output is
    /// bit-identical regardless of thread count.
    pub fn serve_batch(&self, requests: &[(Point, f64)]) -> Vec<ServedAnswer> {
        let snap = self.ring.current().expect("constructor publishes epoch 0");
        let BatchPlan { mut groups, group_of, backend } = self.plan(&snap, requests);

        // Whoever runs a group's backend query, the answer lands in its
        // group before anything is settled.
        let query = |&g: &usize| (g, self.query_backend(&snap, &groups[g]));
        let computed: Vec<(usize, GroupResult)> = match self.pool_workers(backend.len()) {
            0 => backend.iter().map(query).collect(),
            workers => {
                let cursor = AtomicUsize::new(0);
                let next = || backend.get(cursor.fetch_add(1, Ordering::Relaxed));
                std::thread::scope(|s| {
                    let pool: Vec<_> = (0..workers)
                        .map(|_| {
                            s.spawn(|| std::iter::from_fn(next).map(query).collect::<Vec<_>>())
                        })
                        .collect();
                    pool.into_iter()
                        .flat_map(|w| w.join().expect("serve worker panicked"))
                        .collect()
                })
            }
        };
        for (g, result) in computed {
            groups[g].result = Some(result);
        }

        // Settle accounting in deterministic cell order: a record per
        // miss, then one hit record summing the batch's other requests.
        let epoch = snap.epoch;
        let node = ORIGIN_NODE;
        let (mut requests, mut age_sum, mut hit_tuples) = (0u64, 0u64, 0u64);
        let mut guard = self.ledger.lock().expect("ledger lock");
        let led = &mut *guard;
        for group in &groups {
            let gr = group.result.as_ref().expect("every group resolved");
            let (n, tuples) = (group.len, gr.ids.len());
            led.stats.lookups += n;
            led.stats.tuples_served += tuples as u64 * n;
            // First resolution of a cold cell this epoch: one miss (the
            // real query), the rest of the group rides it.
            let hits = n - u64::from(gr.computed_now);
            if gr.computed_now {
                led.stats.misses += 1;
                led.trace.record(
                    SimTime(epoch),
                    node,
                    None,
                    QueryEvent::CacheMiss { epoch, tuples },
                );
                led.stats.staleness.record(0);
            }
            led.stats.hits += hits;
            led.stats.staleness.record_n(gr.age, hits);
            requests += hits;
            age_sum += gr.age * hits;
            hit_tuples += tuples as u64 * hits;
            if !gr.cached {
                // Computed now or reused from an earlier batch of this
                // epoch: awaiting back-fill either way.
                led.pending.insert(group.key);
            }
        }
        if requests > 0 {
            let hit = QueryEvent::CacheHit { epoch, requests, age_sum, tuples: hit_tuples };
            led.trace.record(SimTime(epoch), node, None, hit);
        }
        drop(guard);

        group_of
            .iter()
            .map(|&g| {
                let gr = groups[g].result.as_ref().expect("every group resolved");
                ServedAnswer {
                    key: groups[g].key,
                    ids: gr.ids.clone(),
                    cached: gr.cached,
                    age: gr.age,
                    epoch,
                }
            })
            .collect()
    }

    /// The read-only part of resolving a batch. Requests are keyed once
    /// and sorted, so a group is a run of equal keys and groups come out
    /// ascending by key. Each group is probed once in the snapshot; one
    /// the snapshot does not hold is probed in this epoch's memoized cold
    /// answers, locked at the first such group and held to the end of the
    /// batch; one that neither holds is left in `backend`.
    fn plan(&self, snap: &Snapshot, requests: &[(Point, f64)]) -> BatchPlan {
        let mut keyed: Vec<(CellKey, usize)> = requests
            .iter()
            .enumerate()
            .map(|(i, &(origin, radius))| (self.cfg.diagram.key_for(origin, radius), i))
            .collect();
        keyed.sort_unstable();

        let mut groups: Vec<Group> = Vec::with_capacity(keyed.len());
        let mut group_of = vec![0; keyed.len()];
        let mut backend = Vec::new();
        let mut cold: Option<MutexGuard<ColdAnswers>> = None;
        for run in keyed.chunk_by(|a, b| a.0 == b.0) {
            let key = run[0].0;
            let mut span = sim_obs::span!("serve::lookup");
            span.add_units(run.len() as u64);
            for &(_, request) in run {
                group_of[request] = groups.len();
            }
            let result = match snap.answers.answer(key) {
                Some(ans) => Some(GroupResult {
                    age: snap.epoch - ans.refreshed_at.min(snap.epoch),
                    ids: ans.ids.clone(),
                    cached: true,
                    computed_now: false,
                }),
                None => cold
                    .get_or_insert_with(|| self.cold.lock().expect("cold lock"))
                    .get(&(snap.epoch, key))
                    .map(|ids| GroupResult {
                        ids: ids.clone(),
                        cached: false,
                        age: 0,
                        computed_now: false,
                    }),
            };
            if result.is_none() {
                // The span of an unanswered group is the one its backend
                // query opens, so this one must not count a second call.
                std::mem::forget(span);
                backend.push(groups.len());
            }
            groups.push(Group { key, len: run.len() as u64, result });
        }
        BatchPlan { groups, group_of, backend }
    }

    /// Worker threads for a batch with `backend_groups` real queries to
    /// run; 0 = the caller runs them inline. A lone query gains nothing
    /// from a thread, and no query needs more than one.
    fn pool_workers(&self, backend_groups: usize) -> usize {
        if backend_groups < 2 || self.cfg.threads < 2 {
            0
        } else {
            self.cfg.threads.min(backend_groups)
        }
    }

    /// Runs the real BF/EXT query for a cell neither the snapshot nor
    /// this epoch's cold answers hold, at the cell's canonical query
    /// point, and memoizes the answer for the epoch's later batches.
    /// Grouping guarantees one query per key per batch.
    fn query_backend(&self, snap: &Snapshot, group: &Group) -> GroupResult {
        let mut span = sim_obs::span!("serve::lookup");
        span.add_units(group.len);
        let key = group.key;
        // Concurrent cold groups of one snapshot wait on the one build.
        let backend = snap.backend.get_or_init(|| {
            self.backend_builds.fetch_add(1, Ordering::Relaxed);
            grid_network_from_global(&snap.sites, self.cfg.backend_g, SpatialExtent::PAPER)
        });
        let region = self.cfg.diagram.canonical_query(key);
        let origin = backend.nearest_device(region.center);
        let strategy = StrategyConfig::default();
        let out = backend.run_query_at(origin, region.center, region.radius, &strategy);
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

/// Reconciles a serve trace against the engine's counters: the requests
/// the hit records sum, the miss records and the invalidation records
/// must match exactly, the staleness histogram must account for every
/// request (count and sum), and the records' tuples must sum to
/// `tuples_served`. Any drift is a bug in either side.
pub fn verify_serve_drift(
    log: &QueryTraceLog,
    stats: &ServeStats,
) -> Result<TraceAggregates, String> {
    let mut d = DriftCheck::open(Some(log), "ServeConfig::trace_capacity")?;
    let agg = d.agg;
    d.check("cache_hits", agg.cache_hits, stats.hits);
    d.check("cache_misses", agg.cache_misses, stats.misses);
    d.check("cells_invalidated", agg.cells_invalidated, stats.invalidations);
    d.check("lookups", agg.cache_hits + agg.cache_misses, stats.lookups);
    d.check("staleness_count", stats.staleness.count(), stats.lookups);
    let (mut traced_age, mut traced_tuples) = (0u64, 0u64);
    for r in &log.records {
        match r.event {
            QueryEvent::CacheHit { age_sum, tuples, .. } => {
                traced_age += age_sum;
                traced_tuples += tuples;
            }
            QueryEvent::CacheMiss { tuples, .. } => traced_tuples += tuples as u64,
            _ => {}
        }
    }
    d.check("staleness_sum", traced_age, stats.staleness.sum());
    d.check("tuples_served", traced_tuples, stats.tuples_served);
    if d.errs.is_empty() {
        Ok(agg)
    } else {
        Err(d.errs.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{DataSpec, Distribution};
    use proptest::prelude::*;
    use sim_obs::dethash::DetHasher;
    use skyline_core::constrained;
    use std::hash::Hasher;

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
        let rows = sites.iter().map(|t| (TupleId::site(t), t));
        let mut ids: Vec<TupleId> =
            constrained::skyline(rows, &region).into_iter().map(|(id, _)| id).collect();
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
        assert_eq!(*cold[0].ids, oracle(&sites, engine.config(), key), "cold path is exact");

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
        assert_eq!(*after[0].ids, [TupleId::site(&killer)]);
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
        let mut log = engine.take_trace();
        let stats = engine.stats();
        let agg = verify_serve_drift(&log, &stats).unwrap();
        assert_eq!(agg.cache_hits + agg.cache_misses, stats.lookups);
        let mut bad = stats.clone();
        bad.hits += 1;
        let err = verify_serve_drift(&log, &bad).unwrap_err();
        assert!(err.contains("cache_hits"), "{err}");

        // Each field of a hit record is reconciled against its counter.
        let hit = log
            .records
            .iter()
            .position(|r| matches!(r.event, QueryEvent::CacheHit { age_sum, .. } if age_sum > 0))
            .expect("the second epoch serves aged hits");
        for check in ["cache_hits", "staleness_sum", "tuples_served"] {
            let mut tampered = log.clone();
            let QueryEvent::CacheHit { requests, age_sum, tuples, .. } =
                &mut tampered.records[hit].event
            else {
                unreachable!()
            };
            match check {
                "cache_hits" => *requests += 1,
                "staleness_sum" => *age_sum += 1,
                _ => *tuples += 1,
            }
            let err = verify_serve_drift(&tampered, &stats).unwrap_err();
            assert!(err.contains(check), "{check}: {err}");
        }

        // A lossy ring voids the guarantee and names the knob to raise.
        log.dropped = 3;
        let err = verify_serve_drift(&log, &stats).unwrap_err();
        assert!(err.contains("ServeConfig::trace_capacity"), "{err}");
    }

    /// The trace's event kinds, in record order.
    fn kinds(log: &QueryTraceLog) -> Vec<&'static str> {
        log.records
            .iter()
            .map(|r| match r.event {
                QueryEvent::CacheHit { .. } => "hit",
                QueryEvent::CacheMiss { .. } => "miss",
                _ => "other",
            })
            .collect()
    }

    #[test]
    fn a_batch_writes_its_misses_then_one_hit_record() {
        let engine = ServeEngine::new(cfg(2), seed_sites(1_000, 2, 17));
        // 64 requests over 16 cells, computed at epoch 0 and back-filled.
        let pool: Vec<(Point, f64)> = (0..64)
            .map(|i| (Point::new(125.0 * (i % 8) as f64 + 10.0, 300.0), [100.0, 200.0][i / 32]))
            .collect();
        engine.serve_batch(&pool);
        engine.ingest_epoch(&SkyDelta::default());
        engine.take_trace();

        let out = engine.serve_batch(&pool);
        assert!(out.iter().all(|a| a.cached));
        let log = engine.take_trace();
        assert_eq!(kinds(&log), ["hit"]);
        let QueryEvent::CacheHit { epoch, requests, age_sum, tuples } = log.records[0].event else {
            unreachable!()
        };
        assert_eq!((epoch, requests), (1, 64));
        assert_eq!(age_sum, out.iter().map(|a| a.age).sum::<u64>());
        assert_eq!(tuples, out.iter().map(|a| a.ids.len() as u64).sum::<u64>());

        // A mixed batch: the cached pool plus two never-computed cells,
        // each asked twice — two misses, then one record for the rest.
        let fresh = [(Point::new(400.0, 800.0), 400.0), (Point::new(-40.0, 800.0), 100.0)];
        let mixed: Vec<(Point, f64)> = pool.iter().chain(&fresh).chain(&fresh).copied().collect();
        engine.serve_batch(&mixed);
        let log = engine.take_trace();
        assert_eq!(kinds(&log), ["miss", "miss", "hit"]);
        assert!(matches!(log.records[2].event, QueryEvent::CacheHit { requests: 66, .. }));

        // A batch with no request writes nothing.
        engine.serve_batch(&[]);
        assert!(engine.take_trace().records.is_empty());
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

    /// The cells `plan` leaves for the backend when `requests` meet the
    /// current snapshot.
    fn backend_cells(engine: &ServeEngine, requests: &[(Point, f64)]) -> Vec<CellKey> {
        let snap = engine.ring.current().unwrap();
        let plan = engine.plan(&snap, requests);
        plan.backend.iter().map(|&g| plan.groups[g].key).collect()
    }

    fn cells_of(engine: &ServeEngine, requests: &[(Point, f64)]) -> Vec<CellKey> {
        let keys: BTreeSet<CellKey> =
            requests.iter().map(|&(o, r)| engine.config().diagram.key_for(o, r)).collect();
        keys.into_iter().collect()
    }

    #[test]
    fn only_never_computed_cells_are_left_for_the_backend() {
        let engine = ServeEngine::new(cfg(4), seed_sites(1_000, 2, 19));
        // Twelve distinct cells, each asked for twice.
        let pool: Vec<(Point, f64)> = (0..24)
            .map(|i| (Point::new(130.0 * (i % 6) as f64 + 10.0, 300.0), [100.0, 200.0][i % 12 / 6]))
            .collect();
        assert_eq!(cells_of(&engine, &pool).len(), 12);

        // An all-cold epoch: the first batch queries every cell, the
        // second none — every answer is in the epoch's cold map.
        assert_eq!(backend_cells(&engine, &pool), cells_of(&engine, &pool));
        engine.serve_batch(&pool);
        assert!(backend_cells(&engine, &pool).is_empty());
        assert_eq!(engine.stats().misses, 12);
        engine.serve_batch(&pool);
        assert_eq!(engine.stats().misses, 12);

        // A mixed batch: cells the snapshot holds, a cell an earlier
        // batch of this epoch computed, and two nobody has computed.
        engine.ingest_epoch(&SkyDelta::default());
        let memoized = [(Point::new(800.0, 800.0), 100.0)];
        engine.serve_batch(&memoized);
        let fresh = [(Point::new(400.0, 800.0), 400.0), (Point::new(-40.0, 800.0), 100.0)];
        let mixed: Vec<(Point, f64)> =
            pool.iter().chain(&memoized).chain(&fresh).chain(&fresh).copied().collect();
        assert_eq!(backend_cells(&engine, &mixed), cells_of(&engine, &fresh));
        let out = engine.serve_batch(&mixed);
        assert!(out[..24].iter().all(|a| a.cached) && out[24..].iter().all(|a| !a.cached));
        assert_eq!(engine.stats().misses, 12 + 1 + 2);
    }

    #[test]
    fn workers_are_spawned_for_two_or_more_backend_queries_only() {
        let four = ServeEngine::new(cfg(4), seed_sites(200, 2, 19));
        assert_eq!(four.pool_workers(0), 0);
        assert_eq!(four.pool_workers(1), 0, "a lone query runs on the caller");
        assert_eq!(four.pool_workers(2), 2, "never more workers than queries");
        assert_eq!(four.pool_workers(9), 4);
        assert_eq!(ServeEngine::new(cfg(1), seed_sites(200, 2, 19)).pool_workers(9), 0);
        // The lone query of this batch is computed and memoized inline.
        let q = [(Point::new(300.0, 300.0), 100.0)];
        assert_eq!(backend_cells(&four, &q).len(), 1);
        assert!(!four.serve_batch(&q)[0].cached);
        assert!(backend_cells(&four, &q).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Batching changes no answer: a batch equals its requests served
        /// one by one on a twin engine, whatever mix of cached, memoized
        /// and never-computed cells it holds.
        #[test]
        fn a_batch_equals_its_requests_served_one_by_one(
            requests in prop::collection::vec((-150.0..650.0f64, -150.0..650.0f64, 0usize..3), 0..200),
        ) {
            let requests: Vec<(Point, f64)> = requests
                .into_iter()
                .map(|(x, y, band)| (Point::new(x, y), [90.0, 180.0, 400.0][band]))
                .collect();
            let sites = seed_sites(300, 2, 31);
            let (batched, twin) =
                (ServeEngine::new(cfg(4), sites.clone()), ServeEngine::new(cfg(1), sites));
            // Warm a corner of the plane so the batch also meets cached cells.
            let warm: Vec<(Point, f64)> =
                (0..9).map(|i| (Point::new(125.0 * (i % 3) as f64, 125.0 * (i / 3) as f64), 180.0)).collect();
            for engine in [&batched, &twin] {
                engine.serve_batch(&warm);
                engine.ingest_epoch(&SkyDelta::default());
            }

            let answers = batched.serve_batch(&requests);
            let singly: Vec<ServedAnswer> =
                requests.iter().flat_map(|q| twin.serve_batch(std::slice::from_ref(q))).collect();
            prop_assert_eq!(answers.len(), requests.len());
            for (a, &(origin, radius)) in answers.iter().zip(&requests) {
                prop_assert_eq!(a.key, batched.config().diagram.key_for(origin, radius));
            }
            prop_assert_eq!(&answers, &singly);
            let (b, t) = (batched.stats(), twin.stats());
            prop_assert_eq!(b.lookups, t.lookups);
            prop_assert_eq!(b.hits + b.misses, t.hits + t.misses);
            prop_assert_eq!(b.misses, t.misses);
            prop_assert_eq!(b.tuples_served, t.tuples_served);
        }
    }

    /// Everything one seeded horizon produced, plus `stats.misses` after
    /// each batch (to tell a computing batch from a reusing one).
    struct Drive {
        batches: Vec<Vec<ServedAnswer>>,
        misses_after: Vec<u64>,
        stats: ServeStats,
        log: QueryTraceLog,
    }

    /// Ten epochs over 96 clients on a 40 m lattice that reaches 300 m
    /// outside the extent on every side (cells repeat inside a batch,
    /// `ix`/`iy` go negative), `ttl_epochs` 3. Epoch 0 serves three
    /// overlapping slices (compute, mixed, reuse only), an empty batch and
    /// an all-one-cell batch; every later epoch adds or retires a
    /// dominating site inside that one cell, so cells near it are
    /// invalidated each epoch while the far ones age out and go cold
    /// again; the last quarter of the pool first appears at epoch 5.
    fn pinned_drive(threads: usize) -> Drive {
        let mut c = cfg(threads);
        c.ttl_epochs = 3;
        let engine = ServeEngine::new(c, seed_sites(1_500, 3, 77));
        let mut x = 0x5EED_u64;
        let mut step = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 33
        };
        let pool: Vec<(Point, f64)> = (0..96)
            .map(|i| {
                let px = (step() % 40) as f64 * 40.0 - 300.0;
                let py = (step() % 40) as f64 * 40.0 - 300.0;
                (Point::new(px, py), [90.0, 180.0, 400.0][i % 3])
            })
            .collect();
        let one_cell: Vec<(Point, f64)> =
            (0..9).map(|i| (Point::new(635.0 + i as f64, 390.0), 200.0)).collect();
        let killer = |epoch: u64| {
            Tuple::new(637.0 + epoch as f64, 392.0, vec![0.01 * (10 - epoch) as f64; 3])
        };

        let (mut batches, mut misses_after) = (Vec::new(), Vec::new());
        let mut serve = |requests: &[(Point, f64)]| {
            batches.push(engine.serve_batch(requests));
            misses_after.push(engine.stats().misses);
        };
        serve(&pool[..48]);
        serve(&pool[24..72]);
        serve(&pool[..72]);
        serve(&[]);
        serve(&one_cell);
        for epoch in 1..=9u64 {
            let delta = if epoch % 2 == 1 {
                let k = killer(epoch);
                SkyDelta { adds: vec![(TupleId::site(&k), k)], removes: vec![] }
            } else {
                SkyDelta { adds: vec![], removes: vec![TupleId::site(&killer(epoch - 1))] }
            };
            engine.ingest_epoch(&delta);
            serve(&pool[..48]);
            serve(&pool[24..72]);
            if epoch >= 5 {
                serve(&pool[48..]);
            }
            serve(&one_cell);
        }
        engine.check_invariants().unwrap();
        Drive { batches, misses_after, stats: engine.stats(), log: engine.take_trace() }
    }

    /// Folds every `ServedAnswer` field and the final `ServeStats`
    /// (histogram included) into one word.
    fn answers_digest(d: &Drive) -> u64 {
        let mut h = DetHasher::default();
        for batch in &d.batches {
            h.write_usize(batch.len());
            for a in batch {
                h.write_u64(a.key.ix as i64 as u64);
                h.write_u64(a.key.iy as i64 as u64);
                h.write_u64(u64::from(a.key.band));
                h.write_usize(a.ids.len());
                for id in a.ids.iter() {
                    h.write_u64(id.0);
                    h.write_u64(id.1);
                }
                h.write_u64(u64::from(a.cached));
                h.write_u64(a.age);
                h.write_u64(a.epoch);
            }
        }
        let s = &d.stats;
        for v in [
            s.lookups,
            s.hits,
            s.misses,
            s.invalidations,
            s.cells_touched,
            s.cells_skipped,
            s.evictions,
            s.backfills,
            s.tuples_served,
            s.epochs,
            s.backend_builds,
            s.staleness.count(),
            s.staleness.sum(),
        ] {
            h.write_u64(v);
        }
        for (lo, hi, n) in s.staleness.nonzero_buckets() {
            h.write_u64(lo);
            h.write_u64(hi);
            h.write_u64(n);
        }
        h.finish()
    }

    /// Folds the whole trace record sequence into one word.
    fn trace_digest(log: &QueryTraceLog) -> u64 {
        let mut h = DetHasher::default();
        h.write_u64(log.dropped);
        for r in &log.records {
            h.write_u64(r.seq);
            h.write_u64(r.at.0);
            h.write_usize(r.node);
            h.write_u64(u64::from(r.query.is_some()));
            match r.event {
                QueryEvent::CacheHit { epoch, requests, age_sum, tuples } => {
                    [0, epoch, requests, age_sum, tuples].iter().for_each(|&v| h.write_u64(v));
                }
                QueryEvent::CacheMiss { epoch, tuples } => {
                    [1, epoch, tuples as u64].iter().for_each(|&v| h.write_u64(v));
                }
                QueryEvent::CellInvalidated { epoch, band } => {
                    [2, epoch, band as u64].iter().for_each(|&v| h.write_u64(v));
                }
                ref other => panic!("not a serve event: {other:?}"),
            }
        }
        h.finish()
    }

    /// The answers-and-counters half of the digest every read path has
    /// reproduced since before `serve_batch` grouped by sorted runs. A
    /// change that claims "same answers and counters" reproduces it; it
    /// is re-recorded only for an intended change of serving behaviour or
    /// of `DetHasher`, which folds it: `DetHasher`'s high-bit fold moved
    /// it from 446_835_630_330_961_500, the value the pre-fold mix still
    /// gives over this drive.
    const PINNED_ANSWERS_DIGEST: u64 = 8_427_913_287_409_594_018;

    /// The drive's trace under one hit record per batch. Derived from the
    /// per-request log of the last commit that wrote one, taken after
    /// every batch: each batch's hit records folded into one record at
    /// the end of its slice (`requests`, `age_sum` and `tuples` summed),
    /// the slices concatenated and `seq` renumbered from 0.
    const PINNED_TRACE_DIGEST: u64 = 10_293_318_116_170_868_582;

    #[test]
    fn pinned_drive_digest_is_reproduced_at_every_thread_count() {
        for threads in [1, 2, 4] {
            let d = pinned_drive(threads);
            assert_eq!(answers_digest(&d), PINNED_ANSWERS_DIGEST, "threads = {threads}");
            assert_eq!(trace_digest(&d.log), PINNED_TRACE_DIGEST, "threads = {threads}");
        }
    }

    #[test]
    fn pinned_drive_reaches_every_arm() {
        let d = pinned_drive(2);
        let distinct = |b: &[ServedAnswer]| b.iter().map(|a| a.key).collect::<BTreeSet<_>>().len();
        let (b, m) = (&d.batches, &d.misses_after);
        // Cold epoch 0: compute, then a mix of reuse and compute, then
        // reuse only — nothing is materialized before the first ingest.
        assert!(b[..3].iter().flatten().all(|a| !a.cached && a.epoch == 0));
        assert!(distinct(&b[0]) < b[0].len(), "duplicate cells inside a batch");
        assert_eq!(m[0], distinct(&b[0]) as u64, "the first batch computes each cell once");
        assert!(m[1] > m[0] && m[1] - m[0] < distinct(&b[1]) as u64, "mixed: {m:?}");
        assert_eq!(m[2], m[1], "the third batch only reuses");
        assert!(b[3].is_empty() && m[3] == m[2]);
        assert_eq!(distinct(&b[4]), 1, "all-one-cell batch");
        assert_eq!(m[4], m[3] + 1);
        let all = || b.iter().flatten();
        assert!(all().any(|a| a.key.ix < 0) && all().any(|a| a.key.iy < 0));
        // The whole pool was back-filled at epoch 1 or 5, so a later
        // uncached answer is a TTL eviction served cold again.
        assert!(d.stats.evictions > 0);
        let went_cold = |a: &ServedAnswer| {
            !a.cached && all().any(|e| e.key == a.key && e.cached && e.epoch < a.epoch)
        };
        assert!(all().any(went_cold), "no cell went cold again");
        // Each epoch's delta lands inside the one-cell batch's cell.
        assert!(d.stats.invalidations >= 9);
        let last = b.last().unwrap();
        assert!(last.iter().all(|a| a.cached && a.age == 0 && a.epoch == 9));
        // Epoch 5's third batch (5 batches at epoch 0, 3 an epoch until
        // then) mixes cached cells with the never-computed last quarter.
        let wide = &b[5 + 4 * 3 + 2];
        assert!(wide.len() == 48 && wide[0].epoch == 5);
        assert!(wide.iter().any(|a| a.cached) && wide.iter().any(|a| !a.cached));
        verify_serve_drift(&d.log, &d.stats).unwrap();
    }
}
