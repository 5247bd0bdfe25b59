//! **Serve benchmark**: the diagram-cache serving front end under a
//! repeated-client workload — feeds `BENCH_serve.json`.
//!
//! Each cell drives one [`ServeEngine`] over a fixed site relation: a
//! pool of `clients` query points (seeded LCG walk over the paper's
//! 1000 × 1000 m extent) is served once **cold** (epoch 0 — every
//! distinct diagram cell pays a real BF/EXT flood through the backend),
//! then repeatedly **cached** across the remaining epochs, with
//! `churn` sites added/retired per epoch through
//! [`ServeEngine::ingest_epoch`] so invalidation, TTL eviction, and
//! staleness all exercise on the hot path. A second engine of the same
//! config then serves the pool twice inside its cold epoch and times the
//! second pass (**reuse**: every answer memoized, none materialized) —
//! the arm one batch per epoch never reaches.
//!
//! Everything but wall time is deterministic: the engine's worker count
//! is fixed by [`ServeConfig`] (never by `--jobs`), counters settle in
//! cell order, and every cell run ends with
//! [`ServeEngine::check_invariants`] (each cached answer equals a fresh
//! recompute) plus [`verify_serve_drift`] (trace events reconcile with
//! the counters exactly). The JSON separates the deterministic `grid`
//! rows from the volatile `timings` rows — which carry the headline
//! numbers: cold vs cached queries/sec and their ratio.
//!
//! Usage: `msq serve [--full] [--jobs N] [--json] [--smoke]`

use datagen::{DataSpec, Distribution};
use dist_skyline::{verify_serve_drift, ServeConfig, ServeEngine, ServeStats};
use skyline_core::diagram::SkyDelta;
use skyline_core::region::Point;
use skyline_core::{Tuple, TupleId};
use std::collections::VecDeque;
use std::time::Instant;

use crate::provenance::{
    baseline_json, det, label, print_rows, vol, Provenance, Row, Value, GRID_REV,
};
use crate::sweep;
use crate::{RunOpts, Scale};

/// Master seed; per-cell seeds derive from it plus the cell coordinates.
const SEED: u64 = 0x5E27E;

/// One `(clients, churn)` point of the serve grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeCell {
    /// Distinct client query points served every epoch.
    pub clients: usize,
    /// Sites added (and, two epochs later, retired) per epoch.
    pub churn: usize,
    /// Serving epochs, including the cold epoch 0.
    pub epochs: u64,
    /// Site-relation cardinality.
    pub sites: usize,
    /// Attribute dimensionality.
    pub dim: usize,
}

/// The full grid for a scale (clients-major, then churn).
pub fn cells(scale: Scale) -> Vec<ServeCell> {
    let (client_axis, churn_axis, epochs, sites): (&[usize], &[usize], u64, usize) = match scale {
        Scale::Quick => (&[16, 64, 256], &[0, 8], 24, 2_000),
        Scale::Full => (&[64, 256, 1024], &[0, 32], 48, 4_000),
    };
    let mut out = Vec::new();
    for &clients in client_axis {
        for &churn in churn_axis {
            out.push(ServeCell { clients, churn, epochs, sites, dim: 3 });
        }
    }
    out
}

/// A trimmed grid for CI smoke runs (`--smoke`): seconds of wall time,
/// same code path (cold epoch, cached epochs, churn, TTL).
pub fn smoke_cells() -> Vec<ServeCell> {
    [16usize, 64]
        .iter()
        .map(|&clients| ServeCell { clients, churn: 4, epochs: 8, sites: 800, dim: 3 })
        .collect()
}

/// The engine configuration for one cell: default diagram quantization,
/// a snapshot ring sized to the horizon, a cold backend at the paper's
/// full device count (an 8 × 8 grid — cold misses pay a real flood), and
/// the TTL backstop short enough to fire inside the longer grids.
pub fn engine_config(cell: &ServeCell) -> ServeConfig {
    ServeConfig { slots: cell.epochs as usize + 2, backend_g: 8, ..ServeConfig::default() }
}

/// The deterministic part of a cell's outcome — bit-identical across
/// `--jobs` values (the engine's thread pool is fixed by config).
#[derive(Debug, Clone, PartialEq)]
pub struct CellMetrics {
    /// Client pool size.
    pub clients: usize,
    /// Churn sites per epoch.
    pub churn: usize,
    /// Serving epochs.
    pub epochs: u64,
    /// Site-relation cardinality.
    pub sites: usize,
    /// Attribute dimensionality.
    pub dim: usize,
    /// Requests answered.
    pub lookups: u64,
    /// Requests served from a cached (or group-shared) answer.
    pub hits: u64,
    /// Cold computes — real backend floods.
    pub misses: u64,
    /// hits / lookups.
    pub hit_ratio: f64,
    /// Cached cell answers changed by churn deltas.
    pub invalidations: u64,
    /// `(site, cell)` intersection-test hits across all ingests.
    pub cells_touched: u64,
    /// Cells evicted by the TTL backstop.
    pub evictions: u64,
    /// Cold keys back-filled into the diagram.
    pub backfills: u64,
    /// Σ answer sizes over all requests.
    pub tuples_served: u64,
    /// Staleness histogram: p50 upper bound (epochs).
    pub stale_p50: u64,
    /// Staleness histogram: p99 upper bound (epochs).
    pub stale_p99: u64,
    /// Oldest answer served (epochs).
    pub stale_max: u64,
    /// Σ staleness over all requests (epochs).
    pub stale_sum: u64,
}

/// One cell's report: deterministic metrics plus the volatile wall-clock
/// split into the cold first pass and the cached remainder.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// The jobs-invariant outcome.
    pub metrics: CellMetrics,
    /// Wall seconds for the whole cell (volatile).
    pub seconds: f64,
    /// Wall seconds of the epoch-0 (all-cold) batch.
    pub cold_seconds: f64,
    /// Wall seconds of the cached batches (epochs 1..).
    pub cached_seconds: f64,
    /// Requests in the cold batch.
    pub cold_requests: u64,
    /// Requests across the cached batches.
    pub cached_requests: u64,
    /// Wall seconds of the pool served a second time inside a cold epoch
    /// (every answer memoized by the first pass), on a separate engine.
    pub reuse_seconds: f64,
}

impl CellReport {
    /// Cold-path throughput (requests/sec of the all-cold first batch).
    pub fn cold_qps(&self) -> f64 {
        self.cold_requests as f64 / self.cold_seconds.max(1e-9)
    }

    /// Cached-path throughput (requests/sec of the repeat batches).
    pub fn cached_qps(&self) -> f64 {
        self.cached_requests as f64 / self.cached_seconds.max(1e-9)
    }

    /// Throughput of a repeat batch inside the cold epoch (requests/sec).
    pub fn reuse_qps(&self) -> f64 {
        self.cold_requests as f64 / self.reuse_seconds.max(1e-9)
    }

    /// cached_qps / cold_qps — the headline serving speedup.
    pub fn speedup(&self) -> f64 {
        self.cached_qps() / self.cold_qps().max(1e-9)
    }
}

/// Splitmix-style step shared by the pool and churn generators.
fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 11
}

/// The fixed client pool for a cell: `clients` query points scattered
/// over the paper extent with radii cycling through the diagram's bands.
fn client_pool(cell: &ServeCell, seed: u64) -> Vec<(Point, f64)> {
    let mut state = seed | 1;
    (0..cell.clients)
        .map(|i| {
            let x = (lcg(&mut state) % 1_000) as f64;
            let y = (lcg(&mut state) % 1_000) as f64;
            let radius = [90.0, 180.0, 400.0][i % 3];
            (Point::new(x, y), radius)
        })
        .collect()
}

/// One churn site: fresh position and attributes off the cell's stream.
fn churn_site(state: &mut u64, dim: usize) -> Tuple {
    let x = (lcg(state) % 1_000_000) as f64 / 1_000.0;
    let y = (lcg(state) % 1_000_000) as f64 / 1_000.0;
    let attrs = (0..dim).map(|_| (lcg(state) % 100_000) as f64 / 1_000.0).collect();
    Tuple::new(x, y, attrs)
}

/// A cell's seed, site relation and client pool.
fn cell_inputs(cell: &ServeCell) -> (u64, Vec<Tuple>, Vec<(Point, f64)>) {
    let seed = SEED ^ ((cell.clients as u64) << 32) ^ ((cell.churn as u64) << 16) ^ cell.epochs;
    let relation =
        DataSpec::manet_experiment(cell.sites, cell.dim, Distribution::Independent, seed)
            .generate();
    (seed, relation, client_pool(cell, seed ^ 0xC11E))
}

/// Runs one cell end to end: the horizon of [`run_horizon`], then the arm
/// one batch per epoch never reaches — the pool asked for again inside a
/// cold epoch, every answer computed and memoized by the first pass. A
/// second engine of the same config takes it, so the grid counters stay
/// those of the horizon.
pub fn run_cell(cell: &ServeCell) -> CellReport {
    let (_, relation, pool) = cell_inputs(cell);
    let twin = ServeEngine::new(engine_config(cell), relation);
    twin.serve_batch(&pool);
    let t0 = Instant::now();
    twin.serve_batch(&pool);
    let reuse_seconds = t0.elapsed().as_secs_f64();
    CellReport { reuse_seconds, ..run_horizon(cell) }
}

/// Runs one cell's horizon on one engine and proves it exact: serves the
/// pool cold, then cached under churn, and finishes with the invariant
/// check and the trace/counter reconciliation. `reuse_seconds` is left
/// at zero; `perf_report` profiles this, so its span table counts one
/// engine.
pub fn run_horizon(cell: &ServeCell) -> CellReport {
    let (seed, relation, pool) = cell_inputs(cell);
    let engine = ServeEngine::new(engine_config(cell), relation);

    let t_cell = Instant::now();
    let t0 = Instant::now();
    engine.serve_batch(&pool);
    let cold_seconds = t0.elapsed().as_secs_f64();

    // The cached phase times *serving only*: the writer-side ingest
    // (delta apply + snapshot publish) runs between batches off the
    // clock, exactly as it would off the read path in an embedding.
    let mut churn_state = seed ^ 0xC4u64;
    let mut retire: VecDeque<TupleId> = VecDeque::new();
    let mut cached_seconds = 0.0;
    for _ in 1..cell.epochs {
        let mut delta = SkyDelta::default();
        for _ in 0..cell.churn {
            let site = churn_site(&mut churn_state, cell.dim);
            let id = TupleId::site(&site);
            delta.adds.push((id, site));
            retire.push_back(id);
        }
        while retire.len() > 2 * cell.churn {
            delta.removes.push(retire.pop_front().expect("non-empty"));
        }
        engine.ingest_epoch(&delta);
        let t0 = Instant::now();
        engine.serve_batch(&pool);
        cached_seconds += t0.elapsed().as_secs_f64();
    }
    let seconds = t_cell.elapsed().as_secs_f64();

    engine
        .check_invariants()
        .expect("every cached cell answer equals a fresh recompute");
    let stats = engine.stats();
    let log = engine.take_trace();
    verify_serve_drift(&log, &stats).expect("serve trace reconciles with the counters");

    CellReport {
        metrics: metrics(cell, &stats),
        seconds,
        cold_seconds,
        cached_seconds,
        cold_requests: cell.clients as u64,
        cached_requests: cell.clients as u64 * (cell.epochs - 1),
        reuse_seconds: 0.0,
    }
}

fn metrics(cell: &ServeCell, s: &ServeStats) -> CellMetrics {
    CellMetrics {
        clients: cell.clients,
        churn: cell.churn,
        epochs: cell.epochs,
        sites: cell.sites,
        dim: cell.dim,
        lookups: s.lookups,
        hits: s.hits,
        misses: s.misses,
        hit_ratio: s.hits as f64 / (s.lookups as f64).max(1.0),
        invalidations: s.invalidations,
        cells_touched: s.cells_touched,
        evictions: s.evictions,
        backfills: s.backfills,
        tuples_served: s.tuples_served,
        stale_p50: s.staleness.quantile_bound(0.5).unwrap_or(0),
        stale_p99: s.staleness.quantile_bound(0.99).unwrap_or(0),
        stale_max: s.staleness.max().unwrap_or(0),
        stale_sum: s.staleness.sum(),
    }
}

/// Runs a cell list through the sweep harness. Reports come back in
/// input order, so metrics are byte-identical for any `--jobs`.
pub fn compute(grid: &[ServeCell], jobs: usize, stage: &str) -> Vec<CellReport> {
    sweep::run_stage(stage, jobs, grid, run_cell)
}

/// Runs the grid (with `smoke`, the trimmed two-cell grid), prints its
/// rows, and returns the reports (shared by `msq serve` and `msq all`).
pub fn run(o: &RunOpts, smoke: bool) -> Vec<CellReport> {
    let (grid, stage) =
        if smoke { (smoke_cells(), "serve_smoke") } else { (cells(o.scale), "serve_grid") };
    let reports = compute(&grid, o.jobs, stage);
    print_rows(
        "Serve: diagram-cache front end, cold vs cached throughput",
        &reports.iter().map(row).collect::<Vec<_>>(),
    );
    println!("\nexpected shape: the cold pass pays one real BF/EXT flood per distinct");
    println!("diagram cell (reuse_qps: the same pool again before the next ingest,");
    println!("answered from the epoch's memoized cold answers without a thread or a");
    println!("flood); every repeat epoch is a lock-free snapshot lookup, so");
    println!("cached_qps sits orders of magnitude above cold_qps. Churn rows show");
    println!("invalidations (answers refreshed in place, still served cached) and");
    println!("the TTL backstop shows up as periodic evictions + re-misses in the");
    println!("churn-free rows. Every cell run is proven exact before it reports.");
    reports
}

/// Renders the reports as the `BENCH_serve.json` machine baseline: one
/// row per cell, keyed by `(clients, churn)`; the [`CellMetrics`] in
/// `grid`, the wall clock and the throughput derived from it in `timings`.
pub fn to_json(prov: &Provenance, reports: &[CellReport]) -> String {
    let total: f64 = reports.iter().map(|r| r.seconds).sum();
    let header = [("total_seconds", Value::Fixed(total, 3)), ("cells", Value::from(reports.len()))];
    let rows: Vec<Row> = reports.iter().map(row).collect();
    baseline_json("serve", prov, GRID_REV, &header, &rows)
}

fn row(r: &CellReport) -> Row {
    let m = &r.metrics;
    vec![
        label("clients", m.clients),
        label("churn", m.churn),
        det("epochs", m.epochs),
        det("sites", m.sites),
        det("dim", m.dim),
        det("lookups", m.lookups),
        det("hits", m.hits),
        det("misses", m.misses),
        det("hit_ratio", Value::Fixed(m.hit_ratio, 6)),
        det("invalidations", m.invalidations),
        det("cells_touched", m.cells_touched),
        det("evictions", m.evictions),
        det("backfills", m.backfills),
        det("tuples_served", m.tuples_served),
        det("stale_p50", m.stale_p50),
        det("stale_p99", m.stale_p99),
        det("stale_max", m.stale_max),
        det("stale_sum", m.stale_sum),
        vol("seconds", Value::Fixed(r.seconds, 3)),
        vol("cold_ms", Value::Fixed(r.cold_seconds * 1e3, 3)),
        vol("reuse_ms", Value::Fixed(r.reuse_seconds * 1e3, 3)),
        vol("cached_ms", Value::Fixed(r.cached_seconds * 1e3, 3)),
        vol("cold_qps", Value::Fixed(r.cold_qps(), 0)),
        vol("reuse_qps", Value::Fixed(r.reuse_qps(), 0)),
        vol("cached_qps", Value::Fixed(r.cached_qps(), 0)),
        vol("speedup", Value::Fixed(r.speedup(), 1)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_clients_major_and_rings_cover_the_horizon() {
        for scale in [Scale::Quick, Scale::Full] {
            let grid = cells(scale);
            assert!(grid.windows(2).all(|w| w[0].clients <= w[1].clients), "clients-major");
            assert!(grid.iter().any(|c| c.churn > 0), "covers churn");
            assert!(grid.iter().any(|c| c.churn == 0), "covers the TTL-only path");
            for c in &grid {
                let cfg = engine_config(c);
                assert!(cfg.slots as u64 > c.epochs, "snapshot ring must cover the horizon");
                assert!(cfg.ttl_epochs < c.epochs, "TTL backstop must fire inside the run");
            }
        }
    }

    #[test]
    fn smoke_cells_serve_mostly_cached_and_reconcile() {
        let reports = compute(&smoke_cells(), 1, "serve_smoke");
        sweep::take_stage_records();
        for r in &reports {
            let m = &r.metrics;
            assert_eq!(m.lookups, m.clients as u64 * m.epochs);
            assert_eq!(m.hits + m.misses, m.lookups);
            assert!(m.misses > 0, "the cold pass must issue real queries");
            assert!(m.hit_ratio > 0.8, "repeat epochs must serve cached (got {})", m.hit_ratio);
            assert!(m.invalidations > 0, "churn must invalidate cached answers");
            assert!(m.tuples_served > 0);
            assert!(m.stale_max >= 1, "cached answers age across epochs");
            assert_eq!(r.cold_requests, m.clients as u64);
            assert_eq!(r.cached_requests, m.clients as u64 * (m.epochs - 1));
        }
    }

    #[test]
    fn parallel_serve_grid_is_bit_identical_to_sequential() {
        let grid = smoke_cells();
        let seq = compute(&grid, 1, "serve_jobs1");
        let par = compute(&grid, 4, "serve_jobs4");
        sweep::take_stage_records();
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.metrics, p.metrics, "jobs must not change any metric bit");
        }
    }

    /// The smoke grid rows as the commit before the reuse pass (and the
    /// sorted-run read path) wrote them.
    const SMOKE_GRID_ROWS: [&str; 2] = [
        r#"{"clients": 16, "churn": 4, "epochs": 8, "sites": 800, "dim": 3, "lookups": 128, "hits": 112, "misses": 16, "hit_ratio": 0.875000, "invalidations": 59, "cells_touched": 151, "evictions": 0, "backfills": 16, "tuples_served": 1219, "stale_p50": 1, "stale_p99": 7, "stale_max": 7, "stale_sum": 114}"#,
        r#"{"clients": 64, "churn": 4, "epochs": 8, "sites": 800, "dim": 3, "lookups": 512, "hits": 456, "misses": 56, "hit_ratio": 0.890625, "invalidations": 235, "cells_touched": 569, "evictions": 0, "backfills": 56, "tuples_served": 6008, "stale_p50": 1, "stale_p99": 7, "stale_max": 7, "stale_sum": 408}"#,
    ];

    #[test]
    fn the_reuse_pass_leaves_the_grid_byte_identical() {
        let grid_of = |reports: &[CellReport]| {
            let json = to_json(&Provenance::fixture(), reports);
            crate::provenance::sections(&json).0.to_string()
        };
        let with: Vec<CellReport> = smoke_cells().iter().map(run_cell).collect();
        let without: Vec<CellReport> = smoke_cells().iter().map(run_horizon).collect();
        assert!(with.iter().all(|r| r.reuse_seconds > 0.0));
        assert!(without.iter().all(|r| r.reuse_seconds == 0.0));
        assert_eq!(grid_of(&with), grid_of(&without));
        for row in SMOKE_GRID_ROWS {
            assert!(grid_of(&with).contains(row), "grid row moved: {row}");
        }
    }

    #[test]
    fn json_separates_deterministic_grid_from_volatile_timings() {
        let r = CellReport {
            metrics: CellMetrics {
                clients: 64,
                churn: 8,
                epochs: 24,
                sites: 2_000,
                dim: 3,
                lookups: 1_536,
                hits: 1_500,
                misses: 36,
                hit_ratio: 0.9766,
                invalidations: 40,
                cells_touched: 200,
                evictions: 3,
                backfills: 39,
                tuples_served: 30_000,
                stale_p50: 2,
                stale_p99: 8,
                stale_max: 15,
                stale_sum: 3_000,
            },
            seconds: 1.5,
            cold_seconds: 0.9,
            cached_seconds: 0.6,
            cold_requests: 64,
            cached_requests: 1_472,
            reuse_seconds: 0.001,
        };
        let json = to_json(&Provenance::fixture(), &[r]);
        let (grid, timings) = crate::provenance::sections(&json);
        assert!(json.contains("\"bench\": \"serve\""));
        assert!(json.contains("\"total_seconds\": 1.500,\n  \"cells\": 1,\n  \"grid\""));
        assert!(grid.contains("{\"clients\": 64, \"churn\": 8, \"epochs\": 24,"));
        assert!(grid.contains("\"hit_ratio\": 0.976600,"));
        assert!(grid.contains("\"stale_max\": 15, \"stale_sum\": 3000}"));
        assert!(timings.contains(
            "{\"clients\": 64, \"churn\": 8, \"seconds\": 1.500, \"cold_ms\": 900.000, \
             \"reuse_ms\": 1.000, \"cached_ms\": 600.000, \"cold_qps\": 71, \"reuse_qps\": 64000, \
             \"cached_qps\": 2453, \"speedup\": 34.5}"
        ));
    }
}
