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

use crate::provenance::{det, label, print_rows, vol, Grid, Row, Value, GRID_REV};
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
/// those of the horizon. Returns the cell's row and its horizon's wall
/// seconds.
fn run_cell(cell: &ServeCell) -> (Row, f64) {
    let (_, relation, pool) = cell_inputs(cell);
    let twin = ServeEngine::new(engine_config(cell), relation);
    twin.serve_batch(&pool);
    let t0 = Instant::now();
    twin.serve_batch(&pool);
    let reuse_seconds = t0.elapsed().as_secs_f64();
    let (stats, clocks) = run_horizon(cell);
    (row(cell, &stats, clocks, reuse_seconds), clocks[0])
}

/// Runs one cell's horizon on one engine and proves it exact: serves the
/// pool cold, then cached under churn, and finishes with the invariant
/// check and the trace/counter reconciliation. Returns the engine's
/// counters and the wall seconds of the whole horizon, of its cold batch
/// and of its cached batches. `perf_report` profiles this, so its span
/// table counts one engine.
pub fn run_horizon(cell: &ServeCell) -> (ServeStats, [f64; 3]) {
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
    (stats, [seconds, cold_seconds, cached_seconds])
}

/// Share of an engine's lookups answered from the cache.
pub(crate) fn hit_ratio(s: &ServeStats) -> f64 {
    s.hits as f64 / (s.lookups as f64).max(1.0)
}

/// One cell's row, keyed by `(clients, churn)`: the engine's counters
/// deterministic; volatile, the wall seconds of the whole cell and of its
/// cold, reuse and cached passes (the horizon's clocks as [`run_horizon`]
/// returns them, and the reuse pass's), and the throughput derived from
/// them. The cold and reuse passes serve the pool once each, the cached
/// batches once per epoch after the first; `speedup` is cached over cold
/// throughput, the headline serving gain.
fn row(
    cell: &ServeCell,
    s: &ServeStats,
    [seconds, cold_seconds, cached_seconds]: [f64; 3],
    reuse_seconds: f64,
) -> Row {
    let qps = |requests: u64, seconds: f64| requests as f64 / seconds.max(1e-9);
    let cold_qps = qps(cell.clients as u64, cold_seconds);
    let cached_qps = qps(cell.clients as u64 * (cell.epochs - 1), cached_seconds);
    vec![
        label("clients", cell.clients),
        label("churn", cell.churn),
        det("epochs", cell.epochs),
        det("sites", cell.sites),
        det("dim", cell.dim),
        det("lookups", s.lookups),
        det("hits", s.hits),
        det("misses", s.misses),
        det("hit_ratio", Value::Fixed(hit_ratio(s), 6)),
        det("invalidations", s.invalidations),
        det("cells_touched", s.cells_touched),
        det("evictions", s.evictions),
        det("backfills", s.backfills),
        det("tuples_served", s.tuples_served),
        det("stale_p50", s.staleness.quantile_bound(0.5).unwrap_or(0)),
        det("stale_p99", s.staleness.quantile_bound(0.99).unwrap_or(0)),
        det("stale_max", s.staleness.max().unwrap_or(0)),
        det("stale_sum", s.staleness.sum()),
        vol("seconds", Value::Fixed(seconds, 3)),
        vol("cold_ms", Value::Fixed(cold_seconds * 1e3, 3)),
        vol("reuse_ms", Value::Fixed(reuse_seconds * 1e3, 3)),
        vol("cached_ms", Value::Fixed(cached_seconds * 1e3, 3)),
        vol("cold_qps", Value::Fixed(cold_qps, 0)),
        vol("reuse_qps", Value::Fixed(qps(cell.clients as u64, reuse_seconds), 0)),
        vol("cached_qps", Value::Fixed(cached_qps, 0)),
        vol("speedup", Value::Fixed(cached_qps / cold_qps.max(1e-9), 1)),
    ]
}

/// Runs the grid (with `smoke`, the trimmed two-cell grid) through the
/// sweep harness, prints its rows and returns them as `BENCH_serve.json`'s
/// grid (shared by `msq serve` and `msq all`). Rows come in input order,
/// so the grid is byte-identical for any `--jobs`.
pub fn run(o: &RunOpts, smoke: bool) -> Grid {
    let (grid, stage) =
        if smoke { (smoke_cells(), "serve_smoke") } else { (cells(o.scale), "serve_grid") };
    let (rows, seconds): (Vec<Row>, Vec<f64>) =
        sweep::run_stage(stage, o.jobs, &grid, run_cell).into_iter().unzip();
    print_rows("Serve: diagram-cache front end, cold vs cached throughput", &rows);
    println!("\nexpected shape: the cold pass pays one real BF/EXT flood per distinct");
    println!("diagram cell (reuse_qps: the same pool again before the next ingest,");
    println!("answered from the epoch's memoized cold answers without a thread or a");
    println!("flood); every repeat epoch is a lock-free snapshot lookup, so");
    println!("cached_qps sits orders of magnitude above cold_qps. Churn rows show");
    println!("invalidations (answers refreshed in place, still served cached) and");
    println!("the TTL backstop shows up as periodic evictions + re-misses in the");
    println!("churn-free rows. Every cell run is proven exact before it reports.");
    let total: f64 = seconds.iter().sum();
    let header =
        vec![("total_seconds", Value::Fixed(total, 3)), ("cells", Value::from(rows.len()))];
    Grid { bench: "serve", grid_rev: GRID_REV, header, rows }
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
        for cell in smoke_cells() {
            let (s, _) = run_horizon(&cell);
            assert_eq!(s.lookups, cell.clients as u64 * cell.epochs);
            assert_eq!(s.hits + s.misses, s.lookups);
            assert!(s.misses > 0, "the cold pass must issue real queries");
            let ratio = hit_ratio(&s);
            assert!(ratio > 0.8, "repeat epochs must serve cached (got {ratio})");
            assert!(s.invalidations > 0, "churn must invalidate cached answers");
            assert!(s.tuples_served > 0);
            assert!(s.staleness.max() >= Some(1), "cached answers age across epochs");
        }
    }

    #[test]
    fn parallel_serve_grid_is_bit_identical_to_sequential() {
        let grid = smoke_cells();
        let objects = |jobs, stage| {
            let rows: Vec<Row> = sweep::run_stage(stage, jobs, &grid, run_cell)
                .into_iter()
                .map(|(r, _)| r)
                .collect();
            crate::provenance::grid_objects(&rows)
        };
        let (seq, par) = (objects(1, "serve_jobs1"), objects(4, "serve_jobs4"));
        sweep::take_stage_records();
        assert_eq!(seq, par, "jobs must not change any metric bit");
    }

    /// The smoke grid rows as the commit before the reuse pass (and the
    /// sorted-run read path) wrote them.
    const SMOKE_GRID_ROWS: [&str; 2] = [
        r#"{"clients": 16, "churn": 4, "epochs": 8, "sites": 800, "dim": 3, "lookups": 128, "hits": 112, "misses": 16, "hit_ratio": 0.875000, "invalidations": 59, "cells_touched": 151, "evictions": 0, "backfills": 16, "tuples_served": 1219, "stale_p50": 1, "stale_p99": 7, "stale_max": 7, "stale_sum": 114}"#,
        r#"{"clients": 64, "churn": 4, "epochs": 8, "sites": 800, "dim": 3, "lookups": 512, "hits": 456, "misses": 56, "hit_ratio": 0.890625, "invalidations": 235, "cells_touched": 569, "evictions": 0, "backfills": 56, "tuples_served": 6008, "stale_p50": 1, "stale_p99": 7, "stale_max": 7, "stale_sum": 408}"#,
    ];

    #[test]
    fn the_reuse_pass_leaves_the_grid_byte_identical() {
        let cells = smoke_cells();
        let with: Vec<Row> = cells.iter().map(|c| run_cell(c).0).collect();
        let without: Vec<Row> = cells
            .iter()
            .map(|c| {
                let (stats, clocks) = run_horizon(c);
                row(c, &stats, clocks, 0.0)
            })
            .collect();
        let objects = crate::provenance::grid_objects;
        assert_eq!(objects(&with), objects(&without));
        assert_eq!(objects(&with), SMOKE_GRID_ROWS, "grid rows moved");
        // The reuse pass is really timed, and its time lands in `reuse_ms`.
        let reuse_ms = |r: &Row| match r.iter().find(|(key, _, _)| *key == "reuse_ms") {
            Some((_, Value::Fixed(ms, _), _)) => *ms,
            other => panic!("no reuse_ms column: {other:?}"),
        };
        assert!(with.iter().all(|r| reuse_ms(r) > 0.0), "the reuse pass must be timed");
        assert!(without.iter().all(|r| reuse_ms(r) == 0.0));
    }

    /// A real cell's counters under fixed wall clocks: the counters land in
    /// `grid`, the clocks and the throughput derived from them in
    /// `timings`.
    #[test]
    fn json_separates_deterministic_grid_from_volatile_timings() {
        let cell = smoke_cells()[0];
        let rows = vec![row(&cell, &run_horizon(&cell).0, [1.5, 0.9, 0.6], 0.001)];
        let json = Grid { bench: "serve", grid_rev: GRID_REV, header: Vec::new(), rows };
        let json = json.fixture_json();
        let (grid, timings) = crate::provenance::sections(&json);
        assert!(grid.contains(&format!("    {}\n", SMOKE_GRID_ROWS[0])), "{grid}");
        assert!(timings.contains(
            "{\"clients\": 16, \"churn\": 4, \"seconds\": 1.500, \"cold_ms\": 900.000, \
             \"reuse_ms\": 1.000, \"cached_ms\": 600.000, \"cold_qps\": 18, \"reuse_qps\": 16000, \
             \"cached_qps\": 187, \"speedup\": 10.5}"
        ));
    }
}
