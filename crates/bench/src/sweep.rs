//! Parallel sweep harness for the figure/extension grids.
//!
//! Every evaluation figure is a grid of *independent* cells — a pure
//! `(ManetExperiment) -> ManetOutcome` call (or an equally pure static-net
//! run) whose randomness comes entirely from seeds carried in the cell
//! description. That makes the grids embarrassingly parallel:
//! [`parallel_map`] fans the cells over a scoped thread pool and collects
//! the results **in grid order**, so tables and CSVs are byte-identical to
//! the sequential run regardless of scheduling.
//!
//! The worker pool is a work-stealing index over `std::thread::scope` (the
//! workspace builds offline; no rayon). [`crate::RunOpts::jobs`] (`--jobs
//! N` on the command line) selects the pool size, defaulting to all cores;
//! `1` is the legacy sequential path (the items are mapped on the caller's
//! thread, no pool is spun up).
//!
//! [`run_stage`] wraps `parallel_map` with wall-clock accounting: each
//! named stage's cell count, elapsed seconds, and job count land in a
//! process-global registry that `msq all --json` drains into
//! `BENCH_sweep.json`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::provenance::{det, label, vol, Grid, Value};

/// One timed sweep stage, as reported in `BENCH_sweep.json`.
#[derive(Debug, Clone)]
pub struct StageRecord {
    /// Stage name: a table id (e.g. `fig6a_Independent`), or a grid that
    /// several tables share (e.g. `fig8_Independent`, Figs. 8(a–c) and
    /// 10(a–c)).
    pub name: String,
    /// Number of grid cells the stage mapped.
    pub cells: usize,
    /// Wall-clock seconds for the whole stage.
    pub seconds: f64,
    /// Worker threads used.
    pub jobs: usize,
}

static STAGES: Mutex<Vec<StageRecord>> = Mutex::new(Vec::new());

/// Drains and returns every stage recorded so far (in execution order).
pub fn take_stage_records() -> Vec<StageRecord> {
    std::mem::take(&mut STAGES.lock().expect("stage registry poisoned"))
}

/// All cores, as reported by the OS (1 when unknown).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Maps `f` over `items` on `jobs` worker threads, returning results in
/// item order. `jobs == 1` runs on the calling thread (the legacy
/// sequential path — no pool, no atomics).
///
/// # Panics
/// Propagates a panic from any worker.
pub fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    jobs: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs == 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(&items[i])));
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("sweep worker panicked")).collect()
    });

    // Reassemble in grid order so output is independent of scheduling.
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for (i, r) in per_worker.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots.into_iter().map(|r| r.expect("every cell produces a result")).collect()
}

/// [`parallel_map`] plus wall-clock accounting: times the stage and files a
/// [`StageRecord`] under `name` for `BENCH_sweep.json`.
pub fn run_stage<T: Sync, R: Send>(
    name: &str,
    jobs: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let jobs = jobs.max(1).min(items.len().max(1));
    let t0 = Instant::now();
    let out = parallel_map(items, jobs, f);
    STAGES.lock().expect("stage registry poisoned").push(StageRecord {
        name: name.to_string(),
        cells: items.len(),
        seconds: t0.elapsed().as_secs_f64(),
        jobs,
    });
    out
}

/// Revision of `BENCH_sweep.json`'s stage list (the other baselines share
/// [`crate::provenance::GRID_REV`]): rev 3 runs each distribution's
/// Figs. 8–11 grid once, as one stage of distinct cells, where rev 2 ran
/// one stage per panel and metric.
const GRID_REV: u64 = 3;

/// The drained stage records as the `BENCH_sweep.json` grid: one row per
/// stage, its name and cell count deterministic (the sweep's shape), its
/// wall clock volatile.
pub fn stage_grid(total_seconds: f64, stages: &[StageRecord]) -> Grid {
    let cells: usize = stages.iter().map(|s| s.cells).sum();
    let header = vec![
        ("cells", Value::from(cells)),
        ("total_seconds", Value::Fixed(total_seconds, 3)),
        ("cells_per_sec", Value::Fixed(cells as f64 / total_seconds.max(1e-9), 3)),
    ];
    let rows = stages
        .iter()
        .map(|s| {
            vec![
                label("name", s.name.as_str()),
                det("cells", s.cells),
                vol("seconds", Value::Fixed(s.seconds, 3)),
                vol("cells_per_sec", Value::Fixed(s.cells as f64 / s.seconds.max(1e-9), 3)),
                vol("jobs", s.jobs),
            ]
        })
        .collect();
    Grid { bench: "sweep", grid_rev: GRID_REV, header, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_item_order() {
        let items: Vec<usize> = (0..100).collect();
        let expect: Vec<usize> = items.iter().map(|&x| x * x).collect();
        for jobs in [1, 2, 4, 16] {
            assert_eq!(parallel_map(&items, jobs, |&x| x * x), expect, "jobs={jobs}");
        }
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        assert_eq!(parallel_map::<usize, usize>(&[], 8, |&x| x), Vec::<usize>::new());
        assert_eq!(parallel_map(&[7], 8, |&x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_equals_sequential_on_stateful_work() {
        // Each cell derives output from its own index only — the sweep
        // contract — so any interleaving must reproduce the sequential map.
        let items: Vec<u64> = (0..64).collect();
        let work = |&s: &u64| {
            let mut h = s.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for _ in 0..100 {
                h ^= h >> 13;
                h = h.wrapping_mul(31);
            }
            h
        };
        assert_eq!(parallel_map(&items, 4, work), parallel_map(&items, 1, work));
    }

    #[test]
    fn run_stage_files_a_record() {
        let _ = take_stage_records();
        let out = run_stage("unit-test-stage", 2, &[1, 2, 3], |&x| x);
        assert_eq!(out, vec![1, 2, 3]);
        let recs = take_stage_records();
        let rec = recs.iter().find(|r| r.name == "unit-test-stage").expect("stage recorded");
        assert_eq!(rec.cells, 3);
        assert_eq!(rec.jobs, 2);
        assert!(rec.seconds >= 0.0);
    }

    #[test]
    fn json_separates_stage_shape_from_wall_clock() {
        let stages =
            vec![StageRecord { name: "fig5a".to_string(), cells: 5, seconds: 1.5, jobs: 4 }];
        let json = stage_grid(2.0, &stages).fixture_json();
        let (grid, timings) = crate::provenance::sections(&json);
        assert!(json.contains("\"bench\": \"sweep\""));
        assert!(json
            .contains("\"cells\": 5,\n  \"total_seconds\": 2.000,\n  \"cells_per_sec\": 2.500,"));
        assert!(grid.contains("{\"name\": \"fig5a\", \"cells\": 5}"));
        assert!(timings.contains(
            "{\"name\": \"fig5a\", \"seconds\": 1.500, \"cells_per_sec\": 3.333, \"jobs\": 4}"
        ));
    }

    #[test]
    fn jobs_cap_at_item_count() {
        // 16 jobs over 2 items must not deadlock or drop results.
        assert_eq!(parallel_map(&[1, 2], 16, |&x| x * 10), vec![10, 20]);
    }
}
