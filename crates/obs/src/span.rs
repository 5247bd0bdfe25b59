//! Profiling spans: per-subsystem wall-time / call-count / byte / unit
//! accounting behind the [`span!`](crate::span!) macro.
//!
//! A span is identified by a `&'static str` label registered once per
//! call site ([`register`]); guards accumulate into a thread-local table
//! (no locks on the hot path) that is folded into a process-global
//! accumulator when the thread exits or [`flush_thread`] runs.
//! [`ProfileReport::collect_and_reset`] snapshots and clears the global.
//! A thread's exit fold runs in its thread-local destructor, which
//! `JoinHandle::join` waits for and `std::thread::scope`'s implicit wait
//! does not: join a worker before collecting what it recorded.
//!
//! Determinism: `calls`, `bytes`, and `units` are pure functions of the
//! simulated work, merge by addition, and are therefore bit-identical
//! across `--jobs` values; `wall_ns` is volatile and reported separately
//! (the `grid`-vs-`timings` split every BENCH baseline uses).
//!
//! Collection is meant for one orchestrator at a time (a bench binary, or
//! a test holding the profiling lock): `collect_and_reset` folds whatever
//! every *finished* thread recorded plus the calling thread's own table.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One span's accumulated counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Acc {
    calls: u64,
    wall_ns: u64,
    bytes: u64,
    units: u64,
}

/// Registered span labels; a span's id is its index here.
static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
/// Global accumulator, indexed by span id.
static GLOBAL: Mutex<Vec<Acc>> = Mutex::new(Vec::new());

/// Registers `name` (or finds its existing id — two call sites sharing a
/// label share a row). Called once per call site via `OnceLock`.
pub fn register(name: &'static str) -> u16 {
    let mut names = NAMES.lock().expect("span registry poisoned");
    if let Some(i) = names.iter().position(|&n| n == name) {
        return i as u16;
    }
    names.push(name);
    assert!(names.len() <= u16::MAX as usize, "span registry overflow");
    (names.len() - 1) as u16
}

struct TlsAcc {
    rows: Vec<Acc>,
}

impl Drop for TlsAcc {
    fn drop(&mut self) {
        flush_rows(&mut self.rows);
    }
}

thread_local! {
    static TLS: RefCell<TlsAcc> = const { RefCell::new(TlsAcc { rows: Vec::new() }) };
}

fn flush_rows(rows: &mut Vec<Acc>) {
    if rows.iter().all(|r| r.calls == 0) {
        rows.clear();
        return;
    }
    let mut global = GLOBAL.lock().expect("span accumulator poisoned");
    if global.len() < rows.len() {
        global.resize(rows.len(), Acc::default());
    }
    for (g, r) in global.iter_mut().zip(rows.iter()) {
        g.calls += r.calls;
        g.wall_ns += r.wall_ns;
        g.bytes += r.bytes;
        g.units += r.units;
    }
    rows.clear();
}

/// Folds the calling thread's span table into the global accumulator.
/// Worker threads flush automatically on exit — observed by
/// `JoinHandle::join`, not by the end of a `std::thread::scope` alone;
/// the collecting thread flushes inside
/// [`ProfileReport::collect_and_reset`].
pub fn flush_thread() {
    TLS.with(|t| flush_rows(&mut t.borrow_mut().rows));
}

/// An open span. Records on drop; inert (a no-op) when collection was
/// disabled at entry.
pub struct SpanGuard {
    id: u16,
    start: Option<Instant>,
    bytes: u64,
    units: u64,
}

impl SpanGuard {
    /// Opens the span — use [`span!`](crate::span!) rather than calling
    /// this directly. Disabled collection yields an inert guard whose
    /// whole lifecycle is one relaxed load and a branch.
    #[inline]
    pub fn enter(id: u16) -> SpanGuard {
        let start = if crate::enabled() { Some(Instant::now()) } else { None };
        SpanGuard { id, start, bytes: 0, units: 0 }
    }

    /// Attributes `n` bytes to this span (wire bytes, payload bytes —
    /// whatever the subsystem moves).
    #[inline]
    pub fn add_bytes(&mut self, n: u64) {
        if self.start.is_some() {
            self.bytes += n;
        }
    }

    /// Attributes `n` work units to this span (events cascaded, grid
    /// candidates scanned, tuples pushed through a kernel — the span's
    /// own deterministic size measure).
    #[inline]
    pub fn add_units(&mut self, n: u64) {
        if self.start.is_some() {
            self.units += n;
        }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        let Some(t0) = self.start else { return };
        let wall_ns = t0.elapsed().as_nanos() as u64;
        TLS.with(|t| {
            let rows = &mut t.borrow_mut().rows;
            let idx = self.id as usize;
            if rows.len() <= idx {
                rows.resize(idx + 1, Acc::default());
            }
            let r = &mut rows[idx];
            r.calls += 1;
            r.wall_ns += wall_ns;
            r.bytes += self.bytes;
            r.units += self.units;
        });
    }
}

/// One subsystem's totals in a [`ProfileReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRow {
    /// Span label (`crate::operation`).
    pub name: String,
    /// Times the span was entered. Deterministic.
    pub calls: u64,
    /// Bytes attributed via [`SpanGuard::add_bytes`]. Deterministic.
    pub bytes: u64,
    /// Work units attributed via [`SpanGuard::add_units`]. Deterministic.
    pub units: u64,
    /// Wall nanoseconds inside the span. **Volatile** — varies run to
    /// run and is excluded from every bit-identity comparison.
    pub wall_ns: u64,
}

/// A snapshot of every span's accumulated counters, rows sorted by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileReport {
    /// Rows with at least one call, ascending by name.
    pub rows: Vec<SpanRow>,
}

impl ProfileReport {
    /// Flushes the calling thread and snapshots + clears the global
    /// accumulator. Rows come back sorted by span name, so two reports
    /// over the same work compare field-for-field regardless of which
    /// worker thread recorded what.
    pub fn collect_and_reset() -> ProfileReport {
        flush_thread();
        let names = NAMES.lock().expect("span registry poisoned");
        let mut global = GLOBAL.lock().expect("span accumulator poisoned");
        let mut rows: Vec<SpanRow> = global
            .iter()
            .enumerate()
            .filter(|(_, a)| a.calls > 0)
            .map(|(i, a)| SpanRow {
                name: names[i].to_string(),
                calls: a.calls,
                bytes: a.bytes,
                units: a.units,
                wall_ns: a.wall_ns,
            })
            .collect();
        global.iter_mut().for_each(|a| *a = Acc::default());
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        ProfileReport { rows }
    }

    /// The row for `name`, if the span ever fired.
    pub fn row(&self, name: &str) -> Option<&SpanRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Total wall nanoseconds across all spans. Spans nest (a cascade
    /// inside a dispatch counts in both), so this is an attribution
    /// denominator, not an exclusive-time sum.
    pub fn total_wall_ns(&self) -> u64 {
        self.rows.iter().map(|r| r.wall_ns).sum()
    }

    /// Rows sorted by wall time, hottest first.
    pub fn top_by_wall(&self) -> Vec<&SpanRow> {
        let mut v: Vec<&SpanRow> = self.rows.iter().collect();
        v.sort_by(|a, b| b.wall_ns.cmp(&a.wall_ns).then_with(|| a.name.cmp(&b.name)));
        v
    }

    /// The deterministic projection: (name, calls, bytes, units) — what
    /// the `--jobs` bit-identity guards compare.
    pub fn deterministic_columns(&self) -> Vec<(String, u64, u64, u64)> {
        self.rows.iter().map(|r| (r.name.clone(), r.calls, r.bytes, r.units)).collect()
    }

    /// Renders the hotspot table: volatile wall columns first (sorted
    /// hottest-first), deterministic columns alongside.
    pub fn render(&self) -> String {
        let total = self.total_wall_ns().max(1);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>9} {:>7} {:>14} {:>14} {:>12}",
            "span", "wall_ms", "share", "calls", "units", "bytes"
        );
        for r in self.top_by_wall() {
            let _ = writeln!(
                out,
                "{:<28} {:>9.1} {:>6.1}% {:>14} {:>14} {:>12}",
                r.name,
                r.wall_ns as f64 / 1e6,
                100.0 * r.wall_ns as f64 / total as f64,
                r.calls,
                r.units,
                r.bytes,
            );
        }
        out
    }

    /// JSON in the shared BENCH schema: deterministic span rows under
    /// `"grid"`, volatile wall rows under `"timings"`.
    pub fn to_json(&self, scenario: &str) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"bench\": \"profile\",\n");
        let _ = writeln!(out, "  \"scenario\": \"{scenario}\",");
        out.push_str("  \"grid\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let sep = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"span\": \"{}\", \"calls\": {}, \"units\": {}, \"bytes\": {}}}{sep}",
                r.name, r.calls, r.units, r.bytes,
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"timings\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let sep = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"span\": \"{}\", \"wall_ms\": {:.3}}}{sep}",
                r.name,
                r.wall_ns as f64 / 1e6,
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Span state is process-global; tests touching it serialize here.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_record_nothing() {
        let _l = TEST_LOCK.lock().unwrap();
        crate::set_enabled(false);
        let _ = ProfileReport::collect_and_reset();
        {
            let mut g = crate::span!("test::disabled");
            g.add_bytes(10);
            g.add_units(5);
        }
        let rep = ProfileReport::collect_and_reset();
        assert!(rep.row("test::disabled").is_none());
    }

    #[test]
    fn enabled_spans_accumulate_calls_bytes_units() {
        let _l = TEST_LOCK.lock().unwrap();
        crate::set_enabled(true);
        let _ = ProfileReport::collect_and_reset();
        for i in 0..3u64 {
            let mut g = crate::span!("test::enabled");
            g.add_bytes(100 + i);
            g.add_units(2);
        }
        crate::set_enabled(false);
        let rep = ProfileReport::collect_and_reset();
        let row = rep.row("test::enabled").expect("span recorded");
        assert_eq!(row.calls, 3);
        assert_eq!(row.bytes, 303);
        assert_eq!(row.units, 6);
    }

    /// Rows fold when a worker's thread-local table is destroyed, which
    /// `join()` waits for and the scope's implicit wait does not; the
    /// rounds make a lost fold show in one run.
    #[test]
    fn worker_thread_spans_fold_into_the_collector() {
        let _l = TEST_LOCK.lock().unwrap();
        crate::set_enabled(true);
        let _ = ProfileReport::collect_and_reset();
        let rounds: Vec<Option<(u64, u64)>> = (0..20)
            .map(|_| {
                std::thread::scope(|s| {
                    let workers: Vec<_> = (0..4)
                        .map(|_| {
                            s.spawn(|| {
                                let mut g = crate::span!("test::worker");
                                g.add_units(10);
                            })
                        })
                        .collect();
                    for w in workers {
                        w.join().expect("worker panicked");
                    }
                });
                let rep = ProfileReport::collect_and_reset();
                rep.row("test::worker").map(|row| (row.calls, row.units))
            })
            .collect();
        crate::set_enabled(false);
        for (round, folded) in rounds.iter().enumerate() {
            assert_eq!(*folded, Some((4, 40)), "round {round}: workers flushed on exit");
        }
    }

    #[test]
    fn report_rows_sort_by_name_and_split_volatile_json() {
        let _l = TEST_LOCK.lock().unwrap();
        crate::set_enabled(true);
        let _ = ProfileReport::collect_and_reset();
        {
            let _b = crate::span!("test::b_span");
            let _a = crate::span!("test::a_span");
        }
        crate::set_enabled(false);
        let rep = ProfileReport::collect_and_reset();
        let names: Vec<&str> = rep.rows.iter().map(|r| r.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        let json = rep.to_json("unit");
        for line in json.lines() {
            assert!(
                !(line.contains("wall_ms") && line.contains("calls")),
                "volatile and deterministic data share a line: {line}"
            );
        }
    }

    #[test]
    fn same_label_from_two_call_sites_shares_a_row() {
        let _l = TEST_LOCK.lock().unwrap();
        crate::set_enabled(true);
        let _ = ProfileReport::collect_and_reset();
        {
            let _x = crate::span!("test::shared");
        }
        {
            let _y = crate::span!("test::shared");
        }
        crate::set_enabled(false);
        let rep = ProfileReport::collect_and_reset();
        assert_eq!(rep.row("test::shared").unwrap().calls, 2);
        assert_eq!(rep.rows.iter().filter(|r| r.name == "test::shared").count(), 1);
    }
}
