//! Distributed query identification and specification.
//!
//! A query is `Q_ds = (id, cnt, pos_org, d)` (Section 3.4): the originating
//! device's identifier, a per-originator counter used for duplicate
//! suppression, the originator's position, and the distance of interest.

use skyline_core::region::{Point, QueryRegion};

/// Identifies one query instance: originator id plus the originator-local
/// counter. The paper sizes `cnt` as one byte ("allowing a device to
/// generate 256 queries with increasing cnt value" before wrap-around).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryKey {
    /// Originating device.
    pub origin: usize,
    /// Originator-local query counter.
    pub cnt: u8,
}

/// The full query specification shipped between devices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuerySpec {
    /// Query identity.
    pub key: QueryKey,
    /// Originator position `pos_org` at issue time.
    pub pos: Point,
    /// Distance of interest `d` (infinite = unconstrained, used by the
    /// static pre-tests).
    pub d: f64,
}

impl QuerySpec {
    /// Creates a query spec.
    pub fn new(origin: usize, cnt: u8, pos: Point, d: f64) -> Self {
        QuerySpec { key: QueryKey { origin, cnt }, pos, d }
    }

    /// The spatial constraint as a [`QueryRegion`].
    pub fn region(&self) -> QueryRegion {
        if self.d.is_infinite() {
            QueryRegion::unbounded()
        } else {
            QueryRegion::new(self.pos, self.d)
        }
    }

    /// Wire size of the bare specification: id (4) + cnt (1) + position
    /// (16) + distance (8).
    pub fn wire_size(&self) -> usize {
        4 + 1 + 16 + 8
    }
}

/// How many recent `cnt` values [`QueryLog`] remembers per originator.
///
/// The paper's log keeps only the *latest* `cnt` ("a device only cares
/// about its latest query"), but that single slot is a broadcast-storm
/// amplifier: an originator issuing queries faster than one flood settles
/// (AODV discovery plus ARQ backoff can keep copies of a query circulating
/// for ~15 s) makes every still-circulating copy of its *previous* query
/// look fresh again the moment the slot moves on, and each re-freshened
/// copy is re-served and re-broadcast — the `ext_attack` query-flood role
/// turned this into an unbounded event cascade. A window deep enough to
/// cover every cnt that can plausibly still be in flight (settle time ×
/// flood rate, with margin) keeps stale copies recognized until they die
/// out. Honest workloads never notice: their cnts are sparse in time.
const QUERY_LOG_WINDOW: usize = 32;

/// The per-device duplicate-suppression log (Section 3.4): maps originator
/// id → a bounded ring of recently seen `cnt`s. O(window) checks, O(m ·
/// window) worst-case space.
///
/// A query is fresh exactly when its `cnt` is not in its originator's
/// window (see `QUERY_LOG_WINDOW` for why a window rather than the
/// paper's single latest value). Counters wrap at 256 and "can be reset at
/// regular intervals"; membership rather than greater-than makes
/// wrap-around harmless.
#[derive(Debug, Default, Clone)]
pub struct QueryLog {
    recent: std::collections::HashMap<usize, std::collections::VecDeque<u8>>,
}

impl QueryLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` when `key` has not been processed yet, and logs it.
    pub fn check_and_record(&mut self, key: QueryKey) -> bool {
        let window = self.recent.entry(key.origin).or_default();
        if window.contains(&key.cnt) {
            return false;
        }
        if window.len() == QUERY_LOG_WINDOW {
            window.pop_front();
        }
        window.push_back(key.cnt);
        true
    }

    /// `true` when `key` has already been processed (no logging).
    pub fn seen(&self, key: QueryKey) -> bool {
        self.recent.get(&key.origin).is_some_and(|w| w.contains(&key.cnt))
    }

    /// Number of originators tracked (bounded by `m`).
    pub fn len(&self) -> usize {
        self.recent.len()
    }

    /// `true` when nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.recent.is_empty()
    }

    /// Clears the log — the paper's periodic reset ("The count can be reset
    /// at regular intervals, e.g., each day"), which also bounds the
    /// worst-case space against originator churn.
    pub fn reset(&mut self) {
        self.recent.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_region_bounded_and_unbounded() {
        let q = QuerySpec::new(3, 1, Point::new(10.0, 20.0), 100.0);
        assert!(q.region().contains(Point::new(10.0, 119.0)));
        assert!(!q.region().contains(Point::new(10.0, 121.0)));
        let u = QuerySpec::new(3, 1, Point::new(0.0, 0.0), f64::INFINITY);
        assert!(u.region().contains(Point::new(1e9, 1e9)));
    }

    #[test]
    fn wire_size_is_fixed() {
        assert_eq!(QuerySpec::new(0, 0, Point::new(0.0, 0.0), 1.0).wire_size(), 29);
    }

    #[test]
    fn log_accepts_fresh_and_rejects_duplicates() {
        let mut log = QueryLog::new();
        let k = QueryKey { origin: 7, cnt: 1 };
        assert!(log.check_and_record(k));
        assert!(!log.check_and_record(k), "same query must be ignored");
        assert!(log.seen(k));
    }

    #[test]
    fn log_remembers_recent_queries_per_originator() {
        let mut log = QueryLog::new();
        assert!(log.check_and_record(QueryKey { origin: 7, cnt: 1 }));
        assert!(log.check_and_record(QueryKey { origin: 7, cnt: 2 }));
        // A stale copy of the previous query must STAY recognized — the
        // paper's latest-only slot re-freshens circulating copies as soon
        // as the counter moves on, which a rapid-fire originator (the
        // query-flood attack) amplifies into a rebroadcast storm.
        assert!(log.seen(QueryKey { origin: 7, cnt: 1 }));
        assert!(!log.check_and_record(QueryKey { origin: 7, cnt: 1 }));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn log_window_is_bounded_and_evicts_oldest_first() {
        let mut log = QueryLog::new();
        for cnt in 0..=QUERY_LOG_WINDOW as u8 {
            assert!(log.check_and_record(QueryKey { origin: 3, cnt }));
        }
        // One past the window: cnt 0 fell out, everything newer is kept.
        assert!(!log.seen(QueryKey { origin: 3, cnt: 0 }));
        for cnt in 1..=QUERY_LOG_WINDOW as u8 {
            assert!(log.seen(QueryKey { origin: 3, cnt }), "cnt {cnt} evicted too early");
        }
        assert_eq!(log.len(), 1, "window is per-originator, not global");
    }

    #[test]
    fn log_handles_wraparound() {
        let mut log = QueryLog::new();
        assert!(log.check_and_record(QueryKey { origin: 1, cnt: 255 }));
        assert!(log.check_and_record(QueryKey { origin: 1, cnt: 0 }));
    }

    #[test]
    fn reset_clears_everything() {
        let mut log = QueryLog::new();
        log.check_and_record(QueryKey { origin: 1, cnt: 1 });
        log.check_and_record(QueryKey { origin: 2, cnt: 1 });
        log.reset();
        assert!(log.is_empty());
        // Previously seen queries are fresh again after the reset.
        assert!(log.check_and_record(QueryKey { origin: 1, cnt: 1 }));
    }

    #[test]
    fn log_separates_originators() {
        let mut log = QueryLog::new();
        assert!(log.check_and_record(QueryKey { origin: 1, cnt: 5 }));
        assert!(log.check_and_record(QueryKey { origin: 2, cnt: 5 }));
        assert_eq!(log.len(), 2);
    }
}
