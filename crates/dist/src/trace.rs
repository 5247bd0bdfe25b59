//! Per-query observability: timeline reconstruction, stable exporters, and
//! the zero-drift cross-check.
//!
//! The engine's trace collector ([`manet_sim::QueryTraceLog`]) stores raw
//! protocol events in per-node rings. This module turns one run's log into
//! three artifacts:
//!
//! * **Timelines** — [`timeline_for`] stitches one query's events across
//!   nodes back into engine order (the global `seq` makes the order exact,
//!   not a timestamp tie-break) and renders a hop-by-hop narrative with
//!   per-phase event/byte totals and reply-latency statistics.
//! * **Exports** — [`trace_to_jsonl`] / [`trace_to_csv`] emit the log with
//!   stable schemas (fixed key order, fixed column set; new fields only
//!   append), so golden-file diffs and `--jobs` bit-identity checks are
//!   meaningful.
//! * **The zero-drift invariant** — [`verify_zero_drift`] recomputes every
//!   aggregate counter the runtime reports (`NetStats`, ARQ/duplicate/
//!   failure tallies, per-query scorecard fields, DRR terms) from the event
//!   log alone and demands exact equality. The trace is not a sampled
//!   diagnostic: any drift between the narrative and the scorecard is a
//!   bug in one of them.

use std::collections::HashMap;
use std::fmt::Write as _;

use manet_sim::{
    FinalizeKind, FrameTag, FrameTraceLog, LossCause, NetStats, QueryEvent, QueryId, QueryTraceLog,
    QueryTraceRecord, TraceEvent,
};

use crate::runtime::{qid, ManetOutcome, TimeoutCause};

// ----------------------------------------------------------------------
// Event reflection: one table drives both exporters and the renderer.
// ----------------------------------------------------------------------

/// A scalar field value carried by an event.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Val {
    U(u64),
    F(f64),
    B(bool),
    S(&'static str),
}

impl Val {
    /// JSON literal (floats via shortest-roundtrip `{:?}`, deterministic;
    /// non-finite values have no JSON number form and become strings).
    fn json(&self) -> String {
        match self {
            Val::U(v) => format!("{v}"),
            Val::F(v) if v.is_finite() => format!("{v:?}"),
            Val::F(v) => format!("\"{v:?}\""),
            Val::B(v) => format!("{v}"),
            Val::S(v) => format!("\"{v}\""),
        }
    }

    /// CSV cell (no quoting needed: all values are scalars).
    fn csv(&self) -> String {
        match self {
            Val::U(v) => format!("{v}"),
            Val::F(v) => format!("{v:?}"),
            Val::B(v) => format!("{v}"),
            Val::S(v) => (*v).to_string(),
        }
    }
}

/// Stable name of a finalization outcome.
fn outcome_name(k: FinalizeKind) -> &'static str {
    match k {
        FinalizeKind::Completed => "completed",
        FinalizeKind::TimedOutNoResponses => "timed_out_no_responses",
        FinalizeKind::TimedOutPartial => "timed_out_partial",
    }
}

/// Stable event name plus its fields in schema order. `peer` consolidates
/// the single-node argument (`to`/`from`/`dead`/`dst`) and `arq_seq` the
/// ARQ sequence number, so the CSV stays one fixed wide schema.
fn event_fields(ev: &QueryEvent) -> (&'static str, Vec<(&'static str, Val)>) {
    use QueryEvent::*;
    match *ev {
        Issued { radius_m, neighbors, filters } => (
            "issued",
            vec![
                ("radius_m", Val::F(radius_m)),
                ("neighbors", Val::U(neighbors as u64)),
                ("filters", Val::U(filters as u64)),
            ],
        ),
        Forwarded { round, neighbors, bytes } => (
            "forwarded",
            vec![
                ("round", Val::U(u64::from(round))),
                ("neighbors", Val::U(neighbors as u64)),
                ("bytes", Val::U(bytes as u64)),
            ],
        ),
        LocalSkyline { unreduced, reply, skipped } => (
            "local_skyline",
            vec![
                ("unreduced", Val::U(unreduced as u64)),
                ("reply", Val::U(reply as u64)),
                ("skipped", Val::B(skipped)),
            ],
        ),
        FilterAttached { vdr } => ("filter_attached", vec![("vdr", Val::F(vdr))]),
        FilterUpgraded { old_vdr, new_vdr } => {
            ("filter_upgraded", vec![("old_vdr", Val::F(old_vdr)), ("new_vdr", Val::F(new_vdr))])
        }
        ReplySent { to, tuples, bytes, seq } => (
            "reply_sent",
            vec![
                ("peer", Val::U(to as u64)),
                ("tuples", Val::U(tuples as u64)),
                ("bytes", Val::U(bytes as u64)),
                ("arq_seq", Val::U(seq)),
            ],
        ),
        ReplyAccepted { from, tuples, unreduced, participated, retries, seq } => (
            "reply_accepted",
            vec![
                ("peer", Val::U(from as u64)),
                ("tuples", Val::U(tuples as u64)),
                ("unreduced", Val::U(unreduced as u64)),
                ("participated", Val::B(participated)),
                ("retries", Val::U(u64::from(retries))),
                ("arq_seq", Val::U(seq)),
            ],
        ),
        DuplicateSuppressed { from, seq } => {
            ("duplicate_suppressed", vec![("peer", Val::U(from as u64)), ("arq_seq", Val::U(seq))])
        }
        ArqRetry { seq, attempt, bytes } => (
            "arq_retry",
            vec![
                ("arq_seq", Val::U(seq)),
                ("attempt", Val::U(u64::from(attempt))),
                ("bytes", Val::U(bytes as u64)),
            ],
        ),
        ArqExhausted { seq } => ("arq_exhausted", vec![("arq_seq", Val::U(seq))]),
        TokenSent { to, bytes, backtrack, seq } => (
            "token_sent",
            vec![
                ("peer", Val::U(to as u64)),
                ("bytes", Val::U(bytes as u64)),
                ("backtrack", Val::B(backtrack)),
                ("arq_seq", Val::U(seq)),
            ],
        ),
        TokenSalvaged { dead } => ("token_salvaged", vec![("peer", Val::U(dead as u64))]),
        DeliveryFailed { dst } => ("delivery_failed", vec![("peer", Val::U(dst as u64))]),
        Reissued { round, neighbors } => (
            "reissued",
            vec![("round", Val::U(u64::from(round))), ("neighbors", Val::U(neighbors as u64))],
        ),
        Finalized {
            outcome,
            responded,
            result_len,
            retries,
            duplicates,
            reissues,
            sum_unreduced,
            sum_sent,
            participants,
        } => (
            "finalized",
            vec![
                ("outcome", Val::S(outcome_name(outcome))),
                ("responded", Val::U(responded as u64)),
                ("result_len", Val::U(result_len as u64)),
                ("retries", Val::U(retries)),
                ("duplicates", Val::U(duplicates)),
                ("reissues", Val::U(u64::from(reissues))),
                ("sum_unreduced", Val::U(sum_unreduced)),
                ("sum_sent", Val::U(sum_sent)),
                ("participants", Val::U(participants)),
            ],
        ),
        Registered { radius_m, ttl_s, period_s } => (
            "registered",
            vec![
                ("radius_m", Val::F(radius_m)),
                ("ttl_s", Val::F(ttl_s)),
                ("period_s", Val::F(period_s)),
            ],
        ),
        DeltaSent { to, epoch, adds, removes, heartbeat, bytes, seq } => (
            "delta_sent",
            vec![
                ("peer", Val::U(to as u64)),
                ("epoch", Val::U(epoch)),
                ("adds", Val::U(adds as u64)),
                ("removes", Val::U(removes as u64)),
                ("heartbeat", Val::B(heartbeat)),
                ("bytes", Val::U(bytes as u64)),
                ("arq_seq", Val::U(seq)),
            ],
        ),
        DeltaApplied { from, epoch, adds, removes, heartbeat } => (
            "delta_applied",
            vec![
                ("peer", Val::U(from as u64)),
                ("epoch", Val::U(epoch)),
                ("adds", Val::U(adds as u64)),
                ("removes", Val::U(removes as u64)),
                ("heartbeat", Val::B(heartbeat)),
            ],
        ),
        LeaseExpired { epoch } => ("lease_expired", vec![("epoch", Val::U(epoch))]),
        Cancelled { epoch } => ("cancelled", vec![("epoch", Val::U(epoch))]),
        AttackFrameSent { kind, bytes } => (
            "attack_frame_sent",
            vec![("kind", Val::S(kind.name())), ("bytes", Val::U(bytes as u64))],
        ),
        AttackFrameDropped { from, cause } => (
            "attack_frame_dropped",
            vec![("peer", Val::U(from as u64)), ("cause", Val::S(cause.name()))],
        ),
        ReputationPenalty { offender, score } => (
            "reputation_penalty",
            vec![("peer", Val::U(offender as u64)), ("score", Val::U(score))],
        ),
        FilterRejected { from, vdr } => {
            ("filter_rejected", vec![("peer", Val::U(from as u64)), ("vdr", Val::F(vdr))])
        }
        Crashed => ("crashed", Vec::new()),
        Revived => ("revived", Vec::new()),
        CacheHit { epoch, age, tuples } => (
            "cache_hit",
            vec![("epoch", Val::U(epoch)), ("age", Val::U(age)), ("tuples", Val::U(tuples as u64))],
        ),
        CacheMiss { epoch, tuples } => {
            ("cache_miss", vec![("epoch", Val::U(epoch)), ("tuples", Val::U(tuples as u64))])
        }
        CellInvalidated { epoch, band } => {
            ("cell_invalidated", vec![("epoch", Val::U(epoch)), ("band", Val::U(band as u64))])
        }
    }
}

/// Coarse protocol phase of an event, for the per-phase totals.
pub fn phase_of(ev: &QueryEvent) -> &'static str {
    use QueryEvent::*;
    match ev {
        Issued { .. } | FilterAttached { .. } => "issue",
        Forwarded { .. } | Reissued { .. } => "flood",
        LocalSkyline { .. } | FilterUpgraded { .. } => "local",
        ReplySent { .. } | ReplyAccepted { .. } | DuplicateSuppressed { .. } => "reply",
        TokenSent { .. } | TokenSalvaged { .. } => "walk",
        ArqRetry { .. } | ArqExhausted { .. } | DeliveryFailed { .. } => "recovery",
        Finalized { .. } => "close",
        Registered { .. }
        | DeltaSent { .. }
        | DeltaApplied { .. }
        | LeaseExpired { .. }
        | Cancelled { .. } => "monitor",
        AttackFrameSent { .. } => "attack",
        AttackFrameDropped { .. } | ReputationPenalty { .. } | FilterRejected { .. } => "defense",
        Crashed | Revived => "fault",
        CacheHit { .. } | CacheMiss { .. } | CellInvalidated { .. } => "serve",
    }
}

/// Bytes an event put on the wire (0 for bookkeeping events).
fn bytes_of(ev: &QueryEvent) -> u64 {
    use QueryEvent::*;
    match *ev {
        Forwarded { bytes, .. }
        | ReplySent { bytes, .. }
        | ArqRetry { bytes, .. }
        | TokenSent { bytes, .. }
        | DeltaSent { bytes, .. }
        | AttackFrameSent { bytes, .. } => bytes as u64,
        _ => 0,
    }
}

// ----------------------------------------------------------------------
// Exporters
// ----------------------------------------------------------------------

/// One JSON object per record, keys in fixed order
/// (`seq,t_us,node,query,event,<event fields>`). The schema is append-only:
/// existing keys never change name or order.
pub fn trace_to_jsonl(log: &QueryTraceLog) -> String {
    let mut out = String::new();
    for r in &log.records {
        let (name, fields) = event_fields(&r.event);
        let _ = write!(out, "{{\"seq\":{},\"t_us\":{},\"node\":{}", r.seq, r.at.0, r.node);
        match r.query {
            Some(q) => {
                let _ = write!(out, ",\"query\":\"{}:{}\"", q.origin, q.cnt);
            }
            None => out.push_str(",\"query\":null"),
        }
        let _ = write!(out, ",\"event\":\"{name}\"");
        for (k, v) in &fields {
            let _ = write!(out, ",\"{k}\":{}", v.json());
        }
        out.push_str("}\n");
    }
    out
}

/// Fixed wide-schema columns shared by every event kind (blank when a field
/// does not apply). The prefix is stable; new columns only append.
const CSV_COLUMNS: [&str; 37] = [
    "radius_m",
    "round",
    "neighbors",
    "filters",
    "bytes",
    "unreduced",
    "reply",
    "skipped",
    "vdr",
    "old_vdr",
    "new_vdr",
    "peer",
    "tuples",
    "participated",
    "retries",
    "arq_seq",
    "attempt",
    "backtrack",
    "outcome",
    "responded",
    "result_len",
    "duplicates",
    "reissues",
    "sum_unreduced",
    "sum_sent",
    "participants",
    // Monitoring extension (append-only; the prefix above is frozen).
    "ttl_s",
    "period_s",
    "epoch",
    "adds",
    "removes",
    "heartbeat",
    // Adversarial-chaos extension (append-only).
    "kind",
    "cause",
    "score",
    // Serving extension (append-only).
    "age",
    "band",
];

/// One CSV row per record with the stable wide schema
/// (`seq,t_us,node,origin,cnt,event,` + `CSV_COLUMNS`).
pub fn trace_to_csv(log: &QueryTraceLog) -> String {
    let mut out = String::from("seq,t_us,node,origin,cnt,event");
    for c in CSV_COLUMNS {
        out.push(',');
        out.push_str(c);
    }
    out.push('\n');
    for r in &log.records {
        let (name, fields) = event_fields(&r.event);
        let (origin, cnt) = match r.query {
            Some(q) => (q.origin.to_string(), q.cnt.to_string()),
            None => (String::new(), String::new()),
        };
        let _ = write!(out, "{},{},{},{origin},{cnt},{name}", r.seq, r.at.0, r.node);
        for c in CSV_COLUMNS {
            out.push(',');
            if let Some((_, v)) = fields.iter().find(|(k, _)| *k == c) {
                out.push_str(&v.csv());
            }
        }
        out.push('\n');
    }
    out
}

// ----------------------------------------------------------------------
// Timeline reconstruction
// ----------------------------------------------------------------------

/// All query ids present in a log, sorted.
pub fn query_ids(log: &QueryTraceLog) -> Vec<QueryId> {
    let mut ids: Vec<QueryId> = log.records.iter().filter_map(|r| r.query).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// One query's events stitched back into exact engine order, plus the
/// crash/revive markers of every node that took part in the query (they
/// explain the losses the narrative shows).
#[derive(Debug, Clone)]
pub struct QueryTimeline {
    /// The query this timeline belongs to.
    pub query: QueryId,
    /// Records in global `seq` order.
    pub records: Vec<QueryTraceRecord>,
}

/// Builds the timeline of `query` from a run's log.
pub fn timeline_for(log: &QueryTraceLog, query: QueryId) -> QueryTimeline {
    let mut records: Vec<QueryTraceRecord> =
        log.records.iter().filter(|r| r.query == Some(query)).copied().collect();
    let participants: std::collections::HashSet<usize> = records.iter().map(|r| r.node).collect();
    records.extend(
        log.records
            .iter()
            .filter(|r| r.query.is_none() && participants.contains(&r.node))
            .copied(),
    );
    records.sort_unstable_by_key(|r| r.seq);
    QueryTimeline { query, records }
}

/// Per-phase totals of a timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name (see [`phase_of`]).
    pub phase: &'static str,
    /// Events in the phase.
    pub events: u64,
    /// Bytes the phase put on the wire.
    pub bytes: u64,
}

/// Reply-latency statistics (BF: `reply_sent` at the responder matched to
/// `reply_accepted` at the originator).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyStats {
    /// Matched reply pairs.
    pub count: usize,
    /// Fastest reply (s).
    pub min_s: f64,
    /// Mean reply latency (s).
    pub mean_s: f64,
    /// Slowest reply (s).
    pub max_s: f64,
    /// Log-spaced buckets: `< 10 ms`, `< 100 ms`, `< 1 s`, `< 10 s`, `≥ 10 s`.
    pub buckets: [usize; 5],
}

/// Summary of one timeline: duration, per-phase totals, reply latencies.
#[derive(Debug, Clone)]
pub struct TimelineSummary {
    /// First event to last event (s).
    pub duration_s: f64,
    /// Phases in fixed protocol order, only those with events.
    pub phases: Vec<PhaseStat>,
    /// Reply latency stats (`None` when no reply pair matched — DF walks).
    pub reply_latency: Option<LatencyStats>,
}

impl QueryTimeline {
    /// Matched (responder, latency) pairs: each responder's `reply_sent`
    /// paired with the originator's `reply_accepted` for the same sender
    /// and ARQ sequence number.
    pub fn reply_latencies(&self) -> Vec<(usize, f64)> {
        let mut sent: HashMap<(usize, u64), f64> = HashMap::new();
        for r in &self.records {
            if let QueryEvent::ReplySent { seq, .. } = r.event {
                sent.entry((r.node, seq)).or_insert_with(|| r.at.as_secs_f64());
            }
        }
        let mut out = Vec::new();
        for r in &self.records {
            if let QueryEvent::ReplyAccepted { from, seq, .. } = r.event {
                if let Some(&t0) = sent.get(&(from, seq)) {
                    out.push((from, r.at.as_secs_f64() - t0));
                }
            }
        }
        out
    }

    /// Computes the timeline's summary.
    pub fn summary(&self) -> TimelineSummary {
        let duration_s = match (self.records.first(), self.records.last()) {
            (Some(a), Some(b)) => b.at.as_secs_f64() - a.at.as_secs_f64(),
            _ => 0.0,
        };
        const ORDER: [&str; 12] = [
            "issue", "flood", "local", "reply", "walk", "recovery", "monitor", "attack", "defense",
            "close", "fault", "serve",
        ];
        let mut phases: Vec<PhaseStat> =
            ORDER.iter().map(|p| PhaseStat { phase: p, events: 0, bytes: 0 }).collect();
        for r in &self.records {
            let p = phase_of(&r.event);
            let s = phases.iter_mut().find(|s| s.phase == p).expect("known phase");
            s.events += 1;
            s.bytes += bytes_of(&r.event);
        }
        phases.retain(|s| s.events > 0);

        let lat = self.reply_latencies();
        let reply_latency = if lat.is_empty() {
            None
        } else {
            let mut min_s = f64::INFINITY;
            let mut max_s = f64::NEG_INFINITY;
            let mut sum = 0.0;
            let mut buckets = [0usize; 5];
            for &(_, l) in &lat {
                min_s = min_s.min(l);
                max_s = max_s.max(l);
                sum += l;
                let b = if l < 0.01 {
                    0
                } else if l < 0.1 {
                    1
                } else if l < 1.0 {
                    2
                } else if l < 10.0 {
                    3
                } else {
                    4
                };
                buckets[b] += 1;
            }
            Some(LatencyStats {
                count: lat.len(),
                min_s,
                mean_s: sum / lat.len() as f64,
                max_s,
                buckets,
            })
        };
        TimelineSummary { duration_s, phases, reply_latency }
    }

    /// Renders the hop-by-hop narrative: one line per event with the offset
    /// from the query's first event, plus the summary block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "query {}:{} — {} events",
            self.query.origin,
            self.query.cnt,
            self.records.len()
        );
        let t0 = self.records.first().map_or(0.0, |r| r.at.as_secs_f64());
        for r in &self.records {
            let (name, fields) = event_fields(&r.event);
            let mut detail = String::new();
            for (k, v) in &fields {
                if !detail.is_empty() {
                    detail.push_str(", ");
                }
                let _ = write!(detail, "{k}={}", v.csv());
            }
            let _ = writeln!(
                out,
                "[+{:>11.6}s] node {:<4} {:<20} {}",
                r.at.as_secs_f64() - t0,
                r.node,
                name,
                detail
            );
        }
        let s = self.summary();
        let _ = writeln!(out, "-- duration {:.6}s", s.duration_s);
        for p in &s.phases {
            let _ =
                writeln!(out, "-- phase {:<9} {:>5} events {:>9} B", p.phase, p.events, p.bytes);
        }
        if let Some(l) = &s.reply_latency {
            let _ = writeln!(
                out,
                "-- replies {} matched: min {:.6}s mean {:.6}s max {:.6}s  \
                 [<10ms:{} <100ms:{} <1s:{} <10s:{} >=10s:{}]",
                l.count,
                l.min_s,
                l.mean_s,
                l.max_s,
                l.buckets[0],
                l.buckets[1],
                l.buckets[2],
                l.buckets[3],
                l.buckets[4]
            );
        }
        out
    }
}

// ----------------------------------------------------------------------
// The zero-drift invariant
// ----------------------------------------------------------------------

/// Aggregates recomputed from the event log alone.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TraceAggregates {
    /// `issued` events.
    pub issued: u64,
    /// `arq_retry` events.
    pub arq_retries: u64,
    /// `arq_exhausted` events.
    pub arq_exhausted: u64,
    /// `duplicate_suppressed` events.
    pub duplicates_suppressed: u64,
    /// `delivery_failed` events.
    pub delivery_failures: u64,
    /// `crashed` events.
    pub crashes: u64,
    /// `revived` events.
    pub revivals: u64,
    /// Σ `forwarded.neighbors` — per-recipient BF flood messages.
    pub forward_recipients: u64,
    /// `token_sent` events — DF transfer messages.
    pub token_sent: u64,
    /// `reply_sent` events.
    pub reply_sent: u64,
    /// `finalized` events.
    pub finalized: u64,
    /// `registered` events (monitoring lease installs/renewals).
    pub registered: u64,
    /// `delta_sent` events (epoch deltas and heartbeats).
    pub delta_sent: u64,
    /// The `delta_sent` subset with `heartbeat = true`.
    pub delta_heartbeats: u64,
    /// `delta_applied` events at the originator.
    pub delta_applied: u64,
    /// `lease_expired` events.
    pub lease_expired: u64,
    /// `cancelled` events.
    pub cancelled: u64,
    /// `attack_frame_sent` events (adversarial roles only).
    pub attack_frames_sent: u64,
    /// `attack_frame_dropped` events (any defensive refusal).
    pub attack_frames_dropped: u64,
    /// `filter_rejected` events (individual filters stripped).
    pub filters_rejected: u64,
    /// `reputation_penalty` events.
    pub reputation_penalties: u64,
    /// `cache_hit` events (serving front end only).
    pub cache_hits: u64,
    /// `cache_miss` events (serving front end only).
    pub cache_misses: u64,
    /// `cell_invalidated` events (serving front end only).
    pub cells_invalidated: u64,
}

/// Recomputes the log-wide [`TraceAggregates`] from the event log alone.
/// [`verify_zero_drift`] (one-shot queries) and
/// [`verify_monitor_drift`](crate::monitor::verify_monitor_drift)
/// (continuous monitoring) both reconcile these against runtime counters.
pub fn trace_aggregates(log: &QueryTraceLog) -> TraceAggregates {
    let mut agg = TraceAggregates::default();
    for r in &log.records {
        match r.event {
            QueryEvent::Issued { .. } => agg.issued += 1,
            QueryEvent::ArqRetry { .. } => agg.arq_retries += 1,
            QueryEvent::ArqExhausted { .. } => agg.arq_exhausted += 1,
            QueryEvent::DuplicateSuppressed { .. } => agg.duplicates_suppressed += 1,
            QueryEvent::DeliveryFailed { .. } => agg.delivery_failures += 1,
            QueryEvent::Crashed => agg.crashes += 1,
            QueryEvent::Revived => agg.revivals += 1,
            QueryEvent::Forwarded { neighbors, .. } => agg.forward_recipients += neighbors as u64,
            QueryEvent::TokenSent { .. } => agg.token_sent += 1,
            QueryEvent::ReplySent { .. } => agg.reply_sent += 1,
            QueryEvent::Finalized { .. } => agg.finalized += 1,
            QueryEvent::Registered { .. } => agg.registered += 1,
            QueryEvent::DeltaSent { heartbeat, .. } => {
                agg.delta_sent += 1;
                if heartbeat {
                    agg.delta_heartbeats += 1;
                }
            }
            QueryEvent::DeltaApplied { .. } => agg.delta_applied += 1,
            QueryEvent::LeaseExpired { .. } => agg.lease_expired += 1,
            QueryEvent::Cancelled { .. } => agg.cancelled += 1,
            QueryEvent::AttackFrameSent { .. } => agg.attack_frames_sent += 1,
            QueryEvent::AttackFrameDropped { .. } => agg.attack_frames_dropped += 1,
            QueryEvent::FilterRejected { .. } => agg.filters_rejected += 1,
            QueryEvent::ReputationPenalty { .. } => agg.reputation_penalties += 1,
            QueryEvent::CacheHit { .. } => agg.cache_hits += 1,
            QueryEvent::CacheMiss { .. } => agg.cache_misses += 1,
            QueryEvent::CellInvalidated { .. } => agg.cells_invalidated += 1,
            _ => {}
        }
    }
    agg
}

/// The preamble every zero-drift verifier shares: a lossless log, the
/// [`TraceAggregates`] recomputed from it, and the accumulator that the
/// `check(name, traced, counted)` reconciliations write into.
pub(crate) struct DriftCheck<'a> {
    pub log: &'a QueryTraceLog,
    pub agg: TraceAggregates,
    pub errs: Vec<String>,
}

impl<'a> DriftCheck<'a> {
    /// Refuses a log that was not collected, or a lossy one (its ring
    /// overflowed, which voids the guarantee); `capacity` names the knob
    /// that sizes the ring.
    pub(crate) fn open(log: Option<&'a QueryTraceLog>, capacity: &str) -> Result<Self, String> {
        let log = log.ok_or("query trace was not collected (set TraceConfig::enabled)")?;
        if log.dropped > 0 {
            return Err(format!(
                "query trace dropped {} records; ring overflow voids the zero-drift guarantee \
                 (raise {capacity})",
                log.dropped
            ));
        }
        Ok(DriftCheck { log, agg: trace_aggregates(log), errs: Vec::new() })
    }

    /// Records a drift when the traced and counted values differ.
    pub(crate) fn check(&mut self, name: &str, traced: u64, counted: u64) {
        if traced != counted {
            self.errs.push(format!("{name}: trace says {traced}, counters say {counted}"));
        }
    }
}

#[derive(Debug, Default, Clone)]
struct PerQuery {
    issued: u64,
    reissued: u64,
    token_sent: u64,
    accepted: Vec<(usize, usize, bool, u32)>, // (unreduced, tuples, participated, retries)
    finalized: Vec<QueryEvent>,
}

/// Recomputes every runtime aggregate from `out.query_trace` (and, when
/// present, `out.frame_trace`) and demands exact equality with the
/// counters the runtime reported. Returns the trace-side aggregates on
/// success; any drift is a bug in either the counters or the trace and is
/// reported with the failing quantity.
///
/// Requires lossless logs: a ring overflow (`dropped > 0`) voids the
/// guarantee and fails the check — raise the capacities in
/// [`TraceConfig`](crate::config::TraceConfig) instead.
pub fn verify_zero_drift(out: &ManetOutcome) -> Result<TraceAggregates, String> {
    let mut d = DriftCheck::open(out.query_trace.as_ref(), "TraceConfig::per_node_capacity")?;
    let (log, agg) = (d.log, d.agg);
    let mut per: HashMap<QueryId, PerQuery> = HashMap::new();
    for r in &log.records {
        if let Some(q) = r.query {
            let p = per.entry(q).or_default();
            match r.event {
                QueryEvent::Issued { .. } => p.issued += 1,
                QueryEvent::Reissued { .. } => p.reissued += 1,
                QueryEvent::TokenSent { .. } => p.token_sent += 1,
                QueryEvent::ReplyAccepted { unreduced, tuples, participated, retries, .. } => {
                    p.accepted.push((unreduced, tuples, participated, retries));
                }
                QueryEvent::Finalized { .. } => p.finalized.push(r.event),
                _ => {}
            }
        }
    }

    d.check("arq_retries", agg.arq_retries, out.arq_retries);
    d.check("arq_exhausted", agg.arq_exhausted, out.arq_exhausted);
    d.check("duplicates_suppressed", agg.duplicates_suppressed, out.duplicates_suppressed);
    d.check("delivery_failures", agg.delivery_failures, out.delivery_failures);
    d.check("node_crashes", agg.crashes, out.net.node_crashes);
    d.check("node_revivals", agg.revivals, out.net.node_revivals);
    // Adversarial traffic and its defensive refusals are counted in three
    // places — the app counters, the engine's NetStats, and the trace —
    // and all three must agree exactly.
    d.check("attack_frames_sent", agg.attack_frames_sent, out.attack_frames_sent);
    d.check("attack_frames_dropped", agg.attack_frames_dropped, out.attack_frames_dropped);
    d.check("app_frames_rejected", agg.attack_frames_dropped, out.net.app_frames_rejected);
    d.check("filters_rejected", agg.filters_rejected, out.filters_rejected);
    d.check("reputation_penalties", agg.reputation_penalties, out.reputation_penalties);
    // Serving events are recorded only by `serve::ServeEngine` (which
    // reconciles them via `verify_serve_drift`); an engine run must not
    // have produced any.
    d.check("cache_hits (engine run)", agg.cache_hits, 0);
    d.check("cache_misses (engine run)", agg.cache_misses, 0);
    d.check("cells_invalidated (engine run)", agg.cells_invalidated, 0);
    // Every BF flood counts one message per recipient; every DF transfer
    // counts one. Emission and counter bump share a callback, so equality
    // is exact even across crashes.
    d.check(
        "forward_messages",
        agg.forward_recipients + agg.token_sent,
        out.total_forward_messages,
    );
    // Replies are counted at creation but traced at stash flush; a crash in
    // between loses the send, never the count.
    if agg.reply_sent > out.total_result_messages {
        d.errs.push(format!(
            "result_messages: trace says {} sends, counters created only {}",
            agg.reply_sent, out.total_result_messages
        ));
    }

    for rec in &out.records {
        let q = qid(rec.key);
        let label = format!("query {}:{}", q.origin, q.cnt);
        let empty = PerQuery::default();
        let p = per.get(&q).unwrap_or(&empty);
        if p.issued != 1 {
            d.errs.push(format!("{label}: {} issued events (want 1)", p.issued));
        }
        if p.reissued != u64::from(rec.reissues) {
            d.errs.push(format!(
                "{label}: {} reissued events, record says {}",
                p.reissued, rec.reissues
            ));
        }
        if rec.timeout_cause == Some(TimeoutCause::OriginatorCrash) {
            // The originator died with the query open: `finalize` never ran,
            // so the trace must not contain a finalized event — the engine's
            // `crashed` marker is the terminal record.
            if !p.finalized.is_empty() {
                d.errs.push(format!("{label}: finalized event despite originator crash"));
            }
        } else {
            let &[f] = p.finalized.as_slice() else {
                d.errs.push(format!(
                    "{label}: {} finalized events (want exactly 1)",
                    p.finalized.len()
                ));
                continue;
            };
            let QueryEvent::Finalized {
                outcome,
                responded,
                result_len,
                retries,
                duplicates,
                reissues,
                sum_unreduced,
                sum_sent,
                participants,
            } = f
            else {
                unreachable!("finalized bucket holds only Finalized events");
            };
            let want_outcome = match rec.timeout_cause {
                None => FinalizeKind::Completed,
                Some(TimeoutCause::NoResponses) => FinalizeKind::TimedOutNoResponses,
                _ => FinalizeKind::TimedOutPartial,
            };
            if outcome != want_outcome
                || responded != rec.responded
                || result_len != rec.result_len
                || retries != rec.retries
                || duplicates != rec.duplicates
                || reissues != rec.reissues
                || sum_unreduced != rec.drr.sum_unreduced
                || sum_sent != rec.drr.sum_sent
                || participants != rec.drr.participants
            {
                d.errs.push(format!("{label}: finalized event disagrees with the query record"));
            }
        }
        // BF-only reconstruction: a token walk reports no per-reply events
        // (its accounting rides in the token and is covered by the
        // finalized copy-check above).
        if p.token_sent == 0 {
            if p.accepted.len() != rec.responded {
                d.errs.push(format!(
                    "{label}: {} accepted replies, record says {} responders",
                    p.accepted.len(),
                    rec.responded
                ));
            }
            let retries: u64 = p.accepted.iter().map(|a| u64::from(a.3)).sum();
            if retries != rec.retries {
                d.errs.push(format!(
                    "{label}: accepted replies carry {retries} retries, record says {}",
                    rec.retries
                ));
            }
            // Re-apply DrrAccumulator::add semantics event by event.
            let (mut su, mut ss, mut np) = (0u64, 0u64, 0u64);
            for &(unreduced, tuples, participated, _) in &p.accepted {
                if participated && unreduced > 0 {
                    su += unreduced as u64;
                    ss += tuples as u64;
                    np += 1;
                }
            }
            if (su, ss, np) != (rec.drr.sum_unreduced, rec.drr.sum_sent, rec.drr.participants) {
                d.errs.push(format!(
                    "{label}: DRR from events ({su},{ss},{np}) != record ({},{},{})",
                    rec.drr.sum_unreduced, rec.drr.sum_sent, rec.drr.participants
                ));
            }
        }
    }

    if let Some(frames) = out.frame_trace.as_ref() {
        d.errs.extend(verify_frames(frames, &out.net));
    }

    if d.errs.is_empty() {
        Ok(agg)
    } else {
        Err(d.errs.join("; "))
    }
}

/// Reconciles the frame-level radio log against the engine's [`NetStats`]
/// counters, returning one message per drifting quantity (empty = clean).
/// Shared by [`verify_zero_drift`] and the monitoring checker
/// ([`crate::monitor::verify_monitor_drift`]) — both demand exact equality
/// and treat a dropped-ring log as a failure.
pub(crate) fn verify_frames(frames: &FrameTraceLog, net: &NetStats) -> Vec<String> {
    let mut errs = Vec::new();
    if frames.dropped > 0 {
        errs.push(format!(
            "frame trace dropped {} events (raise TraceConfig::frames_capacity)",
            frames.dropped
        ));
        return errs;
    }
    let (mut sent, mut bytes, mut lost) = (0u64, 0u64, 0u64);
    let mut by_tag = [0u64; 4];
    let (mut down, mut severed) = (0u64, 0u64);
    let (mut crashed, mut revived) = (0u64, 0u64);
    let mut fwd_dropped = 0u64;
    for (_, ev) in &frames.entries {
        match *ev {
            TraceEvent::FrameSent { tag, bytes: b, .. } => {
                sent += 1;
                bytes += u64::from(b);
                by_tag[tag as usize] += 1;
            }
            TraceEvent::FrameLost { cause, .. } => {
                lost += 1;
                match cause {
                    LossCause::NodeDown => down += 1,
                    LossCause::LinkDown => severed += 1,
                    LossCause::Radio => {}
                }
            }
            TraceEvent::ForwardDropped { .. } => fwd_dropped += 1,
            TraceEvent::NodeCrashed { .. } => crashed += 1,
            TraceEvent::NodeRevived { .. } => revived += 1,
            TraceEvent::FrameDelivered { .. } => {}
        }
    }
    let mut fcheck = |name: &str, traced: u64, counted: u64| {
        if traced != counted {
            errs.push(format!("frames.{name}: trace says {traced}, NetStats says {counted}"));
        }
    };
    fcheck("sent", sent, net.frames_sent);
    fcheck("bytes", bytes, net.bytes_sent);
    fcheck("aodv", by_tag[FrameTag::Aodv as usize], net.aodv_frames);
    fcheck("data", by_tag[FrameTag::Data as usize], net.data_frames);
    fcheck("bcast", by_tag[FrameTag::Bcast as usize], net.bcast_frames);
    fcheck("hello", by_tag[FrameTag::Hello as usize], net.hello_frames);
    fcheck("lost", lost, net.frames_lost);
    fcheck("lost_node_down", down, net.frames_dropped_node_down);
    fcheck("lost_link_down", severed, net.frames_blocked_link_down);
    fcheck("node_crashes", crashed, net.node_crashes);
    fcheck("node_revivals", revived, net.node_revivals);
    fcheck("forward_drops", fwd_dropped, net.data_drops_forwarded);
    errs
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::SimTime;

    fn rec(
        seq: u64,
        t_us: u64,
        node: usize,
        q: Option<(usize, u8)>,
        ev: QueryEvent,
    ) -> QueryTraceRecord {
        QueryTraceRecord {
            seq,
            at: SimTime(t_us),
            node,
            query: q.map(|(origin, cnt)| QueryId { origin, cnt }),
            event: ev,
        }
    }

    fn sample_log() -> QueryTraceLog {
        QueryTraceLog {
            records: vec![
                rec(
                    0,
                    1_000_000,
                    3,
                    Some((3, 0)),
                    QueryEvent::Issued { radius_m: 600.0, neighbors: 2, filters: 1 },
                ),
                rec(1, 1_000_000, 3, Some((3, 0)), QueryEvent::FilterAttached { vdr: 0.25 }),
                rec(
                    2,
                    1_000_000,
                    3,
                    Some((3, 0)),
                    QueryEvent::Forwarded { round: 0, neighbors: 2, bytes: 96 },
                ),
                rec(
                    3,
                    1_050_000,
                    5,
                    Some((3, 0)),
                    QueryEvent::LocalSkyline { unreduced: 7, reply: 4, skipped: false },
                ),
                rec(
                    4,
                    1_060_000,
                    5,
                    Some((3, 0)),
                    QueryEvent::ReplySent { to: 3, tuples: 4, bytes: 128, seq: 9 },
                ),
                rec(
                    5,
                    1_200_000,
                    3,
                    Some((3, 0)),
                    QueryEvent::ReplyAccepted {
                        from: 5,
                        tuples: 4,
                        unreduced: 7,
                        participated: true,
                        retries: 0,
                        seq: 9,
                    },
                ),
                rec(6, 2_000_000, 5, None, QueryEvent::Crashed),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn jsonl_is_stable_and_one_object_per_line() {
        let j = trace_to_jsonl(&sample_log());
        let lines: Vec<&str> = j.lines().collect();
        assert_eq!(lines.len(), 7);
        assert_eq!(
            lines[0],
            "{\"seq\":0,\"t_us\":1000000,\"node\":3,\"query\":\"3:0\",\"event\":\"issued\",\
             \"radius_m\":600.0,\"neighbors\":2,\"filters\":1}"
        );
        // Engine-recorded fault markers carry a null query.
        assert_eq!(
            lines[6],
            "{\"seq\":6,\"t_us\":2000000,\"node\":5,\"query\":null,\"event\":\"crashed\"}"
        );
    }

    #[test]
    fn csv_has_the_stable_wide_schema() {
        let c = trace_to_csv(&sample_log());
        let lines: Vec<&str> = c.lines().collect();
        assert!(lines[0].starts_with("seq,t_us,node,origin,cnt,event,radius_m,round,"));
        assert_eq!(lines[0].split(',').count(), 6 + CSV_COLUMNS.len());
        for l in &lines[1..] {
            assert_eq!(l.split(',').count(), 6 + CSV_COLUMNS.len(), "ragged row: {l}");
        }
        // The reply_sent row puts 128 in the bytes column and 9 in arq_seq.
        let reply = lines.iter().find(|l| l.contains("reply_sent")).unwrap();
        let cells: Vec<&str> = reply.split(',').collect();
        let bytes_idx = 6 + CSV_COLUMNS.iter().position(|c| *c == "bytes").unwrap();
        let seq_idx = 6 + CSV_COLUMNS.iter().position(|c| *c == "arq_seq").unwrap();
        assert_eq!(cells[bytes_idx], "128");
        assert_eq!(cells[seq_idx], "9");
    }

    #[test]
    fn timeline_stitches_in_seq_order_and_adopts_participant_faults() {
        let log = sample_log();
        let ids = query_ids(&log);
        assert_eq!(ids, vec![QueryId { origin: 3, cnt: 0 }]);
        let tl = timeline_for(&log, ids[0]);
        // 6 query events + the crash of participating node 5.
        assert_eq!(tl.records.len(), 7);
        assert!(tl.records.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(matches!(tl.records.last().unwrap().event, QueryEvent::Crashed));
    }

    #[test]
    fn summary_matches_reply_latency_and_phases() {
        let tl = timeline_for(&sample_log(), QueryId { origin: 3, cnt: 0 });
        let lat = tl.reply_latencies();
        assert_eq!(lat.len(), 1);
        assert_eq!(lat[0].0, 5);
        assert!((lat[0].1 - 0.14).abs() < 1e-9);
        let s = tl.summary();
        assert!((s.duration_s - 1.0).abs() < 1e-9);
        let reply = s.phases.iter().find(|p| p.phase == "reply").unwrap();
        assert_eq!(reply.events, 2);
        assert_eq!(reply.bytes, 128);
        let l = s.reply_latency.unwrap();
        assert_eq!(l.count, 1);
        assert_eq!(l.buckets, [0, 0, 1, 0, 0]);
    }

    #[test]
    fn render_is_line_per_event_plus_summary() {
        let tl = timeline_for(&sample_log(), QueryId { origin: 3, cnt: 0 });
        let text = tl.render();
        assert!(text.starts_with("query 3:0"));
        assert!(text.contains("reply_accepted"));
        assert!(text.contains("-- duration"));
        assert!(text.contains("-- replies 1 matched"));
    }

    fn monitor_log() -> QueryTraceLog {
        QueryTraceLog {
            records: vec![
                rec(
                    0,
                    1_000_000,
                    4,
                    Some((0, 0)),
                    QueryEvent::Registered { radius_m: 400.0, ttl_s: 60.0, period_s: 10.0 },
                ),
                rec(
                    1,
                    2_000_000,
                    4,
                    Some((0, 0)),
                    QueryEvent::DeltaSent {
                        to: 0,
                        epoch: 1,
                        adds: 2,
                        removes: 1,
                        heartbeat: false,
                        bytes: 77,
                        seq: 3,
                    },
                ),
                rec(
                    2,
                    2_100_000,
                    0,
                    Some((0, 0)),
                    QueryEvent::DeltaApplied {
                        from: 4,
                        epoch: 1,
                        adds: 2,
                        removes: 1,
                        heartbeat: false,
                    },
                ),
                rec(
                    3,
                    3_000_000,
                    4,
                    Some((0, 0)),
                    QueryEvent::DeltaSent {
                        to: 0,
                        epoch: 2,
                        adds: 0,
                        removes: 0,
                        heartbeat: true,
                        bytes: 30,
                        seq: 4,
                    },
                ),
                rec(4, 9_000_000, 4, Some((0, 0)), QueryEvent::LeaseExpired { epoch: 2 }),
                rec(5, 9_500_000, 4, Some((0, 0)), QueryEvent::Cancelled { epoch: 2 }),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn monitor_events_export_and_aggregate() {
        let log = monitor_log();
        let agg = trace_aggregates(&log);
        assert_eq!(agg.registered, 1);
        assert_eq!(agg.delta_sent, 2);
        assert_eq!(agg.delta_heartbeats, 1);
        assert_eq!(agg.delta_applied, 1);
        assert_eq!(agg.lease_expired, 1);
        assert_eq!(agg.cancelled, 1);
        // The wide CSV schema absorbs the new events without ragged rows.
        let c = trace_to_csv(&log);
        for l in c.lines() {
            assert_eq!(l.split(',').count(), 6 + CSV_COLUMNS.len(), "ragged row: {l}");
        }
        let j = trace_to_jsonl(&log);
        assert!(j.lines().next().unwrap().contains("\"event\":\"registered\""));
        assert!(j.contains("\"heartbeat\":true"));
        // Monitoring events land in their own timeline phase.
        let tl = timeline_for(&log, QueryId { origin: 0, cnt: 0 });
        let s = tl.summary();
        let m = s.phases.iter().find(|p| p.phase == "monitor").unwrap();
        assert_eq!(m.events, 6);
        assert_eq!(m.bytes, 107);
    }

    #[test]
    fn csv_prefix_is_byte_identical_to_pre_monitor_schema() {
        // The pre-monitoring header prefix is frozen verbatim: new columns
        // only append after `participants`.
        let header = trace_to_csv(&QueryTraceLog::default());
        let frozen = "seq,t_us,node,origin,cnt,event,radius_m,round,neighbors,filters,bytes,\
                      unreduced,reply,skipped,vdr,old_vdr,new_vdr,peer,tuples,participated,\
                      retries,arq_seq,attempt,backtrack,outcome,responded,result_len,duplicates,\
                      reissues,sum_unreduced,sum_sent,participants";
        assert!(header.lines().next().unwrap().starts_with(frozen));
    }
}
