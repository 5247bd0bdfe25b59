//! Network-level counters for experiment accounting (the raw material for
//! the paper's Fig. 12 message counts and for sanity-checking the radio
//! model).

/// Aggregate counters maintained by the engine.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    /// Frames handed to the radio (any kind, including lost ones).
    pub frames_sent: u64,
    /// Total bytes handed to the radio.
    pub bytes_sent: u64,
    /// AODV control frames (RREQ/RREP/RERR), originated or forwarded.
    pub aodv_frames: u64,
    /// Routed data frames (per hop).
    pub data_frames: u64,
    /// One-hop application broadcast frames.
    pub bcast_frames: u64,
    /// Hello beacon frames (beacon neighbour mode only).
    pub hello_frames: u64,
    /// Frame copies that failed to reach their receiver for any reason:
    /// range/fading/random loss, a severed link, or a down node. Each loss
    /// also bumps its cause-specific counter below (node-down, link-down),
    /// so `frames_lost - frames_dropped_node_down - frames_blocked_link_down`
    /// is the radio-only loss count.
    pub frames_lost: u64,
    /// Application unicasts submitted via [`NodeCtx::send_unicast`](crate::engine::NodeCtx::send_unicast).
    pub app_unicasts_submitted: u64,
    /// Application unicasts that reached their destination.
    pub app_unicasts_delivered: u64,
    /// Application unicasts that failed (no route after retries).
    pub app_unicasts_failed: u64,
    /// Application broadcasts submitted.
    pub app_broadcasts_sent: u64,
    /// Per-receiver deliveries of application broadcasts.
    pub app_broadcasts_received: u64,
    /// Node crashes injected by a fault plan.
    pub node_crashes: u64,
    /// Node reboots injected by a fault plan.
    pub node_revivals: u64,
    /// Frames addressed to (or arriving at) a crashed node.
    pub frames_dropped_node_down: u64,
    /// Frames blocked by a severed link.
    pub frames_blocked_link_down: u64,
    /// Frames the application delivered but refused to process — rejected
    /// by defensive decode or an active defense (rate limit, identity or
    /// sanity check, reputation isolation). Counted via
    /// [`NodeCtx::reject_frame`](crate::engine::NodeCtx::reject_frame) and
    /// reconciled against the trace's `AttackFrameDropped` events by
    /// zero-drift verification.
    pub app_frames_rejected: u64,
    /// Data packets a *relay* had to abandon: no route (and rediscovery,
    /// where attempted, exhausted its retries) or the hop cap tripped.
    /// The originator is not told — it isn't this node's message — so the
    /// sender's ARQ recovers; this counter plus the trace's
    /// `ForwardDropped` events keep the loss visible to zero-drift
    /// verification instead of silent.
    pub data_drops_forwarded: u64,
}

impl NetStats {
    /// Delivery ratio of application unicasts (1.0 when none were sent).
    pub fn unicast_delivery_ratio(&self) -> f64 {
        if self.app_unicasts_submitted == 0 {
            1.0
        } else {
            self.app_unicasts_delivered as f64 / self.app_unicasts_submitted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_ratio_defaults_to_one() {
        assert_eq!(NetStats::default().unicast_delivery_ratio(), 1.0);
    }

    #[test]
    fn delivery_ratio_counts() {
        let s = NetStats {
            app_unicasts_submitted: 4,
            app_unicasts_delivered: 3,
            ..NetStats::default()
        };
        assert_eq!(s.unicast_delivery_ratio(), 0.75);
    }
}

/// Kinds of traced events (compact, no payloads). Node ids and byte counts
/// are `u32` so that one `(SimTime, TraceEvent)` ring record is 24 bytes
/// (pinned below): a transmission is one record however many receivers
/// hear it, plus one per lost copy, and a long monitoring run still
/// records a quarter of a million of them. The engine converts through
/// `narrow`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A frame was handed to the radio. Recorded ahead of the transmit-time
    /// [`FrameLost`](TraceEvent::FrameLost) records of its copies.
    FrameSent {
        /// Transmitting node.
        from: u32,
        /// Frame kind tag (see [`FrameTag`]).
        tag: FrameTag,
        /// Bytes on the air.
        bytes: u32,
        /// Copies scheduled for delivery: the receivers that passed the
        /// transmit-time gates (0 or 1 for a unicast). Summed over a log it
        /// is the engine's `copies_scheduled`; a copy whose receiver
        /// crashes in flight is one of these and also a delivery-time
        /// `FrameLost { NodeDown }`.
        copies: u32,
    },
    /// A frame was lost. Every lost frame copy is traced exactly once with
    /// the cause that killed it, so per-cause trace counts reconstruct the
    /// [`NetStats`] loss counters.
    FrameLost {
        /// Transmitting node.
        from: u32,
        /// Frame kind tag.
        tag: FrameTag,
        /// Why the frame never arrived.
        cause: LossCause,
    },
    /// A relay abandoned a data packet it was forwarding (no route after
    /// salvage, or hop cap) — the per-event twin of
    /// [`NetStats::data_drops_forwarded`].
    ForwardDropped {
        /// The relay that dropped the packet.
        at: u32,
        /// The packet's end-to-end source.
        src: u32,
        /// The packet's unreachable destination.
        dst: u32,
    },
    /// A fault plan crashed a node.
    NodeCrashed {
        /// The node that went down.
        node: u32,
    },
    /// A fault plan revived a node.
    NodeRevived {
        /// The node that came back up.
        node: u32,
    },
}

const _: () = assert!(std::mem::size_of::<TraceEvent>() == 16);
const _: () = assert!(std::mem::size_of::<(crate::time::SimTime, TraceEvent)>() == 24);

/// Narrows a node id or byte count to a [`TraceEvent`] field. Nothing the
/// engine simulates reaches 2³²; if something ever did, the field saturates
/// rather than wraps, so zero-drift verification reports the sum as drift
/// instead of reconciling against a silently wrong one.
pub(crate) fn narrow(v: usize) -> u32 {
    let n = u32::try_from(v).unwrap_or(u32::MAX);
    debug_assert!(n as usize == v, "{v} does not fit a trace field");
    n
}

/// Why a traced frame was lost (see [`TraceEvent::FrameLost`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossCause {
    /// Out of range, fading, or random radio loss (`NetStats::frames_lost`
    /// minus the two structural counters).
    Radio,
    /// The link was severed by a fault plan
    /// (`NetStats::frames_blocked_link_down`).
    LinkDown,
    /// The receiver was down at send or delivery time
    /// (`NetStats::frames_dropped_node_down`).
    NodeDown,
}

/// Which layer a traced frame belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameTag {
    /// AODV control.
    Aodv,
    /// Routed application data.
    Data,
    /// One-hop application broadcast.
    Bcast,
    /// Hello beacon.
    Hello,
}

/// A bounded ring buffer of recent simulator events, for post-mortem
/// debugging ("what did the radio do around t = 512 s?"). Disabled by
/// default; enable via `Simulator::enable_trace`.
#[derive(Debug)]
pub struct EventTrace {
    capacity: usize,
    entries: std::collections::VecDeque<(crate::time::SimTime, TraceEvent)>,
    /// Events dropped because the ring was full.
    pub dropped: u64,
}

impl EventTrace {
    /// A trace holding at most `capacity` events. The whole ring is
    /// reserved up front: pages nothing has been recorded into cost no
    /// resident memory, whereas growing by doubling would hold the old and
    /// the new buffer at once just when the trace is largest.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        EventTrace {
            capacity,
            entries: std::collections::VecDeque::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Records one event at `at`.
    pub fn record(&mut self, at: crate::time::SimTime, ev: TraceEvent) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back((at, ev));
    }

    /// Events ever recorded, retained or not: the position the next
    /// [`Self::record`] takes, for [`Self::set_copies`].
    pub(crate) fn recorded(&self) -> u64 {
        self.dropped + self.entries.len() as u64
    }

    /// Sets the `copies` of the [`TraceEvent::FrameSent`] recorded at
    /// position `at` (see [`Self::recorded`]), unless the ring has evicted
    /// it since.
    pub(crate) fn set_copies(&mut self, at: u64, n: u32) {
        let Some(i) = at.checked_sub(self.dropped) else { return };
        let slot = self.entries.get_mut(i as usize).map(|e| &mut e.1);
        debug_assert!(matches!(slot, Some(TraceEvent::FrameSent { .. })), "{at} is no FrameSent");
        if let Some(TraceEvent::FrameSent { copies, .. }) = slot {
            *copies = n;
        }
    }

    /// Events currently retained, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &(crate::time::SimTime, TraceEvent)> {
        self.entries.iter()
    }

    /// The retained events, oldest first, in the ring's own buffer: no
    /// copy when the ring never wrapped, an in-place rotation when it did.
    pub fn into_entries(self) -> Vec<(crate::time::SimTime, TraceEvent)> {
        Vec::from(self.entries)
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders the retained events as one line per event.
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (at, ev) in &self.entries {
            let _ = writeln!(out, "{at} {ev:?}");
        }
        out
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn ring_evicts_oldest() {
        let mut t = EventTrace::new(2);
        for i in 0..5u64 {
            t.record(
                SimTime(i),
                TraceEvent::FrameLost {
                    from: i as u32,
                    tag: FrameTag::Data,
                    cause: LossCause::Radio,
                },
            );
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped, 3);
        let first = t.entries().next().unwrap();
        assert_eq!(first.0, SimTime(3), "oldest retained is the 4th event");
    }

    #[test]
    fn dump_renders_lines() {
        let mut t = EventTrace::new(4);
        t.record(
            SimTime(1_000_000),
            TraceEvent::FrameSent { from: 0, tag: FrameTag::Aodv, bytes: 44, copies: 3 },
        );
        t.record(
            SimTime(2_000_000),
            TraceEvent::FrameLost { from: 0, tag: FrameTag::Aodv, cause: LossCause::NodeDown },
        );
        let d = t.dump();
        assert!(d.contains("1.000000s"));
        assert!(d.contains("copies: 3"));
        assert!(d.contains("NodeDown"));
        assert_eq!(d.lines().count(), 2);
    }

    #[test]
    fn set_copies_patches_a_retained_record_and_skips_an_evicted_one() {
        let sent =
            |copies| TraceEvent::FrameSent { from: 2, tag: FrameTag::Bcast, bytes: 9, copies };
        let mut t = EventTrace::new(2);
        let first = t.recorded();
        t.record(SimTime(1), sent(0));
        t.set_copies(first, 4);
        assert_eq!(t.entries().next().unwrap().1, sent(4));
        let second = t.recorded();
        t.record(SimTime(2), sent(0));
        t.record(SimTime(3), TraceEvent::NodeCrashed { node: 1 });
        t.record(SimTime(4), TraceEvent::NodeRevived { node: 1 });
        // Both sends are gone: patching either changes nothing.
        t.set_copies(first, 7);
        t.set_copies(second, 7);
        let kept: Vec<TraceEvent> = t.entries().map(|e| e.1).collect();
        assert_eq!(
            kept,
            vec![TraceEvent::NodeCrashed { node: 1 }, TraceEvent::NodeRevived { node: 1 }]
        );
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        EventTrace::new(0);
    }

    #[test]
    fn narrow_keeps_what_fits_and_saturates_past_it() {
        assert_eq!(narrow(0), 0);
        assert_eq!(narrow(u32::MAX as usize), u32::MAX);
        // One past the field trips the debug assertion, so the saturating
        // release behaviour is only reachable without it.
        if !cfg!(debug_assertions) {
            assert_eq!(narrow(u32::MAX as usize + 1), u32::MAX);
            assert_eq!(narrow(usize::MAX), u32::MAX);
        }
    }
}

/// Identifies one query across nodes: the originating device and its local
/// query counter. Mirrors the application layer's query key without the
/// engine depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId {
    /// Originating node.
    pub origin: usize,
    /// Per-origin query counter.
    pub cnt: u8,
}

/// How a query ended, as seen by its originator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinalizeKind {
    /// The completion rule fired (BF 80 % rule / DF token return).
    Completed,
    /// Timed out with no responses at all.
    TimedOutNoResponses,
    /// Timed out after partial responses.
    TimedOutPartial,
}

/// Why a device refused to process a delivered frame (DESIGN.md §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropCause {
    /// Per-neighbour token bucket was empty.
    RateLimit,
    /// The frame's claimed identity contradicted the routing-layer source
    /// or named an impossible device id.
    Identity,
    /// The source had accumulated enough penalties to be isolated.
    Reputation,
    /// A reply carried tuples outside the plausible data domain.
    Sanity,
    /// Defensive decode: structurally invalid payload (non-finite
    /// coordinates/attributes, impossible field values).
    Malformed,
}

impl DropCause {
    /// Stable lowercase name used in traces and bench tables.
    pub fn name(self) -> &'static str {
        match self {
            DropCause::RateLimit => "rate_limit",
            DropCause::Identity => "identity",
            DropCause::Reputation => "reputation",
            DropCause::Sanity => "sanity",
            DropCause::Malformed => "malformed",
        }
    }
}

/// One structured protocol-level event in a query's life. Application code
/// records these through [`NodeCtx::trace`](crate::engine::NodeCtx::trace);
/// the engine itself records [`QueryEvent::Crashed`] / [`QueryEvent::Revived`]
/// (with no query id) when a fault plan fires.
///
/// Fields are all plain scalars so records stay `Copy` and comparable; the
/// per-cause / per-kind counts are cross-checked against `NetStats` and the
/// application's own counters by the zero-drift tests (drift = bug).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryEvent {
    /// The originator issued a new query.
    Issued {
        /// Query radius in metres.
        radius_m: f64,
        /// Neighbours visible at issue time.
        neighbors: usize,
        /// Filter tuples attached to the outgoing query.
        filters: usize,
    },
    /// A flooding hop: the query was (re)broadcast to one-hop neighbours.
    Forwarded {
        /// Re-issue round the broadcast belongs to.
        round: u32,
        /// Neighbours visible at forward time.
        neighbors: usize,
        /// Serialized message bytes.
        bytes: usize,
    },
    /// A device computed its local skyline for the query.
    LocalSkyline {
        /// Unreduced local skyline size |SK_i|.
        unreduced: usize,
        /// Reply size after filtering |SK'_i|.
        reply: usize,
        /// `true` when the device's region missed the query entirely.
        skipped: bool,
    },
    /// A filter tuple was attached at the originator.
    FilterAttached {
        /// The filter's VDR volume.
        vdr: f64,
    },
    /// A relaying device upgraded the filter bank before forwarding.
    FilterUpgraded {
        /// Best VDR among the incoming filters (0 when none).
        old_vdr: f64,
        /// Best VDR among the outgoing filters.
        new_vdr: f64,
    },
    /// A reply (BF result) was handed to the routing layer.
    ReplySent {
        /// Destination (the originator).
        to: usize,
        /// Result tuples carried.
        tuples: usize,
        /// Serialized message bytes.
        bytes: usize,
        /// ARQ sequence number (0 when ARQ is disabled).
        seq: u64,
    },
    /// The originator accepted a reply from a fresh responder.
    ReplyAccepted {
        /// Responding device.
        from: usize,
        /// Result tuples carried.
        tuples: usize,
        /// The responder's unreduced local skyline size.
        unreduced: usize,
        /// `true` when the responder counts toward DRR (non-empty skyline).
        participated: bool,
        /// ARQ retries the reply needed end-to-end.
        retries: u32,
        /// ARQ sequence number of the accepted copy.
        seq: u64,
    },
    /// A duplicate reply or token transfer was suppressed.
    DuplicateSuppressed {
        /// Sender of the duplicate.
        from: usize,
        /// ARQ sequence number of the duplicate copy.
        seq: u64,
    },
    /// An ARQ timer fired and the message was retransmitted.
    ArqRetry {
        /// ARQ sequence number.
        seq: u64,
        /// Retry attempt number (1-based).
        attempt: u32,
        /// Serialized message bytes resent.
        bytes: usize,
    },
    /// ARQ gave up on a message after max retries.
    ArqExhausted {
        /// ARQ sequence number.
        seq: u64,
    },
    /// A DF token was handed to the routing layer.
    TokenSent {
        /// Next device on the walk.
        to: usize,
        /// Serialized token bytes.
        bytes: usize,
        /// `true` when backtracking along the walk path.
        backtrack: bool,
        /// ARQ sequence number of the transfer.
        seq: u64,
    },
    /// A DF token was salvaged around an unreachable device.
    TokenSalvaged {
        /// The device the walk routed around.
        dead: usize,
    },
    /// The routing layer reported a delivery failure to the application.
    DeliveryFailed {
        /// Unreachable destination.
        dst: usize,
    },
    /// The originator re-issued the query (BF re-flood round).
    Reissued {
        /// New round number.
        round: u32,
        /// Neighbours visible at re-issue time.
        neighbors: usize,
    },
    /// The originator closed the query (completion or timeout). Carries a
    /// copy of the scorecard fields so the trace alone reconstructs the
    /// query record.
    Finalized {
        /// How the query ended.
        outcome: FinalizeKind,
        /// Devices that responded (BF) or were visited (DF).
        responded: usize,
        /// Global skyline size reported.
        result_len: usize,
        /// ARQ retries accumulated from accepted replies/tokens.
        retries: u64,
        /// Duplicate replies/transfers suppressed for this query.
        duplicates: u64,
        /// Re-issue rounds used.
        reissues: u32,
        /// DRR Σ|SK_i| term.
        sum_unreduced: u64,
        /// DRR Σ|SK'_i| term.
        sum_sent: u64,
        /// DRR participant count.
        participants: u64,
    },
    /// A device installed (or renewed) a continuous-monitoring lease for
    /// the query (monitoring extension, DESIGN.md §9).
    Registered {
        /// Monitored range radius in metres.
        radius_m: f64,
        /// Lease time-to-live in seconds; the device drops the registration
        /// when no renewal arrives within this window.
        ttl_s: f64,
        /// Epoch refresh period in seconds.
        period_s: f64,
    },
    /// A device transmitted an epoch delta (or heartbeat) to the
    /// originator.
    DeltaSent {
        /// Destination (the originator).
        to: usize,
        /// Epoch the delta describes.
        epoch: u64,
        /// Tuples added to the device's local constrained skyline.
        adds: usize,
        /// Tuples removed from it.
        removes: usize,
        /// `true` for a no-change heartbeat (`adds == removes == 0`).
        heartbeat: bool,
        /// Serialized message bytes.
        bytes: usize,
        /// ARQ sequence number (0 when ARQ is disabled).
        seq: u64,
    },
    /// The originator folded a received delta into its live skyline.
    DeltaApplied {
        /// Contributing device.
        from: usize,
        /// Epoch the delta described.
        epoch: u64,
        /// Tuples added.
        adds: usize,
        /// Tuples removed.
        removes: usize,
        /// `true` for a no-change heartbeat.
        heartbeat: bool,
    },
    /// A device's monitoring lease ran out (no renewal within TTL) and the
    /// registration was dropped.
    LeaseExpired {
        /// Last epoch the device reported before expiry.
        epoch: u64,
    },
    /// A device dropped a registration on an explicit cancel from the
    /// originator.
    Cancelled {
        /// Last epoch the device reported before the cancel.
        epoch: u64,
    },
    /// An adversarial node transmitted an attack frame (fake query,
    /// poisoned reply, or forged-identity reply) — DESIGN.md §11.
    AttackFrameSent {
        /// Which attack behaviour produced the frame.
        kind: crate::fault::AttackKind,
        /// Serialized frame bytes.
        bytes: usize,
    },
    /// A device refused to process a delivered frame: defensive decode or
    /// an active defense dropped it. Always paired with a
    /// [`NetStats::app_frames_rejected`] bump.
    AttackFrameDropped {
        /// End-to-end source the frame claimed to come from.
        from: usize,
        /// Which check rejected it.
        cause: DropCause,
    },
    /// A defense penalised a peer; enough penalties isolate the offender
    /// from forwarding and reply acceptance.
    ReputationPenalty {
        /// The penalised peer.
        offender: usize,
        /// The offender's accumulated penalty count after this one.
        score: u64,
    },
    /// A filter tuple failed the carrier's sanity checks (out-of-domain
    /// attributes or impossible dominance) and was stripped before use.
    FilterRejected {
        /// One-hop/end-to-end source that shipped the filter.
        from: usize,
        /// The rejected filter's claimed VDR volume.
        vdr: f64,
    },
    /// The engine crashed this node (fault plan). Recorded with no query id.
    Crashed,
    /// The engine revived this node (fault plan). Recorded with no query id.
    Revived,
    /// The serving front end answered requests of one batch without a
    /// cold compute of their own (`dist::serve`, DESIGN §14): one record
    /// per batch that had such a request, written after the batch's
    /// [`CacheMiss`](QueryEvent::CacheMiss) records. `node` is the
    /// serving originator.
    CacheHit {
        /// Snapshot epoch the batch was served from.
        epoch: u64,
        /// Requests of the batch answered this way.
        requests: u64,
        /// Σ staleness in epochs over those requests (snapshot epoch
        /// minus the answer's last refresh).
        age_sum: u64,
        /// Σ skyline tuples in the answers served to those requests.
        tuples: u64,
    },
    /// The serving front end had no materialized cell and fell back to a
    /// real engine query, back-filling the diagram.
    CacheMiss {
        /// Snapshot epoch the cold compute ran against.
        epoch: u64,
        /// Skyline tuples in the computed answer.
        tuples: usize,
    },
    /// A site delta changed a materialized diagram cell's cached answer
    /// (the dominance-region intersection test fired and the skyline
    /// moved).
    CellInvalidated {
        /// Epoch of the delta that invalidated the cell.
        epoch: u64,
        /// Radius band index of the invalidated cell.
        band: usize,
    },
}

/// One recorded query-trace event: where, when, which query, what happened.
/// `seq` is a globally monotone sequence number assigned at record time, so
/// stitching per-node buffers back together recovers exact engine order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryTraceRecord {
    /// Global record order (engine-assigned, gap-free until rings overflow).
    pub seq: u64,
    /// Virtual time of the event.
    pub at: crate::time::SimTime,
    /// Node the event happened on.
    pub node: usize,
    /// Query the event belongs to (`None` for crash/revive).
    pub query: Option<QueryId>,
    /// What happened.
    pub event: QueryEvent,
}

/// Per-node bounded ring of [`QueryTraceRecord`]s.
#[derive(Debug, Default)]
struct NodeTrace {
    entries: std::collections::VecDeque<QueryTraceRecord>,
    dropped: u64,
}

/// The per-query trace collector: one bounded ring per node plus a global
/// sequence counter. Installed into the engine next to [`NetStats`]; costs
/// one `Option` check when disabled.
#[derive(Debug)]
pub struct QueryTraceState {
    capacity: usize,
    nodes: Vec<NodeTrace>,
    next_seq: u64,
}

impl QueryTraceState {
    /// A collector whose per-node rings hold at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "query trace capacity must be positive");
        QueryTraceState { capacity, nodes: Vec::new(), next_seq: 0 }
    }

    /// Records one event into `node`'s ring, assigning the next global
    /// sequence number. Node buffers grow on demand.
    pub fn record(
        &mut self,
        at: crate::time::SimTime,
        node: usize,
        query: Option<QueryId>,
        event: QueryEvent,
    ) {
        if node >= self.nodes.len() {
            self.nodes.resize_with(node + 1, NodeTrace::default);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let ring = &mut self.nodes[node];
        if ring.entries.len() == self.capacity {
            ring.entries.pop_front();
            ring.dropped += 1;
        }
        ring.entries.push_back(QueryTraceRecord { seq, at, node, query, event });
    }

    /// Total records evicted across all node rings.
    pub fn dropped(&self) -> u64 {
        self.nodes.iter().map(|n| n.dropped).sum()
    }

    /// Total records currently retained.
    pub fn len(&self) -> usize {
        self.nodes.iter().map(|n| n.entries.len()).sum()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stitches all node rings into one log ordered by global sequence
    /// number (= exact engine record order), consuming the collector.
    pub fn into_log(self) -> QueryTraceLog {
        let dropped = self.dropped();
        let mut records: Vec<QueryTraceRecord> =
            self.nodes.into_iter().flat_map(|n| n.entries).collect();
        records.sort_unstable_by_key(|r| r.seq);
        QueryTraceLog { records, dropped }
    }
}

/// A finished, stitched query trace: records in engine order plus the
/// overflow count (a nonzero `dropped` voids the zero-drift guarantees —
/// raise the per-node capacity).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryTraceLog {
    /// All retained records, ordered by global sequence number.
    pub records: Vec<QueryTraceRecord>,
    /// Records evicted from full rings before collection.
    pub dropped: u64,
}

/// A captured copy of the frame-level [`EventTrace`], exported alongside a
/// query trace so frame counts can be cross-checked against [`NetStats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrameTraceLog {
    /// `(time, event)` pairs, oldest first.
    pub entries: Vec<(crate::time::SimTime, TraceEvent)>,
    /// Events evicted from the ring before collection.
    pub dropped: u64,
}

#[cfg(test)]
mod query_trace_tests {
    use super::*;
    use crate::time::SimTime;

    /// Every query-trace record pays this size: the simulator writes
    /// one per protocol event, the serve tier one per batch, miss and
    /// invalidated cell.
    #[test]
    fn a_record_is_at_most_112_bytes() {
        assert!(std::mem::size_of::<QueryTraceRecord>() <= 112);
    }

    #[test]
    fn rings_are_per_node_and_bounded() {
        let mut q = QueryTraceState::new(2);
        let qid = QueryId { origin: 0, cnt: 0 };
        for i in 0..4u64 {
            q.record(SimTime(i), 0, Some(qid), QueryEvent::Crashed);
        }
        q.record(SimTime(9), 1, None, QueryEvent::Revived);
        assert_eq!(q.len(), 3, "node 0 capped at 2, node 1 holds 1");
        assert_eq!(q.dropped(), 2);
        let log = q.into_log();
        assert_eq!(log.dropped, 2);
        // Stitching orders by global seq across nodes.
        let seqs: Vec<u64> = log.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(log.records[2].node, 1);
        assert_eq!(log.records[2].query, None);
    }

    #[test]
    fn seq_recovers_engine_order_across_nodes() {
        let mut q = QueryTraceState::new(16);
        let qid = QueryId { origin: 3, cnt: 1 };
        q.record(
            SimTime(5),
            3,
            Some(qid),
            QueryEvent::Issued { radius_m: 100.0, neighbors: 2, filters: 1 },
        );
        q.record(
            SimTime(5),
            1,
            Some(qid),
            QueryEvent::LocalSkyline { unreduced: 4, reply: 2, skipped: false },
        );
        q.record(
            SimTime(6),
            3,
            Some(qid),
            QueryEvent::ReplyAccepted {
                from: 1,
                tuples: 2,
                unreduced: 4,
                participated: true,
                retries: 0,
                seq: 7,
            },
        );
        let log = q.into_log();
        assert_eq!(log.records.len(), 3);
        assert!(log.records.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(log.records[0].node, 3);
        assert_eq!(log.records[1].node, 1);
    }

    /// `seq` is unique, so the allocation-free unstable sort of `into_log`
    /// must produce exactly what a stable sort of the rings would.
    #[test]
    fn stitching_interleaved_and_wrapped_rings_matches_a_stable_sort() {
        let mut q = QueryTraceState::new(16);
        let mut all = Vec::new();
        for i in 0..60u64 {
            // Node 0 gets every other record, 30 into a ring of 16, so it
            // wraps; nodes 1-3 interleave with 10 each and do not.
            let node = if i % 2 == 0 { 0 } else { 1 + (i as usize / 2) % 3 };
            let ev = QueryEvent::LeaseExpired { epoch: i };
            q.record(SimTime(i / 4), node, None, ev);
            all.push(QueryTraceRecord { seq: i, at: SimTime(i / 4), node, query: None, event: ev });
        }
        // What the rings retain: each node's last 16 records.
        let mut want: Vec<QueryTraceRecord> = (0..4usize)
            .flat_map(|n| {
                let mine: Vec<_> = all.iter().filter(|r| r.node == n).copied().collect();
                mine[mine.len().saturating_sub(16)..].to_vec()
            })
            .collect();
        want.sort_by_key(|r| r.seq);
        let log = q.into_log();
        assert_eq!(log.dropped, 30 - 16);
        assert_eq!(log.records.len(), 16 + 3 * 10);
        assert_eq!(log.records, want);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_query_capacity_rejected() {
        QueryTraceState::new(0);
    }
}
