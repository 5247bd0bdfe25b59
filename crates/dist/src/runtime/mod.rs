//! The full MANET runtime: devices as simulator applications, BF/DF query
//! forwarding, the 80 % response-time rule, per-query accounting, and the
//! experiment harness (Section 5.2 of the paper).
//!
//! ## Protocol summary
//!
//! **Breadth-first (BF)** — the originator floods the query (with the
//! filtering tuple) as one-hop broadcasts; every device that sees a fresh
//! query processes it locally, unicasts its reduced local skyline straight
//! back to the originator via AODV, and re-broadcasts the query (with the
//! possibly upgraded filter) to its own neighbours. The originator's
//! response time is the moment 80 % of the other devices have answered.
//!
//! **Depth-first (DF)** — a single token walks the network. Each first-time
//! visitor processes the query, merges its reduced local skyline into the
//! token's partial result, optionally upgrades the filter, and forwards the
//! token to one unvisited physical neighbour; with none available the token
//! backtracks along its path. The query ends when the token returns to the
//! originator and no unvisited neighbour remains.
//!
//! Local processing costs are charged to virtual time through
//! [`DeviceCostModel`]; replies and forwards leave a device only after its
//! simulated CPU time has elapsed (implemented with a stash + timer).
//!
//! Mobility can strand either protocol (a lost token, unreachable
//! replies), so every query also carries an originator-side timeout; a
//! timed-out query is recorded with `timed_out = true` and excluded from
//! response-time averages by the harness.
//!
//! ## Hardening against churn
//!
//! Node crashes and radio loss (see `manet_sim::fault`) add three recovery
//! layers, all configured on [`DistConfig`]:
//!
//! * **Per-hop ARQ** — BF result replies and DF tokens are acknowledged by
//!   the application-level receiver; the sender retransmits with
//!   exponential backoff plus deterministic jitter, bounded by
//!   `arq::MAX_RETRIES`. Receivers suppress duplicates — BF via a
//!   per-originator responder set keyed on the replying device, DF via a
//!   `(sender, transfer_seq)` cache — so a retransmitted message can never
//!   double-count.
//! * **Token salvage** — when routing reports a DF token undeliverable (or
//!   its ARQ retries exhaust), the sender marks the dead hop visited and
//!   routes around it, exactly like a backtrack.
//! * **Originator re-issue** — a BF originator whose completion rule is
//!   still unmet after `REISSUE_DELAY` floods the query again with a
//!   bumped round number; devices that already answered relay the new
//!   round without reprocessing, extending the flood into the region a
//!   crashed relay cut off.
//!
//! A crashed device loses every bit of volatile protocol state (active
//! query, stashes, pending retransmissions, duplicate caches) but keeps
//! its storage partition; on revive it resumes its workload.
//!
//! ## Layout
//!
//! * this file — [`DeviceApp`]: query origination, the BF and DF handlers,
//!   the originator merge, and the `Application` glue (timers, stash,
//!   crash/revive). Per-hop ARQ is `crate::arq`, shared with
//!   [`crate::monitor`].
//! * `msg` — [`ProtoMsg`] / [`DfToken`] and their wire sizes.
//! * `handoff` — the data-redistribution extension and locality sampling.
//! * `adversary` — attack roles and the defenses against them.
//! * `experiment` — [`ManetExperiment`] → [`run_experiment`] →
//!   [`ManetOutcome`], and the [`QueryRecord`] row.

mod adversary;
mod experiment;
mod handoff;
mod msg;

use std::collections::BTreeSet;

use device_storage::HybridRelation;
use manet_sim::engine::{Application, MsgMeta, NodeCtx};
use manet_sim::{
    AttackKind, AttackRole, DropCause, FinalizeKind, NodeId, QueryEvent, QueryId, SimDuration,
    SimTime,
};
use sim_obs::dethash::{DetHashMap, DetHashSet};
use sim_obs::PowHistogram;
use skyline_core::region::Point;
use skyline_core::vdr::FilterTuple;
use skyline_core::{SkylineMerger, Tuple};

use self::adversary::{Attack, Defense};
use self::handoff::{Handoff, HANDOFF_INTERVAL, LOCALITY_SAMPLE_PERIOD};
use self::msg::key_of;
use crate::arq::{Arq, ArqTimeout};
use crate::config::{DistConfig, Forwarding, StrategyConfig};
use crate::cost_model::DeviceCostModel;
use crate::device::{Device, ProcessOutcome};
use crate::metrics::DrrAccumulator;
use crate::query::{QueryKey, QuerySpec};

pub(crate) use self::experiment::{mobility_for, new_simulator};
pub use self::experiment::{
    run_experiment, ManetExperiment, ManetOutcome, QueryRecord, TimeoutCause,
};
pub use self::msg::{DfToken, ProtoMsg};

/// The manet-layer trace id of a query key (same fields, no dependency of
/// the engine on the application's query types).
pub(crate) fn qid(key: QueryKey) -> QueryId {
    QueryId { origin: key.origin, cnt: key.cnt }
}

/// Best (largest) VDR in a filter bank; 0.0 when empty. Used to report
/// filter upgrades to the trace.
fn best_vdr(filters: &[FilterTuple]) -> f64 {
    filters.iter().map(|f| f.vdr).fold(0.0, f64::max)
}

/// Give up on a query this long after issuing it.
const QUERY_TIMEOUT: SimDuration = SimDuration::from_millis(180_000);

/// Re-try issuing this long later while the device's previous query is
/// still open.
const ISSUE_RETRY: SimDuration = SimDuration::from_millis(10_000);

/// Pause between finishing one query and issuing the next.
const NEXT_QUERY_DELAY: SimDuration = SimDuration::from_millis(1_000);

/// BF originator: if the completion rule is still unmet this long after
/// issuing, re-flood the query with a bumped round number so it reaches
/// the region a crashed relay cut off.
const REISSUE_DELAY: SimDuration = SimDuration::from_millis(45_000);

/// Timer-token encoding (kind in the top byte).
mod token {
    pub const ISSUE: u64 = 1 << 56;
    pub const TIMEOUT: u64 = 2 << 56;
    pub const STASH: u64 = 3 << 56;
    pub const HANDOFF_TICK: u64 = 4 << 56;
    pub const HANDOFF_TIMEOUT: u64 = 5 << 56;
    pub const LOCALITY_SAMPLE: u64 = 6 << 56;
    pub const ARQ: u64 = 7 << 56;
    pub const REISSUE: u64 = 8 << 56;
    pub const ATTACK_TICK: u64 = 9 << 56;
    pub const KIND_MASK: u64 = 0xFF << 56;
}

/// A query this device originated, in flight.
#[derive(Debug)]
struct ActiveQuery {
    key: QueryKey,
    spec: QuerySpec,
    issued: SimTime,
    merger: SkylineMerger,
    drr: DrrAccumulator,
    /// Devices whose reply was accepted (BF; DF fills it at completion).
    responders: BTreeSet<NodeId>,
    responded: usize,
    /// BF: responses needed for the 80 % rule.
    needed: usize,
    completed: Option<SimTime>,
    /// Filter bank the originator flooded (kept for re-issue).
    filters: Vec<FilterTuple>,
    /// Current re-issue round.
    round: u8,
    /// Re-floods performed.
    reissues: u32,
    /// ARQ retransmissions reported by accepted replies / the token.
    retries: u64,
    /// Duplicate replies suppressed for this query.
    duplicates: u64,
    /// First claimed responder to report each tuple site (key =
    /// `(x.to_bits(), y.to_bits())`) — the raw material for spurious-cause
    /// attribution. DF token merges record `usize::MAX` (the walk folds
    /// contributions before the originator sees them).
    first_seen: DetHashMap<(u64, u64), NodeId>,
}

impl ActiveQuery {
    /// Merges `tuples` into the answer, crediting unseen sites to `source`.
    fn merge(&mut self, tuples: Vec<Tuple>, source: NodeId) {
        for t in &tuples {
            self.first_seen.entry((t.x.to_bits(), t.y.to_bits())).or_insert(source);
        }
        self.merger.insert_batch(tuples);
    }

    /// The query's record with everything that does not depend on how it
    /// closed.
    fn record(&self) -> QueryRecord {
        let mut rec = QueryRecord::open(self.key, self.issued, self.spec.pos, self.spec.d);
        rec.responded = self.responded;
        rec.drr = self.drr;
        rec.retries = self.retries;
        rec.duplicates = self.duplicates;
        rec.reissues = self.reissues;
        rec
    }
}

/// Deferred work awaiting the device's simulated CPU time.
#[derive(Debug)]
enum Stashed {
    /// A (possibly ARQ-tracked) unicast.
    Unicast(NodeId, ProtoMsg),
    /// A BF relay of the query, sent through [`DeviceApp::flood`].
    Flood { spec: QuerySpec, filters: Vec<FilterTuple>, round: u8, hops: u8 },
    /// A processed DF token. Its next hop depends on the neighbour set at
    /// *send* time, so the routing decision itself is deferred.
    RouteToken(DfToken),
}

/// The application running on every device node.
pub struct DeviceApp {
    device: Device<HybridRelation>,
    cfg: StrategyConfig,
    forwarding: Forwarding,
    cost: DeviceCostModel,
    /// This device's workload: (issue time, radius), sorted by time.
    requests: Vec<(SimTime, f64)>,
    next_request: usize,
    next_cnt: u8,
    active: Option<ActiveQuery>,
    /// Completed queries this device originated.
    pub records: Vec<QueryRecord>,
    /// App-level query-forward messages sent (Fig. 12).
    pub forward_messages: u64,
    /// Result messages sent.
    pub result_messages: u64,
    stash: DetHashMap<u64, Vec<Stashed>>,
    next_stash: u64,
    /// Total devices in the network (for the 80 % rule).
    m: usize,
    /// Runtime timer configuration.
    dist: DistConfig,
    /// Per-hop ARQ for BF replies and DF tokens.
    arq: Arq<ProtoMsg>,
    /// Highest BF round seen per query (fresh-vs-relay decision).
    bf_rounds: DetHashMap<QueryKey, u8>,
    /// DF transfers already processed, for duplicate suppression.
    seen_transfers: DetHashSet<(NodeId, u64)>,
    /// Duplicate replies / token transfers suppressed.
    pub duplicates_suppressed: u64,
    /// Routing-level delivery failures reported to this device.
    pub delivery_failures: u64,
    /// Times this device crashed (fault plan).
    pub crash_count: u64,
    /// Redistribution extension and locality sampling.
    handoff: Handoff,
    /// Adversarial role from the attack plan.
    attack: Attack,
    /// Defensive gates.
    defense: Defense,
    /// Hop counts of accepted query replies (originator side).
    pub reply_hops: PowHistogram,
    /// Issue-to-accepted-reply latency of each accepted reply, in µs.
    pub reply_latency_us: PowHistogram,
}

impl DeviceApp {
    /// Creates the app for device `id`.
    pub fn new(
        id: usize,
        relation: HybridRelation,
        cfg: StrategyConfig,
        forwarding: Forwarding,
        cost: DeviceCostModel,
        m: usize,
        dist: DistConfig,
    ) -> Self {
        DeviceApp {
            handoff: Handoff::new(&relation),
            device: Device::new(id, relation),
            cfg,
            forwarding,
            cost,
            requests: Vec::new(),
            next_request: 0,
            next_cnt: 0,
            active: None,
            records: Vec::new(),
            forward_messages: 0,
            result_messages: 0,
            stash: DetHashMap::default(),
            next_stash: 0,
            m,
            dist,
            arq: Arq::new(dist.arq, id, token::ARQ),
            bf_rounds: DetHashMap::default(),
            seen_transfers: DetHashSet::default(),
            duplicates_suppressed: 0,
            delivery_failures: 0,
            crash_count: 0,
            attack: Attack::default(),
            defense: Defense::new(dist.defense, m),
            reply_hops: PowHistogram::new(),
            reply_latency_us: PowHistogram::new(),
        }
    }

    /// Assigns (or clears) this device's adversarial role.
    pub fn set_attack_role(&mut self, role: Option<AttackRole>) {
        self.attack.role = role;
    }

    /// Installs this device's workload (must be sorted by time).
    pub fn set_requests(&mut self, requests: Vec<(SimTime, f64)>) {
        self.requests = requests;
    }

    /// ARQ-tracked messages currently awaiting an ack (gauge source).
    pub fn arq_backlog(&self) -> usize {
        self.arq.backlog()
    }

    /// Whether this device currently has an open query of its own.
    pub fn has_active_query(&self) -> bool {
        self.active.is_some()
    }

    /// Defers `sends` by the device's CPU time for `stats`.
    fn send_after_cost(
        &mut self,
        ctx: &mut NodeCtx<ProtoMsg>,
        stats: &device_storage::LocalStats,
        sends: Vec<Stashed>,
    ) {
        let delay = self.cost.query_time(stats);
        let id = self.next_stash;
        self.next_stash += 1;
        self.stash.insert(id, sends);
        ctx.set_timer(delay, token::STASH | id);
    }

    /// Sends a unicast through the ARQ: tracked when it carries a sequence
    /// number, straight through otherwise.
    fn send_tracked(&mut self, ctx: &mut NodeCtx<ProtoMsg>, dst: NodeId, msg: ProtoMsg) {
        let bytes = msg.wire_size();
        if let ProtoMsg::BfResult { key, tuples, seq, .. } = &msg {
            ctx.trace(
                Some(qid(*key)),
                QueryEvent::ReplySent { to: dst, tuples: tuples.len(), bytes, seq: *seq },
            );
        }
        let (seq, query) = (msg.arq_seq(), key_of(&msg).map(qid));
        self.arq.send(ctx, dst, msg, bytes, seq, query);
    }

    fn send_ack(&mut self, ctx: &mut NodeCtx<ProtoMsg>, to: NodeId, seq: u64) {
        let msg = ProtoMsg::Ack { seq };
        let bytes = msg.wire_size();
        ctx.send_unicast(to, msg, bytes);
    }

    fn on_arq_timeout(&mut self, ctx: &mut NodeCtx<ProtoMsg>, seq: u64) {
        let gave_up = self.arq.on_timeout(ctx, seq, ProtoMsg::bump_retries);
        // An exhausted BF reply dies here; the originator's re-issue or
        // timeout absorbs the loss. An exhausted token is salvaged: the
        // next hop is unreachable (or its acks are), so walk around it.
        if let ArqTimeout::Exhausted { dst, msg: ProtoMsg::DfToken(t) } = gave_up {
            // Unlike the routing-failure salvage in `on_delivery_failed`,
            // the dead hop is NOT put on `token.skipped` here, so it is
            // still counted as a responder when the walk completes
            // (DESIGN §7.2 residuals). Kept as is: changing it moves
            // `responded` in committed baselines.
            self.salvage_token(ctx, t, dst, false);
        }
    }

    // ------------------------------------------------------------------
    // Query origination
    // ------------------------------------------------------------------

    /// The honest BF flood send: one forward message per current
    /// neighbour (the paper's Fig. 12 counts per recipient, which is what
    /// makes flooding costlier than the token walk), the `Forwarded`
    /// trace, and the one-hop broadcast.
    fn flood(
        &mut self,
        ctx: &mut NodeCtx<ProtoMsg>,
        spec: QuerySpec,
        filters: Vec<FilterTuple>,
        round: u8,
        hops: u8,
    ) {
        let neighbors = ctx.neighbors().len();
        self.forward_messages += neighbors as u64;
        let msg = ProtoMsg::BfQuery { spec, filters, round, hops };
        let bytes = msg.wire_size();
        ctx.trace(
            Some(qid(spec.key)),
            QueryEvent::Forwarded { round: u32::from(round), neighbors, bytes },
        );
        ctx.broadcast(msg, bytes);
    }

    fn try_issue(&mut self, ctx: &mut NodeCtx<ProtoMsg>) {
        if self.next_request >= self.requests.len() {
            return;
        }
        if self.active.is_some() {
            // One query in progress: re-check shortly (the paper's "does
            // not issue a new query if it has one in progress").
            ctx.set_timer(ISSUE_RETRY, token::ISSUE);
            return;
        }
        let (at, radius) = self.requests[self.next_request];
        if at > ctx.now {
            // Woken early (e.g. a revive re-armed the issue chain): wait
            // for the workload's scheduled time.
            ctx.set_timer(at.since(ctx.now), token::ISSUE);
            return;
        }
        self.next_request += 1;
        let cnt = self.next_cnt;
        self.next_cnt = self.next_cnt.wrapping_add(1);
        let spec = QuerySpec::new(ctx.id, cnt, Point::new(ctx.position.x, ctx.position.y), radius);
        // Mark our own query as seen so flood echoes are ignored.
        self.device.log.check_and_record(spec.key);
        self.bf_rounds.insert(spec.key, 0);

        let (sk_org, filters) = self.device.originate(&spec, &self.cfg);
        let neighbors = ctx.neighbors().len();
        ctx.trace(
            Some(qid(spec.key)),
            QueryEvent::Issued { radius_m: radius, neighbors, filters: filters.len() },
        );
        for f in &filters {
            ctx.trace(Some(qid(spec.key)), QueryEvent::FilterAttached { vdr: f.vdr });
        }
        // Locally seeded sites are attributed to the originator itself.
        let first_seen = sk_org.iter().map(|t| ((t.x.to_bits(), t.y.to_bits()), ctx.id)).collect();
        let aq = ActiveQuery {
            key: spec.key,
            spec,
            issued: ctx.now,
            merger: SkylineMerger::with_seed(sk_org),
            drr: DrrAccumulator::default(),
            responders: BTreeSet::new(),
            responded: 0,
            needed: (0.8 * (self.m.saturating_sub(1)) as f64).ceil() as usize,
            completed: None,
            filters: filters.clone(),
            round: 0,
            reissues: 0,
            retries: 0,
            duplicates: 0,
            first_seen,
        };
        ctx.set_timer(QUERY_TIMEOUT, token::TIMEOUT | u64::from(cnt));

        match self.forwarding {
            Forwarding::BreadthFirst if self.m <= 1 => {
                // No other device can answer: the local skyline is the
                // answer, and no reply will ever trigger the completion
                // check.
                self.active = Some(aq);
                self.finalize(ctx, false);
            }
            Forwarding::BreadthFirst => {
                self.flood(ctx, spec, filters, 0, 0);
                self.active = Some(aq);
                if self.dist.max_reissues > 0 {
                    ctx.set_timer(REISSUE_DELAY, token::REISSUE | u64::from(cnt));
                }
            }
            Forwarding::DepthFirst => {
                let token = DfToken {
                    spec,
                    filters,
                    visited: vec![ctx.id],
                    skipped: Vec::new(),
                    path: vec![ctx.id],
                    partial: aq.merger.result().to_vec(),
                    drr: DrrAccumulator::default(),
                    transfer_seq: 0,
                    retries: 0,
                };
                self.active = Some(aq);
                self.df_route(ctx, token);
            }
        }
    }

    /// BF: the completion rule is still unmet after `REISSUE_DELAY` —
    /// flood the query again with a bumped round so the flood re-enters
    /// regions a crashed relay cut off. Devices that already answered
    /// relay the higher round without reprocessing.
    fn maybe_reissue(&mut self, ctx: &mut NodeCtx<ProtoMsg>, cnt: u8) {
        if self.forwarding != Forwarding::BreadthFirst {
            return;
        }
        let Some(aq) = self.active.as_mut() else { return };
        if aq.key.cnt != cnt || aq.completed.is_some() || aq.responded >= aq.needed {
            return;
        }
        if aq.reissues >= self.dist.max_reissues {
            return;
        }
        aq.reissues += 1;
        aq.round += 1;
        let (spec, filters, round) = (aq.spec, aq.filters.clone(), aq.round);
        self.bf_rounds.insert(spec.key, round);
        let neighbors = ctx.neighbors().len();
        ctx.trace(Some(qid(spec.key)), QueryEvent::Reissued { round: u32::from(round), neighbors });
        self.flood(ctx, spec, filters, round, 0);
        ctx.set_timer(REISSUE_DELAY, token::REISSUE | u64::from(cnt));
    }

    fn finalize(&mut self, ctx: &mut NodeCtx<ProtoMsg>, timed_out: bool) {
        let Some(aq) = self.active.take() else { return };
        let mut rec = aq.record();
        rec.completed = aq.completed.or(if timed_out { None } else { Some(ctx.now) });
        rec.timed_out = rec.completed.is_none();
        rec.response_seconds = rec.completed.map(|c| c.since(aq.issued).as_secs_f64());
        let outcome = if !rec.timed_out {
            FinalizeKind::Completed
        } else if aq.responded == 0 {
            rec.timeout_cause = Some(TimeoutCause::NoResponses);
            FinalizeKind::TimedOutNoResponses
        } else {
            rec.timeout_cause = Some(TimeoutCause::PartialResponses);
            FinalizeKind::TimedOutPartial
        };
        rec.contributors = aq.responders.iter().copied().collect();
        rec.contributors.push(aq.key.origin);
        rec.contributors.sort_unstable();
        rec.contributors.dedup();
        rec.result = aq.merger.into_result();
        rec.result_len = rec.result.len();
        rec.result_sources = rec
            .result
            .iter()
            .map(|t| {
                aq.first_seen
                    .get(&(t.x.to_bits(), t.y.to_bits()))
                    .copied()
                    .unwrap_or(usize::MAX)
            })
            .collect();
        ctx.trace(
            Some(qid(aq.key)),
            QueryEvent::Finalized {
                outcome,
                responded: aq.responded,
                result_len: rec.result_len,
                retries: aq.retries,
                duplicates: aq.duplicates,
                reissues: aq.reissues,
                sum_unreduced: aq.drr.sum_unreduced,
                sum_sent: aq.drr.sum_sent,
                participants: aq.drr.participants,
            },
        );
        self.records.push(rec);
        // Ready for the next queued request.
        if self.next_request < self.requests.len() {
            ctx.set_timer(NEXT_QUERY_DELAY, token::ISSUE);
        }
    }

    // ------------------------------------------------------------------
    // Local processing (BF and DF)
    // ------------------------------------------------------------------

    /// Runs the query against the local relation under `filters` (already
    /// sanitized) and traces the local skyline and any filter upgrade.
    fn process_and_trace(
        &mut self,
        ctx: &mut NodeCtx<ProtoMsg>,
        spec: &QuerySpec,
        filters: &[FilterTuple],
    ) -> ProcessOutcome {
        let out = self.device.process(spec, filters, &self.cfg);
        ctx.trace(
            Some(qid(spec.key)),
            QueryEvent::LocalSkyline {
                unreduced: out.unreduced_len,
                reply: out.reply.len(),
                skipped: out.skipped,
            },
        );
        let (old_vdr, new_vdr) = (best_vdr(filters), best_vdr(&out.forward_filters));
        if new_vdr > old_vdr {
            ctx.trace(Some(qid(spec.key)), QueryEvent::FilterUpgraded { old_vdr, new_vdr });
        }
        out
    }

    /// Builds a BF result message under the next ARQ sequence number and
    /// counts it against the query.
    fn new_reply(
        &mut self,
        key: QueryKey,
        claimed: NodeId,
        tuples: Vec<Tuple>,
        unreduced: usize,
        participated: bool,
    ) -> ProtoMsg {
        self.result_messages += 1;
        let seq = self.arq.next_seq();
        ProtoMsg::BfResult { key, claimed, tuples, unreduced, participated, seq, retries: 0 }
    }

    // ------------------------------------------------------------------
    // Breadth-first handlers
    // ------------------------------------------------------------------

    fn on_bf_query(
        &mut self,
        ctx: &mut NodeCtx<ProtoMsg>,
        from: NodeId,
        spec: QuerySpec,
        filters: Vec<FilterTuple>,
        round: u8,
        hops: u8,
    ) {
        let q = Some(qid(spec.key));
        // Defenses fire before the duplicate log records the key, so a
        // query dropped here can still be served from a later re-flood.
        if self.defense.is_isolated(from) || self.defense.is_isolated(spec.key.origin) {
            self.defense.drop_frame(ctx, q, from, DropCause::Reputation);
            return;
        }
        // Only fresh keys are charged; duplicates die in the log below.
        if !self.device.log.seen(spec.key) {
            if let Some(offender) = self.defense.over_rate(ctx.now, from, spec.key.origin, hops) {
                self.defense.punish(ctx, q, offender, DropCause::RateLimit);
                return;
            }
        }
        // Reverse-path reuse: the flood that carried this query traces a
        // path back to its originator; cache it so the unicast reply rides
        // the flood tree instead of paying an AODV discovery. Duplicate
        // copies prime too — the route layer only re-points on a strictly
        // shorter path, so the cheapest copy wins.
        if self.dist.prime_routes && spec.key.origin != ctx.id {
            ctx.prime_route(spec.key.origin, from, u32::from(hops) + 1);
        }
        let hops = hops.saturating_add(1);
        if self.device.log.check_and_record(spec.key) {
            // Fresh query: process and answer.
            self.bf_rounds.insert(spec.key, round);
            let foreign = spec.key.origin != ctx.id;
            if foreign && self.attack.is_active(ctx.now, AttackKind::FilterPoison) {
                self.poison_reply(ctx, spec, round, hops);
                return;
            }
            let filters = self.defense.sanitize_filters(ctx, qid(spec.key), from, filters);
            let out = self.process_and_trace(ctx, &spec, &filters);
            let reply =
                self.new_reply(spec.key, ctx.id, out.reply, out.unreduced_len, out.participated);
            let sends = vec![
                Stashed::Unicast(spec.key.origin, reply),
                Stashed::Flood { spec, filters: out.forward_filters, round, hops },
            ];
            self.send_after_cost(ctx, &out.stats, sends);
            if foreign && self.attack.is_active(ctx.now, AttackKind::Sybil) {
                self.sybil_replies(ctx, spec.key);
            }
            return;
        }
        // Duplicate query. A higher round is an originator re-issue: relay
        // the fresh flood (no reprocessing, no second reply) so it reaches
        // devices the earlier round missed.
        let prev = self.bf_rounds.get(&spec.key).copied();
        if prev.is_some_and(|p| round > p) {
            self.bf_rounds.insert(spec.key, round);
            if spec.key.origin != ctx.id {
                // Never relay a filter we would not accept ourselves.
                let filters = self.defense.sanitize_filters(ctx, qid(spec.key), from, filters);
                self.flood(ctx, spec, filters, round, hops);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_bf_result(
        &mut self,
        ctx: &mut NodeCtx<ProtoMsg>,
        from: NodeId,
        key: QueryKey,
        claimed: NodeId,
        tuples: Vec<Tuple>,
        unreduced: usize,
        participated: bool,
        seq: u64,
        retries: u32,
        hops: u32,
    ) {
        let q = Some(qid(key));
        // Ack unconditionally — even duplicates, stale replies, and frames
        // a defense is about to refuse — so the sender stops
        // retransmitting.
        if seq != 0 {
            self.send_ack(ctx, from, seq);
        }
        // The sender — not the ghost it named — is penalised.
        if self.defense.forged(claimed, from) {
            self.defense.punish(ctx, q, from, DropCause::Identity);
            return;
        }
        if self.defense.is_isolated(from) {
            self.defense.drop_frame(ctx, q, from, DropCause::Reputation);
            return;
        }
        // Refuse the whole reply and keep its sender out of the
        // contributor set (its "contribution" is a lie).
        if self.defense.implausible_reply(&tuples) {
            self.defense.punish(ctx, q, from, DropCause::Sanity);
            return;
        }
        let Some(aq) = self.active.as_mut() else { return };
        if aq.key != key {
            return; // stale reply for an earlier query
        }
        // Responder accounting keys on the *claimed* identity: without the
        // identity defense the originator trusts it (which is exactly what
        // a Sybil forger exploits); with the defense on, claimed == from.
        if !aq.responders.insert(claimed) {
            // A retransmitted reply whose first copy already counted.
            aq.duplicates += 1;
            self.duplicates_suppressed += 1;
            ctx.trace(q, QueryEvent::DuplicateSuppressed { from: claimed, seq });
            return;
        }
        aq.retries += u64::from(retries);
        if participated {
            aq.drr.add(unreduced, tuples.len());
        }
        self.reply_hops.record(u64::from(hops));
        self.reply_latency_us.record(ctx.now.since(aq.issued).as_micros());
        ctx.trace(
            q,
            QueryEvent::ReplyAccepted {
                from: claimed,
                tuples: tuples.len(),
                unreduced,
                participated,
                retries,
                seq,
            },
        );
        aq.merge(tuples, claimed);
        aq.responded = aq.responders.len();
        // The 80 % rule stamps the response time …
        if aq.responded >= aq.needed && aq.completed.is_none() {
            aq.completed = Some(ctx.now);
        }
        // … but the originator keeps merging stragglers until everyone has
        // answered (or the timeout closes the query).
        if aq.responded >= self.m.saturating_sub(1) {
            self.finalize(ctx, false);
        }
    }

    // ------------------------------------------------------------------
    // Depth-first handlers
    // ------------------------------------------------------------------

    fn on_df_token(&mut self, ctx: &mut NodeCtx<ProtoMsg>, from: NodeId, mut token: DfToken) {
        let key = token.spec.key;
        if token.transfer_seq != 0 {
            // Ack every copy; suppress re-deliveries of a transfer we
            // already own (a retransmission whose first copy made it).
            self.send_ack(ctx, from, token.transfer_seq);
            if !self.seen_transfers.insert((from, token.transfer_seq)) {
                self.duplicates_suppressed += 1;
                ctx.trace(
                    Some(qid(key)),
                    QueryEvent::DuplicateSuppressed { from, seq: token.transfer_seq },
                );
                return;
            }
        }
        if token.visited.contains(&ctx.id) {
            // Backtrack arrival: just keep routing.
            self.df_route(ctx, token);
            return;
        }
        // First visit: process locally, merge into the token.
        self.device.log.check_and_record(key);
        // Strip implausible filters before they starve the local scan; the
        // previous hop carried them, so it takes the penalty.
        let filters = self.defense.sanitize_filters(ctx, qid(key), from, token.filters);
        let out = self.process_and_trace(ctx, &token.spec, &filters);
        if out.participated {
            token.drr.add(out.unreduced_len, out.reply.len());
        }
        let mut merger = SkylineMerger::with_seed(std::mem::take(&mut token.partial));
        merger.insert_batch(out.reply);
        token.partial = merger.into_result();
        // `process` already applied the strategy's forwarding rule.
        token.filters = out.forward_filters;
        token.visited.push(ctx.id);
        token.path.push(ctx.id);
        self.send_after_cost(ctx, &out.stats, vec![Stashed::RouteToken(token)]);
    }

    /// One token transfer: forward-message accounting, a fresh transfer
    /// sequence number, the `TokenSent` trace, the tracked unicast.
    fn send_token(
        &mut self,
        ctx: &mut NodeCtx<ProtoMsg>,
        to: NodeId,
        mut token: DfToken,
        backtrack: bool,
    ) {
        let key = token.spec.key;
        self.forward_messages += 1;
        token.transfer_seq = self.arq.next_seq();
        let seq = token.transfer_seq;
        let msg = ProtoMsg::DfToken(token);
        ctx.trace(
            Some(qid(key)),
            QueryEvent::TokenSent { to, bytes: msg.wire_size(), backtrack, seq },
        );
        self.send_tracked(ctx, to, msg);
    }

    /// The token's transfer to `dead` failed for good: mark the hop
    /// visited (it cannot be reached now) and route around it, exactly
    /// like a backtrack. `mark_skipped` also records it as routed around,
    /// not processed, which keeps it out of the responder and contributor
    /// accounting at completion.
    fn salvage_token(
        &mut self,
        ctx: &mut NodeCtx<ProtoMsg>,
        mut token: DfToken,
        dead: NodeId,
        mark_skipped: bool,
    ) {
        ctx.trace(Some(qid(token.spec.key)), QueryEvent::TokenSalvaged { dead });
        if !token.visited.contains(&dead) {
            token.visited.push(dead);
        }
        if mark_skipped && !token.skipped.contains(&dead) {
            token.skipped.push(dead);
        }
        // Also drop it from the path if it was the backtrack target.
        if token.path.last() == Some(&dead) {
            token.path.pop();
        }
        self.df_route(ctx, token);
    }

    /// Decides where the token goes next from this device.
    fn df_route(&mut self, ctx: &mut NodeCtx<ProtoMsg>, mut token: DfToken) {
        // Trim the path above this device (returning from a completed
        // branch).
        if let Some(pos) = token.path.iter().rposition(|&n| n == ctx.id) {
            token.path.truncate(pos + 1);
        } else {
            // We are not on the path (shouldn't happen) — push ourselves to
            // keep the walk consistent.
            token.path.push(ctx.id);
        }

        // Forward to an unvisited physical neighbour, if any. A neighbour
        // this device has isolated for repeat offenses is never chosen as
        // the next token carrier.
        let next = ctx
            .neighbors()
            .iter()
            .copied()
            .find(|n| !token.visited.contains(n) && !self.defense.is_isolated(*n));
        if let Some(n) = next {
            self.send_token(ctx, n, token, false);
            return;
        }

        // No unvisited neighbour: backtrack.
        if token.path.len() >= 2 {
            token.path.pop();
            let prev = token.path[token.path.len() - 1];
            self.send_token(ctx, prev, token, true);
            return;
        }

        // Path exhausted: we are the originator — the query is complete.
        // (A stranded token at a non-originator dies here; the
        // originator's timeout closes the query.)
        let Some(aq) = self.active.as_mut() else { return };
        if aq.key != token.spec.key {
            return;
        }
        // Token merges blend every visited device's tuples, so per-tuple
        // provenance is lost — attribute to the sentinel "unknown" source.
        aq.merge(token.partial, usize::MAX);
        aq.drr.merge(&token.drr);
        for &v in &token.visited {
            if v != ctx.id && !token.skipped.contains(&v) {
                aq.responders.insert(v);
            }
        }
        aq.responded = aq.responders.len();
        aq.retries += token.retries;
        aq.completed = Some(ctx.now);
        self.finalize(ctx, false);
    }
}

impl Application<ProtoMsg> for DeviceApp {
    fn on_message(&mut self, ctx: &mut NodeCtx<ProtoMsg>, meta: MsgMeta, payload: ProtoMsg) {
        // Defensive decode: a frame that could not have been produced by a
        // conforming peer is counted and dropped before any handler runs.
        // This gate is always on — it models basic wire validation, not a
        // tunable defense.
        if !self.defense.well_formed(&payload) {
            let q = key_of(&payload).map(qid);
            self.defense.drop_frame(ctx, q, meta.src, DropCause::Malformed);
            return;
        }
        let relation = &mut self.device.relation;
        match payload {
            ProtoMsg::BfQuery { spec, filters, round, hops } => {
                self.on_bf_query(ctx, meta.src, spec, filters, round, hops)
            }
            ProtoMsg::BfResult { key, claimed, tuples, unreduced, participated, seq, retries } => {
                self.on_bf_result(
                    ctx,
                    meta.src,
                    key,
                    claimed,
                    tuples,
                    unreduced,
                    participated,
                    seq,
                    retries,
                    meta.hops,
                )
            }
            ProtoMsg::DfToken(t) => self.on_df_token(ctx, meta.src, t),
            ProtoMsg::Ack { seq } => {
                self.arq.cancel(seq);
            }
            ProtoMsg::HandoffProbe { pos, centroid, n_tuples } => {
                self.handoff.on_probe(ctx, relation, meta.src, pos, centroid, n_tuples)
            }
            ProtoMsg::HandoffAccept => self.handoff.on_accept(ctx, relation, meta.src),
            ProtoMsg::HandoffTransfer { tuples } => {
                self.handoff.on_transfer(ctx, relation, meta.src, tuples)
            }
            ProtoMsg::HandoffAck => self.handoff.on_ack(relation),
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<ProtoMsg>, tok: u64) {
        let arg = tok & !token::KIND_MASK;
        match tok & token::KIND_MASK {
            token::ISSUE => self.try_issue(ctx),
            token::HANDOFF_TICK => {
                let busy = self.active.is_some();
                self.handoff.tick(ctx, &self.device.relation, busy)
            }
            token::HANDOFF_TIMEOUT => self.handoff.on_timeout(ctx.now),
            token::LOCALITY_SAMPLE => {
                self.handoff.sample_locality(ctx);
                ctx.set_timer(LOCALITY_SAMPLE_PERIOD, token::LOCALITY_SAMPLE);
            }
            token::ARQ => self.on_arq_timeout(ctx, arg),
            token::REISSUE => self.maybe_reissue(ctx, arg as u8),
            token::ATTACK_TICK => self.attack.tick(ctx, &mut self.device.log),
            // The safety timer closes whatever is still open — also queries
            // past their 80 % stamp that keep waiting for stragglers which
            // will never come (crashed devices). `finalize` records those
            // as completed, not timed out.
            token::TIMEOUT if self.active.as_ref().is_some_and(|a| a.key.cnt == arg as u8) => {
                self.finalize(ctx, true)
            }
            token::STASH => {
                for s in self.stash.remove(&arg).unwrap_or_default() {
                    match s {
                        Stashed::Unicast(dst, msg) => self.send_tracked(ctx, dst, msg),
                        Stashed::Flood { spec, filters, round, hops } => {
                            self.flood(ctx, spec, filters, round, hops)
                        }
                        Stashed::RouteToken(t) => self.df_route(ctx, t),
                    }
                }
            }
            _ => {}
        }
    }

    fn on_delivery_failed(&mut self, ctx: &mut NodeCtx<ProtoMsg>, dst: NodeId, payload: ProtoMsg) {
        self.delivery_failures += 1;
        ctx.trace(key_of(&payload).map(qid), QueryEvent::DeliveryFailed { dst });
        // A lost DF token comes back to its sender. Routing gave up before
        // the ARQ timer: cancel the pending retransmission so the salvaged
        // walk is the only copy.
        if let ProtoMsg::DfToken(t) = payload {
            self.arq.cancel(t.transfer_seq);
            self.salvage_token(ctx, t, dst, true);
        }
        // A lost BF result keeps its ARQ retransmission timer (each retry
        // re-enters route discovery); lost acks and handoff messages are
        // tolerated by their own timeout machinery.
    }

    fn on_crash(&mut self) {
        self.crash_count += 1;
        // Volatile protocol state dies with the node; the storage partition
        // (`self.device.relation`) survives the reboot.
        if let Some(aq) = self.active.take() {
            // The safety timer died with us (stale epoch); close the query
            // here so it can never be left stuck.
            self.records.push(aq.record().lost_to_crash());
        }
        self.stash.clear();
        self.arq.clear();
        self.bf_rounds.clear();
        self.seen_transfers.clear();
        self.device.log.reset();
        self.handoff.on_crash();
        self.defense.on_crash();
    }

    fn on_revive(&mut self, ctx: &mut NodeCtx<ProtoMsg>) {
        // Resume the workload and the periodic chores whose timers died
        // with the crash.
        if self.next_request < self.requests.len() {
            ctx.set_timer(NEXT_QUERY_DELAY, token::ISSUE);
        }
        ctx.set_timer(LOCALITY_SAMPLE_PERIOD, token::LOCALITY_SAMPLE);
        if self.handoff.capacity.is_some() {
            ctx.set_timer(HANDOFF_INTERVAL, token::HANDOFF_TICK);
        }
        self.attack.on_revive(ctx);
    }
}
