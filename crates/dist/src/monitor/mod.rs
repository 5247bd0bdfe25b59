//! Continuous range-skyline monitoring over a MANET.
//!
//! The paper's protocol answers one-shot constrained skyline queries; this
//! module extends it to *standing* queries: an originator registers a range
//! skyline once and receives a stream of epoch-numbered deltas as device
//! movement changes which sites fall inside the monitored region.
//!
//! ## Protocol
//!
//! * **Registration** — the originator floods a [`MonMsg::Register`]
//!   carrying the query key, region, epoch period, and a lease TTL. Every
//!   device that sees a fresh round installs (or renews) the registration
//!   and relays the flood. Leases are soft state: a device whose lease runs
//!   out without a renewal (the originator re-floods every `TTL / 2`)
//!   drops the registration and stops transmitting — a crashed originator
//!   cannot strand heartbeat traffic.
//! * **Epoch ticks** — every registered device answers the query again at
//!   the shared epoch grid `t0 + k·period`, in one pass: its sites placed
//!   at the device position plus their offsets, filtered by distance to
//!   the monitored centre, one BNL pass over the attributes, the ids in id
//!   order. A device carries a few dozen sites at most, so nothing is
//!   memoized between ticks. The answer, the acknowledged state and the
//!   in-flight snapshot are id lists; tuples are read from the device's
//!   sites only when a delta, a reply or the originator's own fold needs
//!   them.
//! * **Deltas** — a device transmits only when its local skyline actually
//!   changed relative to the last *acknowledged* state: a
//!   [`MonMsg::Delta`] lists added and removed tuples for the epoch. At
//!   most one delta is in flight per device (the per-hop ARQ of
//!   `crate::arq`, shared with the one-shot runtime); after `HEARTBEAT_EVERY`
//!   silent epochs a zero-change heartbeat proves liveness. ARQ exhaustion
//!   or a device crash forces the next transmission to be a *full* resync
//!   snapshot, so the acked-state chain can never diverge silently.
//! * **Folding** — the originator maintains the global answer in a
//!   [`LiveFold`]: a [`LiveSkyline`](skyline_core::LiveSkyline)
//!   (exclusive-dominance buckets, so removals reinstate exactly the
//!   tuples the removed member was masking) over a site table of its own
//!   that holds each folded site once. Applying a delta
//!   removes then inserts; per-device contribution lists let a *full*
//!   snapshot or a miss-limit retraction withdraw everything a device ever
//!   reported. A device silent for `MISS_LIMIT` epochs is retracted and
//!   marked as needing a full resync: later non-full deltas from it are
//!   neither applied nor acked, which deliberately exhausts the device's
//!   ARQ and triggers the full snapshot that reconverges both sides.
//! * **Views** — each epoch the originator snapshots an [`EpochView`]:
//!   the folded skyline ids plus the mean staleness of the per-device
//!   reports it is built from. The harness scores views against a ground
//!   truth reconstructed from per-device in-situ recordings (every device
//!   logs its local skyline at every epoch regardless of send gating).
//!
//! The naive baseline ([`MonitorMode::Requery`]) re-floods the query every
//! epoch and has every device answer with its complete local skyline —
//! the message-cost yardstick the delta protocol is measured against in
//! `msq ext monitor`.
//!
//! This file is the protocol ([`MonitorApp`]: the state every device
//! keeps, plus an `Originator` on the one node that issued the query,
//! holding its fold and one `Peer` record per node); `experiment.rs` is
//! the harness around it ([`run_monitor_experiment`],
//! [`verify_monitor_drift`]).

mod experiment;

use manet_sim::engine::{Application, MsgMeta, NodeCtx};
use manet_sim::{NodeId, Pos, QueryEvent, SimDuration, SimTime};
use sim_obs::PowHistogram;
use skyline_core::algo::bnl;
use skyline_core::region::{Point, QueryRegion};
use skyline_core::{LiveFold, Tuple, TupleId};

use crate::arq::{Arq, ArqTimeout};
use crate::config::DistConfig;
use crate::query::QueryKey;
use crate::runtime::{qid, QueryRecord};

pub use self::experiment::{
    monitor_network, run_monitor_experiment, verify_monitor_drift, MonitorExperiment,
    MonitorOutcome,
};

/// How the originator keeps its answer fresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorMode {
    /// The delta protocol described in the module docs.
    Continuous,
    /// Naive baseline: re-flood the query every epoch, every device
    /// answers with its full local skyline.
    Requery,
}

/// Registration lease TTL; the originator renews every `TTL / 2`.
const TTL: SimDuration = SimDuration::from_millis(240_000);

/// A device with no change sends a liveness heartbeat after this many
/// silent epochs.
const HEARTBEAT_EVERY: u64 = 4;

/// The originator retracts a device's contribution after this many epochs
/// without an applied report, and demands a full resync.
const MISS_LIMIT: u64 = 12;

// A live device heartbeats well before the originator gives up on it.
const _: () = assert!(MISS_LIMIT > HEARTBEAT_EVERY);

/// Monitoring-protocol knobs.
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Epoch refresh period.
    pub period: SimDuration,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig { period: SimDuration::from_millis(30_000) }
    }
}

/// Messages of the monitoring protocol.
#[derive(Debug, Clone)]
pub enum MonMsg {
    /// Registration / lease-renewal flood (also the per-epoch poll in
    /// [`MonitorMode::Requery`], where `round` is the epoch number).
    Register {
        /// Query identity.
        key: QueryKey,
        /// Monitored region center.
        center: Point,
        /// Monitored region radius (m).
        radius: f64,
        /// Epoch origin (the originator's issue time).
        t0: SimTime,
        /// Epoch period.
        period: SimDuration,
        /// Lease TTL.
        ttl: SimDuration,
        /// Flood round; devices relay each round once.
        round: u32,
        /// `true` for the naive re-query baseline.
        requery: bool,
    },
    /// Cancellation flood: drop the registration immediately.
    Cancel {
        /// Query identity.
        key: QueryKey,
    },
    /// One device's epoch delta (or zero-change heartbeat), unicast to the
    /// originator.
    Delta {
        /// Query identity.
        key: QueryKey,
        /// Epoch this delta describes.
        epoch: u64,
        /// Tuples that entered the device's local constrained skyline.
        adds: Vec<(TupleId, Tuple)>,
        /// Tuples that left it.
        removes: Vec<TupleId>,
        /// `true` for a full resync snapshot: the originator retracts the
        /// device's entire prior contribution before applying `adds`.
        full: bool,
        /// ARQ sequence number (0 when ARQ is disabled).
        seq: u64,
        /// ARQ retransmissions so far (accounting, mirrors `BfResult`).
        retries: u32,
    },
    /// A full local skyline answering one re-query poll round.
    Reply {
        /// Query identity.
        key: QueryKey,
        /// The poll round (epoch) being answered.
        epoch: u64,
        /// Complete local constrained skyline.
        tuples: Vec<(TupleId, Tuple)>,
        /// ARQ sequence number (0 when ARQ is disabled).
        seq: u64,
        /// ARQ retransmissions so far.
        retries: u32,
    },
    /// Application-level acknowledgement of a tracked `Delta`/`Reply`.
    Ack {
        /// The acknowledged sequence number.
        seq: u64,
    },
}

impl MonMsg {
    /// Serialized size: the accounting mirrors `QuerySpec`/`BfResult` —
    /// key 5, point 16, f64 8, u64 8, u32 4, flags 1, id 16.
    pub fn wire_size(&self) -> usize {
        match self {
            MonMsg::Register { .. } => 5 + 16 + 8 + 8 + 8 + 8 + 4 + 1,
            MonMsg::Cancel { .. } => 5,
            MonMsg::Delta { adds, removes, .. } => {
                5 + 8
                    + 8
                    + 4
                    + 1
                    + adds.iter().map(|(_, t)| 16 + t.wire_size()).sum::<usize>()
                    + removes.len() * 16
            }
            MonMsg::Reply { tuples, .. } => {
                5 + 8 + 8 + 4 + tuples.iter().map(|(_, t)| 16 + t.wire_size()).sum::<usize>()
            }
            MonMsg::Ack { .. } => 12,
        }
    }
}

/// Timer-token channels (top byte), mirroring the one-shot runtime.
mod mtoken {
    /// Epoch tick.
    pub const TICK: u64 = 1 << 56;
    /// ARQ retransmission timer; low bits carry the sequence number.
    pub const ARQ: u64 = 2 << 56;
    /// Originator lease-renewal flood.
    pub const RENEW: u64 = 3 << 56;
    /// Originator start (issue the registration).
    pub const START: u64 = 4 << 56;
    /// Originator cancellation.
    pub const CANCEL: u64 = 5 << 56;
    /// Channel mask.
    pub const KIND_MASK: u64 = 0xFF << 56;
}

/// The installed registration — everything a device needs to tick.
#[derive(Debug, Clone)]
struct MonSpec {
    key: QueryKey,
    center: Point,
    radius: f64,
    t0: SimTime,
    period: SimDuration,
    ttl: SimDuration,
    requery: bool,
}

/// Everything only the originator holds: the query it issues, its fold
/// of the applied reports, and one [`Peer`] record per node.
struct Originator {
    key: QueryKey,
    radius: f64,
    duration: SimDuration,
    mode: MonitorMode,
    period: SimDuration,
    fold: LiveFold,
    /// The originator's own local skyline as last folded, in id order.
    own_ids: Vec<TupleId>,
    renew_round: u32,
    /// ARQ retries carried by the applied deltas and replies.
    applied_retries: u64,
    /// Indexed by `NodeId`; the originator's own entry stays empty.
    peers: Vec<Peer>,
}

/// The originator's record of one device.
#[derive(Default)]
struct Peer {
    /// The ids this device's applied reports put into the fold; `None`
    /// before its first applied report and after a miss-limit retraction.
    contributed: Option<Vec<TupleId>>,
    /// Epoch and epoch time of its last applied report.
    last_applied: Option<(u64, SimTime)>,
    /// Retracted: nothing but a full resync is applied (or acked) until
    /// one lands.
    needs_full: bool,
}

impl Peer {
    /// `true` when this device has no applied report at or after `epoch`.
    fn is_news(&self, epoch: u64) -> bool {
        self.last_applied.is_none_or(|(le, _)| epoch > le)
    }
}

/// One originator answer snapshot, taken every epoch.
#[derive(Debug, Clone)]
pub struct EpochView {
    /// Epoch number (1-based; epoch 0 is the issue instant).
    pub epoch: u64,
    /// Virtual time of the snapshot.
    pub at: SimTime,
    /// Folded skyline ids, sorted.
    pub ids: Vec<TupleId>,
    /// Mean age (s) of the freshest applied report per remote device at
    /// snapshot time (devices never heard from count from `t0`).
    pub staleness_s: f64,
    /// Oracle coverage, filled by the harness ([`crate::verify::score_epoch`]).
    pub completeness: Option<f64>,
    /// View members the oracle rejects, filled by the harness.
    pub spurious: u64,
}

/// Epoch number of instant `now` on the grid anchored at `t0`.
pub(crate) fn epoch_of(t0: SimTime, period: SimDuration, now: SimTime) -> u64 {
    let p = period.0.max(1);
    (now.0.saturating_sub(t0.0) + p / 2) / p
}

/// Delay until the next epoch boundary strictly after `now`.
pub(crate) fn next_tick(t0: SimTime, period: SimDuration, now: SimTime) -> SimDuration {
    let p = period.0.max(1);
    let k = now.0.saturating_sub(t0.0) / p + 1;
    SimDuration(t0.0 + k * p - now.0)
}

/// The ids of `ids` that `sorted` (in id order) lacks, in `ids`' order.
fn not_in<'a>(ids: &'a [TupleId], sorted: &'a [TupleId]) -> impl Iterator<Item = TupleId> + 'a {
    ids.iter().copied().filter(|id| sorted.binary_search(id).is_err())
}

/// The tuple of site `id` among `sites` (in id order).
fn site_tuple(sites: &[(TupleId, Tuple, (f64, f64))], id: TupleId) -> &Tuple {
    let i = sites.binary_search_by_key(&id, |s| s.0).expect("one of this device's sites");
    &sites[i].1
}

/// Removes `id` from `fold`; a miss is a fold-consistency bug and is
/// counted, not hidden.
fn fold_remove(fold: &mut LiveFold, id: &TupleId, misses: &mut u64) {
    if !fold.remove(id) {
        *misses += 1;
    }
}

/// One node of the monitoring protocol: a plain device, or the originator
/// when [`MonitorApp::set_originator`] was called.
pub struct MonitorApp {
    id: usize,
    /// This device's sites in id order: stable id, attribute tuple
    /// (location fields encode the id), and position offset relative to
    /// the device.
    sites: Vec<(TupleId, Tuple, (f64, f64))>,

    // Device-side registration. `spec` survives crashes: the epoch
    // schedule is measurement infrastructure (the scorecard needs ground
    // truth across the outage); all protocol state below it is volatile.
    spec: Option<MonSpec>,
    lease_expires: Option<SimTime>,
    last_round: Option<u32>,
    /// The local skyline the originator last acknowledged, in id order.
    acked: Vec<TupleId>,
    full_needed: bool,
    last_sent_epoch: Option<u64>,
    /// The one delta awaiting its ack: its sequence number and the
    /// local-skyline ids that become the acked state when it lands.
    inflight: Option<(u64, Vec<TupleId>)>,
    arq: Arq<MonMsg>,
    tick_armed: bool,
    done: bool,

    originator: Option<Originator>,

    /// Originator: one view per epoch.
    pub views: Vec<EpochView>,
    /// In-situ ground truth: `(epoch, local skyline ids)` at every epoch
    /// tick, recorded regardless of send gating.
    pub truth: Vec<(u64, Vec<TupleId>)>,
    /// Originator: the closed query record (cancel or crash).
    pub record: Option<QueryRecord>,

    /// `Registered` events traced (installs + renewals).
    pub registered_events: u64,
    /// Non-heartbeat deltas / re-query replies sent.
    pub deltas_sent: u64,
    /// Zero-change heartbeats sent.
    pub heartbeats_sent: u64,
    /// Deltas folded at the originator.
    pub deltas_applied: u64,
    /// Lease expiries.
    pub lease_expired: u64,
    /// Cancellations processed.
    pub cancelled_events: u64,
    /// Duplicate deltas re-acked without folding.
    pub duplicates_suppressed: u64,
    /// Routing-level delivery failures reported to this app.
    pub delivery_failures: u64,
    /// Application messages sent (floods, deltas, replies, acks).
    pub msgs_sent: u64,
    /// Application payload bytes sent.
    pub bytes_sent: u64,
    /// `LiveSkyline::remove` calls that found nothing — any value above 0
    /// is a fold-consistency bug.
    pub fold_remove_misses: u64,
    /// Age of each folded delta/reply at apply time (µs since its epoch
    /// tick) — the freshness the originator actually observes.
    pub delta_age_us: PowHistogram,
}

impl MonitorApp {
    /// Creates a device with `sites` (id, attribute tuple, offset from the
    /// device position); they are kept in id order.
    pub fn new(id: usize, dist: DistConfig, mut sites: Vec<(TupleId, Tuple, (f64, f64))>) -> Self {
        sites.sort_by_key(|s| s.0);
        MonitorApp {
            id,
            sites,
            spec: None,
            lease_expires: None,
            last_round: None,
            acked: Vec::new(),
            full_needed: true,
            last_sent_epoch: None,
            inflight: None,
            arq: Arq::new(dist.arq, id, mtoken::ARQ),
            tick_armed: false,
            done: false,
            originator: None,
            views: Vec::new(),
            truth: Vec::new(),
            record: None,
            registered_events: 0,
            deltas_sent: 0,
            heartbeats_sent: 0,
            deltas_applied: 0,
            lease_expired: 0,
            cancelled_events: 0,
            duplicates_suppressed: 0,
            delivery_failures: 0,
            msgs_sent: 0,
            bytes_sent: 0,
            fold_remove_misses: 0,
            delta_age_us: PowHistogram::new(),
        }
    }

    /// Makes this node the originator of a network of `m` nodes: it issues
    /// the registration (`mode`, epochs every `mon.period`) when the
    /// `START` timer fires and cancels after `duration`.
    pub fn set_originator(
        &mut self,
        key: QueryKey,
        radius: f64,
        duration: SimDuration,
        mode: MonitorMode,
        mon: MonitorConfig,
        m: usize,
    ) {
        self.originator = Some(Originator {
            key,
            radius,
            duration,
            mode,
            period: mon.period,
            fold: LiveFold::default(),
            own_ids: Vec::new(),
            renew_round: 0,
            applied_retries: 0,
            peers: (0..m).map(|_| Peer::default()).collect(),
        });
    }

    /// This device's sites in id order: id, attribute tuple, offset from
    /// the device position.
    pub fn sites(&self) -> &[(TupleId, Tuple, (f64, f64))] {
        &self.sites
    }

    /// `ids` (this device's own, in any order) paired with their tuples.
    fn with_tuples(&self, ids: &[TupleId]) -> Vec<(TupleId, Tuple)> {
        ids.iter().map(|&id| (id, site_tuple(&self.sites, id).clone())).collect()
    }

    fn qid_opt(&self) -> Option<manet_sim::QueryId> {
        self.spec.as_ref().map(|s| qid(s.key))
    }

    fn count_sent(&mut self, bytes: usize) {
        self.msgs_sent += 1;
        self.bytes_sent += bytes as u64;
    }

    fn broadcast(&mut self, ctx: &mut NodeCtx<MonMsg>, msg: MonMsg) {
        let bytes = msg.wire_size();
        self.count_sent(bytes);
        ctx.broadcast(msg, bytes);
    }

    /// The acknowledged (or, with ARQ off, optimistically sent) delta's
    /// snapshot becomes the state the next delta is diffed against.
    fn commit(&mut self, snapshot: Vec<TupleId>, delta: &MonMsg) {
        self.acked = snapshot;
        if matches!(delta, MonMsg::Delta { full: true, .. }) {
            self.full_needed = false;
        }
    }

    /// Sends a delta/reply under the next ARQ sequence number and returns
    /// it. A delta comes with the local-skyline `snapshot` it describes
    /// and is exclusive: it stays the one in flight until acked or
    /// abandoned. With ARQ off (sequence 0) nothing will ever be acked, so
    /// the snapshot commits at send time.
    fn send_tracked(
        &mut self,
        ctx: &mut NodeCtx<MonMsg>,
        dst: NodeId,
        mut msg: MonMsg,
        snapshot: Option<Vec<TupleId>>,
    ) -> u64 {
        let seq = self.arq.next_seq();
        if let MonMsg::Delta { seq: s, .. } | MonMsg::Reply { seq: s, .. } = &mut msg {
            *s = seq;
        }
        match snapshot {
            Some(snap) if seq == 0 => self.commit(snap, &msg),
            Some(snap) => self.inflight = Some((seq, snap)),
            None => {}
        }
        let bytes = msg.wire_size();
        self.count_sent(bytes);
        self.arq.send(ctx, dst, msg, bytes, seq, self.qid_opt());
        seq
    }

    fn on_arq_timeout(&mut self, ctx: &mut NodeCtx<MonMsg>, seq: u64) {
        let bump = |m: &mut MonMsg| {
            if let MonMsg::Delta { retries, .. } | MonMsg::Reply { retries, .. } = m {
                *retries += 1;
            }
        };
        match self.arq.on_timeout(ctx, seq, bump) {
            ArqTimeout::Settled => {}
            ArqTimeout::Retried { bytes } => self.count_sent(bytes),
            ArqTimeout::Exhausted { .. } => {
                self.inflight.take_if(|(s, _)| *s == seq);
                // The acked-state chain is broken: force a resync snapshot.
                self.full_needed = true;
            }
        }
    }

    fn on_ack(&mut self, seq: u64) {
        let Some(msg) = self.arq.cancel(seq) else { return };
        if let Some((_, snapshot)) = self.inflight.take_if(|(s, _)| *s == seq) {
            self.commit(snapshot, &msg);
        }
    }

    fn send_ack(&mut self, ctx: &mut NodeCtx<MonMsg>, dst: NodeId, seq: u64) {
        if seq != 0 {
            let msg = MonMsg::Ack { seq };
            let bytes = msg.wire_size();
            self.count_sent(bytes);
            ctx.send_unicast(dst, msg, bytes);
        }
    }

    /// Counts and traces one `Registered` event (install or renewal).
    fn trace_registered(&mut self, ctx: &mut NodeCtx<MonMsg>, spec: &MonSpec) {
        self.registered_events += 1;
        ctx.trace(
            Some(qid(spec.key)),
            QueryEvent::Registered {
                radius_m: spec.radius,
                ttl_s: spec.ttl.as_secs_f64(),
                period_s: spec.period.as_secs_f64(),
            },
        );
    }

    /// The local constrained skyline at device position `pos`, in one
    /// pass: the sites placed at `pos` plus their offsets, those inside
    /// the monitored circle, one BNL pass; the ids in id order.
    fn local_skyline(&self, pos: Pos, spec: &MonSpec) -> Vec<TupleId> {
        let region = QueryRegion::new(spec.center, spec.radius);
        let in_range =
            self.sites.iter().enumerate().filter(|(_, (_, _, off))| {
                region.contains(Point::new(pos.x + off.0, pos.y + off.1))
            });
        let (mut sky, _) =
            bnl::skyline_counted(in_range.map(|(i, (_, t, _))| (i, t.attrs.as_slice())));
        // Sites are in id order, so index order is id order.
        sky.sort_unstable();
        sky.into_iter().map(|i| self.sites[i].0).collect()
    }

    fn arm_tick(&mut self, ctx: &mut NodeCtx<MonMsg>, spec: &MonSpec) {
        if self.tick_armed || self.done {
            return;
        }
        ctx.set_timer(next_tick(spec.t0, spec.period, ctx.now), mtoken::TICK);
        self.tick_armed = true;
    }

    fn flood_register(&mut self, ctx: &mut NodeCtx<MonMsg>, spec: &MonSpec, round: u32) {
        let msg = MonMsg::Register {
            key: spec.key,
            center: spec.center,
            radius: spec.radius,
            t0: spec.t0,
            period: spec.period,
            ttl: spec.ttl,
            round,
            requery: spec.requery,
        };
        self.broadcast(ctx, msg);
    }

    /// Originator `START`: install the registration and flood round 0.
    fn start(&mut self, ctx: &mut NodeCtx<MonMsg>) {
        let Some(o) = &self.originator else { return };
        if self.spec.is_some() || self.done {
            return;
        }
        let duration = o.duration;
        let spec = MonSpec {
            key: o.key,
            center: Point::new(ctx.position.x, ctx.position.y),
            radius: o.radius,
            t0: ctx.now,
            period: o.period,
            ttl: TTL,
            requery: o.mode == MonitorMode::Requery,
        };
        self.trace_registered(ctx, &spec);
        self.flood_register(ctx, &spec, 0);
        if !spec.requery {
            ctx.set_timer(spec.ttl.mul_f64(0.5), mtoken::RENEW);
        }
        ctx.set_timer(duration, mtoken::CANCEL);
        self.arm_tick(ctx, &spec);
        self.spec = Some(spec);
    }

    fn renew(&mut self, ctx: &mut NodeCtx<MonMsg>) {
        if self.done {
            return;
        }
        let (Some(spec), Some(o)) = (self.spec.clone(), self.originator.as_mut()) else { return };
        if spec.requery {
            return;
        }
        o.renew_round += 1;
        let round = o.renew_round;
        self.flood_register(ctx, &spec, round);
        ctx.set_timer(spec.ttl.mul_f64(0.5), mtoken::RENEW);
    }

    /// Originator `CANCEL`: flood the cancellation and close the record.
    fn cancel(&mut self, ctx: &mut NodeCtx<MonMsg>) {
        if self.done {
            return;
        }
        let Some(spec) = self.spec.take() else { return };
        self.done = true;
        let e = epoch_of(spec.t0, spec.period, ctx.now);
        self.cancelled_events += 1;
        ctx.trace(Some(qid(spec.key)), QueryEvent::Cancelled { epoch: e });
        self.broadcast(ctx, MonMsg::Cancel { key: spec.key });
        let mut rec = self.make_record(&spec);
        rec.completed = Some(ctx.now);
        self.record = Some(rec);
    }

    /// The originator's record as of now, not yet closed.
    fn make_record(&self, spec: &MonSpec) -> QueryRecord {
        let o = self.originator.as_ref().expect("only the originator keeps a record");
        let heard: Vec<NodeId> =
            (0..o.peers.len()).filter(|&d| o.peers[d].last_applied.is_some()).collect();
        let mut rec = QueryRecord::open(spec.key, spec.t0, spec.center, spec.radius);
        rec.responded = heard.len();
        rec.contributors = heard;
        rec.contributors.push(self.id);
        rec.contributors.sort_unstable();
        rec.contributors.dedup();
        rec.result_len = o.fold.live().len();
        rec.result = o.fold.result();
        rec.retries = o.applied_retries;
        rec.duplicates = self.duplicates_suppressed;
        rec.epochs = self.views.len() as u64;
        rec
    }

    /// Shared epoch tick: record ground truth, then act per role.
    fn tick(&mut self, ctx: &mut NodeCtx<MonMsg>) {
        self.tick_armed = false;
        if self.done {
            return;
        }
        let Some(spec) = self.spec.clone() else { return };
        let e = epoch_of(spec.t0, spec.period, ctx.now);
        let local = self.local_skyline(ctx.position, &spec);
        self.truth.push((e, local.clone()));
        if self.originator.is_some() {
            self.originator_tick(ctx, &spec, e, &local);
        } else {
            self.device_tick(ctx, &spec, e, local);
        }
        self.arm_tick(ctx, &spec);
    }

    fn device_tick(
        &mut self,
        ctx: &mut NodeCtx<MonMsg>,
        spec: &MonSpec,
        e: u64,
        local: Vec<TupleId>,
    ) {
        if spec.requery {
            // Re-query devices answer polls, not ticks; the tick only
            // records ground truth.
            return;
        }
        match self.lease_expires {
            None => return,
            Some(exp) if ctx.now >= exp => {
                self.lease_expires = None;
                self.lease_expired += 1;
                ctx.trace(
                    Some(qid(spec.key)),
                    QueryEvent::LeaseExpired { epoch: self.last_sent_epoch.unwrap_or(0) },
                );
                return;
            }
            Some(_) => {}
        }
        if self.inflight.is_some() {
            // One delta in flight: the diff is against the last *acked*
            // state, so skipped epochs fold into the next delta.
            return;
        }
        let full = self.full_needed;
        let (adds, removes): (Vec<TupleId>, Vec<TupleId>) = if full {
            (local.clone(), Vec::new())
        } else {
            (not_in(&local, &self.acked).collect(), not_in(&self.acked, &local).collect())
        };
        let heartbeat = adds.is_empty() && removes.is_empty() && !full;
        if heartbeat {
            let due = match self.last_sent_epoch {
                None => true,
                Some(last) => e.saturating_sub(last) >= HEARTBEAT_EVERY,
            };
            if !due {
                return;
            }
        }
        let (n_adds, n_removes) = (adds.len(), removes.len());
        let adds = self.with_tuples(&adds);
        let msg =
            MonMsg::Delta { key: spec.key, epoch: e, adds, removes, full, seq: 0, retries: 0 };
        let bytes = msg.wire_size();
        let seq = self.send_tracked(ctx, spec.key.origin, msg, Some(local));
        ctx.trace(
            Some(qid(spec.key)),
            QueryEvent::DeltaSent {
                to: spec.key.origin,
                epoch: e,
                adds: n_adds,
                removes: n_removes,
                heartbeat,
                bytes,
                seq,
            },
        );
        if heartbeat {
            self.heartbeats_sent += 1;
        } else {
            self.deltas_sent += 1;
        }
        self.last_sent_epoch = Some(e);
    }

    fn originator_tick(
        &mut self,
        ctx: &mut NodeCtx<MonMsg>,
        spec: &MonSpec,
        e: u64,
        local: &[TupleId],
    ) {
        let o = self.originator.as_mut().expect("an originator tick");
        // Fold the originator's own contribution directly (no self-send).
        let old = std::mem::replace(&mut o.own_ids, local.to_vec());
        for id in not_in(&old, local) {
            fold_remove(&mut o.fold, &id, &mut self.fold_remove_misses);
        }
        for id in not_in(local, &old) {
            o.fold.insert(id, site_tuple(&self.sites, id).clone());
        }

        if !spec.requery {
            // Retract devices silent past the miss limit, in node order,
            // and demand a full resync from them.
            for peer in &mut o.peers {
                let last = peer.last_applied.map_or(0, |(le, _)| le);
                if e <= last + MISS_LIMIT {
                    continue;
                }
                if let Some(ids) = peer.contributed.take() {
                    for id in &ids {
                        fold_remove(&mut o.fold, id, &mut self.fold_remove_misses);
                    }
                    peer.needs_full = true;
                }
            }
        }

        let (mut stale_sum, mut n) = (0.0, 0u64);
        for (d, peer) in o.peers.iter().enumerate() {
            if d == self.id {
                continue;
            }
            let t_last = peer.last_applied.map_or(spec.t0, |(_, at)| at);
            stale_sum += ctx.now.since(t_last).as_secs_f64();
            n += 1;
        }
        self.views.push(EpochView {
            epoch: e,
            at: ctx.now,
            ids: o.fold.result_ids(),
            staleness_s: if n == 0 { 0.0 } else { stale_sum / n as f64 },
            completeness: None,
            spurious: 0,
        });

        if spec.requery {
            // Poll round `e`: every device answers with its full local
            // skyline.
            self.flood_register(ctx, spec, e as u32);
        }
    }

    /// A registration flood (`heard`, round `round`) arrived.
    fn on_register(&mut self, ctx: &mut NodeCtx<MonMsg>, heard: MonSpec, round: u32) {
        let (key, requery) = (heard.key, heard.requery);
        if self.done || key.origin == self.id {
            return;
        }
        let fresh = self.last_round.is_none_or(|lr| round > lr);
        if !fresh {
            return;
        }
        self.last_round = Some(round);
        // Relay the flood first; registration state changes below.
        self.flood_register(ctx, &heard, round);
        let install = self.spec.is_none();
        if install {
            self.full_needed = true;
        }
        let spec = self.spec.get_or_insert(heard).clone();
        // A lease install or renewal is a `Registered` event every round;
        // a re-query poll only when it installs.
        if !requery || install {
            self.trace_registered(ctx, &spec);
        }
        if !requery {
            self.lease_expires = Some(ctx.now + spec.ttl);
        } else {
            // Answer this poll round with the full local skyline.
            let tuples = self.with_tuples(&self.local_skyline(ctx.position, &spec));
            let n = tuples.len();
            let epoch = u64::from(round);
            let msg = MonMsg::Reply { key, epoch, tuples, seq: 0, retries: 0 };
            let bytes = msg.wire_size();
            let seq = self.send_tracked(ctx, spec.key.origin, msg, None);
            ctx.trace(
                Some(qid(key)),
                QueryEvent::DeltaSent {
                    to: spec.key.origin,
                    epoch,
                    adds: n,
                    removes: 0,
                    heartbeat: false,
                    bytes,
                    seq,
                },
            );
            self.deltas_sent += 1;
            self.last_sent_epoch = Some(epoch);
        }
        self.arm_tick(ctx, &spec);
    }

    fn on_cancel(&mut self, ctx: &mut NodeCtx<MonMsg>, key: QueryKey) {
        if self.done {
            return;
        }
        if key.origin == self.id {
            return;
        }
        self.done = true;
        self.broadcast(ctx, MonMsg::Cancel { key });
        if let Some(spec) = self.spec.take() {
            if spec.key == key {
                self.cancelled_events += 1;
                ctx.trace(
                    Some(qid(key)),
                    QueryEvent::Cancelled { epoch: self.last_sent_epoch.unwrap_or(0) },
                );
            }
        }
        self.lease_expires = None;
        self.inflight = None;
        self.arq.clear();
    }

    /// The open registration, when this node is the live originator of
    /// `key` (anything else ignores deltas and replies).
    fn originating(&self, key: QueryKey) -> Option<MonSpec> {
        if self.originator.is_none() || self.done {
            return None;
        }
        self.spec.clone().filter(|spec| spec.key == key)
    }

    /// Books one folded delta/reply: freshness, retry accounting, trace.
    #[allow(clippy::too_many_arguments)]
    fn book_applied(
        &mut self,
        ctx: &mut NodeCtx<MonMsg>,
        spec: &MonSpec,
        from: NodeId,
        epoch: u64,
        retries: u32,
        (adds, removes): (usize, usize),
        heartbeat: bool,
    ) {
        let at = epoch_at(spec, epoch);
        let o = self.originator.as_mut().expect("only the originator folds");
        o.peers[from].last_applied = Some((epoch, at));
        o.applied_retries += u64::from(retries);
        self.delta_age_us.record(ctx.now.since(at).as_micros());
        self.deltas_applied += 1;
        ctx.trace(
            Some(qid(spec.key)),
            QueryEvent::DeltaApplied { from, epoch, adds, removes, heartbeat },
        );
    }

    /// A retransmission of an already-applied delta/reply (its ack was
    /// lost): counted, and re-acked by the caller so the sender's chain
    /// can advance.
    fn book_duplicate(&mut self, ctx: &mut NodeCtx<MonMsg>, key: QueryKey, from: NodeId, seq: u64) {
        self.duplicates_suppressed += 1;
        ctx.trace(Some(qid(key)), QueryEvent::DuplicateSuppressed { from, seq });
    }

    /// Originator: fold one device delta.
    #[allow(clippy::too_many_arguments)]
    fn on_delta(
        &mut self,
        ctx: &mut NodeCtx<MonMsg>,
        from: NodeId,
        key: QueryKey,
        epoch: u64,
        adds: Vec<(TupleId, Tuple)>,
        removes: Vec<TupleId>,
        full: bool,
        seq: u64,
        retries: u32,
    ) {
        let Some(spec) = self.originating(key) else { return };
        let o = self.originator.as_mut().expect("originating");
        let peer = &mut o.peers[from];
        if !full && peer.needs_full {
            // The device was retracted; its incremental chain is
            // meaningless until a full resync. Not acking deliberately
            // exhausts its ARQ, which forces exactly that.
            return;
        }
        if full || peer.is_news(epoch) {
            let mut ids = peer.contributed.take().unwrap_or_default();
            if full {
                for id in ids.drain(..) {
                    fold_remove(&mut o.fold, &id, &mut self.fold_remove_misses);
                }
                peer.needs_full = false;
            }
            let heartbeat = adds.is_empty() && removes.is_empty() && !full;
            let counts = (adds.len(), removes.len());
            for id in &removes {
                fold_remove(&mut o.fold, id, &mut self.fold_remove_misses);
                ids.retain(|x| x != id);
            }
            for (id, t) in adds {
                o.fold.insert(id, t);
                ids.push(id);
            }
            peer.contributed = Some(ids);
            self.book_applied(ctx, &spec, from, epoch, retries, counts, heartbeat);
        } else {
            self.book_duplicate(ctx, key, from, seq);
        }
        self.send_ack(ctx, from, seq);
    }

    /// Originator: fold one re-query reply (replace semantics).
    #[allow(clippy::too_many_arguments)]
    fn on_reply(
        &mut self,
        ctx: &mut NodeCtx<MonMsg>,
        from: NodeId,
        key: QueryKey,
        epoch: u64,
        tuples: Vec<(TupleId, Tuple)>,
        seq: u64,
        retries: u32,
    ) {
        let Some(spec) = self.originating(key) else { return };
        let o = self.originator.as_mut().expect("originating");
        let peer = &mut o.peers[from];
        if peer.is_news(epoch) {
            let old = peer.contributed.take().unwrap_or_default();
            for id in &old {
                fold_remove(&mut o.fold, id, &mut self.fold_remove_misses);
            }
            let counts = (tuples.len(), old.len());
            let ids = tuples.iter().map(|(id, _)| *id).collect();
            for (id, t) in tuples {
                o.fold.insert(id, t);
            }
            peer.contributed = Some(ids);
            self.book_applied(ctx, &spec, from, epoch, retries, counts, false);
        } else {
            self.book_duplicate(ctx, key, from, seq);
        }
        self.send_ack(ctx, from, seq);
    }
}

/// Absolute time of epoch `e` on `spec`'s grid.
fn epoch_at(spec: &MonSpec, e: u64) -> SimTime {
    SimTime(spec.t0.0 + spec.period.0 * e)
}

impl Application<MonMsg> for MonitorApp {
    fn on_message(&mut self, ctx: &mut NodeCtx<MonMsg>, meta: MsgMeta, payload: MonMsg) {
        match payload {
            MonMsg::Register { key, center, radius, t0, period, ttl, round, requery } => {
                let heard = MonSpec { key, center, radius, t0, period, ttl, requery };
                self.on_register(ctx, heard, round);
            }
            MonMsg::Cancel { key } => self.on_cancel(ctx, key),
            MonMsg::Delta { key, epoch, adds, removes, full, seq, retries } => {
                self.on_delta(ctx, meta.src, key, epoch, adds, removes, full, seq, retries);
            }
            MonMsg::Reply { key, epoch, tuples, seq, retries } => {
                self.on_reply(ctx, meta.src, key, epoch, tuples, seq, retries);
            }
            MonMsg::Ack { seq } => self.on_ack(seq),
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<MonMsg>, token: u64) {
        match token & mtoken::KIND_MASK {
            mtoken::TICK => self.tick(ctx),
            mtoken::ARQ => self.on_arq_timeout(ctx, token & !mtoken::KIND_MASK),
            mtoken::RENEW => self.renew(ctx),
            mtoken::START => self.start(ctx),
            mtoken::CANCEL => self.cancel(ctx),
            _ => {}
        }
    }

    fn on_delivery_failed(&mut self, ctx: &mut NodeCtx<MonMsg>, dst: NodeId, _payload: MonMsg) {
        self.delivery_failures += 1;
        ctx.trace(self.qid_opt(), QueryEvent::DeliveryFailed { dst });
        // Tracked messages keep their ARQ timer: every retry re-enters
        // route discovery, mirroring the one-shot runtime's BF replies.
    }

    fn on_crash(&mut self) {
        self.tick_armed = false;
        self.lease_expires = None;
        self.last_round = None;
        self.acked.clear();
        self.full_needed = true;
        self.last_sent_epoch = None;
        self.inflight = None;
        self.arq.clear();
        if self.originator.is_some() {
            // The monitor dies with its originator; close the record so
            // the run stays accountable. The originator never runs again
            // (its `START` timer died with it if it had not fired), so its
            // fold is left as it is; `views`/`truth` are measurement
            // output and survive.
            if let Some(spec) = self.spec.take() {
                self.record = Some(self.make_record(&spec).lost_to_crash());
                self.done = true;
            }
        }
        // Plain devices keep `spec`: the epoch schedule is measurement
        // infrastructure (ground truth must span the outage); every
        // protocol byte above was volatile and is gone.
    }

    fn on_revive(&mut self, ctx: &mut NodeCtx<MonMsg>) {
        if let Some(spec) = self.spec.clone() {
            self.arm_tick(ctx, &spec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_are_stable() {
        let key = QueryKey { origin: 3, cnt: 0 };
        let reg = MonMsg::Register {
            key,
            center: Point::new(0.0, 0.0),
            radius: 100.0,
            t0: SimTime::ZERO,
            period: SimDuration::from_secs_f64(30.0),
            ttl: SimDuration::from_secs_f64(240.0),
            round: 0,
            requery: false,
        };
        assert_eq!(reg.wire_size(), 58);
        assert_eq!(MonMsg::Cancel { key }.wire_size(), 5);
        assert_eq!(MonMsg::Ack { seq: 9 }.wire_size(), 12);
        let t = Tuple::new(0.0, 0.0, vec![1.0, 2.0]); // wire 32
        let delta = MonMsg::Delta {
            key,
            epoch: 4,
            adds: vec![(TupleId(0, 0), t.clone())],
            removes: vec![TupleId(0, 1)],
            full: false,
            seq: 1,
            retries: 0,
        };
        // header 26 + add (16 + 32) + remove 16
        assert_eq!(delta.wire_size(), 26 + 48 + 16);
        let reply =
            MonMsg::Reply { key, epoch: 4, tuples: vec![(TupleId(0, 0), t)], seq: 1, retries: 0 };
        // header 25 + tuple (16 + 32)
        assert_eq!(reply.wire_size(), 25 + 48);
    }

    #[test]
    fn epoch_grid_arithmetic() {
        let t0 = SimTime::from_secs_f64(30.0);
        let p = SimDuration::from_secs_f64(20.0);
        assert_eq!(epoch_of(t0, p, t0), 0);
        assert_eq!(epoch_of(t0, p, SimTime::from_secs_f64(50.0)), 1);
        assert_eq!(epoch_of(t0, p, SimTime::from_secs_f64(69.9)), 2);
        // Next boundary strictly after `now`, even from an exact boundary.
        assert_eq!(next_tick(t0, p, t0), p);
        assert_eq!(
            next_tick(t0, p, SimTime::from_secs_f64(50.0)),
            SimDuration::from_secs_f64(20.0)
        );
        assert_eq!(next_tick(t0, p, SimTime::from_secs_f64(45.0)), SimDuration::from_secs_f64(5.0));
    }

    #[test]
    fn defaults_are_sane() {
        assert!(TTL > MonitorConfig::default().period);
        let e = MonitorExperiment::defaults(4, MonitorMode::Continuous, 7);
        assert!(e.dist.trace.enabled, "defaults must trace for drift checks");
    }
}

/// Synchronous model of the delta protocol — one step per epoch, no
/// engine, no radio. This isolates the *protocol algebra* (acked-state
/// chaining, full resyncs, miss-limit retraction, duplicate re-acks) and
/// checks, every epoch, that the originator's fold equals the skyline of
/// exactly what it has applied. Churn and loss are injected directly.
#[cfg(test)]
mod model_tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use manet_sim::mobility::{MobilityConfig, MobilityState};
    use proptest::prelude::*;
    use skyline_core::constrained;

    const M: usize = 6; // devices 1..M report to originator 0
    const K: usize = 3;
    const EPOCHS: u64 = 40;
    const PERIOD_S: f64 = 15.0;
    const RADIUS: f64 = 170.0;
    const HEARTBEAT_EVERY: u64 = 3;
    const MISS_LIMIT: u64 = 6;
    const MAX_RETRIES: u32 = 3;

    fn lcg(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *state >> 33
    }

    struct MPending {
        epoch: u64,
        snapshot: BTreeMap<TupleId, Tuple>,
        adds: Vec<(TupleId, Tuple)>,
        removes: Vec<TupleId>,
        full: bool,
        attempts: u32,
    }

    struct MDev {
        mob: MobilityState,
        sites: Vec<(TupleId, Tuple, (f64, f64))>,
        down: Option<(u64, u64)>,
        was_up: bool,
        acked: BTreeMap<TupleId, Tuple>,
        full_needed: bool,
        last_sent: Option<u64>,
        pending: Option<MPending>,
        truth: BTreeMap<u64, BTreeMap<TupleId, Tuple>>,
    }

    fn local_of(
        dev_pos: Pos,
        sites: &[(TupleId, Tuple, (f64, f64))],
        center: Point,
    ) -> BTreeMap<TupleId, Tuple> {
        let in_range = sites.iter().enumerate().filter(|(_, (_, _, off))| {
            let (dx, dy) = (dev_pos.x + off.0 - center.x, dev_pos.y + off.1 - center.y);
            (dx * dx + dy * dy).sqrt() <= RADIUS
        });
        let (sky, _) = bnl::skyline_counted(in_range.map(|(i, (_, t, _))| (i, t.attrs.as_slice())));
        sky.into_iter().map(|i| (sites[i].0, sites[i].1.clone())).collect()
    }

    /// Runs the model and asserts, every epoch, that the fold equals the
    /// skyline of the union of the devices' recorded local skylines at
    /// the epochs the originator last applied — the per-epoch oracle
    /// restricted to applied state. At zero churn and loss the applied
    /// epoch IS the current epoch, so this implies per-epoch exactness.
    #[allow(clippy::needless_range_loop)] // `d` is a node id, not just an index
    fn run_model(seed: u64, churn_pct: u64, loss_pct: u64) {
        let mut rng = seed | 1;
        let center = Point::new(200.0, 200.0);
        let mob_cfg = MobilityConfig {
            width: 400.0,
            height: 400.0,
            speed_min: 2.0,
            speed_max: 10.0,
            pause: SimDuration::from_secs_f64(5.0),
            frozen: false,
        };
        let mut devs: Vec<MDev> = (0..M)
            .map(|d| {
                let sites = (0..K)
                    .map(|j| {
                        let attrs: Vec<f64> = (0..2).map(|_| (lcg(&mut rng) % 50) as f64).collect();
                        let id = TupleId(d as u64, j as u64);
                        let off = (
                            (lcg(&mut rng) % 120) as f64 - 60.0,
                            (lcg(&mut rng) % 120) as f64 - 60.0,
                        );
                        (id, Tuple::new(d as f64, j as f64, attrs), off)
                    })
                    .collect();
                let start = Pos::new((lcg(&mut rng) % 400) as f64, (lcg(&mut rng) % 400) as f64);
                let down = if d > 0 && churn_pct > 0 && lcg(&mut rng) % 100 < churn_pct {
                    let a = 2 + lcg(&mut rng) % (EPOCHS - 10);
                    let len = 3 + lcg(&mut rng) % 6;
                    Some((a, a + len))
                } else {
                    None
                };
                MDev {
                    mob: MobilityState::new(mob_cfg, start, seed ^ (d as u64) << 8),
                    sites,
                    down,
                    was_up: true,
                    acked: BTreeMap::new(),
                    full_needed: true,
                    last_sent: None,
                    pending: None,
                    truth: BTreeMap::new(),
                }
            })
            .collect();

        // Originator state.
        let mut fold = LiveFold::default();
        let mut contributions: BTreeMap<usize, Vec<TupleId>> = BTreeMap::new();
        let mut last_applied: BTreeMap<usize, u64> = BTreeMap::new();
        let mut needs_full: BTreeSet<usize> = BTreeSet::new();
        let mut own_ids: Vec<TupleId> = Vec::new();

        for e in 1..=EPOCHS {
            let t = SimTime::from_secs_f64(e as f64 * PERIOD_S);
            for d in 1..M {
                let is_down = devs[d].down.is_some_and(|(a, b)| e >= a && e < b);
                if is_down {
                    if devs[d].was_up {
                        // Crash: all protocol state is volatile.
                        devs[d].acked.clear();
                        devs[d].pending = None;
                        devs[d].full_needed = true;
                        devs[d].last_sent = None;
                        devs[d].was_up = false;
                    }
                    continue;
                }
                devs[d].was_up = true;
                let pos = devs[d].mob.position_at(t);
                let local = local_of(pos, &devs[d].sites, center);
                devs[d].truth.insert(e, local.clone());

                if devs[d].pending.is_none() {
                    let full = devs[d].full_needed;
                    let (adds, removes) = if full {
                        (local.iter().map(|(i, t)| (*i, t.clone())).collect::<Vec<_>>(), vec![])
                    } else {
                        let adds: Vec<(TupleId, Tuple)> = local
                            .iter()
                            .filter(|(i, _)| !devs[d].acked.contains_key(i))
                            .map(|(i, t)| (*i, t.clone()))
                            .collect();
                        let removes: Vec<TupleId> = devs[d]
                            .acked
                            .keys()
                            .filter(|i| !local.contains_key(*i))
                            .copied()
                            .collect();
                        (adds, removes)
                    };
                    let heartbeat = adds.is_empty() && removes.is_empty() && !full;
                    let due = !heartbeat
                        || devs[d].last_sent.is_none_or(|l| e.saturating_sub(l) >= HEARTBEAT_EVERY);
                    if due {
                        devs[d].pending = Some(MPending {
                            epoch: e,
                            snapshot: local.clone(),
                            adds,
                            removes,
                            full,
                            attempts: 0,
                        });
                        devs[d].last_sent = Some(e);
                    }
                }

                // One delivery attempt per epoch (the engine's backoff is
                // abstracted to epoch granularity).
                if devs[d].pending.is_some() {
                    let exhausted = {
                        let p = devs[d].pending.as_mut().unwrap();
                        p.attempts += 1;
                        p.attempts > 1 + MAX_RETRIES
                    };
                    if exhausted {
                        devs[d].pending = None;
                        devs[d].full_needed = true;
                        continue;
                    }
                    let delivered = loss_pct == 0 || lcg(&mut rng) % 100 >= loss_pct;
                    if !delivered {
                        continue;
                    }
                    let (epoch, full, adds, removes, snapshot) = {
                        let p = devs[d].pending.as_ref().unwrap();
                        (p.epoch, p.full, p.adds.clone(), p.removes.clone(), p.snapshot.clone())
                    };
                    if !full && needs_full.contains(&d) {
                        continue; // ignored: no ack, chain must exhaust
                    }
                    let known = last_applied.get(&d).copied();
                    if full || known.is_none_or(|le| epoch > le) {
                        let mut ids = contributions.remove(&d).unwrap_or_default();
                        if full {
                            for id in ids.drain(..) {
                                assert!(fold.remove(&id), "retract miss");
                            }
                            needs_full.remove(&d);
                        }
                        for id in &removes {
                            assert!(fold.remove(id), "remove miss {id:?}");
                            ids.retain(|x| x != id);
                        }
                        for (id, t) in &adds {
                            fold.insert(*id, t.clone());
                            ids.push(*id);
                        }
                        contributions.insert(d, ids);
                        last_applied.insert(d, epoch);
                    }
                    // Ack (possibly lost independently).
                    let acked = loss_pct == 0 || lcg(&mut rng) % 100 >= loss_pct;
                    if acked {
                        devs[d].acked = snapshot;
                        if full {
                            devs[d].full_needed = false;
                        }
                        devs[d].pending = None;
                    }
                }
            }

            // Originator's own contribution.
            let pos0 = devs[0].mob.position_at(t);
            let local0 = local_of(pos0, &devs[0].sites, center);
            devs[0].truth.insert(e, local0.clone());
            let old = std::mem::take(&mut own_ids);
            for id in &old {
                if !local0.contains_key(id) {
                    assert!(fold.remove(id), "own remove miss");
                }
            }
            for (id, t) in &local0 {
                if !old.contains(id) {
                    fold.insert(*id, t.clone());
                }
            }
            own_ids = local0.keys().copied().collect();

            // Miss-limit retraction.
            let stale: Vec<usize> = contributions
                .keys()
                .copied()
                .filter(|d| e > last_applied.get(d).copied().unwrap_or(0) + MISS_LIMIT)
                .collect();
            for d in stale {
                for id in contributions.remove(&d).unwrap_or_default() {
                    assert!(fold.remove(&id), "retraction miss");
                }
                needs_full.insert(d);
            }

            // Invariant: the fold equals the skyline of the union of what
            // it applied — own local now, plus each contributing device's
            // recorded local skyline at its last applied epoch.
            let applied = contributions.keys().flat_map(|d| &devs[*d].truth[&last_applied[d]]);
            let rows = local0.iter().chain(applied).map(|(id, t)| (*id, t));
            let mut expected: Vec<TupleId> = constrained::skyline(rows, &QueryRegion::unbounded())
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            expected.sort_unstable();
            assert_eq!(
                fold.result_ids(),
                expected,
                "epoch {e}: fold diverged from applied-state oracle \
                 (seed {seed:#x}, churn {churn_pct}%, loss {loss_pct}%)"
            );
            fold.check_invariants().unwrap();
        }
    }

    #[test]
    fn quiescent_model_is_exact_per_epoch() {
        // No churn, no loss: last applied epoch == current epoch at every
        // step, so the invariant IS per-epoch exactness.
        run_model(1, 0, 0);
        run_model(0xDECAF, 0, 0);
    }

    #[test]
    fn model_converges_under_fixed_churn_and_loss() {
        run_model(0x5EED, 20, 10);
        run_model(0xFEED_FACE, 20, 10);
    }

    proptest! {
        #[test]
        fn fold_matches_applied_oracle_under_churn_and_loss(
            seed in any::<u64>(),
            churn in any::<bool>(),
            loss in any::<bool>(),
        ) {
            run_model(seed, if churn { 20 } else { 0 }, if loss { 10 } else { 0 });
        }
    }
}
