//! The mobility-driven data-redistribution extension — the paper's second
//! future-work direction ("extend the current strategies to retain good
//! performance while incorporating the redistribution of local relations
//! due to device mobility"): the probe / accept / transfer / ack handshake
//! that migrates a relation toward its data, and the device↔data locality
//! sampling that measures whether it helped.
//!
//! Every [`HANDOFF_INTERVAL`], a device that has drifted more than
//! [`MIN_GAIN_M`] from its relation's MBR centre probes its one-hop
//! neighbours; a neighbour at least [`MIN_GAIN_M`] closer to that centre,
//! whose load stays under [`CAPACITY_FACTOR`] × the network-average
//! partition size, offers to host. The relation then *migrates* with a
//! two-phase transfer (keep until acked), so radio loss can duplicate data
//! (harmless: partitions may overlap) but never destroy it.

use device_storage::{DeviceRelation, HybridRelation};
use manet_sim::engine::NodeCtx;
use manet_sim::{NodeId, SimDuration, SimTime};
use skyline_core::region::Point;
use skyline_core::Tuple;

use super::{token, ProtoMsg};

/// Originator: deadline for the candidate's accept.
const ACCEPT_TIMEOUT: SimDuration = SimDuration::from_millis(5_000);

/// Candidate: deadline for the data transfer after accepting.
const TRANSFER_TIMEOUT: SimDuration = SimDuration::from_millis(30_000);

/// Originator: deadline for the final ack after transferring.
const ACK_TIMEOUT: SimDuration = SimDuration::from_millis(60_000);

/// Period of the device↔data locality sampling.
pub(super) const LOCALITY_SAMPLE_PERIOD: SimDuration = SimDuration::from_millis(60_000);

/// Probe period.
pub(super) const HANDOFF_INTERVAL: SimDuration = SimDuration::from_millis(120_000);

/// A host's tuple count may not exceed this multiple of the average
/// initial partition size.
const CAPACITY_FACTOR: f64 = 3.0;

/// Minimum locality improvement (metres) worth a migration.
const MIN_GAIN_M: f64 = 100.0;

/// Handoff protocol state on one device.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
enum HandoffState {
    #[default]
    Idle,
    /// Probed; waiting for the first volunteer until the deadline.
    AwaitAccept(SimTime),
    /// Volunteered; waiting for the relation until the deadline.
    AwaitTransfer(SimTime),
    /// Shipped the relation; waiting for the ack until the deadline.
    AwaitAck(SimTime),
}

/// One device's side of the redistribution extension. Every method that
/// reads or replaces the relation takes it as an argument: the partition
/// belongs to the device, only the handshake state lives here.
#[derive(Default)]
pub(super) struct Handoff {
    /// Maximum tuples this device may host; `None` = the extension is off
    /// (the paper's pinned relations).
    pub(super) capacity: Option<usize>,
    state: HandoffState,
    /// Completed outbound migrations (relation shipped and acked away).
    pub(super) migrations_out: u64,
    /// Cached centre of the relation's MBR (`None` = empty relation).
    pub(super) centroid: Option<Point>,
    /// Accumulated device↔data distance samples (time-averaged locality).
    pub(super) locality_sum_m: f64,
    /// Number of locality samples taken.
    pub(super) locality_samples: u64,
}

fn here(ctx: &NodeCtx<ProtoMsg>) -> Point {
    Point::new(ctx.position.x, ctx.position.y)
}

fn tuples_of(relation: &HybridRelation) -> Vec<Tuple> {
    (0..relation.len()).map(|i| relation.tuple(i)).collect()
}

impl Handoff {
    pub(super) fn new(relation: &HybridRelation) -> Self {
        let mut h = Handoff::default();
        h.recompute_centroid(relation);
        h
    }

    fn recompute_centroid(&mut self, relation: &HybridRelation) {
        self.centroid = relation
            .mbr()
            .filter(|mbr| !mbr.is_empty())
            .map(|mbr| Point::new((mbr.x_min + mbr.x_max) / 2.0, (mbr.y_min + mbr.y_max) / 2.0));
    }

    pub(super) fn sample_locality(&mut self, ctx: &NodeCtx<ProtoMsg>) {
        if let Some(c) = self.centroid {
            self.locality_sum_m += here(ctx).dist(c);
            self.locality_samples += 1;
        }
    }

    /// Sends one handshake message and arms the state's deadline.
    fn step(
        &mut self,
        ctx: &mut NodeCtx<ProtoMsg>,
        to: Option<NodeId>,
        msg: ProtoMsg,
        wait: SimDuration,
        next: fn(SimTime) -> HandoffState,
    ) {
        let bytes = msg.wire_size();
        match to {
            Some(dst) => ctx.send_unicast(dst, msg, bytes),
            None => ctx.broadcast(msg, bytes),
        }
        self.state = next(ctx.now + wait);
        ctx.set_timer(wait, token::HANDOFF_TIMEOUT);
    }

    /// The periodic tick; `busy` = the device has a query of its own open.
    pub(super) fn tick(
        &mut self,
        ctx: &mut NodeCtx<ProtoMsg>,
        relation: &HybridRelation,
        busy: bool,
    ) {
        if self.capacity.is_none() {
            return;
        }
        // Re-arm the periodic tick first.
        ctx.set_timer(HANDOFF_INTERVAL, token::HANDOFF_TICK);
        if self.state != HandoffState::Idle || busy {
            return;
        }
        let Some(centroid) = self.centroid else { return };
        let pos = here(ctx);
        if pos.dist(centroid) < MIN_GAIN_M {
            return; // still close enough to our data
        }
        let msg = ProtoMsg::HandoffProbe { pos, centroid, n_tuples: relation.len() };
        self.step(ctx, None, msg, ACCEPT_TIMEOUT, HandoffState::AwaitAccept);
    }

    pub(super) fn on_probe(
        &mut self,
        ctx: &mut NodeCtx<ProtoMsg>,
        relation: &HybridRelation,
        from: NodeId,
        pos: Point,
        centroid: Point,
        n_tuples: usize,
    ) {
        let Some(capacity) = self.capacity else { return };
        if self.state != HandoffState::Idle {
            return;
        }
        if relation.len() + n_tuples > capacity {
            return; // would overload this host
        }
        let gain = pos.dist(centroid) - here(ctx).dist(centroid);
        if gain < MIN_GAIN_M {
            return; // not meaningfully closer to the data
        }
        let msg = ProtoMsg::HandoffAccept;
        self.step(ctx, Some(from), msg, TRANSFER_TIMEOUT, HandoffState::AwaitTransfer);
    }

    pub(super) fn on_accept(
        &mut self,
        ctx: &mut NodeCtx<ProtoMsg>,
        relation: &HybridRelation,
        from: NodeId,
    ) {
        if !matches!(self.state, HandoffState::AwaitAccept(_)) {
            return; // late volunteer; someone else won or we timed out
        }
        let msg = ProtoMsg::HandoffTransfer { tuples: tuples_of(relation) };
        // Keep our copy until the ack: loss may duplicate data (partitions
        // are allowed to overlap) but never destroys it.
        self.step(ctx, Some(from), msg, ACK_TIMEOUT, HandoffState::AwaitAck);
    }

    pub(super) fn on_transfer(
        &mut self,
        ctx: &mut NodeCtx<ProtoMsg>,
        relation: &mut HybridRelation,
        from: NodeId,
        tuples: Vec<Tuple>,
    ) {
        if !matches!(self.state, HandoffState::AwaitTransfer(_)) {
            return; // unsolicited or timed out — refuse silently
        }
        let mut mine = tuples_of(relation);
        // Drop exact duplicates (a retransmitted migration).
        for t in tuples {
            if !mine.iter().any(|m| m.same_site(&t)) {
                mine.push(t);
            }
        }
        *relation = HybridRelation::new(mine);
        self.recompute_centroid(relation);
        self.state = HandoffState::Idle;
        let msg = ProtoMsg::HandoffAck;
        let bytes = msg.wire_size();
        ctx.send_unicast(from, msg, bytes);
    }

    pub(super) fn on_ack(&mut self, relation: &mut HybridRelation) {
        if matches!(self.state, HandoffState::AwaitAck(_)) {
            *relation = HybridRelation::new(Vec::new());
            self.recompute_centroid(relation);
            self.migrations_out += 1;
            self.state = HandoffState::Idle;
        }
    }

    pub(super) fn on_timeout(&mut self, now: SimTime) {
        let expired = match self.state {
            HandoffState::Idle => false,
            HandoffState::AwaitAccept(d)
            | HandoffState::AwaitTransfer(d)
            | HandoffState::AwaitAck(d) => now >= d,
        };
        if expired {
            self.state = HandoffState::Idle;
        }
    }

    /// Switches the extension on: this device volunteers to host up to
    /// [`CAPACITY_FACTOR`] × `avg_partition` tuples.
    pub(super) fn enable(&mut self, avg_partition: usize) {
        let capacity = (avg_partition as f64 * CAPACITY_FACTOR).ceil() as usize;
        self.capacity = Some(capacity.max(1));
    }

    /// A crash forgets the handshake in progress; the relation survives.
    pub(super) fn on_crash(&mut self) {
        self.state = HandoffState::Idle;
    }
}
