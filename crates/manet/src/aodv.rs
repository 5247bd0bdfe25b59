//! Ad hoc On-Demand Distance Vector routing — the RFC 3561 core, which is
//! the wireless routing protocol the paper's simulations use (Table 7).
//!
//! Implemented behaviour:
//!
//! * on-demand route discovery: RREQ flooding with (origin, rreq_id)
//!   duplicate suppression (TTL'd per RFC PATH_DISCOVERY_TIME),
//!   reverse-route setup at every forwarder, RREP unicast back along the
//!   reverse path (destination-only reply);
//! * destination sequence numbers with freshest-route-wins updates and
//!   the §6.2 unknown-sequence-number distinction, so opportunistic
//!   routes (overheard neighbours, application-primed reply paths,
//!   gratuitous refresh from forwarded data) never downgrade a known
//!   `dst_seq`;
//! * hop-count metric;
//! * active-route timeout with lazy expiry;
//! * RREQ retries with exponential back-off, then delivery-failure
//!   reporting to the application;
//! * link-break handling at forwarding time: route invalidation with a
//!   §6.11 sequence bump, a one-hop RERR broadcast so neighbours drop
//!   the stale route too, and salvage — the in-flight packet is
//!   re-buffered behind a targeted rediscovery instead of dropped;
//! * application route priming ([`AodvState::offer_app_route`]): upper
//!   layers that flood their own queries can install the flood tree as
//!   reverse routes, RREQ-style, so replies find warm paths and RREQ
//!   floods become the churn-only fallback.
//!
//! Omitted (not needed for the paper's workloads): intermediate-node
//! RREP replies, precursor lists with targeted RERR delivery, local
//! repair, and hello messages (neighbourhood sensing is physical — the
//! engine answers "is X in range" directly, through the `link_up`
//! predicate [`AodvState::on_frame`] is handed: one point check for the
//! one next hop a forwarded packet needs, modelling an idealized beacon
//! protocol; under `NeighborMode::Beacon` the same predicate reads the
//! engine's HELLO table instead).
//!
//! The state machine is engine-agnostic: every handler returns
//! [`LinkCmd`]s that the engine turns into frames, timers, and
//! application up-calls. That keeps AODV unit-testable without a radio.

use crate::packet::{AodvMessage, DataPacket, Frame, NodeId};
use crate::time::{SimDuration, SimTime};
use sim_obs::dethash::DetHashMap;

/// Forwarding cap for data packets: a salvaged packet that keeps finding
/// new routes must still die eventually (the IP TTL's job in real AODV).
const MAX_DATA_HOPS: u32 = 64;

/// How long a route stays valid after its last use.
const ACTIVE_ROUTE_TIMEOUT: SimDuration = SimDuration::from_millis(3_000);

/// Time to wait for an RREP before retrying the flood (doubled per retry).
const RREQ_TIMEOUT: SimDuration = SimDuration::from_millis(200);

/// Total RREQ attempts before giving up (RFC: RREQ_RETRIES + 1 = 3).
const MAX_RREQ_ATTEMPTS: u32 = 3;

/// How long an (origin, rreq_id) pair stays in the duplicate cache
/// (RFC 3561 PATH_DISCOVERY_TIME = 2 × NET_TRAVERSAL_TIME = 5.6 s).
const PATH_DISCOVERY_TIME: SimDuration = SimDuration::from_millis(5_600);

/// A routing-table entry.
#[derive(Debug, Clone, Copy)]
struct Route {
    next_hop: NodeId,
    hop_count: u32,
    dst_seq: u64,
    /// RFC 3561 §6.2: is `dst_seq` a real destination sequence number
    /// (learned from an RREQ/RREP/RERR) or a placeholder? Opportunistic
    /// updates may replace the path of an entry but never erase a known
    /// sequence number — that floor is what keeps stale RREPs out.
    seq_known: bool,
    expires: SimTime,
    valid: bool,
}

/// AODV timers (scheduled through the engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AodvTimer {
    /// RREQ for `dst` may have been lost; `attempt` floods done so far.
    RreqTimeout {
        /// Destination being searched.
        dst: NodeId,
        /// Attempts already made.
        attempt: u32,
    },
}

/// What the engine should do on behalf of this node.
#[derive(Debug)]
pub enum LinkCmd<P> {
    /// Transmit a frame to a specific neighbour.
    SendTo(NodeId, Frame<P>),
    /// Transmit a frame to everyone in range.
    Broadcast(Frame<P>),
    /// Arm an AODV timer.
    SetTimer(SimDuration, AodvTimer),
    /// The packet reached this node: hand it to the application.
    DeliverUp(DataPacket<P>),
    /// The packet is undeliverable: tell the application it failed.
    DropFailed(DataPacket<P>),
    /// A packet this node was only *forwarding* is undeliverable. The
    /// engine counts it (zero-drift accounting) but must not run the
    /// originator's failure callback here — this node does not own the
    /// message; the sender's own ARQ/timeout machinery recovers.
    DropForwarded(DataPacket<P>),
}

/// Per-node AODV state.
#[derive(Debug)]
pub struct AodvState<P> {
    me: NodeId,
    seq: u64,
    next_rreq_id: u64,
    next_packet_id: u64,
    routes: DetHashMap<NodeId, Route>,
    /// RREQ duplicate cache: (origin, rreq_id) → expiry. Entries outlive
    /// their usefulness by at most one purge period, so the cache is
    /// bounded by the RREQ arrival rate × 2 × PATH_DISCOVERY_TIME
    /// instead of growing for the life of the node.
    seen_rreq: DetHashMap<(NodeId, u64), SimTime>,
    /// Next deterministic sweep of expired `seen_rreq` entries.
    seen_rreq_purge_at: SimTime,
    /// Packets waiting for a route, per destination.
    pending: DetHashMap<NodeId, Vec<DataPacket<P>>>,
    /// Statistics: control messages originated or forwarded by this node.
    pub control_messages: u64,
}

impl<P: Clone> AodvState<P> {
    /// Fresh state for node `me`.
    pub fn new(me: NodeId) -> Self {
        AodvState {
            me,
            seq: 0,
            next_rreq_id: 0,
            next_packet_id: 0,
            routes: DetHashMap::default(),
            seen_rreq: DetHashMap::default(),
            seen_rreq_purge_at: SimTime::ZERO,
            pending: DetHashMap::default(),
            control_messages: 0,
        }
    }

    /// Clears volatile routing state after a crash: routes, the RREQ
    /// duplicate cache, and packets buffered for discovery all die with
    /// the node. Sequence numbers and RREQ ids survive the reboot (RFC
    /// 3561 §6.1 recommends persisting them so freshness comparisons stay
    /// monotonic — resetting them would get this node's post-reboot RREQs
    /// suppressed by neighbours' duplicate caches).
    pub fn reset(&mut self) {
        self.routes.clear();
        self.seen_rreq.clear();
        self.pending.clear();
    }

    /// Does this node currently hold a live route to `dst`?
    pub fn has_route(&self, dst: NodeId, now: SimTime) -> bool {
        self.routes.get(&dst).is_some_and(|r| r.valid && r.expires > now)
    }

    /// Next hop toward `dst`, when a live route exists.
    pub fn next_hop(&self, dst: NodeId, now: SimTime) -> Option<NodeId> {
        let mut span = sim_obs::span!("aodv::route_lookup");
        span.add_units(1);
        self.routes.get(&dst).filter(|r| r.valid && r.expires > now).map(|r| r.next_hop)
    }

    fn refresh(&mut self, dst: NodeId, now: SimTime) {
        if let Some(r) = self.routes.get_mut(&dst) {
            r.expires = now + ACTIVE_ROUTE_TIMEOUT;
        }
    }

    /// Installs/updates a route carrying a *known* destination sequence
    /// number (from an RREQ origin_seq or an RREP dst_seq). Freshness
    /// rules per RFC 3561 §6.2: higher seq always wins; an equal seq wins
    /// only when the existing entry is dead or the new path is shorter; a
    /// *lower* seq never replaces a known one — even when the existing
    /// entry is expired or invalidated, its sequence number remains the
    /// floor a stale RREP must beat.
    fn offer_route(
        &mut self,
        dst: NodeId,
        next_hop: NodeId,
        hop_count: u32,
        dst_seq: u64,
        now: SimTime,
    ) {
        if dst == self.me {
            return;
        }
        let expires = now + ACTIVE_ROUTE_TIMEOUT;
        let candidate =
            Route { next_hop, hop_count, dst_seq, seq_known: true, expires, valid: true };
        match self.routes.get_mut(&dst) {
            Some(r) if r.seq_known => {
                let alive = r.valid && r.expires > now;
                if dst_seq > r.dst_seq
                    || (dst_seq == r.dst_seq && (!alive || hop_count < r.hop_count))
                {
                    *r = candidate;
                } else if dst_seq == r.dst_seq && next_hop == r.next_hop {
                    // Same information from the same path: keep it warm.
                    r.expires = expires;
                }
            }
            Some(r) => *r = candidate, // known seq beats a placeholder
            None => {
                self.routes.insert(dst, candidate);
            }
        }
    }

    /// Installs/updates a route learned *without* a destination sequence
    /// number: an overheard neighbour, an application-primed reply path,
    /// or gratuitous refresh from forwarded data. These may re-point or
    /// revive an entry but always carry the old `dst_seq` forward, so a
    /// later stale RREP still has to beat the real floor.
    fn offer_unknown_seq(&mut self, dst: NodeId, next_hop: NodeId, hop_count: u32, now: SimTime) {
        if dst == self.me {
            return;
        }
        let expires = now + ACTIVE_ROUTE_TIMEOUT;
        match self.routes.get_mut(&dst) {
            Some(r) if r.valid && r.expires > now => {
                if next_hop == r.next_hop {
                    r.expires = expires;
                    r.hop_count = r.hop_count.min(hop_count);
                } else if hop_count < r.hop_count {
                    r.next_hop = next_hop;
                    r.hop_count = hop_count;
                    r.expires = expires;
                }
            }
            Some(r) => {
                // Dead entry: revive through the new path, keeping the
                // last known sequence number.
                r.next_hop = next_hop;
                r.hop_count = hop_count;
                r.expires = expires;
                r.valid = true;
            }
            None => {
                self.routes.insert(
                    dst,
                    Route {
                        next_hop,
                        hop_count,
                        dst_seq: 0,
                        seq_known: false,
                        expires,
                        valid: true,
                    },
                );
            }
        }
    }

    /// Application route priming: the upper layer saw traffic from `dst`
    /// arriving via neighbour `via` (`hops` hops out) — typically while
    /// relaying its own query flood — and installs the reverse path so
    /// replies skip route discovery. RREQ-style reverse-route setup, but
    /// driven by application broadcasts the AODV layer never parses.
    pub fn offer_app_route(&mut self, dst: NodeId, via: NodeId, hops: u32, now: SimTime) {
        self.offer_unknown_seq(dst, via, hops.max(1), now);
    }

    /// Is this (origin, rreq_id) flood already in the duplicate cache?
    /// Inserts/refreshes the entry either way, and sweeps expired entries
    /// at a deterministic cadence so the cache stays bounded.
    fn check_seen_rreq(&mut self, origin: NodeId, rreq_id: u64, now: SimTime) -> bool {
        if now >= self.seen_rreq_purge_at {
            self.seen_rreq.retain(|_, &mut expiry| expiry > now);
            self.seen_rreq_purge_at = now + PATH_DISCOVERY_TIME;
        }
        let expiry = now + PATH_DISCOVERY_TIME;
        match self.seen_rreq.insert((origin, rreq_id), expiry) {
            Some(prev) => prev > now, // expired entries do not suppress
            None => false,
        }
    }

    /// Application entry point: send `payload` of `bytes` bytes to `dst`.
    pub fn send(&mut self, dst: NodeId, payload: P, bytes: usize, now: SimTime) -> Vec<LinkCmd<P>> {
        let mut span = sim_obs::span!("aodv::send");
        span.add_bytes(bytes as u64);
        let pkt =
            DataPacket { src: self.me, dst, id: self.next_packet_id, hops: 0, payload, bytes };
        self.next_packet_id += 1;
        if dst == self.me {
            return vec![LinkCmd::DeliverUp(pkt)];
        }
        if let Some(nh) = self.next_hop(dst, now) {
            self.refresh(dst, now);
            return vec![LinkCmd::SendTo(nh, Frame::Data(pkt))];
        }
        // No route: buffer and (maybe) start discovery.
        let discovering = self.pending.contains_key(&dst);
        self.pending.entry(dst).or_default().push(pkt);
        if discovering {
            return Vec::new();
        }
        self.start_discovery(dst, 1, now)
    }

    fn start_discovery(&mut self, dst: NodeId, attempt: u32, now: SimTime) -> Vec<LinkCmd<P>> {
        self.seq += 1;
        let rreq_id = self.next_rreq_id;
        self.next_rreq_id += 1;
        self.seen_rreq.insert((self.me, rreq_id), now + PATH_DISCOVERY_TIME);
        self.control_messages += 1;
        let msg =
            AodvMessage::Rreq { rreq_id, origin: self.me, origin_seq: self.seq, dst, hop_count: 0 };
        // Exponential back-off per RFC (binary, capped by attempts).
        let timeout = RREQ_TIMEOUT.mul_f64(f64::from(1 << (attempt - 1).min(4)));
        vec![
            LinkCmd::Broadcast(Frame::Aodv(msg)),
            LinkCmd::SetTimer(timeout, AodvTimer::RreqTimeout { dst, attempt }),
        ]
    }

    /// Handles a received frame. `link_up` answers whether the link from
    /// this node to a given next hop is usable right now; it is asked at
    /// most once, and only when a data packet is forwarded along a live
    /// route, so the engine evaluates it on demand.
    pub fn on_frame(
        &mut self,
        link_from: NodeId,
        frame: Frame<P>,
        now: SimTime,
        link_up: impl FnOnce(NodeId) -> bool,
    ) -> Vec<LinkCmd<P>> {
        let mut span = sim_obs::span!("aodv::on_frame");
        span.add_bytes(frame.bytes() as u64);
        span.add_units(1);
        // Hearing any frame from a neighbour is evidence of a 1-hop route.
        self.offer_unknown_seq(link_from, link_from, 1, now);
        match frame {
            Frame::Aodv(msg) => self.on_aodv(link_from, msg, now),
            Frame::Data(pkt) => self.on_data(link_from, pkt, now, link_up),
            Frame::Bcast { .. } | Frame::Hello => {
                unreachable!("broadcasts and beacons are delivered by the engine, not AODV")
            }
        }
    }

    fn on_aodv(&mut self, from: NodeId, msg: AodvMessage, now: SimTime) -> Vec<LinkCmd<P>> {
        match msg {
            AodvMessage::Rreq { rreq_id, origin, origin_seq, dst, hop_count } => {
                if origin == self.me || self.check_seen_rreq(origin, rreq_id, now) {
                    return Vec::new(); // my own flood, or already processed
                }
                // Reverse route toward the origin.
                self.offer_route(origin, from, hop_count + 1, origin_seq, now);
                if dst == self.me {
                    // Destination replies. Bump own seq (RFC §6.6.1).
                    self.seq = self.seq.max(origin_seq) + 1;
                    self.control_messages += 1;
                    let rrep =
                        AodvMessage::Rrep { origin, dst: self.me, dst_seq: self.seq, hop_count: 0 };
                    return vec![LinkCmd::SendTo(from, Frame::Aodv(rrep))];
                }
                self.control_messages += 1;
                let fwd = AodvMessage::Rreq {
                    rreq_id,
                    origin,
                    origin_seq,
                    dst,
                    hop_count: hop_count + 1,
                };
                vec![LinkCmd::Broadcast(Frame::Aodv(fwd))]
            }
            AodvMessage::Rrep { origin, dst, dst_seq, hop_count } => {
                // Forward route toward the replying destination.
                self.offer_route(dst, from, hop_count + 1, dst_seq, now);
                if origin == self.me {
                    // Discovery finished: flush buffered packets.
                    return self.flush_pending(dst, now);
                }
                // Relay the RREP along the reverse route.
                match self.next_hop(origin, now) {
                    Some(nh) => {
                        self.control_messages += 1;
                        let fwd =
                            AodvMessage::Rrep { origin, dst, dst_seq, hop_count: hop_count + 1 };
                        vec![LinkCmd::SendTo(nh, Frame::Aodv(fwd))]
                    }
                    None => Vec::new(), // reverse route evaporated; flood will retry
                }
            }
            AodvMessage::Rerr { dst, dst_seq } => {
                // Invalidate our route if it goes through the sender.
                if let Some(r) = self.routes.get_mut(&dst) {
                    if r.valid && r.next_hop == from && r.dst_seq <= dst_seq {
                        r.valid = false;
                    }
                }
                Vec::new()
            }
        }
    }

    fn on_data(
        &mut self,
        link_from: NodeId,
        mut pkt: DataPacket<P>,
        now: SimTime,
        link_up: impl FnOnce(NodeId) -> bool,
    ) -> Vec<LinkCmd<P>> {
        // Gratuitous-RREP-style refresh: the packet's journey so far is a
        // working reverse path toward its source.
        pkt.hops += 1;
        self.offer_unknown_seq(pkt.src, link_from, pkt.hops, now);
        if pkt.dst == self.me {
            return vec![LinkCmd::DeliverUp(pkt)];
        }
        if pkt.hops >= MAX_DATA_HOPS {
            // Routing-loop fuse (IP TTL in real AODV).
            return vec![self.drop_at_relay(pkt)];
        }
        // Forward along the route; detect broken links at forwarding time
        // (modelling link-layer feedback).
        if let Some(nh) = self.next_hop(pkt.dst, now) {
            if link_up(nh) {
                self.refresh(pkt.dst, now);
                return vec![LinkCmd::SendTo(nh, Frame::Data(pkt))];
            }
            // Link break: invalidate with a bumped sequence number (RFC
            // §6.11) so the RERR also kills neighbours' equally-fresh
            // copies of the route, then salvage the packet behind a
            // targeted rediscovery instead of dropping it.
            let mut cmds = vec![self.break_route(pkt.dst)];
            let dst = pkt.dst;
            let discovering = self.pending.contains_key(&dst);
            self.pending.entry(dst).or_default().push(pkt);
            if !discovering {
                cmds.extend(self.start_discovery(dst, 1, now));
            }
            return cmds;
        }
        // No route at an intermediate hop (expired underway): tell the
        // neighbourhood and surface the drop instead of losing the packet
        // silently.
        let mut cmds = Vec::new();
        if let Some(r) = self.routes.get_mut(&pkt.dst) {
            if r.seq_known {
                r.dst_seq += 1;
            }
            let dst_seq = r.dst_seq;
            self.control_messages += 1;
            cmds.push(LinkCmd::Broadcast(Frame::Aodv(AodvMessage::Rerr { dst: pkt.dst, dst_seq })));
        }
        cmds.push(self.drop_at_relay(pkt));
        cmds
    }

    /// Invalidates the route to `dst` after link-layer failure, bumping
    /// its sequence number (RFC 3561 §6.11), and builds the RERR
    /// broadcast advertising the bumped number.
    fn break_route(&mut self, dst: NodeId) -> LinkCmd<P> {
        let r = self.routes.get_mut(&dst).expect("break_route follows next_hop()");
        r.valid = false;
        if r.seq_known {
            r.dst_seq += 1;
        }
        let dst_seq = r.dst_seq;
        self.control_messages += 1;
        LinkCmd::Broadcast(Frame::Aodv(AodvMessage::Rerr { dst, dst_seq }))
    }

    /// The undeliverable-packet command for this node: the originator
    /// gets the failure callback, a mere relay only gets it counted.
    fn drop_at_relay(&self, pkt: DataPacket<P>) -> LinkCmd<P> {
        if pkt.src == self.me {
            LinkCmd::DropFailed(pkt)
        } else {
            LinkCmd::DropForwarded(pkt)
        }
    }

    /// Handles an AODV timer.
    pub fn on_timer(&mut self, timer: AodvTimer, now: SimTime) -> Vec<LinkCmd<P>> {
        match timer {
            AodvTimer::RreqTimeout { dst, attempt } => {
                if self.has_route(dst, now) || !self.pending.contains_key(&dst) {
                    return Vec::new(); // discovery succeeded (or nothing waits)
                }
                if attempt < MAX_RREQ_ATTEMPTS {
                    return self.start_discovery(dst, attempt + 1, now);
                }
                // Give up: fail own packets to the application, count
                // salvaged third-party ones.
                let pkts = self.pending.remove(&dst).unwrap_or_default();
                pkts.into_iter().map(|p| self.drop_at_relay(p)).collect()
            }
        }
    }

    fn flush_pending(&mut self, dst: NodeId, now: SimTime) -> Vec<LinkCmd<P>> {
        let Some(pkts) = self.pending.remove(&dst) else {
            return Vec::new();
        };
        let Some(nh) = self.next_hop(dst, now) else {
            // Route vanished between RREP receipt and flush; re-buffer.
            self.pending.insert(dst, pkts);
            return Vec::new();
        };
        self.refresh(dst, now);
        pkts.into_iter().map(|p| LinkCmd::SendTo(nh, Frame::Data(p))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(me: NodeId) -> AodvState<u32> {
        AodvState::new(me)
    }

    const ALWAYS: fn(NodeId) -> bool = |_| true;
    const NEVER: fn(NodeId) -> bool = |_| false;

    #[test]
    fn send_without_route_floods_rreq() {
        let mut a = state(0);
        let cmds = a.send(5, 42, 100, SimTime::ZERO);
        assert!(matches!(
            cmds[0],
            LinkCmd::Broadcast(Frame::Aodv(AodvMessage::Rreq { dst: 5, .. }))
        ));
        assert!(matches!(
            cmds[1],
            LinkCmd::SetTimer(_, AodvTimer::RreqTimeout { dst: 5, attempt: 1 })
        ));
    }

    #[test]
    fn second_send_while_discovering_only_buffers() {
        let mut a = state(0);
        a.send(5, 1, 10, SimTime::ZERO);
        let cmds = a.send(5, 2, 10, SimTime::ZERO);
        assert!(cmds.is_empty(), "no second flood while one is outstanding");
    }

    #[test]
    fn self_send_delivers_up() {
        let mut a = state(3);
        let cmds = a.send(3, 9, 10, SimTime::ZERO);
        assert!(matches!(&cmds[0], LinkCmd::DeliverUp(p) if p.payload == 9));
    }

    #[test]
    fn destination_replies_with_rrep() {
        let mut d = state(5);
        let rreq = Frame::Aodv(AodvMessage::Rreq {
            rreq_id: 0,
            origin: 0,
            origin_seq: 1,
            dst: 5,
            hop_count: 2,
        });
        let cmds = d.on_frame(4, rreq, SimTime::ZERO, ALWAYS);
        assert!(matches!(
            cmds[0],
            LinkCmd::SendTo(4, Frame::Aodv(AodvMessage::Rrep { origin: 0, dst: 5, .. }))
        ));
        // Reverse route to the origin was installed.
        assert_eq!(d.next_hop(0, SimTime::ZERO), Some(4));
    }

    #[test]
    fn intermediate_rebroadcasts_once() {
        let mut i = state(2);
        let rreq = AodvMessage::Rreq { rreq_id: 7, origin: 0, origin_seq: 1, dst: 5, hop_count: 0 };
        let c1 = i.on_frame(0, Frame::Aodv(rreq.clone()), SimTime::ZERO, ALWAYS);
        assert!(matches!(
            c1[0],
            LinkCmd::Broadcast(Frame::Aodv(AodvMessage::Rreq { hop_count: 1, .. }))
        ));
        // Duplicate flood member is suppressed.
        let c2 = i.on_frame(1, Frame::Aodv(rreq), SimTime::ZERO, ALWAYS);
        assert!(c2.is_empty());
    }

    #[test]
    fn rrep_completes_discovery_and_flushes() {
        let mut a = state(0);
        a.send(5, 42, 100, SimTime::ZERO);
        let rrep = Frame::Aodv(AodvMessage::Rrep { origin: 0, dst: 5, dst_seq: 2, hop_count: 1 });
        let cmds = a.on_frame(3, rrep, SimTime::ZERO, ALWAYS);
        assert_eq!(cmds.len(), 1);
        assert!(matches!(&cmds[0], LinkCmd::SendTo(3, Frame::Data(p)) if p.payload == 42));
        assert_eq!(a.next_hop(5, SimTime::ZERO), Some(3));
    }

    #[test]
    fn rrep_relays_along_reverse_route() {
        let mut i = state(2);
        // Reverse route to origin 0 exists via node 1 (learned from an RREQ).
        let rreq = AodvMessage::Rreq { rreq_id: 0, origin: 0, origin_seq: 1, dst: 5, hop_count: 0 };
        i.on_frame(1, Frame::Aodv(rreq), SimTime::ZERO, ALWAYS);
        let rrep = Frame::Aodv(AodvMessage::Rrep { origin: 0, dst: 5, dst_seq: 2, hop_count: 0 });
        let cmds = i.on_frame(3, rrep, SimTime::ZERO, ALWAYS);
        assert!(matches!(
            cmds[0],
            LinkCmd::SendTo(1, Frame::Aodv(AodvMessage::Rrep { hop_count: 1, .. }))
        ));
        // Forward route to 5 installed via 3.
        assert_eq!(i.next_hop(5, SimTime::ZERO), Some(3));
    }

    #[test]
    fn forwarding_with_broken_link_emits_rerr() {
        let mut i = state(2);
        // Install a route to 5 via 3.
        let rrep = Frame::Aodv(AodvMessage::Rrep { origin: 0, dst: 5, dst_seq: 2, hop_count: 0 });
        i.on_frame(3, rrep, SimTime::ZERO, ALWAYS);
        let pkt = DataPacket { src: 0, dst: 5, id: 0, hops: 1, payload: 1u32, bytes: 10 };
        let cmds = i.on_data(1, pkt, SimTime::ZERO, NEVER);
        assert!(matches!(
            cmds[0],
            LinkCmd::Broadcast(Frame::Aodv(AodvMessage::Rerr { dst: 5, .. }))
        ));
        assert!(!i.has_route(5, SimTime::ZERO));
    }

    #[test]
    fn link_break_rerr_bumps_dst_seq_and_invalidates_equally_fresh_neighbors() {
        // RFC 3561 §6.11: the RERR must advertise seq+1, otherwise a
        // neighbour holding the same seq through us would keep its route.
        let mut i = state(2);
        let rrep = Frame::Aodv(AodvMessage::Rrep { origin: 0, dst: 5, dst_seq: 7, hop_count: 0 });
        i.on_frame(3, rrep, SimTime::ZERO, ALWAYS);
        let pkt = DataPacket { src: 0, dst: 5, id: 0, hops: 1, payload: 1u32, bytes: 10 };
        let cmds = i.on_data(1, pkt, SimTime::ZERO, NEVER);
        let LinkCmd::Broadcast(Frame::Aodv(AodvMessage::Rerr { dst: 5, dst_seq })) = cmds[0] else {
            panic!("expected RERR, got {:?}", cmds[0]);
        };
        assert_eq!(dst_seq, 8, "link-break RERR must bump the sequence number");

        // A neighbour whose route to 5 runs through node 2 with the same
        // pre-break seq must invalidate on hearing it.
        let mut n = state(9);
        let rrep = Frame::Aodv(AodvMessage::Rrep { origin: 9, dst: 5, dst_seq: 7, hop_count: 1 });
        n.on_frame(2, rrep, SimTime::ZERO, ALWAYS);
        assert!(n.has_route(5, SimTime::ZERO));
        n.on_frame(2, Frame::Aodv(AodvMessage::Rerr { dst: 5, dst_seq }), SimTime::ZERO, ALWAYS);
        assert!(!n.has_route(5, SimTime::ZERO), "equally-fresh stale route must die");
    }

    #[test]
    fn link_break_salvages_packet_behind_targeted_rediscovery() {
        let mut i = state(2);
        let rrep = Frame::Aodv(AodvMessage::Rrep { origin: 0, dst: 5, dst_seq: 2, hop_count: 0 });
        i.on_frame(3, rrep, SimTime::ZERO, ALWAYS);
        let pkt = DataPacket { src: 0, dst: 5, id: 0, hops: 1, payload: 42u32, bytes: 10 };
        let cmds = i.on_data(1, pkt, SimTime::ZERO, NEVER);
        // RERR, then a fresh RREQ for the same destination plus its timer.
        assert!(matches!(cmds[0], LinkCmd::Broadcast(Frame::Aodv(AodvMessage::Rerr { .. }))));
        assert!(matches!(
            cmds[1],
            LinkCmd::Broadcast(Frame::Aodv(AodvMessage::Rreq { dst: 5, .. }))
        ));
        assert!(matches!(cmds[2], LinkCmd::SetTimer(_, AodvTimer::RreqTimeout { dst: 5, .. })));
        // Rediscovery succeeds: the salvaged packet flows via the new hop.
        let rrep = Frame::Aodv(AodvMessage::Rrep { origin: 2, dst: 5, dst_seq: 9, hop_count: 0 });
        let cmds = i.on_frame(4, rrep, SimTime::ZERO, ALWAYS);
        assert!(
            matches!(&cmds[0], LinkCmd::SendTo(4, Frame::Data(p)) if p.payload == 42),
            "salvaged packet must be re-sent, got {cmds:?}"
        );
    }

    #[test]
    fn intermediate_no_route_drop_emits_rerr_and_is_counted() {
        // A relay with no route at all must not lose the packet silently.
        let mut i = state(2);
        let pkt = DataPacket { src: 0, dst: 5, id: 0, hops: 1, payload: 1u32, bytes: 10 };
        let cmds = i.on_data(0, pkt, SimTime::ZERO, ALWAYS);
        assert!(
            matches!(&cmds[0], LinkCmd::DropForwarded(p) if p.src == 0),
            "relay drop must be DropForwarded (no app callback), got {cmds:?}"
        );

        // With an expired entry the RERR goes out too, seq bumped.
        let mut j = state(2);
        let rrep = Frame::Aodv(AodvMessage::Rrep { origin: 0, dst: 5, dst_seq: 4, hop_count: 0 });
        j.on_frame(3, rrep, SimTime::ZERO, ALWAYS);
        let later = SimTime::ZERO + SimDuration::from_secs_f64(10.0);
        let pkt = DataPacket { src: 0, dst: 5, id: 1, hops: 1, payload: 1u32, bytes: 10 };
        let cmds = j.on_data(0, pkt, later, ALWAYS);
        assert!(matches!(
            cmds[0],
            LinkCmd::Broadcast(Frame::Aodv(AodvMessage::Rerr { dst: 5, dst_seq: 5 }))
        ));
        assert!(matches!(cmds[1], LinkCmd::DropForwarded(_)));
    }

    #[test]
    fn give_up_partitions_own_vs_forwarded_packets() {
        let mut i = state(2);
        // Own packet buffered by discovery.
        i.send(5, 1, 10, SimTime::ZERO);
        // A forwarded packet salvaged into the same pending queue.
        let rrep = Frame::Aodv(AodvMessage::Rrep { origin: 0, dst: 5, dst_seq: 2, hop_count: 0 });
        i.on_frame(3, rrep, SimTime::ZERO, ALWAYS);
        let pkt = DataPacket { src: 0, dst: 5, id: 0, hops: 1, payload: 2u32, bytes: 10 };
        i.on_data(1, pkt, SimTime::ZERO, NEVER);
        let cmds = i.on_timer(
            AodvTimer::RreqTimeout { dst: 5, attempt: 3 },
            SimTime::ZERO + SimDuration::from_secs_f64(10.0),
        );
        let failed: Vec<_> = cmds
            .iter()
            .filter(|c| matches!(c, LinkCmd::DropFailed(p) if p.src == 2))
            .collect();
        let forwarded: Vec<_> = cmds
            .iter()
            .filter(|c| matches!(c, LinkCmd::DropForwarded(p) if p.src == 0))
            .collect();
        assert_eq!(failed.len(), 1, "own packet fails to the app: {cmds:?}");
        assert_eq!(forwarded.len(), 1, "relayed packet is only counted: {cmds:?}");
    }

    #[test]
    fn rerr_invalidates_matching_route() {
        let mut a = state(0);
        let rrep = Frame::Aodv(AodvMessage::Rrep { origin: 0, dst: 5, dst_seq: 2, hop_count: 0 });
        a.on_frame(3, rrep, SimTime::ZERO, ALWAYS);
        assert!(a.has_route(5, SimTime::ZERO));
        a.on_frame(3, Frame::Aodv(AodvMessage::Rerr { dst: 5, dst_seq: 2 }), SimTime::ZERO, ALWAYS);
        assert!(!a.has_route(5, SimTime::ZERO));
    }

    #[test]
    fn routes_expire_lazily() {
        let mut a = state(0);
        let rrep = Frame::Aodv(AodvMessage::Rrep { origin: 0, dst: 5, dst_seq: 2, hop_count: 0 });
        a.on_frame(3, rrep, SimTime::ZERO, ALWAYS);
        let later = SimTime::ZERO + SimDuration::from_secs_f64(10.0);
        assert!(!a.has_route(5, later), "route must expire after 3 s idle");
    }

    #[test]
    fn rreq_retry_then_give_up() {
        let mut a = state(0);
        a.send(5, 42, 100, SimTime::ZERO);
        // First timeout: retry.
        let c1 = a.on_timer(AodvTimer::RreqTimeout { dst: 5, attempt: 1 }, SimTime(1));
        assert!(matches!(c1[0], LinkCmd::Broadcast(_)));
        let c2 = a.on_timer(AodvTimer::RreqTimeout { dst: 5, attempt: 2 }, SimTime(2));
        assert!(matches!(c2[0], LinkCmd::Broadcast(_)));
        // Third (== MAX_RREQ_ATTEMPTS) timeout: give up and fail the packet.
        let c3 = a.on_timer(AodvTimer::RreqTimeout { dst: 5, attempt: 3 }, SimTime(3));
        assert!(matches!(&c3[0], LinkCmd::DropFailed(p) if p.payload == 42));
    }

    #[test]
    fn timer_after_success_is_inert() {
        let mut a = state(0);
        a.send(5, 42, 100, SimTime::ZERO);
        let rrep = Frame::Aodv(AodvMessage::Rrep { origin: 0, dst: 5, dst_seq: 2, hop_count: 0 });
        a.on_frame(3, rrep, SimTime::ZERO, ALWAYS);
        let cmds = a.on_timer(AodvTimer::RreqTimeout { dst: 5, attempt: 1 }, SimTime(1));
        assert!(cmds.is_empty());
    }

    #[test]
    fn fresher_seq_replaces_route_longer_hops_do_not() {
        let mut a = state(0);
        let now = SimTime::ZERO;
        let mk = |dst_seq, hop_count| {
            Frame::Aodv(AodvMessage::Rrep { origin: 9, dst: 5, dst_seq, hop_count })
        };
        a.on_frame(3, mk(2, 1), now, ALWAYS); // via 3, 2 hops, seq 2
        assert_eq!(a.next_hop(5, now), Some(3));
        a.on_frame(4, mk(2, 5), now, ALWAYS); // same seq, longer → ignored
        assert_eq!(a.next_hop(5, now), Some(3));
        a.on_frame(4, mk(3, 5), now, ALWAYS); // fresher seq → wins
        assert_eq!(a.next_hop(5, now), Some(4));
    }

    #[test]
    fn hearing_a_frame_installs_one_hop_route() {
        let mut a = state(0);
        a.on_frame(
            7,
            Frame::Aodv(AodvMessage::Rerr { dst: 99, dst_seq: 0 }),
            SimTime::ZERO,
            ALWAYS,
        );
        assert_eq!(a.next_hop(7, SimTime::ZERO), Some(7));
    }

    #[test]
    fn seen_rreq_expires_and_stays_bounded() {
        let mut i = state(2);
        let rreq = AodvMessage::Rreq { rreq_id: 7, origin: 0, origin_seq: 1, dst: 5, hop_count: 0 };
        let c1 = i.on_frame(0, Frame::Aodv(rreq.clone()), SimTime::ZERO, ALWAYS);
        assert!(matches!(c1[0], LinkCmd::Broadcast(_)));
        // Within PATH_DISCOVERY_TIME: suppressed.
        let just_before = SimTime::ZERO + SimDuration::from_secs_f64(5.0);
        assert!(i.on_frame(1, Frame::Aodv(rreq.clone()), just_before, ALWAYS).is_empty());
        // After expiry the same flood id is processed again (a rebooted
        // origin reusing ids must not be deaf-spotted forever)...
        let after = SimTime::ZERO + SimDuration::from_secs_f64(12.0);
        let c2 = i.on_frame(1, Frame::Aodv(rreq), after, ALWAYS);
        assert!(matches!(c2[0], LinkCmd::Broadcast(_)), "expired entry must not suppress");
        // ...and the periodic sweep keeps the cache bounded: feed one
        // flood per second for a while; live entries span at most
        // 2 × PATH_DISCOVERY_TIME regardless of how many were seen.
        let mut j = state(3);
        for k in 0..200u64 {
            let at = SimTime(k * 1_000_000);
            let rreq =
                AodvMessage::Rreq { rreq_id: k, origin: 9, origin_seq: 1, dst: 5, hop_count: 0 };
            j.on_frame(1, Frame::Aodv(rreq), at, ALWAYS);
        }
        assert!(
            j.seen_rreq.len() <= 2 * 6 + 4,
            "duplicate cache must stay bounded, holds {}",
            j.seen_rreq.len()
        );
    }

    #[test]
    fn stale_rrep_cannot_beat_expired_fresher_route() {
        // Satellite regression: a "heard a neighbour" placeholder used to
        // clobber an expired-but-fresher entry wholesale (seq included),
        // after which a stale RREP with a *lower* dst_seq won. The known
        // sequence number must survive both steps.
        let mut a = state(0);
        let rrep = Frame::Aodv(AodvMessage::Rrep { origin: 0, dst: 5, dst_seq: 9, hop_count: 1 });
        a.on_frame(3, rrep, SimTime::ZERO, ALWAYS);
        // Route to 5 expires…
        let later = SimTime::ZERO + SimDuration::from_secs_f64(5.0);
        assert!(!a.has_route(5, later));
        // …then we overhear node 5 directly: revives the entry as 1-hop.
        a.on_frame(5, Frame::Aodv(AodvMessage::Rerr { dst: 99, dst_seq: 0 }), later, ALWAYS);
        assert_eq!(a.next_hop(5, later), Some(5));
        // A stale RREP (seq 4 < 9) must not win, now or ever.
        let stale = Frame::Aodv(AodvMessage::Rrep { origin: 0, dst: 5, dst_seq: 4, hop_count: 3 });
        a.on_frame(7, stale, later, ALWAYS);
        assert_eq!(a.next_hop(5, later), Some(5), "stale RREP must not replace the route");
        // A genuinely fresher RREP still wins.
        let fresh = Frame::Aodv(AodvMessage::Rrep { origin: 0, dst: 5, dst_seq: 10, hop_count: 3 });
        a.on_frame(7, fresh, later, ALWAYS);
        assert_eq!(a.next_hop(5, later), Some(7));
    }

    #[test]
    fn app_primed_route_skips_discovery() {
        // The BF-flood reverse path: the app primes a route toward the
        // originator; a subsequent send uses it instead of flooding.
        let mut a = state(4);
        a.offer_app_route(0, 3, 2, SimTime::ZERO);
        let cmds = a.send(0, 42, 10, SimTime::ZERO);
        assert_eq!(cmds.len(), 1);
        assert!(matches!(&cmds[0], LinkCmd::SendTo(3, Frame::Data(p)) if p.payload == 42));
    }

    #[test]
    fn forwarded_data_installs_reverse_route_to_source() {
        // Gratuitous-RREP-style: relaying (or receiving) data teaches the
        // reverse path toward its source.
        let mut d = state(5);
        let pkt = DataPacket { src: 0, dst: 5, id: 0, hops: 2, payload: 1u32, bytes: 10 };
        let cmds = d.on_data(3, pkt, SimTime::ZERO, ALWAYS);
        assert!(matches!(cmds[0], LinkCmd::DeliverUp(_)));
        assert_eq!(d.next_hop(0, SimTime::ZERO), Some(3), "reverse route to src via relay");
    }

    #[test]
    fn priming_never_downgrades_a_known_seq() {
        let mut a = state(0);
        let rrep = Frame::Aodv(AodvMessage::Rrep { origin: 0, dst: 5, dst_seq: 9, hop_count: 2 });
        a.on_frame(3, rrep, SimTime::ZERO, ALWAYS);
        // Priming a shorter path re-points the route…
        a.offer_app_route(5, 8, 1, SimTime::ZERO);
        assert_eq!(a.next_hop(5, SimTime::ZERO), Some(8));
        // …but the seq floor survives: a stale RREP still loses.
        let stale = Frame::Aodv(AodvMessage::Rrep { origin: 0, dst: 5, dst_seq: 8, hop_count: 1 });
        a.on_frame(7, stale, SimTime::ZERO, ALWAYS);
        assert_eq!(a.next_hop(5, SimTime::ZERO), Some(8));
    }
}
