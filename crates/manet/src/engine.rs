//! The discrete-event simulation engine: nodes, radio, AODV, and the
//! application layer, driven by one event queue.
//!
//! The engine owns every per-node component. Applications interact with the
//! world exclusively through a [`NodeCtx`] handed into their callbacks; the
//! context records commands (send, broadcast, timers) that the engine
//! executes after the callback returns, which keeps borrows simple and the
//! event order deterministic.
//!
//! Neighbour discovery is demand-driven. Two parties may ask: AODV, which
//! needs one link checked when it forwards data along a route (a point
//! test, `Geometry::link_up`), and the application, whose
//! [`NodeCtx::neighbors`] builds the list on its first call inside a
//! callback. A delivered frame whose handlers ask neither question costs
//! no grid query and no position lookups beyond its own.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::aodv::{AodvState, AodvTimer, LinkCmd};
use crate::events::EventQueue;
use crate::fault::{FaultAction, FaultPlan};
use crate::grid::SpatialGrid;
use crate::mobility::{MobilityConfig, MobilityState, Pos};
use crate::packet::{DataPacket, Frame, NodeId};
use crate::radio::RadioConfig;
use crate::time::{SimDuration, SimTime};
use crate::trace::{
    narrow, EventTrace, FrameTag, FrameTraceLog, LossCause, NetStats, QueryEvent, QueryId,
    QueryTraceLog, QueryTraceState, TraceEvent,
};
use sim_obs::dethash::DetHashSet;

/// Fraction of the radio range the grid snapshot may drift before a sweep:
/// queries widen their search box by at most this fraction of the range, so
/// candidate sets stay within the 3×3-cell neighbourhood while sweeps remain
/// rare (one every `0.2·range/max_speed` simulated seconds).
const GRID_SLACK_FACTOR: f64 = 0.2;

/// How nodes learn who their one-hop neighbours are.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NeighborMode {
    /// Idealized oracle: `neighbors()` reflects true positions instantly
    /// (models perfect beaconing with zero overhead; the default).
    Oracle,
    /// Periodic HELLO beacons: each node broadcasts a tiny frame every
    /// `period`; a neighbour entry expires `expiry` after its last beacon.
    /// Costs real frames and energy, and neighbour views lag mobility —
    /// stale entries and late discoveries become possible, as in a real
    /// 802.11 MANET.
    Beacon {
        /// Beacon period.
        period: SimDuration,
        /// Entry lifetime after the last heard beacon.
        expiry: SimDuration,
    },
}

/// Metadata accompanying an application message delivery.
#[derive(Debug, Clone, Copy)]
pub struct MsgMeta {
    /// End-to-end source node.
    pub src: NodeId,
    /// Node the frame was physically received from (last hop).
    pub link_from: NodeId,
    /// `true` when the message arrived as a one-hop broadcast.
    pub broadcast: bool,
    /// Radio hops travelled: 1 for a one-hop broadcast, the routed hop
    /// count for a unicast (0 for a self-send).
    pub hops: u32,
}

/// The application running on every node. One type per simulation;
/// per-node behaviour is data inside the implementor.
pub trait Application<P> {
    /// A routed unicast or one-hop broadcast arrived.
    fn on_message(&mut self, ctx: &mut NodeCtx<P>, meta: MsgMeta, payload: P);

    /// An application timer armed via [`NodeCtx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut NodeCtx<P>, token: u64);

    /// A unicast previously submitted could not be delivered (route
    /// discovery exhausted its retries).
    fn on_delivery_failed(&mut self, _ctx: &mut NodeCtx<P>, _dst: NodeId, _payload: P) {}

    /// The node crashed (fault injection): discard volatile state. No
    /// context is available — a dead node cannot send or arm timers.
    /// Whatever the implementor keeps is, by definition, the state that
    /// survives the reboot (the device's storage partition).
    fn on_crash(&mut self) {}

    /// The node rebooted after a crash: re-arm periodic timers here. All
    /// timers armed before the crash were invalidated.
    fn on_revive(&mut self, _ctx: &mut NodeCtx<P>) {}
}

/// Commands an application can issue from inside a callback.
enum AppCmd<P> {
    Unicast { dst: NodeId, payload: P, bytes: usize },
    Broadcast { payload: P, bytes: usize },
    Timer { delay: SimDuration, token: u64 },
    RejectFrame,
    PrimeRoute { dst: NodeId, via: NodeId, hops: u32 },
}

/// The application's window into the simulation during a callback.
pub struct NodeCtx<'a, P> {
    /// Current simulated time.
    pub now: SimTime,
    /// This node's id.
    pub id: NodeId,
    /// This node's current position.
    pub position: Pos,
    geo: &'a mut Geometry,
    /// The neighbour list, once somebody has asked for it.
    neighbors: Option<Vec<NodeId>>,
    cmds: Vec<AppCmd<P>>,
    qtrace: Option<&'a mut QueryTraceState>,
}

impl<'a, P> NodeCtx<'a, P> {
    /// This node's one-hop neighbours under the simulator's
    /// [`NeighborMode`], ascending by id. Built on the first call inside a
    /// callback and reused by later calls (time and link state cannot
    /// change while the callback runs); a callback that never asks pays
    /// nothing.
    pub fn neighbors(&mut self) -> &[NodeId] {
        self.neighbors.get_or_insert_with(|| {
            let mut list = Vec::new();
            self.geo.neighbors_into(self.id, self.now, &mut list);
            list
        })
    }

    /// Records a structured query-trace event at the current node and time.
    /// A no-op (one `Option` check) when tracing is disabled.
    pub fn trace(&mut self, query: Option<QueryId>, event: QueryEvent) {
        if let Some(qt) = self.qtrace.as_deref_mut() {
            qt.record(self.now, self.id, query, event);
        }
    }

    /// Sends `payload` to `dst` via AODV multi-hop routing. `bytes` is the
    /// payload's wire size.
    pub fn send_unicast(&mut self, dst: NodeId, payload: P, bytes: usize) {
        self.cmds.push(AppCmd::Unicast { dst, payload, bytes });
    }

    /// One-hop broadcast to every current neighbour (not routed, not
    /// retransmitted).
    pub fn broadcast(&mut self, payload: P, bytes: usize) {
        self.cmds.push(AppCmd::Broadcast { payload, bytes });
    }

    /// Arms an application timer delivering `token` after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.cmds.push(AppCmd::Timer { delay, token });
    }

    /// Counts a delivered frame the application refused to process
    /// (defensive decode or an active defense —
    /// [`NetStats::app_frames_rejected`]). Pair every call with a
    /// [`QueryEvent::AttackFrameDropped`] trace so zero-drift can
    /// reconcile the books.
    pub fn reject_frame(&mut self) {
        self.cmds.push(AppCmd::RejectFrame);
    }

    /// Primes this node's AODV table with a reverse route: `dst` is
    /// reachable via neighbour `via` in `hops` hops. Applications that
    /// relay their own query floods call this with the flood's last hop
    /// (RREQ-style reverse-path setup), so unicast replies find warm
    /// routes instead of each replier flooding its own RREQ. The offer
    /// carries no destination sequence number and can never downgrade
    /// routing state AODV learned for itself.
    pub fn prime_route(&mut self, dst: NodeId, via: NodeId, hops: u32) {
        self.cmds.push(AppCmd::PrimeRoute { dst, via, hops });
    }
}

enum Event<P> {
    /// One transmission landing: every receiver that survived the
    /// transmit-time gates, in receiver order — `earlier` (empty, and
    /// allocation-free, for a unicast) then `last`, who takes the frame
    /// itself while the others get clones. The frame sits behind a pointer
    /// so a wheel entry stays one cache line whatever the payload weighs.
    Deliver {
        link_from: NodeId,
        earlier: Vec<NodeId>,
        last: NodeId,
        frame: Box<Frame<P>>,
    },
    // Timers carry the arming node's epoch: a crash bumps the epoch, so
    // timers armed before it fire as no-ops — volatile state dies with
    // the node instead of resurrecting through the queue.
    AppTimer {
        node: NodeId,
        token: u64,
        epoch: u64,
    },
    AodvTimer {
        node: NodeId,
        timer: AodvTimer,
        epoch: u64,
    },
    Beacon {
        node: NodeId,
    },
    Fault(FaultAction),
}

struct NodeEntry<P, A> {
    aodv: AodvState<P>,
    app: A,
}

/// Who is where, who is up and who can hear whom: everything a link or
/// neighbourhood question needs, and nothing of the per-node protocol
/// state in [`NodeEntry`]. It is one struct so that `dispatch` can lend it
/// to AODV's link predicate, and `run_app` to the [`NodeCtx`], while
/// `nodes[i].aodv` / `nodes[i].app` are mutably borrowed beside it — which
/// is what lets both questions be answered on demand instead of ahead of
/// every callback.
struct Geometry {
    radio: RadioConfig,
    neighbor_mode: NeighborMode,
    /// Per-node mobility model.
    mobility: Vec<MobilityState>,
    /// Lazily cached positions; entry `i` is exact when `pos_stamp[i]`
    /// equals the current event time (see [`Self::pos_of`]).
    positions: Vec<Pos>,
    /// Event time at which each cached position was computed.
    pos_stamp: Vec<SimTime>,
    /// Spatial index over bounded-staleness positions (cell = radio range).
    grid: SpatialGrid,
    /// When the grid snapshot was last refreshed for every node.
    grid_last_sweep: SimTime,
    /// Sweep cadence: `GRID_SLACK_FACTOR · range / max_speed`, keeping
    /// snapshot drift a small fraction of the radio range.
    grid_period: SimDuration,
    /// Fastest speed any node can move at (0 for all-static networks).
    max_speed: f64,
    /// Reusable buffer for grid candidate sets.
    cand_scratch: Vec<NodeId>,
    /// Per-node up/down status (fault injection; all up by default).
    up: Vec<bool>,
    /// Links currently severed by a fault plan, as normalized (lo, hi) pairs.
    severed: DetHashSet<(NodeId, NodeId)>,
    /// Beacon mode, per node: (neighbour id, last-heard time), sorted by id
    /// so the neighbour view is produced by a filter instead of a per-call
    /// sort and a link check is one binary search.
    heard: Vec<Vec<(NodeId, SimTime)>>,
}

impl Geometry {
    /// The exact position of `node` at event time `now`, computed at most
    /// once per (node, event time) via the stamp cache. Random-waypoint
    /// positions are pure functions of time for monotone queries (legs are
    /// drawn lazily from a per-node RNG), so computing them on demand is
    /// bit-identical to refreshing every node at every dispatch.
    fn pos_of(&mut self, node: NodeId, now: SimTime) -> Pos {
        if self.pos_stamp[node] != now {
            let m = &mut self.mobility[node];
            self.positions[node] = match m.peek(now) {
                Some(p) => p,
                None => m.position_at(now),
            };
            self.pos_stamp[node] = now;
        }
        self.positions[node]
    }

    /// Refreshes the spatial grid once per `grid_period`. Runs before every
    /// event, so at any query the snapshot is younger than one period and
    /// [`Self::grid_slack`] bounds the drift.
    fn maybe_sweep(&mut self, now: SimTime) {
        if self.max_speed <= 0.0 {
            return; // static network: insert-time positions never drift
        }
        if now.since(self.grid_last_sweep) < self.grid_period {
            return;
        }
        let mut span = sim_obs::span!("grid::sweep");
        span.add_units(self.mobility.len() as u64);
        for i in 0..self.mobility.len() {
            let p = self.pos_of(i, now);
            self.grid.update(i, p);
        }
        self.grid_last_sweep = now;
    }

    /// Upper bound on how far any node may have moved since the grid
    /// snapshot; queries widen their radius by this much so the candidate
    /// set is a guaranteed superset of the truly in-range nodes.
    fn grid_slack(&self, now: SimTime) -> f64 {
        self.max_speed * now.since(self.grid_last_sweep).as_secs_f64()
    }

    /// Fills `out` (cleared first) with a sorted superset of the nodes
    /// within radio range of `p` at `now`; callers re-filter with exact
    /// positions.
    fn candidates_into(&self, p: Pos, now: SimTime, out: &mut Vec<NodeId>) {
        self.grid.query_into(p, self.radio.range_m + self.grid_slack(now), out);
    }

    fn link_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        (a.min(b), a.max(b))
    }

    fn link_severed(&self, a: NodeId, b: NodeId) -> bool {
        !self.severed.is_empty() && self.severed.contains(&Self::link_key(a, b))
    }

    /// Is `b` a one-hop neighbour of `a` at `now`? The membership test of
    /// [`Self::neighbors_into`] for a single node, without building the
    /// list: two positions and a distance in oracle mode, one binary
    /// search in beacon mode.
    fn link_up(&mut self, a: NodeId, b: NodeId, now: SimTime) -> bool {
        match self.neighbor_mode {
            NeighborMode::Oracle => {
                if a == b || !self.up[b] || self.link_severed(a, b) {
                    return false;
                }
                let (pa, pb) = (self.pos_of(a, now), self.pos_of(b, now));
                self.radio.in_range(pa, pb)
            }
            NeighborMode::Beacon { expiry, .. } => {
                let heard = &self.heard[a];
                heard.binary_search_by_key(&b, |e| e.0).is_ok_and(|i| heard[i].1 + expiry > now)
            }
        }
    }

    /// Fills `out` (cleared first) with `node`'s one-hop neighbours,
    /// ascending by id.
    fn neighbors_into(&mut self, node: NodeId, now: SimTime, out: &mut Vec<NodeId>) {
        out.clear();
        match self.neighbor_mode {
            NeighborMode::Oracle => {
                // The oracle reflects the physical truth: crashed nodes and
                // severed links are invisible, which is how routing observes
                // churn (forwarding toward a vanished neighbour trips the
                // AODV link-break path). The grid supplies a sorted superset
                // of candidates; the exact in-range re-check with fresh
                // positions reproduces the brute-force scan bit-for-bit.
                let p = self.pos_of(node, now);
                let mut cand = std::mem::take(&mut self.cand_scratch);
                self.candidates_into(p, now, &mut cand);
                for &j in &cand {
                    if j == node || !self.up[j] || self.link_severed(node, j) {
                        continue;
                    }
                    let pj = self.pos_of(j, now);
                    if self.radio.in_range(p, pj) {
                        out.push(j);
                    }
                }
                self.cand_scratch = cand;
            }
            NeighborMode::Beacon { expiry, .. } => {
                // Beacon views lag reality on purpose: a crashed neighbour
                // stays listed until its entry expires, as it would in a
                // real 802.11 MANET. `heard` is sorted by id, so filtering
                // preserves ascending order without a per-call sort.
                out.extend(
                    self.heard[node]
                        .iter()
                        .filter(|&&(_, heard)| heard + expiry > now)
                        .map(|&(n, _)| n),
                );
            }
        }
    }
}

/// The simulator.
pub struct Simulator<P, A> {
    nodes: Vec<NodeEntry<P, A>>,
    queue: EventQueue<Event<P>>,
    /// Positions, liveness and links (see [`Geometry`]).
    geo: Geometry,
    rng: StdRng,
    stats: NetStats,
    /// Joules consumed by each node's radio (tx + rx).
    energy_j: Vec<f64>,
    /// Per-node crash epoch; bumped on crash to invalidate stale timers.
    epochs: Vec<u64>,
    /// Extra per-frame loss probability from an active radio degradation.
    extra_loss: f64,
    /// Frame copies ever put in the air (the receivers of every scheduled
    /// `Deliver` event) and how many of them have landed since.
    copies_scheduled: u64,
    copies_landed: u64,
    beacons_started: bool,
    trace: Option<EventTrace>,
    qtrace: Option<QueryTraceState>,
}

impl<P: Clone + 'static, A: Application<P>> Simulator<P, A> {
    /// Creates a simulator with the given radio model and RNG seed.
    pub fn new(radio: RadioConfig, seed: u64) -> Self {
        Simulator {
            nodes: Vec::new(),
            queue: EventQueue::new(),
            geo: Geometry {
                grid: SpatialGrid::new(radio.range_m),
                radio,
                neighbor_mode: NeighborMode::Oracle,
                mobility: Vec::new(),
                positions: Vec::new(),
                pos_stamp: Vec::new(),
                grid_last_sweep: SimTime::ZERO,
                grid_period: SimDuration::ZERO,
                max_speed: 0.0,
                cand_scratch: Vec::new(),
                up: Vec::new(),
                severed: DetHashSet::default(),
                heard: Vec::new(),
            },
            rng: StdRng::seed_from_u64(seed),
            stats: NetStats::default(),
            energy_j: Vec::new(),
            epochs: Vec::new(),
            extra_loss: 0.0,
            copies_scheduled: 0,
            copies_landed: 0,
            beacons_started: false,
            trace: None,
            qtrace: None,
        }
    }

    /// Enables the bounded event trace (see [`EventTrace`]).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(EventTrace::new(capacity));
    }

    /// The event trace, when enabled.
    pub fn trace(&self) -> Option<&EventTrace> {
        self.trace.as_ref()
    }

    /// Takes the frame-level trace out of the engine as a plain log (for
    /// cross-checking against [`NetStats`]). Tracing stops. The log is the
    /// ring's own buffer, not a copy of it.
    pub fn take_frame_trace(&mut self) -> Option<FrameTraceLog> {
        self.trace
            .take()
            .map(|t| FrameTraceLog { dropped: t.dropped, entries: t.into_entries() })
    }

    /// Enables the structured per-query trace: one bounded ring of
    /// `capacity` records per node (see [`QueryTraceState`]). Applications
    /// record events through [`NodeCtx::trace`]; the engine itself records
    /// crash/revive markers.
    pub fn enable_query_trace(&mut self, capacity: usize) {
        self.qtrace = Some(QueryTraceState::new(capacity));
    }

    /// The query-trace collector, when enabled.
    pub fn query_trace(&self) -> Option<&QueryTraceState> {
        self.qtrace.as_ref()
    }

    /// Stitches the per-node query-trace rings into one engine-ordered log,
    /// consuming the collector. Tracing stops.
    pub fn take_query_trace(&mut self) -> Option<QueryTraceLog> {
        self.qtrace.take().map(QueryTraceState::into_log)
    }

    /// Selects the neighbour-discovery mode (before running).
    pub fn set_neighbor_mode(&mut self, mode: NeighborMode) {
        self.geo.neighbor_mode = mode;
    }

    /// Adds a node at `start`, returning its id. Mobility randomness is
    /// derived from `seed` and the node id, so node sets are reproducible.
    pub fn add_node(&mut self, start: Pos, mobility: MobilityConfig, app: A, seed: u64) -> NodeId {
        let id = self.nodes.len();
        let now = self.queue.now();
        let mut state = MobilityState::new(
            mobility,
            start,
            seed ^ (id as u64).wrapping_mul(0x9E3779B97F4A7C15),
        );
        // Register the node at its position *now*, not at `start`: a node
        // added mid-run may already be past its first waypoint pause.
        let p0 = match state.peek(now) {
            Some(p) => p,
            None => state.position_at(now),
        };
        self.nodes.push(NodeEntry { aodv: AodvState::new(id), app });
        let geo = &mut self.geo;
        geo.mobility.push(state);
        geo.positions.push(p0);
        geo.pos_stamp.push(now);
        geo.grid.insert(id, p0);
        if mobility.max_speed() > geo.max_speed {
            geo.max_speed = mobility.max_speed();
            geo.grid_period =
                SimDuration::from_secs_f64(GRID_SLACK_FACTOR * geo.radio.range_m / geo.max_speed);
        }
        geo.up.push(true);
        geo.heard.push(Vec::new());
        self.energy_j.push(0.0);
        self.epochs.push(0);
        id
    }

    /// Schedules every event of `plan` into the queue. Call after adding
    /// all nodes and before (or between) `run_until` calls; event times
    /// must not lie in the past.
    ///
    /// # Panics
    /// Panics when the plan names a node the simulator does not have.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        let check = |n: NodeId| {
            assert!(n < self.nodes.len(), "fault plan names unknown node {n}");
        };
        for ev in plan.events() {
            match ev.action {
                FaultAction::Crash(n) | FaultAction::Revive(n) => check(n),
                FaultAction::SeverLink(a, b) | FaultAction::RestoreLink(a, b) => {
                    check(a);
                    check(b);
                }
                FaultAction::DegradeRadio { .. } | FaultAction::RestoreRadio => {}
            }
            self.queue.schedule(ev.at, Event::Fault(ev.action));
        }
    }

    /// `true` when `node` is currently up (not crashed).
    pub fn is_up(&self, node: NodeId) -> bool {
        self.geo.up[node]
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Network statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Radio energy (joules) node `node` has consumed so far.
    pub fn energy_joules(&self, node: NodeId) -> f64 {
        self.energy_j[node]
    }

    /// Number of pending events in the queue (a gauge input; sampled as
    /// `wheel.pending`). A transmission in flight is one event however many
    /// receivers it has — [`Self::inflight_frames`] counts the copies.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Events ever scheduled: the queue's running sequence number. One per
    /// transmission that reached at least one receiver, one per timer,
    /// beacon tick and fault action — deterministic, and the denominator
    /// that says what a delivered copy costs the wheel.
    pub fn events_scheduled(&self) -> u64 {
        self.queue.scheduled()
    }

    /// Occupied timer-wheel slots across all levels (a gauge input).
    pub fn wheel_occupied_slots(&self) -> u32 {
        self.queue.occupied_slots()
    }

    /// Spatial-grid shape: `(occupied_cells, max_bucket_len)` over the
    /// current bounded-staleness snapshot (a gauge input).
    pub fn grid_stats(&self) -> (usize, usize) {
        (self.geo.grid.occupied_cells(), self.geo.grid.max_bucket_len())
    }

    /// Frame copies currently in the air — one per receiver of every
    /// scheduled, not yet dispatched transmission (a gauge input; sampled
    /// as `radio.inflight`).
    pub fn inflight_frames(&self) -> u64 {
        self.copies_scheduled - self.copies_landed
    }

    /// Frame copies ever scheduled for delivery: one per receiver that
    /// survived the transmit-time gates. With [`Self::events_scheduled`]
    /// it says how many copies one wheel event carries.
    pub fn copies_scheduled(&self) -> u64 {
        self.copies_scheduled
    }

    /// Total radio energy (joules) across all nodes.
    pub fn total_energy_joules(&self) -> f64 {
        self.energy_j.iter().sum()
    }

    /// Immutable access to a node's application (for result collection).
    pub fn app(&self, node: NodeId) -> &A {
        &self.nodes[node].app
    }

    /// Mutable access to a node's application (test injection only; do not
    /// send from here — use timers).
    pub fn app_mut(&mut self, node: NodeId) -> &mut A {
        &mut self.nodes[node].app
    }

    /// Position of `node` at the current time.
    pub fn position(&mut self, node: NodeId) -> Pos {
        let now = self.queue.now();
        self.geo.mobility[node].position_at(now)
    }

    /// Position of `node` at an arbitrary time `t` (not after the node's
    /// next waypoint draw would be needed *and* then re-queried in the
    /// past; the engine clock is monotone, so forward probes are safe).
    ///
    /// Uses the mobility model's non-mutating
    /// [`peek`](crate::mobility::MobilityState::peek) when `t` falls inside
    /// the node's current leg — the common case for high-frequency range
    /// probes — and only steps the model otherwise.
    pub fn position_at(&mut self, node: NodeId, t: SimTime) -> Pos {
        let m = &mut self.geo.mobility[node];
        match m.peek(t) {
            Some(p) => p,
            None => m.position_at(t),
        }
    }

    /// Schedules an application timer for `node` at absolute time `at`.
    /// This is how external workloads (query issue times) enter the system.
    /// The timer is tagged with the node's current epoch: it is silently
    /// dropped if the node crashes before it fires.
    pub fn schedule_app_timer(&mut self, node: NodeId, at: SimTime, token: u64) {
        self.queue
            .schedule(at, Event::AppTimer { node, token, epoch: self.epochs[node] });
    }

    /// Runs until the queue is empty or the clock passes `horizon`.
    /// Returns the number of events processed — a transmission counts
    /// once, whatever its receiver count: all its copies land at one
    /// timestamp, so a horizon never splits them.
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        if !self.beacons_started {
            self.beacons_started = true;
            if let NeighborMode::Beacon { period, .. } = self.geo.neighbor_mode {
                // Stagger initial beacons across one period.
                let n = self.nodes.len().max(1) as f64;
                for i in 0..self.nodes.len() {
                    let offset = period.mul_f64(i as f64 / n);
                    self.queue.schedule(self.queue.now() + offset, Event::Beacon { node: i });
                }
            }
        }
        let mut processed = 0;
        while let Some(at) = self.queue.peek_time() {
            if at > horizon {
                break;
            }
            let (now, ev) = self.queue.pop().expect("peeked");
            self.dispatch(now, ev);
            processed += 1;
        }
        processed
    }

    /// Runs until no events remain.
    pub fn run_to_completion(&mut self) -> u64 {
        self.run_until(SimTime(u64::MAX))
    }

    fn dispatch(&mut self, now: SimTime, ev: Event<P>) {
        self.geo.maybe_sweep(now);
        match ev {
            Event::Deliver { link_from, earlier, last, frame } => {
                // Whatever a handler schedules while the batch is being
                // delivered carries a later sequence number than the batch,
                // so it runs after the last copy — exactly as if each copy
                // were an event of its own with the next sequence number.
                for &to in &earlier {
                    self.deliver_copy(to, link_from, now, (*frame).clone());
                }
                self.deliver_copy(last, link_from, now, *frame);
            }
            Event::AppTimer { node, token, epoch } => {
                if self.geo.up[node] && epoch == self.epochs[node] {
                    self.run_app(node, now, |app, ctx| app.on_timer(ctx, token));
                }
            }
            Event::AodvTimer { node, timer, epoch } => {
                if self.geo.up[node] && epoch == self.epochs[node] {
                    let cmds = self.nodes[node].aodv.on_timer(timer, now);
                    self.execute_link_cmds(node, now, cmds);
                }
            }
            Event::Beacon { node } => {
                // The beacon chain survives crashes (a down node just stays
                // silent), so beaconing resumes by itself after a revive.
                if self.geo.up[node] {
                    self.transmit_broadcast(node, now, Frame::Hello);
                }
                if let NeighborMode::Beacon { period, .. } = self.geo.neighbor_mode {
                    self.queue.schedule(now + period, Event::Beacon { node });
                }
            }
            Event::Fault(action) => self.apply_fault(now, action),
        }
    }

    /// One receiver's copy of a transmission arriving.
    fn deliver_copy(&mut self, to: NodeId, link_from: NodeId, now: SimTime, frame: Frame<P>) {
        self.copies_landed += 1;
        let mut span = sim_obs::span!("radio::deliver");
        span.add_bytes(frame.bytes() as u64);
        span.add_units(1);
        if !self.geo.up[to] {
            // Crashed mid-flight: the frame dies on a silent radio.
            self.stats.frames_dropped_node_down += 1;
            self.stats.frames_lost += 1;
            self.trace_lost(now, link_from, &frame, LossCause::NodeDown);
            return;
        }
        self.trace_event(
            now,
            TraceEvent::FrameDelivered {
                to: narrow(to),
                from: narrow(link_from),
                tag: Self::tag_of(&frame),
            },
        );
        match frame {
            Frame::Hello => {
                let heard = &mut self.geo.heard[to];
                match heard.binary_search_by_key(&link_from, |e| e.0) {
                    Ok(i) => heard[i].1 = now,
                    Err(i) => heard.insert(i, (link_from, now)),
                }
            }
            Frame::Bcast { src, payload, bytes: _ } => {
                self.stats.app_broadcasts_received += 1;
                let meta = MsgMeta { src, link_from, broadcast: true, hops: 1 };
                self.run_app(to, now, |app, ctx| app.on_message(ctx, meta, payload));
            }
            other => {
                // AODV asks about one next hop, and only when it
                // forwards data along a live route: answer that
                // question instead of listing the neighbourhood.
                let geo = &mut self.geo;
                let cmds = self.nodes[to]
                    .aodv
                    .on_frame(link_from, other, now, |nh| geo.link_up(to, nh, now));
                self.execute_link_cmds(to, now, cmds);
            }
        }
    }

    fn apply_fault(&mut self, now: SimTime, action: FaultAction) {
        match action {
            FaultAction::Crash(n) => {
                if !self.geo.up[n] {
                    return; // already down
                }
                self.geo.up[n] = false;
                self.epochs[n] += 1;
                self.stats.node_crashes += 1;
                // Volatile state dies: routing tables, duplicate caches,
                // buffered packets, the beacon-heard map, and whatever the
                // application drops in its hook. The application object
                // itself (the storage partition) survives.
                self.geo.heard[n].clear();
                self.nodes[n].aodv.reset();
                self.nodes[n].app.on_crash();
                self.trace_event(now, TraceEvent::NodeCrashed { node: narrow(n) });
                // `on_crash` gets no ctx (a dead node cannot act), so the
                // engine records the terminal timeline marker itself.
                self.qtrace_record(now, n, QueryEvent::Crashed);
            }
            FaultAction::Revive(n) => {
                if self.geo.up[n] {
                    return; // never crashed, or already revived
                }
                self.geo.up[n] = true;
                self.stats.node_revivals += 1;
                self.trace_event(now, TraceEvent::NodeRevived { node: narrow(n) });
                self.qtrace_record(now, n, QueryEvent::Revived);
                self.run_app(n, now, |app, ctx| app.on_revive(ctx));
            }
            FaultAction::SeverLink(a, b) => {
                self.geo.severed.insert(Geometry::link_key(a, b));
            }
            FaultAction::RestoreLink(a, b) => {
                self.geo.severed.remove(&Geometry::link_key(a, b));
            }
            FaultAction::DegradeRadio { extra_loss } => self.extra_loss = extra_loss,
            FaultAction::RestoreRadio => self.extra_loss = 0.0,
        }
    }

    /// Runs an application callback and then executes its queued commands.
    fn run_app<F>(&mut self, node: NodeId, now: SimTime, f: F)
    where
        F: FnOnce(&mut A, &mut NodeCtx<P>),
    {
        if !self.geo.up[node] {
            return;
        }
        let position = self.geo.pos_of(node, now);
        let mut ctx = NodeCtx {
            now,
            id: node,
            position,
            geo: &mut self.geo,
            neighbors: None,
            cmds: Vec::new(),
            qtrace: self.qtrace.as_mut(),
        };
        // `ctx` borrows the `geo` and `qtrace` fields, so borrowing the
        // app out of `self.nodes` stays a disjoint field borrow.
        f(&mut self.nodes[node].app, &mut ctx);
        let cmds = ctx.cmds;
        for cmd in cmds {
            match cmd {
                AppCmd::Unicast { dst, payload, bytes } => {
                    self.stats.app_unicasts_submitted += 1;
                    let link = self.nodes[node].aodv.send(dst, payload, bytes, now);
                    self.execute_link_cmds(node, now, link);
                }
                AppCmd::Broadcast { payload, bytes } => {
                    self.stats.app_broadcasts_sent += 1;
                    let frame = Frame::Bcast { src: node, payload, bytes };
                    self.transmit_broadcast(node, now, frame);
                }
                AppCmd::Timer { delay, token } => {
                    self.queue.schedule(
                        now + delay,
                        Event::AppTimer { node, token, epoch: self.epochs[node] },
                    );
                }
                AppCmd::RejectFrame => {
                    self.stats.app_frames_rejected += 1;
                }
                AppCmd::PrimeRoute { dst, via, hops } => {
                    self.nodes[node].aodv.offer_app_route(dst, via, hops, now);
                }
            }
        }
    }

    fn execute_link_cmds(&mut self, node: NodeId, now: SimTime, cmds: Vec<LinkCmd<P>>) {
        for cmd in cmds {
            match cmd {
                LinkCmd::SendTo(nbr, frame) => self.transmit_unicast(node, nbr, now, frame),
                LinkCmd::Broadcast(frame) => self.transmit_broadcast(node, now, frame),
                LinkCmd::SetTimer(delay, timer) => {
                    self.queue.schedule(
                        now + delay,
                        Event::AodvTimer { node, timer, epoch: self.epochs[node] },
                    );
                }
                LinkCmd::DeliverUp(pkt) => {
                    self.stats.app_unicasts_delivered += 1;
                    let meta =
                        MsgMeta { src: pkt.src, link_from: node, broadcast: false, hops: pkt.hops };
                    self.run_app(node, now, |app, ctx| app.on_message(ctx, meta, pkt.payload));
                }
                LinkCmd::DropFailed(pkt) => {
                    self.stats.app_unicasts_failed += 1;
                    let DataPacket { dst, payload, .. } = pkt;
                    self.run_app(node, now, |app, ctx| app.on_delivery_failed(ctx, dst, payload));
                }
                LinkCmd::DropForwarded(pkt) => {
                    // A relay abandoned someone else's packet: count it
                    // (and trace it) but run no app callback — the
                    // originator's own timeout machinery recovers.
                    self.stats.data_drops_forwarded += 1;
                    self.trace_event(
                        now,
                        TraceEvent::ForwardDropped {
                            at: narrow(node),
                            src: narrow(pkt.src),
                            dst: narrow(pkt.dst),
                        },
                    );
                }
            }
        }
    }

    /// Extra loss roll from an active radio degradation window.
    fn degrade_lost(&mut self) -> bool {
        self.extra_loss > 0.0 && self.rng.random_range(0.0..1.0) < self.extra_loss
    }

    fn transmit_unicast(&mut self, from: NodeId, to: NodeId, now: SimTime, frame: Frame<P>) {
        if !self.geo.up[from] {
            return; // a dead node's queued commands transmit nothing
        }
        let mut span = sim_obs::span!("radio::tx");
        span.add_bytes(frame.bytes() as u64);
        span.add_units(1);
        self.count_frame(&frame);
        self.trace_event(
            now,
            TraceEvent::FrameSent {
                from: narrow(from),
                tag: Self::tag_of(&frame),
                bytes: narrow(frame.bytes()),
            },
        );
        self.energy_j[from] += self.geo.radio.energy.tx_joules(frame.bytes());
        if self.geo.link_severed(from, to) {
            self.stats.frames_blocked_link_down += 1;
            self.stats.frames_lost += 1;
            self.trace_lost(now, from, &frame, LossCause::LinkDown);
            return;
        }
        let pf = self.geo.pos_of(from, now);
        let pt = self.geo.pos_of(to, now);
        if !self.geo.radio.in_range(pf, pt)
            || self.geo.radio.lost(&mut self.rng)
            || self.degrade_lost()
        {
            self.stats.frames_lost += 1;
            self.trace_lost(now, from, &frame, LossCause::Radio);
            return;
        }
        if !self.geo.up[to] {
            // Transmitted into the void; receiver pays nothing.
            self.stats.frames_dropped_node_down += 1;
            self.stats.frames_lost += 1;
            self.trace_lost(now, from, &frame, LossCause::NodeDown);
            return;
        }
        self.energy_j[to] += self.geo.radio.energy.rx_joules(frame.bytes());
        let delay = self.geo.radio.tx_delay(frame.bytes(), &mut self.rng);
        self.schedule_delivery(now + delay, from, Vec::new(), to, frame);
    }

    fn transmit_broadcast(&mut self, from: NodeId, now: SimTime, frame: Frame<P>) {
        if !self.geo.up[from] {
            return;
        }
        let mut span = sim_obs::span!("radio::tx");
        span.add_bytes(frame.bytes() as u64);
        span.add_units(1);
        self.count_frame(&frame);
        self.trace_event(
            now,
            TraceEvent::FrameSent {
                from: narrow(from),
                tag: Self::tag_of(&frame),
                bytes: narrow(frame.bytes()),
            },
        );
        // One transmission regardless of receiver count; every in-range
        // node pays reception.
        self.energy_j[from] += self.geo.radio.energy.tx_joules(frame.bytes());
        let delay = self.geo.radio.tx_delay(frame.bytes(), &mut self.rng);
        let p = self.geo.pos_of(from, now);
        // Receivers that pass every gate, in receiver order: the whole
        // transmission becomes one wheel entry.
        let mut receivers = Vec::new();
        // Reception is `in_range` and draws no RNG, so the receiver loop is
        // pruned to the grid's candidate set. Candidates come back sorted
        // ascending — the same receiver order as a full 0..n scan — and
        // loss rolls happen only for in-range receivers, so the random
        // stream is the one a full scan would draw.
        let mut cand = std::mem::take(&mut self.geo.cand_scratch);
        self.geo.candidates_into(p, now, &mut cand);
        for &to in &cand {
            if to == from {
                continue;
            }
            let pt = self.geo.pos_of(to, now);
            if !self.geo.radio.in_range(p, pt) {
                continue;
            }
            if self.broadcast_copy_survives(from, to, now, &frame) {
                receivers.push(to);
            }
        }
        self.geo.cand_scratch = cand;
        // A broadcast nobody survives to hear schedules nothing.
        if let Some(last) = receivers.pop() {
            self.schedule_delivery(now + delay, from, receivers, last, frame);
        }
    }

    /// Per-receiver tail of a broadcast, after the reception gate: `true`
    /// when the copy will arrive (and the receiver has paid for it). Copy
    /// losses are accounted exactly like unicast losses (counter + traced
    /// cause), so trace-derived loss counts reconstruct `NetStats`
    /// regardless of frame kind.
    fn broadcast_copy_survives(
        &mut self,
        from: NodeId,
        to: NodeId,
        now: SimTime,
        frame: &Frame<P>,
    ) -> bool {
        if self.geo.link_severed(from, to) {
            self.stats.frames_blocked_link_down += 1;
            self.stats.frames_lost += 1;
            self.trace_lost(now, from, frame, LossCause::LinkDown);
            return false;
        }
        if self.geo.radio.lost(&mut self.rng) || self.degrade_lost() {
            self.stats.frames_lost += 1;
            self.trace_lost(now, from, frame, LossCause::Radio);
            return false;
        }
        if !self.geo.up[to] {
            self.stats.frames_dropped_node_down += 1;
            self.stats.frames_lost += 1;
            self.trace_lost(now, from, frame, LossCause::NodeDown);
            return false;
        }
        self.energy_j[to] += self.geo.radio.energy.rx_joules(frame.bytes());
        true
    }

    /// Files one transmission: the only place a `Deliver` event is built.
    fn schedule_delivery(
        &mut self,
        at: SimTime,
        link_from: NodeId,
        earlier: Vec<NodeId>,
        last: NodeId,
        frame: Frame<P>,
    ) {
        self.copies_scheduled += earlier.len() as u64 + 1;
        let frame = Box::new(frame);
        self.queue.schedule(at, Event::Deliver { link_from, earlier, last, frame });
    }

    fn count_frame(&mut self, frame: &Frame<P>) {
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += frame.bytes() as u64;
        match frame {
            Frame::Aodv(_) => self.stats.aodv_frames += 1,
            Frame::Data(_) => self.stats.data_frames += 1,
            Frame::Bcast { .. } => self.stats.bcast_frames += 1,
            Frame::Hello => self.stats.hello_frames += 1,
        }
    }

    fn tag_of(frame: &Frame<P>) -> FrameTag {
        match frame {
            Frame::Aodv(_) => FrameTag::Aodv,
            Frame::Data(_) => FrameTag::Data,
            Frame::Bcast { .. } => FrameTag::Bcast,
            Frame::Hello => FrameTag::Hello,
        }
    }

    fn trace_event(&mut self, at: SimTime, ev: TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.record(at, ev);
        }
    }

    fn trace_lost(&mut self, at: SimTime, from: NodeId, frame: &Frame<P>, cause: LossCause) {
        self.trace_event(
            at,
            TraceEvent::FrameLost { from: narrow(from), tag: Self::tag_of(frame), cause },
        );
    }

    /// Engine-side query-trace record (crash/revive markers carry no query).
    fn qtrace_record(&mut self, at: SimTime, node: NodeId, ev: QueryEvent) {
        if let Some(q) = self.qtrace.as_mut() {
            q.record(at, node, None, ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Application that only touches its neighbour view, so timer events
    /// exercise the grid-backed discovery path inside `dispatch`.
    struct Idle;
    impl Application<()> for Idle {
        fn on_message(&mut self, _ctx: &mut NodeCtx<()>, _meta: MsgMeta, _payload: ()) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<()>, _token: u64) {
            let _ = ctx.neighbors().len();
        }
    }

    /// The pre-grid oracle, verbatim: a full scan over fresh positions with
    /// the same up/severed/range filters.
    fn brute_oracle(sim: &mut Simulator<(), Idle>, node: NodeId, now: SimTime) -> Vec<NodeId> {
        let p = sim.position_at(node, now);
        let mut out = Vec::new();
        for j in 0..sim.num_nodes() {
            if j == node || !sim.geo.up[j] || sim.geo.link_severed(node, j) {
                continue;
            }
            let pj = sim.position_at(j, now);
            if sim.geo.radio.in_range(p, pj) {
                out.push(j);
            }
        }
        out
    }

    /// The beacon view, verbatim: a linear scan of the heard table for
    /// entries younger than `expiry`.
    fn beacon_view(
        sim: &Simulator<(), Idle>,
        node: NodeId,
        now: SimTime,
        expiry: SimDuration,
    ) -> Vec<NodeId> {
        let heard = &sim.geo.heard[node];
        (0..sim.num_nodes())
            .filter(|&j| heard.iter().any(|&(n, at)| n == j && at + expiry > now))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The spatial grid is an *index*, not a semantics change: at any
        /// point of a run with mobility, crashes/revivals, and severed
        /// links, grid-backed neighbour discovery returns exactly the
        /// brute-force oracle set, in the same (ascending) order — and the
        /// point predicate AODV forwards by, `link_up(i, j)`, is exactly
        /// membership of `j` in that list, for every ordered pair. The
        /// beacon arm holds both to the heard table instead, expiry
        /// included.
        #[test]
        fn grid_neighbors_equal_brute_force_under_churn(
            seed in 0u64..1_000,
            n in 4usize..20,
            crashes in prop::collection::vec(
                (any::<prop::sample::Index>(), 1u64..150, 5u64..60), 0..4),
            severs in prop::collection::vec(
                (any::<prop::sample::Index>(), any::<prop::sample::Index>(), 1u64..150, 10u64..80),
                0..4),
        ) {
            let expiry = SimDuration::from_secs_f64(2.5);
            let beacon = NeighborMode::Beacon { period: SimDuration::from_secs_f64(1.0), expiry };
            for mode in [NeighborMode::Oracle, beacon] {
                // Dense-ish area relative to an 80 m range, fast waypoint
                // turnover so the run crosses many grid sweeps and cell moves.
                let radio = RadioConfig { range_m: 80.0, ..RadioConfig::default() };
                let mobility = MobilityConfig {
                    width: 300.0,
                    height: 300.0,
                    pause: SimDuration::from_secs_f64(1.0),
                    ..MobilityConfig::paper()
                };
                let mut sim: Simulator<(), Idle> = Simulator::new(radio, seed);
                sim.set_neighbor_mode(mode);
                for i in 0..n {
                    let x = 300.0 * (i as f64 * 0.37).fract();
                    let y = 300.0 * (i as f64 * 0.71).fract();
                    sim.add_node(Pos::new(x, y), mobility, Idle, seed ^ 0xA5A5);
                }
                let mut plan = FaultPlan::new();
                for &(node, at, down) in &crashes {
                    let node = node.index(n);
                    plan = plan
                        .crash_at(node, SimTime::from_secs_f64(at as f64))
                        .revive_at(node, SimTime::from_secs_f64((at + down) as f64));
                }
                for &(a, b, from, len) in &severs {
                    let (a, b) = (a.index(n), b.index(n));
                    if a != b {
                        plan = plan.sever_link(
                            a,
                            b,
                            SimTime::from_secs_f64(from as f64),
                            SimTime::from_secs_f64((from + len) as f64),
                        );
                    }
                }
                sim.install_fault_plan(&plan);
                // A steady event stream so sweeps and lazy positions are
                // exercised between checkpoints.
                for k in 0..200 {
                    sim.schedule_app_timer(0, SimTime::from_secs_f64(k as f64), k);
                }

                let mut got = Vec::new();
                for checkpoint in [3.0, 17.0, 48.0, 90.0, 151.0, 199.0] {
                    sim.run_until(SimTime::from_secs_f64(checkpoint));
                    let now = sim.now();
                    for i in 0..n {
                        sim.geo.neighbors_into(i, now, &mut got);
                        let want = match mode {
                            NeighborMode::Oracle => brute_oracle(&mut sim, i, now),
                            NeighborMode::Beacon { .. } => beacon_view(&sim, i, now, expiry),
                        };
                        prop_assert_eq!(
                            &got, &want,
                            "{:?}: node {} diverged at t={:?} (checkpoint {})",
                            mode, i, now, checkpoint
                        );
                        // Re-querying must be idempotent (pure index read).
                        let first = got.clone();
                        sim.geo.neighbors_into(i, now, &mut got);
                        prop_assert_eq!(&got, &first);
                        for j in 0..n {
                            prop_assert_eq!(
                                sim.geo.link_up(i, j, now), want.contains(&j),
                                "{:?}: link_up({}, {}) disagrees with the list at t={:?}",
                                mode, i, j, now
                            );
                        }
                    }
                }
                if let NeighborMode::Beacon { .. } = mode {
                    // Long after the last beacon every entry has expired.
                    let far = sim.now() + SimDuration::from_secs_f64(1.0e6);
                    for i in 0..n {
                        for j in 0..n {
                            prop_assert!(!sim.geo.link_up(i, j, far));
                        }
                    }
                }
            }
        }
    }

    /// Records every neighbour list it is shown: two reads in the timer
    /// callback, then one in the nested callback of a self-send.
    #[derive(Default)]
    struct Reader {
        reads: Vec<Vec<NodeId>>,
    }
    impl Application<()> for Reader {
        fn on_message(&mut self, ctx: &mut NodeCtx<()>, _meta: MsgMeta, _payload: ()) {
            self.reads.push(ctx.neighbors().to_vec());
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<()>, _token: u64) {
            self.reads.push(ctx.neighbors().to_vec());
            self.reads.push(ctx.neighbors().to_vec());
            ctx.send_unicast(ctx.id, (), 8);
        }
    }

    /// The lazily built `ctx.neighbors()` is the list `neighbors_into`
    /// returns at that event time: on the first read, on a repeated read in
    /// the same callback, and in a nested callback at the same event time —
    /// with mobility, a crashed node and a severed link in play.
    #[test]
    fn lazy_ctx_neighbors_match_neighbors_into_at_event_time() {
        let radio = RadioConfig { range_m: 120.0, ..RadioConfig::default() };
        let mobility = MobilityConfig {
            width: 300.0,
            height: 300.0,
            pause: SimDuration::from_secs_f64(1.0),
            ..MobilityConfig::paper()
        };
        let mut sim: Simulator<(), Reader> = Simulator::new(radio, 21);
        for i in 0..12 {
            let x = 300.0 * (i as f64 * 0.37).fract();
            let y = 300.0 * (i as f64 * 0.71).fract();
            sim.add_node(Pos::new(x, y), mobility, Reader::default(), 4);
        }
        let end = SimTime::from_secs_f64(100.0);
        sim.install_fault_plan(
            &FaultPlan::new().crash_at(1, SimTime::from_secs_f64(2.0)).sever_link(
                0,
                2,
                SimTime::from_secs_f64(2.0),
                end,
            ),
        );
        let mut seen = std::collections::BTreeSet::new();
        for at in [5.0, 20.0, 47.0, 80.0] {
            let at = SimTime::from_secs_f64(at);
            sim.schedule_app_timer(0, at, 0);
            sim.run_until(at);
            assert_eq!(sim.now(), at);
            let mut want = Vec::new();
            sim.geo.neighbors_into(0, at, &mut want);
            assert!(!want.contains(&1) && !want.contains(&2), "crashed / severed peers hidden");
            let reads = std::mem::take(&mut sim.app_mut(0).reads);
            assert_eq!(reads, vec![want.clone(); 3], "reads at t={at:?}");
            seen.insert(want);
        }
        assert!(seen.len() > 1, "mobility must change the neighbourhood between reads");
    }

    /// The gauge accessors read engine state without touching it: the
    /// in-flight count returns to zero once the air clears, and grid
    /// stats reflect the node layout.
    #[test]
    fn gauge_accessors_reflect_engine_state() {
        let mut sim: Simulator<(), Idle> = Simulator::new(RadioConfig::default(), 7);
        for x in [0.0, 100.0, 900.0] {
            sim.add_node(Pos::new(x, 0.0), MobilityConfig::frozen(), Idle, 9);
        }
        let (cells, max_bucket) = sim.grid_stats();
        assert_eq!(cells, 2, "two occupied cells: x in [0,250) and [750,1000)");
        assert_eq!(max_bucket, 2);
        sim.set_neighbor_mode(NeighborMode::Beacon {
            period: SimDuration::from_secs_f64(1.0),
            expiry: SimDuration::from_secs_f64(2.5),
        });
        // Stop between beacon ticks: transmissions from the last tick have
        // landed, nothing is mid-flight, and the pending count is exactly
        // the beacon chain.
        sim.run_until(SimTime::from_secs_f64(10.5));
        assert_eq!(sim.inflight_frames(), 0);
        assert_eq!(sim.pending_events(), 3);
        assert!(sim.wheel_occupied_slots() >= 1);
    }

    /// A wheel entry is one cache line whatever the application's payload
    /// weighs: the frame rides behind a pointer, and a broadcast's receiver
    /// list is a `Vec` header, so the slot deques (which keep their
    /// high-water capacity) and every cascade refile move 64 bytes.
    #[test]
    fn wheel_entry_is_one_cache_line_for_any_payload() {
        type Heavy = Event<[u8; 200]>;
        const { assert!(std::mem::size_of::<Frame<[u8; 200]>>() > 200) };
        const { assert!(EventQueue::<Heavy>::ENTRY_BYTES <= 64) };
        assert_eq!(EventQueue::<Heavy>::ENTRY_BYTES, EventQueue::<Event<()>>::ENTRY_BYTES);
    }

    /// Beacon mode keeps `heard` sorted: the neighbour view needs no
    /// per-call sort and still expires entries.
    #[test]
    fn beacon_heard_vec_stays_sorted_and_expires() {
        let mut sim: Simulator<(), Idle> = Simulator::new(RadioConfig::default(), 3);
        sim.set_neighbor_mode(NeighborMode::Beacon {
            period: SimDuration::from_secs_f64(1.0),
            expiry: SimDuration::from_secs_f64(2.5),
        });
        for x in [0.0, 100.0, 200.0, 900.0] {
            sim.add_node(Pos::new(x, 0.0), MobilityConfig::frozen(), Idle, 5);
        }
        sim.run_until(SimTime::from_secs_f64(4.0));
        let now = sim.now();
        let mut nbrs = Vec::new();
        // Node 1 hears 0 and 2 (within 250 m); node 3 is isolated.
        sim.geo.neighbors_into(1, now, &mut nbrs);
        assert_eq!(nbrs, vec![0, 2]);
        assert!(sim.geo.heard[1].windows(2).all(|w| w[0].0 < w[1].0));
        sim.geo.neighbors_into(3, now, &mut nbrs);
        assert!(nbrs.is_empty());
        // Far in the future every entry has expired.
        sim.geo.neighbors_into(1, SimTime::from_secs_f64(1.0e6), &mut nbrs);
        assert!(nbrs.is_empty());
    }
}
