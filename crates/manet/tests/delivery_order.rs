//! The engine's delivery order, pinned; any engine change that claims
//! "same events in the same order" must reproduce the two digests below.
//!
//! Each digest folds the complete frame trace — every `FrameSent` (with
//! its copy count), `FrameLost` (with its cause), `ForwardDropped`,
//! `NodeCrashed` and `NodeRevived`, with its timestamp, in engine order —
//! then every message the application is handed, as (time, receiver,
//! link-layer sender, broadcast flag) in the order it is handed over, then
//! the final [`NetStats`] and every node's energy bit pattern.
//!
//! The digests were first recorded at the commit before a broadcast
//! became one wheel entry, over a trace that listed every delivered copy.
//! They were re-recorded when the trace stopped listing delivered copies,
//! once the new log had been shown equal, entry for entry, to the old log
//! with its per-copy delivery records dropped and each transmission's copy
//! count filled in from its delivery batch.

use std::cell::RefCell;
use std::rc::Rc;

use manet_sim::engine::{Application, MsgMeta, NeighborMode, NodeCtx, Simulator};
use manet_sim::fault::FaultPlan;
use manet_sim::mobility::{MobilityConfig, Pos};
use manet_sim::radio::RadioConfig;
use manet_sim::time::{SimDuration, SimTime};
use manet_sim::{FrameTag, LossCause, NodeId, TraceEvent};

const NODES: usize = 60;
const TOKEN_FLOOD: u64 = 0;

/// `(origin, flood id)` of a relay-once flood, or a unicast reply to one.
type Msg = (NodeId, u64);

/// `(time µs, receiver, link-layer sender, broadcast)` of every message
/// handed to an application, across all nodes, in hand-over order.
type Arrivals = Rc<RefCell<Vec<(u64, NodeId, NodeId, bool)>>>;

/// Floods relay once from inside `on_message` (zero delay — the case where
/// new frames are scheduled in the middle of a delivery batch), prime the
/// reverse route and answer the origin by unicast; timer tokens above zero
/// unicast to node `token - 1`, which is what makes AODV flood RREQs.
struct Flooder {
    seen: Vec<Msg>,
    next_flood: u64,
    arrivals: Arrivals,
}

impl Application<Msg> for Flooder {
    fn on_message(&mut self, ctx: &mut NodeCtx<Msg>, meta: MsgMeta, payload: Msg) {
        self.arrivals
            .borrow_mut()
            .push((ctx.now.0, ctx.id, meta.link_from, meta.broadcast));
        if !meta.broadcast || payload.0 == ctx.id || self.seen.contains(&payload) {
            return;
        }
        self.seen.push(payload);
        ctx.prime_route(payload.0, meta.link_from, meta.hops);
        ctx.broadcast(payload, 24);
        ctx.send_unicast(payload.0, payload, 48);
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<Msg>, token: u64) {
        if token == TOKEN_FLOOD {
            self.next_flood += 1;
            ctx.broadcast((ctx.id, self.next_flood), 24);
        } else {
            ctx.send_unicast((token - 1) as NodeId, (ctx.id, 0), 64);
        }
    }
    fn on_crash(&mut self) {
        self.seen.clear();
    }
}

fn secs(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn tag_code(tag: FrameTag) -> u64 {
    match tag {
        FrameTag::Aodv => 0,
        FrameTag::Data => 1,
        FrameTag::Bcast => 2,
        FrameTag::Hello => 3,
    }
}

/// Runs the scenario and returns `(digest, trace events, frames_lost)`.
fn run(mode: NeighborMode, seed: u64) -> (u64, usize, u64) {
    let radio = RadioConfig { loss_probability: 0.10, ..RadioConfig::default() };
    let mobility = MobilityConfig {
        width: 1100.0,
        height: 1100.0,
        pause: SimDuration::from_secs_f64(4.0),
        ..MobilityConfig::paper()
    };
    let mut sim: Simulator<Msg, Flooder> = Simulator::new(radio, seed);
    sim.set_neighbor_mode(mode);
    sim.enable_trace(600_000);
    let arrivals = Arrivals::default();
    for i in 0..NODES {
        let x = 1100.0 * (i as f64 * 0.37 + 0.11).fract();
        let y = 1100.0 * (i as f64 * 0.71 + 0.05).fract();
        let app = Flooder { seen: Vec::new(), next_flood: 0, arrivals: Rc::clone(&arrivals) };
        sim.add_node(Pos::new(x, y), mobility, app, seed ^ 0x5EED);
    }
    let down = SimDuration::from_secs_f64(9.0);
    sim.install_fault_plan(
        &FaultPlan::new()
            .crash_for(7, secs(6.0), down)
            .crash_for(23, secs(14.5), down)
            .crash_for(41, secs(14.5), SimDuration::from_secs_f64(30.0))
            .crash_at(52, secs(33.0))
            .sever_link(3, 11, secs(2.0), secs(50.0))
            .sever_link(0, 19, secs(10.0), secs(44.0))
            .degrade_radio(0.25, secs(20.0), secs(32.0)),
    );
    // One flood every 1.5 s from a rotating origin, one far unicast every
    // 0.7 s: floods, replies, RREQ storms and link-break repairs overlap.
    for k in 0..40u64 {
        let origin = (k as usize * 17) % NODES;
        sim.schedule_app_timer(origin, secs(1.0 + 1.5 * k as f64), TOKEN_FLOOD);
    }
    for k in 0..80u64 {
        let (src, dst) = ((k as usize * 13 + 5) % NODES, (k as usize * 29 + 31) % NODES);
        if src != dst {
            sim.schedule_app_timer(src, secs(0.5 + 0.7 * k as f64), dst as u64 + 1);
        }
    }
    // Stepping horizons: the digest also pins that a stepped run is one run.
    for step in 1..=14 {
        sim.run_until(secs(5.0 * f64::from(step)));
    }

    let log = sim.take_frame_trace().expect("trace enabled");
    assert_eq!(log.dropped, 0, "the ring must hold the whole run");
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    let mut copies = 0;
    for &(at, ev) in &log.entries {
        h.word(at.0);
        let words = match ev {
            TraceEvent::FrameSent { from, tag, bytes, copies: c } => {
                copies += u64::from(c);
                [1, from as u64, tag_code(tag), bytes as u64, c as u64]
            }
            TraceEvent::FrameLost { from, tag, cause } => {
                let cause = match cause {
                    LossCause::Radio => 0,
                    LossCause::LinkDown => 1,
                    LossCause::NodeDown => 2,
                };
                [3, from as u64, tag_code(tag), cause, 0]
            }
            TraceEvent::ForwardDropped { at, src, dst } => {
                [4, at as u64, src as u64, dst as u64, 0]
            }
            TraceEvent::NodeCrashed { node } => [5, node as u64, 0, 0, 0],
            TraceEvent::NodeRevived { node } => [6, node as u64, 0, 0, 0],
        };
        words.into_iter().for_each(|w| h.word(w));
    }
    assert_eq!(copies, sim.copies_scheduled(), "the log's copy counts sum to the engine's");
    for &(at, to, link_from, broadcast) in arrivals.borrow().iter() {
        [at, to as u64, link_from as u64, u64::from(broadcast)]
            .into_iter()
            .for_each(|w| h.word(w));
    }
    let s = *sim.stats();
    for w in [
        s.frames_sent,
        s.bytes_sent,
        s.aodv_frames,
        s.data_frames,
        s.bcast_frames,
        s.hello_frames,
        s.frames_lost,
        s.app_unicasts_submitted,
        s.app_unicasts_delivered,
        s.app_unicasts_failed,
        s.app_broadcasts_sent,
        s.app_broadcasts_received,
        s.node_crashes,
        s.node_revivals,
        s.frames_dropped_node_down,
        s.frames_blocked_link_down,
        s.app_frames_rejected,
        s.data_drops_forwarded,
    ] {
        h.word(w);
    }
    for i in 0..NODES {
        h.word(sim.energy_joules(i).to_bits());
    }
    // The scenario must actually exercise what it claims to pin.
    assert!(s.aodv_frames > 1_000 && s.data_frames > 500 && s.bcast_frames > 500, "{s:?}");
    assert!(s.frames_dropped_node_down > 0 && s.frames_blocked_link_down > 0, "{s:?}");
    assert!(s.node_crashes == 4 && s.node_revivals == 3, "{s:?}");
    assert_eq!(s.hello_frames > 0, matches!(mode, NeighborMode::Beacon { .. }), "{s:?}");
    (h.0, log.entries.len(), s.frames_lost)
}

const BEACON: NeighborMode =
    NeighborMode::Beacon { period: SimDuration(1_000_000), expiry: SimDuration(2_500_000) };

#[test]
fn unit_disk_oracle_order_is_pinned() {
    let got = run(NeighborMode::Oracle, 7);
    assert_eq!(
        got,
        (3_546_302_954_868_175_868, 27_514, 13_074),
        "(digest, trace events, frames_lost)"
    );
}

#[test]
fn unit_disk_beacon_order_is_pinned() {
    let got = run(BEACON, 7);
    assert_eq!(
        got,
        (9_414_846_727_740_161_026, 51_083, 28_651),
        "(digest, trace events, frames_lost)"
    );
}
