//! A broadcast is one wheel event carrying its receiver list. These tests
//! hold that batch to the per-receiver events it replaced: each copy is
//! still accounted and ordered on its own, and a copy lost on arrival is
//! still traced on its own. The frame trace lists a transmission once, with
//! its copy count; the copies themselves are observed where they land, in
//! the application.

use std::cell::RefCell;
use std::rc::Rc;

use manet_sim::engine::{Application, MsgMeta, NodeCtx, Simulator};
use manet_sim::fault::FaultPlan;
use manet_sim::mobility::{MobilityConfig, Pos};
use manet_sim::radio::RadioConfig;
use manet_sim::time::{SimDuration, SimTime};
use manet_sim::{FrameTag, LossCause, NodeId, TraceEvent};

/// `(link-layer sender, receiver)` of every copy the apps saw, in the
/// order they saw them, across all nodes.
type Arrivals = Rc<RefCell<Vec<(NodeId, NodeId)>>>;

/// Timer: broadcast the token. Message: record it and, when `relay` is
/// set, re-broadcast `payload + 1` once from inside the callback.
struct Relay {
    relay: bool,
    got: Vec<(NodeId, u64)>,
    arrivals: Arrivals,
}

impl Application<u64> for Relay {
    fn on_message(&mut self, ctx: &mut NodeCtx<u64>, meta: MsgMeta, payload: u64) {
        self.got.push((meta.link_from, payload));
        self.arrivals.borrow_mut().push((meta.link_from, ctx.id));
        if self.relay && payload == 0 {
            ctx.broadcast(payload + 1, 16);
        }
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<u64>, token: u64) {
        ctx.broadcast(token, 16);
    }
}

/// Node 0 in the middle of a 100 m cross: everybody hears everybody.
fn cross(radio: RadioConfig, relay: bool) -> (Simulator<u64, Relay>, Arrivals) {
    let mut sim = Simulator::new(radio, 5);
    let arrivals = Arrivals::default();
    for (x, y) in [(100.0, 100.0), (0.0, 100.0), (200.0, 100.0), (100.0, 0.0), (100.0, 200.0)] {
        let app = Relay { relay, got: Vec::new(), arrivals: Rc::clone(&arrivals) };
        sim.add_node(Pos::new(x, y), MobilityConfig::frozen(), app, 1);
    }
    sim.enable_trace(10_000);
    (sim, arrivals)
}

/// No jitter: a 36-byte broadcast frame lands exactly `AIR` after it is sent.
fn fixed_delay() -> RadioConfig {
    RadioConfig { jitter: SimDuration::ZERO, ..RadioConfig::default() }
}
const AIR: SimDuration = SimDuration(2_000 + 36 * 8);

fn secs(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

#[test]
fn receiver_crashed_mid_flight_is_lost_alone() {
    let (mut sim, arrivals) = cross(fixed_delay(), false);
    sim.schedule_app_timer(0, secs(1.0), 0);
    // Down after the transmit-time gate, before the copies land.
    let mid = secs(1.0) + SimDuration(1_000);
    sim.install_fault_plan(&FaultPlan::new().crash_at(2, mid).crash_at(4, mid));
    sim.run_to_completion();
    let s = *sim.stats();
    assert_eq!((s.frames_dropped_node_down, s.frames_lost), (2, 2));
    assert_eq!(s.app_broadcasts_received, 2);
    for i in 1..=4 {
        let want = if i % 2 == 1 { vec![(0, 0)] } else { vec![] };
        assert_eq!(sim.app(i).got, want, "node {i}");
    }
    assert_eq!(*arrivals.borrow(), [(0, 1), (0, 3)], "receiver order kept");
    let at = |t: SimTime| {
        let log = sim.trace().unwrap().entries();
        log.filter(|e| e.0 == t).map(|e| e.1).collect::<Vec<TraceEvent>>()
    };
    // All four copies passed the transmit-time gates...
    let sent = TraceEvent::FrameSent { from: 0, tag: FrameTag::Bcast, bytes: 36, copies: 4 };
    assert_eq!(at(secs(1.0)), [sent]);
    // ...and each crashed receiver's copy dies on arrival, alone.
    let lost = TraceEvent::FrameLost { from: 0, tag: FrameTag::Bcast, cause: LossCause::NodeDown };
    assert_eq!(at(secs(1.0) + AIR), [lost, lost]);
}

#[test]
fn frames_sent_from_inside_a_batch_land_after_its_last_receiver() {
    // Zero air time: the relays' frames are scheduled at the very
    // timestamp of the batch that is being delivered.
    let instant =
        RadioConfig { latency: SimDuration::ZERO, bandwidth_bps: f64::INFINITY, ..fixed_delay() };
    let (mut sim, arrivals) = cross(instant, true);
    sim.schedule_app_timer(0, secs(1.0), 0);
    sim.run_to_completion();
    let log = sim.take_frame_trace().unwrap();
    assert!(log.entries.iter().all(|(at, _)| *at == secs(1.0)), "everything at one timestamp");
    // Five transmissions of four copies each, the origin's first.
    let senders: Vec<(u32, u32)> = log
        .entries
        .iter()
        .map(|e| match e.1 {
            TraceEvent::FrameSent { from, copies, .. } => (from, copies),
            other => panic!("only sends expected, got {other:?}"),
        })
        .collect();
    assert_eq!(senders, [(0, 4), (1, 4), (2, 4), (3, 4), (4, 4)]);
    let batch = |from: NodeId| (0..5).filter(move |&to| to != from).map(move |to| (from, to));
    let want: Vec<_> = batch(0).chain((1..=4).flat_map(batch)).collect();
    assert_eq!(*arrivals.borrow(), want, "the origin's four copies first, then each relay's batch");
}

#[test]
fn a_horizon_never_splits_a_batch_and_stepping_is_one_run() {
    let lands = secs(1.0) + AIR;
    let received =
        |sim: &Simulator<u64, Relay>| (1..=4).map(|i| sim.app(i).got.len()).sum::<usize>();

    let (mut sim, _) = cross(fixed_delay(), true);
    sim.schedule_app_timer(0, secs(1.0), 0);
    sim.run_until(SimTime(lands.0 - 1));
    assert_eq!((received(&sim), sim.inflight_frames()), (0, 4), "1 µs early: none of it");
    sim.run_until(lands);
    assert_eq!(received(&sim), 4, "at the timestamp: all of it");
    assert_eq!(sim.inflight_frames(), 16, "and the four relays' batches are in the air");

    let (mut whole, _) = cross(fixed_delay(), true);
    whole.schedule_app_timer(0, secs(1.0), 0);
    whole.run_to_completion();
    let mut t = lands;
    while sim.pending_events() > 0 {
        t += SimDuration(100);
        sim.run_until(t);
    }
    assert_eq!(sim.stats(), whole.stats());
    assert_eq!(sim.take_frame_trace().unwrap().entries, whole.take_frame_trace().unwrap().entries);
}

#[test]
fn inflight_counts_copies_and_pending_counts_transmissions() {
    let (mut sim, _) = cross(fixed_delay(), false);
    sim.schedule_app_timer(0, secs(1.0), 0);
    sim.run_until(secs(1.0));
    assert_eq!((sim.inflight_frames(), sim.pending_events()), (4, 1));
    assert_eq!(sim.events_scheduled(), 2, "the timer and one delivery");
    sim.run_to_completion();
    assert_eq!((sim.inflight_frames(), sim.pending_events()), (0, 0));

    // Every copy lost at transmit: nothing is scheduled at all.
    let deaf = RadioConfig { loss_probability: 1.0, ..fixed_delay() };
    let (mut sim, _) = cross(deaf, false);
    sim.schedule_app_timer(0, secs(1.0), 0);
    sim.run_until(secs(1.0));
    assert_eq!((sim.inflight_frames(), sim.pending_events(), sim.events_scheduled()), (0, 0, 1));
    assert_eq!((sim.stats().frames_sent, sim.stats().frames_lost), (1, 4));
}
