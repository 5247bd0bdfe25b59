//! A broadcast is one wheel event carrying its receiver list. These tests
//! hold that batch to the per-receiver events it replaced: each copy is
//! still accounted, traced and ordered on its own.

use manet_sim::engine::{Application, MsgMeta, NodeCtx, Simulator};
use manet_sim::fault::FaultPlan;
use manet_sim::mobility::{MobilityConfig, Pos};
use manet_sim::radio::RadioConfig;
use manet_sim::time::{SimDuration, SimTime};
use manet_sim::{FrameTag, LossCause, NodeId, TraceEvent};

/// Timer: broadcast the token. Message: record it and, when `relay` is
/// set, re-broadcast `payload + 1` once from inside the callback.
struct Relay {
    relay: bool,
    got: Vec<(NodeId, u64)>,
}

impl Application<u64> for Relay {
    fn on_message(&mut self, ctx: &mut NodeCtx<u64>, meta: MsgMeta, payload: u64) {
        self.got.push((meta.link_from, payload));
        if self.relay && payload == 0 {
            ctx.broadcast(payload + 1, 16);
        }
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<u64>, token: u64) {
        ctx.broadcast(token, 16);
    }
}

/// Node 0 in the middle of a 100 m cross: everybody hears everybody.
fn cross(radio: RadioConfig, relay: bool) -> Simulator<u64, Relay> {
    let mut sim = Simulator::new(radio, 5);
    for (x, y) in [(100.0, 100.0), (0.0, 100.0), (200.0, 100.0), (100.0, 0.0), (100.0, 200.0)] {
        let app = Relay { relay, got: Vec::new() };
        sim.add_node(Pos::new(x, y), MobilityConfig::frozen(), app, 1);
    }
    sim.enable_trace(10_000);
    sim
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
    let mut sim = cross(fixed_delay(), false);
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
    let lost = TraceEvent::FrameLost { from: 0, tag: FrameTag::Bcast, cause: LossCause::NodeDown };
    let log = sim.take_frame_trace().unwrap();
    let tail: Vec<TraceEvent> = log
        .entries
        .iter()
        .filter(|(at, _)| *at == secs(1.0) + AIR)
        .map(|e| e.1)
        .collect();
    let delivered = |to| TraceEvent::FrameDelivered { to, from: 0, tag: FrameTag::Bcast };
    assert_eq!(tail, vec![delivered(1), lost, delivered(3), lost], "receiver order kept");
}

#[test]
fn frames_sent_from_inside_a_batch_land_after_its_last_receiver() {
    // Zero air time: the relays' frames are scheduled at the very
    // timestamp of the batch that is being delivered.
    let instant =
        RadioConfig { latency: SimDuration::ZERO, bandwidth_bps: f64::INFINITY, ..fixed_delay() };
    let mut sim = cross(instant, true);
    sim.schedule_app_timer(0, secs(1.0), 0);
    sim.run_to_completion();
    let log = sim.take_frame_trace().unwrap();
    assert!(log.entries.iter().all(|(at, _)| *at == secs(1.0)), "everything at one timestamp");
    let delivered: Vec<(NodeId, NodeId)> = log
        .entries
        .iter()
        .filter_map(|e| match e.1 {
            TraceEvent::FrameDelivered { to, from, .. } => Some((from as NodeId, to as NodeId)),
            _ => None,
        })
        .collect();
    let batch = |from: NodeId| (0..5).filter(move |&to| to != from).map(move |to| (from, to));
    let want: Vec<_> = batch(0).chain((1..=4).flat_map(batch)).collect();
    assert_eq!(delivered, want, "the origin's four copies first, then each relay's batch");
}

#[test]
fn a_horizon_never_splits_a_batch_and_stepping_is_one_run() {
    let lands = secs(1.0) + AIR;
    let received =
        |sim: &Simulator<u64, Relay>| (1..=4).map(|i| sim.app(i).got.len()).sum::<usize>();

    let mut sim = cross(fixed_delay(), true);
    sim.schedule_app_timer(0, secs(1.0), 0);
    sim.run_until(SimTime(lands.0 - 1));
    assert_eq!((received(&sim), sim.inflight_frames()), (0, 4), "1 µs early: none of it");
    sim.run_until(lands);
    assert_eq!(received(&sim), 4, "at the timestamp: all of it");
    assert_eq!(sim.inflight_frames(), 16, "and the four relays' batches are in the air");

    let mut whole = cross(fixed_delay(), true);
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
    let mut sim = cross(fixed_delay(), false);
    sim.schedule_app_timer(0, secs(1.0), 0);
    sim.run_until(secs(1.0));
    assert_eq!((sim.inflight_frames(), sim.pending_events()), (4, 1));
    assert_eq!(sim.events_scheduled(), 2, "the timer and one delivery");
    sim.run_to_completion();
    assert_eq!((sim.inflight_frames(), sim.pending_events()), (0, 0));

    // Every copy lost at transmit: nothing is scheduled at all.
    let deaf = RadioConfig { loss_probability: 1.0, ..fixed_delay() };
    let mut sim = cross(deaf, false);
    sim.schedule_app_timer(0, secs(1.0), 0);
    sim.run_until(secs(1.0));
    assert_eq!((sim.inflight_frames(), sim.pending_events(), sim.events_scheduled()), (0, 0, 1));
    assert_eq!((sim.stats().frames_sent, sim.stats().frames_lost), (1, 4));
}
