//! What one frame-trace event costs and how the log leaves the engine: a
//! ring record is 24 bytes, and `take_frame_trace` hands over the ring's
//! own buffer — the same events in the same order, wrapped or not.

use manet_sim::engine::{Application, MsgMeta, NodeCtx, Simulator};
use manet_sim::fault::FaultPlan;
use manet_sim::mobility::{MobilityConfig, Pos};
use manet_sim::radio::RadioConfig;
use manet_sim::time::SimTime;
use manet_sim::trace::EventTrace;
use manet_sim::{FrameTag, TraceEvent};

const _: () = assert!(std::mem::size_of::<TraceEvent>() == 16);
const _: () = assert!(std::mem::size_of::<(SimTime, TraceEvent)>() == 24);

/// Every timer is one broadcast; messages are swallowed.
struct Beacon;

impl Application<u64> for Beacon {
    fn on_message(&mut self, _ctx: &mut NodeCtx<u64>, _meta: MsgMeta, _payload: u64) {}
    fn on_timer(&mut self, ctx: &mut NodeCtx<u64>, token: u64) {
        ctx.broadcast(token, 16);
    }
}

/// Node 0 in the middle of a 100 m cross, broadcasting `bursts` times (one
/// `FrameSent { copies: 4 }` each), then crashing when `crash` is set (one
/// `NodeCrashed`).
fn run(capacity: usize, bursts: u64, crash: bool) -> Simulator<u64, Beacon> {
    let mut sim = Simulator::new(RadioConfig::default(), 5);
    for (x, y) in [(100.0, 100.0), (0.0, 100.0), (200.0, 100.0), (100.0, 0.0), (100.0, 200.0)] {
        sim.add_node(Pos::new(x, y), MobilityConfig::frozen(), Beacon, 1);
    }
    sim.enable_trace(capacity);
    for i in 0..bursts {
        sim.schedule_app_timer(0, SimTime::from_secs_f64(1.0 + i as f64), i);
    }
    if crash {
        sim.install_fault_plan(&FaultPlan::new().crash_at(0, SimTime::from_secs_f64(60.0)));
    }
    sim.run_to_completion();
    sim
}

/// Takes the log and holds it to what the ring iterated an instant before.
fn take_checked(sim: &mut Simulator<u64, Beacon>) -> Vec<(SimTime, TraceEvent)> {
    let ring = sim.trace().expect("trace enabled");
    let before: Vec<_> = ring.entries().copied().collect();
    let dropped = ring.dropped;
    let log = sim.take_frame_trace().expect("first take");
    assert_eq!(log.entries, before);
    assert_eq!(log.dropped, dropped);
    assert!(sim.trace().is_none(), "tracing stops");
    assert!(sim.take_frame_trace().is_none(), "nothing left for a second take");
    log.entries
}

#[test]
fn an_unwrapped_ring_is_handed_over_whole() {
    let mut sim = run(10_000, 4, true);
    assert_eq!(sim.trace().unwrap().dropped, 0);
    let entries = take_checked(&mut sim);
    assert_eq!(entries.len(), 5);
    let burst = TraceEvent::FrameSent { from: 0, tag: FrameTag::Bcast, bytes: 36, copies: 4 };
    for (i, e) in entries[..4].iter().enumerate() {
        assert_eq!((e.0, e.1), (SimTime::from_secs_f64(1.0 + i as f64), burst), "burst {i}");
    }
    assert_eq!(entries[4].1, TraceEvent::NodeCrashed { node: 0 });
}

#[test]
fn a_wrapped_ring_is_rotated_into_order() {
    let whole = take_checked(&mut run(10_000, 4, true));
    // 5 events through 3 slots leave the ring's head mid-buffer.
    let mut sim = run(3, 4, true);
    assert_eq!(sim.trace().unwrap().dropped, 2);
    assert_eq!(take_checked(&mut sim), whole[2..], "the last three, oldest first");
}

#[test]
fn an_empty_ring_yields_an_empty_log() {
    assert!(take_checked(&mut run(8, 0, false)).is_empty());
}

#[test]
fn into_entries_is_entries_for_every_fill_of_a_small_ring() {
    for fed in 0..=21u32 {
        let mut ring = EventTrace::new(8);
        for i in 0..fed {
            ring.record(SimTime(u64::from(i)), TraceEvent::NodeRevived { node: i });
        }
        let before: Vec<_> = ring.entries().copied().collect();
        assert_eq!(before.len(), fed.min(8) as usize);
        assert_eq!(ring.dropped, u64::from(fed.saturating_sub(8)));
        assert_eq!(ring.into_entries(), before, "fed {fed}");
    }
}
