//! # manet-sim
//!
//! A self-contained discrete-event simulator for mobile ad hoc networks —
//! the substrate replacing JiST/SWANS in this reproduction of the ICDE 2006
//! paper (see DESIGN.md for the substitution rationale).
//!
//! Components:
//!
//! * [`time`] — integer-microsecond virtual clock;
//! * [`events`] — deterministic event queue (FIFO tie-breaking);
//! * [`mobility`] — random-waypoint mobility with analytic position
//!   interpolation (speeds 2–10 m/s, 120 s holding time by default, per the
//!   paper's Table 7);
//! * [`radio`] — unit-disk connectivity, bandwidth + latency + jitter
//!   delays, optional random loss;
//! * [`grid`] — the bounded-staleness spatial hash grid behind O(degree)
//!   neighbour discovery at scale;
//! * [`aodv`] — on-demand route discovery (RFC 3561 core);
//! * [`engine`] — the simulator: applications implement
//!   [`engine::Application`] and exchange typed payloads via
//!   routed unicast and one-hop broadcast;
//! * [`trace`] — network counters, the frame-level event ring, and the
//!   structured per-query trace collector (see DESIGN.md §8).
//!
//! ## Example: two static nodes ping-pong over multiple hops
//!
//! ```
//! use manet_sim::engine::{Application, MsgMeta, NodeCtx, Simulator};
//! use manet_sim::mobility::{MobilityConfig, Pos};
//! use manet_sim::radio::RadioConfig;
//! use manet_sim::time::SimTime;
//!
//! struct Echo { got: Option<u32> }
//! impl Application<u32> for Echo {
//!     fn on_message(&mut self, _ctx: &mut NodeCtx<u32>, _meta: MsgMeta, payload: u32) {
//!         self.got = Some(payload);
//!     }
//!     fn on_timer(&mut self, ctx: &mut NodeCtx<u32>, _token: u64) {
//!         ctx.send_unicast(2, 42, 8); // reaches node 2 via node 1
//!     }
//! }
//!
//! let mut sim = Simulator::new(RadioConfig::default(), 1);
//! for x in [0.0, 200.0, 400.0] {
//!     sim.add_node(Pos::new(x, 0.0), MobilityConfig::frozen(), Echo { got: None }, 7);
//! }
//! sim.schedule_app_timer(0, SimTime::ZERO, 0);
//! sim.run_to_completion();
//! assert_eq!(sim.app(2).got, Some(42));
//! ```

pub mod aodv;
pub mod engine;
pub mod events;
pub mod fault;
pub mod grid;
pub mod mobility;
pub mod packet;
pub mod radio;
pub mod time;
pub mod trace;

pub use engine::{Application, MsgMeta, NeighborMode, NodeCtx, Simulator};
pub use fault::{
    AttackConfig, AttackKind, AttackPlan, AttackRole, ChurnConfig, FaultAction, FaultEvent,
    FaultPlan,
};
pub use mobility::{MobilityConfig, Pos};
pub use packet::NodeId;
pub use radio::{EnergyConfig, RadioConfig};
pub use time::{SimDuration, SimTime};
pub use trace::{
    DropCause, FinalizeKind, FrameTag, FrameTraceLog, LossCause, NetStats, QueryEvent, QueryId,
    QueryTraceLog, QueryTraceRecord, TraceEvent,
};

// Experiment descriptions embed these configs and cross thread boundaries
// in the bench sweep harness; keep them thread-portable.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RadioConfig>();
    assert_send_sync::<EnergyConfig>();
    assert_send_sync::<MobilityConfig>();
    assert_send_sync::<NeighborMode>();
    assert_send_sync::<NetStats>();
    assert_send_sync::<FaultPlan>();
    assert_send_sync::<ChurnConfig>();
    assert_send_sync::<SimDuration>();
    assert_send_sync::<SimTime>();
    // Trace logs ride inside experiment outcomes across the sweep pool.
    assert_send_sync::<QueryTraceLog>();
    assert_send_sync::<FrameTraceLog>();
};
