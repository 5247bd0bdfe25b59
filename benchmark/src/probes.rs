//! Layer probes: one `manet_sim` structure driven alone, at the size the
//! workload gives it, so a change to that structure can be read apart
//! from everything nested inside its `sim_obs` span.

use manet_sim::events::EventQueue;
use manet_sim::grid::SpatialGrid;
use manet_sim::{Pos, SimTime};

use crate::gen::SplitMix;
use crate::harness::Recorder;

/// Nanoseconds per `SpatialGrid::query_into` with `devices` nodes spread
/// over a `side × side` m area, each asking for its one-hop neighbours.
pub fn grid_ns_per_query(devices: usize, side: f64, range_m: f64, rec: &mut Recorder) -> f64 {
    let mut rng = SplitMix::new(0x6121D);
    let mut grid = SpatialGrid::new(range_m);
    let positions: Vec<Pos> = (0..devices)
        .map(|i| {
            let p = rng.point(side);
            let pos = Pos::new(p.x, p.y);
            grid.insert(i, pos);
            pos
        })
        .collect();
    let rounds = (200_000 / devices).max(1);
    let mut out = Vec::new();
    let mut found = 0usize;
    let (_, s) = rec.timed("manet.grid.probe", |_| {
        for _ in 0..rounds {
            for &p in &positions {
                grid.query_into(p, range_m, &mut out);
                found += out.len();
            }
        }
    });
    std::hint::black_box(found);
    s * 1e9 / (rounds * devices) as f64
}

/// Nanoseconds per schedule-and-pop of the engine's `EventQueue` holding
/// four pending timers per device.
pub fn events_ns_per_op(devices: usize, rec: &mut Recorder) -> f64 {
    let mut rng = SplitMix::new(0xE7E27);
    let mut queue: EventQueue<u32> = EventQueue::new();
    // Timer delays from 1 µs to ~16 s, like the engine's mix of frame
    // deliveries and protocol timeouts.
    let mut delay = move || 1 + (rng.next_u64() % (1 << (rng.next_u64() % 25)));
    for i in 0..devices * 4 {
        queue.schedule(SimTime(delay()), i as u32);
    }
    let ops = 400_000;
    let (_, s) = rec.timed("manet.events.probe", |_| {
        for _ in 0..ops {
            let (at, id) = queue.pop().expect("queue stays full");
            queue.schedule(SimTime(at.0 + delay()), id);
        }
    });
    std::hint::black_box(queue.len());
    s * 1e9 / ops as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_return_positive_times() {
        let mut rec = Recorder::new();
        assert!(grid_ns_per_query(64, 800.0, 250.0, &mut rec) > 0.0);
        assert!(events_ns_per_op(64, &mut rec) > 0.0);
    }
}
