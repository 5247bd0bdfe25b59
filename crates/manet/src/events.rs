//! The simulator's event queue: a hierarchical timer wheel keyed on
//! (time, sequence number), so simultaneous events fire in insertion
//! order — the property that makes runs reproducible.
//!
//! The wheel has 11 levels of 64 slots; level `l` buckets events by the
//! `l`-th base-64 digit of their microsecond timestamp, so the 66 digit
//! bits cover the entire `u64` time domain with no overflow list. An
//! event is filed at the highest level where its timestamp's digit
//! differs from the wheel cursor's; popping cascades the earliest
//! occupied high-level slot down until level 0 (the cursor's current
//! 64 µs window) holds the next event. Per-level occupancy bitmaps make
//! "earliest occupied slot" a `trailing_zeros`, so `schedule` is O(1)
//! and `pop` is amortized O(levels) — replacing the previous
//! `BinaryHeap`'s O(log n) comparisons per operation, which dominated
//! the engine at 1000+ devices.
//!
//! An entry is moved whole — written at `schedule`, re-written by every
//! cascade refile, read at `pop` — and slot deques keep their high-water
//! capacity, so the payload type should be small: the engine keeps its
//! event at 48 bytes (a frame rides behind a pointer, a broadcast is one
//! entry carrying its receiver list), which makes an entry one 64-byte
//! cache line ([`EventQueue::ENTRY_BYTES`]).
//!
//! Ordering is identical to the heap it replaced: strictly by
//! `(at, seq)`. Two facts make the FIFO tie-break hold without ever
//! sorting: a level-0 slot only contains events from the cursor's
//! current window (one exact timestamp per slot), and every slot deque
//! receives entries in increasing `seq` order — direct schedules carry
//! globally increasing sequence numbers, and a cascade drains its
//! source deque front-to-back into entirely empty lower-level slots.

use crate::time::SimTime;
use std::collections::VecDeque;

/// Bits per wheel digit; each level has `2^SLOT_BITS` slots.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Levels; `11 * 6 = 66 >= 64` bits, so any `u64` timestamp fits.
const LEVELS: usize = 11;

/// A scheduled event carrying a payload of type `E`.
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

/// Min-queue of timestamped events with stable FIFO tie-breaking.
pub struct EventQueue<E> {
    /// `LEVELS × SLOTS` deques, indexed `level * SLOTS + slot`.
    slots: Vec<VecDeque<Scheduled<E>>>,
    /// Per-level occupancy bitmap: bit `s` set ⇔ slot `s` is non-empty.
    occ: [u64; LEVELS],
    /// Wheel cursor. Invariants: `cur <= now.0`, every pending event has
    /// `at.0 >= cur`, and level 0 holds only events whose timestamp
    /// matches `cur` on all digits above digit 0. The cursor advances
    /// only inside [`pop`](Self::pop)'s cascade, never on peeks, so
    /// callers may peek, stop, and schedule more events at `now`
    /// without misfiling.
    cur: u64,
    len: usize,
    next_seq: u64,
    now: SimTime,
    /// Cached earliest pending timestamp, recomputed lazily on peek.
    peek: Option<SimTime>,
    peek_valid: bool,
}

/// Digit `level` of timestamp `t`.
fn digit(t: u64, level: usize) -> usize {
    ((t >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize
}

/// Highest level at which `t` differs from the cursor (0 when equal).
fn level_of(t: u64, cur: u64) -> usize {
    let diff = t ^ cur;
    if diff == 0 {
        0
    } else {
        (63 - diff.leading_zeros()) as usize / SLOT_BITS as usize
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            slots: (0..LEVELS * SLOTS).map(|_| VecDeque::new()).collect(),
            occ: [0; LEVELS],
            cur: 0,
            len: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            peek: None,
            peek_valid: true,
        }
    }
}

impl<E> EventQueue<E> {
    /// Bytes one pending event occupies in a slot deque: the payload plus
    /// its `(time, sequence)` key.
    pub const ENTRY_BYTES: usize = std::mem::size_of::<Scheduled<E>>();

    /// Empty queue at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn file(&mut self, s: Scheduled<E>) {
        let level = level_of(s.at.0, self.cur);
        let slot = digit(s.at.0, level);
        self.occ[level] |= 1u64 << slot;
        let q = &mut self.slots[level * SLOTS + slot];
        // Every deque stays seq-sorted without comparisons: direct
        // schedules arrive in global seq order, cascades drain
        // front-to-back into empty lower slots.
        debug_assert!(q.back().is_none_or(|b| b.seq < s.seq));
        q.push_back(s);
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics when `at` lies in the past — scheduling backwards is always a
    /// logic error in a discrete-event simulation.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(at >= self.now, "event scheduled in the past ({at} < {})", self.now);
        if self.peek_valid {
            self.peek = Some(self.peek.map_or(at, |p| p.min(at)));
        }
        let s = Scheduled { at, seq: self.next_seq, payload };
        self.next_seq += 1;
        self.len += 1;
        self.file(s);
    }

    /// Cascades higher-level slots down until level 0 is occupied (or the
    /// wheel is empty). Advancing `cur` to the drained slot's window start
    /// keeps `at >= cur` for everything still pending: the drained slot
    /// was the earliest occupied one, so no event lives below its window.
    fn cascade(&mut self) {
        if self.occ[0] != 0 {
            return; // common case: the current window already has events
        }
        let mut span = sim_obs::span!("wheel::cascade");
        let mut refiled = 0u64;
        while self.occ[0] == 0 {
            let Some(level) = (1..LEVELS).find(|&l| self.occ[l] != 0) else { break };
            let slot = self.occ[level].trailing_zeros() as usize;
            let width = SLOT_BITS * level as u32;
            let above = match width + SLOT_BITS {
                64.. => 0,
                w => (self.cur >> w) << w,
            };
            self.cur = above | ((slot as u64) << width);
            self.occ[level] &= !(1u64 << slot);
            let mut drained = std::mem::take(&mut self.slots[level * SLOTS + slot]);
            refiled += drained.len() as u64;
            for s in drained.drain(..) {
                self.file(s);
            }
            // Hand the allocation back for the slot's next tenant.
            self.slots[level * SLOTS + slot] = drained;
        }
        span.add_units(refiled);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.cascade();
        if self.occ[0] == 0 {
            return None;
        }
        let slot = self.occ[0].trailing_zeros() as usize;
        let q = &mut self.slots[slot];
        let s = q.pop_front().expect("occupied level-0 slot");
        if q.is_empty() {
            self.occ[0] &= !(1u64 << slot);
        }
        self.len -= 1;
        self.now = s.at;
        self.peek_valid = false;
        Some((s.at, s.payload))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if !self.peek_valid {
            self.peek = self.earliest();
            self.peek_valid = true;
        }
        self.peek
    }

    /// Scans for the earliest pending timestamp without disturbing the
    /// wheel. Level 0 slots are exact timestamps in window order, so the
    /// lowest occupied slot's front is the minimum; at higher levels the
    /// lowest occupied slot of the lowest occupied level strictly bounds
    /// everything filed above it, but spans a `64^l` window, so its deque
    /// is scanned for the true minimum.
    fn earliest(&self) -> Option<SimTime> {
        if self.occ[0] != 0 {
            let slot = self.occ[0].trailing_zeros() as usize;
            return Some(self.slots[slot].front().expect("occupied level-0 slot").at);
        }
        for level in 1..LEVELS {
            if self.occ[level] == 0 {
                continue;
            }
            let slot = self.occ[level].trailing_zeros() as usize;
            return self.slots[level * SLOTS + slot].iter().map(|s| s.at).min();
        }
        None
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Events ever scheduled (the running sequence number).
    pub fn scheduled(&self) -> u64 {
        self.next_seq
    }

    /// Number of occupied wheel slots across all levels — how spread-out
    /// the pending events are (a gauge input; one popcount per level).
    pub fn occupied_slots(&self) -> u32 {
        self.occ.iter().map(|b| b.count_ones()).sum()
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), "c");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        assert_eq!(q.pop().unwrap(), (SimTime(10), "a"));
        assert_eq!(q.pop().unwrap(), (SimTime(20), "b"));
        assert_eq!(q.pop().unwrap(), (SimTime(30), "c"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(SimTime(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs_f64(1.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs_f64(1.0));
        // Scheduling relative to now works.
        q.schedule(q.now() + SimDuration::from_millis(1), ());
        assert_eq!(q.peek_time().unwrap(), SimTime(1_001_000));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(100), ());
        q.pop();
        q.schedule(SimTime(50), ());
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime(1), ());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn occupied_slots_tracks_spread() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.occupied_slots(), 0);
        q.schedule(SimTime(1), ());
        q.schedule(SimTime(1), ()); // same slot
        assert_eq!(q.occupied_slots(), 1);
        q.schedule(SimTime(2), ()); // second level-0 slot
        q.schedule(SimTime(1 << 30), ()); // a high-level slot
        assert_eq!(q.occupied_slots(), 3);
        while q.pop().is_some() {}
        assert_eq!(q.occupied_slots(), 0);
    }

    #[test]
    fn far_future_events_cross_all_levels() {
        // Timestamps spanning every wheel level, including the top digit.
        let mut q = EventQueue::new();
        let times = [u64::MAX, 1, 0, 63, 64, 65, 4095, 4096, 1 << 40, (1 << 40) + 1, 1 << 63];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let mut sorted: Vec<u64> = times.to_vec();
        sorted.sort_unstable();
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t.0)).collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn peek_does_not_disturb_scheduling_at_now() {
        // The engine peeks, stops at a horizon, and later schedules more
        // events at times >= now. A peek must not advance the cursor.
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(100_000), "far");
        assert_eq!(q.peek_time(), Some(SimTime(10)));
        assert_eq!(q.pop().unwrap(), (SimTime(10), "a"));
        assert_eq!(q.peek_time(), Some(SimTime(100_000)));
        // now == 10: scheduling just above now must still order correctly.
        q.schedule(SimTime(11), "b");
        assert_eq!(q.peek_time(), Some(SimTime(11)));
        assert_eq!(q.pop().unwrap(), (SimTime(11), "b"));
        assert_eq!(q.pop().unwrap(), (SimTime(100_000), "far"));
    }

    #[test]
    fn interleaved_schedule_and_pop_preserve_fifo() {
        // Same-tick events scheduled across pops of earlier ticks must
        // still come out in insertion order.
        let mut q = EventQueue::new();
        q.schedule(SimTime(50), 0);
        q.schedule(SimTime(50), 1);
        q.schedule(SimTime(20), 100);
        assert_eq!(q.pop().unwrap(), (SimTime(20), 100));
        q.schedule(SimTime(50), 2);
        q.schedule(SimTime(50), 3);
        let tail: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(tail, vec![0, 1, 2, 3]);
    }

    /// The queue this wheel replaced, kept as the ordering oracle.
    struct HeapOracle {
        heap: std::collections::BinaryHeap<(std::cmp::Reverse<(SimTime, u64)>, u32)>,
        next_seq: u64,
        now: SimTime,
    }

    impl HeapOracle {
        fn new() -> Self {
            HeapOracle {
                heap: std::collections::BinaryHeap::new(),
                next_seq: 0,
                now: SimTime::ZERO,
            }
        }
        fn schedule(&mut self, at: SimTime, payload: u32) {
            self.heap.push((std::cmp::Reverse((at, self.next_seq)), payload));
            self.next_seq += 1;
        }
        fn pop(&mut self) -> Option<(SimTime, u32)> {
            let (std::cmp::Reverse((at, _)), payload) = self.heap.pop()?;
            self.now = at;
            Some((at, payload))
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Random interleavings of schedules (with same-tick bursts and
            /// far-future deltas) and pops match the BinaryHeap oracle
            /// event for event.
            #[test]
            fn wheel_matches_heap_oracle(
                ops in prop::collection::vec((0u8..9, 0u64..200_000), 1..400),
            ) {
                let mut wheel = EventQueue::new();
                let mut oracle = HeapOracle::new();
                let mut tag = 0u32;
                for (kind, raw) in ops {
                    // Schedule `now + delta`; deltas span slot, level and
                    // multi-level boundaries, plus exact same-tick ties.
                    let delta = match kind {
                        0 | 1 => Some(raw),
                        2 => Some(0),
                        3 => Some(63),
                        4 => Some(64),
                        5 => Some(4096),
                        6 => Some(1 << 30),
                        _ => None, // pop
                    };
                    match delta {
                        Some(delta) => {
                            let at = SimTime(oracle.now.0 + delta);
                            wheel.schedule(at, tag);
                            oracle.schedule(at, tag);
                            tag += 1;
                        }
                        None => {
                            prop_assert_eq!(wheel.peek_time(), oracle.heap.peek().map(|(std::cmp::Reverse((at, _)), _)| *at));
                            prop_assert_eq!(wheel.pop(), oracle.pop());
                        }
                    }
                }
                // Drain both fully; the tails must agree too.
                loop {
                    let (w, o) = (wheel.pop(), oracle.pop());
                    prop_assert_eq!(w, o);
                    if w.is_none() {
                        break;
                    }
                }
                prop_assert!(wheel.is_empty());
            }
        }
    }
}
