//! The per-hop ARQ shared by the one-shot runtime ([`crate::runtime`]: BF
//! result replies, DF tokens) and the monitoring delta protocol
//! ([`crate::monitor`]: deltas, re-query replies) — the only copy.
//!
//! A sender asks [`Arq::next_seq`] for a sequence number (0 when ARQ is
//! off), stamps it into its message, and hands the message to
//! [`Arq::send`]. The receiver acknowledges at application level; the
//! sender feeds acks to [`Arq::cancel`] and its retransmission timer to
//! [`Arq::on_timeout`], which retransmits with exponential backoff plus
//! deterministic jitter until [`MAX_RETRIES`] are spent and then hands the
//! message back as [`ArqTimeout::Exhausted`]. What happens next (DF token
//! salvage, a monitoring full resync) is the caller's business, as is
//! receiver-side duplicate suppression.

use manet_sim::engine::NodeCtx;
use manet_sim::{NodeId, QueryEvent, QueryId, SimDuration};
use sim_obs::dethash::DetHashMap;

/// Wait before the first retransmission.
const BASE_TIMEOUT: SimDuration = SimDuration::from_millis(2_000);

/// Multiplier applied to the timeout per retransmission (exponential
/// backoff).
const BACKOFF: f64 = 2.0;

/// Upper bound (exclusive) on the deterministic per-(sender, seq, attempt)
/// jitter added to every retransmission timeout.
const MAX_JITTER: SimDuration = SimDuration::from_millis(300);

/// Retransmissions after the initial send before the message is declared
/// undeliverable.
const MAX_RETRIES: u32 = 3;

/// Deterministic splitmix64 jitter in `[0, MAX_JITTER)`, keyed on the
/// sending device, the ARQ sequence number, and the attempt counter, so
/// retransmission bursts de-synchronize without costing reproducibility.
fn splitmix_jitter(device: usize, seq: u64, attempt: u32) -> SimDuration {
    let h = ((device as u64) << 40) ^ seq.rotate_left(17) ^ u64::from(attempt);
    SimDuration(crate::splitmix64(h) % MAX_JITTER.0)
}

/// One tracked message awaiting its ack.
#[derive(Debug)]
struct Pending<M> {
    dst: NodeId,
    msg: M,
    bytes: usize,
    /// The query the message belongs to, for the retry/exhaust trace.
    query: Option<QueryId>,
    /// 1 after the initial send; bumped per retransmission.
    attempt: u32,
}

/// What a retransmission timer found.
#[derive(Debug)]
pub(crate) enum ArqTimeout<M> {
    /// Acked (or cancelled) in time; nothing to do.
    Settled,
    /// One more copy of `bytes` bytes went out and the timer is re-armed.
    Retried { bytes: usize },
    /// [`MAX_RETRIES`] retransmissions went unacknowledged: the message is
    /// abandoned and handed back.
    Exhausted { dst: NodeId, msg: M },
}

/// Sender-side ARQ state of one device.
#[derive(Debug)]
pub(crate) struct Arq<M> {
    /// `false` sends every message untracked (the no-ARQ baseline).
    enabled: bool,
    /// Owning device (jitter key).
    device: usize,
    /// The owner's timer-token channel for retransmission timers; the low
    /// bits carry the sequence number.
    timer_kind: u64,
    next_seq: u64,
    pending: DetHashMap<u64, Pending<M>>,
    /// Retransmissions performed.
    pub(crate) retries: u64,
    /// Tracked messages abandoned after [`MAX_RETRIES`].
    pub(crate) exhausted: u64,
}

impl<M: Clone> Arq<M> {
    pub(crate) fn new(enabled: bool, device: usize, timer_kind: u64) -> Self {
        Arq {
            enabled,
            device,
            timer_kind,
            next_seq: 0,
            pending: DetHashMap::default(),
            retries: 0,
            exhausted: 0,
        }
    }

    /// The sequence number for the next tracked message: never 0 while ARQ
    /// is on, always 0 (= untracked, no ack expected) while it is off.
    pub(crate) fn next_seq(&mut self) -> u64 {
        if self.enabled {
            self.next_seq += 1;
            self.next_seq
        } else {
            0
        }
    }

    /// Retransmission timeout for `attempt` (1 = the initial send):
    /// exponential backoff plus jitter.
    fn delay(&self, seq: u64, attempt: u32) -> SimDuration {
        let scale = BACKOFF.powi(attempt.saturating_sub(1) as i32);
        SimDuration((BASE_TIMEOUT.0 as f64 * scale) as u64)
            + splitmix_jitter(self.device, seq, attempt)
    }

    /// Unicasts `msg`, registering it for retransmission when `seq` is
    /// non-zero. Untracked messages pass straight through.
    pub(crate) fn send(
        &mut self,
        ctx: &mut NodeCtx<M>,
        dst: NodeId,
        msg: M,
        bytes: usize,
        seq: u64,
        query: Option<QueryId>,
    ) {
        if seq != 0 {
            self.pending
                .insert(seq, Pending { dst, msg: msg.clone(), bytes, query, attempt: 1 });
            ctx.set_timer(self.delay(seq, 1), self.timer_kind | seq);
        }
        ctx.send_unicast(dst, msg, bytes);
    }

    /// Stops retransmitting `seq` — its ack arrived, or the caller gave up
    /// on it — and returns the message when it was still pending.
    pub(crate) fn cancel(&mut self, seq: u64) -> Option<M> {
        self.pending.remove(&seq).map(|p| p.msg)
    }

    /// The retransmission timer for `seq` fired. `bump_retries` updates
    /// the retry counter the message itself carries (the receiver's retry
    /// accounting must survive a lost first copy).
    pub(crate) fn on_timeout(
        &mut self,
        ctx: &mut NodeCtx<M>,
        seq: u64,
        bump_retries: impl FnOnce(&mut M),
    ) -> ArqTimeout<M> {
        let Some(mut p) = self.pending.remove(&seq) else {
            return ArqTimeout::Settled;
        };
        if p.attempt > MAX_RETRIES {
            self.exhausted += 1;
            ctx.trace(p.query, QueryEvent::ArqExhausted { seq });
            return ArqTimeout::Exhausted { dst: p.dst, msg: p.msg };
        }
        p.attempt += 1;
        self.retries += 1;
        bump_retries(&mut p.msg);
        let bytes = p.bytes;
        ctx.trace(p.query, QueryEvent::ArqRetry { seq, attempt: p.attempt - 1, bytes });
        ctx.send_unicast(p.dst, p.msg.clone(), bytes);
        ctx.set_timer(self.delay(seq, p.attempt), self.timer_kind | seq);
        self.pending.insert(seq, p);
        ArqTimeout::Retried { bytes }
    }

    /// Forgets every tracked message (crash, cancellation). Sequence
    /// numbers keep counting, so a stale ack can never match a new send.
    pub(crate) fn clear(&mut self) {
        self.pending.clear();
    }

    /// Tracked messages currently awaiting an ack.
    pub(crate) fn backlog(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::engine::{Application, MsgMeta, Simulator};
    use manet_sim::mobility::MobilityConfig;
    use manet_sim::radio::RadioConfig;
    use manet_sim::{FaultPlan, Pos, SimTime};

    const ARQ_TIMER: u64 = 1 << 56;
    const SEND: u64 = 2 << 56;

    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Data { seq: u64, retries: u32 },
        Ack { seq: u64 },
    }

    /// On `SEND`, node 0 sends one tracked `Data` to node 1; node 1 acks
    /// it only when `acks` is set.
    struct Peer {
        arq: Arq<Msg>,
        acks: bool,
        received: Vec<Msg>,
        seqs: Vec<u64>,
        exhausted: Vec<(NodeId, Msg)>,
    }

    impl Application<Msg> for Peer {
        fn on_message(&mut self, ctx: &mut NodeCtx<Msg>, meta: MsgMeta, payload: Msg) {
            match payload {
                Msg::Ack { seq } => {
                    self.arq.cancel(seq);
                }
                Msg::Data { seq, .. } => {
                    self.received.push(payload);
                    if self.acks && seq != 0 {
                        ctx.send_unicast(meta.src, Msg::Ack { seq }, 12);
                    }
                }
            }
        }

        fn on_timer(&mut self, ctx: &mut NodeCtx<Msg>, tok: u64) {
            if tok == SEND {
                let seq = self.arq.next_seq();
                self.seqs.push(seq);
                self.arq.send(ctx, 1, Msg::Data { seq, retries: 0 }, 20, seq, None);
                return;
            }
            let bump = |m: &mut Msg| {
                if let Msg::Data { retries, .. } = m {
                    *retries += 1;
                }
            };
            if let ArqTimeout::Exhausted { dst, msg } =
                self.arq.on_timeout(ctx, tok & !ARQ_TIMER, bump)
            {
                self.exhausted.push((dst, msg));
            }
        }

        fn on_crash(&mut self) {
            self.arq.clear();
        }

        fn on_revive(&mut self, ctx: &mut NodeCtx<Msg>) {
            ctx.set_timer(SimDuration::from_secs_f64(1.0), SEND);
        }
    }

    /// Two lossless, frozen nodes in range; node 0 fires `SEND` at each of
    /// `sends` seconds. Runs for two minutes (the default ARQ gives up
    /// after 2 + 4 + 8 + 16 s).
    fn run(enabled: bool, acks: bool, sends: &[f64], faults: FaultPlan) -> Simulator<Msg, Peer> {
        let mut sim = Simulator::new(RadioConfig::default(), 1);
        for id in 0..2 {
            let peer = Peer {
                arq: Arq::new(enabled, id, ARQ_TIMER),
                acks,
                received: Vec::new(),
                seqs: Vec::new(),
                exhausted: Vec::new(),
            };
            sim.add_node(Pos::new(100.0 * id as f64, 0.0), MobilityConfig::frozen(), peer, 7);
        }
        for &at in sends {
            sim.schedule_app_timer(0, SimTime::from_secs_f64(at), SEND);
        }
        sim.install_fault_plan(&faults);
        sim.run_until(SimTime::from_secs_f64(120.0));
        sim
    }

    #[test]
    fn delay_is_deterministic_backs_off_and_bounds_jitter() {
        let arq: Arq<Msg> = Arq::new(true, 2, ARQ_TIMER);
        let (base, jmax) = (BASE_TIMEOUT.0, MAX_JITTER.0);
        assert_eq!(arq.delay(5, 1), arq.delay(5, 1), "same inputs, same delay");
        for attempt in 1..=4u32 {
            let d = arq.delay(5, attempt).0;
            let backed = (base as f64 * BACKOFF.powi(attempt as i32 - 1)) as u64;
            assert!((backed..backed + jmax).contains(&d), "attempt {attempt}: {d}");
        }
        // Different sequence numbers de-synchronize.
        assert_ne!(splitmix_jitter(2, 1, 1), splitmix_jitter(2, 2, 1));
    }

    #[test]
    fn attempt_zero_cannot_shorten_the_timeout() {
        // `backoff^(attempt - 1)` with a signed exponent would halve the
        // base timeout at attempt 0; the exponent saturates at 0 instead.
        let arq: Arq<Msg> = Arq::new(true, 0, ARQ_TIMER);
        assert!(arq.delay(9, 0).0 >= BASE_TIMEOUT.0);
        assert!(arq.delay(9, 0).0 < BASE_TIMEOUT.0 + MAX_JITTER.0);
    }

    #[test]
    fn disabled_arq_hands_out_seq_zero_and_tracks_nothing() {
        // The receiver never acks, yet nothing is ever retransmitted.
        let sim = run(false, false, &[1.0], FaultPlan::new());
        let sender = sim.app(0);
        assert_eq!(sender.seqs, [0]);
        assert_eq!(sender.arq.backlog(), 0);
        assert_eq!((sender.arq.retries, sender.arq.exhausted), (0, 0));
        assert_eq!(sim.app(1).received, [Msg::Data { seq: 0, retries: 0 }]);
    }

    #[test]
    fn ack_cancels_the_retry() {
        let sim = run(true, true, &[1.0], FaultPlan::new());
        let sender = sim.app(0);
        assert_eq!(sender.seqs, [1], "sequence numbers start at 1 when ARQ is on");
        assert_eq!(sender.arq.backlog(), 0, "the ack settled the message");
        assert_eq!((sender.arq.retries, sender.arq.exhausted), (0, 0));
        assert!(sender.exhausted.is_empty());
        assert_eq!(sim.app(1).received.len(), 1, "one copy, no retransmission");
    }

    #[test]
    fn exactly_max_retries_retransmissions_then_exhausted() {
        let sim = run(true, false, &[1.0], FaultPlan::new());
        let sender = sim.app(0);
        let copies: Vec<Msg> =
            (0..=MAX_RETRIES).map(|retries| Msg::Data { seq: 1, retries }).collect();
        assert_eq!(sim.app(1).received, copies, "the initial send plus MAX_RETRIES copies");
        assert_eq!(sender.arq.retries, u64::from(MAX_RETRIES));
        assert_eq!(sender.arq.exhausted, 1);
        assert_eq!(
            sender.exhausted,
            [(1, Msg::Data { seq: 1, retries: MAX_RETRIES })],
            "the abandoned message comes back with its destination"
        );
        assert_eq!(sender.arq.backlog(), 0);
    }

    #[test]
    fn clear_on_crash_drops_everything_but_keeps_counting_seqs() {
        // Node 0 sends at 1 s, crashes at 1.5 s with the message pending
        // (no acks), and sends again one second after it revives.
        let faults = FaultPlan::new().crash_for(
            0,
            SimTime::from_secs_f64(1.5),
            SimDuration::from_secs_f64(10.0),
        );
        let sim = run(true, false, &[1.0], faults);
        let sender = sim.app(0);
        assert_eq!(sender.seqs, [1, 2], "a stale ack for seq 1 can never match the new send");
        let first: Vec<&Msg> = sim
            .app(1)
            .received
            .iter()
            .filter(|m| matches!(m, Msg::Data { seq: 1, .. }))
            .collect();
        assert_eq!(first, [&Msg::Data { seq: 1, retries: 0 }], "seq 1 died with the crash");
        assert_eq!(sender.exhausted.len(), 1, "only the second send ran out of retries");
        assert!(matches!(sender.exhausted[0].1, Msg::Data { seq: 2, .. }));
        assert_eq!(sender.arq.backlog(), 0, "nothing of seq 1 is left behind");
    }
}
