//! Adversarial roles and the lightweight defenses against them
//! (DESIGN.md §11): what a compromised device transmits ([`Attack`] and
//! the two forged-reply paths on [`DeviceApp`]), and what an honest device
//! refuses to process ([`Defense`]).

use manet_sim::engine::NodeCtx;
use manet_sim::{AttackKind, AttackRole, DropCause, NodeId, QueryEvent, QueryId, SimTime};
use sim_obs::dethash::DetHashMap;
use skyline_core::region::Point;
use skyline_core::vdr::{FilterTuple, UpperBounds};
use skyline_core::Tuple;

use super::{qid, token, DeviceApp, ProtoMsg};
use crate::config::DefenseConfig;
use crate::query::{QueryKey, QueryLog, QuerySpec};

/// Rate-limit defense: token-bucket refill rate, fresh queries per second
/// per originator.
const RATE_PER_S: f64 = 0.5;

/// Rate-limit defense: token-bucket capacity (burst allowance), in queries.
const RATE_BURST: f64 = 6.0;

/// Sanity defense: domain floor — no honest attribute is below this (the
/// paper's generator draws attributes from [1, 1000]).
const MIN_ATTR: f64 = 1.0;

/// Reputation defense: penalties before a peer is isolated.
const REPUTATION_THRESHOLD: u64 = 3;

/// The defensive gates of one device and the books they keep. All state
/// is volatile: a rebooted device forgets who it had rate-limited or
/// isolated (attackers get a fresh start — a deliberate, documented
/// weakness of per-node-memory defenses).
#[derive(Default)]
pub(super) struct Defense {
    cfg: DefenseConfig,
    /// Network size (bound on a plausible responder id).
    m: usize,
    /// Rate-limit defense: per-source token buckets, (last refill, tokens).
    buckets: DetHashMap<NodeId, (SimTime, f64)>,
    /// Reputation defense: penalties accumulated per peer.
    reputation: DetHashMap<NodeId, u64>,
    /// Delivered frames this device refused to process (defensive decode
    /// or an active defense).
    pub(super) frames_dropped: u64,
    /// Filter tuples stripped by the sanity check.
    pub(super) filters_rejected: u64,
    /// Reputation penalties this device handed out.
    pub(super) penalties: u64,
}

impl Defense {
    pub(super) fn new(cfg: DefenseConfig, m: usize) -> Self {
        Defense { cfg, m, ..Defense::default() }
    }

    pub(super) fn on_crash(&mut self) {
        self.buckets.clear();
        self.reputation.clear();
    }

    /// Books a refused frame: counter, engine stat, trace. Every defensive
    /// drop goes through here so zero-drift can reconcile all three.
    pub(super) fn drop_frame(
        &mut self,
        ctx: &mut NodeCtx<ProtoMsg>,
        query: Option<QueryId>,
        from: NodeId,
        cause: DropCause,
    ) {
        self.frames_dropped += 1;
        ctx.reject_frame();
        ctx.trace(query, QueryEvent::AttackFrameDropped { from, cause });
    }

    /// Reputation defense: charges `offender` one penalty.
    pub(super) fn penalize(
        &mut self,
        ctx: &mut NodeCtx<ProtoMsg>,
        query: Option<QueryId>,
        offender: NodeId,
    ) {
        if !self.cfg.reputation {
            return;
        }
        let score = self.reputation.entry(offender).or_insert(0);
        *score += 1;
        let score = *score;
        self.penalties += 1;
        ctx.trace(query, QueryEvent::ReputationPenalty { offender, score });
    }

    /// Penalises `offender` and refuses its frame for `cause`.
    pub(super) fn punish(
        &mut self,
        ctx: &mut NodeCtx<ProtoMsg>,
        query: Option<QueryId>,
        offender: NodeId,
        cause: DropCause,
    ) {
        self.penalize(ctx, query, offender);
        self.drop_frame(ctx, query, offender, cause);
    }

    /// `true` when `peer` has enough penalties to be shunned.
    pub(super) fn is_isolated(&self, peer: NodeId) -> bool {
        self.cfg.reputation
            && self.reputation.get(&peer).copied().unwrap_or(0) >= REPUTATION_THRESHOLD
    }

    /// Rate-limit admission of a fresh query flood. The charge goes to
    /// the *originator's* bucket: duplicate copies are already inert and
    /// must not charge anyone, and charging the relaying neighbor would
    /// isolate honest nodes for forwarding a flood they didn't start. One
    /// exception — the identity-plausibility verdict: an originator's own
    /// broadcast arrives at hop zero with the routing source equal to its
    /// claimed origin (relays always rebroadcast at hops >= 1), so a
    /// zero-hop frame whose sender contradicts its claimed origin is a
    /// spoofed flood, and its tokens come out of the *spoofer's* bucket —
    /// the victim's budget stays untouched (DESIGN §11.5). Returns the
    /// node to punish when the bucket is empty.
    pub(super) fn over_rate(
        &mut self,
        now: SimTime,
        from: NodeId,
        origin: NodeId,
        hops: u8,
    ) -> Option<NodeId> {
        if !self.cfg.rate_limit {
            return None;
        }
        let spoofed = self.cfg.identity && hops == 0 && from != origin;
        let charge = if spoofed { from } else { origin };
        let (last, tokens) = self.buckets.entry(charge).or_insert((now, RATE_BURST));
        let elapsed = now.since(*last).as_secs_f64();
        *tokens = (*tokens + elapsed * RATE_PER_S).min(RATE_BURST);
        *last = now;
        if *tokens >= 1.0 {
            *tokens -= 1.0;
            None
        } else {
            Some(charge)
        }
    }

    /// Identity plausibility: in this simulator the routing layer's
    /// end-to-end source is authentic (the in-sim stand-in for
    /// beacon-verified identities), so a claimed id that contradicts it is
    /// a forgery.
    pub(super) fn forged(&self, claimed: NodeId, from: NodeId) -> bool {
        self.cfg.identity && claimed != from
    }

    /// Reply sanity: `true` when any tuple is not finite or sits below the
    /// configured domain floor (nothing honest can dominate the floor, so
    /// such a tuple falsely dominates everything).
    pub(super) fn implausible_reply(&self, tuples: &[Tuple]) -> bool {
        self.cfg.sanity
            && !tuples.iter().all(|t| {
                t.x.is_finite()
                    && t.y.is_finite()
                    && t.attrs.iter().all(|a| a.is_finite() && *a >= MIN_ATTR)
            })
    }

    /// Same plausibility test for a filter tuple.
    fn sane_filter(&self, f: &FilterTuple) -> bool {
        f.vdr.is_finite() && f.attrs.iter().all(|a| a.is_finite() && *a >= MIN_ATTR)
    }

    /// Sanity defense: strips implausible filters from an incoming bank,
    /// tracing and penalising each rejection. Honest filters pass
    /// untouched.
    pub(super) fn sanitize_filters(
        &mut self,
        ctx: &mut NodeCtx<ProtoMsg>,
        query: QueryId,
        from: NodeId,
        filters: Vec<FilterTuple>,
    ) -> Vec<FilterTuple> {
        if !self.cfg.sanity || filters.iter().all(|f| self.sane_filter(f)) {
            return filters;
        }
        let mut kept = Vec::with_capacity(filters.len());
        for f in filters {
            if self.sane_filter(&f) {
                kept.push(f);
            } else {
                self.filters_rejected += 1;
                ctx.trace(Some(query), QueryEvent::FilterRejected { from, vdr: f.vdr });
                self.penalize(ctx, Some(query), from);
            }
        }
        kept
    }

    /// Defensive decode (always on): structural validity of a delivered
    /// frame, before any protocol handler touches it. Attacker-controlled
    /// input exists now; a malformed frame is counted and dropped, never
    /// trusted.
    pub(super) fn well_formed(&self, msg: &ProtoMsg) -> bool {
        let finite = |ts: &[Tuple]| {
            ts.iter().all(|t| {
                t.x.is_finite() && t.y.is_finite() && t.attrs.iter().all(|a| a.is_finite())
            })
        };
        match msg {
            ProtoMsg::BfQuery { spec, filters, .. } => {
                spec.pos.x.is_finite()
                    && spec.pos.y.is_finite()
                    && !spec.d.is_nan()
                    && filters.iter().all(|f| f.attrs.iter().all(|a| a.is_finite()))
            }
            ProtoMsg::BfResult { claimed, tuples, .. } => *claimed < self.m && finite(tuples),
            ProtoMsg::DfToken(t) => finite(&t.partial),
            ProtoMsg::HandoffTransfer { tuples } => finite(tuples),
            _ => true,
        }
    }
}

/// The adversarial role a device plays, if any, and what it has sent.
#[derive(Default)]
pub(super) struct Attack {
    /// Role from the attack plan (`None` = honest device).
    pub(super) role: Option<AttackRole>,
    /// Fake-query counter for the flood spammer, kept in a cnt range the
    /// real workload never reaches.
    cnt: u8,
    /// Attack frames this device transmitted (spam, poison, forgeries).
    pub(super) frames_sent: u64,
}

impl Attack {
    /// `true` while this device plays `kind` and the role window is open.
    pub(super) fn is_active(&self, now: SimTime, kind: AttackKind) -> bool {
        self.role.is_some_and(|r| r.kind == kind && r.active_at(now))
    }

    /// Books one adversarial frame: counter and trace.
    fn book(&mut self, ctx: &mut NodeCtx<ProtoMsg>, key: QueryKey, kind: AttackKind, bytes: usize) {
        self.frames_sent += 1;
        ctx.trace(Some(qid(key)), QueryEvent::AttackFrameSent { kind, bytes });
    }

    /// Arms the spammer's tick when a flood role's window is still open
    /// (a reviving spammer resumes its flood).
    pub(super) fn on_revive(&self, ctx: &mut NodeCtx<ProtoMsg>) {
        if let Some(role) = self.role {
            if role.kind == AttackKind::QueryFlood && ctx.now < role.until {
                ctx.set_timer(role.period, token::ATTACK_TICK);
            }
        }
    }

    /// Query-flood spammer: broadcast a fake query, then re-arm the tick
    /// while the role window is open.
    pub(super) fn tick(&mut self, ctx: &mut NodeCtx<ProtoMsg>, log: &mut QueryLog) {
        let Some(role) = self.role else { return };
        if role.kind != AttackKind::QueryFlood || ctx.now >= role.until {
            return;
        }
        if role.active_at(ctx.now) {
            // Fake ids live in a cnt range the real workload never uses, so
            // honest duplicate suppression treats each flood as a fresh
            // query (maximum amplification) without colliding with real
            // keys.
            let cnt = 100 + (self.cnt % 156);
            // Origin-spoofed variant (DESIGN §11.5): claim a rotating
            // honest neighbor as the originator so per-origin buckets
            // charge the victim. The frame still leaves at hops == 0,
            // which is exactly what the identity-plausibility check
            // keys on to re-route the charge to this spoofer.
            let claimed = match ctx.neighbors() {
                n if role.spoof && !n.is_empty() => n[(self.cnt as usize) % n.len()],
                _ => ctx.id,
            };
            self.cnt = self.cnt.wrapping_add(1);
            let spec = QuerySpec::new(
                claimed,
                cnt,
                Point::new(ctx.position.x, ctx.position.y),
                f64::INFINITY,
            );
            // Mark the fake key as seen so flood echoes die here; replies
            // are simply ignored (the spammer has no active query).
            log.check_and_record(spec.key);
            let msg = ProtoMsg::BfQuery { spec, filters: Vec::new(), round: 0, hops: 0 };
            let bytes = msg.wire_size();
            self.book(ctx, spec.key, AttackKind::QueryFlood, bytes);
            ctx.broadcast(msg, bytes);
        }
        ctx.set_timer(role.period, token::ATTACK_TICK);
    }
}

impl DeviceApp {
    /// Poisoned-filter injector: answer someone else's fresh query with a
    /// fabricated filter that falsely dominates the whole domain (starving
    /// every device downstream of the rebroadcast) and a fabricated result
    /// tuple at the query point that poisons the originator's merge.
    /// `hops` is the hop count the relayed copy leaves with.
    pub(super) fn poison_reply(
        &mut self,
        ctx: &mut NodeCtx<ProtoMsg>,
        spec: QuerySpec,
        round: u8,
        hops: u8,
    ) {
        use device_storage::DeviceRelation as _;
        let dim = match self.device.relation.dim() {
            0 => 2,
            d => d,
        };
        // Below any honest attribute (the paper's generator draws from
        // [1, 1000]): dominates everything, including real skyline tuples.
        let attrs = vec![1e-3; dim];
        let poison = FilterTuple::new(attrs.clone(), &UpperBounds::new(vec![1000.0; dim]));
        let fake = Tuple::new(spec.pos.x, spec.pos.y, attrs);
        let reply = self.new_reply(spec.key, ctx.id, vec![fake], 1, true);
        self.attack.book(ctx, spec.key, AttackKind::FilterPoison, reply.wire_size());
        // No processing cost: the attacker does no real work.
        self.send_tracked(ctx, spec.key.origin, reply);
        let fwd = ProtoMsg::BfQuery { spec, filters: vec![poison], round, hops };
        let bytes = fwd.wire_size();
        self.attack.book(ctx, spec.key, AttackKind::FilterPoison, bytes);
        ctx.broadcast(fwd, bytes);
    }

    /// Sybil forger: after its honest reply, answer the same query another
    /// `sybil_k` times under fabricated identities so the originator's
    /// responder count fills up with ghosts and it finalizes before honest
    /// stragglers arrive.
    pub(super) fn sybil_replies(&mut self, ctx: &mut NodeCtx<ProtoMsg>, key: QueryKey) {
        let k = self.attack.role.map_or(0, |r| r.sybil_k);
        let (id, m) = (ctx.id, self.m);
        let ghosts = (1..m)
            .map(move |step| (id + step) % m)
            .filter(move |&claimed| claimed != id && claimed != key.origin)
            .take(k);
        for claimed in ghosts {
            let reply = self.new_reply(key, claimed, Vec::new(), 0, false);
            self.attack.book(ctx, key, AttackKind::Sybil, reply.wire_size());
            self.send_tracked(ctx, key.origin, reply);
        }
    }
}
