//! Strategy configuration: which of the paper's knobs a run uses.

use manet_sim::SimDuration;
use skyline_core::vdr::{BoundsMode, FilterTest, MultiFilterSelection, UpperBounds};
use skyline_core::DominanceTest;

/// How filtering tuples are used (Sections 3.1–3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FilterStrategy {
    /// Straightforward strategy: ship the query only, return local
    /// skylines unfiltered.
    NoFilter,
    /// `SF`: one filter picked by the originator, used everywhere.
    Single,
    /// `DF` (filtering sense): the filter is upgraded en route whenever a
    /// device's local skyline holds a tuple with larger VDR.
    #[default]
    Dynamic,
    /// The paper's future-work extension: up to `k` filtering tuples,
    /// selected greedily for complementary coverage at the originator and
    /// upgraded (weakest-out) en route. `k = 1` behaves like
    /// [`FilterStrategy::Dynamic`]
    /// with the VDR-only selection.
    MultiDynamic {
        /// Maximum number of filters in flight.
        k: usize,
    },
}

/// Query-forwarding strategy in the MANET runtime (Section 5.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Forwarding {
    /// Breadth-first: flood the query; every device replies straight to the
    /// originator; parallel processing.
    #[default]
    BreadthFirst,
    /// Depth-first: a single query token walks the network, accumulating
    /// the merged result along the reverse path; serial processing.
    DepthFirst,
    /// Probabilistic flood (gossip): like [`Forwarding::BreadthFirst`] but
    /// a non-originator re-broadcasts only with the given probability (in
    /// percent). An ablation between BF's full flood and no relaying —
    /// trades coverage for message count.
    Gossip {
        /// Re-broadcast probability, 0–100.
        rebroadcast_percent: u8,
    },
}

/// Everything a device needs to know about the active strategy.
#[derive(Debug, Clone)]
pub struct StrategyConfig {
    /// Filtering strategy.
    pub filter: FilterStrategy,
    /// How dominating-region bounds are derived (EXT / OVE / UNE).
    pub bounds_mode: BoundsMode,
    /// Exact global upper bounds `b_k` (needed for `Exact`, and as the base
    /// for `Over`).
    pub exact_bounds: Vec<f64>,
    /// `Over` multiplies the exact bounds by this factor (paper: "a
    /// pre-specified value larger than the global domain upper bound").
    pub over_factor: f64,
    /// The filter elimination test. The default is full dominance: although
    /// Fig. 4's pseudocode writes strict `<` on every dimension, the
    /// paper's own worked example ("this tuple eliminates h14 **and h16**",
    /// where h16 ties the filter on one attribute) requires dominance
    /// semantics, and on integer domains the strict test loses most of the
    /// filter's power. `StrictAll` remains available for the ablation.
    pub filter_test: FilterTest,
    /// The scan dominance test (paper default on hybrid storage:
    /// [`DominanceTest::PaperStrict`]).
    pub dominance: DominanceTest,
    /// When `true`, a device that skips its scan because the filter
    /// dominates its domain minima still computes the unreduced skyline
    /// *for accounting only*, so DRR has its `|SK_i|` term. Costs nothing
    /// in virtual time.
    pub shadow_accounting: bool,
    /// Which tuples the `MultiDynamic` originator picks (the "which" half
    /// of the paper's open question).
    pub multi_selection: MultiFilterSelection,
}

impl Default for StrategyConfig {
    fn default() -> Self {
        StrategyConfig {
            filter: FilterStrategy::Dynamic,
            bounds_mode: BoundsMode::Under,
            exact_bounds: Vec::new(),
            over_factor: 2.0,
            filter_test: FilterTest::Dominance,
            dominance: DominanceTest::PaperStrict,
            shadow_accounting: true,
            multi_selection: MultiFilterSelection::GreedyCoverage,
        }
    }
}

impl StrategyConfig {
    /// The straightforward (no-filter) strategy.
    pub fn straightforward() -> Self {
        StrategyConfig { filter: FilterStrategy::NoFilter, ..Self::default() }
    }

    /// Bounds a device should plug into VDR selection, given its own local
    /// maxima (`UNE` knowledge). Returns `None` when filtering is off or the
    /// device has no data for `Under`.
    pub fn vdr_bounds(&self, local_maxima: Option<&UpperBounds>) -> Option<UpperBounds> {
        if self.filter == FilterStrategy::NoFilter {
            return None;
        }
        match self.bounds_mode {
            BoundsMode::Exact => Some(UpperBounds::new(self.exact_bounds.clone())),
            BoundsMode::Over => {
                Some(UpperBounds::new(self.exact_bounds.clone()).scaled(self.over_factor))
            }
            BoundsMode::Under => local_maxima.cloned(),
        }
    }
}

/// Per-hop ARQ (acknowledge/retransmit) parameters for the unicast
/// protocol messages that carry query state: BF result replies and DF
/// tokens. Broadcast floods are not ARQ'd — redundancy is their
/// reliability mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArqConfig {
    /// Master switch; `false` reproduces the pre-hardening fire-and-forget
    /// behaviour (the no-ARQ baseline in the chaos bench).
    pub enabled: bool,
    /// Wait before the first retransmission.
    pub base_timeout: SimDuration,
    /// Multiplier applied to the timeout per retransmission (exponential
    /// backoff).
    pub backoff: f64,
    /// Upper bound on the deterministic per-(sender, seq, attempt) jitter
    /// added to every retransmission timeout, to de-synchronize
    /// retransmission bursts without sacrificing reproducibility.
    pub max_jitter: SimDuration,
    /// Retransmissions after the initial send before the message is
    /// declared undeliverable.
    pub max_retries: u32,
}

impl Default for ArqConfig {
    fn default() -> Self {
        ArqConfig {
            enabled: true,
            base_timeout: SimDuration::from_secs_f64(2.0),
            backoff: 2.0,
            max_jitter: SimDuration::from_secs_f64(0.3),
            max_retries: 3,
        }
    }
}

/// Per-query tracing switches (see DESIGN.md §8). Off by default: every
/// record site reduces to one `Option` check, so disabled runs pay nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch for the structured per-query trace.
    pub enabled: bool,
    /// Ring capacity (records) per node. Overflow sets `dropped` on the
    /// exported log, which voids the zero-drift guarantee — size generously.
    pub per_node_capacity: usize,
    /// Also capture the frame-level engine trace for `NetStats`
    /// cross-checking (only read when `enabled`).
    pub frames: bool,
    /// Frame-trace ring capacity (events, shared across nodes).
    pub frames_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            per_node_capacity: 65_536,
            frames: false,
            frames_capacity: 1 << 21,
        }
    }
}

impl TraceConfig {
    /// Tracing on, with the frame-level capture for zero-drift checks.
    pub fn full() -> Self {
        TraceConfig { enabled: true, frames: true, ..Self::default() }
    }
}

/// Observability switches (DESIGN.md §13). Off by default and strictly
/// read-only: gauges sample engine state at fixed *simulated* times, so
/// enabling them never changes event order, RNG draws, or any outcome
/// column — only whether the time series is collected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsConfig {
    /// Master switch for engine gauge sampling.
    pub gauges: bool,
    /// Sampling period in simulated seconds.
    pub sample_period_seconds: f64,
    /// Ring capacity (samples) per gauge series; overflow drops the
    /// oldest samples and counts them on the exported log.
    pub gauge_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig { gauges: false, sample_period_seconds: 10.0, gauge_capacity: 4096 }
    }
}

impl ObsConfig {
    /// Gauges on at the default cadence.
    pub fn sampled() -> Self {
        ObsConfig { gauges: true, ..Self::default() }
    }
}

/// Lightweight defenses against adversarial participants (DESIGN.md §11).
/// Everything defaults to **off** so honest runs are bit-identical to the
/// pre-adversarial runtime; `DefenseConfig::all()` is the hardened profile
/// the `msq ext attack` grid benches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefenseConfig {
    /// Per-originator token-bucket rate limiting of query floods: a *fresh*
    /// query whose originator's bucket is empty is dropped (and the
    /// originator penalised). Buckets key on the query's origin, not the
    /// relaying neighbour — honest relays must not be blamed for floods
    /// they forward — and duplicate copies charge nobody.
    pub rate_limit: bool,
    /// Token-bucket refill rate, fresh queries per second per originator.
    pub rate_per_s: f64,
    /// Token-bucket capacity (burst allowance), in queries.
    pub rate_burst: f64,
    /// Reject filter tuples and reply tuples whose attributes fall outside
    /// the plausible data domain (or are non-finite), and reject whole
    /// replies that carry such tuples.
    pub sanity: bool,
    /// Domain floor for the sanity check: no honest attribute is below
    /// this. The paper's generator draws attributes from [1, 1000].
    pub min_attr: f64,
    /// Reject replies whose claimed responder identity contradicts the
    /// routing-layer source or names an impossible device.
    pub identity: bool,
    /// Track per-peer penalties and isolate repeat offenders: drop their
    /// frames and skip them in DF next-hop selection.
    pub reputation: bool,
    /// Penalties before a peer is isolated.
    pub reputation_threshold: u64,
}

impl Default for DefenseConfig {
    fn default() -> Self {
        DefenseConfig {
            rate_limit: false,
            rate_per_s: 0.5,
            rate_burst: 6.0,
            sanity: false,
            min_attr: 1.0,
            identity: false,
            reputation: false,
            reputation_threshold: 3,
        }
    }
}

impl DefenseConfig {
    /// All defenses on with default thresholds.
    pub fn all() -> Self {
        DefenseConfig {
            rate_limit: true,
            sanity: true,
            identity: true,
            reputation: true,
            ..Self::default()
        }
    }

    /// `true` when any defense is active.
    pub fn any(&self) -> bool {
        self.rate_limit || self.sanity || self.identity || self.reputation
    }
}

/// Every timer constant of the MANET runtime in one place. Defaults match
/// the values the runtime used when they were inline literals, so existing
/// experiments are unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistConfig {
    /// Give up on a query this long after issuing it.
    pub query_timeout: SimDuration,
    /// Re-try issuing when the device has no in-range neighbors yet.
    pub issue_retry: SimDuration,
    /// Pause between finishing one query and issuing the next.
    pub next_query_delay: SimDuration,
    /// BF originator: if the completion rule is still unmet this long
    /// after issuing, re-flood the query with a bumped round number so it
    /// reaches the region a crashed relay cut off.
    pub reissue_delay: SimDuration,
    /// Maximum re-floods per query (0 disables re-issue).
    pub max_reissues: u32,
    /// Handoff originator: deadline for the candidate's accept.
    pub handoff_accept_timeout: SimDuration,
    /// Handoff candidate: deadline for the data transfer after accepting.
    pub handoff_transfer_timeout: SimDuration,
    /// Handoff originator: deadline for the final ack after transferring.
    pub handoff_ack_timeout: SimDuration,
    /// Period of the data-locality distance sampling.
    pub locality_sample_period: SimDuration,
    /// Per-hop retransmission parameters.
    pub arq: ArqConfig,
    /// Per-query tracing (off by default; zero-cost when off).
    pub trace: TraceConfig,
    /// Defenses against adversarial participants (all off by default).
    pub defense: DefenseConfig,
    /// Reply-path reuse: devices that relay a BF query flood prime the
    /// routing layer with the flood's reverse path, so the unicast reply
    /// rides the flood tree instead of paying a per-replier AODV
    /// discovery. On by default; `false` reproduces the
    /// rediscovery-storm baseline for ablation.
    pub prime_routes: bool,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            query_timeout: SimDuration::from_secs_f64(180.0),
            issue_retry: SimDuration::from_secs_f64(10.0),
            next_query_delay: SimDuration::from_secs_f64(1.0),
            reissue_delay: SimDuration::from_secs_f64(45.0),
            max_reissues: 2,
            handoff_accept_timeout: SimDuration::from_secs_f64(5.0),
            handoff_transfer_timeout: SimDuration::from_secs_f64(30.0),
            handoff_ack_timeout: SimDuration::from_secs_f64(60.0),
            locality_sample_period: SimDuration::from_secs_f64(60.0),
            arq: ArqConfig::default(),
            trace: TraceConfig::default(),
            defense: DefenseConfig::default(),
            prime_routes: true,
        }
    }
}

impl DistConfig {
    /// The pre-hardening protocol: no ARQ, no re-issue. The chaos bench's
    /// baseline arm.
    pub fn no_arq() -> Self {
        DistConfig {
            max_reissues: 0,
            arq: ArqConfig { enabled: false, ..ArqConfig::default() },
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_defaults_match_legacy_literals() {
        let d = DistConfig::default();
        assert_eq!(d.query_timeout, SimDuration::from_secs_f64(180.0));
        assert_eq!(d.issue_retry, SimDuration::from_secs_f64(10.0));
        assert_eq!(d.next_query_delay, SimDuration::from_secs_f64(1.0));
        assert_eq!(d.handoff_accept_timeout, SimDuration::from_secs_f64(5.0));
        assert_eq!(d.handoff_transfer_timeout, SimDuration::from_secs_f64(30.0));
        assert_eq!(d.handoff_ack_timeout, SimDuration::from_secs_f64(60.0));
        assert_eq!(d.locality_sample_period, SimDuration::from_secs_f64(60.0));
        assert!(d.arq.enabled);
        assert!(!d.trace.enabled, "tracing must be opt-in");
        assert!(!d.trace.frames);
        assert!(!d.defense.any(), "defenses must be opt-in");
        assert!(d.prime_routes, "reply-path reuse is the default protocol");
    }

    #[test]
    fn hardened_defense_profile_enables_every_check() {
        let d = DefenseConfig::all();
        assert!(d.rate_limit && d.sanity && d.identity && d.reputation);
        assert!(d.any());
        // Thresholds stay at the documented defaults.
        assert_eq!(d.rate_per_s, 0.5);
        assert_eq!(d.rate_burst, 6.0);
        assert_eq!(d.min_attr, 1.0);
        assert_eq!(d.reputation_threshold, 3);
    }

    #[test]
    fn no_arq_disables_recovery_only() {
        let d = DistConfig::no_arq();
        assert!(!d.arq.enabled);
        assert_eq!(d.max_reissues, 0);
        assert_eq!(d.query_timeout, DistConfig::default().query_timeout);
    }

    #[test]
    fn no_filter_has_no_bounds() {
        let cfg = StrategyConfig::straightforward();
        assert!(cfg.vdr_bounds(Some(&UpperBounds::new(vec![1.0]))).is_none());
    }

    #[test]
    fn exact_bounds_ignore_local_knowledge() {
        let cfg = StrategyConfig {
            bounds_mode: BoundsMode::Exact,
            exact_bounds: vec![100.0, 10.0],
            ..StrategyConfig::default()
        };
        let b = cfg.vdr_bounds(None).unwrap();
        assert_eq!(b.0, vec![100.0, 10.0]);
    }

    #[test]
    fn over_scales_exact() {
        let cfg = StrategyConfig {
            bounds_mode: BoundsMode::Over,
            exact_bounds: vec![100.0],
            over_factor: 2.0,
            ..StrategyConfig::default()
        };
        assert_eq!(cfg.vdr_bounds(None).unwrap().0, vec![200.0]);
    }

    #[test]
    fn under_uses_local_maxima() {
        let cfg = StrategyConfig { bounds_mode: BoundsMode::Under, ..StrategyConfig::default() };
        let local = UpperBounds::new(vec![55.0]);
        assert_eq!(cfg.vdr_bounds(Some(&local)).unwrap().0, vec![55.0]);
        assert!(cfg.vdr_bounds(None).is_none(), "empty device has no UNE bounds");
    }
}
