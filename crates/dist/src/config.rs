//! Run configuration: the settings experiments actually vary — the
//! paper's strategy knobs, the protocol ablations (ARQ, re-issue, route
//! priming), tracing, observability and the adversarial defenses.
//!
//! A value every run shares is not a setting: it is a named constant
//! beside the code that reads it — the `OVER_FACTOR` bound scale here, the
//! scan's dominance test in `device`, the protocol timers in `runtime`,
//! the ARQ schedule in `arq`, the defense thresholds in
//! `runtime::adversary`, the gauge cadence in `runtime::experiment`, the
//! monitor's lease, heartbeat and drain in `monitor`, the serving
//! backend's extent and strategy in `serve`, and AODV's timers in
//! `manet_sim::aodv`.

use skyline_core::vdr::{BoundsMode, MultiFilterSelection, UpperBounds};

/// `Over` multiplies the exact bounds by this factor (paper: "a
/// pre-specified value larger than the global domain upper bound").
const OVER_FACTOR: f64 = 2.0;

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
                Some(UpperBounds::new(self.exact_bounds.clone()).scaled(OVER_FACTOR))
            }
            BoundsMode::Under => local_maxima.cloned(),
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObsConfig {
    /// Master switch for engine gauge sampling.
    pub gauges: bool,
}

impl ObsConfig {
    /// Gauges on.
    pub fn sampled() -> Self {
        ObsConfig { gauges: true }
    }
}

/// Lightweight defenses against adversarial participants (DESIGN.md §11).
/// Everything defaults to **off** so honest runs are bit-identical to the
/// pre-adversarial runtime; `DefenseConfig::all()` is the hardened profile
/// the `msq ext attack` grid benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DefenseConfig {
    /// Per-originator token-bucket rate limiting of query floods: a *fresh*
    /// query whose originator's bucket is empty is dropped (and the
    /// originator penalised). Buckets key on the query's origin, not the
    /// relaying neighbour — honest relays must not be blamed for floods
    /// they forward — and duplicate copies charge nobody.
    pub rate_limit: bool,
    /// Reject filter tuples and reply tuples whose attributes fall outside
    /// the plausible data domain (or are non-finite), and reject whole
    /// replies that carry such tuples.
    pub sanity: bool,
    /// Reject replies whose claimed responder identity contradicts the
    /// routing-layer source or names an impossible device.
    pub identity: bool,
    /// Track per-peer penalties and isolate repeat offenders: drop their
    /// frames and skip them in DF next-hop selection.
    pub reputation: bool,
}

impl DefenseConfig {
    /// All defenses on.
    pub fn all() -> Self {
        DefenseConfig { rate_limit: true, sanity: true, identity: true, reputation: true }
    }

    /// `true` when any defense is active.
    pub fn any(&self) -> bool {
        self.rate_limit || self.sanity || self.identity || self.reputation
    }
}

/// The MANET runtime's recovery and tracing switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistConfig {
    /// BF originator: maximum re-floods per query (0 disables re-issue).
    pub max_reissues: u32,
    /// Per-hop ARQ for the unicast messages that carry query state (BF
    /// result replies, DF tokens, monitor deltas). `false` reproduces the
    /// pre-hardening fire-and-forget behaviour (the no-ARQ baseline in the
    /// chaos bench). Broadcast floods are never ARQ'd — redundancy is
    /// their reliability mechanism.
    pub arq: bool,
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
            max_reissues: 2,
            arq: true,
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
        DistConfig { max_reissues: 0, arq: false, ..Self::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_defaults_match_legacy_literals() {
        let d = DistConfig::default();
        assert!(d.arq, "per-hop ARQ is the default protocol");
        assert_eq!(d.max_reissues, 2);
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
    }

    #[test]
    fn no_arq_disables_recovery_only() {
        let d = DistConfig::no_arq();
        assert!(!d.arq);
        assert_eq!(d.max_reissues, 0);
        assert_eq!(DistConfig { arq: true, max_reissues: 2, ..d }, DistConfig::default());
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
