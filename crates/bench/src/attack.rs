//! **Extension experiment**: the adversarial chaos grid — seeded attack
//! roles × lightweight defenses swept across forwarding arms and fault
//! points, with every answer scored against the sequential oracle.
//!
//! The chaos scorecard (`msq ext chaos`) measures what *faults* cost; this
//! grid measures what *adversaries* cost and what the defenses buy back.
//! Each cell freezes the same 4×4 topology, compromises a seeded quarter
//! of the population with one [`AttackKind`] — query-flood spammers,
//! poisoned-filter injectors, Sybil reply forgers — and runs the workload
//! twice: defenses off (the paper's trusting protocol) and defenses on
//! ([`DefenseConfig::all`]: per-neighbour token-bucket rate limiting,
//! filter/reply sanity checks, identity plausibility, reputation
//! isolation).
//!
//! The same `(churn, loss)` fault schedule and the same attacker set replay
//! bit-identically across every arm and defense setting of a grid point,
//! so rows differ only in how the protocol copes. Defenses off, each
//! attack must visibly hurt — poison trips the zero-spurious invariant and
//! collapses completeness, Sybil forgeries preempt honest replies, floods
//! inflate message counts. Defenses on, *honest* originators' completeness
//! recovers and spurious returns to zero; attackers forfeit service (their
//! own queries are collateral of reputation isolation), which is why the
//! scorecard reports honest-only completeness alongside the overall mean.
//!
//! Usage: `msq ext attack [--full] [--jobs N] [--json]`

use datagen::Distribution;
use dist_skyline::config::{DefenseConfig, FilterStrategy, Forwarding, StrategyConfig};
use dist_skyline::cost_model::DeviceCostModel;
use dist_skyline::runtime::{run_experiment, ManetExperiment, ManetOutcome};
use manet_sim::{
    AttackConfig, AttackKind, AttackPlan, ChurnConfig, FaultPlan, SimDuration, SimTime,
};
use skyline_core::vdr::BoundsMode;
use std::time::Instant;

use crate::provenance::{det, int, label, print_rows, vol, Grid, Row, Value, GRID_REV};
use crate::sweep;
use crate::{RunOpts, Scale};

/// Master seed shared by every cell.
const SEED: u64 = 0xA77C;

/// Grid side: 16 devices, frozen, multi-hop at 400 m range (the chaos
/// topology, so the two scorecards are comparable).
const GRID: usize = 4;

/// Fraction of the population compromised in attacked cells.
const ATTACK_FRACTION: f64 = 0.25;

/// Forged identities per Sybil reply.
const SYBIL_K: usize = 6;

/// Fault points swept: the benign corner and one churn+loss point.
pub const FAULTS: [(f64, f64); 2] = [(0.0, 0.0), (0.2, 0.1)];

/// Attack rows of the grid. `None` is the shared attack-free baseline.
pub const ATTACKS: [Option<AttackKind>; 4] =
    [None, Some(AttackKind::QueryFlood), Some(AttackKind::FilterPoison), Some(AttackKind::Sybil)];

/// One forwarding arm of the sweep.
#[derive(Debug, Clone)]
pub struct Arm {
    /// Series label.
    pub name: &'static str,
    /// BF flood or DF token walk.
    pub forwarding: Forwarding,
}

/// Both forwarding modes run the paper's strongest strategy (dynamic
/// filters, exact bounds) under the hardened runtime — the attacks target
/// exactly the machinery that strategy trusts.
pub fn arms() -> Vec<Arm> {
    vec![
        Arm { name: "EXT-BF", forwarding: Forwarding::BreadthFirst },
        Arm { name: "EXT-DF", forwarding: Forwarding::DepthFirst },
    ]
}

/// Stable row label for an attack kind.
pub fn attack_name(kind: Option<AttackKind>) -> &'static str {
    kind.map_or("none", AttackKind::name)
}

/// Fault-plan seed for a grid point — only `(churn, loss)` feed in, so
/// every arm/attack/defense row at the same point replays the same crash
/// schedule.
fn fault_seed(churn: f64, loss: f64) -> u64 {
    SEED ^ ((churn * 100.0) as u64) << 8 ^ ((loss * 100.0) as u64) << 20
}

/// Attack-plan seed — only `(kind, churn, loss)` feed in, so the same
/// devices are compromised whether defenses are on or off and in both
/// forwarding arms.
fn attack_seed(kind: AttackKind, churn: f64, loss: f64) -> u64 {
    fault_seed(churn, loss) ^ ((kind as u64 + 1) << 40)
}

/// The seeded attacker set for one grid point (`None` = attack-free row).
pub fn attack_plan(
    kind: Option<AttackKind>,
    churn: f64,
    loss: f64,
    sim_seconds: f64,
) -> Option<AttackPlan> {
    let kind = kind?;
    // Flooding needs a per-source rate above the token-bucket refill to be
    // blockable (and to hurt): one fake query per second per spammer.
    // Reactive roles (poison, Sybil) stay armed for the whole run.
    let (from, until, period) = match kind {
        AttackKind::QueryFlood => (5.0, sim_seconds * 0.8, 1.0),
        _ => (0.0, sim_seconds + 400.0, 1.0),
    };
    Some(AttackPlan::random(&AttackConfig {
        nodes: GRID * GRID,
        kind,
        fraction: ATTACK_FRACTION,
        from: SimTime::from_secs_f64(from),
        until: SimTime::from_secs_f64(until),
        period: SimDuration::from_secs_f64(period),
        sybil_k: SYBIL_K,
        spoof: false,
        protect: Vec::new(),
        seed: attack_seed(kind, churn, loss),
    }))
}

/// Builds the experiment for one `(fault point, arm, attack, defense)`
/// cell.
pub fn experiment(
    scale: Scale,
    churn: f64,
    loss: f64,
    arm: &Arm,
    attack: Option<AttackKind>,
    defense: bool,
) -> ManetExperiment {
    let sim_seconds = scale.attack_sim_seconds();
    let mut exp = ManetExperiment::paper_defaults(
        GRID,
        scale.attack_cardinality(),
        2,
        Distribution::Independent,
        f64::INFINITY,
        SEED,
    );
    exp.strategy = StrategyConfig {
        filter: FilterStrategy::Dynamic,
        bounds_mode: BoundsMode::Exact,
        exact_bounds: vec![1000.0; 2],
        ..StrategyConfig::default()
    };
    exp.forwarding = arm.forwarding;
    exp.frozen = true;
    exp.radio.range_m = 400.0;
    exp.radio.loss_probability = loss;
    exp.sim_seconds = sim_seconds;
    exp.queries_per_device = (1, 1);
    exp.cost = DeviceCostModel::free();
    exp.compute_completeness = true;
    if defense {
        exp.dist.defense = DefenseConfig::all();
    }
    if churn > 0.0 {
        exp.fault_plan = Some(FaultPlan::random_churn(&ChurnConfig {
            nodes: GRID * GRID,
            churn_fraction: churn,
            earliest: SimTime::from_secs_f64(5.0),
            latest: SimTime::from_secs_f64(sim_seconds * 0.8),
            min_downtime: SimDuration::from_secs_f64(60.0),
            max_downtime: SimDuration::from_secs_f64(180.0),
            protect: Vec::new(),
            seed: fault_seed(churn, loss),
        }));
    }
    exp.attack_plan = attack_plan(attack, churn, loss, sim_seconds);
    exp
}

/// One `(churn, loss, arm, attack, defense)` cell of the grid.
pub type Cell = (f64, f64, Arm, Option<AttackKind>, bool);

/// Mean and worst completeness over queries from *honest* originators —
/// the service the defenses actually protect (an isolated attacker's own
/// queries are forfeit by design); `NaN` when no honest query scored.
fn honest_completeness(exp: &ManetExperiment, out: &ManetOutcome) -> (f64, f64) {
    let attackers: Vec<usize> = exp
        .attack_plan
        .as_ref()
        .map(|p| p.roles().iter().map(|r| r.node).collect())
        .unwrap_or_default();
    let honest: Vec<f64> = out
        .records
        .iter()
        .filter(|r| !attackers.contains(&r.key.origin))
        .filter_map(|r| r.completeness)
        .collect();
    let mean =
        if honest.is_empty() { f64::NAN } else { honest.iter().sum::<f64>() / honest.len() as f64 };
    let min = honest.iter().copied().fold(f64::INFINITY, f64::min);
    (mean, if min.is_finite() { min } else { f64::NAN })
}

/// One cell's scorecard row, keyed by `(arm, attack, defense, churn,
/// loss)`: every count deterministic, the cell's wall clock volatile.
/// `defense_effectiveness` is blocked ÷ attack frames sent: broadcast
/// fan-out counts one sent frame at every receiver, so sustained blocking
/// pushes it above 1; ~0 means the defenses never engaged.
fn row(
    (churn, loss, arm, attack, defense): &Cell,
    exp: &ManetExperiment,
    out: &ManetOutcome,
    seconds: f64,
) -> Row {
    let (mean_honest, min_honest) = honest_completeness(exp, out);
    let effectiveness = out.attack_frames_dropped as f64 / (out.attack_frames_sent.max(1)) as f64;
    vec![
        label("arm", arm.name),
        label("attack", attack_name(*attack)),
        label("defense", Value::Bool(*defense)),
        label("churn", Value::Float(*churn)),
        label("loss", Value::Float(*loss)),
        det("queries", out.records.len()),
        det("mean_completeness", Value::Fixed(out.mean_completeness.unwrap_or(f64::NAN), 6)),
        det("mean_honest_completeness", Value::Fixed(mean_honest, 6)),
        det("min_honest_completeness", Value::Fixed(min_honest, 6)),
        det("spurious", out.spurious_total),
        det("timeout_fraction", Value::Fixed(out.timeout_fraction, 6)),
        det("frames_sent", out.net.frames_sent),
        det("result_messages", out.total_result_messages),
        det("attack_frames_sent", out.attack_frames_sent),
        det("attack_frames_dropped", out.attack_frames_dropped),
        det("filters_rejected", out.filters_rejected),
        det("reputation_penalties", out.reputation_penalties),
        det("defense_effectiveness", Value::Fixed(effectiveness, 6)),
        det(
            "mean_response_seconds",
            Value::Fixed(out.mean_response_seconds.unwrap_or(f64::NAN), 3),
        ),
        vol("seconds", Value::Fixed(seconds, 3)),
    ]
}

/// The full cell list in fixed grid order (fault point → arm → attack →
/// defense), shared by [`run`] and the shape tests.
///
/// Poison and Sybil forge *BF replies*, so they only appear under the BF
/// arm; a DF attacker relays the token honestly (an honest residual noted
/// in DESIGN.md §11). DF rows sweep none/flood — floods are fake BF
/// queries and hurt regardless of the workload's forwarding mode.
pub fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for &(churn, loss) in &FAULTS {
        for arm in &arms() {
            for &attack in &ATTACKS {
                let df = matches!(arm.forwarding, Forwarding::DepthFirst);
                if df && matches!(attack, Some(AttackKind::FilterPoison) | Some(AttackKind::Sybil))
                {
                    continue;
                }
                for defense in [false, true] {
                    cells.push((churn, loss, arm.clone(), attack, defense));
                }
            }
        }
    }
    cells
}

/// Runs the whole grid through the sweep harness, prints the scorecard
/// rows and returns them as `BENCH_attack.json`'s grid (shared by `msq
/// ext attack` and `msq all`). Rows come in grid order, so output is
/// byte-identical for any `--jobs`.
pub fn run(o: &RunOpts) -> Grid {
    let cells = cells();
    let rows = sweep::run_stage("ext_attack", o.jobs, &cells, |cell| {
        let (churn, loss, arm, attack, defense) = cell;
        let exp = experiment(o.scale, *churn, *loss, arm, *attack, *defense);
        let t0 = Instant::now();
        let out = run_experiment(&exp);
        row(cell, &exp, &out, t0.elapsed().as_secs_f64())
    });
    print_rows(
        &format!(
            "Extension: adversarial chaos grid ({} tuples, {} devices, {:.0}% compromised in \
             attacked rows)",
            o.scale.attack_cardinality(),
            GRID * GRID,
            ATTACK_FRACTION * 100.0
        ),
        &rows,
    );

    let spurious_on: u64 = cells
        .iter()
        .zip(&rows)
        .filter(|(cell, _)| cell.4)
        .map(|(_, r)| int(r, "spurious"))
        .sum();
    println!("\nspurious with defenses ON (any > 0 is a defense bug): {spurious_on}");
    println!("expected shape: defenses-off attack rows collapse honest completeness");
    println!("(poison, sybil) or inflate frames (flood); defenses-on rows restore");
    println!("honest completeness, drive spurious to 0, and show blocked > 0.");
    let header = vec![
        ("devices", Value::from(GRID * GRID)),
        ("cardinality", Value::from(o.scale.attack_cardinality())),
        ("sim_seconds", Value::Float(o.scale.attack_sim_seconds())),
        ("attack_fraction", Value::Float(ATTACK_FRACTION)),
    ];
    Grid { bench: "attack", grid_rev: GRID_REV, header, rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dist_skyline::verify_zero_drift;

    /// Debug-build sizing for the acceptance tests: tiny relation, short
    /// horizon, traces on so every run is zero-drift-audited. The attack
    /// windows scale with the shrunk horizon.
    fn shrink(
        churn: f64,
        loss: f64,
        arm: &Arm,
        attack: Option<AttackKind>,
        defense: bool,
    ) -> ManetExperiment {
        let mut exp = experiment(Scale::Quick, churn, loss, arm, attack, defense);
        exp.data = datagen::DataSpec::manet_experiment(500, 2, Distribution::Independent, SEED);
        exp.sim_seconds = 240.0;
        exp.attack_plan = attack_plan(attack, churn, loss, 240.0);
        exp.dist.trace.enabled = true;
        exp.dist.trace.per_node_capacity = 1 << 15;
        exp
    }

    /// One shrunk cell's outcome and its mean honest completeness.
    fn run_cell(
        churn: f64,
        loss: f64,
        arm: &Arm,
        attack: Option<AttackKind>,
        defense: bool,
    ) -> (ManetOutcome, f64) {
        let exp = shrink(churn, loss, arm, attack, defense);
        let out = run_experiment(&exp);
        // Acceptance bar: the zero-drift audit passes on every adversarial
        // run — attack frames, defensive drops, penalties, and filter
        // rejections reconcile exactly across counters, NetStats, and the
        // typed trace.
        verify_zero_drift(&out).unwrap_or_else(|e| {
            panic!("zero drift violated ({:?} defense={defense}): {e}", attack_name(attack))
        });
        let honest = honest_completeness(&exp, &out).0;
        (out, honest)
    }

    #[test]
    fn grid_shape_and_shared_schedules() {
        let cells = cells();
        // 2 fault points × (BF: 4 attack rows + DF: 2) × 2 defense
        // settings.
        assert_eq!(cells.len(), 24);
        assert!(
            !cells.iter().any(|(_, _, arm, attack, _)| {
                matches!(arm.forwarding, Forwarding::DepthFirst)
                    && matches!(attack, Some(AttackKind::FilterPoison) | Some(AttackKind::Sybil))
            }),
            "reply-forging attacks are BF-only rows"
        );
        let arms = arms();
        // The same grid point replays the same fault schedule and the same
        // attacker set across arms and defense settings.
        let a = experiment(Scale::Quick, 0.2, 0.1, &arms[0], Some(AttackKind::Sybil), false);
        let b = experiment(Scale::Quick, 0.2, 0.1, &arms[1], Some(AttackKind::Sybil), true);
        assert_eq!(a.fault_plan, b.fault_plan);
        assert!(a.fault_plan.is_some());
        assert_eq!(a.attack_plan, b.attack_plan);
        assert_eq!(a.attack_plan.as_ref().unwrap().len(), 4, "25% of 16 devices");
        // Different attack kinds compromise (almost surely) different sets.
        let c = experiment(Scale::Quick, 0.2, 0.1, &arms[0], Some(AttackKind::QueryFlood), false);
        assert_ne!(a.attack_plan, c.attack_plan);
        // Attack-free rows carry no plan; the benign corner no fault plan.
        assert!(experiment(Scale::Quick, 0.0, 0.0, &arms[0], None, false).attack_plan.is_none());
        assert!(experiment(Scale::Quick, 0.0, 0.0, &arms[0], None, false).fault_plan.is_none());
    }

    /// Poisoned filters/replies must *trip* the scorecard with defenses
    /// off — spurious tuples and collapsed completeness, not a silent
    /// pass — and sanity checking must restore zero-spurious and recover
    /// honest completeness.
    #[test]
    fn poison_trips_scorecard_and_sanity_restores_it() {
        let bf = &arms()[0];
        let (base, base_honest) = run_cell(0.0, 0.0, bf, None, false);
        let (off, off_honest) = run_cell(0.0, 0.0, bf, Some(AttackKind::FilterPoison), false);
        let (on, on_honest) = run_cell(0.0, 0.0, bf, Some(AttackKind::FilterPoison), true);

        assert_eq!(base.spurious_total, 0, "attack-free baseline must be clean");
        assert!(base_honest > 0.99, "{base_honest}");

        assert!(off.spurious_total > 0, "poison must trip the spurious invariant");
        assert!(
            off_honest < base_honest - 0.2,
            "poison must collapse completeness: {off_honest} vs {base_honest}"
        );

        assert_eq!(on.spurious_total, 0, "sanity defense must restore zero-spurious");
        assert!(
            on_honest > off_honest + 0.2,
            "defense must recover completeness: {on_honest} vs {off_honest}"
        );
        assert!(
            on.attack_frames_dropped > 0 || on.filters_rejected > 0,
            "the defense must have visibly engaged"
        );
    }

    /// A query flood must measurably inflate traffic with defenses off,
    /// and the token bucket + reputation isolation must block most of it.
    #[test]
    fn flood_inflates_traffic_and_rate_limit_blocks_it() {
        let bf = &arms()[0];
        let (base, _) = run_cell(0.0, 0.0, bf, None, false);
        let (off, _) = run_cell(0.0, 0.0, bf, Some(AttackKind::QueryFlood), false);
        let (on, on_honest) = run_cell(0.0, 0.0, bf, Some(AttackKind::QueryFlood), true);

        assert!(off.attack_frames_sent > 0);
        assert!(
            off.net.frames_sent > base.net.frames_sent * 2,
            "flood must inflate traffic: {} vs baseline {}",
            off.net.frames_sent,
            base.net.frames_sent
        );
        assert!(on.attack_frames_dropped > 0, "rate limiter never engaged");
        assert!(
            on.total_result_messages < off.total_result_messages,
            "blocked floods must reduce replies-to-spam: {} vs {}",
            on.total_result_messages,
            off.total_result_messages
        );
        assert_eq!(on.spurious_total, 0);
        assert!(on_honest > 0.9, "honest queries must survive the defended flood: {on_honest}");
    }

    /// The PR 7 residual (DESIGN §11.5), closed: a query-flood spammer
    /// that *spoofs* its claimed originator — rotating across its honest
    /// neighbors — spreads the charge over many per-origin buckets so no
    /// single one fills, evading the rate limiter that blocks a plain
    /// flood. The identity-plausibility verdict (a zero-hop frame whose
    /// routing source contradicts its claimed origin is a forgery) must
    /// re-route the charge into the *spoofer's* bucket, restoring the
    /// block without taxing the victims.
    #[test]
    fn spoofed_flood_evades_buckets_until_identity_reroutes_the_charge() {
        use manet_sim::AttackRole;
        let bf = &arms()[0];
        let (base, _) = run_cell(0.0, 0.0, bf, None, false);

        let run_spoofed = |identity: bool| {
            let mut exp = shrink(0.0, 0.0, bf, Some(AttackKind::QueryFlood), true);
            exp.attack_plan = exp.attack_plan.as_ref().map(|plan| {
                plan.roles()
                    .iter()
                    .fold(AttackPlan::new(), |p, r| p.assign(AttackRole { spoof: true, ..*r }))
            });
            exp.dist.defense.identity = identity;
            let out = run_experiment(&exp);
            verify_zero_drift(&out).unwrap_or_else(|e| {
                panic!("zero drift violated (spoofed flood, identity={identity}): {e}")
            });
            let honest = honest_completeness(&exp, &out).0;
            (out, honest)
        };

        // Residual reproduced: per-origin buckets alone barely engage
        // against rotated spoofed origins, and the flood inflates traffic
        // like an undefended one.
        let (evaded, _) = run_spoofed(false);
        assert!(evaded.attack_frames_sent > 0);
        assert!(
            evaded.net.frames_sent > base.net.frames_sent * 2,
            "rotated spoofing must evade per-origin buckets: {} vs baseline {}",
            evaded.net.frames_sent,
            base.net.frames_sent
        );

        // The fix: spoofed frames land in the spoofer's bucket, the flood
        // is blocked, and honest service survives.
        let (fixed, fixed_honest) = run_spoofed(true);
        assert!(
            fixed.attack_frames_dropped > evaded.attack_frames_dropped,
            "identity verdict must engage the limiter: {} vs {}",
            fixed.attack_frames_dropped,
            evaded.attack_frames_dropped
        );
        assert!(
            fixed.net.frames_sent < evaded.net.frames_sent,
            "blocking the spoofed flood must deflate traffic: {} vs {}",
            fixed.net.frames_sent,
            evaded.net.frames_sent
        );
        assert_eq!(fixed.spurious_total, 0);
        assert!(
            fixed_honest > 0.9,
            "honest victims' queries must survive the defended spoofed flood: {fixed_honest}"
        );
    }

    /// Sybil forgeries fill the responder count with ghosts so the
    /// originator finalizes before honest stragglers merge; the identity
    /// cross-check must refuse them and recover completeness.
    #[test]
    fn sybil_preempts_honest_replies_and_identity_check_recovers() {
        let bf = &arms()[0];
        let (_, base_honest) = run_cell(0.0, 0.0, bf, None, false);
        let (off, off_honest) = run_cell(0.0, 0.0, bf, Some(AttackKind::Sybil), false);
        let (on, on_honest) = run_cell(0.0, 0.0, bf, Some(AttackKind::Sybil), true);

        assert!(off.attack_frames_sent > 0);
        assert!(
            off_honest < base_honest - 0.1,
            "forged replies must preempt honest data: {off_honest} vs {base_honest}"
        );
        assert!(on.attack_frames_dropped > 0, "identity check never engaged");
        assert!(on.reputation_penalties > 0, "forgers must be penalized");
        assert_eq!(on.spurious_total, 0);
        assert!(
            on_honest > off_honest,
            "defense must recover completeness: {on_honest} vs {off_honest}"
        );
    }

    /// The sweep-harness acceptance bar extended to the adversarial stage:
    /// a slice of the grid (including attacked, defended cells) computed
    /// with one worker and with four must be bit-identical down to every
    /// record and counter.
    #[test]
    fn parallel_attack_grid_is_bit_identical_to_sequential() {
        let arms = arms();
        let cells: Vec<Cell> = vec![
            (0.0, 0.0, arms[0].clone(), Some(AttackKind::FilterPoison), false),
            (0.0, 0.0, arms[0].clone(), Some(AttackKind::FilterPoison), true),
            (0.2, 0.1, arms[1].clone(), Some(AttackKind::QueryFlood), true),
        ];
        let f = |(churn, loss, arm, attack, defense): &Cell| {
            let mut exp = shrink(*churn, *loss, arm, *attack, *defense);
            exp.dist.trace.enabled = false; // counters only; logs compare via records
            let out = run_experiment(&exp);
            (exp, out)
        };
        let seq = sweep::run_stage("attack_det_seq", 1, &cells, f);
        let par = sweep::run_stage("attack_det_par", 4, &cells, f);
        let _ = sweep::take_stage_records();
        assert_eq!(seq.len(), par.len());
        for ((_, s), (_, p)) in seq.iter().zip(&par) {
            assert_eq!(s.records, p.records);
            assert_eq!(s.attack_frames_sent, p.attack_frames_sent);
            assert_eq!(s.attack_frames_dropped, p.attack_frames_dropped);
            assert_eq!(s.filters_rejected, p.filters_rejected);
            assert_eq!(s.reputation_penalties, p.reputation_penalties);
            assert_eq!(s.net.frames_sent, p.net.frames_sent);
        }
        let rows = |runs: &[(ManetExperiment, ManetOutcome)]| {
            let rows: Vec<Row> = cells
                .iter()
                .zip(runs)
                .map(|(cell, (exp, out))| row(cell, exp, out, 0.0))
                .collect();
            crate::provenance::grid_objects(&rows)
        };
        assert_eq!(rows(&seq), rows(&par));
        assert_eq!(rows(&seq), PINNED_ROWS);
    }

    /// The shrunk cells' `grid` rows, as the per-cell report structs wrote
    /// them before rows were built from the outcomes.
    const PINNED_ROWS: [&str; 3] = [
        r#"{"arm": "EXT-BF", "attack": "filter_poison", "defense": false, "churn": 0, "loss": 0, "queries": 16, "mean_completeness": 0.000000, "mean_honest_completeness": 0.000000, "min_honest_completeness": 0.000000, "spurious": 16, "timeout_fraction": 0.000000, "frames_sent": 1168, "result_messages": 240, "attack_frames_sent": 120, "attack_frames_dropped": 0, "filters_rejected": 0, "reputation_penalties": 0, "defense_effectiveness": 0.000000, "mean_response_seconds": 0.016}"#,
        r#"{"arm": "EXT-BF", "attack": "filter_poison", "defense": true, "churn": 0, "loss": 0, "queries": 16, "mean_completeness": 0.881944, "mean_honest_completeness": 0.888889, "min_honest_completeness": 0.888889, "spurious": 0, "timeout_fraction": 0.812500, "frames_sent": 1577, "result_messages": 239, "attack_frames_sent": 120, "attack_frames_dropped": 136, "filters_rejected": 12, "reputation_penalties": 72, "defense_effectiveness": 1.133333, "mean_response_seconds": 0.019}"#,
        r#"{"arm": "EXT-DF", "attack": "query_flood", "defense": true, "churn": 0.2, "loss": 0.1, "queries": 16, "mean_completeness": 0.805556, "mean_honest_completeness": 0.796296, "min_honest_completeness": 0.777778, "spurious": 0, "timeout_fraction": 0.000000, "frames_sent": 7228, "result_messages": 807, "attack_frames_sent": 748, "attack_frames_dropped": 3916, "filters_rejected": 0, "reputation_penalties": 82, "defense_effectiveness": 5.235294, "mean_response_seconds": 7.037}"#,
    ];
}
