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

use crate::provenance::{
    baseline_json, det, label, print_rows, vol, Provenance, Row, Value, GRID_REV,
};
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

/// Everything the scorecard reports for one cell.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Forwarding arm label.
    pub arm: &'static str,
    /// Attack row label (`"none"` = attack-free baseline).
    pub attack: &'static str,
    /// Whether the defenses were on.
    pub defense: bool,
    /// Churn fraction of the cell.
    pub churn: f64,
    /// Frame-loss probability of the cell.
    pub loss: f64,
    /// Queries issued.
    pub queries: usize,
    /// Mean oracle completeness across all records (attackers included).
    pub mean_completeness: f64,
    /// Mean completeness over queries from *honest* originators — the
    /// service the defenses actually protect (an isolated attacker's own
    /// queries are forfeit by design).
    pub mean_honest_completeness: f64,
    /// Worst-case completeness over honest originators.
    pub min_honest_completeness: f64,
    /// Answer tuples the contributing oracle refutes.
    pub spurious: u64,
    /// Fraction of queries that timed out.
    pub timeout_fraction: f64,
    /// Radio frames the whole run put on the air.
    pub frames_sent: u64,
    /// BF result messages created (replies to real *and* fake queries).
    pub result_messages: u64,
    /// Frames originated by attacker roles.
    pub attack_frames_sent: u64,
    /// Frames refused by a defensive gate (counted per receiver).
    pub attack_frames_dropped: u64,
    /// Filter tuples stripped by the sanity check.
    pub filters_rejected: u64,
    /// Reputation penalties recorded.
    pub reputation_penalties: u64,
    /// Defense effectiveness: blocked ÷ attack frames sent. Broadcast
    /// fan-out counts one sent frame at every receiver, so sustained
    /// blocking pushes this above 1; ~0 means the defenses never engaged.
    pub defense_effectiveness: f64,
    /// Mean response time of protocol-completed queries.
    pub mean_response_seconds: Option<f64>,
    /// Wall seconds this cell took (volatile; lives in the `timings`
    /// section of the baseline, never in `grid`).
    pub seconds: f64,
}

#[allow(clippy::too_many_arguments)]
fn report(
    arm: &Arm,
    attack: Option<AttackKind>,
    defense: bool,
    churn: f64,
    loss: f64,
    exp: &ManetExperiment,
    out: &ManetOutcome,
    seconds: f64,
) -> CellReport {
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
    let mean_honest =
        if honest.is_empty() { f64::NAN } else { honest.iter().sum::<f64>() / honest.len() as f64 };
    let min_honest = honest.iter().copied().fold(f64::INFINITY, f64::min);
    CellReport {
        arm: arm.name,
        attack: attack_name(attack),
        defense,
        churn,
        loss,
        queries: out.records.len(),
        mean_completeness: out.mean_completeness.unwrap_or(f64::NAN),
        mean_honest_completeness: mean_honest,
        min_honest_completeness: if min_honest.is_finite() { min_honest } else { f64::NAN },
        spurious: out.spurious_total,
        timeout_fraction: out.timeout_fraction,
        frames_sent: out.net.frames_sent,
        result_messages: out.total_result_messages,
        attack_frames_sent: out.attack_frames_sent,
        attack_frames_dropped: out.attack_frames_dropped,
        filters_rejected: out.filters_rejected,
        reputation_penalties: out.reputation_penalties,
        defense_effectiveness: out.attack_frames_dropped as f64
            / (out.attack_frames_sent.max(1)) as f64,
        mean_response_seconds: out.mean_response_seconds,
        seconds,
    }
}

/// The full cell list in fixed grid order (fault point → arm → attack →
/// defense), shared by [`compute`] and the shape tests.
///
/// Poison and Sybil forge *BF replies*, so they only appear under the BF
/// arm; a DF attacker relays the token honestly (an honest residual noted
/// in DESIGN.md §11). DF rows sweep none/flood — floods are fake BF
/// queries and hurt regardless of the workload's forwarding mode.
pub fn cells() -> Vec<(f64, f64, Arm, Option<AttackKind>, bool)> {
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

/// Runs the whole grid through the sweep harness. Reports come back in
/// grid order, so output is byte-identical for any `--jobs`.
pub fn compute(scale: Scale, jobs: usize, stage: &str) -> Vec<CellReport> {
    let cells = cells();
    let outs = sweep::run_stage(stage, jobs, &cells, |(churn, loss, arm, attack, defense)| {
        let exp = experiment(scale, *churn, *loss, arm, *attack, *defense);
        let t0 = Instant::now();
        let out = run_experiment(&exp);
        (exp, out, t0.elapsed().as_secs_f64())
    });
    cells
        .iter()
        .zip(&outs)
        .map(|((churn, loss, arm, attack, defense), (exp, out, secs))| {
            report(arm, *attack, *defense, *churn, *loss, exp, out, *secs)
        })
        .collect()
}

/// Runs the grid, prints the scorecard rows, and returns the reports
/// (shared by `msq ext attack` and `msq all`).
pub fn run(o: &RunOpts) -> Vec<CellReport> {
    let reports = compute(o.scale, o.jobs, "ext_attack");
    print_rows(
        &format!(
            "Extension: adversarial chaos grid ({} tuples, {} devices, {:.0}% compromised in \
             attacked rows)",
            o.scale.attack_cardinality(),
            GRID * GRID,
            ATTACK_FRACTION * 100.0
        ),
        &reports.iter().map(row).collect::<Vec<_>>(),
    );

    let spurious_on: u64 = reports.iter().filter(|r| r.defense).map(|r| r.spurious).sum();
    println!("\nspurious with defenses ON (any > 0 is a defense bug): {spurious_on}");
    println!("expected shape: defenses-off attack rows collapse honest completeness");
    println!("(poison, sybil) or inflate frames (flood); defenses-on rows restore");
    println!("honest completeness, drive spurious to 0, and show blocked > 0.");
    reports
}

/// Renders the scorecard as the `BENCH_attack.json` machine baseline:
/// one row per cell, keyed by `(arm, attack, defense, churn, loss)`; every
/// count in `grid`, the cell's wall clock in `timings`.
pub fn to_json(prov: &Provenance, reports: &[CellReport]) -> String {
    let scale = prov.scale;
    let header = [
        ("devices", Value::from(GRID * GRID)),
        ("cardinality", Value::from(scale.attack_cardinality())),
        ("sim_seconds", Value::Float(scale.attack_sim_seconds())),
        ("attack_fraction", Value::Float(ATTACK_FRACTION)),
    ];
    let rows: Vec<Row> = reports.iter().map(row).collect();
    baseline_json("attack", prov, GRID_REV, &header, &rows)
}

fn row(r: &CellReport) -> Row {
    vec![
        label("arm", r.arm),
        label("attack", r.attack),
        label("defense", Value::Bool(r.defense)),
        label("churn", Value::Float(r.churn)),
        label("loss", Value::Float(r.loss)),
        det("queries", r.queries),
        det("mean_completeness", Value::Fixed(r.mean_completeness, 6)),
        det("mean_honest_completeness", Value::Fixed(r.mean_honest_completeness, 6)),
        det("min_honest_completeness", Value::Fixed(r.min_honest_completeness, 6)),
        det("spurious", r.spurious),
        det("timeout_fraction", Value::Fixed(r.timeout_fraction, 6)),
        det("frames_sent", r.frames_sent),
        det("result_messages", r.result_messages),
        det("attack_frames_sent", r.attack_frames_sent),
        det("attack_frames_dropped", r.attack_frames_dropped),
        det("filters_rejected", r.filters_rejected),
        det("reputation_penalties", r.reputation_penalties),
        det("defense_effectiveness", Value::Fixed(r.defense_effectiveness, 6)),
        det("mean_response_seconds", Value::Fixed(r.mean_response_seconds.unwrap_or(f64::NAN), 3)),
        vol("seconds", Value::Fixed(r.seconds, 3)),
    ]
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

    fn run_cell(
        churn: f64,
        loss: f64,
        arm: &Arm,
        attack: Option<AttackKind>,
        defense: bool,
    ) -> CellReport {
        let exp = shrink(churn, loss, arm, attack, defense);
        let out = run_experiment(&exp);
        // Acceptance bar: the zero-drift audit passes on every adversarial
        // run — attack frames, defensive drops, penalties, and filter
        // rejections reconcile exactly across counters, NetStats, and the
        // typed trace.
        verify_zero_drift(&out).unwrap_or_else(|e| {
            panic!("zero drift violated ({:?} defense={defense}): {e}", attack_name(attack))
        });
        report(arm, attack, defense, churn, loss, &exp, &out, 0.0)
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
        let base = run_cell(0.0, 0.0, bf, None, false);
        let off = run_cell(0.0, 0.0, bf, Some(AttackKind::FilterPoison), false);
        let on = run_cell(0.0, 0.0, bf, Some(AttackKind::FilterPoison), true);

        assert_eq!(base.spurious, 0, "attack-free baseline must be clean");
        assert!(base.mean_honest_completeness > 0.99, "{base:?}");

        assert!(off.spurious > 0, "poison must trip the spurious invariant: {off:?}");
        assert!(
            off.mean_honest_completeness < base.mean_honest_completeness - 0.2,
            "poison must collapse completeness: {} vs {}",
            off.mean_honest_completeness,
            base.mean_honest_completeness
        );

        assert_eq!(on.spurious, 0, "sanity defense must restore zero-spurious: {on:?}");
        assert!(
            on.mean_honest_completeness > off.mean_honest_completeness + 0.2,
            "defense must recover completeness: {} vs {}",
            on.mean_honest_completeness,
            off.mean_honest_completeness
        );
        assert!(
            on.attack_frames_dropped > 0 || on.filters_rejected > 0,
            "the defense must have visibly engaged: {on:?}"
        );
    }

    /// A query flood must measurably inflate traffic with defenses off,
    /// and the token bucket + reputation isolation must block most of it.
    #[test]
    fn flood_inflates_traffic_and_rate_limit_blocks_it() {
        let bf = &arms()[0];
        let base = run_cell(0.0, 0.0, bf, None, false);
        let off = run_cell(0.0, 0.0, bf, Some(AttackKind::QueryFlood), false);
        let on = run_cell(0.0, 0.0, bf, Some(AttackKind::QueryFlood), true);

        assert!(off.attack_frames_sent > 0);
        assert!(
            off.frames_sent > base.frames_sent * 2,
            "flood must inflate traffic: {} vs baseline {}",
            off.frames_sent,
            base.frames_sent
        );
        assert!(on.attack_frames_dropped > 0, "rate limiter never engaged: {on:?}");
        assert!(
            on.result_messages < off.result_messages,
            "blocked floods must reduce replies-to-spam: {} vs {}",
            on.result_messages,
            off.result_messages
        );
        assert_eq!(on.spurious, 0);
        assert!(
            on.mean_honest_completeness > 0.9,
            "honest queries must survive the defended flood: {on:?}"
        );
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
        let base = run_cell(0.0, 0.0, bf, None, false);

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
            report(bf, Some(AttackKind::QueryFlood), true, 0.0, 0.0, &exp, &out, 0.0)
        };

        // Residual reproduced: per-origin buckets alone barely engage
        // against rotated spoofed origins, and the flood inflates traffic
        // like an undefended one.
        let evaded = run_spoofed(false);
        assert!(evaded.attack_frames_sent > 0);
        assert!(
            evaded.frames_sent > base.frames_sent * 2,
            "rotated spoofing must evade per-origin buckets: {} vs baseline {}",
            evaded.frames_sent,
            base.frames_sent
        );

        // The fix: spoofed frames land in the spoofer's bucket, the flood
        // is blocked, and honest service survives.
        let fixed = run_spoofed(true);
        assert!(
            fixed.attack_frames_dropped > evaded.attack_frames_dropped,
            "identity verdict must engage the limiter: {} vs {}",
            fixed.attack_frames_dropped,
            evaded.attack_frames_dropped
        );
        assert!(
            fixed.frames_sent < evaded.frames_sent,
            "blocking the spoofed flood must deflate traffic: {} vs {}",
            fixed.frames_sent,
            evaded.frames_sent
        );
        assert_eq!(fixed.spurious, 0);
        assert!(
            fixed.mean_honest_completeness > 0.9,
            "honest victims' queries must survive the defended spoofed flood: {fixed:?}"
        );
    }

    /// Sybil forgeries fill the responder count with ghosts so the
    /// originator finalizes before honest stragglers merge; the identity
    /// cross-check must refuse them and recover completeness.
    #[test]
    fn sybil_preempts_honest_replies_and_identity_check_recovers() {
        let bf = &arms()[0];
        let base = run_cell(0.0, 0.0, bf, None, false);
        let off = run_cell(0.0, 0.0, bf, Some(AttackKind::Sybil), false);
        let on = run_cell(0.0, 0.0, bf, Some(AttackKind::Sybil), true);

        assert!(off.attack_frames_sent > 0);
        assert!(
            off.mean_honest_completeness < base.mean_honest_completeness - 0.1,
            "forged replies must preempt honest data: {} vs {}",
            off.mean_honest_completeness,
            base.mean_honest_completeness
        );
        assert!(on.attack_frames_dropped > 0, "identity check never engaged: {on:?}");
        assert!(on.reputation_penalties > 0, "forgers must be penalized: {on:?}");
        assert_eq!(on.spurious, 0);
        assert!(
            on.mean_honest_completeness > off.mean_honest_completeness,
            "defense must recover completeness: {} vs {}",
            on.mean_honest_completeness,
            off.mean_honest_completeness
        );
    }

    /// The sweep-harness acceptance bar extended to the adversarial stage:
    /// a slice of the grid (including attacked, defended cells) computed
    /// with one worker and with four must be bit-identical down to every
    /// record and counter.
    #[test]
    fn parallel_attack_grid_is_bit_identical_to_sequential() {
        let arms = arms();
        let cells: Vec<(f64, f64, Arm, Option<AttackKind>, bool)> = vec![
            (0.0, 0.0, arms[0].clone(), Some(AttackKind::FilterPoison), false),
            (0.0, 0.0, arms[0].clone(), Some(AttackKind::FilterPoison), true),
            (0.2, 0.1, arms[1].clone(), Some(AttackKind::QueryFlood), true),
        ];
        let f =
            |(churn, loss, arm, attack, defense): &(f64, f64, Arm, Option<AttackKind>, bool)| {
                let mut exp = shrink(*churn, *loss, arm, *attack, *defense);
                exp.dist.trace.enabled = false; // counters only; logs compare via records
                run_experiment(&exp)
            };
        let seq = sweep::run_stage("attack_det_seq", 1, &cells, f);
        let par = sweep::run_stage("attack_det_par", 4, &cells, f);
        let _ = sweep::take_stage_records();
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.records, p.records);
            assert_eq!(s.attack_frames_sent, p.attack_frames_sent);
            assert_eq!(s.attack_frames_dropped, p.attack_frames_dropped);
            assert_eq!(s.filters_rejected, p.filters_rejected);
            assert_eq!(s.reputation_penalties, p.reputation_penalties);
            assert_eq!(s.net.frames_sent, p.net.frames_sent);
        }
    }

    #[test]
    fn json_is_parseable_shape() {
        let r = CellReport {
            arm: "EXT-BF",
            attack: "filter_poison",
            defense: true,
            churn: 0.2,
            loss: 0.1,
            queries: 16,
            mean_completeness: 0.9,
            mean_honest_completeness: 0.95,
            min_honest_completeness: 0.5,
            spurious: 0,
            timeout_fraction: 0.125,
            frames_sent: 1234,
            result_messages: 99,
            attack_frames_sent: 40,
            attack_frames_dropped: 55,
            filters_rejected: 7,
            reputation_penalties: 12,
            defense_effectiveness: 1.375,
            mean_response_seconds: None,
            seconds: 2.5,
        };
        let json = to_json(&Provenance::fixture(), &[r]);
        let (grid, timings) = crate::provenance::sections(&json);
        assert!(json.contains("\"bench\": \"attack\""));
        assert!(json.contains("\"sim_seconds\": 600,\n  \"attack_fraction\": 0.25,"));
        assert!(grid.contains(
            "{\"arm\": \"EXT-BF\", \"attack\": \"filter_poison\", \"defense\": true, \
             \"churn\": 0.2, \"loss\": 0.1, \"queries\": 16,"
        ));
        assert!(grid.contains("\"defense_effectiveness\": 1.375000,"));
        assert!(grid.contains("\"mean_response_seconds\": null}"));
        assert!(timings.contains(
            "{\"arm\": \"EXT-BF\", \"attack\": \"filter_poison\", \"defense\": true, \
             \"churn\": 0.2, \"loss\": 0.1, \"seconds\": 2.500}"
        ));
    }
}
