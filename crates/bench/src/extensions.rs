//! The extension experiments the paper motivates, each gated by a
//! baseline: radio energy per query (`msq ext energy`; energy is why the
//! paper filters at all), the multi-filter ablation (`msq ext
//! multi-filter`) and mobility-driven data redistribution (`msq ext
//! redistribution`), the last two the future work of Section 7. Each
//! builds one row per cell from its outcome, prints the rows as
//! `print_rows` tables and returns them as one [`Grid`], which `--json`
//! writes as `BENCH_energy.json`, `BENCH_multi-filter.json` or
//! `BENCH_redistribution.json`. `seconds` is a row's wall clock
//! (volatile), everything else is deterministic.

use std::time::Instant;

use datagen::{DataSpec, Distribution, SpatialExtent};
use dist_skyline::config::{FilterStrategy, Forwarding, StrategyConfig};
use dist_skyline::metrics::DrrAccumulator;
use dist_skyline::runtime::{run_experiment, ManetExperiment, ManetOutcome};
use dist_skyline::static_net::grid_network_from_global;
use skyline_core::vdr::{BoundsMode, MultiFilterSelection};

use crate::provenance::{det, label, print_rows, vol, Grid, Row, Value, GRID_REV};
use crate::{sweep, RunOpts, Scale};

/// A MANET cell at the paper's defaults (2-d independent data, d = 250).
fn manet_cell(scale: Scale, seed: u64, sim_seconds: f64) -> ManetExperiment {
    let card = scale.manet_fixed_cardinality();
    let mut exp =
        ManetExperiment::paper_defaults(5, card, 2, Distribution::Independent, 250.0, seed);
    exp.sim_seconds = sim_seconds;
    exp
}

fn timed_run(exp: &ManetExperiment) -> (ManetOutcome, f64) {
    let t0 = Instant::now();
    let out = run_experiment(exp);
    (out, t0.elapsed().as_secs_f64())
}

/// **Extension experiment**: radio energy per query. The paper motivates
/// its design with the devices' energy constraints ("This calls for
/// processing and energy saving techniques for use on the mobile
/// devices") but reports no energy numbers; this ablation quantifies the
/// saving using a Feeney–Nilsson-style 802.11 energy model.
///
/// Grid: {BF, DF} forwarding × {straightforward, dynamic filter}.
pub fn energy(o: &RunOpts) -> Grid {
    let mut cells = Vec::new();
    for (forwarding, fwd) in [("BF", Forwarding::BreadthFirst), ("DF", Forwarding::DepthFirst)] {
        for (filter, strategy) in
            [("nofilter", FilterStrategy::NoFilter), ("dynamic", FilterStrategy::Dynamic)]
        {
            let mut exp = manet_cell(o.scale, 0xE0E, o.scale.sim_seconds());
            exp.forwarding = fwd;
            exp.strategy = StrategyConfig {
                filter: strategy,
                exact_bounds: vec![1000.0, 1000.0],
                ..StrategyConfig::default()
            };
            cells.push((forwarding, filter, exp));
        }
    }
    let rows = sweep::run_stage("ext_energy", o.jobs, &cells, |&(forwarding, filter, ref exp)| {
        let (out, seconds) = timed_run(exp);
        let bytes_per_query = out.net.bytes_sent as f64 / out.records.len().max(1) as f64;
        vec![
            label("forwarding", forwarding),
            label("filter", filter),
            det("queries", out.records.len()),
            det("j_per_query", Value::Fixed(out.energy_per_query_joules, 4)),
            det("total_j", Value::Fixed(out.total_energy_joules, 4)),
            det("bytes_per_query", Value::Fixed(bytes_per_query, 4)),
            det("drr", Value::Fixed(out.drr, 4)),
            vol("seconds", Value::Fixed(seconds, 3)),
        ]
    });
    let card = o.scale.manet_fixed_cardinality();
    print_rows(
        &format!("Extension: radio energy per query ({card} tuples, 25 devices, d = 250)"),
        &rows,
    );
    println!("\nexpected shape: DF spends less radio energy per query than BF's flood");
    println!("(fewer, larger frames), mirroring the Fig. 12 message counts. The dynamic");
    println!("filter trims BF's bytes but barely moves energy; on DF it adds bytes and");
    println!("energy, as the token carries the filter and its partial result the whole walk.");
    Grid { bench: "energy", grid_rev: GRID_REV, header: Vec::new(), rows }
}

const SEEDS: [u64; 3] = [11, 22, 33];

const DISTS: [(&str, Distribution); 2] =
    [("IN", Distribution::Independent), ("AC", Distribution::AntiCorrelated)];

/// All-origins static runs of every `(k, selector)` pair in `grid` over
/// both distributions and every seed, as one sweep stage; one row per
/// `(k, selector, dist)`, merged over the seeds. `sweep` is `k` for the
/// filter-count sweep and `selector` for the selector comparison.
fn multi_filter_stage(
    o: &RunOpts,
    stage: &str,
    sweep: &'static str,
    grid: &[(usize, &'static str, MultiFilterSelection)],
) -> Vec<Row> {
    let card = o.scale.global_fixed_cardinality();
    let mut keys = Vec::new();
    let mut cells = Vec::new();
    for &(k, selector, selection) in grid {
        for (dist, distribution) in DISTS {
            keys.push((k, selector, dist));
            cells.extend(SEEDS.map(|seed| (k, selection, distribution, seed)));
        }
    }
    let outs = sweep::run_stage(stage, o.jobs, &cells, |&(k, selection, dist, seed)| {
        let t0 = Instant::now();
        let data = DataSpec::manet_experiment(card, 2, dist, seed).generate();
        let net = grid_network_from_global(&data, 5, SpatialExtent::PAPER);
        let cfg = StrategyConfig {
            filter: FilterStrategy::MultiDynamic { k },
            bounds_mode: BoundsMode::Exact,
            exact_bounds: vec![1000.0, 1000.0],
            multi_selection: selection,
        };
        let mut drr = DrrAccumulator::default();
        let mut tuples = 0;
        for origin in 0..net.len() {
            let run = net.run_query(origin, f64::INFINITY, &cfg);
            drr.merge(&run.metrics.drr);
            tuples += run.metrics.tuples_transferred;
        }
        (drr, tuples, net.len() as u64, t0.elapsed().as_secs_f64())
    });
    keys.into_iter()
        .zip(outs.chunks(SEEDS.len()))
        .map(|((k, selector, dist), per_seed)| {
            let (mut drr, mut tuples, mut queries, mut seconds) =
                (DrrAccumulator::default(), 0, 0, 0.0);
            for (seed_drr, seed_tuples, seed_queries, seed_seconds) in per_seed {
                drr.merge(seed_drr);
                tuples += seed_tuples;
                queries += seed_queries;
                seconds += seed_seconds;
            }
            vec![
                label("sweep", sweep),
                label("k", k),
                label("selector", selector),
                label("dist", dist),
                det("queries", queries),
                det("drr", Value::Fixed(charged_drr(&drr, k), 4)),
                det("tuples_per_query", Value::Fixed(tuples as f64 / queries as f64, 4)),
                vol("seconds", Value::Fixed(seconds, 3)),
            ]
        })
        .collect()
}

/// Eq. 1's reduction rate with `k` filter tuples charged per
/// participating device instead of one.
fn charged_drr(drr: &DrrAccumulator, k: usize) -> f64 {
    let charged =
        drr.sum_unreduced as i64 - drr.sum_sent as i64 - (drr.participants * k as u64) as i64;
    charged as f64 / drr.sum_unreduced.max(1) as f64
}

/// **Extension experiment** (the paper's future work, Section 7): "One
/// research direction is to generalize the filtering idea, using more than
/// one filtering tuple. Important questions include how many, and which,
/// tuples should be used as filters, to achieve the best data reduction
/// rate."
///
/// The "how many" half: DRR vs. the filter-bank size `k` in the static
/// pre-test setting, on independent and anti-correlated data. Each extra
/// filter costs one tuple on the wire per device (the DRR formula charges
/// `k` instead of 1), so the curve shows where the marginal pruning stops
/// paying. The "which" half compares the selection policies at `k` = 3.
pub fn multi_filter(o: &RunOpts) -> Grid {
    let card = o.scale.global_fixed_cardinality();
    let coverage = ("coverage", MultiFilterSelection::GreedyCoverage);
    let counts = [1, 2, 3, 4, 8].map(|k| (k, coverage.0, coverage.1));
    let mut rows = multi_filter_stage(o, "ext_multi_filter_k", "k", &counts);
    print_rows(
        &format!(
            "Extension: multi-filter data reduction (static setting, {card} tuples, \
             25 devices; DRR charged k tuples per device)"
        ),
        &rows,
    );
    println!("\nexpected shape: DRR improves for small k (complementary filters prune");
    println!("what the corner filter misses), then flattens or dips once the per-device");
    println!("k-tuple charge outweighs the marginal pruning — the paper's open question.");

    let selectors = [
        (3, "top-vdr", MultiFilterSelection::TopVdr),
        (3, coverage.0, coverage.1),
        (3, "max-spread", MultiFilterSelection::MaxSpread),
    ];
    let by_selector = multi_filter_stage(o, "ext_multi_filter_sel", "selector", &selectors);
    print_rows("Which tuples? Selector comparison at k = 3", &by_selector);
    println!("\nexpected: top-vdr (near-clones) below both others; coverage best on IN,");
    println!("max-spread best on AC, where spreading the filters along the wide");
    println!("skyline band matters more than covering one device's sample.");
    rows.extend(by_selector);
    Grid { bench: "multi-filter", grid_rev: GRID_REV, header: Vec::new(), rows }
}

/// **Extension experiment** (the paper's future work, Section 7): "Another
/// direction is to extend the current strategies to retain good performance
/// while incorporating the redistribution of local relations due to device
/// mobility."
///
/// Compares long mobile runs with the relation-handoff protocol on vs. off:
/// data locality, migrations performed, transfer bytes, response times,
/// and result sizes.
pub fn redistribution(o: &RunOpts) -> Grid {
    let sim_seconds = o.scale.sim_seconds() * 2.0; // locality drift needs time
    let cells = [("off", false), ("on", true)].map(|(name, handoff)| {
        let mut exp = manet_cell(o.scale, 0xE47, sim_seconds);
        exp.handoff = handoff;
        (name, exp)
    });
    let rows = sweep::run_stage("ext_redistribution", o.jobs, &cells, |&(handoff, ref exp)| {
        let (out, seconds) = timed_run(exp);
        // Mean answer size of the queries that did not time out.
        let answered = out.records.iter().filter(|r| !r.timed_out);
        let avg_result = answered.clone().map(|r| r.result_len as f64).sum::<f64>()
            / answered.count().max(1) as f64;
        let response = out.mean_response_seconds.unwrap_or(f64::NAN);
        vec![
            label("handoff", handoff),
            det("queries", out.records.len()),
            det("locality_m", Value::Fixed(out.mean_data_locality_m, 4)),
            det("migrations", out.handoff_migrations),
            det("mean_response_seconds", Value::Fixed(response, 4)),
            det("avg_result", Value::Fixed(avg_result, 4)),
            det("kb_on_air", Value::Fixed(out.net.bytes_sent as f64 / 1024.0, 4)),
            vol("seconds", Value::Fixed(seconds, 3)),
        ]
    });
    let card = o.scale.manet_fixed_cardinality();
    print_rows(
        &format!(
            "Extension: mobility-driven data redistribution ({card} tuples, 25 devices, \
             {sim_seconds:.0} s, BF forwarding, d = 250)"
        ),
        &rows,
    );
    println!("\nexpected shape: locality drops sharply with handoff on, at the cost of");
    println!("transfer bytes; query answers stay comparable (data is never lost).");
    Grid { bench: "redistribution", grid_rev: GRID_REV, header: Vec::new(), rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Multi-filter's hand-coded charge is Eq. 1 at `k` = 1: on a small
    /// static net, the same runs give the same DRR either way, and each
    /// extra filter costs one tuple per participating device.
    #[test]
    fn charged_drr_at_one_filter_is_eq_1() {
        let data = DataSpec::manet_experiment(3_000, 2, Distribution::Independent, 11).generate();
        let net = grid_network_from_global(&data, 3, SpatialExtent::PAPER);
        let cfg = StrategyConfig {
            filter: FilterStrategy::MultiDynamic { k: 1 },
            bounds_mode: BoundsMode::Exact,
            exact_bounds: vec![1000.0, 1000.0],
            multi_selection: MultiFilterSelection::GreedyCoverage,
        };
        let mut drr = DrrAccumulator::default();
        for origin in 0..net.len() {
            drr.merge(&net.run_query(origin, f64::INFINITY, &cfg).metrics.drr);
        }
        assert!(drr.participants > 0 && drr.sum_sent < drr.sum_unreduced, "{drr:?}");
        assert_eq!(charged_drr(&drr, 1), drr.drr(true));
        let per_filter = drr.participants as f64 / drr.sum_unreduced as f64;
        assert!((charged_drr(&drr, 1) - charged_drr(&drr, 2) - per_filter).abs() < 1e-12);
    }
}
