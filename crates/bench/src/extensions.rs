//! The extension experiments the paper motivates, each gated by a
//! baseline: radio energy per query (`msq ext energy`; energy is why the
//! paper filters at all), the multi-filter ablation (`msq ext
//! multi-filter`) and mobility-driven data redistribution (`msq ext
//! redistribution`), the last two the future work of Section 7. Each
//! returns one report per row, prints the rows as `print_rows` tables,
//! and `--json` writes them as `BENCH_energy.json`,
//! `BENCH_multi-filter.json` or `BENCH_redistribution.json`. A report's
//! fields are its row's columns, under the same names; `seconds` is the
//! row's wall clock (volatile), everything else is deterministic.

use std::time::Instant;

use datagen::{DataSpec, Distribution, SpatialExtent};
use dist_skyline::config::{FilterStrategy, Forwarding, StrategyConfig};
use dist_skyline::metrics::DrrAccumulator;
use dist_skyline::runtime::{run_experiment, ManetExperiment, ManetOutcome};
use dist_skyline::static_net::grid_network_from_global;
use skyline_core::vdr::{BoundsMode, MultiFilterSelection};

use crate::provenance::{
    baseline_json, det, label, print_rows, vol, Provenance, Row, Value, GRID_REV,
};
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

/// One `(forwarding, filter)` row of `BENCH_energy.json`.
#[derive(Debug, Clone)]
pub struct EnergyReport {
    pub forwarding: &'static str,
    pub filter: &'static str,
    pub queries: usize,
    pub j_per_query: f64,
    pub total_j: f64,
    pub bytes_per_query: f64,
    pub drr: f64,
    pub seconds: f64,
}

/// **Extension experiment**: radio energy per query. The paper motivates
/// its design with the devices' energy constraints ("This calls for
/// processing and energy saving techniques for use on the mobile
/// devices") but reports no energy numbers; this ablation quantifies the
/// saving using a Feeney–Nilsson-style 802.11 energy model.
///
/// Grid: {BF, DF} forwarding × {straightforward, dynamic filter}.
pub fn energy(o: &RunOpts) -> Vec<EnergyReport> {
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
    let outs = sweep::run_stage("ext_energy", o.jobs, &cells, |(_, _, exp)| timed_run(exp));
    let reports: Vec<EnergyReport> = cells
        .iter()
        .zip(&outs)
        .map(|(&(forwarding, filter, _), (out, seconds))| EnergyReport {
            forwarding,
            filter,
            queries: out.records.len(),
            j_per_query: out.energy_per_query_joules,
            total_j: out.total_energy_joules,
            bytes_per_query: out.net.bytes_sent as f64 / out.records.len().max(1) as f64,
            drr: out.drr,
            seconds: *seconds,
        })
        .collect();
    let card = o.scale.manet_fixed_cardinality();
    print_rows(
        &format!("Extension: radio energy per query ({card} tuples, 25 devices, d = 250)"),
        &reports.iter().map(energy_row).collect::<Vec<_>>(),
    );
    println!("\nexpected shape: the dynamic filter cuts bytes and therefore energy in");
    println!("both forwarding modes; DF spends less radio energy overall than BF's");
    println!("flood, mirroring the Fig. 12 message counts.");
    reports
}

fn energy_row(r: &EnergyReport) -> Row {
    vec![
        label("forwarding", r.forwarding),
        label("filter", r.filter),
        det("queries", r.queries),
        det("j_per_query", Value::Fixed(r.j_per_query, 4)),
        det("total_j", Value::Fixed(r.total_j, 4)),
        det("bytes_per_query", Value::Fixed(r.bytes_per_query, 4)),
        det("drr", Value::Fixed(r.drr, 4)),
        vol("seconds", Value::Fixed(r.seconds, 3)),
    ]
}

/// Renders `BENCH_energy.json`.
pub fn energy_json(prov: &Provenance, reports: &[EnergyReport]) -> String {
    let rows: Vec<Row> = reports.iter().map(energy_row).collect();
    baseline_json("energy", prov, GRID_REV, &[], &rows)
}

const SEEDS: [u64; 3] = [11, 22, 33];

const DISTS: [(&str, Distribution); 2] =
    [("IN", Distribution::Independent), ("AC", Distribution::AntiCorrelated)];

/// One `(k, selector, dist)` row of `BENCH_multi-filter.json`, merged over
/// the three seeds. `sweep` is `k` for the filter-count sweep and
/// `selector` for the selector comparison; `drr` charges `k` filter
/// tuples per participating device.
#[derive(Debug, Clone)]
pub struct MultiFilterReport {
    pub sweep: &'static str,
    pub k: usize,
    pub selector: &'static str,
    pub dist: &'static str,
    pub queries: u64,
    pub drr: f64,
    pub tuples_per_query: f64,
    pub seconds: f64,
}

/// All-origins static runs of every `(k, selector)` pair in `grid` over
/// both distributions and every seed, as one sweep stage; one report per
/// `(k, selector, dist)`.
fn multi_filter_stage(
    o: &RunOpts,
    stage: &str,
    sweep: &'static str,
    grid: &[(usize, &'static str, MultiFilterSelection)],
) -> Vec<MultiFilterReport> {
    let card = o.scale.global_fixed_cardinality();
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for &(k, selector, selection) in grid {
        for (dist, distribution) in DISTS {
            rows.push((k, selector, dist));
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
    rows.into_iter()
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
            // Charge k filter tuples per participating device instead of 1.
            let charged = drr.sum_unreduced as i64
                - drr.sum_sent as i64
                - (drr.participants * k as u64) as i64;
            MultiFilterReport {
                sweep,
                k,
                selector,
                dist,
                queries,
                drr: charged as f64 / drr.sum_unreduced.max(1) as f64,
                tuples_per_query: tuples as f64 / queries as f64,
                seconds,
            }
        })
        .collect()
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
pub fn multi_filter(o: &RunOpts) -> Vec<MultiFilterReport> {
    let card = o.scale.global_fixed_cardinality();
    let coverage = ("coverage", MultiFilterSelection::GreedyCoverage);
    let counts = [1, 2, 3, 4, 8].map(|k| (k, coverage.0, coverage.1));
    let mut reports = multi_filter_stage(o, "ext_multi_filter_k", "k", &counts);
    print_rows(
        &format!(
            "Extension: multi-filter data reduction (static setting, {card} tuples, \
             25 devices; DRR charged k tuples per device)"
        ),
        &reports.iter().map(multi_filter_row).collect::<Vec<_>>(),
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
    print_rows(
        "Which tuples? Selector comparison at k = 3",
        &by_selector.iter().map(multi_filter_row).collect::<Vec<_>>(),
    );
    println!("\nexpected: coverage ≥ spread ≥ top-vdr — complements beat clones.");
    reports.extend(by_selector);
    reports
}

fn multi_filter_row(r: &MultiFilterReport) -> Row {
    vec![
        label("sweep", r.sweep),
        label("k", r.k),
        label("selector", r.selector),
        label("dist", r.dist),
        det("queries", r.queries),
        det("drr", Value::Fixed(r.drr, 4)),
        det("tuples_per_query", Value::Fixed(r.tuples_per_query, 4)),
        vol("seconds", Value::Fixed(r.seconds, 3)),
    ]
}

/// Renders `BENCH_multi-filter.json`: the filter-count sweep's rows, then
/// the selector comparison's.
pub fn multi_filter_json(prov: &Provenance, reports: &[MultiFilterReport]) -> String {
    let rows: Vec<Row> = reports.iter().map(multi_filter_row).collect();
    baseline_json("multi-filter", prov, GRID_REV, &[], &rows)
}

/// The handoff-`off` or handoff-`on` row of `BENCH_redistribution.json`:
/// `locality_m` is the mean device↔data distance over the run,
/// `avg_result` the mean answer size of the queries that did not time
/// out, `kb_on_air` everything sent.
#[derive(Debug, Clone)]
pub struct RedistributionReport {
    pub handoff: &'static str,
    pub queries: usize,
    pub locality_m: f64,
    pub migrations: u64,
    pub mean_response_seconds: Option<f64>,
    pub avg_result: f64,
    pub kb_on_air: f64,
    pub seconds: f64,
}

/// **Extension experiment** (the paper's future work, Section 7): "Another
/// direction is to extend the current strategies to retain good performance
/// while incorporating the redistribution of local relations due to device
/// mobility."
///
/// Compares long mobile runs with the relation-handoff protocol on vs. off:
/// data locality, migrations performed, transfer bytes, response times,
/// and result sizes.
pub fn redistribution(o: &RunOpts) -> Vec<RedistributionReport> {
    let sim_seconds = o.scale.sim_seconds() * 2.0; // locality drift needs time
    let variants = [("off", false), ("on", true)];
    let cells = variants.map(|(_, handoff)| {
        let mut exp = manet_cell(o.scale, 0xE47, sim_seconds);
        exp.handoff = handoff;
        exp
    });
    let outs = sweep::run_stage("ext_redistribution", o.jobs, &cells, timed_run);
    let reports: Vec<RedistributionReport> = variants
        .iter()
        .zip(&outs)
        .map(|(&(handoff, _), (out, seconds))| {
            let answered = out.records.iter().filter(|r| !r.timed_out);
            let avg_result = answered.clone().map(|r| r.result_len as f64).sum::<f64>()
                / answered.count().max(1) as f64;
            RedistributionReport {
                handoff,
                queries: out.records.len(),
                locality_m: out.mean_data_locality_m,
                migrations: out.handoff_migrations,
                mean_response_seconds: out.mean_response_seconds,
                avg_result,
                kb_on_air: out.net.bytes_sent as f64 / 1024.0,
                seconds: *seconds,
            }
        })
        .collect();
    let card = o.scale.manet_fixed_cardinality();
    print_rows(
        &format!(
            "Extension: mobility-driven data redistribution ({card} tuples, 25 devices, \
             {sim_seconds:.0} s, BF forwarding, d = 250)"
        ),
        &reports.iter().map(redistribution_row).collect::<Vec<_>>(),
    );
    println!("\nexpected shape: locality drops sharply with handoff on, at the cost of");
    println!("transfer bytes; query answers stay comparable (data is never lost).");
    reports
}

fn redistribution_row(r: &RedistributionReport) -> Row {
    vec![
        label("handoff", r.handoff),
        det("queries", r.queries),
        det("locality_m", Value::Fixed(r.locality_m, 4)),
        det("migrations", r.migrations),
        det("mean_response_seconds", Value::Fixed(r.mean_response_seconds.unwrap_or(f64::NAN), 4)),
        det("avg_result", Value::Fixed(r.avg_result, 4)),
        det("kb_on_air", Value::Fixed(r.kb_on_air, 4)),
        vol("seconds", Value::Fixed(r.seconds, 3)),
    ]
}

/// Renders `BENCH_redistribution.json`.
pub fn redistribution_json(prov: &Provenance, reports: &[RedistributionReport]) -> String {
    let rows: Vec<Row> = reports.iter().map(redistribution_row).collect();
    baseline_json("redistribution", prov, GRID_REV, &[], &rows)
}
