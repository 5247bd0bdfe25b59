//! The extension experiments that print a table and keep no baseline:
//! radio energy per query, gossip forwarding, the multi-filter ablation
//! and mobility-driven data redistribution (`msq ext energy|gossip|
//! multi-filter|redistribution [--full] [--jobs N]`). The paper's
//! Section 7 names the last two as future work.

use datagen::{DataSpec, Distribution, SpatialExtent};
use dist_skyline::config::{FilterStrategy, Forwarding, StrategyConfig};
use dist_skyline::metrics::DrrAccumulator;
use dist_skyline::runtime::{run_experiment, HandoffConfig, ManetExperiment};
use dist_skyline::static_net::grid_network_from_global;
use manet_sim::SimDuration;
use skyline_core::vdr::{BoundsMode, MultiFilterSelection};

use crate::{sweep, RunOpts};

/// **Extension experiment**: radio energy per query. The paper motivates
/// its design with the devices' energy constraints ("This calls for
/// processing and energy saving techniques for use on the mobile
/// devices") but reports no energy numbers; this ablation quantifies the
/// saving using a Feeney–Nilsson-style 802.11 energy model.
///
/// Grid: {BF, DF} forwarding × {straightforward, dynamic filter}.
pub fn energy(o: &RunOpts) {
    let card = o.scale.manet_fixed_cardinality();
    println!("== Extension: radio energy per query ({card} tuples, 25 devices, d = 250) ==\n");
    crate::print_header(
        "config",
        &["J/query".into(), "total J".into(), "bytes/query".into(), "DRR".into()],
    );

    let mut labels = Vec::new();
    let mut cells = Vec::new();
    for (fname, fwd) in [("BF", Forwarding::BreadthFirst), ("DF", Forwarding::DepthFirst)] {
        for (sname, filter) in
            [("nofilter", FilterStrategy::NoFilter), ("dynamic", FilterStrategy::Dynamic)]
        {
            let mut exp = ManetExperiment::paper_defaults(
                5,
                card,
                2,
                Distribution::Independent,
                250.0,
                0xE0E,
            );
            exp.forwarding = fwd;
            exp.sim_seconds = o.scale.sim_seconds();
            exp.strategy = StrategyConfig {
                filter,
                exact_bounds: vec![1000.0, 1000.0],
                ..StrategyConfig::default()
            };
            labels.push(format!("{fname}/{sname}"));
            cells.push(exp);
        }
    }
    let outs = sweep::run_stage("ext_energy", o.jobs, &cells, run_experiment);
    for (label, out) in labels.iter().zip(&outs) {
        let nq = out.records.len().max(1) as f64;
        crate::print_row(
            label,
            &[
                out.energy_per_query_joules,
                out.total_energy_joules,
                out.net.bytes_sent as f64 / nq,
                out.drr,
            ],
        );
    }
    println!("\nexpected shape: the dynamic filter cuts bytes and therefore energy in");
    println!("both forwarding modes; DF spends less radio energy overall than BF's");
    println!("flood, mirroring the Fig. 12 message counts.");
}

/// **Extension experiment**: gossip (probabilistic-flood) query forwarding,
/// an ablation between the paper's BF flood and no relaying at all. Related
/// to the Lindemann & Waldhorst controlled-forwarding work the paper cites
/// ("their method avoids flooding messages throughout the network").
///
/// Sweeps the re-broadcast probability and reports message cost, coverage
/// (devices answering), response time, and energy.
pub fn gossip(o: &RunOpts) {
    let card = o.scale.manet_fixed_cardinality();
    println!("== Extension: gossip forwarding ({card} tuples, 49 devices, d = 500) ==\n");
    crate::print_header(
        "p%",
        &[
            "fwd msgs".into(),
            "responded".into(),
            "resp (s)".into(),
            "J/query".into(),
            "timeouts%".into(),
        ],
    );

    let percents = [40u8, 60, 80, 100];
    let cells: Vec<ManetExperiment> = percents
        .iter()
        .map(|&percent| {
            let mut exp = ManetExperiment::paper_defaults(
                7,
                card,
                2,
                Distribution::Independent,
                500.0,
                0x605,
            );
            exp.forwarding = if percent == 100 {
                Forwarding::BreadthFirst
            } else {
                Forwarding::Gossip { rebroadcast_percent: percent }
            };
            exp.sim_seconds = o.scale.sim_seconds();
            exp
        })
        .collect();
    let outs = sweep::run_stage("ext_gossip", o.jobs, &cells, run_experiment);
    for (percent, out) in percents.iter().zip(&outs) {
        let responded = out.records.iter().map(|r| r.responded as f64).sum::<f64>()
            / out.records.len().max(1) as f64;
        crate::print_row(
            percent,
            &[
                out.mean_forward_messages,
                responded,
                out.mean_response_seconds.unwrap_or(f64::NAN),
                out.energy_per_query_joules,
                out.timeout_fraction * 100.0,
            ],
        );
    }
    println!("\nexpected shape: message count and energy fall roughly linearly with p;");
    println!("coverage (devices responding) degrades gently until the flood stops");
    println!("percolating, then timeouts spike — the classic gossip phase transition.");
}

/// One sweep cell: a full all-origins run of one `(k, selector, dist,
/// seed)` configuration on its own generated dataset.
struct Cell {
    card: usize,
    k: usize,
    selection: MultiFilterSelection,
    dist: Distribution,
    seed: u64,
}

/// What a cell reports back for merging (seed-order) in the collect phase.
struct CellOut {
    drr: DrrAccumulator,
    tuples: u64,
    queries: u64,
}

fn run_cell(cell: &Cell) -> CellOut {
    let data = DataSpec::manet_experiment(cell.card, 2, cell.dist, cell.seed).generate();
    let net = grid_network_from_global(&data, 5, SpatialExtent::PAPER);
    let cfg = StrategyConfig {
        filter: FilterStrategy::MultiDynamic { k: cell.k },
        bounds_mode: BoundsMode::Exact,
        exact_bounds: vec![1000.0, 1000.0],
        multi_selection: cell.selection,
    };
    let mut out = CellOut { drr: DrrAccumulator::default(), tuples: 0, queries: 0 };
    for origin in 0..net.len() {
        let run = net.run_query(origin, f64::INFINITY, &cfg);
        out.drr.merge(&run.metrics.drr);
        out.tuples += run.metrics.tuples_transferred;
        out.queries += 1;
    }
    out
}

/// DRR with `k` filter tuples charged per participating device instead
/// of 1.
fn charged_drr(drr: &DrrAccumulator, k: usize) -> f64 {
    let charged =
        drr.sum_unreduced as i64 - drr.sum_sent as i64 - (drr.participants * k as u64) as i64;
    charged as f64 / drr.sum_unreduced.max(1) as f64
}

const SEEDS: [u64; 3] = [11, 22, 33];

/// **Extension experiment** (the paper's future work, Section 7): "One
/// research direction is to generalize the filtering idea, using more than
/// one filtering tuple. Important questions include how many, and which,
/// tuples should be used as filters, to achieve the best data reduction
/// rate."
///
/// This ablation answers the "how many" question in the static pre-test
/// setting: DRR vs. the filter-bank size `k`, on independent and
/// anti-correlated data. Each extra filter costs one tuple on the wire per
/// device (the DRR formula charges `k` instead of 1), so the curve shows
/// where the marginal pruning stops paying.
pub fn multi_filter(o: &RunOpts) {
    let card = o.scale.global_fixed_cardinality();
    println!("== Extension: multi-filter data reduction (static setting, {card} tuples, 25 devices) ==\n");
    println!("DRR charged k tuples per device (the banked filters ride the query)\n");
    crate::print_header(
        "k",
        &["IN DRR".into(), "IN tuples".into(), "AC DRR".into(), "AC tuples".into()],
    );

    let ks = [1usize, 2, 3, 4, 8];
    let dists = [Distribution::Independent, Distribution::AntiCorrelated];
    let cells: Vec<Cell> = ks
        .iter()
        .flat_map(|&k| {
            dists.iter().flat_map(move |&dist| {
                SEEDS.iter().map(move |&seed| Cell {
                    card,
                    k,
                    selection: MultiFilterSelection::default(),
                    dist,
                    seed,
                })
            })
        })
        .collect();
    let outs = sweep::run_stage("ext_multi_filter_k", o.jobs, &cells, run_cell);
    for (k, per_k) in ks.iter().zip(outs.chunks(dists.len() * SEEDS.len())) {
        let mut row = Vec::new();
        for per_dist in per_k.chunks(SEEDS.len()) {
            let mut drr = DrrAccumulator::default();
            let (mut tuples, mut queries) = (0u64, 0u64);
            for cell_out in per_dist {
                drr.merge(&cell_out.drr);
                tuples += cell_out.tuples;
                queries += cell_out.queries;
            }
            // Charge k filter tuples per participating device instead of 1.
            row.push(charged_drr(&drr, *k));
            row.push(tuples as f64 / queries as f64);
        }
        crate::print_row(k, &row);
    }
    println!("\nexpected shape: DRR improves for small k (complementary filters prune");
    println!("what the corner filter misses), then flattens or dips once the per-device");
    println!("k-tuple charge outweighs the marginal pruning — the paper's open question.");

    // --- The "which" half: compare selection policies at the sweet spot.
    let k = 3;
    println!("\n== Which tuples? Selector comparison at k = {k} ==\n");
    crate::print_header("selector", &["IN DRR".into(), "AC DRR".into()]);
    let selectors = [
        ("top-vdr", MultiFilterSelection::TopVdr),
        ("coverage", MultiFilterSelection::GreedyCoverage),
        ("max-spread", MultiFilterSelection::MaxSpread),
    ];
    let cells: Vec<Cell> = selectors
        .iter()
        .flat_map(|&(_, selection)| {
            dists.iter().flat_map(move |&dist| {
                SEEDS.iter().map(move |&seed| Cell { card, k, selection, dist, seed })
            })
        })
        .collect();
    let outs = sweep::run_stage("ext_multi_filter_sel", o.jobs, &cells, run_cell);
    for ((name, _), per_sel) in selectors.iter().zip(outs.chunks(dists.len() * SEEDS.len())) {
        let mut row = Vec::new();
        for per_dist in per_sel.chunks(SEEDS.len()) {
            let mut drr = DrrAccumulator::default();
            for cell_out in per_dist {
                drr.merge(&cell_out.drr);
            }
            row.push(charged_drr(&drr, k));
        }
        crate::print_row(name, &row);
    }
    println!("\nexpected: coverage ≥ spread ≥ top-vdr — complements beat clones.");
}

/// **Extension experiment** (the paper's future work, Section 7): "Another
/// direction is to extend the current strategies to retain good performance
/// while incorporating the redistribution of local relations due to device
/// mobility."
///
/// Compares long mobile runs with the relation-handoff protocol on vs. off:
/// data locality (mean distance between a device and its relation's
/// centroid at the end of the run), migrations performed, transfer bytes,
/// response times, and result sizes.
pub fn redistribution(o: &RunOpts) {
    let card = o.scale.manet_fixed_cardinality();
    let sim_seconds = o.scale.sim_seconds() * 2.0; // locality drift needs time
    println!("== Extension: mobility-driven data redistribution ==");
    println!("({card} tuples, 25 devices, {sim_seconds:.0} s, BF forwarding, d = 250)\n");
    crate::print_header(
        "handoff",
        &[
            "locality m".into(),
            "migrations".into(),
            "resp (s)".into(),
            "avg result".into(),
            "kB on air".into(),
        ],
    );

    let variants = [
        ("off", None),
        (
            "on",
            Some(HandoffConfig {
                interval: SimDuration::from_secs_f64(120.0),
                capacity_factor: 3.0,
                min_gain_m: 100.0,
            }),
        ),
    ];
    let cells: Vec<ManetExperiment> = variants
        .iter()
        .map(|(_, handoff)| {
            let mut exp = ManetExperiment::paper_defaults(
                5,
                card,
                2,
                Distribution::Independent,
                250.0,
                0xE47,
            );
            exp.forwarding = Forwarding::BreadthFirst;
            exp.sim_seconds = sim_seconds;
            exp.handoff = *handoff;
            exp
        })
        .collect();
    let outs = sweep::run_stage("ext_redistribution", o.jobs, &cells, run_experiment);
    for ((label, _), out) in variants.iter().zip(&outs) {
        let avg_result = out
            .records
            .iter()
            .filter(|r| !r.timed_out)
            .map(|r| r.result_len as f64)
            .sum::<f64>()
            / out.records.iter().filter(|r| !r.timed_out).count().max(1) as f64;
        crate::print_row(
            label,
            &[
                out.mean_data_locality_m,
                out.handoff_migrations as f64,
                out.mean_response_seconds.unwrap_or(f64::NAN),
                avg_result,
                out.net.bytes_sent as f64 / 1024.0,
            ],
        );
    }
    println!("\nexpected shape: locality drops sharply with handoff on, at the cost of");
    println!("transfer bytes; query answers stay comparable (data is never lost).");
}
