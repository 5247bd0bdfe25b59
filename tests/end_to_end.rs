//! Workspace-level integration tests: the full pipeline from data
//! generation through partitioning, storage, and distributed querying, on
//! both runtimes.

use mobiskyline::core::TupleId;
use mobiskyline::prelude::*;

fn sorted_keys(v: &[Tuple]) -> Vec<(u64, u64)> {
    let mut k: Vec<(u64, u64)> = v.iter().map(|t| (t.x.to_bits(), t.y.to_bits())).collect();
    k.sort_unstable();
    k
}

#[test]
fn static_pipeline_with_overlapping_partitions() {
    // Overlap copies ~30 % of tuples to a neighbour cell; duplicate
    // elimination at assembly must keep answers exact.
    let spec = DataSpec::manet_experiment(5_000, 2, Distribution::Independent, 31);
    let data = spec.generate();
    let part = GridPartitioner::new(4, SpatialExtent::PAPER)
        .with_overlap(0.3, 8)
        .partition(&data);
    let total: usize = part.parts.iter().map(Vec::len).sum();
    assert!(total > data.len(), "overlap must duplicate tuples");

    let relations: Vec<HybridRelation> =
        part.parts.iter().map(|p| HybridRelation::new(p.clone())).collect();
    let positions: Vec<Point> = (0..16).map(|i| part.cell_center(i)).collect();
    let net = StaticGridNetwork::new(relations, positions, 4);

    let cfg = StrategyConfig {
        bounds_mode: BoundsMode::Exact,
        exact_bounds: spec.global_upper_bounds(),
        ..StrategyConfig::default()
    };
    for origin in [0, 5, 15] {
        for d in [200.0, f64::INFINITY] {
            let out = net.run_query(origin, d, &cfg);
            let truth = net.ground_truth(origin, d);
            assert_eq!(sorted_keys(&out.result), sorted_keys(&truth), "origin {origin}, d {d}");
        }
    }
}

#[test]
fn every_storage_model_supports_the_distributed_protocol() {
    let spec = DataSpec::local_experiment(2_000, 2, Distribution::AntiCorrelated, 77);
    let data = spec.generate();
    let part = GridPartitioner::new(3, SpatialExtent::PAPER).partition(&data);
    let positions: Vec<Point> = (0..9).map(|i| part.cell_center(i)).collect();
    let cfg = StrategyConfig {
        bounds_mode: BoundsMode::Under,
        exact_bounds: spec.global_upper_bounds(),
        ..StrategyConfig::default()
    };

    let flat: Vec<FlatRelation> = part.parts.iter().map(|p| FlatRelation::new(p.clone())).collect();
    let flat = StaticGridNetwork::new(flat, positions.clone(), 3);
    let hybrid: Vec<HybridRelation> =
        part.parts.iter().map(|p| HybridRelation::new(p.clone())).collect();
    let hybrid = StaticGridNetwork::new(hybrid, positions, 3);
    assert_eq!(
        sorted_keys(&flat.run_query(4, 300.0, &cfg).result),
        sorted_keys(&hybrid.run_query(4, 300.0, &cfg).result)
    );
}

#[test]
fn paper_tables_flow_through_static_network() {
    // All four hotel relations as a 2×2 "grid"; M2 (index 1) queries.
    let rels = vec![
        HybridRelation::new(datagen::hotels::r1()),
        HybridRelation::new(datagen::hotels::r2()),
        HybridRelation::new(datagen::hotels::r3()),
        HybridRelation::new(datagen::hotels::r4()),
    ];
    let positions = vec![
        Point::new(0.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(0.0, 1.0),
        Point::new(1.0, 1.0),
    ];
    let net = StaticGridNetwork::new(rels, positions, 2);
    let cfg = StrategyConfig {
        bounds_mode: BoundsMode::Exact,
        exact_bounds: datagen::hotels::global_bounds(),
        ..StrategyConfig::default()
    };
    let out = net.run_query(1, f64::INFINITY, &cfg);
    // Global skyline over R1 ∪ R2 ∪ R3 ∪ R4: h11, h12, h21/h31 (same
    // attrs, different sites), h22/h41? (90,2) vs (80,2): h41 dominates
    // h22. Ground truth settles it:
    let truth = net.ground_truth(1, f64::INFINITY);
    assert_eq!(sorted_keys(&out.result), sorted_keys(&truth));
    // And the known members by attribute value:
    let attrs: Vec<Vec<f64>> = out.result.iter().map(|t| t.attrs.to_vec()).collect();
    assert!(attrs.contains(&vec![20.0, 7.0]), "h11 in global skyline");
    assert!(attrs.contains(&vec![40.0, 5.0]), "h12 in global skyline");
    assert!(attrs.contains(&vec![80.0, 2.0]), "h41 in global skyline");
    assert!(attrs.contains(&vec![120.0, 1.0]), "h23/h42 in global skyline");
    assert!(!attrs.contains(&vec![90.0, 2.0]), "h22 dominated by h41");
}

#[test]
fn manet_bf_and_df_agree_on_fully_answered_queries() {
    let mut exp =
        ManetExperiment::paper_defaults(3, 3_000, 2, Distribution::Independent, f64::INFINITY, 5);
    exp.frozen = true;
    exp.radio.range_m = 400.0;
    exp.sim_seconds = 400.0;
    exp.queries_per_device = (1, 1);
    exp.cost = DeviceCostModel::free();

    let truth_len = {
        let data = exp.data.generate();
        constrained::skyline(data.iter().map(|t| (TupleId::site(t), t)), &QueryRegion::unbounded())
            .len()
    };

    for fwd in [Forwarding::BreadthFirst, Forwarding::DepthFirst] {
        let mut e = exp.clone();
        e.forwarding = fwd;
        let out = run_experiment(&e);
        let full: Vec<_> =
            out.records.iter().filter(|r| !r.timed_out && r.responded == 8).collect();
        assert!(!full.is_empty(), "{fwd:?}: no fully-answered query");
        for r in full {
            assert_eq!(r.result_len, truth_len, "{fwd:?} query {:?}", r.key);
        }
    }
}

#[test]
fn workload_respects_one_query_in_progress() {
    // A device with 5 back-to-back requests must serialize them: records
    // never overlap in [issued, completed].
    let mut exp =
        ManetExperiment::paper_defaults(3, 1_000, 2, Distribution::Independent, f64::INFINITY, 13);
    exp.frozen = true;
    exp.radio.range_m = 400.0;
    exp.sim_seconds = 900.0;
    exp.queries_per_device = (5, 5);
    let out = run_experiment(&exp);

    use std::collections::HashMap;
    let mut by_origin: HashMap<usize, Vec<(f64, f64)>> = HashMap::new();
    for r in &out.records {
        if let Some(c) = r.completed {
            by_origin
                .entry(r.key.origin)
                .or_default()
                .push((r.issued.as_secs_f64(), c.as_secs_f64()));
        }
    }
    for (origin, mut spans) in by_origin {
        spans.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0 + 1e-9, "device {origin}: query intervals overlap: {w:?}");
        }
    }
}
