//! Workspace-level tests of the non-paper extensions working together:
//! clustered data, multi-filter banks, relation images, and the
//! verification API.

use mobiskyline::dist::verify::verify_static_query;
use mobiskyline::prelude::*;

fn clustered_spec(seed: u64) -> DataSpec {
    DataSpec {
        spatial_pattern: datagen::SpatialPattern::Clustered { clusters: 6, sigma: 60.0 },
        ..DataSpec::manet_experiment(5_000, 2, Distribution::Independent, seed)
    }
}

#[test]
fn clustered_data_flows_through_the_whole_pipeline() {
    let spec = clustered_spec(3);
    let data = spec.generate();
    let net = grid_network_from_global(&data, 4, SpatialExtent::PAPER);
    let cfg = StrategyConfig {
        bounds_mode: BoundsMode::Exact,
        exact_bounds: spec.global_upper_bounds(),
        ..StrategyConfig::default()
    };
    for origin in [0, 7, 15] {
        let report = verify_static_query(&net, origin, 300.0, &cfg);
        assert!(report.is_exact(), "origin {origin}: {report:?}");
    }
    // Clustered placement skews partition sizes — some cells nearly empty.
    let part = GridPartitioner::new(4, SpatialExtent::PAPER).partition(&data);
    let sizes: Vec<usize> = part.parts.iter().map(Vec::len).collect();
    let max = *sizes.iter().max().unwrap();
    let min = *sizes.iter().min().unwrap();
    assert!(max > min * 3, "clusters should skew partitions: {sizes:?}");
}

#[test]
fn multi_filter_strategy_is_exact_on_clustered_data() {
    let spec = clustered_spec(11);
    let net = grid_network_from_global(&spec.generate(), 3, SpatialExtent::PAPER);
    for k in [1, 2, 4] {
        let cfg = StrategyConfig {
            filter: FilterStrategy::MultiDynamic { k },
            bounds_mode: BoundsMode::Under,
            exact_bounds: spec.global_upper_bounds(),
            ..StrategyConfig::default()
        };
        let report = verify_static_query(&net, 4, f64::INFINITY, &cfg);
        assert!(report.is_exact(), "k = {k}: {report:?}");
    }
}

#[test]
fn relation_images_round_trip_through_devices() {
    // datagen → encode → decode → device → query: the full "sync a device
    // over a cable" path.
    let spec = clustered_spec(31);
    let data = spec.generate();
    let img = mobiskyline::storage::encode_relation(&data);
    let restored = mobiskyline::storage::decode_relation(&img).expect("own image");
    assert_eq!(restored.len(), data.len());

    let direct = HybridRelation::new(data);
    let from_image = HybridRelation::new(restored);
    let q = LocalQuery::plain(QueryRegion::new(Point::new(500.0, 500.0), 300.0));
    let mut a: Vec<_> = direct
        .local_skyline(&q)
        .skyline
        .iter()
        .map(|t| (t.x.to_bits(), t.y.to_bits()))
        .collect();
    let mut b: Vec<_> = from_image
        .local_skyline(&q)
        .skyline
        .iter()
        .map(|t| (t.x.to_bits(), t.y.to_bits()))
        .collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
}
