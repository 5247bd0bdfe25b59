//! Property tests of the distributed protocol on the static runtime:
//! whatever the partitioning, strategy, estimation mode, or query origin,
//! the distributed answer equals the centralized constrained skyline of
//! the deduplicated union.

use proptest::prelude::*;

use device_storage::HybridRelation;
use dist_skyline::config::{FilterStrategy, StrategyConfig};
use dist_skyline::static_net::StaticGridNetwork;
use skyline_core::region::Point;
use skyline_core::vdr::BoundsMode;
use skyline_core::Tuple;

/// Random global relation on a g×g conceptual grid with integer attributes
/// (ties likely — the hard case).
fn global(max: usize, dim: usize) -> impl Strategy<Value = Vec<Tuple>> {
    prop::collection::vec(
        (0.0f64..999.0, 0.0f64..999.0, prop::collection::vec(1u16..50, dim)),
        1..max,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (_, _, attrs))| {
                // Derive unique locations deterministically from the index
                // so duplicate-site semantics stay clean.
                let x = ((i * 37) % 1000) as f64;
                let y = ((i * 91) % 1000) as f64 + (i / 1000) as f64 * 0.001;
                Tuple::new(x, y, attrs.into_iter().map(f64::from).collect())
            })
            .collect()
    })
}

fn strategy(dim: usize) -> impl Strategy<Value = StrategyConfig> {
    (0usize..5, 0usize..3).prop_map(move |(f, m)| StrategyConfig {
        filter: [
            FilterStrategy::NoFilter,
            FilterStrategy::Single,
            FilterStrategy::Dynamic,
            FilterStrategy::MultiDynamic { k: 2 },
            FilterStrategy::MultiDynamic { k: 4 },
        ][f],
        bounds_mode: [BoundsMode::Exact, BoundsMode::Over, BoundsMode::Under][m],
        exact_bounds: vec![50.0; dim],
        ..StrategyConfig::default()
    })
}

fn build_net(data: &[Tuple], g: usize) -> StaticGridNetwork {
    let part = datagen::GridPartitioner::new(g, datagen::SpatialExtent::PAPER).partition(data);
    let relations: Vec<HybridRelation> =
        part.parts.iter().map(|p| HybridRelation::new(p.clone())).collect();
    let positions: Vec<Point> = (0..g * g).map(|i| part.cell_center(i)).collect();
    StaticGridNetwork::new(relations, positions, g)
}

fn keys(mut v: Vec<Tuple>) -> Vec<(u64, u64)> {
    let mut k: Vec<(u64, u64)> = v.drain(..).map(|t| (t.x.to_bits(), t.y.to_bits())).collect();
    k.sort_unstable();
    k
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn distributed_always_equals_centralized(
        data in global(300, 2),
        cfg in strategy(2),
        origin in 0usize..9,
        d_sel in 0usize..4,
    ) {
        let d = [100.0, 250.0, 500.0, f64::INFINITY][d_sel];
        let net = build_net(&data, 3);
        let out = net.run_query(origin, d, &cfg);
        prop_assert_eq!(keys(out.result), keys(net.ground_truth(origin, d)));
    }

    #[test]
    fn distributed_3d_with_dynamic_filters(
        data in global(200, 3),
        origin in 0usize..4,
    ) {
        let cfg = StrategyConfig {
            filter: FilterStrategy::Dynamic,
            bounds_mode: BoundsMode::Under,
            exact_bounds: vec![50.0; 3],
            ..StrategyConfig::default()
        };
        let net = build_net(&data, 2);
        let out = net.run_query(origin, f64::INFINITY, &cfg);
        prop_assert_eq!(keys(out.result), keys(net.ground_truth(origin, f64::INFINITY)));
    }

    #[test]
    fn filtering_never_increases_traffic(
        data in global(300, 2),
        origin in 0usize..9,
    ) {
        let net = build_net(&data, 3);
        let base = StrategyConfig {
            exact_bounds: vec![50.0; 2],
            bounds_mode: BoundsMode::Exact,
            ..StrategyConfig::default()
        };
        let none = net.run_query(
            origin,
            f64::INFINITY,
            &StrategyConfig { filter: FilterStrategy::NoFilter, ..base.clone() },
        );
        let dynf = net.run_query(
            origin,
            f64::INFINITY,
            &StrategyConfig { filter: FilterStrategy::Dynamic, ..base },
        );
        prop_assert!(dynf.metrics.tuples_transferred <= none.metrics.tuples_transferred);
    }

    #[test]
    fn drr_terms_are_consistent(
        data in global(300, 2),
        cfg in strategy(2),
        origin in 0usize..9,
    ) {
        let net = build_net(&data, 3);
        let out = net.run_query(origin, f64::INFINITY, &cfg);
        let acc = out.metrics.drr;
        prop_assert!(acc.sum_sent <= acc.sum_unreduced, "SK'_i larger than SK_i");
        prop_assert!(acc.participants <= 8, "more participants than devices");
        prop_assert!(acc.drr(true) <= 1.0);
    }
}
