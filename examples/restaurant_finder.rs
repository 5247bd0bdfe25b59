//! The paper's motivating scenario (Section 2): "a tourist may want to know
//! about inexpensive and highly rated restaurants within a certain range".
//!
//! The tourist's device holds only its own neighbourhood's restaurant data;
//! the rest lives on other devices. This example walks the paper's worked
//! hotel tables (2–5) step by step — local skylines, VDR-based filter
//! selection, dynamic filter upgrades on the relay path — and then scales
//! the same query up on synthetic restaurant data, comparing the
//! straightforward, single-filter, and dynamic-filter strategies.
//!
//! Run with: `cargo run --example restaurant_finder`

use mobiskyline::core::vdr::{select_filter, vdr_volume};
use mobiskyline::core::TupleId;
use mobiskyline::prelude::*;

fn main() {
    worked_example();
    scaled_up();
}

/// The exact numbers from Section 3.2 / 3.4 of the paper.
fn worked_example() {
    println!("=== Worked example: Tables 2–5 of the paper ===\n");
    let r1 = datagen::hotels::r1();
    let r2 = datagen::hotels::r2();
    let bounds = UpperBounds::new(datagen::hotels::global_bounds());

    // Local skylines.
    let sk1 = local_skyline(&r1);
    let sk2 = local_skyline(&r2);
    println!("M1 local skyline ({} hotels): {:?}", sk1.len(), attrs(&sk1));
    println!("M2 local skyline ({} hotels): {:?}", sk2.len(), attrs(&sk2));

    // M2 originates and picks the max-VDR filter.
    println!("\nVDR values on M2 (bounds 200 × 10):");
    for t in &sk2 {
        println!("  {:?} → VDR {}", t.attrs, vdr_volume(&t.attrs, &bounds));
    }
    let filter = select_filter(&sk2, &bounds).expect("non-empty skyline");
    println!("chosen filter: {:?} (VDR {})", filter.attrs, filter.vdr);

    // Apply the filter to M1's local skyline.
    let kept: Vec<_> = sk1.iter().filter(|t| !dominates(&filter.attrs, &t.attrs)).collect();
    println!(
        "M1 sends {} of {} tuples after filtering (h14 and h16 eliminated)",
        kept.len(),
        sk1.len()
    );

    // Dynamic upgrade on the relay path M4 → M3 → M1 (Section 3.4).
    let sk4 = local_skyline(&datagen::hotels::r4());
    let sk3 = local_skyline(&datagen::hotels::r3());
    let f4 = select_filter(&sk4, &bounds).unwrap();
    let f3 = select_filter(&sk3, &bounds).unwrap();
    println!("\nrelay path M4 → M3: filter h41 {:?} (VDR {})", f4.attrs, f4.vdr);
    println!("M3's best candidate h31 {:?} (VDR {})", f3.attrs, f3.vdr);
    println!(
        "dynamic strategy forwards {} to M1",
        if f3.vdr > f4.vdr { "h31 (upgraded)" } else { "h41 (kept)" }
    );
}

/// The same query on 100K synthetic restaurants over 36 devices.
fn scaled_up() {
    println!("\n=== Scaled up: 100K restaurants, 36 devices ===\n");
    let spec = DataSpec::manet_experiment(100_000, 2, Distribution::Independent, 99);
    let data = spec.generate();
    let net = grid_network_from_global(&data, 6, SpatialExtent::PAPER);

    println!("{:<16} {:>10} {:>10} {:>8}", "strategy", "tuples", "bytes", "DRR");
    for (name, filter) in [
        ("straightforward", FilterStrategy::NoFilter),
        ("single filter", FilterStrategy::Single),
        ("dynamic filter", FilterStrategy::Dynamic),
    ] {
        let cfg = StrategyConfig {
            filter,
            bounds_mode: BoundsMode::Exact,
            exact_bounds: spec.global_upper_bounds(),
            ..StrategyConfig::default()
        };
        let out = net.run_query(21, 400.0, &cfg);
        let m = &out.metrics;
        println!(
            "{:<16} {:>10} {:>10} {:>8.3}",
            name,
            m.tuples_transferred,
            m.bytes_transferred,
            if filter == FilterStrategy::NoFilter { 0.0 } else { m.drr.drr(true) }
        );
        // Whatever the strategy, the answer is identical.
        assert_eq!(out.result.len(), net.ground_truth(21, 400.0).len());
    }
    println!("\nall three strategies returned the identical skyline ✓");
}

/// A device's unbounded local skyline.
fn local_skyline(r: &[Tuple]) -> Vec<Tuple> {
    let rows = r.iter().map(|t| (TupleId::site(t), t));
    constrained::skyline(rows, &QueryRegion::unbounded())
        .into_iter()
        .map(|(_, t)| t.clone())
        .collect()
}

fn attrs(ts: &[Tuple]) -> Vec<Vec<f64>> {
    ts.iter().map(|t| t.attrs.clone()).collect()
}
