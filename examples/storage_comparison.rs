//! Compares the two device storage models Fig. 5 measures on one relation:
//! flat (FS) and the paper's hybrid ID-based model (HS).
//!
//! Shows that both answer a local constrained skyline query identically
//! while differing in footprint and in the *kind* of work they do — HS
//! trades raw-value comparisons for cheap byte-ID comparisons and skips
//! whole relations via its O(1) domain bounds.
//!
//! Run with: `cargo run --release --example storage_comparison`

use mobiskyline::prelude::*;

fn main() {
    // The paper's local-experiment data: 20K tuples, 2 attributes drawn
    // from the 100-value domain {0.0, 0.1, …, 9.9} → byte IDs in HS.
    let spec = DataSpec::local_experiment(20_000, 2, Distribution::AntiCorrelated, 5);
    let data = spec.generate();
    println!("relation: {} tuples, domain {{0.0 … 9.9}} (100 distinct values)\n", data.len());

    let flat = FlatRelation::new(data.clone());
    let hybrid = HybridRelation::new(data);

    let query = LocalQuery::plain(QueryRegion::new(Point::new(500.0, 500.0), 300.0));

    println!(
        "{:<8} {:>10} {:>9} {:>12} {:>12} {:>8}",
        "model", "bytes", "skyline", "value cmps", "id cmps", "time"
    );
    let fs = run("flat", &flat, &query);
    let hs = run("hybrid", &hybrid, &query);

    assert_eq!(fs, hs, "both models agree");
    println!("\nboth models returned the same skyline ✓");

    // The HS-only fast path: a filter that dominates the whole relation.
    let strong = FilterTuple::new(vec![-1.0, -1.0], &UpperBounds::new(vec![9.9, 9.9]));
    let mut q = query.clone();
    q.filter = Some(strong);
    let out = hybrid.local_skyline(&q);
    println!(
        "\nhybrid skip check: a dominating filter skips the scan entirely \
         (scanned {} tuples, skip = {:?})",
        out.stats.tuples_scanned, out.skip
    );
}

/// Runs `q` on `rel`, prints one table row and returns the skyline's size.
fn run<R: DeviceRelation>(name: &str, rel: &R, q: &LocalQuery) -> usize {
    let t0 = std::time::Instant::now();
    let out = rel.local_skyline(q);
    let dt = t0.elapsed();
    println!(
        "{:<8} {:>10} {:>9} {:>12} {:>12} {:>7.1?}",
        name,
        rel.storage_bytes(),
        out.skyline.len(),
        out.stats.value_comparisons,
        out.stats.id_comparisons,
        dt
    );
    out.skyline.len()
}
