//! **Core-kernel driver**: regenerates `BENCH_core.json` (the dominance
//! kernel, neighbour-discovery, relation-build, Fig. 4 scan,
//! originator-merge, broadcast-storm and storage-ablation
//! micro-benchmarks)
//! without the rest of `run_all` — see [`msq_bench::corebench`] for the
//! design.
//!
//! The grid is scale-independent (the committed baseline carries
//! `"scale": "Quick"`), so this binary is what CI's perf gate runs to
//! diff a fresh candidate against the committed baseline in seconds.
//!
//! Usage: `cargo run --release -p msq-bench --bin core_bench [--json]`

use msq_bench::provenance::{write_baseline, Provenance};

fn main() -> Result<(), String> {
    let records = msq_bench::corebench::run(20_000);
    let neighbors = msq_bench::corebench::neighbor_discovery();
    let builds = msq_bench::corebench::relation_build();
    let (scans, merges) = msq_bench::corebench::data_path(20_000);
    let radios = msq_bench::corebench::radio_storm(&[10, 20]);
    let storages = msq_bench::corebench::storage_ablation(10_000);
    println!("== Core: dominance kernels ==");
    println!(
        "{:>5} {:>8} {:>12} {:>10} {:>10} {:>12}",
        "dims", "tuples", "dom_tests", "tuple_ms", "block_ms", "skyline_len"
    );
    for r in &records {
        println!(
            "{:>5} {:>8} {:>12} {:>10.3} {:>10.3} {:>12}",
            r.dims, r.tuples, r.dominance_tests, r.tuple_ms, r.block_ms, r.skyline_len
        );
    }
    println!("\n== Core: neighbour discovery ==");
    println!("{:>7} {:>9} {:>10} {:>10}", "nodes", "neighbors", "grid_ms", "scan_ms");
    for r in &neighbors {
        println!("{:>7} {:>9} {:>10.3} {:>10.3}", r.nodes, r.neighbors, r.grid_ms, r.scan_ms);
    }
    println!("\n== Core: hybrid relation build ==");
    println!(
        "{:>5} {:>8} {:>10} {:>13} {:>10}  domain_sizes",
        "dims", "tuples", "build_ms", "ns_per_tuple", "sort_attr"
    );
    for r in &builds {
        println!(
            "{:>5} {:>8} {:>10.3} {:>13.1} {:>10}  {:?}",
            r.dims,
            r.tuples,
            r.build_ms,
            r.ns_per_tuple(),
            r.sort_attr,
            r.domain_sizes
        );
    }
    println!("\n== Core: Fig. 4 scan (strict test) ==");
    println!(
        "{:>5} {:>4} {:>8} {:>10} {:>9} {:>10} {:>14} {:>9} {:>12}",
        "dims",
        "dist",
        "tuples",
        "region",
        "in_range",
        "window_len",
        "id_comparisons",
        "scan_ms",
        "ns_per_probe"
    );
    for r in &scans {
        println!(
            "{:>5} {:>4} {:>8} {:>10} {:>9} {:>10} {:>14} {:>9.3} {:>12.3}",
            r.dims,
            r.dist,
            r.tuples,
            r.region,
            r.in_range,
            r.window_len,
            r.id_comparisons,
            r.scan_ms,
            r.ns_per_probe()
        );
    }
    println!("\n== Core: originator merge (own + reply skylines) ==");
    println!(
        "{:>5} {:>4} {:>8} {:>8} {:>6} {:>17} {:>9} {:>13}",
        "dims",
        "dist",
        "tuples",
        "inserts",
        "kept",
        "dominated_removed",
        "merge_ms",
        "ns_per_insert"
    );
    for r in &merges {
        println!(
            "{:>5} {:>4} {:>8} {:>8} {:>6} {:>17} {:>9.3} {:>13.1}",
            r.dims,
            r.dist,
            r.tuples,
            r.inserts,
            r.kept,
            r.dominated_removed,
            r.merge_ms,
            r.ns_per_insert()
        );
    }
    println!("\n== Core: broadcast storm (frozen lattice, relay-once floods) ==");
    println!(
        "{:>4} {:>13} {:>13} {:>11} {:>12} {:>9} {:>15}",
        "g",
        "payload_bytes",
        "transmissions",
        "deliveries",
        "wheel_events",
        "storm_ms",
        "ns_per_delivery"
    );
    for r in &radios {
        println!(
            "{:>4} {:>13} {:>13} {:>11} {:>12} {:>9.3} {:>15.1}",
            r.g,
            r.payload_bytes,
            r.transmissions,
            r.deliveries,
            r.wheel_events,
            r.storm_ms,
            r.ns_per_delivery()
        );
    }
    println!("\n== Core: storage ablation (Section 4.1, unbounded local skyline) ==");
    println!(
        "{:>4} {:>7} {:>6} {:>5} {:>7} {:>11} {:>17} {:>14} {:>12} {:>13} {:>9}",
        "dist",
        "model",
        "test",
        "dims",
        "tuples",
        "skyline_len",
        "value_comparisons",
        "id_comparisons",
        "pointer_hops",
        "storage_bytes",
        "scan_ms"
    );
    for r in &storages {
        println!(
            "{:>4} {:>7} {:>6} {:>5} {:>7} {:>11} {:>17} {:>14} {:>12} {:>13} {:>9.3}",
            r.dist,
            r.model,
            r.test,
            r.dims,
            r.tuples,
            r.skyline_len,
            r.value_comparisons,
            r.id_comparisons,
            r.pointer_hops,
            r.storage_bytes,
            r.scan_ms
        );
    }
    if std::env::args().any(|a| a == "--json") {
        let prov = Provenance::collect(msq_bench::Scale::Quick, 1);
        let json = msq_bench::corebench::to_json(
            &prov,
            &records,
            &neighbors,
            &builds,
            (&scans, &merges),
            &radios,
            &storages,
        );
        write_baseline("BENCH_core.json", &json)?;
    }
    Ok(())
}
