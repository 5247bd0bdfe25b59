//! The paper's claims as predicates over the committed figure rows in
//! `results/csv`, each pinned at its current verdict — flipped ones
//! included — so a change to a verdict is a failing test and a reviewed
//! diff, not a silent drift under an EXPERIMENTS.md "reproduced".

use std::collections::BTreeMap;
use std::path::Path;

/// A Figs. 8–11 grid cell: distribution, devices, cardinality,
/// dimensionality, distance of interest.
type Cell = (&'static str, u32, u32, u32, u32);

/// Mean response seconds of each arm (`forwarding` → `response_s`).
type Arms = BTreeMap<String, f64>;

/// Every distinct cell of the committed Figs. 8–11 rows (the `drr` and
/// `response_s` columns of one grid per distribution). A cell that two
/// panels share must carry the same row in both.
fn figure_8_to_11_cells() -> BTreeMap<Cell, Arms> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/csv");
    let mut cells: BTreeMap<Cell, Arms> = BTreeMap::new();
    for (fig, dist) in [("fig8", "Independent"), ("fig9", "AntiCorrelated")] {
        for panel in ["a", "b", "c"] {
            let path = dir.join(format!("{fig}{panel}_{dist}.csv"));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let mut lines = text.lines();
            assert_eq!(
                lines.next(),
                Some("devices,cardinality,dim,forwarding,d,drr,response_s"),
                "{}",
                path.display()
            );
            for line in lines {
                let f: Vec<&str> = line.split(',').collect();
                assert_eq!(f.len(), 7, "{}: {line}", path.display());
                let num = |i: usize| f[i].parse::<u32>().expect("integer axis");
                let cell = (dist, num(0), num(1), num(2), num(4));
                let response: f64 = f[6].parse().expect("response_s");
                let prev = cells.entry(cell).or_default().insert(f[3].to_string(), response);
                assert!(
                    prev.is_none_or(|p| p.to_bits() == response.to_bits()),
                    "{cell:?} {}: panels disagree ({prev:?} vs {response})",
                    f[3]
                );
            }
        }
    }
    cells
}

/// Figs. 10–11: "BF exhibits shorter response times than does DF".
/// Pinned per device count as the committed rows read it: flipped at 9 and
/// 25 devices (BF's mean there is the 45 s re-issue timer; EXPERIMENTS.md,
/// Figs. 10–11), held at 49 and 100.
#[test]
fn bf_response_below_df_is_pinned_per_device_count() {
    let cells = figure_8_to_11_cells();
    assert_eq!(cells.len(), 54, "distinct Figs. 8–11 cells");
    // devices → (cells where BF < DF, cells where it is not).
    let mut verdict: BTreeMap<u32, (u32, u32)> = BTreeMap::new();
    let mut bf_wins_small = Vec::new();
    for (cell, arms) in &cells {
        let (bf, df) = (arms["BF"], arms["DF"]);
        let entry = verdict.entry(cell.1).or_default();
        if bf < df {
            entry.0 += 1;
            if cell.1 <= 25 {
                bf_wins_small.push(*cell);
            }
        } else {
            entry.1 += 1;
        }
    }
    let expect: BTreeMap<u32, (u32, u32)> =
        [(9, (0, 6)), (25, (2, 34)), (49, (6, 0)), (100, (6, 0))].into_iter().collect();
    assert_eq!(verdict, expect, "devices → (BF faster, BF not faster)");
    // The two 25-device exceptions: DF's serial walk over 5 anti-correlated
    // attributes outlasts even BF's timer-bound mean.
    assert_eq!(
        bf_wins_small,
        [("AntiCorrelated", 25, 50_000, 5, 250), ("AntiCorrelated", 25, 50_000, 5, 500)]
    );
}
