//! Experiment metrics: the paper's data reduction rate (Eq. 1), transfer
//! volumes, response times, and message counts.

/// Accumulates the terms of the paper's DRR formula over the devices of one
/// query (all `i ≠ org`):
///
/// ```text
///        Σ (|SK_i| − |SK'_i| − 1)
/// DRR = ──────────────────────────
///        Σ |SK_i|
/// ```
///
/// The `− 1` charges the filtering tuple each participating device was
/// sent. Devices whose unreduced local skyline is empty (no in-range data)
/// are not counted — they neither transmit nor benefit; see DESIGN.md for
/// the accounting note on MANET runs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DrrAccumulator {
    /// Σ |SK_i| over participating devices.
    pub sum_unreduced: u64,
    /// Σ |SK'_i| over participating devices.
    pub sum_sent: u64,
    /// Number of participating devices.
    pub participants: u64,
}

impl DrrAccumulator {
    /// Adds one device's contribution.
    pub fn add(&mut self, unreduced: usize, sent: usize) {
        if unreduced == 0 {
            return;
        }
        self.sum_unreduced += unreduced as u64;
        self.sum_sent += sent as u64;
        self.participants += 1;
    }

    /// Merges another accumulator (e.g. across queries).
    pub fn merge(&mut self, other: &DrrAccumulator) {
        self.sum_unreduced += other.sum_unreduced;
        self.sum_sent += other.sum_sent;
        self.participants += other.participants;
    }

    /// DRR per Eq. 1. `charge_filter` subtracts the 1-tuple filter cost per
    /// device (set it `false` for the straightforward strategy, whose
    /// queries carry no filter).
    pub fn drr(&self, charge_filter: bool) -> f64 {
        if self.sum_unreduced == 0 {
            return 0.0;
        }
        let charge = if charge_filter { self.participants } else { 0 };
        let saved = self.sum_unreduced as i64 - self.sum_sent as i64 - charge as i64;
        saved as f64 / self.sum_unreduced as f64
    }
}

/// Everything measured about one completed (or timed-out) query.
#[derive(Debug, Clone, Default)]
pub struct QueryMetrics {
    /// DRR terms.
    pub drr: DrrAccumulator,
    /// Tuples actually transmitted back toward the originator.
    pub tuples_transferred: u64,
    /// Result/reply bytes transmitted (payloads only).
    pub bytes_transferred: u64,
    /// Query-forwarding messages (the paper's Fig. 12 count).
    pub forward_messages: u64,
    /// Result messages sent back.
    pub result_messages: u64,
    /// Devices that answered (BF) or were visited (DF).
    pub devices_responded: u64,
    /// Response time in seconds (BF: 80 % rule; DF: token return), when the
    /// query completed.
    pub response_time: Option<f64>,
    /// `true` when the query ended by timeout instead of its completion
    /// rule.
    pub timed_out: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_worked_example_drr() {
        // Section 3.2: M1 is the only remote device; |SK_1| = 4, filter
        // removes 2 → |SK'_1| = 2; savings (4 − 2 − 1) / 4 = 0.25.
        let mut acc = DrrAccumulator::default();
        acc.add(4, 2);
        assert_eq!(acc.drr(true), 0.25);
    }

    #[test]
    fn filter_that_removes_nothing_costs_one_tuple() {
        let mut acc = DrrAccumulator::default();
        acc.add(5, 5);
        assert_eq!(acc.drr(true), -0.2, "net loss of one tuple");
        assert_eq!(acc.drr(false), 0.0);
    }

    #[test]
    fn empty_devices_do_not_participate() {
        let mut acc = DrrAccumulator::default();
        acc.add(0, 0);
        assert_eq!(acc.participants, 0);
        assert_eq!(acc.drr(true), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = DrrAccumulator::default();
        a.add(4, 2);
        let mut b = DrrAccumulator::default();
        b.add(6, 3);
        a.merge(&b);
        assert_eq!(a.sum_unreduced, 10);
        assert_eq!(a.sum_sent, 5);
        assert_eq!(a.participants, 2);
        // (10 - 5 - 2) / 10
        assert_eq!(a.drr(true), 0.3);
    }
}

/// Renders per-query records as CSV (one line per query) for offline
/// analysis — issue/completion times, responses, DRR terms, result sizes,
/// and the robustness scorecard (completeness, retries, duplicates,
/// re-issues, timeout cause). The original column prefix is stable; new
/// columns only append.
pub fn records_to_csv(records: &[crate::runtime::QueryRecord]) -> String {
    // The column prefix through `timeout_cause` is frozen (consumers parse
    // by position); the monitoring columns only append after it.
    let mut out = String::from(
        "origin,cnt,issued_s,completed_s,timed_out,responded,result_len,\
         sum_unreduced,sum_sent,participants,response_s,\
         completeness,spurious,retries,duplicates,reissues,timeout_cause,\
         epochs,epoch_completeness,staleness_s,spurious_from\n",
    );
    for r in records {
        let cause = match r.timeout_cause {
            None => "",
            Some(crate::runtime::TimeoutCause::OriginatorCrash) => "originator_crash",
            Some(crate::runtime::TimeoutCause::NoResponses) => "no_responses",
            Some(crate::runtime::TimeoutCause::PartialResponses) => "partial_responses",
        };
        // Spurious-cause attribution: each offending site with the device
        // whose reply first carried it (`?` = unattributable). Semicolon-
        // joined so the cell stays comma-free.
        let spurious_from = r
            .spurious_sites
            .iter()
            .map(|s| {
                let who = if s.first_from == usize::MAX {
                    "?".to_string()
                } else {
                    s.first_from.to_string()
                };
                format!("{who}@{:?}/{:?}", s.x, s.y)
            })
            .collect::<Vec<_>>()
            .join(";");
        out.push_str(&format!(
            "{},{},{:.6},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            r.key.origin,
            r.key.cnt,
            r.issued.as_secs_f64(),
            r.completed.map_or(String::new(), |c| format!("{:.6}", c.as_secs_f64())),
            r.timed_out,
            r.responded,
            r.result_len,
            r.drr.sum_unreduced,
            r.drr.sum_sent,
            r.drr.participants,
            r.response_seconds.map_or(String::new(), |s| format!("{s:.6}")),
            r.completeness.map_or(String::new(), |c| format!("{c:.6}")),
            r.spurious,
            r.retries,
            r.duplicates,
            r.reissues,
            cause,
            r.epochs,
            r.epoch_completeness.map_or(String::new(), |c| format!("{c:.6}")),
            r.staleness_s.map_or(String::new(), |s| format!("{s:.6}")),
            spurious_from,
        ));
    }
    out
}

#[cfg(test)]
mod csv_tests {
    use super::*;
    use crate::query::QueryKey;
    use crate::runtime::{QueryRecord, TimeoutCause};
    use manet_sim::SimTime;
    use skyline_core::region::Point;

    fn blank_record() -> QueryRecord {
        QueryRecord {
            timed_out: true,
            result_len: 1,
            contributors: vec![0],
            ..QueryRecord::open(
                QueryKey { origin: 0, cnt: 0 },
                SimTime::ZERO,
                Point::new(0.0, 0.0),
                100.0,
            )
        }
    }

    #[test]
    fn records_csv_has_header_and_rows() {
        let rec = QueryRecord {
            key: QueryKey { origin: 3, cnt: 1 },
            issued: SimTime::from_secs_f64(10.0),
            completed: Some(SimTime::from_secs_f64(12.5)),
            timed_out: false,
            responded: 7,
            drr: {
                let mut d = DrrAccumulator::default();
                d.add(10, 6);
                d
            },
            result_len: 4,
            response_seconds: Some(2.5),
            completeness: Some(0.75),
            spurious: 0,
            retries: 2,
            duplicates: 1,
            reissues: 1,
            ..blank_record()
        };
        let csv = records_to_csv(&[rec]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("origin,cnt,"));
        // The pre-scorecard column prefix is stable …
        assert!(lines[1].starts_with("3,1,10.000000,12.500000,false,7,4,10,6,1,2.500000"));
        // … and the scorecard + monitoring columns append after it.
        assert_eq!(
            lines[1],
            "3,1,10.000000,12.500000,false,7,4,10,6,1,2.500000,0.750000,0,2,1,1,,0,,,"
        );
    }

    #[test]
    fn timed_out_records_leave_blanks_and_name_the_cause() {
        let rec =
            QueryRecord { timeout_cause: Some(TimeoutCause::OriginatorCrash), ..blank_record() };
        let csv = records_to_csv(&[rec]);
        let row = csv.lines().nth(1).unwrap();
        assert!(row.contains(",true,"));
        assert!(row.contains("originator_crash"));
        // Unscored completeness stays blank, like the other optionals.
        assert!(row.contains(",,0,0,0,0,"));
    }

    #[test]
    fn csv_prefix_is_byte_identical_to_pre_monitor_schema() {
        // The exact header and row bytes emitted before the monitoring
        // columns existed. Append-only evolution: both must be literal
        // prefixes of today's output.
        let old_header = "origin,cnt,issued_s,completed_s,timed_out,responded,result_len,\
                          sum_unreduced,sum_sent,participants,response_s,\
                          completeness,spurious,retries,duplicates,reissues,timeout_cause";
        let old_row = "0,0,0.000000,,true,0,1,0,0,0,,,0,0,0,0,";
        let csv = records_to_csv(&[blank_record()]);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with(old_header), "header prefix changed:\n{}", lines[0]);
        assert!(lines[1].starts_with(old_row), "row prefix changed:\n{}", lines[1]);
    }

    #[test]
    fn monitoring_columns_render_when_filled() {
        let rec = QueryRecord {
            epochs: 12,
            epoch_completeness: Some(0.9375),
            staleness_s: Some(17.25),
            ..blank_record()
        };
        let row_owner = records_to_csv(&[rec]);
        let row = row_owner.lines().nth(1).unwrap();
        assert!(row.ends_with(",12,0.937500,17.250000,"), "{row}");
    }

    #[test]
    fn spurious_attribution_column_names_the_offender() {
        let rec = QueryRecord {
            spurious: 2,
            spurious_sites: vec![
                crate::verify::SpuriousSite { x: 10.0, y: 20.5, first_from: 7 },
                crate::verify::SpuriousSite { x: 1.0, y: 2.0, first_from: usize::MAX },
            ],
            ..blank_record()
        };
        let row_owner = records_to_csv(&[rec]);
        let row = row_owner.lines().nth(1).unwrap();
        assert!(row.ends_with(",7@10.0/20.5;?@1.0/2.0"), "{row}");
    }
}
