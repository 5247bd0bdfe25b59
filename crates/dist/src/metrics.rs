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
