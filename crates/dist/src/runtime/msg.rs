//! Wire messages of the one-shot protocol: the BF query flood and result
//! reply, the DF token, the ARQ ack, and the redistribution handshake —
//! with the byte accounting the radio model charges for each.

use manet_sim::NodeId;
use skyline_core::region::Point;
use skyline_core::vdr::FilterTuple;
use skyline_core::Tuple;

use crate::metrics::DrrAccumulator;
use crate::query::{QueryKey, QuerySpec};

/// Protocol messages exchanged between devices.
#[derive(Debug, Clone)]
pub enum ProtoMsg {
    /// BF: the flooded query.
    BfQuery {
        /// The query specification.
        spec: QuerySpec,
        /// The filter bank as of the sending device (empty, one, or `k`
        /// tuples depending on the strategy).
        filters: Vec<FilterTuple>,
        /// Re-issue round (0 = the original flood). A device that already
        /// answered relays a higher round without reprocessing.
        round: u8,
        /// Broadcast hops from the originator (0 = the originator's own
        /// transmission). Receivers prime the AODV reverse route toward
        /// `spec.key.origin` with `hops + 1`, turning the flood tree into
        /// warm reply paths.
        hops: u8,
    },
    /// BF: a device's local result, unicast to the originator.
    BfResult {
        /// Which query this answers.
        key: QueryKey,
        /// The responder identity the sender *claims*. Honest devices set
        /// their own id (and the routing layer's source matches); a Sybil
        /// forger fabricates ids here. The identity-plausibility defense
        /// cross-checks it against the routing source.
        claimed: NodeId,
        /// `SK'_i`.
        tuples: Vec<Tuple>,
        /// `|SK_i|` for DRR accounting.
        unreduced: usize,
        /// Whether the device had in-range data.
        participated: bool,
        /// ARQ sequence number (0 = untracked, no ack expected).
        seq: u64,
        /// Retransmissions this copy has been through (originator-side
        /// retry accounting survives even when the first copy is lost).
        retries: u32,
    },
    /// DF: the walking query token.
    DfToken(DfToken),
    /// Application-level ack for an ARQ-tracked message.
    Ack {
        /// Sequence number being acknowledged.
        seq: u64,
    },
    /// Redistribution extension: "I am far from my data; anyone closer?"
    HandoffProbe {
        /// Prober's current position.
        pos: Point,
        /// Centroid of the prober's relation (MBR centre).
        centroid: Point,
        /// Tuples the prober would ship.
        n_tuples: usize,
    },
    /// Redistribution extension: a neighbour volunteers to host the data.
    HandoffAccept,
    /// Redistribution extension: the relation itself, migrating.
    HandoffTransfer {
        /// The migrating tuples.
        tuples: Vec<Tuple>,
    },
    /// Redistribution extension: the transfer arrived; the sender may drop
    /// its copy.
    HandoffAck,
}

/// The depth-first token.
#[derive(Debug, Clone)]
pub struct DfToken {
    /// The query specification.
    pub spec: QuerySpec,
    /// Current filter bank.
    pub filters: Vec<FilterTuple>,
    /// Devices the walk will not route to again. Includes every device
    /// that processed the query **and** any marked unreachable by the
    /// delivery-failure salvage — subtract [`DfToken::skipped`] to get the
    /// devices that actually contributed.
    pub visited: Vec<NodeId>,
    /// Devices marked visited only to route around them (crashed or
    /// unreachable). They contributed nothing and must not be counted as
    /// responders.
    pub skipped: Vec<NodeId>,
    /// DFS path stack; `path[0]` is the originator.
    pub path: Vec<NodeId>,
    /// Partial result merged along the way.
    pub partial: Vec<Tuple>,
    /// DRR terms accumulated over visited devices.
    pub drr: DrrAccumulator,
    /// ARQ sequence number of this hop's transfer (0 = untracked). A fresh
    /// number is assigned for every hop, so `(sender, transfer_seq)`
    /// uniquely names one transfer for duplicate suppression.
    pub transfer_seq: u64,
    /// Retransmissions accumulated over the token's whole walk.
    pub retries: u64,
}

impl ProtoMsg {
    /// Payload wire size (bytes).
    pub fn wire_size(&self) -> usize {
        match self {
            ProtoMsg::BfQuery { spec, filters, .. } => {
                // Spec + filter bank + round byte + hop byte.
                spec.wire_size() + filters.iter().map(FilterTuple::wire_size).sum::<usize>() + 2
            }
            ProtoMsg::BfResult { tuples, .. } => {
                // key + claimed id + DRR terms + ARQ seq/retries + batch.
                5 + 4 + 8 + 12 + skyline_core::tuple::batch_wire_size(tuples)
            }
            ProtoMsg::DfToken(t) => {
                t.spec.wire_size()
                    + t.filters.iter().map(FilterTuple::wire_size).sum::<usize>()
                    + 4 * (t.visited.len() + t.skipped.len() + t.path.len())
                    + skyline_core::tuple::batch_wire_size(&t.partial)
                    + 40
            }
            ProtoMsg::Ack { .. } => 12,
            ProtoMsg::HandoffProbe { .. } => 36,
            ProtoMsg::HandoffAccept | ProtoMsg::HandoffAck => 4,
            ProtoMsg::HandoffTransfer { tuples } => {
                8 + skyline_core::tuple::batch_wire_size(tuples)
            }
        }
    }

    /// The ARQ sequence number the message carries; 0 = untracked (floods,
    /// acks and the handoff handshake never are).
    pub(super) fn arq_seq(&self) -> u64 {
        match self {
            ProtoMsg::BfResult { seq, .. } => *seq,
            ProtoMsg::DfToken(t) => t.transfer_seq,
            _ => 0,
        }
    }

    /// Bumps the retransmission count a tracked message carries.
    pub(super) fn bump_retries(&mut self) {
        match self {
            ProtoMsg::BfResult { retries, .. } => *retries += 1,
            ProtoMsg::DfToken(t) => t.retries += 1,
            _ => {}
        }
    }
}

/// The query a message belongs to — for attributing retries, delivery
/// failures, and defensive drops.
pub(super) fn key_of(msg: &ProtoMsg) -> Option<QueryKey> {
    match msg {
        ProtoMsg::BfQuery { spec, .. } => Some(spec.key),
        ProtoMsg::BfResult { key, .. } => Some(*key),
        ProtoMsg::DfToken(t) => Some(t.spec.key),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_core::vdr::UpperBounds;

    fn sample_filters(n: usize) -> Vec<FilterTuple> {
        let b = UpperBounds::new(vec![100.0, 100.0]);
        (0..n).map(|i| FilterTuple::new(vec![i as f64, i as f64], &b)).collect()
    }

    #[test]
    fn bf_query_wire_size_counts_filters() {
        let spec = QuerySpec::new(0, 0, Point::new(0.0, 0.0), 100.0);
        let bare = ProtoMsg::BfQuery { spec, filters: Vec::new(), round: 0, hops: 0 }.wire_size();
        let with2 =
            ProtoMsg::BfQuery { spec, filters: sample_filters(2), round: 0, hops: 0 }.wire_size();
        assert_eq!(bare, spec.wire_size() + 2, "spec plus the round and hop bytes");
        assert_eq!(with2, bare + 2 * 24, "two 2-attr filters at 24 B each");
    }

    #[test]
    fn result_wire_size_scales_with_tuples() {
        let empty = ProtoMsg::BfResult {
            key: QueryKey { origin: 0, cnt: 0 },
            claimed: 0,
            tuples: Vec::new(),
            unreduced: 0,
            participated: false,
            seq: 0,
            retries: 0,
        }
        .wire_size();
        let two = ProtoMsg::BfResult {
            key: QueryKey { origin: 0, cnt: 0 },
            claimed: 0,
            tuples: vec![
                Tuple::new(0.0, 0.0, vec![1.0, 2.0]),
                Tuple::new(1.0, 0.0, vec![3.0, 4.0]),
            ],
            unreduced: 2,
            participated: true,
            seq: 9,
            retries: 1,
        }
        .wire_size();
        assert_eq!(empty, 5 + 4 + 8 + 12, "key + claimed id + drr terms + ARQ seq/retries");
        assert_eq!(two, empty + 2 * 32);
    }

    #[test]
    fn df_token_wire_size_includes_bookkeeping() {
        let spec = QuerySpec::new(0, 0, Point::new(0.0, 0.0), 100.0);
        let t = DfToken {
            spec,
            filters: sample_filters(1),
            visited: vec![0, 1, 2],
            skipped: vec![2],
            path: vec![0, 1],
            partial: vec![Tuple::new(0.0, 0.0, vec![1.0, 2.0])],
            drr: DrrAccumulator::default(),
            transfer_seq: 0,
            retries: 0,
        };
        let sz = ProtoMsg::DfToken(t).wire_size();
        assert_eq!(sz, spec.wire_size() + 24 + 4 * 6 + 32 + 40);
    }

    #[test]
    fn ack_wire_size_is_fixed() {
        assert_eq!(ProtoMsg::Ack { seq: u64::MAX }.wire_size(), 12);
    }

    #[test]
    fn handoff_message_sizes() {
        assert_eq!(
            ProtoMsg::HandoffProbe {
                pos: Point::new(0.0, 0.0),
                centroid: Point::new(1.0, 1.0),
                n_tuples: 7
            }
            .wire_size(),
            36
        );
        assert_eq!(ProtoMsg::HandoffAccept.wire_size(), 4);
        assert_eq!(ProtoMsg::HandoffAck.wire_size(), 4);
        let xfer = ProtoMsg::HandoffTransfer { tuples: vec![Tuple::new(0.0, 0.0, vec![1.0])] };
        assert_eq!(xfer.wire_size(), 8 + 24);
    }

    #[test]
    fn arq_seq_is_read_from_tracked_messages_only() {
        let bf = ProtoMsg::BfResult {
            key: QueryKey { origin: 0, cnt: 0 },
            claimed: 0,
            tuples: Vec::new(),
            unreduced: 0,
            participated: false,
            seq: 17,
            retries: 0,
        };
        assert_eq!(bf.arq_seq(), 17);
        assert_eq!(ProtoMsg::Ack { seq: 17 }.arq_seq(), 0);
        assert_eq!(ProtoMsg::HandoffAccept.arq_seq(), 0);
        let spec = QuerySpec::new(0, 0, Point::new(0.0, 0.0), 100.0);
        assert_eq!(
            ProtoMsg::BfQuery { spec, filters: Vec::new(), round: 0, hops: 0 }.arq_seq(),
            0,
            "floods are never ARQ'd"
        );
    }
}
