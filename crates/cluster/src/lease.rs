//! Node leases (§III-B3 of the paper).
//!
//! When an on-demand job takes nodes from preempted or shrunk victims, each
//! taking is recorded as a [`Lease`]. On the on-demand job's completion the
//! ledger is drained **in recording order** and the nodes are offered back
//! to the lenders: a preempted lender that is still waiting accumulates them
//! as a private reservation (this is the source of the paper's Observation 2
//! starvation effect), a shrunk lender that is still running expands, and
//! anything else falls into the free pool.

use hws_sim::snap::{put_sorted, Snap, SnapError, SnapReader, SnapWriter, SortedIds};
use hws_workload::{JobId, JobMap};

/// `nodes` nodes borrowed from `lender`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    pub lender: JobId,
    pub nodes: u32,
    /// True when the lender was preempted (vs shrunk) to supply the nodes.
    pub by_preemption: bool,
}

/// Per-borrower lease book.
#[derive(Debug, Clone, Default)]
pub struct LeaseLedger {
    leases: JobMap<Vec<Lease>>,
}

impl LeaseLedger {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `borrower` took `nodes` nodes from `lender`.
    /// Consecutive records against the same lender merge.
    pub fn record(&mut self, borrower: JobId, lender: JobId, nodes: u32, by_preemption: bool) {
        if nodes == 0 {
            return;
        }
        let v = self.leases.entry(borrower).or_default();
        if let Some(last) = v.last_mut() {
            if last.lender == lender && last.by_preemption == by_preemption {
                last.nodes += nodes;
                return;
            }
        }
        v.push(Lease {
            lender,
            nodes,
            by_preemption,
        });
    }

    /// Total nodes `borrower` currently owes.
    pub fn owed_by(&self, borrower: JobId) -> u32 {
        self.leases
            .get(&borrower)
            .map_or(0, |v| v.iter().map(|l| l.nodes).sum())
    }

    /// Remove and return `borrower`'s leases in recording order.
    pub fn settle(&mut self, borrower: JobId) -> Vec<Lease> {
        self.leases.remove(&borrower).unwrap_or_default()
    }

    /// Drop any lease entries naming `lender` (used when a lender finishes
    /// or resumes on its own and no longer wants its nodes back).
    pub fn forget_lender(&mut self, lender: JobId) {
        for v in self.leases.values_mut() {
            v.retain(|l| l.lender != lender);
        }
    }

    pub fn is_empty(&self) -> bool {
        self.leases.values().all(|v| v.is_empty())
    }

    /// Number of borrowers with outstanding leases.
    pub fn borrowers(&self) -> usize {
        self.leases.values().filter(|v| !v.is_empty()).count()
    }
}

hws_sim::snap_struct!(Lease { lender, nodes, by_preemption } check Lease::check);

impl Lease {
    fn check(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err(format!("zero-node lease from {}", self.lender));
        }
        Ok(())
    }
}

/// Borrowers in ascending id order. Empty lease lists (left behind by
/// [`LeaseLedger::forget_lender`]) are skipped, so two semantically equal
/// ledgers encode identically, and refused on decode.
impl Snap for LeaseLedger {
    fn put(&self, w: &mut SnapWriter) {
        put_sorted(w, self.leases.iter().filter(|(_, v)| !v.is_empty()));
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let leases: JobMap<Vec<Lease>> = SortedIds::get_sorted(r, "lease borrower")?;
        if let Some(b) = leases
            .iter()
            .filter(|(_, v)| v.is_empty())
            .map(|(b, _)| b)
            .min()
        {
            return Err(r.err(format!("empty lease list for borrower {b}")));
        }
        Ok(LeaseLedger { leases })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(n: u64) -> JobId {
        JobId(n)
    }

    #[test]
    fn record_and_settle_in_order() {
        let mut l = LeaseLedger::new();
        l.record(j(9), j(1), 4, true);
        l.record(j(9), j(2), 2, false);
        assert_eq!(l.owed_by(j(9)), 6);
        let leases = l.settle(j(9));
        assert_eq!(leases.len(), 2);
        assert_eq!(leases[0].lender, j(1));
        assert!(leases[0].by_preemption);
        assert_eq!(leases[1].lender, j(2));
        assert!(!leases[1].by_preemption);
        assert_eq!(l.owed_by(j(9)), 0);
        assert!(l.is_empty());
    }

    #[test]
    fn consecutive_records_merge() {
        let mut l = LeaseLedger::new();
        l.record(j(9), j(1), 2, true);
        l.record(j(9), j(1), 3, true);
        let leases = l.settle(j(9));
        assert_eq!(
            leases,
            vec![Lease {
                lender: j(1),
                nodes: 5,
                by_preemption: true
            }]
        );
    }

    #[test]
    fn different_modes_do_not_merge() {
        let mut l = LeaseLedger::new();
        l.record(j(9), j(1), 2, true);
        l.record(j(9), j(1), 3, false);
        assert_eq!(l.settle(j(9)).len(), 2);
    }

    #[test]
    fn zero_node_record_is_ignored() {
        let mut l = LeaseLedger::new();
        l.record(j(9), j(1), 0, true);
        assert!(l.is_empty());
    }

    #[test]
    fn forget_lender_removes_entries() {
        let mut l = LeaseLedger::new();
        l.record(j(9), j(1), 4, true);
        l.record(j(9), j(2), 2, true);
        l.record(j(8), j(1), 1, false);
        l.forget_lender(j(1));
        assert_eq!(l.owed_by(j(9)), 2);
        assert_eq!(l.owed_by(j(8)), 0);
    }

    #[test]
    fn snap_codec_round_trips_and_skips_empty_entries() {
        let mut l = LeaseLedger::new();
        l.record(j(9), j(1), 4, true);
        l.record(j(9), j(2), 2, false);
        l.record(j(8), j(1), 1, false);
        l.record(j(7), j(9), 3, true);
        l.forget_lender(j(9)); // leaves borrower 7 with an empty list
        let mut w = SnapWriter::new();
        l.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut back = LeaseLedger::get(&mut r).expect("decodes");
        r.expect_end().expect("consumed exactly");
        assert_eq!(back.owed_by(j(9)), 6);
        assert_eq!(back.owed_by(j(8)), 1);
        assert_eq!(back.owed_by(j(7)), 0);
        assert_eq!(back.settle(j(9)), l.settle(j(9)));
        // Re-encoding the decoded ledger reproduces the bytes.
        let mut l2 = LeaseLedger::new();
        l2.record(j(9), j(1), 4, true);
        l2.record(j(9), j(2), 2, false);
        l2.record(j(8), j(1), 1, false);
        let mut w2 = SnapWriter::new();
        l2.put(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn snap_decode_rejects_corruption() {
        let mut l = LeaseLedger::new();
        l.record(j(9), j(1), 4, true);
        l.record(j(8), j(2), 2, false);
        let mut w = SnapWriter::new();
        l.put(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert!(
                LeaseLedger::get(&mut r).is_err() || r.expect_end().is_err(),
                "truncation at {cut} must not decode cleanly"
            );
        }
        // Unsorted borrowers are rejected.
        let mut w = SnapWriter::new();
        2usize.put(&mut w);
        for b in [9u64, 8] {
            b.put(&mut w);
            1usize.put(&mut w);
            1u64.put(&mut w);
            4u32.put(&mut w);
            true.put(&mut w);
        }
        let bytes = w.into_bytes();
        assert!(LeaseLedger::get(&mut SnapReader::new(&bytes)).is_err());
    }

    #[test]
    fn borrowers_count() {
        let mut l = LeaseLedger::new();
        assert_eq!(l.borrowers(), 0);
        l.record(j(9), j(1), 1, true);
        l.record(j(8), j(2), 1, true);
        assert_eq!(l.borrowers(), 2);
        l.settle(j(9));
        assert_eq!(l.borrowers(), 1);
    }
}
