//! Node leases (§III-B3 of the paper).
//!
//! When an on-demand job takes nodes from preempted or shrunk victims, each
//! taking is recorded as a [`Lease`]. On the on-demand job's completion the
//! ledger is drained **in recording order** and the nodes are offered back
//! to the lenders: a preempted lender that is still waiting accumulates them
//! as a private reservation (this is the source of the paper's Observation 2
//! starvation effect), a shrunk lender that is still running expands, and
//! anything else falls into the free pool.

use hws_sim::snap::{SnapError, SnapReader, SnapWriter};
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

    /// Serialize the ledger. Borrowers are written in sorted id order and
    /// empty lease lists (left behind by [`LeaseLedger::forget_lender`]) are
    /// skipped, so two semantically equal ledgers encode identically.
    pub fn encode_snap(&self, w: &mut SnapWriter) {
        let mut borrowers: Vec<JobId> = self
            .leases
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(b, _)| *b)
            .collect();
        borrowers.sort();
        w.put_len(borrowers.len());
        for b in borrowers {
            w.put_u64(b.0);
            let v = &self.leases[&b];
            w.put_len(v.len());
            for l in v {
                w.put_u64(l.lender.0);
                w.put_u32(l.nodes);
                w.put_bool(l.by_preemption);
            }
        }
    }

    /// Decode a ledger written by [`LeaseLedger::encode_snap`].
    pub fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_len()?;
        let mut leases: JobMap<Vec<Lease>> =
            JobMap::with_capacity_and_hasher(n, Default::default());
        let mut prev: Option<u64> = None;
        for _ in 0..n {
            let b = r.get_u64()?;
            if prev.is_some_and(|p| p >= b) {
                return Err(r.err(format!("lease borrowers not strictly sorted at {b}")));
            }
            prev = Some(b);
            let k = r.get_len()?;
            if k == 0 {
                return Err(r.err(format!("empty lease list for borrower {b}")));
            }
            let mut v = Vec::with_capacity(k);
            for _ in 0..k {
                let lender = JobId(r.get_u64()?);
                let nodes = r.get_u32()?;
                if nodes == 0 {
                    return Err(r.err("zero-node lease"));
                }
                let by_preemption = r.get_bool()?;
                v.push(Lease {
                    lender,
                    nodes,
                    by_preemption,
                });
            }
            leases.insert(JobId(b), v);
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
        l.encode_snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut back = LeaseLedger::decode_snap(&mut r).expect("decodes");
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
        l2.encode_snap(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn snap_decode_rejects_corruption() {
        let mut l = LeaseLedger::new();
        l.record(j(9), j(1), 4, true);
        l.record(j(8), j(2), 2, false);
        let mut w = SnapWriter::new();
        l.encode_snap(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert!(
                LeaseLedger::decode_snap(&mut r).is_err() || r.expect_end().is_err(),
                "truncation at {cut} must not decode cleanly"
            );
        }
        // Unsorted borrowers are rejected.
        let mut w = SnapWriter::new();
        w.put_len(2);
        for b in [9u64, 8] {
            w.put_u64(b);
            w.put_len(1);
            w.put_u64(1);
            w.put_u32(4);
            w.put_bool(true);
        }
        let bytes = w.into_bytes();
        assert!(LeaseLedger::decode_snap(&mut SnapReader::new(&bytes)).is_err());
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
