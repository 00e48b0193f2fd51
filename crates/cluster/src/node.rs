//! Node identity and per-node state.

use hws_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};
use hws_workload::JobId;
use std::fmt;

/// A compute node. The paper's model has no topology; identity only matters
/// for bookkeeping (conservation invariants, squatter tracking).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl Snap for NodeId {
    #[inline]
    fn put(&self, w: &mut SnapWriter) {
        self.0.put(w);
    }
    #[inline]
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(NodeId(u32::get(r)?))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// State of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Idle and unreserved.
    Free,
    /// Running `job`.
    Busy { job: JobId },
    /// Idle but earmarked for on-demand job `holder`.
    Reserved { holder: JobId },
    /// Earmarked for `holder` but currently running backfilled `job`
    /// (a *squatter*, preempted the moment `holder` arrives).
    ReservedBusy { holder: JobId, job: JobId },
    /// Out of service (failed or under maintenance). A down node belongs
    /// to no free list, allocation, or reservation; it re-enters service
    /// only through an explicit rejoin.
    Down,
}

hws_sim::snap_enum!(NodeState {
    0 => Free,
    1 => Busy { job },
    2 => Reserved { holder },
    3 => ReservedBusy { holder, job },
    4 => Down,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(NodeId(3).index(), 3);
    }

    #[test]
    fn state_equality() {
        let a = NodeState::Busy { job: JobId(1) };
        let b = NodeState::Busy { job: JobId(1) };
        let c = NodeState::Busy { job: JobId(2) };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, NodeState::Free);
    }
}
