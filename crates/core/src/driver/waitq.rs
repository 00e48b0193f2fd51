//! The incrementally maintained ordered waiting queue.
//!
//! Historically every scheduling pass re-sorted the waiting set from
//! scratch — O(Q log Q) key computations and comparisons *per event* once
//! passes coalesce to one per tick. [`WaitQueue`] keeps the waiting jobs
//! in a `BTreeSet<WaitEntry>` ordered by `(QueueKey, JobId)`; each entry
//! also carries the job's two start sizes, so the backfill walk filters
//! candidates without reading their slots. The index is updated only on
//! the priority-relevant transitions:
//!
//! * **submit / resubmit** (failure, preemption, drain expiry, outage
//!   interrupt) — insert;
//! * **start / cancel / infeasibility sweep** — remove;
//! * **front-class flips** ([`JobState::at_front`]) — an arrived
//!   on-demand job changes key *class*, so the flag must be final before
//!   the insert, and a job is unindexed under its stored key before it is
//!   cleared (both orderings are enforced at the call sites; the paranoid
//!   oracle below catches violations).
//!
//! ## Key epochs (time-varying policies)
//!
//! Static policies ([`PolicyKind::is_time_varying`] = false: FCFS, SJF,
//! LJF) have keys that never go stale, so the index order is the pass
//! order for free. Aging policies (WFP3) score by waiting time: their keys
//! are stamped with the *epoch* — the instant the score was evaluated —
//! and [`SimCore::refresh_queue_epoch`] re-keys the whole index at `now`
//! before a pass reads it. Between passes the stale epoch is harmless:
//! inserts and removes both compute keys at the *stored* epoch, so every
//! entry is found under exactly the key it was inserted with.
//!
//! ## Invariant
//!
//! The index holds exactly the live jobs with [`Status::Waiting`], each
//! under `queue_key(policy, spec, at_front, epoch)` with its spec's sizes.
//! Under
//! `paranoid_checks` this is cross-validated after every event against a
//! from-scratch re-sort oracle ([`SimCore::check_waitq_invariant`]).
//!
//! [`JobState::at_front`]: crate::jobstate::JobState::at_front

use super::core::{Scratch, SimCore};
use crate::jobstate::Status;
use crate::policy::{queue_key, QueueKey};
use crate::timeline::Observer;
use hws_cluster::ClusterBackend;
use hws_sim::SimTime;
use hws_workload::{JobId, JobKind, JobSpec};
use std::collections::BTreeSet;

/// One waiting job's index entry. The derived order is the pass order:
/// `(key, job)` is unique, so the sizes never decide a comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) struct WaitEntry {
    pub(super) key: QueueKey,
    pub(super) job: JobId,
    /// The job's full size.
    pub(super) size: u32,
    /// Its malleable minimum; the full size for every other kind.
    pub(super) min_size: u32,
}

impl WaitEntry {
    fn new(key: QueueKey, spec: &JobSpec) -> Self {
        let min_size = if spec.kind == JobKind::Malleable {
            spec.min_size
        } else {
            spec.size
        };
        WaitEntry {
            key,
            job: spec.id,
            size: spec.size,
            min_size,
        }
    }

    /// Minimum nodes the job needs to start: its malleable minimum in
    /// hybrid mode, its full size otherwise (as
    /// [`SimCore::start_need`]).
    #[inline]
    pub(super) fn need(&self, hybrid: bool) -> u32 {
        if hybrid {
            self.min_size
        } else {
            self.size
        }
    }
}

/// Ordered index over the waiting jobs; see the module docs.
#[derive(Debug, Clone)]
pub(super) struct WaitQueue {
    index: BTreeSet<WaitEntry>,
    /// Instant the time-varying score components were evaluated at.
    /// Meaningless (and never advanced) for static policies. The policy
    /// itself lives in `SimConfig`; every key is computed there.
    epoch: SimTime,
}

impl WaitQueue {
    pub(super) fn new() -> Self {
        WaitQueue {
            index: BTreeSet::new(),
            epoch: SimTime::ZERO,
        }
    }

    #[inline]
    pub(super) fn len(&self) -> usize {
        self.index.len()
    }

    #[inline]
    pub(super) fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Entries in priority order (the pass order).
    #[inline]
    pub(super) fn iter(&self) -> impl Iterator<Item = &WaitEntry> {
        self.index.iter()
    }

    /// Waiting job ids in priority order.
    #[inline]
    pub(super) fn ids(&self) -> impl Iterator<Item = JobId> + '_ {
        self.index.iter().map(|e| e.job)
    }

    /// The instant the current keys were evaluated at.
    #[inline]
    pub(super) fn epoch(&self) -> SimTime {
        self.epoch
    }

    /// Restore-path epoch injection (see `driver::snapshot`).
    pub(super) fn set_epoch(&mut self, epoch: SimTime) {
        self.epoch = epoch;
    }

    /// Insert an entry; returns false if it was already present (callers
    /// treat that as corruption — see [`SimCore::enqueue_waiting`]).
    #[inline]
    pub(super) fn insert(&mut self, e: WaitEntry) -> bool {
        self.index.insert(e)
    }

    /// Remove the entry `e`.
    ///
    /// # Panics
    ///
    /// Panics if the entry is absent: the caller computed a key that does
    /// not match what the job was inserted under, which would silently
    /// leave a stale entry behind — corruption, not a recoverable state.
    #[inline]
    pub(super) fn remove(&mut self, e: &WaitEntry) {
        assert!(
            self.index.remove(e),
            "waiting-queue index out of sync: {} not found under its computed key",
            e.job
        );
    }

    /// Drop all entries (epoch rebuild; the caller re-inserts).
    fn clear(&mut self) {
        self.index.clear();
    }
}

impl<B: ClusterBackend, O: Observer> SimCore<B, O> {
    /// The entry waiting job `j` is (or would be) indexed under *right
    /// now*: current front-class flag, current epoch. Every insert and
    /// remove goes through this, so entries are always found.
    #[inline]
    pub(super) fn wait_entry(&self, j: JobId) -> WaitEntry {
        let (st, spec) = self.table.state_spec(j);
        let key = queue_key(self.cfg.policy, spec, st.at_front, self.queue.epoch());
        WaitEntry::new(key, spec)
    }

    /// Index a job that just became [`Status::Waiting`]. Its front-class
    /// flag must already be final.
    pub(super) fn enqueue_waiting(&mut self, j: JobId) {
        debug_assert_eq!(self.st(j).status, Status::Waiting);
        let e = self.wait_entry(j);
        let fresh = self.queue.insert(e);
        debug_assert!(fresh, "{j} enqueued twice");
    }

    /// Unindex a waiting job (cancel, infeasibility sweep). Must run
    /// *before* its front-class flag or status changes.
    pub(super) fn dequeue_waiting(&mut self, j: JobId) {
        let e = self.wait_entry(j);
        self.queue.remove(&e);
    }

    /// Re-key the index at `now` for aging policies; a no-op for static
    /// policies and when the epoch is already current. Same O(Q log Q)
    /// asymptotics as the historical per-pass re-sort — aging scores
    /// genuinely change with every tick, so there is nothing incremental
    /// to exploit — but only aging policies pay it.
    pub(super) fn refresh_queue_epoch(&mut self, now: SimTime) {
        if !self.cfg.policy.is_time_varying() || self.queue.epoch() == now {
            return;
        }
        self.queue.set_epoch(now);
        self.rekey_waiting();
    }

    /// Rebuild the index under the current policy and epoch (an epoch
    /// refresh, or a fork onto another policy).
    pub(super) fn rekey_waiting(&mut self) {
        let mut ids = std::mem::take(&mut self.scratch.ordered);
        ids.extend(self.queue.ids());
        self.queue.clear();
        for &j in &ids {
            let e = self.wait_entry(j);
            self.queue.insert(e);
        }
        Scratch::stow(&mut self.scratch.ordered, ids);
    }

    /// Paranoid cross-check: the maintained index must equal a
    /// from-scratch full re-sort of the live waiting jobs — the historical
    /// implementation, kept as the oracle the incremental structure is
    /// proptested against.
    pub(super) fn check_waitq_invariant(&self) {
        let mut oracle: Vec<WaitEntry> = Vec::new();
        self.table.for_each_live(|spec, st| {
            if st.status == Status::Waiting {
                let key = queue_key(self.cfg.policy, spec, st.at_front, self.queue.epoch());
                oracle.push(WaitEntry::new(key, spec));
            }
        });
        oracle.sort_unstable();
        assert!(
            self.queue.iter().eq(oracle.iter()),
            "waiting-queue index drifted from the re-sort oracle:\n  index:  {:?}\n  oracle: {:?}",
            self.queue.iter().collect::<Vec<_>>(),
            oracle
        );
    }
}
