//! The arrival pump: the one loop that injects jobs into the simulation
//! and delivers events, shared by batch replay and the live service
//! (DESIGN.md §12).
//!
//! Jobs wait in [`Arrivals`] in ascending `(submit, id)` order, the order
//! the arrival lane must see them. Before delivering an event at time `h`,
//! the pump injects the buffer prefix up to the last job whose earliest
//! event (notice, else submission) is `<= h`, so every arrival at or
//! before `h` is queued below the dynamic events of its instant: delivery
//! is bitwise that of a queue pre-seeded with the whole trace.
//! `earliest_event` is not monotone in key order, so a min-heap keyed by
//! it finds the due jobs without looking at any other. A job injected
//! early (inside a due prefix) leaves its heap entry behind, dropped
//! unread when it comes due.
//!
//! The service fills the buffer through `submit`; batch replay refills it
//! from a [`JobSource`] ([`source_feed`]).

use super::core::SimCore;
use crate::timeline::Observer;
use hws_cluster::ClusterBackend;
use hws_sim::{Engine, SimTime};
use hws_workload::{earliest_event, JobId, JobSource, JobSpec};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Jobs handed to the pump but not yet injected.
///
/// A clone keeps `due`'s stale entries, which a restore (re-pushing the
/// pending jobs) would drop. They change nothing: `inject_due` skips any
/// entry whose job is no longer pending, and ids are never resubmitted.
#[derive(Debug, Clone, Default)]
pub(super) struct Arrivals {
    /// In injection order; injection pops a prefix.
    pending: VecDeque<JobSpec>,
    /// `(earliest event, submit, id)` of every pending job, plus stale
    /// entries of jobs injected before they came due.
    due: BinaryHeap<Reverse<(SimTime, SimTime, JobId)>>,
}

fn key(spec: &JobSpec) -> (SimTime, JobId) {
    (spec.submit, spec.id)
}

impl Arrivals {
    /// Buffer a job. Returns `false` (and keeps the buffer unchanged) when
    /// a job with the same `(submit, id)` is already pending.
    pub(super) fn push(&mut self, spec: JobSpec) -> bool {
        let k = key(&spec);
        let at = self.pending.partition_point(|s| key(s) < k);
        if self.pending.get(at).is_some_and(|s| key(s) == k) {
            return false;
        }
        self.due
            .push(Reverse((earliest_event(&spec), spec.submit, spec.id)));
        self.pending.insert(at, spec);
        true
    }

    /// Withdraw a pending job. Returns whether it was pending.
    pub(super) fn remove(&mut self, id: JobId) -> bool {
        let Some(at) = self.pending.iter().position(|s| s.id == id) else {
            return false;
        };
        self.pending.remove(at);
        self.due.retain(|&Reverse((_, _, j))| j != id);
        true
    }

    pub(super) fn len(&self) -> usize {
        self.pending.len()
    }

    pub(super) fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Pending jobs in injection order.
    pub(super) fn iter(&self) -> impl Iterator<Item = &JobSpec> {
        self.pending.iter()
    }

    /// Inject the prefix up to the last job whose earliest event is
    /// before `t` (or at `t`, when `inclusive`). Returns whether any job
    /// was due.
    fn inject_due<B: ClusterBackend, O: Observer>(
        &mut self,
        t: SimTime,
        inclusive: bool,
        engine: &mut Engine<SimCore<B, O>>,
    ) -> bool {
        let mut last = None;
        while let Some(&Reverse((earliest, submit, id))) = self.due.peek() {
            if earliest > t || (!inclusive && earliest == t) {
                break;
            }
            self.due.pop();
            // An entry whose job is no longer pending is stale.
            if self
                .pending
                .binary_search_by_key(&(submit, id), key)
                .is_ok()
            {
                last = last.max(Some((submit, id)));
            }
        }
        let Some(last) = last else { return false };
        while self.pending.front().is_some_and(|s| key(s) <= last) {
            let spec = self.pending.pop_front().expect("front exists");
            engine.sim.inject(spec, &mut engine.queue);
        }
        true
    }
}

/// Deliver every event with `time < horizon` (`<=` when `inclusive`),
/// injecting buffered jobs as the rule in the module docs requires.
/// `refill` runs before each injection with the next deliverable event's
/// time (`None` when nothing is left inside the horizon) and may top up
/// the buffer. `stop` runs after each delivered event; the pump returns
/// early once it answers `true` (what-if forks stop when their probe's
/// answer is fixed; every other caller passes `|_| false`).
pub(super) fn pump<B: ClusterBackend, O: Observer>(
    engine: &mut Engine<SimCore<B, O>>,
    arrivals: &mut Arrivals,
    horizon: SimTime,
    inclusive: bool,
    mut refill: impl FnMut(&mut Arrivals, Option<SimTime>),
    mut stop: impl FnMut(&SimCore<B, O>) -> bool,
) {
    let within = |t: SimTime| t < horizon || (inclusive && t == horizon);
    loop {
        let head = engine.queue.peek_time().filter(|&t| within(t));
        refill(arrivals, head);
        match head {
            // Injection ahead of a delivery may use an inclusive threshold
            // even on an exclusive horizon: the event itself is inside it.
            // Injected events may precede `h`, but every job due by then
            // is in, so the step still delivers the true minimum.
            Some(h) => {
                arrivals.inject_due(h, true, engine);
                engine.step();
                if stop(&engine.sim) {
                    return;
                }
            }
            // Nothing to deliver: inject up to the horizon, then look
            // again — the new head may call for a refill first.
            None => {
                if !arrivals.inject_due(horizon, inclusive, engine) {
                    return;
                }
            }
        }
    }
}

/// The batch refill: pull from `source` every job that could have an
/// event at or before the queue head. With an empty queue, pull one job
/// so the run has somewhere to start.
pub(super) fn source_feed<S: JobSource>(
    mut source: S,
) -> impl FnMut(&mut Arrivals, Option<SimTime>) {
    let lead = source.max_notice_lead();
    // `submit - lead` of the last job pulled: a lower bound on the
    // earliest event of every job still in the source. `None` once the
    // source is exhausted.
    let mut frontier = Some(SimTime::ZERO);
    move |arrivals, head| {
        while let Some(f) = frontier {
            let enough = match head {
                Some(h) => f > h,
                None => !arrivals.is_empty(),
            };
            if enough {
                return;
            }
            frontier = source.next_job().map(|spec| {
                let f = spec.submit.saturating_sub(lead);
                let id = spec.id;
                assert!(arrivals.push(spec), "source yielded job {id} twice");
                f
            });
        }
    }
}
