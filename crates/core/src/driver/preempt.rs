//! Preemption mechanics: preempt/shrink/expand for running jobs, the
//! malleable two-minute drain, and checkpoint-aware overhead accounting.

use super::core::SimCore;
use super::events::Ev;
use crate::jobstate::{rigid_progress, Status};
use crate::timeline::{Observer, TimelineEvent};
use hws_cluster::ClusterBackend;
use hws_sim::{EventQueue, SimTime};
use hws_workload::{JobId, JobKind};

impl<B: ClusterBackend, O: Observer> SimCore<B, O> {
    /// Preemption overhead (wasted node-seconds) of preempting `j` now:
    /// work past the last checkpoint for rigid jobs; spent setup plus the
    /// warning window for malleable jobs.
    pub(super) fn preemption_overhead(&self, j: JobId, now: SimTime) -> u64 {
        let st = self.st(j);
        let run = st.run.as_ref().expect("overhead of non-running job");
        let spec = self.spec(j);
        match spec.kind {
            JobKind::Malleable => {
                let setup_spent = now.since(run.start).min(spec.setup);
                (setup_spent + self.cfg.malleable_warning).as_secs() * u64::from(run.size)
            }
            _ => {
                let p = rigid_progress(
                    now.since(run.start),
                    spec.setup,
                    run.tau,
                    run.delta,
                    run.work_at_start,
                );
                (now.since(run.start) - p.anchor_elapsed).as_secs() * u64::from(run.size)
            }
        }
    }

    /// Preempt a running job. Rigid victims are killed instantly and lose
    /// everything past their last checkpoint; malleable victims get the
    /// two-minute warning (they hold their nodes, make no progress, then
    /// release). Returns the number of nodes that will be released (now or
    /// at drain end).
    pub(super) fn preempt_job(&mut self, j: JobId, now: SimTime, q: &mut EventQueue<Ev>) -> u32 {
        debug_assert_eq!(self.st(j).status, Status::Running);
        self.untrack_release(j);
        let spec = self.spec(j).clone();
        let size = self.st(j).run.as_ref().expect("running").size;
        self.accrue_occupancy(j, now);
        self.note_run_stopped(j);
        self.note(now, j, TimelineEvent::Preempted);

        match spec.kind {
            JobKind::Malleable => {
                self.accrue_malleable(j, now);
                let warning = self.cfg.malleable_warning;
                let st = self.st_mut(j);
                let run = st.run.as_ref().expect("running");
                let setup_spent = now.since(run.start).min(spec.setup);
                st.status = Status::Draining;
                st.preempt_count += 1;
                let epoch = st.bump_epoch();
                st.drain_until = Some(now + warning);
                self.track_release(j);
                q.schedule(now + warning, Ev::DrainEnd { job: j, epoch });
                self.note(now, j, TimelineEvent::DrainStarted);
                // The spent setup is wasted (it will be repeated).
                if !setup_spent.is_zero() {
                    self.rec.add_waste(size, setup_spent);
                }
                size
            }
            _ => {
                let st = self.st_mut(j);
                let run = st.run.take().expect("running");
                let p = rigid_progress(
                    now.since(run.start),
                    spec.setup,
                    run.tau,
                    run.delta,
                    run.work_at_start,
                );
                st.remaining_work = run.work_at_start - p.checkpointed;
                st.status = Status::Waiting;
                st.preempt_count += 1;
                st.bump_epoch();
                let waste = now.since(run.start) - p.anchor_elapsed;
                if !waste.is_zero() {
                    self.rec.add_waste(size, waste);
                }
                self.cluster.release(j);
                // Resubmission keeps the original submit time (§III-B2) —
                // the queue key is derived from the spec, so the job simply
                // re-enters the index under its original priority.
                self.enqueue_waiting(j);
                size
            }
        }
    }

    /// Drain window expired: the malleable job's nodes release now.
    pub(super) fn finish_drain(&mut self, j: JobId, _now: SimTime) {
        self.untrack_release(j);
        let full_size = self.spec(j).size;
        let st = self.st_mut(j);
        debug_assert_eq!(st.status, Status::Draining);
        let run = st.run.take().expect("draining holds a run");
        st.status = Status::Waiting;
        st.drain_until = None;
        st.cur_size = full_size; // next start re-chooses a size
        let size = run.size;
        // Warning window: occupied, zero progress → pure waste.
        let warning = self.cfg.malleable_warning;
        self.add_occ(j, size, warning);
        self.rec.add_waste(size, warning);
        self.cluster.release(j);
        self.enqueue_waiting(j);
    }

    /// Grow a running malleable job by up to `k` nodes.
    pub(super) fn expand_job(&mut self, j: JobId, k: u32, now: SimTime, q: &mut EventQueue<Ev>) {
        debug_assert_eq!(self.spec(j).kind, JobKind::Malleable);
        self.untrack_release(j);
        self.accrue_occupancy(j, now);
        self.accrue_malleable(j, now);
        let granted = self.cluster.expand(j, k);
        if granted == 0 {
            // The accrual alone can move a run past its estimate.
            self.track_release(j);
            return;
        }
        let st = self.st_mut(j);
        st.owed_expansion = st.owed_expansion.saturating_sub(granted);
        st.cur_size += granted;
        let epoch = st.bump_epoch();
        let remaining_ns = st.remaining_ns;
        let run = st.run.as_mut().expect("running");
        run.size += granted;
        let at = crate::jobstate::malleable_finish(run, remaining_ns);
        let (from, to) = (run.size - granted, run.size);
        self.track_release(j);
        q.schedule(at.max(now), Ev::Finish { job: j, epoch });
        self.note(now, j, TimelineEvent::Expanded { from, to });
        self.schedule_failure(j, now, q);
    }

    /// Shrink a running malleable job by `k` nodes (free, instantaneous).
    pub(super) fn shrink_job(&mut self, j: JobId, k: u32, now: SimTime, q: &mut EventQueue<Ev>) {
        debug_assert_eq!(self.spec(j).kind, JobKind::Malleable);
        self.untrack_release(j);
        self.accrue_occupancy(j, now);
        self.accrue_malleable(j, now);
        self.cluster.shrink(j, k);
        let st = self.st_mut(j);
        st.cur_size -= k;
        st.owed_expansion += k;
        let epoch = st.bump_epoch();
        let remaining_ns = st.remaining_ns;
        let run = st.run.as_mut().expect("running");
        run.size -= k;
        let at = crate::jobstate::malleable_finish(run, remaining_ns);
        let (from, to) = (run.size + k, run.size);
        self.track_release(j);
        q.schedule(at.max(now), Ev::Finish { job: j, epoch });
        self.note(now, j, TimelineEvent::Shrunk { from, to });
        self.schedule_failure(j, now, q);
    }
}
