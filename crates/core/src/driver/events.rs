//! Simulator events and the epoch-guarded dispatch loop.
//!
//! ## Event anatomy
//!
//! * `Submit` — a job arrives (for on-demand jobs: the *actual* arrival).
//! * `Notice` — an on-demand advance notice lands (15–30 min early).
//! * `ReservationTimeout` — a noticed job failed to arrive 10 min past its
//!   prediction; its reservation is released (§III-B4).
//! * `Finish` / `Kill` — a run completes (or exceeds its estimate). Both
//!   carry the job's *epoch*; preemption/shrink/expand bump the epoch so
//!   stale events are ignored — the classic DES invalidation pattern.
//! * `DrainEnd` — a malleable job's two-minute warning expired; its nodes
//!   release now.
//! * `PlannedPreempt` — a CUP-planned preemption fires (rigid victims right
//!   after a checkpoint, malleable victims just before the prediction).
//! * `Pass` — coalesced scheduling pass (FCFS + EASY over the queue).

use super::core::SimCore;
use crate::jobstate::Status;
use crate::timeline::{Observer, TimelineEvent};
use hws_cluster::ClusterBackend;
use hws_sim::{EventQueue, SimTime, Simulation};
use hws_workload::{JobId, JobKind};

/// Simulator events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ev {
    Submit(JobId),
    Notice(JobId),
    ReservationTimeout(JobId),
    Finish {
        job: JobId,
        epoch: u64,
    },
    Kill {
        job: JobId,
        epoch: u64,
    },
    DrainEnd {
        job: JobId,
        epoch: u64,
    },
    PlannedPreempt {
        victim: JobId,
        od: JobId,
        epoch: u64,
    },
    /// A node of the job's allocation failed (failure-injection extension).
    Fail {
        job: JobId,
        epoch: u64,
    },
    /// Apply entry `idx` of the configured outage schedule (capacity-fault
    /// extension); the handler chains `idx + 1`.
    Outage {
        idx: u32,
    },
    Pass,
}

impl<B: ClusterBackend, O: Observer> Simulation for SimCore<B, O> {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, q: &mut EventQueue<Ev>) {
        // Lost-capacity integral: the down count is constant between
        // events, so accruing at every dispatch entry is exact. A single
        // `Option` check on outage-free runs.
        self.accrue_outage(now);
        match ev {
            Ev::Submit(j) => {
                // Arrival-lane events are not cancellable, so a live-service
                // cancel of a still-announced job retires the job and lets
                // its pending Submit land here; batch replays never hit this
                // guard (every admitted job is live at its submit).
                if !self.live(j) {
                    return;
                }
                let spec = self.spec(j).clone();
                self.rec.job_submitted_full(
                    j,
                    spec.kind,
                    spec.class,
                    spec.size,
                    now,
                    spec.category,
                );
                self.note(now, j, TimelineEvent::Submitted);
                // The job has arrived: its notice phase, if open, ends here
                // whichever way it is handled below.
                if spec.notice.is_some() {
                    self.close_notice(j, q);
                }
                // While outage events are still pending, oversized jobs
                // block (a rejoin may restore the capacity); once the
                // schedule's horizon has passed, lost capacity is lost for
                // good and the live cap applies.
                let cap = if self.outage_horizon_passed() {
                    self.cluster
                        .max_job_size()
                        .min(self.cluster.live_max_job_size())
                } else {
                    self.cluster.max_job_size()
                };
                if spec.size > cap {
                    // No shard can ever host it; queueing it would wait
                    // forever. Impossible on a single cluster (the trace
                    // validates size ≤ system size), real on federations
                    // whose largest shard is smaller than the machine.
                    // Terminal on arrival, so retire the slot right away;
                    // nodes its notice reserved go on to the queue.
                    if self.kill_unstarted(j, now, q) > 0 {
                        self.offer_free_nodes(now);
                        self.request_pass(now, q);
                    }
                } else if spec.kind == JobKind::OnDemand && self.hybrid() {
                    self.on_od_arrival(j, now, q);
                } else {
                    self.st_mut(j).status = Status::Waiting;
                    self.enqueue_waiting(j);
                    self.request_pass(now, q);
                }
            }
            Ev::Notice(j) => {
                if self.schedules_notices()
                    && self
                        .st_if_live(j)
                        .is_some_and(|st| st.status == Status::Announced)
                    && self.spec(j).size <= self.cluster.max_job_size()
                {
                    self.note(now, j, TimelineEvent::NoticeReceived);
                    self.on_notice(j, now, q);
                    self.request_pass(now, q);
                }
            }
            Ev::ReservationTimeout(j) => {
                if self
                    .st_if_live(j)
                    .is_some_and(|st| st.status == Status::Announced)
                {
                    // The job stays announced: it may still arrive, just
                    // without the reservation.
                    self.withdraw(j, q);
                    self.offer_free_nodes(now);
                    self.request_pass(now, q);
                }
            }
            Ev::Finish { job, epoch } => {
                if self
                    .st_if_live(job)
                    .is_some_and(|st| st.status == Status::Running && st.epoch == epoch)
                {
                    self.finish_job(job, now, false, q);
                    self.offer_free_nodes(now);
                    self.request_pass(now, q);
                }
            }
            Ev::Kill { job, epoch } => {
                if self
                    .st_if_live(job)
                    .is_some_and(|st| st.status == Status::Running && st.epoch == epoch)
                {
                    self.finish_job(job, now, true, q);
                    self.offer_free_nodes(now);
                    self.request_pass(now, q);
                }
            }
            Ev::DrainEnd { job, epoch } => {
                if self
                    .st_if_live(job)
                    .is_some_and(|st| st.status == Status::Draining && st.epoch == epoch)
                {
                    self.finish_drain(job, now);
                    self.offer_free_nodes(now);
                    self.request_pass(now, q);
                }
            }
            Ev::PlannedPreempt { victim, od, epoch } => {
                // Valid only while the on-demand job is still expected and
                // the victim's run is unchanged.
                if self
                    .st_if_live(od)
                    .is_some_and(|st| st.status == Status::Announced)
                    && self
                        .st_if_live(victim)
                        .is_some_and(|st| st.status == Status::Running && st.epoch == epoch)
                {
                    let nodes = self.st(victim).run.as_ref().expect("running").size;
                    let outstanding = self
                        .spec(od)
                        .size
                        .saturating_sub(self.cluster.reserved_idle_count(od));
                    self.preempt_job(victim, now, q);
                    self.leases.record(od, victim, outstanding.min(nodes), true);
                    self.offer_free_nodes(now);
                    self.request_pass(now, q);
                }
            }
            Ev::Fail { job, epoch } => {
                if self
                    .st_if_live(job)
                    .is_some_and(|st| st.status == Status::Running && st.epoch == epoch)
                {
                    self.fail_job(job, now, q);
                    self.offer_free_nodes(now);
                    self.request_pass(now, q);
                }
            }
            Ev::Outage { idx } => {
                self.apply_outage(idx, now, q);
            }
            Ev::Pass => {
                self.pass_pending = false;
                self.schedule_pass(now, q);
            }
        }
        if self.cfg.paranoid_checks {
            self.check_paranoid();
        }
    }
}

impl<B: ClusterBackend, O: Observer> SimCore<B, O> {
    /// The `paranoid_checks` oracles, run after every event and on every
    /// what-if fork. Panics on the first violated invariant.
    pub(super) fn check_paranoid(&self) {
        self.cluster.check_invariants().expect("cluster invariants");
        self.check_records_match_jobs()
            .expect("live records match the submitted jobs");
        let cap = self.derive_from_slots().expect("job slots are consistent");
        assert_eq!(cap, self.cap_running, "cap_running drifted from the scan");
        self.check_waitq_invariant();
        self.check_profile_invariant();
        // Down capacity must never be visible to scheduling queries.
        let live = self.cluster.live_nodes();
        assert!(
            self.cluster.free_count() <= live,
            "free pool exceeds live capacity"
        );
        for c in &self.claims {
            assert!(
                self.cluster.avail_for(c.od) <= live,
                "avail_for({}) sees down capacity",
                c.od
            );
        }
    }

    /// Live records name exactly the submitted jobs in the table (a
    /// submitted job is never `Announced`): a stray record would never
    /// fold, and a job without one would panic at its next recorder
    /// callback. Checked on restore and, under `paranoid_checks`, after
    /// every event.
    pub(super) fn check_records_match_jobs(&self) -> Result<(), String> {
        let (mut submitted, mut recorded) = (0, 0);
        self.table.for_each_live(|spec, st| {
            if st.status != Status::Announced {
                submitted += 1;
                recorded += usize::from(self.rec.get(spec.id).is_some());
            }
        });
        let held = self.rec.len();
        if recorded != submitted || held != submitted {
            return Err(format!(
                "{held} live records for {submitted} submitted jobs ({recorded} match)"
            ));
        }
        Ok(())
    }
}
