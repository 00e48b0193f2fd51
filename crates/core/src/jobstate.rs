//! Dynamic per-job execution state and the run-timeline arithmetic.
//!
//! Two models (§III-A):
//!
//! * **Rigid runs** alternate work segments of length τ with checkpoints of
//!   cost δ: `setup → τ work → δ ckpt → τ work → … → finish` (no checkpoint
//!   at the very end). On preemption the job keeps the work preserved by
//!   its last *completed* checkpoint; everything after it — including a
//!   checkpoint in progress — is lost, and the next run pays setup again.
//! * **Malleable runs** carry `remaining_ns` node-seconds of work executed
//!   at `cur_size` nodes per second after the setup window. Shrink/expand
//!   re-rate the run for free; preemption grants a two-minute drain during
//!   which no progress is made, and only the setup must be repeated.
//!
//! All arithmetic is integer (seconds / node-seconds), so runs are exact
//! and replay-deterministic.

use hws_sim::{EventId, SimDuration, SimTime};
use hws_workload::{JobId, JobSpec};

/// Lifecycle of a job inside the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Known only through its advance notice; not yet arrived.
    Announced,
    /// In the wait queue.
    Waiting,
    Running,
    /// Malleable job inside its two-minute preemption warning; nodes still
    /// held, no progress.
    Draining,
    Finished,
    Killed,
}

/// One execution attempt of a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    pub start: SimTime,
    pub size: u32,
    /// End of the setup window (`start + setup`).
    pub setup_end: SimTime,
    /// Occupancy accounted up to this instant (node-time integration).
    pub occ_anchor: SimTime,
    /// Malleable only: work accounted up to this instant (≥ `setup_end`).
    pub work_anchor: SimTime,
    /// Rigid only: checkpoint interval (None → no checkpoints).
    pub tau: Option<SimDuration>,
    /// Rigid only: checkpoint cost.
    pub delta: SimDuration,
    /// Rigid only: remaining work at the start of this run.
    pub work_at_start: SimDuration,
}

/// An on-demand job's notice phase (§III-B1–B4), from its notice to its
/// arrival, reservation timeout, cancel or kill.
#[derive(Debug, Clone)]
pub struct NoticePhase {
    /// The pending `ReservationTimeout` event.
    pub timeout: EventId,
    /// Pending CUP-planned preemptions on this job's behalf.
    pub plans: Vec<EventId>,
    /// Whether backfill may squat on the reservation (fixed at notice
    /// time; an action may flip `backfill_on_reserved` later).
    pub squattable: bool,
}

/// Dynamic state of one job.
#[derive(Debug, Clone)]
pub struct JobState {
    pub id: JobId,
    /// Index into the trace's job vector.
    pub spec_idx: usize,
    pub status: Status,
    /// Rigid / on-demand: work not yet preserved by a checkpoint
    /// (at the requested size).
    pub remaining_work: SimDuration,
    /// Malleable: remaining useful node-seconds.
    pub remaining_ns: u64,
    /// Current allocation size (== spec size for rigid/on-demand).
    pub cur_size: u32,
    /// Nodes this running malleable job is owed back after shrinks.
    pub owed_expansion: u32,
    pub preempt_count: u32,
    pub run: Option<Run>,
    /// Monotone counter invalidating stale Finish/Kill/Drain events.
    pub epoch: u64,
    /// Draining (two-minute warning): nodes release at this instant.
    pub drain_until: Option<SimTime>,
    /// Arrived on-demand job waiting in the queue's front class (§III-B2).
    pub at_front: bool,
    pub notice: Option<NoticePhase>,
    /// Evicted by a hard outage down at this instant, not yet restarted.
    pub evicted_at: Option<SimTime>,
}

impl JobState {
    pub fn new(id: JobId, spec_idx: usize, spec: &JobSpec) -> Self {
        JobState {
            id,
            spec_idx,
            status: Status::Announced,
            remaining_work: spec.work,
            remaining_ns: spec.work_node_seconds(),
            cur_size: spec.size,
            owed_expansion: 0,
            preempt_count: 0,
            run: None,
            epoch: 0,
            drain_until: None,
            at_front: false,
            notice: None,
            evicted_at: None,
        }
    }

    pub fn is_running(&self) -> bool {
        self.status == Status::Running
    }

    pub fn bump_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// A running or draining job has a run record and no other job has
    /// one; only a waiting job sits in the front class or carries an
    /// eviction time, and only an announced one is in its notice phase.
    pub(crate) fn check(&self) -> Result<(), String> {
        let s = self.status;
        let active = matches!(s, Status::Running | Status::Draining);
        if active != self.run.is_some() {
            return Err(format!("status {s:?} inconsistent with run presence"));
        }
        if (self.at_front || self.evicted_at.is_some()) && s != Status::Waiting
            || self.notice.is_some() && s != Status::Announced
        {
            return Err(format!(
                "{} is {s:?} but holds another phase's state",
                self.id
            ));
        }
        Ok(())
    }
}

// Snapshot layouts: every field, the run record and the drain bookkeeping
// included.
hws_sim::snap_enum!(Status {
    0 => Announced,
    1 => Waiting,
    2 => Running,
    3 => Draining,
    4 => Finished,
    5 => Killed,
});
hws_sim::snap_struct!(Run {
    start,
    size,
    setup_end,
    occ_anchor,
    work_anchor,
    tau,
    delta,
    work_at_start,
});
hws_sim::snap_struct!(JobState {
    id,
    spec_idx,
    status,
    remaining_work,
    remaining_ns,
    cur_size,
    owed_expansion,
    preempt_count,
    run,
    epoch,
    drain_until,
    at_front,
    notice,
    evicted_at,
} check JobState::check);
hws_sim::snap_struct!(NoticePhase {
    timeout,
    plans,
    squattable,
});

// ----------------------------------------------------------------------
// Rigid-run timeline arithmetic (pure functions).
// ----------------------------------------------------------------------

/// Wall time for a rigid run: `setup + work + n_ckpt·δ`, with a checkpoint
/// after every τ of work except at the very end.
pub fn rigid_wall_time(
    work: SimDuration,
    setup: SimDuration,
    tau: Option<SimDuration>,
    delta: SimDuration,
) -> SimDuration {
    let n = n_checkpoints(work, tau);
    setup + work + SimDuration::from_secs(n * delta.as_secs())
}

/// Checkpoints taken while executing `work` seconds of work:
/// `ceil(work/τ) − 1` (none at the very end).
pub fn n_checkpoints(work: SimDuration, tau: Option<SimDuration>) -> u64 {
    match tau {
        Some(t) if t.as_secs() > 0 && work.as_secs() > 0 => (work.as_secs() - 1) / t.as_secs(),
        _ => 0,
    }
}

/// Progress of a rigid run after `elapsed` wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RigidProgress {
    /// Work executed so far (checkpointed or not).
    pub work_done: SimDuration,
    /// Work preserved by the last completed checkpoint.
    pub checkpointed: SimDuration,
    pub completed_ckpts: u64,
    /// Wall offset (from run start) of the last preserved point — the run
    /// start itself when no checkpoint has completed. Preempting at
    /// `elapsed` wastes `elapsed − anchor_elapsed` wall seconds × size.
    pub anchor_elapsed: SimDuration,
}

/// Compute progress at `elapsed` wall seconds into a rigid run executing
/// `total_work` with setup `setup`, checkpoints every `tau` costing `delta`.
pub fn rigid_progress(
    elapsed: SimDuration,
    setup: SimDuration,
    tau: Option<SimDuration>,
    delta: SimDuration,
    total_work: SimDuration,
) -> RigidProgress {
    if elapsed <= setup {
        return RigidProgress {
            work_done: SimDuration::ZERO,
            checkpointed: SimDuration::ZERO,
            completed_ckpts: 0,
            anchor_elapsed: SimDuration::ZERO,
        };
    }
    let e = (elapsed - setup).as_secs();
    let total = total_work.as_secs();
    let (tau_s, delta_s) = match tau {
        Some(t) if t.as_secs() > 0 => (t.as_secs(), delta.as_secs()),
        _ => {
            // No checkpoints: all progress is volatile.
            return RigidProgress {
                work_done: SimDuration::from_secs(e.min(total)),
                checkpointed: SimDuration::ZERO,
                completed_ckpts: 0,
                anchor_elapsed: SimDuration::ZERO,
            };
        }
    };
    let max_ckpts = n_checkpoints(total_work, tau);
    let cycle = tau_s + delta_s;
    let k = e / cycle;
    let r = e % cycle;
    let work_done = (k * tau_s + r.min(tau_s)).min(total);
    let completed = k.min(max_ckpts);
    let checkpointed = completed * tau_s;
    let anchor = if completed == 0 {
        SimDuration::ZERO
    } else {
        setup + SimDuration::from_secs(completed * cycle)
    };
    RigidProgress {
        work_done: SimDuration::from_secs(work_done),
        checkpointed: SimDuration::from_secs(checkpointed),
        completed_ckpts: completed,
        anchor_elapsed: anchor,
    }
}

/// Wall instant (if any) at which the run's next checkpoint *completes*
/// after `now`. `None` when the job takes no further checkpoint before
/// finishing. Used by CUP to preempt rigid jobs "immediately after
/// checkpointing".
pub fn next_checkpoint_completion(run: &Run, now: SimTime) -> Option<SimTime> {
    let tau = run.tau?;
    if tau.as_secs() == 0 {
        return None;
    }
    let max_ckpts = n_checkpoints(run.work_at_start, Some(tau));
    if max_ckpts == 0 {
        return None;
    }
    let cycle = tau.as_secs() + run.delta.as_secs();
    let e = now.since(run.setup_end).as_secs();
    // Next cycle boundary strictly after `now`.
    let k_next = e / cycle + 1;
    if k_next > max_ckpts {
        return None;
    }
    Some(run.setup_end + SimDuration::from_secs(k_next * cycle))
}

// ----------------------------------------------------------------------
// Malleable-run arithmetic.
// ----------------------------------------------------------------------

/// Node-seconds of progress a malleable run makes between `run.work_anchor`
/// and `now` at its current size.
pub fn malleable_progress_ns(run: &Run, now: SimTime) -> u64 {
    let from = run.work_anchor.max(run.setup_end);
    now.since(from).as_secs() * u64::from(run.size)
}

/// Finish instant of a malleable run with `remaining_ns` outstanding at the
/// work anchor.
pub fn malleable_finish(run: &Run, remaining_ns: u64) -> SimTime {
    let from = run.work_anchor.max(run.setup_end);
    from + SimDuration::from_secs(remaining_ns.div_ceil(u64::from(run.size.max(1))))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    // ---------------- rigid wall time ----------------

    #[test]
    fn wall_time_without_checkpoints() {
        assert_eq!(rigid_wall_time(d(1_000), d(100), None, d(600)), d(1_100));
    }

    #[test]
    fn wall_time_counts_interior_checkpoints_only() {
        // work 1000, τ 400 → checkpoints after 400 and 800 of work; the
        // boundary at 1200 never happens (job finishes at 1000).
        assert_eq!(n_checkpoints(d(1_000), Some(d(400))), 2);
        assert_eq!(
            rigid_wall_time(d(1_000), d(100), Some(d(400)), d(50)),
            d(100 + 1_000 + 2 * 50)
        );
        // Exact multiple: work 800, τ 400 → only one interior checkpoint.
        assert_eq!(n_checkpoints(d(800), Some(d(400))), 1);
    }

    #[test]
    fn no_checkpoint_when_work_fits_one_interval() {
        assert_eq!(n_checkpoints(d(400), Some(d(400))), 0);
        assert_eq!(n_checkpoints(d(399), Some(d(400))), 0);
        assert_eq!(n_checkpoints(d(401), Some(d(400))), 1);
    }

    // ---------------- rigid progress ----------------

    #[test]
    fn progress_during_setup_is_zero() {
        let p = rigid_progress(d(50), d(100), Some(d(400)), d(50), d(1_000));
        assert_eq!(p.work_done, d(0));
        assert_eq!(p.anchor_elapsed, d(0));
    }

    #[test]
    fn progress_mid_first_segment() {
        // elapsed 300 = setup 100 + 200 work; no checkpoint yet.
        let p = rigid_progress(d(300), d(100), Some(d(400)), d(50), d(1_000));
        assert_eq!(p.work_done, d(200));
        assert_eq!(p.checkpointed, d(0));
        assert_eq!(p.anchor_elapsed, d(0)); // preempting loses everything
    }

    #[test]
    fn progress_after_first_checkpoint() {
        // cycle = 450; elapsed 100 + 450 + 10 → one ckpt done, 10 s into
        // second segment.
        let p = rigid_progress(d(560), d(100), Some(d(400)), d(50), d(1_000));
        assert_eq!(p.completed_ckpts, 1);
        assert_eq!(p.checkpointed, d(400));
        assert_eq!(p.work_done, d(410));
        assert_eq!(p.anchor_elapsed, d(100 + 450));
    }

    #[test]
    fn progress_mid_checkpoint_does_not_count_it() {
        // elapsed = 100 + 400 + 20 → 20 s into the first checkpoint.
        let p = rigid_progress(d(520), d(100), Some(d(400)), d(50), d(1_000));
        assert_eq!(p.completed_ckpts, 0);
        assert_eq!(p.checkpointed, d(0));
        assert_eq!(p.work_done, d(400)); // work done but volatile
        assert_eq!(p.anchor_elapsed, d(0));
    }

    #[test]
    fn progress_caps_completed_ckpts_at_interior_count() {
        // work 800, τ 400 → 1 interior checkpoint. A long elapsed time
        // (e.g. waiting at the end) must not invent a second one.
        let p = rigid_progress(d(100 + 800 + 450), d(100), Some(d(400)), d(50), d(800));
        assert_eq!(p.completed_ckpts, 1);
        assert_eq!(p.checkpointed, d(400));
        assert_eq!(p.work_done, d(800));
    }

    #[test]
    fn progress_without_tau_is_volatile() {
        let p = rigid_progress(d(700), d(100), None, d(0), d(1_000));
        assert_eq!(p.work_done, d(600));
        assert_eq!(p.checkpointed, d(0));
    }

    // ---------------- next checkpoint completion ----------------

    fn rigid_run(start: u64, setup: u64, tau: u64, delta: u64, work: u64) -> Run {
        Run {
            start: t(start),
            size: 10,
            setup_end: t(start + setup),
            occ_anchor: t(start),
            work_anchor: t(start + setup),
            tau: Some(d(tau)),
            delta: d(delta),
            work_at_start: d(work),
        }
    }

    #[test]
    fn next_ckpt_completion_is_cycle_boundary() {
        let run = rigid_run(1_000, 100, 400, 50, 1_000);
        // At t = 1200 (100 s into work): first ckpt completes at
        // setup_end + 450 = 1550.
        assert_eq!(next_checkpoint_completion(&run, t(1_200)), Some(t(1_550)));
        // Immediately after that boundary the next one is 450 later.
        assert_eq!(next_checkpoint_completion(&run, t(1_550)), Some(t(2_000)));
    }

    #[test]
    fn next_ckpt_none_when_no_interior_ckpts_remain() {
        let run = rigid_run(0, 100, 400, 50, 1_000); // 2 interior ckpts
                                                     // After the second checkpoint boundary (100 + 2*450 = 1000) there
                                                     // are no more checkpoints.
        assert_eq!(next_checkpoint_completion(&run, t(1_000)), None);
    }

    #[test]
    fn next_ckpt_none_for_short_jobs() {
        let run = rigid_run(0, 100, 4_000, 50, 1_000);
        assert_eq!(next_checkpoint_completion(&run, t(0)), None);
    }

    // ---------------- malleable ----------------

    fn malleable_run(start: u64, setup: u64, size: u32) -> Run {
        Run {
            start: t(start),
            size,
            setup_end: t(start + setup),
            occ_anchor: t(start),
            work_anchor: t(start + setup),
            tau: None,
            delta: d(0),
            work_at_start: d(0),
        }
    }

    #[test]
    fn malleable_progress_after_setup() {
        let run = malleable_run(100, 50, 8);
        assert_eq!(malleable_progress_ns(&run, t(100)), 0);
        assert_eq!(malleable_progress_ns(&run, t(150)), 0); // setup end
        assert_eq!(malleable_progress_ns(&run, t(160)), 80); // 10 s × 8
    }

    #[test]
    fn malleable_finish_rounds_up() {
        let run = malleable_run(0, 10, 8);
        // 100 ns at 8 nodes/s → ceil(100/8) = 13 s after setup end.
        assert_eq!(malleable_finish(&run, 100), t(10 + 13));
        assert_eq!(malleable_finish(&run, 80), t(10 + 10));
    }

    #[test]
    fn job_state_construction() {
        use hws_workload::job::JobSpecBuilder;
        let spec = JobSpecBuilder::malleable(3)
            .size(100)
            .min_size(20)
            .work(d(1_000))
            .build();
        let st = JobState::new(JobId(3), 0, &spec);
        assert_eq!(st.status, Status::Announced);
        assert_eq!(st.remaining_ns, 100_000);
        assert_eq!(st.cur_size, 100);
        assert_eq!(st.epoch, 0);
    }

    #[test]
    fn epoch_bumps_monotonically() {
        use hws_workload::job::JobSpecBuilder;
        let spec = JobSpecBuilder::rigid(1).size(4).build();
        let mut st = JobState::new(JobId(1), 0, &spec);
        assert_eq!(st.bump_epoch(), 1);
        assert_eq!(st.bump_epoch(), 2);
    }
}
