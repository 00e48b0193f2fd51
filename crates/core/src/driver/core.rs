//! The slimmed simulation model: per-run state, scheduler-visible
//! estimates, and the run lifecycle (start, finish, occupancy accrual).
//!
//! The surrounding layers live in sibling modules: event dispatch in
//! [`super::events`], node routing and on-demand handling in
//! [`super::alloc`], preempt/shrink/expand/drain mechanics in
//! [`super::preempt`], and the FCFS + EASY pass in [`super::pass`].

use super::alloc::Claim;
use super::events::Ev;
use super::hooks::{hooks_for, MechanismHooks};
use super::outage::OutageState;
use super::pass::ReleaseProfile;
use super::waitq::{WaitEntry, WaitQueue};
use crate::config::SimConfig;
use crate::failure::time_to_failure;
use crate::jobstate::{
    malleable_finish, malleable_progress_ns, rigid_progress, rigid_wall_time, JobState, Run, Status,
};
use crate::jobtable::JobTable;
use crate::timeline::{NoObserver, Observer, TimelineEvent};
use hws_cluster::{Cluster, ClusterBackend, LeaseLedger};
use hws_metrics::{Recorder, ShardStat};
use hws_sim::{EventQueue, SimDuration, SimTime};
use hws_workload::{JobClass, JobId, JobKind, JobSpec};
use std::cell::RefCell;
use std::sync::Arc;

/// The simulation model (per-run state), generic over the resource
/// manager: a single [`Cluster`] (the default, and the paper's model) or
/// any other [`ClusterBackend`] such as a
/// [`Federation`](hws_cluster::Federation) of shards. Mechanism hooks are
/// backend-generic by construction — they plan over snapshot views and
/// never touch the backend directly.
///
/// Every job transition goes through one call, `SimCore::note`: the
/// [`Recorder`] folds it, then the [`Observer`] `O` sees it. The default
/// [`NoObserver`] is zero-sized, so an unobserved run pays for the
/// recorder alone; a [`Timeline`](crate::Timeline) observer logs the run
/// (see [`super::Simulator::run_observed`]).
///
/// The core holds **no reference to a trace**: jobs are admitted into the
/// arena-backed [`JobTable`] as the driver's streaming pump injects their
/// arrival events, and retired the moment they reach a terminal status, so
/// resident job state is O(active jobs) regardless of replay length (see
/// [`super::Simulator::run_source`]).
///
/// `Clone` forks the state for what-if forecasting: every field is copied
/// (the scratch buffers are empty between events), and the hooks `Arc` is
/// shared until the fork swaps in its own (see
/// [`SchedulerService::fork`](super::SchedulerService::fork)).
#[derive(Clone)]
pub struct SimCore<B: ClusterBackend = Cluster, O: Observer = NoObserver> {
    pub cfg: SimConfig,
    pub(super) hooks: Arc<dyn MechanismHooks>,
    pub(super) table: JobTable,
    pub(super) cluster: B,
    /// Waiting jobs, maintained in priority order across events: a
    /// `BTreeSet` of `(QueueKey, JobId)` entries, each with the job's two
    /// start sizes, updated only on priority-relevant transitions, so a
    /// scheduling pass reads the order instead of re-sorting O(Q log Q)
    /// per pass, and its backfill walk filters by size without reading
    /// slots (see [`super::waitq`]).
    pub(super) queue: WaitQueue,
    /// Running and draining jobs in `(shard, expected end, id)` order,
    /// updated at every run transition (O(log R) each), so the blocked
    /// head's EASY shadow is a walk from the front of its shard instead of
    /// a scan of the machine (see [`super::pass`]). Derived from the
    /// slots: never snapshotted, rebuilt on restore, cloned by a fork.
    pub(super) profile: ReleaseProfile,
    /// Node collectors, kept sorted by `(phase, since, od)` on insert so
    /// [`SimCore::offer_free_nodes`] never re-sorts (see
    /// [`SimCore::insert_claim`]).
    pub(super) claims: Vec<Claim>,
    pub(super) leases: LeaseLedger,
    pub(super) pass_pending: bool,
    /// Capability-class jobs currently running, maintained incrementally
    /// at the four run-state transitions (start, finish, fail, preempt)
    /// so [`super::hooks::MechanismHooks::admit`] sees an O(1) snapshot.
    /// Stays 0 — and costs nothing — on two-class traces. Derived from
    /// the slots on restore.
    pub(super) cap_running: u32,
    /// Reusable hot-path buffers (see [`super::pass`]).
    pub(super) scratch: Scratch,
    /// Memoized Daly checkpoint intervals by job size. `CkptConfig` is
    /// fixed for the core's lifetime, so the sqrt-heavy formula is pure in
    /// the size — evaluated once per distinct size instead of per backfill
    /// probe. Derived cache: never snapshotted, rebuilt on demand. A clone
    /// gets its own copy (a fresh `RefCell`), valid as long as the fork
    /// keeps `cfg.ckpt`; [`SimCore::reconfigure`] clears it otherwise.
    pub(super) tau_memo: RefCell<Vec<Option<Option<SimDuration>>>>,
    /// Per-shard accumulation, active only for sharded backends
    /// ([`ClusterBackend::shard_labels`] is `Some`): occupancy
    /// node-seconds and job starts, indexed by shard.
    pub(super) shard_occ: Vec<u128>,
    pub(super) shard_starts: Vec<u64>,
    /// Whether the backend is sharded. Besides the accumulation above it
    /// tells the pass that an unplaced head's shadow spans shards and that
    /// backfill availability depends on the candidate.
    pub(super) track_shards: bool,
    /// Outage-injection bookkeeping; `Some` exactly when the config
    /// carries an [`hws_workload::OutageSchedule`] (see [`super::outage`]).
    pub(super) outage: Option<OutageState>,
    pub rec: Recorder,
    pub(super) obs: O,
}

/// Scratch buffers recycled across scheduling passes so the hot path does
/// not allocate per event: the ordered queue snapshot, the shadow's
/// re-projected releases and its equal-end group, and the
/// victim/candidate snapshots of notice handling.
/// Callers `mem::take` a buffer, use it, clear it, and put it back via
/// [`Scratch::stow`] (the buffers are empty between passes). A clone is
/// only taken between events, so it copies empty buffers: a reset.
#[derive(Debug, Clone, Default)]
pub(super) struct Scratch {
    pub(super) ordered: Vec<JobId>,
    pub(super) keys: Vec<WaitEntry>,
    pub(super) releases: Vec<(SimTime, u32)>,
    pub(super) group: Vec<u32>,
    pub(super) victim_ids: Vec<JobId>,
    pub(super) candidates: Vec<crate::mechanism::CupCandidate>,
}

/// Entries a recycled scratch buffer may keep capacity for between
/// passes. A one-off queue spike (an outage dumping thousands of jobs
/// back into the queue, say) must not pin its high-water allocation for
/// the rest of a million-job replay.
pub(super) const SCRATCH_RETAIN: usize = 1024;

impl Scratch {
    /// Clear a taken buffer and put it back, capping retained capacity at
    /// [`SCRATCH_RETAIN`] entries.
    pub(super) fn stow<T>(slot: &mut Vec<T>, mut buf: Vec<T>) {
        buf.clear();
        if buf.capacity() > SCRATCH_RETAIN {
            buf.shrink_to(SCRATCH_RETAIN);
        }
        *slot = buf;
    }
}

impl SimCore {
    /// Single-cluster construction (the paper's model).
    pub fn new(cfg: SimConfig, system_size: u32) -> Self {
        SimCore::with_backend(cfg, Cluster::new(system_size), NoObserver)
    }
}

impl<B: ClusterBackend, O: Observer> SimCore<B, O> {
    /// Run the same driver against any resource-manager backend, reporting
    /// every job transition to `obs`; the backend's total capacity is the
    /// system size.
    pub fn with_backend(cfg: SimConfig, backend: B, obs: O) -> Self {
        let track_shards = backend.shard_labels().is_some();
        let n_shards = backend.shard_count();
        let outage = cfg.outages.as_ref().map(|_| OutageState::default());
        let queue = WaitQueue::new();
        SimCore {
            rec: Recorder::new(backend.total_nodes(), cfg.instant_threshold),
            cluster: backend,
            hooks: hooks_for(&cfg),
            cfg,
            table: JobTable::new(),
            queue,
            profile: ReleaseProfile::default(),
            claims: Vec::new(),
            leases: LeaseLedger::new(),
            pass_pending: false,
            cap_running: 0,
            scratch: Scratch::default(),
            tau_memo: RefCell::new(Vec::new()),
            shard_occ: vec![0; if track_shards { n_shards } else { 0 }],
            shard_starts: vec![0; if track_shards { n_shards } else { 0 }],
            track_shards,
            outage,
            obs,
        }
    }

    /// Swap in `cfg` and the hooks it names on a cloned core (the
    /// what-if fork), keeping the derived state consistent with it.
    /// Restore derives the same state from scratch, so a fork and a
    /// restore under one `cfg` continue bitwise alike:
    ///
    /// * wait-queue keys are a function of `cfg.policy` (never of the
    ///   mechanism), so the index is re-keyed only when the policy changes;
    /// * `tau_memo` is a function of `cfg.ckpt`, so it is cleared only
    ///   when that changes.
    pub(super) fn reconfigure(&mut self, cfg: &SimConfig) {
        let rekey = cfg.policy != self.cfg.policy;
        if cfg.ckpt != self.cfg.ckpt {
            self.tau_memo.get_mut().clear();
        }
        self.hooks = hooks_for(cfg);
        self.cfg = cfg.clone();
        if rekey {
            self.rekey_waiting();
        }
    }

    /// The active mechanism hooks.
    pub fn hooks(&self) -> &dyn MechanismHooks {
        &*self.hooks
    }

    /// Capability-class jobs currently running (the incremental count the
    /// admission hook sees; cross-validated against a full job scan after
    /// every event under `paranoid_checks`).
    pub fn running_capability(&self) -> u32 {
        self.cap_running
    }

    /// One scan of the live slots: the count of running capability jobs
    /// (retired jobs never run, so the live set is the whole population).
    /// Restore sets [`Self::cap_running`] from it, and `check_paranoid`
    /// compares the counter with it after every event. Refuses
    /// slots the engine never builds, and claims or idle reserved nodes
    /// held for a job that is not live: a retired id's claim would keep
    /// taking freed nodes, and its reservation would never return.
    pub(super) fn derive_from_slots(&self) -> Result<u32, String> {
        let (mut cap, mut held, mut bad) = (0, 0u64, Ok(()));
        self.table.for_each_live(|spec, st| {
            cap += u32::from(spec.class == JobClass::Capability && st.status == Status::Running);
            held += u64::from(self.cluster.reserved_idle_count(spec.id));
            let fits_spec = (st.notice.is_none() || spec.notice.is_some())
                && (!st.at_front || spec.kind == JobKind::OnDemand);
            if !fits_spec {
                bad = Err(format!(
                    "{}: notice phase or front class its spec rules out",
                    spec.id
                ));
            } else if let Err(e) = st.check() {
                bad = Err(e);
            }
        });
        bad?;
        if let Some(c) = self.claims.iter().find(|c| !self.live(c.od)) {
            return Err(format!("a claim names {}, which is not live", c.od));
        }
        let total = self.cluster.total_reserved_idle();
        if held != u64::from(total) {
            return Err(format!(
                "live jobs hold {held} of {total} idle reserved nodes"
            ));
        }
        Ok(cap)
    }

    /// A capability job left the running state; called at every such
    /// transition (finish, kill, fail, preempt).
    pub(super) fn note_run_stopped(&mut self, j: JobId) {
        if self.spec(j).class == JobClass::Capability {
            self.cap_running -= 1;
        }
    }

    /// The resource-manager backend (read-only; tests and reporting).
    pub fn backend(&self) -> &B {
        &self.cluster
    }

    /// Per-shard breakdown of the run so far; `None` for backends that do
    /// not distinguish shards (a bare [`Cluster`]).
    pub fn shard_report(&self) -> Option<Vec<ShardStat>> {
        let labels = self.cluster.shard_labels()?;
        Some(
            labels
                .into_iter()
                .enumerate()
                .map(|(i, name)| ShardStat {
                    name,
                    nodes: self.cluster.shard_nodes(i),
                    jobs_started: self.shard_starts[i],
                    occupied_node_seconds: self.shard_occ[i],
                })
                .collect(),
        )
    }

    /// Record occupancy both federation-wide and (when tracking) on the
    /// job's shard.
    pub(super) fn add_occ(&mut self, j: JobId, size: u32, dur: SimDuration) {
        self.rec.add_occupancy(size, dur);
        if self.track_shards {
            if let Some(s) = self.cluster.shard_of(j) {
                self.shard_occ[s] += u128::from(size) * u128::from(dur.as_secs());
            }
        }
    }

    /// Report `j`'s transition `ev` at `t`: the recorder folds it, then
    /// the observer sees it.
    #[inline]
    pub(super) fn note(&mut self, t: SimTime, j: JobId, ev: TimelineEvent) {
        self.rec.record(t, j, &ev);
        self.obs.note(t, j, ev);
    }

    /// Whether arrival injection schedules advance-notice events: only
    /// hybrid mechanisms whose hooks consume notices ever see them.
    pub(super) fn schedules_notices(&self) -> bool {
        self.hybrid() && self.hooks.uses_notices()
    }

    /// Admit a job and schedule its arrival events (notice, then submit)
    /// on the arrival lane. The pump ([`super::pump`]) calls this in
    /// `(submit, id)` order before the event horizon reaches the job, so
    /// its state exists from its first event onwards and the backend
    /// knows it before any placement query.
    pub(super) fn inject(&mut self, spec: JobSpec, q: &mut EventQueue<Ev>) {
        let id = spec.id;
        if let (Some(notice), true) = (&spec.notice, self.schedules_notices()) {
            q.schedule_arrival(notice.notice_time, Ev::Notice(id));
        }
        q.schedule_arrival(spec.submit, Ev::Submit(id));
        self.cluster.note_job(&spec);
        self.table.admit(spec);
    }

    /// Retire a terminal (finished/killed) job: release its measurement
    /// record to the recorder's fold, drop the backend's routing state
    /// for it, and free its arena slot. Late events referencing the id —
    /// stale failure draws, CUP preemption plans — are dropped by the
    /// liveness guards in [`super::events`].
    pub(super) fn retire(&mut self, j: JobId) {
        self.rec.retire(j);
        self.cluster.forget_job(j);
        self.table.retire(j);
    }

    /// Retire a job that is not running as killed, unwinding everything
    /// it holds first; returns what [`Self::withdraw`] freed.
    pub(super) fn kill_unstarted(&mut self, j: JobId, now: SimTime, q: &mut EventQueue<Ev>) -> u32 {
        let freed = self.withdraw(j, q);
        self.note(now, j, TimelineEvent::Killed);
        self.retire(j);
        freed
    }

    /// End `j`'s notice phase, if open: cancel its reservation timeout and
    /// CUP plans and stop squatting on its reservation; then drop its
    /// collector. The reservation itself stays (an arriving job launches
    /// on it).
    pub(super) fn close_notice(&mut self, j: JobId, q: &mut EventQueue<Ev>) {
        if let Some(phase) = self.st_mut(j).notice.take() {
            q.cancel(phase.timeout);
            for ev in phase.plans {
                q.cancel(ev);
            }
        }
        self.remove_claim(j);
    }

    /// Unwind everything a job that is not running holds: its wait-queue
    /// entry, its notice phase, its reservation, and any lease naming it
    /// as a lender (so a later settle never looks it up once retired).
    /// Returns the idle reserved nodes handed back to the free pool.
    pub(super) fn withdraw(&mut self, j: JobId, q: &mut EventQueue<Ev>) -> u32 {
        if self.st(j).status == Status::Waiting {
            self.dequeue_waiting(j);
        }
        self.close_notice(j, q);
        let freed = self.cluster.release_reservation(j);
        self.leases.forget_lender(j);
        freed
    }

    /// Whether `j` is still resident (admitted and not yet retired).
    #[inline]
    pub(super) fn live(&self, j: JobId) -> bool {
        self.table.is_live(j)
    }

    /// Liveness-aware state lookup for event guards: `None` for retired
    /// jobs, whose stale events must be ignored.
    #[inline]
    pub(super) fn st_if_live(&self, j: JobId) -> Option<&JobState> {
        self.table.get_state(j)
    }

    /// The arena itself (read-only; reporting and tests).
    pub fn jobs(&self) -> &JobTable {
        &self.table
    }

    pub(super) fn spec(&self, j: JobId) -> &JobSpec {
        self.table.spec(j)
    }

    pub(super) fn st(&self, j: JobId) -> &JobState {
        self.table.state(j)
    }

    pub(super) fn st_mut(&mut self, j: JobId) -> &mut JobState {
        self.table.state_mut(j)
    }

    pub(super) fn hybrid(&self) -> bool {
        !self.cfg.mechanism.is_baseline()
    }

    /// Request a scheduling pass at `now`. Same-tick requests coalesce:
    /// the first request schedules one `Ev::Pass` (which, carrying the
    /// latest dynamic sequence number, is delivered *after* every
    /// already-queued event at this tick), and further requests while it
    /// is pending are no-ops — one pass per tick of state updates. The
    /// hidden [`SimConfig::pass_per_event`] oracle disables the dedup so
    /// the equivalence proptest can compare both ways bitwise.
    pub(super) fn request_pass(&mut self, now: SimTime, q: &mut EventQueue<Ev>) {
        if !self.pass_pending || self.cfg.pass_per_event {
            self.pass_pending = true;
            q.schedule(now, Ev::Pass);
        }
    }

    // ------------------------------------------------------------------
    // Scheduler-visible estimates
    // ------------------------------------------------------------------

    /// Remaining *estimated* work of a job (scheduler view; the user
    /// estimate minus preserved progress). Always ≥ the actual remainder.
    pub(super) fn est_remaining_work_of(spec: &JobSpec, st: &JobState) -> SimDuration {
        let done = spec.work.saturating_sub(st.remaining_work);
        spec.estimate.saturating_sub(done).max(SimDuration::SECOND)
    }

    /// [`Self::est_remaining_work_of`] by job id (one table probe).
    pub(super) fn est_remaining_work(&self, j: JobId) -> SimDuration {
        let (st, spec) = self.table.state_spec(j);
        Self::est_remaining_work_of(spec, st)
    }

    /// Estimated wall occupancy if the job started now at `size` nodes.
    pub(super) fn est_wall_of(&self, spec: &JobSpec, st: &JobState, size: u32) -> SimDuration {
        match spec.kind {
            JobKind::Malleable => {
                let est_total_ns = spec.estimate.as_secs() * u64::from(spec.size);
                let done_ns = spec.work_node_seconds().saturating_sub(st.remaining_ns);
                let rem = est_total_ns.saturating_sub(done_ns).max(1);
                spec.setup + SimDuration::from_secs(rem.div_ceil(u64::from(size.max(1))))
            }
            _ => {
                let est_rem = Self::est_remaining_work_of(spec, st);
                let tau = if spec.kind == JobKind::Rigid {
                    self.ckpt_tau(size)
                } else {
                    None
                };
                rigid_wall_time(est_rem, spec.setup, tau, self.cfg.ckpt.timeline_cost(size))
            }
        }
    }

    /// [`CkptConfig::interval`] through the per-size memo (see
    /// [`Self::tau_memo`]).
    pub(super) fn ckpt_tau(&self, size: u32) -> Option<SimDuration> {
        let mut memo = self.tau_memo.borrow_mut();
        let i = size as usize;
        if memo.len() <= i {
            memo.resize(i + 1, None);
        }
        *memo[i].get_or_insert_with(|| self.cfg.ckpt.interval(size))
    }

    /// Scheduler-estimated completion of a *running or draining* job.
    pub(super) fn expected_end(&self, j: JobId, now: SimTime) -> SimTime {
        let (st, spec) = self.table.state_spec(j);
        Self::expected_end_of(spec, st, now)
    }

    /// [`Self::expected_end`] on already-resolved state (the shadow
    /// projection resolves each running job once for its status check and
    /// reuses the refs here).
    pub(super) fn expected_end_of(spec: &JobSpec, st: &JobState, now: SimTime) -> SimTime {
        if let Some(until) = st.drain_until {
            return until;
        }
        let run = st.run.as_ref().expect("expected_end of non-running job");
        match spec.kind {
            JobKind::Malleable => {
                let est_total_ns = spec.estimate.as_secs() * u64::from(spec.size);
                let done_now = spec.work_node_seconds().saturating_sub(st.remaining_ns)
                    + malleable_progress_ns(run, now);
                let rem = est_total_ns.saturating_sub(done_now).max(1);
                let from = now.max(run.setup_end);
                from + SimDuration::from_secs(rem.div_ceil(u64::from(run.size.max(1))))
            }
            _ => {
                let est_at_start = {
                    let done_before = spec.work.saturating_sub(run.work_at_start);
                    spec.estimate
                        .saturating_sub(done_before)
                        .max(SimDuration::SECOND)
                };
                run.start + rigid_wall_time(est_at_start, spec.setup, run.tau, run.delta)
            }
        }
    }

    // ------------------------------------------------------------------
    // Run lifecycle
    // ------------------------------------------------------------------

    /// Start `j` on `size` nodes. `backfill` selects the allocation path
    /// (possibly squatting on notice-phase reservations). Returns false if
    /// allocation failed (caller logic error — checked upstream).
    pub(super) fn start_job(
        &mut self,
        j: JobId,
        size: u32,
        backfill: bool,
        now: SimTime,
        q: &mut EventQueue<Ev>,
    ) -> bool {
        let spec = self.spec(j).clone();
        debug_assert!(size >= spec.min_size && size <= spec.size);
        let own_reserved = self.cluster.reserved_idle_count(j);
        let ok = if !backfill || own_reserved > 0 || !self.cfg.backfill_on_reserved {
            self.cluster.try_allocate_with_reserved(j, size)
        } else {
            let table = &self.table;
            self.cluster
                .try_allocate_backfill(j, size, &mut |h| table.squattable(h))
                .is_some()
        };
        if !ok {
            return false;
        }
        // Leftover private reservation returns to the pool.
        if self.cluster.reserved_idle_count(j) > 0 {
            self.cluster.release_reservation(j);
        }
        if self.track_shards {
            if let Some(s) = self.cluster.shard_of(j) {
                self.shard_starts[s] += 1;
            }
        }
        let (tau, delta) = if spec.kind == JobKind::Rigid {
            (self.ckpt_tau(size), self.cfg.ckpt.timeline_cost(size))
        } else {
            (None, self.cfg.ckpt.timeline_cost(size))
        };
        if spec.class == JobClass::Capability {
            self.cap_running += 1;
        }
        if spec.kind == JobKind::OnDemand {
            self.remove_claim(j);
        }
        let st = self.st_mut(j);
        st.status = Status::Running;
        st.at_front = false;
        st.cur_size = size;
        let evicted = st.evicted_at.take();
        let epoch = st.bump_epoch();
        let remaining_work = st.remaining_work;
        let remaining_ns = st.remaining_ns;
        st.run = Some(Run {
            start: now,
            size,
            setup_end: now + spec.setup,
            occ_anchor: now,
            work_anchor: now + spec.setup,
            tau,
            delta,
            work_at_start: remaining_work,
        });
        self.track_release(j);
        self.note(now, j, TimelineEvent::Started { size });
        self.note_outage_recovery(evicted, now);

        // Schedule completion (or a kill when the estimate is exceeded —
        // impossible for generated traces, possible for hand-built ones).
        match spec.kind {
            JobKind::Malleable => {
                let run = self.st(j).run.as_ref().expect("just set");
                let est_total_ns = spec.estimate.as_secs() * u64::from(spec.size);
                let done_ns = spec.work_node_seconds().saturating_sub(remaining_ns);
                let allowed_ns = est_total_ns.saturating_sub(done_ns);
                if remaining_ns <= allowed_ns {
                    let at = malleable_finish(run, remaining_ns);
                    q.schedule(at, Ev::Finish { job: j, epoch });
                } else {
                    let at = malleable_finish(run, allowed_ns);
                    q.schedule(at, Ev::Kill { job: j, epoch });
                }
            }
            _ => {
                let est_rem = self.est_remaining_work(j);
                if remaining_work <= est_rem {
                    let at = now + rigid_wall_time(remaining_work, spec.setup, tau, delta);
                    q.schedule(at, Ev::Finish { job: j, epoch });
                } else {
                    let at = now + rigid_wall_time(est_rem, spec.setup, tau, delta);
                    q.schedule(at, Ev::Kill { job: j, epoch });
                }
            }
        }
        self.schedule_failure(j, now, q);
        true
    }

    /// Draw a time-to-failure for the job's current run epoch and schedule
    /// the failure event (failure injection; no-op when disabled).
    pub(super) fn schedule_failure(&mut self, j: JobId, now: SimTime, q: &mut EventQueue<Ev>) {
        let st = self.st(j);
        let Some(run) = st.run.as_ref() else { return };
        if let Some(ttf) = time_to_failure(&self.cfg.failures, j, st.epoch, run.size) {
            q.schedule(
                now + ttf,
                Ev::Fail {
                    job: j,
                    epoch: st.epoch,
                },
            );
        }
    }

    /// Account occupancy for a running job up to `now`.
    pub(super) fn accrue_occupancy(&mut self, j: JobId, now: SimTime) {
        let Some((size, dur)) = ({
            let st = self.st_mut(j);
            st.run.as_mut().map(|run| {
                let dur = now.since(run.occ_anchor);
                run.occ_anchor = now;
                (run.size, dur)
            })
        }) else {
            return;
        };
        if !dur.is_zero() {
            self.add_occ(j, size, dur);
        }
    }

    /// Accrue a malleable run's work progress up to `now`.
    pub(super) fn accrue_malleable(&mut self, j: JobId, now: SimTime) {
        let st = self.st_mut(j);
        if let Some(run) = st.run.as_mut() {
            let progressed = malleable_progress_ns(run, now);
            st.remaining_ns = st.remaining_ns.saturating_sub(progressed);
            run.work_anchor = now.max(run.setup_end);
        }
    }

    /// A node failure interrupts the run: rigid (and on-demand) jobs fall
    /// back to their last checkpoint and resubmit; malleable jobs lose only
    /// their setup (finished tasks survive) and resubmit immediately.
    pub(super) fn fail_job(&mut self, j: JobId, now: SimTime, _q: &mut EventQueue<Ev>) {
        self.untrack_release(j);
        let spec = self.spec(j).clone();
        let size = self.st(j).run.as_ref().expect("running").size;
        self.accrue_occupancy(j, now);
        self.note(now, j, TimelineEvent::Failed);
        self.note_run_stopped(j);
        match spec.kind {
            JobKind::Malleable => {
                self.accrue_malleable(j, now);
                let st = self.st_mut(j);
                let run = st.run.take().expect("running");
                let setup_spent = now.since(run.start).min(spec.setup);
                st.status = Status::Waiting;
                st.cur_size = spec.size;
                st.bump_epoch();
                if !setup_spent.is_zero() {
                    self.rec.add_waste(size, setup_spent);
                }
                self.cluster.release(j);
                self.enqueue_waiting(j);
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
                // A failed on-demand job re-enters at the queue front; the
                // flag must be final before the enqueue so the index files
                // the job under the front class.
                st.at_front = spec.kind == JobKind::OnDemand;
                st.bump_epoch();
                let waste = now.since(run.start) - p.anchor_elapsed;
                if !waste.is_zero() {
                    self.rec.add_waste(size, waste);
                }
                self.cluster.release(j);
                if spec.kind == JobKind::OnDemand {
                    self.insert_claim(j, 0, now);
                }
                self.enqueue_waiting(j);
            }
        }
    }

    /// Complete a job: release nodes, settle leases if on-demand.
    pub(super) fn finish_job(
        &mut self,
        j: JobId,
        now: SimTime,
        killed: bool,
        q: &mut EventQueue<Ev>,
    ) {
        self.untrack_release(j);
        self.accrue_occupancy(j, now);
        self.note_run_stopped(j);
        let spec_kind = self.spec(j).kind;
        let st = self.st_mut(j);
        let run = st.run.take().expect("finishing job had a run");
        st.status = if killed {
            Status::Killed
        } else {
            Status::Finished
        };
        st.remaining_work = SimDuration::ZERO;
        st.remaining_ns = 0;
        st.bump_epoch();
        if killed {
            // A killed run contributed nothing that survives.
            self.rec.add_waste(run.size, now.since(run.start));
            self.note(now, j, TimelineEvent::Killed);
        } else {
            self.note(now, j, TimelineEvent::Finished);
        }
        self.cluster.release(j);
        self.leases.forget_lender(j);
        if spec_kind == JobKind::OnDemand {
            self.settle_leases(j, now, q);
            self.cluster.release_reservation(j);
        }
        // Terminal status reached and all bookkeeping settled: free the
        // arena slot so resident state stays O(active jobs).
        self.retire(j);
    }
}
