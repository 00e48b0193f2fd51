//! Outage injection: applying an [`OutageSchedule`] through the event
//! queue, recovery choreography for evicted residents, and degraded-mode
//! bookkeeping.
//!
//! ## Determinism
//!
//! The schedule is data ([`SimConfig::outages`]); [`seed_outages`] puts
//! exactly one [`Ev::Outage`] on the queue at run start and each handler
//! chains the next, so outage injection rides the same deterministic
//! dispatch order as every other event — replays, snapshots, and what-if
//! forks reproduce bitwise. With no schedule, [`SimCore::outage`] is
//! `None` and every hook below is a no-op behind one `Option` check: the
//! outage-free path stays bitwise identical to builds predating the
//! engine.
//!
//! ## Recovery semantics (one line per resident kind)
//!
//! * rigid / on-demand, running → checkpoint-restart via
//!   [`SimCore::fail_job`] (on-demand re-enters at the queue front);
//! * malleable, running, above `min_size` → targeted shrink-away from the
//!   lost node (no eviction, one node of progress-free loss);
//! * malleable, running, at `min_size` → setup-loss restart (also
//!   [`SimCore::fail_job`]);
//! * malleable, draining → the interrupted warning window is waste; the
//!   job resubmits immediately;
//! * idle reserved node → pulled from its holder's reservation; a
//!   notice-phase holder re-registers its collector.
//!
//! [`OutageSchedule`]: hws_workload::OutageSchedule
//! [`SimConfig::outages`]: crate::config::SimConfig::outages

use super::core::SimCore;
use super::events::Ev;
use crate::jobstate::Status;
use crate::timeline::{Observer, TimelineEvent};
use hws_cluster::{ClusterBackend, NodeId, NodeState};
use hws_metrics::OutageReport;
use hws_sim::{Engine, EventQueue, SimTime};
use hws_workload::{JobId, JobKind, OutageKind};

/// Mutable outage bookkeeping, present exactly when the run carries a
/// schedule. Lost capacity is accounted as an exact integral: the down
/// count only changes inside event dispatch, so accruing
/// `down × Δt` at every event entry ([`SimCore::accrue_outage`]) sums the
/// true step function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(super) struct OutageState {
    /// Schedule events applied so far (the injection chain's cursor is
    /// carried by the queued [`Ev::Outage`] itself; this drives the
    /// horizon test and the report).
    pub(super) applied: u32,
    pub(super) downs: u64,
    pub(super) drains: u64,
    pub(super) rejoins: u64,
    pub(super) interrupted_jobs: u64,
    pub(super) shrunk_jobs: u64,
    pub(super) infeasible_killed: u64,
    pub(super) lost_node_seconds: u128,
    pub(super) degraded_wall_seconds: u64,
    pub(super) last_accrual: SimTime,
    /// Restarts of jobs a hard down evicted, and their summed latency.
    /// The eviction instant itself lives in the job's slot
    /// ([`JobState::evicted_at`](crate::jobstate::JobState::evicted_at)),
    /// so a job retired mid-recovery (cancelled, swept as infeasible)
    /// takes its open window with it.
    pub(super) recoveries: u64,
    pub(super) recovery_latency_total: u64,
}

impl OutageState {
    /// Restore-side bounds on the decoded counters. Each is an invariant
    /// of every state a run reaches, so a valid image passes, and each
    /// caps what a later `+=` starts from:
    ///
    /// * `applied` is at most the restore schedule's length;
    /// * the node counters (`downs`, `drains`, `rejoins`, and
    ///   `interrupted_jobs`, `shrunk_jobs`, `recoveries`, each at most
    ///   `downs`) are at most `applied × nodes` — one per node of an
    ///   applied event — so they end at most `len × nodes < 2⁶⁴`;
    /// * `infeasible_killed` is at most the jobs ever admitted, one kill
    ///   per job;
    /// * `last_accrual` is not past the clock, `degraded_wall_seconds` is
    ///   at most `last_accrual` (disjoint spans before it, so it ends
    ///   within the clock), and `recovery_latency_total` is at most
    ///   `recoveries × last_accrual` (each recovery adds at most the
    ///   clock).
    pub(super) fn check_counts(
        &self,
        schedule_len: usize,
        nodes: u32,
        admitted: u64,
        now: SimTime,
    ) -> Result<(), String> {
        if self.applied as usize > schedule_len {
            return Err(format!(
                "{} outage events applied of a {schedule_len}-event schedule",
                self.applied
            ));
        }
        let per_node = u128::from(self.applied) * u128::from(nodes);
        let node_counts = [
            self.downs,
            self.drains,
            self.rejoins,
            self.interrupted_jobs,
            self.shrunk_jobs,
            self.recoveries,
        ];
        if node_counts.iter().any(|&n| u128::from(n) > per_node) {
            return Err(format!(
                "outage node counters {node_counts:?} exceed {} events over {nodes} nodes",
                self.applied
            ));
        }
        if self.infeasible_killed > admitted {
            return Err(format!(
                "{} infeasible kills of {admitted} admitted jobs",
                self.infeasible_killed
            ));
        }
        let last = self.last_accrual.as_secs();
        if self.last_accrual > now
            || self.degraded_wall_seconds > last
            || u128::from(self.recovery_latency_total)
                > u128::from(self.recoveries) * u128::from(last)
        {
            return Err(format!(
                "outage clock totals past the clock: last accrual {last} s at {}, \
                 {} degraded s, {} s over {} recoveries",
                now.as_secs(),
                self.degraded_wall_seconds,
                self.recovery_latency_total,
                self.recoveries
            ));
        }
        Ok(())
    }
}

/// Validate the configured schedule against the backend's shape and queue
/// the first injection event. Called once per fresh engine (batch run or
/// service session) — never on restore, where the pending chain rides the
/// queue snapshot.
///
/// # Panics
///
/// A schedule event addressing a shard or node the backend does not have.
pub(super) fn seed_outages<B: ClusterBackend, O: Observer>(engine: &mut Engine<SimCore<B, O>>) {
    let Some(schedule) = engine.sim.cfg.outages.as_ref() else {
        return;
    };
    let cluster = &engine.sim.cluster;
    for (i, e) in schedule.events().iter().enumerate() {
        let shard = e.shard as usize;
        assert!(
            shard < cluster.shard_count(),
            "outage event {i} addresses shard {shard}; backend has {} shard(s)",
            cluster.shard_count()
        );
        if let Some(n) = e.node {
            assert!(
                n < cluster.shard_nodes(shard),
                "outage event {i} addresses node {n} of shard {shard} ({} nodes)",
                cluster.shard_nodes(shard)
            );
        }
    }
    if let Some(first) = schedule.events().first() {
        let at = first.at;
        engine.queue.schedule(at, Ev::Outage { idx: 0 });
    }
}

impl<B: ClusterBackend, O: Observer> SimCore<B, O> {
    /// Accrue lost capacity up to `now`. Called at the entry of every
    /// event dispatch (and before service admin capacity changes), which
    /// makes the integral exact — the down count is constant between
    /// accrual points.
    pub(super) fn accrue_outage(&mut self, now: SimTime) {
        if self.outage.is_none() {
            return;
        }
        let down = self.cluster.down_nodes();
        let o = self.outage.as_mut().expect("just checked");
        let dt = now.since(o.last_accrual).as_secs();
        if dt > 0 {
            o.lost_node_seconds += u128::from(down) * u128::from(dt);
            if down > 0 {
                o.degraded_wall_seconds += dt;
            }
            o.last_accrual = now;
        }
    }

    /// Whether every scheduled outage event has been applied: after this
    /// point no rejoin is coming, so capacity lost now is lost for good
    /// and oversized waiting jobs are provably infeasible.
    pub(super) fn outage_horizon_passed(&self) -> bool {
        match (&self.outage, &self.cfg.outages) {
            (Some(o), Some(s)) => o.applied as usize == s.len(),
            _ => false,
        }
    }

    /// A job evicted at `evicted` (if at all) restarted: close its
    /// recovery-latency window.
    pub(super) fn note_outage_recovery(&mut self, evicted: Option<SimTime>, now: SimTime) {
        if let (Some(t), Some(o)) = (evicted, self.outage.as_mut()) {
            o.recovery_latency_total += now.since(t).as_secs();
            o.recoveries += 1;
        }
    }

    /// The run's outage report, present once any schedule event applied
    /// (an empty or not-yet-started schedule reports nothing, keeping
    /// no-outage outcomes structurally identical to outage-free builds).
    pub fn outage_report(&self) -> Option<OutageReport> {
        let o = self.outage.as_ref()?;
        if o.applied == 0 {
            return None;
        }
        Some(OutageReport {
            events_applied: o.applied,
            nodes_down: o.downs,
            nodes_drained: o.drains,
            nodes_rejoined: o.rejoins,
            interrupted_jobs: o.interrupted_jobs,
            shrunk_jobs: o.shrunk_jobs,
            infeasible_killed: o.infeasible_killed,
            lost_node_seconds: o.lost_node_seconds,
            degraded_wall_seconds: o.degraded_wall_seconds,
            recoveries: o.recoveries,
            recovery_latency_seconds: o.recovery_latency_total,
        })
    }

    /// Apply schedule event `idx` and chain the next one. Dispatched from
    /// [`Ev::Outage`].
    pub(super) fn apply_outage(&mut self, idx: u32, now: SimTime, q: &mut EventQueue<Ev>) {
        let (ev, next_at) = {
            let s = self
                .cfg
                .outages
                .as_ref()
                .expect("Ev::Outage without a schedule");
            (
                s.events()[idx as usize],
                s.events().get(idx as usize + 1).map(|e| e.at),
            )
        };
        debug_assert_eq!(ev.at, now, "outage event fired off schedule");
        let shard = ev.shard as usize;
        let targets = match ev.node {
            Some(n) => n..n + 1,
            None => 0..self.cluster.shard_nodes(shard),
        };
        match ev.kind {
            OutageKind::Drain => {
                for n in targets {
                    let id = NodeId(n);
                    match self.cluster.node_state(shard, id) {
                        Some(NodeState::Down) | None => {}
                        _ => {
                            let went_down = self.cluster.drain_node(shard, id);
                            let o = self.outage.as_mut().expect("outage run");
                            o.drains += 1;
                            if went_down {
                                o.downs += 1;
                            }
                        }
                    }
                }
            }
            OutageKind::Rejoin => {
                for n in targets {
                    let id = NodeId(n);
                    let was_down = self.cluster.node_state(shard, id) == Some(NodeState::Down);
                    if self.cluster.rejoin_node(shard, id) && was_down {
                        self.outage.as_mut().expect("outage run").rejoins += 1;
                    }
                }
            }
            OutageKind::Down => {
                for n in targets {
                    self.outage_down_node(shard, NodeId(n), now, q);
                }
            }
        }
        self.outage.as_mut().expect("outage run").applied += 1;
        if self.outage_horizon_passed() {
            self.sweep_infeasible(now, q);
        }
        if let Some(at) = next_at {
            q.schedule(at, Ev::Outage { idx: idx + 1 });
        }
        self.offer_free_nodes(now);
        self.request_pass(now, q);
    }

    /// Hard-down one node, evicting or shrinking away any resident. A
    /// whole-shard sweep self-heals: an evicted job's *other* nodes land
    /// in the free pool and later iterations take them down as free
    /// nodes.
    fn outage_down_node(&mut self, shard: usize, id: NodeId, now: SimTime, q: &mut EventQueue<Ev>) {
        let Some(state) = self.cluster.node_state(shard, id) else {
            return;
        };
        match state {
            NodeState::Down => {}
            NodeState::Free => {
                let went_down = self.cluster.drain_node(shard, id);
                debug_assert!(went_down, "free node downs immediately");
                self.outage.as_mut().expect("outage run").downs += 1;
            }
            NodeState::Reserved { holder } => {
                self.cluster.down_reserved_node(shard, holder, id);
                self.outage.as_mut().expect("outage run").downs += 1;
                self.reclaim_after_reservation_loss(holder);
            }
            NodeState::Busy { job } | NodeState::ReservedBusy { job, .. } => {
                let holder = match state {
                    NodeState::ReservedBusy { holder, .. } => Some(holder),
                    _ => None,
                };
                // Mark first: the node then converts to Down inside the
                // release choke instead of re-entering the free pool.
                self.cluster.drain_node(shard, id);
                self.evict_from_node(job, id, now, q);
                self.outage.as_mut().expect("outage run").downs += 1;
                if let Some(h) = holder {
                    self.reclaim_after_reservation_loss(h);
                }
            }
        }
    }

    /// A notice-phase holder lost a reserved node to an outage; if its
    /// collector was already satisfied (and therefore dropped), re-insert
    /// it so the holder collects a replacement. Arrived holders keep
    /// phase-0 claims until launch, so they never need this.
    fn reclaim_after_reservation_loss(&mut self, holder: JobId) {
        let (st, spec) = self.table.state_spec(holder);
        if let (Some(_), Some(n)) = (&st.notice, spec.notice) {
            if !self.claims.iter().any(|c| c.od == holder) {
                self.insert_claim(holder, 1, n.notice_time);
            }
        }
    }

    /// Evict (or shrink away) the resident of a failing node.
    fn evict_from_node(&mut self, job: JobId, id: NodeId, now: SimTime, q: &mut EventQueue<Ev>) {
        let status = self.st(job).status;
        match status {
            Status::Running => {
                let spec = self.spec(job);
                let cur = self.st(job).cur_size;
                if spec.kind == JobKind::Malleable && cur > spec.min_size && cur > 1 {
                    self.shrink_away(job, id, now, q);
                } else {
                    self.fail_job(job, now, q);
                    self.note_eviction(job, now);
                }
            }
            Status::Draining => {
                self.interrupt_drain(job, now);
                self.note_eviction(job, now);
            }
            other => unreachable!("node-resident job {job} in state {other:?}"),
        }
    }

    fn note_eviction(&mut self, job: JobId, now: SimTime) {
        self.outage.as_mut().expect("outage run").interrupted_jobs += 1;
        self.st_mut(job).evicted_at = Some(now);
    }

    /// Targeted malleable shrink: drop exactly the failing node and keep
    /// running — [`SimCore::shrink_job`] with node-precise release.
    fn shrink_away(&mut self, j: JobId, id: NodeId, now: SimTime, q: &mut EventQueue<Ev>) {
        self.untrack_release(j);
        self.accrue_occupancy(j, now);
        self.accrue_malleable(j, now);
        self.cluster.release_single_node(j, id);
        let st = self.st_mut(j);
        st.cur_size -= 1;
        st.owed_expansion += 1;
        let epoch = st.bump_epoch();
        let remaining_ns = st.remaining_ns;
        let run = st.run.as_mut().expect("running");
        run.size -= 1;
        let at = crate::jobstate::malleable_finish(run, remaining_ns);
        let (from, to) = (run.size + 1, run.size);
        self.track_release(j);
        q.schedule(at.max(now), Ev::Finish { job: j, epoch });
        self.note(now, j, TimelineEvent::Shrunk { from, to });
        self.schedule_failure(j, now, q);
        self.outage.as_mut().expect("outage run").shrunk_jobs += 1;
    }

    /// A hard down struck a malleable job mid-warning: the elapsed drain
    /// window is pure waste (occupied, zero progress) and the job
    /// resubmits immediately instead of at drain end. Its pending
    /// `DrainEnd` dies against the epoch bump.
    fn interrupt_drain(&mut self, j: JobId, now: SimTime) {
        self.untrack_release(j);
        let full_size = self.spec(j).size;
        self.accrue_occupancy(j, now);
        self.note(now, j, TimelineEvent::Failed);
        let warning = self.cfg.malleable_warning;
        let st = self.st_mut(j);
        let until = st.drain_until.take().expect("draining job has a deadline");
        let run = st.run.take().expect("draining holds a run");
        st.status = Status::Waiting;
        st.cur_size = full_size;
        st.bump_epoch();
        let elapsed = warning - until.since(now);
        if !elapsed.is_zero() {
            self.rec.add_waste(run.size, elapsed);
        }
        self.cluster.release(j);
        self.enqueue_waiting(j);
    }

    /// The horizon has passed: any waiting job larger than the biggest
    /// live shard can never start. Kill them now (degraded-mode contract:
    /// block while rejoins may come, die only once infeasibility is
    /// proven).
    pub(super) fn sweep_infeasible(&mut self, now: SimTime, q: &mut EventQueue<Ev>) {
        let cap = self.cluster.live_max_job_size();
        let doomed: Vec<JobId> = self
            .queue
            .ids()
            .filter(|&j| self.spec(j).size > cap)
            .collect();
        if doomed.is_empty() {
            return;
        }
        for j in doomed {
            self.outage.as_mut().expect("outage run").infeasible_killed += 1;
            self.kill_unstarted(j, now, q);
        }
        self.offer_free_nodes(now);
    }
}
