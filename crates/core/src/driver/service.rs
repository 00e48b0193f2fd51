//! Live scheduler service: incremental submit/cancel/query against a
//! long-lived simulation, with snapshot/restore and what-if forecasting.
//!
//! [`Simulator::run_trace`](super::Simulator::run_trace) is a batch oracle:
//! it consumes a complete workload and returns once the last job retires.
//! [`SchedulerService`] is the same engine turned inside out — the caller
//! owns the clock. Jobs arrive one at a time through [`submit`], virtual
//! time advances only on [`step_until`]/[`step_before`], and in between
//! the caller may [`query`] any job, [`cancel`] one, [`snapshot`] the
//! whole simulation to bytes, [`fork`] it in memory, or forecast a job's
//! start under every mechanism with [`what_if`].
//!
//! ## Forks
//!
//! A [`fork`] is a clone of the live state under a new [`SimConfig`]:
//! what a [`restore`] of a fresh [`snapshot`] would build, without the
//! byte round trip. What-if forecasting forks six times per call; the
//! codec is left to checkpoints and persistence.
//!
//! ## Parity contract
//!
//! Replaying a [`SubmissionLog`] through the service (ops applied at
//! their timestamps, events stepped in between) produces **bitwise
//! identical** metrics to materializing the same log into a trace and
//! batch-replaying it — for every mechanism. Both run the same arrival
//! pump (`super::pump`): submissions are injected in ascending
//! `(submit, id)` order, and always before the event horizon reaches a
//! job's earliest event, so arrival-lane sequence numbers tie-break
//! same-instant events exactly as a pre-seeded run would.
//!
//! [`submit`]: SchedulerService::submit
//! [`query`]: SchedulerService::query
//! [`cancel`]: SchedulerService::cancel
//! [`step_until`]: SchedulerService::step_until
//! [`step_before`]: SchedulerService::step_before
//! [`snapshot`]: SchedulerService::snapshot
//! [`restore`]: SchedulerService::restore
//! [`fork`]: SchedulerService::fork
//! [`what_if`]: SchedulerService::what_if

use super::core::SimCore;
use super::pump::{pump, Arrivals};
use super::snapshot::{restore_engine, snapshot_engine};
use super::{finish, SimOutcome};
use crate::config::{Mechanism, SimConfig};
use crate::jobstate::Status;
use crate::timeline::NoObserver;
use hws_cluster::{Cluster, Federation, NodeId, SnapshotBackend};
use hws_sim::snap::{Snap, SnapError, SnapReader, SnapWriter, SortedIds};
use hws_sim::{Engine, SimTime};
use hws_workload::{earliest_event, JobId, JobSpec, LogEntry, SubmissionLog, SubmitOp};
use std::collections::{BTreeMap, BTreeSet};

/// Service snapshot format version (wraps the engine image).
const SERVICE_SNAP_VERSION: u8 = 1;

/// Externally visible lifecycle of a job, as reported by
/// [`SchedulerService::query`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Submitted to the service but not yet visible to the scheduler
    /// (virtual time has not reached its earliest event).
    Pending,
    /// Known through its advance notice; not yet arrived.
    Announced,
    /// In the wait queue.
    Waiting,
    Running,
    /// Malleable job inside its preemption warning.
    Draining,
    Finished,
    /// Terminated by the scheduler (exceeded estimate, or unrunnable).
    Killed,
    /// Withdrawn via [`SchedulerService::cancel`].
    Cancelled,
    /// Never submitted to this service.
    Unknown,
}

/// Result of a [`SchedulerService::cancel`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// Withdrawn before the scheduler ever saw the job; replaying the log
    /// without the job is bitwise-identical.
    Buffered,
    /// Withdrawn in flight (announced or waiting); reservations were
    /// released and the job retired without running.
    Cancelled,
    /// The job is running, draining, or already finished — nothing to
    /// withdraw.
    TooLate,
    /// Not a job this service knows (or already cancelled).
    Unknown,
}

/// Why a [`SchedulerService::submit`] was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The id was already used by an earlier submission (live, finished,
    /// or cancelled — ids are never reusable, so stale events can never
    /// strike a re-admitted job).
    DuplicateId(JobId),
    /// The job's earliest event (notice or submission) lies before the
    /// service's current virtual time.
    PastDue { earliest: SimTime, now: SimTime },
    /// Structurally invalid spec (zero size, `min_size > size`, …).
    InvalidSpec(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::DuplicateId(id) => write!(f, "duplicate job id {id}"),
            SubmitError::PastDue { earliest, now } => write!(
                f,
                "job's earliest event {earliest:?} is before service time {now:?}"
            ),
            SubmitError::InvalidSpec(what) => write!(f, "invalid job spec: {what}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A long-lived scheduling session over any snapshot-capable backend: a
/// single [`Cluster`] (the default) or a [`Federation`] of shards.
///
/// ```
/// use hws_core::{Mechanism, SchedulerService, SimConfig, JobStatus};
/// use hws_sim::{SimDuration, SimTime};
/// use hws_workload::job::JobSpecBuilder;
///
/// let cfg = SimConfig::with_mechanism(Mechanism::CUP_SPAA);
/// let mut svc = SchedulerService::new(cfg, 64);
///
/// let job = JobSpecBuilder::rigid(1)
///     .submit_at(SimTime::from_secs(10))
///     .size(8)
///     .work(SimDuration::from_secs(600))
///     .estimate(SimDuration::from_secs(900))
///     .build();
/// let id = svc.submit(job).unwrap();
/// assert_eq!(svc.query(id), JobStatus::Pending);
///
/// svc.step_until(SimTime::from_secs(20));
/// assert_eq!(svc.query(id), JobStatus::Running);
///
/// // Fork speculative futures: when would a 32-node job start under
/// // each of the six mechanisms? The live session is not perturbed.
/// let probe = JobSpecBuilder::rigid(2)
///     .submit_at(SimTime::from_secs(30))
///     .size(32)
///     .work(SimDuration::from_secs(60))
///     .build();
/// let forecast = svc.what_if(&probe).unwrap();
/// assert_eq!(forecast.len(), 6);
/// assert_eq!(svc.query(id), JobStatus::Running); // unchanged
/// ```
pub struct SchedulerService<B: SnapshotBackend = Cluster> {
    engine: Engine<SimCore<B>>,
    /// Submitted jobs the scheduler has not seen yet. Every buffered
    /// job's earliest event is `>=` the engine's delivery watermark
    /// (enforced at submit and maintained by the pump), so injection never
    /// violates the arrival lane's monotonicity.
    buffer: Arrivals,
    /// Jobs withdrawn via [`SchedulerService::cancel`].
    cancelled: BTreeSet<JobId>,
    /// Every id ever submitted (live, retired, or cancelled).
    seen: BTreeSet<JobId>,
}

impl SchedulerService<Cluster> {
    /// Open a session on a single cluster of `system_size` nodes.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.federation` is set — use
    /// [`SchedulerService::federated`] for sharded systems.
    pub fn new(cfg: SimConfig, system_size: u32) -> Self {
        assert!(
            cfg.federation.is_none(),
            "config carries a federation; use SchedulerService::federated"
        );
        let core = SimCore::new(cfg, system_size);
        Self::from_core(core)
    }
}

impl SchedulerService<Federation> {
    /// Open a session on a federation of shards (`cfg.federation` must be
    /// set). Jobs are registered with the placement policy as they are
    /// injected, exactly as in batch replay.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.federation` is `None`.
    pub fn federated(cfg: SimConfig, system_size: u32) -> Self {
        let fed = cfg
            .federation
            .clone()
            .expect("SchedulerService::federated needs cfg.federation");
        let backend = Federation::new(&fed, system_size);
        let core = SimCore::with_backend(cfg, backend, NoObserver);
        Self::from_core(core)
    }
}

impl<B: SnapshotBackend> SchedulerService<B> {
    fn from_core(core: SimCore<B>) -> Self {
        let mut engine = Engine::new(core);
        super::outage::seed_outages(&mut engine);
        SchedulerService {
            engine,
            buffer: Arrivals::default(),
            cancelled: BTreeSet::new(),
            seen: BTreeSet::new(),
        }
    }

    /// Current virtual time: the timestamp of the most recently delivered
    /// event (not the last `step_until` horizon — the clock only moves
    /// when events do, exactly like [`Engine::run_until`]).
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Jobs submitted but not yet visible to the scheduler.
    pub fn pending_jobs(&self) -> usize {
        self.buffer.len()
    }

    /// The active scheduling configuration.
    pub fn config(&self) -> &SimConfig {
        &self.engine.sim.cfg
    }

    /// Driver-internal mutable view of the simulation core: the
    /// `Environment` facade samples observations through it.
    pub(super) fn core_mut(&mut self) -> &mut SimCore<B> {
        &mut self.engine.sim
    }

    /// Whether any event is still pending in the engine queue (`&mut`:
    /// the queue compacts cancelled entries lazily on inspection).
    pub(super) fn events_pending(&mut self) -> bool {
        self.engine.queue.peek_time().is_some()
    }

    /// Hand a new job to the service. The scheduler sees it when virtual
    /// time reaches its earliest event (advance notice if it carries one,
    /// submission otherwise).
    ///
    /// # Errors
    ///
    /// [`SubmitError::DuplicateId`] for any id this service has ever
    /// seen, [`SubmitError::PastDue`] when the job's earliest event is
    /// already in the past, [`SubmitError::InvalidSpec`] for structural
    /// nonsense.
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobId, SubmitError> {
        let id = spec.id;
        if self.seen.contains(&id) {
            return Err(SubmitError::DuplicateId(id));
        }
        if spec.size == 0 {
            return Err(SubmitError::InvalidSpec("size 0".into()));
        }
        if spec.min_size == 0 || spec.min_size > spec.size {
            return Err(SubmitError::InvalidSpec(format!(
                "min_size {} outside [1, {}]",
                spec.min_size, spec.size
            )));
        }
        if let Some(n) = &spec.notice {
            if n.notice_time > spec.submit {
                return Err(SubmitError::InvalidSpec(
                    "notice after actual arrival".into(),
                ));
            }
        }
        let earliest = earliest_event(&spec);
        let now = self.engine.now();
        if earliest < now {
            return Err(SubmitError::PastDue { earliest, now });
        }
        self.seen.insert(id);
        self.buffer.push(spec);
        Ok(id)
    }

    /// Report a job's lifecycle stage. Never blocks or advances time.
    pub fn query(&self, id: JobId) -> JobStatus {
        if let Some(st) = self.engine.sim.jobs().get_state(id) {
            return match st.status {
                Status::Announced => JobStatus::Announced,
                Status::Waiting => JobStatus::Waiting,
                Status::Running => JobStatus::Running,
                Status::Draining => JobStatus::Draining,
                Status::Finished => JobStatus::Finished,
                Status::Killed => JobStatus::Killed,
            };
        }
        if self.buffer.iter().any(|s| s.id == id) {
            return JobStatus::Pending;
        }
        if self.cancelled.contains(&id) {
            return JobStatus::Cancelled;
        }
        // Seen, neither pending nor live nor cancelled: retired.
        if !self.seen.contains(&id) {
            JobStatus::Unknown
        } else if self.engine.sim.rec.was_killed(id) {
            JobStatus::Killed
        } else {
            JobStatus::Finished
        }
    }

    /// Withdraw a job.
    ///
    /// * Still buffered → removed outright; the run is bitwise-identical
    ///   to one where the job was never submitted.
    /// * Announced (notice phase) → its reservation is released and the
    ///   job retired, mirroring the reservation-timeout cleanup; its
    ///   pending arrival events die against the liveness guard.
    /// * Waiting → removed from the queue, recorded as killed.
    /// * Running / draining / finished → [`CancelOutcome::TooLate`].
    pub fn cancel(&mut self, id: JobId) -> CancelOutcome {
        if self.cancelled.contains(&id) {
            return CancelOutcome::Unknown;
        }
        if self.buffer.remove(id) {
            self.cancelled.insert(id);
            return CancelOutcome::Buffered;
        }
        let now = self.engine.now();
        let Engine { queue, sim, .. } = &mut self.engine;
        match sim.jobs().get_state(id).map(|st| st.status) {
            Some(status @ (Status::Announced | Status::Waiting)) => {
                if status == Status::Waiting {
                    sim.kill_unstarted(id, now, queue);
                } else {
                    // Never submitted, so no record: the still-pending
                    // arrival-lane Submit (and Notice) die against the
                    // dispatch liveness guard.
                    sim.withdraw(id, queue);
                    sim.retire(id);
                }
                sim.offer_free_nodes(now);
                sim.request_pass(now, queue);
                self.cancelled.insert(id);
                CancelOutcome::Cancelled
            }
            Some(Status::Running | Status::Draining) => CancelOutcome::TooLate,
            // Live terminal states never persist past their event, so a
            // table hit can't be Finished/Killed; a seen job that is
            // neither pending, live nor cancelled has retired.
            Some(_) | None if self.seen.contains(&id) => CancelOutcome::TooLate,
            Some(_) | None => CancelOutcome::Unknown,
        }
    }

    /// Advance virtual time, delivering every event with `time <= t`
    /// (inclusive horizon, inherited verbatim from [`Engine::run_until`])
    /// and injecting buffered submissions as the horizon reaches them.
    /// Idempotent: a repeated call with the same `t` delivers nothing.
    pub fn step_until(&mut self, t: SimTime) {
        self.advance(t, true, |_| false);
    }

    /// Advance virtual time, delivering every event with `time < t`
    /// (exclusive horizon). This is the replay primitive: operations
    /// timestamped `t` apply after all strictly earlier events and before
    /// any event at `t`, matching the submission-log ordering contract.
    pub fn step_before(&mut self, t: SimTime) {
        self.advance(t, false, |_| false);
    }

    /// Deliver all remaining events (and buffered submissions) and fold
    /// the run into the same [`SimOutcome`] the batch driver reports.
    pub fn into_outcome(mut self) -> SimOutcome {
        self.advance(SimTime::MAX, true, |_| false);
        finish(self.engine).0
    }

    /// Run the shared arrival pump up to the horizon, or until `stop`
    /// answers `true` after an event; the service feeds the buffer only
    /// through [`SchedulerService::submit`].
    pub(super) fn advance(
        &mut self,
        horizon: SimTime,
        inclusive: bool,
        stop: impl FnMut(&SimCore<B>) -> bool,
    ) {
        pump(
            &mut self.engine,
            &mut self.buffer,
            horizon,
            inclusive,
            |_, _| {},
            stop,
        );
    }

    /// Serialize the entire session — engine, simulation state, buffered
    /// submissions, id history — into a standalone byte image. Restoring
    /// it (under the same config) and continuing is bitwise-identical to
    /// never having paused.
    pub fn snapshot(&self) -> Vec<u8> {
        let engine_image = snapshot_engine(&self.engine);
        let mut w = SnapWriter::with_capacity(engine_image.len() + 1024);
        SERVICE_SNAP_VERSION.put(&mut w);
        engine_image.put(&mut w);
        // The buffered specs in buffer order, as a `Vec<JobSpec>`.
        self.buffer.len().put(&mut w);
        self.buffer.iter().for_each(|spec| spec.put(&mut w));
        self.cancelled.put_sorted(&mut w);
        self.seen.put_sorted(&mut w);
        w.into_bytes()
    }

    /// Rebuild a session from [`SchedulerService::snapshot`] bytes.
    ///
    /// `cfg` is the scheduling configuration to resume under (normally
    /// the one the snapshot was taken with; a different *mechanism* is
    /// legal, as for [`SchedulerService::fork`]), and `ctx` the backend's
    /// reconstruction context (`()` for a single cluster, the federation
    /// config for shards).
    ///
    /// # Errors
    ///
    /// Corrupted, truncated, or version-skewed bytes — never panics on
    /// malformed input.
    pub fn restore(bytes: &[u8], cfg: &SimConfig, ctx: B::Ctx) -> Result<Self, SnapError> {
        let mut r = SnapReader::new(bytes);
        let version = r.get_u8()?;
        if version != SERVICE_SNAP_VERSION {
            return Err(r.err(format!(
                "service snapshot version {version} (this build reads {SERVICE_SNAP_VERSION})"
            )));
        }
        let engine_image = r.get_bytes()?;
        let engine = restore_engine::<B>(engine_image, cfg, &ctx)?;
        let specs: Vec<JobSpec> = Snap::get(&mut r)?;
        let cancelled = SortedIds::get_sorted(&mut r, "cancelled")?;
        let seen: BTreeSet<JobId> = SortedIds::get_sorted(&mut r, "seen")?;
        r.expect_end()?;
        let mut buffer = Arrivals::default();
        for spec in specs {
            let id = spec.id;
            if !seen.contains(&id) {
                return Err(r.err(format!("buffered job {id} missing from id history")));
            }
            if !buffer.push(spec) {
                return Err(r.err(format!("duplicate buffered job {id}")));
            }
        }
        Ok(SchedulerService {
            engine,
            buffer,
            cancelled,
            seen,
        })
    }

    /// Fork the session in memory: an independent copy that continues
    /// under `cfg`; stepping either copy never changes the other. It is what
    /// [`SchedulerService::restore`] of a fresh
    /// [`SchedulerService::snapshot`] would build — bitwise, now and after
    /// any continuation — at the cost of a clone instead of an encode and
    /// a decode.
    ///
    /// `cfg` follows restore's rule: it describes the same system as the
    /// live configuration (federation, outage schedule), and may change
    /// the mechanism, the hooks and the scheduling knobs. The backend and
    /// the outage state are cloned, not rebuilt from `cfg`. Under
    /// `cfg.paranoid_checks` the fork runs the per-event invariant checks
    /// once (restore's decoder checks the cluster on every decode).
    pub fn fork(&self, cfg: &SimConfig) -> Self {
        let mut fork = SchedulerService {
            engine: self.engine.clone(),
            buffer: self.buffer.clone(),
            cancelled: self.cancelled.clone(),
            seen: self.seen.clone(),
        };
        fork.reconfigure(cfg);
        fork
    }

    /// Continue this session under `cfg`, with [`SchedulerService::fork`]'s
    /// rule for what `cfg` may change: the one way a live session's
    /// configuration changes (a fork, an `Environment` action). Jobs
    /// injected from now on get the new hooks' notice rule; jobs already
    /// injected keep their treatment.
    pub(super) fn reconfigure(&mut self, cfg: &SimConfig) {
        self.engine.sim.reconfigure(cfg);
        if cfg.paranoid_checks {
            self.engine.sim.check_paranoid();
        }
    }

    /// Forecast a hypothetical job's first start under each of the six
    /// hybrid mechanisms, without perturbing the live session.
    ///
    /// Each fork is a [`SchedulerService::fork`] under one mechanism; it
    /// submits `probe` and runs until the probe starts or retires
    /// without starting (or nothing is left to deliver). A first start is
    /// written once and never moves, so the answer is bitwise the one a
    /// drain to completion would give. The map holds the probe's first
    /// start per mechanism (a mechanism is absent when the probe never
    /// starts there, e.g. it exceeds every shard). Already
    /// in-flight jobs keep whatever treatment the live mechanism gave
    /// them — the forecast answers "what if the mechanism changed *now*",
    /// not "what if history were different".
    ///
    /// # Errors
    ///
    /// The same validations as [`SchedulerService::submit`] (the probe
    /// must be submittable right now).
    pub fn what_if(&self, probe: &JobSpec) -> Result<BTreeMap<Mechanism, SimTime>, SubmitError> {
        let mut forecast = BTreeMap::new();
        for m in Mechanism::ALL_SIX {
            let cfg = SimConfig {
                mechanism: m,
                hooks: None,
                ..self.engine.sim.cfg.clone()
            };
            let mut fork = self.fork(&cfg);
            fork.submit(probe.clone())?;
            let id = probe.id;
            // A started probe has its answer, read while it is still live;
            // a probe killed without a start never gets one.
            let mut start = None;
            fork.advance(SimTime::MAX, true, |sim| {
                start = sim.rec.get(id).and_then(|r| r.first_start);
                start.is_some() || sim.rec.was_killed(id)
            });
            if let Some(start) = start {
                forecast.insert(m, start);
            }
        }
        Ok(forecast)
    }

    /// Apply one submission-log entry: step to just before `entry.at`,
    /// then perform the operation (ops at `t` precede events at `t`).
    ///
    /// # Errors
    ///
    /// A rejected submission ([`SubmitError`]); cancels never fail (their
    /// outcome is returned in `Ok`).
    pub fn apply(&mut self, entry: &LogEntry) -> Result<Option<CancelOutcome>, SubmitError> {
        self.step_before(entry.at);
        match &entry.op {
            SubmitOp::Submit(spec) => {
                self.submit(spec.clone())?;
                Ok(None)
            }
            SubmitOp::Cancel(id) => Ok(Some(self.cancel(*id))),
        }
    }

    // ------------------------------------------------------------------
    // Capacity administration (outage extension)
    // ------------------------------------------------------------------

    /// Gracefully drain one node: it leaves service the moment it is idle
    /// (immediately when free, at release otherwise). No job is evicted.
    /// Returns `true` when the node is down after the call; `false` for a
    /// still-occupied (now marked) node or an out-of-range address.
    ///
    /// Admin ops act at the current virtual time and are part of the
    /// session's deterministic history: the same call sequence at the
    /// same times replays bitwise. They work with or without an outage
    /// schedule (capacity changed here is accounted in the outage report
    /// only when a schedule is active).
    pub fn drain_node(&mut self, shard: usize, node: u32) -> bool {
        let now = self.engine.now();
        let Engine { queue, sim, .. } = &mut self.engine;
        if shard >= sim.cluster.shard_count() || node >= sim.cluster.shard_nodes(shard) {
            return false;
        }
        sim.accrue_outage(now);
        let down = sim.cluster.drain_node(shard, NodeId(node));
        sim.request_pass(now, queue);
        down
    }

    /// Gracefully drain every node of a shard (rolling maintenance:
    /// the shard leaves the federation as its jobs finish). Returns the
    /// number of nodes already down after the call.
    pub fn drain_shard(&mut self, shard: usize) -> u32 {
        let now = self.engine.now();
        let Engine { queue, sim, .. } = &mut self.engine;
        if shard >= sim.cluster.shard_count() {
            return 0;
        }
        sim.accrue_outage(now);
        let mut down = 0;
        for n in 0..sim.cluster.shard_nodes(shard) {
            if sim.cluster.drain_node(shard, NodeId(n)) {
                down += 1;
            }
        }
        sim.request_pass(now, queue);
        down
    }

    /// Return a down node to service (or cancel its pending drain mark).
    /// Returns `true` when anything changed.
    pub fn rejoin_node(&mut self, shard: usize, node: u32) -> bool {
        let now = self.engine.now();
        let Engine { queue, sim, .. } = &mut self.engine;
        if shard >= sim.cluster.shard_count() || node >= sim.cluster.shard_nodes(shard) {
            return false;
        }
        sim.accrue_outage(now);
        let changed = sim.cluster.rejoin_node(shard, NodeId(node));
        if changed {
            sim.offer_free_nodes(now);
            sim.request_pass(now, queue);
        }
        changed
    }

    /// Rejoin every node of a shard. Returns the number of nodes whose
    /// state changed (down → free, or drain mark cleared).
    pub fn rejoin_shard(&mut self, shard: usize) -> u32 {
        let now = self.engine.now();
        let Engine { queue, sim, .. } = &mut self.engine;
        if shard >= sim.cluster.shard_count() {
            return 0;
        }
        sim.accrue_outage(now);
        let mut changed = 0;
        for n in 0..sim.cluster.shard_nodes(shard) {
            if sim.cluster.rejoin_node(shard, NodeId(n)) {
                changed += 1;
            }
        }
        if changed > 0 {
            sim.offer_free_nodes(now);
            sim.request_pass(now, queue);
        }
        changed
    }

    /// Nodes currently out of service across all shards.
    pub fn down_nodes(&self) -> u32 {
        self.engine.sim.cluster.down_nodes()
    }

    /// Nodes currently in service across all shards.
    pub fn live_nodes(&self) -> u32 {
        self.engine.sim.cluster.live_nodes()
    }
}

/// Replay a full [`SubmissionLog`] through a fresh [`SchedulerService`]
/// (single-cluster or federated per `cfg.federation`) and fold the run
/// into a [`SimOutcome`] — the incremental counterpart of materializing
/// the log and calling [`Simulator::run_trace`](super::Simulator::run_trace),
/// with bitwise-identical metrics.
///
/// # Errors
///
/// A log entry the service rejects (duplicate id, past-due submission).
pub fn replay_submission_log(cfg: &SimConfig, log: &SubmissionLog) -> Result<SimOutcome, String> {
    fn drive<B: SnapshotBackend>(
        svc: &mut SchedulerService<B>,
        log: &SubmissionLog,
    ) -> Result<(), String> {
        for (i, entry) in log.entries().iter().enumerate() {
            svc.apply(entry)
                .map_err(|e| format!("log entry {i}: {e}"))?;
        }
        Ok(())
    }
    match &cfg.federation {
        None => {
            let mut svc = SchedulerService::new(cfg.clone(), log.system_size());
            drive(&mut svc, log)?;
            Ok(svc.into_outcome())
        }
        Some(_) => {
            let mut svc = SchedulerService::<Federation>::federated(cfg.clone(), log.system_size());
            drive(&mut svc, log)?;
            Ok(svc.into_outcome())
        }
    }
}
