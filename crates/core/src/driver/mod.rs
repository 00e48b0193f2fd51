//! The trace-replay simulator: CQSim-style event loop binding the workload,
//! the cluster, the queue policy, EASY backfilling, and the six hybrid
//! mechanisms together.
//!
//! ## Layer map (see DESIGN.md §1–§3 for the full architecture)
//!
//! * `pump` — the one arrival pump: injects jobs in `(submit, id)` order
//!   as the event horizon reaches them, for batch replay (refilled from a
//!   [`JobSource`]) and the live [`SchedulerService`] alike.
//! * `events` — the [`Ev`] enum and the epoch-guarded dispatch loop.
//! * `alloc` — claims, the `offer_free_nodes` node-routing discipline,
//!   lease settling, and on-demand notice/arrival orchestration.
//! * `preempt` — preempt/shrink/expand/drain/checkpoint mechanics.
//! * `pass` — the FCFS + EASY scheduling pass, shadow computation, and
//!   backfill sizing.
//! * `core` — the slimmed [`SimCore`] state, estimates, run lifecycle —
//!   generic over [`hws_cluster::ClusterBackend`], so the same driver
//!   schedules a single [`hws_cluster::Cluster`] or a multi-shard
//!   [`hws_cluster::Federation`].
//! * [`hooks`] — the [`MechanismHooks`] extension point; the six paper
//!   mechanisms are `{N, CUA, CUP} × {PAA, SPAA}` compositions, and new
//!   mechanisms register via [`SimConfig::with_hooks`] without touching
//!   driver internals.

mod alloc;
mod core;
pub mod environment;
mod events;
pub mod hooks;
mod outage;
mod pass;
mod preempt;
mod pump;
mod service;
mod snapshot;
#[cfg(test)]
mod tests;
#[cfg(test)]
mod tests_hooks;
#[cfg(test)]
mod tests_snap;
mod waitq;

pub use self::core::SimCore;
pub use environment::{
    apply_knobs, config_for_knobs, Action, EnvSpec, Environment, EpisodeReport, Observation,
};
pub use events::Ev;
pub use hooks::{
    standard_composition, AdmissionView, ArrivalPlan, ArrivalPolicy, ArrivalView, CapabilityAware,
    CollectUntilArrival, CollectUntilPredicted, Composed, HooksHandle, IgnoreNotices,
    MechanismHooks, NoticeDecision, NoticePolicy, NoticeView, PredictionView, PreemptAtArrival,
    ShrinkThenPreempt,
};
pub use service::{replay_submission_log, CancelOutcome, JobStatus, SchedulerService, SubmitError};

use crate::config::{Mechanism, SimConfig};
use crate::timeline::{NoObserver, Observer};
use hws_cluster::{Cluster, ClusterBackend, Federation};
use hws_metrics::{ClassBreakdown, Metrics, OutageReport, ShardStat};
use hws_sim::{Engine, EngineStats, SimTime};
use hws_workload::{JobSource, MaterializedSource, Trace};

/// Result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    pub metrics: Metrics,
    pub engine: EngineStats,
    pub mechanism: Mechanism,
    /// Per-shard breakdown, present for federated runs only. Deliberately
    /// *outside* [`Metrics`] so the 1-shard-federation-vs-single-cluster
    /// metric comparison stays bitwise meaningful.
    pub shards: Option<Vec<ShardStat>>,
    /// Capability/capacity breakdown, present only when the trace carried
    /// capability-class jobs. Outside [`Metrics`] for the same reason as
    /// `shards`: zero-capability runs must compare bitwise against the
    /// two-class path.
    pub classes: Option<ClassBreakdown>,
    /// Outage accounting, present only when schedule events actually
    /// applied — outside [`Metrics`] (like `shards`/`classes`) so runs
    /// with no or empty schedules compare bitwise against outage-free
    /// builds.
    pub outages: Option<OutageReport>,
    /// High-water mark of co-resident jobs in the driver's arena — the
    /// O(active) memory claim, measured. For materialized replays this is
    /// still the *live window*, not the trace length: arrivals are
    /// injected lazily and retired jobs leave the arena.
    pub peak_resident_jobs: usize,
    /// Total jobs admitted over the run (equals the trace length).
    pub admitted_jobs: u64,
}

/// Fold a drained engine into the run's [`SimOutcome`], returned beside
/// its observer: the one place batch replay and
/// [`SchedulerService::into_outcome`] report through.
fn finish<B: ClusterBackend, O: Observer>(engine: Engine<SimCore<B, O>>) -> (SimOutcome, O) {
    let stats = engine.stats();
    let core = engine.into_sim();
    let outcome = SimOutcome {
        metrics: Metrics::compute(&core.rec),
        engine: stats,
        mechanism: core.cfg.mechanism,
        shards: core.shard_report(),
        classes: Some(ClassBreakdown::compute(&core.rec)).filter(ClassBreakdown::has_capability),
        outages: core.outage_report(),
        peak_resident_jobs: core.jobs().peak_live(),
        admitted_jobs: core.jobs().admitted(),
    };
    (outcome, core.obs)
}

/// Public façade: configure once, replay traces.
pub struct Simulator;

impl Simulator {
    /// Replay `trace` under `cfg` and report the §IV-D metrics. Runs on a
    /// single cluster, or — when `cfg.federation` is set — on a
    /// federation of shards at the same total capacity. Arrivals are
    /// injected as virtual time reaches them and each job's record folds
    /// into the metrics once it and every earlier submission have
    /// retired, so resident state is the live window, not the trace.
    pub fn run_trace(cfg: &SimConfig, trace: &Trace) -> SimOutcome {
        Self::run_source(cfg, MaterializedSource::new(trace))
    }

    /// Replay a streaming [`JobSource`] under `cfg`, on a single cluster
    /// or a federation: [`Simulator::run_trace`]'s path, pulling jobs
    /// from the source as virtual time advances, so a replay never holds
    /// more than its live window.
    ///
    /// Produces **bitwise-identical** results to [`Simulator::run_trace`]
    /// over the materialized equivalent of the same source.
    pub fn run_source<S: JobSource>(cfg: &SimConfig, source: S) -> SimOutcome {
        Self::run_observed(cfg, source, NoObserver).0
    }

    /// [`Simulator::run_source`] with every job transition also reported
    /// to `obs` (a [`Timeline`](crate::Timeline), say), which comes back
    /// beside the outcome. The outcome is bitwise the unobserved run's.
    pub fn run_observed<S: JobSource, O: Observer>(
        cfg: &SimConfig,
        source: S,
        obs: O,
    ) -> (SimOutcome, O) {
        let system_size = source.system_size();
        match &cfg.federation {
            None => Self::run_core(
                SimCore::with_backend(cfg.clone(), Cluster::new(system_size), obs),
                source,
            ),
            Some(fed) => Self::run_core(
                SimCore::with_backend(cfg.clone(), Federation::new(fed, system_size), obs),
                source,
            ),
        }
    }

    /// Drive the source through the arrival pump ([`pump`]) until the
    /// last event.
    fn run_core<B: ClusterBackend, S: JobSource, O: Observer>(
        core: SimCore<B, O>,
        source: S,
    ) -> (SimOutcome, O) {
        let mut engine = Engine::new(core);
        outage::seed_outages(&mut engine);
        pump::pump(
            &mut engine,
            &mut pump::Arrivals::default(),
            SimTime::MAX,
            true,
            pump::source_feed(source),
            |_| false,
        );
        finish(engine)
    }

    /// Generate one trace per seed with `make_trace(seed)` and replay each
    /// under `cfg`, fanning the runs across CPU cores with scoped threads.
    /// Returns one outcome per seed, in seed order.
    ///
    /// Every run is an independent simulation over its own trace, so the
    /// per-seed metrics are **bitwise identical** to sequential
    /// [`Simulator::run_trace`] calls, provided the factory is a pure
    /// function of the seed — the synthetic generator, SWF replays,
    /// recorded CSV traces. The figure/table binaries in `hws-bench` route
    /// through this entry point.
    pub fn run_sweep_with<F>(cfg: &SimConfig, seeds: &[u64], make_trace: F) -> Vec<SimOutcome>
    where
        F: Fn(u64) -> Trace + Sync,
    {
        hws_sim::par_map(seeds.len(), |i| {
            let trace = make_trace(seeds[i]);
            Simulator::run_trace(cfg, &trace)
        })
    }
}
