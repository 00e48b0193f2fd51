//! # hybrid-workload-sched
//!
//! A faithful, from-scratch Rust reproduction of **"Hybrid Workload
//! Scheduling on HPC Systems"** (Fan, Lan, Rich, Allcock, Papka —
//! IPDPS 2022, arXiv:2109.05412): six mechanisms for co-scheduling
//! **on-demand**, **rigid**, and **malleable** jobs on a single HPC
//! machine, evaluated with a CQSim-style trace-driven simulator.
//!
//! ## The six mechanisms
//!
//! A mechanism pairs a strategy for an on-demand job's **advance notice**
//! with one for its **actual arrival**:
//!
//! | notice ↓ / arrival → | PAA (preempt at arrival) | SPAA (shrink first) |
//! |---|---|---|
//! | **N** — ignore notices | `N&PAA` | `N&SPAA` |
//! | **CUA** — collect released nodes until arrival | `CUA&PAA` | `CUA&SPAA` |
//! | **CUP** — collect + plan preemptions for the predicted arrival | `CUP&PAA` | `CUP&SPAA` |
//!
//! ## Quickstart
//!
//! ```
//! use hybrid_workload_sched::prelude::*;
//!
//! // A scaled-down Theta-like workload (deterministic in the seed).
//! let trace = TraceConfig::small().generate(42);
//!
//! // Schedule it with CUA&SPAA and compare against the plain
//! // FCFS/EASY baseline.
//! let hybrid = Simulator::run_trace(&SimConfig::with_mechanism(Mechanism::CUA_SPAA), &trace);
//! let baseline = Simulator::run_trace(&SimConfig::baseline(), &trace);
//!
//! // On-demand jobs start (almost) instantly under the hybrid mechanism.
//! assert!(hybrid.metrics.instant_start_rate >= baseline.metrics.instant_start_rate);
//! println!("{}", hybrid.metrics.one_line());
//! ```
//!
//! ## Crate map
//!
//! * [`hws_sim`] — discrete-event simulation kernel (clock, cancellable
//!   event queue, engine).
//! * [`hws_cluster`] — resource manager substrate: node states,
//!   reservations, backfill squatting, shrink/expand, lease ledger.
//! * [`hws_workload`] — job model and the calibrated synthetic Theta
//!   trace generator (the real 2019 trace is proprietary; see DESIGN.md §4).
//! * [`hws_core`] — queue policies, EASY backfilling, the six mechanisms
//!   as [`hws_core::MechanismHooks`] compositions, and the layered
//!   trace-replay driver (DESIGN.md §2–§3).
//! * [`hws_metrics`] — the paper's §IV-D metrics and cross-seed averaging.
//! * [`hws_search`] — deterministic black-box policy search (grid and
//!   tournament tuners over mechanism/knob vectors) on top of the
//!   [`hws_core::Environment`] facade (DESIGN.md §16).
//!
//! Every table and figure of the paper regenerates from one `hws-bench`
//! binary (`cargo run -p hws-bench --bin paper --release`), which fans
//! seeds across cores via [`hws_core::Simulator::run_sweep_with`]; DESIGN.md §7
//! describes the sweep/bench plumbing and the recorded latency baseline
//! (`BENCH_decision_latency.json`).

pub use hws_cluster;
pub use hws_core;
pub use hws_metrics;
pub use hws_search;
pub use hws_sim;
pub use hws_workload;

/// Everything needed for typical use.
pub mod prelude {
    pub use hws_cluster::{
        ClassAffinity, Cluster, ClusterBackend, Federation, FederationConfig, FirstFit,
        LeaseLedger, LeastLoaded, NodeId, PlacementPolicy, ShardSpec,
    };
    pub use hws_core::{
        apply_knobs, config_for_knobs, replay_submission_log, Action, AdmissionView, ArrivalPlan,
        ArrivalPolicy, ArrivalStrategy, ArrivalView, CancelOutcome, CapabilityAware, CkptConfig,
        CollectUntilArrival, CollectUntilPredicted, Composed, EnvSpec, Environment, EpisodeReport,
        IgnoreNotices, JobStatus, Mechanism, MechanismHooks, NoticeDecision, NoticePolicy,
        NoticeStrategy, NoticeView, Observation, PolicyKind, PredictionView, PreemptAtArrival,
        SchedulerService, ShrinkStrategy, ShrinkThenPreempt, SimConfig, SimOutcome, Simulator,
        SubmitError, VictimOrder,
    };
    pub use hws_metrics::{
        ClassBreakdown, ClassStats, Metrics, MetricsAvg, Recorder, RewardSpec, ShardStat,
        ShardTotals, Table,
    };
    pub use hws_search::{
        grid_search, tournament_search, Candidate, Leaderboard, SearchConfig, SearchSpace,
        TournamentConfig,
    };
    pub use hws_sim::{SimDuration, SimTime};
    pub use hws_workload::{
        job::JobSpecBuilder, BackfillLevel, JobClass, JobId, JobKind, JobSpec, KnobVector,
        LogEntry, NoticeCategory, NoticeMix, PlacementChoice, SubmissionLog, SubmitOp, Trace,
        TraceConfig,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_complete_workflow() {
        let trace = TraceConfig::tiny().generate(0);
        let out = Simulator::run_trace(&SimConfig::with_mechanism(Mechanism::N_PAA), &trace);
        assert!(out.metrics.completed_jobs > 0);
    }

    // The README "Live service mode" snippet, kept honest.
    #[test]
    fn prelude_exposes_the_live_service() {
        let mut svc = SchedulerService::new(SimConfig::with_mechanism(Mechanism::CUP_SPAA), 64);
        let spec = JobSpecBuilder::rigid(1)
            .submit_at(SimTime::from_secs(10))
            .size(32)
            .build();
        svc.submit(spec.clone()).unwrap();
        assert_eq!(svc.query(spec.id), JobStatus::Pending);
        svc.step_until(SimTime::from_secs(20));
        assert_eq!(svc.query(spec.id), JobStatus::Running);

        let probe = JobSpecBuilder::rigid(2)
            .submit_at(svc.now())
            .size(32)
            .build();
        let forecast = svc.what_if(&probe).unwrap();
        assert_eq!(forecast.len(), 6);
    }
}
