//! # hws-core — the hybrid workload scheduler
//!
//! The paper's primary contribution: six mechanisms for co-scheduling
//! on-demand, rigid, and malleable jobs on one HPC system, layered on top
//! of a conventional queue policy (FCFS + EASY backfilling).
//!
//! A mechanism pairs an **advance-notice strategy** with an **arrival
//! strategy** (§III-B):
//!
//! | | PAA (preempt at arrival) | SPAA (shrink, then preempt) |
//! |---|---|---|
//! | **N** (ignore notices) | `N&PAA` | `N&SPAA` |
//! | **CUA** (collect released nodes until actual arrival) | `CUA&PAA` | `CUA&SPAA` |
//! | **CUP** (collect + plan preemptions for the predicted arrival) | `CUP&PAA` | `CUP&SPAA` |
//!
//! The [`driver::Simulator`] replays a trace (from `hws-workload`) over the
//! event kernel (`hws-sim`) against the resource manager (`hws-cluster`)
//! and reports `hws-metrics` results. `SimConfig::baseline()` reproduces
//! the paper's Table II baseline (plain FCFS/EASY, no special treatment).
//!
//! ```
//! use hws_core::{SimConfig, Mechanism, Simulator};
//! use hws_workload::TraceConfig;
//!
//! let trace = TraceConfig::tiny().generate(1);
//! let cfg = SimConfig::with_mechanism(Mechanism::CUA_SPAA);
//! let outcome = Simulator::run_trace(&cfg, &trace);
//! assert!(outcome.metrics.utilization <= 1.0);
//! ```

pub mod backfill;
pub mod ckpt;
pub mod config;
#[cfg(feature = "count-allocs")]
pub mod counting_alloc;
pub mod driver;
pub mod failure;
pub mod jobstate;
pub mod jobtable;
pub mod mechanism;
pub mod policy;
pub mod timeline;

pub use ckpt::CkptConfig;
pub use config::{
    ArrivalStrategy, Mechanism, NoticeStrategy, ShrinkStrategy, SimConfig, VictimOrder,
};
pub use driver::{
    apply_knobs, config_for_knobs, replay_submission_log, standard_composition, Action,
    AdmissionView, ArrivalPlan, ArrivalPolicy, ArrivalView, CancelOutcome, CapabilityAware,
    CollectUntilArrival, CollectUntilPredicted, Composed, EnvSpec, Environment, EpisodeReport,
    HooksHandle, IgnoreNotices, JobStatus, MechanismHooks, NoticeDecision, NoticePolicy,
    NoticeView, Observation, PredictionView, PreemptAtArrival, SchedulerService, ShrinkThenPreempt,
    SimOutcome, Simulator, SubmitError,
};
pub use failure::FailureConfig;
pub use jobtable::JobTable;
pub use policy::PolicyKind;
pub use timeline::{NoObserver, Observer, Timeline, TimelineEvent};
