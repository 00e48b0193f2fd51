//! Scheduler configuration: the mechanism matrix and all model constants.

use crate::ckpt::CkptConfig;
use crate::driver::{HooksHandle, MechanismHooks};
use crate::failure::FailureConfig;
use crate::policy::PolicyKind;
use hws_cluster::FederationConfig;
use hws_sim::SimDuration;
use hws_workload::OutageSchedule;
use std::fmt;

/// What the scheduler does when an on-demand advance notice arrives
/// (§III-B1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NoticeStrategy {
    /// "Do nothing (N)" — ignore notices, handle everything at arrival.
    None,
    /// "Collect-until-actual-arrival (CUA)" — reserve free nodes at notice
    /// time, then collect nodes released by finishing jobs until the
    /// request is fulfilled or the job arrives.
    Cua,
    /// "Collect-until-predicted-arrival (CUP)" — like CUA, but additionally
    /// plans preemptions so the full allocation is ready at the predicted
    /// arrival: rigid victims are preempted right after their next
    /// checkpoint, malleable victims just before the predicted arrival.
    Cup,
}

/// What the scheduler does when an on-demand job actually arrives and the
/// reserved + free nodes are insufficient (§III-B2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ArrivalStrategy {
    /// "Preempt-at-actual-arrival (PAA)" — preempt running rigid/malleable
    /// jobs in ascending order of preemption overhead.
    Paa,
    /// "Shrink-preempt-at-actual-arrival (SPAA)" — if shrinking all running
    /// malleable jobs to their minimum sizes can supply the demand, shrink
    /// them evenly; otherwise fall back to PAA.
    Spaa,
}

/// A complete scheduling mechanism. `Ord` follows declaration order
/// (baseline first, then the hybrid matrix, then custom) so mechanisms can
/// key `BTreeMap`s — the what-if forecast API reports one predicted start
/// per mechanism that way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Mechanism {
    /// Plain FCFS/EASY with no special treatment of any class (Table II).
    Baseline,
    /// One of the six hybrid mechanisms.
    Hybrid {
        notice: NoticeStrategy,
        arrival: ArrivalStrategy,
    },
    /// A user-registered mechanism: behavior comes from the
    /// [`MechanismHooks`] in [`SimConfig::hooks`] (see
    /// [`SimConfig::with_hooks`]).
    Custom,
}

impl Mechanism {
    pub const N_PAA: Mechanism = Mechanism::Hybrid {
        notice: NoticeStrategy::None,
        arrival: ArrivalStrategy::Paa,
    };
    pub const N_SPAA: Mechanism = Mechanism::Hybrid {
        notice: NoticeStrategy::None,
        arrival: ArrivalStrategy::Spaa,
    };
    pub const CUA_PAA: Mechanism = Mechanism::Hybrid {
        notice: NoticeStrategy::Cua,
        arrival: ArrivalStrategy::Paa,
    };
    pub const CUA_SPAA: Mechanism = Mechanism::Hybrid {
        notice: NoticeStrategy::Cua,
        arrival: ArrivalStrategy::Spaa,
    };
    pub const CUP_PAA: Mechanism = Mechanism::Hybrid {
        notice: NoticeStrategy::Cup,
        arrival: ArrivalStrategy::Paa,
    };
    pub const CUP_SPAA: Mechanism = Mechanism::Hybrid {
        notice: NoticeStrategy::Cup,
        arrival: ArrivalStrategy::Spaa,
    };

    /// The six mechanisms of the paper, in its presentation order.
    pub const ALL_SIX: [Mechanism; 6] = [
        Self::N_PAA,
        Self::N_SPAA,
        Self::CUA_PAA,
        Self::CUA_SPAA,
        Self::CUP_PAA,
        Self::CUP_SPAA,
    ];

    pub fn is_baseline(self) -> bool {
        matches!(self, Mechanism::Baseline)
    }

    pub fn notice(self) -> Option<NoticeStrategy> {
        match self {
            Mechanism::Hybrid { notice, .. } => Some(notice),
            Mechanism::Baseline | Mechanism::Custom => None,
        }
    }

    pub fn arrival(self) -> Option<ArrivalStrategy> {
        match self {
            Mechanism::Hybrid { arrival, .. } => Some(arrival),
            Mechanism::Baseline | Mechanism::Custom => None,
        }
    }

    /// Paper-style name, e.g. `CUA&SPAA`.
    pub fn name(self) -> &'static str {
        match self {
            Mechanism::Baseline => "FCFS/EASY",
            Self::N_PAA => "N&PAA",
            Self::N_SPAA => "N&SPAA",
            Self::CUA_PAA => "CUA&PAA",
            Self::CUA_SPAA => "CUA&SPAA",
            Self::CUP_PAA => "CUP&PAA",
            Self::CUP_SPAA => "CUP&SPAA",
            Mechanism::Custom => "custom",
        }
    }
}

impl fmt::Display for Mechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Ordering used when PAA picks preemption victims (ablation; the paper
/// uses ascending preemption overhead).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VictimOrder {
    /// Ascending wasted node-seconds (the paper's choice).
    Overhead,
    /// Smallest jobs first.
    SizeAscending,
    /// Most recently started first (loses the least absolute progress).
    NewestFirst,
}

/// How SPAA distributes the shrink demand over running malleable jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShrinkStrategy {
    /// Water-filling: repeatedly take one node from the currently largest
    /// job (the paper's "shrink their sizes evenly").
    EvenWaterFill,
    /// Take proportionally to each job's shrinkable slack.
    Proportional,
}

/// All scheduler parameters. Defaults reproduce §IV-B.
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub mechanism: Mechanism,
    pub policy: PolicyKind,
    /// EASY backfilling on/off (off = plain FCFS, for ablation).
    pub easy_backfill: bool,
    /// Allow backfilled jobs to squat on on-demand reservations
    /// ("the nodes reserved for on-demand jobs can be used to backfill").
    pub backfill_on_reserved: bool,
    pub ckpt: CkptConfig,
    /// Node-failure injection (extension; disabled by default — the paper's
    /// simulations are failure-free).
    pub failures: FailureConfig,
    /// Amazon-style warning granted to malleable jobs before preemption
    /// (§III-A: two minutes).
    pub malleable_warning: SimDuration,
    /// Reserved nodes are released this long after a missed predicted
    /// arrival (§IV-B: 10 minutes).
    pub reservation_timeout: SimDuration,
    /// An on-demand start within this delay of arrival counts as instant
    /// (the malleable-vacate floor; §IV-D metric 2). Fixed for a session:
    /// the recorder folds under the value it was created (or restored)
    /// with, and a fork keeps its parent's.
    pub instant_threshold: SimDuration,
    pub victim_order: VictimOrder,
    pub shrink_strategy: ShrinkStrategy,
    /// No effect: nothing reads it. Kept only because `perfbench/` still
    /// assigns it; removed together with those writes (ROADMAP 7d).
    #[doc(hidden)]
    pub measure_decisions: bool,
    /// Verify cluster invariants after every event (slow; tests only).
    pub paranoid_checks: bool,
    /// Explicit mechanism hooks. `None` derives the standard composition
    /// from [`SimConfig::mechanism`]; `Some` overrides it entirely (set via
    /// [`SimConfig::with_hooks`]).
    pub hooks: Option<HooksHandle>,
    /// Federated multi-cluster dispatch: `None` (the default, and the
    /// paper's model) runs on one machine of `trace.system_size` nodes;
    /// `Some` splits the same total capacity into named shards behind a
    /// placement policy (set via [`SimConfig::federated`]). A one-shard
    /// federation reproduces the single-cluster run bitwise.
    pub federation: Option<FederationConfig>,
    /// Deterministic capacity-fault injection: node/shard drains, hard
    /// downs, and rejoins delivered through the event queue (extension;
    /// `None` — the default and the paper's model — runs outage-free and
    /// is bitwise-identical to builds without the outage engine). Set via
    /// [`SimConfig::with_outages`].
    pub outages: Option<OutageSchedule>,
    /// Testing oracle: schedule a scheduling pass for *every* pass request
    /// instead of coalescing same-tick requests into one `Ev::Pass`. The
    /// extra passes run back-to-back on unchanged state and start nothing,
    /// so results are bitwise-identical — the coalescing-equivalence
    /// proptest exercises both ways. Never set in production paths.
    #[doc(hidden)]
    pub pass_per_event: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            mechanism: Mechanism::CUA_SPAA,
            policy: PolicyKind::Fcfs,
            easy_backfill: true,
            backfill_on_reserved: true,
            ckpt: CkptConfig::default(),
            failures: FailureConfig::default(),
            malleable_warning: SimDuration::from_secs(120),
            reservation_timeout: SimDuration::from_mins(10),
            instant_threshold: SimDuration::from_secs(120),
            victim_order: VictimOrder::Overhead,
            shrink_strategy: ShrinkStrategy::EvenWaterFill,
            measure_decisions: false,
            paranoid_checks: false,
            hooks: None,
            federation: None,
            outages: None,
            pass_per_event: false,
        }
    }
}

impl SimConfig {
    /// The paper's Table II baseline.
    pub fn baseline() -> Self {
        SimConfig {
            mechanism: Mechanism::Baseline,
            ..Default::default()
        }
    }

    /// Select one of the built-in mechanisms (baseline or the six hybrid
    /// ones).
    ///
    /// # Panics
    ///
    /// Panics on [`Mechanism::Custom`], which carries no behavior by
    /// itself — use [`SimConfig::with_hooks`] instead. Catching it here
    /// beats a panic deep inside a sweep worker thread.
    pub fn with_mechanism(m: Mechanism) -> Self {
        assert!(
            m != Mechanism::Custom,
            "Mechanism::Custom has no built-in behavior; use SimConfig::with_hooks(..)"
        );
        SimConfig {
            mechanism: m,
            ..Default::default()
        }
    }

    /// Register a custom mechanism: the driver consults `hooks` at every
    /// notice, prediction, and arrival decision point. See
    /// `examples/custom_policy.rs` for a seventh mechanism built this way.
    pub fn with_hooks<H: MechanismHooks + 'static>(hooks: H) -> Self {
        SimConfig {
            mechanism: Mechanism::Custom,
            hooks: Some(HooksHandle::new(hooks)),
            ..Default::default()
        }
    }

    pub fn ckpt_factor(mut self, f: f64) -> Self {
        self.ckpt = self.ckpt.with_factor(f);
        self
    }

    pub fn policy(mut self, p: PolicyKind) -> Self {
        self.policy = p;
        self
    }

    pub fn paranoid(mut self) -> Self {
        self.paranoid_checks = true;
        self
    }

    /// Enable node-failure injection with the given per-node MTBF.
    pub fn with_failures(mut self, node_mtbf_hours: f64) -> Self {
        self.failures = FailureConfig::with_mtbf_hours(node_mtbf_hours);
        self
    }

    /// Dispatch over a federation of cluster shards instead of one
    /// machine. The shard sizes must sum to the trace's system size
    /// (checked at run start).
    pub fn federated(mut self, federation: FederationConfig) -> Self {
        self.federation = Some(federation);
        self
    }

    /// Inject the given outage schedule: drains, hard downs, and rejoins
    /// are delivered through the event queue at their scheduled times, so
    /// replays stay bitwise-reproducible. The schedule's shard/node
    /// coordinates must fit the backend (checked at run start).
    pub fn with_outages(mut self, schedule: OutageSchedule) -> Self {
        self.outages = Some(schedule);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_mechanisms_have_paper_names() {
        let names: Vec<&str> = Mechanism::ALL_SIX.iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec!["N&PAA", "N&SPAA", "CUA&PAA", "CUA&SPAA", "CUP&PAA", "CUP&SPAA"]
        );
    }

    #[test]
    fn mechanism_accessors() {
        assert!(Mechanism::Baseline.is_baseline());
        assert_eq!(Mechanism::Baseline.notice(), None);
        assert_eq!(Mechanism::CUP_PAA.notice(), Some(NoticeStrategy::Cup));
        assert_eq!(Mechanism::CUP_PAA.arrival(), Some(ArrivalStrategy::Paa));
        assert_eq!(Mechanism::N_SPAA.arrival(), Some(ArrivalStrategy::Spaa));
    }

    #[test]
    fn defaults_follow_section_4b() {
        let c = SimConfig::default();
        assert_eq!(c.malleable_warning, SimDuration::from_secs(120));
        assert_eq!(c.reservation_timeout, SimDuration::from_mins(10));
        assert!(c.easy_backfill);
        assert!(c.backfill_on_reserved);
        assert_eq!(c.victim_order, VictimOrder::Overhead);
    }

    #[test]
    fn baseline_config() {
        assert!(SimConfig::baseline().mechanism.is_baseline());
        assert!(!SimConfig::with_mechanism(Mechanism::N_PAA)
            .mechanism
            .is_baseline());
    }

    #[test]
    fn display_uses_name() {
        assert_eq!(Mechanism::CUA_SPAA.to_string(), "CUA&SPAA");
    }

    #[test]
    #[should_panic(expected = "use SimConfig::with_hooks")]
    fn custom_mechanism_without_hooks_is_rejected_early() {
        let _ = SimConfig::with_mechanism(Mechanism::Custom);
    }
}
