//! The mechanism extension point: [`MechanismHooks`] and the paper's six
//! mechanisms expressed as N/CUA/CUP × PAA/SPAA policy compositions.
//!
//! The driver owns *when* decisions happen (notice, predicted arrival,
//! actual arrival) and *how* plans execute against the cluster; hooks own
//! *what* the plan is. Hooks are pure planners over snapshot views — they
//! never touch the cluster directly — which keeps every mechanism
//! deterministic, benchmarkable in isolation, and registrable without
//! modifying driver internals (see `examples/custom_policy.rs` for a
//! seventh mechanism).

use crate::config::{Mechanism, NoticeStrategy, ShrinkStrategy, SimConfig, VictimOrder};
use crate::mechanism::{
    plan_cup, plan_shrinks, select_victims, CupCandidate, CupPlan, ShrinkInfo, VictimInfo,
};
use hws_sim::SimTime;
use hws_workload::{JobClass, JobId, JobKind};
use std::fmt;
use std::sync::Arc;

/// Snapshot handed to [`MechanismHooks::on_notice`]: an advance notice for
/// on-demand job `od` just landed.
#[derive(Debug, Clone, Copy)]
pub struct NoticeView {
    pub od: JobId,
    /// Nodes the on-demand job will need at arrival.
    pub need: u32,
    /// Free nodes available right now.
    pub free: u32,
    pub notice_time: SimTime,
    pub predicted_arrival: SimTime,
    pub now: SimTime,
}

/// What to do with an advance notice.
#[derive(Debug, Clone, Copy)]
pub struct NoticeDecision {
    /// Reserve free nodes now and keep collecting released nodes until the
    /// job arrives (CUA/CUP behavior). `false` ignores the notice entirely
    /// (the N strategies).
    pub collect: bool,
}

/// Snapshot handed to [`MechanismHooks::plan_for_prediction`] when the
/// notice-time reservation fell short: every running non-on-demand job, with
/// its expected completion and the cheapest instant it could be preempted.
#[derive(Debug, Clone, Copy)]
pub struct PredictionView<'a> {
    pub od: JobId,
    /// Nodes still uncovered after reserving the free pool.
    pub shortfall: u32,
    pub predicted: SimTime,
    pub now: SimTime,
    /// Federation shard the job is placed on (`None` on a single
    /// cluster). `candidates` is already restricted to this shard, so
    /// hooks stay backend-generic; shard-aware mechanisms may still
    /// specialize on it.
    pub shard: Option<usize>,
    pub candidates: &'a [CupCandidate],
}

/// Snapshot handed to [`MechanismHooks::on_arrival`] when an on-demand job
/// arrived and free + reserved + raided nodes still fall short.
#[derive(Debug, Clone, Copy)]
pub struct ArrivalView<'a> {
    pub od: JobId,
    /// Nodes still needed beyond everything already secured.
    pub need_extra: u32,
    pub now: SimTime,
    /// Federation shard the job is arriving on (`None` on a single
    /// cluster). The snapshots below are already restricted to it.
    pub shard: Option<usize>,
    /// Running malleable jobs and how far each can shrink (already capped to
    /// the nodes that would actually reach the arriving job).
    pub shrinkable: &'a [ShrinkInfo],
    /// Running rigid/malleable jobs eligible as preemption victims, with the
    /// node count a preemption would actually yield.
    pub victims: &'a [VictimInfo],
}

/// Snapshot handed to [`MechanismHooks::admit`] before the scheduling pass
/// starts (or backfills) a waiting job: the per-class admission knob of
/// capability/capacity co-scheduling. The driver maintains
/// `running_capability` incrementally, so consulting the hook costs O(1)
/// per start attempt.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionView {
    pub job: JobId,
    pub kind: JobKind,
    /// Capability/capacity class of the job asking to start.
    pub class: JobClass,
    /// Requested size (the maximum, for malleable jobs).
    pub size: u32,
    /// Capability-class jobs currently running.
    pub running_capability: u32,
    pub now: SimTime,
}

/// How to source the missing nodes at arrival. The driver executes shrinks
/// first, then preemptions, and records the matching leases (§III-B3).
/// Return an empty plan to let the job wait at the front of the queue.
#[derive(Debug, Clone, Default)]
pub struct ArrivalPlan {
    /// `(job, nodes_to_release)` shrink orders for running malleable jobs.
    pub shrinks: Vec<(JobId, u32)>,
    /// Victims to preempt, in order.
    pub preempt: Vec<VictimInfo>,
}

impl ArrivalPlan {
    /// No sourcing possible: the on-demand job waits at the queue front.
    pub fn wait() -> Self {
        ArrivalPlan::default()
    }
}

/// A scheduling mechanism, as seen by the driver. Implementations must be
/// deterministic pure functions of their views — the multi-seed sweep runs
/// one simulation per thread against a shared hooks instance.
///
/// Only [`MechanismHooks::on_arrival`] is required; every other decision
/// point has a neutral default, so a minimal mechanism is a few lines.
/// Registering it through [`SimConfig::with_hooks`] needs no driver
/// changes:
///
/// ```
/// use hws_core::{ArrivalPlan, ArrivalView, MechanismHooks, SimConfig, Simulator};
/// use hws_workload::TraceConfig;
///
/// /// Never preempt anyone: arriving on-demand jobs just wait at the
/// /// front of the queue until enough nodes free up on their own.
/// #[derive(Debug)]
/// struct Pacifist;
///
/// impl MechanismHooks for Pacifist {
///     fn name(&self) -> &str {
///         "pacifist"
///     }
///
///     fn on_arrival(&self, _view: &ArrivalView<'_>) -> ArrivalPlan {
///         ArrivalPlan::wait()
///     }
/// }
///
/// let trace = TraceConfig::tiny().generate(1);
/// let out = Simulator::run_trace(&SimConfig::with_hooks(Pacifist), &trace);
/// assert!(out.metrics.completed_jobs > 0);
/// ```
pub trait MechanismHooks: fmt::Debug + Send + Sync {
    /// Display name (used in outcome reports and `HooksHandle`'s `Debug`).
    fn name(&self) -> &str;

    /// Whether advance notices are acted on at all. When `false`, `Notice`
    /// events are neither scheduled nor handled (the N strategies).
    fn uses_notices(&self) -> bool {
        true
    }

    /// An advance notice landed; decide whether to start collecting nodes.
    fn on_notice(&self, view: &NoticeView) -> NoticeDecision {
        let _ = view;
        NoticeDecision {
            collect: self.uses_notices(),
        }
    }

    /// Whether [`MechanismHooks::plan_for_prediction`] does anything.
    /// Building a [`PredictionView`] costs O(running jobs) of completion
    /// and overhead estimation, so the driver skips it entirely when this
    /// returns `false` (keeping CUA decision latency free of CUP-only
    /// work). Defaults to `true` so custom hooks that override
    /// `plan_for_prediction` are consulted without further ceremony.
    fn plans_predictions(&self) -> bool {
        true
    }

    /// The notice-time reservation fell short: plan preemptions so the full
    /// allocation is ready at the predicted arrival (CUP). The default plans
    /// nothing (CUA keeps collecting passively).
    fn plan_for_prediction(&self, view: &PredictionView<'_>) -> CupPlan {
        let _ = view;
        CupPlan::none()
    }

    /// The job actually arrived and nodes are still missing: decide which
    /// running jobs to shrink and/or preempt.
    fn on_arrival(&self, view: &ArrivalView<'_>) -> ArrivalPlan;

    /// Per-class admission throttle, consulted by the scheduling pass
    /// before it starts (or backfills) a waiting job. Returning `false`
    /// leaves the job queued: an in-order job blocks as the pass head
    /// (EASY backfills behind it), a backfill candidate is skipped. The
    /// default admits everything, which reproduces the paper's two-class
    /// behavior exactly; capability-aware hooks use it to cap concurrent
    /// capability campaigns (see [`CapabilityAware`]). Not consulted by
    /// the baseline, which never consults hooks at all.
    fn admit(&self, view: &AdmissionView) -> bool {
        let _ = view;
        true
    }
}

/// Clonable, debuggable handle carried by [`SimConfig`].
#[derive(Clone)]
pub struct HooksHandle(pub Arc<dyn MechanismHooks>);

impl HooksHandle {
    pub fn new<H: MechanismHooks + 'static>(hooks: H) -> Self {
        HooksHandle(Arc::new(hooks))
    }

    /// The registered mechanism's display name.
    pub fn name(&self) -> &str {
        self.0.name()
    }
}

impl fmt::Debug for HooksHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("HooksHandle").field(&self.0.name()).finish()
    }
}

// ---------------------------------------------------------------------------
// The paper's notice-phase policies (§III-B1)
// ---------------------------------------------------------------------------

/// One of the three advance-notice strategies, as a composable unit.
/// `plans_predictions` defaults to `true` (consult `plan_for_prediction`);
/// policies that provably never plan opt out to spare the driver the
/// candidate-snapshot cost.
pub trait NoticePolicy: fmt::Debug + Send + Sync {
    fn uses_notices(&self) -> bool {
        true
    }

    fn plans_predictions(&self) -> bool {
        true
    }

    fn plan_for_prediction(&self, view: &PredictionView<'_>) -> CupPlan {
        let _ = view;
        CupPlan::none()
    }
}

/// "Do nothing (N)": notices are ignored, everything happens at arrival.
#[derive(Debug, Clone, Copy, Default)]
pub struct IgnoreNotices;

impl NoticePolicy for IgnoreNotices {
    fn uses_notices(&self) -> bool {
        false
    }

    fn plans_predictions(&self) -> bool {
        false
    }
}

/// "Collect-until-actual-arrival (CUA)": reserve free nodes at notice time,
/// then passively collect releases until the job arrives.
#[derive(Debug, Clone, Copy, Default)]
pub struct CollectUntilArrival;

impl NoticePolicy for CollectUntilArrival {
    fn plans_predictions(&self) -> bool {
        false
    }
}

/// "Collect-until-predicted-arrival (CUP)": CUA plus planned preemptions —
/// rigid victims right after their next checkpoint, malleable victims just
/// before the prediction.
#[derive(Debug, Clone, Copy, Default)]
pub struct CollectUntilPredicted;

impl NoticePolicy for CollectUntilPredicted {
    fn plan_for_prediction(&self, view: &PredictionView<'_>) -> CupPlan {
        plan_cup(view.candidates, view.shortfall, view.predicted)
    }
}

// ---------------------------------------------------------------------------
// The paper's arrival-phase policies (§III-B2)
// ---------------------------------------------------------------------------

/// One of the arrival strategies, as a composable unit.
pub trait ArrivalPolicy: fmt::Debug + Send + Sync {
    fn on_arrival(&self, view: &ArrivalView<'_>) -> ArrivalPlan;
}

/// "Preempt-at-actual-arrival (PAA)": preempt running jobs in ascending
/// preemption-overhead order (or an ablation ordering) until satisfied.
#[derive(Debug, Clone, Copy)]
pub struct PreemptAtArrival {
    pub order: VictimOrder,
}

impl ArrivalPolicy for PreemptAtArrival {
    fn on_arrival(&self, view: &ArrivalView<'_>) -> ArrivalPlan {
        match select_victims(view.victims.to_vec(), view.need_extra, self.order) {
            Some(preempt) => ArrivalPlan {
                shrinks: Vec::new(),
                preempt,
            },
            None => ArrivalPlan::wait(),
        }
    }
}

/// "Shrink-preempt-at-actual-arrival (SPAA)": if shrinking every running
/// malleable job to its minimum can supply the demand, shrink evenly;
/// otherwise fall back to PAA.
#[derive(Debug, Clone, Copy)]
pub struct ShrinkThenPreempt {
    pub strategy: ShrinkStrategy,
    pub fallback: PreemptAtArrival,
}

impl ArrivalPolicy for ShrinkThenPreempt {
    fn on_arrival(&self, view: &ArrivalView<'_>) -> ArrivalPlan {
        if let Some(shrinks) = plan_shrinks(view.shrinkable, view.need_extra, self.strategy) {
            return ArrivalPlan {
                shrinks,
                preempt: Vec::new(),
            };
        }
        self.fallback.on_arrival(view)
    }
}

// ---------------------------------------------------------------------------
// Composition
// ---------------------------------------------------------------------------

/// A full mechanism from one notice policy and one arrival policy. The six
/// paper mechanisms are exactly the `{N, CUA, CUP} × {PAA, SPAA}` grid of
/// [`IgnoreNotices`]/[`CollectUntilArrival`]/[`CollectUntilPredicted`] with
/// [`PreemptAtArrival`]/[`ShrinkThenPreempt`].
#[derive(Debug)]
pub struct Composed<N, A> {
    name: String,
    pub notice: N,
    pub arrival: A,
}

impl<N: NoticePolicy, A: ArrivalPolicy> Composed<N, A> {
    pub fn new(name: impl Into<String>, notice: N, arrival: A) -> Self {
        Composed {
            name: name.into(),
            notice,
            arrival,
        }
    }
}

impl<N: NoticePolicy, A: ArrivalPolicy> MechanismHooks for Composed<N, A> {
    fn name(&self) -> &str {
        &self.name
    }

    fn uses_notices(&self) -> bool {
        self.notice.uses_notices()
    }

    fn plans_predictions(&self) -> bool {
        self.notice.plans_predictions()
    }

    fn plan_for_prediction(&self, view: &PredictionView<'_>) -> CupPlan {
        self.notice.plan_for_prediction(view)
    }

    fn on_arrival(&self, view: &ArrivalView<'_>) -> ArrivalPlan {
        self.arrival.on_arrival(view)
    }
}

// ---------------------------------------------------------------------------
// Capability-aware composition (capability/capacity co-scheduling)
// ---------------------------------------------------------------------------

/// Capability/capacity co-scheduling as a hooks composition: wraps any
/// inner mechanism and gives [`JobClass::Capability`] jobs their own
/// notice/preemption treatment without touching driver internals.
///
/// * **Victim shielding** (default on): capability jobs are removed from
///   every victim snapshot before the inner mechanism plans — they are
///   never chosen as arrival-time (PAA/SPAA fallback) or CUP-planned
///   preemption victims. They may still squat on notice-phase
///   reservations and be evicted when the holder arrives, exactly like
///   any squatter (squatting is a lease the squatter accepted, not a
///   scheduling decision the policy controls).
/// * **Admission throttle** (off by default): `with_max_running(k)` caps
///   the number of concurrently *running* capability campaigns; further
///   capability jobs block in-order (capacity work backfills behind
///   them). `with_max_running(0)` starves capability work entirely —
///   useful as an experiment control, not as an operating point.
///
/// On a trace with **no capability jobs every decision reduces to the
/// inner mechanism's**, which is what keeps zero-capability runs bitwise
/// identical to the two-class path (pinned by `tests/capability.rs` and
/// the `replay_matrix` bench binary).
///
/// With shielding off it delegates every method but the admission cap,
/// so it is also the knob vector's admission throttle: throttled search
/// candidates ([`config_for_knobs`](super::config_for_knobs)) and
/// throttled `Environment` steps run
/// `from_arc(inner).allow_capability_victims().with_max_running(k)`.
///
/// ```
/// use hws_core::{CapabilityAware, Mechanism, SimConfig, Simulator};
/// use hws_workload::TraceConfig;
///
/// // CUA&SPAA, but capability campaigns are never preemption victims
/// // and at most two run at once.
/// let hooks = CapabilityAware::for_mechanism(Mechanism::CUA_SPAA).with_max_running(2);
/// let cfg = SimConfig::with_hooks(hooks);
///
/// let mut tcfg = TraceConfig::tiny();
/// tcfg.capability_frac = 0.3; // largest 30 % of rigid jobs
/// let out = Simulator::run_trace(&cfg, &tcfg.generate(1));
/// assert!(out.metrics.completed_jobs > 0);
/// ```
#[derive(Debug, Clone)]
pub struct CapabilityAware {
    name: String,
    inner: Arc<dyn MechanismHooks>,
    protect_victims: bool,
    max_running: Option<u32>,
}

impl CapabilityAware {
    /// Wrap an arbitrary inner mechanism.
    pub fn new(inner: impl MechanismHooks + 'static) -> Self {
        Self::from_arc(Arc::new(inner))
    }

    /// Wrap one of the built-in mechanisms (its standard composition with
    /// the default victim ordering and shrink strategy).
    ///
    /// # Panics
    ///
    /// Panics on [`Mechanism::Custom`], which has no built-in composition
    /// to wrap — use [`CapabilityAware::new`] with the custom hooks.
    pub fn for_mechanism(m: Mechanism) -> Self {
        Self::from_arc(standard_composition(
            m,
            VictimOrder::Overhead,
            ShrinkStrategy::EvenWaterFill,
        ))
    }

    /// Wrap a shared inner mechanism.
    pub fn from_arc(inner: Arc<dyn MechanismHooks>) -> Self {
        CapabilityAware {
            name: format!("cap[{}]", inner.name()),
            inner,
            protect_victims: true,
            max_running: None,
        }
    }

    /// Cap the number of concurrently running capability campaigns.
    pub fn with_max_running(mut self, cap: u32) -> Self {
        self.max_running = Some(cap);
        self
    }

    /// Let the inner mechanism preempt capability jobs like any other
    /// victim (disables the shielding half of the policy).
    pub fn allow_capability_victims(mut self) -> Self {
        self.protect_victims = false;
        self
    }

    /// Whether capability jobs are shielded from victim selection.
    pub fn protects_victims(&self) -> bool {
        self.protect_victims
    }

    /// The configured concurrency cap, when any.
    pub fn max_running(&self) -> Option<u32> {
        self.max_running
    }
}

impl MechanismHooks for CapabilityAware {
    fn name(&self) -> &str {
        &self.name
    }

    fn uses_notices(&self) -> bool {
        self.inner.uses_notices()
    }

    fn on_notice(&self, view: &NoticeView) -> NoticeDecision {
        self.inner.on_notice(view)
    }

    fn plans_predictions(&self) -> bool {
        self.inner.plans_predictions()
    }

    fn plan_for_prediction(&self, view: &PredictionView<'_>) -> CupPlan {
        if !self.protect_victims
            || view
                .candidates
                .iter()
                .all(|c| c.class != JobClass::Capability)
        {
            return self.inner.plan_for_prediction(view);
        }
        let candidates: Vec<CupCandidate> = view
            .candidates
            .iter()
            .filter(|c| c.class != JobClass::Capability)
            .copied()
            .collect();
        self.inner.plan_for_prediction(&PredictionView {
            candidates: &candidates,
            ..*view
        })
    }

    fn on_arrival(&self, view: &ArrivalView<'_>) -> ArrivalPlan {
        if !self.protect_victims || view.victims.iter().all(|v| v.class != JobClass::Capability) {
            return self.inner.on_arrival(view);
        }
        let victims: Vec<VictimInfo> = view
            .victims
            .iter()
            .filter(|v| v.class != JobClass::Capability)
            .copied()
            .collect();
        self.inner.on_arrival(&ArrivalView {
            victims: &victims,
            ..*view
        })
    }

    fn admit(&self, view: &AdmissionView) -> bool {
        if view.class == JobClass::Capability {
            if let Some(cap) = self.max_running {
                if view.running_capability >= cap {
                    return false;
                }
            }
        }
        self.inner.admit(view)
    }
}

/// The standard composition for one of the built-in mechanisms — the
/// `{N, CUA, CUP} × {PAA, SPAA}` grid, or an inert composition for the
/// baseline (which never consults hooks anyway, but the slot is
/// non-optional). This is the single source of mechanism behavior: both
/// the driver's enum dispatch and wrappers like [`CapabilityAware`] route
/// through it.
///
/// # Panics
///
/// Panics on [`Mechanism::Custom`] — its behavior lives in
/// [`SimConfig::hooks`], not in any built-in composition.
pub fn standard_composition(
    m: Mechanism,
    victim_order: VictimOrder,
    shrink_strategy: ShrinkStrategy,
) -> Arc<dyn MechanismHooks> {
    let paa = PreemptAtArrival {
        order: victim_order,
    };
    let spaa = ShrinkThenPreempt {
        strategy: shrink_strategy,
        fallback: paa,
    };
    let name = m.name();
    match m {
        Mechanism::Baseline => Arc::new(Composed::new(name, IgnoreNotices, paa)),
        Mechanism::Hybrid { notice, arrival } => {
            use crate::config::ArrivalStrategy as A;
            match (notice, arrival) {
                (NoticeStrategy::None, A::Paa) => Arc::new(Composed::new(name, IgnoreNotices, paa)),
                (NoticeStrategy::None, A::Spaa) => {
                    Arc::new(Composed::new(name, IgnoreNotices, spaa))
                }
                (NoticeStrategy::Cua, A::Paa) => {
                    Arc::new(Composed::new(name, CollectUntilArrival, paa))
                }
                (NoticeStrategy::Cua, A::Spaa) => {
                    Arc::new(Composed::new(name, CollectUntilArrival, spaa))
                }
                (NoticeStrategy::Cup, A::Paa) => {
                    Arc::new(Composed::new(name, CollectUntilPredicted, paa))
                }
                (NoticeStrategy::Cup, A::Spaa) => {
                    Arc::new(Composed::new(name, CollectUntilPredicted, spaa))
                }
            }
        }
        Mechanism::Custom => {
            panic!("Mechanism::Custom has no built-in composition")
        }
    }
}

/// Build the hooks for a configuration: an explicit [`SimConfig::hooks`]
/// wins; otherwise the mechanism enum maps onto the standard compositions.
pub(crate) fn hooks_for(cfg: &SimConfig) -> Arc<dyn MechanismHooks> {
    if let Some(handle) = &cfg.hooks {
        return Arc::clone(&handle.0);
    }
    assert!(
        cfg.mechanism != Mechanism::Custom,
        "Mechanism::Custom requires SimConfig::with_hooks(..)"
    );
    standard_composition(cfg.mechanism, cfg.victim_order, cfg.shrink_strategy)
}
