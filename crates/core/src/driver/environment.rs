//! The simulator as a deterministic tuning environment (DESIGN.md §16).
//!
//! [`Environment`] wraps the live [`SchedulerService`] in the
//! observation/action/reward loop the policy search (`hws-search`) and
//! any external tuner drive: at each decision point the caller samples a
//! deterministic feature vector ([`Observation`]), applies an
//! [`Action`] — a mechanism selection plus a
//! [`KnobVector`] — and virtual time advances
//! one decision interval. The episode's scalar return is a configurable
//! [`RewardSpec`] fold over the final run metrics.
//!
//! ## Determinism and the identity contract
//!
//! Every observation is a pure function of simulator state, and every
//! action mutates only the tunable seams (the [`TunableHooks`] admission
//! wrapper, the backfill flags, the checkpoint interval factor). The
//! service's bitwise parity contract therefore lifts directly: driving
//! an episode with [`Action::hold`] at every decision point is
//! **bitwise identical** to batch-replaying the same trace under the
//! base configuration — for all six mechanisms, custom hook stacks, and
//! federations (`tests/environment_parity.rs` asserts exactly this).
//!
//! Knob semantics are *absolute*: applying a vector moves the
//! configuration to `base ⊕ vector`, so re-applying a vector is
//! idempotent and [`Action::hold`] (no vector at all) touches nothing.

use super::hooks::{
    hooks_for, standard_composition, AdmissionView, ArrivalPlan, ArrivalView, HooksHandle,
    MechanismHooks, NoticeDecision, NoticeView, PredictionView,
};
use super::service::SchedulerService;
use super::SimOutcome;
use crate::config::{Mechanism, ShrinkStrategy, SimConfig, VictimOrder};
use crate::mechanism::CupPlan;
use hws_cluster::{ClassAffinity, Cluster, Federation, FirstFit, LeastLoaded, SnapshotBackend};
use hws_metrics::RewardSpec;
use hws_sim::{SimDuration, SimTime};
use hws_workload::{JobClass, KnobVector, PlacementChoice, Trace};
use std::fmt;
use std::sync::{Arc, RwLock};

// ---------------------------------------------------------------------
// Tunable hook wrapper
// ---------------------------------------------------------------------

/// A [`MechanismHooks`] wrapper whose inner composition and capability
/// admission throttle can be swapped *while a simulation is running* —
/// the seam [`Environment`] actions act through, also used by
/// `hws-search` to materialise throttled candidate configurations.
///
/// With the throttle unset and the inner hooks untouched, every method
/// is a pure delegation, so a wrapped run is bitwise identical to an
/// unwrapped one.
pub struct TunableHooks {
    label: String,
    inner: RwLock<Arc<dyn MechanismHooks>>,
    /// Captured once at construction: the driver asks `uses_notices` as
    /// it injects each job (whether to schedule its notice) and as each
    /// notice lands, so freezing the answer keeps a mid-run swap from
    /// treating jobs differently by injection time — every job sees what
    /// the run was started with.
    uses_notices: bool,
    throttle: RwLock<Option<u32>>,
}

impl TunableHooks {
    /// Wrap an existing hook stack (pure delegation until mutated).
    pub fn wrapping(inner: Arc<dyn MechanismHooks>) -> Self {
        TunableHooks {
            label: format!("tunable[{}]", inner.name()),
            uses_notices: inner.uses_notices(),
            inner: RwLock::new(inner),
            throttle: RwLock::new(None),
        }
    }

    /// Wrap the standard composition for `m`.
    ///
    /// # Errors
    ///
    /// [`Mechanism::Custom`] has no built-in composition.
    pub fn for_mechanism(
        m: Mechanism,
        victim_order: VictimOrder,
        shrink_strategy: ShrinkStrategy,
    ) -> Result<Self, String> {
        if m == Mechanism::Custom {
            return Err("Mechanism::Custom has no built-in composition to wrap".into());
        }
        Ok(Self::wrapping(standard_composition(
            m,
            victim_order,
            shrink_strategy,
        )))
    }

    /// Swap the inner composition to the standard one for `m`. Notice
    /// *scheduling* stays as captured at construction (see the field
    /// docs); planning and arrival behaviour switch immediately.
    pub fn set_mechanism(
        &self,
        m: Mechanism,
        victim_order: VictimOrder,
        shrink_strategy: ShrinkStrategy,
    ) -> Result<(), String> {
        if m == Mechanism::Custom {
            return Err("cannot switch to Mechanism::Custom (no built-in composition)".into());
        }
        *self.inner.write().expect("hooks lock") =
            standard_composition(m, victim_order, shrink_strategy);
        Ok(())
    }

    /// Set (or clear) the capability admission throttle: at most `k`
    /// capability-class jobs running concurrently.
    pub fn set_throttle(&self, k: Option<u32>) {
        *self.throttle.write().expect("throttle lock") = k;
    }

    /// The current throttle.
    pub fn throttle(&self) -> Option<u32> {
        *self.throttle.read().expect("throttle lock")
    }

    fn inner(&self) -> Arc<dyn MechanismHooks> {
        Arc::clone(&self.inner.read().expect("hooks lock"))
    }
}

impl fmt::Debug for TunableHooks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TunableHooks")
            .field("label", &self.label)
            .field("inner", &self.inner().name().to_string())
            .field("throttle", &self.throttle())
            .finish()
    }
}

impl MechanismHooks for TunableHooks {
    fn name(&self) -> &str {
        &self.label
    }

    fn uses_notices(&self) -> bool {
        self.uses_notices
    }

    fn on_notice(&self, view: &NoticeView) -> NoticeDecision {
        self.inner().on_notice(view)
    }

    fn plans_predictions(&self) -> bool {
        self.inner().plans_predictions()
    }

    fn plan_for_prediction(&self, view: &PredictionView<'_>) -> CupPlan {
        self.inner().plan_for_prediction(view)
    }

    fn on_arrival(&self, view: &ArrivalView<'_>) -> ArrivalPlan {
        self.inner().on_arrival(view)
    }

    fn admit(&self, view: &AdmissionView) -> bool {
        if view.class == JobClass::Capability {
            if let Some(cap) = self.throttle() {
                if view.running_capability >= cap {
                    return false;
                }
            }
        }
        self.inner().admit(view)
    }
}

// ---------------------------------------------------------------------
// Knob application
// ---------------------------------------------------------------------

/// Apply the *configuration-level* knobs of `vector` to `cfg`: backfill
/// flags, checkpoint interval multiplier, placement policy. The
/// admission throttle is hook-level and **not** applied here — see
/// [`config_for_knobs`] (search candidates) and [`Environment`]
/// (live episodes) for the two appliers.
///
/// The identity vector leaves `cfg` bitwise unchanged.
pub fn apply_knobs(cfg: &mut SimConfig, vector: &KnobVector) -> Result<(), String> {
    vector.validate()?;
    if let Some(level) = vector.backfill {
        let (easy, reserved) = level.flags();
        cfg.easy_backfill = easy;
        cfg.backfill_on_reserved = reserved;
    }
    if vector.ckpt_mult != 1.0 {
        cfg.ckpt.interval_factor *= vector.ckpt_mult;
    }
    if let Some(choice) = vector.placement {
        let fed = cfg
            .federation
            .take()
            .ok_or("placement knob requires a federated base configuration")?;
        cfg.federation = Some(match choice {
            PlacementChoice::FirstFit => fed.with_policy(FirstFit),
            PlacementChoice::LeastLoaded => fed.with_policy(LeastLoaded),
            PlacementChoice::ClassAffinity => fed.with_policy(ClassAffinity),
        });
    }
    Ok(())
}

/// Materialise a search candidate: `base` with `mechanism` selected and
/// `vector` applied. With no admission throttle the result carries no
/// hook wrapper at all, so it is bitwise equivalent to a plain
/// `base.with_mechanism(mechanism)` — throttled candidates install a
/// [`TunableHooks`] wrapper around the mechanism's standard composition.
///
/// # Errors
///
/// [`Mechanism::Custom`] (no built-in composition), invalid vectors,
/// and placement overrides on non-federated bases.
pub fn config_for_knobs(
    base: &SimConfig,
    mechanism: Mechanism,
    vector: &KnobVector,
) -> Result<SimConfig, String> {
    if mechanism == Mechanism::Custom {
        return Err("search candidates must use a built-in mechanism, not Custom".into());
    }
    let mut cfg = base.clone();
    cfg.hooks = None;
    cfg.mechanism = mechanism;
    apply_knobs(&mut cfg, vector)?;
    if let Some(k) = vector.admit_throttle {
        let tunable =
            TunableHooks::for_mechanism(mechanism, cfg.victim_order, cfg.shrink_strategy)?;
        tunable.set_throttle(Some(k));
        cfg.hooks = Some(HooksHandle(Arc::new(tunable)));
    }
    Ok(cfg)
}

// ---------------------------------------------------------------------
// Observation / action / report
// ---------------------------------------------------------------------

/// Deterministic feature snapshot at a decision point. Per-class arrays
/// are indexed `[capacity, capability]`. Every field is a pure function
/// of simulator state — no wall-clock, no randomness.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Current virtual time.
    pub now: SimTime,
    /// Submitted jobs the scheduler has not seen yet.
    pub pending_jobs: usize,
    /// Waiting-queue depth.
    pub queue_depth: usize,
    /// Waiting jobs per class.
    pub queue_by_class: [usize; 2],
    /// Median waiting age per class, seconds (0 when empty).
    pub queue_age_p50_s: [u64; 2],
    /// 90th-percentile waiting age per class, seconds (0 when empty).
    pub queue_age_p90_s: [u64; 2],
    /// Maximum waiting age per class, seconds (0 when empty).
    pub queue_age_max_s: [u64; 2],
    /// EASY-shadow slack of the queue head: seconds until its projected
    /// start under the current running set (`Some(0)` = startable now,
    /// `u64::MAX` = never at current capacity, `None` = empty queue).
    pub head_slack_s: Option<u64>,
    pub total_nodes: u32,
    pub free_nodes: u32,
    pub live_nodes: u32,
    /// Free nodes per shard (one entry for a single cluster).
    pub shard_free: Vec<u32>,
    /// In-service nodes per shard (one entry for a single cluster).
    pub shard_live: Vec<u32>,
    pub running_jobs: u32,
    /// Running jobs per class.
    pub running_by_class: [u32; 2],
}

impl Observation {
    /// Head-slack saturation bound for [`Observation::features`]
    /// (30 days — beyond it "effectively never").
    pub const SLACK_CAP_S: u64 = 30 * 86_400;

    /// Flat feature vector, fixed length for a fixed shard count:
    /// `[now_h, pending, depth, by_class×2, p50×2, p90×2, max×2,
    /// head_slack (capped, -1 when queue empty), free, live, total,
    /// running, running_by_class×2, shard_free…, shard_live…]`.
    pub fn features(&self) -> Vec<f64> {
        let mut f = vec![
            self.now.as_secs() as f64 / 3600.0,
            self.pending_jobs as f64,
            self.queue_depth as f64,
            self.queue_by_class[0] as f64,
            self.queue_by_class[1] as f64,
            self.queue_age_p50_s[0] as f64,
            self.queue_age_p50_s[1] as f64,
            self.queue_age_p90_s[0] as f64,
            self.queue_age_p90_s[1] as f64,
            self.queue_age_max_s[0] as f64,
            self.queue_age_max_s[1] as f64,
            match self.head_slack_s {
                None => -1.0,
                Some(s) => s.min(Self::SLACK_CAP_S) as f64,
            },
            self.free_nodes as f64,
            self.live_nodes as f64,
            self.total_nodes as f64,
            self.running_jobs as f64,
            self.running_by_class[0] as f64,
            self.running_by_class[1] as f64,
        ];
        f.extend(self.shard_free.iter().map(|&n| n as f64));
        f.extend(self.shard_live.iter().map(|&n| n as f64));
        f
    }
}

/// One decision: optionally switch the mechanism, optionally move to a
/// new knob point. `None` fields leave the corresponding state exactly
/// as it is — [`Action::hold`] is the guaranteed no-op.
#[derive(Debug, Clone, PartialEq)]
pub struct Action {
    /// Switch to this mechanism's standard composition. Rejected for
    /// `Baseline` (the baseline never consults hooks, so a mid-run
    /// "switch" would silently misbehave) and `Custom`.
    pub mechanism: Option<Mechanism>,
    /// Move the knobs to `base ⊕ vector` (absolute, idempotent).
    /// Placement is fixed at episode start and rejected here.
    pub knobs: Option<KnobVector>,
}

impl Action {
    /// The identity action: change nothing.
    pub fn hold() -> Self {
        Action {
            mechanism: None,
            knobs: None,
        }
    }
}

/// A finished episode: the full batch outcome, its scalar reward, and
/// how many decision points the policy saw.
#[derive(Debug, Clone)]
pub struct EpisodeReport {
    pub outcome: SimOutcome,
    pub reward: f64,
    pub decisions: usize,
}

// ---------------------------------------------------------------------
// Environment
// ---------------------------------------------------------------------

/// Episode specification: base configuration, reward fold, decision
/// cadence, and the initial knob point.
#[derive(Debug, Clone)]
pub struct EnvSpec {
    pub cfg: SimConfig,
    pub reward: RewardSpec,
    /// Virtual-time distance between decision points (must be > 0).
    pub decision_interval: SimDuration,
    /// Knob point the episode starts at ([`KnobVector::identity`] for
    /// parity with plain batch replay).
    pub knobs: KnobVector,
}

impl EnvSpec {
    pub fn new(cfg: SimConfig) -> Self {
        EnvSpec {
            cfg,
            reward: RewardSpec::neg_bounded_slowdown(),
            decision_interval: SimDuration::HOUR,
            knobs: KnobVector::identity(),
        }
    }

    pub fn with_reward(mut self, reward: RewardSpec) -> Self {
        self.reward = reward;
        self
    }

    pub fn with_interval(mut self, interval: SimDuration) -> Self {
        self.decision_interval = interval;
        self
    }

    pub fn with_knobs(mut self, knobs: KnobVector) -> Self {
        self.knobs = knobs;
        self
    }
}

/// The simulator as an environment: a [`SchedulerService`] pre-loaded
/// with a trace, stepped one decision interval at a time. See the
/// module docs for the determinism contract.
pub struct Environment<B: SnapshotBackend = Cluster> {
    svc: SchedulerService<B>,
    tunable: Arc<TunableHooks>,
    reward: RewardSpec,
    interval: SimDuration,
    /// Base values knob vectors are applied against (absolute ⊕).
    base_ckpt_factor: f64,
    base_backfill: (bool, bool),
    victim_order: VictimOrder,
    shrink_strategy: ShrinkStrategy,
    next_tick: SimTime,
    decisions: usize,
}

/// Validate the spec and build the wrapped configuration plus the
/// shared tunable seam.
fn build_cfg(spec: &EnvSpec) -> Result<(SimConfig, Arc<TunableHooks>), String> {
    if spec.decision_interval.is_zero() {
        return Err("decision interval must be positive".into());
    }
    if spec.cfg.mechanism == Mechanism::Custom && spec.cfg.hooks.is_none() {
        return Err("Mechanism::Custom requires explicit SimConfig::hooks".into());
    }
    let mut cfg = spec.cfg.clone();
    apply_knobs(&mut cfg, &spec.knobs)?;
    let tunable = Arc::new(TunableHooks::wrapping(hooks_for(&cfg)));
    tunable.set_throttle(spec.knobs.admit_throttle);
    // Explicit hooks take precedence over the mechanism enum, while the
    // enum itself stays untouched — so `hybrid()`, notice scheduling,
    // and the outcome's mechanism tag all remain faithful to the base.
    cfg.hooks = Some(HooksHandle(Arc::clone(&tunable) as Arc<dyn MechanismHooks>));
    Ok((cfg, tunable))
}

impl Environment<Cluster> {
    /// Open a single-cluster episode over `trace`.
    ///
    /// # Errors
    ///
    /// Invalid specs (zero interval, bad knob vectors, hook-less
    /// `Custom`), federated base configurations (use
    /// [`Environment::federated`]), and rejected submissions.
    pub fn new(spec: EnvSpec, trace: &Trace) -> Result<Self, String> {
        if spec.cfg.federation.is_some() {
            return Err("config carries a federation; use Environment::federated".into());
        }
        let (cfg, tunable) = build_cfg(&spec)?;
        let svc = SchedulerService::new(cfg, trace.system_size);
        Environment::from_parts(svc, tunable, &spec, trace)
    }
}

impl Environment<Federation> {
    /// Open a federated episode over `trace` (`spec.cfg.federation`
    /// must be set).
    pub fn federated(spec: EnvSpec, trace: &Trace) -> Result<Self, String> {
        if spec.cfg.federation.is_none() {
            return Err("Environment::federated needs cfg.federation".into());
        }
        let (cfg, tunable) = build_cfg(&spec)?;
        let svc = SchedulerService::<Federation>::federated(cfg, trace.system_size);
        Environment::from_parts(svc, tunable, &spec, trace)
    }
}

impl<B: SnapshotBackend> Environment<B> {
    fn from_parts(
        mut svc: SchedulerService<B>,
        tunable: Arc<TunableHooks>,
        spec: &EnvSpec,
        trace: &Trace,
    ) -> Result<Self, String> {
        // Trace jobs are already (submit, id)-sorted, which is the order
        // the batch pump injects in — the service reproduces its
        // tie-breaking from buffered order, so parity holds.
        for job in &trace.jobs {
            svc.submit(job.clone())
                .map_err(|e| format!("trace job rejected: {e:?}"))?;
        }
        let cfg = svc.config();
        Ok(Environment {
            base_ckpt_factor: spec.cfg.ckpt.interval_factor,
            base_backfill: (spec.cfg.easy_backfill, spec.cfg.backfill_on_reserved),
            victim_order: cfg.victim_order,
            shrink_strategy: cfg.shrink_strategy,
            svc,
            tunable,
            reward: spec.reward,
            interval: spec.decision_interval,
            next_tick: SimTime::ZERO,
            decisions: 0,
        })
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.svc.now()
    }

    /// Decision points taken so far.
    pub fn decisions(&self) -> usize {
        self.decisions
    }

    /// Whether the episode is over: every job injected and every event
    /// delivered. (A fully starved queue with nothing running also
    /// terminates — no event will ever unblock it, so stepping further
    /// cannot change anything. `&mut`: the event queue compacts
    /// cancelled entries lazily on inspection.)
    pub fn done(&mut self) -> bool {
        self.svc.pending_jobs() == 0 && !self.svc.events_pending()
    }

    /// Sample the deterministic feature snapshot at the current instant.
    /// (`&mut` because the EASY-shadow projection reuses the driver's
    /// scratch buffers; simulator state is untouched.)
    pub fn observe(&mut self) -> Observation {
        let now = self.svc.now();
        let pending_jobs = self.svc.pending_jobs();
        let core = self.svc.core_mut();

        let ids: Vec<_> = core.queue.ids().collect();
        let head = ids.first().copied();
        let mut ages: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
        for &j in &ids {
            let spec = core.spec(j);
            let cls = (spec.class == JobClass::Capability) as usize;
            ages[cls].push(now.since(spec.submit).as_secs());
        }
        ages[0].sort_unstable();
        ages[1].sort_unstable();
        let pct = |v: &[u64], q: usize| -> u64 {
            if v.is_empty() {
                0
            } else {
                v[(v.len() - 1) * q / 100]
            }
        };

        let head_slack_s = head.map(|h| {
            let shadow = core.head_shadow(h, now);
            if shadow.time == SimTime::MAX {
                u64::MAX
            } else {
                shadow.time.since(now).as_secs()
            }
        });

        let cluster = core.backend();
        let shards = cluster.shard_count();
        let mut running_jobs = 0u32;
        cluster.for_each_running(&mut |_| running_jobs += 1);
        let cap_running = core.running_capability();

        Observation {
            now,
            pending_jobs,
            queue_depth: ids.len(),
            queue_by_class: [ages[0].len(), ages[1].len()],
            queue_age_p50_s: [pct(&ages[0], 50), pct(&ages[1], 50)],
            queue_age_p90_s: [pct(&ages[0], 90), pct(&ages[1], 90)],
            queue_age_max_s: [
                ages[0].last().copied().unwrap_or(0),
                ages[1].last().copied().unwrap_or(0),
            ],
            head_slack_s,
            total_nodes: cluster.total_nodes(),
            free_nodes: cluster.free_count(),
            live_nodes: cluster.live_nodes(),
            shard_free: (0..shards).map(|i| cluster.shard_free_nodes(i)).collect(),
            shard_live: (0..shards).map(|i| cluster.shard_live_nodes(i)).collect(),
            running_jobs,
            running_by_class: [running_jobs - cap_running, cap_running],
        }
    }

    /// Apply `action` and advance one decision interval. Returns
    /// [`Environment::done`] after the step.
    pub fn step(&mut self, action: &Action) -> Result<bool, String> {
        if let Some(m) = action.mechanism {
            if m.is_baseline() {
                return Err(
                    "cannot switch to the baseline mid-episode: the baseline never consults hooks"
                        .into(),
                );
            }
            self.tunable
                .set_mechanism(m, self.victim_order, self.shrink_strategy)?;
        }
        if let Some(vector) = &action.knobs {
            vector.validate()?;
            if vector.placement.is_some() {
                return Err("placement policy is fixed at episode start".into());
            }
            self.tunable.set_throttle(vector.admit_throttle);
            let (easy, reserved) = match vector.backfill {
                Some(level) => level.flags(),
                None => self.base_backfill,
            };
            let factor = self.base_ckpt_factor * vector.ckpt_mult;
            let core = self.svc.core_mut();
            core.cfg.easy_backfill = easy;
            core.cfg.backfill_on_reserved = reserved;
            if core.cfg.ckpt.interval_factor != factor {
                core.cfg.ckpt.interval_factor = factor;
                // Memoised per-size intervals are stale now.
                core.tau_memo.borrow_mut().clear();
            }
        }
        self.next_tick += self.interval;
        self.svc.step_until(self.next_tick);
        self.decisions += 1;
        Ok(self.done())
    }

    /// Finish the episode: drain every remaining event, fold the reward.
    pub fn finish(self) -> EpisodeReport {
        let decisions = self.decisions;
        let reward_spec = self.reward;
        let outcome = self.svc.into_outcome();
        let reward = reward_spec.score(&outcome.metrics, outcome.classes.as_ref());
        EpisodeReport {
            outcome,
            reward,
            decisions,
        }
    }

    /// Drive a whole episode with `policy`, one observation → action per
    /// decision interval.
    pub fn run<P: FnMut(&Observation) -> Action>(
        mut self,
        mut policy: P,
    ) -> Result<EpisodeReport, String> {
        while !self.done() {
            let obs = self.observe();
            let action = policy(&obs);
            self.step(&action)?;
        }
        Ok(self.finish())
    }
}
