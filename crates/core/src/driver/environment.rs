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
//! action is one configuration change: the step builds `base ⊕ vector`
//! over the chosen composition (throttled through [`CapabilityAware`])
//! and hands it to the service's `reconfigure`, the same call a what-if
//! [`SchedulerService::fork`] makes. The service's bitwise parity
//! contract therefore lifts directly: driving an episode with
//! [`Action::hold`] at every decision point is **bitwise identical** to
//! batch-replaying the same trace under the base configuration — for
//! all six mechanisms, custom hook stacks, and federations — and
//! applying an action at a decision point is bitwise a fork of the
//! session under that configuration (`tests/environment_parity.rs`
//! asserts both).
//!
//! Knob semantics are *absolute*: applying a vector moves the
//! configuration to `base ⊕ vector`, so re-applying a vector is
//! idempotent and [`Action::hold`] (no vector at all) touches nothing.
//! A mechanism switch follows the fork's rule: jobs the scheduler sees
//! after the switch get the new mechanism's notice treatment, jobs it
//! already knows keep theirs.

use super::hooks::{hooks_for, standard_composition, CapabilityAware, HooksHandle, MechanismHooks};
use super::service::SchedulerService;
use super::SimOutcome;
use crate::config::{Mechanism, SimConfig};
use hws_cluster::{ClassAffinity, Cluster, Federation, FirstFit, LeastLoaded, SnapshotBackend};
use hws_metrics::RewardSpec;
use hws_sim::{SimDuration, SimTime};
use hws_workload::{JobClass, KnobVector, PlacementChoice, Trace};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Knob application
// ---------------------------------------------------------------------

/// Apply the *configuration-level* knobs of `vector` to `cfg`: backfill
/// flags, checkpoint interval multiplier, placement policy. The
/// admission throttle is hook-level and **not** applied here;
/// [`config_for_knobs`] and every [`Environment`] configuration add it
/// on top, through one applier.
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

/// The one knob applier: `base ⊕ vector`, scheduling with `hooks` (the
/// hooks `base` names when `None`). An admission throttle `k` wraps
/// them in a [`CapabilityAware`] with shielding off, which delegates
/// everything but the capability admission cap.
fn knob_config(
    base: &SimConfig,
    hooks: Option<Arc<dyn MechanismHooks>>,
    vector: &KnobVector,
) -> Result<SimConfig, String> {
    let mut cfg = base.clone();
    apply_knobs(&mut cfg, vector)?;
    if let Some(k) = vector.admit_throttle {
        let inner = hooks.unwrap_or_else(|| hooks_for(&cfg));
        let throttled = CapabilityAware::from_arc(inner)
            .allow_capability_victims()
            .with_max_running(k);
        cfg.hooks = Some(HooksHandle::new(throttled));
    } else if let Some(hooks) = hooks {
        cfg.hooks = Some(HooksHandle(hooks));
    }
    Ok(cfg)
}

/// Materialise a search candidate: `base` with `mechanism` selected and
/// `vector` applied. With no admission throttle the result carries no
/// hooks at all, so it is bitwise equivalent to a plain
/// `base.with_mechanism(mechanism)`; a throttled candidate runs the
/// mechanism's standard composition under the throttle.
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
    let base = SimConfig {
        mechanism,
        hooks: None,
        ..base.clone()
    };
    knob_config(&base, None, vector)
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
    /// Switch to this mechanism's standard composition; the active knob
    /// point, throttle included, carries over. Rejected for `Baseline`
    /// (the baseline never consults hooks, so a mid-run "switch" would
    /// silently misbehave) and `Custom`.
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
    /// The episode's base configuration; knob vectors apply to it
    /// (absolute ⊕). No action changes its `mechanism`, so `hybrid()`
    /// and the outcome's mechanism tag stay the base's.
    base: SimConfig,
    /// The active mechanism composition, without the throttle.
    hooks: Arc<dyn MechanismHooks>,
    /// The active knob point.
    knobs: KnobVector,
    reward: RewardSpec,
    interval: SimDuration,
    next_tick: SimTime,
    decisions: usize,
}

/// Validate the spec and build the episode's opening configuration plus
/// the composition it runs.
fn open_cfg(spec: &EnvSpec) -> Result<(SimConfig, Arc<dyn MechanismHooks>), String> {
    if spec.decision_interval.is_zero() {
        return Err("decision interval must be positive".into());
    }
    if spec.cfg.mechanism == Mechanism::Custom && spec.cfg.hooks.is_none() {
        return Err("Mechanism::Custom requires explicit SimConfig::hooks".into());
    }
    let hooks = hooks_for(&spec.cfg);
    let cfg = knob_config(&spec.cfg, Some(Arc::clone(&hooks)), &spec.knobs)?;
    Ok((cfg, hooks))
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
        let (cfg, hooks) = open_cfg(&spec)?;
        let svc = SchedulerService::new(cfg, trace.system_size);
        Environment::from_parts(svc, hooks, spec, trace)
    }
}

impl Environment<Federation> {
    /// Open a federated episode over `trace` (`spec.cfg.federation`
    /// must be set).
    pub fn federated(spec: EnvSpec, trace: &Trace) -> Result<Self, String> {
        if spec.cfg.federation.is_none() {
            return Err("Environment::federated needs cfg.federation".into());
        }
        let (cfg, hooks) = open_cfg(&spec)?;
        let svc = SchedulerService::<Federation>::federated(cfg, trace.system_size);
        Environment::from_parts(svc, hooks, spec, trace)
    }
}

impl<B: SnapshotBackend> Environment<B> {
    fn from_parts(
        mut svc: SchedulerService<B>,
        hooks: Arc<dyn MechanismHooks>,
        spec: EnvSpec,
        trace: &Trace,
    ) -> Result<Self, String> {
        // Trace jobs are already (submit, id)-sorted, which is the order
        // the batch pump injects in — the service reproduces its
        // tie-breaking from buffered order, so parity holds.
        for job in &trace.jobs {
            svc.submit(job.clone())
                .map_err(|e| format!("trace job rejected: {e:?}"))?;
        }
        Ok(Environment {
            svc,
            base: spec.cfg,
            hooks,
            knobs: spec.knobs,
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
    ///
    /// The action's whole target configuration is built before the
    /// session is touched, so a rejected action changes nothing.
    pub fn step(&mut self, action: &Action) -> Result<bool, String> {
        if action.mechanism.is_some() || action.knobs.is_some() {
            let hooks = match action.mechanism {
                None => Arc::clone(&self.hooks),
                Some(m) if m.is_baseline() => return Err(
                    "cannot switch to the baseline mid-episode: the baseline never consults hooks"
                        .into(),
                ),
                Some(Mechanism::Custom) => {
                    return Err(
                        "cannot switch to Mechanism::Custom (no built-in composition)".into(),
                    )
                }
                Some(m) => {
                    standard_composition(m, self.base.victim_order, self.base.shrink_strategy)
                }
            };
            let knobs = match &action.knobs {
                None => self.knobs.clone(),
                Some(v) if v.placement.is_some() => {
                    return Err("placement policy is fixed at episode start".into())
                }
                Some(v) => KnobVector {
                    placement: self.knobs.placement,
                    ..v.clone()
                },
            };
            let cfg = knob_config(&self.base, Some(Arc::clone(&hooks)), &knobs)?;
            self.svc.reconfigure(&cfg);
            self.hooks = hooks;
            self.knobs = knobs;
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
