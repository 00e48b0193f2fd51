//! Differential parity: the `Environment` facade vs. plain batch replay.
//!
//! The tuning environment (DESIGN.md §16) wraps the live
//! `SchedulerService` in an observation/action loop. Its core contract
//! is that the wrapping itself is *invisible*: driving an episode with
//! the identity action ([`Action::hold`]) at every decision point must
//! be **bitwise identical** to `Simulator::run_trace` on the same
//! configuration — for all six mechanisms, the FCFS/EASY baseline,
//! custom hook stacks (`CapabilityAware`), and a two-shard federation.
//! That is what keeps every committed `BENCH_*.json` honest when the
//! policy-search plumbing sits in the same binary.
//!
//! Also covered here: identity parity is independent of the decision
//! cadence (proptest over seed × mechanism × interval), non-identity
//! actions actually steer the simulation, an action applied mid-episode
//! is bitwise a `SchedulerService::fork` under the same configuration
//! (the switch ≡ fork oracle), and the mid-episode rejection arms
//! (baseline switch, `Custom` switch, placement change, invalid
//! vector) each return an error and leave the episode untouched.

use hws_cluster::SnapshotBackend;
use hws_core::Timeline;
use hws_sim::{SimDuration as D, SimTime as T};
use hws_workload::MaterializedSource;
use hybrid_workload_sched::hws_cluster;
use hybrid_workload_sched::prelude::*;
use proptest::prelude::*;

/// Run `trace` as an identity-action episode and return the report.
fn identity_episode(cfg: &SimConfig, trace: &Trace, interval: D) -> EpisodeReport {
    let spec = EnvSpec::new(cfg.clone()).with_interval(interval);
    Environment::new(spec, trace)
        .expect("open episode")
        .run(|_| Action::hold())
        .expect("identity episode")
}

/// Assert every deterministic slice of two outcomes is identical.
fn assert_outcome_eq(env: &SimOutcome, batch: &SimOutcome, what: &str) {
    assert_eq!(env.metrics, batch.metrics, "{what}: metrics diverged");
    assert_eq!(env.engine, batch.engine, "{what}: engine stats diverged");
    assert_eq!(
        format!("{:?}", env.classes),
        format!("{:?}", batch.classes),
        "{what}: class breakdown diverged"
    );
    assert_eq!(
        format!("{:?}", env.shards),
        format!("{:?}", batch.shards),
        "{what}: shard stats diverged"
    );
    assert_eq!(
        env.admitted_jobs, batch.admitted_jobs,
        "{what}: admitted job count diverged"
    );
    // `peak_resident_jobs` is deliberately not compared. Both runs share
    // one arrival pump, but whenever the event queue runs dry the pump
    // injects every buffered job due by its horizon: the next decision
    // point for an episode, the whole lookahead buffer for batch replay.
    // Arena residency therefore depends on how the run is stepped, not
    // on the schedule — the same exclusion the service parity contract
    // makes (`crates/core/tests/service_live.rs`).
}

#[test]
fn identity_episode_matches_batch_for_all_six_mechanisms_and_baseline() {
    let tcfg = TraceConfig::tiny();
    for seed in [0u64, 7] {
        let trace = tcfg.generate(seed);
        let mut mechs = Mechanism::ALL_SIX.to_vec();
        mechs.push(Mechanism::Baseline);
        for m in mechs {
            let cfg = SimConfig::with_mechanism(m);
            let batch = Simulator::run_trace(&cfg, &trace);
            let report = identity_episode(&cfg, &trace, D::from_hours(6));
            assert!(
                report.decisions > 0,
                "{} seed {seed}: no decisions",
                m.name()
            );
            assert_outcome_eq(
                &report.outcome,
                &batch,
                &format!("{} seed {seed}", m.name()),
            );
        }
    }
}

#[test]
fn identity_episode_matches_batch_with_capability_hooks() {
    // A custom hook stack (CapabilityAware over the standard
    // composition) on a trace that actually carries capability jobs: the
    // episode must run the stack exactly as batch replay does.
    let mut trace = TraceConfig::tiny().generate(11);
    let tagged = trace.tag_capability(0.3);
    assert!(tagged > 0, "fixture must carry capability jobs");
    for m in [Mechanism::CUA_PAA, Mechanism::CUP_SPAA] {
        let cfg = SimConfig::with_hooks(CapabilityAware::for_mechanism(m));
        let batch = Simulator::run_trace(&cfg, &trace);
        assert!(batch.classes.is_some());
        let report = identity_episode(&cfg, &trace, D::from_hours(4));
        assert_outcome_eq(&report.outcome, &batch, &format!("capability {}", m.name()));
        // The reward is the fold over the same metrics the batch saw.
        assert_eq!(
            report.reward,
            RewardSpec::neg_bounded_slowdown().score(&batch.metrics, batch.classes.as_ref()),
            "{}: reward fold diverged",
            m.name()
        );
    }
}

#[test]
fn identity_episode_matches_batch_on_a_two_shard_federation() {
    let trace = TraceConfig::tiny().generate(5);
    for m in [Mechanism::N_SPAA, Mechanism::CUA_SPAA] {
        let cfg = SimConfig::with_mechanism(m)
            .federated(FederationConfig::even_split(2, trace.system_size));
        let batch = Simulator::run_trace(&cfg, &trace);
        assert_eq!(batch.shards.as_ref().map(Vec::len), Some(2));
        let spec = EnvSpec::new(cfg.clone()).with_interval(D::from_hours(6));
        let report = Environment::<Federation>::federated(spec, &trace)
            .expect("open federated episode")
            .run(|_| Action::hold())
            .expect("identity episode");
        assert_outcome_eq(&report.outcome, &batch, &format!("federated {}", m.name()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Identity parity must be independent of the decision cadence: the
    // observation/step loop only chooses *when* to look, never what
    // happens. A batch run with a timeline observer is one more input.
    #[test]
    fn identity_parity_is_cadence_independent(
        seed in 0..48u64,
        mech_idx in 0..6usize,
        interval_idx in 0..3usize,
    ) {
        const INTERVALS_H: [u64; 3] = [1, 5, 23];
        let trace = TraceConfig::tiny().generate(seed);
        let cfg = SimConfig::with_mechanism(Mechanism::ALL_SIX[mech_idx]);
        let batch = Simulator::run_trace(&cfg, &trace);
        let report = identity_episode(&cfg, &trace, D::from_hours(INTERVALS_H[interval_idx]));
        prop_assert_eq!(&report.outcome.metrics, &batch.metrics);
        prop_assert_eq!(&report.outcome.engine, &batch.engine);
        prop_assert_eq!(report.outcome.admitted_jobs, batch.admitted_jobs);
        // Observing a run reports its transitions and changes nothing.
        let (observed, tl) =
            Simulator::run_observed(&cfg, MaterializedSource::new(&trace), Timeline::new());
        prop_assert_eq!(&observed.metrics, &batch.metrics);
        prop_assert_eq!(&observed.engine, &batch.engine);
        prop_assert_eq!(observed.admitted_jobs, batch.admitted_jobs);
        prop_assert_eq!(observed.peak_resident_jobs, batch.peak_resident_jobs);
        prop_assert!(!tl.is_empty());
    }
}

/// Hold until decision `tick` (or the episode's end), apply `action`,
/// then hold to the end. Returns the decisions held before the action
/// and the outcome.
fn act_at<B: SnapshotBackend>(
    mut env: Environment<B>,
    tick: usize,
    action: &Action,
) -> (usize, SimOutcome) {
    while env.decisions() < tick && !env.done() {
        env.step(&Action::hold()).expect("hold");
    }
    let held = env.decisions();
    env.step(action).expect("valid action");
    let report = env.run(|_| Action::hold()).expect("episode");
    (held, report.outcome)
}

/// Submit `trace`, step through `ticks` decision intervals the way an
/// episode does, then fork under `cfg` and drain the fork.
fn fork_at<B: SnapshotBackend>(
    mut svc: SchedulerService<B>,
    trace: &Trace,
    interval: D,
    ticks: usize,
    cfg: &SimConfig,
) -> SimOutcome {
    for job in &trace.jobs {
        svc.submit(job.clone()).expect("trace job");
    }
    for i in 1..=ticks as u64 {
        svc.step_until(T::from_secs(interval.as_secs() * i));
    }
    svc.fork(cfg).into_outcome()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Switch ≡ fork: an action applied at a decision point is bitwise a
    // fork of the session at that instant under the configuration the
    // knob applier builds — for every mechanism switch, N ↔ CUA/CUP
    // included (jobs seen after the switch get the new notice rule).
    #[test]
    fn an_action_is_a_fork_under_the_applied_config(
        seed in 0..32u64,
        base_idx in 0..6usize,
        target_idx in 0..6usize,
        tick in 0..24usize,
        throttle_idx in 0..4usize,
        backfill_idx in 0..4usize,
        ckpt_idx in 0..3usize,
        federated in any::<bool>(),
    ) {
        const THROTTLES: [Option<u32>; 4] = [None, Some(0), Some(1), Some(3)];
        const BACKFILLS: [Option<BackfillLevel>; 4] = [
            None,
            Some(BackfillLevel::Off),
            Some(BackfillLevel::Conservative),
            Some(BackfillLevel::Aggressive),
        ];
        const CKPT_MULTS: [f64; 3] = [0.5, 1.0, 2.0];
        let interval = D::from_hours(6);
        let mut trace = TraceConfig::tiny().generate(seed);
        trace.tag_capability(0.3);
        let mut base = SimConfig::with_mechanism(Mechanism::ALL_SIX[base_idx]);
        base.paranoid_checks = true;
        let target = Mechanism::ALL_SIX[target_idx];
        let knobs = KnobVector {
            admit_throttle: THROTTLES[throttle_idx],
            backfill: BACKFILLS[backfill_idx],
            ckpt_mult: CKPT_MULTS[ckpt_idx],
            placement: None,
        };
        let action = Action {
            mechanism: Some(target),
            knobs: Some(knobs.clone()),
        };
        let what = format!(
            "seed {seed} {} -> {} at tick {tick}, {}, federated {federated}",
            base.mechanism.name(),
            target.name(),
            knobs.to_text()
        );
        if federated {
            let base = base.federated(FederationConfig::even_split(2, trace.system_size));
            let cfg = config_for_knobs(&base, target, &knobs).expect("candidate");
            let spec = EnvSpec::new(base.clone()).with_interval(interval);
            let env = Environment::<Federation>::federated(spec, &trace).expect("open");
            let (ticks, switched) = act_at(env, tick, &action);
            let svc = SchedulerService::<Federation>::federated(base, trace.system_size);
            let forked = fork_at(svc, &trace, interval, ticks, &cfg);
            assert_outcome_eq(&switched, &forked, &what);
        } else {
            let cfg = config_for_knobs(&base, target, &knobs).expect("candidate");
            let spec = EnvSpec::new(base.clone()).with_interval(interval);
            let env = Environment::new(spec, &trace).expect("open");
            let (ticks, switched) = act_at(env, tick, &action);
            let svc = SchedulerService::new(base, trace.system_size);
            let forked = fork_at(svc, &trace, interval, ticks, &cfg);
            assert_outcome_eq(&switched, &forked, &what);
        }
    }
}

#[test]
fn observations_are_coherent_and_reproducible() {
    let trace = TraceConfig::tiny().generate(2);
    let spec = EnvSpec::new(SimConfig::with_mechanism(Mechanism::CUA_SPAA))
        .with_interval(D::from_hours(2));
    let mut env = Environment::new(spec, &trace).expect("open");
    let first = env.observe();
    assert_eq!(first.now, T::ZERO);
    assert_eq!(first.pending_jobs, trace.jobs.len());
    // Sampling is pure: observing twice at the same instant is identical.
    assert_eq!(env.observe(), first);
    let n_shards = first.shard_free.len();
    assert_eq!(n_shards, 1);
    assert_eq!(first.features().len(), 18 + 2 * n_shards);

    let mut steps = 0usize;
    while !env.done() {
        let obs = env.observe();
        assert_eq!(
            obs.queue_depth,
            obs.queue_by_class[0] + obs.queue_by_class[1]
        );
        assert!(obs.free_nodes <= obs.live_nodes && obs.live_nodes <= obs.total_nodes);
        assert_eq!(
            obs.running_jobs,
            obs.running_by_class[0] + obs.running_by_class[1]
        );
        if obs.queue_depth == 0 {
            assert_eq!(obs.head_slack_s, None);
        }
        env.step(&Action::hold()).expect("step");
        steps += 1;
    }
    assert_eq!(env.decisions(), steps);
}

#[test]
fn throttle_action_actually_steers_the_simulation() {
    // Sanity that non-identity actions are not no-ops: throttling
    // capability admissions to zero must change the outcome on a trace
    // with capability jobs.
    let mut trace = TraceConfig::tiny().generate(9);
    assert!(trace.tag_capability(0.4) > 0);
    let cfg = SimConfig::with_hooks(CapabilityAware::for_mechanism(Mechanism::CUA_SPAA));

    let held = identity_episode(&cfg, &trace, D::from_hours(4));
    let spec = EnvSpec::new(cfg.clone()).with_interval(D::from_hours(4));
    let choked = Environment::new(spec, &trace)
        .expect("open")
        .run(|_| Action {
            mechanism: None,
            knobs: Some(KnobVector {
                admit_throttle: Some(0),
                ..KnobVector::identity()
            }),
        })
        .expect("throttled episode");

    assert!(
        choked.outcome.metrics != held.outcome.metrics,
        "a zero throttle on a capability-carrying trace must change the metrics"
    );
    assert!(
        choked.outcome.metrics.completed_jobs < held.outcome.metrics.completed_jobs,
        "starved capability jobs cannot complete"
    );
}

#[test]
fn initial_knob_point_matches_the_materialised_search_candidate() {
    // EnvSpec::with_knobs and config_for_knobs are the same ⊕: an
    // episode opened *at* a knob point equals a batch run of the
    // materialised candidate config.
    let mut trace = TraceConfig::tiny().generate(4);
    trace.tag_capability(0.25);
    let knobs = KnobVector {
        admit_throttle: Some(1),
        backfill: Some(BackfillLevel::Conservative),
        ckpt_mult: 2.0,
        placement: None,
    };
    let base = SimConfig::with_mechanism(Mechanism::CUP_PAA);
    let candidate = config_for_knobs(&base, Mechanism::CUP_PAA, &knobs).expect("candidate");
    let batch = Simulator::run_trace(&candidate, &trace);

    let spec = EnvSpec::new(base)
        .with_interval(D::from_hours(6))
        .with_knobs(knobs);
    let report = Environment::new(spec, &trace)
        .expect("open")
        .run(|_| Action::hold())
        .expect("episode");
    assert_outcome_eq(&report.outcome, &batch, "knob-point episode");
}

#[test]
fn mid_episode_rejection_arms_each_error_cleanly() {
    // Each arm must fail before it touches the session: the rest of the
    // episode equals one that never sent the action.
    let trace = TraceConfig::tiny().generate(0);
    let cfg = SimConfig::with_mechanism(Mechanism::CUA_PAA);
    let interval = D::from_hours(6);
    let open = || {
        Environment::new(EnvSpec::new(cfg.clone()).with_interval(interval), &trace).expect("open")
    };
    let held = identity_episode(&cfg, &trace, interval).outcome;

    // The last arm pairs a valid switch with an invalid vector. The
    // switch alone steers the run, so a half-applied action would show.
    let switch = Action {
        mechanism: Some(Mechanism::CUP_SPAA),
        knobs: None,
    };
    let (_, steered) = act_at(open(), 0, &switch);
    assert!(
        steered.metrics != held.metrics,
        "fixture must make the switch visible"
    );

    let arms = [
        (
            Action {
                mechanism: Some(Mechanism::Baseline),
                knobs: None,
            },
            "baseline",
        ),
        (
            Action {
                mechanism: Some(Mechanism::Custom),
                knobs: None,
            },
            "Custom",
        ),
        (
            Action {
                mechanism: None,
                knobs: Some(KnobVector {
                    placement: Some(PlacementChoice::LeastLoaded),
                    ..KnobVector::identity()
                }),
            },
            "placement",
        ),
        (
            Action {
                knobs: Some(KnobVector {
                    ckpt_mult: f64::NAN,
                    ..KnobVector::identity()
                }),
                ..switch
            },
            "NaN",
        ),
    ];
    for (action, needle) in arms {
        let mut env = open();
        let err = env.step(&action).unwrap_err();
        assert!(err.contains(needle), "{err}");
        assert_eq!(
            env.decisions(),
            0,
            "{needle}: a rejected step takes no decision"
        );
        let report = env.run(|_| Action::hold()).expect("episode");
        assert_outcome_eq(&report.outcome, &held, &format!("after the {needle} arm"));
    }
}

#[test]
fn malformed_specs_are_rejected_at_open() {
    let trace = TraceConfig::tiny().generate(0);

    let err = Environment::new(
        EnvSpec::new(SimConfig::with_mechanism(Mechanism::N_PAA)).with_interval(D::ZERO),
        &trace,
    )
    .err()
    .unwrap();
    assert!(err.contains("interval"), "{err}");

    let fed_cfg = SimConfig::with_mechanism(Mechanism::N_PAA)
        .federated(FederationConfig::even_split(2, trace.system_size));
    let err = Environment::new(EnvSpec::new(fed_cfg), &trace)
        .err()
        .unwrap();
    assert!(err.contains("federated"), "{err}");

    let err = Environment::<Federation>::federated(
        EnvSpec::new(SimConfig::with_mechanism(Mechanism::N_PAA)),
        &trace,
    )
    .err()
    .unwrap();
    assert!(err.contains("federation"), "{err}");

    let err = Environment::new(
        EnvSpec::new(SimConfig::with_mechanism(Mechanism::N_PAA)).with_knobs(KnobVector {
            ckpt_mult: 0.0,
            ..KnobVector::identity()
        }),
        &trace,
    )
    .err()
    .unwrap();
    assert!(err.contains("minimum"), "{err}");
}
