//! Capability/capacity co-scheduling safety nets.
//!
//! * A **regression test pinning zero-capability bitwise parity**: the
//!   capability-aware hooks wrapped around any mechanism must reproduce
//!   the plain two-class path exactly — per-seed metrics *and* engine
//!   counters — when the trace carries no capability jobs. This is the
//!   oracle (same style as `tests/federation.rs`) that keeps every
//!   committed `BENCH_*.json` baseline byte-stable.
//! * A **regression test** that capability jobs are never chosen as
//!   preemption victims under the default capability-aware policy (and
//!   *are* chosen again when shielding is explicitly disabled).
//! * A **property test over the admission-knob edge values** (fraction
//!   0.0/1.0, throttle 0/1/none), mirroring the `SwfImportConfig`
//!   edge-value proptest: no panics, no wedged simulations, starved
//!   capability work stays starved, and the zero-fraction rows stay
//!   bitwise identical to the plain path.

use hws_sim::{SimDuration as D, SimTime as T};
use hybrid_workload_sched::prelude::*;
use proptest::prelude::*;

#[test]
fn zero_capability_runs_are_bitwise_identical_to_the_plain_path() {
    let tcfg = TraceConfig::small();
    for seed in [0u64, 7] {
        let trace = tcfg.generate(seed);
        assert_eq!(trace.count_class(JobClass::Capability), 0);
        for m in Mechanism::ALL_SIX {
            let plain = Simulator::run_trace(&SimConfig::with_mechanism(m), &trace);
            let wrapped = Simulator::run_trace(
                &SimConfig::with_hooks(CapabilityAware::for_mechanism(m)),
                &trace,
            );
            assert_eq!(
                wrapped.metrics,
                plain.metrics,
                "{} seed {seed}: capability-aware hooks diverged on a zero-capability trace",
                m.name()
            );
            assert_eq!(
                wrapped.engine,
                plain.engine,
                "{} seed {seed}: engine stats diverged on a zero-capability trace",
                m.name()
            );
            assert!(wrapped.classes.is_none() && plain.classes.is_none());
        }
    }
}

#[test]
fn zero_capability_parity_holds_with_a_throttle_configured() {
    // The admission knob must be invisible while no capability jobs exist,
    // even at its most aggressive setting.
    let trace = TraceConfig::tiny().generate(3);
    for m in [Mechanism::N_PAA, Mechanism::CUP_SPAA] {
        let plain = Simulator::run_trace(&SimConfig::with_mechanism(m), &trace);
        let throttled = Simulator::run_trace(
            &SimConfig::with_hooks(CapabilityAware::for_mechanism(m).with_max_running(0)),
            &trace,
        );
        assert_eq!(throttled.metrics, plain.metrics, "{}", m.name());
        assert_eq!(throttled.engine, plain.engine, "{}", m.name());
    }
}

/// Two identical long rigid jobs fill the machine; an on-demand job
/// arrives and must preempt one. Ties break by id, so the *capability*
/// job (id 0) would be the victim — unless the default policy shields it.
fn victim_scenario() -> Trace {
    let jobs = vec![
        JobSpecBuilder::rigid(0)
            .size(50)
            .work(D::from_hours(5))
            .estimate(D::from_hours(6))
            .capability()
            .build(),
        JobSpecBuilder::rigid(1)
            .size(50)
            .work(D::from_hours(5))
            .estimate(D::from_hours(6))
            .build(),
        JobSpecBuilder::on_demand(2)
            .size(50)
            .work(D::from_mins(30))
            .estimate(D::from_hours(1))
            .submit_at(T::from_secs(600))
            .build(),
    ];
    Trace::new(100, D::from_days(2), jobs)
}

#[test]
fn capability_jobs_are_never_preemption_victims_under_the_default_policy() {
    let trace = victim_scenario();
    let out = Simulator::run_trace(
        &SimConfig::with_hooks(CapabilityAware::for_mechanism(Mechanism::N_PAA)),
        &trace,
    );
    let classes = out.classes.expect("capability jobs present");
    assert_eq!(classes.capability.jobs, 1);
    assert_eq!(
        classes.capability.preempted_jobs, 0,
        "the capability job was preempted despite the default shielding"
    );
    // The on-demand job still got its nodes — from the capacity victim.
    assert_eq!(classes.capacity.preempted_jobs, 1);
    assert_eq!(out.metrics.completed_jobs, 3);
    assert!((out.metrics.instant_start_rate - 1.0).abs() < 1e-9);
}

#[test]
fn disabling_the_shield_restores_the_paper_victim_ordering() {
    // Same scenario, shielding off: overhead ties break by id, so the
    // capability job (id 0) is preempted — proving the shield (not luck)
    // protected it above.
    let trace = victim_scenario();
    let out = Simulator::run_trace(
        &SimConfig::with_hooks(
            CapabilityAware::for_mechanism(Mechanism::N_PAA).allow_capability_victims(),
        ),
        &trace,
    );
    let classes = out.classes.expect("capability jobs present");
    assert_eq!(classes.capability.preempted_jobs, 1);
    assert_eq!(classes.capacity.preempted_jobs, 0);
}

#[test]
fn capability_jobs_are_shielded_from_cup_planned_preemptions_too() {
    // CUP plans cheap preemptions at notice time; capability candidates
    // must be dropped from that planning as well.
    let jobs = vec![
        JobSpecBuilder::rigid(0)
            .size(50)
            .work(D::from_hours(5))
            .estimate(D::from_hours(6))
            .capability()
            .build(),
        JobSpecBuilder::rigid(1)
            .size(50)
            .work(D::from_hours(5))
            .estimate(D::from_hours(6))
            .build(),
        JobSpecBuilder::on_demand(2)
            .size(50)
            .work(D::from_mins(30))
            .estimate(D::from_hours(1))
            .submit_at(T::from_secs(3_600))
            .notice(T::from_secs(1_800), T::from_secs(3_600))
            .build(),
    ];
    let trace = Trace::new(100, D::from_days(2), jobs);
    let out = Simulator::run_trace(
        &SimConfig::with_hooks(CapabilityAware::for_mechanism(Mechanism::CUP_PAA)),
        &trace,
    );
    let classes = out.classes.expect("capability jobs present");
    assert_eq!(classes.capability.preempted_jobs, 0);
    assert_eq!(out.metrics.completed_jobs, 3);
}

#[test]
fn admission_throttle_serializes_capability_campaigns() {
    // Two capability campaigns that could run side by side: a throttle of
    // one forces them to run back to back, roughly doubling the later
    // one's turnaround. The throttle releasing at all also validates the
    // driver's incremental running-capability counter (a stuck counter
    // would starve the second campaign forever).
    let jobs = vec![
        JobSpecBuilder::rigid(0)
            .size(40)
            .work(D::from_hours(1))
            .estimate(D::from_hours(1))
            .capability()
            .build(),
        JobSpecBuilder::rigid(1)
            .size(40)
            .work(D::from_hours(1))
            .estimate(D::from_hours(1))
            .capability()
            .build(),
    ];
    let trace = Trace::new(100, D::from_days(1), jobs);

    let free = Simulator::run_trace(
        &SimConfig::with_hooks(CapabilityAware::for_mechanism(Mechanism::CUA_SPAA)),
        &trace,
    );
    assert_eq!(free.metrics.completed_jobs, 2);
    let serial = Simulator::run_trace(
        &SimConfig::with_hooks(
            CapabilityAware::for_mechanism(Mechanism::CUA_SPAA).with_max_running(1),
        ),
        &trace,
    );
    assert_eq!(serial.metrics.completed_jobs, 2);
    let f = free.classes.unwrap().capability.avg_turnaround_h;
    let s = serial.classes.unwrap().capability.avg_turnaround_h;
    assert!((f - 1.0).abs() < 0.01, "parallel campaigns: {f} h");
    assert!((s - 1.5).abs() < 0.01, "serialized campaigns: {s} h");
}

#[test]
fn zero_throttle_starves_capability_work_but_not_capacity_work() {
    let jobs = vec![
        JobSpecBuilder::rigid(0)
            .size(60)
            .work(D::from_hours(1))
            .estimate(D::from_hours(1))
            .capability()
            .build(),
        JobSpecBuilder::rigid(1)
            .size(20)
            .work(D::from_mins(30))
            .estimate(D::from_mins(30))
            .build(),
        JobSpecBuilder::malleable(2)
            .size(20)
            .min_size(4)
            .work(D::from_mins(30))
            .build(),
    ];
    let trace = Trace::new(100, D::from_days(1), jobs);
    let out = Simulator::run_trace(
        &SimConfig::with_hooks(
            CapabilityAware::for_mechanism(Mechanism::CUA_SPAA).with_max_running(0),
        ),
        &trace,
    );
    let classes = out.classes.expect("capability jobs present");
    assert_eq!(classes.capability.completed, 0, "throttle 0 must starve");
    assert_eq!(classes.capability.killed, 0, "starved, not killed");
    // The small capacity jobs backfill behind the blocked head and finish.
    assert_eq!(classes.capacity.completed, 2);
}

// ---------------------------------------------------------------------------
// Property: admission-knob edge values never wedge a run
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct ArbJob {
    kind: u8,
    submit: u64,
    size: u32,
    work: u64,
}

fn arb_job() -> impl Strategy<Value = ArbJob> {
    (0..3u8, 0..50_000u64, 1..32u32, 60..6_000u64).prop_map(|(kind, submit, size, work)| ArbJob {
        kind,
        submit,
        size,
        work,
    })
}

fn build_trace(jobs: &[ArbJob], system: u32, capability_frac: f64) -> Trace {
    let specs: Vec<JobSpec> = jobs
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let work = D::from_secs(a.work);
            let b = match a.kind {
                0 => JobSpecBuilder::rigid(i as u64),
                1 => JobSpecBuilder::malleable(i as u64).min_size(1),
                _ => JobSpecBuilder::on_demand(i as u64),
            };
            b.submit_at(T::from_secs(a.submit))
                .size(a.size)
                .work(work)
                .estimate(work + D::from_secs(1_800))
                .build()
        })
        .collect();
    let mut trace = Trace::new(system, D::from_days(30), specs);
    trace.tag_capability(capability_frac);
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every corner of the admission knob — fraction 0.0/1.0, throttle
    /// 0/1/unlimited — terminates, keeps starved work starved (never
    /// killed), and reproduces the plain path bitwise at fraction zero.
    #[test]
    fn admission_knob_edge_values_never_wedge(
        jobs in proptest::collection::vec(arb_job(), 1..20),
        frac_sel in 0..3usize,
        throttle_sel in 0..3usize,
    ) {
        const SYSTEM: u32 = 64;
        let frac = [0.0, 1.0, 0.5][frac_sel];
        let throttle = [None, Some(0u32), Some(1u32)][throttle_sel];
        let trace = build_trace(&jobs, SYSTEM, frac);
        prop_assert!(trace.validate().is_ok());
        let n_cap = trace.count_class(JobClass::Capability);
        if frac == 0.0 {
            prop_assert_eq!(n_cap, 0);
        } else if frac == 1.0 {
            prop_assert_eq!(n_cap, trace.count_kind(JobKind::Rigid));
        }

        let mut hooks = CapabilityAware::for_mechanism(Mechanism::CUA_SPAA);
        if let Some(k) = throttle {
            hooks = hooks.with_max_running(k);
        }
        // Paranoid: cross-validates the incremental running-capability
        // counter against a full scan after every event.
        let cfg = SimConfig::with_hooks(hooks).paranoid();
        let out = Simulator::run_trace(&cfg, &trace);
        let done = out.metrics.completed_jobs + out.metrics.killed_jobs;

        if frac == 0.0 {
            // Bitwise parity with the plain two-class path, regardless of
            // the throttle setting.
            let plain = Simulator::run_trace(&SimConfig::with_mechanism(Mechanism::CUA_SPAA), &trace);
            prop_assert_eq!(out.metrics, plain.metrics);
            prop_assert_eq!(out.engine, plain.engine);
            prop_assert_eq!(done, trace.len(), "feasible two-class runs finish everything");
        } else if let Some(classes) = out.classes {
            prop_assert_eq!(classes.capability.jobs, n_cap);
            match throttle {
                Some(0) => {
                    // Starved, not killed — and the run still terminated.
                    prop_assert_eq!(classes.capability.completed, 0);
                    prop_assert_eq!(classes.capability.killed, 0);
                }
                _ => {
                    // Honest estimates and feasible sizes: every job
                    // reaches a terminal state, none killed.
                    prop_assert_eq!(done, trace.len());
                    prop_assert_eq!(out.metrics.killed_jobs, 0);
                }
            }
            // The default shield holds under arbitrary workloads: any
            // preemption a capability job absorbs can only be a squatter
            // eviction, which implies an on-demand job existed.
            if trace.count_kind(JobKind::OnDemand) == 0 {
                prop_assert_eq!(classes.capability.preempted_jobs, 0);
            }
        }
    }
}
