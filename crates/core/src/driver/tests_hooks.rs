//! Tests for the layered-architecture additions: the `MechanismHooks`
//! extension point and the parallel multi-seed sweep.

use super::hooks::{
    ArrivalPlan, ArrivalPolicy, ArrivalView, CollectUntilArrival, Composed, PreemptAtArrival,
    ShrinkThenPreempt,
};
use super::*;
use crate::config::{Mechanism, ShrinkStrategy, SimConfig, VictimOrder};
use hws_sim::{SimDuration, SimTime};
use hws_workload::job::JobSpecBuilder;
use hws_workload::{JobSpec, Trace, TraceConfig};

fn d(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn trace(system: u32, jobs: Vec<JobSpec>) -> Trace {
    Trace::new(system, SimDuration::from_days(7), jobs)
}

// ---------------------------------------------------------------------------
// Hooks and sweep (the layered-architecture additions)
// ---------------------------------------------------------------------------

#[test]
fn run_sweep_matches_sequential_bitwise() {
    // The acceptance bar: parallel sweeping must not perturb a single bit
    // of any per-seed metric.
    let tcfg = TraceConfig::tiny();
    for mechanism in [Mechanism::Baseline, Mechanism::CUA_SPAA, Mechanism::CUP_PAA] {
        let cfg = SimConfig::with_mechanism(mechanism);
        let seeds = [11u64, 12, 13, 14, 15];
        let swept = Simulator::run_sweep_with(&cfg, &seeds, |s| tcfg.generate(s));
        assert_eq!(swept.len(), seeds.len());
        for (out, &seed) in swept.iter().zip(&seeds) {
            let sequential = Simulator::run_trace(&cfg, &tcfg.generate(seed));
            assert_eq!(out.metrics, sequential.metrics, "{mechanism} seed {seed}");
            assert_eq!(out.engine, sequential.engine, "{mechanism} seed {seed}");
        }
    }
}

#[test]
fn run_sweep_empty_seed_list() {
    let out = Simulator::run_sweep_with(&SimConfig::baseline(), &[], |s| {
        TraceConfig::tiny().generate(s)
    });
    assert!(out.is_empty());
}

#[test]
fn run_sweep_with_arbitrary_factory_matches_sequential() {
    // The generic sweep must honor the same bitwise guarantee for any
    // trace factory (here: a seed-dependent notice-mix override, standing
    // in for SWF import or other non-generator sources).
    let make = |seed: u64| {
        let mix = if seed.is_multiple_of(2) {
            hws_workload::NoticeMix::W2
        } else {
            hws_workload::NoticeMix::W4
        };
        TraceConfig::tiny().with_notice_mix(mix).generate(seed)
    };
    let cfg = SimConfig::with_mechanism(Mechanism::CUP_SPAA);
    let seeds = [3u64, 4, 5, 6];
    let swept = Simulator::run_sweep_with(&cfg, &seeds, make);
    assert_eq!(swept.len(), seeds.len());
    for (out, &seed) in swept.iter().zip(&seeds) {
        let sequential = Simulator::run_trace(&cfg, &make(seed));
        assert_eq!(out.metrics, sequential.metrics, "seed {seed}");
        assert_eq!(out.engine, sequential.engine, "seed {seed}");
    }
}

#[test]
fn explicit_hooks_match_enum_mechanisms() {
    // Registering the standard compositions through `with_hooks` must be
    // indistinguishable from selecting the mechanism enum.
    let tr = TraceConfig::tiny().generate(21);
    let by_enum = SimConfig::with_mechanism(Mechanism::CUA_SPAA);
    let by_hooks = SimConfig::with_hooks(Composed::new(
        "CUA&SPAA",
        CollectUntilArrival,
        ShrinkThenPreempt {
            strategy: ShrinkStrategy::EvenWaterFill,
            fallback: PreemptAtArrival {
                order: VictimOrder::Overhead,
            },
        },
    ));
    let a = Simulator::run_trace(&by_enum, &tr);
    let b = Simulator::run_trace(&by_hooks, &tr);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.engine, b.engine);
}

/// A seventh mechanism, registered without touching driver internals:
/// preempt the *youngest* runs first, shrink nothing. Built on the stock
/// `select_victims` kernel (the from-scratch loop variant lives in
/// `examples/custom_policy.rs`).
#[derive(Debug)]
struct YoungestFirst;

impl ArrivalPolicy for YoungestFirst {
    fn on_arrival(&self, view: &ArrivalView<'_>) -> ArrivalPlan {
        let selected = crate::mechanism::select_victims(
            view.victims.to_vec(),
            view.need_extra,
            VictimOrder::NewestFirst,
        );
        match selected {
            Some(preempt) => ArrivalPlan {
                shrinks: Vec::new(),
                preempt,
            },
            None => ArrivalPlan::wait(),
        }
    }
}

#[test]
fn custom_seventh_mechanism_runs_clean() {
    let tr = TraceConfig::tiny().generate(5);
    let mut cfg = SimConfig::with_hooks(Composed::new(
        "CUA&YoungestFirst",
        CollectUntilArrival,
        YoungestFirst,
    ));
    cfg.paranoid_checks = true;
    let out = Simulator::run_trace(&cfg, &tr);
    assert_eq!(out.mechanism, Mechanism::Custom);
    assert_eq!(
        out.metrics.completed_jobs + out.metrics.killed_jobs,
        tr.len(),
        "custom mechanism must complete every job"
    );
    assert_eq!(out.metrics.killed_jobs, 0);
    // It is a hybrid mechanism: on-demand treatment must beat baseline.
    let base = Simulator::run_trace(&SimConfig::baseline(), &tr);
    assert!(out.metrics.instant_start_rate >= base.metrics.instant_start_rate);
}

#[test]
fn custom_hooks_with_invalid_plan_entries_are_ignored() {
    /// Returns victims that do not exist / are on-demand; the driver must
    /// skip them and let the on-demand job wait instead of panicking.
    #[derive(Debug)]
    struct Bogus;

    impl ArrivalPolicy for Bogus {
        fn on_arrival(&self, view: &ArrivalView<'_>) -> ArrivalPlan {
            ArrivalPlan {
                // Shrink orders against a rigid job and a job that is not
                // in the trace at all, preempt orders against the arriving
                // job itself and another unknown id: all must be filtered
                // out without panicking.
                shrinks: vec![(hws_workload::JobId(0), 5), (hws_workload::JobId(999), 5)],
                preempt: vec![
                    crate::mechanism::VictimInfo {
                        id: view.od,
                        nodes: 50,
                        overhead_ns: 0,
                        started: SimTime::ZERO,
                        class: hws_workload::JobClass::Capacity,
                    },
                    crate::mechanism::VictimInfo {
                        id: hws_workload::JobId(12_345),
                        nodes: 50,
                        overhead_ns: 0,
                        started: SimTime::ZERO,
                        class: hws_workload::JobClass::Capacity,
                    },
                ],
            }
        }
    }

    let tr = trace(
        100,
        vec![
            JobSpecBuilder::rigid(0)
                .size(100)
                .work(d(5_000))
                .estimate(d(5_000))
                .build(),
            JobSpecBuilder::on_demand(1)
                .size(50)
                .work(d(100))
                .estimate(d(200))
                .submit_at(t(10))
                .build(),
        ],
    );
    let mut cfg = SimConfig::with_hooks(Composed::new("bogus", CollectUntilArrival, Bogus));
    cfg.paranoid_checks = true;
    let out = Simulator::run_trace(&cfg, &tr);
    // Nothing was preempted (the plan was bogus), so the OD job waited.
    assert_eq!(out.metrics.completed_jobs, 2);
    assert_eq!(out.metrics.rigid.preemption_ratio, 0.0);
    assert_eq!(out.metrics.instant_start_rate, 0.0);
}
