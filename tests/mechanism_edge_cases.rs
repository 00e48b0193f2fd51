//! Edge-case integration tests for the notice/arrival machinery: early
//! arrivals cancelling CUP plans, late arrivals after the reservation
//! timeout, partial expand-backs, and baseline semantics.

use hws_core::Timeline;
use hws_sim::{SimDuration as D, SimTime as T};
use hws_workload::{MaintenanceWindow, MaterializedSource, OutageSchedule};
use hybrid_workload_sched::prelude::*;

fn t(s: u64) -> T {
    T::from_secs(s)
}

fn d(s: u64) -> D {
    D::from_secs(s)
}

#[test]
fn early_arrival_cancels_cup_plans() {
    // CUP plans to preempt the rigid job right before the predicted
    // arrival; the job arrives much earlier, while plenty of nodes are
    // free — the planned preemption must not fire afterwards.
    let jobs = vec![
        JobSpecBuilder::rigid(0)
            .size(60)
            .work(d(40_000))
            .estimate(d(40_000))
            .build(),
        JobSpecBuilder::on_demand(1)
            .submit_at(t(2_100)) // early: predicted is 3_600
            .size(40)
            .work(d(500))
            .estimate(d(1_000))
            .notice(t(2_000), t(3_600))
            .build(),
    ];
    let trace = Trace::new(100, D::from_days(1), jobs);
    let out = Simulator::run_trace(
        &SimConfig::with_mechanism(Mechanism::CUP_PAA).paranoid(),
        &trace,
    );
    assert_eq!(out.metrics.completed_jobs, 2);
    // 40 free nodes at notice time covered the request: no preemption.
    assert_eq!(out.metrics.rigid.preemption_ratio, 0.0);
    assert!((out.metrics.strict_instant_rate - 1.0).abs() < 1e-9);
}

#[test]
fn late_arrival_after_timeout_is_handled_as_fresh() {
    // Arrival 45 min after the prediction — past the 10-minute timeout.
    // The reservation must have been released in between (a batch job uses
    // the machine), and the late arrival is still served by preemption.
    let jobs = vec![
        JobSpecBuilder::on_demand(0)
            .submit_at(t(10_000)) // predicted 1_000, arrives at 10_000
            .size(80)
            .work(d(600))
            .estimate(d(1_200))
            .notice(t(400), t(1_000))
            .build(),
        JobSpecBuilder::rigid(1)
            .submit_at(t(2_000)) // submitted after the timeout (1_600)
            .size(100)
            .work(d(30_000))
            .estimate(d(30_000))
            .build(),
    ];
    let trace = Trace::new(100, D::from_days(1), jobs);
    let mut cfg = SimConfig::with_mechanism(Mechanism::CUA_PAA).paranoid();
    cfg.backfill_on_reserved = false;
    let out = Simulator::run_trace(&cfg, &trace);
    assert_eq!(out.metrics.completed_jobs, 2);
    // The rigid job started at the timeout → it was running when the OD
    // arrived → it got preempted (fresh-arrival PAA path).
    assert!((out.metrics.rigid.preemption_ratio - 1.0).abs() < 1e-9);
    assert!((out.metrics.instant_start_rate - 1.0).abs() < 1e-9);
}

#[test]
fn expand_back_is_partial_when_machine_is_busy() {
    // The shrunk lender can only reclaim what is actually free when the
    // on-demand job completes: here a backfill job grabbed part of the
    // machine in the meantime.
    let jobs = vec![
        JobSpecBuilder::malleable(0)
            .size(100)
            .min_size(20)
            .work(d(40_000))
            .estimate(d(40_000))
            .build(),
        JobSpecBuilder::on_demand(1)
            .submit_at(t(1_000))
            .size(50)
            .work(d(5_000))
            .estimate(d(6_000))
            .build(),
        // Fits exactly into the shrunk gap… and outlives the OD job.
        JobSpecBuilder::rigid(2)
            .submit_at(t(1_100))
            .size(30)
            .work(d(30_000))
            .estimate(d(30_000))
            .build(),
    ];
    let trace = Trace::new(100, D::from_days(2), jobs);
    let out = Simulator::run_trace(
        &SimConfig::with_mechanism(Mechanism::N_SPAA).paranoid(),
        &trace,
    );
    assert_eq!(out.metrics.completed_jobs, 3);
    // Everything completed; the malleable job must have expanded at least
    // partially after the OD finished (else its tail would be much longer).
    let rec = &out.metrics;
    assert!(rec.malleable.avg_turnaround_h > 0.0);
}

#[test]
fn baseline_runs_malleable_at_full_size() {
    // In baseline mode a malleable job behaves rigidly: it waits for its
    // full (maximum) size even when its minimum would fit now.
    let jobs = vec![
        JobSpecBuilder::rigid(0)
            .size(60)
            .work(d(10_000))
            .estimate(d(10_000))
            .build(),
        JobSpecBuilder::malleable(1)
            .submit_at(t(10))
            .size(80)
            .min_size(16)
            .work(d(1_000))
            .estimate(d(1_000))
            .build(),
    ];
    let trace = Trace::new(100, D::from_days(1), jobs);
    let base = Simulator::run_trace(&SimConfig::baseline().paranoid(), &trace).metrics;
    // Baseline: malleable waits 10_000 s for 80 nodes → TAT ≈ 10_990 s.
    assert!(
        base.malleable.avg_turnaround_h > 3.0,
        "{}",
        base.malleable.avg_turnaround_h
    );

    let hybrid = Simulator::run_trace(
        &SimConfig::with_mechanism(Mechanism::N_PAA).paranoid(),
        &trace,
    )
    .metrics;
    // Hybrid: starts immediately on the 40 free nodes (min 16 ≤ 40): the
    // work stretches (80_000 node-s / 40 = 2_000 s) but no 10_000 s wait.
    assert!(
        hybrid.malleable.avg_turnaround_h < 1.0,
        "{}",
        hybrid.malleable.avg_turnaround_h
    );
}

#[test]
fn wfp3_policy_reorders_queue() {
    // Sanity: the WFP3 policy is exercised end-to-end without violating
    // any invariant and completes everything.
    let trace = TraceConfig::tiny().generate(13);
    let cfg = SimConfig::with_mechanism(Mechanism::CUA_SPAA)
        .policy(PolicyKind::Wfp3)
        .paranoid();
    let out = Simulator::run_trace(&cfg, &trace);
    assert_eq!(out.metrics.completed_jobs, trace.len());
}

/// A malleable job that SPAA shrinks for an on-demand arrival and that
/// expands again once the lease returns.
fn lifecycle_jobs() -> Vec<JobSpec> {
    vec![
        JobSpecBuilder::malleable(0)
            .size(80)
            .min_size(20)
            .work(d(20_000))
            .estimate(d(20_000))
            .build(),
        JobSpecBuilder::on_demand(1)
            .submit_at(t(1_000))
            .size(50)
            .work(d(1_000))
            .estimate(d(2_000))
            .build(),
    ]
}

#[test]
fn timeline_records_full_lifecycle() {
    let trace = Trace::new(100, D::from_days(1), lifecycle_jobs());
    let cfg = SimConfig::with_mechanism(Mechanism::N_SPAA).paranoid();
    let tl = timeline_of(&cfg, &trace);
    use hws_core::TimelineEvent as E;
    let kinds: Vec<&E> = tl.entries.iter().map(|(_, _, e)| e).collect();
    assert!(kinds.iter().any(|e| matches!(e, E::Submitted)));
    assert!(kinds.iter().any(|e| matches!(e, E::Started { .. })));
    assert!(
        kinds.iter().any(|e| matches!(e, E::Shrunk { .. })),
        "SPAA must shrink"
    );
    assert!(
        kinds.iter().any(|e| matches!(e, E::Expanded { .. })),
        "lease return must expand"
    );
    assert!(kinds.iter().any(|e| matches!(e, E::Finished)));
    // And the Gantt renders without panicking.
    assert!(tl.render_gantt(80).contains("J0"));
}

#[test]
fn zero_warning_makes_malleable_preemption_instantaneous() {
    let jobs = vec![
        JobSpecBuilder::malleable(0)
            .size(100)
            .min_size(90) // shrink cannot satisfy → preempt
            .work(d(20_000))
            .estimate(d(20_000))
            .build(),
        JobSpecBuilder::on_demand(1)
            .submit_at(t(1_000))
            .size(50)
            .work(d(500))
            .estimate(d(1_000))
            .build(),
    ];
    let trace = Trace::new(100, D::from_days(1), jobs);
    let mut cfg = SimConfig::with_mechanism(Mechanism::N_SPAA).paranoid();
    cfg.malleable_warning = D::from_secs(0);
    let out = Simulator::run_trace(&cfg, &trace);
    assert_eq!(out.metrics.completed_jobs, 2);
    // With no warning the OD start is strictly immediate.
    assert!((out.metrics.strict_instant_rate - 1.0).abs() < 1e-9);
}

/// The Fig. 2 scenario of `examples/cua_vs_cup.rs`: J1 ends before the
/// prediction, J2 runs long past it, and an 80-node on-demand job is
/// announced at 4,500 s for 6,000 s.
fn fig2_trace() -> Trace {
    let jobs = vec![
        JobSpecBuilder::rigid(0)
            .project(1)
            .size(40)
            .work(d(2_000))
            .estimate(d(2_000))
            .build(),
        JobSpecBuilder::rigid(1)
            .project(1)
            .size(60)
            .work(d(40_000))
            .estimate(d(42_000))
            .setup(d(200))
            .build(),
        JobSpecBuilder::on_demand(2)
            .project(2)
            .submit_at(t(6_000))
            .size(80)
            .work(d(1_000))
            .estimate(d(1_800))
            .notice(t(4_500), t(6_000))
            .build(),
    ];
    Trace::new(100, D::from_days(1), jobs)
}

/// The first 300 jobs of the quick-scale Theta trace at seed 0.
fn theta_quick_head() -> Trace {
    let full = hws_bench::Scale::Quick.trace_config().generate(0);
    Trace::new(full.system_size, full.horizon, full.jobs[..300].to_vec())
}

/// Two maintenance windows inside the head's span: a hard down of the
/// first eighth of the nodes, then a graceful drain of the second eighth.
fn head_outages(trace: &Trace) -> OutageSchedule {
    let n = trace.system_size;
    let last = trace.jobs.last().expect("jobs").submit.as_secs();
    let window = |node: u32, from: u64, hard: bool| MaintenanceWindow {
        shard: 0,
        node: Some(node),
        start: t(last * from / 8),
        end: t(last * (from + 1) / 8),
        hard,
    };
    let windows: Vec<_> = (0..n / 8)
        .map(|node| window(node, 2, true))
        .chain((n / 8..n / 4).map(|node| window(node, 5, false)))
        .collect();
    OutageSchedule::maintenance_windows(&windows).expect("valid windows")
}

fn timeline_of(cfg: &SimConfig, trace: &Trace) -> Timeline {
    Simulator::run_observed(cfg, MaterializedSource::new(trace), Timeline::new()).1
}

/// `(entries, FNV-1a of their Debug rendering)` per run of
/// [`timelines_keep_their_transitions`].
const TIMELINE_DIGESTS: [(usize, u64); 15] = [
    (12, 14249868511721265734),
    (12, 9485539393850535142),
    (900, 4605863645087009603),
    (900, 4605863645087009603),
    (900, 4605863645087009603),
    (900, 4605863645087009603),
    (900, 4605863645087009603),
    (1400, 18375911818367764902),
    (629, 12570431583715098146),
    (631, 4105056762058837897),
    (691, 6489610591654507782),
    (691, 6489610591654507782),
    (691, 6489610591654507782),
    (691, 6489610591654507782),
    (11, 10289096284271482652),
];

/// Every transition each run reports, in order, pinned: the Fig. 2
/// scenario under CUA&PAA and CUP&PAA; the first 300 quick-scale Theta
/// jobs under the six mechanisms, CUP&SPAA through two maintenance
/// windows; a tiny trace with node failures under the six; and a shrink,
/// an expand and an overrun kill under N&SPAA. Together they cover every
/// kind of event.
#[test]
fn timelines_keep_their_transitions() {
    let mut got = Vec::new();
    let mut push = |tl: Timeline| {
        got.push((
            tl.len(),
            hws_search::fnv1a(format!("{:?}", tl.entries).as_bytes()),
        ));
    };
    let mut fig2 = SimConfig::with_mechanism(Mechanism::CUA_PAA);
    fig2.ckpt.node_mtbf_hours = 12.0;
    fig2.backfill_on_reserved = false;
    for m in [Mechanism::CUA_PAA, Mechanism::CUP_PAA] {
        fig2.mechanism = m;
        push(timeline_of(&fig2, &fig2_trace()));
    }
    let head = theta_quick_head();
    for m in Mechanism::ALL_SIX {
        let mut cfg = SimConfig::with_mechanism(m);
        if m == Mechanism::CUP_SPAA {
            cfg = cfg.with_outages(head_outages(&head));
        }
        push(timeline_of(&cfg, &head));
    }
    let tiny = TraceConfig::tiny().generate(3);
    for m in Mechanism::ALL_SIX {
        push(timeline_of(
            &SimConfig::with_mechanism(m).with_failures(200.0),
            &tiny,
        ));
    }
    let mut jobs = lifecycle_jobs();
    jobs.push(
        JobSpecBuilder::rigid(2)
            .size(10)
            .work(d(5_000))
            .estimate(d(3_000))
            .build(),
    );
    let lifecycle = Trace::new(100, D::from_days(1), jobs);
    push(timeline_of(
        &SimConfig::with_mechanism(Mechanism::N_SPAA),
        &lifecycle,
    ));
    assert_eq!(got, TIMELINE_DIGESTS);
}
