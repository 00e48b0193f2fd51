//! Miniature versions of the paper's headline claims, checked as tests so
//! regressions in the mechanisms are caught without running the full
//! experiment grid.

use hws_bench::DecisionTimer;
use hws_sim::{SimDuration as D, SimTime as T};
use hybrid_workload_sched::prelude::*;

/// Average over a few seeds at the `small` scale.
fn averaged(cfg: &SimConfig, tcfg: &TraceConfig, seeds: u64) -> Metrics {
    let mut avg = MetricsAvg::new();
    for s in 0..seeds {
        avg.push(&Simulator::run_trace(cfg, &tcfg.generate(s)).metrics);
    }
    avg.mean()
}

#[test]
fn observation_1_instant_start_and_utilization() {
    let tcfg = TraceConfig::small();
    let base = averaged(&SimConfig::baseline(), &tcfg, 4);
    let hybrid = averaged(&SimConfig::with_mechanism(Mechanism::CUA_SPAA), &tcfg, 4);
    // Instant start rate jumps dramatically (paper: 22% → 98%).
    assert!(
        hybrid.instant_start_rate > base.instant_start_rate + 0.3,
        "hybrid {} vs base {}",
        hybrid.instant_start_rate,
        base.instant_start_rate
    );
}

#[test]
fn observation_3_spaa_protects_malleable_jobs() {
    let tcfg = TraceConfig::small();
    let paa = averaged(&SimConfig::with_mechanism(Mechanism::CUA_PAA), &tcfg, 4);
    let spaa = averaged(&SimConfig::with_mechanism(Mechanism::CUA_SPAA), &tcfg, 4);
    assert!(
        spaa.malleable.preemption_ratio <= paa.malleable.preemption_ratio + 1e-9,
        "SPAA {} vs PAA {}",
        spaa.malleable.preemption_ratio,
        paa.malleable.preemption_ratio
    );
}

#[test]
fn observation_6_malleability_incentive() {
    // Under the collecting mechanisms, declaring malleability should pay
    // off: malleable turnaround below rigid turnaround.
    let tcfg = TraceConfig::small();
    for mech in [Mechanism::CUA_PAA, Mechanism::CUA_SPAA] {
        let m = averaged(&SimConfig::with_mechanism(mech), &tcfg, 5);
        assert!(
            m.malleable.avg_turnaround_h < m.rigid.avg_turnaround_h,
            "{mech}: malleable {} !< rigid {}",
            m.malleable.avg_turnaround_h,
            m.rigid.avg_turnaround_h
        );
    }
}

#[test]
fn observation_8_malleable_preempted_more_than_rigid() {
    // Malleable preemption is cheaper, so the overhead-ordered victim list
    // puts malleable jobs first.
    let tcfg = TraceConfig::small();
    let m = averaged(&SimConfig::with_mechanism(Mechanism::N_PAA), &tcfg, 5);
    assert!(
        m.malleable.preemption_ratio > m.rigid.preemption_ratio,
        "malleable {} !> rigid {}",
        m.malleable.preemption_ratio,
        m.rigid.preemption_ratio
    );
}

#[test]
fn observation_10_decisions_are_fast() {
    // Wall time inside the mechanism hooks, measured from outside the
    // simulator so its results stay deterministic.
    let tcfg = TraceConfig::small();
    for mech in Mechanism::ALL_SIX {
        let timer = DecisionTimer::default();
        let mut cfg = SimConfig::with_mechanism(mech);
        timer.install(&mut cfg);
        averaged(&cfg, &tcfg, 2);
        let latency = timer.summary();
        assert!(latency.decisions > 0, "{mech}: no decision was timed");
        assert!(
            latency.max_us < 10_000.0,
            "{mech}: max decision {} µs exceeds the paper's 10 ms bound",
            latency.max_us
        );
    }
}

#[test]
fn observation_13_frequent_checkpoints_cut_preemption_loss() {
    // Fig. 7: checkpointing twice as often as Daly reduces the wasted
    // cycles caused by preemptions (here measured as occupancy − useful).
    let tcfg = TraceConfig::small();
    let frequent = {
        let cfg = SimConfig::with_mechanism(Mechanism::N_PAA).ckpt_factor(0.25);
        averaged(&cfg, &tcfg, 5)
    };
    let sparse = {
        let cfg = SimConfig::with_mechanism(Mechanism::N_PAA).ckpt_factor(2.0);
        averaged(&cfg, &tcfg, 5)
    };
    let waste = |m: &Metrics| m.raw_occupancy - m.utilization;
    assert!(
        waste(&frequent) <= waste(&sparse) + 5e-3,
        "frequent {} vs sparse {}",
        waste(&frequent),
        waste(&sparse)
    );
}

#[test]
fn two_minute_warning_is_the_instant_floor() {
    // A machine fully covered by one malleable job at its minimum: the
    // on-demand job must wait exactly the 120 s drain — instant by the
    // paper's criterion but not strictly immediate.
    let jobs = vec![
        JobSpecBuilder::malleable(0)
            .size(100)
            .min_size(95)
            .work(D::from_secs(50_000))
            .estimate(D::from_secs(50_000))
            .build(),
        JobSpecBuilder::on_demand(1)
            .submit_at(T::from_secs(1_000))
            .size(50)
            .work(D::from_secs(600))
            .estimate(D::from_secs(1_200))
            .build(),
    ];
    let trace = Trace::new(100, D::from_days(1), jobs);
    let out = Simulator::run_trace(
        &SimConfig::with_mechanism(Mechanism::N_SPAA).paranoid(),
        &trace,
    );
    assert!((out.metrics.instant_start_rate - 1.0).abs() < 1e-9);
    assert_eq!(out.metrics.strict_instant_rate, 0.0);
    // Start delay is exactly the warning: TAT = 120 + work.
    let od_tat_s = out.metrics.on_demand.avg_turnaround_h * 3_600.0;
    assert!((od_tat_s - 720.0).abs() < 1.5, "od tat = {od_tat_s}");
}

#[test]
fn shrunk_lender_expands_back_after_od_completion() {
    let jobs = vec![
        JobSpecBuilder::malleable(0)
            .size(100)
            .min_size(20)
            .work(D::from_secs(10_000))
            .estimate(D::from_secs(10_000))
            .build(),
        JobSpecBuilder::on_demand(1)
            .submit_at(T::from_secs(2_000))
            .size(40)
            .work(D::from_secs(1_000))
            .estimate(D::from_secs(2_000))
            .build(),
    ];
    let trace = Trace::new(100, D::from_days(1), jobs);
    let out = Simulator::run_trace(
        &SimConfig::with_mechanism(Mechanism::N_SPAA).paranoid(),
        &trace,
    );
    assert_eq!(out.metrics.completed_jobs, 2);
    // The malleable job ran at 100 until t=2000 (2e5 of 1e6 node-seconds
    // done), at 60 nodes for ~1000 s (6e4), then back at 100. Total span:
    // 2000 + 1000 + (1e6 - 2e5 - 6e4)/100 = 10400 s. Far below the
    // no-expand scenario (2000 + 8e5/60 ≈ 15333 s).
    let tat_s = out.metrics.malleable.avg_turnaround_h * 3_600.0;
    assert!((tat_s - 10_400.0).abs() < 10.0, "malleable tat = {tat_s}");
}

#[test]
fn cua_notice_avoids_preemption_entirely_when_supply_suffices() {
    // Like the paper's Fig. 2 left half: a job releases enough nodes during
    // the notice window; CUA serves the on-demand job without touching
    // anything else.
    let jobs = vec![
        JobSpecBuilder::rigid(0)
            .size(60)
            .work(D::from_secs(3_000))
            .estimate(D::from_secs(3_000))
            .build(),
        JobSpecBuilder::rigid(1)
            .size(40)
            .work(D::from_secs(50_000))
            .estimate(D::from_secs(50_000))
            .build(),
        JobSpecBuilder::on_demand(2)
            .submit_at(T::from_secs(4_000))
            .size(60)
            .work(D::from_secs(500))
            .estimate(D::from_secs(1_000))
            .notice(T::from_secs(2_500), T::from_secs(4_000))
            .build(),
    ];
    let trace = Trace::new(100, D::from_days(1), jobs);
    let mut cfg = SimConfig::with_mechanism(Mechanism::CUA_PAA).paranoid();
    cfg.backfill_on_reserved = false;
    let out = Simulator::run_trace(&cfg, &trace);
    assert_eq!(out.metrics.completed_jobs, 3);
    assert_eq!(out.metrics.rigid.preemption_ratio, 0.0);
    assert!((out.metrics.strict_instant_rate - 1.0).abs() < 1e-9);
}
