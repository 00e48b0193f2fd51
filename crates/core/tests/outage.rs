//! Outage-engine contracts:
//!
//! 1. **Empty schedule is invisible** — a run configured with
//!    `OutageSchedule::empty()` is bitwise-identical to a run with no
//!    schedule at all, across baseline, all six mechanisms, a
//!    capability-aware composition, and a 2-shard federation.
//! 2. **Full rejoin completes everything** — a maintenance window that
//!    takes a whole shard down and brings every node back later loses no
//!    feasible job: all six mechanisms complete the entire trace, on a
//!    single cluster and on a federation.
//! 3. **Snapshot mid-outage is transparent** — snapshot → restore →
//!    continue between two outage events is bitwise-identical to never
//!    pausing, including the outage report and — with failure injection
//!    active — the counter-based failure draws (epoch keys serialize, so
//!    restored failure times match exactly).
//! 4. **Cancel mid-recovery** — a job evicted by a hard down waits to
//!    restart; cancelling it in that window reports `Cancelled` (never
//!    `Unknown`) and leaves a consistent cluster.
//!
//! Every run here has `paranoid_checks` on, which cross-validates the new
//! live-capacity invariants (down nodes never appear in free counts or
//! `avail_for` headroom) on every event.

use hws_cluster::FederationConfig;
use hws_core::{
    replay_submission_log, CancelOutcome, CapabilityAware, JobStatus, Mechanism, SchedulerService,
    SimConfig, SimOutcome, Simulator,
};
use hws_sim::{SimDuration, SimTime};
use hws_workload::job::JobSpecBuilder;
use hws_workload::{
    MaintenanceWindow, OutageEvent, OutageKind, OutageSchedule, SubmissionLog, Trace, TraceConfig,
};
use proptest::prelude::*;

fn cfg_for(mechanism: Mechanism) -> SimConfig {
    let mut cfg = SimConfig::with_mechanism(mechanism);
    cfg.paranoid_checks = true;
    cfg
}

fn capability_cfg() -> SimConfig {
    let mut cfg = SimConfig::with_hooks(CapabilityAware::for_mechanism(Mechanism::CUP_SPAA));
    cfg.paranoid_checks = true;
    cfg
}

fn assert_same(a: &SimOutcome, b: &SimOutcome, label: &str) {
    assert_eq!(a.metrics, b.metrics, "metrics diverge for {label}");
    assert_eq!(a.engine, b.engine, "engine stats diverge for {label}");
    assert_eq!(a.classes, b.classes, "classes diverge for {label}");
    assert_eq!(a.shards, b.shards, "shards diverge for {label}");
    assert_eq!(a.outages, b.outages, "outage reports diverge for {label}");
    assert_eq!(a.admitted_jobs, b.admitted_jobs);
}

/// Whole-machine maintenance window: every node of `shard` hard-down at
/// `start`, rejoined at `end`.
fn shard_window(shard: u32, start: u64, end: u64) -> OutageSchedule {
    OutageSchedule::maintenance_windows(&[MaintenanceWindow {
        shard,
        node: None,
        start: SimTime::from_secs(start),
        end: SimTime::from_secs(end),
        hard: true,
    }])
    .expect("valid window")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite 3a: an **empty** schedule takes the exact same code path
    /// as no schedule — same metrics, same event counts, no report —
    /// across baseline, all six mechanisms, a capability-aware
    /// composition, and a 2-shard federation.
    #[test]
    fn empty_schedule_is_bitwise_invisible(seed in 0..1_000u64, jobs in 30..100u32) {
        let trace = TraceConfig::tiny().with_jobs(jobs).with_capability_frac(0.15).generate(seed);
        let mut cfgs: Vec<(String, SimConfig)> = vec![
            ("baseline".into(), SimConfig::baseline()),
            ("capability-aware".into(), capability_cfg()),
            (
                "2-shard federation".into(),
                cfg_for(Mechanism::CUA_SPAA)
                    .federated(FederationConfig::even_split(2, trace.system_size)),
            ),
        ];
        for m in Mechanism::ALL_SIX {
            cfgs.push((m.name().into(), cfg_for(m)));
        }
        for (label, cfg) in cfgs {
            let plain = Simulator::run_trace(&cfg, &trace);
            let empty = Simulator::run_trace(
                &cfg.clone().with_outages(OutageSchedule::empty()),
                &trace,
            );
            prop_assert!(plain.outages.is_none(), "no-schedule run reported outages");
            prop_assert!(empty.outages.is_none(), "empty schedule produced a report");
            assert_same(&plain, &empty, &label);
        }
    }

    /// Satellite 3b: a hard whole-machine outage followed by a full
    /// rejoin completes **every** job of the trace under all six
    /// mechanisms — evicted residents checkpoint-restart, malleable
    /// drains resubmit, and nothing is swept as infeasible because the
    /// rejoin restores full capacity before the horizon passes.
    #[test]
    fn outage_then_full_rejoin_completes_every_job(seed in 0..500u64, jobs in 30..80u32) {
        let trace = TraceConfig::tiny().with_jobs(jobs).generate(seed);
        // Strike mid-trace: day 2 to day 2.5 of a 7-day horizon.
        let schedule = shard_window(0, 172_800, 216_000);
        for m in Mechanism::ALL_SIX {
            let cfg = cfg_for(m).with_outages(schedule.clone());
            let out = Simulator::run_trace(&cfg, &trace);
            prop_assert_eq!(
                out.metrics.completed_jobs,
                trace.jobs.len(),
                "{} lost jobs to a fully-recovered outage", m.name()
            );
            prop_assert_eq!(out.metrics.killed_jobs, 0);
            let rep = out.outages.expect("events applied");
            prop_assert_eq!(rep.events_applied, 2);
            // Every down node came back.
            prop_assert_eq!(rep.nodes_down, rep.nodes_rejoined);
            prop_assert!(rep.lost_node_seconds > 0);
            prop_assert!(rep.degraded_wall_seconds >= 43_200);
        }
    }
}

/// Tentpole, federation level: rolling maintenance across both shards of
/// a federation — shard 1 fully down and rejoined, then shard 0 drained
/// and rejoined — completes every job. Jobs fit a single shard, so
/// placement always has a live home.
#[test]
fn federation_rolling_maintenance_completes_every_job() {
    let span = SimDuration::from_days(4);
    let jobs: Vec<_> = (0..40u64)
        .map(|i| {
            JobSpecBuilder::rigid(i + 1)
                .submit_at(SimTime::from_secs(600 * i))
                .size(4 + (i % 4) as u32 * 4)
                .work(SimDuration::from_secs(1_800 + 120 * i))
                .estimate(SimDuration::from_secs(7_200))
                .build()
        })
        .collect();
    let n = jobs.len();
    let trace = Trace::new(64, span, jobs);
    let schedule = OutageSchedule::new(
        [
            shard_window(1, 20_000, 40_000).events().to_vec(),
            vec![
                OutageEvent {
                    at: SimTime::from_secs(50_000),
                    kind: OutageKind::Drain,
                    shard: 0,
                    node: None,
                },
                OutageEvent {
                    at: SimTime::from_secs(70_000),
                    kind: OutageKind::Rejoin,
                    shard: 0,
                    node: None,
                },
            ],
        ]
        .concat(),
    )
    .expect("ordered events");
    for m in Mechanism::ALL_SIX {
        let cfg = cfg_for(m)
            .federated(FederationConfig::even_split(2, 64))
            .with_outages(schedule.clone());
        let out = Simulator::run_trace(&cfg, &trace);
        assert_eq!(
            out.metrics.completed_jobs,
            n,
            "{} lost jobs under rolling maintenance",
            m.name()
        );
        assert_eq!(out.metrics.killed_jobs, 0);
        let rep = out.outages.expect("events applied");
        assert_eq!(rep.events_applied, 4);
        assert!(rep.nodes_drained > 0, "graceful drain window never drained");
    }
}

/// Drive `log[..cut]` through a service, snapshot, check the image is a
/// serialization fixed point, restore, drive the rest.
fn service_roundtrip(cfg: &SimConfig, log: &SubmissionLog, cut: usize) -> SimOutcome {
    let mut svc = SchedulerService::new(cfg.clone(), log.system_size());
    for e in &log.entries()[..cut] {
        svc.apply(e).expect("log entry applies");
    }
    let bytes = svc.snapshot();
    let restored =
        SchedulerService::<hws_cluster::Cluster>::restore(&bytes, cfg, ()).expect("restores");
    assert_eq!(restored.snapshot(), bytes, "snapshot not a fixed point");
    let mut svc = restored;
    for e in &log.entries()[cut..] {
        svc.apply(e).expect("log entry applies after restore");
    }
    svc.into_outcome()
}

/// Acceptance: snapshot → restore **mid-outage** (between the down and
/// the rejoin, with evicted jobs still waiting to recover) is
/// bitwise-identical to the uninterrupted run — including the outage
/// report, whose state rides the snapshot.
#[test]
fn snapshot_mid_outage_is_transparent() {
    let trace = TraceConfig::tiny().with_jobs(60).generate(7);
    let log = SubmissionLog::from_trace(&trace);
    let schedule = shard_window(0, 172_800, 216_000);
    // Cut inside the outage window: the first entry past the down event.
    let cut = log
        .entries()
        .iter()
        .position(|e| e.at > SimTime::from_secs(172_800))
        .expect("entries after the window opens");
    for m in Mechanism::ALL_SIX {
        let cfg = cfg_for(m).with_outages(schedule.clone());
        let uninterrupted = replay_submission_log(&cfg, &log).expect("service replay");
        let resumed = service_roundtrip(&cfg, &log, cut);
        assert_same(&uninterrupted, &resumed, m.name());
        assert!(
            uninterrupted.outages.expect("report").interrupted_jobs > 0,
            "{}: the window evicted nothing — cut point not mid-outage",
            m.name()
        );
    }
}

/// Satellite 1: with failure injection active, a snapshot → restore run
/// reproduces the uninterrupted run bitwise — the counter-based failure
/// draws are keyed by `(job, epoch)` and the epochs serialize, so the
/// restored session redraws **identical** failure times rather than a
/// fresh sequence. Outages ride along so eviction-bumped epochs are
/// covered too.
#[test]
fn restored_failure_draws_are_bitwise_identical() {
    let trace = TraceConfig::tiny().with_jobs(80).generate(21);
    let log = SubmissionLog::from_trace(&trace);
    let schedule = shard_window(0, 172_800, 216_000);
    for m in [Mechanism::N_PAA, Mechanism::CUP_SPAA] {
        let cfg = cfg_for(m)
            .with_failures(400.0)
            .with_outages(schedule.clone());
        let uninterrupted = replay_submission_log(&cfg, &log).expect("service replay");
        assert!(
            uninterrupted.metrics.total_failures > 0,
            "{}: MTBF too long — no failures drawn, test is vacuous",
            m.name()
        );
        for frac in [1, 2, 3] {
            let cut = log.len() * frac / 4;
            let resumed = service_roundtrip(&cfg, &log, cut);
            assert_same(&uninterrupted, &resumed, m.name());
        }
    }
}

/// Satellite 2: cancelling a job that an outage evicted — queued again,
/// waiting to restart — returns `Cancelled` and a coherent `query`, not
/// `Unknown`, and the drained run keeps every invariant.
#[test]
fn cancel_mid_recovery_is_coherent() {
    // One hard down of node 63 at t=1000; nothing ever rejoins.
    let schedule = OutageSchedule::new(vec![OutageEvent {
        at: SimTime::from_secs(1_000),
        kind: OutageKind::Down,
        shard: 0,
        node: Some(63),
    }])
    .expect("single event");
    let cfg = cfg_for(Mechanism::CUP_SPAA).with_outages(schedule);
    let mut svc = SchedulerService::new(cfg, 64);

    // Two 32-node jobs fill the machine; allocation order puts the second
    // one on the upper half, so the down strikes it.
    let stays = JobSpecBuilder::rigid(1)
        .submit_at(SimTime::from_secs(10))
        .size(32)
        .work(SimDuration::from_secs(50_000))
        .estimate(SimDuration::from_secs(60_000))
        .build();
    let victim = JobSpecBuilder::rigid(2)
        .submit_at(SimTime::from_secs(20))
        .size(32)
        .work(SimDuration::from_secs(50_000))
        .estimate(SimDuration::from_secs(60_000))
        .build();
    svc.submit(stays.clone()).unwrap();
    svc.submit(victim.clone()).unwrap();

    svc.step_until(SimTime::from_secs(500));
    assert_eq!(svc.query(victim.id), JobStatus::Running);
    assert_eq!(svc.down_nodes(), 0);

    // Past the down: the victim is evicted and cannot restart (31 free
    // nodes live, it needs 32) — it waits for the survivor to finish.
    svc.step_until(SimTime::from_secs(2_000));
    assert_eq!(svc.down_nodes(), 1);
    assert_eq!(svc.live_nodes(), 63);
    assert_eq!(svc.query(stays.id), JobStatus::Running);
    assert_eq!(svc.query(victim.id), JobStatus::Waiting);

    // Mid-recovery cancel: coherent state, never Unknown.
    assert_eq!(svc.cancel(victim.id), CancelOutcome::Cancelled);
    assert_eq!(svc.query(victim.id), JobStatus::Cancelled);
    assert_eq!(svc.cancel(victim.id), CancelOutcome::Unknown);

    let out = svc.into_outcome();
    assert_eq!(out.metrics.completed_jobs, 1);
    assert_eq!(out.metrics.killed_jobs, 1);
    let rep = out.outages.expect("the down applied");
    assert_eq!(rep.interrupted_jobs, 1);
    assert_eq!(rep.recoveries, 0, "a cancelled job is not a recovery");
    assert_eq!(rep.nodes_down, 1);
}

/// Admin drain/rejoin ops work without any configured schedule, and a
/// graceful drain of a busy node takes it out only when its resident
/// releases it.
#[test]
fn admin_drain_without_schedule() {
    let cfg = cfg_for(Mechanism::N_PAA);
    let mut svc = SchedulerService::new(cfg, 64);
    let job = JobSpecBuilder::rigid(1)
        .submit_at(SimTime::from_secs(10))
        .size(8)
        .work(SimDuration::from_secs(600))
        .estimate(SimDuration::from_secs(900))
        .build();
    svc.submit(job.clone()).unwrap();
    svc.step_until(SimTime::from_secs(100));
    assert_eq!(svc.query(job.id), JobStatus::Running);

    // Free node: down immediately. Busy node: marked, downs on release.
    assert!(svc.drain_node(0, 63), "free node drains immediately");
    assert!(!svc.drain_node(0, 0), "busy node only marks");
    assert_eq!(svc.down_nodes(), 1);
    svc.step_until(SimTime::from_secs(1_000));
    assert_eq!(svc.query(job.id), JobStatus::Finished);
    assert_eq!(svc.down_nodes(), 2, "marked node went down on release");
    assert_eq!(svc.live_nodes(), 62);

    // Rejoin restores; out-of-range coordinates are refused, not fatal.
    assert!(svc.rejoin_node(0, 0));
    assert!(svc.rejoin_node(0, 63));
    assert!(!svc.rejoin_node(0, 63), "double rejoin is a no-op");
    assert!(!svc.drain_node(0, 64), "node index out of range");
    assert!(!svc.drain_node(1, 0), "shard index out of range");
    assert_eq!(svc.down_nodes(), 0);
    assert_eq!(svc.live_nodes(), 64);

    let out = svc.into_outcome();
    assert_eq!(out.metrics.completed_jobs, 1);
    // Admin ops without a schedule leave no outage report.
    assert!(out.outages.is_none());
}

/// Degraded-mode contract: while rejoins may still come, an oversized
/// waiting job blocks; once the schedule's horizon proves the capacity
/// loss permanent, it is killed as infeasible.
#[test]
fn oversized_jobs_block_then_die_at_the_horizon() {
    // Node 63 goes down at t=1000 and never returns; a second no-op
    // event at t=9000 ends the schedule horizon.
    let schedule = OutageSchedule::new(vec![
        OutageEvent {
            at: SimTime::from_secs(1_000),
            kind: OutageKind::Down,
            shard: 0,
            node: Some(63),
        },
        OutageEvent {
            at: SimTime::from_secs(9_000),
            kind: OutageKind::Rejoin,
            shard: 0,
            node: Some(62),
        },
    ])
    .expect("ordered events");
    let cfg = cfg_for(Mechanism::N_PAA).with_outages(schedule);
    let mut svc = SchedulerService::new(cfg, 64);
    let full = JobSpecBuilder::rigid(1)
        .submit_at(SimTime::from_secs(2_000))
        .size(64)
        .work(SimDuration::from_secs(600))
        .estimate(SimDuration::from_secs(900))
        .build();
    svc.submit(full.clone()).unwrap();

    // Submitted while a rejoin is still pending: blocks, does not die.
    svc.step_until(SimTime::from_secs(5_000));
    assert_eq!(svc.query(full.id), JobStatus::Waiting);

    // The horizon passes with only 63 live nodes: provably infeasible.
    svc.step_until(SimTime::from_secs(9_000));
    assert_eq!(svc.query(full.id), JobStatus::Killed);
    let out = svc.into_outcome();
    assert_eq!(out.outages.expect("events applied").infeasible_killed, 1);
    assert_eq!(out.metrics.killed_jobs, 1);
}

/// Whole-shard admin ops on a live federation: `drain_shard` takes the
/// shard's free nodes down at once and its busy ones as their jobs end,
/// `rejoin_shard` brings every node back, out-of-range shards are
/// refused, and the session still accounts for every job.
#[test]
fn admin_drain_and_rejoin_a_whole_shard() {
    let cfg = cfg_for(Mechanism::N_PAA).federated(FederationConfig::even_split(2, 64));
    let mut svc = SchedulerService::federated(cfg, 64);
    // First-fit: job 1 fills 24 of shard 0, job 2 cannot fit beside it and
    // takes 24 of shard 1, job 3 fills shard 0's last 8 nodes.
    let rigid = |id: u64, size: u32, at: u64| {
        JobSpecBuilder::rigid(id)
            .submit_at(SimTime::from_secs(at))
            .size(size)
            .work(SimDuration::from_secs(600))
            .estimate(SimDuration::from_secs(900))
            .build()
    };
    let jobs = [rigid(1, 24, 10), rigid(2, 24, 10), rigid(3, 8, 10)];
    for job in &jobs {
        svc.submit(job.clone()).unwrap();
    }
    svc.step_until(SimTime::from_secs(100));
    for job in &jobs {
        assert_eq!(svc.query(job.id), JobStatus::Running);
    }

    // Shard 1's 8 free nodes go down now; its 24 busy ones are marked.
    let down = svc.drain_shard(1);
    assert_eq!(down, 8);
    assert_eq!(svc.down_nodes(), down);
    assert_eq!(svc.down_nodes() + svc.live_nodes(), 64);
    assert_eq!(svc.drain_shard(2), 0, "shard index out of range");
    assert_eq!(svc.rejoin_shard(2), 0, "shard index out of range");
    assert_eq!(svc.down_nodes(), down);

    // Job 2 finishes undisturbed and its nodes leave with it.
    svc.step_until(SimTime::from_secs(1_000));
    assert_eq!(svc.query(jobs[1].id), JobStatus::Finished);
    assert_eq!(svc.down_nodes(), 32);
    assert_eq!(svc.down_nodes() + svc.live_nodes(), 64);

    assert_eq!(svc.rejoin_shard(1), 32);
    assert_eq!(svc.down_nodes(), 0);
    assert_eq!(svc.live_nodes(), 64);

    // A job wider than any shard is rejected; the rest run to the end.
    svc.submit(rigid(4, 16, 1_100)).unwrap();
    svc.submit(rigid(5, 48, 1_100)).unwrap();
    let out = svc.into_outcome();
    assert_eq!(out.metrics.completed_jobs + out.metrics.killed_jobs, 5);
    assert_eq!(out.metrics.killed_jobs, 1);
    assert!(out.outages.is_none());
}

/// An on-demand job whose notice reserved nodes, and which the horizon
/// then proves infeasible at its submit, unwinds its notice phase as it
/// is killed. Node 0 goes down for good at t=100, so two whole-machine
/// on-demand jobs noticed at t=1,000 and t=1,050 die at their submits;
/// before the unwind, the first one's 63 reserved nodes stayed held for
/// a retired id, and the later 8-node arrival's raid of notice-phase
/// reservations panicked on it. Both 8-node jobs must complete.
#[test]
fn an_infeasible_noticed_arrival_unwinds_its_notice_phase() {
    let schedule = OutageSchedule::new(vec![OutageEvent {
        at: SimTime::from_secs(100),
        kind: OutageKind::Down,
        shard: 0,
        node: Some(0),
    }])
    .expect("single event");
    let secs = SimTime::from_secs;
    let whole_machine = |id: u64, notice: u64, submit: u64| {
        JobSpecBuilder::on_demand(id)
            .submit_at(secs(submit))
            .notice(secs(notice), secs(submit))
            .size(64)
            .work(SimDuration::from_secs(600))
            .estimate(SimDuration::from_secs(900))
            .build()
    };
    let jobs = vec![
        whole_machine(1, 1_000, 2_000),
        whole_machine(2, 1_050, 2_050),
        JobSpecBuilder::rigid(3)
            .submit_at(secs(2_500))
            .size(8)
            .work(SimDuration::from_secs(600))
            .estimate(SimDuration::from_secs(900))
            .build(),
        JobSpecBuilder::on_demand(4)
            .submit_at(secs(3_000))
            .size(8)
            .work(SimDuration::from_secs(600))
            .estimate(SimDuration::from_secs(900))
            .build(),
    ];
    let trace = Trace::new(64, SimDuration::from_days(1), jobs);
    for m in [Mechanism::CUA_PAA, Mechanism::CUP_SPAA] {
        let cfg = cfg_for(m).with_outages(schedule.clone());
        let out = Simulator::run_trace(&cfg, &trace);
        assert_eq!(out.metrics.killed_jobs, 2, "{}", m.name());
        assert_eq!(out.metrics.completed_jobs, 2, "{}", m.name());
        assert_eq!(out.outages.expect("the down applied").nodes_down, 1);
    }
}

/// The nodes an infeasible noticed arrival reserved reach the queue at
/// its kill: a rigid job that waited behind the reservation (backfill
/// may not squat on it) starts then. Before, no pass followed the kill
/// and no later event came, so the waiting job never started.
#[test]
fn an_infeasible_kill_hands_its_reservation_to_the_queue() {
    let schedule = OutageSchedule::new(vec![OutageEvent {
        at: SimTime::from_secs(100),
        kind: OutageKind::Down,
        shard: 0,
        node: Some(0),
    }])
    .expect("single event");
    let secs = SimTime::from_secs;
    let jobs = vec![
        JobSpecBuilder::on_demand(1)
            .submit_at(secs(2_000))
            .notice(secs(1_000), secs(2_000))
            .size(64)
            .work(SimDuration::from_secs(600))
            .estimate(SimDuration::from_secs(900))
            .build(),
        JobSpecBuilder::rigid(2)
            .submit_at(secs(1_500))
            .size(8)
            .work(SimDuration::from_secs(600))
            .estimate(SimDuration::from_secs(900))
            .build(),
    ];
    let trace = Trace::new(64, SimDuration::from_days(1), jobs);
    for m in [Mechanism::CUA_PAA, Mechanism::CUP_SPAA] {
        let mut cfg = cfg_for(m).with_outages(schedule.clone());
        cfg.backfill_on_reserved = false;
        let out = Simulator::run_trace(&cfg, &trace);
        assert_eq!(out.metrics.killed_jobs, 1, "{}", m.name());
        assert_eq!(out.metrics.completed_jobs, 1, "{}", m.name());
    }
}
