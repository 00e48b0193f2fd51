use super::*;
use crate::config::{Mechanism, SimConfig};
use crate::jobstate::n_checkpoints;
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

fn run(cfg: SimConfig, tr: &Trace) -> SimOutcome {
    let mut cfg = cfg;
    cfg.paranoid_checks = true;
    Simulator::run_trace(&cfg, tr)
}

#[test]
fn single_rigid_job_completes() {
    let tr = trace(
        100,
        vec![JobSpecBuilder::rigid(0)
            .size(10)
            .work(d(3_600))
            .estimate(d(7_200))
            .setup(d(300))
            .build()],
    );
    let out = run(SimConfig::baseline(), &tr);
    assert_eq!(out.metrics.completed_jobs, 1);
    // turnaround = setup + work (no checkpoint: τ for 10 nodes is huge).
    assert!((out.metrics.avg_turnaround_h - (3_900.0 / 3_600.0)).abs() < 1e-6);
}

#[test]
fn checkpoint_walltime_accounting_modes() {
    // Paper mode (default): checkpoints live inside the recorded
    // runtime — wall time is setup + work regardless of τ.
    let mut cfg = SimConfig::baseline();
    cfg.ckpt.node_mtbf_hours = 0.25; // force frequent checkpoints
    let tr = trace(
        100,
        vec![JobSpecBuilder::rigid(0)
            .size(10)
            .work(d(10_000))
            .estimate(d(20_000))
            .build()],
    );
    let out = run(cfg.clone(), &tr);
    assert!((out.metrics.avg_turnaround_h - 10_000.0 / 3_600.0).abs() < 1e-6);

    // Physical mode (ablation): each checkpoint occupies δ = 600 s.
    cfg.ckpt.extends_walltime = true;
    let out = run(cfg.clone(), &tr);
    let tau = cfg.ckpt.interval(10).unwrap();
    let n = n_checkpoints(d(10_000), Some(tau));
    assert!(n >= 1, "expected at least one checkpoint, τ = {tau}");
    let expect_h = (10_000 + n * 600) as f64 / 3_600.0;
    assert!((out.metrics.avg_turnaround_h - expect_h).abs() < 1e-6);
}

#[test]
fn fcfs_queueing_orders_by_submit() {
    // Two 60-node jobs on a 100-node machine: the second waits.
    let tr = trace(
        100,
        vec![
            JobSpecBuilder::rigid(0)
                .size(60)
                .work(d(1_000))
                .estimate(d(1_000))
                .build(),
            JobSpecBuilder::rigid(1)
                .size(60)
                .work(d(1_000))
                .estimate(d(1_000))
                .submit_at(t(10))
                .build(),
        ],
    );
    let out = run(SimConfig::baseline(), &tr);
    assert_eq!(out.metrics.completed_jobs, 2);
    // Second job waited ~990 s → mean TAT ≈ (1000 + 1990) / 2.
    assert!((out.metrics.avg_turnaround_h - (2_990.0 / 2.0 / 3_600.0)).abs() < 1e-6);
}

#[test]
fn easy_backfill_lets_small_job_jump() {
    // Head blocked behind a big job; a small short job backfills.
    let tr = trace(
        100,
        vec![
            JobSpecBuilder::rigid(0)
                .size(80)
                .work(d(10_000))
                .estimate(d(10_000))
                .build(),
            JobSpecBuilder::rigid(1)
                .size(50)
                .work(d(1_000))
                .estimate(d(1_000))
                .submit_at(t(1))
                .build(),
            JobSpecBuilder::rigid(2)
                .size(20)
                .work(d(500))
                .estimate(d(500))
                .submit_at(t(2))
                .build(),
        ],
    );
    let out = run(SimConfig::baseline(), &tr);
    let rec2 = out; // job 2 fits in the 20 free nodes and ends before the shadow
    assert_eq!(rec2.metrics.completed_jobs, 3);
    // Without backfill job 2 would wait 11000 s; with EASY it runs at t≈2.
    let mut no_bf = SimConfig::baseline();
    no_bf.easy_backfill = false;
    let out2 = run(no_bf, &tr);
    assert!(out2.metrics.avg_turnaround_h > rec2.metrics.avg_turnaround_h);
}

#[test]
fn baseline_od_job_waits_like_everyone() {
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
    let out = run(SimConfig::baseline(), &tr);
    assert_eq!(out.metrics.completed_jobs, 2);
    assert_eq!(out.metrics.instant_start_rate, 0.0);
    assert_eq!(out.metrics.rigid.preemption_ratio, 0.0);
}

#[test]
fn paa_preempts_rigid_for_on_demand() {
    let tr = trace(
        100,
        vec![
            JobSpecBuilder::rigid(0)
                .size(100)
                .work(d(50_000))
                .estimate(d(60_000))
                .build(),
            JobSpecBuilder::on_demand(1)
                .size(50)
                .work(d(1_000))
                .estimate(d(2_000))
                .submit_at(t(1_000))
                .build(),
        ],
    );
    let out = run(SimConfig::with_mechanism(Mechanism::N_PAA), &tr);
    assert_eq!(out.metrics.completed_jobs, 2);
    assert!((out.metrics.instant_start_rate - 1.0).abs() < 1e-9);
    assert!((out.metrics.rigid.preemption_ratio - 1.0).abs() < 1e-9);
    // The rigid job had no checkpoint yet → it lost its first 1000 s.
    assert!(out.metrics.utilization < out.metrics.raw_occupancy);
}

#[test]
fn spaa_shrinks_malleable_instead_of_preempting() {
    let tr = trace(
        100,
        vec![
            JobSpecBuilder::malleable(0)
                .size(100)
                .min_size(20)
                .work(d(10_000))
                .estimate(d(10_000))
                .build(),
            JobSpecBuilder::on_demand(1)
                .size(50)
                .work(d(1_000))
                .estimate(d(2_000))
                .submit_at(t(1_000))
                .build(),
        ],
    );
    let out = run(SimConfig::with_mechanism(Mechanism::N_SPAA), &tr);
    assert_eq!(out.metrics.completed_jobs, 2);
    assert!((out.metrics.instant_start_rate - 1.0).abs() < 1e-9);
    // Shrunk, not preempted.
    assert_eq!(out.metrics.malleable.preemption_ratio, 0.0);
}

#[test]
fn spaa_falls_back_to_paa_when_supply_short() {
    // Malleable can only give 8 nodes (10 → 2), on-demand needs 50.
    let tr = trace(
        100,
        vec![
            JobSpecBuilder::malleable(0)
                .size(10)
                .min_size(2)
                .work(d(10_000))
                .estimate(d(10_000))
                .build(),
            JobSpecBuilder::rigid(1)
                .size(90)
                .work(d(50_000))
                .estimate(d(50_000))
                .submit_at(t(1))
                .build(),
            JobSpecBuilder::on_demand(2)
                .size(50)
                .work(d(1_000))
                .estimate(d(2_000))
                .submit_at(t(1_000))
                .build(),
        ],
    );
    let out = run(SimConfig::with_mechanism(Mechanism::N_SPAA), &tr);
    assert_eq!(out.metrics.completed_jobs, 3);
    // PAA kicked in: something was preempted.
    assert!(
        out.metrics.rigid.preemption_ratio > 0.0 || out.metrics.malleable.preemption_ratio > 0.0
    );
}

#[test]
fn preempted_rigid_job_resumes_and_completes() {
    let tr = trace(
        100,
        vec![
            JobSpecBuilder::rigid(0)
                .size(100)
                .work(d(5_000))
                .estimate(d(6_000))
                .build(),
            JobSpecBuilder::on_demand(1)
                .size(100)
                .work(d(500))
                .estimate(d(1_000))
                .submit_at(t(1_000))
                .build(),
        ],
    );
    let out = run(SimConfig::with_mechanism(Mechanism::N_PAA), &tr);
    assert_eq!(out.metrics.completed_jobs, 2);
    assert_eq!(out.metrics.killed_jobs, 0);
    // Rigid job restarted from scratch (no checkpoint yet): total span
    // covers both the wasted 1000 s and the full re-run.
    assert!(out.metrics.rigid.avg_turnaround_h > (5_000.0 + 1_500.0) / 3_600.0 - 1e-9);
}

#[test]
fn malleable_two_minute_warning_delays_od_start() {
    let tr = trace(
        100,
        vec![
            JobSpecBuilder::malleable(0)
                .size(100)
                .min_size(90)
                .work(d(10_000))
                .estimate(d(10_000))
                .build(),
            JobSpecBuilder::on_demand(1)
                .size(50)
                .work(d(1_000))
                .estimate(d(2_000))
                .submit_at(t(1_000))
                .build(),
        ],
    );
    // min 90 → shrink supply = 10 < 50 → PAA preempts the malleable job.
    let out = run(SimConfig::with_mechanism(Mechanism::N_SPAA), &tr);
    assert_eq!(out.metrics.completed_jobs, 2);
    // Start delayed by the 120 s warning — still "instant".
    assert!((out.metrics.instant_start_rate - 1.0).abs() < 1e-9);
    assert_eq!(out.metrics.strict_instant_rate, 0.0);
    assert!((out.metrics.malleable.preemption_ratio - 1.0).abs() < 1e-9);
}

#[test]
fn od_returns_nodes_to_shrunk_lender() {
    let tr = trace(
        100,
        vec![
            JobSpecBuilder::malleable(0)
                .size(100)
                .min_size(20)
                .work(d(20_000))
                .estimate(d(20_000))
                .build(),
            JobSpecBuilder::on_demand(1)
                .size(60)
                .work(d(1_000))
                .estimate(d(2_000))
                .submit_at(t(1_000))
                .build(),
        ],
    );
    let out = run(SimConfig::with_mechanism(Mechanism::N_SPAA), &tr);
    assert_eq!(out.metrics.completed_jobs, 2);
    // Shrink + expand-back happened: 2 000 000 node-seconds of work at
    // ≤100 nodes; if the job expanded back the makespan stays near
    // 20 000 s + shrunk interval compensation.
    let m = &out.metrics;
    assert!(
        m.malleable.avg_turnaround_h < 8.0,
        "{}",
        m.malleable.avg_turnaround_h
    );
}

#[test]
fn cua_collects_nodes_before_arrival() {
    // Machine is full; a job finishes during the notice window; CUA
    // grabs its nodes so the OD job starts instantly at arrival.
    let tr = trace(
        100,
        vec![
            JobSpecBuilder::rigid(0)
                .size(50)
                .work(d(2_000))
                .estimate(d(2_000))
                .build(),
            JobSpecBuilder::rigid(1)
                .size(50)
                .work(d(50_000))
                .estimate(d(50_000))
                .build(),
            JobSpecBuilder::on_demand(2)
                .size(50)
                .work(d(1_000))
                .estimate(d(2_000))
                .submit_at(t(3_000))
                .notice(t(1_500), t(3_000))
                .build(),
        ],
    );
    let out = run(SimConfig::with_mechanism(Mechanism::CUA_PAA), &tr);
    assert_eq!(out.metrics.completed_jobs, 3);
    assert!((out.metrics.strict_instant_rate - 1.0).abs() < 1e-9);
    // No preemption was needed: job 0's release covered the request.
    assert_eq!(out.metrics.rigid.preemption_ratio, 0.0);
}

#[test]
fn cup_preempts_after_checkpoint_before_predicted_arrival() {
    let mut cfg = SimConfig::with_mechanism(Mechanism::CUP_PAA);
    cfg.ckpt.node_mtbf_hours = 0.5; // small τ → checkpoint soon
    cfg.paranoid_checks = true;
    let tr = trace(
        100,
        vec![
            JobSpecBuilder::rigid(0)
                .size(100)
                .work(d(50_000))
                .estimate(d(50_000))
                .build(),
            JobSpecBuilder::on_demand(1)
                .size(50)
                .work(d(1_000))
                .estimate(d(2_000))
                .submit_at(t(10_000))
                .notice(t(8_200), t(10_000))
                .build(),
        ],
    );
    let out = Simulator::run_trace(&cfg, &tr);
    assert_eq!(out.metrics.completed_jobs, 2);
    assert!((out.metrics.instant_start_rate - 1.0).abs() < 1e-9);
    // The rigid job was preempted (after a checkpoint) pre-arrival.
    assert!((out.metrics.rigid.preemption_ratio - 1.0).abs() < 1e-9);
    // Lost work is bounded by one checkpoint cycle, so utilization
    // should not collapse.
    assert!(out.metrics.utilization > 0.5);
}

#[test]
fn reservation_released_after_timeout() {
    // OD job announced but arrives very late (past the 10-minute
    // timeout); the reserved nodes must not idle until its arrival.
    let jobs = vec![
        JobSpecBuilder::on_demand(0)
            .size(100)
            .work(d(100))
            .estimate(d(200))
            .submit_at(t(10_000))
            .notice(t(100), t(1_000))
            .build(),
        JobSpecBuilder::rigid(1)
            .size(100)
            .work(d(1_000))
            .estimate(d(1_000))
            .submit_at(t(200))
            .build(),
    ];
    let tr = trace(100, jobs);

    // With backfill-on-reserved, the rigid job squats on the reserved
    // nodes immediately and finishes before the OD job shows up.
    let out = run(SimConfig::with_mechanism(Mechanism::CUA_PAA), &tr);
    assert_eq!(out.metrics.completed_jobs, 2);
    let tat = out.metrics.rigid.avg_turnaround_h * 3_600.0;
    assert!((tat - 1_000.0).abs() < 2.0, "squatting start: tat = {tat}");
    assert_eq!(out.metrics.rigid.preemption_ratio, 0.0);

    // Without squatting the rigid job can only start when the timeout
    // (predicted 1000 + 600 s) releases the reservation.
    let mut cfg = SimConfig::with_mechanism(Mechanism::CUA_PAA);
    cfg.backfill_on_reserved = false;
    let out = run(cfg, &tr);
    assert_eq!(out.metrics.completed_jobs, 2);
    let tat = out.metrics.rigid.avg_turnaround_h * 3_600.0;
    assert!(
        (tat - (1_600.0 - 200.0 + 1_000.0)).abs() < 2.0,
        "timeout start: tat = {tat}"
    );
}

#[test]
fn backfill_on_reserved_nodes_evicted_at_arrival() {
    let mut cfg = SimConfig::with_mechanism(Mechanism::CUA_PAA);
    cfg.paranoid_checks = true;
    let tr = trace(
        100,
        vec![
            // Fill the machine so the reservation comes from job 0's
            // release during the notice window.
            JobSpecBuilder::rigid(0)
                .size(100)
                .work(d(2_000))
                .estimate(d(2_000))
                .build(),
            // Backfill candidate arriving during the notice window.
            JobSpecBuilder::rigid(1)
                .size(40)
                .work(d(10_000))
                .estimate(d(10_000))
                .submit_at(t(2_100))
                .build(),
            JobSpecBuilder::on_demand(2)
                .size(100)
                .work(d(500))
                .estimate(d(1_000))
                .submit_at(t(4_000))
                .notice(t(2_050), t(4_000))
                .build(),
        ],
    );
    let out = Simulator::run_trace(&cfg, &tr);
    assert_eq!(out.metrics.completed_jobs, 3);
    // Job 1 squatted on reserved nodes and was evicted at arrival.
    assert!((out.metrics.rigid.preemption_ratio - 0.5).abs() < 1e-9);
    assert!((out.metrics.instant_start_rate - 1.0).abs() < 1e-9);
}

#[test]
fn determinism_same_seed_same_metrics() {
    let tr = TraceConfig::tiny().generate(3);
    let cfg = SimConfig::with_mechanism(Mechanism::CUA_SPAA);
    let a = Simulator::run_trace(&cfg, &tr);
    let b = Simulator::run_trace(&cfg, &tr);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.engine.delivered, b.engine.delivered);
}

#[test]
fn all_six_mechanisms_run_tiny_trace_clean() {
    let tr = TraceConfig::tiny().generate(7);
    for m in Mechanism::ALL_SIX {
        let mut cfg = SimConfig::with_mechanism(m);
        cfg.paranoid_checks = true;
        let out = Simulator::run_trace(&cfg, &tr);
        assert_eq!(
            out.metrics.completed_jobs + out.metrics.killed_jobs,
            tr.len(),
            "{m}: all jobs must finish"
        );
        assert!(out.metrics.utilization <= 1.0 + 1e-9, "{m}");
        assert_eq!(out.metrics.killed_jobs, 0, "{m}");
    }
}

#[test]
fn kill_fires_when_work_exceeds_estimate() {
    let mut spec = JobSpecBuilder::rigid(0).size(10).work(d(5_000)).build();
    spec.estimate = d(1_000); // bypass builder guard: user underestimated
    let tr = trace(100, vec![spec]);
    let out = run(SimConfig::baseline(), &tr);
    assert_eq!(out.metrics.killed_jobs, 1);
    assert_eq!(out.metrics.completed_jobs, 0);
}

use super::core::{Scratch, SCRATCH_RETAIN};

#[test]
fn scratch_stow_caps_retained_capacity() {
    // Ordinary buffers are recycled with their capacity intact…
    let mut slot: Vec<u64> = Vec::new();
    Scratch::stow(&mut slot, Vec::with_capacity(64));
    assert!(slot.capacity() >= 64, "small buffer capacity not recycled");
    // …but an oversized buffer is trimmed on the way back: a one-off
    // queue spike must not pin its high-water allocation forever.
    let mut huge: Vec<u64> = Vec::with_capacity(10 * SCRATCH_RETAIN);
    huge.extend(0..(10 * SCRATCH_RETAIN) as u64);
    Scratch::stow(&mut slot, huge);
    assert!(slot.is_empty(), "stowed buffer not cleared");
    assert!(
        slot.capacity() <= SCRATCH_RETAIN,
        "oversized scratch kept {} entries of capacity",
        slot.capacity()
    );
}

#[test]
fn scratch_capacity_released_after_queue_spike() {
    // A simultaneous-arrival spike 3× the retention cap: the first pass
    // copies thousands of queue keys into scratch, every later pass only
    // a shrinking tail. After the run the pass scratch must have dropped
    // back to the cap — the spike's allocation is not carried through the
    // rest of a long replay.
    const SPIKE: usize = 3 * SCRATCH_RETAIN;
    let jobs: Vec<JobSpec> = (0..SPIKE as u64)
        .map(|i| {
            JobSpecBuilder::rigid(i)
                .size(4)
                .work(d(600))
                .estimate(d(1_200))
                .build()
        })
        .collect();
    let tr = trace(64, jobs);
    let cfg = SimConfig::with_mechanism(Mechanism::N_PAA);
    let mut engine = Engine::new(SimCore::new(cfg, tr.system_size));
    for spec in tr.jobs.iter().cloned() {
        engine.sim.inject(spec, &mut engine.queue);
    }
    while engine.step() {}
    let core = engine.into_sim();
    let metrics = Metrics::compute(&core.rec);
    assert_eq!(
        metrics.completed_jobs, SPIKE,
        "spike trace did not complete"
    );
    assert!(
        core.scratch.keys.capacity() <= SCRATCH_RETAIN,
        "pass scratch still holds spike capacity ({} keys)",
        core.scratch.keys.capacity()
    );
    assert!(
        core.scratch.keys.capacity() > 0,
        "scratch was not recycled at all"
    );
}

#[test]
fn federated_pump_run_forgets_retired_jobs() {
    // Federations stream through the same pump as single clusters; once
    // the run drains, no retired job keeps a home pin in the backend.
    let tr = TraceConfig::tiny().generate(5);
    let fed = hws_cluster::FederationConfig::even_split(2, tr.system_size);
    let mut cfg = SimConfig::with_mechanism(Mechanism::CUP_SPAA).federated(fed.clone());
    cfg.paranoid_checks = true;
    let core = SimCore::with_backend(cfg, Federation::new(&fed, tr.system_size), NoObserver);
    let mut engine = Engine::new(core);
    pump::pump(
        &mut engine,
        &mut pump::Arrivals::default(),
        SimTime::MAX,
        true,
        pump::source_feed(MaterializedSource::new(&tr)),
        |_| false,
    );
    assert_eq!(engine.sim.jobs().live(), 0);
    assert_eq!(engine.sim.jobs().admitted(), tr.jobs.len() as u64);
    for spec in &tr.jobs {
        assert_eq!(engine.sim.backend().home_of(spec.id), None, "{}", spec.id);
    }
}

#[test]
fn drained_service_holds_no_job_record() {
    // A long-lived session holds one record per live job: after every log
    // entry the resident records are exactly the jobs the service reports
    // waiting, running or draining, and once every job has retired no
    // record is left, while the retired jobs' outcomes are still answered.
    let trace = TraceConfig::theta_2019().with_jobs(400).generate(11);
    let log = hws_workload::SubmissionLog::from_trace(&trace);
    let cfg = SimConfig::with_mechanism(Mechanism::CUP_SPAA).paranoid();
    let mut svc = SchedulerService::new(cfg, log.system_size());
    let mut peak = 0;
    for e in log.entries() {
        svc.apply(e).expect("log entry applies");
        let live = trace
            .jobs
            .iter()
            .filter(|s| {
                matches!(
                    svc.query(s.id),
                    JobStatus::Waiting | JobStatus::Running | JobStatus::Draining
                )
            })
            .count();
        let held = svc.core_mut().rec.len();
        assert_eq!(held, live, "records held at t={}", svc.now().as_secs());
        peak = peak.max(held);
    }
    assert!(peak > 0, "the session never held a record");
    svc.step_until(SimTime::MAX);
    let held = svc.core_mut().rec.len();
    assert_eq!(held, 0, "{held} job records held after the drain");
    for spec in &trace.jobs {
        assert_eq!(svc.query(spec.id), JobStatus::Finished, "{}", spec.id);
        assert_eq!(svc.cancel(spec.id), CancelOutcome::TooLate, "{}", spec.id);
    }
    assert_eq!(svc.into_outcome().metrics.completed_jobs, trace.jobs.len());
}

#[test]
fn restore_rejects_records_that_do_not_match_the_jobs() {
    // Live records must name exactly the submitted jobs in the arena: a
    // stray one would never fold, and a job without one would panic at its
    // next recorder callback.
    use hws_workload::{JobId, JobKind};
    let cfg = SimConfig::default();
    let session = || {
        let mut svc = SchedulerService::new(cfg.clone(), 64);
        let job = JobSpecBuilder::rigid(1)
            .size(8)
            .work(d(600))
            .estimate(d(1_200))
            .build();
        svc.submit(job).expect("submittable");
        svc.step_until(t(10));
        assert_eq!(svc.query(JobId(1)), JobStatus::Running);
        svc
    };
    let restore = |svc: &SchedulerService| {
        SchedulerService::<hws_cluster::Cluster>::restore(&svc.snapshot(), &cfg, ()).map(|_| ())
    };
    assert!(restore(&session()).is_ok());
    let mut stray = session();
    stray
        .core_mut()
        .rec
        .job_submitted(JobId(99), JobKind::Rigid, 4, t(5));
    let mut unrecorded = session();
    unrecorded.core_mut().rec.retire(JobId(1));
    for (label, svc) in [("stray", stray), ("unrecorded", unrecorded)] {
        let err = restore(&svc).expect_err(label);
        assert!(err.to_string().contains("live records"), "{label}: {err}");
    }
}

// ---------------------------------------------------------------------
// What-if early stop vs. the drain-to-end oracle
// ---------------------------------------------------------------------

mod what_if_oracle {
    use super::*;
    use hws_cluster::{FederationConfig, SnapshotBackend};
    use hws_workload::{LogEntry, SubmissionLog, SubmitOp};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    const PROBE: u64 = 1 << 40;

    fn session_cfg(m: Mechanism) -> SimConfig {
        let mut cfg = SimConfig::with_mechanism(m);
        cfg.paranoid_checks = true;
        cfg
    }

    /// The forecast `what_if` promises, computed the slow way: each fork
    /// submits the probe and drains every event before the probe's first
    /// start is read.
    fn drain_to_end<B: SnapshotBackend>(
        svc: &SchedulerService<B>,
        probe: &JobSpec,
    ) -> BTreeMap<Mechanism, SimTime> {
        let mut forecast = BTreeMap::new();
        for m in Mechanism::ALL_SIX {
            let cfg = SimConfig {
                mechanism: m,
                hooks: None,
                ..svc.config().clone()
            };
            let mut fork = svc.fork(&cfg);
            fork.submit(probe.clone()).expect("probe is submittable");
            // The probe's record leaves the recorder once it retires, so
            // its first start is read on the way, never to stop early.
            let mut start = None;
            fork.advance(SimTime::MAX, true, |sim| {
                if let Some(s) = sim.rec.get(probe.id).and_then(|r| r.first_start) {
                    start = Some(s);
                }
                false
            });
            assert!(!fork.events_pending(), "drain left events behind");
            if let Some(start) = start {
                forecast.insert(m, start);
            }
        }
        forecast
    }

    /// Forecast `probe` both ways and require bitwise agreement; returns
    /// the forecast.
    fn assert_oracle<B: SnapshotBackend>(
        svc: &SchedulerService<B>,
        probe: &JobSpec,
        label: &str,
    ) -> BTreeMap<Mechanism, SimTime> {
        let fast = svc.what_if(probe).expect("probe is submittable");
        assert_eq!(fast, drain_to_end(svc, probe), "{label}");
        fast
    }

    /// A buffered cancel right after every `stride`-th submit.
    fn with_buffered_cancels(log: &SubmissionLog, stride: usize) -> SubmissionLog {
        let mut entries: Vec<LogEntry> = Vec::new();
        for (nth, e) in log.entries().iter().enumerate() {
            entries.push(e.clone());
            if let SubmitOp::Submit(spec) = &e.op {
                if nth % stride == stride - 1 {
                    entries.push(LogEntry {
                        at: e.at,
                        op: SubmitOp::Cancel(spec.id),
                    });
                }
            }
        }
        SubmissionLog::new(log.system_size(), log.horizon(), entries).expect("valid cancels")
    }

    /// Probes at `now`: one small job (starts now on an idle node), one
    /// whole-shard job (queued behind whatever runs), an on-demand job
    /// announced now and submitted later, a small rigid one submitted
    /// later, and — when shards are smaller than the machine — one no
    /// shard can host.
    fn probes(now: SimTime, system: u32, max_shard: u32) -> Vec<JobSpec> {
        let rigid = |k: u64, at: SimTime, size: u32| {
            JobSpecBuilder::rigid(PROBE + k)
                .submit_at(at)
                .size(size)
                .work(d(1_800))
                .estimate(d(3_600))
                .build()
        };
        let mut v = vec![
            rigid(0, now, 1),
            rigid(1, now, max_shard),
            JobSpecBuilder::on_demand(PROBE + 2)
                .submit_at(now + d(1_200))
                .notice(now, now + d(1_200))
                .size(max_shard / 2)
                .work(d(900))
                .estimate(d(1_800))
                .build(),
            rigid(3, now + d(7_200), 4),
        ];
        if max_shard < system {
            v.push(rigid(4, now, max_shard + 1));
        }
        v
    }

    fn drive<B: SnapshotBackend>(svc: &mut SchedulerService<B>, log: &SubmissionLog, cut: usize) {
        for e in &log.entries()[..cut] {
            svc.apply(e).expect("log entry applies");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// `what_if` (forks stop once the probe starts or retires) equals
        /// the drain-to-end forecast bitwise, at random cut points of
        /// random tiny sessions, with and without buffered cancels, on one
        /// cluster and on a 2-shard federation.
        #[test]
        fn what_if_equals_drain_to_end(
            seed in 0..1_000u64,
            jobs in 15..50u32,
            cut_frac in 0..=100u32,
            cancels in 0..2u32,
            m in 0..6usize,
        ) {
            let trace = TraceConfig::tiny().with_jobs(jobs).generate(seed);
            let mut log = SubmissionLog::from_trace(&trace);
            if cancels == 1 {
                log = with_buffered_cancels(&log, 4);
            }
            let cut = log.len() * cut_frac as usize / 100;
            let system = log.system_size();
            let cfg = session_cfg(Mechanism::ALL_SIX[m]);

            let mut svc = SchedulerService::new(cfg.clone(), system);
            drive(&mut svc, &log, cut);
            for p in probes(svc.now(), system, system) {
                assert_oracle(&svc, &p, &format!("cluster, probe {}", p.id));
            }

            let fed = FederationConfig::even_split(2, system);
            let max_shard = fed.shards.iter().map(|s| s.nodes).max().expect("shards");
            let mut svc =
                SchedulerService::<Federation>::federated(cfg.federated(fed), system);
            drive(&mut svc, &log, cut);
            for p in probes(svc.now(), system, max_shard) {
                assert_oracle(&svc, &p, &format!("federation, probe {}", p.id));
            }
        }
    }

    /// Each probe class the early stop distinguishes actually occurs —
    /// starts now, queued behind a running job, future submit, never
    /// placeable — and matches the drain-to-end forecast.
    #[test]
    fn what_if_probe_classes_match_drain_to_end() {
        let cfg = session_cfg(Mechanism::CUA_SPAA);
        let mut svc = SchedulerService::new(cfg.clone(), 64);
        let now = svc.now();
        let probe = |k: u64, at: SimTime, size: u32| {
            JobSpecBuilder::rigid(PROBE + k)
                .submit_at(at)
                .size(size)
                .work(d(600))
                .estimate(d(1_200))
                .build()
        };

        let starts_now = assert_oracle(&svc, &probe(0, now, 8), "idle machine");
        assert_eq!(starts_now.len(), 6);
        assert!(starts_now.values().all(|&s| s == now));

        let later = now + d(5_000);
        let future = assert_oracle(&svc, &probe(1, later, 8), "future submit");
        assert!(future.len() == 6 && future.values().all(|&s| s == later));

        let blocker = JobSpecBuilder::rigid(1)
            .size(64)
            .work(d(3_600))
            .estimate(d(7_200))
            .build();
        svc.submit(blocker).expect("submittable");
        svc.step_until(t(10));
        let queued = assert_oracle(&svc, &probe(2, svc.now(), 8), "full machine");
        assert_eq!(queued.len(), 6);
        assert!(queued.values().all(|&s| s >= t(3_600)));

        let fed = FederationConfig::even_split(2, 64);
        let svc = SchedulerService::<Federation>::federated(cfg.federated(fed), 64);
        let absent = assert_oracle(&svc, &probe(3, svc.now(), 40), "larger than any shard");
        assert!(absent.is_empty(), "an unplaceable probe has no forecast");
    }
}

// ---------------------------------------------------------------------
// Release-profile shadow vs. the full-scan oracle
// ---------------------------------------------------------------------

mod shadow_profile {
    use super::*;
    use hws_cluster::FederationConfig;
    use proptest::prelude::*;

    const SYSTEM: u32 = 32;

    /// One generated job: kind (rigid, malleable twice over, noticed or
    /// unnoticed on-demand), submit slot, size, work units and estimate
    /// mode.
    type Arb = (u8, u64, u32, u64, u8);

    /// Jobs on a coarse grid, so that many runs share an expected end
    /// with different node counts. A malleable job with a nonzero
    /// estimate mode underestimates its work (a spec the trace validator
    /// refuses, built here on purpose): once a shrink or expansion
    /// reschedules it to its actual finish it runs past its estimate,
    /// where its expected end clamps to the clock. Noticed on-demand jobs
    /// open reservations that backfill squats on, some runs entirely
    /// (plain count 0).
    fn build(jobs: &[Arb]) -> Trace {
        let specs = jobs
            .iter()
            .enumerate()
            .map(|(i, &(kind, slot, size, units, est))| {
                let submit = t(slot * 600);
                let work = d(units * 1_200);
                let kind = [0, 1, 1, 2, 3][kind as usize];
                let b = match kind {
                    0 => JobSpecBuilder::rigid(i as u64),
                    1 => JobSpecBuilder::malleable(i as u64),
                    _ => JobSpecBuilder::on_demand(i as u64),
                }
                .submit_at(submit)
                .size(size)
                .work(work);
                let b = match (kind, est) {
                    (1, 1 | 2) => b.estimate(d(units * 600)),
                    (_, 0) => b,
                    _ => b.estimate(work + work),
                };
                match kind {
                    1 => b.min_size((size / 4).max(1)).setup(d(60)),
                    2 => b.notice(submit.saturating_sub(d(1_800)), submit),
                    _ => b,
                }
                .build()
            })
            .collect();
        trace(SYSTEM, specs)
    }

    fn arb_job() -> impl Strategy<Value = Arb> {
        (0..5u8, 0..12u64, 1..=14u32, 1..=4u64, 0..3u8)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Under `paranoid_checks` every head projection walks the
        /// release profile and asserts it equals `compute_shadow` over the
        /// full split scan, and every event checks that the profile holds
        /// exactly the live running and draining jobs under their keys:
        /// on one cluster and on a 2-shard federation, under each
        /// mechanism.
        #[test]
        fn profile_shadow_matches_the_scan(
            jobs in proptest::collection::vec(arb_job(), 8..48),
            m in 0..6usize,
        ) {
            let tr = build(&jobs);
            let cfg = SimConfig::with_mechanism(Mechanism::ALL_SIX[m]);
            let single = run(cfg.clone(), &tr);
            let fed = run(cfg.federated(FederationConfig::even_split(2, SYSTEM)), &tr);
            prop_assert_eq!(single.metrics.completed_jobs + single.metrics.killed_jobs, tr.len());
            prop_assert_eq!(fed.metrics.completed_jobs + fed.metrics.killed_jobs, tr.len());
        }
    }
}
