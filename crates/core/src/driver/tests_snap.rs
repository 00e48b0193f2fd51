//! Snapshot-format oracles: golden image digests that pin the byte layout
//! of `SchedulerService::snapshot`, and a seeded mutation run that feeds
//! damaged images to `restore`.

use super::outage::OutageState;
use super::*;
use crate::config::{Mechanism, NoticeStrategy, SimConfig};
use crate::jobstate::JobState;
use hws_cluster::{Cluster, ClusterBackend, Federation, FederationConfig, SnapshotBackend};
use hws_sim::snap::{SnapError, SnapWriter};
use hws_sim::{SimDuration, SimTime};
use hws_workload::job::JobSpecBuilder;
use hws_workload::{
    JobId, JobKind, LogEntry, MaintenanceWindow, OutageSchedule, SubmissionLog, SubmitOp,
    TraceConfig,
};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

const SYSTEM: u32 = 64;
/// 24 nodes, spread over the shards, go down or drain over this window
/// (seconds).
const OUTAGE: (u64, u64) = (60_000, 120_000);

fn session_cfg(m: Mechanism, shards: usize) -> SimConfig {
    let per_shard = 24 / shards as u32;
    let windows: Vec<_> = (0..shards as u32 * per_shard)
        .map(|i| MaintenanceWindow {
            shard: i / per_shard,
            node: Some(i % per_shard),
            start: SimTime::from_secs(OUTAGE.0),
            end: SimTime::from_secs(OUTAGE.1),
            hard: i % 2 == 0,
        })
        .collect();
    let outages = OutageSchedule::maintenance_windows(&windows).expect("valid windows");
    let cfg = SimConfig::with_mechanism(m).with_outages(outages);
    if shards > 1 {
        cfg.federated(FederationConfig::even_split(shards, SYSTEM))
    } else {
        cfg
    }
}

/// A capability-tagged log with a buffered cancel after every 7th submit
/// and an in-flight cancel two hours after every 5th.
fn session_log() -> SubmissionLog {
    let trace = TraceConfig::tiny()
        .with_jobs(120)
        .with_capability_frac(0.5)
        .generate(5);
    let log = SubmissionLog::from_trace(&trace);
    let mut entries = Vec::new();
    let mut late = Vec::new();
    for (nth, e) in log.entries().iter().enumerate() {
        entries.push(e.clone());
        if let SubmitOp::Submit(spec) = &e.op {
            if nth % 7 == 6 {
                entries.push(LogEntry {
                    at: e.at,
                    op: SubmitOp::Cancel(spec.id),
                });
            } else if nth % 5 == 4 {
                late.push(LogEntry {
                    at: e.at + SimDuration::from_hours(2),
                    op: SubmitOp::Cancel(spec.id),
                });
            }
        }
    }
    entries.extend(late);
    // A long malleable job: a cheap CUP victim once the outage starts.
    let malleable = JobSpecBuilder::malleable(MALLEABLE)
        .submit_at(SimTime::from_secs(OUTAGE.0 - 10_000))
        .size(16)
        .min_size(4)
        .work(SimDuration::from_days(2))
        .estimate(SimDuration::from_days(3))
        .build();
    entries.push(LogEntry {
        at: malleable.submit,
        op: SubmitOp::Submit(malleable),
    });
    entries.sort_by_key(|e| e.at);
    SubmissionLog::new(log.system_size(), log.horizon(), entries).expect("valid cancels")
}

/// Ids of the hand-built jobs sit far above any generated id.
const OWN: u64 = 1 << 40;
const MALLEABLE: u64 = OWN + 99;

fn own_job(kind: JobKind, k: u64, at: SimTime, size: u32) -> JobSpecBuilder {
    JobSpecBuilder::new(OWN + k, kind)
        .submit_at(at)
        .size(size)
        .work(SimDuration::from_secs(1_800))
        .estimate(SimDuration::from_secs(3_600))
}

/// Drive `log` into the outage window until the queue, the evicted-job
/// table and the in-flight cancels are all non-empty. Then a large
/// on-demand job is announced (a CUP plan), a small one arrives (a PAA or
/// SPAA decision), and two future jobs are submitted, one of them
/// cancelled while buffered.
fn mid_session<B: SnapshotBackend>(svc: &mut SchedulerService<B>, log: &SubmissionLog) {
    let mut withdrawn = 0;
    let full = |svc: &mut SchedulerService<B>, withdrawn: usize| {
        let now = svc.now().as_secs();
        let core = svc.core_mut();
        now > OUTAGE.0
            && withdrawn > 0
            && !core.queue.is_empty()
            && any_live(core, |st| st.evicted_at.is_some())
    };
    let mut clock = SimTime::ZERO;
    'log: for e in log.entries() {
        // Check every ten minutes of virtual time between log entries.
        while clock + SimDuration::from_secs(600) < e.at {
            clock += SimDuration::from_secs(600);
            svc.step_before(clock);
            if full(svc, withdrawn) {
                break 'log;
            }
        }
        let out = svc.apply(e).expect("log entry applies");
        withdrawn += usize::from(out == Some(CancelOutcome::Cancelled));
        if full(svc, withdrawn) {
            break;
        }
    }
    assert!(full(svc, withdrawn), "the log never fills every section");
    let now = svc.now().max(clock);
    let core = svc.core_mut();
    let shard = core.cluster.shard_of(JobId(MALLEABLE));
    let live = core.cluster.live_max_job_size();
    let notice = now + SimDuration::from_secs(30);
    let arrival = now + SimDuration::from_secs(60);
    // Sized so that PAA and SPAA answer it differently.
    let size = if shard.is_some() { live / 2 } else { 8 };
    let mut arriving = own_job(JobKind::OnDemand, 0, arrival, size);
    let mut announced = own_job(
        JobKind::OnDemand,
        1,
        notice + SimDuration::from_secs(600),
        live,
    )
    .notice(notice, notice + SimDuration::from_secs(600));
    if let Some(s) = shard {
        arriving = arriving.site_hint(s as u32);
        announced = announced.site_hint(s as u32);
    }
    svc.submit(arriving.build()).expect("on-demand job submits");
    svc.submit(announced.build())
        .expect("on-demand job submits");
    svc.step_until(arrival);
    if svc.config().mechanism.notice() == Some(NoticeStrategy::Cup) {
        let planned = |st: &JobState| st.notice.as_ref().is_some_and(|n| !n.plans.is_empty());
        assert!(any_live(svc.core_mut(), planned), "no CUP plan pending");
    }
    for (k, hours) in [(2, 30), (3, 40)] {
        let at = arrival + SimDuration::from_hours(hours);
        svc.submit(own_job(JobKind::Rigid, k, at, 8).build())
            .expect("future job submits");
    }
    assert_eq!(svc.cancel(JobId(OWN + 3)), CancelOutcome::Buffered);
    assert_eq!(svc.pending_jobs(), 1, "one buffered job survives");
    let mut capability = false;
    let core = svc.core_mut();
    core.table
        .for_each_live(|spec, _| capability |= spec.is_capability());
    assert!(capability, "no live capability job");
}

/// Whether some live job's state satisfies `f`.
fn any_live<B: ClusterBackend>(core: &SimCore<B>, f: impl Fn(&JobState) -> bool) -> bool {
    let mut hit = false;
    core.table.for_each_live(|_, st| hit |= f(st));
    hit
}

fn image(m: Mechanism, shards: usize) -> Vec<u8> {
    let log = session_log();
    let cfg = session_cfg(m, shards);
    match &cfg.federation {
        None => {
            let mut svc = SchedulerService::new(cfg.clone(), SYSTEM);
            mid_session(&mut svc, &log);
            let bytes = svc.snapshot();
            let back = SchedulerService::<Cluster>::restore(&bytes, &cfg, ()).expect("restores");
            assert_eq!(back.snapshot(), bytes, "not a fixed point");
            bytes
        }
        Some(fed) => {
            let mut svc = SchedulerService::<Federation>::federated(cfg.clone(), SYSTEM);
            mid_session(&mut svc, &log);
            let bytes = svc.snapshot();
            let back = SchedulerService::<Federation>::restore(&bytes, &cfg, fed.clone())
                .expect("restores");
            assert_eq!(back.snapshot(), bytes, "not a fixed point");
            bytes
        }
    }
}

/// `(len, FNV-1a)` of each mid-session image, per mechanism, on one
/// cluster and on a 2-shard federation.
const GOLDEN: [(usize, usize, u64); 12] = [
    (1, 4793, 11462310391602741338),
    (1, 4721, 2119738120133050914),
    (1, 4854, 9892217083601628763),
    (1, 4782, 17332512555184061915),
    (1, 4904, 12886120827385586610),
    (1, 4832, 5734756638497927283),
    (2, 3925, 7396649399507538184),
    (2, 3893, 4705551915287198537),
    (2, 3998, 18350109404500493580),
    (2, 3966, 6181022600236499089),
    (2, 4048, 1648908614735372315),
    (2, 4016, 10537470036614712426),
];

/// The byte layout is the spec: a codec change that moves one byte of
/// any section fails here. Each image also restores and re-serialises to
/// itself.
#[test]
fn golden_images_pin_the_snapshot_layout() {
    let mut got = Vec::new();
    for shards in [1, 2] {
        for m in Mechanism::ALL_SIX {
            let bytes = image(m, shards);
            got.push((shards, bytes.len(), fnv1a(&bytes)));
        }
    }
    assert_eq!(got, GOLDEN);
}

fn restore_single(bytes: &[u8]) -> Result<SchedulerService<Cluster>, SnapError> {
    SchedulerService::<Cluster>::restore(bytes, &session_cfg(Mechanism::CUP_SPAA, 1), ())
}

fn restore_federated(bytes: &[u8]) -> Result<SchedulerService<Federation>, SnapError> {
    let cfg = session_cfg(Mechanism::CUP_SPAA, 2);
    let fed = cfg.federation.clone().expect("federated config");
    SchedulerService::<Federation>::restore(bytes, &cfg, fed)
}

/// A collection length of 2³² is refused before anything is allocated
/// for it.
#[test]
fn a_hostile_length_is_refused_not_allocated() {
    let huge = (1u64 << 32).to_le_bytes();
    // Bytes 26..34 hold the event queue's entry count: after the service
    // version (1), the engine image length (8), the engine version (1),
    // `now` (8) and `delivered` (8).
    let mut bad = image(Mechanism::CUP_SPAA, 1);
    bad[26..34].copy_from_slice(&huge);
    assert!(restore_single(&bad).is_err());
    // The federation's `home` length follows its shard images.
    let bytes = image(Mechanism::CUP_SPAA, 2);
    let mut svc = restore_federated(&bytes).expect("restores");
    let fed = &svc.core_mut().cluster;
    let image_of = |put: &dyn Fn(&mut SnapWriter)| {
        let mut w = SnapWriter::new();
        put(&mut w);
        w.into_bytes()
    };
    let whole = image_of(&|w| fed.snapshot(w));
    let at = bytes
        .windows(whole.len())
        .position(|win| win == whole)
        .expect("the federation image sits in the service image");
    let shards = (0..fed.shard_count())
        .map(|i| image_of(&|w| fed.shard(i).snapshot(w)).len())
        .sum::<usize>();
    let home = at + 8 + shards;
    let mut bad = bytes.clone();
    bad[home..home + 8].copy_from_slice(&huge);
    assert!(restore_federated(&bad).is_err());
}

/// The per-shard occupancy and the outage's lost node-seconds, which
/// later steps add to, are refused above the whole machine over the whole
/// clock, and accepted at that bound.
#[test]
fn node_second_totals_are_bounded_on_restore() {
    let most = u128::from(SYSTEM) * u128::from(u64::MAX);
    let bytes = image(Mechanism::CUP_SPAA, 2);
    let retotal = |total: u128, shard: bool| {
        let mut svc = restore_federated(&bytes).expect("restores");
        let core = svc.core_mut();
        if shard {
            core.shard_occ[1] = total;
        } else {
            core.outage
                .as_mut()
                .expect("outage state")
                .lost_node_seconds = total;
        }
        restore_federated(&svc.snapshot())
    };
    for shard in [true, false] {
        assert!(retotal(most, shard).is_ok(), "shard {shard}: the bound");
        let err = retotal(most + 1, shard)
            .err()
            .expect("refused above the bound");
        assert!(err.to_string().contains("node-seconds"), "{err}");
    }
}

/// The outage counters later steps increment are refused above bounds no
/// increment can pass (see `OutageState::check_counts`); at its bound a
/// counter restores and the session drains to the end without overflow.
#[test]
fn outage_counters_are_bounded_on_restore() {
    let bytes = image(Mechanism::CUP_SPAA, 1);
    type Edit<'a> = &'a dyn Fn(&mut OutageState);
    let recount = |edit: Edit| {
        let mut svc = restore_single(&bytes).expect("restores");
        edit(svc.core_mut().outage.as_mut().expect("outage state"));
        restore_single(&svc.snapshot())
    };
    let applied = {
        let mut svc = restore_single(&bytes).expect("restores");
        let o = svc.core_mut().outage.clone().expect("outage state");
        assert!(o.applied > 0, "the image is cut mid-outage");
        o.applied
    };
    let at_bound = u64::from(applied) * u64::from(SYSTEM);
    let mut svc = recount(&|o| o.rejoins = at_bound).expect("accepted at the bound");
    svc.step_until(SimTime::MAX);
    let rejoins = svc
        .core_mut()
        .outage
        .as_ref()
        .expect("outage state")
        .rejoins;
    assert!(rejoins >= at_bound, "rejoins kept counting");

    let over: [(&str, Edit); 11] = [
        ("applied", &|o| o.applied = u32::MAX),
        ("downs", &|o| o.downs = u64::MAX),
        ("drains", &|o| o.drains = u64::MAX),
        ("rejoins", &|o| o.rejoins = at_bound + 1),
        ("interrupted", &|o| o.interrupted_jobs = u64::MAX),
        ("shrunk", &|o| o.shrunk_jobs = u64::MAX),
        ("infeasible", &|o| o.infeasible_killed = u64::MAX),
        ("recoveries", &|o| o.recoveries = u64::MAX),
        ("latency", &|o| o.recovery_latency_total = u64::MAX),
        ("degraded", &|o| o.degraded_wall_seconds = u64::MAX),
        ("last accrual", &|o| o.last_accrual = SimTime::MAX),
    ];
    for (what, edit) in over {
        assert!(recount(edit).is_err(), "{what}: refused above its bound");
    }
}

/// Restore rebuilds the release profile with checked clock arithmetic: an
/// image with a running job whose expected end lies past the clock is
/// refused rather than accepted to panic at its first shadow.
#[test]
fn a_run_ending_past_the_clock_is_refused() {
    let bytes = image(Mechanism::CUP_SPAA, 1);
    let mut svc = restore_single(&bytes).expect("restores");
    let core = svc.core_mut();
    let mut running = None;
    core.table.for_each_live(|spec, st| {
        if st.status == crate::jobstate::Status::Running {
            running.get_or_insert(spec.id);
        }
    });
    let job = running.expect("a running job");
    let run = core.table.state_mut(job).run.as_mut().expect("running");
    (run.start, run.setup_end, run.work_anchor) = (SimTime::MAX, SimTime::MAX, SimTime::MAX);
    let err = restore_single(&svc.snapshot()).err().expect("refused");
    assert!(err.to_string().contains("overflows the clock"), "{err}");
}

/// Whether a restore succeeded; a restored service must pass every
/// invariant check (`check_paranoid` panics otherwise) and snapshot
/// again.
fn survives<B: SnapshotBackend>(restored: Result<SchedulerService<B>, SnapError>) -> bool {
    let Ok(mut svc) = restored else {
        return false;
    };
    svc.core_mut().check_paranoid();
    let _ = svc.snapshot();
    true
}

/// Seeded mutations of a single-cluster and a 2-shard mid-session image:
/// bit flips, runs of `0xFF`, inflated length fields, truncations and
/// splices of the two images. Each either fails to restore or restores to
/// a consistent service that snapshots again; none panics.
#[test]
fn mutated_images_fail_closed() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let sources = [image(Mechanism::CUP_SPAA, 1), image(Mechanism::CUP_SPAA, 2)];
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let (mut accepted, mut refused) = (0, 0);
    for case in 0..2_000 {
        let which = case % 2;
        let src = &sources[which];
        let mut bad = src.clone();
        let at = rng.random_range(0..src.len());
        match rng.random_range(0..5u32) {
            0 => bad[at] ^= 1 << rng.random_range(0..8u32),
            1 => {
                let end = (at + rng.random_range(1..16usize)).min(bad.len());
                bad[at..end].fill(0xFF);
            }
            2 => {
                // Inflate the nearest plausible length field at or after
                // `at`: a small non-zero `u64`.
                let field = (at..bad.len().saturating_sub(8)).find(|&i| {
                    let v = u64::from_le_bytes(bad[i..i + 8].try_into().expect("8 bytes"));
                    (1..=4_096).contains(&v)
                });
                if let Some(i) = field {
                    let v = [1 << 32, u64::MAX, bad.len() as u64][rng.random_range(0..3usize)];
                    bad[i..i + 8].copy_from_slice(&v.to_le_bytes());
                }
            }
            3 => bad.truncate(at),
            _ => {
                let other = &sources[1 - which];
                let cut = rng.random_range(0..other.len());
                bad.truncate(at);
                bad.extend_from_slice(&other[cut..]);
            }
        }
        if bad == *src {
            continue;
        }
        if survives(restore_single(&bad)) | survives(restore_federated(&bad)) {
            accepted += 1;
        } else {
            refused += 1;
        }
    }
    // Both outcomes occur: the mutations reach the decoder's refusals and
    // the states it accepts.
    assert!(
        accepted > 0 && refused > 0,
        "{accepted} restored, {refused} refused"
    );
}

/// The running-capability counter is derived on restore from the job
/// table, never read from the image: an image taken while the counter
/// disagrees with the running jobs restores to the scan, and the
/// restored session drains under paranoid checks.
#[test]
fn restore_derives_the_running_capability_count() {
    let mut cfg = SimConfig::with_mechanism(Mechanism::CUP_SPAA);
    let mut svc = SchedulerService::new(cfg.clone(), SYSTEM);
    for (k, size) in [(0, 16), (1, 8)] {
        let job = own_job(JobKind::Rigid, k, SimTime::from_secs(10), size);
        svc.submit(job.capability().build()).expect("job submits");
    }
    svc.step_until(SimTime::from_secs(100));
    let scan = svc.core_mut().running_capability();
    assert_eq!(scan, 2, "both capability jobs run");
    svc.core_mut().cap_running = 0;
    let bytes = svc.snapshot();
    cfg.paranoid_checks = true;
    let mut back = SchedulerService::<Cluster>::restore(&bytes, &cfg, ()).expect("restores");
    assert_eq!(back.core_mut().running_capability(), scan);
    let out = back.into_outcome();
    assert_eq!(out.metrics.completed_jobs, 2);
}
