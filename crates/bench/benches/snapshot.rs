//! Microbench of the checkpoint path and of what-if forking: the cluster
//! invariant scan a cluster restore ends with, snapshot encode,
//! `SchedulerService::restore`, the in-memory `SchedulerService::fork`
//! each what-if fork takes instead, and one six-mechanism `what_if`
//! forecast — on the bundled `theta_quick.swf` fixture, cut at the
//! middle of its submission log.

use criterion::{criterion_group, criterion_main, Criterion};
use hws_bench::{bundled_swf_fixture, TraceSource};
use hws_cluster::Cluster;
use hws_core::{Mechanism, SchedulerService, SimConfig};
use hws_sim::SimDuration;
use hws_workload::job::JobSpecBuilder;
use hws_workload::{JobId, SubmissionLog, SwfImportConfig};
use std::hint::black_box;

/// Theta's node count.
const THETA_NODES: u32 = 4_392;

fn mid_fixture_session() -> (SchedulerService, SimConfig) {
    let trace = TraceSource::swf(bundled_swf_fixture(), SwfImportConfig::default()).make_trace(0);
    let log = SubmissionLog::from_trace(&trace);
    let cfg = SimConfig::with_mechanism(Mechanism::CUA_SPAA);
    let mut svc = SchedulerService::new(cfg.clone(), log.system_size());
    for e in &log.entries()[..log.len() / 2] {
        svc.apply(e).expect("log entry applies");
    }
    (svc, cfg)
}

fn bench_snapshot(c: &mut Criterion) {
    let mut g = c.benchmark_group("snapshot");

    g.bench_function("check_invariants/4392_nodes_one_whole_machine_job", |b| {
        // One allocation list covering every node: the case a per-node
        // membership search of the owner's list made quadratic.
        let mut cl = Cluster::new(THETA_NODES);
        cl.allocate(JobId(1), THETA_NODES).expect("fits");
        b.iter(|| black_box(cl.check_invariants()))
    });

    let (svc, cfg) = mid_fixture_session();
    let image = svc.snapshot();

    g.bench_function("encode/theta_quick_mid", |b| {
        b.iter(|| black_box(svc.snapshot().len()))
    });

    g.bench_function("restore/theta_quick_mid", |b| {
        b.iter(|| {
            let restored =
                SchedulerService::<Cluster>::restore(&image, &cfg, ()).expect("restores");
            black_box(restored.now())
        })
    });

    g.bench_function("fork/theta_quick_mid", |b| {
        b.iter(|| black_box(svc.fork(&cfg).now()))
    });

    g.bench_function("what_if/theta_quick_mid", |b| {
        let probe = JobSpecBuilder::rigid(1 << 40)
            .submit_at(svc.now())
            .size(64)
            .work(SimDuration::from_secs(3_600))
            .estimate(SimDuration::from_secs(7_200))
            .build();
        b.iter(|| black_box(svc.what_if(&probe).expect("submittable").len()))
    });

    g.finish();
}

criterion_group!(benches, bench_snapshot);
criterion_main!(benches);
