//! Microbench of the cluster layer's node moves on a Theta-sized machine
//! (4,392 nodes): allocate+release at the widths replay jobs have (the
//! paper's Theta year has no job below 128 nodes), a backfill that
//! squats on on-demand reservations, and a malleable shrink that must
//! surrender plain nodes before squatted ones.
//!
//! Every case starts from a machine churned by earlier jobs of mixed
//! widths that retired out of order, so the free list is a shuffled
//! stack as it is mid-replay, not the pristine `0..n` ramp.

use criterion::{criterion_group, criterion_main, Criterion};
use hws_cluster::Cluster;
use hws_workload::JobId;
use std::hint::black_box;

/// Theta's node count.
const THETA_NODES: u32 = 4_392;
/// Reservation holders; benchmark jobs count up from 0.
const HOLDER: u64 = 1_000_000;

/// Fixed LCG stream for the churn.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % n
    }
}

/// A machine after 2,000 starts and out-of-order retirements of 128–640
/// node jobs, left with exactly `busy` nodes allocated. Returns the
/// cluster and the next unused job id.
fn churned(busy: u32) -> (Cluster, u64) {
    let mut c = Cluster::new(THETA_NODES);
    let mut rng = Lcg(0xC1_0573);
    let mut running: Vec<JobId> = Vec::new();
    let mut next = 0u64;
    for _ in 0..2_000 {
        let k = 128 + rng.below(513) as u32;
        if c.allocate(JobId(next), k).is_some() {
            running.push(JobId(next));
            next += 1;
        } else {
            let victim = running.swap_remove(rng.below(running.len() as u64) as usize);
            c.release(victim);
        }
    }
    while THETA_NODES - c.free_count() > busy {
        let victim = running.swap_remove(rng.below(running.len() as u64) as usize);
        c.release(victim);
    }
    let gap = busy - (THETA_NODES - c.free_count());
    if gap > 0 {
        c.allocate(JobId(next), gap).expect("fits");
        next += 1;
    }
    (c, next)
}

fn bench_cluster(c: &mut Criterion) {
    let mut g = c.benchmark_group("cluster");

    for k in [128u32, 512, 2_048] {
        g.bench_function(format!("allocate_release/{k}_nodes"), |b| {
            let (mut cl, job) = churned(THETA_NODES / 2);
            let job = JobId(job);
            b.iter(|| {
                let got = cl.allocate(job, k).map(|n| n.len());
                black_box(got);
                black_box(cl.release(job).to_free)
            })
        });
    }

    g.bench_function("allocate_backfill_release/512_nodes_384_squatted", |b| {
        // 128 free nodes left after two 192-node on-demand reservations:
        // the backfill takes the free pool, then squats on both holders.
        let (mut cl, job) = churned(THETA_NODES - 128 - 2 * 192);
        cl.reserve(JobId(HOLDER), 192);
        cl.reserve(JobId(HOLDER + 1), 192);
        let job = JobId(job);
        b.iter(|| {
            let squats = cl.allocate_backfill(job, 512, |_| true).expect("fits");
            black_box(squats.len());
            black_box(cl.release(job).to_reservations.len())
        })
    });

    g.bench_function("shrink_expand/2048_nodes_by_1024_with_squats", |b| {
        // A 2,048-node malleable job holding 256 squatted nodes gives
        // back 1,024 plain nodes and takes them back.
        let (mut cl, job) = churned(THETA_NODES - 2_048);
        cl.reserve(JobId(HOLDER), 256);
        let job = JobId(job);
        let squats = cl.allocate_backfill(job, 2_048, |_| true).expect("fits");
        assert_eq!(squats, vec![(JobId(HOLDER), 256)]);
        b.iter(|| {
            black_box(cl.shrink(job, 1_024).to_free);
            black_box(cl.expand(job, 1_024))
        })
    });

    g.finish();
}

criterion_group!(benches, bench_cluster);
criterion_main!(benches);
