//! Microbench of the EASY backfilling kernel (shadow computation and
//! admission tests) at realistic queue depths — part of the §II-C "quick
//! decision making" requirement alongside `decision_latency`.
//!
//! `compute_shadow/{n}_running` is the full projection (collect every
//! release, select by `(end, nodes)`); `shadow_walk/{n}_running` is the
//! driver's release-profile walk over the same releases, kept in an
//! ordered set and read from the front with a per-job node lookup.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hws_core::backfill::{compute_shadow, may_backfill, shadow_walk};
use hws_sim::SimTime;
use std::collections::BTreeSet;
use std::hint::black_box;

fn releases(n: usize) -> Vec<(SimTime, u32)> {
    (0..n)
        .map(|i| {
            (
                SimTime::from_secs(
                    ((i as u64).wrapping_mul(6_364_136_223_846_793_005) % 86_400) + 1,
                ),
                8 + (i as u32 * 31) % 256,
            )
        })
        .collect()
}

fn bench_backfill(c: &mut Criterion) {
    let mut g = c.benchmark_group("backfill");

    for n in [64usize, 400, 1_000] {
        g.bench_function(format!("compute_shadow/{n}_running"), |b| {
            let r = releases(n);
            b.iter_batched(
                || r.clone(),
                |mut r| black_box(compute_shadow(&mut r, 256, 2_048)),
                BatchSize::SmallInput,
            )
        });

        g.bench_function(format!("shadow_walk/{n}_running"), |b| {
            let r = releases(n);
            let profile: BTreeSet<(SimTime, usize)> = r
                .iter()
                .enumerate()
                .map(|(i, &(end, _))| (end, i))
                .collect();
            let mut group = Vec::new();
            let mut walk = || {
                let rel = profile.iter().map(|&(end, i)| (end, r[i].1));
                shadow_walk(rel, 256, 2_048, &mut group)
            };
            assert_eq!(walk(), compute_shadow(&mut r.clone(), 256, 2_048));
            b.iter(|| black_box(walk()))
        });
    }

    g.bench_function("admission_test/1000_candidates", |b| {
        let mut r = releases(400);
        let shadow = compute_shadow(&mut r, 256, 2_048);
        b.iter(|| {
            let mut admitted = 0u32;
            for i in 0..1_000u32 {
                if may_backfill(
                    8 + (i * 13) % 512,
                    SimTime::from_secs(u64::from(i) * 97 % 90_000),
                    1_024,
                    shadow,
                ) {
                    admitted += 1;
                }
            }
            black_box(admitted)
        })
    });

    g.finish();
}

criterion_group!(benches, bench_backfill);
criterion_main!(benches);
