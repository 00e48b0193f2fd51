//! Microbench of the pass-ordering kernel: the incrementally maintained
//! waiting-queue index — a `BTreeSet` of `(QueueKey, JobId, size,
//! min_size)` entries, ordered by key and id and carrying the two sizes the
//! backfill walk filters on (churn a few entries per tick, copy the
//! already-ordered index into the pass scratch) — against
//! the historical full re-sort (recompute every key and `sort_unstable`
//! the whole queue on every pass). The simulator switched to the former in
//! DESIGN.md §15; this bench is the standing record of why — and of the
//! aging-policy (WFP3) exception, whose per-pass re-key genuinely costs
//! the old O(Q log Q).

use criterion::{criterion_group, criterion_main, Criterion};
use hws_core::policy::{queue_key, QueueKey};
use hws_core::PolicyKind;
use hws_sim::SimTime;
use hws_workload::job::JobSpecBuilder;
use hws_workload::{JobId, JobSpec};
use std::collections::BTreeSet;
use std::hint::black_box;

/// One index entry, as the driver's `WaitEntry` lays it out.
type Entry = (QueueKey, JobId, u32, u32);

fn entry(policy: PolicyKind, s: &JobSpec, epoch: SimTime) -> Entry {
    (queue_key(policy, s, false, epoch), s.id, s.size, s.min_size)
}

/// Deterministic waiting set: spread submit instants and sizes so FCFS
/// keys are distinct and WFP3 scores are non-trivial.
fn waiting_specs(q: u64) -> Vec<JobSpec> {
    (0..q)
        .map(|i| {
            JobSpecBuilder::rigid(i)
                .submit_at(SimTime::from_secs((i * 37) % (q * 8) + 1))
                .size(((i * 13) % 512 + 1) as u32)
                .build()
        })
        .collect()
}

fn bench_schedule_pass(c: &mut Criterion) {
    let mut g = c.benchmark_group("schedule_pass");

    for q in [64u64, 1_024, 16_384] {
        let specs = waiting_specs(q);

        // Historical ordering: every pass recomputes every waiting job's
        // key and sorts from scratch — O(Q) key evaluations + O(Q log Q)
        // comparisons per pass, i.e. per event once passes coalesce.
        g.bench_function(format!("full_resort/{q}_waiting"), |b| {
            let mut scratch: Vec<Entry> = Vec::with_capacity(specs.len());
            b.iter(|| {
                scratch.clear();
                scratch.extend(
                    specs
                        .iter()
                        .map(|s| entry(PolicyKind::Fcfs, s, SimTime::ZERO)),
                );
                scratch.sort_unstable();
                black_box(scratch.last().copied())
            });
        });

        // Incremental ordering: the index persists across passes; a tick
        // churns a handful of entries (starts out, submissions in) and the
        // pass copies the already-ordered index into scratch.
        g.bench_function(format!("incremental/{q}_waiting_8_churn"), |b| {
            let keyed: Vec<Entry> = specs
                .iter()
                .map(|s| entry(PolicyKind::Fcfs, s, SimTime::ZERO))
                .collect();
            let mut index: BTreeSet<Entry> = keyed.iter().copied().collect();
            let mut scratch: Vec<Entry> = Vec::with_capacity(keyed.len());
            let mut round = 0usize;
            b.iter(|| {
                // 8 priority-relevant transitions per tick: a started job
                // leaves the index, its resubmission re-enters. Rotating
                // through the keyed set keeps the occupancy steady.
                for k in 0..8 {
                    let e = keyed[(round * 8 + k) % keyed.len()];
                    assert!(index.remove(&e));
                    index.insert(e);
                }
                round += 1;
                scratch.clear();
                scratch.extend(index.iter());
                black_box(scratch.last().copied())
            });
        });

        // The aging-policy exception: WFP3 scores move with every tick, so
        // the index is re-keyed wholesale before each pass — the old
        // asymptotics, paid only by time-varying policies.
        g.bench_function(format!("wfp3_rekey/{q}_waiting"), |b| {
            let mut index: BTreeSet<Entry> = specs
                .iter()
                .map(|s| entry(PolicyKind::Wfp3, s, SimTime::ZERO))
                .collect();
            let mut ids: Vec<JobId> = Vec::with_capacity(specs.len());
            let mut now = 0u64;
            b.iter(|| {
                now += 60;
                let epoch = SimTime::from_secs(now);
                ids.clear();
                ids.extend(index.iter().map(|e| e.1));
                index.clear();
                index.extend(
                    ids.iter()
                        .map(|&j| entry(PolicyKind::Wfp3, &specs[j.0 as usize], epoch)),
                );
                black_box(index.len())
            });
        });
    }

    g.finish();
}

criterion_group!(benches, bench_schedule_pass);
criterion_main!(benches);
