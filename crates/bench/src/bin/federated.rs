//! **Federated dispatch** — the six mechanisms over 1/2/4-shard splits of
//! the same 4,392-node capacity, on the synthetic quick-scale trace and
//! the bundled `theta_quick.swf` fixture.
//!
//! The 1-shard rows are the refactor-safety oracle: a one-shard federation
//! must reproduce the single-cluster run **bitwise** — every per-seed
//! metric and engine counter is asserted equal against a plain
//! (`federation: None`) replay, for all six mechanisms on both sources.
//! Any divergence aborts non-zero, which is what CI keys on.
//!
//! Multi-shard rows exercise the real federation behavior: shard-local
//! preemption/squatting, sticky placement, cross-shard transfer refusal,
//! and rejection of jobs larger than the largest shard (reported via the
//! `killed_jobs` column — neither source kills jobs any other way at quick
//! scale). The 4-shard split additionally runs under all three built-in
//! placement policies.
//!
//! Writes `BENCH_federated.json` (see `hws_bench::baseline`). Every
//! recorded column is deterministic (no wall-clock numbers), so the CI
//! `baseline-parity` job gates all of them. The committed baseline is
//! recorded at `HWS_SCALE=quick` with the default 10 seeds.
//!
//! ```text
//! HWS_SCALE=quick cargo run --release -p hws-bench --bin federated
//! ```

use hws_bench::baseline::{Row, FEDERATED};
use hws_bench::{
    bundled_swf_fixture, metrics_fingerprint, seeds_from_env, sweep_verified, Scale, TraceSource,
};
use hws_cluster::{ClassAffinity, FederationConfig, LeastLoaded, PlacementPolicy};
use hws_core::{Mechanism, SimConfig, Simulator};
use hws_metrics::Table;
use hws_workload::{SwfImportConfig, Trace};
use std::sync::Arc;

const SYSTEM: u32 = 4_392;

/// One (source × federation × mechanism) cell: a verified sweep and — for
/// 1-shard federations — the bitwise single-cluster parity oracle. Adds
/// the cell's line to `table` and returns its baseline row.
fn run_cell(
    m: Mechanism,
    source: &str,
    traces: &[Trace],
    fed: &FederationConfig,
    table: &mut Table,
) -> Row {
    let cfg = SimConfig::with_mechanism(m);
    let fed_cfg = cfg.clone().federated(fed.clone());

    let seeds: Vec<u64> = (0..traces.len() as u64).collect();
    let sequential = sweep_verified(&fed_cfg, &seeds, |s| traces[s as usize].clone()).outcomes;

    let shards = fed.shards.len();
    if shards == 1 {
        // The key oracle: one shard ≡ the single-cluster path, bitwise.
        for (i, (tr, f)) in traces.iter().zip(&sequential).enumerate() {
            let plain = Simulator::run_trace(&cfg, tr);
            assert_eq!(
                f.metrics,
                plain.metrics,
                "{} on {source} seed {i}: 1-shard federation diverged from the single-cluster path",
                m.name()
            );
            assert_eq!(
                f.engine,
                plain.engine,
                "{} on {source} seed {i}: engine stats diverged from the single-cluster path",
                m.name()
            );
            assert!(plain.shards.is_none() && f.shards.is_some());
        }
    }

    // Seed 0's shard breakdown (deterministic): job starts per shard and
    // each shard's occupancy share of its capacity over the run span.
    let x = &sequential[0].metrics;
    let shards0 = sequential[0].shards.as_ref().expect("federated run");
    let span_secs = (x.span_hours * 3_600.0).round() as u64;
    let starts: Vec<u64> = shards0.iter().map(|s| s.jobs_started).collect();
    let policy = fed.policy.name();
    let fingerprint = metrics_fingerprint(&sequential);
    eprintln!(
        "  {shards:>1} shard(s) {policy:<13} {:<8} fp {fingerprint:016x}  done {:>5}  rejected {:>3}{}",
        m.name(),
        x.completed_jobs,
        x.killed_jobs,
        if shards == 1 {
            "  1-shard == single-cluster OK"
        } else {
            ""
        }
    );
    table.row(vec![
        source.to_string(),
        shards.to_string(),
        policy.to_string(),
        m.name().to_string(),
        format!("{:.1}", x.avg_turnaround_h),
        format!("{:.1}", x.utilization * 100.0),
        x.completed_jobs.to_string(),
        x.killed_jobs.to_string(),
        format!("{starts:?}"),
    ]);
    Row::new()
        .col("source", source)
        .col("shards", shards)
        .col("policy", policy)
        .col("mechanism", m.name())
        .col("seeds", seeds.len())
        .fingerprint("metrics_fingerprint", fingerprint)
        .col("avg_turnaround_h", x.avg_turnaround_h)
        .col("utilization", x.utilization)
        .col("completed_jobs", x.completed_jobs)
        .col("killed_jobs", x.killed_jobs)
        .col("shard_starts", starts)
        .col(
            "shard_occupancy",
            shards0
                .iter()
                .map(|s| s.occupancy(span_secs))
                .collect::<Vec<_>>(),
        )
}

fn main() {
    let seeds = seeds_from_env();
    let synthetic = TraceSource::Synthetic(Scale::Quick.trace_config());
    let fixture = TraceSource::swf(bundled_swf_fixture(), SwfImportConfig::default());
    let sources: [(&'static str, TraceSource); 2] =
        [("synthetic", synthetic), ("theta_quick.swf", fixture)];

    // 1/2/4-shard even splits under first-fit, plus the alternative
    // placement policies on the widest split.
    let mut federations: Vec<FederationConfig> = vec![
        FederationConfig::even_split(1, SYSTEM),
        FederationConfig::even_split(2, SYSTEM),
        FederationConfig::even_split(4, SYSTEM),
    ];
    for policy in [
        Arc::new(LeastLoaded) as Arc<dyn PlacementPolicy>,
        Arc::new(ClassAffinity) as Arc<dyn PlacementPolicy>,
    ] {
        let mut f = FederationConfig::even_split(4, SYSTEM);
        f.policy = policy;
        federations.push(f);
    }

    let mut t = Table::new(vec![
        "source",
        "shards",
        "policy",
        "mechanism",
        "TAT (h)",
        "util %",
        "done",
        "rejected",
        "starts/shard",
    ]);
    let mut rows = Vec::new();
    for (label, source) in &sources {
        let traces: Vec<Trace> = (0..seeds).map(|s| source.make_trace(s)).collect();
        eprintln!(
            "federated: {label} ({}), {} jobs x {seeds} seeds",
            source.describe(),
            traces[0].len()
        );
        for fed in &federations {
            for m in Mechanism::ALL_SIX {
                rows.push(run_cell(m, label, &traces, fed, &mut t));
            }
        }
    }
    println!("FEDERATED DISPATCH ({seeds} seeds, 1-shard bitwise-verified vs single cluster)");
    println!("{}", t.render());
    FEDERATED.write(&rows);
}
