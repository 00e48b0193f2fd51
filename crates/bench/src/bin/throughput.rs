//! **End-to-end simulator throughput** — jobs/sec per mechanism over the
//! synthetic quick-scale trace and the bundled `theta_quick.swf` fixture,
//! sequential and parallel, with a metric-parity self-check.
//!
//! This is the companion baseline to `BENCH_decision_latency.json`: where
//! the decision bench times the mechanism kernels in isolation, this binary
//! times the whole event loop — queue ordering, shadow computation, node
//! routing, cluster accounting — so hot-path regressions that the kernels
//! can't see (e.g. an O(N) scan creeping back into `split_of`) show up as
//! a jobs/sec drop.
//!
//! **Parity self-check:** for every (mechanism × source) cell, seed 0 is
//! re-run with `SimConfig::paranoid_checks` enabled, which cross-validates
//! the cluster's incremental `(plain, squatted)` counters and squatter
//! index against a full node scan after *every* event, and the resulting
//! metrics are asserted bitwise identical to the fast run. Every per-seed
//! parallel outcome is likewise asserted bitwise identical to a sequential
//! replay (`hws_bench::sweep_verified`, whose two phases are the timed
//! parallel and sequential windows). Any divergence aborts with a non-zero
//! exit, which is what CI keys on.
//!
//! Writes `BENCH_simulator_throughput.json` (see `hws_bench::baseline`).
//! The committed baseline is recorded at `HWS_SCALE=quick` with the
//! default 10 seeds.
//!
//! ```text
//! HWS_SCALE=quick cargo run --release -p hws-bench --bin throughput
//! ```

use hws_bench::baseline::{Row, THROUGHPUT};
use hws_bench::{
    bundled_swf_fixture, metrics_fingerprint, seeds_from_env, sweep_verified, Scale, TraceSource,
};
use hws_core::{Mechanism, SimConfig, Simulator};
use hws_metrics::Table;
use hws_workload::{SwfImportConfig, Trace};

/// Run one (mechanism × source) cell: a verified sweep timed in its
/// parallel and sequential phases, and the paranoid metric-parity
/// self-check on seed 0. Adds the cell's line to `table` and returns its
/// baseline row.
fn run_cell(m: Mechanism, source: &str, traces: &[Trace], seeds: u64, table: &mut Table) -> Row {
    let cfg = SimConfig::with_mechanism(m);
    // The parallel window includes one trace clone per seed; the
    // sequential one times `run_trace` alone.
    let seed_list: Vec<u64> = (0..seeds).collect();
    let sweep = sweep_verified(&cfg, &seed_list, |s| traces[s as usize].clone());
    let outcomes = &sweep.outcomes;

    // Metric-parity self-check: the paranoid run cross-validates the
    // incremental cluster accounting against a full node scan after every
    // event (panicking on any counter drift), and its metrics must match
    // the fast path bitwise.
    let paranoid = Simulator::run_trace(&cfg.clone().paranoid(), &traces[0]);
    assert_eq!(
        paranoid.metrics,
        outcomes[0].metrics,
        "{} on {source}: paranoid reference run diverged from the optimized hot path",
        m.name()
    );

    let jobs: usize = traces.iter().map(|t| t.len()).sum();
    let events: u64 = outcomes.iter().map(|o| o.engine.delivered).sum();
    let seq_jobs_per_sec = jobs as f64 / sweep.seq_s;
    let par_jobs_per_sec = jobs as f64 / sweep.par_s;
    let events_per_sec = events as f64 / sweep.seq_s;
    // FNV-1a over every per-seed metrics struct: committed so an
    // optimization that changes *any* metric bit shows as baseline drift.
    let fingerprint = metrics_fingerprint(outcomes);
    eprintln!(
        "  {:<8} seq {seq_jobs_per_sec:>9.1} jobs/s  par {par_jobs_per_sec:>9.1} jobs/s  \
         ({events_per_sec:.0} events/s)  parity OK",
        m.name()
    );
    table.row(vec![
        source.to_string(),
        m.name().to_string(),
        format!("{seq_jobs_per_sec:.1}"),
        format!("{par_jobs_per_sec:.1}"),
        format!("{events_per_sec:.0}"),
        format!("{fingerprint:016x}"),
    ]);
    Row::new()
        .col("source", source)
        .col("mechanism", m.name())
        .col("jobs", jobs)
        .col("seeds", seeds)
        .col("seq_wall_s", sweep.seq_s)
        .col("par_wall_s", sweep.par_s)
        .col("seq_jobs_per_sec", seq_jobs_per_sec)
        .col("par_jobs_per_sec", par_jobs_per_sec)
        .col("events_per_sec", events_per_sec)
        .fingerprint("metrics_fingerprint", fingerprint)
        .col("avg_turnaround_h", outcomes[0].metrics.avg_turnaround_h)
        .col("utilization", outcomes[0].metrics.utilization)
}

fn main() {
    let seeds = seeds_from_env();
    let scale = Scale::from_env();
    let synthetic = TraceSource::Synthetic(scale.trace_config());
    let fixture = TraceSource::swf(bundled_swf_fixture(), SwfImportConfig::default());
    let sources: [(&'static str, TraceSource); 2] =
        [("synthetic", synthetic), ("theta_quick.swf", fixture)];

    let mut t = Table::new(vec![
        "source",
        "mechanism",
        "seq jobs/s",
        "par jobs/s",
        "events/s",
        "fingerprint",
    ]);
    let mut rows = Vec::new();
    for (label, source) in &sources {
        // Pre-build the per-seed traces so the measured window is pure
        // simulation, not trace generation / SWF import.
        let traces: Vec<Trace> = (0..seeds).map(|s| source.make_trace(s)).collect();
        eprintln!(
            "throughput: {label} ({}), {} jobs x {seeds} seeds",
            source.describe(),
            traces[0].len()
        );
        for m in Mechanism::ALL_SIX {
            rows.push(run_cell(m, label, &traces, seeds, &mut t));
        }
    }
    println!("SIMULATOR THROUGHPUT (scale {scale:?}, {seeds} seeds, parity-checked)");
    println!("{}", t.render());
    THROUGHPUT.write(&rows);
}
