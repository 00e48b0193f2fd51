//! **SWF replay** — the six mechanisms on a real-trace-shaped SWF log
//! instead of per-seed synthetic traces (ROADMAP: "SWF replay at scale").
//!
//! The raw jobs are fixed by the log; the seed drives the §IV-A
//! class/notice assignment, mirroring the paper's ten-trace averaging
//! protocol on one real workload. Every sweep is routed through
//! `hws_bench::sweep_verified`, so each per-seed outcome (metrics and
//! engine counters) is verified **bitwise identical** to a sequential
//! `run_trace` replay before the averages are reported.
//!
//! Writes `BENCH_swf_replay.json` (see `hws_bench::baseline`;
//! decision-latency measurement is disabled so the recorded baseline is
//! deterministic).
//!
//! ```text
//! cargo run --release -p hws-bench --bin swf_replay             # bundled fixture
//! HWS_SWF=theta.swf HWS_SWF_PPN=64 cargo run --release -p hws-bench --bin swf_replay
//! ```

use hws_bench::baseline::{Row, SWF_REPLAY};
use hws_bench::{bundled_swf_fixture, seeds_from_env, sweep_verified, TraceSource};
use hws_core::{Mechanism, SimConfig};
use hws_metrics::{Metrics, MetricsAvg, Table};
use hws_workload::SwfImportConfig;

fn main() {
    let seeds = seeds_from_env();
    let source = TraceSource::swf_from_env()
        .unwrap_or_else(|| TraceSource::swf(bundled_swf_fixture(), SwfImportConfig::default()));
    let probe = source.make_trace(0);
    eprintln!(
        "swf_replay: {}, {} jobs on {} nodes, {} seeds x 6 mechanisms (parallel + sequential verification)",
        source.describe(),
        probe.len(),
        probe.system_size,
        seeds
    );

    let seed_list: Vec<u64> = (0..seeds).collect();
    let mut rows: Vec<(Mechanism, Metrics)> = Vec::new();
    for m in Mechanism::ALL_SIX {
        let cfg = SimConfig::with_mechanism(m);
        let sweep = sweep_verified(&cfg, &seed_list, |s| source.make_trace(s));
        let mut avg = MetricsAvg::new();
        for outcome in &sweep.outcomes {
            avg.push(&outcome.metrics);
        }
        rows.push((m, avg.mean()));
        eprintln!("  {:<8} verified {} seeds bitwise", m.name(), seeds);
    }

    let mut t = Table::new(vec![
        "mechanism",
        "TAT (h)",
        "rigid TAT (h)",
        "OD TAT (h)",
        "util %",
        "instant %",
        "preempt r/m %",
    ]);
    for (m, x) in &rows {
        t.row(vec![
            m.name().to_string(),
            format!("{:.1}", x.avg_turnaround_h),
            format!("{:.1}", x.rigid.avg_turnaround_h),
            format!("{:.2}", x.on_demand.avg_turnaround_h),
            format!("{:.1}", x.utilization * 100.0),
            format!("{:.1}", x.instant_start_rate * 100.0),
            format!(
                "{:.1}/{:.1}",
                x.rigid.preemption_ratio * 100.0,
                x.malleable.preemption_ratio * 100.0
            ),
        ]);
    }
    println!("SWF REPLAY: six mechanisms on {}", source.describe());
    println!("{}", t.render());

    let label = source.label();
    let json_rows: Vec<Row> = rows
        .iter()
        .map(|(m, x)| {
            Row::new()
                .col("mechanism", m.name())
                .col("source", label.as_str())
                .col("jobs", probe.len())
                .col("seeds", seeds)
                .col("avg_turnaround_h", x.avg_turnaround_h)
                .col("rigid_turnaround_h", x.rigid.avg_turnaround_h)
                .col("on_demand_turnaround_h", x.on_demand.avg_turnaround_h)
                .col("malleable_turnaround_h", x.malleable.avg_turnaround_h)
                .col("utilization", x.utilization)
                .col("instant_start_rate", x.instant_start_rate)
                .col("rigid_preemption_ratio", x.rigid.preemption_ratio)
                .col("malleable_preemption_ratio", x.malleable.preemption_ratio)
                .col("completed_jobs", x.completed_jobs as f64)
        })
        .collect();
    SWF_REPLAY.write(&json_rows);
}
