//! Quickstart: generate a scaled-down Theta-like workload, schedule it with
//! one hybrid mechanism, and read the paper's four metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hybrid_workload_sched::prelude::*;

fn main() {
    // 1. A synthetic workload: 512 nodes, one month, bursty on-demand
    //    projects (deterministic in the seed).
    let trace = TraceConfig::small().generate(42);
    println!(
        "workload: {} jobs on {} nodes ({} rigid / {} on-demand / {} malleable)",
        trace.len(),
        trace.system_size,
        trace.count_kind(JobKind::Rigid),
        trace.count_kind(JobKind::OnDemand),
        trace.count_kind(JobKind::Malleable),
    );

    // 2. Schedule with CUA&SPAA: collect nodes from finishing jobs once an
    //    on-demand notice lands; shrink malleable jobs at arrival if the
    //    collection fell short.
    let cfg = SimConfig::with_mechanism(Mechanism::CUA_SPAA);
    let outcome = Simulator::run_trace(&cfg, &trace);
    let m = &outcome.metrics;

    println!("\nmechanism: {}", outcome.mechanism);
    println!("  avg turnaround        {:>7.1} h", m.avg_turnaround_h);
    println!(
        "    rigid / od / mall.  {:>6.1} / {:.1} / {:.1} h",
        m.rigid.avg_turnaround_h, m.on_demand.avg_turnaround_h, m.malleable.avg_turnaround_h
    );
    println!("  system utilization    {:>7.1} %", m.utilization * 100.0);
    println!(
        "  od instant-start rate {:>7.1} %",
        m.instant_start_rate * 100.0
    );
    println!(
        "  preemption ratio      {:>7.1} % rigid, {:.1} % malleable",
        m.rigid.preemption_ratio * 100.0,
        m.malleable.preemption_ratio * 100.0
    );

    // 3. Compare with the plain FCFS/EASY baseline (Table II).
    let base = Simulator::run_trace(&SimConfig::baseline(), &trace);
    println!("\nbaseline FCFS/EASY: {}", base.metrics.one_line());
    println!("hybrid  {}: {}", outcome.mechanism, m.one_line());
}
