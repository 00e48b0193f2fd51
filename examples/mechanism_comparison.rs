//! Compare all six mechanisms (plus the baseline) on the same workload —
//! a one-trace miniature of the paper's Figure 6.
//!
//! ```text
//! cargo run --release --example mechanism_comparison
//! ```

use hybrid_workload_sched::prelude::*;

fn main() {
    let trace = TraceConfig::small().generate(7);
    println!(
        "workload: {} jobs on {} nodes, W5 notice mix\n",
        trace.len(),
        trace.system_size
    );

    let mut table = Table::new(vec![
        "mechanism",
        "TAT (h)",
        "rigid TAT",
        "mall. TAT",
        "util %",
        "instant %",
        "preempt r/m %",
    ]);

    let baseline = Simulator::run_trace(&SimConfig::baseline(), &trace);
    push_row(&mut table, "FCFS/EASY", &baseline.metrics);
    for m in Mechanism::ALL_SIX {
        let out = Simulator::run_trace(&SimConfig::with_mechanism(m), &trace);
        push_row(&mut table, m.name(), &out.metrics);
    }
    println!("{}", table.render());
    println!("(single trace; Fig. 6 of `hws-bench --bin paper` averages ten — expect noise here)");
}

fn push_row(table: &mut Table, name: &str, m: &Metrics) {
    table.row(vec![
        name.to_string(),
        format!("{:.1}", m.avg_turnaround_h),
        format!("{:.1}", m.rigid.avg_turnaround_h),
        format!("{:.1}", m.malleable.avg_turnaround_h),
        format!("{:.1}", m.utilization * 100.0),
        format!("{:.1}", m.instant_start_rate * 100.0),
        format!(
            "{:.1}/{:.1}",
            m.rigid.preemption_ratio * 100.0,
            m.malleable.preemption_ratio * 100.0
        ),
    ]);
}
