//! A micro-scenario reproducing the paper's **Figure 2**: the difference
//! between CUA (passively collect released nodes) and CUP (plan ahead for
//! the predicted arrival, preempting a rigid job right after a checkpoint).
//!
//! Setup (mirroring the figure):
//! * `J1` finishes before the on-demand job's predicted arrival — both
//!   mechanisms collect its nodes for free.
//! * `J2` runs long past the prediction. CUA leaves it alone and must
//!   preempt at arrival (losing work since the last checkpoint); CUP
//!   preempts it right after a checkpoint completes, so the loss is
//!   bounded by one checkpoint interval.
//!
//! ```text
//! cargo run --release --example cua_vs_cup
//! ```

use hybrid_workload_sched::hws_core::Timeline;
use hybrid_workload_sched::hws_workload::MaterializedSource;
use hybrid_workload_sched::prelude::*;

fn build() -> Trace {
    let t = SimTime::from_secs;
    let d = SimDuration::from_secs;
    let jobs = vec![
        // J1: 40 nodes, done by t=2000 (before the predicted arrival 6000).
        JobSpecBuilder::rigid(0)
            .project(1)
            .submit_at(t(0))
            .size(40)
            .work(d(2_000))
            .estimate(d(2_000))
            .build(),
        // J2: 60 nodes, runs "forever" (far past the prediction).
        JobSpecBuilder::rigid(1)
            .project(1)
            .submit_at(t(0))
            .size(60)
            .work(d(40_000))
            .estimate(d(42_000))
            .setup(d(200))
            .build(),
        // The on-demand job: needs 80 nodes, notice at 4500, predicted 6000.
        JobSpecBuilder::on_demand(2)
            .project(2)
            .submit_at(t(6_000))
            .size(80)
            .work(d(1_000))
            .estimate(d(1_800))
            .notice(t(4_500), t(6_000))
            .build(),
    ];
    Trace::new(100, SimDuration::from_days(1), jobs)
}

fn main() {
    let trace = build();
    // Checkpoint roughly every ~35 min so J2 has boundaries to exploit.
    let mut base = SimConfig::with_mechanism(Mechanism::CUA_PAA);
    base.ckpt.node_mtbf_hours = 12.0;
    base.backfill_on_reserved = false; // keep the timeline easy to read

    println!("Fig. 2 scenario: J1 (40 nodes) ends at t=2000; J2 (60 nodes) runs long;");
    println!("on-demand job (80 nodes) announced at t=4500, predicted & actual arrival t=6000");
    println!(
        "J2 checkpoints every {} (+{} cost)\n",
        base.ckpt.interval(60).unwrap(),
        base.ckpt.cost(60)
    );

    let mut table = Table::new(vec![
        "mechanism",
        "od start delay (s)",
        "J2 preempted",
        "wasted node-s",
        "util %",
    ]);
    for m in [Mechanism::CUA_PAA, Mechanism::CUP_PAA] {
        let mut cfg = base.clone();
        cfg.mechanism = m;
        let (out, tl) =
            Simulator::run_observed(&cfg, MaterializedSource::new(&trace), Timeline::new());
        println!("--- {} schedule ---", m.name());
        println!("{}", tl.render_gantt(100));
        let met = &out.metrics;
        let wasted = (met.raw_occupancy - met.utilization) * met.span_hours * 3_600.0 * 100.0;
        table.row(vec![
            m.name().to_string(),
            format!("{:.0}", met.on_demand.avg_turnaround_h * 3_600.0 - 1_000.0),
            if met.rigid.preemption_ratio > 0.4 {
                "yes"
            } else {
                "no"
            }
            .to_string(),
            format!("{wasted:.0}"),
            format!("{:.1}", met.utilization * 100.0),
        ]);
    }
    println!("{}", table.render());
    println!("both serve the on-demand job instantly; CUP wastes fewer cycles because J2");
    println!("was stopped right after a checkpoint instead of mid-interval at arrival.");
}
