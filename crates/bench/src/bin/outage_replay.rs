//! **Outage replay** — the bundled `theta_quick.swf` fixture replayed
//! under a deterministic maintenance-window [`OutageSchedule`] for all six
//! mechanisms (ROADMAP: capacity-fault robustness).
//!
//! The schedule is derived from the trace's own shape: a **hard** window
//! takes the first eighth of the machine down at the quarter mark of the
//! submission horizon (evicting residents into checkpoint-restart), and a
//! **graceful** window drains the next eighth at the half mark; both
//! windows rejoin in full. Every job therefore stays feasible, and the
//! binary asserts none is lost: completed + estimate-kills must equal the
//! trace, and the infeasibility sweep must kill nothing.
//!
//! Writes `BENCH_outages.json` (see `hws_bench::baseline`). Every
//! recorded column is a deterministic simulation output — lost
//! node-hours, interruption and recovery counts, recovery latency — so
//! `baseline_parity` gates all of them. `HWS_PARANOID=1` additionally runs
//! the O(n)-scan cluster cross-validation plus the outage-specific
//! live-capacity invariants on every event (the CI smoke does).
//!
//! ```text
//! cargo run --release -p hws-bench --bin outage_replay               # bundled fixture
//! HWS_SWF=theta.swf HWS_SWF_PPN=64 cargo run --release -p hws-bench --bin outage_replay
//! ```

use hws_bench::baseline::{Row, OUTAGES};
use hws_bench::{
    bundled_swf_fixture, metrics_fingerprint, paranoid_from_env, seeds_from_env, TraceSource,
};
use hws_core::{Mechanism, SimConfig, SimOutcome, Simulator};
use hws_metrics::{OutageReport, Table};
use hws_sim::SimTime;
use hws_workload::{MaintenanceWindow, OutageSchedule, SwfImportConfig, Trace};

fn main() {
    let seeds = seeds_from_env();
    let paranoid = paranoid_from_env();
    let source = TraceSource::swf_from_env()
        .unwrap_or_else(|| TraceSource::swf(bundled_swf_fixture(), SwfImportConfig::default()));
    let probe = source.make_trace(0);
    let schedule = maintenance_schedule(&probe);
    eprintln!(
        "outage_replay: {}, {} jobs on {} nodes, {} seeds x 6 mechanisms, \
         {} schedule events (hard + graceful maintenance windows){}",
        source.describe(),
        probe.len(),
        probe.system_size,
        seeds,
        schedule.len(),
        if paranoid { ", paranoid checks on" } else { "" }
    );

    let mut rows: Vec<(Mechanism, u64, OutageReport, usize, usize)> = Vec::new();
    for m in Mechanism::ALL_SIX {
        let mut cfg = SimConfig::with_mechanism(m).with_outages(schedule.clone());
        cfg.paranoid_checks = paranoid;
        let mut outcomes: Vec<SimOutcome> = Vec::new();
        let mut agg = OutageReport::default();
        let (mut completed, mut killed) = (0usize, 0usize);
        for seed in 0..seeds {
            let trace = source.make_trace(seed);
            let out = Simulator::run_trace(&cfg, &trace);
            let rep = out.outages.expect("the schedule applied");
            // Full-rejoin windows keep every job feasible: nothing may be
            // swept, and nothing may vanish.
            assert_eq!(
                rep.infeasible_killed,
                0,
                "{} seed {seed}: full-rejoin windows swept a job as infeasible",
                m.name()
            );
            assert_eq!(
                out.metrics.completed_jobs + out.metrics.killed_jobs,
                trace.len(),
                "{} seed {seed}: a job was lost to the outage",
                m.name()
            );
            fold(&mut agg, &rep);
            completed += out.metrics.completed_jobs;
            killed += out.metrics.killed_jobs;
            outcomes.push(out);
        }
        let fp = metrics_fingerprint(&outcomes);
        eprintln!(
            "  {:<8} {} seeds: {} interrupted, {} shrunk, {} recovered, \
             {:.1} lost node-hours, fingerprint {fp:016x}",
            m.name(),
            seeds,
            agg.interrupted_jobs,
            agg.shrunk_jobs,
            agg.recoveries,
            agg.lost_node_seconds as f64 / 3600.0,
        );
        rows.push((m, fp, agg, completed, killed));
    }

    let mut t = Table::new(vec![
        "mechanism",
        "fingerprint",
        "lost node-h",
        "interrupted",
        "shrunk",
        "recovered",
        "mean recovery (s)",
        "degraded wall-h",
    ]);
    for (m, fp, rep, _, _) in &rows {
        t.row(vec![
            m.name().to_string(),
            format!("{fp:016x}"),
            format!("{:.1}", rep.lost_node_seconds as f64 / 3600.0),
            rep.interrupted_jobs.to_string(),
            rep.shrunk_jobs.to_string(),
            rep.recoveries.to_string(),
            format!("{:.1}", rep.mean_recovery_latency_secs()),
            format!("{:.1}", rep.degraded_wall_seconds as f64 / 3600.0),
        ]);
    }
    println!(
        "OUTAGE REPLAY: maintenance windows on {}",
        source.describe()
    );
    println!("{}", t.render());

    let label = source.label();
    let json_rows: Vec<Row> = rows
        .iter()
        .map(|(m, fp, rep, completed, killed)| {
            Row::new()
                .col("mechanism", m.name())
                .col("source", label.as_str())
                .col("jobs", probe.len())
                .col("seeds", seeds)
                .fingerprint("metrics_fingerprint", *fp)
                .col("events_applied", u64::from(rep.events_applied))
                .col("nodes_down", rep.nodes_down)
                .col("nodes_drained", rep.nodes_drained)
                .col("nodes_rejoined", rep.nodes_rejoined)
                .col("interrupted_jobs", rep.interrupted_jobs)
                .col("shrunk_jobs", rep.shrunk_jobs)
                .col("infeasible_killed", rep.infeasible_killed)
                .col("lost_node_hours", rep.lost_node_seconds as f64 / 3600.0)
                .col(
                    "degraded_wall_hours",
                    rep.degraded_wall_seconds as f64 / 3600.0,
                )
                .col("recoveries", rep.recoveries)
                .col("mean_recovery_latency_s", rep.mean_recovery_latency_secs())
                .col("completed_jobs", *completed)
                .col("killed_jobs", *killed)
        })
        .collect();
    OUTAGES.write(&json_rows);
}

/// Two full-rejoin maintenance windows scaled to the trace: a hard one
/// over nodes `[0, N/8)` for the second eighth of the horizon, and a
/// graceful one over `[N/8, N/4)` for the fifth eighth. Pure function of
/// the trace shape — identical across seeds of the same source.
fn maintenance_schedule(trace: &Trace) -> OutageSchedule {
    let n = trace.system_size;
    let h = trace.horizon.as_secs();
    let mut windows = Vec::new();
    for node in 0..n / 8 {
        windows.push(MaintenanceWindow {
            shard: 0,
            node: Some(node),
            start: SimTime::from_secs(h / 4),
            end: SimTime::from_secs(3 * h / 8),
            hard: true,
        });
    }
    for node in n / 8..n / 4 {
        windows.push(MaintenanceWindow {
            shard: 0,
            node: Some(node),
            start: SimTime::from_secs(h / 2),
            end: SimTime::from_secs(5 * h / 8),
            hard: false,
        });
    }
    OutageSchedule::maintenance_windows(&windows).expect("windows are well-formed")
}

fn fold(agg: &mut OutageReport, rep: &OutageReport) {
    agg.events_applied += rep.events_applied;
    agg.nodes_down += rep.nodes_down;
    agg.nodes_drained += rep.nodes_drained;
    agg.nodes_rejoined += rep.nodes_rejoined;
    agg.interrupted_jobs += rep.interrupted_jobs;
    agg.shrunk_jobs += rep.shrunk_jobs;
    agg.infeasible_killed += rep.infeasible_killed;
    agg.lost_node_seconds += rep.lost_node_seconds;
    agg.degraded_wall_seconds += rep.degraded_wall_seconds;
    agg.recoveries += rep.recoveries;
    agg.recovery_latency_seconds += rep.recovery_latency_seconds;
}
