//! **Capability/capacity co-scheduling** — the six mechanisms under the
//! capability-aware hooks composition, swept over the capability fraction
//! (ROADMAP: "capability/capacity co-scheduling", *More for Less*,
//! arXiv:2501.12464).
//!
//! Each cell replays a trace whose largest rigid jobs are tagged as
//! capability campaigns (`Trace::tag_capability` — the synthetic
//! generator's `capability_frac` knob and, for the bundled
//! `theta_quick.swf` fixture, the same deterministic injection applied
//! after import) under `CapabilityAware::for_mechanism(m)`: capability
//! jobs are never preemption victims, everything else behaves exactly
//! like the paper's mechanism.
//!
//! The `frac = 0` rows are the refactor-safety oracle: with **no**
//! capability jobs, the wrapped hooks must reproduce the plain mechanism
//! path **bitwise** — every per-seed metric and engine counter is
//! asserted equal, which is what keeps all committed `BENCH_*.json`
//! baselines byte-stable. Any divergence aborts non-zero (CI keys on it).
//!
//! Writes `BENCH_capability.json` (see `hws_bench::baseline`). Every
//! recorded column is deterministic, so the CI `baseline-parity` job gates
//! all of them. The committed baseline is recorded at `HWS_SCALE=quick`
//! with the default 10 seeds.
//!
//! ```text
//! HWS_SCALE=quick cargo run --release -p hws-bench --bin capability
//! ```

use hws_bench::baseline::{Row, CAPABILITY};
use hws_bench::{
    bundled_swf_fixture, metrics_fingerprint, seeds_from_env, sweep_verified, Scale, TraceSource,
};
use hws_core::{CapabilityAware, Mechanism, SimConfig, Simulator};
use hws_metrics::Table;
use hws_workload::{JobClass, SwfImportConfig, Trace};

/// Capability fractions swept per source (fractions of *rigid* jobs).
const FRACS: [f64; 3] = [0.0, 0.25, 0.5];

/// One (source × fraction × mechanism) cell: a verified sweep and — at
/// zero fraction — the bitwise plain-mechanism parity oracle. Adds the
/// cell's line to `table` and returns its baseline row.
fn run_cell(m: Mechanism, source: &str, traces: &[Trace], frac: f64, table: &mut Table) -> Row {
    let cfg = SimConfig::with_hooks(CapabilityAware::for_mechanism(m));
    let seeds: Vec<u64> = (0..traces.len() as u64).collect();
    let sequential = sweep_verified(&cfg, &seeds, |s| traces[s as usize].clone()).outcomes;

    if frac == 0.0 {
        // The key oracle: zero capability jobs ≡ the plain two-class
        // mechanism path, bitwise.
        let plain_cfg = SimConfig::with_mechanism(m);
        for (i, (tr, c)) in traces.iter().zip(&sequential).enumerate() {
            assert_eq!(tr.count_class(JobClass::Capability), 0);
            let plain = Simulator::run_trace(&plain_cfg, tr);
            assert_eq!(
                c.metrics,
                plain.metrics,
                "{} on {source} seed {i}: capability-aware hooks diverged from the plain path",
                m.name()
            );
            assert_eq!(
                c.engine,
                plain.engine,
                "{} on {source} seed {i}: engine stats diverged from the plain path",
                m.name()
            );
            assert!(c.classes.is_none() && plain.classes.is_none());
        }
    }

    // Seed 0's metrics and capability-side breakdown (deterministic).
    let x = &sequential[0].metrics;
    let classes0 = sequential[0].classes.unwrap_or_default();
    let (cap, capacity) = (classes0.capability, classes0.capacity);
    let fingerprint = metrics_fingerprint(&sequential);
    eprintln!(
        "  frac {frac:>4} {:<8} fp {fingerprint:016x}  done {:>5}  cap {:>3}/{:>3} preempted {:>2}{}",
        m.name(),
        x.completed_jobs,
        cap.completed,
        cap.jobs,
        cap.preempted_jobs,
        if frac == 0.0 {
            "  zero-capability == plain path OK"
        } else {
            ""
        }
    );
    table.row(vec![
        source.to_string(),
        format!("{frac}"),
        m.name().to_string(),
        format!("{:.1}", x.avg_turnaround_h),
        format!("{:.1}", x.utilization * 100.0),
        x.completed_jobs.to_string(),
        format!("{}/{}", cap.completed, cap.jobs),
        format!("{:.1}", cap.avg_turnaround_h),
        format!("{:.1}", capacity.avg_turnaround_h),
    ]);
    Row::new()
        .col("source", source)
        .col("capability_frac", frac)
        .col("mechanism", m.name())
        .col("seeds", seeds.len())
        .fingerprint("metrics_fingerprint", fingerprint)
        .col("avg_turnaround_h", x.avg_turnaround_h)
        .col("utilization", x.utilization)
        .col("completed_jobs", x.completed_jobs)
        .col("killed_jobs", x.killed_jobs)
        .col("cap_jobs", cap.jobs)
        .col("cap_completed", cap.completed)
        .col("cap_avg_turnaround_h", cap.avg_turnaround_h)
        .col("cap_preempted_jobs", cap.preempted_jobs)
        .col("capacity_avg_turnaround_h", capacity.avg_turnaround_h)
}

fn main() {
    let seeds = seeds_from_env();
    let synthetic = TraceSource::Synthetic(Scale::Quick.trace_config());
    let fixture = TraceSource::swf(bundled_swf_fixture(), SwfImportConfig::default());
    let sources: [(&'static str, TraceSource); 2] =
        [("synthetic", synthetic), ("theta_quick.swf", fixture)];

    let mut t = Table::new(vec![
        "source",
        "frac",
        "mechanism",
        "TAT (h)",
        "util %",
        "done",
        "cap done/jobs",
        "cap TAT (h)",
        "capacity TAT (h)",
    ]);
    let mut rows = Vec::new();
    for (label, source) in &sources {
        eprintln!("capability: {label} ({}), {seeds} seeds", source.describe());
        for &frac in &FRACS {
            // The same deterministic injection for both sources: largest
            // rigid jobs first, no RNG consumed (frac 0 is a no-op).
            let traces: Vec<Trace> = (0..seeds)
                .map(|s| {
                    let mut tr = source.make_trace(s);
                    tr.tag_capability(frac);
                    tr
                })
                .collect();
            for m in Mechanism::ALL_SIX {
                rows.push(run_cell(m, label, &traces, frac, &mut t));
            }
        }
    }
    println!(
        "CAPABILITY/CAPACITY CO-SCHEDULING ({seeds} seeds, frac-0 bitwise-verified vs plain path)"
    );
    println!("{}", t.render());
    CAPABILITY.write(&rows);
}
