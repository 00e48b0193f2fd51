//! **Replay matrix** — the six mechanisms over the synthetic trace (at
//! `HWS_SCALE`) and the bundled `theta_quick.swf` fixture, as three
//! tables from one set of per-seed traces:
//!
//! * **Throughput** (`BENCH_simulator_throughput.json`): end-to-end
//!   jobs/s and events/s of the plain `SimConfig::with_mechanism(m)`
//!   replay, sequential and parallel. Where the decision bench times the
//!   mechanism kernels in isolation, this times the whole event loop —
//!   queue ordering, shadow computation, node routing, cluster accounting
//!   — so hot-path regressions the kernels cannot see show up as a
//!   jobs/s drop.
//! * **Federated dispatch** (`BENCH_federated.json`): 1/2/4-shard even
//!   splits of the 4,392-node system under first-fit, plus `LeastLoaded`
//!   and `ClassAffinity` placement on the 4-shard split. Multi-shard rows
//!   exercise shard-local preemption/squatting, sticky placement,
//!   cross-shard transfer refusal, and rejection of jobs larger than the
//!   largest shard (the `killed_jobs` column: neither source kills jobs
//!   any other way at quick scale).
//! * **Capability/capacity co-scheduling** (`BENCH_capability.json`,
//!   *More for Less*, arXiv:2501.12464): each base trace with its largest
//!   rigid jobs tagged as capability campaigns (`Trace::tag_capability`,
//!   no RNG consumed) at each of [`FRACS`], replayed under
//!   `CapabilityAware::for_mechanism(m)`, whose capability jobs are never
//!   preemption victims.
//!
//! **One reference, three oracles.** Each (source × mechanism) replays
//! the plain config once, through `hws_bench::sweep_verified`, which also
//! asserts the parallel sweep against the sequential replay. That sweep
//! is the throughput row and the bitwise reference for:
//!
//! * the paranoid run of seed 0, which cross-validates the cluster's
//!   incremental counters and squatter index against a full node scan
//!   after every event;
//! * every 1-shard federation seed: one shard ≡ the single cluster;
//! * every frac-0 capability seed: no capability jobs ≡ the plain
//!   two-class path, which keeps every other baseline byte-stable.
//!
//! Every check compares metrics *and* engine counters through
//! `hws_bench::assert_same_run`; any divergence aborts with a non-zero
//! exit, which is what CI keys on.
//!
//! The committed baselines are recorded at `HWS_SCALE=quick` with the
//! default 10 seeds (see `hws_bench::baseline`).
//!
//! ```text
//! HWS_SCALE=quick cargo run --release -p hws-bench --bin replay_matrix
//! ```

use hws_bench::baseline::{Row, CAPABILITY, FEDERATED, THROUGHPUT};
use hws_bench::{
    assert_same_run, bundled_swf_fixture, metrics_fingerprint, seeds_from_env, sweep_verified,
    Scale, TraceSource,
};
use hws_cluster::{ClassAffinity, FederationConfig, LeastLoaded, PlacementPolicy};
use hws_core::{CapabilityAware, Mechanism, SimConfig, SimOutcome, Simulator};
use hws_metrics::Table;
use hws_workload::{JobClass, SwfImportConfig, Trace};
use std::sync::Arc;

/// Nodes split across the federation shards.
const SYSTEM: u32 = 4_392;

/// Capability fractions swept per source (fractions of *rigid* jobs).
const FRACS: [f64; 3] = [0.0, 0.25, 0.5];

/// Assert every seed's outcome in `got` bitwise equal to `plain`'s.
fn assert_all_same(got: &[SimOutcome], plain: &[SimOutcome], what: &str) {
    assert_eq!(got.len(), plain.len(), "{what}: seed count");
    for (seed, (g, p)) in got.iter().zip(plain).enumerate() {
        assert_same_run(g, p, &format!("{what}, seed {seed}"));
    }
}

/// The plain replay of one (source × mechanism): a verified sweep timed
/// in its parallel and sequential phases, checked against a paranoid run
/// of seed 0. Adds the cell's line to `table` and returns its throughput
/// row and the per-seed outcomes, the reference of every other oracle.
fn run_plain(
    m: Mechanism,
    source: &str,
    traces: &[Trace],
    table: &mut Table,
) -> (Row, Vec<SimOutcome>) {
    let cfg = SimConfig::with_mechanism(m);
    // The parallel window includes one trace clone per seed; the
    // sequential one times `run_trace` alone.
    let seeds: Vec<u64> = (0..traces.len() as u64).collect();
    let sweep = sweep_verified(&cfg, &seeds, |s| traces[s as usize].clone());
    let outcomes = sweep.outcomes;

    let paranoid = Simulator::run_trace(&cfg.clone().paranoid(), &traces[0]);
    let what = format!("{} on {source}: paranoid run vs hot path", m.name());
    assert_same_run(&paranoid, &outcomes[0], &what);

    let jobs: usize = traces.iter().map(|t| t.len()).sum();
    let events: u64 = outcomes.iter().map(|o| o.engine.delivered).sum();
    let seq_jobs_per_sec = jobs as f64 / sweep.seq_s;
    let par_jobs_per_sec = jobs as f64 / sweep.par_s;
    let events_per_sec = events as f64 / sweep.seq_s;
    let fingerprint = metrics_fingerprint(&outcomes);
    eprintln!(
        "  {:<8} seq {seq_jobs_per_sec:>9.1} jobs/s  par {par_jobs_per_sec:>9.1} jobs/s  \
         ({events_per_sec:.0} events/s)  parity OK",
        m.name()
    );
    let x = &outcomes[0].metrics;
    table.row(vec![
        source.to_string(),
        m.name().to_string(),
        format!("{seq_jobs_per_sec:.1}"),
        format!("{par_jobs_per_sec:.1}"),
        format!("{events_per_sec:.0}"),
        format!("{fingerprint:016x}"),
    ]);
    let row = Row::new()
        .col("source", source)
        .col("mechanism", m.name())
        .col("jobs", jobs)
        .col("seeds", seeds.len())
        .col("seq_wall_s", sweep.seq_s)
        .col("par_wall_s", sweep.par_s)
        .col("seq_jobs_per_sec", seq_jobs_per_sec)
        .col("par_jobs_per_sec", par_jobs_per_sec)
        .col("events_per_sec", events_per_sec)
        .fingerprint("metrics_fingerprint", fingerprint)
        .col("avg_turnaround_h", x.avg_turnaround_h)
        .col("utilization", x.utilization);
    (row, outcomes)
}

/// One (source × federation × mechanism) cell; a 1-shard federation must
/// reproduce `plain` bitwise. Adds the cell's line to `table` and returns
/// its baseline row.
fn run_federated(
    m: Mechanism,
    source: &str,
    traces: &[Trace],
    fed: &FederationConfig,
    plain: &[SimOutcome],
    table: &mut Table,
) -> Row {
    let cfg = SimConfig::with_mechanism(m).federated(fed.clone());
    let seeds: Vec<u64> = (0..traces.len() as u64).collect();
    let outcomes = sweep_verified(&cfg, &seeds, |s| traces[s as usize].clone()).outcomes;

    let shards = fed.shards.len();
    if shards == 1 {
        let what = format!("{} on {source}: 1-shard vs single cluster", m.name());
        assert_all_same(&outcomes, plain, &what);
        assert!(plain.iter().all(|p| p.shards.is_none()));
    }

    // Seed 0's shard breakdown (deterministic): job starts per shard and
    // each shard's occupancy share of its capacity over the run span.
    let x = &outcomes[0].metrics;
    let shards0 = outcomes[0].shards.as_ref().expect("federated run");
    let span_secs = (x.span_hours * 3_600.0).round() as u64;
    let starts: Vec<u64> = shards0.iter().map(|s| s.jobs_started).collect();
    let policy = fed.policy.name();
    let fingerprint = metrics_fingerprint(&outcomes);
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

/// One (source × fraction × mechanism) cell; at zero fraction the
/// capability-aware hooks must reproduce `plain` bitwise. Adds the cell's
/// line to `table` and returns its baseline row.
fn run_capability(
    m: Mechanism,
    source: &str,
    traces: &[Trace],
    frac: f64,
    plain: &[SimOutcome],
    table: &mut Table,
) -> Row {
    let cfg = SimConfig::with_hooks(CapabilityAware::for_mechanism(m));
    let seeds: Vec<u64> = (0..traces.len() as u64).collect();
    let outcomes = sweep_verified(&cfg, &seeds, |s| traces[s as usize].clone()).outcomes;

    if frac == 0.0 {
        assert!(traces
            .iter()
            .all(|t| t.count_class(JobClass::Capability) == 0));
        let what = format!(
            "{} on {source}: capability-aware hooks vs plain path",
            m.name()
        );
        assert_all_same(&outcomes, plain, &what);
        assert!(outcomes.iter().chain(plain).all(|o| o.classes.is_none()));
    }

    // Seed 0's metrics and capability-side breakdown (deterministic).
    let x = &outcomes[0].metrics;
    let classes0 = outcomes[0].classes.unwrap_or_default();
    let (cap, capacity) = (classes0.capability, classes0.capacity);
    let fingerprint = metrics_fingerprint(&outcomes);
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

/// 1/2/4-shard even splits under first-fit, plus the alternative
/// placement policies on the widest split.
fn federations() -> Vec<FederationConfig> {
    let mut federations: Vec<FederationConfig> = [1, 2, 4]
        .into_iter()
        .map(|n| FederationConfig::even_split(n, SYSTEM))
        .collect();
    for policy in [
        Arc::new(LeastLoaded) as Arc<dyn PlacementPolicy>,
        Arc::new(ClassAffinity) as Arc<dyn PlacementPolicy>,
    ] {
        let mut f = FederationConfig::even_split(4, SYSTEM);
        f.policy = policy;
        federations.push(f);
    }
    federations
}

fn main() {
    let seeds = seeds_from_env();
    let scale = Scale::from_env();
    let synthetic = TraceSource::Synthetic(scale.trace_config());
    let fixture = TraceSource::swf(bundled_swf_fixture(), SwfImportConfig::default());
    let sources: [(&'static str, TraceSource); 2] =
        [("synthetic", synthetic), ("theta_quick.swf", fixture)];
    let federations = federations();

    let mut throughput = Table::new(vec![
        "source",
        "mechanism",
        "seq jobs/s",
        "par jobs/s",
        "events/s",
        "fingerprint",
    ]);
    let mut federated = Table::new(vec![
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
    let mut capability = Table::new(vec![
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
    let (mut throughput_rows, mut federated_rows, mut capability_rows) = (vec![], vec![], vec![]);
    for (label, source) in &sources {
        // Pre-build the per-seed traces so the measured window is pure
        // simulation, not trace generation / SWF import.
        let traces: Vec<Trace> = (0..seeds).map(|s| source.make_trace(s)).collect();
        eprintln!(
            "replay_matrix: {label} ({}), {} jobs x {seeds} seeds",
            source.describe(),
            traces[0].len()
        );
        let mut plain = Vec::new();
        for m in Mechanism::ALL_SIX {
            let (row, outcomes) = run_plain(m, label, &traces, &mut throughput);
            throughput_rows.push(row);
            plain.push(outcomes);
        }
        for fed in &federations {
            for (m, reference) in Mechanism::ALL_SIX.into_iter().zip(&plain) {
                let row = run_federated(m, label, &traces, fed, reference, &mut federated);
                federated_rows.push(row);
            }
        }
        for frac in FRACS {
            let tagged: Vec<Trace> = traces
                .iter()
                .map(|t| {
                    let mut t = t.clone();
                    t.tag_capability(frac);
                    t
                })
                .collect();
            for (m, reference) in Mechanism::ALL_SIX.into_iter().zip(&plain) {
                let row = run_capability(m, label, &tagged, frac, reference, &mut capability);
                capability_rows.push(row);
            }
        }
    }
    println!("SIMULATOR THROUGHPUT (scale {scale:?}, {seeds} seeds, parity-checked)");
    println!("{}", throughput.render());
    println!("FEDERATED DISPATCH ({seeds} seeds, 1-shard bitwise-verified vs single cluster)");
    println!("{}", federated.render());
    println!(
        "CAPABILITY/CAPACITY CO-SCHEDULING ({seeds} seeds, frac-0 bitwise-verified vs plain path)"
    );
    println!("{}", capability.render());
    THROUGHPUT.write(&throughput_rows);
    FEDERATED.write(&federated_rows);
    CAPABILITY.write(&capability_rows);
}
