//! # hws-bench — experiment harness
//!
//! The `paper` binary reproduces every table and figure of the paper and
//! checks its observations; the other binaries under `src/bin/` replay
//! the extensions. Shared plumbing: the [`TraceSource`] abstraction
//! (synthetic generator or SWF replay), multi-seed parallel execution,
//! result aggregation, the one [`baseline`] row format, and the
//! [`DecisionTimer`] behind `paper`'s Observation 10 (decision latency)
//! line. The Criterion benches under `benches/` cover per-decision kernels
//! and simulator/backfill throughput.
//!
//! Scale knobs (environment variables, so `cargo bench`/CI stay fast):
//!
//! * `HWS_SCALE=full` — run the full-year, 4,392-node Theta configuration
//!   (the paper's scale). Default is a calibrated 1/6-scale trace (2 months)
//!   that preserves system size, load, and burstiness.
//! * `HWS_SEEDS=n` — number of random traces per cell (paper: 10).
//! * `HWS_SWF=path` — replay a real SWF log instead of generating
//!   synthetic traces: `paper` then imports the log once per
//!   seed (the seed drives the §IV-A class/notice assignment, mirroring
//!   the paper's "ten randomly generated traces" protocol). `HWS_SWF_PPN`
//!   sets processors per node for logs that count processors.
//! * `HWS_BASELINE_DIR=dir` — where the baseline binaries write their
//!   `BENCH_*.json` (default: the workspace root; see [`baseline`]).
//! * `HWS_PARANOID=1` — `service_replay` and `outage_replay` run with the
//!   O(n)-scan cross-validating cluster accounting.
//!
//! A malformed `HWS_SCALE`, `HWS_SEEDS` or `HWS_SWF_PPN` exits with a
//! message naming the variable and its accepted values.

pub mod archive;
pub mod baseline;
pub mod decision_timer;

pub use archive::{
    archive_dir, archive_path, ensure_archive, peak_rss_bytes, reset_peak_rss, ArchiveProfile,
};
pub use decision_timer::{DecisionLatency, DecisionTimer};

use hws_core::{SimConfig, SimOutcome, Simulator};
use hws_metrics::{Metrics, MetricsAvg};
use hws_search::fnv1a;
use hws_sim::SimDuration;
use hws_workload::{import_swf_reader, NoticeMix, SwfImportConfig, Trace, TraceConfig};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Experiment scale selected via `HWS_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full paper scale: one year of Theta (37,298 jobs).
    Full,
    /// Default: two months at the same offered load (≈6,200 jobs).
    Standard,
    /// Quick smoke scale for CI (two weeks).
    Quick,
}

impl Scale {
    const ALL: [Scale; 3] = [Scale::Quick, Scale::Standard, Scale::Full];

    /// The `HWS_SCALE` spelling of this scale.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Standard => "standard",
            Scale::Quick => "quick",
        }
    }

    /// Parse an `HWS_SCALE` value.
    fn parse(s: &str) -> Option<Scale> {
        Scale::ALL.into_iter().find(|scale| scale.name() == s)
    }

    /// `HWS_SCALE`, defaulting to [`Scale::Standard`] when unset; exits on
    /// any other spelling.
    pub fn from_env() -> Scale {
        env_knob("HWS_SCALE", Scale::parse, "quick, standard or full").unwrap_or(Scale::Standard)
    }

    /// The Theta-shaped trace configuration at this scale.
    pub fn trace_config(self) -> TraceConfig {
        let base = TraceConfig::theta_2019();
        match self {
            Scale::Full => base,
            Scale::Standard => TraceConfig {
                horizon: SimDuration::from_days(61),
                target_jobs: 37_298 * 61 / 365,
                n_projects: 120,
                ..base
            },
            Scale::Quick => TraceConfig {
                horizon: SimDuration::from_days(14),
                target_jobs: 37_298 * 14 / 365,
                n_projects: 60,
                ..base
            },
        }
    }
}

/// Seeds per experiment cell (`HWS_SEEDS`, default 10 — "we repeat the same
/// experiment on ten randomly generated traces").
pub fn seeds_from_env() -> u64 {
    seeds_from_env_or(10)
}

/// `HWS_SEEDS` with a caller-chosen default, for binaries whose natural
/// seed count differs from the paper's 10 (the million-job archive replay
/// records 2). Exits unless the value is a positive integer.
pub fn seeds_from_env_or(default: u64) -> u64 {
    env_knob("HWS_SEEDS", parse_positive::<u64>, "a positive integer").unwrap_or(default)
}

/// Parse a positive integer knob (`HWS_SEEDS`, `HWS_SWF_PPN`).
fn parse_positive<T: std::str::FromStr + PartialOrd + From<u8>>(s: &str) -> Option<T> {
    s.parse().ok().filter(|n| *n > T::from(0))
}

/// `HWS_PARANOID=1`: run with the O(n)-scan cross-validating cluster
/// accounting.
pub fn paranoid_from_env() -> bool {
    std::env::var("HWS_PARANOID").is_ok_and(|v| v == "1")
}

/// Environment variable `name` through `parse`: `None` when unset or
/// empty; exits with a message naming `name` and `accepted` when the value
/// does not parse.
fn env_knob<T>(name: &str, parse: impl Fn(&str) -> Option<T>, accepted: &str) -> Option<T> {
    let raw = std::env::var_os(name).filter(|v| !v.is_empty())?;
    let value = raw.to_string_lossy();
    let parsed = parse(&value);
    if parsed.is_none() {
        eprintln!("{name}={value:?} is not valid: expected {accepted}");
        std::process::exit(2);
    }
    parsed
}

/// The workspace root, where the committed `BENCH_*.json` baselines live.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Where a figure binary gets its per-seed traces from: the calibrated
/// synthetic generator, or a real SWF archive log replayed through the
/// paper's §IV-A class-assignment protocol. Either way `make_trace(seed)`
/// is a pure function of the seed, so [`Simulator::run_sweep_with`] keeps
/// its bitwise-deterministic per-seed guarantee.
#[derive(Debug, Clone)]
pub enum TraceSource {
    /// Generate a synthetic Theta-shaped trace per seed.
    Synthetic(TraceConfig),
    /// Stream-import an SWF file per seed; the seed overrides
    /// `cfg.seed`, varying the class/notice assignment across seeds.
    SwfFile { path: PathBuf, cfg: SwfImportConfig },
}

impl TraceSource {
    /// The `HWS_SWF`/`HWS_SWF_PPN` environment selection, when set. The
    /// single parser for those variables — every binary that honors them
    /// goes through here so they can never drift apart.
    pub fn swf_from_env() -> Option<TraceSource> {
        let path = std::env::var("HWS_SWF").ok().filter(|p| !p.is_empty())?;
        let ppn = env_knob("HWS_SWF_PPN", parse_positive::<u32>, "a positive integer").unwrap_or(1);
        Some(TraceSource::swf(
            path,
            SwfImportConfig {
                procs_per_node: ppn,
                ..SwfImportConfig::default()
            },
        ))
    }

    /// `HWS_SWF=path` selects SWF replay (with `HWS_SWF_PPN` processors
    /// per node); otherwise fall back to the synthetic `fallback` config.
    pub fn from_env_or(fallback: TraceConfig) -> TraceSource {
        Self::swf_from_env().unwrap_or(TraceSource::Synthetic(fallback))
    }

    /// The standard source of a figure binary: `HWS_SWF` replay when set,
    /// else the synthetic config at `scale`.
    pub fn from_env(scale: Scale) -> TraceSource {
        Self::from_env_or(scale.trace_config())
    }

    /// SWF replay of `path` with explicit import options.
    pub fn swf(path: impl Into<PathBuf>, cfg: SwfImportConfig) -> TraceSource {
        TraceSource::SwfFile {
            path: path.into(),
            cfg,
        }
    }

    /// Override the advance-notice accuracy mix (Table III workloads) in
    /// whichever configuration this source carries.
    pub fn with_notice_mix(mut self, mix: NoticeMix) -> TraceSource {
        match &mut self {
            TraceSource::Synthetic(cfg) => cfg.notice_mix = mix,
            TraceSource::SwfFile { cfg, .. } => cfg.notice_mix = mix,
        }
        self
    }

    /// Produce the trace for one seed. SWF files are re-streamed from disk
    /// per seed (a million-line log never has to fit in memory); panics on
    /// IO/parse errors, as the figure binaries have no fallback anyway.
    pub fn make_trace(&self, seed: u64) -> Trace {
        match self {
            TraceSource::Synthetic(cfg) => cfg.generate(seed),
            TraceSource::SwfFile { path, cfg } => {
                let file = std::fs::File::open(path)
                    .unwrap_or_else(|e| panic!("open {}: {e}", path.display()));
                let cfg = SwfImportConfig {
                    seed,
                    ..cfg.clone()
                };
                import_swf_reader(std::io::BufReader::new(file), &cfg)
                    .unwrap_or_else(|e| panic!("import {}: {e}", path.display()))
            }
        }
    }

    /// Doubling size buckets for Fig. 3-style histograms: derived from the
    /// synthetic config, or from the imported trace's smallest job.
    pub fn size_buckets(&self, trace: &Trace) -> Vec<(u32, u32)> {
        match self {
            TraceSource::Synthetic(cfg) => cfg.size_buckets(),
            TraceSource::SwfFile { .. } => {
                let min = trace.jobs.iter().map(|j| j.size).min().unwrap_or(1).max(1);
                let mut buckets = Vec::new();
                let mut lo = min;
                while buckets.len() < 4 && lo * 2 < trace.system_size {
                    buckets.push((lo, lo * 2));
                    lo *= 2;
                }
                buckets.push((lo, trace.system_size + 1));
                buckets
            }
        }
    }

    /// One-line description for the binaries' stderr banners.
    pub fn describe(&self) -> String {
        match self {
            TraceSource::Synthetic(cfg) => format!(
                "synthetic ({} jobs over {} days)",
                cfg.target_jobs,
                cfg.horizon.as_secs() / 86_400
            ),
            TraceSource::SwfFile { path, .. } => format!("SWF replay of {}", path.display()),
        }
    }

    /// The `source` column of a baseline row: the SWF file name (not its
    /// path, so the baseline is machine-independent), else
    /// [`TraceSource::describe`].
    pub fn label(&self) -> String {
        match self {
            TraceSource::SwfFile { path, .. } => path.file_name().map_or_else(
                || self.describe(),
                |name| name.to_string_lossy().into_owned(),
            ),
            TraceSource::Synthetic(_) => self.describe(),
        }
    }
}

/// A [`sweep_verified`] result: the per-seed outcomes, the wall time of
/// the parallel sweep, and the summed wall time of the sequential
/// `run_trace` calls that verified it (trace building excluded).
pub struct VerifiedSweep {
    pub outcomes: Vec<SimOutcome>,
    pub par_s: f64,
    pub seq_s: f64,
}

/// Replay `seeds` sequentially, then sweep them in parallel with
/// [`Simulator::run_sweep_with`], and assert each seed's metrics and
/// engine counters bitwise equal between the two.
pub fn sweep_verified<F>(cfg: &SimConfig, seeds: &[u64], factory: F) -> VerifiedSweep
where
    F: Fn(u64) -> Trace + Sync,
{
    let mut seq_s = 0.0;
    let sequential: Vec<SimOutcome> = seeds
        .iter()
        .map(|&seed| {
            let trace = factory(seed);
            let t = Instant::now();
            let outcome = Simulator::run_trace(cfg, &trace);
            seq_s += t.elapsed().as_secs_f64();
            outcome
        })
        .collect();
    let t = Instant::now();
    let outcomes = Simulator::run_sweep_with(cfg, seeds, &factory);
    let par_s = t.elapsed().as_secs_f64();
    for ((swept, sequential), seed) in outcomes.iter().zip(&sequential).zip(seeds) {
        assert_same_run(
            swept,
            sequential,
            &format!(
                "{} seed {seed}: parallel sweep vs sequential replay",
                cfg.mechanism.name()
            ),
        );
    }
    VerifiedSweep {
        outcomes,
        par_s,
        seq_s,
    }
}

/// Assert that `got` reproduces `want` bitwise: every metric and every
/// engine counter. The one comparison behind every replay oracle
/// (`sweep_verified`'s parallel-vs-sequential check and `replay_matrix`'s
/// paranoid, 1-shard and zero-capability checks); `what` names the pair
/// in the panic message.
pub fn assert_same_run(got: &SimOutcome, want: &SimOutcome, what: &str) {
    assert_eq!(got.metrics, want.metrics, "{what}: metrics diverged");
    assert_eq!(got.engine, want.engine, "{what}: engine stats diverged");
}

/// One averaged experiment cell: a configuration over the paper's
/// "ten randomly generated traces".
#[derive(Debug, Clone)]
pub struct Averaged {
    /// The per-seed metrics, averaged.
    pub metrics: Metrics,
    /// [`metrics_fingerprint`] of the per-seed outcomes.
    pub fingerprint: u64,
}

/// Seeds `0..seeds` of `source`, built in parallel: one workload's
/// traces, built once for every configuration that runs on them.
pub fn make_traces(source: &TraceSource, seeds: u64) -> Vec<Trace> {
    assert!(seeds > 0);
    hws_sim::par_map(seeds as usize, |i| source.make_trace(i as u64))
}

/// Run `cfg` over `traces` in parallel and average the metrics (the
/// paper's averaging protocol). [`hws_sim::par_map`] fans the traces
/// across CPU cores while keeping every per-seed result bitwise identical
/// to a sequential run.
pub fn run_averaged(sim_cfg: &SimConfig, traces: &[Trace]) -> Averaged {
    let outcomes = hws_sim::par_map(traces.len(), |i| Simulator::run_trace(sim_cfg, &traces[i]));
    let mut avg = MetricsAvg::new();
    for outcome in &outcomes {
        avg.push(&outcome.metrics);
    }
    Averaged {
        metrics: avg.mean(),
        fingerprint: metrics_fingerprint(&outcomes),
    }
}

/// FNV-1a over the `Debug` rendering of every per-seed metrics struct: an
/// exact behavioral fingerprint (f64 `Debug` is round-trip), stable across
/// runs and Rust versions. Committed inside the `BENCH_*.json` baselines
/// so any change to *any* metric bit shows up as a fingerprint drift in
/// the CI `baseline-parity` gate.
pub fn metrics_fingerprint(outcomes: &[SimOutcome]) -> u64 {
    let mut dbg = String::new();
    for o in outcomes {
        let _ = write!(dbg, "{:?}", o.metrics);
    }
    fnv1a(dbg.as_bytes())
}

/// The bundled SWF replay fixture: a plain-SWF export of the quick-scale
/// Theta-shaped trace at seed 42 (see `--bin make_swf_fixture`, which
/// regenerates it, and DESIGN.md §8 for provenance).
pub fn bundled_swf_fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("data/theta_quick.swf")
}

/// The generator settings behind [`bundled_swf_fixture`]; fixed so the
/// fixture is reproducible regardless of `HWS_SCALE`.
pub fn swf_fixture_trace_config() -> TraceConfig {
    Scale::Quick.trace_config()
}

/// Seed of the bundled fixture.
pub const SWF_FIXTURE_SEED: u64 = 42;

#[cfg(test)]
mod tests {
    use super::*;
    use hws_core::Mechanism;
    use hws_workload::JobKind;

    #[test]
    fn scale_from_env_defaults_to_standard() {
        // (Environment is not set in the test harness.)
        if std::env::var("HWS_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Standard);
        }
    }

    #[test]
    fn scale_parses_only_its_three_names() {
        for scale in Scale::ALL {
            assert_eq!(Scale::parse(scale.name()), Some(scale));
        }
        for bad in ["fulll", "Quick", "", " quick", "standard\n"] {
            assert_eq!(Scale::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn seeds_parse_as_positive_integers() {
        assert_eq!(parse_positive::<u64>("1"), Some(1));
        assert_eq!(parse_positive::<u64>("10"), Some(10));
        for bad in ["0", "two", "-1", "2.5", "", " 3"] {
            assert_eq!(parse_positive::<u64>(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn procs_per_node_parse_as_positive_integers() {
        assert_eq!(parse_positive::<u32>("64"), Some(64));
        for bad in ["64x", "0", "-64", "", "4294967296"] {
            assert_eq!(parse_positive::<u32>(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn swf_label_is_the_file_name() {
        let src = TraceSource::swf(bundled_swf_fixture(), SwfImportConfig::default());
        assert_eq!(src.label(), "theta_quick.swf");
        let syn = TraceSource::Synthetic(TraceConfig::tiny());
        assert_eq!(syn.label(), syn.describe());
    }

    #[test]
    fn scaled_configs_preserve_system_size() {
        for s in [Scale::Full, Scale::Standard, Scale::Quick] {
            let c = s.trace_config();
            assert_eq!(c.system_size, 4_392);
            assert!(c.target_jobs > 100);
        }
    }

    #[test]
    fn run_averaged_is_deterministic() {
        let source = TraceSource::Synthetic(TraceConfig::tiny());
        let scfg = SimConfig::with_mechanism(Mechanism::CUA_SPAA);
        let a = run_averaged(&scfg, &make_traces(&source, 2));
        let b = run_averaged(&scfg, &make_traces(&source, 2));
        assert!((a.metrics.avg_turnaround_h - b.metrics.avg_turnaround_h).abs() < 1e-12);
        assert!((a.metrics.utilization - b.metrics.utilization).abs() < 1e-12);
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn trace_source_without_env_is_synthetic() {
        if std::env::var("HWS_SWF").is_err() {
            assert!(matches!(
                TraceSource::from_env(Scale::Quick),
                TraceSource::Synthetic(_)
            ));
        }
    }

    #[test]
    fn swf_source_traces_vary_by_seed_but_are_deterministic() {
        let src = TraceSource::swf(bundled_swf_fixture(), SwfImportConfig::default());
        let a = src.make_trace(1);
        let b = src.make_trace(1);
        let c = src.make_trace(2);
        assert_eq!(a, b);
        // Same raw jobs, different class assignment.
        assert_eq!(a.len(), c.len());
        assert_ne!(a, c);
        assert!(a.validate().is_ok());
        assert!(a.count_kind(JobKind::OnDemand) > 0);
    }

    #[test]
    fn bundled_fixture_matches_its_generator_provenance() {
        // The committed fixture must be exactly what `make_swf_fixture`
        // writes: the plain-SWF export of the quick-scale trace at the
        // fixture seed. Regenerate with
        // `cargo run -p hws-bench --bin make_swf_fixture` if this fails.
        let expected = hws_workload::to_swf(
            &swf_fixture_trace_config().generate(SWF_FIXTURE_SEED),
            &hws_workload::SwfExportConfig {
                embed_classes: false,
                procs_per_node: 1,
            },
        );
        let on_disk = std::fs::read_to_string(bundled_swf_fixture()).expect("fixture present");
        assert_eq!(on_disk, expected, "fixture out of date");
    }

    #[test]
    fn swf_sweep_matches_sequential_bitwise() {
        // The swf_replay acceptance bar, at test scale: parallel sweeping
        // over the imported fixture must not perturb any per-seed metric.
        let src = TraceSource::swf(bundled_swf_fixture(), SwfImportConfig::default());
        let cfg = SimConfig::with_mechanism(Mechanism::CUA_SPAA);
        let sweep = sweep_verified(&cfg, &[0, 1], |s| src.make_trace(s));
        assert_eq!(sweep.outcomes.len(), 2);
    }

    #[test]
    fn fixture_streams_identically_to_materialized() {
        // The streaming-replay contract on the *bundled* corpus rather
        // than a generated one: import the plain fixture (which runs the
        // §IV-A class protocol), re-export it embedded, stream it back,
        // and require the bitwise outcome of the materialized replay.
        let src = TraceSource::swf(bundled_swf_fixture(), SwfImportConfig::default());
        let trace = src.make_trace(0);
        let swf = hws_workload::to_swf(&trace, &hws_workload::SwfExportConfig::default());
        let cfg = SimConfig::with_mechanism(Mechanism::CUP_SPAA);
        let materialized = Simulator::run_trace(&cfg, &trace);
        let streamed = Simulator::run_source(
            &cfg,
            hws_workload::SwfStreamSource::from_reader(swf.as_bytes()).expect("own export"),
        );
        assert_eq!(materialized.metrics, streamed.metrics);
        assert_eq!(materialized.engine, streamed.engine);
        assert_eq!(streamed.admitted_jobs, trace.len() as u64);
    }

    #[test]
    #[should_panic(expected = "engine stats diverged")]
    fn same_run_check_sees_a_lone_engine_counter() {
        // Equal metrics are not enough: an oracle that reuses one reference
        // outcome must still fail when only an engine counter moved.
        let cfg = SimConfig::with_mechanism(Mechanism::CUA_SPAA);
        let want = Simulator::run_trace(&cfg, &TraceConfig::tiny().generate(0));
        let mut got = want.clone();
        got.engine.cancelled += 1;
        assert_same_run(&got, &want, "lone counter");
    }

    #[test]
    fn notice_mix_override_applies_to_both_variants() {
        let syn = TraceSource::Synthetic(TraceConfig::tiny()).with_notice_mix(NoticeMix::W2);
        match syn {
            TraceSource::Synthetic(cfg) => assert_eq!(cfg.notice_mix, NoticeMix::W2),
            _ => unreachable!(),
        }
        let swf = TraceSource::swf(bundled_swf_fixture(), SwfImportConfig::default())
            .with_notice_mix(NoticeMix::W3);
        match swf {
            TraceSource::SwfFile { cfg, .. } => assert_eq!(cfg.notice_mix, NoticeMix::W3),
            _ => unreachable!(),
        }
    }
}
