//! **Streaming archive replay** — the million-job baseline for the
//! O(active)-memory replay engine. For each archive profile the binary
//! generates (or reuses) the deterministic `theta_*` corpus per seed,
//! streams it off disk through [`SwfStreamSource`] with
//! [`Simulator::run_source`], and records throughput (jobs/s, events/s),
//! the simulator's own live-job high-water mark, and the process peak RSS.
//!
//! **Self-check:** on the quick profile, seed 0 of every mechanism is
//! additionally *materialized* (full archive import) and replayed with
//! [`Simulator::run_trace`]; metrics and engine counters must match the
//! streamed run bitwise — the same invariant the `streaming_equivalence`
//! proptests pin at unit scale, enforced here on the real corpus. Any
//! divergence exits non-zero, which is what CI keys on.
//!
//! Row fields split into deterministic simulation outputs (`jobs`,
//! `events`, `metrics_fingerprint`, `peak_resident_jobs` — gated by
//! `baseline_parity`) and wall-clock measurements (`*_per_sec`,
//! `peak_rss_mb` — machine-dependent, not gated).
//!
//! Writes `BENCH_archive_replay.json` (see `hws_bench::baseline`). The
//! committed baseline is recorded at `HWS_SCALE=full` (quick + full
//! profiles) with 2 seeds; CI regenerates only the quick rows:
//!
//! ```text
//! HWS_SCALE=full HWS_SEEDS=2 cargo run --release -p hws-bench --bin archive_replay
//! ```

use hws_bench::baseline::{Row, ARCHIVE_REPLAY};
use hws_bench::{
    ensure_archive, metrics_fingerprint, peak_rss_bytes, reset_peak_rss, seeds_from_env_or,
    ArchiveProfile, Scale,
};
use hws_core::{Mechanism, SimConfig, SimOutcome, Simulator};
use hws_metrics::Table;
use hws_workload::{import_swf_reader, SwfImportConfig, SwfStreamSource};
use std::path::PathBuf;
use std::time::Instant;

/// Stream every seed of `(profile, mechanism)`, check seed 0 against
/// `reference` (its materialized replay) when given, add the cell's line
/// to `table`, and return its baseline row.
fn run_cell(
    profile: ArchiveProfile,
    m: Mechanism,
    archives: &[PathBuf],
    reference: Option<&SimOutcome>,
    table: &mut Table,
) -> Row {
    let cfg = SimConfig::with_mechanism(m);
    let mut outcomes = Vec::with_capacity(archives.len());
    let mut wall_s = 0.0;
    // Max over seeds of the per-run peak RSS delta watermark.
    let mut peak_rss_mb = 0.0f64;
    for path in archives {
        reset_peak_rss();
        let t0 = Instant::now();
        let source = SwfStreamSource::open(path)
            .unwrap_or_else(|e| panic!("open archive {}: {e}", path.display()));
        let outcome = Simulator::run_source(&cfg, source);
        wall_s += t0.elapsed().as_secs_f64();
        if let Some(rss) = peak_rss_bytes() {
            peak_rss_mb = peak_rss_mb.max(rss as f64 / (1024.0 * 1024.0));
        }
        outcomes.push(outcome);
    }

    if let Some(reference) = reference {
        let streamed = &outcomes[0];
        assert_eq!(
            reference.metrics,
            streamed.metrics,
            "{}: streamed replay diverged from materialized import",
            m.name()
        );
        assert_eq!(
            reference.engine,
            streamed.engine,
            "{}: engine counters diverged from materialized import",
            m.name()
        );
        assert_eq!(reference.classes, streamed.classes);
    }

    // Jobs admitted per seed (identical across seeds of a profile).
    let jobs = outcomes[0].admitted_jobs;
    assert!(
        outcomes.iter().all(|o| o.admitted_jobs == jobs),
        "seeds of one profile must admit the same job count"
    );
    let events: u64 = outcomes.iter().map(|o| o.engine.delivered).sum();
    // Max over seeds of the job arena's live high-water mark — the
    // O(active) claim as a committed, regression-gated number.
    let peak_jobs = outcomes.iter().map(|o| o.peak_resident_jobs).max().unwrap();
    let jobs_per_sec = (jobs * archives.len() as u64) as f64 / wall_s;
    let events_per_sec = events as f64 / wall_s;
    let fingerprint = metrics_fingerprint(&outcomes);
    eprintln!(
        "  {:<8} {jobs_per_sec:>9.0} jobs/s  {events_per_sec:>9.0} events/s  \
         peak {peak_jobs} resident jobs, {peak_rss_mb:.0} MiB RSS{}",
        m.name(),
        if reference.is_some() {
            "  parity OK"
        } else {
            ""
        }
    );
    table.row(vec![
        profile.name().to_string(),
        m.name().to_string(),
        jobs.to_string(),
        format!("{jobs_per_sec:.0}"),
        format!("{events_per_sec:.0}"),
        peak_jobs.to_string(),
        format!("{peak_rss_mb:.0}"),
        format!("{fingerprint:016x}"),
    ]);
    Row::new()
        .col("profile", profile.name())
        .col("mechanism", m.name())
        .col("jobs", jobs)
        .col("seeds", archives.len())
        .col("events", events)
        .fingerprint("metrics_fingerprint", fingerprint)
        .col("peak_resident_jobs", peak_jobs)
        .col("wall_s", wall_s)
        .col("jobs_per_sec", jobs_per_sec)
        .col("events_per_sec", events_per_sec)
        .col("peak_rss_mb", peak_rss_mb)
}

fn main() {
    let seeds = seeds_from_env_or(2);
    let scale = Scale::from_env();
    let mut t = Table::new(vec![
        "profile",
        "mechanism",
        "jobs",
        "jobs/s",
        "events/s",
        "peak jobs",
        "RSS MiB",
        "fingerprint",
    ]);
    let mut rows = Vec::new();

    for &profile in ArchiveProfile::for_scale(scale) {
        let archives: Vec<PathBuf> = (0..seeds)
            .map(|s| {
                let t0 = Instant::now();
                let path = ensure_archive(profile, s);
                let secs = t0.elapsed().as_secs_f64();
                if secs > 0.01 {
                    eprintln!("  generated {} in {secs:.1}s", path.display());
                }
                path
            })
            .collect();
        eprintln!(
            "archive_replay: theta_{} x {seeds} seeds ({})",
            profile.name(),
            archives[0].display()
        );

        // Materialized reference for the quick-profile self-check: one
        // full import of seed 0, replayed per mechanism with `run_trace`.
        // (Materializing the million-job profile is exactly what this
        // engine exists to avoid, so the cross-check runs at quick scale.)
        let reference = (profile == ArchiveProfile::Quick).then(|| {
            let file = std::fs::File::open(&archives[0])
                .unwrap_or_else(|e| panic!("open {}: {e}", archives[0].display()));
            import_swf_reader(std::io::BufReader::new(file), &SwfImportConfig::default())
                .unwrap_or_else(|e| panic!("import {}: {e}", archives[0].display()))
        });

        for m in Mechanism::ALL_SIX {
            let materialized = reference
                .as_ref()
                .map(|trace| Simulator::run_trace(&SimConfig::with_mechanism(m), trace));
            rows.push(run_cell(
                profile,
                m,
                &archives,
                materialized.as_ref(),
                &mut t,
            ));
        }
    }
    println!(
        "STREAMING ARCHIVE REPLAY (scale {scale:?}, {seeds} seeds, quick profile parity-checked)"
    );
    println!("{}", t.render());
    ARCHIVE_REPLAY.write(&rows);
}
