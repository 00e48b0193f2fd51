//! Million-job archive profiles for the streaming replay baseline.
//!
//! The `archive_replay` binary measures the O(active)-memory replay engine
//! at a scale no materialized trace should ever reach: a synthetic
//! million-job, multi-month `theta_full` archive streamed straight off
//! disk. The archives themselves are **generated on demand and never
//! committed** — they are a pure function of `(profile, seed)`, so
//! [`ensure_archive`] rebuilds byte-identical files anywhere.
//!
//! ## Profile calibration
//!
//! Both profiles keep Theta's machine (4,392 nodes), project population,
//! size distribution, burst process, and 0.81 offered load, but compress
//! per-job runtimes so a million jobs fit in 120 days *at the same load*
//! (0.81 × capacity ÷ 10⁶ jobs ≈ 37 k node-seconds per job — about a
//! minute on a mid-sized allocation). The archive is a throughput and
//! memory stress corpus, not a fidelity corpus: fidelity baselines stay
//! with `swf_replay`/`replay_matrix` at the paper's job counts.
//!
//! | profile | jobs | horizon | role |
//! |---|---|---|---|
//! | `quick` | 100,000 | 12 days | CI smoke + parity gate |
//! | `full`  | 1,000,000 | 120 days | committed headline baseline |

use crate::Scale;
use hws_sim::SimDuration;
use hws_workload::{to_swf_writer, SwfExportConfig, TraceConfig};
use std::path::PathBuf;

/// One row of the archive-replay grid: a deterministic `(jobs, horizon)`
/// point on the calibrated theta-shaped stress workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchiveProfile {
    /// 100 k jobs over 12 days — CI-sized.
    Quick,
    /// 1 M jobs over 120 days — the headline streaming baseline.
    Full,
}

impl ArchiveProfile {
    pub const ALL: [ArchiveProfile; 2] = [ArchiveProfile::Quick, ArchiveProfile::Full];

    /// Profiles exercised at an experiment scale: quick-only for CI
    /// smoke runs, both for the committed baseline.
    pub fn for_scale(scale: Scale) -> &'static [ArchiveProfile] {
        match scale {
            Scale::Quick => &[ArchiveProfile::Quick],
            Scale::Standard | Scale::Full => &Self::ALL,
        }
    }

    /// Stable name used in file names and `BENCH_archive_replay.json` rows.
    pub fn name(self) -> &'static str {
        match self {
            ArchiveProfile::Quick => "quick",
            ArchiveProfile::Full => "full",
        }
    }

    /// The generator configuration (see the module docs for the
    /// calibration rationale). Deterministic per seed, like every
    /// [`TraceConfig`].
    pub fn trace_config(self) -> TraceConfig {
        let (target_jobs, days) = match self {
            ArchiveProfile::Quick => (100_000, 12),
            ArchiveProfile::Full => (1_000_000, 120),
        };
        TraceConfig {
            target_jobs,
            horizon: SimDuration::from_days(days),
            // The million-job budget fixes per-job work at 0.81 × capacity
            // ÷ jobs ≈ 37 k node-seconds. Spending that at Theta's ~700-
            // node mean size leaves only ~5 jobs running at once, and a
            // 5-wide system at 0.81 load queues hundreds of jobs at every
            // fluctuation — measuring queue-depth pathology instead of
            // replay throughput. Shifting the size buckets down one octave
            // (~230-node mean, 64-node floor) restores ~15-wide
            // concurrency and puts the runtime budget at ≈160 s mean
            // (log-normal median ~95 s). The σ is also tightened from
            // Theta's 1.45 — at this scale the original tail gives
            // service times a CV² ≈ 7 with the same queue-explosion
            // effect — and the 10 s floor then clamps almost nothing, so
            // the `target_load` rescale lands realized load ≈ 0.81.
            min_job_size: 64,
            size_bucket_weights: [0.55, 0.25, 0.12, 0.06, 0.02],
            runtime_median_s: 95.0,
            runtime_sigma: 1.0,
            min_runtime: SimDuration::from_secs(10),
            // Advance notices scale with the runtimes (the paper's 15–30
            // minute leads sit at ~0.5× the median runtime; so do these).
            // Leaving them at minutes would keep every on-demand claim
            // collecting nodes for ~30 simulated minutes while hundreds
            // of minute-scale jobs churn through it — a claim-pressure
            // regime the paper never evaluates — and would force the
            // streaming pump to buffer a 30-minute arrival window.
            notice_lead: (SimDuration::from_secs(15), SimDuration::from_secs(30)),
            late_window: SimDuration::from_secs(30),
            // With minute-scale jobs, Theta's diurnal submission swing
            // piles thousands of jobs into the daytime queue (night-time
            // capacity can't be borrowed by a job that only lives a
            // minute), which measures queue-depth pathology instead of
            // replay throughput. A flat arrival process keeps the waiting
            // queue near its steady-state size at the same offered load.
            diurnal: false,
            ..TraceConfig::theta_2019()
        }
    }
}

/// Directory the generated archives live in: `HWS_ARCHIVE_DIR` when set,
/// else `target/archives` under the workspace root (wiped by
/// `cargo clean`, never committed).
pub fn archive_dir() -> PathBuf {
    std::env::var("HWS_ARCHIVE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/archives"))
}

/// Where `(profile, seed)`'s archive lives under [`archive_dir`].
pub fn archive_path(profile: ArchiveProfile, seed: u64) -> PathBuf {
    archive_dir().join(format!("theta_{}_seed{seed}.swf", profile.name()))
}

/// Generate (if absent) and return the embedded-SWF archive for
/// `(profile, seed)`. The trace is materialized once here — generation is
/// the one step allowed to be O(jobs) — and streamed to disk line by line
/// via [`to_swf_writer`]; replay then never holds more than the live
/// window. Existing files are reused verbatim: delete [`archive_dir`] (or
/// `cargo clean`) to force regeneration.
///
/// # Panics
///
/// On IO errors — the archive binaries have no fallback without their
/// corpus.
pub fn ensure_archive(profile: ArchiveProfile, seed: u64) -> PathBuf {
    let path = archive_path(profile, seed);
    if path.exists() {
        return path;
    }
    let dir = archive_dir();
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    let trace = profile.trace_config().generate(seed);
    // Write to a scratch name and rename, so a crash mid-write can't
    // leave a truncated file that a later run would trust.
    let tmp = path.with_extension(format!("swf.tmp{}", std::process::id()));
    let file =
        std::fs::File::create(&tmp).unwrap_or_else(|e| panic!("create {}: {e}", tmp.display()));
    let mut writer = std::io::BufWriter::new(file);
    to_swf_writer(&trace, &SwfExportConfig::default(), &mut writer)
        .and_then(|()| std::io::Write::flush(&mut writer))
        .unwrap_or_else(|e| panic!("write {}: {e}", tmp.display()));
    drop(writer);
    std::fs::rename(&tmp, &path)
        .unwrap_or_else(|e| panic!("rename {} -> {}: {e}", tmp.display(), path.display()));
    path
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Reset the kernel's peak-RSS watermark to the *current* RSS (writing
/// `5` to `/proc/self/clear_refs`), so a subsequent [`peak_rss_bytes`]
/// reflects only the work in between. Best-effort: silently a no-op where
/// the interface is missing or read-only, in which case the watermark
/// stays cumulative (still an upper bound, never an undercount).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;
    use hws_workload::JobKind;

    #[test]
    fn profiles_are_theta_shaped_and_distinct() {
        let q = ArchiveProfile::Quick.trace_config();
        let f = ArchiveProfile::Full.trace_config();
        for cfg in [&q, &f] {
            assert_eq!(cfg.system_size, 4_392);
            assert_eq!(cfg.target_load, Some(0.81));
        }
        assert_eq!(f.target_jobs, 1_000_000);
        assert_eq!(f.horizon.as_secs() / 86_400, 120);
        // Same per-job work budget at both scales: jobs/day matches.
        assert_eq!(q.target_jobs * 10, f.target_jobs);
        assert_eq!(q.horizon.as_secs() * 10, f.horizon.as_secs());
    }

    /// The calibration claim of the module docs, checked on a scaled-down
    /// variant (same per-job work budget, 200× fewer jobs so the test
    /// stays fast): realized load lands near the 0.81 target rather than
    /// being dragged up by the min-runtime clamp, and the trace is valid
    /// with all three job classes present.
    #[test]
    fn scaled_archive_config_realizes_target_load() {
        let full = ArchiveProfile::Full.trace_config();
        let cfg = TraceConfig {
            target_jobs: full.target_jobs / 200,
            horizon: SimDuration::from_secs(full.horizon.as_secs() / 200),
            ..full
        };
        let trace = cfg.generate(9);
        assert!(trace.validate().is_ok());
        assert!(trace.count_kind(JobKind::OnDemand) > 0);
        assert!(trace.count_kind(JobKind::Malleable) > 0);
        let capacity = f64::from(cfg.system_size) * cfg.horizon.as_secs() as f64;
        let offered: f64 = trace
            .jobs
            .iter()
            .map(|j| j.work_node_seconds() as f64)
            .sum();
        let load = offered / capacity;
        assert!(
            (0.75..0.90).contains(&load),
            "realized load {load:.3} strayed from the 0.81 target"
        );
    }

    #[test]
    fn archive_paths_key_on_profile_and_seed() {
        let a = archive_path(ArchiveProfile::Quick, 0);
        let b = archive_path(ArchiveProfile::Full, 0);
        let c = archive_path(ArchiveProfile::Full, 1);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert!(a.file_name().unwrap().to_str().unwrap().contains("quick"));
    }

    #[test]
    fn for_scale_gates_the_full_profile_behind_non_quick_scales() {
        assert_eq!(
            ArchiveProfile::for_scale(Scale::Quick),
            &[ArchiveProfile::Quick]
        );
        assert_eq!(ArchiveProfile::for_scale(Scale::Full), &ArchiveProfile::ALL);
    }
}
