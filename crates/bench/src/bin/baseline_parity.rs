//! **Baseline parity gate** — checks freshly regenerated `BENCH_*.json`
//! files against the committed baselines at the workspace root, failing
//! loudly (with the regeneration recipe) on any drift.
//!
//! The gate loops over the registry in `hws_bench::baseline` and applies
//! one comparator to every file: rows match by their declared key, every
//! column not declared wall-clock must keep its committed text, and every
//! committed row must be regenerated (the archive baseline's million-job
//! `full` rows are declared exempt: CI records only the quick profile).
//! `BENCH_decision_latency.json` is criterion output and is not gated.
//!
//! The CI `baseline-parity` job regenerates every registry binary at
//! quick scale into one directory, then invokes this binary with it:
//!
//! ```text
//! HWS_SCALE=quick HWS_SEEDS=10 HWS_BASELINE_DIR=regen \
//!     cargo run --release -p hws-bench --bin swf_replay
//! # ... same for every other registry binary ...
//! cargo run --release -p hws-bench --bin baseline_parity -- regen
//! ```
//!
//! ## `--perf` mode
//!
//! With `--perf`, only baselines with an `events_per_sec` column are
//! checked, with the same row matching, and the column comparison becomes
//! a soft floor: every regenerated `events_per_sec` must stay at or above
//! `PERF_FLOOR` × the committed value. Wall-clock numbers vary between
//! machines, so the floor is deliberately loose — it exists to catch the
//! pathological regression (an accidental O(Q log Q) reintroduction), not
//! a noisy few percent. The CI `perf-regression` job runs this mode.

use hws_bench::baseline::{Verdict, BASELINES, PERF_COLUMN, PERF_FLOOR};
use hws_bench::workspace_root;
use std::path::{Path, PathBuf};
use std::process::exit;

fn main() {
    let mut perf = false;
    let mut dir: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        if arg == "--perf" {
            perf = true;
        } else {
            dir = Some(PathBuf::from(arg));
        }
    }
    let regen_dir = dir.unwrap_or_else(|| PathBuf::from("regen"));
    let root = workspace_root();
    let mode = if perf {
        "baseline-parity --perf"
    } else {
        "baseline-parity"
    };

    let mut failed = Vec::new();
    for b in BASELINES
        .iter()
        .filter(|b| !perf || b.columns().contains(&PERF_COLUMN))
    {
        let verdict = match (read(&root.join(b.file)), read(&regen_dir.join(b.file))) {
            (Ok(committed), Ok(regenerated)) => b.check(&committed, &regenerated, perf),
            (Err(e), _) | (_, Err(e)) => Verdict {
                failures: vec![e],
                notes: Vec::new(),
            },
        };
        for note in &verdict.notes {
            println!("{mode}: note: {note}");
        }
        for why in &verdict.failures {
            eprintln!("{mode} FAILED: {why}\n");
        }
        if !verdict.failures.is_empty() {
            failed.push(b);
        }
    }

    if failed.is_empty() {
        if perf {
            println!(
                "{mode}: regenerated {PERF_COLUMN} within {:.0}% of every committed row",
                (1.0 - PERF_FLOOR) * 100.0
            );
        } else {
            println!("{mode}: all committed BENCH_*.json baselines reproduced");
        }
        return;
    }
    // Several files can share one binary: print each recipe once.
    let mut recipes: Vec<String> = Vec::new();
    for recipe in failed.iter().map(|b| format!("\t{}", b.recipe())) {
        if !recipes.contains(&recipe) {
            recipes.push(recipe);
        }
    }
    let cause = if perf {
        format!(
            "Regenerated {PERF_COLUMN} fell more than {:.0}% below the committed baseline.\n\
             If the slowdown is *intended* (a deliberate trade for correctness or a feature)",
            (1.0 - PERF_FLOOR) * 100.0
        )
    } else {
        "The committed baselines no longer match what the simulator produces.\n\
         If the drift is *intended* (a deliberate behavioral change)"
            .to_string()
    };
    eprintln!(
        "{cause}, re-record the affected baselines and commit them:\n\
         \n\
         {}\n\
         \n\
         (each binary rewrites its BENCH_*.json at the workspace root), and explain the\n\
         movement in the PR description. If it is *unintended*, fix the change instead:\n\
         a drift means it broke determinism or scheduling behavior; a slowdown is usually\n\
         per-event work that used to be per-pass (DESIGN.md §15).",
        recipes.join("\n")
    );
    exit(1);
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}
