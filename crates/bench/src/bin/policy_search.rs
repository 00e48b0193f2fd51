//! **Policy search** — the deterministic black-box tuner over the
//! mechanism/knob space (DESIGN.md §16), exercised end to end and
//! recorded as a byte-stable baseline.
//!
//! Runs two searches over a capability-tagged quick-scale trace:
//!
//! * a **grid** over all six mechanisms × admission throttle × backfill
//!   level (reward: negative bounded slowdown), and
//! * a **tournament** (successive halving, fresh seeds per round) over
//!   the same space with a capability-weighted turnaround reward.
//!
//! Three reproducibility oracles run inline and abort non-zero on any
//! divergence (CI keys on them):
//!
//! 1. the grid executed twice emits **byte-identical** leaderboard text;
//! 2. parallel fan-out is **bitwise identical** to a sequential loop,
//!    for both tuners;
//! 3. an identity-action [`Environment`] episode
//!    opened at the grid winner's knob point reproduces the winner's
//!    batch replay **bitwise** (the facade the tuner is built on adds
//!    nothing).
//!
//! Writes `BENCH_policy_search.json` (see `hws_bench::baseline`). Every
//! recorded column is deterministic, so the CI `baseline-parity` job gates
//! all of them. The committed baseline is recorded at `HWS_SCALE=quick`
//! with the default 10 seeds:
//!
//! ```text
//! HWS_SCALE=quick cargo run --release -p hws-bench --bin policy_search
//! ```

use hws_bench::baseline::{Row, POLICY_SEARCH};
use hws_bench::{seeds_from_env, Scale};
use hws_core::{Action, EnvSpec, Environment, Mechanism, SimConfig, Simulator};
use hws_metrics::{RewardSpec, Table};
use hws_search::{
    grid_search, tournament_search, Leaderboard, SearchConfig, SearchSpace, TournamentConfig,
};
use hws_sim::SimDuration;
use hws_workload::{BackfillLevel, Trace};

/// Capability fraction tagged onto every trace (class-weighted rewards
/// need both classes present).
const CAPABILITY_FRAC: f64 = 0.25;

fn make_trace(seed: u64) -> Trace {
    let mut trace = Scale::from_env().trace_config().generate(seed);
    trace.tag_capability(CAPABILITY_FRAC);
    trace
}

fn search_space() -> SearchSpace {
    SearchSpace {
        mechanisms: Mechanism::ALL_SIX.to_vec(),
        throttles: vec![None, Some(1)],
        backfills: vec![None, Some(BackfillLevel::Conservative)],
        ckpt_mults: vec![1.0],
        placements: vec![None],
    }
}

/// Oracle 3: an identity-action episode opened at the winner's knob
/// point must reproduce the winner's batch replay bitwise.
fn assert_environment_parity(lb: &Leaderboard) {
    let winner = lb.winner().expect("non-empty leaderboard");
    let mechanism = Mechanism::ALL_SIX
        .into_iter()
        .find(|m| m.name() == winner.mechanism)
        .expect("winner is one of the six mechanisms");
    let trace = make_trace(0);
    let candidate = hws_core::config_for_knobs(&SimConfig::baseline(), mechanism, &winner.knobs)
        .expect("winner materialises");
    let batch = Simulator::run_trace(&candidate, &trace);

    let mut base = SimConfig::baseline();
    base.mechanism = mechanism;
    let spec = EnvSpec::new(base)
        .with_interval(SimDuration::from_hours(6))
        .with_knobs(winner.knobs.clone());
    let report = Environment::new(spec, &trace)
        .expect("open episode")
        .run(|_| Action::hold())
        .expect("identity episode");
    assert_eq!(
        report.outcome.metrics, batch.metrics,
        "environment identity episode diverged from the winner's batch replay"
    );
    assert_eq!(
        report.outcome.engine, batch.engine,
        "environment engine stats diverged from the winner's batch replay"
    );
    eprintln!(
        "  environment parity OK: identity episode == batch replay for {}",
        winner.mechanism
    );
}

fn main() {
    let seeds = seeds_from_env();
    let space = search_space();
    eprintln!(
        "policy_search: {} candidates × {seeds} seeds (capability frac {CAPABILITY_FRAC})",
        space.len(),
    );

    // --- Grid: reward = negative bounded slowdown -------------------
    let grid_cfg = SearchConfig::new(
        SimConfig::baseline(),
        RewardSpec::neg_bounded_slowdown(),
        (0..seeds).collect(),
    );
    let grid = grid_search(&space, &grid_cfg, make_trace).expect("grid search");
    let grid_again = grid_search(&space, &grid_cfg, make_trace).expect("grid rerun");
    assert_eq!(
        grid.to_text(),
        grid_again.to_text(),
        "two runs of the same grid search must emit identical bytes"
    );
    let grid_seq =
        grid_search(&space, &grid_cfg.clone().sequential(), make_trace).expect("sequential grid");
    assert_eq!(
        grid.to_text(),
        grid_seq.to_text(),
        "parallel grid search diverged from sequential"
    );
    eprintln!("  grid OK: rerun + sequential byte-identical");

    // --- Tournament: reward = capability-weighted turnaround --------
    let tour_cfg = TournamentConfig::new(
        SimConfig::baseline(),
        RewardSpec::class_weighted(1.0, 3.0),
        3,
        2,
    );
    let tournament = tournament_search(&space, &tour_cfg, make_trace).expect("tournament");
    let tour_seq = tournament_search(&space, &tour_cfg.clone().sequential(), make_trace)
        .expect("sequential tournament");
    assert_eq!(
        tournament.to_text(),
        tour_seq.to_text(),
        "parallel tournament diverged from sequential"
    );
    eprintln!("  tournament OK: parallel == sequential byte-identical");

    assert_environment_parity(&grid);

    // Leaderboard text must survive its own codec (the artifact a tuning
    // session would persist and reload).
    for lb in [&grid, &tournament] {
        let text = lb.to_text();
        assert_eq!(
            &Leaderboard::from_text(&text).expect("parse own output"),
            lb,
            "leaderboard text did not round-trip"
        );
    }

    let mut t = Table::new(vec![
        "search",
        "rank",
        "mechanism",
        "knobs",
        "seeds",
        "mean reward",
        "fingerprint",
    ]);
    for lb in [&grid, &tournament] {
        for row in &lb.rows {
            t.row(vec![
                lb.search.clone(),
                row.rank.to_string(),
                row.mechanism.clone(),
                row.knobs.to_text(),
                row.seeds.to_string(),
                format!("{:.4}", row.mean_reward),
                format!("{:016x}", row.fingerprint),
            ]);
        }
    }
    println!(
        "POLICY SEARCH ({} candidates, grid reward {}, tournament reward {})",
        space.len(),
        grid.reward,
        tournament.reward
    );
    println!("{}", t.render());

    let json_rows: Vec<Row> = [&grid, &tournament]
        .into_iter()
        .flat_map(|lb| {
            lb.rows.iter().map(|row| {
                Row::new()
                    .col("search", lb.search.as_str())
                    .col("reward", lb.reward.as_str())
                    .col("rank", row.rank)
                    .col("mechanism", row.mechanism.as_str())
                    .col("knobs", row.knobs.to_text())
                    .col("seeds", row.seeds)
                    .col("mean_reward", row.mean_reward)
                    .fingerprint("fingerprint", row.fingerprint)
            })
        })
        .collect();
    POLICY_SEARCH.write(&json_rows);
}
