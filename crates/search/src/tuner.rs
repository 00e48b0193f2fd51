//! Grid and tournament search over a [`SearchSpace`].
//!
//! Both tuners reduce to the same deterministic kernel: materialise
//! every candidate into a `SimConfig`, evaluate (candidate, seed) cells
//! through [`hws_sim::par_map`] or a sequential loop, and fold rewards in
//! candidate/seed index order. Because the
//! fan-out returns results in index order regardless of thread
//! scheduling, `parallel == sequential` holds **bitwise**, and the
//! emitted [`Leaderboard`] text is byte-identical across runs of the
//! same (space, base, seeds).

use crate::leaderboard::{fnv1a, Leaderboard, LeaderboardRow};
use crate::space::{Candidate, SearchSpace};
use hws_core::{SimConfig, Simulator};
use hws_metrics::{ClassBreakdown, Metrics, RewardSpec};
use hws_sim::par_map;
use hws_workload::Trace;
use std::fmt::Write as _;

/// Grid-search configuration: every candidate is evaluated on every
/// seed.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    pub base: SimConfig,
    pub reward: RewardSpec,
    pub seeds: Vec<u64>,
    /// Fan cells across cores (bitwise identical to sequential).
    pub parallel: bool,
}

impl SearchConfig {
    pub fn new(base: SimConfig, reward: RewardSpec, seeds: Vec<u64>) -> Self {
        SearchConfig {
            base,
            reward,
            seeds,
            parallel: true,
        }
    }

    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }
}

/// Tournament (successive-halving) configuration: round `r` evaluates
/// the surviving half on `seeds_per_round` fresh seeds
/// (`seed_base + r·seeds_per_round ..`), so later rounds spend their
/// budget on the strongest candidates only.
#[derive(Debug, Clone)]
pub struct TournamentConfig {
    pub base: SimConfig,
    pub reward: RewardSpec,
    pub rounds: usize,
    pub seeds_per_round: u64,
    pub seed_base: u64,
    /// Fan cells across cores (bitwise identical to sequential).
    pub parallel: bool,
}

impl TournamentConfig {
    pub fn new(base: SimConfig, reward: RewardSpec, rounds: usize, seeds_per_round: u64) -> Self {
        TournamentConfig {
            base,
            reward,
            rounds,
            seeds_per_round,
            seed_base: 0,
            parallel: true,
        }
    }

    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }
}

/// The deterministic slice of one run the tuners keep.
struct Cell {
    metrics: Metrics,
    classes: Option<ClassBreakdown>,
}

/// Evaluate the `configs × seeds` grid; cell `i` is
/// `(configs[i / seeds.len()], seeds[i % seeds.len()])`, and the result
/// order is that index order for both execution modes.
fn eval_cells<F>(configs: &[SimConfig], seeds: &[u64], parallel: bool, make_trace: &F) -> Vec<Cell>
where
    F: Fn(u64) -> Trace + Sync,
{
    let n = configs.len() * seeds.len();
    let run = |i: usize| {
        let trace = make_trace(seeds[i % seeds.len()]);
        let out = Simulator::run_trace(&configs[i / seeds.len()], &trace);
        Cell {
            metrics: out.metrics,
            classes: out.classes,
        }
    };
    if parallel {
        par_map(n, run)
    } else {
        (0..n).map(run).collect()
    }
}

/// Materialise every candidate over `base`.
fn materialize(candidates: &[Candidate], base: &SimConfig) -> Result<Vec<SimConfig>, String> {
    candidates
        .iter()
        .map(|c| c.to_config(base).map_err(|e| format!("{}: {e}", c.label())))
        .collect()
}

/// Per-candidate fold state: rewards and the metrics fingerprint
/// accumulator, both in evaluation order.
#[derive(Default)]
struct Tally {
    scores: Vec<f64>,
    debug: String,
}

impl Tally {
    fn absorb(&mut self, cells: &[Cell], reward: &RewardSpec) -> f64 {
        let start = self.scores.len();
        for cell in cells {
            self.scores
                .push(reward.score(&cell.metrics, cell.classes.as_ref()));
            writeln!(self.debug, "{:?}", cell.metrics).expect("string write");
        }
        let new = &self.scores[start..];
        new.iter().sum::<f64>() / new.len() as f64
    }

    fn mean(&self) -> f64 {
        if self.scores.is_empty() {
            f64::NEG_INFINITY
        } else {
            self.scores.iter().sum::<f64>() / self.scores.len() as f64
        }
    }
}

fn build_rows(
    kind: &str,
    reward: &RewardSpec,
    candidates: &[Candidate],
    tallies: Vec<Tally>,
    order: Vec<usize>,
) -> Leaderboard {
    let mut tallies: Vec<Option<Tally>> = tallies.into_iter().map(Some).collect();
    let rows = order
        .iter()
        .enumerate()
        .map(|(i, &ci)| {
            let tally = tallies[ci].take().expect("candidate ranked once");
            LeaderboardRow {
                rank: i + 1,
                mechanism: candidates[ci].mechanism.name().to_string(),
                knobs: candidates[ci].knobs.clone(),
                seeds: tally.scores.len(),
                mean_reward: tally.mean(),
                fingerprint: fnv1a(tally.debug.as_bytes()),
                scores: tally.scores,
            }
        })
        .collect();
    Leaderboard {
        search: kind.to_string(),
        reward: reward.describe(),
        rows,
    }
}

/// Exhaustive search: every candidate × every seed, ranked by mean
/// reward (ties broken by enumeration index, so the result is total).
pub fn grid_search<F>(
    space: &SearchSpace,
    cfg: &SearchConfig,
    make_trace: F,
) -> Result<Leaderboard, String>
where
    F: Fn(u64) -> Trace + Sync,
{
    space.validate()?;
    if cfg.seeds.is_empty() {
        return Err("grid search needs at least one seed".into());
    }
    let candidates = space.enumerate();
    let configs = materialize(&candidates, &cfg.base)?;
    let cells = eval_cells(&configs, &cfg.seeds, cfg.parallel, &make_trace);

    let per = cfg.seeds.len();
    let mut tallies: Vec<Tally> = (0..candidates.len()).map(|_| Tally::default()).collect();
    for (ci, tally) in tallies.iter_mut().enumerate() {
        tally.absorb(&cells[ci * per..(ci + 1) * per], &cfg.reward);
    }
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&a, &b| {
        tallies[b]
            .mean()
            .total_cmp(&tallies[a].mean())
            .then(a.cmp(&b))
    });
    Ok(build_rows("grid", &cfg.reward, &candidates, tallies, order))
}

/// Successive halving: each round evaluates the survivors on fresh
/// seeds and keeps the better-scoring half (`⌈n/2⌉`, ties broken by
/// enumeration index). The final ranking orders all candidates by
/// (rounds survived, cumulative mean reward, enumeration index).
pub fn tournament_search<F>(
    space: &SearchSpace,
    cfg: &TournamentConfig,
    make_trace: F,
) -> Result<Leaderboard, String>
where
    F: Fn(u64) -> Trace + Sync,
{
    space.validate()?;
    if cfg.rounds == 0 {
        return Err("tournament needs at least one round".into());
    }
    if cfg.seeds_per_round == 0 {
        return Err("tournament needs at least one seed per round".into());
    }
    let candidates = space.enumerate();
    let configs = materialize(&candidates, &cfg.base)?;
    let n = candidates.len();

    let mut tallies: Vec<Tally> = (0..n).map(|_| Tally::default()).collect();
    let mut survived = vec![0usize; n];
    let mut alive: Vec<usize> = (0..n).collect();
    for round in 0..cfg.rounds {
        let seeds: Vec<u64> = (0..cfg.seeds_per_round)
            .map(|k| cfg.seed_base + round as u64 * cfg.seeds_per_round + k)
            .collect();
        let alive_configs: Vec<SimConfig> = alive.iter().map(|&ci| configs[ci].clone()).collect();
        let cells = eval_cells(&alive_configs, &seeds, cfg.parallel, &make_trace);

        let per = seeds.len();
        let mut round_mean = vec![0.0f64; alive.len()];
        for (ai, &ci) in alive.iter().enumerate() {
            round_mean[ai] = tallies[ci].absorb(&cells[ai * per..(ai + 1) * per], &cfg.reward);
            survived[ci] = round + 1;
        }
        if alive.len() > 1 {
            let mut order: Vec<usize> = (0..alive.len()).collect();
            order.sort_by(|&a, &b| {
                round_mean[b]
                    .total_cmp(&round_mean[a])
                    .then(alive[a].cmp(&alive[b]))
            });
            let keep = alive.len().div_ceil(2);
            let mut next: Vec<usize> = order[..keep].iter().map(|&ai| alive[ai]).collect();
            next.sort_unstable();
            alive = next;
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        survived[b]
            .cmp(&survived[a])
            .then(tallies[b].mean().total_cmp(&tallies[a].mean()))
            .then(a.cmp(&b))
    });
    Ok(build_rows(
        "tournament",
        &cfg.reward,
        &candidates,
        tallies,
        order,
    ))
}
