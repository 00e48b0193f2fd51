//! Deterministic black-box policy search over the scheduler's knob
//! space (DESIGN.md §16).
//!
//! The paper hand-picks six mechanism compositions and compares them on
//! fixed traces; this crate turns that comparison into a *searchable
//! design space*. A [`Candidate`] is a mechanism plus a
//! [`KnobVector`](hws_workload::KnobVector) (admission throttle,
//! backfill aggressiveness, checkpoint interval multiplier, placement
//! policy); a [`SearchSpace`] enumerates a grid of candidates; and two
//! tuners evaluate them against seeded traces:
//!
//! * [`grid_search`] — every candidate × every seed, exhaustively;
//! * [`tournament_search`] — successive halving on fresh seeds per
//!   round, spending most of the budget on the strongest candidates.
//!
//! Both fan the independent simulation cells across CPU cores through
//! [`hws_sim::par_map`] — the same slot pattern as
//! `Simulator::run_sweep_with` — and fold results in candidate/seed index
//! order, so a parallel search is **bitwise identical** to a sequential
//! one, and two runs of the same (space, seeds) produce byte-identical
//! [`Leaderboard`] artifacts.

pub mod leaderboard;
pub mod space;
pub mod tuner;

pub use leaderboard::{fnv1a, Leaderboard, LeaderboardRow};
pub use space::{Candidate, SearchSpace};
pub use tuner::{grid_search, tournament_search, SearchConfig, TournamentConfig};
