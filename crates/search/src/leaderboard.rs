//! The text-round-trippable leaderboard artifact the tuners emit.
//!
//! House text-codec style (see `hws_workload::outage`): a version header
//! comment, one tagged record per line, `to_text`/`from_text` an exact
//! round trip, malformed input rejected with a message rather than a
//! panic. Fields are `|`-separated because knob text contains spaces;
//! floats are printed with `{:?}` so the shortest representation
//! re-parses to the same bits, which makes "byte-identical leaderboard"
//! and "identical search result" the same statement.

use hws_workload::KnobVector;
use std::fmt::Write as _;

const HEADER: &str = "; HWS-Leaderboard: 1";

/// 64-bit FNV-1a: the workspace's standard cheap, stable hash for
/// behavioral fingerprints (leaderboards here, `BENCH_*.json` rows via
/// `hws_bench::metrics_fingerprint`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One ranked candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaderboardRow {
    /// 1-based rank (best first).
    pub rank: usize,
    /// Mechanism name as `Mechanism::name` reports it.
    pub mechanism: String,
    pub knobs: KnobVector,
    /// Number of seeded evaluations folded into this row.
    pub seeds: usize,
    /// Mean reward over those evaluations, folded in seed order.
    pub mean_reward: f64,
    /// FNV-1a over the `Debug` form of every per-seed `Metrics` this
    /// candidate produced, in evaluation order — the bitwise receipt.
    pub fingerprint: u64,
    /// Per-evaluation rewards, in evaluation order.
    pub scores: Vec<f64>,
}

/// A complete search result: which tuner ran, what it optimised, and
/// every candidate ranked best-first.
#[derive(Debug, Clone, PartialEq)]
pub struct Leaderboard {
    /// Tuner kind (`grid` / `tournament`).
    pub search: String,
    /// `RewardSpec::describe()` of the objective.
    pub reward: String,
    pub rows: Vec<LeaderboardRow>,
}

impl Leaderboard {
    /// Serialise; exact inverse of [`Leaderboard::from_text`].
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        writeln!(out, "search|{}", self.search).unwrap();
        writeln!(out, "reward|{}", self.reward).unwrap();
        for row in &self.rows {
            let scores = row
                .scores
                .iter()
                .map(|s| format!("{s:?}"))
                .collect::<Vec<_>>()
                .join(",");
            writeln!(
                out,
                "r|{}|{}|{}|{:?}|{:016x}|{}|{}",
                row.rank,
                row.mechanism,
                row.seeds,
                row.mean_reward,
                row.fingerprint,
                scores,
                row.knobs.to_text(),
            )
            .unwrap();
        }
        out
    }

    /// Parse the [`Leaderboard::to_text`] form.
    pub fn from_text(s: &str) -> Result<Leaderboard, String> {
        let mut lines = s.lines();
        match lines.next() {
            Some(l) if l == HEADER => {}
            other => return Err(format!("bad leaderboard header: {other:?}")),
        }
        let mut search = None;
        let mut reward = None;
        let mut rows = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (tag, rest) = line
                .split_once('|')
                .ok_or_else(|| format!("untagged leaderboard line: {line:?}"))?;
            match tag {
                "search" => {
                    if search.replace(rest.to_string()).is_some() {
                        return Err("duplicate search line".into());
                    }
                }
                "reward" => {
                    if reward.replace(rest.to_string()).is_some() {
                        return Err("duplicate reward line".into());
                    }
                }
                "r" => {
                    let fields: Vec<&str> = rest.splitn(6, '|').collect();
                    let [rank, mechanism, seeds, mean, fp, tail] = fields[..] else {
                        return Err(format!("bad row field count: {line:?}"));
                    };
                    let (scores_text, knobs_text) = tail
                        .split_once('|')
                        .ok_or_else(|| format!("row missing knob field: {line:?}"))?;
                    let scores = if scores_text.is_empty() {
                        Vec::new()
                    } else {
                        scores_text
                            .split(',')
                            .map(|t| {
                                t.parse::<f64>()
                                    .map_err(|_| format!("bad score {t:?} in {line:?}"))
                            })
                            .collect::<Result<Vec<f64>, String>>()?
                    };
                    rows.push(LeaderboardRow {
                        rank: rank.parse().map_err(|_| format!("bad rank in {line:?}"))?,
                        mechanism: mechanism.to_string(),
                        seeds: seeds
                            .parse()
                            .map_err(|_| format!("bad seed count in {line:?}"))?,
                        mean_reward: mean
                            .parse()
                            .map_err(|_| format!("bad mean reward in {line:?}"))?,
                        fingerprint: u64::from_str_radix(fp, 16)
                            .map_err(|_| format!("bad fingerprint in {line:?}"))?,
                        scores,
                        knobs: KnobVector::from_text(knobs_text)?,
                    });
                }
                other => return Err(format!("unknown leaderboard tag {other:?}")),
            }
        }
        Ok(Leaderboard {
            search: search.ok_or("missing search line")?,
            reward: reward.ok_or("missing reward line")?,
            rows,
        })
    }

    /// The winning row (rank 1), if any candidate was evaluated.
    pub fn winner(&self) -> Option<&LeaderboardRow> {
        self.rows.first()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Leaderboard {
        Leaderboard {
            search: "grid".into(),
            reward: "neg-bounded-slowdown".into(),
            rows: vec![
                LeaderboardRow {
                    rank: 1,
                    mechanism: "CUA&SPAA".into(),
                    knobs: KnobVector::identity(),
                    seeds: 2,
                    mean_reward: -1.25,
                    fingerprint: 0xdead_beef_0123_4567,
                    scores: vec![-1.0, -1.5],
                },
                LeaderboardRow {
                    rank: 2,
                    mechanism: "FCFS/EASY".into(),
                    knobs: KnobVector::from_text(
                        "admit=1 backfill=off ckpt=0.5 placement=least-loaded",
                    )
                    .unwrap(),
                    seeds: 0,
                    mean_reward: 0.0,
                    fingerprint: 0,
                    scores: vec![],
                },
            ],
        }
    }

    #[test]
    fn round_trip_exact() {
        let lb = sample();
        let text = lb.to_text();
        let back = Leaderboard::from_text(&text).expect("parse");
        assert_eq!(back, lb);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn rejects_malformed_input() {
        let good = sample().to_text();
        let cases = [
            ("".to_string(), "header"),
            ("; HWS-Leaderboard: 2\n".to_string(), "header"),
            (
                good.replace("search|grid", "search|grid\nsearch|again"),
                "duplicate search",
            ),
            (good.replace("reward|", "prize|"), "unknown leaderboard tag"),
            (good.replace("r|1|", "r|one|"), "bad rank"),
            (good.replacen("-1.0,-1.5", "-1.0,fast", 1), "bad score"),
            (
                good.replace(HEADER, format!("{HEADER}\njunk line").as_str()),
                "untagged",
            ),
            (
                good.replace("admit=none", "admit=whenever"),
                "bad admit throttle",
            ),
        ];
        for (text, want) in cases {
            let err = Leaderboard::from_text(&text).unwrap_err();
            assert!(err.contains(want), "{want}: {err}");
        }
        let missing = format!("{HEADER}\nreward|x\n");
        assert!(Leaderboard::from_text(&missing)
            .unwrap_err()
            .contains("missing search"));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
