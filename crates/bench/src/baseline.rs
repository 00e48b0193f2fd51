//! # The one `BENCH_*.json` baseline format
//!
//! Every committed baseline at the workspace root is declared once in
//! [`BASELINES`]: its file, the binary that writes it, the scale and seed
//! count it is recorded at, the columns that key a row, every column in
//! render order, and which columns are wall-clock measurements. The
//! producing binaries build [`Row`]s and hand them to
//! [`Baseline::write`]; the `baseline_parity` gate hands a committed and a
//! regenerated file to [`Baseline::check`]. Both read the same
//! declaration, so a writer cannot drift from its gate.
//!
//! One row per line, one flat object per row:
//!
//! * deterministic `f64` renders round-trip (`{:?}`), wall-clock `f64` at
//!   4 fixed decimals, and any non-finite value, like an absent one, as
//!   `null`;
//! * fingerprints render as 16-hex-digit strings, other strings
//!   JSON-escaped, arrays as `[a, b]`.
//!
//! Output goes to `$HWS_BASELINE_DIR/<file>`, defaulting to the workspace
//! root, which is where the committed baselines live.

use crate::{workspace_root, Scale};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Decimals every wall-clock `f64` column renders with.
const WALL_DECIMALS: usize = 4;

/// `--perf` gate floor: a regenerated `events_per_sec` must be at least
/// this fraction of the committed value (i.e. fail on a >25% drop).
pub const PERF_FLOOR: f64 = 0.75;

/// The wall-clock column the `--perf` gate floors; baselines that have it
/// are the ones `--perf` checks.
pub const PERF_COLUMN: &str = "events_per_sec";

/// One committed baseline file, declared once for its writer and the gate.
#[derive(Debug, Clone, Copy)]
pub struct Baseline {
    /// File name, at the workspace root and under `$HWS_BASELINE_DIR`.
    pub file: &'static str,
    /// The `hws-bench` binary that writes it.
    pub bin: &'static str,
    /// `HWS_SCALE` the committed file is recorded at.
    pub scale: Scale,
    /// `HWS_SEEDS` the committed file is recorded at.
    pub seeds: u64,
    /// Columns whose values identify a row; unique within the file.
    /// This and the next two fields are whitespace-separated names.
    pub key: &'static str,
    /// Every column, in render order.
    pub columns: &'static str,
    /// Columns measured on the wall clock: fixed precision, never gated
    /// for parity.
    pub wall_clock: &'static str,
    /// `Some((column, value))`: committed rows whose `column` holds the
    /// string `value` may be absent from a regeneration (CI records only
    /// part of the file); they are skipped with a note.
    pub partial: Option<(&'static str, &'static str)>,
}

/// `BENCH_swf_replay.json`: the six mechanisms on the bundled SWF fixture.
pub const SWF_REPLAY: Baseline = Baseline {
    file: "BENCH_swf_replay.json",
    bin: "swf_replay",
    scale: Scale::Quick,
    seeds: 10,
    key: "mechanism source",
    columns: "mechanism source jobs seeds avg_turnaround_h rigid_turnaround_h \
             on_demand_turnaround_h malleable_turnaround_h utilization instant_start_rate \
             rigid_preemption_ratio malleable_preemption_ratio completed_jobs",
    wall_clock: "",
    partial: None,
};

/// `BENCH_simulator_throughput.json`: end-to-end jobs/s and events/s.
pub const THROUGHPUT: Baseline = Baseline {
    file: "BENCH_simulator_throughput.json",
    bin: "replay_matrix",
    scale: Scale::Quick,
    seeds: 10,
    key: "source mechanism",
    columns: "source mechanism jobs seeds seq_wall_s par_wall_s seq_jobs_per_sec par_jobs_per_sec \
             events_per_sec metrics_fingerprint avg_turnaround_h utilization",
    wall_clock: "seq_wall_s par_wall_s seq_jobs_per_sec par_jobs_per_sec events_per_sec",
    partial: None,
};

/// `BENCH_federated.json`: 1/2/4-shard federations under three placements.
pub const FEDERATED: Baseline = Baseline {
    file: "BENCH_federated.json",
    bin: "replay_matrix",
    scale: Scale::Quick,
    seeds: 10,
    key: "source shards policy mechanism",
    columns: "source shards policy mechanism seeds metrics_fingerprint avg_turnaround_h \
             utilization completed_jobs killed_jobs shard_starts shard_occupancy",
    wall_clock: "",
    partial: None,
};

/// `BENCH_capability.json`: capability/capacity co-scheduling sweep.
pub const CAPABILITY: Baseline = Baseline {
    file: "BENCH_capability.json",
    bin: "replay_matrix",
    scale: Scale::Quick,
    seeds: 10,
    key: "source capability_frac mechanism",
    columns: "source capability_frac mechanism seeds metrics_fingerprint avg_turnaround_h \
             utilization completed_jobs killed_jobs cap_jobs cap_completed cap_avg_turnaround_h \
             cap_preempted_jobs capacity_avg_turnaround_h",
    wall_clock: "",
    partial: None,
};

/// `BENCH_archive_replay.json`: streaming replay of the `theta_*`
/// archives. Recorded at full scale; CI regenerates the quick rows only.
pub const ARCHIVE_REPLAY: Baseline = Baseline {
    file: "BENCH_archive_replay.json",
    bin: "archive_replay",
    scale: Scale::Full,
    seeds: 2,
    key: "profile mechanism",
    columns: "profile mechanism jobs seeds events metrics_fingerprint peak_resident_jobs wall_s \
             jobs_per_sec events_per_sec peak_rss_mb",
    wall_clock: "wall_s jobs_per_sec events_per_sec peak_rss_mb",
    partial: Some(("profile", "full")),
};

/// `BENCH_service.json`: the fixture as a live submission log.
pub const SERVICE: Baseline = Baseline {
    file: "BENCH_service.json",
    bin: "service_replay",
    scale: Scale::Quick,
    seeds: 10,
    key: "mechanism source",
    columns: "mechanism source jobs seeds metrics_fingerprint submit_p50_us submit_p99_us \
             query_p50_us query_p99_us what_if_p50_us what_if_p99_us",
    wall_clock: "submit_p50_us submit_p99_us query_p50_us query_p99_us what_if_p50_us \
                what_if_p99_us",
    partial: None,
};

/// `BENCH_outages.json`: the fixture under maintenance windows.
pub const OUTAGES: Baseline = Baseline {
    file: "BENCH_outages.json",
    bin: "outage_replay",
    scale: Scale::Quick,
    seeds: 10,
    key: "mechanism source",
    columns: "mechanism source jobs seeds metrics_fingerprint events_applied nodes_down \
             nodes_drained nodes_rejoined interrupted_jobs shrunk_jobs infeasible_killed \
             lost_node_hours degraded_wall_hours recoveries mean_recovery_latency_s completed_jobs \
             killed_jobs",
    wall_clock: "",
    partial: None,
};

/// `BENCH_policy_search.json`: grid and tournament leaderboards.
pub const POLICY_SEARCH: Baseline = Baseline {
    file: "BENCH_policy_search.json",
    bin: "policy_search",
    scale: Scale::Quick,
    seeds: 10,
    key: "search rank",
    columns: "search reward rank mechanism knobs seeds mean_reward fingerprint",
    wall_clock: "",
    partial: None,
};

/// `BENCH_paper.json`: every averaged cell of Table II, Fig. 6, Fig. 7
/// and the ablations, and the verdict of every deterministic observation
/// check (`section` = `obs`). A column a row does not carry is `null`.
pub const PAPER: Baseline = Baseline {
    file: "BENCH_paper.json",
    bin: "paper",
    scale: Scale::Quick,
    seeds: 10,
    key: "section cell",
    columns: "section cell seeds metrics_fingerprint avg_turnaround_h rigid_turnaround_h \
             malleable_turnaround_h on_demand_turnaround_h utilization instant_start_rate \
             rigid_preemption_ratio malleable_preemption_ratio verdict",
    wall_clock: "",
    partial: None,
};

/// Every gated baseline. `BENCH_decision_latency.json` is criterion
/// output (pure wall-clock, written by `HWS_BENCH_JSON`) and is not one.
pub const BASELINES: [Baseline; 9] = [
    SWF_REPLAY,
    THROUGHPUT,
    FEDERATED,
    CAPABILITY,
    ARCHIVE_REPLAY,
    SERVICE,
    OUTAGES,
    POLICY_SEARCH,
    PAPER,
];

/// One value of a baseline row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Int(u64),
    F64(f64),
    /// A 64-bit behavioural fingerprint, rendered as 16 hex digits.
    Fingerprint(u64),
    Str(String),
    Array(Vec<Cell>),
    Null,
}

impl From<u64> for Cell {
    fn from(v: u64) -> Cell {
        Cell::Int(v)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Cell {
        Cell::Int(v as u64)
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Cell {
        Cell::F64(v)
    }
}

impl From<&str> for Cell {
    fn from(v: &str) -> Cell {
        Cell::Str(v.to_string())
    }
}

impl From<String> for Cell {
    fn from(v: String) -> Cell {
        Cell::Str(v)
    }
}

impl<T: Into<Cell>> From<Option<T>> for Cell {
    fn from(v: Option<T>) -> Cell {
        v.map_or(Cell::Null, Into::into)
    }
}

impl<T: Into<Cell>> From<Vec<T>> for Cell {
    fn from(v: Vec<T>) -> Cell {
        Cell::Array(v.into_iter().map(Into::into).collect())
    }
}

/// One baseline row: named cells in render order.
#[derive(Debug, Clone, Default)]
pub struct Row(Vec<(&'static str, Cell)>);

impl Row {
    pub fn new() -> Row {
        Row::default()
    }

    /// Append column `name`.
    pub fn col(mut self, name: &'static str, value: impl Into<Cell>) -> Row {
        self.0.push((name, value.into()));
        self
    }

    /// Append fingerprint column `name`.
    pub fn fingerprint(self, name: &'static str, fp: u64) -> Row {
        self.col(name, Cell::Fingerprint(fp))
    }
}

/// What gating one baseline found; it passed when `failures` is empty.
#[derive(Debug, Default)]
pub struct Verdict {
    pub failures: Vec<String>,
    pub notes: Vec<String>,
}

/// A parsed row: `(column, value as rendered)` in file order.
type Parsed = Vec<(String, String)>;

impl Baseline {
    /// Every column, in render order.
    pub fn columns(&self) -> Vec<&'static str> {
        self.columns.split_whitespace().collect()
    }

    fn is_wall_clock(&self, col: &str) -> bool {
        self.wall_clock.split_whitespace().any(|c| c == col)
    }

    /// Render `rows` in the one baseline format. Panics if a row's columns
    /// differ from the declaration.
    fn render(&self, rows: &[Row]) -> String {
        let mut out = String::from("[\n");
        for (i, row) in rows.iter().enumerate() {
            let names: Vec<&str> = row.0.iter().map(|(name, _)| *name).collect();
            assert_eq!(
                names,
                self.columns(),
                "{}: row columns differ from the registry",
                self.file
            );
            out.push_str("  {");
            for (j, (name, cell)) in row.0.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{}: ", json_string(name));
                render_cell(&mut out, cell, self.is_wall_clock(name));
            }
            out.push_str(if i + 1 == rows.len() { "}\n" } else { "},\n" });
        }
        out.push_str("]\n");
        out
    }

    /// Render `rows` and write them to `$HWS_BASELINE_DIR/<file>` (default:
    /// the workspace root, when the variable is unset or empty), creating
    /// the directory if needed; exits non-zero if the file cannot be
    /// written.
    pub fn write(&self, rows: &[Row]) {
        let dir = match std::env::var_os("HWS_BASELINE_DIR") {
            Some(dir) if !dir.is_empty() => PathBuf::from(dir),
            _ => workspace_root(),
        };
        let path = dir.join(self.file);
        let written =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, self.render(rows)));
        match written {
            Ok(()) => println!("wrote {} rows to {}", rows.len(), path.display()),
            Err(e) => {
                eprintln!("could not write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    /// The command that re-records the committed file.
    pub fn recipe(&self) -> String {
        format!(
            "HWS_SCALE={} HWS_SEEDS={} cargo run --release -p hws-bench --bin {}",
            self.scale.name(),
            self.seeds,
            self.bin
        )
    }

    /// Gate a regenerated file against the committed one. Rows match by
    /// [`Baseline::key`]. A regenerated row without a committed counterpart
    /// fails, and so does a committed row that was not regenerated, unless
    /// [`Baseline::partial`] exempts it. Matched rows must then agree on
    /// the text of every non-wall-clock column, or, with `perf`, keep
    /// [`PERF_COLUMN`] at or above [`PERF_FLOOR`] × the committed value.
    pub fn check(&self, committed: &str, regenerated: &str, perf: bool) -> Verdict {
        let mut v = Verdict::default();
        let (committed, regenerated) = match (parse_rows(committed), parse_rows(regenerated)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                v.failures.push(format!("{}: {e}", self.file));
                return v;
            }
        };
        for rb in &regenerated {
            let key = self.key_of(rb);
            let Some(ra) = committed.iter().find(|ra| self.key_of(ra) == key) else {
                v.failures.push(format!(
                    "{} row {key}: regenerated, but has no committed counterpart",
                    self.file
                ));
                continue;
            };
            if perf {
                self.perf_floor(ra, rb, &key, &mut v);
                continue;
            }
            for col in self.columns() {
                let (a, b) = (cell(ra, col), cell(rb, col));
                if !self.is_wall_clock(col) && a != b {
                    v.failures.push(format!(
                        "{} row {key}: {col} drifted\n  committed:   {}\n  regenerated: {}",
                        self.file,
                        a.unwrap_or("<missing>"),
                        b.unwrap_or("<missing>")
                    ));
                }
            }
        }
        let mut skipped = 0usize;
        for ra in &committed {
            let key = self.key_of(ra);
            if regenerated.iter().any(|rb| self.key_of(rb) == key) {
                continue;
            }
            match self.partial {
                Some((col, value)) if cell(ra, col) == Some(&json_string(value)) => skipped += 1,
                _ => v.failures.push(format!(
                    "{} row {key}: committed, but not regenerated",
                    self.file
                )),
            }
        }
        if let (Some((col, value)), true) = (self.partial, skipped > 0) {
            v.notes.push(format!(
                "{}: {skipped} committed rows with {col} = {value:?} not regenerated; skipped",
                self.file
            ));
        }
        v
    }

    fn perf_floor(&self, committed: &Parsed, regenerated: &Parsed, key: &str, v: &mut Verdict) {
        let rate = |row: &Parsed| cell(row, PERF_COLUMN).and_then(|x| x.parse::<f64>().ok());
        match (rate(committed), rate(regenerated)) {
            (Some(a), Some(b)) if b >= a * PERF_FLOOR => {}
            (Some(a), Some(b)) => v.failures.push(format!(
                "{} row {key}: {PERF_COLUMN} regressed beyond the {:.0}% floor\n  \
                 committed:   {a:.0}\n  regenerated: {b:.0}  ({:.1}% of committed)",
                self.file,
                (1.0 - PERF_FLOOR) * 100.0,
                b / a * 100.0
            )),
            _ => v.failures.push(format!(
                "{} row {key}: {PERF_COLUMN} missing or not a number",
                self.file
            )),
        }
    }

    /// `[col=value, ...]` over the key columns: the row's identity, and
    /// how failures name it.
    fn key_of(&self, row: &Parsed) -> String {
        let parts: Vec<String> = self
            .key
            .split_whitespace()
            .map(|k| format!("{k}={}", cell(row, k).unwrap_or("<missing>")))
            .collect();
        format!("[{}]", parts.join(", "))
    }
}

fn render_cell(out: &mut String, cell: &Cell, wall_clock: bool) {
    let _ = match cell {
        Cell::Int(v) => write!(out, "{v}"),
        Cell::Null => write!(out, "null"),
        Cell::F64(x) if !x.is_finite() => write!(out, "null"),
        Cell::F64(x) if wall_clock => write!(out, "{x:.WALL_DECIMALS$}"),
        Cell::F64(x) => write!(out, "{x:?}"),
        Cell::Fingerprint(fp) => write!(out, "\"{fp:016x}\""),
        Cell::Str(s) => write!(out, "{}", json_string(s)),
        Cell::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_cell(out, item, wall_clock);
            }
            write!(out, "]")
        }
    };
}

/// `s` as a quoted, escaped JSON string.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Inverse of [`json_string`]: the text of a quoted JSON string token.
fn json_unescape(token: &str) -> Option<String> {
    let mut chars = token.strip_prefix('"')?.strip_suffix('"')?.chars();
    let mut out = String::new();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next()? {
            'n' => '\n',
            't' => '\t',
            'r' => '\r',
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?
            }
            c => c,
        });
    }
    Some(out)
}

/// The rows of a baseline file: every line that opens an object.
fn parse_rows(json: &str) -> Result<Vec<Parsed>, String> {
    json.lines()
        .map(str::trim)
        .filter(|line| line.starts_with('{'))
        .map(parse_row)
        .collect()
}

/// One flat single-line object: `{"col": value, ...}`. Values keep their
/// rendered text, so arrays and strings compare whole.
fn parse_row(line: &str) -> Result<Parsed, String> {
    let bad = |why: &str| format!("{why} in row {line}");
    let mut rest = line
        .trim_end_matches(',')
        .strip_prefix('{')
        .and_then(|l| l.strip_suffix('}'))
        .ok_or_else(|| bad("not a one-line object"))?
        .trim_start();
    let mut cells = Vec::new();
    while !rest.is_empty() {
        let (name, after) = take_token(rest).ok_or_else(|| bad("unterminated column name"))?;
        let name = json_unescape(name).ok_or_else(|| bad("column name is not a string"))?;
        let after = after
            .trim_start()
            .strip_prefix(':')
            .ok_or_else(|| bad("missing ':'"))?;
        let (value, after) =
            take_token(after.trim_start()).ok_or_else(|| bad("unterminated value"))?;
        cells.push((name, value.to_string()));
        rest = after.trim_start();
        if let Some(next) = rest.strip_prefix(',') {
            rest = next.trim_start();
        } else if !rest.is_empty() {
            return Err(bad("missing ','"));
        }
    }
    Ok(cells)
}

/// Split one token off the front of `s`: a string, a bracketed array, or
/// a bare scalar running up to the next top-level `,` or `:`.
fn take_token(s: &str) -> Option<(&str, &str)> {
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    for (i, c) in s.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
        } else {
            match c {
                '"' => in_string = true,
                '[' => depth += 1,
                ']' => depth = depth.checked_sub(1)?,
                ',' | ':' if depth == 0 => return Some((s[..i].trim_end(), &s[i..])),
                _ => {}
            }
        }
        if depth == 0 && !in_string && matches!(c, '"' | ']') {
            return Some(s.split_at(i + c.len_utf8()));
        }
    }
    (depth == 0 && !in_string).then(|| (s.trim_end(), ""))
}

fn cell<'a>(row: &'a Parsed, col: &str) -> Option<&'a str> {
    row.iter()
        .find(|(name, _)| name == col)
        .map(|(_, v)| v.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOY: Baseline = Baseline {
        file: "BENCH_toy.json",
        bin: "toy",
        scale: Scale::Quick,
        seeds: 1,
        key: "name",
        columns: "name det wall",
        wall_clock: "wall",
        partial: None,
    };

    fn toy(name: &str, det: f64, wall: f64) -> Row {
        Row::new()
            .col("name", name)
            .col("det", det)
            .col("wall", wall)
    }

    fn federated_row(mechanism: &str, starts: Vec<u64>) -> Row {
        Row::new()
            .col("source", "synthetic")
            .col("shards", 2usize)
            .col("policy", "first-fit")
            .col("mechanism", mechanism)
            .col("seeds", 10u64)
            .fingerprint("metrics_fingerprint", 0xabc)
            .col("avg_turnaround_h", 7.5)
            .col("utilization", 0.8)
            .col("completed_jobs", 1430usize)
            .col("killed_jobs", 0usize)
            .col("shard_starts", starts)
            .col("shard_occupancy", vec![0.5, 0.25])
    }

    fn archive_row(profile: &str, mechanism: &str, events_per_sec: f64) -> Row {
        Row::new()
            .col("profile", profile)
            .col("mechanism", mechanism)
            .col("jobs", 100_000u64)
            .col("seeds", 2u64)
            .col("events", 783_059u64)
            .fingerprint("metrics_fingerprint", 0x3f91)
            .col("peak_resident_jobs", 580usize)
            .col("wall_s", 1.2)
            .col("jobs_per_sec", 163_503.2)
            .col("events_per_sec", events_per_sec)
            .col("peak_rss_mb", 23.0)
    }

    #[test]
    fn non_finite_values_render_as_null() {
        let json = TOY.render(&[
            toy("a", f64::NAN, f64::INFINITY),
            toy("b", f64::NEG_INFINITY, 1.0),
        ]);
        assert_eq!(
            json,
            "[\n  {\"name\": \"a\", \"det\": null, \"wall\": null},\n  \
             {\"name\": \"b\", \"det\": null, \"wall\": 1.0000}\n]\n"
        );
    }

    #[test]
    fn deterministic_floats_round_trip_and_wall_clock_is_fixed() {
        let json = TOY.render(&[toy("a", 0.1 + 0.2, 2.0 / 3.0)]);
        let rows = parse_rows(&json).unwrap();
        assert_eq!(
            cell(&rows[0], "det").unwrap().parse::<f64>().unwrap(),
            0.1 + 0.2
        );
        assert_eq!(cell(&rows[0], "wall"), Some("0.6667"));
    }

    #[test]
    fn strings_with_quotes_and_backslashes_round_trip() {
        let nasty = "say \"hi\", C:\\dir\\: [x]\n\u{1}";
        let rows = parse_rows(&TOY.render(&[toy(nasty, 1.0, 1.0)])).unwrap();
        assert_eq!(rows[0].len(), 3);
        assert_eq!(
            json_unescape(cell(&rows[0], "name").unwrap()).as_deref(),
            Some(nasty)
        );
        assert_eq!(cell(&rows[0], "det"), Some("1.0"));
    }

    #[test]
    #[should_panic(expected = "row columns differ from the registry")]
    fn writer_rejects_undeclared_columns() {
        TOY.render(&[Row::new().col("name", "a").col("det", 1.0)]);
    }

    #[test]
    fn deterministic_drift_names_file_row_and_column() {
        let committed = TOY.render(&[toy("a", 1.0, 1.0), toy("b", 2.0, 2.0)]);
        let drifted = TOY.render(&[toy("a", 1.0, 1.0), toy("b", 2.5, 2.0)]);
        let v = TOY.check(&committed, &drifted, false);
        assert_eq!(v.failures.len(), 1, "{:?}", v.failures);
        let msg = &v.failures[0];
        for part in [
            "BENCH_toy.json",
            "[name=\"b\"]",
            "det drifted",
            "2.0",
            "2.5",
        ] {
            assert!(msg.contains(part), "{part:?} missing from {msg}");
        }
    }

    #[test]
    fn wall_clock_drift_passes() {
        let committed = TOY.render(&[toy("a", 1.0, 1.0)]);
        let v = TOY.check(&committed, &TOY.render(&[toy("a", 1.0, 99.0)]), false);
        assert!(v.failures.is_empty(), "{:?}", v.failures);
    }

    #[test]
    fn rows_match_by_key_not_position() {
        let committed = TOY.render(&[toy("a", 1.0, 1.0), toy("b", 2.0, 2.0)]);
        let reordered = TOY.render(&[toy("b", 2.0, 2.0), toy("a", 1.0, 1.0)]);
        assert!(TOY.check(&committed, &reordered, false).failures.is_empty());
    }

    #[test]
    fn missing_and_extra_rows_of_a_strict_baseline_fail() {
        let full = FEDERATED.render(&[
            federated_row("N&PAA", vec![1]),
            federated_row("N&SPAA", vec![2]),
        ]);
        let one = FEDERATED.render(&[federated_row("N&PAA", vec![1])]);
        let missing = FEDERATED.check(&full, &one, false);
        assert_eq!(missing.failures.len(), 1);
        assert!(missing.failures[0].contains("BENCH_federated.json"));
        assert!(missing.failures[0].contains("mechanism=\"N&SPAA\""));
        assert!(missing.failures[0].contains("not regenerated"));
        let extra = FEDERATED.check(&one, &full, false);
        assert!(extra.failures[0].contains("no committed counterpart"));
    }

    #[test]
    fn unregenerated_archive_full_rows_are_skipped_with_a_note() {
        let committed = ARCHIVE_REPLAY.render(&[
            archive_row("quick", "N&PAA", 6e5),
            archive_row("full", "N&PAA", 6e5),
        ]);
        let quick_only = ARCHIVE_REPLAY.render(&[archive_row("quick", "N&PAA", 1.0)]);
        let v = ARCHIVE_REPLAY.check(&committed, &quick_only, false);
        assert!(v.failures.is_empty(), "{:?}", v.failures);
        assert_eq!(v.notes.len(), 1);
        assert!(v.notes[0].contains("1 committed rows with profile = \"full\""));
        // The exemption is for `full` rows only.
        let full_only = ARCHIVE_REPLAY.render(&[archive_row("full", "N&PAA", 6e5)]);
        let v = ARCHIVE_REPLAY.check(&committed, &full_only, false);
        assert_eq!(v.failures.len(), 1);
        assert!(v.failures[0].contains("profile=\"quick\""));
    }

    #[test]
    fn arrays_compare_whole() {
        let committed = FEDERATED.render(&[federated_row("N&PAA", vec![1481, 1500])]);
        let drifted = FEDERATED.render(&[federated_row("N&PAA", vec![1481, 1501])]);
        let v = FEDERATED.check(&committed, &drifted, false);
        assert_eq!(v.failures.len(), 1, "{:?}", v.failures);
        assert!(v.failures[0].contains("shard_starts drifted"));
        assert!(v.failures[0].contains("[1481, 1500]"));
        assert!(v.failures[0].contains("[1481, 1501]"));
    }

    #[test]
    fn perf_mode_floors_events_per_sec() {
        let committed = ARCHIVE_REPLAY.render(&[archive_row("quick", "N&PAA", 1000.0)]);
        let ok = ARCHIVE_REPLAY.render(&[archive_row("quick", "N&PAA", 760.0)]);
        assert!(ARCHIVE_REPLAY
            .check(&committed, &ok, true)
            .failures
            .is_empty());
        let slow = ARCHIVE_REPLAY.render(&[archive_row("quick", "N&PAA", 740.0)]);
        let v = ARCHIVE_REPLAY.check(&committed, &slow, true);
        assert!(v.failures[0].contains("events_per_sec regressed"));
    }

    /// A registry entry whose binary is missing, or is not regenerated by
    /// CI's `baseline-parity` job, would never be gated.
    #[test]
    fn every_registry_bin_is_a_bench_binary() {
        let bins = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let ci = std::fs::read_to_string(workspace_root().join(".github/workflows/ci.yml"))
            .expect("CI workflow");
        let job: Vec<&str> = ci
            .lines()
            .skip_while(|l| *l != "  baseline-parity:")
            .skip(1)
            .take_while(|l| l.is_empty() || l.starts_with("   "))
            .filter(|l| !l.trim_start().starts_with('#'))
            .collect();
        assert!(!job.is_empty(), "ci.yml has no baseline-parity job");
        let words: Vec<&str> = job
            .iter()
            .flat_map(|l| l.split(|c: char| !(c.is_alphanumeric() || c == '_')))
            .collect();
        for b in &BASELINES {
            let source = bins.join(format!("{}.rs", b.bin));
            assert!(source.is_file(), "{}: no {}", b.file, source.display());
            assert!(
                words.contains(&b.bin),
                "{}: ci.yml's baseline-parity job never runs {}",
                b.file,
                b.bin
            );
        }
    }

    #[test]
    fn absent_values_render_as_null() {
        let row = Row::new()
            .col("name", "a")
            .col("det", None::<f64>)
            .col("wall", Some(1.0));
        assert_eq!(
            TOY.render(&[row]),
            "[\n  {\"name\": \"a\", \"det\": null, \"wall\": 1.0000}\n]\n"
        );
    }

    #[test]
    fn committed_baselines_have_exactly_the_registry_columns() {
        let root = workspace_root();
        for b in &BASELINES {
            let json = std::fs::read_to_string(root.join(b.file)).expect("committed baseline");
            let rows = parse_rows(&json).expect("parsable baseline");
            assert!(!rows.is_empty(), "{}: no rows", b.file);
            let mut keys = std::collections::HashSet::new();
            for row in &rows {
                let names: Vec<&str> = row.iter().map(|(n, _)| n.as_str()).collect();
                assert_eq!(
                    names,
                    b.columns(),
                    "{}: columns differ from the registry",
                    b.file
                );
                assert!(
                    keys.insert(b.key_of(row)),
                    "{}: duplicate key {}",
                    b.file,
                    b.key_of(row)
                );
            }
            assert!(
                b.check(&json, &json, false).failures.is_empty(),
                "{}",
                b.file
            );
        }
        let mut on_disk: Vec<String> = std::fs::read_dir(&root)
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect();
        on_disk.sort();
        let mut declared: Vec<String> = BASELINES.iter().map(|b| b.file.to_string()).collect();
        declared.push("BENCH_decision_latency.json".to_string());
        declared.sort();
        assert_eq!(on_disk, declared);
    }
}
