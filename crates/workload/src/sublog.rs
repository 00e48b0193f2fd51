//! Deterministic submission logs: the workload format of the live
//! scheduler service.
//!
//! A [`SubmissionLog`] is an ordered sequence of timestamped operations —
//! [`SubmitOp::Submit`] and [`SubmitOp::Cancel`] — with non-decreasing
//! timestamps. A submit's timestamp is the instant the *scheduler learns
//! of the job*: the advance-notice time for noticed on-demand jobs, the
//! submission instant otherwise (see [`earliest_event`]). Replaying a log
//! through `SchedulerService` (hws-core) must produce metrics
//! bitwise-identical to replaying the equivalent materialized [`Trace`] —
//! the parity oracle the service mode is gated on.
//!
//! The text interchange format follows the SWF-codec house style: `;`
//! header comments (`HWS-SubmissionLog`, `HWS-SystemSize`, `HWS-Horizon`)
//! followed by one op per line — `S,<at>,<job csv fields…>` or
//! `C,<at>,<job id>` — so logs are diffable, greppable, and offline-
//! friendly like every other artifact in this repo.
//!
//! ## Cancel timing
//!
//! All ops sharing a timestamp apply before any simulator event at that
//! instant is delivered. A cancel timestamped at its job's own submit op
//! therefore withdraws the job while it is still *buffered* — it never
//! reaches the scheduler and provably perturbs nothing. A cancel at any
//! later timestamp hits a job already in flight (announced, queued, or
//! running); that is precisely the live-service feature, and it has no
//! batch equivalent: [`SubmissionLog::materialize`] rejects such logs
//! rather than silently approximating them.

use crate::job::JobSpec;
use crate::trace::{parse_job_row, write_job_row, Trace};
use crate::JobId;
use hws_sim::{SimDuration, SimTime};
use std::collections::HashMap;
use std::fmt::Write as _;

/// One operation in a submission log.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitOp {
    /// A new job becomes known to the scheduler.
    Submit(JobSpec),
    /// A previously submitted job is withdrawn.
    Cancel(JobId),
}

/// A timestamped [`SubmitOp`].
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// When the operation reaches the scheduler. Non-decreasing across the
    /// log; for submits this equals [`earliest_event`] of the spec.
    pub at: SimTime,
    pub op: SubmitOp,
}

/// The instant a job first becomes visible to the scheduler: its advance
/// notice when it carries one, its submission otherwise. This is the
/// earliest event any mechanism can schedule for the job (baselines that
/// ignore notices see it later, which only lengthens the buffering
/// window — never shortens it).
pub fn earliest_event(spec: &JobSpec) -> SimTime {
    spec.notice.map_or(spec.submit, |n| n.notice_time)
}

/// An ordered, validated submission log. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmissionLog {
    system_size: u32,
    /// Carried for lossless [`Trace`] round trips (the trace horizon is a
    /// generation parameter, not derivable from the ops).
    horizon: SimDuration,
    entries: Vec<LogEntry>,
}

impl SubmissionLog {
    /// Build and validate a log.
    ///
    /// # Errors
    ///
    /// Out-of-order timestamps, submit timestamps that disagree with
    /// [`earliest_event`], invalid specs, duplicate submit ids, cancels of
    /// ids never submitted, or cancels timestamped before their submit.
    pub fn new(
        system_size: u32,
        horizon: SimDuration,
        entries: Vec<LogEntry>,
    ) -> Result<Self, String> {
        let mut last = SimTime::ZERO;
        let mut submitted: HashMap<u64, SimTime> = HashMap::new();
        for (i, e) in entries.iter().enumerate() {
            if e.at < last {
                return Err(format!(
                    "op {i}: timestamp {} precedes predecessor {last}",
                    e.at
                ));
            }
            last = e.at;
            match &e.op {
                SubmitOp::Submit(spec) => {
                    spec.validate(system_size)
                        .map_err(|m| format!("op {i}: {m}"))?;
                    if e.at != earliest_event(spec) {
                        return Err(format!(
                            "op {i}: submit of {} at {} but its earliest event is {}",
                            spec.id,
                            e.at,
                            earliest_event(spec)
                        ));
                    }
                    if submitted.insert(spec.id.0, e.at).is_some() {
                        return Err(format!("op {i}: duplicate submit of {}", spec.id));
                    }
                }
                SubmitOp::Cancel(id) => match submitted.get(&id.0) {
                    None => return Err(format!("op {i}: cancel of never-submitted {id}")),
                    Some(&s) if e.at < s => {
                        return Err(format!("op {i}: cancel of {id} precedes its submit"))
                    }
                    Some(_) => {}
                },
            }
        }
        Ok(SubmissionLog {
            system_size,
            horizon,
            entries,
        })
    }

    /// Express a materialized trace as a pure-submit log (the round-trip
    /// partner of [`SubmissionLog::materialize`]). Ops are ordered by
    /// `(at, submit, id)` — a noticed job becomes known at its notice
    /// time, which may precede the submission of earlier-submitted jobs.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut entries: Vec<LogEntry> = trace
            .jobs
            .iter()
            .map(|j| LogEntry {
                at: earliest_event(j),
                op: SubmitOp::Submit(j.clone()),
            })
            .collect();
        entries.sort_by_key(|e| {
            let SubmitOp::Submit(s) = &e.op else {
                unreachable!("from_trace emits only submits")
            };
            (e.at, s.submit, s.id.0)
        });
        SubmissionLog {
            system_size: trace.system_size,
            horizon: trace.horizon,
            entries,
        }
    }

    /// Rebuild the equivalent materialized [`Trace`]: every submitted job
    /// in `(submit, id)` order, minus jobs cancelled while still buffered.
    ///
    /// # Errors
    ///
    /// An in-flight cancel (see the module docs) — such an op changes live
    /// scheduler state and has no trace equivalent; replay those logs
    /// through `SchedulerService` instead.
    pub fn materialize(&self) -> Result<Trace, String> {
        let mut jobs: HashMap<u64, JobSpec> = HashMap::new();
        for (i, e) in self.entries.iter().enumerate() {
            match &e.op {
                SubmitOp::Submit(spec) => {
                    jobs.insert(spec.id.0, spec.clone());
                }
                SubmitOp::Cancel(id) => {
                    let spec = jobs
                        .get(&id.0)
                        .ok_or_else(|| format!("op {i}: cancel of unknown {id}"))?;
                    // Buffered ⟺ same instant as the submit op (its
                    // earliest event); anything later is in flight.
                    if e.at == earliest_event(spec) {
                        jobs.remove(&id.0);
                    } else {
                        return Err(format!(
                            "op {i}: cancel of {id} at {} hits a job in flight (earliest \
                             event {}); a trace cannot express in-flight cancellation \
                             — replay through SchedulerService",
                            e.at,
                            earliest_event(spec)
                        ));
                    }
                }
            }
        }
        let mut jobs: Vec<JobSpec> = jobs.into_values().collect();
        jobs.sort_by_key(|j| (j.submit, j.id.0));
        Ok(Trace::new(self.system_size, self.horizon, jobs))
    }

    pub fn system_size(&self) -> u32 {
        self.system_size
    }

    pub fn horizon(&self) -> SimDuration {
        self.horizon
    }

    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Truncate to the first `n` ops (used by the snapshot proptests to
    /// split a log into a prefix to replay and a suffix to continue with).
    pub fn prefix(&self, n: usize) -> SubmissionLog {
        SubmissionLog {
            system_size: self.system_size,
            horizon: self.horizon,
            entries: self.entries[..n.min(self.entries.len())].to_vec(),
        }
    }

    /// Serialise to the text interchange format (see the module docs).
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(80 * (self.entries.len() + 3));
        let _ = writeln!(out, "; HWS-SubmissionLog: 1");
        let _ = writeln!(out, "; HWS-SystemSize: {}", self.system_size);
        let _ = writeln!(out, "; HWS-Horizon: {}", self.horizon.as_secs());
        for e in &self.entries {
            match &e.op {
                SubmitOp::Submit(j) => {
                    let _ = write!(out, "S,{},", e.at.as_secs());
                    write_job_row(&mut out, j);
                    out.push('\n');
                }
                SubmitOp::Cancel(id) => {
                    let _ = writeln!(out, "C,{},{}", e.at.as_secs(), id.0);
                }
            }
        }
        out
    }

    /// Parse the text interchange format produced by
    /// [`SubmissionLog::to_text`], re-running full validation.
    ///
    /// # Errors
    ///
    /// Line-tagged messages for missing/malformed headers or data lines,
    /// plus every [`SubmissionLog::new`] validation error.
    pub fn from_text(text: &str) -> Result<SubmissionLog, String> {
        let mut tagged = false;
        let mut system_size: Option<u32> = None;
        let mut horizon = SimDuration::ZERO;
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let ln = idx + 1;
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(comment) = line.strip_prefix(';') {
                let comment = comment.trim();
                if let Some(v) = comment.strip_prefix("HWS-SubmissionLog:") {
                    tagged = v.trim() == "1";
                } else if let Some(v) = comment.strip_prefix("HWS-SystemSize:") {
                    system_size = v.trim().parse().ok();
                } else if let Some(v) = comment.strip_prefix("HWS-Horizon:") {
                    horizon = SimDuration::from_secs(
                        v.trim()
                            .parse()
                            .map_err(|e| format!("line {ln}: HWS-Horizon: {e}"))?,
                    );
                }
                continue;
            }
            if !tagged {
                return Err(format!(
                    "line {ln}: data before the HWS-SubmissionLog header"
                ));
            }
            let f: Vec<&str> = line.split(',').collect();
            let parse_u64 = |s: &str, what: &str| {
                s.parse::<u64>()
                    .map_err(|e| format!("line {ln}: {what}: {e}"))
            };
            match f[0] {
                "C" => {
                    if f.len() != 3 {
                        return Err(format!("line {ln}: C op takes 3 fields, got {}", f.len()));
                    }
                    entries.push(LogEntry {
                        at: SimTime::from_secs(parse_u64(f[1], "at")?),
                        op: SubmitOp::Cancel(JobId(parse_u64(f[2], "job id")?)),
                    });
                }
                "S" => {
                    if f.len() != 15 {
                        return Err(format!("line {ln}: S op takes 15 fields, got {}", f.len()));
                    }
                    entries.push(LogEntry {
                        at: SimTime::from_secs(parse_u64(f[1], "at")?),
                        op: SubmitOp::Submit(parse_job_row(&f[2..], ln)?),
                    });
                }
                other => return Err(format!("line {ln}: unknown op tag {other}")),
            }
        }
        let system_size = system_size.ok_or_else(|| "missing HWS-SystemSize header".to_string())?;
        SubmissionLog::new(system_size, horizon, entries)
    }

    /// Write the log to a file (text format).
    ///
    /// # Errors
    ///
    /// IO failures.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Read and validate a log from a file (text format).
    ///
    /// # Errors
    ///
    /// IO failures and every [`SubmissionLog::from_text`] error.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<SubmissionLog, String> {
        let path = path.as_ref();
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::from_text(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TraceConfig;
    use crate::job::JobSpecBuilder;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn sample_log() -> SubmissionLog {
        let tr = TraceConfig::tiny().generate(11);
        SubmissionLog::from_trace(&tr)
    }

    #[test]
    fn from_trace_materialize_is_identity() {
        let tr = TraceConfig::tiny().generate(7);
        let log = SubmissionLog::from_trace(&tr);
        let back = log.materialize().expect("pure-submit log materializes");
        assert_eq!(back.system_size, tr.system_size);
        assert_eq!(back.horizon, tr.horizon);
        assert_eq!(back.jobs, tr.jobs);
    }

    #[test]
    fn from_trace_orders_ops_by_learn_time() {
        let tr = TraceConfig::tiny().generate(7);
        let log = SubmissionLog::from_trace(&tr);
        let mut last = SimTime::ZERO;
        for e in log.entries() {
            assert!(e.at >= last, "ops out of order");
            last = e.at;
            let SubmitOp::Submit(s) = &e.op else {
                panic!("from_trace must emit only submits")
            };
            assert_eq!(e.at, earliest_event(s));
        }
    }

    #[test]
    fn text_round_trip_is_identity() {
        let log = sample_log();
        let text = log.to_text();
        let back = SubmissionLog::from_text(&text).expect("parse");
        assert_eq!(back, log);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn text_round_trip_with_cancels() {
        let spec = JobSpecBuilder::rigid(5).submit_at(t(100)).size(4).build();
        let log = SubmissionLog::new(
            64,
            SimDuration::from_secs(1_000),
            vec![
                LogEntry {
                    at: t(100),
                    op: SubmitOp::Submit(spec),
                },
                LogEntry {
                    at: t(150),
                    op: SubmitOp::Cancel(JobId(5)),
                },
            ],
        )
        .expect("valid");
        let back = SubmissionLog::from_text(&log.to_text()).expect("parse");
        assert_eq!(back, log);
    }

    #[test]
    fn validation_rejects_disorder_and_duplicates() {
        let a = JobSpecBuilder::rigid(1).submit_at(t(50)).size(2).build();
        let b = JobSpecBuilder::rigid(2).submit_at(t(10)).size(2).build();
        // Timestamps must be non-decreasing.
        let err = SubmissionLog::new(
            64,
            SimDuration::ZERO,
            vec![
                LogEntry {
                    at: t(50),
                    op: SubmitOp::Submit(a.clone()),
                },
                LogEntry {
                    at: t(10),
                    op: SubmitOp::Submit(b),
                },
            ],
        )
        .unwrap_err();
        assert!(err.contains("precedes"), "{err}");
        // Submit timestamp must equal the earliest event.
        let err = SubmissionLog::new(
            64,
            SimDuration::ZERO,
            vec![LogEntry {
                at: t(40),
                op: SubmitOp::Submit(a.clone()),
            }],
        )
        .unwrap_err();
        assert!(err.contains("earliest event"), "{err}");
        // Duplicate ids are rejected.
        let err = SubmissionLog::new(
            64,
            SimDuration::ZERO,
            vec![
                LogEntry {
                    at: t(50),
                    op: SubmitOp::Submit(a.clone()),
                },
                LogEntry {
                    at: t(50),
                    op: SubmitOp::Submit(a),
                },
            ],
        )
        .unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        // Cancels must reference a prior submit.
        let err = SubmissionLog::new(
            64,
            SimDuration::ZERO,
            vec![LogEntry {
                at: t(5),
                op: SubmitOp::Cancel(JobId(9)),
            }],
        )
        .unwrap_err();
        assert!(err.contains("never-submitted"), "{err}");
    }

    #[test]
    fn buffered_cancel_drops_the_job() {
        // A cancel at the same instant as its submit op withdraws the job
        // before the scheduler ever sees it.
        let doomed = JobSpecBuilder::rigid(1).submit_at(t(300)).size(2).build();
        let keeper = JobSpecBuilder::rigid(2).submit_at(t(400)).size(2).build();
        let log = SubmissionLog::new(
            64,
            SimDuration::from_secs(1_000),
            vec![
                LogEntry {
                    at: t(300),
                    op: SubmitOp::Submit(doomed),
                },
                LogEntry {
                    at: t(300),
                    op: SubmitOp::Cancel(JobId(1)),
                },
                LogEntry {
                    at: t(400),
                    op: SubmitOp::Submit(keeper.clone()),
                },
            ],
        )
        .expect("valid");
        let tr = log.materialize().expect("buffered cancel materializes");
        assert_eq!(tr.jobs, vec![keeper]);
    }

    #[test]
    fn in_flight_cancel_is_not_source_representable() {
        let job = JobSpecBuilder::rigid(1).submit_at(t(300)).size(2).build();
        let log = SubmissionLog::new(
            64,
            SimDuration::from_secs(1_000),
            vec![
                LogEntry {
                    at: t(300),
                    op: SubmitOp::Submit(job),
                },
                LogEntry {
                    at: t(350),
                    op: SubmitOp::Cancel(JobId(1)),
                },
            ],
        )
        .expect("valid log — the service can replay it");
        let err = log.materialize().unwrap_err();
        assert!(err.contains("in flight"), "{err}");
    }

    #[test]
    fn notice_learn_order_differs_from_submit_order() {
        // A noticed job is learned (op order) before an earlier-submitting
        // plain job, yet materializes after it in (submit, id) order.
        let noticed = JobSpecBuilder::on_demand(3)
            .submit_at(t(900))
            .size(4)
            .notice(t(250), t(900))
            .build();
        let plain = JobSpecBuilder::rigid(1).submit_at(t(300)).size(2).build();
        let log = SubmissionLog::new(
            64,
            SimDuration::from_secs(2_000),
            vec![
                LogEntry {
                    at: t(250),
                    op: SubmitOp::Submit(noticed),
                },
                LogEntry {
                    at: t(300),
                    op: SubmitOp::Submit(plain),
                },
            ],
        )
        .expect("valid");
        let tr = log.materialize().unwrap();
        assert_eq!(
            tr.jobs.iter().map(|j| j.id.0).collect::<Vec<_>>(),
            vec![1, 3]
        );
        // And the round trip back to a log restores learn order.
        assert_eq!(SubmissionLog::from_trace(&tr), log);
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(SubmissionLog::from_text("S,1,2\n").is_err()); // before header
        let ok = "; HWS-SubmissionLog: 1\n; HWS-SystemSize: 64\n";
        assert!(SubmissionLog::from_text(ok).unwrap().is_empty());
        assert!(SubmissionLog::from_text(&format!("{ok}X,1,2\n")).is_err());
        assert!(SubmissionLog::from_text(&format!("{ok}C,1\n")).is_err());
        assert!(SubmissionLog::from_text(&format!("{ok}C,zz,3\n")).is_err());
        assert!(SubmissionLog::from_text("; HWS-SubmissionLog: 1\n").is_err()); // no size
    }

    #[test]
    fn save_load_round_trips() {
        let log = sample_log();
        let dir = std::env::temp_dir().join(format!("hws_sublog_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("ops.log");
        log.save(&path).expect("save");
        let back = SubmissionLog::load(&path).expect("load");
        assert_eq!(back, log);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prefix_truncates() {
        let log = sample_log();
        assert_eq!(log.prefix(3).len(), 3.min(log.len()));
        assert_eq!(log.prefix(usize::MAX), log);
        assert!(log.prefix(0).is_empty());
    }
}
