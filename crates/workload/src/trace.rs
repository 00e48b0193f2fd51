//! Trace container plus a plain-text (CSV) interchange format so traces can
//! be archived, inspected, and replayed byte-identically.

use crate::ids::{JobId, ProjectId};
use crate::job::{JobClass, JobKind, JobSpec, NoticeCategory, NoticeSpec};
use hws_sim::{SimDuration, SimTime};
use std::fmt::Write as _;

/// An ordered job trace for a system of `system_size` identical nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    pub system_size: u32,
    /// Horizon covering every submission — `validate` enforces
    /// `submit < horizon` for all jobs (completions may spill past it).
    pub horizon: SimDuration,
    /// Jobs sorted by (submit, id).
    pub jobs: Vec<JobSpec>,
}

impl Trace {
    pub fn new(system_size: u32, horizon: SimDuration, mut jobs: Vec<JobSpec>) -> Self {
        jobs.sort_by_key(|j| (j.submit, j.id));
        Trace {
            system_size,
            horizon,
            jobs,
        }
    }

    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    pub fn iter_kind(&self, kind: JobKind) -> impl Iterator<Item = &JobSpec> {
        self.jobs.iter().filter(move |j| j.kind == kind)
    }

    pub fn count_kind(&self, kind: JobKind) -> usize {
        self.iter_kind(kind).count()
    }

    pub fn iter_class(&self, class: JobClass) -> impl Iterator<Item = &JobSpec> {
        self.jobs.iter().filter(move |j| j.class == class)
    }

    pub fn count_class(&self, class: JobClass) -> usize {
        self.iter_class(class).count()
    }

    /// Tag the largest rigid jobs as capability-class campaigns: the top
    /// `ceil(frac × rigid_jobs)` rigid jobs ordered by descending
    /// `(size, work)` (ties by id) become [`JobClass::Capability`].
    ///
    /// Deterministic and RNG-free — tagging consumes no random stream, so
    /// a `frac` of `0.0` leaves the trace (and every downstream replay)
    /// bitwise identical to the untagged one. This is both the
    /// generator's `capability_frac` implementation and the synthetic
    /// capability injection used to replay real SWF logs (which carry no
    /// class information) under capability/capacity co-scheduling.
    ///
    /// Returns the number of jobs tagged.
    ///
    /// # Panics
    ///
    /// Panics when `frac` is outside `0.0..=1.0`.
    pub fn tag_capability(&mut self, frac: f64) -> usize {
        assert!(
            (0.0..=1.0).contains(&frac),
            "capability fraction {frac} outside 0..=1"
        );
        if frac == 0.0 {
            return 0;
        }
        let mut rigid: Vec<usize> = self
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.kind == JobKind::Rigid)
            .map(|(i, _)| i)
            .collect();
        rigid.sort_by_key(|&i| {
            let j = &self.jobs[i];
            (
                std::cmp::Reverse(j.size),
                std::cmp::Reverse(j.work.as_secs()),
                j.id,
            )
        });
        let n = ((rigid.len() as f64) * frac).ceil().min(rigid.len() as f64) as usize;
        for &i in &rigid[..n] {
            self.jobs[i].class = JobClass::Capability;
        }
        n
    }

    /// Largest `submit − notice_time` gap over all jobs carrying an advance
    /// notice (zero when none do). A job's earliest simulator event is its
    /// notice, which [`crate::job::JobSpec::validate`] proves never precedes
    /// `submit` by more than this bound — so a streaming replay that has
    /// injected every job with `submit ≤ t + max_notice_lead` is guaranteed
    /// to hold *all* trace events up to time `t`.
    pub fn max_notice_lead(&self) -> SimDuration {
        self.jobs
            .iter()
            .filter_map(|j| j.notice.as_ref().map(|n| j.submit.since(n.notice_time)))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Validate every job, the global ordering invariant, and the horizon
    /// invariant (every submission falls inside the horizon).
    ///
    /// # Errors
    ///
    /// Returns the first violation found: a per-job
    /// [`JobSpec::validate`] failure, jobs out of `(submit, id)` order,
    /// or a submission at/after the horizon.
    pub fn validate(&self) -> Result<(), String> {
        for w in self.jobs.windows(2) {
            if (w[0].submit, w[0].id) > (w[1].submit, w[1].id) {
                return Err(format!("jobs out of order at {}", w[1].id));
            }
        }
        for j in &self.jobs {
            j.validate(self.system_size)?;
            if j.submit.as_secs() >= self.horizon.as_secs() {
                return Err(format!(
                    "{}: submit {} outside horizon {}",
                    j.id,
                    j.submit.as_secs(),
                    self.horizon.as_secs()
                ));
            }
        }
        Ok(())
    }

    /// Serialise to the CSV interchange format (header + one row per job).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(64 * (self.jobs.len() + 2));
        let _ = writeln!(
            out,
            "#system_size={},horizon={}",
            self.system_size,
            self.horizon.as_secs()
        );
        out.push_str(
            "id,project,kind,submit,size,min_size,work,estimate,setup,category,notice_time,predicted_arrival,class\n",
        );
        for j in &self.jobs {
            write_job_row(&mut out, j);
            out.push('\n');
        }
        out
    }

    /// Parse the CSV interchange format produced by [`Trace::to_csv`].
    /// Rows may omit the trailing `class` column (pre-capability exports);
    /// such jobs default to [`JobClass::Capacity`].
    ///
    /// # Errors
    ///
    /// Returns a line-tagged message for missing/unknown headers,
    /// wrong field counts, unparsable numbers, or unknown
    /// kind/category/class labels.
    pub fn from_csv(text: &str) -> Result<Trace, String> {
        let mut lines = text.lines();
        let meta = lines.next().ok_or("empty trace file")?;
        let meta = meta.strip_prefix('#').ok_or("missing meta line")?;
        let mut system_size = 0u32;
        let mut horizon = SimDuration::ZERO;
        for kv in meta.split(',') {
            let (k, v) = kv
                .split_once('=')
                .ok_or_else(|| format!("bad meta entry {kv}"))?;
            match k {
                "system_size" => {
                    system_size = v.parse().map_err(|e| format!("system_size: {e}"))?
                }
                "horizon" => {
                    horizon =
                        SimDuration::from_secs(v.parse().map_err(|e| format!("horizon: {e}"))?)
                }
                other => return Err(format!("unknown meta key {other}")),
            }
        }
        let header = lines.next().ok_or("missing header")?;
        if !header.starts_with("id,") {
            return Err("bad header".into());
        }
        let mut jobs = Vec::new();
        for (ln, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split(',').collect();
            if f.len() != 12 && f.len() != 13 {
                return Err(format!(
                    "line {}: expected 12 or 13 fields, got {}",
                    ln + 3,
                    f.len()
                ));
            }
            jobs.push(parse_job_row(&f, ln + 3)?);
        }
        Ok(Trace::new(system_size, horizon, jobs))
    }
}

/// Append `j`'s 13 job columns — the trace CSV's columns, which the
/// submission log's `S,` rows repeat — comma-separated, without a line
/// break.
pub(crate) fn write_job_row(out: &mut String, j: &JobSpec) {
    let _ = write!(
        out,
        "{},{},{},{},{},{},{},{},{},{},",
        j.id.0,
        j.project.0,
        j.kind.label(),
        j.submit.as_secs(),
        j.size,
        j.min_size,
        j.work.as_secs(),
        j.estimate.as_secs(),
        j.setup.as_secs(),
        j.category.label(),
    );
    match &j.notice {
        Some(n) => {
            let _ = write!(
                out,
                "{},{}",
                n.notice_time.as_secs(),
                n.predicted_arrival.as_secs()
            );
        }
        None => out.push(','),
    }
    let _ = write!(out, ",{}", j.class.label());
}

/// Parse the job columns [`write_job_row`] writes. `f` holds 12 or 13
/// fields (callers check the count their format allows); a missing
/// `class` column means [`JobClass::Capacity`]. Errors are tagged with
/// `line`.
pub(crate) fn parse_job_row(f: &[&str], line: usize) -> Result<JobSpec, String> {
    let parse_u64 = |s: &str, what: &str| {
        s.parse::<u64>()
            .map_err(|e| format!("line {line}: {what}: {e}"))
    };
    let parse_u32 = |s: &str, what: &str| {
        s.parse::<u32>()
            .map_err(|e| format!("line {line}: {what}: {e}"))
    };
    let kind = match f[2] {
        "rigid" => JobKind::Rigid,
        "on-demand" => JobKind::OnDemand,
        "malleable" => JobKind::Malleable,
        other => return Err(format!("line {line}: unknown kind {other}")),
    };
    let category = match f[9] {
        "no-notice" => NoticeCategory::NoNotice,
        "accurate" => NoticeCategory::Accurate,
        "early" => NoticeCategory::Early,
        "late" => NoticeCategory::Late,
        other => return Err(format!("line {line}: unknown category {other}")),
    };
    let notice = if f[10].is_empty() {
        None
    } else {
        Some(NoticeSpec {
            notice_time: SimTime::from_secs(parse_u64(f[10], "notice_time")?),
            predicted_arrival: SimTime::from_secs(parse_u64(f[11], "predicted_arrival")?),
        })
    };
    let class = match f.get(12).copied() {
        None | Some("capacity") => JobClass::Capacity,
        Some("capability") => JobClass::Capability,
        Some(other) => return Err(format!("line {line}: unknown class {other}")),
    };
    Ok(JobSpec {
        id: JobId(parse_u64(f[0], "id")?),
        project: ProjectId(parse_u32(f[1], "project")?),
        kind,
        submit: SimTime::from_secs(parse_u64(f[3], "submit")?),
        size: parse_u32(f[4], "size")?,
        min_size: parse_u32(f[5], "min_size")?,
        work: SimDuration::from_secs(parse_u64(f[6], "work")?),
        estimate: SimDuration::from_secs(parse_u64(f[7], "estimate")?),
        setup: SimDuration::from_secs(parse_u64(f[8], "setup")?),
        notice,
        category,
        site_hint: None,
        class,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpecBuilder;

    fn sample_trace() -> Trace {
        let t = SimTime::from_secs;
        let jobs = vec![
            JobSpecBuilder::rigid(0)
                .project(1)
                .submit_at(t(100))
                .size(128)
                .work(SimDuration::from_hours(2))
                .estimate(SimDuration::from_hours(3))
                .setup(SimDuration::from_mins(10))
                .build(),
            JobSpecBuilder::on_demand(1)
                .project(2)
                .submit_at(t(900))
                .size(256)
                .work(SimDuration::from_hours(1))
                .notice(t(100), t(900))
                .build(),
            JobSpecBuilder::malleable(2)
                .project(3)
                .submit_at(t(50))
                .size(500)
                .min_size(100)
                .work(SimDuration::from_hours(4))
                .build(),
        ];
        Trace::new(1_000, SimDuration::from_days(1), jobs)
    }

    #[test]
    fn constructor_sorts_by_submit() {
        let tr = sample_trace();
        assert_eq!(tr.jobs[0].id, JobId(2)); // submitted at t=50
        assert!(tr.validate().is_ok());
    }

    #[test]
    fn kind_filters() {
        let tr = sample_trace();
        assert_eq!(tr.count_kind(JobKind::Rigid), 1);
        assert_eq!(tr.count_kind(JobKind::OnDemand), 1);
        assert_eq!(tr.count_kind(JobKind::Malleable), 1);
    }

    #[test]
    fn csv_round_trip_is_identity() {
        let tr = sample_trace();
        let csv = tr.to_csv();
        let back = Trace::from_csv(&csv).expect("parse");
        assert_eq!(tr, back);
        // And the serialised form is stable.
        assert_eq!(back.to_csv(), csv);
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(Trace::from_csv("").is_err());
        assert!(Trace::from_csv("no meta\nid,\n").is_err());
        let tr = sample_trace();
        let mut csv = tr.to_csv();
        csv.push_str("1,2,3\n");
        assert!(Trace::from_csv(&csv).is_err());
    }

    #[test]
    fn validate_flags_out_of_order_rows() {
        let mut tr = sample_trace();
        tr.jobs.swap(0, 2);
        assert!(tr.validate().is_err());
    }

    #[test]
    fn csv_round_trip_preserves_capability_class() {
        let mut tr = sample_trace();
        let tagged = tr.tag_capability(1.0);
        assert_eq!(tagged, 1); // one rigid job in the sample
        let back = Trace::from_csv(&tr.to_csv()).expect("parse");
        assert_eq!(tr, back);
        assert_eq!(back.count_class(JobClass::Capability), 1);
    }

    #[test]
    fn csv_without_class_column_defaults_to_capacity() {
        // Pre-capability exports had 12 fields; they must still parse.
        let tr = sample_trace();
        let csv: String = tr
            .to_csv()
            .lines()
            .map(|l| {
                let stripped = l
                    .strip_suffix(",capacity")
                    .or_else(|| l.strip_suffix(",class"))
                    .unwrap_or(l);
                format!("{stripped}\n")
            })
            .collect();
        let back = Trace::from_csv(&csv).expect("12-field rows parse");
        assert_eq!(back.count_class(JobClass::Capability), 0);
        assert_eq!(back.len(), tr.len());
    }

    #[test]
    fn csv_rejects_unknown_class() {
        let tr = sample_trace();
        let csv = tr.to_csv().replace(",capacity", ",warpdrive");
        let err = Trace::from_csv(&csv).unwrap_err();
        assert!(err.contains("unknown class"), "{err}");
    }

    #[test]
    fn tag_capability_picks_largest_rigid_jobs() {
        let jobs = vec![
            JobSpecBuilder::rigid(0)
                .size(64)
                .work(SimDuration::from_hours(1))
                .build(),
            JobSpecBuilder::rigid(1)
                .size(512)
                .work(SimDuration::from_hours(1))
                .build(),
            JobSpecBuilder::rigid(2)
                .size(128)
                .work(SimDuration::from_hours(1))
                .build(),
            JobSpecBuilder::malleable(3).size(900).build(),
            JobSpecBuilder::on_demand(4).size(900).build(),
        ];
        let mut tr = Trace::new(1_000, SimDuration::from_days(1), jobs);
        // Half of the 3 rigid jobs → ceil(1.5) = 2 tagged: sizes 512, 128.
        assert_eq!(tr.tag_capability(0.5), 2);
        let tagged: Vec<u64> = tr
            .iter_class(JobClass::Capability)
            .map(|j| j.id.0)
            .collect();
        assert_eq!(tagged, vec![1, 2]);
        // Malleable/on-demand jobs are never tagged, however large.
        assert_eq!(
            tr.jobs.iter().find(|j| j.id.0 == 3).unwrap().class,
            JobClass::Capacity
        );
        assert!(tr.validate().is_ok());
    }

    #[test]
    fn tag_capability_zero_is_a_no_op() {
        let mut tr = sample_trace();
        let before = tr.clone();
        assert_eq!(tr.tag_capability(0.0), 0);
        assert_eq!(tr, before);
    }

    #[test]
    #[should_panic(expected = "outside 0..=1")]
    fn tag_capability_rejects_bad_fraction() {
        let mut tr = sample_trace();
        tr.tag_capability(1.5);
    }

    #[test]
    fn validate_flags_submissions_outside_horizon() {
        let mut tr = sample_trace();
        assert!(tr.validate().is_ok());
        tr.horizon = SimDuration::from_secs(800); // last submit is at 900 s
        let err = tr.validate().unwrap_err();
        assert!(err.contains("outside horizon"), "{err}");
    }
}
