//! Static job descriptions (§III-A of the paper).
//!
//! A [`JobSpec`] is what the *trace* knows about a job: submission instant,
//! class, size, work requirement, user estimate, setup cost, and — for
//! on-demand jobs — the advance-notice record. Dynamic execution state
//! (remaining work, checkpoints, current size) lives in `hws-core`.

use crate::ids::{JobId, ProjectId};
use hws_sim::{SimDuration, SimTime};

/// The three application classes the paper co-schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// Tightly coupled parallel job with a fixed node count; checkpoints
    /// periodically, loses work past the last checkpoint on preemption.
    Rigid,
    /// Time-critical job that must start as soon as possible after arrival;
    /// never preempted or shrunk once running.
    OnDemand,
    /// Loosely coupled job that can run on any node count in
    /// `[min_size, size]` with linear speedup; shrink/expand are free, and
    /// preemption only costs the 2-minute warning plus a repeated setup.
    Malleable,
}

impl JobKind {
    pub const ALL: [JobKind; 3] = [JobKind::Rigid, JobKind::OnDemand, JobKind::Malleable];

    pub fn label(self) -> &'static str {
        match self {
            JobKind::Rigid => "rigid",
            JobKind::OnDemand => "on-demand",
            JobKind::Malleable => "malleable",
        }
    }
}

impl std::fmt::Display for JobKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The capability/capacity axis (*More for Less*, arXiv:2501.12464),
/// orthogonal to [`JobKind`]: `kind` says how a job *executes*
/// (fixed-size, resizable, time-critical), `class` says what it *is to
/// the machine* — routine capacity work, or one of the large
/// capability-predominant campaigns the system exists for. Capability
/// jobs get their own admission/preemption treatment (they may squat on
/// reservations but are never chosen as preemption victims under the
/// default capability-aware policy); on-demand jobs are always capacity
/// class. Every pre-existing code path sees only [`JobClass::Capacity`],
/// which is why zero-capability traces replay bitwise identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum JobClass {
    /// Ordinary capacity work (the default; the paper's entire workload).
    #[default]
    Capacity,
    /// Large, deadline-sensitive capability campaign.
    Capability,
}

impl JobClass {
    pub const ALL: [JobClass; 2] = [JobClass::Capacity, JobClass::Capability];

    pub fn label(self) -> &'static str {
        match self {
            JobClass::Capacity => "capacity",
            JobClass::Capability => "capability",
        }
    }

    pub fn is_capability(self) -> bool {
        self == JobClass::Capability
    }
}

impl std::fmt::Display for JobClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The four on-demand notice categories of the paper's Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NoticeCategory {
    /// The job arrives with no advance notice at all.
    NoNotice,
    /// Notice given 15–30 min ahead; the job arrives exactly when predicted.
    Accurate,
    /// Notice given, but the job arrives before its predicted arrival time.
    Early,
    /// Notice given, but the job arrives up to 30 min after the prediction.
    Late,
}

impl NoticeCategory {
    pub const ALL: [NoticeCategory; 4] = [
        NoticeCategory::NoNotice,
        NoticeCategory::Accurate,
        NoticeCategory::Early,
        NoticeCategory::Late,
    ];

    pub fn label(self) -> &'static str {
        match self {
            NoticeCategory::NoNotice => "no-notice",
            NoticeCategory::Accurate => "accurate",
            NoticeCategory::Early => "early",
            NoticeCategory::Late => "late",
        }
    }
}

/// An on-demand job's advance notice: "estimated job arrival time, job size,
/// and job runtime estimate" (§III-A). Size and estimate are those of the
/// job itself; this struct carries the timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoticeSpec {
    /// When the notice reaches the scheduler.
    pub notice_time: SimTime,
    /// The arrival instant announced in the notice.
    pub predicted_arrival: SimTime,
}

/// Immutable description of one job in a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    pub id: JobId,
    pub project: ProjectId,
    pub kind: JobKind,
    /// Actual submission/arrival instant. For on-demand jobs this is the
    /// *actual* arrival (which may differ from the predicted one).
    pub submit: SimTime,
    /// Requested node count; for malleable jobs this is the **maximum**
    /// size (paper §IV-B: "their maximum job size \[is\] their original
    /// requested job size").
    pub size: u32,
    /// Minimum size a malleable job can shrink to (= `size` for rigid and
    /// on-demand jobs).
    pub min_size: u32,
    /// Actual useful work time when running at `size` nodes. Under the
    /// paper's linear-speedup model the job carries
    /// `work × size` node-seconds of work regardless of its running size.
    pub work: SimDuration,
    /// User-provided runtime estimate (`work ≤ estimate`); the scheduler
    /// uses it for backfilling and kills jobs whose work exceeds it.
    pub estimate: SimDuration,
    /// One-time communication/coordination setup paid at every (re)start.
    pub setup: SimDuration,
    /// Advance-notice record, present only for on-demand jobs that gave one.
    pub notice: Option<NoticeSpec>,
    /// Which Fig. 1 category the job belongs to (meaningful for on-demand
    /// jobs; `NoNotice` otherwise).
    pub category: NoticeCategory,
    /// Preferred federation shard (multi-cluster dispatch): an index into
    /// the federation's shard list. `None` — the common case, and the only
    /// value single-cluster runs ever see — lets the placement policy
    /// decide. A hint naming a shard too small for the job is ignored.
    /// In-memory only: the CSV/SWF interchange formats do not carry it.
    pub site_hint: Option<u32>,
    /// Capability/capacity class (see [`JobClass`]). `Capacity` for every
    /// job the two-class model knows; `Capability` only when a generator
    /// knob or [`crate::Trace::tag_capability`] tagged the job. Carried by
    /// the CSV and embedded-SWF interchange formats.
    pub class: JobClass,
}

impl JobSpec {
    /// Total useful work in node-seconds (invariant under malleable
    /// resizing thanks to the linear-speedup assumption).
    pub fn work_node_seconds(&self) -> u64 {
        self.work.as_secs() * u64::from(self.size)
    }

    /// Useful work expressed in node-hours.
    pub fn work_node_hours(&self) -> f64 {
        self.work_node_seconds() as f64 / 3_600.0
    }

    /// Work duration when running on `n` nodes (linear speedup, §III-A:
    /// `t_actual = t_single/n + t_setup`; this returns the work part).
    pub fn work_at_size(&self, n: u32) -> SimDuration {
        assert!(n > 0, "size must be positive");
        SimDuration::from_secs(self.work_node_seconds().div_ceil(u64::from(n)))
    }

    pub fn is_on_demand(&self) -> bool {
        self.kind == JobKind::OnDemand
    }

    pub fn is_malleable(&self) -> bool {
        self.kind == JobKind::Malleable
    }

    pub fn is_rigid(&self) -> bool {
        self.kind == JobKind::Rigid
    }

    pub fn is_capability(&self) -> bool {
        self.class == JobClass::Capability
    }

    /// Basic self-consistency check used by tests and the generator.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// invariant: sizes out of range, `min_size` inconsistencies, zero
    /// work, `estimate < work`, notice/category mismatches, or a
    /// capability-class on-demand job (on-demand traffic is always
    /// capacity class).
    pub fn validate(&self, system_size: u32) -> Result<(), String> {
        if self.class == JobClass::Capability && self.kind == JobKind::OnDemand {
            return Err(format!(
                "{}: on-demand jobs cannot be capability class",
                self.id
            ));
        }
        if self.size == 0 || self.size > system_size {
            return Err(format!("{}: size {} out of range", self.id, self.size));
        }
        if self.min_size == 0 || self.min_size > self.size {
            return Err(format!(
                "{}: min_size {} vs size {}",
                self.id, self.min_size, self.size
            ));
        }
        if self.kind != JobKind::Malleable && self.min_size != self.size {
            return Err(format!(
                "{}: non-malleable job with min_size < size",
                self.id
            ));
        }
        if self.work.is_zero() {
            return Err(format!("{}: zero work", self.id));
        }
        if self.estimate < self.work {
            return Err(format!(
                "{}: estimate {} < work {}",
                self.id, self.estimate, self.work
            ));
        }
        if let Some(n) = &self.notice {
            if self.kind != JobKind::OnDemand {
                return Err(format!("{}: notice on non-on-demand job", self.id));
            }
            if n.notice_time > n.predicted_arrival {
                return Err(format!("{}: notice after predicted arrival", self.id));
            }
            match self.category {
                NoticeCategory::NoNotice => {
                    return Err(format!("{}: notice present but category NoNotice", self.id))
                }
                NoticeCategory::Accurate => {
                    if self.submit != n.predicted_arrival {
                        return Err(format!(
                            "{}: accurate notice but submit != predicted",
                            self.id
                        ));
                    }
                }
                NoticeCategory::Early => {
                    if self.submit > n.predicted_arrival || self.submit < n.notice_time {
                        return Err(format!("{}: early arrival outside notice window", self.id));
                    }
                }
                NoticeCategory::Late => {
                    if self.submit < n.predicted_arrival {
                        return Err(format!("{}: late arrival before predicted", self.id));
                    }
                }
            }
        } else if self.kind == JobKind::OnDemand && self.category != NoticeCategory::NoNotice {
            return Err(format!(
                "{}: category {:?} without notice",
                self.id, self.category
            ));
        }
        Ok(())
    }
}

/// Convenience builder used heavily by tests and examples.
#[derive(Debug, Clone)]
pub struct JobSpecBuilder {
    spec: JobSpec,
}

impl JobSpecBuilder {
    pub fn new(id: u64, kind: JobKind) -> Self {
        JobSpecBuilder {
            spec: JobSpec {
                id: JobId(id),
                project: ProjectId(0),
                kind,
                submit: SimTime::ZERO,
                size: 1,
                min_size: 1,
                work: SimDuration::from_hours(1),
                estimate: SimDuration::from_hours(2),
                setup: SimDuration::ZERO,
                notice: None,
                category: NoticeCategory::NoNotice,
                site_hint: None,
                class: JobClass::Capacity,
            },
        }
    }

    pub fn rigid(id: u64) -> Self {
        Self::new(id, JobKind::Rigid)
    }

    pub fn on_demand(id: u64) -> Self {
        Self::new(id, JobKind::OnDemand)
    }

    pub fn malleable(id: u64) -> Self {
        Self::new(id, JobKind::Malleable)
    }

    pub fn project(mut self, p: u32) -> Self {
        self.spec.project = ProjectId(p);
        self
    }

    pub fn submit_at(mut self, t: SimTime) -> Self {
        self.spec.submit = t;
        self
    }

    pub fn size(mut self, n: u32) -> Self {
        self.spec.size = n;
        if self.spec.kind != JobKind::Malleable {
            self.spec.min_size = n;
        }
        self
    }

    pub fn min_size(mut self, n: u32) -> Self {
        assert_eq!(
            self.spec.kind,
            JobKind::Malleable,
            "min_size only for malleable"
        );
        self.spec.min_size = n;
        self
    }

    pub fn work(mut self, d: SimDuration) -> Self {
        self.spec.work = d;
        if self.spec.estimate < d {
            self.spec.estimate = d;
        }
        self
    }

    pub fn estimate(mut self, d: SimDuration) -> Self {
        self.spec.estimate = d;
        self
    }

    pub fn setup(mut self, d: SimDuration) -> Self {
        self.spec.setup = d;
        self
    }

    /// Prefer a federation shard (see [`JobSpec::site_hint`]).
    pub fn site_hint(mut self, shard: u32) -> Self {
        self.spec.site_hint = Some(shard);
        self
    }

    /// Tag the job as a capability-class campaign (see [`JobClass`]).
    ///
    /// # Panics
    ///
    /// Panics for on-demand jobs — on-demand traffic is always capacity
    /// class ([`JobSpec::validate`] enforces the same invariant).
    pub fn capability(mut self) -> Self {
        assert_ne!(
            self.spec.kind,
            JobKind::OnDemand,
            "on-demand jobs cannot be capability class"
        );
        self.spec.class = JobClass::Capability;
        self
    }

    /// Attach an advance notice and derive the category from the timing.
    pub fn notice(mut self, notice_time: SimTime, predicted: SimTime) -> Self {
        assert_eq!(
            self.spec.kind,
            JobKind::OnDemand,
            "notice only for on-demand"
        );
        self.spec.notice = Some(NoticeSpec {
            notice_time,
            predicted_arrival: predicted,
        });
        self.spec.category = if self.spec.submit == predicted {
            NoticeCategory::Accurate
        } else if self.spec.submit < predicted {
            NoticeCategory::Early
        } else {
            NoticeCategory::Late
        };
        self
    }

    pub fn build(self) -> JobSpec {
        self.spec
    }
}

// Snapshot layouts. The spec codec is lossless, `site_hint` included,
// where the text interchange formats are not.
hws_sim::snap_enum!(JobKind {
    0 => Rigid,
    1 => OnDemand,
    2 => Malleable,
});
hws_sim::snap_enum!(JobClass {
    0 => Capacity,
    1 => Capability,
});
hws_sim::snap_enum!(NoticeCategory {
    0 => NoNotice,
    1 => Accurate,
    2 => Early,
    3 => Late,
});
hws_sim::snap_struct!(NoticeSpec {
    notice_time,
    predicted_arrival,
});
hws_sim::snap_struct!(JobSpec {
    id,
    project,
    kind,
    submit,
    size,
    min_size,
    work,
    estimate,
    setup,
    notice,
    category,
    site_hint,
    class,
});

#[cfg(test)]
mod tests {
    use super::*;
    use hws_sim::snap::{Snap, SnapReader, SnapWriter};

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn work_node_seconds_scale_with_size() {
        let j = JobSpecBuilder::rigid(1).size(128).work(secs(3_600)).build();
        assert_eq!(j.work_node_seconds(), 128 * 3_600);
        assert!((j.work_node_hours() - 128.0).abs() < 1e-9);
    }

    #[test]
    fn malleable_work_rescales_linearly() {
        let j = JobSpecBuilder::malleable(1)
            .size(100)
            .min_size(20)
            .work(secs(1_000))
            .build();
        // 100_000 node-seconds of work.
        assert_eq!(j.work_at_size(100), secs(1_000));
        assert_eq!(j.work_at_size(50), secs(2_000));
        assert_eq!(j.work_at_size(20), secs(5_000));
        // Non-divisible sizes round the duration up (work is conserved).
        assert_eq!(j.work_at_size(33).as_secs(), 3_031); // ceil(100000/33)
    }

    #[test]
    fn validate_accepts_good_specs() {
        let j = JobSpecBuilder::rigid(1).size(128).work(secs(100)).build();
        assert!(j.validate(4_392).is_ok());
    }

    #[test]
    fn validate_rejects_bad_sizes() {
        let j = JobSpecBuilder::rigid(1).size(5_000).work(secs(100)).build();
        assert!(j.validate(4_392).is_err());
    }

    #[test]
    fn validate_rejects_estimate_below_work() {
        let mut j = JobSpecBuilder::rigid(1).size(128).work(secs(100)).build();
        j.estimate = secs(50);
        assert!(j.validate(4_392).is_err());
    }

    #[test]
    fn validate_rejects_min_above_size() {
        let mut j = JobSpecBuilder::malleable(1).size(10).build();
        j.min_size = 20;
        assert!(j.validate(4_392).is_err());
    }

    #[test]
    fn notice_derives_category() {
        let t = SimTime::from_secs;
        let early = JobSpecBuilder::on_demand(1)
            .submit_at(t(500))
            .notice(t(100), t(900))
            .build();
        assert_eq!(early.category, NoticeCategory::Early);
        let accurate = JobSpecBuilder::on_demand(2)
            .submit_at(t(900))
            .notice(t(100), t(900))
            .build();
        assert_eq!(accurate.category, NoticeCategory::Accurate);
        let late = JobSpecBuilder::on_demand(3)
            .submit_at(t(1_000))
            .notice(t(100), t(900))
            .build();
        assert_eq!(late.category, NoticeCategory::Late);
        for j in [early, accurate, late] {
            assert!(j.validate(4_392).is_ok(), "{:?}", j.validate(4_392));
        }
    }

    #[test]
    fn validate_rejects_notice_on_rigid() {
        let mut j = JobSpecBuilder::rigid(1).size(128).build();
        j.notice = Some(NoticeSpec {
            notice_time: SimTime::ZERO,
            predicted_arrival: SimTime::from_secs(10),
        });
        assert!(j.validate(4_392).is_err());
    }

    #[test]
    fn kind_labels() {
        assert_eq!(JobKind::Rigid.to_string(), "rigid");
        assert_eq!(JobKind::OnDemand.label(), "on-demand");
        assert_eq!(NoticeCategory::Late.label(), "late");
        assert_eq!(JobClass::Capability.to_string(), "capability");
        assert_eq!(JobClass::Capacity.label(), "capacity");
    }

    #[test]
    fn default_class_is_capacity() {
        let j = JobSpecBuilder::rigid(1).size(8).build();
        assert_eq!(j.class, JobClass::Capacity);
        assert!(!j.is_capability());
    }

    #[test]
    fn capability_builder_tags_and_validates() {
        let j = JobSpecBuilder::rigid(1).size(64).capability().build();
        assert!(j.is_capability());
        assert!(j.validate(128).is_ok());
        let m = JobSpecBuilder::malleable(2)
            .size(32)
            .min_size(8)
            .capability()
            .build();
        assert!(m.validate(128).is_ok());
    }

    #[test]
    fn validate_rejects_capability_on_demand() {
        let mut j = JobSpecBuilder::on_demand(1).size(8).build();
        j.class = JobClass::Capability;
        let err = j.validate(128).unwrap_err();
        assert!(err.contains("capability"), "{err}");
    }

    #[test]
    #[should_panic(expected = "on-demand jobs cannot be capability")]
    fn capability_builder_rejects_on_demand() {
        let _ = JobSpecBuilder::on_demand(1).capability();
    }

    #[test]
    fn snap_codec_round_trips_every_field() {
        let t = SimTime::from_secs;
        let mut with_hint = JobSpecBuilder::malleable(7)
            .project(42)
            .submit_at(t(1_234))
            .size(100)
            .min_size(20)
            .work(secs(3_600))
            .estimate(secs(7_200))
            .setup(secs(120))
            .site_hint(1)
            .capability()
            .build();
        with_hint.site_hint = Some(3);
        let noticed = JobSpecBuilder::on_demand(8)
            .submit_at(t(900))
            .size(64)
            .notice(t(100), t(900))
            .build();
        let plain = JobSpecBuilder::rigid(9).size(1).build();
        for spec in [with_hint, noticed, plain] {
            let mut w = SnapWriter::new();
            spec.put(&mut w);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            let back = JobSpec::get(&mut r).expect("decode");
            assert!(r.expect_end().is_ok());
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn snap_codec_rejects_truncation_and_bad_tags() {
        let spec = JobSpecBuilder::rigid(1).size(4).build();
        let mut w = SnapWriter::new();
        spec.put(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert!(JobSpec::get(&mut r).is_err(), "cut at {cut}");
        }
        let mut bad = bytes.clone();
        bad[12] = 9; // kind tag offset: id (8) + project (4)
        assert!(JobSpec::get(&mut SnapReader::new(&bad)).is_err());
    }
}
