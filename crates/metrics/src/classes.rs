//! Per-class (capability/capacity) breakdown of a run.
//!
//! Deliberately *outside* [`Metrics`](crate::Metrics), like the per-shard
//! [`ShardStat`](crate::ShardStat) breakdown: the committed `BENCH_*.json`
//! baselines serialise `Metrics`, and zero-capability runs must stay
//! byte-identical to the pre-capability two-class path. The breakdown is
//! attached to the run outcome separately and only surfaced by the
//! capability-aware reporting paths (`--bin replay_matrix`, tests).

use crate::record::{JobRecord, Recorder};
use crate::summary::{add, check_counts, check_sum, mean};
use hws_workload::JobClass;

/// Aggregate statistics of one job class over a run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClassStats {
    /// Jobs of this class submitted.
    pub jobs: usize,
    pub completed: usize,
    pub killed: usize,
    /// Mean turnaround over completed jobs of this class, hours.
    pub avg_turnaround_h: f64,
    /// Mean queueing delay before first start, hours (completed jobs).
    pub avg_wait_h: f64,
    /// Jobs of this class preempted at least once (squatter evictions
    /// included).
    pub preempted_jobs: usize,
    /// Total preemption events absorbed by this class.
    pub preemption_events: u64,
}

/// The capability/capacity split of a run's job population.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClassBreakdown {
    pub capacity: ClassStats,
    pub capability: ClassStats,
}

/// One class's counts and exact sums: what its [`ClassStats`] is built
/// from.
#[derive(Debug, Clone, Copy, Default)]
struct ClassSums {
    jobs: usize,
    completed: usize,
    killed: usize,
    preempted_jobs: usize,
    preemption_events: u64,
    /// Turnaround and wait seconds over completed jobs.
    tat_secs: u128,
    wait_secs: u128,
}

hws_sim::snap_struct!(ClassSums {
    jobs,
    completed,
    killed,
    preempted_jobs,
    preemption_events,
    tat_secs,
    wait_secs,
});

/// Incremental per-class fold behind [`ClassBreakdown`]; order-free like
/// [`crate::MetricsAcc`].
#[derive(Debug, Clone, Default)]
pub struct ClassAcc {
    /// Per [`JobClass`], in declaration order.
    acc: [ClassSums; 2],
}

hws_sim::snap_struct!(ClassAcc { acc });

impl ClassAcc {
    /// Fold one (final) job record.
    pub fn push(&mut self, r: &JobRecord) {
        let slot = &mut self.acc[r.class as usize];
        slot.jobs += 1;
        if r.preemptions > 0 {
            slot.preempted_jobs += 1;
        }
        slot.preemption_events += u64::from(r.preemptions);
        if r.killed {
            slot.killed += 1;
            return;
        }
        if let Some(tat) = r.turnaround() {
            slot.completed += 1;
            add(&mut slot.tat_secs, u128::from(tat.as_secs()));
            if let Some(w) = r.wait() {
                add(&mut slot.wait_secs, u128::from(w.as_secs()));
            }
        }
    }

    /// Refuse a fold no session over `span_secs` reaches (see
    /// [`crate::MetricsAcc`]): every record folds into one class, so the
    /// classes hold exactly the `folded` jobs of the `MetricsAcc` beside
    /// them; each class's tallies are at most its jobs; and a completed
    /// job's turnaround and wait are at most the span.
    pub(crate) fn check(&self, span_secs: u64, folded: u128) -> Result<(), String> {
        let jobs: u128 = self.acc.iter().map(|s| s.jobs as u128).sum();
        if jobs != folded {
            return Err(format!(
                "class jobs {jobs} differ from the {folded} folded jobs"
            ));
        }
        let span = u128::from(span_secs);
        for s in &self.acc {
            let n = s.jobs as u128;
            check_counts(
                [s.completed, s.killed, s.preempted_jobs].map(|c| c as u128),
                n,
            )?;
            check_counts([s.preemption_events.into()], n * u128::from(u32::MAX))?;
            check_sum("class turnaround", s.tat_secs, s.completed, span)?;
            check_sum("class wait", s.wait_secs, s.completed, span)?;
        }
        Ok(())
    }

    pub fn finish(&self) -> ClassBreakdown {
        let finish = |s: ClassSums| ClassStats {
            jobs: s.jobs,
            completed: s.completed,
            killed: s.killed,
            avg_turnaround_h: mean(s.tat_secs as f64 / 3600.0, s.completed),
            avg_wait_h: mean(s.wait_secs as f64 / 3600.0, s.completed),
            preempted_jobs: s.preempted_jobs,
            preemption_events: s.preemption_events,
        };
        ClassBreakdown {
            capacity: finish(self.acc[JobClass::Capacity as usize]),
            capability: finish(self.acc[JobClass::Capability as usize]),
        }
    }
}

impl ClassBreakdown {
    /// Fold a recorder into the two per-class aggregates: the recorder's
    /// fold so far, continued over its live records.
    pub fn compute(rec: &Recorder) -> ClassBreakdown {
        let mut acc = rec.class_acc().clone();
        rec.live_records().for_each(|r| acc.push(r));
        acc.finish()
    }

    /// Whether the run saw any capability-class jobs at all.
    pub fn has_capability(&self) -> bool {
        self.capability.jobs > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TimelineEvent as E;
    use hws_sim::{SimDuration, SimTime};
    use hws_workload::{JobId, JobKind, NoticeCategory};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn splits_by_class() {
        let mut rec = Recorder::new(100, SimDuration::from_secs(120));
        rec.job_submitted_full(
            JobId(1),
            JobKind::Rigid,
            JobClass::Capability,
            10,
            t(0),
            NoticeCategory::NoNotice,
        );
        rec.record(t(3_600), JobId(1), &E::Started { size: 1 });
        rec.record(t(7_200), JobId(1), &E::Finished);
        rec.job_submitted(JobId(2), JobKind::Rigid, 10, t(0));
        rec.record(t(0), JobId(2), &E::Started { size: 1 });
        rec.record(t(0), JobId(2), &E::Preempted);
        rec.record(t(0), JobId(2), &E::Preempted);
        rec.record(t(3_600), JobId(2), &E::Finished);

        let b = ClassBreakdown::compute(&rec);
        assert!(b.has_capability());
        assert_eq!(b.capability.jobs, 1);
        assert_eq!(b.capability.completed, 1);
        assert!((b.capability.avg_turnaround_h - 2.0).abs() < 1e-9);
        assert!((b.capability.avg_wait_h - 1.0).abs() < 1e-9);
        assert_eq!(b.capability.preempted_jobs, 0);
        assert_eq!(b.capacity.jobs, 1);
        assert_eq!(b.capacity.preempted_jobs, 1);
        assert_eq!(b.capacity.preemption_events, 2);
    }

    #[test]
    fn pure_capacity_run_has_no_capability_side() {
        let mut rec = Recorder::new(10, SimDuration::from_secs(120));
        rec.job_submitted(JobId(1), JobKind::Malleable, 4, t(0));
        rec.record(t(0), JobId(1), &E::Started { size: 1 });
        rec.record(t(50), JobId(1), &E::Killed);
        let b = ClassBreakdown::compute(&rec);
        assert!(!b.has_capability());
        assert_eq!(b.capability, ClassStats::default());
        assert_eq!(b.capacity.killed, 1);
        assert_eq!(b.capacity.completed, 0);
    }
}
