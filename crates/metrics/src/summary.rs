//! Folding raw records into the paper's evaluation metrics, and averaging
//! across seeds.

use crate::record::{JobRecord, Recorder};
use hws_sim::snap::{SnapError, SnapReader, SnapWriter};
use hws_sim::SimDuration;
use hws_workload::{JobKind, NoticeCategory};

/// Per-class statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KindStats {
    pub completed: usize,
    pub avg_turnaround_h: f64,
    /// Share of jobs of this class preempted at least once.
    pub preemption_ratio: f64,
}

/// One simulation run's evaluation report (§IV-D).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Mean turnaround over all completed jobs, hours.
    pub avg_turnaround_h: f64,
    pub rigid: KindStats,
    pub on_demand: KindStats,
    pub malleable: KindStats,
    /// Share of on-demand jobs starting within the instant threshold of
    /// their arrival.
    pub instant_start_rate: f64,
    /// Share of on-demand jobs starting at exactly their arrival instant.
    pub strict_instant_rate: f64,
    /// Useful node-time over total elapsed node-time; "excludes wasted
    /// computation due to preemption".
    pub utilization: f64,
    /// Occupancy including waste (for cross-checks and ablations).
    pub raw_occupancy: f64,
    pub completed_jobs: usize,
    pub killed_jobs: usize,
    pub span_hours: f64,
    /// Mean queueing delay before the first start, hours.
    pub avg_wait_h: f64,
    /// Mean bounded slowdown (10-second runtime floor).
    pub avg_bounded_slowdown: f64,
    /// On-demand instant-start rate per notice category, in the order
    /// [no-notice, accurate, early, late]; NaN-free (0 when empty).
    pub instant_by_category: [f64; 4],
    /// Total failures absorbed (failure-injection extension).
    pub total_failures: u64,
}

/// Incremental fold of per-job records into the scalar state behind
/// [`Metrics`]. The push order is part of the bitwise-determinism
/// contract: the [`Recorder`] pushes records in submission order, each
/// as soon as it and every earlier submission have retired, and
/// [`Metrics::compute`] pushes the records still held in the same order.
#[derive(Debug, Clone)]
pub struct MetricsAcc {
    instant_threshold: SimDuration,
    sum_tat: f64,
    n_completed: usize,
    killed: usize,
    /// Per kind: (tat_sum, completed, preempted, total).
    per: [(f64, usize, usize, usize); 3],
    od_total: usize,
    od_instant: usize,
    od_strict: usize,
    wait_sum: f64,
    wait_n: usize,
    slow_sum: f64,
    slow_n: usize,
    cat_inst: [(usize, usize); 4],
    total_failures: u64,
}

impl MetricsAcc {
    /// `instant_threshold` is the start-delay bound under which an
    /// on-demand start counts as "instant" (the driver passes its
    /// two-minute vacate window).
    pub fn new(instant_threshold: SimDuration) -> Self {
        MetricsAcc {
            instant_threshold,
            sum_tat: 0.0,
            n_completed: 0,
            killed: 0,
            per: [(0.0, 0, 0, 0); 3],
            od_total: 0,
            od_instant: 0,
            od_strict: 0,
            wait_sum: 0.0,
            wait_n: 0,
            slow_sum: 0.0,
            slow_n: 0,
            cat_inst: [(0, 0); 4],
            total_failures: 0,
        }
    }

    /// Fold one (final) job record.
    pub fn push(&mut self, r: &JobRecord) {
        let idx = match r.kind {
            JobKind::Rigid => 0,
            JobKind::OnDemand => 1,
            JobKind::Malleable => 2,
        };
        self.per[idx].3 += 1;
        if r.preemptions > 0 {
            self.per[idx].2 += 1;
        }
        if r.killed {
            self.killed += 1;
            return;
        }
        self.total_failures += u64::from(r.failures);
        if let Some(tat) = r.turnaround() {
            let h = tat.as_hours_f64();
            self.sum_tat += h;
            self.n_completed += 1;
            self.per[idx].0 += h;
            self.per[idx].1 += 1;
        }
        if let Some(w) = r.wait() {
            self.wait_sum += w.as_hours_f64();
            self.wait_n += 1;
        }
        if let Some(s) = r.bounded_slowdown() {
            self.slow_sum += s;
            self.slow_n += 1;
        }
        if r.kind == JobKind::OnDemand {
            if let Some(delay) = r.start_delay {
                self.od_total += 1;
                let cat = match r.category {
                    NoticeCategory::NoNotice => 0,
                    NoticeCategory::Accurate => 1,
                    NoticeCategory::Early => 2,
                    NoticeCategory::Late => 3,
                };
                self.cat_inst[cat].1 += 1;
                if delay <= self.instant_threshold {
                    self.od_instant += 1;
                    self.cat_inst[cat].0 += 1;
                }
                if delay.is_zero() {
                    self.od_strict += 1;
                }
            }
        }
    }

    /// Write every sum and count; floats as bit patterns, so the fold
    /// round-trips exactly. The threshold is the session's, not the
    /// image's.
    pub(crate) fn encode_snap(&self, w: &mut SnapWriter) {
        w.put_f64(self.sum_tat);
        w.put_len(self.n_completed);
        w.put_len(self.killed);
        for &(tat, done, preempted, total) in &self.per {
            w.put_f64(tat);
            w.put_len(done);
            w.put_len(preempted);
            w.put_len(total);
        }
        w.put_len(self.od_total);
        w.put_len(self.od_instant);
        w.put_len(self.od_strict);
        w.put_f64(self.wait_sum);
        w.put_len(self.wait_n);
        w.put_f64(self.slow_sum);
        w.put_len(self.slow_n);
        for &(instant, n) in &self.cat_inst {
            w.put_len(instant);
            w.put_len(n);
        }
        w.put_u64(self.total_failures);
    }

    pub(crate) fn decode_snap(
        r: &mut SnapReader<'_>,
        instant_threshold: SimDuration,
    ) -> Result<Self, SnapError> {
        let mut a = MetricsAcc::new(instant_threshold);
        a.sum_tat = r.get_f64()?;
        a.n_completed = r.get_len()?;
        a.killed = r.get_len()?;
        for slot in &mut a.per {
            *slot = (r.get_f64()?, r.get_len()?, r.get_len()?, r.get_len()?);
        }
        a.od_total = r.get_len()?;
        a.od_instant = r.get_len()?;
        a.od_strict = r.get_len()?;
        a.wait_sum = r.get_f64()?;
        a.wait_n = r.get_len()?;
        a.slow_sum = r.get_f64()?;
        a.slow_n = r.get_len()?;
        for slot in &mut a.cat_inst {
            *slot = (r.get_len()?, r.get_len()?);
        }
        a.total_failures = r.get_u64()?;
        Ok(a)
    }

    /// Combine the folded per-job state with the recorder's run-level
    /// aggregates (span, occupancy) into the report.
    pub fn finish(&self, rec: &Recorder) -> Metrics {
        let instant_by_category = self
            .cat_inst
            .map(|(i, n)| if n > 0 { i as f64 / n as f64 } else { 0.0 });

        let kind_stats = |i: usize| KindStats {
            completed: self.per[i].1,
            avg_turnaround_h: if self.per[i].1 > 0 {
                self.per[i].0 / self.per[i].1 as f64
            } else {
                0.0
            },
            preemption_ratio: if self.per[i].3 > 0 {
                self.per[i].2 as f64 / self.per[i].3 as f64
            } else {
                0.0
            },
        };

        let (span_hours, capacity_ns) = match rec.span() {
            Some((a, b)) if b > a => {
                let span = b - a;
                (
                    span.as_hours_f64(),
                    u128::from(rec.system_size) * u128::from(span.as_secs()),
                )
            }
            _ => (0.0, 0),
        };
        let useful = rec
            .occupied_node_seconds()
            .saturating_sub(rec.wasted_node_seconds());
        let utilization = if capacity_ns > 0 {
            useful as f64 / capacity_ns as f64
        } else {
            0.0
        };
        let raw_occupancy = if capacity_ns > 0 {
            rec.occupied_node_seconds() as f64 / capacity_ns as f64
        } else {
            0.0
        };

        Metrics {
            avg_turnaround_h: if self.n_completed > 0 {
                self.sum_tat / self.n_completed as f64
            } else {
                0.0
            },
            rigid: kind_stats(0),
            on_demand: kind_stats(1),
            malleable: kind_stats(2),
            instant_start_rate: if self.od_total > 0 {
                self.od_instant as f64 / self.od_total as f64
            } else {
                0.0
            },
            strict_instant_rate: if self.od_total > 0 {
                self.od_strict as f64 / self.od_total as f64
            } else {
                0.0
            },
            utilization,
            raw_occupancy,
            completed_jobs: self.n_completed,
            killed_jobs: self.killed,
            span_hours,
            avg_wait_h: if self.wait_n > 0 {
                self.wait_sum / self.wait_n as f64
            } else {
                0.0
            },
            avg_bounded_slowdown: if self.slow_n > 0 {
                self.slow_sum / self.slow_n as f64
            } else {
                0.0
            },
            instant_by_category,
            total_failures: self.total_failures,
        }
    }
}

impl Metrics {
    /// Fold a recorder into the report: the recorder's fold so far,
    /// continued over the records it still holds in submission order.
    pub fn compute(rec: &Recorder) -> Metrics {
        let mut acc = rec.metrics_acc().clone();
        for r in rec.unfolded() {
            acc.push(r);
        }
        acc.finish(rec)
    }

    /// One-line human summary (examples, quick experiments).
    pub fn one_line(&self) -> String {
        format!(
            "TAT {:.1} h | util {:.1}% | instant {:.1}% | preempt r/m {:.1}%/{:.1}%",
            self.avg_turnaround_h,
            self.utilization * 100.0,
            self.instant_start_rate * 100.0,
            self.rigid.preemption_ratio * 100.0,
            self.malleable.preemption_ratio * 100.0,
        )
    }
}

/// Streaming average of [`Metrics`] across seeds (the paper repeats each
/// experiment on ten randomly generated traces and averages).
#[derive(Debug, Clone, Default)]
pub struct MetricsAvg {
    n: usize,
    sums: Vec<f64>,
}

impl MetricsAvg {
    pub fn new() -> Self {
        Self::default()
    }

    fn fields(m: &Metrics) -> Vec<f64> {
        vec![
            m.avg_turnaround_h,
            m.rigid.avg_turnaround_h,
            m.on_demand.avg_turnaround_h,
            m.malleable.avg_turnaround_h,
            m.instant_start_rate,
            m.strict_instant_rate,
            m.utilization,
            m.raw_occupancy,
            m.rigid.preemption_ratio,
            m.malleable.preemption_ratio,
            m.completed_jobs as f64,
            m.killed_jobs as f64,
            m.span_hours,
            m.rigid.completed as f64,
            m.on_demand.completed as f64,
            m.malleable.completed as f64,
            m.on_demand.preemption_ratio,
            m.avg_wait_h,
            m.avg_bounded_slowdown,
            m.instant_by_category[0],
            m.instant_by_category[1],
            m.instant_by_category[2],
            m.instant_by_category[3],
            m.total_failures as f64,
        ]
    }

    pub fn push(&mut self, m: &Metrics) {
        let f = Self::fields(m);
        if self.sums.is_empty() {
            self.sums = vec![0.0; f.len()];
        }
        for (s, v) in self.sums.iter_mut().zip(f) {
            *s += v;
        }
        self.n += 1;
    }

    pub fn count(&self) -> usize {
        self.n
    }

    /// The averaged report.
    ///
    /// # Panics
    ///
    /// Panics when no samples were pushed.
    pub fn mean(&self) -> Metrics {
        assert!(self.n > 0, "no samples");
        let a: Vec<f64> = self.sums.iter().map(|s| s / self.n as f64).collect();
        Metrics {
            avg_turnaround_h: a[0],
            rigid: KindStats {
                completed: a[13] as usize,
                avg_turnaround_h: a[1],
                preemption_ratio: a[8],
            },
            on_demand: KindStats {
                completed: a[14] as usize,
                avg_turnaround_h: a[2],
                preemption_ratio: a[16],
            },
            malleable: KindStats {
                completed: a[15] as usize,
                avg_turnaround_h: a[3],
                preemption_ratio: a[9],
            },
            instant_start_rate: a[4],
            strict_instant_rate: a[5],
            utilization: a[6],
            raw_occupancy: a[7],
            completed_jobs: a[10] as usize,
            killed_jobs: a[11] as usize,
            span_hours: a[12],
            avg_wait_h: a[17],
            avg_bounded_slowdown: a[18],
            instant_by_category: [a[19], a[20], a[21], a[22]],
            total_failures: a[23] as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hws_sim::SimTime;
    use hws_workload::JobId;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn recorder(system_size: u32) -> Recorder {
        Recorder::new(system_size, SimDuration::from_secs(120))
    }

    #[test]
    fn turnaround_and_instant_rates() {
        let mut rec = recorder(100);
        // Rigid job: 2 h turnaround.
        rec.job_submitted(JobId(1), JobKind::Rigid, 10, t(0));
        rec.job_started(JobId(1), t(600));
        rec.job_finished(JobId(1), t(7_200));
        // OD job: starts instantly.
        rec.job_submitted(JobId(2), JobKind::OnDemand, 10, t(100));
        rec.job_started(JobId(2), t(100));
        rec.job_finished(JobId(2), t(3_700));
        // OD job: starts after 10 minutes (not instant).
        rec.job_submitted(JobId(3), JobKind::OnDemand, 10, t(200));
        rec.job_started(JobId(3), t(800));
        rec.job_finished(JobId(3), t(4_400));
        rec.add_occupancy(100, SimDuration::from_secs(7_200));

        let m = Metrics::compute(&rec);
        assert_eq!(m.completed_jobs, 3);
        assert!((m.instant_start_rate - 0.5).abs() < 1e-9);
        assert!((m.strict_instant_rate - 0.5).abs() < 1e-9);
        assert!((m.rigid.avg_turnaround_h - 2.0).abs() < 1e-9);
        assert!((m.on_demand.avg_turnaround_h - 1.0833).abs() < 1e-3);
    }

    #[test]
    fn utilization_excludes_waste() {
        let mut rec = recorder(10);
        rec.job_submitted(JobId(1), JobKind::Rigid, 10, t(0));
        rec.job_started(JobId(1), t(0));
        rec.job_finished(JobId(1), t(1_000));
        // Fully occupied for the whole 1000 s span, 2000 node-s wasted.
        rec.add_occupancy(10, SimDuration::from_secs(1_000));
        rec.add_waste(2, SimDuration::from_secs(1_000));
        let m = Metrics::compute(&rec);
        assert!((m.raw_occupancy - 1.0).abs() < 1e-9);
        assert!((m.utilization - 0.8).abs() < 1e-9);
    }

    #[test]
    fn preemption_ratio_counts_jobs_not_events() {
        let mut rec = recorder(10);
        for id in 0..4u64 {
            rec.job_submitted(JobId(id), JobKind::Rigid, 1, t(0));
            rec.job_started(JobId(id), t(0));
            rec.job_finished(JobId(id), t(100));
        }
        rec.job_preempted(JobId(0));
        rec.job_preempted(JobId(0)); // double preemption still one job
        let m = Metrics::compute(&rec);
        assert!((m.rigid.preemption_ratio - 0.25).abs() < 1e-9);
    }

    #[test]
    fn killed_jobs_excluded_from_turnaround() {
        let mut rec = recorder(10);
        rec.job_submitted(JobId(1), JobKind::Rigid, 1, t(0));
        rec.job_started(JobId(1), t(0));
        rec.job_killed(JobId(1), t(100));
        rec.job_submitted(JobId(2), JobKind::Rigid, 1, t(0));
        rec.job_started(JobId(2), t(0));
        rec.job_finished(JobId(2), t(3_600));
        let m = Metrics::compute(&rec);
        assert_eq!(m.killed_jobs, 1);
        assert_eq!(m.completed_jobs, 1);
        assert!((m.avg_turnaround_h - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_recorder_yields_zeroes() {
        let rec = recorder(10);
        let m = Metrics::compute(&rec);
        assert_eq!(m.completed_jobs, 0);
        assert_eq!(m.utilization, 0.0);
        assert_eq!(m.instant_start_rate, 0.0);
    }

    #[test]
    fn mean_of_one_sample_reproduces_every_field() {
        // Distinct values in every slot: a swapped positional index in
        // `MetricsAvg::mean` puts a value in the wrong field.
        let kind = |c, base| KindStats {
            completed: c,
            avg_turnaround_h: base + 0.25,
            preemption_ratio: base + 0.5,
        };
        let m = Metrics {
            avg_turnaround_h: 1.5,
            rigid: kind(2, 3.0),
            on_demand: kind(4, 5.0),
            malleable: kind(6, 7.0),
            instant_start_rate: 8.5,
            strict_instant_rate: 9.5,
            utilization: 10.5,
            raw_occupancy: 11.5,
            completed_jobs: 12,
            killed_jobs: 13,
            span_hours: 14.5,
            avg_wait_h: 15.5,
            avg_bounded_slowdown: 16.5,
            instant_by_category: [17.5, 18.5, 19.5, 20.5],
            total_failures: 21,
        };
        let mut avg = MetricsAvg::new();
        avg.push(&m);
        assert_eq!(avg.mean(), m);
    }

    #[test]
    fn averaging_across_runs() {
        let mut rec1 = recorder(10);
        rec1.job_submitted(JobId(1), JobKind::Rigid, 1, t(0));
        rec1.job_started(JobId(1), t(0));
        rec1.job_finished(JobId(1), t(3_600));
        rec1.add_occupancy(10, SimDuration::from_secs(3_600));
        let m1 = Metrics::compute(&rec1);

        let mut rec2 = recorder(10);
        rec2.job_submitted(JobId(1), JobKind::Rigid, 1, t(0));
        rec2.job_started(JobId(1), t(0));
        rec2.job_finished(JobId(1), t(10_800));
        rec2.add_occupancy(5, SimDuration::from_secs(10_800));
        let m2 = Metrics::compute(&rec2);

        let mut avg = MetricsAvg::new();
        avg.push(&m1);
        avg.push(&m2);
        assert_eq!(avg.count(), 2);
        let m = avg.mean();
        assert!((m.avg_turnaround_h - 2.0).abs() < 1e-9); // (1 + 3) / 2
        assert!((m.utilization - 0.75).abs() < 1e-9); // (1.0 + 0.5) / 2
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn mean_of_empty_average_panics() {
        MetricsAvg::new().mean();
    }

    #[test]
    fn one_line_renders() {
        let rec = recorder(10);
        let m = Metrics::compute(&rec);
        assert!(m.one_line().contains("util"));
    }
}
