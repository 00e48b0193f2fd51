//! Folding raw records into the paper's evaluation metrics, and averaging
//! across seeds.

use crate::record::{JobRecord, Recorder};
use hws_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};
use hws_sim::SimDuration;
use hws_workload::JobKind;

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

/// A bounded slowdown is an `f64` of at least 1, so a whole number of
/// units of 2⁻⁵²: [`MetricsAcc`] sums it as `u128` units of this size.
const SLOW_UNIT: f64 = (1u64 << 52) as f64;

/// `s ≥ 1` as a whole number of 2⁻⁵² units, exactly: the lowest bit of
/// its 53-bit significand weighs at least 2⁻⁵², scaling by 2⁵² is exact
/// (a power of two), and the integer product fits a `u128` while
/// `s < 2⁷⁶` (a record's slowdown is below 2⁶¹).
pub(crate) fn slowdown_units(s: f64) -> u128 {
    (s * SLOW_UNIT) as u128
}

/// `sum += v`, panicking rather than wrapping. No session reaches the
/// panic: a turnaround or wait is below 2⁶⁴ s, so a seconds sum needs more
/// than 2⁶⁴ jobs to wrap; a slowdown is at most `max(turnaround / 10 s, 1)`,
/// so its unit sum wraps only past 2⁷⁶ summed slowdowns, i.e. about 2⁷⁹
/// job-seconds of turnaround (some 2·10¹⁶ job-years).
pub(crate) fn add(sum: &mut u128, v: u128) {
    *sum = sum.checked_add(v).expect("metric sum overflows u128");
}

/// The most jobs a decoded fold may hold: no count's `+= 1` then wraps,
/// and a seconds sum's bound `n · span` stays below 2⁹⁶.
const MAX_FOLDED: u128 = u32::MAX as u128;

/// The largest sum a decoded fold may hold: 2⁶⁴ slowdowns in 2⁻⁵² units,
/// far past any session. Where the bound `n · each` saturates, this leaves
/// [`add`] room for 2¹⁵ more of the largest slowdown a `u64` clock allows.
const MAX_SUM: u128 = 1 << 116;

/// Refuse `sum` of `n` terms if it exceeds `n · each`, the largest a real
/// session reaches, or [`MAX_SUM`]; over no terms that refuses any
/// non-zero sum.
pub(crate) fn check_sum(what: &str, sum: u128, n: usize, each: u128) -> Result<(), String> {
    let bound = (n as u128).saturating_mul(each).min(MAX_SUM);
    if sum > bound {
        return Err(format!("{what} sum {sum} over {n} jobs exceeds {bound}"));
    }
    Ok(())
}

/// Refuse a count above `max`.
pub(crate) fn check_counts(
    counts: impl IntoIterator<Item = u128>,
    max: u128,
) -> Result<(), String> {
    match counts.into_iter().find(|&c| c > max) {
        Some(c) => Err(format!("count {c} exceeds {max}")),
        None => Ok(()),
    }
}

/// `sum / n`, or 0 over no terms: every mean and rate rounds here, once.
pub(crate) fn mean(sum: f64, n: usize) -> f64 {
    if n > 0 {
        sum / n as f64
    } else {
        0.0
    }
}

/// Incremental fold of per-job records into the scalar state behind
/// [`Metrics`]. Every sum is an exact integer (seconds, and slowdowns in
/// 2⁻⁵² units), so the fold is order-free: the [`Recorder`] pushes each
/// record as its job retires, [`Metrics::compute`] pushes the live ones
/// in any order, and the report is the same bits.
#[derive(Debug, Clone, Default)]
pub struct MetricsAcc {
    instant_threshold: SimDuration,
    sums: Sums,
}

/// The counts and exact sums of a [`MetricsAcc`]. The overall turnaround
/// sum and completed count are not stored: they are the sums of the
/// per-kind ones.
#[derive(Debug, Clone, Default)]
struct Sums {
    killed: usize,
    /// Per kind, in [`JobKind`] declaration order: (turnaround seconds,
    /// completed, preempted, total).
    per: [(u128, usize, usize, usize); 3],
    od_total: usize,
    od_instant: usize,
    od_strict: usize,
    wait_secs: u128,
    wait_n: usize,
    /// Bounded slowdowns in units of 2⁻⁵² ([`slowdown_units`]).
    slow_units: u128,
    slow_n: usize,
    /// Per [`NoticeCategory`](hws_workload::NoticeCategory), in declaration
    /// order: (instant, total).
    cat_inst: [(usize, usize); 4],
    total_failures: u64,
}

hws_sim::snap_struct!(Sums {
    killed,
    per,
    od_total,
    od_instant,
    od_strict,
    wait_secs,
    wait_n,
    slow_units,
    slow_n,
    cat_inst,
    total_failures,
});

/// The image writes the overall turnaround sum and completed count ahead
/// of the sums they derive from, and decoding refuses an image whose
/// totals disagree with them. The threshold is the session's, not the
/// image's: decoding leaves it zero for the owner to set.
impl Snap for MetricsAcc {
    fn put(&self, w: &mut SnapWriter) {
        self.completed().put(w);
        self.sums.put(w);
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let at = r.pos();
        let totals = <(u128, usize)>::get(r)?;
        let sums = Sums::get(r)?;
        let acc = MetricsAcc {
            instant_threshold: SimDuration::ZERO,
            sums,
        };
        if acc.checked_completed() != Some(totals) {
            return Err(SnapError::new(
                at,
                format!(
                    "overall turnaround sum and completed count {totals:?} differ from the \
                     per-kind sums"
                ),
            ));
        }
        Ok(acc)
    }
}

impl MetricsAcc {
    /// `instant_threshold` is the start-delay bound under which an
    /// on-demand start counts as "instant" (the driver passes its
    /// two-minute vacate window).
    pub fn new(instant_threshold: SimDuration) -> Self {
        MetricsAcc {
            instant_threshold,
            ..Default::default()
        }
    }

    /// Fold under `instant_threshold` from here on.
    pub(crate) fn set_instant_threshold(&mut self, instant_threshold: SimDuration) {
        self.instant_threshold = instant_threshold;
    }

    /// Fold one (final) job record.
    pub fn push(&mut self, r: &JobRecord) {
        let s = &mut self.sums;
        let per = &mut s.per[r.kind as usize];
        per.3 += 1;
        if r.preemptions > 0 {
            per.2 += 1;
        }
        if r.killed {
            s.killed += 1;
            return;
        }
        s.total_failures += u64::from(r.failures);
        if let Some(tat) = r.turnaround() {
            add(&mut per.0, u128::from(tat.as_secs()));
            per.1 += 1;
        }
        if let Some(w) = r.wait() {
            add(&mut s.wait_secs, u128::from(w.as_secs()));
            s.wait_n += 1;
        }
        if let Some(b) = r.bounded_slowdown() {
            add(&mut s.slow_units, slowdown_units(b));
            s.slow_n += 1;
        }
        if r.kind == JobKind::OnDemand {
            if let Some(delay) = r.start_delay {
                s.od_total += 1;
                let cat = &mut s.cat_inst[r.category as usize];
                cat.1 += 1;
                if delay <= self.instant_threshold {
                    s.od_instant += 1;
                    cat.0 += 1;
                }
                if delay.is_zero() {
                    s.od_strict += 1;
                }
            }
        }
    }

    /// Turnaround seconds and count over every completed job: the sums of
    /// the per-kind ones, or `None` if they overflow.
    fn checked_completed(&self) -> Option<(u128, usize)> {
        self.sums
            .per
            .iter()
            .try_fold((0u128, 0usize), |(tat, n), p| {
                Some((tat.checked_add(p.0)?, n.checked_add(p.1)?))
            })
    }

    /// [`MetricsAcc::checked_completed`] of a fold: it cannot overflow,
    /// since each per-kind sum is itself below a bound no session reaches
    /// ([`add`]) and three of them fit a `u128`.
    fn completed(&self) -> (u128, usize) {
        self.checked_completed()
            .expect("per-kind turnaround sums overflow u128")
    }

    /// Refuse a fold no session over `span_secs` reaches, and return its
    /// jobs. Each record adds one to its kind's total, at most one to every
    /// other count and at most `u32::MAX` failures; at most [`MAX_FOLDED`]
    /// are folded. A folded record is final (finished or killed), so its
    /// turnaround and wait are at most the span, and its bounded slowdown
    /// at most `max(span / 10 s, 1)`: rounding is monotone, so the `f64`
    /// quotient of a smaller turnaround by a runtime of at least 10 s
    /// cannot exceed that of the span by 10 s.
    pub(crate) fn check(&self, span_secs: u64) -> Result<u128, String> {
        let s = &self.sums;
        let folded: u128 = s.per.iter().map(|p| p.3 as u128).sum();
        let tallies = [
            s.killed,
            s.od_total,
            s.od_instant,
            s.od_strict,
            s.wait_n,
            s.slow_n,
        ];
        let tallies = s.per.iter().flat_map(|p| [p.1, p.2]).chain(tallies);
        let tallies = tallies.chain(s.cat_inst.iter().flat_map(|c| [c.0, c.1]));
        check_counts([folded], MAX_FOLDED)?;
        check_counts(tallies.map(|c| c as u128), folded)?;
        check_counts([s.total_failures.into()], folded * u128::from(u32::MAX))?;
        let span = u128::from(span_secs);
        let slow_each = slowdown_units((span_secs as f64 / 10.0).max(1.0));
        for (k, &(tat, done, _, _)) in s.per.iter().enumerate() {
            check_sum(&format!("kind {k} turnaround"), tat, done, span)?;
        }
        check_sum("wait", s.wait_secs, s.wait_n, span)?;
        check_sum("slowdown", s.slow_units, s.slow_n, slow_each)?;
        Ok(folded)
    }

    /// Combine the folded per-job state with the recorder's run-level
    /// aggregates (span, occupancy) into the report. Each mean rounds
    /// once, from its exact sum.
    pub fn finish(&self, rec: &Recorder) -> Metrics {
        let s = &self.sums;
        let hours = |secs: u128, n: usize| mean(secs as f64 / 3600.0, n);
        let kind_stats = |(tat, done, preempted, total): (u128, usize, usize, usize)| KindStats {
            completed: done,
            avg_turnaround_h: hours(tat, done),
            preemption_ratio: mean(preempted as f64, total),
        };
        let (tat_secs, n_completed) = self.completed();

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
        let share = |ns: u128| {
            if capacity_ns > 0 {
                ns as f64 / capacity_ns as f64
            } else {
                0.0
            }
        };
        let occupied = rec.occupied_node_seconds();

        Metrics {
            avg_turnaround_h: hours(tat_secs, n_completed),
            rigid: kind_stats(s.per[JobKind::Rigid as usize]),
            on_demand: kind_stats(s.per[JobKind::OnDemand as usize]),
            malleable: kind_stats(s.per[JobKind::Malleable as usize]),
            instant_start_rate: mean(s.od_instant as f64, s.od_total),
            strict_instant_rate: mean(s.od_strict as f64, s.od_total),
            utilization: share(occupied.saturating_sub(rec.wasted_node_seconds())),
            raw_occupancy: share(occupied),
            completed_jobs: n_completed,
            killed_jobs: s.killed,
            span_hours,
            avg_wait_h: hours(s.wait_secs, s.wait_n),
            avg_bounded_slowdown: mean(s.slow_units as f64 / SLOW_UNIT, s.slow_n),
            instant_by_category: s.cat_inst.map(|(i, n)| mean(i as f64, n)),
            total_failures: s.total_failures,
        }
    }
}

impl Metrics {
    /// Fold a recorder into the report: the recorder's fold so far,
    /// continued over its live records.
    pub fn compute(rec: &Recorder) -> Metrics {
        let mut acc = rec.metrics_acc().clone();
        rec.live_records().for_each(|r| acc.push(r));
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
    use crate::TimelineEvent as E;
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
        rec.record(t(600), JobId(1), &E::Started { size: 1 });
        rec.record(t(7_200), JobId(1), &E::Finished);
        // OD job: starts instantly.
        rec.job_submitted(JobId(2), JobKind::OnDemand, 10, t(100));
        rec.record(t(100), JobId(2), &E::Started { size: 1 });
        rec.record(t(3_700), JobId(2), &E::Finished);
        // OD job: starts after 10 minutes (not instant).
        rec.job_submitted(JobId(3), JobKind::OnDemand, 10, t(200));
        rec.record(t(800), JobId(3), &E::Started { size: 1 });
        rec.record(t(4_400), JobId(3), &E::Finished);
        rec.add_occupancy(100, SimDuration::from_secs(7_200));

        let m = Metrics::compute(&rec);
        assert_eq!(m.completed_jobs, 3);
        assert!((m.instant_start_rate - 0.5).abs() < 1e-9);
        assert!((m.strict_instant_rate - 0.5).abs() < 1e-9);
        assert!((m.rigid.avg_turnaround_h - 2.0).abs() < 1e-9);
        assert!((m.on_demand.avg_turnaround_h - 1.0833).abs() < 1e-3);
    }

    #[test]
    fn slowdown_units_are_exact_at_the_edges() {
        let big = u64::MAX as f64 / 10.0; // no record's slowdown exceeds it
        for (s, units) in [
            (1.0, 1u128 << 52),
            (1.0 + f64::EPSILON, (1 << 52) + 1),
            // Near 2³⁰ the finest fraction is 2⁻²².
            ((1u64 << 30) as f64 + 2f64.powi(-22), (1 << 82) + (1 << 30)),
            ((1u64 << 30) as f64 - 0.375, (1 << 82) - (3 << 49)),
            ((1u64 << 60) as f64 + 256.0, (1 << 112) + (1 << 60)),
            (big, (big as u128) << 52),
        ] {
            assert_eq!(slowdown_units(s), units, "{s}");
            assert_eq!((units as f64 / SLOW_UNIT).to_bits(), s.to_bits(), "{s}");
        }
    }

    #[test]
    fn utilization_excludes_waste() {
        let mut rec = recorder(10);
        rec.job_submitted(JobId(1), JobKind::Rigid, 10, t(0));
        rec.record(t(0), JobId(1), &E::Started { size: 1 });
        rec.record(t(1_000), JobId(1), &E::Finished);
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
            rec.record(t(0), JobId(id), &E::Started { size: 1 });
            rec.record(t(100), JobId(id), &E::Finished);
        }
        rec.record(t(0), JobId(0), &E::Preempted);
        rec.record(t(0), JobId(0), &E::Preempted); // double preemption still one job
        let m = Metrics::compute(&rec);
        assert!((m.rigid.preemption_ratio - 0.25).abs() < 1e-9);
    }

    #[test]
    fn killed_jobs_excluded_from_turnaround() {
        let mut rec = recorder(10);
        rec.job_submitted(JobId(1), JobKind::Rigid, 1, t(0));
        rec.record(t(0), JobId(1), &E::Started { size: 1 });
        rec.record(t(100), JobId(1), &E::Killed);
        rec.job_submitted(JobId(2), JobKind::Rigid, 1, t(0));
        rec.record(t(0), JobId(2), &E::Started { size: 1 });
        rec.record(t(3_600), JobId(2), &E::Finished);
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
        rec1.record(t(0), JobId(1), &E::Started { size: 1 });
        rec1.record(t(3_600), JobId(1), &E::Finished);
        rec1.add_occupancy(10, SimDuration::from_secs(3_600));
        let m1 = Metrics::compute(&rec1);

        let mut rec2 = recorder(10);
        rec2.job_submitted(JobId(1), JobKind::Rigid, 1, t(0));
        rec2.record(t(0), JobId(1), &E::Started { size: 1 });
        rec2.record(t(10_800), JobId(1), &E::Finished);
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
