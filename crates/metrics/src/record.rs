//! Raw per-job and system-level measurements, populated by the simulation
//! driver through narrow callbacks.

use crate::classes::ClassAcc;
use crate::summary::MetricsAcc;
use hws_sim::{SimDuration, SimTime};
use hws_workload::{JobClass, JobId, JobKind, JobMap, NoticeCategory};
use std::collections::BTreeSet;

/// Everything measured about one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    pub kind: JobKind,
    /// Capability/capacity class (orthogonal to `kind`; `Capacity` for
    /// every job of the paper's two-class workload).
    pub class: JobClass,
    /// Requested size (the maximum for malleable jobs).
    pub size: u32,
    pub submit: SimTime,
    pub first_start: Option<SimTime>,
    pub finish: Option<SimTime>,
    /// Times this job was preempted (kills for rigid, warnings for
    /// malleable, squatter evictions included).
    pub preemptions: u32,
    /// Shrink operations applied while running.
    pub shrinks: u32,
    /// Expand operations applied while running.
    pub expands: u32,
    /// For on-demand jobs: `first_start - submit`.
    pub start_delay: Option<SimDuration>,
    /// Advance-notice category (meaningful for on-demand jobs).
    pub category: NoticeCategory,
    /// True when the job exceeded its runtime estimate and was killed.
    pub killed: bool,
    /// Node failures this job absorbed (failure-injection extension).
    pub failures: u32,
}

impl JobRecord {
    pub fn turnaround(&self) -> Option<SimDuration> {
        self.finish.map(|f| f.since(self.submit))
    }

    /// Queueing delay before the first start.
    pub fn wait(&self) -> Option<SimDuration> {
        self.first_start.map(|s| s.since(self.submit))
    }

    /// Bounded slowdown with the conventional 10-second runtime floor:
    /// `max(turnaround / max(runtime, 10 s), 1)`.
    pub fn bounded_slowdown(&self) -> Option<f64> {
        let tat = self.turnaround()?.as_secs() as f64;
        let run = self.finish?.since(self.first_start?).as_secs().max(10) as f64;
        Some((tat / run).max(1.0))
    }

    pub fn completed(&self) -> bool {
        self.finish.is_some() && !self.killed
    }
}

hws_sim::snap_struct!(JobRecord {
    kind,
    class,
    size,
    submit,
    first_start,
    finish,
    preemptions,
    shrinks,
    expands,
    start_delay,
    category,
    killed,
    failures,
});

/// One transition in a job's life. The driver reports each transition
/// once, to the [`Recorder`] and then to the run's observer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimelineEvent {
    Submitted,
    NoticeReceived,
    /// Run started on `size` nodes.
    Started {
        size: u32,
    },
    Preempted,
    /// Two-minute warning began.
    DrainStarted,
    Shrunk {
        from: u32,
        to: u32,
    },
    Expanded {
        from: u32,
        to: u32,
    },
    Finished,
    Failed,
    Killed,
}

/// Collects measurements during one simulation run.
///
/// A job's record lives from its submission until its job
/// [retires](Recorder::retire); it then folds into the metric accumulators
/// and leaves. The accumulators sum exact integers, so the fold is
/// order-free: resident records are exactly the live jobs, for a batch
/// replay and a long-lived service alike.
#[derive(Debug, Clone)]
pub struct Recorder {
    pub system_size: u32,
    acc: MetricsAcc,
    classes: ClassAcc,
    /// Records of submitted jobs that have not retired.
    live: JobMap<JobRecord>,
    /// Every job recorded as killed: a retired job's outcome outlives its
    /// record at O(killed jobs).
    killed: BTreeSet<JobId>,
    /// Node-seconds any job occupied (work + setup + checkpoint + drain).
    occupied_node_seconds: u128,
    /// Node-seconds of computation discarded because of preemption.
    wasted_node_seconds: u128,
    first_submit: Option<SimTime>,
    last_finish: Option<SimTime>,
}

impl Recorder {
    /// `instant_threshold` is the start-delay bound under which an
    /// on-demand start counts as "instant" (see [`MetricsAcc::new`]).
    pub fn new(system_size: u32, instant_threshold: SimDuration) -> Self {
        Recorder {
            system_size,
            acc: MetricsAcc::new(instant_threshold),
            classes: ClassAcc::default(),
            live: JobMap::default(),
            killed: BTreeSet::new(),
            occupied_node_seconds: 0,
            wasted_node_seconds: 0,
            first_submit: None,
            last_finish: None,
        }
    }

    /// Declare `id`'s record final: no further callback will reference it.
    /// The record folds into the accumulators and leaves. A no-op for an
    /// id that is not live (never submitted, or already retired).
    pub fn retire(&mut self, id: JobId) {
        if let Some(r) = self.live.remove(&id) {
            self.acc.push(&r);
            self.classes.push(&r);
        }
    }

    /// The fold of every record that has left the recorder.
    pub(crate) fn metrics_acc(&self) -> &MetricsAcc {
        &self.acc
    }

    /// The per-class fold of every record that has left the recorder.
    pub(crate) fn class_acc(&self) -> &ClassAcc {
        &self.classes
    }

    /// Records of live jobs, in no particular order.
    pub(crate) fn live_records(&self) -> impl Iterator<Item = &JobRecord> {
        self.live.values()
    }

    /// A capacity-class submission with no notice.
    pub fn job_submitted(&mut self, id: JobId, kind: JobKind, size: u32, t: SimTime) {
        let category = NoticeCategory::NoNotice;
        self.job_submitted_full(id, kind, JobClass::Capacity, size, t, category);
    }

    /// Full submission record, including the capability/capacity class
    /// and the notice category. A repeated id keeps its first record.
    pub fn job_submitted_full(
        &mut self,
        id: JobId,
        kind: JobKind,
        class: JobClass,
        size: u32,
        t: SimTime,
        category: NoticeCategory,
    ) {
        self.first_submit = Some(self.first_submit.map_or(t, |f| f.min(t)));
        self.live.entry(id).or_insert(JobRecord {
            kind,
            class,
            size,
            submit: t,
            first_start: None,
            finish: None,
            preemptions: 0,
            shrinks: 0,
            expands: 0,
            start_delay: None,
            category,
            killed: false,
            failures: 0,
        });
    }

    /// Fold `id`'s transition `ev` at `t` into its record. Submission
    /// goes through [`Self::job_submitted_full`], which needs the spec;
    /// `Submitted`, `NoticeReceived` and `DrainStarted` change no record.
    pub fn record(&mut self, t: SimTime, id: JobId, ev: &TimelineEvent) {
        use TimelineEvent::*;
        match *ev {
            Started { .. } => {
                let r = self.rec(id);
                if r.first_start.is_none() {
                    r.first_start = Some(t);
                    if r.kind == JobKind::OnDemand {
                        r.start_delay = Some(t.since(r.submit));
                    }
                }
            }
            Preempted => self.rec(id).preemptions += 1,
            Shrunk { .. } => self.rec(id).shrinks += 1,
            Expanded { .. } => self.rec(id).expands += 1,
            Failed => self.rec(id).failures += 1,
            Finished | Killed => {
                let r = self.rec(id);
                r.finish = Some(t);
                if *ev == Killed {
                    r.killed = true;
                    self.killed.insert(id);
                }
                self.last_finish = Some(self.last_finish.map_or(t, |f| f.max(t)));
            }
            Submitted | NoticeReceived | DrainStarted => {}
        }
    }

    /// Account `nodes × dur` of node occupancy.
    pub fn add_occupancy(&mut self, nodes: u32, dur: SimDuration) {
        self.occupied_node_seconds += u128::from(nodes) * u128::from(dur.as_secs());
    }

    /// Account computation discarded due to preemption.
    pub fn add_waste(&mut self, nodes: u32, dur: SimDuration) {
        self.wasted_node_seconds += u128::from(nodes) * u128::from(dur.as_secs());
    }

    fn rec(&mut self, id: JobId) -> &mut JobRecord {
        self.live
            .get_mut(&id)
            .unwrap_or_else(|| panic!("{id} was never submitted or has retired"))
    }

    /// The record of a submitted job that has not retired yet; `None`
    /// once it retires.
    pub fn get(&self, id: JobId) -> Option<&JobRecord> {
        self.live.get(&id)
    }

    /// Whether `id` was recorded as killed (it may have retired since).
    pub fn was_killed(&self, id: JobId) -> bool {
        self.killed.contains(&id)
    }

    /// Records held: one per submitted job that has not retired.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    pub fn occupied_node_seconds(&self) -> u128 {
        self.occupied_node_seconds
    }

    pub fn wasted_node_seconds(&self) -> u128 {
        self.wasted_node_seconds
    }

    pub fn span(&self) -> Option<(SimTime, SimTime)> {
        Some((self.first_submit?, self.last_finish?))
    }

    /// Fold under `instant_threshold` from here on: a decoded recorder
    /// folds under the restoring session's threshold, which the image does
    /// not carry.
    pub fn set_instant_threshold(&mut self, instant_threshold: SimDuration) {
        self.acc.set_instant_threshold(instant_threshold);
    }

    /// Refuse counts and sums no session over the recorder's span (first
    /// submission to last finish) reaches, so later folds cannot overflow.
    /// Node-second totals are bounded by the system size times the whole
    /// clock, not by the span: a drain warning accrues occupancy ahead of
    /// the clock.
    fn check_folds(&self) -> Result<(), String> {
        let most = u128::from(self.system_size) * u128::from(u64::MAX);
        if self.occupied_node_seconds.max(self.wasted_node_seconds) > most {
            let n = self.system_size;
            return Err(format!(
                "node-seconds beyond {n} nodes over the whole clock"
            ));
        }
        let span = self.span().map_or(0, |(a, b)| b.0.saturating_sub(a.0));
        let folded = self.acc.check(span)?;
        self.classes.check(span, folded)
    }
}

// The folds, the live records and killed ids in ascending id order, and
// the run-level totals: identical states encode to identical bytes
// whatever order their jobs retired in. A decoded recorder folds under a
// zero instant threshold until [`Recorder::set_instant_threshold`].
hws_sim::snap_struct!(Recorder {
    system_size,
    acc,
    classes,
    live: "live record",
    killed: "killed",
    occupied_node_seconds,
    wasted_node_seconds,
    first_submit,
    last_finish,
} check Recorder::check_folds);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassBreakdown, Metrics};
    use hws_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};
    use TimelineEvent as E;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn recorder(system_size: u32) -> Recorder {
        Recorder::new(system_size, SimDuration::from_secs(120))
    }

    #[test]
    fn lifecycle_is_tracked() {
        let mut r = recorder(100);
        r.job_submitted(JobId(1), JobKind::Rigid, 10, t(100));
        r.record(t(200), JobId(1), &E::Started { size: 1 });
        r.record(t(300), JobId(1), &E::Preempted);
        r.record(t(400), JobId(1), &E::Started { size: 1 }); // restart does not move first_start
        r.record(t(900), JobId(1), &E::Finished);
        let rec = r.get(JobId(1)).unwrap();
        assert_eq!(rec.first_start, Some(t(200)));
        assert_eq!(rec.preemptions, 1);
        assert_eq!(rec.turnaround(), Some(SimDuration::from_secs(800)));
        assert!(rec.completed());
        assert_eq!(r.span(), Some((t(100), t(900))));
    }

    #[test]
    fn on_demand_start_delay() {
        let mut r = recorder(100);
        r.job_submitted(JobId(2), JobKind::OnDemand, 10, t(1_000));
        r.record(t(1_090), JobId(2), &E::Started { size: 1 });
        assert_eq!(
            r.get(JobId(2)).unwrap().start_delay,
            Some(SimDuration::from_secs(90))
        );
    }

    #[test]
    fn rigid_jobs_have_no_start_delay_metric() {
        let mut r = recorder(100);
        r.job_submitted(JobId(3), JobKind::Rigid, 10, t(0));
        r.record(t(50), JobId(3), &E::Started { size: 1 });
        assert_eq!(r.get(JobId(3)).unwrap().start_delay, None);
    }

    #[test]
    fn occupancy_and_waste_accumulate() {
        let mut r = recorder(100);
        r.add_occupancy(10, SimDuration::from_secs(100));
        r.add_occupancy(5, SimDuration::from_secs(10));
        r.add_waste(3, SimDuration::from_secs(7));
        assert_eq!(r.occupied_node_seconds(), 1_050);
        assert_eq!(r.wasted_node_seconds(), 21);
    }

    #[test]
    fn killed_jobs_are_not_completed() {
        let mut r = recorder(100);
        r.job_submitted(JobId(4), JobKind::Rigid, 10, t(0));
        r.record(t(1), JobId(4), &E::Started { size: 1 });
        r.record(t(100), JobId(4), &E::Killed);
        let rec = r.get(JobId(4)).unwrap();
        assert!(rec.killed);
        assert!(!rec.completed());
        assert!(rec.finish.is_some());
        r.retire(JobId(4));
        assert!(r.was_killed(JobId(4)), "the outcome outlives the record");
    }

    #[test]
    #[should_panic(expected = "never submitted")]
    fn starting_unknown_job_panics() {
        let mut r = recorder(1);
        r.record(t(0), JobId(9), &E::Started { size: 1 });
    }

    /// Two jobs submitted out of id order (J2 before J1), each run to
    /// completion; `retire` only after both finished when `retire` is set.
    fn out_of_order(retire: bool) -> Recorder {
        let mut r = recorder(10);
        r.job_submitted(JobId(2), JobKind::Rigid, 4, t(50));
        r.job_submitted(JobId(1), JobKind::OnDemand, 2, t(100));
        r.record(t(60), JobId(2), &E::Started { size: 1 });
        r.record(t(100), JobId(1), &E::Started { size: 1 });
        r.record(t(400), JobId(1), &E::Finished);
        r.record(t(700), JobId(2), &E::Finished);
        if retire {
            // J1 retires first, before J2 (submitted earlier), and leaves
            // at once.
            r.retire(JobId(1));
            assert_eq!(r.len(), 1, "J1 folds the moment it retires");
            assert_eq!(r.get(JobId(1)), None, "a retired job has no live record");
            r.retire(JobId(2));
            r.retire(JobId(9)); // never submitted: a no-op
        }
        r
    }

    #[test]
    fn records_fold_as_their_jobs_retire() {
        let folded = out_of_order(true);
        assert!(folded.is_empty(), "every retired record folds and leaves");
        let held = out_of_order(false);
        assert_eq!(held.len(), 2);
        // Folding as jobs retire is the fold `compute` runs over records
        // still held, bitwise.
        assert_eq!(Metrics::compute(&folded), Metrics::compute(&held));
        assert_eq!(
            ClassBreakdown::compute(&folded),
            ClassBreakdown::compute(&held)
        );
    }

    /// J3 and J5 (killed) folded, J7 and J9 (unstarted) live.
    fn busy_recorder() -> Recorder {
        let mut r = recorder(128);
        r.job_submitted_full(
            JobId(3),
            JobKind::OnDemand,
            JobClass::Capability,
            16,
            t(50),
            NoticeCategory::Early,
        );
        r.job_submitted(JobId(7), JobKind::Malleable, 32, t(60));
        r.job_submitted(JobId(5), JobKind::Rigid, 8, t(65));
        r.job_submitted(JobId(9), JobKind::Rigid, 4, t(90));
        r.record(t(55), JobId(3), &E::Started { size: 1 });
        r.record(t(80), JobId(7), &E::Started { size: 1 });
        r.record(t(85), JobId(5), &E::Started { size: 1 });
        r.record(t(90), JobId(7), &E::Shrunk { from: 32, to: 16 });
        r.record(t(95), JobId(7), &E::Expanded { from: 16, to: 32 });
        r.record(t(100), JobId(7), &E::Preempted);
        r.record(t(110), JobId(7), &E::Failed);
        r.record(t(500), JobId(3), &E::Finished);
        r.record(t(600), JobId(5), &E::Killed);
        r.retire(JobId(5));
        r.retire(JobId(3));
        r.add_occupancy(16, SimDuration::from_secs(445));
        r.add_waste(4, SimDuration::from_secs(20));
        assert_eq!(r.len(), 2, "J7 and J9 live");
        r
    }

    fn encode(r: &Recorder) -> Vec<u8> {
        let mut w = SnapWriter::new();
        r.put(&mut w);
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<Recorder, SnapError> {
        let mut rd = SnapReader::new(bytes);
        let mut r = <Recorder as Snap>::get(&mut rd)?;
        rd.expect_end()?;
        r.set_instant_threshold(SimDuration::from_secs(120));
        Ok(r)
    }

    /// Finish the busy recorder's live jobs and retire everything.
    fn drain(r: &mut Recorder) {
        r.record(t(900), JobId(7), &E::Finished);
        r.record(t(900), JobId(9), &E::Started { size: 1 });
        r.record(t(950), JobId(9), &E::Finished);
        r.retire(JobId(9));
        r.retire(JobId(7));
    }

    #[test]
    fn snap_codec_round_trips_every_field() {
        let mut r = busy_recorder();
        let bytes = encode(&r);
        let mut back = decode(&bytes).expect("decodes");
        assert_eq!(back.system_size, r.system_size);
        assert_eq!(back.len(), r.len());
        for id in [3, 5, 7, 9].map(JobId) {
            assert_eq!(back.get(id), r.get(id), "{id}");
            assert_eq!(back.was_killed(id), r.was_killed(id), "{id}");
        }
        assert_eq!(back.occupied_node_seconds(), r.occupied_node_seconds());
        assert_eq!(back.wasted_node_seconds(), r.wasted_node_seconds());
        assert_eq!(back.span(), r.span());
        assert_eq!(encode(&back), bytes, "re-encode must reproduce the bytes");
        assert_eq!(Metrics::compute(&back), Metrics::compute(&r));
        // The decoded fold continues bitwise like the original.
        drain(&mut r);
        drain(&mut back);
        assert!(back.is_empty());
        assert_eq!(Metrics::compute(&back), Metrics::compute(&r));
        assert_eq!(ClassBreakdown::compute(&back), ClassBreakdown::compute(&r));
        assert_eq!(encode(&back), encode(&r));
    }

    #[test]
    fn snap_decode_rejects_truncation() {
        let bytes = encode(&busy_recorder());
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode cleanly"
            );
        }
    }

    /// Offsets of the live-record ids in `r`'s image, in image order.
    fn live_id_offsets(r: &Recorder) -> Vec<usize> {
        let mut w = SnapWriter::new();
        r.system_size.put(&mut w);
        r.acc.put(&mut w);
        r.classes.put(&mut w);
        let mut at = w.len() + 8;
        let mut ids: Vec<JobId> = r.live.keys().copied().collect();
        ids.sort_unstable();
        let mut offsets = Vec::new();
        for id in ids {
            offsets.push(at);
            let mut w = SnapWriter::new();
            r.live[&id].put(&mut w);
            at += 8 + w.len();
        }
        offsets
    }

    #[test]
    fn snap_decode_rejects_unsorted_or_duplicated_live_ids() {
        let r = busy_recorder();
        let bytes = encode(&r);
        let [_, j9] = live_id_offsets(&r)[..] else {
            panic!("J7 and J9 are live");
        };
        assert_eq!(bytes[j9..j9 + 8], 9u64.to_le_bytes());
        for (id, why) in [(7u64, "duplicated"), (6, "unsorted")] {
            let mut bad = bytes.clone();
            bad[j9..j9 + 8].copy_from_slice(&id.to_le_bytes());
            let err = decode(&bad).expect_err(why);
            assert!(
                err.to_string()
                    .contains("live record ids not strictly ascending"),
                "{why}: {err}"
            );
        }
    }

    #[test]
    fn snap_decode_refuses_sums_no_session_reaches() {
        // After the system size (4 bytes) come the overall turnaround sum
        // and completed count (16 + 8), the killed count (8) and the
        // rigid kind's (turnaround, completed, preempted, total) (16 + 24);
        // the on-demand kind's turnaround sum follows. The busy recorder's
        // span is 50..600 s.
        let (total, od) = (4..20, 76..92);
        let bytes = encode(&busy_recorder());
        assert_eq!(bytes[od.clone()], 450u128.to_le_bytes(), "J3's turnaround");
        let mut bad = bytes.clone();
        bad[od.clone()].copy_from_slice(&u128::MAX.to_le_bytes());
        bad[total.clone()].copy_from_slice(&u128::MAX.to_le_bytes());
        let err = decode(&bad).expect_err("a turnaround sum at u128::MAX");
        assert!(err.to_string().contains("turnaround sum"), "{err}");
        // One folded completion (J3, 450 s) over a 550 s span: 551 s is
        // out of reach, 550 s is not.
        for (sum, ok) in [(550u128, true), (551, false)] {
            bad[od.clone()].copy_from_slice(&sum.to_le_bytes());
            bad[total.clone()].copy_from_slice(&sum.to_le_bytes());
            assert_eq!(decode(&bad).is_ok(), ok, "turnaround sum {sum}");
        }
        // The written totals must be the per-kind sums they derive from.
        for (field, value) in [(total.clone(), 451u128), (20..28, 2)] {
            let mut bad = bytes.clone();
            let n = field.len();
            bad[field].copy_from_slice(&value.to_le_bytes()[..n]);
            let err = decode(&bad).expect_err("totals that differ from the per-kind sums");
            assert!(
                err.to_string().contains("differ from the per-kind sums"),
                "{err}"
            );
        }
        // A sum over no jobs must be 0.
        let mut w = SnapWriter::new();
        recorder(8).put(&mut w);
        let mut bad = w.into_bytes();
        bad[4] = 1;
        bad[36] = 1;
        let err = decode(&bad).expect_err("a sum over no jobs");
        assert!(err.to_string().contains("over 0 jobs"), "{err}");
        // Every class sum is checked too: the capability class's
        // turnaround sum sits after the capacity class and four counts.
        let r = busy_recorder();
        let mut w = SnapWriter::new();
        r.system_size.put(&mut w);
        r.acc.put(&mut w);
        let at = w.len() + (4 * 8 + 8 + 32) + 4 * 8 + 8;
        let mut bad = bytes.clone();
        assert_eq!(bad[at..at + 16], 450u128.to_le_bytes(), "J3's turnaround");
        bad[at..at + 16].copy_from_slice(&u128::MAX.to_le_bytes());
        let err = decode(&bad).expect_err("a class sum at u128::MAX");
        assert!(err.to_string().contains("class turnaround sum"), "{err}");
    }

    #[test]
    fn a_restored_fold_at_its_limits_keeps_folding() {
        // Offsets in the busy recorder's image, past the system size (4)
        // and the written totals (24): the killed count (8), then per kind
        // (turnaround 16, completed, preempted, total) with the rigid
        // total at 68, three on-demand counts, the wait sum at 180 and its
        // count, the slowdown sum at 204 and its count, the notice tallies
        // and the failure total at 292; the capacity class's job count
        // opens the class sums at 300. The last finish ends the image.
        let bytes = encode(&busy_recorder());
        let (rigid_total, wait, slow, failures, capacity_jobs) = (68, 180, 204, 292, 300);
        let last = bytes.len() - 8;
        let at = |b: &[u8], i: usize| u64::from_le_bytes(b[i..i + 8].try_into().unwrap());
        assert_eq!(at(&bytes, rigid_total), 1, "J5");
        assert_eq!(at(&bytes, capacity_jobs), 1, "J5");
        assert_eq!(at(&bytes, wait + 16), 1, "J3's wait");
        assert_eq!(at(&bytes, slow + 16), 1, "J3's slowdown");
        assert_eq!(at(&bytes, last), 600, "J5's kill");
        let set = |b: &mut [u8], i: usize, v: &[u8]| b[i..i + v.len()].copy_from_slice(v);

        // The largest fold an image may hold: 2³² − 1 jobs (J3 and
        // 2³² − 2 rigid capacity jobs), a span up to the clock's end, the
        // wait sum at `n · span` and the slowdown sum at 2¹¹⁶.
        let max = u64::from(u32::MAX);
        let mut edge = bytes.clone();
        set(&mut edge, rigid_total, &(max - 1).to_le_bytes());
        set(&mut edge, capacity_jobs, &(max - 1).to_le_bytes());
        set(&mut edge, last, &u64::MAX.to_le_bytes());
        set(&mut edge, wait + 16, &max.to_le_bytes());
        let wait_max = u128::from(max) * u128::from(u64::MAX - 50);
        set(&mut edge, wait, &wait_max.to_le_bytes());
        set(&mut edge, slow + 16, &max.to_le_bytes());
        set(&mut edge, slow, &(1u128 << 116).to_le_bytes());
        set(&mut edge, failures, &(max * max).to_le_bytes());
        let mut r = decode(&edge).expect("a fold at every limit restores");
        // One more job with the largest turnaround, wait and slowdown the
        // clock allows folds without overflow.
        r.job_submitted(JobId(11), JobKind::Rigid, 1, t(0));
        r.record(t(u64::MAX - 10), JobId(11), &E::Started { size: 1 });
        r.record(t(u64::MAX - 5), JobId(11), &E::Failed);
        r.record(t(u64::MAX), JobId(11), &E::Finished);
        r.retire(JobId(11));
        let m = Metrics::compute(&r);
        assert_eq!(m.rigid.completed, 1);
        ClassBreakdown::compute(&r);

        // One past any limit is refused at restore, never at a later fold.
        let beyond: [(usize, Vec<u8>, &str); 7] = [
            (
                rigid_total,
                max.to_le_bytes().into(),
                "count 4294967296 exceeds",
            ),
            (capacity_jobs, (max - 2).to_le_bytes().into(), "class jobs"),
            (
                wait + 16,
                u64::MAX.to_le_bytes().into(),
                "count 18446744073709551615",
            ),
            (wait, (wait_max + 1).to_le_bytes().into(), "wait sum"),
            (
                slow,
                ((1u128 << 116) + 1).to_le_bytes().into(),
                "slowdown sum",
            ),
            (slow, (u128::MAX - 1).to_le_bytes().into(), "slowdown sum"),
            (
                failures,
                (max * max + 1).to_le_bytes().into(),
                "count 18446744065119617026",
            ),
        ];
        for (i, v, what) in beyond {
            let mut bad = edge.clone();
            set(&mut bad, i, &v);
            let err = decode(&bad).expect_err(what);
            assert!(err.to_string().contains(what), "{what}: {err}");
        }
        // A count at u64::MAX over the largest span and a sum just under
        // u128::MAX, on the busy recorder as written.
        let mut bad = bytes.clone();
        set(&mut bad, wait + 16, &u64::MAX.to_le_bytes());
        set(&mut bad, last, &u64::MAX.to_le_bytes());
        set(&mut bad, wait, &(u128::MAX - 1).to_le_bytes());
        decode(&bad).expect_err("a count no fold reaches");
    }

    #[test]
    fn snap_decode_refuses_node_seconds_no_machine_accrues() {
        let mut r = recorder(8);
        r.occupied_node_seconds = u128::MAX;
        let err = decode(&encode(&r)).expect_err("occupied node-seconds at u128::MAX");
        assert!(
            err.to_string().contains("node-seconds beyond 8 nodes"),
            "{err}"
        );
        // 8 nodes over the whole clock is the most either total may hold.
        let most = 8 * u128::from(u64::MAX);
        r.occupied_node_seconds = most;
        r.wasted_node_seconds = most + 1;
        decode(&encode(&r)).expect_err("wasted node-seconds past the bound");
        // At the bound the totals restore and keep accruing.
        r.wasted_node_seconds = most;
        let mut back = decode(&encode(&r)).expect("totals at the bound restore");
        back.add_occupancy(8, SimDuration::from_secs(u64::MAX));
        back.add_waste(8, SimDuration::from_secs(u64::MAX));
        assert_eq!(back.occupied_node_seconds(), 2 * most);
        assert_eq!(back.wasted_node_seconds(), 2 * most);
    }

    mod order_free {
        use super::*;
        use proptest::prelude::*;

        /// SplitMix64 Fisher–Yates: a permutation of `0..n` per seed.
        fn permutation(n: usize, mut seed: u64) -> Vec<usize> {
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                order.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
            }
            order
        }

        /// (kind, class, submit, wait, run, preemptions, killed).
        type Job = (u8, u8, u64, u64, u64, u32, bool);

        /// Submit and run `jobs` (J0, J1, ... in order), then retire the
        /// first `retired` of them in `order`.
        fn session(jobs: &[Job], order: &[usize], retired: usize) -> Recorder {
            let mut r = recorder(64);
            for (i, &(kind, class, submit, wait, run, preemptions, killed)) in
                jobs.iter().enumerate()
            {
                let id = JobId(i as u64);
                let kind = [JobKind::Rigid, JobKind::OnDemand, JobKind::Malleable][kind as usize];
                let class = [JobClass::Capacity, JobClass::Capability][class as usize];
                r.job_submitted_full(id, kind, class, 4, t(submit), NoticeCategory::Late);
                r.record(t(submit + wait), id, &E::Started { size: 1 });
                (0..preemptions).for_each(|_| r.record(t(submit + wait), id, &E::Preempted));
                if killed {
                    r.record(t(submit + wait + run), id, &E::Killed);
                } else {
                    r.record(t(submit + wait + run), id, &E::Finished);
                }
            }
            for &i in &order[..retired] {
                r.retire(JobId(i as u64));
            }
            r
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Retiring the same records in two random orders gives the
            /// same report, class breakdown and image bits, whether all or
            /// some of them retired; the image decodes (its sums are in
            /// reach) and re-encodes to the same bytes.
            #[test]
            fn retirement_order_does_not_move_a_bit(
                jobs in proptest::collection::vec(
                    (0..3u8, 0..2u8, 0..50_000u64, 0..20_000u64, 0..90_000u64, 0..3u32, any::<bool>()),
                    1..40,
                ),
                seeds in (0..u64::MAX, 0..u64::MAX),
                retired_pct in 0..=100usize,
            ) {
                let retired = jobs.len() * retired_pct / 100;
                let a = session(&jobs, &permutation(jobs.len(), seeds.0), jobs.len());
                let b = session(&jobs, &permutation(jobs.len(), seeds.1), jobs.len());
                prop_assert!(a.is_empty());
                prop_assert_eq!(Metrics::compute(&a), Metrics::compute(&b));
                prop_assert_eq!(ClassBreakdown::compute(&a), ClassBreakdown::compute(&b));
                prop_assert_eq!(encode(&a), encode(&b));
                let a = session(&jobs, &permutation(jobs.len(), seeds.0), retired);
                let b = session(&jobs, &permutation(jobs.len(), seeds.1), retired);
                prop_assert_eq!(Metrics::compute(&a), Metrics::compute(&b));
                prop_assert_eq!(ClassBreakdown::compute(&a), ClassBreakdown::compute(&b));
                let bytes = encode(&a);
                let back = decode(&bytes).expect("a real session's image decodes");
                prop_assert_eq!(encode(&back), bytes);
                prop_assert_eq!(Metrics::compute(&back), Metrics::compute(&a));
            }
        }
    }
}
