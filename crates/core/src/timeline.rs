//! Observers of a run's job transitions, and the one shipped sink: a
//! [`Timeline`] log plus an ASCII Gantt renderer, for small scenarios where
//! *seeing* the schedule matters (e.g. the Fig. 2 CUA-vs-CUP comparison in
//! `examples/cua_vs_cup.rs`).

use hws_sim::SimTime;
use hws_workload::JobId;
use std::fmt::Debug;

pub use hws_metrics::TimelineEvent;

/// Receives every job transition of a run, right after the recorder folds
/// it. An observer is code, not data: snapshots never carry it, and a
/// what-if fork clones it with the rest of the engine.
pub trait Observer: Clone + Debug + Send {
    fn note(&mut self, _t: SimTime, _job: JobId, _ev: TimelineEvent) {}
}

/// The default observer: zero-sized, so a run without one compiles to
/// the recorder update alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoObserver;

impl Observer for NoObserver {}

/// One-character glyph for the Gantt lane.
fn glyph(ev: TimelineEvent) -> char {
    match ev {
        TimelineEvent::Submitted => '.',
        TimelineEvent::NoticeReceived => 'n',
        TimelineEvent::Started { .. } => '[',
        TimelineEvent::Preempted => 'x',
        TimelineEvent::DrainStarted => 'd',
        TimelineEvent::Shrunk { .. } => 'v',
        TimelineEvent::Expanded { .. } => '^',
        TimelineEvent::Finished => ']',
        TimelineEvent::Failed => '!',
        TimelineEvent::Killed => 'K',
    }
}

/// Chronological event log of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    pub entries: Vec<(SimTime, JobId, TimelineEvent)>,
}

impl Timeline {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Events of one job, in order.
    pub fn for_job(&self, job: JobId) -> impl Iterator<Item = &(SimTime, JobId, TimelineEvent)> {
        self.entries.iter().filter(move |(_, j, _)| *j == job)
    }

    /// Span covered by the log.
    pub fn span(&self) -> Option<(SimTime, SimTime)> {
        let first = self.entries.first()?.0;
        let last = self.entries.iter().map(|(t, _, _)| *t).max()?;
        Some((first, last))
    }

    /// Render an ASCII Gantt chart: one lane per job, `width` columns over
    /// the full span. Running intervals are drawn with `=`, drains with
    /// `~`; event glyphs mark transitions (`[` start, `]` finish, `x`
    /// preempt, `v`/`^` shrink/expand, `!` failure, `K` kill).
    pub fn render_gantt(&self, width: usize) -> String {
        let Some((t0, t1)) = self.span() else {
            return String::from("(empty timeline)\n");
        };
        let width = width.max(10);
        let span = (t1.as_secs() - t0.as_secs()).max(1);
        let col = |t: SimTime| -> usize {
            ((t.as_secs() - t0.as_secs()) as u128 * (width as u128 - 1) / span as u128) as usize
        };
        let mut jobs: Vec<JobId> = self.entries.iter().map(|(_, j, _)| *j).collect();
        jobs.sort();
        jobs.dedup();

        let mut out = String::new();
        out.push_str(&format!(
            "time: {t0} .. {t1} ({span} s across {width} cols)\n"
        ));
        for job in jobs {
            let mut lane = vec![' '; width];
            // Fill running segments first, then overlay glyphs.
            let mut run_start: Option<(usize, char)> = None;
            for (t, _, ev) in self.for_job(job) {
                let c = col(*t);
                match ev {
                    TimelineEvent::Started { .. } => run_start = Some((c, '=')),
                    TimelineEvent::DrainStarted => {
                        if let Some((s, _)) = run_start.take() {
                            for x in lane.iter_mut().take(c + 1).skip(s) {
                                *x = '=';
                            }
                        }
                        run_start = Some((c, '~'));
                    }
                    TimelineEvent::Finished
                    | TimelineEvent::Preempted
                    | TimelineEvent::Failed
                    | TimelineEvent::Killed => {
                        if let Some((s, fill)) = run_start.take() {
                            for x in lane.iter_mut().take(c + 1).skip(s) {
                                *x = fill;
                            }
                        }
                    }
                    _ => {}
                }
            }
            if let Some((s, fill)) = run_start {
                for x in lane.iter_mut().skip(s) {
                    *x = fill;
                }
            }
            for (t, _, ev) in self.for_job(job) {
                lane[col(*t)] = glyph(*ev);
            }
            out.push_str(&format!("{job:>6} |{}|\n", lane.iter().collect::<String>()));
        }
        out.push_str("legend: . submit  n notice  [ start  = running  v shrink  ^ expand\n");
        out.push_str("        x preempt  d/~ drain  ! failure  ] finish  K killed\n");
        out
    }
}

impl Observer for Timeline {
    fn note(&mut self, t: SimTime, job: JobId, ev: TimelineEvent) {
        self.entries.push((t, job, ev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn sample() -> Timeline {
        let mut tl = Timeline::new();
        tl.note(t(0), JobId(1), TimelineEvent::Submitted);
        tl.note(t(10), JobId(1), TimelineEvent::Started { size: 8 });
        tl.note(t(50), JobId(1), TimelineEvent::Preempted);
        tl.note(t(80), JobId(1), TimelineEvent::Started { size: 8 });
        tl.note(t(100), JobId(1), TimelineEvent::Finished);
        tl.note(t(20), JobId(2), TimelineEvent::Submitted);
        tl.note(t(20), JobId(2), TimelineEvent::Started { size: 4 });
        tl.note(t(60), JobId(2), TimelineEvent::Finished);
        tl
    }

    #[test]
    fn records_and_filters() {
        let tl = sample();
        assert_eq!(tl.len(), 8);
        assert_eq!(tl.for_job(JobId(1)).count(), 5);
        assert_eq!(tl.span(), Some((t(0), t(100))));
    }

    #[test]
    fn gantt_contains_a_lane_per_job() {
        let g = sample().render_gantt(60);
        assert!(g.contains("J1 |"));
        assert!(g.contains("J2 |"));
        assert!(g.contains("legend"));
    }

    #[test]
    fn gantt_marks_start_and_finish() {
        let g = sample().render_gantt(60);
        let lane1 = g
            .lines()
            .find(|l| l.trim_start().starts_with("J1"))
            .unwrap();
        assert!(lane1.contains('['));
        assert!(lane1.contains(']'));
        assert!(lane1.contains('x'));
        assert!(lane1.contains('='));
    }

    #[test]
    fn empty_timeline_renders_placeholder() {
        assert_eq!(Timeline::new().render_gantt(40), "(empty timeline)\n");
    }

    #[test]
    fn glyphs_are_distinct() {
        use TimelineEvent::*;
        let evs = [
            Submitted,
            NoticeReceived,
            Started { size: 1 },
            Preempted,
            DrainStarted,
            Shrunk { from: 2, to: 1 },
            Expanded { from: 1, to: 2 },
            Finished,
            Failed,
            Killed,
        ];
        let mut glyphs: Vec<char> = evs.into_iter().map(glyph).collect();
        glyphs.sort_unstable();
        glyphs.dedup();
        assert_eq!(glyphs.len(), evs.len());
    }

    #[test]
    fn single_instant_span_renders() {
        let mut tl = Timeline::new();
        tl.note(t(5), JobId(0), TimelineEvent::Submitted);
        let g = tl.render_gantt(40);
        assert!(g.contains("J0"));
    }
}
