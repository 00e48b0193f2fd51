//! Queue-ordering policies. The paper's experiments use FCFS (+EASY); the
//! mechanisms are explicitly designed to compose with any waiting-job
//! policy, so a few common alternatives are provided and exercised by the
//! ablation benches.

use hws_sim::SimTime;
use hws_workload::JobSpec;
use std::cmp::Ordering;

/// Built-in queue policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// First-come-first-serve by (original) submission time.
    Fcfs,
    /// Shortest (estimated) job first.
    Sjf,
    /// Largest job (by node count) first.
    Ljf,
    /// The WFP3 priority of Tang et al.: `(wait/estimate)^3 × size`,
    /// favouring jobs that have waited long relative to their length.
    Wfp3,
}

impl PolicyKind {
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::Fcfs,
        PolicyKind::Sjf,
        PolicyKind::Ljf,
        PolicyKind::Wfp3,
    ];

    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Fcfs => "FCFS",
            PolicyKind::Sjf => "SJF",
            PolicyKind::Ljf => "LJF",
            PolicyKind::Wfp3 => "WFP3",
        }
    }

    /// Whether the policy's score depends on the evaluation instant (an
    /// *aging* policy). Static policies (`false`) produce keys that stay
    /// valid for as long as a job waits, so the driver's maintained queue
    /// index never re-keys them; aging policies are re-keyed once per
    /// scheduling pass (see the key-epoch handling in `driver`).
    pub fn is_time_varying(self) -> bool {
        matches!(self, PolicyKind::Wfp3)
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Total-ordered priority key; smaller sorts earlier.
///
/// `class` ranks ahead of the policy score: arrived on-demand jobs that
/// could not start instantly are "put to the front of the queue" (§III-B2),
/// so they get class 0, everything else class 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueKey {
    pub class: u8,
    pub score: f64,
    pub tie: u64,
}

impl Eq for QueueKey {}

impl Ord for QueueKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.class
            .cmp(&other.class)
            .then_with(|| self.score.partial_cmp(&other.score).expect("finite score"))
            .then_with(|| self.tie.cmp(&other.tie))
    }
}

impl PartialOrd for QueueKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Static score component: policies whose priority never changes while a
/// job waits. Computed once at enqueue time; valid at any later instant.
///
/// # Panics
///
/// Debug-asserts that `policy` is not time-varying — aging scores must go
/// through [`aging_score`] with an explicit evaluation instant.
pub fn static_score(policy: PolicyKind, spec: &JobSpec) -> f64 {
    debug_assert!(!policy.is_time_varying());
    match policy {
        PolicyKind::Fcfs => spec.submit.as_secs() as f64,
        PolicyKind::Sjf => spec.estimate.as_secs() as f64,
        PolicyKind::Ljf => -(spec.size as f64),
        PolicyKind::Wfp3 => unreachable!("WFP3 is time-varying"),
    }
}

/// Time-varying score component of an aging policy, evaluated at `now`.
/// A `now` earlier than the submit time (a stale key epoch) saturates the
/// wait to zero — harmless, because the index is re-keyed at the current
/// instant before any scheduling pass reads it.
pub fn aging_score(policy: PolicyKind, spec: &JobSpec, now: SimTime) -> f64 {
    debug_assert!(policy.is_time_varying());
    match policy {
        PolicyKind::Wfp3 => {
            let wait = now.since(spec.submit).as_secs() as f64;
            let est = spec.estimate.as_secs().max(1) as f64;
            -((wait / est).powi(3) * spec.size as f64)
        }
        _ => unreachable!("{policy} is static"),
    }
}

/// Compute a job's queue key under `policy`. `at_front` marks arrived
/// on-demand jobs awaiting resources. For static policies `now` is
/// ignored; for aging policies it is the key's epoch.
pub fn queue_key(policy: PolicyKind, spec: &JobSpec, at_front: bool, now: SimTime) -> QueueKey {
    let score = if policy.is_time_varying() {
        aging_score(policy, spec, now)
    } else {
        static_score(policy, spec)
    };
    QueueKey {
        class: if at_front { 0 } else { 1 },
        score,
        tie: spec.id.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hws_sim::SimDuration;
    use hws_workload::job::JobSpecBuilder;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn fcfs_orders_by_submit_then_id() {
        let a = JobSpecBuilder::rigid(5).submit_at(t(100)).size(4).build();
        let b = JobSpecBuilder::rigid(2).submit_at(t(200)).size(4).build();
        let c = JobSpecBuilder::rigid(9).submit_at(t(100)).size(4).build();
        let k = |s| queue_key(PolicyKind::Fcfs, s, false, t(1_000));
        assert!(k(&a) < k(&b));
        assert!(k(&a) < k(&c)); // same submit, lower id first
    }

    #[test]
    fn sjf_prefers_short_estimates() {
        let short = JobSpecBuilder::rigid(1)
            .size(4)
            .work(SimDuration::from_secs(50))
            .estimate(SimDuration::from_secs(100))
            .build();
        let long = JobSpecBuilder::rigid(2)
            .size(4)
            .work(SimDuration::from_secs(50))
            .estimate(SimDuration::from_secs(9_000))
            .build();
        let k = |s| queue_key(PolicyKind::Sjf, s, false, t(0));
        assert!(k(&short) < k(&long));
    }

    #[test]
    fn ljf_prefers_large_jobs() {
        let big = JobSpecBuilder::rigid(1).size(512).build();
        let small = JobSpecBuilder::rigid(2).size(16).build();
        let k = |s| queue_key(PolicyKind::Ljf, s, false, t(0));
        assert!(k(&big) < k(&small));
    }

    #[test]
    fn wfp3_rewards_waiting() {
        let spec = JobSpecBuilder::rigid(1)
            .submit_at(t(0))
            .size(64)
            .estimate(SimDuration::from_secs(3_600))
            .build();
        let early = queue_key(PolicyKind::Wfp3, &spec, false, t(100));
        let late = queue_key(PolicyKind::Wfp3, &spec, false, t(100_000));
        assert!(late < early, "priority should grow with waiting time");
    }

    #[test]
    fn od_front_class_beats_any_score() {
        let od = JobSpecBuilder::on_demand(99)
            .submit_at(t(9_999))
            .size(4)
            .build();
        let old = JobSpecBuilder::rigid(1).submit_at(t(0)).size(4).build();
        let k_od = queue_key(PolicyKind::Fcfs, &od, true, t(10_000));
        let k_old = queue_key(PolicyKind::Fcfs, &old, false, t(10_000));
        assert!(k_od < k_old);
    }

    #[test]
    fn policy_names() {
        assert_eq!(PolicyKind::Fcfs.to_string(), "FCFS");
        assert_eq!(PolicyKind::ALL.len(), 4);
    }
}
