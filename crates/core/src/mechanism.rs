//! Pure decision logic of the six mechanisms: victim selection (PAA),
//! even-shrink planning (SPAA), and CUP preparation plans. The driver
//! executes these plans against the cluster; keeping them pure makes the
//! "quick decision making" requirement (§II-C, Observation 10) directly
//! benchmarkable.

use crate::config::{ShrinkStrategy, VictimOrder};
use hws_sim::SimTime;
use hws_workload::{JobClass, JobId, JobMap};
use std::collections::BinaryHeap;

/// A running job that PAA may preempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimInfo {
    pub id: JobId,
    /// Nodes the preemption would release.
    pub nodes: u32,
    /// Wasted node-seconds if preempted now (work past the last checkpoint
    /// for rigid jobs; drain + setup for malleable jobs).
    pub overhead_ns: u64,
    /// Run start (for the `NewestFirst` ablation ordering).
    pub started: SimTime,
    /// Capability/capacity class: the paper's mechanisms ignore it, but
    /// capability-aware hooks shield [`JobClass::Capability`] victims.
    pub class: JobClass,
}

/// PAA: "lists all currently running malleable and rigid jobs in ascending
/// order of their preemption overheads [and preempts] jobs from the front
/// of the running list until the on-demand request is satisfied."
///
/// Returns the selected victims, or `None` when even preempting everything
/// cannot supply `need` nodes (the on-demand job must wait at the front of
/// the queue).
pub fn select_victims(
    mut candidates: Vec<VictimInfo>,
    need: u32,
    order: VictimOrder,
) -> Option<Vec<VictimInfo>> {
    if need == 0 {
        return Some(Vec::new());
    }
    let total: u64 = candidates.iter().map(|v| u64::from(v.nodes)).sum();
    if total < u64::from(need) {
        return None;
    }
    match order {
        VictimOrder::Overhead => candidates.sort_by_key(|v| (v.overhead_ns, v.id)),
        VictimOrder::SizeAscending => candidates.sort_by_key(|v| (v.nodes, v.id)),
        VictimOrder::NewestFirst => {
            candidates.sort_by_key(|v| (std::cmp::Reverse(v.started), v.id))
        }
    }
    let mut selected = Vec::new();
    let mut got = 0u32;
    for v in candidates {
        if got >= need {
            break;
        }
        got = got.saturating_add(v.nodes);
        selected.push(v);
    }
    Some(selected)
}

/// A running malleable job SPAA may shrink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShrinkInfo {
    pub id: JobId,
    pub cur: u32,
    pub min: u32,
    /// Capability/capacity class (capability-aware hooks may exempt
    /// capability campaigns from shrinking too; the default policy only
    /// shields them from preemption).
    pub class: JobClass,
}

/// SPAA planning: can the running malleable jobs supply `need` nodes by
/// shrinking (each no lower than its minimum)? If yes, distribute the
/// demand; otherwise `None` (fall back to PAA).
///
/// * `EvenWaterFill` (the paper's "shrink their sizes evenly"): repeatedly
///   take one node from the currently largest job, ties broken by id.
/// * `Proportional`: take from each job proportionally to its slack.
pub fn plan_shrinks(
    jobs: &[ShrinkInfo],
    need: u32,
    strategy: ShrinkStrategy,
) -> Option<Vec<(JobId, u32)>> {
    if need == 0 {
        return Some(Vec::new());
    }
    let supply: u64 = jobs
        .iter()
        .map(|j| u64::from(j.cur.saturating_sub(j.min)))
        .sum();
    if supply < u64::from(need) {
        return None;
    }
    match strategy {
        ShrinkStrategy::EvenWaterFill => {
            // Max-heap on (current size, Reverse(id)): take from the
            // largest; among equals, the smallest id.
            let mut heap: BinaryHeap<(u32, std::cmp::Reverse<JobId>)> = BinaryHeap::new();
            let mut take: JobMap<(u32, u32)> =
                jobs.iter().map(|j| (j.id, (j.cur, j.min))).collect();
            for j in jobs {
                if j.cur > j.min {
                    heap.push((j.cur, std::cmp::Reverse(j.id)));
                }
            }
            let mut taken: JobMap<u32> = JobMap::default();
            let mut remaining = need;
            while remaining > 0 {
                let (cur, std::cmp::Reverse(id)) = heap.pop().expect("supply checked");
                let entry = take.get_mut(&id).expect("known job");
                debug_assert_eq!(entry.0, cur);
                entry.0 -= 1;
                *taken.entry(id).or_default() += 1;
                remaining -= 1;
                if entry.0 > entry.1 {
                    heap.push((entry.0, std::cmp::Reverse(id)));
                }
            }
            let mut out: Vec<(JobId, u32)> = taken.into_iter().collect();
            out.sort_by_key(|(id, _)| *id);
            Some(out)
        }
        ShrinkStrategy::Proportional => {
            let mut out = Vec::new();
            let mut assigned = 0u32;
            // Largest-remainder apportionment over slack.
            let mut fracs: Vec<(JobId, u32, f64)> = jobs
                .iter()
                .filter(|j| j.cur > j.min)
                .map(|j| {
                    let slack = (j.cur - j.min) as f64;
                    let exact = need as f64 * slack / supply as f64;
                    (j.id, j.cur - j.min, exact)
                })
                .collect();
            let mut base: Vec<(JobId, u32)> = fracs
                .iter()
                .map(|(id, slack, exact)| (*id, (exact.floor() as u32).min(*slack)))
                .collect();
            assigned += base.iter().map(|(_, k)| *k).sum::<u32>();
            fracs.sort_by(|a, b| {
                (b.2 - b.2.floor())
                    .partial_cmp(&(a.2 - a.2.floor()))
                    .expect("finite")
                    .then_with(|| a.0.cmp(&b.0))
            });
            let mut i = 0;
            while assigned < need {
                let (id, slack, _) = fracs[i % fracs.len()];
                let b = base.iter_mut().find(|(j, _)| *j == id).expect("present");
                if b.1 < slack {
                    b.1 += 1;
                    assigned += 1;
                }
                i += 1;
            }
            for (id, k) in base {
                if k > 0 {
                    out.push((id, k));
                }
            }
            out.sort_by_key(|(id, _)| *id);
            Some(out)
        }
    }
}

/// CUP preparation plan for one advance notice (§III-B1): which running
/// jobs are *expected* to release enough nodes before the predicted
/// arrival, and which must be preempted (rigid right after their next
/// checkpoint; malleable shortly before the prediction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CupPlan {
    /// Victims to preempt, with the instant each preemption should fire.
    pub planned_preemptions: Vec<(JobId, SimTime)>,
    /// Nodes still uncovered even after planning (left to the arrival
    /// strategy).
    pub uncovered: u32,
}

impl CupPlan {
    /// Plan nothing (the non-CUP notice strategies).
    pub fn none() -> CupPlan {
        CupPlan {
            planned_preemptions: Vec::new(),
            uncovered: 0,
        }
    }
}

/// Candidate information for CUP planning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CupCandidate {
    pub id: JobId,
    pub nodes: u32,
    /// Scheduler-estimated completion.
    pub expected_end: SimTime,
    /// Preemption overhead now (for ordering, as in PAA).
    pub overhead_ns: u64,
    /// When this job could be preempted "cheaply" before the prediction:
    /// the next checkpoint completion for rigid jobs (None = no cheap
    /// point), or `predicted − warning` for malleable jobs.
    pub cheap_preempt_at: Option<SimTime>,
    /// Capability/capacity class (capability-aware hooks drop capability
    /// candidates before CUP planning).
    pub class: JobClass,
}

/// Build a CUP plan. `shortfall` is the node count still needed after
/// reserving currently free nodes.
pub fn plan_cup(candidates: &[CupCandidate], shortfall: u32, predicted: SimTime) -> CupPlan {
    if shortfall == 0 {
        return CupPlan {
            planned_preemptions: Vec::new(),
            uncovered: 0,
        };
    }
    // 1. Jobs expected to finish on their own before the prediction cover
    //    the shortfall for free (their releases are collected as they
    //    happen, like CUA).
    let mut remaining = shortfall;
    let mut expected: Vec<&CupCandidate> = candidates
        .iter()
        .filter(|c| c.expected_end <= predicted)
        .collect();
    expected.sort_by_key(|c| (c.expected_end, c.id));
    let mut counted: std::collections::HashSet<JobId> = Default::default();
    for c in expected {
        if remaining == 0 {
            break;
        }
        remaining = remaining.saturating_sub(c.nodes);
        counted.insert(c.id);
    }
    if remaining == 0 {
        return CupPlan {
            planned_preemptions: Vec::new(),
            uncovered: 0,
        };
    }
    // 2. Plan cheap preemptions for the rest, cheapest overhead first.
    let mut preemptable: Vec<&CupCandidate> = candidates
        .iter()
        .filter(|c| !counted.contains(&c.id))
        .filter(|c| matches!(c.cheap_preempt_at, Some(t) if t <= predicted))
        .collect();
    preemptable.sort_by_key(|c| (c.overhead_ns, c.id));
    let mut planned = Vec::new();
    for c in preemptable {
        if remaining == 0 {
            break;
        }
        remaining = remaining.saturating_sub(c.nodes);
        planned.push((c.id, c.cheap_preempt_at.expect("filtered")));
    }
    CupPlan {
        planned_preemptions: planned,
        uncovered: remaining,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(n: u64) -> JobId {
        JobId(n)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn vi(id: u64, nodes: u32, overhead: u64) -> VictimInfo {
        VictimInfo {
            id: j(id),
            nodes,
            overhead_ns: overhead,
            started: t(id * 10),
            class: JobClass::Capacity,
        }
    }

    // ---------------- PAA victim selection ----------------

    #[test]
    fn selects_cheapest_victims_first() {
        let victims = select_victims(
            vec![vi(1, 10, 500), vi(2, 10, 100), vi(3, 10, 300)],
            15,
            VictimOrder::Overhead,
        )
        .expect("feasible");
        assert_eq!(
            victims.iter().map(|v| v.id).collect::<Vec<_>>(),
            vec![j(2), j(3)]
        );
    }

    #[test]
    fn returns_none_when_infeasible() {
        assert_eq!(
            select_victims(vec![vi(1, 4, 0), vi(2, 4, 0)], 9, VictimOrder::Overhead),
            None
        );
    }

    #[test]
    fn zero_need_selects_nothing() {
        assert_eq!(
            select_victims(vec![vi(1, 4, 0)], 0, VictimOrder::Overhead),
            Some(vec![])
        );
    }

    #[test]
    fn exact_fit_takes_exactly_enough() {
        let sel = select_victims(
            vec![vi(1, 5, 1), vi(2, 5, 2), vi(3, 5, 3)],
            10,
            VictimOrder::Overhead,
        )
        .unwrap();
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn size_ordering_ablation() {
        let sel = select_victims(
            vec![vi(1, 100, 1), vi(2, 5, 999)],
            5,
            VictimOrder::SizeAscending,
        )
        .unwrap();
        assert_eq!(sel[0].id, j(2));
    }

    #[test]
    fn newest_first_ordering_ablation() {
        // Started times are id*10, so highest id is newest.
        let sel = select_victims(
            vec![vi(1, 5, 1), vi(9, 5, 999)],
            5,
            VictimOrder::NewestFirst,
        )
        .unwrap();
        assert_eq!(sel[0].id, j(9));
    }

    #[test]
    fn overhead_ties_break_by_id() {
        let sel =
            select_victims(vec![vi(7, 5, 100), vi(3, 5, 100)], 5, VictimOrder::Overhead).unwrap();
        assert_eq!(sel[0].id, j(3));
    }

    // ---------------- SPAA shrink planning ----------------

    fn si(id: u64, cur: u32, min: u32) -> ShrinkInfo {
        ShrinkInfo {
            id: j(id),
            cur,
            min,
            class: JobClass::Capacity,
        }
    }

    #[test]
    fn waterfill_takes_from_largest_first() {
        let plan = plan_shrinks(
            &[si(1, 10, 2), si(2, 6, 2)],
            4,
            ShrinkStrategy::EvenWaterFill,
        )
        .expect("feasible");
        // Water level: take 4 from job 1 (10 → 6) before touching job 2.
        assert_eq!(plan, vec![(j(1), 4)]);
    }

    #[test]
    fn waterfill_levels_sizes() {
        let plan = plan_shrinks(
            &[si(1, 10, 1), si(2, 8, 1)],
            6,
            ShrinkStrategy::EvenWaterFill,
        )
        .expect("feasible");
        // Final sizes should be even-ish: 10,8 minus 6 → 6,6.
        assert_eq!(plan, vec![(j(1), 4), (j(2), 2)]);
    }

    #[test]
    fn waterfill_respects_minimums() {
        let plan = plan_shrinks(
            &[si(1, 5, 4), si(2, 5, 1)],
            5,
            ShrinkStrategy::EvenWaterFill,
        )
        .expect("feasible");
        let take1 = plan
            .iter()
            .find(|(id, _)| *id == j(1))
            .map(|(_, k)| *k)
            .unwrap_or(0);
        assert!(take1 <= 1, "job 1 can only give one node");
        assert_eq!(plan.iter().map(|(_, k)| k).sum::<u32>(), 5);
    }

    #[test]
    fn shrink_infeasible_when_supply_short() {
        assert_eq!(
            plan_shrinks(&[si(1, 5, 4)], 2, ShrinkStrategy::EvenWaterFill),
            None
        );
    }

    #[test]
    fn shrink_zero_need() {
        assert_eq!(
            plan_shrinks(&[si(1, 5, 1)], 0, ShrinkStrategy::EvenWaterFill),
            Some(vec![])
        );
    }

    #[test]
    fn proportional_distributes_by_slack() {
        let plan = plan_shrinks(
            &[si(1, 13, 1), si(2, 7, 1)],
            6,
            ShrinkStrategy::Proportional,
        )
        .expect("feasible");
        // Slack 12 vs 6 → 2:1 split of 6 → 4 and 2.
        assert_eq!(plan, vec![(j(1), 4), (j(2), 2)]);
    }

    #[test]
    fn proportional_total_is_exact() {
        let jobs = [si(1, 9, 2), si(2, 8, 3), si(3, 20, 4)];
        for need in 1..=28 {
            let plan = plan_shrinks(&jobs, need, ShrinkStrategy::Proportional).expect("feasible");
            assert_eq!(
                plan.iter().map(|(_, k)| k).sum::<u32>(),
                need,
                "need {need}"
            );
            for (id, k) in &plan {
                let job = jobs.iter().find(|s| s.id == *id).unwrap();
                assert!(*k <= job.cur - job.min);
            }
        }
    }

    #[test]
    fn waterfill_total_is_exact_property() {
        let jobs = [si(1, 9, 2), si(2, 8, 3), si(3, 20, 4)];
        for need in 1..=28 {
            let plan = plan_shrinks(&jobs, need, ShrinkStrategy::EvenWaterFill).expect("feasible");
            assert_eq!(
                plan.iter().map(|(_, k)| k).sum::<u32>(),
                need,
                "need {need}"
            );
        }
    }

    // ---------------- CUP planning ----------------

    fn cc(
        id: u64,
        nodes: u32,
        expected_end: u64,
        overhead: u64,
        cheap: Option<u64>,
    ) -> CupCandidate {
        CupCandidate {
            id: j(id),
            nodes,
            expected_end: t(expected_end),
            overhead_ns: overhead,
            cheap_preempt_at: cheap.map(t),
            class: JobClass::Capacity,
        }
    }

    #[test]
    fn cup_prefers_natural_completions() {
        // Job 1 ends before the prediction and covers everything: no
        // preemptions planned (the paper's Fig. 2, J1).
        let plan = plan_cup(&[cc(1, 10, 500, 100, Some(400))], 8, t(1_000));
        assert!(plan.planned_preemptions.is_empty());
        assert_eq!(plan.uncovered, 0);
    }

    #[test]
    fn cup_plans_checkpoint_preemption_for_shortfall() {
        // Job 1 ends too late but has a checkpoint boundary at t=400
        // (Fig. 2, J2: "preempted immediately after checkpointing").
        let plan = plan_cup(&[cc(1, 10, 5_000, 100, Some(400))], 8, t(1_000));
        assert_eq!(plan.planned_preemptions, vec![(j(1), t(400))]);
        assert_eq!(plan.uncovered, 0);
    }

    #[test]
    fn cup_skips_victims_without_cheap_point_before_prediction() {
        let plan = plan_cup(
            &[
                cc(1, 10, 5_000, 100, None),
                cc(2, 10, 5_000, 100, Some(2_000)),
            ],
            8,
            t(1_000),
        );
        assert!(plan.planned_preemptions.is_empty());
        assert_eq!(plan.uncovered, 8);
    }

    #[test]
    fn cup_orders_planned_victims_by_overhead() {
        let plan = plan_cup(
            &[
                cc(1, 5, 9_000, 900, Some(500)),
                cc(2, 5, 9_000, 100, Some(600)),
            ],
            8,
            t(1_000),
        );
        assert_eq!(
            plan.planned_preemptions,
            vec![(j(2), t(600)), (j(1), t(500))]
        );
    }

    #[test]
    fn cup_zero_shortfall_is_empty_plan() {
        let plan = plan_cup(&[cc(1, 10, 500, 0, Some(1))], 0, t(100));
        assert!(plan.planned_preemptions.is_empty());
        assert_eq!(plan.uncovered, 0);
    }

    #[test]
    fn cup_does_not_double_count_expected_completions() {
        // Job 1's natural completion is counted; it must not also be
        // planned for preemption.
        let plan = plan_cup(
            &[cc(1, 4, 500, 1, Some(100)), cc(2, 10, 5_000, 5, Some(700))],
            8,
            t(1_000),
        );
        assert_eq!(plan.planned_preemptions, vec![(j(2), t(700))]);
    }
}
