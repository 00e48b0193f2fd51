//! Node routing: claims (node collectors), the free-pool offer discipline,
//! lease settling, and the on-demand notice/arrival orchestration.
//!
//! ## Node routing discipline
//!
//! Whenever nodes reach the free pool, [`SimCore::offer_free_nodes`] first
//! feeds **arrived** on-demand jobs still assembling their allocation, then
//! pre-arrival collectors (CUA/CUP reservations) in advance-notice order —
//! "the released nodes are assigned to the on-demand job with the earliest
//! advance notice" (§III-B1) — and only then the ordinary queue.

use super::core::SimCore;
use super::events::Ev;
use super::hooks::{ArrivalView, NoticeView, PredictionView};
use crate::jobstate::{next_checkpoint_completion, NoticePhase, Status};
use crate::mechanism::{CupCandidate, ShrinkInfo, VictimInfo};
use crate::timeline::Observer;
use hws_cluster::ClusterBackend;
use hws_sim::{EventQueue, SimTime};
use hws_workload::{JobId, JobKind};

/// A node collector: an on-demand job assembling its allocation.
#[derive(Debug, Clone, Copy)]
pub(super) struct Claim {
    pub(super) od: JobId,
    /// Collection priority: arrived jobs (phase 0) before notice-phase
    /// collectors (phase 1); then earliest notice/arrival first.
    pub(super) phase: u8,
    pub(super) since: SimTime,
}

impl Claim {
    /// Collection priority, total over distinct on-demand jobs.
    #[inline]
    pub(super) fn key(&self) -> (u8, SimTime, JobId) {
        (self.phase, self.since, self.od)
    }
}

impl<B: ClusterBackend, O: Observer> SimCore<B, O> {
    // ------------------------------------------------------------------
    // Node routing
    // ------------------------------------------------------------------

    /// Register `od` as a collector of its whole size, keeping `claims`
    /// sorted by `(phase, since, od)` so [`SimCore::offer_free_nodes`]
    /// never re-sorts. Claims are immutable after insertion, so the order
    /// is maintained for free.
    pub(super) fn insert_claim(&mut self, od: JobId, phase: u8, since: SimTime) {
        let c = Claim { od, phase, since };
        let at = self.claims.partition_point(|x| x.key() < c.key());
        self.claims.insert(at, c);
    }

    /// Feed newly free nodes to collectors: arrived on-demand jobs first
    /// (by arrival), then notice-phase collectors (by notice time). The
    /// claims list is kept in that order by [`SimCore::insert_claim`].
    pub(super) fn offer_free_nodes(&mut self, _now: SimTime) {
        if self.claims.is_empty() {
            return;
        }
        debug_assert!(self.claims.windows(2).all(|w| w[0].key() <= w[1].key()));
        let mut i = 0;
        while i < self.claims.len() {
            if self.cluster.free_count() == 0 {
                break;
            }
            let c = self.claims[i];
            let have = self.cluster.reserved_idle_count(c.od);
            let want = self.spec(c.od).size.saturating_sub(have);
            if want > 0 {
                self.cluster
                    .reserve(c.od, want.min(self.cluster.free_count()));
            }
            i += 1;
        }
        // Drop satisfied notice-phase collectors; arrived collectors are
        // removed at launch.
        let (cluster, table) = (&self.cluster, &self.table);
        self.claims
            .retain(|c| cluster.reserved_idle_count(c.od) < table.spec(c.od).size || c.phase == 0);
    }

    pub(super) fn remove_claim(&mut self, od: JobId) {
        self.claims.retain(|c| c.od != od);
    }

    /// §III-B3: return leased nodes to lenders, in lease order.
    pub(super) fn settle_leases(&mut self, od: JobId, now: SimTime, q: &mut EventQueue<Ev>) {
        for lease in self.leases.settle(od) {
            let lender = lease.lender;
            let status = self.st(lender).status;
            if lease.by_preemption {
                // A still-waiting preempted lender gets a private
                // reservation it can combine with free nodes to resume
                // (source of the Obs. 2 starvation effect).
                if status == Status::Waiting || status == Status::Draining {
                    self.cluster
                        .reserve(lender, lease.nodes.min(self.cluster.free_count()));
                }
            } else if status == Status::Running {
                // Shrunk lender expands back toward its original size.
                let owed = self.st(lender).owed_expansion.min(lease.nodes);
                if owed > 0 {
                    self.expand_job(lender, owed, now, q);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // On-demand handling
    // ------------------------------------------------------------------

    /// Advance notice (§III-B1), routed through the mechanism hooks: if the
    /// hooks collect, reserve free nodes and register a collector; the
    /// hooks' prediction plan (CUP) schedules cheap preemptions.
    pub(super) fn on_notice(&mut self, j: JobId, now: SimTime, q: &mut EventQueue<Ev>) {
        let spec = self.spec(j).clone();
        let notice = spec.notice.expect("notice event without notice spec");
        debug_assert_eq!(self.st(j).status, Status::Announced);
        let need = spec.size;
        let view = NoticeView {
            od: j,
            need,
            free: self.cluster.free_count(),
            notice_time: notice.notice_time,
            predicted_arrival: notice.predicted_arrival,
            now,
        };
        if !self.hooks.on_notice(&view).collect {
            return;
        }
        self.cluster.reserve(j, need.min(self.cluster.free_count()));
        let mut plans = Vec::new();
        let shortfall = need.saturating_sub(self.cluster.reserved_idle_count(j));
        if shortfall > 0 {
            self.insert_claim(j, 1, notice.notice_time);
            // The candidate snapshot costs O(running jobs); skip it for
            // hooks that never plan, so CUA decision latency stays free of
            // CUP-only estimation work. Snapshots build in the recycled
            // scratch buffers — notices are frequent enough under CUP that
            // per-notice allocation shows up in replay throughput.
            if self.hooks.plans_predictions() {
                let predicted = notice.predicted_arrival;
                // Plan only against the od's shard: preempting a victim on
                // another shard can never feed this reservation. (A single
                // cluster reports no shard, so nothing is filtered.)
                let shard = self.cluster.shard_of(j);
                let mut ids = std::mem::take(&mut self.scratch.victim_ids);
                let mut candidates = std::mem::take(&mut self.scratch.candidates);
                self.fill_running_victim_ids(&mut ids, shard);
                self.fill_prediction_candidates(&ids, &mut candidates, predicted, now);
                let plan = self.hooks.plan_for_prediction(&PredictionView {
                    od: j,
                    shortfall,
                    predicted,
                    now,
                    shard,
                    candidates: &candidates,
                });
                ids.clear();
                self.scratch.victim_ids = ids;
                candidates.clear();
                self.scratch.candidates = candidates;
                for (victim, at) in plan.planned_preemptions {
                    let epoch = self.st(victim).epoch;
                    plans.push(q.schedule(
                        at.max(now),
                        Ev::PlannedPreempt {
                            victim,
                            od: j,
                            epoch,
                        },
                    ));
                }
            }
        }
        let timeout = q.schedule(
            notice.predicted_arrival + self.cfg.reservation_timeout,
            Ev::ReservationTimeout(j),
        );
        self.st_mut(j).notice = Some(NoticePhase {
            timeout,
            plans,
            squattable: self.cfg.backfill_on_reserved,
        });
    }

    /// Running jobs eligible as preemption victims (never on-demand jobs,
    /// never draining jobs), in job-id order, appended to `out` (a scratch
    /// buffer recycled across decisions). `shard` restricts the scan to
    /// one shard of a federated backend (`None` — no filtering).
    pub(super) fn fill_running_victim_ids(&self, out: &mut Vec<JobId>, shard: Option<usize>) {
        self.cluster.for_each_running(&mut |j| {
            if shard.is_some() && self.cluster.shard_of(j) != shard {
                return;
            }
            if self.spec(j).kind != JobKind::OnDemand && self.st(j).status == Status::Running {
                out.push(j);
            }
        });
        out.sort();
    }

    /// Candidate snapshot for
    /// [`super::hooks::MechanismHooks::plan_for_prediction`], appended to
    /// `out` (a scratch buffer recycled across decisions).
    fn fill_prediction_candidates(
        &self,
        ids: &[JobId],
        out: &mut Vec<CupCandidate>,
        predicted: SimTime,
        now: SimTime,
    ) {
        out.extend(ids.iter().map(|&v| {
            let run = self.st(v).run.as_ref().expect("running");
            let cheap = match self.spec(v).kind {
                JobKind::Malleable => {
                    let at = predicted.saturating_sub(self.cfg.malleable_warning);
                    (at >= now).then_some(at)
                }
                _ => next_checkpoint_completion(run, now).filter(|t| *t >= now),
            };
            CupCandidate {
                id: v,
                nodes: run.size,
                expected_end: self.expected_end(v, now),
                overhead_ns: self.preemption_overhead(v, now),
                cheap_preempt_at: cheap,
                class: self.spec(v).class,
            }
        }));
    }

    /// Shrink snapshot for [`super::hooks::MechanismHooks::on_arrival`]:
    /// running malleable jobs, with minimums raised so that only *plain*
    /// nodes — the ones that actually reach the arriving job through the
    /// free pool — count as supply. `ids` is the shared
    /// [`Self::fill_running_victim_ids`] scan (computed once per arrival).
    fn arrival_shrinkables(&self, ids: &[JobId]) -> Vec<ShrinkInfo> {
        ids.iter()
            .copied()
            .filter(|&v| self.spec(v).kind == JobKind::Malleable)
            .map(|v| {
                let cur = self.st(v).cur_size;
                let min = self.spec(v).min_size.min(cur);
                let (plain, _) = self.cluster.split_of(v);
                ShrinkInfo {
                    id: v,
                    cur,
                    min: min.max(cur.saturating_sub(plain)),
                    class: self.spec(v).class,
                }
            })
            .collect()
    }

    /// Victim snapshot for [`super::hooks::MechanismHooks::on_arrival`]:
    /// counts only the nodes a preemption actually yields to the arriving
    /// job (plain nodes reach the free pool; squatted nodes return to their
    /// own reservation holders).
    fn arrival_victims(&self, ids: &[JobId], now: SimTime) -> Vec<VictimInfo> {
        ids.iter()
            .copied()
            .map(|v| {
                let (plain, _) = self.cluster.split_of(v);
                VictimInfo {
                    id: v,
                    nodes: plain,
                    overhead_ns: self.preemption_overhead(v, now),
                    started: self.st(v).run.as_ref().expect("running").start,
                    class: self.spec(v).class,
                }
            })
            .filter(|v| v.nodes > 0)
            .collect()
    }

    /// Actual arrival of an on-demand job (§III-B2). Its notice phase,
    /// if any, closed at submit: collection, planning and squatting on
    /// its reservation have stopped.
    pub(super) fn on_od_arrival(&mut self, j: JobId, now: SimTime, q: &mut EventQueue<Ev>) {
        let spec = self.spec(j).clone();
        let need = spec.size;

        // Pin the job's placement now, so raids, victim scans, and claims
        // all target one shard (a single cluster reports no shard and
        // nothing below filters).
        let shard = self.cluster.prepare_arrival(j);

        // Evict squatters from this job's reserved nodes ("once the
        // on-demand job arrives, all these backfilled jobs have to be
        // preempted immediately").
        let squatters = self.cluster.squatters(j);
        let mut promised: u32 = 0; // nodes arriving via drains
        for (sq, on_mine) in squatters {
            let kind = self.spec(sq).kind;
            // Only the squatter's plain nodes and the nodes on *this*
            // reservation reach this job; nodes squatted on other holders'
            // reservations return to those holders.
            let (plain, _) = self.cluster.split_of(sq);
            if self.st(sq).status == Status::Draining {
                // Already serving an earlier preemption's two-minute
                // warning; its nodes arrive at drain end regardless.
                promised += plain + on_mine;
                continue;
            }
            self.preempt_job(sq, now, q);
            if kind == JobKind::Malleable {
                promised += plain + on_mine;
            }
        }
        self.offer_free_nodes(now); // rigid squatters' plain nodes

        let mut have = self.cluster.avail_for(j) + promised;

        // An *arrived* on-demand job outranks reservations held for merely
        // predicted ones: raid notice-phase reservations, robbing the most
        // recent notice first so the earliest notice keeps its collection
        // priority (§III-B1).
        if have < need {
            let mut holders = Vec::new();
            self.table.for_each_live(|spec, st| {
                if let (Some(_), Some(n)) = (&st.notice, spec.notice) {
                    holders.push((n.notice_time, spec.id));
                }
            });
            holders.sort_unstable();
            for &(_, h) in holders.iter().rev() {
                if have >= need {
                    break;
                }
                have += self.cluster.transfer_reserved(h, j, need - have);
            }
        }

        // Still short: ask the mechanism hooks how to source the rest.
        if have < need {
            let need_extra = need - have;
            // One scan serves both snapshots. Arrival decisions are rare
            // (one per on-demand arrival), so handing every hook a uniform
            // view is worth the one extra snapshot over the old
            // strategy-specialized paths.
            let mut ids = std::mem::take(&mut self.scratch.victim_ids);
            self.fill_running_victim_ids(&mut ids, shard);
            let shrinkable = self.arrival_shrinkables(&ids);
            let victims = self.arrival_victims(&ids, now);
            ids.clear();
            self.scratch.victim_ids = ids;
            let plan = self.hooks.on_arrival(&ArrivalView {
                od: j,
                need_extra,
                now,
                shard,
                shrinkable: &shrinkable,
                victims: &victims,
            });
            self.execute_arrival_plan(j, need_extra, plan, now, q);
        }

        // Register as an arrived collector and try to launch.
        self.insert_claim(j, 0, now);
        let st = self.st_mut(j);
        st.status = Status::Waiting;
        // Front-of-queue class: the flag must be final before the enqueue
        // so the index files the job under class 0.
        st.at_front = true;
        self.enqueue_waiting(j);
        self.offer_free_nodes(now);
        self.request_pass(now, q);
    }

    /// Execute an arrival plan: shrinks first, then preemptions, recording
    /// the matching leases. Entries that are no longer valid (custom hooks
    /// may return arbitrary jobs) are skipped rather than trusted.
    fn execute_arrival_plan(
        &mut self,
        od: JobId,
        need_extra: u32,
        plan: super::hooks::ArrivalPlan,
        now: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        let mut supplied = 0u32;
        for (victim, k) in plan.shrinks {
            if victim == od
                || !self.live(victim)
                || self.spec(victim).kind != JobKind::Malleable
                || self.st(victim).status != Status::Running
            {
                continue;
            }
            let cur = self.st(victim).cur_size;
            // Clamp against the same effective minimum `ArrivalView`
            // advertises: only plain nodes reach the arriving job, so a
            // shrink below `cur - plain` would count squatted nodes (which
            // return to their reservation holders) as supplied.
            let (plain, _) = self.cluster.split_of(victim);
            let floor = self
                .spec(victim)
                .min_size
                .min(cur)
                .max(cur.saturating_sub(plain));
            let k = k.min(cur - floor);
            if k == 0 {
                continue;
            }
            self.shrink_job(victim, k, now, q);
            self.leases.record(od, victim, k, false);
            supplied += k;
        }
        let mut outstanding = need_extra.saturating_sub(supplied);
        for v in plan.preempt {
            if v.id == od
                || !self.live(v.id)
                || self.spec(v.id).kind == JobKind::OnDemand
                || self.st(v.id).status != Status::Running
            {
                continue;
            }
            let lease = outstanding.min(v.nodes);
            self.preempt_job(v.id, now, q);
            self.leases.record(od, v.id, lease, true);
            outstanding = outstanding.saturating_sub(v.nodes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Mechanism, SimConfig};
    use hws_sim::SimDuration;
    use hws_workload::job::JobSpecBuilder;
    use proptest::prelude::*;

    /// Build a core with `n` admitted on-demand jobs (ids `0..n`) on a
    /// `system`-node machine, with `busy` nodes occupied by a running job.
    fn core_with_claims(system: u32, busy: u32, claims: &[(u64, u32, u8, u64)]) -> SimCore {
        let mut core = SimCore::new(SimConfig::with_mechanism(Mechanism::CUA_PAA), system);
        for &(id, size, _, _) in claims {
            core.table.admit(
                JobSpecBuilder::on_demand(id)
                    .size(size)
                    .work(SimDuration::from_secs(600))
                    .estimate(SimDuration::from_secs(1_200))
                    .build(),
            );
        }
        let filler_id = claims.iter().map(|c| c.0).max().unwrap_or(0) + 1;
        core.table.admit(
            JobSpecBuilder::rigid(filler_id)
                .size(system)
                .work(SimDuration::from_secs(3_600))
                .estimate(SimDuration::from_secs(7_200))
                .build(),
        );
        // Occupy `busy` nodes so the free pool is scarce.
        if busy > 0 {
            assert!(core.cluster.allocate(JobId(filler_id), busy).is_some());
        }
        for &(id, _, phase, since) in claims {
            core.insert_claim(JobId(id), phase, SimTime::from_secs(since));
        }
        core
    }

    /// Greedy reference model of the §III-B1 discipline: serve claims in
    /// (phase, since, id) order from a single free pool.
    fn expected_grants(free: u32, claims: &[(u64, u32, u8, u64)]) -> Vec<(u64, u32)> {
        let mut order: Vec<_> = claims.to_vec();
        order.sort_by_key(|&(id, _, phase, since)| (phase, since, id));
        let mut left = free;
        let mut grants = Vec::new();
        for (id, size, _, _) in order {
            let got = size.min(left);
            left -= got;
            grants.push((id, got));
        }
        grants.sort_by_key(|&(id, _)| id);
        grants
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `offer_free_nodes` always serves phase-0 (arrived) claims before
        /// phase-1 (notice) collectors, ordered by earliest notice, across
        /// random claim sets.
        #[test]
        fn offer_free_nodes_follows_routing_discipline(
            system in 8..200u32,
            busy_frac in 0..100u32,
            raw_claims in proptest::collection::vec(
                (1..64u32, 0..2u32, 0..10_000u64),
                1..8,
            ),
        ) {
            let busy = system * busy_frac / 100;
            let claims: Vec<(u64, u32, u8, u64)> = raw_claims
                .iter()
                .enumerate()
                .map(|(i, &(size, phase, since))| {
                    (i as u64, size.min(system), phase as u8, since)
                })
                .collect();
            let mut core = core_with_claims(system, busy, &claims);
            let free = core.cluster.free_count();
            core.offer_free_nodes(SimTime::from_secs(20_000));

            for (id, want) in expected_grants(free, &claims) {
                let got = core.cluster.reserved_idle_count(JobId(id));
                prop_assert_eq!(
                    got,
                    want,
                    "claim {} (free {}, claims {:?})",
                    id,
                    free,
                    claims
                );
            }
            // Satisfied notice-phase collectors are dropped; arrived
            // collectors persist until launch.
            for c in &core.claims {
                let keep =
                    core.cluster.reserved_idle_count(c.od) < core.spec(c.od).size || c.phase == 0;
                prop_assert!(keep, "stale satisfied claim {:?}", c);
            }
            prop_assert_eq!(core.cluster.check_invariants(), Ok(()));
        }
    }
}
