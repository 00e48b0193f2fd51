//! The scheduling pass: queue ordering, in-order starts with deadlock
//! avoidance, EASY backfilling behind a blocked head, shadow computation,
//! and backfill sizing.

use super::core::{Scratch, SimCore};
use super::events::Ev;
use crate::backfill::{compute_shadow, may_backfill, Shadow};
use crate::jobstate::Status;
use crate::timeline::Observer;
use hws_cluster::ClusterBackend;
use hws_sim::{EventQueue, SimTime};
use hws_workload::{JobId, JobKind};

impl<B: ClusterBackend, O: Observer> SimCore<B, O> {
    pub(super) fn schedule_pass(&mut self, now: SimTime, q: &mut EventQueue<Ev>) {
        if self.queue.is_empty() {
            return;
        }
        // The waiting queue is maintained in priority order across events
        // (see `super::waitq`), so ordering the pass is a straight copy of
        // the index — no per-job key computation, no O(Q log Q) sort.
        // Aging policies re-key the index at `now` first (same asymptotics
        // as the historical per-pass re-sort; static policies skip it).
        // The copy into recycled scratch keeps the exact stored keys, so a
        // started job's entry is removed under precisely the key it was
        // inserted with even though `start_job` clears its front-class
        // flag first.
        self.refresh_queue_epoch(now);
        let mut keys = std::mem::take(&mut self.scratch.keys);
        keys.extend(self.queue.iter());

        let mut head: Option<JobId> = None;
        let mut pos = 0;
        // Phase A: start jobs strictly in order while they fit. A job that
        // does not fit in free + its own reserved nodes may still start by
        // squatting on on-demand notice reservations (it becomes a
        // squatter, evicted when the holder arrives) — this keeps reserved
        // nodes busy, as §III-B1 intends.
        while pos < keys.len() {
            let j = keys[pos].1;
            // Per-class admission: a throttled job blocks as the pass
            // head (reservations and EASY backfill proceed behind it),
            // exactly like a job the machine cannot fit yet. The default
            // hook admits everything, so the paper's mechanisms never
            // branch here.
            if self.hybrid() && !self.admission_ok(j, now) {
                head = Some(j);
                break;
            }
            let own = self.cluster.reserved_idle_count(j);
            // Per-job availability: free + own-reserved co-located on one
            // shard (on a single cluster, exactly `free_count() + own`).
            let avail = self.cluster.avail_for(j);
            let need = self.start_need(j);
            let (fits, backfill, usable) = if avail >= need {
                (true, false, avail)
            } else if own == 0 && self.hybrid() && self.cfg.backfill_on_reserved {
                let table = &self.table;
                let usable = self
                    .cluster
                    .backfill_avail_for(j, &mut |h| table.squattable(h));
                (usable >= need, true, usable)
            } else {
                (false, false, avail)
            };
            if fits {
                let size = self.choose_start_size(j, usable);
                if self.start_job(j, size, backfill, now, q) {
                    self.queue.remove(keys[pos].0, j);
                    pos += 1;
                    continue;
                }
            }
            // Deadlock avoidance: reservations are subordinate to queue
            // priority. A blocked head may raid the private reservations of
            // *lower-ranked waiting* jobs (lease returns, partial on-demand
            // claims) — otherwise two waiting jobs can hoard the whole
            // machine with nothing running and no event pending. Notice-
            // phase reservations are exempt: they expire via their timeout.
            // Cheap guard first: the machine-wide idle-reserved total
            // bounds what any raid can recover, so when even taking all of
            // it cannot seat the head the per-job reservation scan below
            // would find nothing — skip it.
            if avail < need && avail + self.cluster.total_reserved_idle() >= need {
                let lower: Vec<JobId> = keys[pos + 1..]
                    .iter()
                    .map(|&(_, w)| w)
                    .filter(|&w| self.cluster.reserved_idle_count(w) > 0)
                    .collect();
                let raidable: u32 = lower
                    .iter()
                    .map(|&w| self.cluster.reserved_idle_count(w))
                    .sum();
                if avail + raidable >= need {
                    let mut deficit = need - avail;
                    // Rob the lowest-priority holders first. (Cross-shard
                    // transfers are refused by federated backends, so a
                    // raid can fall short there; the head then just stays
                    // blocked until its own shard drains.)
                    for &w in lower.iter().rev() {
                        if deficit == 0 {
                            break;
                        }
                        deficit -= self.cluster.transfer_reserved(w, j, deficit);
                    }
                    let usable = self.cluster.avail_for(j);
                    let size = self.choose_start_size(j, usable);
                    if self.start_job(j, size, false, now, q) {
                        self.queue.remove(keys[pos].0, j);
                        pos += 1;
                        continue;
                    }
                }
            }
            head = Some(j);
            break;
        }

        // Phase B: EASY backfill behind the blocked head. No allocation
        // path can hand out more than every free node plus every idle
        // reserved node machine-wide, so that total bounds any candidate's
        // usable count: when it is zero the shadow and the whole scan are
        // skipped, and jobs needing more than it are skipped without the
        // per-shard availability queries (`backfill_size` would refuse
        // them anyway — `may_backfill` requires `size <= avail_now`).
        if let Some(head_id) = head {
            let usable_cap = self.cluster.free_count() + self.cluster.total_reserved_idle();
            if self.cfg.easy_backfill && usable_cap > 0 {
                // The shadow (an O(running · log running) projection) is
                // computed lazily, at the first candidate surviving the
                // cheap filters: every earlier iteration skipped without
                // touching cluster state, so the projection is the same
                // one an eager computation at loop entry would have built
                // — most passes over a backlog of too-big jobs never pay
                // for it at all.
                let mut shadow = None;
                for e in &keys[pos + 1..] {
                    let j = e.1;
                    if self.start_need(j) > usable_cap {
                        continue;
                    }
                    if self.hybrid() && !self.admission_ok(j, now) {
                        continue;
                    }
                    let shadow = match shadow {
                        Some(s) => s,
                        None => *shadow.insert(self.head_shadow(head_id, now)),
                    };
                    if let Some(size) = self.backfill_size(j, shadow, now) {
                        if self.start_job(j, size, true, now, q) {
                            self.queue.remove(e.0, j);
                        }
                    }
                }
            }
        }
        // Started entries were unindexed one by one above, so the index
        // already holds exactly the still-waiting jobs — no per-pass
        // status retain.
        Scratch::stow(&mut self.scratch.keys, keys);
    }

    /// Consult the per-class admission hook for a waiting job (see
    /// [`super::hooks::MechanismHooks::admit`]).
    pub(super) fn admission_ok(&self, j: JobId, now: SimTime) -> bool {
        let spec = self.spec(j);
        self.hooks.admit(&super::hooks::AdmissionView {
            job: j,
            kind: spec.kind,
            class: spec.class,
            size: spec.size,
            running_capability: self.cap_running,
            now,
        })
    }

    /// Minimum nodes `j` needs to start (its min size for malleable jobs in
    /// hybrid mode; full size otherwise).
    pub(super) fn start_need(&self, j: JobId) -> u32 {
        let spec = self.spec(j);
        if spec.kind == JobKind::Malleable && self.hybrid() {
            spec.min_size
        } else {
            spec.size
        }
    }

    /// Size to start `j` at, given `avail` usable nodes. Malleable jobs
    /// greedily take the largest size available ("the scheduler can choose
    /// malleable jobs' sizes at their start or resumed time").
    pub(super) fn choose_start_size(&self, j: JobId, avail: u32) -> u32 {
        let spec = self.spec(j);
        if spec.kind == JobKind::Malleable && self.hybrid() {
            avail.clamp(spec.min_size, spec.size)
        } else {
            spec.size
        }
    }

    /// Shadow reservation for the blocked head job. Reuses the scratch
    /// release buffer; per-job split counts are O(1) cluster lookups. On a
    /// sharded backend the projection counts only releases on the head's
    /// shard — nodes freed elsewhere can never reach it.
    pub(super) fn head_shadow(&mut self, head: JobId, now: SimTime) -> Shadow {
        let mut releases = std::mem::take(&mut self.scratch.releases);
        // For a placed head this is its home; for an unplaced one, the
        // shard whose free count `avail_for` reports below — either way
        // the projection and the availability refer to the same shard.
        let head_shard = self.cluster.placement_shard(head);
        // Only the plain portion returns to the free pool (squatted nodes
        // go back to their on-demand holder), so the backend walks its
        // split counters directly — one pass, no per-job queries. The
        // shadow's heap selection absorbs the backend's unordered
        // iteration.
        self.cluster
            .for_each_plain_split(head_shard, &mut |v, plain| {
                let (st, spec) = self.table.state_spec(v);
                if st.status != Status::Running && st.status != Status::Draining {
                    return;
                }
                releases.push((Self::expected_end_of(spec, st, now), plain));
            });
        let avail = self.cluster.avail_for(head);
        let shadow = compute_shadow(&mut releases, avail, self.start_need(head));
        Scratch::stow(&mut self.scratch.releases, releases);
        shadow
    }

    /// Pick a backfill size for `j` under `shadow`, or None when no size
    /// qualifies.
    pub(super) fn backfill_size(&self, j: JobId, shadow: Shadow, now: SimTime) -> Option<u32> {
        let (st, spec) = self.table.state_spec(j);
        // With zero idle reserved nodes machine-wide no job holds any, so
        // the per-holder lookup is skipped on the common path.
        let own = if self.cluster.total_reserved_idle() == 0 {
            0
        } else {
            self.cluster.reserved_idle_count(j)
        };
        // Availability must match start_job's allocation paths: a job with
        // a private reservation draws from free + own; otherwise it may
        // squat on notice-phase reservations.
        let avail = if own > 0 || !self.cfg.backfill_on_reserved {
            self.cluster.avail_for(j)
        } else {
            let table = &self.table;
            self.cluster
                .backfill_avail_for(j, &mut |h| table.squattable(h))
        };
        if spec.kind == JobKind::Malleable && self.hybrid() {
            if avail < spec.min_size {
                return None;
            }
            // Largest size finishing before the shadow…
            let n1 = avail.min(spec.size);
            if may_backfill(n1, now + self.est_wall_of(spec, st, n1), avail, shadow) {
                return Some(n1);
            }
            // …or a smaller size fitting in the shadow's spare nodes.
            let n2 = shadow.extra.min(avail).min(spec.size);
            if n2 >= spec.min_size && may_backfill(n2, SimTime::MAX, avail, shadow) {
                return Some(n2);
            }
            None
        } else {
            let size = spec.size;
            may_backfill(size, now + self.est_wall_of(spec, st, size), avail, shadow)
                .then_some(size)
        }
    }
}
