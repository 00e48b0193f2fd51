//! The scheduling pass: queue ordering, in-order starts with deadlock
//! avoidance, EASY backfilling behind a blocked head, shadow computation,
//! and backfill sizing.
//!
//! ## The release profile
//!
//! The blocked head's shadow walks the [`ReleaseProfile`]: every running
//! and draining job, ordered by `(shard, release key, id)` and updated at
//! the run transitions, so a projection reads releases from the front of
//! the head's shard instead of scanning and selecting over the machine.
//! A job's release key ([`SimCore::release_key`]) is a pure function of
//! its slot, recomputed to remove the entry (the wait queue's discipline):
//! every transition unindexes the job *before* it touches the run record,
//! the remaining work or the status, and re-indexes it after.
//!
//! The key is the job's expected end ([`SimCore::expected_end_of`]) at any
//! instant `now` with `key > now + 1`. A rigid run's end and a drain's
//! deadline never move; a malleable run's end is `from + ⌈rem/size⌉`,
//! constant in `now` until the run passes its estimate, after which it
//! clamps to `now + 1` — and then its key is at most `now + 1`. So the
//! walk re-projects exactly only the prefix with keys `≤ now + 1` and
//! reads the rest as stored. [`shadow_walk`] sorts by node count only the
//! run of equal ends that crosses the head's need, which reproduces
//! [`compute_shadow`]'s `(end, nodes)` order; under `paranoid_checks`
//! every profile shadow is compared with `compute_shadow` over the full
//! split scan, the historical implementation kept as the oracle.
//!
//! The profile is derived state: a snapshot does not carry it, restore
//! rebuilds it from the slots ([`SimCore::derive_profile`]) and a fork
//! clones it.

use super::core::{Scratch, SimCore};
use super::events::Ev;
use crate::backfill::{compute_shadow, may_backfill, shadow_walk, Shadow};
use crate::jobstate::{n_checkpoints, JobState, Status};
use crate::timeline::Observer;
use hws_cluster::ClusterBackend;
use hws_sim::{EventQueue, SimDuration, SimTime};
use hws_workload::{JobId, JobKind, JobSpec};
use std::collections::BTreeSet;

/// The running and draining jobs in `(shard, release key, id)` order; see
/// the module docs. Entries are found by recomputing their key, so the
/// profile stores nothing per job beyond its entry.
#[derive(Debug, Clone, Default, PartialEq)]
pub(super) struct ReleaseProfile {
    order: BTreeSet<(u32, SimTime, JobId)>,
}

impl ReleaseProfile {
    /// The entry of `j` on `shard` (`None`: a backend without shards).
    fn entry(shard: Option<usize>, key: SimTime, j: JobId) -> (u32, SimTime, JobId) {
        (shard.map_or(u32::MAX, |s| s as u32), key, j)
    }

    fn insert(&mut self, shard: Option<usize>, key: SimTime, j: JobId) -> bool {
        self.order.insert(Self::entry(shard, key, j))
    }

    fn remove(&mut self, shard: Option<usize>, key: SimTime, j: JobId) -> bool {
        self.order.remove(&Self::entry(shard, key, j))
    }

    /// Jobs on `shard` in ascending key order.
    fn shard(&self, shard: Option<usize>) -> impl Iterator<Item = (SimTime, JobId)> + '_ {
        let (lo, hi) = (
            Self::entry(shard, SimTime::ZERO, JobId(0)),
            Self::entry(shard, SimTime::MAX, JobId(u64::MAX)),
        );
        self.order.range(lo..=hi).map(|&(_, key, j)| (key, j))
    }
}

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
        let hybrid = self.hybrid();

        let mut head: Option<JobId> = None;
        let mut pos = 0;
        // Phase A: start jobs strictly in order while they fit. A job that
        // does not fit in free + its own reserved nodes may still start by
        // squatting on on-demand notice reservations (it becomes a
        // squatter, evicted when the holder arrives) — this keeps reserved
        // nodes busy, as §III-B1 intends.
        while pos < keys.len() {
            let j = keys[pos].job;
            // Per-class admission: a throttled job blocks as the pass
            // head (reservations and EASY backfill proceed behind it),
            // exactly like a job the machine cannot fit yet. The default
            // hook admits everything, so the paper's mechanisms never
            // branch here.
            if hybrid && !self.admission_ok(j, now) {
                head = Some(j);
                break;
            }
            let own = self.cluster.reserved_idle_count(j);
            // Per-job availability: free + own-reserved co-located on one
            // shard (on a single cluster, exactly `free_count() + own`).
            let avail = self.cluster.avail_for(j);
            let need = keys[pos].need(hybrid);
            let (fits, backfill, usable) = if avail >= need {
                (true, false, avail)
            } else if own == 0 && hybrid && self.cfg.backfill_on_reserved {
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
                    self.queue.remove(&keys[pos]);
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
                    .map(|e| e.job)
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
                        self.queue.remove(&keys[pos]);
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
        // skipped, and jobs needing more than it are skipped on the sizes
        // their index entries carry, without reading their slots or
        // querying availability (`backfill_size` would refuse them anyway
        // — `may_backfill` requires `size <= avail_now`).
        if let Some(head_id) = head {
            let usable_cap = self.cluster.free_count() + self.cluster.total_reserved_idle();
            if self.cfg.easy_backfill && usable_cap > 0 {
                // The shadow is computed lazily, at the first candidate
                // surviving the cheap filters: every earlier iteration
                // skipped without touching cluster state, so the
                // projection is the same one an eager computation at loop
                // entry would have built — most passes over a backlog of
                // too-big jobs never pay for it at all.
                let mut shadow = None;
                // A single cluster's squatting availability is the same
                // for every candidate: counted once, and again only after
                // a start.
                let mut shared_avail = None;
                for e in &keys[pos + 1..] {
                    let j = e.job;
                    if e.need(hybrid) > usable_cap {
                        continue;
                    }
                    if hybrid && !self.admission_ok(j, now) {
                        continue;
                    }
                    let shadow = match shadow {
                        Some(s) => s,
                        None => *shadow.insert(self.head_shadow(head_id, now)),
                    };
                    let avail = self.backfill_avail(j, &mut shared_avail);
                    if let Some(size) = self.backfill_size(j, avail, shadow, now) {
                        if self.start_job(j, size, true, now, q) {
                            self.queue.remove(e);
                            shared_avail = None;
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

    /// Shadow reservation for the blocked head job: a walk of the release
    /// profile on the head's shard (see the module docs). For a placed
    /// head that shard is its home; for an unplaced one, the shard whose
    /// free count `avail_for` reports — either way the projection and the
    /// availability refer to the same shard. An unplaced head with no
    /// shard on a sharded backend projects over every shard, which no one
    /// profile range holds: it falls back to the full scan.
    pub(super) fn head_shadow(&mut self, head: JobId, now: SimTime) -> Shadow {
        let shard = self.cluster.placement_shard(head);
        let avail = self.cluster.avail_for(head);
        let need = self.start_need(head);
        if shard.is_none() && self.track_shards {
            return self.scan_shadow(shard, avail, need, now);
        }
        let shadow = self.profile_shadow(shard, avail, need, now);
        if self.cfg.paranoid_checks {
            let scanned = self.scan_shadow(shard, avail, need, now);
            assert_eq!(
                shadow, scanned,
                "profile shadow of {head} at {now:?} drifted from the scan"
            );
        }
        shadow
    }

    /// [`Self::head_shadow`] from the release profile: the prefix whose
    /// keys may have fallen behind the clock is re-projected exactly and
    /// sorted; the rest is read in key order, with plain counts from the
    /// backend's O(1) split counters (squatted nodes go back to their
    /// on-demand holder, not to the free pool).
    fn profile_shadow(
        &mut self,
        shard: Option<usize>,
        avail: u32,
        need: u32,
        now: SimTime,
    ) -> Shadow {
        let mut prefix = std::mem::take(&mut self.scratch.releases);
        let mut group = std::mem::take(&mut self.scratch.group);
        let soon = SimTime::from_secs(now.as_secs().saturating_add(1));
        let mut runs = self.profile.shard(shard).peekable();
        while let Some((_, j)) = runs.next_if(|&(key, _)| key <= soon) {
            let (st, spec) = self.table.state_spec(j);
            prefix.push((
                Self::expected_end_of(spec, st, now),
                self.cluster.split_of(j).0,
            ));
        }
        prefix.sort_unstable();
        let cluster = &self.cluster;
        let rest = runs.map(|(end, j)| (end, cluster.split_of(j).0));
        let shadow = shadow_walk(prefix.iter().copied().chain(rest), avail, need, &mut group);
        Scratch::stow(&mut self.scratch.releases, prefix);
        Scratch::stow(&mut self.scratch.group, group);
        shadow
    }

    /// [`Self::head_shadow`] by the full scan: every running job's plain
    /// split on `shard` (every shard for `None`), its expected end
    /// recomputed, then [`compute_shadow`]'s selection. The fallback for
    /// an unplaced head, and the oracle of the profile walk.
    fn scan_shadow(&mut self, shard: Option<usize>, avail: u32, need: u32, now: SimTime) -> Shadow {
        let mut releases = std::mem::take(&mut self.scratch.releases);
        self.cluster.for_each_plain_split(shard, &mut |v, plain| {
            let (st, spec) = self.table.state_spec(v);
            if st.status != Status::Running && st.status != Status::Draining {
                return;
            }
            releases.push((Self::expected_end_of(spec, st, now), plain));
        });
        let shadow = compute_shadow(&mut releases, avail, need);
        Scratch::stow(&mut self.scratch.releases, releases);
        shadow
    }

    /// `j`'s release-profile key: its expected end, except that a
    /// malleable run past its estimate keeps the end it had when it
    /// crossed it instead of clamping to the clock (see the module docs).
    /// A pure function of the slot. `None` for a job without a run, and
    /// when the end overflows the clock — possible only in a decoded
    /// image, which restore then refuses.
    fn release_key(spec: &JobSpec, st: &JobState) -> Option<SimTime> {
        if let Some(until) = st.drain_until {
            return Some(until);
        }
        let run = st.run.as_ref()?;
        let wall = match spec.kind {
            JobKind::Malleable => {
                let est_total_ns = spec.estimate.as_secs().checked_mul(u64::from(spec.size))?;
                let work_ns = spec.work.as_secs().checked_mul(u64::from(spec.size))?;
                let done_ns = work_ns.saturating_sub(st.remaining_ns);
                let rem = est_total_ns.saturating_sub(done_ns).max(1);
                let from = run.work_anchor.max(run.setup_end);
                let secs = rem.div_ceil(u64::from(run.size.max(1)));
                return from.as_secs().checked_add(secs).map(SimTime::from_secs);
            }
            _ => {
                let done_before = spec.work.saturating_sub(run.work_at_start);
                let est = spec.estimate.saturating_sub(done_before).as_secs().max(1);
                let ckpts = n_checkpoints(SimDuration::from_secs(est), run.tau);
                spec.setup
                    .as_secs()
                    .checked_add(est)?
                    .checked_add(ckpts.checked_mul(run.delta.as_secs())?)?
            }
        };
        run.start
            .as_secs()
            .checked_add(wall)
            .map(SimTime::from_secs)
    }

    /// Enter `j`, which just started or began draining, into the release
    /// profile.
    pub(super) fn track_release(&mut self, j: JobId) {
        let (st, spec) = self.table.state_spec(j);
        let key = Self::release_key(spec, st).expect("a run's expected end fits the clock");
        let fresh = self.profile.insert(self.cluster.shard_of(j), key, j);
        debug_assert!(fresh, "{j} entered the release profile twice");
    }

    /// Take `j` out of the release profile. Must run *before* its run
    /// record, remaining work or status changes, so the recomputed key is
    /// the one it was entered under.
    pub(super) fn untrack_release(&mut self, j: JobId) {
        let (st, spec) = self.table.state_spec(j);
        let key = Self::release_key(spec, st).expect("a run's expected end fits the clock");
        assert!(
            self.profile.remove(self.cluster.shard_of(j), key, j),
            "release profile out of sync: {j} not found under its computed key"
        );
    }

    /// The profile's entries, derived from the live slots: every running
    /// or draining job under its shard and key. Restore builds the
    /// profile from it; under `paranoid_checks` the maintained profile
    /// is compared with it after every event.
    pub(super) fn derive_profile(&self) -> Result<ReleaseProfile, String> {
        let (mut profile, mut bad) = (ReleaseProfile::default(), Ok(()));
        self.table.for_each_live(|spec, st| {
            if st.status != Status::Running && st.status != Status::Draining {
                return;
            }
            match Self::release_key(spec, st) {
                Some(key) => {
                    profile.insert(self.cluster.shard_of(spec.id), key, spec.id);
                }
                None => bad = Err(format!("{}: expected end overflows the clock", spec.id)),
            }
        });
        bad.map(|()| profile)
    }

    /// Paranoid cross-check: the maintained profile equals the one derived
    /// from the live slots.
    pub(super) fn check_profile_invariant(&self) {
        let derived = self
            .derive_profile()
            .expect("live runs end within the clock");
        assert!(
            self.profile == derived,
            "release profile drifted from the live runs:\n  profile: {:?}\n  derived: {:?}",
            self.profile,
            derived
        );
    }

    /// Nodes backfill candidate `j` could start on right now. Must match
    /// `start_job`'s allocation paths: a job with a private reservation
    /// draws from free + own; otherwise it may squat on notice-phase
    /// reservations. On a single cluster the squatting count does not
    /// depend on the candidate, so `shared` caches it until the caller
    /// clears it after a start.
    fn backfill_avail(&self, j: JobId, shared: &mut Option<u32>) -> u32 {
        // With zero idle reserved nodes machine-wide no job holds any, so
        // the per-holder lookup is skipped on the common path.
        let own = if self.cluster.total_reserved_idle() == 0 {
            0
        } else {
            self.cluster.reserved_idle_count(j)
        };
        if own > 0 || !self.cfg.backfill_on_reserved {
            return self.cluster.avail_for(j);
        }
        let table = &self.table;
        let count = || {
            self.cluster
                .backfill_avail_for(j, &mut |h| table.squattable(h))
        };
        if self.track_shards {
            count()
        } else {
            *shared.get_or_insert_with(count)
        }
    }

    /// Pick a backfill size for `j` with `avail` usable nodes under
    /// `shadow`, or None when no size qualifies.
    pub(super) fn backfill_size(
        &self,
        j: JobId,
        avail: u32,
        shadow: Shadow,
        now: SimTime,
    ) -> Option<u32> {
        let (st, spec) = self.table.state_spec(j);
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
