//! # hws-cluster — resource-management substrate
//!
//! Per-node state tracking for a machine of identical nodes (the paper's
//! model: "an HPC system has N identical nodes", allocation at node
//! granularity, jobs run exclusively on their nodes).
//!
//! The cluster knows nothing about scheduling policy; it provides the
//! *operations* the paper's resource manager must support — allocate,
//! release, **reserve** (for on-demand jobs given advance notice),
//! **backfill onto reserved nodes** ("the nodes reserved for on-demand jobs
//! can be used to backfill jobs"), **shrink/expand** (malleable jobs), and
//! **preemption** bookkeeping — while maintaining conservation invariants
//! that the test-suite (including property tests) checks after every
//! operation sequence.
//!
//! The [`lease::LeaseLedger`] records which running jobs lent nodes to an
//! on-demand job, so that on completion "the on-demand job will try to
//! return its nodes to the lenders" (§III-B3).

pub mod backend;
pub mod federation;
pub mod lease;
pub mod node;
pub mod snapshot;

pub use backend::ClusterBackend;
pub use federation::{
    ClassAffinity, Federation, FederationConfig, FirstFit, LeastLoaded, PlaceReq, PlacementPolicy,
    ShardSpec, ShardView,
};
pub use lease::{Lease, LeaseLedger};
pub use node::{NodeId, NodeState};
pub use snapshot::SnapshotBackend;

use hws_workload::{JobId, JobMap};
use std::collections::{BTreeMap, BTreeSet};

/// Outcome of releasing a job's nodes: how many went back to the general
/// free pool and how many returned to on-demand reservations the job was
/// squatting on.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReleaseOutcome {
    pub to_free: u32,
    /// `(reservation holder, node count)` — nodes that were backfilled on a
    /// reservation return to that reservation, not to the free pool.
    pub to_reservations: Vec<(JobId, u32)>,
}

impl ReleaseOutcome {
    pub fn total(&self) -> u32 {
        self.to_free + self.to_reservations.iter().map(|(_, k)| *k).sum::<u32>()
    }
}

/// Incremental per-job node split: how many of the job's nodes are plain
/// `Busy` vs squatted (`ReservedBusy`). Maintained on every node transition
/// so the hot path never rescans allocations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Split {
    plain: u32,
    squatted: u32,
}

/// The machine: `n` identical nodes with per-node state.
///
/// Besides the authoritative per-node states, the cluster maintains three
/// pieces of *derived* accounting, updated incrementally on every node
/// transition so the scheduler's hot path is scan-free:
///
/// * `splits` — per running job, its `(plain, squatted)` node counts
///   (makes [`Cluster::split_of`] O(1) instead of O(job size));
/// * `squatter_index` — reservation holder → squatter → node count
///   (makes [`Cluster::squatters`] O(squatters) instead of O(total nodes),
///   and lets [`Cluster::release_reservation`] unsquat by walking only the
///   affected allocations);
/// * `reserved_idle_total` — running total of idle reserved nodes (makes
///   [`Cluster::total_reserved_idle`] O(1)).
///
/// [`Cluster::check_invariants`] cross-validates all three against a full
/// node scan; the simulator's `paranoid_checks` mode runs it per event.
///
/// Node moves are slice operations. An allocation copies the top of the
/// free-list stack (or of an idle reservation) in pop order and truncates
/// it; a release appends the job's plain nodes to the free list in
/// allocation order. Both keep the exact node order a one-id-at-a-time
/// pop/push loop would produce, which outages and snapshot images
/// observe. Per-node work is left for squatted nodes, which return to
/// their own holders, and, while a drain is pending, for the probe that
/// sends a draining node `Down` instead of free.
#[derive(Debug, Clone)]
pub struct Cluster {
    nodes: Vec<NodeState>,
    /// Stack of plain-free nodes (state `Free`).
    free_list: Vec<NodeId>,
    /// Running job → its nodes (both `Busy` and `ReservedBusy`).
    alloc: JobMap<Vec<NodeId>>,
    /// Reservation holder → idle reserved nodes (state `Reserved`).
    reserved_idle: JobMap<Vec<NodeId>>,
    /// Running job → incremental `(plain, squatted)` counters.
    splits: JobMap<Split>,
    /// Holder → squatter → nodes of the squatter on that holder's
    /// reservation. `BTreeMap` keeps [`Cluster::squatters`] output in
    /// deterministic job-id order without a per-call sort.
    squatter_index: JobMap<BTreeMap<JobId, u32>>,
    /// Running total of idle reserved nodes across all holders.
    reserved_idle_total: u32,
    /// Nodes marked for graceful drain while still occupied; they go
    /// [`NodeState::Down`] instead of back into service the moment they
    /// are next freed (see [`Cluster::free_node`]).
    draining: BTreeSet<u32>,
    /// Running count of [`NodeState::Down`] nodes.
    down_count: u32,
    /// Recycled node-list buffers: `release` parks each emptied allocation
    /// `Vec` here and the allocate paths draw from it, so steady-state
    /// replay does one node-list malloc per *concurrent* job instead of
    /// one per job. Pure capacity reuse — never observable state.
    spare: Vec<Vec<NodeId>>,
}

impl Cluster {
    pub fn new(n: u32) -> Self {
        assert!(n > 0, "cluster must have at least one node");
        Cluster {
            nodes: vec![NodeState::Free; n as usize],
            free_list: (0..n).rev().map(NodeId).collect(),
            alloc: JobMap::default(),
            reserved_idle: JobMap::default(),
            splits: JobMap::default(),
            squatter_index: JobMap::default(),
            reserved_idle_total: 0,
            draining: BTreeSet::new(),
            down_count: 0,
            spare: Vec::new(),
        }
    }

    /// Take a cleared node buffer with room for `k` ids, recycling a
    /// retired allocation's capacity when one is parked.
    fn fresh_nodes(&mut self, k: usize) -> Vec<NodeId> {
        let mut v = self.spare.pop().unwrap_or_default();
        debug_assert!(v.is_empty());
        v.reserve(k);
        v
    }

    /// Park an emptied node buffer for reuse. Bounded so pathological
    /// bursts cannot pin unbounded capacity.
    fn retire_nodes(&mut self, mut v: Vec<NodeId>) {
        if self.spare.len() < 128 && v.capacity() > 0 {
            v.clear();
            self.spare.push(v);
        }
    }

    pub fn total_nodes(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// Nodes currently out of service ([`NodeState::Down`]).
    pub fn down_count(&self) -> u32 {
        self.down_count
    }

    /// Nodes in service (total minus down). Draining-but-occupied nodes
    /// still count as live until they actually leave.
    pub fn live_nodes(&self) -> u32 {
        self.total_nodes() - self.down_count
    }

    /// Nodes marked for graceful drain but not yet down.
    pub fn draining_count(&self) -> u32 {
        self.draining.len() as u32
    }

    pub fn is_down(&self, id: NodeId) -> bool {
        self.nodes.get(id.index()) == Some(&NodeState::Down)
    }

    /// Authoritative state of one node (`None` when out of range).
    pub fn node_state(&self, id: NodeId) -> Option<NodeState> {
        self.nodes.get(id.index()).copied()
    }

    /// Nodes in the plain free pool (not reserved, not busy).
    pub fn free_count(&self) -> u32 {
        self.free_list.len() as u32
    }

    /// Idle nodes reserved for `holder`. The running total short-circuits
    /// the probe: with nothing reserved machine-wide (the common state —
    /// reservations exist only around on-demand notices) no holder can
    /// have any.
    pub fn reserved_idle_count(&self, holder: JobId) -> u32 {
        if self.reserved_idle_total == 0 {
            return 0;
        }
        self.reserved_idle
            .get(&holder)
            .map_or(0, |v| v.len() as u32)
    }

    /// Idle reserved nodes across all holders. O(1).
    pub fn total_reserved_idle(&self) -> u32 {
        self.reserved_idle_total
    }

    /// Number of nodes currently allocated to `job` (0 if not running).
    pub fn size_of(&self, job: JobId) -> u32 {
        self.alloc.get(&job).map_or(0, |v| v.len() as u32)
    }

    pub fn is_running(&self, job: JobId) -> bool {
        self.alloc.contains_key(&job)
    }

    /// Number of running jobs. O(1).
    pub fn running_job_count(&self) -> u32 {
        self.alloc.len() as u32
    }

    pub fn running_jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        self.alloc.keys().copied()
    }

    /// Visit every running job with a non-zero plain node count, yielding
    /// that count: one walk of the incremental split counters, no per-job
    /// lookups. Same unordered iteration contract as
    /// [`Cluster::running_jobs`].
    pub fn for_each_plain_split(&self, f: &mut dyn FnMut(JobId, u32)) {
        for (&j, s) in &self.splits {
            if s.plain > 0 {
                f(j, s.plain);
            }
        }
    }

    pub fn nodes_of(&self, job: JobId) -> &[NodeId] {
        self.alloc.get(&job).map_or(&[], |v| v.as_slice())
    }

    /// Split a running job's allocation into (plain busy, squatted) node
    /// counts. Squatted nodes return to their holder's reservation on
    /// release, so only the plain part becomes free — the scheduler's
    /// shadow projection needs the distinction. O(1): served from the
    /// incrementally maintained counters (reference scan:
    /// [`Cluster::split_of_scanned`]).
    pub fn split_of(&self, job: JobId) -> (u32, u32) {
        let s = self.splits.get(&job).copied().unwrap_or_default();
        (s.plain, s.squatted)
    }

    /// Reference implementation of [`Cluster::split_of`] by scanning the
    /// job's allocation. Used by the property-test oracle; the scheduler
    /// hot path never calls it.
    pub fn split_of_scanned(&self, job: JobId) -> (u32, u32) {
        let mut plain = 0;
        let mut squatted = 0;
        for id in self.nodes_of(job) {
            match self.nodes[id.index()] {
                NodeState::Busy { .. } => plain += 1,
                NodeState::ReservedBusy { .. } => squatted += 1,
                _ => unreachable!("allocated node must be busy"),
            }
        }
        (plain, squatted)
    }

    /// Jobs backfilled onto `holder`'s reserved nodes, with the number of
    /// reserved nodes each occupies, in job-id order. O(squatters): served
    /// from the incrementally maintained index (reference scan:
    /// [`Cluster::squatters_scanned`]).
    pub fn squatters(&self, holder: JobId) -> Vec<(JobId, u32)> {
        self.squatter_index
            .get(&holder)
            .map(|m| m.iter().map(|(&j, &k)| (j, k)).collect())
            .unwrap_or_default()
    }

    /// Reference implementation of [`Cluster::squatters`] by scanning all
    /// nodes. Used by the property-test oracle; the scheduler hot path
    /// never calls it.
    pub fn squatters_scanned(&self, holder: JobId) -> Vec<(JobId, u32)> {
        let mut counts: JobMap<u32> = JobMap::default();
        for st in &self.nodes {
            if let NodeState::ReservedBusy { holder: h, job } = st {
                if *h == holder {
                    *counts.entry(*job).or_default() += 1;
                }
            }
        }
        let mut v: Vec<_> = counts.into_iter().collect();
        v.sort_by_key(|(j, _)| *j);
        v
    }

    /// Record that `job` squats on `count` of `holder`'s reserved nodes.
    fn note_squat(&mut self, holder: JobId, job: JobId, count: u32) {
        if count > 0 {
            *self
                .squatter_index
                .entry(holder)
                .or_default()
                .entry(job)
                .or_default() += count;
        }
    }

    /// Record that `job` vacated `count` of `holder`'s reserved nodes.
    fn note_unsquat(&mut self, holder: JobId, job: JobId, count: u32) {
        if count == 0 {
            return;
        }
        let holder_map = self
            .squatter_index
            .get_mut(&holder)
            .expect("unsquat of untracked holder");
        let left = holder_map.get_mut(&job).expect("unsquat of untracked job");
        debug_assert!(*left >= count, "unsquat exceeds tracked count");
        *left -= count;
        if *left == 0 {
            holder_map.remove(&job);
            if holder_map.is_empty() {
                self.squatter_index.remove(&holder);
            }
        }
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Allocate `k` nodes from the plain free pool. Panics if `job` is
    /// already running; returns `None` (allocating nothing) when the free
    /// pool is too small.
    pub fn allocate(&mut self, job: JobId, k: u32) -> Option<&[NodeId]> {
        assert!(!self.alloc.contains_key(&job), "{job} already allocated");
        assert!(k > 0, "zero-size allocation for {job}");
        if self.free_count() < k {
            return None;
        }
        let mut nodes = self.fresh_nodes(k as usize);
        move_tail(
            &mut self.free_list,
            k as usize,
            &mut nodes,
            &mut self.nodes,
            NodeState::Busy { job },
        );
        self.splits.insert(
            job,
            Split {
                plain: k,
                squatted: 0,
            },
        );
        Some(self.alloc.entry(job).or_insert(nodes))
    }

    /// Allocate `k` nodes for reservation-holder `job`, consuming its own
    /// idle reserved nodes first and topping up from the free pool.
    /// Any reservation remainder stays reserved (the caller decides whether
    /// to release it). Returns `None` when even reserved+free is too small.
    pub fn allocate_with_reserved(&mut self, job: JobId, k: u32) -> Option<&[NodeId]> {
        assert!(!self.alloc.contains_key(&job), "{job} already allocated");
        assert!(k > 0, "zero-size allocation for {job}");
        let own_reserved = self.reserved_idle_count(job);
        if own_reserved + self.free_count() < k {
            return None;
        }
        let mut nodes = self.fresh_nodes(k as usize);
        let busy = NodeState::Busy { job };
        if own_reserved > 0 {
            let idle = self
                .reserved_idle
                .get_mut(&job)
                .expect("holder has idle nodes");
            let take = own_reserved.min(k);
            move_tail(idle, take as usize, &mut nodes, &mut self.nodes, busy);
            self.reserved_idle_total -= take;
            if idle.is_empty() {
                self.reserved_idle.remove(&job);
            }
        }
        let rest = k as usize - nodes.len();
        move_tail(&mut self.free_list, rest, &mut nodes, &mut self.nodes, busy);
        self.splits.insert(
            job,
            Split {
                plain: k,
                squatted: 0,
            },
        );
        Some(self.alloc.entry(job).or_insert(nodes))
    }

    /// Idle reserved nodes whose holder satisfies `squat_allowed`.
    /// O(active holders), with an O(1) exit when nothing is reserved.
    pub fn squattable_idle(&self, mut squat_allowed: impl FnMut(JobId) -> bool) -> u32 {
        if self.reserved_idle_total == 0 {
            return 0;
        }
        self.reserved_idle
            .iter()
            .filter(|(h, _)| squat_allowed(**h))
            .map(|(_, v)| v.len() as u32)
            .sum()
    }

    /// Allocate `k` nodes for a backfill job, using plain free nodes first
    /// and squatting on idle reserved nodes whose holder satisfies
    /// `squat_allowed` (the scheduler permits squatting only on on-demand
    /// advance-notice reservations, never on the private reservations of
    /// preempted lenders). Returns the holders squatted on (so the scheduler
    /// can evict the squatter when the holder arrives).
    pub fn allocate_backfill(
        &mut self,
        job: JobId,
        k: u32,
        mut squat_allowed: impl FnMut(JobId) -> bool,
    ) -> Option<Vec<(JobId, u32)>> {
        assert!(!self.alloc.contains_key(&job), "{job} already allocated");
        assert!(k > 0, "zero-size allocation for {job}");
        let avail = self.free_count() + self.squattable_idle(&mut squat_allowed);
        if avail < k {
            return None;
        }
        let mut nodes = self.fresh_nodes(k as usize);
        let plain = (k as usize).min(self.free_list.len());
        move_tail(
            &mut self.free_list,
            plain,
            &mut nodes,
            &mut self.nodes,
            NodeState::Busy { job },
        );
        let mut squatted: Vec<(JobId, u32)> = Vec::new();
        if nodes.len() < k as usize {
            // Deterministic holder order.
            let mut holders: Vec<JobId> = self
                .reserved_idle
                .keys()
                .copied()
                .filter(|h| squat_allowed(*h))
                .collect();
            holders.sort();
            for h in holders {
                let idle = self.reserved_idle.get_mut(&h).expect("key exists");
                let taken = (k as usize - nodes.len()).min(idle.len());
                let squat = NodeState::ReservedBusy { holder: h, job };
                move_tail(idle, taken, &mut nodes, &mut self.nodes, squat);
                if idle.is_empty() {
                    self.reserved_idle.remove(&h);
                }
                if taken > 0 {
                    self.reserved_idle_total -= taken as u32;
                    self.note_squat(h, job, taken as u32);
                    squatted.push((h, taken as u32));
                }
                if nodes.len() == k as usize {
                    break;
                }
            }
        }
        debug_assert_eq!(nodes.len(), k as usize);
        let squatted_total: u32 = squatted.iter().map(|(_, k)| *k).sum();
        self.splits.insert(
            job,
            Split {
                plain: k - squatted_total,
                squatted: squatted_total,
            },
        );
        self.alloc.insert(job, nodes);
        Some(squatted)
    }

    /// Take a draining node out of service. Returns whether `id` was
    /// draining (and is now [`NodeState::Down`]).
    fn take_down_if_draining(&mut self, id: NodeId) -> bool {
        // `is_empty` guard: with no drains pending (the common case — a
        // whole replay without outages never marks one) the tree probe
        // collapses to a length check.
        if !self.draining.is_empty() && self.draining.remove(&id.0) {
            self.nodes[id.index()] = NodeState::Down;
            self.down_count += 1;
            true
        } else {
            false
        }
    }

    /// Push vacated nodes, none of them draining, onto the free-list
    /// stack in `ids` order: the single choke point through which nodes
    /// re-enter the free pool, and one slice move.
    fn push_free(&mut self, ids: &[NodeId]) {
        for id in ids {
            self.nodes[id.index()] = NodeState::Free;
        }
        self.free_list.extend_from_slice(ids);
    }

    /// Return vacated plain nodes to the free pool. Nodes marked draining
    /// go [`NodeState::Down`] instead and are dropped from `ids`. Returns
    /// how many became free.
    fn free_nodes(&mut self, ids: &mut Vec<NodeId>) -> u32 {
        if !self.draining.is_empty() {
            ids.retain(|&id| !self.take_down_if_draining(id));
        }
        self.push_free(ids);
        ids.len() as u32
    }

    /// Dispose of the squatted nodes `job` vacates, in order, and settle
    /// the squatter index: each node goes back to its holder's
    /// reservation, or down if draining. Squatted nodes sit in per-holder
    /// runs (a backfill takes them holder by holder), so each run returns
    /// with one reservation lookup and, with no drain pending, one slice
    /// append. Returns the per-holder counts of nodes returned, in
    /// first-seen holder order.
    fn unsquat_nodes(&mut self, job: JobId, ids: &[NodeId]) -> Vec<(JobId, u32)> {
        let mut returned: Vec<(JobId, u32)> = Vec::new();
        let mut vacated: Vec<(JobId, u32)> = Vec::new();
        let mut rest = ids;
        while let Some(&first) = rest.first() {
            let holder = self.squat_holder(first);
            let len = 1 + rest[1..]
                .iter()
                .take_while(|&&id| self.squat_holder(id) == holder)
                .count();
            let (run, tail) = rest.split_at(len);
            rest = tail;
            tally(&mut vacated, holder, len as u32);
            let back = if self.draining.is_empty() {
                self.return_to_holder(holder, run);
                run.len()
            } else {
                // Draining nodes leave service; the rest keep their order.
                let mut kept = Vec::with_capacity(run.len());
                for &id in run {
                    if !self.take_down_if_draining(id) {
                        kept.push(id);
                    }
                }
                self.return_to_holder(holder, &kept);
                kept.len()
            };
            if back > 0 {
                tally(&mut returned, holder, back as u32);
            }
        }
        for &(holder, k) in &vacated {
            self.note_unsquat(holder, job, k);
        }
        returned
    }

    /// The reservation holder a squatted node belongs to.
    fn squat_holder(&self, id: NodeId) -> JobId {
        match self.nodes[id.index()] {
            NodeState::ReservedBusy { holder, .. } => holder,
            _ => unreachable!("unsquatted node {id} is not squatted"),
        }
    }

    /// Append vacated squatted nodes, none of them draining, to `holder`'s
    /// idle reservation in `ids` order.
    fn return_to_holder(&mut self, holder: JobId, ids: &[NodeId]) {
        if ids.is_empty() {
            return;
        }
        for id in ids {
            self.nodes[id.index()] = NodeState::Reserved { holder };
        }
        self.reserved_idle
            .entry(holder)
            .or_default()
            .extend_from_slice(ids);
        self.reserved_idle_total += ids.len() as u32;
    }

    /// Release all of `job`'s nodes. Plain nodes go to the free pool;
    /// squatted nodes return to their holder's reservation. Nodes marked
    /// draining leave service instead and appear in neither bucket.
    ///
    /// Free-list order is exactly one push per plain node in allocation
    /// order, done as one slice append; squatted nodes return to their
    /// holders run by run.
    pub fn release(&mut self, job: JobId) -> ReleaseOutcome {
        let mut nodes = self.alloc.remove(&job).unwrap_or_default();
        let split = self.splits.remove(&job).unwrap_or_default();
        let mut out = ReleaseOutcome::default();
        if split.squatted > 0 {
            let mut squatted = Vec::with_capacity(split.squatted as usize);
            let states = &self.nodes;
            nodes.retain(|&id| match states[id.index()] {
                NodeState::ReservedBusy { .. } => {
                    squatted.push(id);
                    false
                }
                _ => true,
            });
            out.to_reservations = self.unsquat_nodes(job, &squatted);
        }
        debug_assert!(nodes
            .iter()
            .all(|id| self.nodes[id.index()] == NodeState::Busy { job }));
        out.to_free = self.free_nodes(&mut nodes);
        self.retire_nodes(nodes);
        out
    }

    /// Remove `k` nodes from a running job (malleable shrink). Surrenders
    /// plain nodes first: SPAA shrinks feed the arriving on-demand job via
    /// the free pool, while squatted nodes would leak to their reservation
    /// holders instead. Panics if the job would drop below one node.
    pub fn shrink(&mut self, job: JobId, k: u32) -> ReleaseOutcome {
        assert!(self.is_running(job), "shrink of non-running job");
        let (plain, squatted) = self.split_of(job);
        assert!(
            plain + squatted > k,
            "shrink would leave {job} with no nodes"
        );
        let mut nodes = std::mem::take(self.alloc.get_mut(&job).expect("running"));
        // Stable three-way partition so plain nodes are surrendered first,
        // and among the plain nodes draining ones (which leave service on
        // release) before healthy ones, so shrinks accelerate graceful
        // drains. The job keeps the partitioned order. With no squatted
        // node and no draining mark the list is already partitioned.
        let mut draining_plain = 0;
        if squatted > 0 || !self.draining.is_empty() {
            let mut healthy = self.fresh_nodes(nodes.len());
            let mut squats = self.fresh_nodes(squatted as usize);
            let (states, draining) = (&self.nodes, &self.draining);
            nodes.retain(|&id| match states[id.index()] {
                NodeState::ReservedBusy { .. } => {
                    squats.push(id);
                    false
                }
                _ if draining.contains(&id.0) => true,
                _ => {
                    healthy.push(id);
                    false
                }
            });
            draining_plain = nodes.len();
            nodes.extend_from_slice(&healthy);
            nodes.extend_from_slice(&squats);
            self.retire_nodes(healthy);
            self.retire_nodes(squats);
        }
        let mut removed = self.fresh_nodes(k as usize);
        removed.extend(nodes.drain(..k as usize));
        *self.alloc.get_mut(&job).expect("still running") = nodes;
        // `removed` holds draining plain nodes, then healthy plain nodes,
        // then squatted nodes.
        let plain_removed = (k as usize).min(plain as usize);
        let down = draining_plain.min(plain_removed);
        for &id in &removed[..down] {
            let went_down = self.take_down_if_draining(id);
            debug_assert!(went_down);
        }
        self.push_free(&removed[down..plain_removed]);
        let to_reservations = self.unsquat_nodes(job, &removed[plain_removed..]);
        let split = self.splits.get_mut(&job).expect("running job has a split");
        split.plain -= plain_removed as u32;
        split.squatted -= k - plain_removed as u32;
        self.retire_nodes(removed);
        ReleaseOutcome {
            to_free: (plain_removed - down) as u32,
            to_reservations,
        }
    }

    /// Add up to `k` free nodes to a running job (malleable expand).
    /// Returns how many nodes were actually added.
    pub fn expand(&mut self, job: JobId, k: u32) -> u32 {
        assert!(self.alloc.contains_key(&job), "expand of non-running job");
        let take = k.min(self.free_count());
        move_tail(
            &mut self.free_list,
            take as usize,
            self.alloc.get_mut(&job).expect("checked"),
            &mut self.nodes,
            NodeState::Busy { job },
        );
        self.splits
            .get_mut(&job)
            .expect("running job has a split")
            .plain += take;
        take
    }

    // ------------------------------------------------------------------
    // Reservations
    // ------------------------------------------------------------------

    /// Move up to `k` free nodes into `holder`'s reservation. Returns how
    /// many were reserved.
    pub fn reserve(&mut self, holder: JobId, k: u32) -> u32 {
        let take = k.min(self.free_count());
        if take == 0 {
            return 0;
        }
        move_tail(
            &mut self.free_list,
            take as usize,
            self.reserved_idle.entry(holder).or_default(),
            &mut self.nodes,
            NodeState::Reserved { holder },
        );
        self.reserved_idle_total += take;
        take
    }

    /// Move up to `k` idle reserved nodes from `from`'s reservation to
    /// `to`'s. Used when an arrived on-demand job outranks a reservation
    /// held for a merely-predicted one. Returns the number transferred.
    pub fn transfer_reserved(&mut self, from: JobId, to: JobId, k: u32) -> u32 {
        if from == to || k == 0 {
            return 0;
        }
        let Some(src) = self.reserved_idle.get_mut(&from) else {
            return 0;
        };
        let take = (k as usize).min(src.len());
        let moved: Vec<NodeId> = src.split_off(src.len() - take);
        if src.is_empty() {
            self.reserved_idle.remove(&from);
        }
        for id in &moved {
            self.nodes[id.index()] = NodeState::Reserved { holder: to };
        }
        self.reserved_idle.entry(to).or_default().extend(moved);
        take as u32
    }

    /// Drop `holder`'s reservation: idle reserved nodes go back to the free
    /// pool (draining ones leave service), squatters keep running on plain
    /// `Busy` nodes. Returns how many idle nodes left the reservation.
    pub fn release_reservation(&mut self, holder: JobId) -> u32 {
        let mut freed = 0;
        if let Some(mut idle) = self.reserved_idle.remove(&holder) {
            freed = idle.len() as u32;
            self.reserved_idle_total -= freed;
            self.free_nodes(&mut idle);
        }
        // Squatters keep running, now on plain `Busy` nodes. The squatter
        // index names exactly the affected jobs, so only their allocations
        // are walked — not the whole machine.
        if let Some(squatters) = self.squatter_index.remove(&holder) {
            for (&sq, &count) in &squatters {
                let split = self.splits.get_mut(&sq).expect("squatter has a split");
                split.plain += count;
                split.squatted -= count;
                for id in self.alloc.get(&sq).expect("squatter is allocated") {
                    if let NodeState::ReservedBusy { holder: h, job } = self.nodes[id.index()] {
                        if h == holder {
                            self.nodes[id.index()] = NodeState::Busy { job };
                        }
                    }
                }
            }
        }
        freed
    }

    // ------------------------------------------------------------------
    // Availability (outage engine)
    // ------------------------------------------------------------------

    /// Take a node out of service. A `Free` node goes down immediately; an
    /// occupied or reserved node is marked draining and goes down the
    /// moment it is next freed (hard-down callers evict the occupant
    /// first, so their release converts the node on the spot). Returns
    /// `true` when the node is `Down` after the call. Idempotent.
    pub fn drain_node(&mut self, id: NodeId) -> bool {
        match self.nodes[id.index()] {
            NodeState::Down => true,
            NodeState::Free => {
                let pos = self
                    .free_list
                    .iter()
                    .position(|n| *n == id)
                    .expect("free node is on the free list");
                // In-place removal keeps the relative order of the other
                // free nodes, so the pop order downstream is unchanged.
                self.free_list.remove(pos);
                self.nodes[id.index()] = NodeState::Down;
                self.down_count += 1;
                self.draining.remove(&id.0);
                true
            }
            _ => {
                self.draining.insert(id.0);
                false
            }
        }
    }

    /// Hard outage on an idle reserved node: pull it out of `holder`'s
    /// reservation and take it down. Returns `false` when the node is not
    /// an idle reserved node of `holder`.
    pub fn down_reserved_node(&mut self, holder: JobId, id: NodeId) -> bool {
        let Some(idle) = self.reserved_idle.get_mut(&holder) else {
            return false;
        };
        let Some(pos) = idle.iter().position(|n| *n == id) else {
            return false;
        };
        idle.remove(pos);
        if idle.is_empty() {
            self.reserved_idle.remove(&holder);
        }
        self.reserved_idle_total -= 1;
        self.nodes[id.index()] = NodeState::Down;
        self.down_count += 1;
        self.draining.remove(&id.0);
        true
    }

    /// Return a down node to service (it re-enters the free pool), or
    /// cancel a pending draining mark on a still-occupied node. Returns
    /// `true` when anything changed. Idempotent.
    pub fn rejoin_node(&mut self, id: NodeId) -> bool {
        if self.nodes[id.index()] == NodeState::Down {
            self.nodes[id.index()] = NodeState::Free;
            self.free_list.push(id);
            self.down_count -= 1;
            true
        } else {
            self.draining.remove(&id.0)
        }
    }

    /// Remove one specific node from a running job's allocation (a
    /// malleable job shrinking away from a lost node). The node is
    /// disposed through the normal release path, so a draining mark takes
    /// effect. Panics if the job does not hold the node or would drop to
    /// zero nodes.
    pub fn release_single_node(&mut self, job: JobId, id: NodeId) {
        let nodes = self
            .alloc
            .get_mut(&job)
            .expect("single-node release from non-running job");
        assert!(nodes.len() > 1, "single-node release would empty {job}");
        let pos = nodes
            .iter()
            .position(|n| *n == id)
            .expect("job holds the released node");
        nodes.remove(pos);
        let split = self.splits.get_mut(&job).expect("running job has a split");
        match self.nodes[id.index()] {
            NodeState::Busy { .. } => {
                split.plain -= 1;
                if !self.take_down_if_draining(id) {
                    self.push_free(&[id]);
                }
            }
            NodeState::ReservedBusy { .. } => {
                split.squatted -= 1;
                self.unsquat_nodes(job, &[id]);
            }
            ref st => unreachable!("allocated node in state {st:?}"),
        }
    }

    // ------------------------------------------------------------------
    // Invariants
    // ------------------------------------------------------------------

    /// Full-scan consistency check; O(nodes + Σ list lengths + jobs).
    /// Used by tests, by snapshot restore, and by `paranoid_checks` mode
    /// per event to cross-validate the node lists, the incremental
    /// `(plain, squatted)` counters, the squatter index, and the
    /// reserved-idle total against the authoritative per-node states.
    ///
    /// One pass over the free list, the allocations and the idle
    /// reservations claims each listed node in a bitmap — in range,
    /// listed once, in a state naming the list's owner — so the node
    /// scan tests list membership in O(1). Returns `Err`, never panics,
    /// on any corrupt state.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut listed = vec![false; self.nodes.len()];
        for &id in &self.free_list {
            if claim(&self.nodes, &mut listed, id).map_err(|e| format!("free list: {e}"))?
                != NodeState::Free
            {
                return Err(format!("free-list node {id} not Free"));
            }
        }
        if self.splits.len() != self.alloc.len() {
            return Err(format!(
                "splits tracks {} jobs, alloc {}",
                self.splits.len(),
                self.alloc.len()
            ));
        }
        for (&job, list) in &self.alloc {
            let mut plain = 0;
            let mut squatted = 0;
            for &id in list {
                match claim(&self.nodes, &mut listed, id)
                    .map_err(|e| format!("{job}'s allocation list: {e}"))?
                {
                    NodeState::Busy { job: j } if j == job => plain += 1,
                    NodeState::ReservedBusy { job: j, .. } if j == job => squatted += 1,
                    st => {
                        return Err(format!(
                            "{job}'s allocation lists node {id} in state {st:?}"
                        ))
                    }
                }
            }
            let split = self
                .splits
                .get(&job)
                .ok_or_else(|| format!("no split counters for allocated {job}"))?;
            if (split.plain, split.squatted) != (plain, squatted) {
                return Err(format!(
                    "split counters for {job}: ({}, {}) != scanned ({plain}, {squatted})",
                    split.plain, split.squatted
                ));
            }
        }
        for (&holder, idle) in &self.reserved_idle {
            for &id in idle {
                let st = claim(&self.nodes, &mut listed, id)
                    .map_err(|e| format!("{holder}'s idle list: {e}"))?;
                if st != (NodeState::Reserved { holder }) {
                    return Err(format!("idle-reserved node {id} not Reserved for {holder}"));
                }
            }
        }
        // Every listed node is now known to name its list's owner, so an
        // unlisted busy or reserved node is exactly one its owner's list
        // is missing.
        let mut busy = 0u32;
        let mut reserved = 0u32;
        let mut down = 0u32;
        let mut scanned_squats: JobMap<BTreeMap<JobId, u32>> = JobMap::default();
        for (i, (st, &on_list)) in self.nodes.iter().zip(&listed).enumerate() {
            match *st {
                NodeState::Free => {}
                NodeState::Down => down += 1,
                NodeState::Busy { job } | NodeState::ReservedBusy { job, .. } => {
                    busy += 1;
                    if !on_list {
                        return Err(if self.alloc.contains_key(&job) {
                            format!("node {i} not in {job}'s allocation list")
                        } else {
                            format!("node {i} busy for unallocated {job}")
                        });
                    }
                    if let NodeState::ReservedBusy { holder, .. } = *st {
                        *scanned_squats
                            .entry(holder)
                            .or_default()
                            .entry(job)
                            .or_default() += 1;
                    }
                }
                NodeState::Reserved { holder } => {
                    reserved += 1;
                    if !on_list {
                        return Err(if self.reserved_idle.contains_key(&holder) {
                            format!("node {i} missing from {holder}'s idle list")
                        } else {
                            format!("node {i} reserved for untracked {holder}")
                        });
                    }
                }
            }
        }
        let free = self.free_list.len() as u32;
        if free + busy + reserved + down != self.total_nodes() {
            return Err(format!(
                "conservation violated: {free} free + {busy} busy + {reserved} reserved \
                 + {down} down != {}",
                self.total_nodes()
            ));
        }
        if self.down_count != down {
            return Err(format!(
                "down_count counter {} != scanned {down}",
                self.down_count
            ));
        }
        for &id in &self.draining {
            match self.nodes.get(id as usize) {
                None => return Err(format!("draining id {id} out of range")),
                Some(NodeState::Free) => {
                    return Err(format!("draining node {id} is Free (should be Down)"))
                }
                Some(NodeState::Down) => return Err(format!("draining node {id} is already Down")),
                Some(_) => {}
            }
        }
        // Incremental accounting vs. full scan.
        if self.reserved_idle_total != reserved {
            return Err(format!(
                "reserved_idle_total counter {} != scanned {reserved}",
                self.reserved_idle_total
            ));
        }
        if self.squatter_index != scanned_squats {
            return Err(format!(
                "squatter index {:?} != scanned {scanned_squats:?}",
                self.squatter_index
            ));
        }
        Ok(())
    }
}

/// Pop the top `k` nodes off the stack `src` onto `dst`, in pop order,
/// marking each `st`: the one slice move every allocation path uses.
fn move_tail(
    src: &mut Vec<NodeId>,
    k: usize,
    dst: &mut Vec<NodeId>,
    states: &mut [NodeState],
    st: NodeState,
) {
    let from = src.len() - k;
    for id in &src[from..] {
        states[id.index()] = st;
    }
    dst.extend(src[from..].iter().rev());
    src.truncate(from);
}

/// Count `n` more nodes for `holder` in a short per-holder tally.
fn tally(counts: &mut Vec<(JobId, u32)>, holder: JobId, n: u32) {
    match counts.iter_mut().find(|(h, _)| *h == holder) {
        Some((_, k)) => *k += n,
        None => counts.push((holder, n)),
    }
}

/// Claim one listed node for [`Cluster::check_invariants`]: it must be in
/// range and not already claimed by any list. Returns its state.
fn claim(nodes: &[NodeState], listed: &mut [bool], id: NodeId) -> Result<NodeState, String> {
    let Some(&st) = nodes.get(id.index()) else {
        return Err(format!("node {id} out of range"));
    };
    if std::mem::replace(&mut listed[id.index()], true) {
        return Err(format!("node {id} listed twice"));
    }
    Ok(st)
}

/// One-field corruptions of a known cluster, shared by the cluster and
/// federation tests: [`Cluster::check_invariants`] must reject each with
/// an `Err` (never a panic) whose text names the broken condition.
#[cfg(test)]
pub(crate) mod corruption {
    use super::*;

    fn j(n: u64) -> JobId {
        JobId(n)
    }

    /// 28 nodes: J1 runs on 4 plain nodes, J2 on 3, J3 on 2 plain plus 1
    /// squatted on J9's reservation; J8 holds 3 idle reserved nodes, J9
    /// holds 2; 13 nodes are free.
    pub(crate) fn fixture() -> Cluster {
        let mut c = Cluster::new(28);
        c.allocate(j(1), 4).expect("fits");
        c.allocate(j(2), 3).expect("fits");
        c.reserve(j(8), 3);
        c.reserve(j(9), 3);
        c.allocate(j(5), 13).expect("fits");
        c.allocate_backfill(j(3), 3, |h| h == j(9)).expect("fits");
        c.release(j(5));
        assert_eq!(c.split_of(j(3)), (2, 1));
        assert_eq!(c.free_count(), 13);
        c.check_invariants().expect("sane fixture");
        c
    }

    /// Move one node id onto `job`'s allocation list, keeping its split
    /// counters in step so only the list itself is wrong.
    fn push_plain(c: &mut Cluster, job: JobId, id: NodeId) {
        c.alloc.get_mut(&job).expect("running").push(id);
        c.splits.get_mut(&job).expect("running").plain += 1;
    }

    fn pop_plain(c: &mut Cluster, job: JobId) -> NodeId {
        let id = c.alloc.get_mut(&job).expect("running").remove(0);
        assert_eq!(c.nodes[id.index()], NodeState::Busy { job });
        c.splits.get_mut(&job).expect("running").plain -= 1;
        id
    }

    pub(crate) type Case = (&'static str, fn(&mut Cluster), &'static str);

    /// `(what, corruption, substring the error must contain)`.
    pub(crate) const CASES: &[Case] = &[
        (
            "busy node missing from its job's list",
            |c| {
                pop_plain(c, j(1));
            },
            "not in J1's allocation list",
        ),
        (
            "busy node whose job has no allocation",
            |c| {
                c.alloc.remove(&j(2));
                c.splits.remove(&j(2));
            },
            "busy for unallocated J2",
        ),
        (
            "duplicate id in an allocation list",
            |c| {
                let id = c.alloc[&j(1)][0];
                push_plain(c, j(1), id);
            },
            "listed twice",
        ),
        (
            "allocation list naming a Free node",
            |c| {
                let id = c.free_list.pop().expect("free node");
                push_plain(c, j(1), id);
            },
            "in state Free",
        ),
        (
            "allocation list naming a node busy for another job",
            |c| {
                let id = pop_plain(c, j(2));
                push_plain(c, j(1), id);
            },
            "in state Busy",
        ),
        (
            "out-of-range id in an allocation list",
            |c| push_plain(c, j(1), NodeId(28)),
            "out of range",
        ),
        (
            "out-of-range id on the free list",
            |c| c.free_list.push(NodeId(u32::MAX)),
            "out of range",
        ),
        (
            "duplicate id on the free list",
            |c| {
                let id = c.free_list[0];
                c.free_list.push(id);
            },
            "listed twice",
        ),
        (
            "reserved node missing from its holder's idle list",
            |c| {
                c.reserved_idle.get_mut(&j(8)).expect("holder").pop();
                c.reserved_idle_total -= 1;
            },
            "missing from J8's idle list",
        ),
        (
            "idle list naming a node reserved for another holder",
            |c| {
                let id = c.reserved_idle.get_mut(&j(9)).expect("holder").pop();
                c.reserved_idle.get_mut(&j(8)).expect("holder").extend(id);
            },
            "not Reserved for J8",
        ),
        (
            "split counters off by one",
            |c| c.splits.get_mut(&j(3)).expect("running").squatted += 1,
            "split counters for J3",
        ),
        (
            "squatter index missing a squatter",
            |c| {
                c.squatter_index.remove(&j(9));
            },
            "squatter index",
        ),
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(n: u64) -> JobId {
        JobId(n)
    }

    fn checked(c: &Cluster) {
        c.check_invariants().expect("invariants");
    }

    #[test]
    fn new_cluster_all_free() {
        let c = Cluster::new(16);
        assert_eq!(c.free_count(), 16);
        assert_eq!(c.total_nodes(), 16);
        checked(&c);
    }

    #[test]
    fn allocate_and_release_round_trip() {
        let mut c = Cluster::new(10);
        assert_eq!(c.allocate(j(1), 4).map(|n| n.len()), Some(4));
        assert_eq!(c.free_count(), 6);
        assert_eq!(c.size_of(j(1)), 4);
        assert!(c.is_running(j(1)));
        checked(&c);
        let out = c.release(j(1));
        assert_eq!(out.to_free, 4);
        assert!(out.to_reservations.is_empty());
        assert_eq!(c.free_count(), 10);
        checked(&c);
    }

    #[test]
    fn allocate_refuses_oversubscription() {
        let mut c = Cluster::new(4);
        assert!(c.allocate(j(1), 5).is_none());
        assert_eq!(c.free_count(), 4);
        checked(&c);
    }

    #[test]
    #[should_panic(expected = "already allocated")]
    fn double_allocate_panics() {
        let mut c = Cluster::new(8);
        c.allocate(j(1), 2);
        c.allocate(j(1), 2);
    }

    #[test]
    fn reserve_takes_from_free_pool() {
        let mut c = Cluster::new(10);
        assert_eq!(c.reserve(j(9), 6), 6);
        assert_eq!(c.free_count(), 4);
        assert_eq!(c.reserved_idle_count(j(9)), 6);
        assert_eq!(c.total_reserved_idle(), 6);
        checked(&c);
        // Partial when free pool is short.
        assert_eq!(c.reserve(j(8), 10), 4);
        assert_eq!(c.free_count(), 0);
        checked(&c);
    }

    #[test]
    fn allocate_with_reserved_prefers_own_reservation() {
        let mut c = Cluster::new(10);
        c.reserve(j(9), 4);
        assert_eq!(c.allocate_with_reserved(j(9), 6).map(|n| n.len()), Some(6));
        assert_eq!(c.reserved_idle_count(j(9)), 0);
        assert_eq!(c.free_count(), 4);
        checked(&c);
    }

    #[test]
    fn allocate_with_reserved_leaves_remainder_reserved() {
        let mut c = Cluster::new(10);
        c.reserve(j(9), 5);
        assert_eq!(c.allocate_with_reserved(j(9), 3).map(|n| n.len()), Some(3));
        assert_eq!(c.reserved_idle_count(j(9)), 2);
        checked(&c);
    }

    #[test]
    fn backfill_squats_on_reserved_nodes() {
        let mut c = Cluster::new(10);
        c.allocate(j(1), 5);
        c.reserve(j(9), 5);
        assert_eq!(c.free_count(), 0);
        // Without reserved access there is no room.
        assert!(c.allocate_backfill(j(2), 3, |_| false).is_none());
        let squat = c
            .allocate_backfill(j(2), 3, |_| true)
            .expect("fits on reserved");
        assert_eq!(squat, vec![(j(9), 3)]);
        assert_eq!(c.reserved_idle_count(j(9)), 2);
        assert_eq!(c.squatters(j(9)), vec![(j(2), 3)]);
        checked(&c);
        // Releasing the squatter returns nodes to the reservation.
        let out = c.release(j(2));
        assert_eq!(out.to_free, 0);
        assert_eq!(out.to_reservations, vec![(j(9), 3)]);
        assert_eq!(c.reserved_idle_count(j(9)), 5);
        checked(&c);
    }

    #[test]
    fn backfill_uses_free_nodes_first() {
        let mut c = Cluster::new(10);
        c.reserve(j(9), 4);
        let squat = c.allocate_backfill(j(2), 7, |_| true).expect("fits");
        // 6 free + 1 reserved.
        assert_eq!(squat, vec![(j(9), 1)]);
        assert_eq!(c.free_count(), 0);
        assert_eq!(c.reserved_idle_count(j(9)), 3);
        checked(&c);
    }

    #[test]
    fn release_reservation_unsquats() {
        let mut c = Cluster::new(8);
        c.reserve(j(9), 5);
        c.allocate_backfill(j(2), 4, |_| true).expect("fits"); // 3 free + 1 reserved
        let freed = c.release_reservation(j(9));
        assert_eq!(freed, 4);
        assert_eq!(c.free_count(), 4);
        assert_eq!(c.reserved_idle_count(j(9)), 0);
        // Squatter now on plain busy nodes.
        let out = c.release(j(2));
        assert_eq!(out.to_free, 4);
        checked(&c);
    }

    #[test]
    fn shrink_prefers_plain_nodes() {
        let mut c = Cluster::new(10);
        c.allocate(j(1), 4);
        c.reserve(j(9), 2);
        c.allocate_backfill(j(2), 6, |_| true).expect("fits"); // 4 free + 2 reserved
                                                               // Shrinking by 3 surrenders plain nodes only.
        let out = c.shrink(j(2), 3);
        assert_eq!(out.to_free, 3);
        assert!(out.to_reservations.is_empty());
        assert_eq!(c.size_of(j(2)), 3);
        checked(&c);
        // Shrinking past the plain supply surrenders squatted nodes too.
        let out = c.shrink(j(2), 2);
        assert_eq!(out.to_free, 1);
        assert_eq!(out.to_reservations, vec![(j(9), 1)]);
        checked(&c);
    }

    #[test]
    #[should_panic(expected = "no nodes")]
    fn shrink_to_zero_panics() {
        let mut c = Cluster::new(4);
        c.allocate(j(1), 2);
        c.shrink(j(1), 2);
    }

    #[test]
    fn expand_takes_free_nodes() {
        let mut c = Cluster::new(10);
        c.allocate(j(1), 3);
        assert_eq!(c.expand(j(1), 4), 4);
        assert_eq!(c.size_of(j(1)), 7);
        assert_eq!(c.expand(j(1), 10), 3); // only 3 left
        assert_eq!(c.size_of(j(1)), 10);
        checked(&c);
    }

    #[test]
    fn multi_holder_backfill_is_deterministic() {
        let mut c = Cluster::new(12);
        c.reserve(j(20), 4);
        c.reserve(j(10), 4);
        // 4 free + need 8 → squats on holders in id order: j(10) then j(20).
        let squat = c.allocate_backfill(j(2), 10, |_| true).expect("fits");
        assert_eq!(squat, vec![(j(10), 4), (j(20), 2)]);
        checked(&c);
    }

    #[test]
    fn release_outcome_total() {
        let mut c = Cluster::new(8);
        c.reserve(j(9), 2);
        c.allocate_backfill(j(2), 5, |_| true).expect("fits");
        let out = c.release(j(2));
        assert_eq!(out.total(), 5);
    }

    #[test]
    fn release_of_unknown_job_is_empty() {
        let mut c = Cluster::new(4);
        let out = c.release(j(42));
        assert_eq!(out, ReleaseOutcome::default());
        checked(&c);
    }

    #[test]
    fn check_invariants_rejects_every_corruption() {
        for &(what, corrupt, expect) in corruption::CASES {
            let mut c = corruption::fixture();
            corrupt(&mut c);
            match c.check_invariants() {
                Ok(()) => panic!("{what}: corrupt cluster passed"),
                Err(e) => assert!(e.contains(expect), "{what}: error {e:?} lacks {expect:?}"),
            }
        }
    }
}
