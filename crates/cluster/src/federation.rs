//! Federated multi-cluster dispatch: several named [`Cluster`] shards
//! behind one [`ClusterBackend`], with a pluggable [`PlacementPolicy`]
//! deciding which shard a job lands on.
//!
//! The paper schedules one machine; its mechanisms ({N,CUA,CUP}×{PAA,SPAA})
//! are cluster-agnostic in spirit, so lifting the resource manager behind
//! [`ClusterBackend`] lets the same driver schedule a *federation* — the
//! shape of capability/capacity co-scheduling (*More for Less*,
//! arXiv:2501.12464) and hybrid AI-HPC runtimes (arXiv:2509.20819).
//!
//! ## Shard-locality rules
//!
//! * A job runs entirely on one shard; preemption, squatting, shrinking,
//!   and checkpoint accounting never cross shards.
//! * Placement is **sticky**: the first reservation or allocation pins the
//!   job's *home* shard, and preempt/resume cycles stay there (checkpoints
//!   are shard-local data).
//! * Reserved nodes cannot migrate between shards:
//!   [`ClusterBackend::transfer_reserved`] across homes returns 0.
//! * A job larger than the largest shard can never run
//!   ([`ClusterBackend::max_job_size`]); the driver rejects it at
//!   submission.
//!
//! A one-shard federation is behaviorally *identical* to a bare
//! [`Cluster`] — the refactor-safety oracle the `replay_matrix` bench binary
//! and the federation proptests pin bitwise.

use crate::backend::ClusterBackend;
use crate::node::{NodeId, NodeState};
use crate::SnapshotBackend;
use crate::{Cluster, ReleaseOutcome};
use hws_sim::snap::{get_sorted, put_sorted, Snap, SnapError, SnapReader, SnapWriter, SortedIds};
use hws_workload::{JobId, JobKind, JobMap, JobSpec};
use std::sync::Arc;

/// One member machine of a federation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    pub name: String,
    pub nodes: u32,
}

/// What a [`PlacementPolicy`] sees about each shard when choosing.
#[derive(Debug, Clone, Copy)]
pub struct ShardView {
    pub index: usize,
    /// Nodes currently *in service* on this shard (down nodes excluded) —
    /// the capacity a placement decision can actually count on.
    pub nodes: u32,
    pub free: u32,
    pub reserved_idle: u32,
    pub running_jobs: u32,
}

/// What a [`PlacementPolicy`] knows about the job being placed.
#[derive(Debug, Clone, Copy)]
pub struct PlaceReq {
    pub job: JobId,
    pub kind: JobKind,
    /// The job's full requested size (its maximum, for malleable jobs).
    pub size: u32,
    /// Workload-provided shard preference (already validated for
    /// feasibility by the federation before the policy is consulted).
    pub site_hint: Option<u32>,
}

/// The federation's extension point: given the job and per-shard state,
/// pick a home shard. `shards` lists only *feasible* shards (total nodes ≥
/// the job's size), in index order; returning `None` or an index not in
/// the list falls back to the first feasible shard.
///
/// Implementations must be deterministic pure functions of their inputs —
/// the multi-seed sweep shares one policy instance across worker threads,
/// and a cloned [`Federation`] (a what-if fork) shares its original's
/// instance through the same `Arc`. `choose` takes `&self`, so a policy
/// has no state for two holders to disturb.
///
/// A custom policy is a few lines and plugs into a
/// [`FederationConfig`] without any driver changes:
///
/// ```
/// use hws_cluster::{FederationConfig, PlaceReq, PlacementPolicy, ShardView};
///
/// /// Send every job to the *last* feasible shard (e.g. drain the first
/// /// shards for maintenance).
/// #[derive(Debug)]
/// struct LastFeasible;
///
/// impl PlacementPolicy for LastFeasible {
///     fn name(&self) -> &str {
///         "last-feasible"
///     }
///
///     fn choose(&self, _req: &PlaceReq, shards: &[ShardView]) -> Option<usize> {
///         shards.last().map(|s| s.index)
///     }
/// }
///
/// let fed = FederationConfig::even_split(4, 4_392).with_policy(LastFeasible);
/// assert_eq!(fed.policy.name(), "last-feasible");
/// assert_eq!(fed.total_nodes(), 4_392);
/// ```
pub trait PlacementPolicy: std::fmt::Debug + Send + Sync {
    fn name(&self) -> &str;
    fn choose(&self, req: &PlaceReq, shards: &[ShardView]) -> Option<usize>;
}

/// First shard with enough free nodes right now, else the first feasible
/// shard (so reservations start collecting where the job can eventually
/// run).
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstFit;

impl PlacementPolicy for FirstFit {
    fn name(&self) -> &str {
        "first-fit"
    }

    fn choose(&self, req: &PlaceReq, shards: &[ShardView]) -> Option<usize> {
        shards
            .iter()
            .find(|s| s.free >= req.size)
            .or_else(|| shards.first())
            .map(|s| s.index)
    }
}

/// The feasible shard with the most free nodes (ties → lowest index):
/// spreads load, which keeps per-shard queues short.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastLoaded;

impl PlacementPolicy for LeastLoaded {
    fn name(&self) -> &str {
        "least-loaded"
    }

    fn choose(&self, _req: &PlaceReq, shards: &[ShardView]) -> Option<usize> {
        shards
            .iter()
            .max_by_key(|s| (s.free, std::cmp::Reverse(s.index)))
            .map(|s| s.index)
    }
}

/// Segregate classes onto preferred shards — on-demand traffic to the
/// first shard, rigid batch to the next, malleable elastic work to the
/// last — falling back to the first feasible shard with room. This is the
/// capability/capacity split of *More for Less* in miniature.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassAffinity;

impl PlacementPolicy for ClassAffinity {
    fn name(&self) -> &str {
        "class-affinity"
    }

    fn choose(&self, req: &PlaceReq, shards: &[ShardView]) -> Option<usize> {
        let n = shards.len();
        if n == 0 {
            return None;
        }
        let preferred = match req.kind {
            JobKind::OnDemand => 0,
            JobKind::Rigid => n / 2,
            JobKind::Malleable => n - 1,
        };
        // Scan from the preferred shard, wrapping, for one with room now.
        (0..n)
            .map(|off| &shards[(preferred + off) % n])
            .find(|s| s.free >= req.size)
            .map(|s| s.index)
            .or(Some(shards[preferred].index))
    }
}

/// Configuration of a federation, carried by the simulator config.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    pub shards: Vec<ShardSpec>,
    pub policy: Arc<dyn PlacementPolicy>,
}

impl FederationConfig {
    /// Split `total` nodes into `n` shards as evenly as possible (the
    /// remainder goes to the earliest shards), named `shard0..shardN-1`,
    /// under first-fit placement. Preserves the total node count exactly —
    /// the federation-vs-single-cluster comparisons depend on it.
    pub fn even_split(n: usize, total: u32) -> Self {
        assert!(n > 0, "federation needs at least one shard");
        assert!(total >= n as u32, "fewer nodes than shards");
        let base = total / n as u32;
        let extra = (total % n as u32) as usize;
        let shards = (0..n)
            .map(|i| ShardSpec {
                name: format!("shard{i}"),
                nodes: base + u32::from(i < extra),
            })
            .collect();
        FederationConfig {
            shards,
            policy: Arc::new(FirstFit),
        }
    }

    pub fn with_policy<P: PlacementPolicy + 'static>(mut self, policy: P) -> Self {
        self.policy = Arc::new(policy);
        self
    }

    pub fn total_nodes(&self) -> u32 {
        self.shards.iter().map(|s| s.nodes).sum()
    }
}

/// Per-job placement metadata the federation consults when routing.
#[derive(Debug, Clone, Copy)]
struct JobMeta {
    kind: JobKind,
    size: u32,
    site_hint: Option<u32>,
}

/// N named [`Cluster`] shards behind one [`ClusterBackend`].
#[derive(Debug, Clone)]
pub struct Federation {
    shards: Vec<Cluster>,
    names: Vec<String>,
    policy: Arc<dyn PlacementPolicy>,
    /// Sticky job → shard assignment (first contact pins it).
    home: JobMap<usize>,
    /// Routing metadata of the admitted jobs ([`ClusterBackend::note_job`]);
    /// like `home`, pruned when a job retires.
    meta: JobMap<JobMeta>,
    max_shard: u32,
    /// Total capacity fixed at construction; `check_invariants` verifies
    /// the live shard sizes still sum to it.
    configured_total: u32,
}

impl Federation {
    /// Build an empty federation; jobs register through
    /// [`ClusterBackend::note_job`] as they are admitted. Panics unless
    /// the shard sizes sum to exactly `system_size` — federation
    /// experiments compare against the single-cluster run at the *same*
    /// total capacity.
    pub fn new(cfg: &FederationConfig, system_size: u32) -> Self {
        assert!(
            !cfg.shards.is_empty(),
            "federation needs at least one shard"
        );
        assert_eq!(
            cfg.total_nodes(),
            system_size,
            "federation shards must sum to the trace's system size"
        );
        Federation {
            shards: cfg.shards.iter().map(|s| Cluster::new(s.nodes)).collect(),
            names: cfg.shards.iter().map(|s| s.name.clone()).collect(),
            policy: Arc::clone(&cfg.policy),
            home: JobMap::default(),
            meta: JobMap::default(),
            max_shard: cfg.shards.iter().map(|s| s.nodes).max().unwrap_or(0),
            configured_total: system_size,
        }
    }

    /// The shard `job` is pinned to, if any.
    pub fn home_of(&self, job: JobId) -> Option<usize> {
        self.home.get(&job).copied()
    }

    pub fn shard(&self, i: usize) -> &Cluster {
        &self.shards[i]
    }

    fn meta_of(&self, job: JobId) -> JobMeta {
        self.meta.get(&job).copied().unwrap_or(JobMeta {
            kind: JobKind::Rigid,
            size: 1,
            site_hint: None,
        })
    }

    /// Feasibility is judged against *live* capacity: a shard drained for
    /// maintenance (or with enough nodes down) stops attracting jobs it
    /// can no longer host, and recovers its attractiveness on rejoin.
    fn views_for(&self, size: u32) -> Vec<ShardView> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, c)| c.live_nodes() >= size)
            .map(|(i, c)| ShardView {
                index: i,
                nodes: c.live_nodes(),
                free: c.free_count(),
                reserved_idle: c.total_reserved_idle(),
                running_jobs: c.running_job_count(),
            })
            .collect()
    }

    /// The shard an *unplaced* job's fits-checks should be computed
    /// against: the feasible shard with the most free nodes (ties →
    /// lowest index). Must stay consistent with the unplaced arm of
    /// [`ClusterBackend::avail_for`], which reports this shard's free
    /// count.
    fn best_unplaced_shard(&self, job: JobId) -> Option<usize> {
        let size = self.meta_of(job).size;
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, c)| c.live_nodes() >= size)
            .max_by(|(ia, a), (ib, b)| a.free_count().cmp(&b.free_count()).then(ib.cmp(ia)))
            .map(|(i, _)| i)
    }

    /// The sticky home pin, *unless* the whole home shard has left service
    /// and the job holds no state there — then the pin is released so the
    /// job can be re-placed on a surviving shard (it would otherwise wait
    /// on a machine that may never come back).
    fn sticky_home(&mut self, job: JobId) -> Option<usize> {
        let &s = self.home.get(&job)?;
        if self.shards[s].live_nodes() == 0
            && !self.shards[s].is_running(job)
            && self.shards[s].reserved_idle_count(job) == 0
        {
            self.home.remove(&job);
            return None;
        }
        Some(s)
    }

    /// Pick (and pin) a home shard for `job`. A feasible `site_hint` wins;
    /// otherwise the policy chooses among feasible shards; an infeasible
    /// or absent answer falls back to the first feasible shard. Returns
    /// `None` only when no shard can ever host the job.
    fn pin(&mut self, job: JobId) -> Option<usize> {
        if let Some(s) = self.sticky_home(job) {
            return Some(s);
        }
        let m = self.meta_of(job);
        let chosen = match m.site_hint {
            Some(h)
                if (h as usize) < self.shards.len()
                    && self.shards[h as usize].live_nodes() >= m.size =>
            {
                Some(h as usize)
            }
            _ => {
                let views = self.views_for(m.size);
                if views.is_empty() {
                    return None;
                }
                let req = PlaceReq {
                    job,
                    kind: m.kind,
                    size: m.size,
                    site_hint: m.site_hint,
                };
                let first = views[0].index;
                Some(
                    self.policy
                        .choose(&req, &views)
                        .filter(|i| views.iter().any(|v| v.index == *i))
                        .unwrap_or(first),
                )
            }
        };
        if let Some(s) = chosen {
            self.home.insert(job, s);
        }
        chosen
    }
}

impl ClusterBackend for Federation {
    fn total_nodes(&self) -> u32 {
        self.shards.iter().map(|c| c.total_nodes()).sum()
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_labels(&self) -> Option<Vec<String>> {
        Some(self.names.clone())
    }

    fn shard_nodes(&self, i: usize) -> u32 {
        self.shards[i].total_nodes()
    }

    fn shard_of(&self, job: JobId) -> Option<usize> {
        self.home_of(job)
    }

    fn max_job_size(&self) -> u32 {
        self.max_shard
    }

    fn note_job(&mut self, spec: &JobSpec) {
        self.meta.entry(spec.id).or_insert(JobMeta {
            kind: spec.kind,
            size: spec.size,
            site_hint: spec.site_hint,
        });
    }

    fn forget_job(&mut self, job: JobId) {
        self.meta.remove(&job);
        if let Some(s) = self.home.remove(&job) {
            debug_assert!(
                !self.shards[s].is_running(job) && self.shards[s].reserved_idle_count(job) == 0,
                "forgetting job {job} while it still holds nodes on shard {s}"
            );
        }
    }

    fn free_count(&self) -> u32 {
        self.shards.iter().map(|c| c.free_count()).sum()
    }

    fn reserved_idle_count(&self, holder: JobId) -> u32 {
        match self.home_of(holder) {
            Some(s) => self.shards[s].reserved_idle_count(holder),
            None => 0,
        }
    }

    fn total_reserved_idle(&self) -> u32 {
        self.shards.iter().map(|c| c.total_reserved_idle()).sum()
    }

    fn size_of(&self, job: JobId) -> u32 {
        match self.home_of(job) {
            Some(s) => self.shards[s].size_of(job),
            None => 0,
        }
    }

    fn is_running(&self, job: JobId) -> bool {
        self.home_of(job)
            .is_some_and(|s| self.shards[s].is_running(job))
    }

    fn for_each_running(&self, f: &mut dyn FnMut(JobId)) {
        for c in &self.shards {
            for j in c.running_jobs() {
                f(j);
            }
        }
    }

    fn split_of(&self, job: JobId) -> (u32, u32) {
        match self.home_of(job) {
            Some(s) => self.shards[s].split_of(job),
            None => (0, 0),
        }
    }

    fn for_each_plain_split(&self, shard: Option<usize>, f: &mut dyn FnMut(JobId, u32)) {
        match shard {
            // A placed job's home shard holds exactly the running jobs
            // whose `shard_of` is that shard — the other shards need not
            // be walked at all.
            Some(s) => self.shards[s].for_each_plain_split(f),
            None => {
                for c in &self.shards {
                    c.for_each_plain_split(f);
                }
            }
        }
    }

    fn squatters(&self, holder: JobId) -> Vec<(JobId, u32)> {
        match self.home_of(holder) {
            Some(s) => self.shards[s].squatters(holder),
            None => Vec::new(),
        }
    }

    fn avail_for(&self, job: JobId) -> u32 {
        match self.home_of(job) {
            Some(s) => self.shards[s].free_count() + self.shards[s].reserved_idle_count(job),
            // Unplaced: the best any one feasible shard offers now (the
            // same shard `placement_shard` reports for shadow projection).
            None => self
                .best_unplaced_shard(job)
                .map(|s| self.shards[s].free_count())
                .unwrap_or(0),
        }
    }

    fn placement_shard(&self, job: JobId) -> Option<usize> {
        self.home_of(job).or_else(|| self.best_unplaced_shard(job))
    }

    fn backfill_avail_for(&self, job: JobId, squat_allowed: &mut dyn FnMut(JobId) -> bool) -> u32 {
        match self.home_of(job) {
            Some(s) => {
                self.shards[s].free_count() + self.shards[s].squattable_idle(&mut *squat_allowed)
            }
            None => {
                let size = self.meta_of(job).size;
                self.shards
                    .iter()
                    .filter(|c| c.live_nodes() >= size)
                    .map(|c| c.free_count() + c.squattable_idle(&mut *squat_allowed))
                    .max()
                    .unwrap_or(0)
            }
        }
    }

    fn try_allocate(&mut self, job: JobId, k: u32) -> bool {
        match self.placement_for(job, k, |c, kk| c.free_count() >= kk) {
            Some(s) => self.shards[s].allocate(job, k).is_some(),
            None => false,
        }
    }

    fn try_allocate_with_reserved(&mut self, job: JobId, k: u32) -> bool {
        match self.placement_for(job, k, |c, kk| c.free_count() >= kk) {
            Some(s) => self.shards[s].allocate_with_reserved(job, k).is_some(),
            None => false,
        }
    }

    fn try_allocate_backfill(
        &mut self,
        job: JobId,
        k: u32,
        squat_allowed: &mut dyn FnMut(JobId) -> bool,
    ) -> Option<Vec<(JobId, u32)>> {
        let s = match self.home_of(job) {
            Some(s) => s,
            None => {
                // Backfill is opportunistic: take the first shard that can
                // host the job now (free + squattable), in index order.
                // Feasibility is judged at the job's full requested size,
                // not the (possibly smaller) backfill size — pinning a
                // malleable job to a shard below its maximum would cap it
                // there forever.
                let full = self.meta_of(job).size.max(k);
                let s = self.shards.iter().position(|c| {
                    c.live_nodes() >= full
                        && c.free_count() + c.squattable_idle(&mut *squat_allowed) >= k
                })?;
                self.home.insert(job, s);
                s
            }
        };
        self.shards[s].allocate_backfill(job, k, squat_allowed)
    }

    fn release(&mut self, job: JobId) -> ReleaseOutcome {
        match self.home_of(job) {
            Some(s) => self.shards[s].release(job),
            None => ReleaseOutcome::default(),
        }
    }

    fn shrink(&mut self, job: JobId, k: u32) -> ReleaseOutcome {
        let s = self.home_of(job).expect("shrink of unplaced job");
        self.shards[s].shrink(job, k)
    }

    fn expand(&mut self, job: JobId, k: u32) -> u32 {
        let s = self.home_of(job).expect("expand of unplaced job");
        self.shards[s].expand(job, k)
    }

    fn reserve(&mut self, holder: JobId, k: u32) -> u32 {
        match self.pin(holder) {
            Some(s) => self.shards[s].reserve(holder, k),
            None => 0,
        }
    }

    fn transfer_reserved(&mut self, from: JobId, to: JobId, k: u32) -> u32 {
        let Some(sf) = self.home_of(from) else {
            return 0;
        };
        let st = match self.home_of(to) {
            Some(s) => s,
            // The nodes cannot move, so an unplaced recipient adopts the
            // donor's shard — but only if it can ever run there, and only
            // as part of actually acquiring the reservation. Pinning it
            // anywhere else (or on a zero-yield transfer) would strand it.
            None => {
                if self.shards[sf].live_nodes() < self.meta_of(to).size
                    || self.shards[sf].reserved_idle_count(from) == 0
                    || k == 0
                {
                    return 0;
                }
                self.home.insert(to, sf);
                sf
            }
        };
        if sf != st {
            return 0; // nodes cannot change machines
        }
        self.shards[sf].transfer_reserved(from, to, k)
    }

    fn release_reservation(&mut self, holder: JobId) -> u32 {
        match self.home_of(holder) {
            Some(s) => self.shards[s].release_reservation(holder),
            None => 0,
        }
    }

    fn prepare_arrival(&mut self, od: JobId) -> Option<usize> {
        self.pin(od)
    }

    fn down_nodes(&self) -> u32 {
        self.shards.iter().map(|c| c.down_count()).sum()
    }

    fn shard_live_nodes(&self, i: usize) -> u32 {
        self.shards[i].live_nodes()
    }

    fn shard_free_nodes(&self, i: usize) -> u32 {
        self.shards[i].free_count()
    }

    fn live_max_job_size(&self) -> u32 {
        self.shards
            .iter()
            .map(|c| c.live_nodes())
            .max()
            .unwrap_or(0)
    }

    fn node_state(&self, shard: usize, node: NodeId) -> Option<NodeState> {
        self.shards.get(shard).and_then(|c| c.node_state(node))
    }

    fn drain_node(&mut self, shard: usize, node: NodeId) -> bool {
        self.shards[shard].drain_node(node)
    }

    fn down_reserved_node(&mut self, shard: usize, holder: JobId, node: NodeId) -> bool {
        self.shards[shard].down_reserved_node(holder, node)
    }

    fn rejoin_node(&mut self, shard: usize, node: NodeId) -> bool {
        self.shards[shard].rejoin_node(node)
    }

    fn release_single_node(&mut self, job: JobId, node: NodeId) {
        let s = self
            .home_of(job)
            .expect("release_single_node of unplaced job");
        self.shards[s].release_single_node(job, node);
    }

    fn check_invariants(&self) -> Result<(), String> {
        let mut total = 0u32;
        for (i, c) in self.shards.iter().enumerate() {
            c.check_invariants()
                .map_err(|e| format!("shard {i} ({}): {e}", self.names[i]))?;
            total += c.total_nodes();
            // Shard-locality: every running job on this shard is homed here.
            for j in c.running_jobs() {
                if self.home_of(j) != Some(i) {
                    return Err(format!("job {j} runs on shard {i} but is homed elsewhere"));
                }
            }
        }
        if total != self.configured_total {
            return Err(format!(
                "shard sizes sum to {total}, configured total is {}",
                self.configured_total
            ));
        }
        // No job may hold state on a shard other than its home.
        for (&j, &s) in &self.home {
            for (i, c) in self.shards.iter().enumerate() {
                if i != s && (c.is_running(j) || c.reserved_idle_count(j) > 0) {
                    return Err(format!("job {j} homed on {s} but has state on {i}"));
                }
            }
        }
        Ok(())
    }
}

hws_sim::snap_struct!(JobMeta {
    kind,
    size,
    site_hint,
});

/// Every shard's machine state, then the sticky `home` pins and the
/// per-job routing metadata as sorted-id maps. The placement policy and
/// shard names are deliberately *not* serialized (a policy is arbitrary
/// code); restoring re-supplies them from the same [`FederationConfig`],
/// which must match the encoded shard shapes exactly, and then
/// [`ClusterBackend::check_invariants`] re-validates the whole state.
impl SnapshotBackend for Federation {
    type Ctx = FederationConfig;

    fn snapshot(&self, w: &mut SnapWriter) {
        self.shards.len().put(w);
        self.shards.iter().for_each(|c| c.snapshot(w));
        let home: Vec<(JobId, u32)> = self.home.iter().map(|(&j, &s)| (j, s as u32)).collect();
        put_sorted(w, home.iter().map(|(j, s)| (j, s)));
        self.meta.put_sorted(w);
    }

    fn restore(r: &mut SnapReader<'_>, cfg: &FederationConfig) -> Result<Self, SnapError> {
        let n_shards = usize::get(r)?;
        if n_shards != cfg.shards.len() {
            return Err(r.err(format!(
                "snapshot has {n_shards} shards, config has {}",
                cfg.shards.len()
            )));
        }
        let mut shards = Vec::with_capacity(n_shards);
        for (i, spec) in cfg.shards.iter().enumerate() {
            let c = Cluster::restore(r, &())?;
            if c.total_nodes() != spec.nodes {
                return Err(r.err(format!(
                    "shard {i} ({}) has {} nodes in the snapshot, {} in the config",
                    spec.name,
                    c.total_nodes(),
                    spec.nodes
                )));
            }
            shards.push(c);
        }
        let home: Vec<(JobId, u32)> = get_sorted(r, "home pin")?;
        if let Some((job, s)) = home.iter().find(|(_, s)| *s as usize >= n_shards) {
            return Err(r.err(format!("{job} pinned to nonexistent shard {s}")));
        }
        let fed = Federation {
            shards,
            names: cfg.shards.iter().map(|s| s.name.clone()).collect(),
            policy: Arc::clone(&cfg.policy),
            home: home.into_iter().map(|(j, s)| (j, s as usize)).collect(),
            meta: SortedIds::get_sorted(r, "job metadata")?,
            max_shard: cfg.shards.iter().map(|s| s.nodes).max().unwrap_or(0),
            configured_total: cfg.total_nodes(),
        };
        fed.check_invariants()
            .map_err(|e| r.err(format!("restored federation fails invariants: {e}")))?;
        Ok(fed)
    }
}

impl Federation {
    /// Resolve where an allocation of `k` nodes for `job` should go: the
    /// sticky home when pinned, else a fresh policy decision restricted to
    /// shards that pass `can_host` right now. Pins the job on success.
    fn placement_for(
        &mut self,
        job: JobId,
        k: u32,
        can_host: impl Fn(&Cluster, u32) -> bool,
    ) -> Option<usize> {
        if let Some(s) = self.sticky_home(job) {
            return Some(s);
        }
        let m = self.meta_of(job);
        // A feasible explicit hint outranks the policy, mirroring `pin`.
        if let Some(h) = m.site_hint {
            let h = h as usize;
            if h < self.shards.len()
                && self.shards[h].live_nodes() >= m.size
                && can_host(&self.shards[h], k)
            {
                self.home.insert(job, h);
                return Some(h);
            }
        }
        let views: Vec<ShardView> = self
            .views_for(m.size)
            .into_iter()
            .filter(|v| can_host(&self.shards[v.index], k))
            .collect();
        let first = views.first()?.index;
        let req = PlaceReq {
            job,
            kind: m.kind,
            size: m.size,
            site_hint: m.site_hint,
        };
        let s = self
            .policy
            .choose(&req, &views)
            .filter(|i| views.iter().any(|v| v.index == *i))
            .unwrap_or(first);
        self.home.insert(job, s);
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(n: u64) -> JobId {
        JobId(n)
    }

    fn spec(id: u64, kind: JobKind, size: u32) -> JobSpec {
        use hws_workload::job::JobSpecBuilder;
        let b = match kind {
            JobKind::Rigid => JobSpecBuilder::rigid(id),
            JobKind::OnDemand => JobSpecBuilder::on_demand(id),
            JobKind::Malleable => JobSpecBuilder::malleable(id),
        };
        b.size(size).build()
    }

    fn with_jobs(cfg: &FederationConfig, total: u32, jobs: &[JobSpec]) -> Federation {
        let mut f = Federation::new(cfg, total);
        for s in jobs {
            f.note_job(s);
        }
        f
    }

    fn fed(n: usize, total: u32, jobs: &[JobSpec]) -> Federation {
        with_jobs(&FederationConfig::even_split(n, total), total, jobs)
    }

    #[test]
    fn even_split_conserves_total() {
        let cfg = FederationConfig::even_split(4, 4393);
        let sizes: Vec<u32> = cfg.shards.iter().map(|s| s.nodes).collect();
        assert_eq!(sizes, vec![1099, 1098, 1098, 1098]);
        assert_eq!(cfg.total_nodes(), 4393);
    }

    #[test]
    fn placement_is_sticky_across_preempt_resume() {
        let jobs = [spec(1, JobKind::Rigid, 4)];
        let mut f = fed(2, 16, &jobs);
        assert!(f.try_allocate_with_reserved(j(1), 4));
        let home = f.home_of(j(1)).expect("pinned");
        f.release(j(1));
        assert!(f.try_allocate_with_reserved(j(1), 4));
        assert_eq!(f.home_of(j(1)), Some(home), "resume must stay home");
        assert!(f.check_invariants().is_ok());
    }

    #[test]
    fn feasible_site_hint_wins_over_policy() {
        let mut spec1 = spec(1, JobKind::Rigid, 2);
        spec1.site_hint = Some(1);
        let mut f = fed(2, 16, &[spec1]);
        assert!(f.try_allocate_with_reserved(j(1), 2));
        assert_eq!(f.home_of(j(1)), Some(1));
    }

    #[test]
    fn infeasible_site_hint_is_ignored() {
        let mut spec1 = spec(1, JobKind::Rigid, 2);
        spec1.site_hint = Some(9); // no such shard
        let mut f = fed(2, 16, &[spec1]);
        assert!(f.try_allocate_with_reserved(j(1), 2));
        assert_eq!(f.home_of(j(1)), Some(0));
    }

    #[test]
    fn oversized_job_is_unplaceable() {
        let jobs = [spec(1, JobKind::Rigid, 12)];
        let mut f = fed(2, 16, &jobs); // shards of 8
        assert_eq!(f.max_job_size(), 8);
        assert!(!f.try_allocate_with_reserved(j(1), 12));
        assert_eq!(f.reserve(j(1), 12), 0, "no reservation without a home");
        assert!(f.home_of(j(1)).is_none());
    }

    #[test]
    fn cross_shard_transfer_is_refused() {
        let jobs = [spec(1, JobKind::OnDemand, 4), spec(2, JobKind::OnDemand, 4)];
        let mut f = fed(2, 16, &jobs);
        assert_eq!(f.reserve(j(1), 4), 4);
        // Force job 2 onto the other shard via its hint.
        f.meta.get_mut(&j(2)).unwrap().site_hint = Some(1);
        assert_eq!(f.reserve(j(2), 4), 4);
        assert_ne!(f.home_of(j(1)), f.home_of(j(2)));
        assert_eq!(f.transfer_reserved(j(1), j(2), 4), 0);
        assert_eq!(f.reserved_idle_count(j(1)), 4);
        assert!(f.check_invariants().is_ok());
    }

    #[test]
    fn zero_yield_transfer_does_not_pin_recipient() {
        let jobs = [spec(1, JobKind::OnDemand, 4), spec(2, JobKind::Rigid, 4)];
        let mut f = fed(2, 16, &jobs);
        // Donor holds no reservation: nothing moves, nothing gets pinned —
        // a stranded home would confine the recipient's fits-checks to a
        // shard it never acquired a node on.
        assert_eq!(f.transfer_reserved(j(1), j(2), 4), 0);
        assert!(f.home_of(j(2)).is_none());
        // With a real donor reservation the unplaced recipient adopts the
        // donor's shard as part of acquiring the nodes.
        assert_eq!(ClusterBackend::reserve(&mut f, j(1), 4), 4);
        assert_eq!(f.transfer_reserved(j(1), j(2), 3), 3);
        assert_eq!(f.home_of(j(2)), f.home_of(j(1)));
        assert_eq!(f.reserved_idle_count(j(2)), 3);
        assert!(f.check_invariants().is_ok());
    }

    #[test]
    fn backfill_never_pins_a_malleable_below_its_full_size() {
        // Shards [8, 8]; a malleable job with max size 12 fits nowhere at
        // full size, so even a small backfill must not pin it.
        let mut m = spec(2, JobKind::Malleable, 12);
        m.min_size = 2;
        let mut f = fed(2, 16, &[m]);
        assert!(f.try_allocate_backfill(j(2), 2, &mut |_| true).is_none());
        assert!(f.home_of(j(2)).is_none());
    }

    #[test]
    fn drained_run_leaves_no_per_job_state() {
        // The driver's lifecycle for each job: note on admission, place
        // (reservation, allocation, backfill), release, forget on
        // retirement. Once every job has retired, routing state is empty:
        // federated memory follows the active jobs, not the trace.
        let mut m = spec(2, JobKind::Malleable, 6);
        m.min_size = 2;
        let jobs = [spec(1, JobKind::Rigid, 4), m, spec(9, JobKind::OnDemand, 5)];
        let mut f = fed(2, 16, &jobs);
        assert!(f.try_allocate_with_reserved(j(1), 4));
        assert_eq!(ClusterBackend::reserve(&mut f, j(9), 5), 5);
        f.try_allocate_backfill(j(2), 6, &mut |_| true)
            .expect("fits");
        assert_eq!(f.meta.len(), 3);
        ClusterBackend::release(&mut f, j(2));
        f.forget_job(j(2));
        assert!(f.try_allocate_with_reserved(j(9), 5));
        ClusterBackend::release(&mut f, j(9));
        f.forget_job(j(9));
        ClusterBackend::release(&mut f, j(1));
        f.forget_job(j(1));
        assert!(f.meta.is_empty(), "meta kept {} retired jobs", f.meta.len());
        assert!(f.home.is_empty(), "home kept {} retired jobs", f.home.len());
        assert!(f.check_invariants().is_ok());
    }

    #[test]
    fn least_loaded_spreads_jobs() {
        let jobs = [spec(1, JobKind::Rigid, 4), spec(2, JobKind::Rigid, 4)];
        let cfg = FederationConfig::even_split(2, 16).with_policy(LeastLoaded);
        let mut f = with_jobs(&cfg, 16, &jobs);
        assert!(f.try_allocate_with_reserved(j(1), 4));
        assert!(f.try_allocate_with_reserved(j(2), 4));
        assert_ne!(f.home_of(j(1)), f.home_of(j(2)));
        assert!(f.check_invariants().is_ok());
    }

    #[test]
    fn class_affinity_segregates_kinds() {
        let jobs = [
            spec(1, JobKind::OnDemand, 2),
            spec(2, JobKind::Rigid, 2),
            spec(3, JobKind::Malleable, 2),
        ];
        let cfg = FederationConfig::even_split(3, 12).with_policy(ClassAffinity);
        let mut f = with_jobs(&cfg, 12, &jobs);
        assert!(f.try_allocate_with_reserved(j(1), 2));
        assert!(f.try_allocate_with_reserved(j(2), 2));
        assert!(f.try_allocate_with_reserved(j(3), 2));
        assert_eq!(f.home_of(j(1)), Some(0));
        assert_eq!(f.home_of(j(2)), Some(1));
        assert_eq!(f.home_of(j(3)), Some(2));
    }

    #[test]
    fn backfill_squats_only_on_home_shard_reservations() {
        let jobs = [
            spec(9, JobKind::OnDemand, 6),
            spec(2, JobKind::Malleable, 8),
        ];
        let mut f = fed(2, 16, &jobs); // shards of 8
        assert_eq!(f.reserve(j(9), 6), 6);
        let holder_shard = f.home_of(j(9)).unwrap();
        // 8 > free on the holder's shard (2) but fits with squatting.
        let squat = f
            .try_allocate_backfill(j(2), 8, &mut |_| true)
            .expect("fits via squatting");
        assert_eq!(squat, vec![(j(9), 6)]);
        assert_eq!(f.home_of(j(2)), Some(holder_shard));
        assert_eq!(f.split_of(j(2)), (2, 6));
        assert!(f.check_invariants().is_ok());
        // Releasing returns the squatted nodes to the reservation.
        let out = f.release(j(2));
        assert_eq!(out.to_reservations, vec![(j(9), 6)]);
        assert_eq!(f.reserved_idle_count(j(9)), 6);
    }

    #[test]
    fn single_shard_federation_mirrors_bare_cluster() {
        // Operation-level parity: the end-to-end bitwise oracle lives in
        // the `replay_matrix` bench binary and tests/federation.rs.
        let jobs = [
            spec(1, JobKind::Rigid, 4),
            spec(2, JobKind::Malleable, 6),
            spec(9, JobKind::OnDemand, 5),
        ];
        let mut f = fed(1, 16, &jobs);
        let mut c = Cluster::new(16);
        assert!(f.try_allocate_with_reserved(j(1), 4) && c.try_allocate_with_reserved(j(1), 4));
        assert_eq!(ClusterBackend::reserve(&mut f, j(9), 5), c.reserve(j(9), 5));
        let fs = f.try_allocate_backfill(j(2), 6, &mut |_| true);
        let cs = c.try_allocate_backfill(j(2), 6, &mut |_| true);
        assert_eq!(fs, cs);
        assert_eq!(ClusterBackend::avail_for(&f, j(9)), c.avail_for(j(9)));
        assert_eq!(ClusterBackend::split_of(&f, j(2)), c.split_of(j(2)));
        assert_eq!(
            ClusterBackend::release(&mut f, j(2)),
            ClusterBackend::release(&mut c, j(2))
        );
        assert_eq!(f.release_reservation(j(9)), c.release_reservation(j(9)));
        assert_eq!(ClusterBackend::free_count(&f), c.free_count());
        assert!(f.check_invariants().is_ok());
    }

    #[test]
    fn check_invariants_rejects_every_shard_corruption() {
        // The cluster corruption cases, planted on shard 1 of a 2-shard
        // federation whose home pins match the shard's jobs.
        let planted = |corrupt: fn(&mut Cluster)| {
            let mut f = fed(2, 56, &[]);
            let mut c = crate::corruption::fixture();
            corrupt(&mut c);
            f.shards[1] = c;
            for id in [1, 2, 3, 8, 9] {
                f.home.insert(j(id), 1);
            }
            f
        };
        assert!(planted(|_| {}).check_invariants().is_ok());
        for &(what, corrupt, expect) in crate::corruption::CASES {
            match planted(corrupt).check_invariants() {
                Ok(()) => panic!("{what}: corrupt federation passed"),
                Err(e) => assert!(
                    e.contains("shard 1") && e.contains(expect),
                    "{what}: error {e:?} lacks shard 1 / {expect:?}"
                ),
            }
        }
    }
}
