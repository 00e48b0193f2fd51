//! Byte-level snapshot support for resource-manager state.
//!
//! The live scheduler service (`hws-core`) checkpoints a running
//! simulation into a versioned byte blob and later restores it (what-if
//! forks skip the bytes and clone the backend). This module provides the
//! cluster half: a lossless codec for [`Cluster`] and the
//! [`SnapshotBackend`] trait that lets the driver snapshot any backend
//! generically ([`Federation`](crate::Federation) implements it against
//! its [`FederationConfig`](crate::FederationConfig)).
//!
//! ## Format notes
//!
//! * Little-endian fixed-width values via [`Snap`]; the caller owns the
//!   version byte.
//! * **Order is data.** The free-list stack order and each job's node-list
//!   order feed future allocation decisions, so they are serialized
//!   verbatim; restore-then-continue must be bitwise identical to an
//!   uninterrupted run.
//! * Unordered maps (allocations, reservations) go through the sorted-id
//!   map codec ([`SortedIds`]) so equal states encode to equal bytes.
//! * Derived accounting (splits, squatter index, reserved-idle total) is
//!   *not* serialized; decoding rebuilds it and then runs
//!   [`Cluster::check_invariants`], so a corrupted snapshot fails closed
//!   instead of producing a subtly inconsistent machine.

use crate::node::{NodeId, NodeState};
use crate::{Cluster, ClusterBackend, Split};
use hws_sim::snap::{Snap, SnapError, SnapReader, SnapWriter, SortedIds};
use hws_workload::{JobId, JobMap};
use std::collections::{BTreeMap, BTreeSet};

/// A [`ClusterBackend`] whose full dynamic state can round-trip through
/// the snapshot byte format.
///
/// `Ctx` carries whatever the byte stream deliberately omits because it is
/// code rather than data: nothing for a bare [`Cluster`], the
/// [`FederationConfig`](crate::FederationConfig) (placement policy, shard
/// names) for a [`Federation`](crate::Federation). Restoring against a context that does not match the
/// encoder's is an error, not silent misbehavior.
///
/// `Clone` is the in-memory fork: a clone must continue bitwise as a
/// restore of its snapshot would, without the byte round trip.
pub trait SnapshotBackend: ClusterBackend + Clone {
    /// Reconstruction context not carried by the byte stream.
    type Ctx;

    /// Append this backend's complete dynamic state to `w`.
    fn snapshot(&self, w: &mut SnapWriter);

    /// Rebuild a backend from bytes written by
    /// [`SnapshotBackend::snapshot`] under the same context.
    fn restore(r: &mut SnapReader<'_>, ctx: &Self::Ctx) -> Result<Self, SnapError>;
}

/// The full machine state: the node count and per-node states, the
/// free-list stack in order, each job's allocation and each holder's idle
/// reservation in node order (jobs ascending), and the draining marks.
/// Decoding checks that every node is claimed exactly once, by a list
/// matching its state, then rebuilds the derived accounting and runs
/// [`Cluster::check_invariants`]. Malformed input errors, never panics.
impl SnapshotBackend for Cluster {
    type Ctx = ();

    fn snapshot(&self, w: &mut SnapWriter) {
        self.total_nodes().put(w);
        self.nodes.iter().for_each(|st| st.put(w));
        self.free_list.put(w);
        self.alloc.put_sorted(w);
        self.reserved_idle.put_sorted(w);
        self.draining.put_sorted(w);
    }

    fn restore(r: &mut SnapReader<'_>, _: &()) -> Result<Self, SnapError> {
        let n = u32::get(r)? as usize;
        if n == 0 {
            return Err(r.err("cluster must have at least one node"));
        }
        let nodes = NodeState::get_n(r, n)?;
        let free_list = Snap::get(r)?;
        let alloc = SortedIds::get_sorted(r, "allocation")?;
        let reserved_idle = SortedIds::get_sorted(r, "reservation")?;
        let draining = SortedIds::get_sorted(r, "draining")?;
        Cluster::from_parts(nodes, free_list, alloc, reserved_idle, draining).map_err(|e| r.err(e))
    }
}

impl Cluster {
    /// Assemble a decoded machine, refusing it unless every node is
    /// claimed exactly once (down nodes by their state, the rest by the
    /// free list, an allocation or a reservation naming it in a matching
    /// state) and the derived accounting rebuilt from the lists passes
    /// [`Cluster::check_invariants`].
    fn from_parts(
        nodes: Vec<NodeState>,
        free_list: Vec<NodeId>,
        alloc: JobMap<Vec<NodeId>>,
        reserved_idle: JobMap<Vec<NodeId>>,
        draining: BTreeSet<u32>,
    ) -> Result<Self, String> {
        let mut seen: Vec<bool> = nodes.iter().map(|st| *st == NodeState::Down).collect();
        let mut claim = |what: &str, list: &[NodeId], owns: fn(NodeState, JobId) -> bool, of| {
            for &id in list {
                let Some(&st) = nodes.get(id.index()) else {
                    return Err(format!("{what} node {id} out of range"));
                };
                if !owns(st, of) {
                    return Err(format!("{what} node {id} is in state {st:?}"));
                }
                if std::mem::replace(&mut seen[id.index()], true) {
                    return Err(format!("node {id} listed twice"));
                }
            }
            Ok(())
        };
        claim(
            "free-list",
            &free_list,
            |st, _| st == NodeState::Free,
            JobId(0),
        )?;
        for (&job, list) in &alloc {
            if list.is_empty() {
                return Err(format!("empty allocation list for {job}"));
            }
            claim(
                "allocation",
                list,
                |st, job| {
                    matches!(st, NodeState::Busy { job: j }
                    | NodeState::ReservedBusy { job: j, .. } if j == job)
                },
                job,
            )?;
        }
        for (&holder, list) in &reserved_idle {
            if list.is_empty() {
                return Err(format!("empty reservation list for {holder}"));
            }
            claim(
                "reservation",
                list,
                |st, holder| matches!(st, NodeState::Reserved { holder: h } if h == holder),
                holder,
            )?;
        }
        if let Some(orphan) = seen.iter().position(|s| !s) {
            return Err(format!("node {orphan} claimed by no list"));
        }
        if let Some(id) = draining.iter().find(|&&id| id as usize >= nodes.len()) {
            return Err(format!("draining node {id} out of range"));
        }
        // Rebuild the derived accounting from the authoritative state.
        let mut splits = JobMap::with_capacity_and_hasher(alloc.len(), Default::default());
        let mut squatter_index: JobMap<BTreeMap<JobId, u32>> = JobMap::default();
        for (&job, list) in &alloc {
            let mut split = Split::default();
            for id in list {
                match nodes[id.index()] {
                    NodeState::ReservedBusy { holder, .. } => {
                        split.squatted += 1;
                        *squatter_index
                            .entry(holder)
                            .or_default()
                            .entry(job)
                            .or_default() += 1;
                    }
                    _ => split.plain += 1,
                }
            }
            splits.insert(job, split);
        }
        let cluster = Cluster {
            down_count: nodes.iter().filter(|st| **st == NodeState::Down).count() as u32,
            reserved_idle_total: reserved_idle.values().map(|v| v.len() as u32).sum(),
            nodes,
            free_list,
            alloc,
            reserved_idle,
            splits,
            squatter_index,
            draining,
            spare: Vec::new(),
        };
        cluster
            .check_invariants()
            .map_err(|e| format!("restored cluster fails invariants: {e}"))?;
        Ok(cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Federation, FederationConfig};

    fn j(n: u64) -> JobId {
        JobId(n)
    }

    /// A cluster exercising every node state: running jobs, an on-demand
    /// reservation, and a backfill squatting on part of it.
    fn busy_cluster() -> Cluster {
        let mut c = Cluster::new(24);
        c.allocate(j(1), 5).expect("fits");
        c.allocate(j(3), 2).expect("fits");
        c.reserve(j(9), 8);
        // 9 free + 8 squattable: the backfill squats on 3 reserved nodes.
        c.allocate_backfill(j(2), 12, |_| true).expect("fits");
        c.release(j(1));
        c.check_invariants().expect("sane fixture");
        c
    }

    fn encode(c: &Cluster) -> Vec<u8> {
        let mut w = SnapWriter::new();
        c.snapshot(&mut w);
        w.into_bytes()
    }

    #[test]
    fn cluster_snapshot_round_trips_bitwise() {
        let c = busy_cluster();
        let bytes = encode(&c);
        let mut r = SnapReader::new(&bytes);
        let back = Cluster::restore(&mut r, &()).expect("decodes");
        r.expect_end().expect("consumed exactly");
        assert_eq!(encode(&back), bytes, "re-encode must reproduce the bytes");
        assert_eq!(back.free_count(), c.free_count());
        assert_eq!(back.total_reserved_idle(), c.total_reserved_idle());
        assert_eq!(back.split_of(j(2)), c.split_of(j(2)));
        assert_eq!(back.squatters(j(9)), c.squatters(j(9)));
    }

    #[test]
    fn restored_cluster_continues_identically() {
        let mut a = busy_cluster();
        let bytes = encode(&a);
        let mut b = Cluster::restore(&mut SnapReader::new(&bytes), &()).expect("decodes");
        // The same operation sequence must yield identical node choices —
        // the free-list order survived the round trip.
        assert_eq!(a.allocate(j(4), 3).map(<[NodeId]>::to_vec), {
            b.allocate(j(4), 3).map(<[NodeId]>::to_vec)
        });
        assert_eq!(a.release(j(2)), b.release(j(2)));
        assert_eq!(a.release_reservation(j(9)), b.release_reservation(j(9)));
        assert_eq!(encode(&a), encode(&b));
    }

    #[test]
    fn corrupt_cluster_snapshots_error_instead_of_panicking() {
        let bytes = encode(&busy_cluster());
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert!(
                Cluster::restore(&mut r, &()).is_err() || r.expect_end().is_err(),
                "truncation at {cut} must not decode cleanly"
            );
        }
        // A free-list entry pointing at a busy node is caught immediately.
        let mut w = SnapWriter::new();
        2u32.put(&mut w);
        1u8.put(&mut w); // node 0: Busy { job 1 }
        1u64.put(&mut w);
        0u8.put(&mut w); // node 1: Free
        1usize.put(&mut w);
        0u32.put(&mut w); // free list claims the busy node
        1usize.put(&mut w);
        1u64.put(&mut w);
        1usize.put(&mut w);
        1u32.put(&mut w);
        0usize.put(&mut w);
        let bad = w.into_bytes();
        assert!(Cluster::restore(&mut SnapReader::new(&bad), &()).is_err());
    }

    #[test]
    fn node_claimed_twice_or_never_is_rejected() {
        // Node 1 in both the free list and an allocation.
        let mut w = SnapWriter::new();
        2u32.put(&mut w);
        0u8.put(&mut w);
        1u8.put(&mut w);
        7u64.put(&mut w);
        1usize.put(&mut w);
        0u32.put(&mut w);
        1usize.put(&mut w);
        7u64.put(&mut w);
        2usize.put(&mut w);
        1u32.put(&mut w);
        1u32.put(&mut w);
        0usize.put(&mut w);
        0usize.put(&mut w); // no draining marks
        let bytes = w.into_bytes();
        let err = Cluster::restore(&mut SnapReader::new(&bytes), &()).unwrap_err();
        assert!(err.what.contains("twice"), "got: {err}");
        // A node no list claims.
        let mut w = SnapWriter::new();
        2u32.put(&mut w);
        0u8.put(&mut w);
        0u8.put(&mut w);
        1usize.put(&mut w);
        0u32.put(&mut w);
        0usize.put(&mut w);
        0usize.put(&mut w);
        0usize.put(&mut w); // no draining marks
        let bytes = w.into_bytes();
        let err = Cluster::restore(&mut SnapReader::new(&bytes), &()).unwrap_err();
        assert!(err.what.contains("claimed by no list"), "got: {err}");
    }

    fn sample_specs() -> Vec<hws_workload::JobSpec> {
        use hws_workload::job::JobSpecBuilder;
        vec![
            JobSpecBuilder::rigid(1).size(4).build(),
            JobSpecBuilder::on_demand(9).size(5).build(),
            JobSpecBuilder::malleable(2).size(6).min_size(2).build(),
        ]
    }

    #[test]
    fn federation_snapshot_round_trips_and_continues_identically() {
        let cfg = FederationConfig::even_split(2, 24);
        let specs = sample_specs();
        let mut f = Federation::new(&cfg, 24);
        for s in &specs {
            f.note_job(s);
        }
        assert!(f.try_allocate_with_reserved(j(1), 4));
        assert_eq!(ClusterBackend::reserve(&mut f, j(9), 5), 5);
        f.try_allocate_backfill(j(2), 6, &mut |_| true)
            .expect("fits");
        let mut w = SnapWriter::new();
        f.snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut back = Federation::restore(&mut r, &cfg).expect("decodes");
        r.expect_end().expect("consumed exactly");
        assert_eq!(back.home_of(j(1)), f.home_of(j(1)));
        assert_eq!(back.home_of(j(2)), f.home_of(j(2)));
        let mut w2 = SnapWriter::new();
        back.snapshot(&mut w2);
        assert_eq!(w2.into_bytes(), bytes, "re-encode must reproduce the bytes");
        // Continue both with the same ops: placement (meta-driven) and
        // release order must agree.
        assert_eq!(
            ClusterBackend::release(&mut f, j(2)),
            ClusterBackend::release(&mut back, j(2))
        );
        assert!(f.try_allocate_with_reserved(j(9), 5));
        assert!(back.try_allocate_with_reserved(j(9), 5));
        let mut wa = SnapWriter::new();
        let mut wb = SnapWriter::new();
        f.snapshot(&mut wa);
        back.snapshot(&mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes());
    }

    #[test]
    fn federation_restore_rejects_mismatched_config() {
        let cfg = FederationConfig::even_split(2, 24);
        let f = Federation::new(&cfg, 24);
        let mut w = SnapWriter::new();
        f.snapshot(&mut w);
        let bytes = w.into_bytes();
        // Wrong shard count.
        let other = FederationConfig::even_split(3, 24);
        assert!(Federation::restore(&mut SnapReader::new(&bytes), &other).is_err());
        // Right count, wrong shard sizes.
        let skewed = FederationConfig {
            shards: vec![
                crate::ShardSpec {
                    name: "a".into(),
                    nodes: 20,
                },
                crate::ShardSpec {
                    name: "b".into(),
                    nodes: 4,
                },
            ],
            policy: cfg.policy.clone(),
        };
        assert!(Federation::restore(&mut SnapReader::new(&bytes), &skewed).is_err());
    }

    #[test]
    fn note_job_registers_routing_metadata_idempotently() {
        use hws_workload::job::JobSpecBuilder;
        let cfg = FederationConfig::even_split(2, 24);
        // Built with no jobs at all: the live-service path.
        let mut f = Federation::new(&cfg, 24);
        let hinted = JobSpecBuilder::rigid(5).size(2).site_hint(1).build();
        f.note_job(&hinted);
        assert!(f.try_allocate_with_reserved(j(5), 2));
        assert_eq!(f.home_of(j(5)), Some(1), "hint came from note_job");
        // Re-noting with different metadata keeps the first registration.
        let mut renote = hinted.clone();
        renote.site_hint = Some(0);
        f.note_job(&renote);
        let mut w = SnapWriter::new();
        f.snapshot(&mut w);
        let back =
            Federation::restore(&mut SnapReader::new(&w.into_bytes()), &cfg).expect("decodes");
        assert_eq!(back.home_of(j(5)), Some(1));
        // A bare cluster accepts note_job as a no-op.
        let mut c = Cluster::new(8);
        c.note_job(&hinted);
        assert_eq!(c.free_count(), 8);
    }
}
