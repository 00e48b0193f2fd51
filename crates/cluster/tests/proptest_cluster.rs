//! Property tests: arbitrary operation sequences never violate the
//! cluster's conservation invariants, and node accounting is exact.
//! The op space includes the outage ops (drain, rejoin, hard-down of an
//! idle reserved node, single-node release), so draining marks meet
//! every release, shrink and unsquat path.

use hws_cluster::{Cluster, NodeId, NodeState};
use hws_workload::JobId;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Allocate {
        job: u64,
        k: u32,
    },
    AllocateWithReserved {
        job: u64,
        k: u32,
    },
    Backfill {
        job: u64,
        k: u32,
        use_reserved: bool,
    },
    Release {
        job: u64,
    },
    Shrink {
        job: u64,
        k: u32,
    },
    Expand {
        job: u64,
        k: u32,
    },
    Reserve {
        holder: u64,
        k: u32,
    },
    ReleaseReservation {
        holder: u64,
    },
    TransferReserved {
        from: u64,
        to: u64,
        k: u32,
    },
    /// Node ids are taken modulo the machine size.
    DrainNode {
        node: u32,
    },
    RejoinNode {
        node: u32,
    },
    /// Hard-down the idle reserved node at `node` for its own holder, or
    /// (when `wrong_holder`) ask for it under a holder that does not own
    /// it, which must be refused.
    DownReservedNode {
        node: u32,
        wrong_holder: bool,
    },
    /// Drop the `pick`-th node of `job`'s allocation.
    ReleaseSingleNode {
        job: u64,
        pick: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..24u64, 1..16u32).prop_map(|(job, k)| Op::Allocate { job, k }),
        (0..24u64, 1..16u32).prop_map(|(job, k)| Op::AllocateWithReserved { job, k }),
        (0..24u64, 1..16u32, any::<bool>()).prop_map(|(job, k, use_reserved)| Op::Backfill {
            job,
            k,
            use_reserved
        }),
        (0..24u64).prop_map(|job| Op::Release { job }),
        (0..24u64, 1..8u32).prop_map(|(job, k)| Op::Shrink { job, k }),
        (0..24u64, 1..8u32).prop_map(|(job, k)| Op::Expand { job, k }),
        (24..32u64, 1..16u32).prop_map(|(holder, k)| Op::Reserve { holder, k }),
        (24..32u64).prop_map(|holder| Op::ReleaseReservation { holder }),
        (24..32u64, 24..32u64, 1..16u32).prop_map(|(from, to, k)| Op::TransferReserved {
            from,
            to,
            k
        }),
        (0..64u32).prop_map(|node| Op::DrainNode { node }),
        (0..64u32).prop_map(|node| Op::RejoinNode { node }),
        (0..64u32, any::<bool>())
            .prop_map(|(node, wrong_holder)| Op::DownReservedNode { node, wrong_holder }),
        (0..24u64, 0..64usize).prop_map(|(job, pick)| Op::ReleaseSingleNode { job, pick }),
    ]
}

fn apply(c: &mut Cluster, op: &Op) {
    match *op {
        Op::Allocate { job, k } => {
            if !c.is_running(JobId(job)) {
                let _ = c.allocate(JobId(job), k);
            }
        }
        Op::AllocateWithReserved { job, k } => {
            if !c.is_running(JobId(job)) {
                let _ = c.allocate_with_reserved(JobId(job), k);
            }
        }
        Op::Backfill {
            job,
            k,
            use_reserved,
        } => {
            if !c.is_running(JobId(job)) {
                let _ = c.allocate_backfill(JobId(job), k, |_| use_reserved);
            }
        }
        Op::Release { job } => {
            let _ = c.release(JobId(job));
        }
        Op::Shrink { job, k } => {
            if c.size_of(JobId(job)) > k {
                let _ = c.shrink(JobId(job), k);
            }
        }
        Op::Expand { job, k } => {
            if c.is_running(JobId(job)) {
                let _ = c.expand(JobId(job), k);
            }
        }
        Op::Reserve { holder, k } => {
            let _ = c.reserve(JobId(holder), k);
        }
        Op::ReleaseReservation { holder } => {
            let _ = c.release_reservation(JobId(holder));
        }
        Op::TransferReserved { from, to, k } => {
            let _ = c.transfer_reserved(JobId(from), JobId(to), k);
        }
        Op::DrainNode { node } => {
            let id = NodeId(node % c.total_nodes());
            let was_free = c.node_state(id) == Some(NodeState::Free);
            let down = c.drain_node(id);
            if was_free {
                assert!(down, "a free node goes down at once");
            }
            assert_eq!(down, c.is_down(id));
        }
        Op::RejoinNode { node } => {
            let id = NodeId(node % c.total_nodes());
            let was_down = c.is_down(id);
            let changed = c.rejoin_node(id);
            if was_down {
                assert!(changed);
                assert_eq!(c.node_state(id), Some(NodeState::Free));
            }
        }
        Op::DownReservedNode { node, wrong_holder } => {
            let id = NodeId(node % c.total_nodes());
            match c.node_state(id) {
                Some(NodeState::Reserved { holder }) if !wrong_holder => {
                    assert!(c.down_reserved_node(holder, id));
                    assert!(c.is_down(id));
                }
                Some(NodeState::Reserved { holder }) => {
                    assert!(!c.down_reserved_node(JobId(holder.0 ^ 1), id));
                }
                _ => assert!(!c.down_reserved_node(JobId(24), id)),
            }
        }
        Op::ReleaseSingleNode { job, pick } => {
            let nodes = c.nodes_of(JobId(job));
            if nodes.len() > 1 {
                let id = nodes[pick % nodes.len()];
                c.release_single_node(JobId(job), id);
                assert!(!c.nodes_of(JobId(job)).contains(&id));
            }
        }
    }
}

/// Oracle check: the incremental `(plain, squatted)` counters, the squatter
/// index, and the reserved-idle total must exactly match what a full node
/// scan reports, for every job and holder id the op space can produce.
fn assert_matches_scan_oracle(c: &Cluster) {
    let mut reserved_idle_scanned = 0;
    for id in (0..64).map(JobId) {
        assert_eq!(
            c.split_of(id),
            c.split_of_scanned(id),
            "split counters diverged for {id}"
        );
        assert_eq!(
            c.squatters(id),
            c.squatters_scanned(id),
            "squatter index diverged for holder {id}"
        );
        reserved_idle_scanned += c.reserved_idle_count(id);
    }
    assert_eq!(c.total_reserved_idle(), reserved_idle_scanned);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn invariants_hold_under_arbitrary_op_sequences(
        n in 8..64u32,
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let mut c = Cluster::new(n);
        for op in &ops {
            apply(&mut c, op);
            prop_assert_eq!(c.check_invariants(), Ok(()));
        }
    }

    /// The incremental accounting is exact: after every operation of an
    /// arbitrary allocate/release/reserve/backfill/shrink/expand/transfer
    /// sequence, `split_of`, `squatters`, and `total_reserved_idle` agree
    /// with a full-node-scan oracle.
    #[test]
    fn incremental_counters_match_scan_oracle(
        n in 8..64u32,
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let mut c = Cluster::new(n);
        assert_matches_scan_oracle(&c);
        for op in &ops {
            apply(&mut c, op);
            assert_matches_scan_oracle(&c);
        }
        // And after tearing everything down.
        let running: Vec<JobId> = c.running_jobs().collect();
        for job in running {
            c.release(job);
        }
        for holder in (0..64).map(JobId) {
            c.release_reservation(holder);
        }
        assert_matches_scan_oracle(&c);
        prop_assert_eq!(c.total_reserved_idle(), 0);
    }

    #[test]
    fn releasing_everything_restores_full_capacity(
        n in 8..64u32,
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        let mut c = Cluster::new(n);
        for op in &ops {
            apply(&mut c, op);
        }
        let running: Vec<JobId> = c.running_jobs().collect();
        for job in running {
            c.release(job);
        }
        for holder in (0..64).map(JobId) {
            c.release_reservation(holder);
        }
        for id in (0..n).map(NodeId) {
            c.rejoin_node(id);
        }
        prop_assert_eq!(c.free_count(), n);
        prop_assert_eq!(c.check_invariants(), Ok(()));
    }

    #[test]
    fn allocation_sizes_are_exact(
        n in 8..64u32,
        sizes in proptest::collection::vec(1..10u32, 1..10),
    ) {
        let mut c = Cluster::new(n);
        let mut allocated = 0u32;
        for (i, &k) in sizes.iter().enumerate() {
            if let Some(nodes) = c.allocate(JobId(i as u64), k) {
                prop_assert_eq!(nodes.len() as u32, k);
                allocated += k;
            }
            prop_assert_eq!(c.free_count(), n - allocated);
        }
    }
}
