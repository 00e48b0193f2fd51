//! Exact node order under a fixed, seeded sequence of every cluster op.
//!
//! Node identity is observable: outages name nodes, and snapshot images
//! carry the free-list stack and every node list verbatim. This test
//! drives a Theta-sized machine (4,392 nodes) through 5,000 seeded ops,
//! every mutating op kind included, and pins the FNV-1a digest of
//! the cluster snapshot taken at checkpoints along the way. Any
//! change that moves a node id to another position (in the free list, an
//! allocation or an idle reservation) changes the digest, including on
//! the squat and drain paths that the outage baseline reaches rarely.

use hws_cluster::{Cluster, NodeId, NodeState, SnapshotBackend};
use hws_sim::snap::SnapWriter;
use hws_workload::JobId;

const NODES: u32 = 4_392;
const OPS: usize = 5_000;
/// Reservation holders are ids `HOLDER_BASE..HOLDER_BASE + HOLDERS`;
/// ordinary jobs count up from 0.
const HOLDER_BASE: u64 = 1_000_000;
const HOLDERS: u64 = 12;

/// Digest of the checkpoint images of the seeded run below, recorded
/// with the one-node-at-a-time cluster that preceded the slice moves.
const PINNED_DIGEST: u64 = 0x1b65_8c41_99a9_54a8;

/// SplitMix64: a fixed, dependency-free stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Job widths shaped like Theta's: mostly 128–512 nodes, some narrow,
    /// a few very wide.
    fn width(&mut self) -> u32 {
        match self.below(10) {
            0..=1 => 1 + self.below(32) as u32,
            2..=8 => 128 + self.below(385) as u32,
            _ => 1_024 + self.below(1_025) as u32,
        }
    }
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// How often each op kind changed the machine, so the sequence is known
/// to reach every path it pins.
#[derive(Debug, Default)]
struct Hits {
    allocate: u32,
    allocate_with_reserved: u32,
    backfill_squatting: u32,
    release: u32,
    release_squatter: u32,
    shrink: u32,
    shrink_squatted: u32,
    expand: u32,
    reserve: u32,
    release_reservation: u32,
    transfer_reserved: u32,
    drain_occupied: u32,
    drain_free: u32,
    rejoin: u32,
    down_reserved: u32,
    release_single: u32,
    drained_on_release: u32,
}

fn holder(rng: &mut Rng) -> JobId {
    JobId(HOLDER_BASE + rng.below(HOLDERS))
}

/// Apply the seeded sequence; returns the digest and the hit counts.
fn run() -> (u64, Hits) {
    let mut rng = Rng(0x5EED_0000_1109_2021);
    let mut c = Cluster::new(NODES);
    let mut hits = Hits::default();
    // Running jobs in start order: the pick must not depend on the
    // cluster's own (unordered) job iteration.
    let mut running: Vec<JobId> = Vec::new();
    let mut next_job = 0u64;
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    let pick_running = |rng: &mut Rng, running: &[JobId]| {
        (!running.is_empty()).then(|| running[rng.below(running.len() as u64) as usize])
    };
    for step in 0..OPS {
        match rng.below(100) {
            0..=16 => {
                let job = JobId(next_job);
                next_job += 1;
                let k = rng.width();
                if c.allocate(job, k).is_some() {
                    running.push(job);
                    hits.allocate += 1;
                }
            }
            17..=22 => {
                let h = holder(&mut rng);
                if !c.is_running(h) {
                    let k = c.reserved_idle_count(h) + rng.below(64) as u32 + 1;
                    if c.allocate_with_reserved(h, k).is_some() {
                        running.push(h);
                        hits.allocate_with_reserved += 1;
                    }
                }
            }
            23..=37 => {
                let job = JobId(next_job);
                next_job += 1;
                let k = rng.width();
                // Odd holders stand for private lender reservations,
                // which backfill may not squat on.
                if let Some(sq) = c.allocate_backfill(job, k, |h| h.0 % 2 == 0) {
                    running.push(job);
                    if !sq.is_empty() {
                        hits.backfill_squatting += 1;
                    }
                }
            }
            38..=57 => {
                if let Some(job) = pick_running(&mut rng, &running) {
                    let down_before = c.down_count();
                    let (_, squatted) = c.split_of(job);
                    c.release(job);
                    running.retain(|&j| j != job);
                    hits.release += 1;
                    hits.release_squatter += u32::from(squatted > 0);
                    hits.drained_on_release += u32::from(c.down_count() > down_before);
                }
            }
            58..=63 => {
                if let Some(job) = pick_running(&mut rng, &running) {
                    let size = c.size_of(job);
                    if size > 1 {
                        let k = 1 + rng.below(u64::from(size - 1)) as u32;
                        let (plain, _) = c.split_of(job);
                        c.shrink(job, k);
                        hits.shrink += 1;
                        hits.shrink_squatted += u32::from(k > plain);
                    }
                }
            }
            64..=68 => {
                if let Some(job) = pick_running(&mut rng, &running) {
                    let k = 1 + rng.below(256) as u32;
                    if c.expand(job, k) > 0 {
                        hits.expand += 1;
                    }
                }
            }
            69..=78 => {
                let h = holder(&mut rng);
                if !c.is_running(h) && c.reserve(h, 1 + rng.below(512) as u32) > 0 {
                    hits.reserve += 1;
                }
            }
            79..=82 => {
                if c.release_reservation(holder(&mut rng)) > 0 {
                    hits.release_reservation += 1;
                }
            }
            83..=85 => {
                let (from, to) = (holder(&mut rng), holder(&mut rng));
                if !c.is_running(to) && c.transfer_reserved(from, to, 1 + rng.below(128) as u32) > 0
                {
                    hits.transfer_reserved += 1;
                }
            }
            86..=90 => {
                let id = NodeId(rng.below(u64::from(NODES)) as u32);
                let was_free = c.node_state(id) == Some(NodeState::Free);
                if c.drain_node(id) {
                    hits.drain_free += u32::from(was_free);
                } else {
                    hits.drain_occupied += 1;
                }
            }
            91..=94 => {
                // Rejoin the first down node at or after a random start,
                // so rejoins hit real candidates.
                let start = rng.below(u64::from(NODES)) as u32;
                let down = (0..NODES)
                    .map(|i| NodeId((start + i) % NODES))
                    .find(|&id| c.is_down(id));
                if let Some(id) = down {
                    if c.rejoin_node(id) {
                        hits.rejoin += 1;
                    }
                }
            }
            95..=96 => {
                let start = rng.below(u64::from(NODES)) as u32;
                let reserved =
                    (0..NODES)
                        .map(|i| NodeId((start + i) % NODES))
                        .find_map(|id| match c.node_state(id) {
                            Some(NodeState::Reserved { holder }) => Some((holder, id)),
                            _ => None,
                        });
                if let Some((h, id)) = reserved {
                    assert!(c.down_reserved_node(h, id));
                    hits.down_reserved += 1;
                }
            }
            _ => {
                if let Some(job) = pick_running(&mut rng, &running) {
                    let nodes = c.nodes_of(job);
                    if nodes.len() > 1 {
                        let id = nodes[rng.below(nodes.len() as u64) as usize];
                        c.release_single_node(job, id);
                        hits.release_single += 1;
                    }
                }
            }
        }
        if step % 50 == 49 {
            c.check_invariants().expect("invariants hold");
        }
        if step % 250 == 249 {
            let mut w = SnapWriter::new();
            c.snapshot(&mut w);
            digest = fnv1a(digest, &w.into_bytes());
        }
    }
    (digest, hits)
}

#[test]
fn seeded_op_sequence_pins_exact_node_order() {
    let (digest, hits) = run();
    // Every path the digest pins was taken, and more than once.
    let counts = [
        hits.allocate,
        hits.allocate_with_reserved,
        hits.backfill_squatting,
        hits.release,
        hits.release_squatter,
        hits.shrink,
        hits.shrink_squatted,
        hits.expand,
        hits.reserve,
        hits.release_reservation,
        hits.transfer_reserved,
        hits.drain_occupied,
        hits.drain_free,
        hits.rejoin,
        hits.down_reserved,
        hits.release_single,
        hits.drained_on_release,
    ];
    assert!(counts.iter().all(|&n| n >= 5), "{hits:?}");
    assert_eq!(digest, PINNED_DIGEST, "node order moved: {digest:#018x}");
}
