//! EASY backfilling (Mu'alem & Feitelson): the head of the queue gets a
//! *shadow* reservation at the earliest instant enough nodes will be free;
//! later jobs may jump ahead iff they either finish before the shadow time
//! or fit into the nodes the head job will not need ("extra" nodes).

use hws_sim::SimTime;

/// The head job's reservation: when it is expected to start, and how many
/// nodes beyond its requirement remain usable by backfill until then.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shadow {
    /// Earliest instant the head job is expected to have enough nodes.
    /// `SimTime::MAX` when the projection never accumulates enough (e.g.
    /// nodes locked in other reservations).
    pub time: SimTime,
    /// Nodes free at the shadow instant beyond the head job's need —
    /// backfill jobs no larger than this cannot delay the head job even if
    /// they run forever.
    pub extra: u32,
}

/// Compute the head job's shadow from the projected releases of running
/// jobs. `releases` is a list of `(expected_end, nodes_returning_to_free)`
/// — squatters returning to foreign reservations are excluded by the
/// caller. `avail_now` counts nodes the head job could use immediately.
pub fn compute_shadow(releases: &mut [(SimTime, u32)], avail_now: u32, need: u32) -> Shadow {
    if avail_now >= need {
        return Shadow {
            time: SimTime::ZERO,
            extra: avail_now - need,
        };
    }
    // Two equivalent selection strategies — both walk releases in
    // ascending `(end, nodes)` order until the cumulative count crosses
    // `need`, so they return bit-identical shadows (entries tied on the
    // whole pair are interchangeable: same cumulative sums, same crossing
    // entry). Which is cheaper depends on how deep the walk goes:
    //
    // * a small deficit crosses within a handful of releases — heapify
    //   (O(R)) plus k pops (O(k log R)) beats sorting everything;
    // * a deficit near the total projected release count consumes most of
    //   the heap, and R pops cost more than one good sort.
    //
    // The deficit and the release total are both known up front, so pick
    // per call. The cutoff only affects speed, never the result.
    let len = releases.len();
    let deficit = need - avail_now;
    let total: u32 = releases.iter().map(|&(_, n)| n).sum();
    if deficit.saturating_mul(4) <= total {
        // Expected crossing depth ≲ R/4 (the deficit is at most a quarter
        // of the projected release total): heap selection.
        for i in (0..len / 2).rev() {
            sift_down(releases, i, len);
        }
        let mut have = avail_now;
        let mut live = len;
        while live > 0 {
            let (end, nodes) = releases[0];
            have += nodes;
            if have >= need {
                return Shadow {
                    time: end,
                    extra: have - need,
                };
            }
            live -= 1;
            releases.swap(0, live);
            sift_down(releases, 0, live);
        }
    } else {
        // Deep walk expected: one unstable sort (key is the whole
        // element, so instability is harmless) then a linear scan.
        releases.sort_unstable_by_key(|&(t, n)| (t, n));
        let mut have = avail_now;
        for &(end, nodes) in releases.iter() {
            have += nodes;
            if have >= need {
                return Shadow {
                    time: end,
                    extra: have - need,
                };
            }
        }
    }
    Shadow {
        time: SimTime::MAX,
        extra: avail_now,
    }
}

/// [`compute_shadow`] over releases already in ascending expected-end
/// order, as a walk from the front: `releases` yields `(expected_end,
/// nodes)` with non-decreasing ends, the node counts of equal ends in any
/// order. Each run of equal ends is summed; only the run in which the
/// count crosses `need` is sorted by node count (into `group`, a reusable
/// buffer), which reproduces `compute_shadow`'s `(end, nodes)` order
/// exactly. Reads releases only up to the crossing, so a shallow crossing
/// costs O(k) however many jobs run.
pub fn shadow_walk(
    releases: impl IntoIterator<Item = (SimTime, u32)>,
    avail_now: u32,
    need: u32,
    group: &mut Vec<u32>,
) -> Shadow {
    if avail_now >= need {
        return Shadow {
            time: SimTime::ZERO,
            extra: avail_now - need,
        };
    }
    let mut have = avail_now;
    let mut rest = releases.into_iter().peekable();
    let mut last = None;
    while let Some((end, nodes)) = rest.next() {
        debug_assert!(last < Some(end), "releases out of end order");
        last = Some(end);
        group.clear();
        group.push(nodes);
        let mut sum = nodes;
        while let Some((_, n)) = rest.next_if(|&(e, _)| e == end) {
            group.push(n);
            sum += n;
        }
        if have + sum >= need {
            group.sort_unstable();
            for &n in group.iter() {
                have += n;
                if have >= need {
                    return Shadow {
                        time: end,
                        extra: have - need,
                    };
                }
            }
        }
        have += sum;
    }
    Shadow {
        time: SimTime::MAX,
        extra: avail_now,
    }
}

/// Restore the min-heap property for the subtree rooted at `i` within
/// `heap[..len]` (ordering on the whole `(end, nodes)` tuple).
fn sift_down(heap: &mut [(SimTime, u32)], mut i: usize, len: usize) {
    loop {
        let l = 2 * i + 1;
        if l >= len {
            return;
        }
        let mut c = l;
        let r = l + 1;
        if r < len && heap[r] < heap[l] {
            c = r;
        }
        if heap[c] < heap[i] {
            heap.swap(c, i);
            i = c;
        } else {
            return;
        }
    }
}

/// EASY admission test for one backfill candidate: the candidate (needing
/// `size` nodes and expected to run until `expected_end`) may start iff it
/// fits in `avail_now` nodes and either completes before the shadow or uses
/// no more than the shadow's extra nodes.
pub fn may_backfill(size: u32, expected_end: SimTime, avail_now: u32, shadow: Shadow) -> bool {
    size <= avail_now && (expected_end <= shadow.time || size <= shadow.extra)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn shadow_now_when_head_fits() {
        let s = compute_shadow(&mut [(t(100), 4)], 10, 8);
        assert_eq!(s.time, SimTime::ZERO);
        assert_eq!(s.extra, 2);
    }

    #[test]
    fn shadow_at_first_sufficient_release() {
        let mut rel = vec![(t(300), 4), (t(100), 2), (t(200), 3)];
        // avail 1, need 6: after t=100 have 3, after t=200 have 6 → shadow.
        let s = compute_shadow(&mut rel, 1, 6);
        assert_eq!(s.time, t(200));
        assert_eq!(s.extra, 0);
    }

    #[test]
    fn shadow_extra_counts_overshoot() {
        let mut rel = vec![(t(100), 10)];
        let s = compute_shadow(&mut rel, 2, 5);
        assert_eq!(s.time, t(100));
        assert_eq!(s.extra, 7);
    }

    #[test]
    fn shadow_unreachable() {
        let mut rel = vec![(t(100), 1)];
        let s = compute_shadow(&mut rel, 2, 10);
        assert_eq!(s.time, SimTime::MAX);
        assert_eq!(s.extra, 2);
    }

    #[test]
    fn walk_matches_compute_shadow() {
        // Seeded releases on few distinct ends (long equal-end runs with
        // mixed node counts, zero counts included), fed to the walk in end
        // order with each run's counts left unsorted.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let mut group = Vec::new();
        for _ in 0..2_000 {
            let len = next(24) as usize;
            let mut rel: Vec<(SimTime, u32)> =
                (0..len).map(|_| (t(next(6)), next(9) as u32)).collect();
            rel.sort_by_key(|&(end, _)| end);
            let (avail, need) = (next(10) as u32, 1 + next(48) as u32);
            let walked = shadow_walk(rel.iter().copied(), avail, need, &mut group);
            assert_eq!(walked, compute_shadow(&mut rel, avail, need), "{rel:?}");
        }
    }

    #[test]
    fn backfill_admission_by_time() {
        let shadow = Shadow {
            time: t(1_000),
            extra: 0,
        };
        assert!(may_backfill(4, t(900), 5, shadow));
        assert!(may_backfill(4, t(1_000), 5, shadow)); // boundary allowed
        assert!(!may_backfill(4, t(1_001), 5, shadow));
    }

    #[test]
    fn backfill_admission_by_extra_nodes() {
        let shadow = Shadow {
            time: t(1_000),
            extra: 4,
        };
        // Runs past the shadow but fits in the extra nodes.
        assert!(may_backfill(4, t(99_999), 5, shadow));
        assert!(!may_backfill(5, t(99_999), 5, shadow));
    }

    #[test]
    fn backfill_requires_current_fit() {
        let shadow = Shadow {
            time: SimTime::MAX,
            extra: 100,
        };
        assert!(!may_backfill(6, t(10), 5, shadow));
    }
}
