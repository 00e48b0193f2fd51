//! Deterministic fan-out: run an index-addressed batch of independent
//! tasks across CPU cores and return the results **in index order**.
//!
//! This is the slot pattern behind `Simulator::run_sweep_with` and the
//! `hws-search` tuners: a work-stealing counter hands indices to scoped
//! worker threads, each result lands in its own pre-allocated slot, and
//! the collected output is ordered by index — so the result vector is
//! independent of thread scheduling, and any fold over it in index order
//! is bitwise identical to a sequential loop.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Evaluate `f(0..n)` across up to `available_parallelism()` scoped
/// threads; returns `[f(0), f(1), …, f(n-1)]` in index order regardless
/// of which thread ran what.
///
/// `f` must be a pure function of its index for the determinism claim to
/// mean anything — the fan-out itself never reorders results.
///
/// # Panics
///
/// Panics (poisoned slot) if `f` panics on a worker thread.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(|w| w.get())
        .unwrap_or(1)
        .min(n);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                *slots[i].lock().expect("par_map slot") = Some(f(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("par_map slot")
                .expect("worker filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_batch() {
        let out: Vec<u32> = par_map(0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn results_are_in_index_order() {
        let out = par_map(257, |i| i * i);
        assert_eq!(out.len(), 257);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn matches_sequential_map() {
        let seq: Vec<u64> = (0..64u64).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        let par = par_map(64, |i| (i as u64).wrapping_mul(0x9e37_79b9));
        assert_eq!(seq, par);
    }
}
