//! Wall-clock cost of mechanism decisions (the paper's Observation 10:
//! every hybrid mechanism decides in well under 10 ms), measured outside
//! the simulator so its results stay a pure function of (config, trace,
//! seed).
//!
//! [`DecisionTimer::install`] wraps the standard composition of a
//! configuration's mechanism in a timing delegate through
//! `SimConfig::hooks`, leaving `SimConfig::mechanism` as it was, so every
//! simulated result is bitwise unchanged. One decision is
//! one `on_notice`, `plan_for_prediction` or `on_arrival` call: the span
//! is the hook call itself, not the driver bookkeeping around it. Memory
//! is fixed and the timer is `Sync`, so one timer collects across a
//! parallel sweep.

use hws_core::mechanism::CupPlan;
use hws_core::{
    standard_composition, AdmissionView, ArrivalPlan, ArrivalView, HooksHandle, MechanismHooks,
    NoticeDecision, NoticeView, PredictionView, SimConfig,
};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Log-bucket histogram size: four buckets per power of two cover every
/// `u64` nanosecond count, so a percentile reads at most 25% high.
const BUCKETS: usize = 252;

/// Bucket of a sample: values below 4 map to themselves, larger ones to
/// (octave, the two bits below the leading one).
fn bucket(ns: u64) -> usize {
    match ns.checked_ilog2() {
        Some(e) if e >= 2 => (e as usize - 2) * 4 + (ns >> (e - 2)) as usize,
        _ => ns as usize,
    }
}

/// Exclusive upper bound, in nanoseconds, of the samples in bucket `i`.
fn ceiling(i: usize) -> u128 {
    if i < 4 {
        i as u128 + 1
    } else {
        ((i % 4 + 5) as u128) << (i / 4 - 1)
    }
}

/// Summary of the decisions a [`DecisionTimer`] has seen.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DecisionLatency {
    pub decisions: u64,
    pub mean_us: f64,
    /// Upper edge of the bucket holding the 99th percentile, clamped to
    /// the maximum: never below the true p99.
    pub p99_us: f64,
    pub max_us: f64,
}

/// Atomic counters; `Relaxed` suffices because readers join the timed
/// runs first.
#[derive(Debug)]
struct Counters {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

/// Collects decision costs across any number of concurrent runs. Clones
/// share one set of counters.
#[derive(Debug, Clone)]
pub struct DecisionTimer(Arc<Counters>);

impl Default for DecisionTimer {
    fn default() -> Self {
        DecisionTimer(Arc::new(Counters {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }))
    }
}

impl DecisionTimer {
    /// Time `cfg`'s decisions: the standard composition of
    /// `cfg.mechanism`, wrapped, becomes `cfg.hooks`.
    pub fn install(&self, cfg: &mut SimConfig) {
        let inner = standard_composition(cfg.mechanism, cfg.victim_order, cfg.shrink_strategy);
        let timer = self.clone();
        cfg.hooks = Some(HooksHandle::new(TimedHooks { inner, timer }));
    }

    fn record(&self, ns: u64) {
        let c = &self.0;
        c.count.fetch_add(1, Relaxed);
        c.total_ns.fetch_add(ns, Relaxed);
        c.max_ns.fetch_max(ns, Relaxed);
        c.buckets[bucket(ns)].fetch_add(1, Relaxed);
    }

    fn time<T>(&self, decide: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = decide();
        self.record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        out
    }

    pub fn summary(&self) -> DecisionLatency {
        let c = &self.0;
        let count = c.count.load(Relaxed);
        let max = c.max_ns.load(Relaxed);
        let rank = count.saturating_mul(99).div_ceil(100).max(1);
        let mut seen = 0;
        let p99 = c
            .buckets
            .iter()
            .position(|b| {
                seen += b.load(Relaxed);
                seen >= rank
            })
            .map_or(0, |i| ceiling(i).min(u128::from(max)));
        DecisionLatency {
            decisions: count,
            mean_us: c.total_ns.load(Relaxed) as f64 / count.max(1) as f64 / 1e3,
            p99_us: p99 as f64 / 1e3,
            max_us: max as f64 / 1e3,
        }
    }
}

/// The timing delegate [`DecisionTimer::install`] puts in front of a
/// configuration's hooks. `admit`, a per-pass filter rather than a
/// mechanism decision, passes through untimed.
#[derive(Debug)]
struct TimedHooks {
    inner: Arc<dyn MechanismHooks>,
    timer: DecisionTimer,
}

impl MechanismHooks for TimedHooks {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn uses_notices(&self) -> bool {
        self.inner.uses_notices()
    }

    fn on_notice(&self, view: &NoticeView) -> NoticeDecision {
        self.timer.time(|| self.inner.on_notice(view))
    }

    fn plans_predictions(&self) -> bool {
        self.inner.plans_predictions()
    }

    fn plan_for_prediction(&self, view: &PredictionView<'_>) -> CupPlan {
        self.timer.time(|| self.inner.plan_for_prediction(view))
    }

    fn on_arrival(&self, view: &ArrivalView<'_>) -> ArrivalPlan {
        self.timer.time(|| self.inner.on_arrival(view))
    }

    fn admit(&self, view: &AdmissionView) -> bool {
        self.inner.admit(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hws_core::{Mechanism, Simulator};
    use hws_workload::TraceConfig;

    #[test]
    fn buckets_tile_the_range() {
        let mut lo = 0u128;
        for i in 0..BUCKETS {
            let hi = ceiling(i);
            assert!(hi > lo);
            assert_eq!(bucket(lo as u64), i, "lower edge of bucket {i}");
            assert_eq!(bucket((hi - 1) as u64), i, "upper edge of bucket {i}");
            lo = hi;
        }
        assert_eq!(lo, 1 << 64, "the last bucket ends at u64::MAX");
    }

    #[test]
    fn summary_bounds_the_true_percentile() {
        let timer = DecisionTimer::default();
        assert_eq!(timer.summary(), DecisionLatency::default());
        for us in 1..=1_000u64 {
            timer.record(us * 1_000);
        }
        let s = timer.summary();
        assert_eq!(s.decisions, 1_000);
        assert!((s.mean_us - 500.5).abs() < 1e-9);
        assert_eq!(s.max_us, 1_000.0);
        assert!(s.p99_us >= 990.0 && s.p99_us <= 1_000.0, "{}", s.p99_us);
    }

    #[test]
    fn timing_leaves_results_bitwise_intact() {
        let trace = TraceConfig::tiny().generate(9);
        let timer = DecisionTimer::default();
        for m in Mechanism::ALL_SIX {
            let mut cfg = SimConfig::with_mechanism(m);
            let plain = Simulator::run_trace(&cfg, &trace);
            timer.install(&mut cfg);
            let timed = Simulator::run_trace(&cfg, &trace);
            assert_eq!(plain.metrics, timed.metrics, "{m}");
            assert_eq!(plain.engine, timed.engine, "{m}");
            assert_eq!(plain.mechanism, timed.mechanism, "{m}");
        }
        assert!(timer.summary().decisions > 0);
    }
}
