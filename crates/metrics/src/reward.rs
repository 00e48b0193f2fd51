//! Scalar reward folds over run metrics: the objective the policy
//! search (`hws-search`) and the `Environment` facade optimise.
//!
//! Rewards are **maximised**, so cost-like metrics (bounded slowdown,
//! turnaround) enter negated. Every fold is a pure function of the
//! (deterministic) metric fields, so identical runs score identically
//! bitwise.
//!
//! ## The absent-breakdown case
//!
//! `SimOutcome.classes` is `None` for zero-capability runs (the
//! breakdown is deliberately omitted so those runs compare bitwise
//! against two-class builds). Class-weighted folds therefore take the
//! breakdown as an `Option` and must *never* unwrap it: with no
//! capability jobs the whole population is capacity work, so the fold
//! falls back to the population-wide turnaround and the capability term
//! contributes zero. A regression test pins this arm.

use crate::classes::ClassBreakdown;
use crate::summary::Metrics;

/// Which scalar objective to fold the metrics into.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RewardKind {
    /// Negated average bounded slowdown (the paper's §IV-D headline
    /// responsiveness metric); higher is better.
    NegBoundedSlowdown,
    /// System utilisation in `[0, 1]`; higher is better.
    Utilization,
    /// Negated class-weighted average turnaround (hours):
    /// `-(capacity_weight · T_capacity + capability_weight · T_capability)`.
    /// With no breakdown (zero-capability run) the capacity term uses the
    /// population-wide turnaround and the capability term is zero.
    ClassWeighted {
        capacity_weight: f64,
        capability_weight: f64,
    },
    /// Linear blend `slowdown_weight · (-avg_bounded_slowdown) +
    /// utilization_weight · utilization`.
    Blend {
        slowdown_weight: f64,
        utilization_weight: f64,
    },
}

/// A configured reward: construct once, [`score`](RewardSpec::score)
/// every run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewardSpec {
    pub kind: RewardKind,
}

impl RewardSpec {
    pub fn neg_bounded_slowdown() -> Self {
        RewardSpec {
            kind: RewardKind::NegBoundedSlowdown,
        }
    }

    pub fn utilization() -> Self {
        RewardSpec {
            kind: RewardKind::Utilization,
        }
    }

    pub fn class_weighted(capacity_weight: f64, capability_weight: f64) -> Self {
        RewardSpec {
            kind: RewardKind::ClassWeighted {
                capacity_weight,
                capability_weight,
            },
        }
    }

    pub fn blend(slowdown_weight: f64, utilization_weight: f64) -> Self {
        RewardSpec {
            kind: RewardKind::Blend {
                slowdown_weight,
                utilization_weight,
            },
        }
    }

    /// Stable one-token-ish description for leaderboard headers; floats
    /// printed with `{:?}` so the text round-trips byte-identically.
    pub fn describe(&self) -> String {
        match self.kind {
            RewardKind::NegBoundedSlowdown => "neg-bounded-slowdown".into(),
            RewardKind::Utilization => "utilization".into(),
            RewardKind::ClassWeighted {
                capacity_weight,
                capability_weight,
            } => format!(
                "class-weighted(capacity={capacity_weight:?},capability={capability_weight:?})"
            ),
            RewardKind::Blend {
                slowdown_weight,
                utilization_weight,
            } => format!("blend(slowdown={slowdown_weight:?},utilization={utilization_weight:?})"),
        }
    }

    /// Fold a run into its scalar reward. `classes` is the per-class
    /// breakdown when the run saw capability jobs, `None` otherwise —
    /// the zero-capability case is handled, never unwrapped (see the
    /// module docs).
    pub fn score(&self, m: &Metrics, classes: Option<&ClassBreakdown>) -> f64 {
        match self.kind {
            RewardKind::NegBoundedSlowdown => -m.avg_bounded_slowdown,
            RewardKind::Utilization => m.utilization,
            RewardKind::ClassWeighted {
                capacity_weight,
                capability_weight,
            } => match classes {
                Some(b) => {
                    -(capacity_weight * b.capacity.avg_turnaround_h
                        + capability_weight * b.capability.avg_turnaround_h)
                }
                // Zero-capability run: the whole population is capacity
                // work; the capability term contributes nothing.
                None => -(capacity_weight * m.avg_turnaround_h),
            },
            RewardKind::Blend {
                slowdown_weight,
                utilization_weight,
            } => slowdown_weight * (-m.avg_bounded_slowdown) + utilization_weight * m.utilization,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics_with(avg_turnaround_h: f64, slowdown: f64, utilization: f64) -> Metrics {
        Metrics {
            avg_turnaround_h,
            avg_bounded_slowdown: slowdown,
            utilization,
            ..Metrics::default()
        }
    }

    #[test]
    fn slowdown_and_utilization_folds() {
        let m = metrics_with(5.0, 3.5, 0.8);
        assert_eq!(RewardSpec::neg_bounded_slowdown().score(&m, None), -3.5);
        assert_eq!(RewardSpec::utilization().score(&m, None), 0.8);
        assert_eq!(RewardSpec::blend(1.0, 10.0).score(&m, None), -3.5 + 8.0);
    }

    #[test]
    fn class_weighted_uses_breakdown_when_present() {
        let m = metrics_with(5.0, 3.5, 0.8);
        let mut b = ClassBreakdown::default();
        b.capacity.avg_turnaround_h = 2.0;
        b.capability.avg_turnaround_h = 10.0;
        let r = RewardSpec::class_weighted(1.0, 3.0);
        assert_eq!(r.score(&m, Some(&b)), -(2.0 + 30.0));
    }

    /// Regression: a zero-capability run carries `classes: None`; the
    /// class-weighted fold must fall back to the population-wide
    /// turnaround instead of unwrapping (and must stay finite).
    #[test]
    fn class_weighted_survives_absent_breakdown() {
        let m = metrics_with(5.0, 3.5, 0.8);
        let r = RewardSpec::class_weighted(2.0, 3.0);
        let score = r.score(&m, None);
        assert_eq!(score, -10.0);
        assert!(score.is_finite());
    }

    #[test]
    fn empty_run_scores_are_finite() {
        let m = Metrics::default();
        for spec in [
            RewardSpec::neg_bounded_slowdown(),
            RewardSpec::utilization(),
            RewardSpec::class_weighted(1.0, 3.0),
            RewardSpec::blend(1.0, 1.0),
        ] {
            assert!(spec.score(&m, None).is_finite(), "{}", spec.describe());
        }
    }

    #[test]
    fn describe_is_stable() {
        assert_eq!(
            RewardSpec::neg_bounded_slowdown().describe(),
            "neg-bounded-slowdown"
        );
        assert_eq!(
            RewardSpec::class_weighted(1.0, 2.5).describe(),
            "class-weighted(capacity=1.0,capability=2.5)"
        );
        assert_eq!(
            RewardSpec::blend(0.5, 2.0).describe(),
            "blend(slowdown=0.5,utilization=2.0)"
        );
    }
}
