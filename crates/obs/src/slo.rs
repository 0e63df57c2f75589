//! Declarative service-level objectives over windowed telemetry
//! (DESIGN.md §16).
//!
//! An [`SloSpec`] names one objective: "p(observed value ≤ `target`) stays
//! above `1 - budget` over the window". An [`SloTracker`] pairs the spec with
//! a [`SlidingWindow`] of pass/fail observations and reduces it to a burn
//! rate — violation fraction divided by the error budget — and a three-state
//! [`SloVerdict`]:
//!
//! * **Healthy** — burn ≤ 1: the window spends its budget no faster than
//!   allotted.
//! * **Degraded** — 1 < burn < breach multiplier: overspending; a sustained
//!   run at this rate will exhaust the budget.
//! * **Breached** — burn ≥ breach multiplier (default 4×): the objective is
//!   being missed outright.
//!
//! Latency objectives observe each completion's stage latency against the
//! target; admission objectives (shed/reject tracking) observe 1 per shed and
//! 0 per accept against a target of 0, so any shedding burns budget. Like the
//! windows underneath, trackers are clock-agnostic: verdicts computed at
//! virtual positions inherit the determinism contract.

use crate::window::SlidingWindow;

/// Burn-rate multiple at which `Degraded` escalates to `Breached`.
pub const BREACH_BURN: f64 = 4.0;

/// Three-state health verdict for one objective (or a whole service).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloVerdict {
    /// Burn ≤ 1: budget spent no faster than allotted.
    Healthy,
    /// 1 < burn < breach multiplier: overspending the budget.
    Degraded,
    /// Burn ≥ breach multiplier: the objective is being missed outright.
    Breached,
}

impl SloVerdict {
    /// Every verdict, best to worst.
    pub const ALL: [SloVerdict; 3] =
        [SloVerdict::Healthy, SloVerdict::Degraded, SloVerdict::Breached];

    /// Stable lowercase name used in wire JSON and timeline files.
    pub fn name(&self) -> &'static str {
        match self {
            SloVerdict::Healthy => "healthy",
            SloVerdict::Degraded => "degraded",
            SloVerdict::Breached => "breached",
        }
    }

    /// Inverse of [`SloVerdict::name`].
    pub fn from_name(name: &str) -> Option<SloVerdict> {
        SloVerdict::ALL.into_iter().find(|v| v.name() == name)
    }

    /// The worse of two verdicts — service health is the max over objectives.
    pub fn worst(self, other: SloVerdict) -> SloVerdict {
        self.max(other)
    }
}

/// One declarative objective.
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// Short stable identifier ("translate_latency", "admission", ...).
    pub name: String,
    /// Per-observation threshold; values strictly above it are violations.
    pub target: u64,
    /// Tolerated violation fraction over the window (0 < budget ≤ 1).
    pub budget: f64,
}

impl SloSpec {
    /// An objective named `name`: values above `target` may make up at most
    /// the `budget` fraction of the window (budget is clamped into (0, 1]).
    pub fn new(name: impl Into<String>, target: u64, budget: f64) -> SloSpec {
        SloSpec { name: name.into(), target, budget: budget.clamp(f64::MIN_POSITIVE, 1.0) }
    }
}

/// Point-in-time report for one tracked objective.
#[derive(Debug, Clone)]
pub struct SloStatus {
    /// The spec's stable identifier.
    pub name: String,
    /// The spec's per-observation threshold.
    pub target: u64,
    /// The spec's tolerated violation fraction.
    pub budget: f64,
    /// Observations inside the window.
    pub observed: u64,
    /// Window observations above target.
    pub violations: u64,
    /// `violation fraction / budget`; 0 when the window is empty.
    pub burn_rate: f64,
    /// The three-state reduction of the burn rate.
    pub verdict: SloVerdict,
}

/// Spec + violation window + burn-rate reduction.
#[derive(Debug, Clone)]
pub struct SloTracker {
    spec: SloSpec,
    /// Each observation is recorded as 1 (violation) or 0 (within target).
    window: SlidingWindow,
    /// All-time count of transitions into a non-Healthy verdict ("overload
    /// episodes" in the soak summary).
    episodes: u64,
    last_verdict: SloVerdict,
}

impl SloTracker {
    /// Track `spec` over a window of `buckets` × `bucket_width` clock units.
    pub fn new(spec: SloSpec, bucket_width: u64, buckets: usize) -> SloTracker {
        SloTracker {
            spec,
            window: SlidingWindow::with_buckets(bucket_width, buckets),
            episodes: 0,
            last_verdict: SloVerdict::Healthy,
        }
    }

    /// The objective being tracked.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// Record one observation at clock position `at`; `value` is compared
    /// against the spec target.
    pub fn observe(&mut self, at: u64, value: u64) {
        self.window.observe(at, u64::from(value > self.spec.target));
    }

    /// All-time transitions into Degraded/Breached, as of the last
    /// [`SloTracker::status`] call.
    pub fn episodes(&self) -> u64 {
        self.episodes
    }

    /// Reduce the window as of clock position `now`.
    pub fn status(&mut self, now: u64) -> SloStatus {
        let stats = self.window.snapshot(now);
        let burn_rate = if stats.count == 0 {
            0.0
        } else {
            (stats.sum as f64 / stats.count as f64) / self.spec.budget
        };
        let verdict = if burn_rate >= BREACH_BURN {
            SloVerdict::Breached
        } else if burn_rate > 1.0 {
            SloVerdict::Degraded
        } else {
            SloVerdict::Healthy
        };
        if verdict > SloVerdict::Healthy && self.last_verdict == SloVerdict::Healthy {
            self.episodes += 1;
        }
        self.last_verdict = verdict;
        SloStatus {
            name: self.spec.name.clone(),
            target: self.spec.target,
            budget: self.spec.budget,
            observed: stats.count,
            violations: stats.sum,
            burn_rate,
            verdict,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(target: u64, budget: f64) -> SloTracker {
        SloTracker::new(SloSpec::new("t", target, budget), 100, 4)
    }

    #[test]
    fn verdict_names_round_trip() {
        for v in SloVerdict::ALL {
            assert_eq!(SloVerdict::from_name(v.name()), Some(v));
        }
        assert_eq!(SloVerdict::from_name("nope"), None);
    }

    #[test]
    fn empty_window_is_healthy() {
        let mut t = tracker(10, 0.1);
        let s = t.status(0);
        assert_eq!(s.verdict, SloVerdict::Healthy);
        assert_eq!(s.burn_rate, 0.0);
    }

    #[test]
    fn burn_rate_partitions_the_three_states() {
        // Budget 10%: 1 violation in 10 → burn 1.0 (healthy, at the line).
        let mut t = tracker(10, 0.1);
        for i in 0..10u64 {
            t.observe(i, if i == 0 { 99 } else { 1 });
        }
        let s = t.status(9);
        assert_eq!(s.burn_rate, 1.0);
        assert_eq!(s.verdict, SloVerdict::Healthy);

        // 2 in 10 → burn 2.0 → degraded.
        let mut t = tracker(10, 0.1);
        for i in 0..10u64 {
            t.observe(i, if i < 2 { 99 } else { 1 });
        }
        let s = t.status(9);
        assert_eq!(s.burn_rate, 2.0);
        assert_eq!(s.verdict, SloVerdict::Degraded);

        // 5 in 10 → burn 5.0 ≥ 4 → breached.
        let mut t = tracker(10, 0.1);
        for i in 0..10u64 {
            t.observe(i, if i < 5 { 99 } else { 1 });
        }
        let s = t.status(9);
        assert_eq!(s.verdict, SloVerdict::Breached);
        assert_eq!(s.violations, 5);
        assert_eq!(s.observed, 10);
    }

    #[test]
    fn admission_slo_sheds_burn_budget() {
        // Target 0 with a small budget: shed = observe 1, admit = observe 0.
        let mut t = tracker(0, 0.05);
        for i in 0..20u64 {
            t.observe(i, u64::from(i % 10 == 0)); // 2 sheds in 20
        }
        let s = t.status(19);
        assert_eq!(s.violations, 2);
        assert_eq!(s.burn_rate, 2.0);
        assert_eq!(s.verdict, SloVerdict::Degraded);
    }

    #[test]
    fn recovery_returns_to_healthy_and_counts_one_episode() {
        let mut t = tracker(10, 0.1); // window span 400
        for i in 0..10u64 {
            t.observe(i, 99);
        }
        assert_eq!(t.status(9).verdict, SloVerdict::Breached);
        assert_eq!(t.episodes(), 1);
        // Stay bad a while longer — same episode, no new transition.
        for i in 10..20u64 {
            t.observe(i, 99);
        }
        assert!(t.status(19).verdict > SloVerdict::Healthy);
        assert_eq!(t.episodes(), 1);
        // Clean traffic after the bad buckets rotate out.
        for i in 500..600u64 {
            t.observe(i, 1);
        }
        assert_eq!(t.status(599).verdict, SloVerdict::Healthy);
        assert_eq!(t.episodes(), 1);
        // A second incident is a second episode.
        for i in 600..700u64 {
            t.observe(i, 99);
        }
        assert_eq!(t.status(699).verdict, SloVerdict::Breached);
        assert_eq!(t.episodes(), 2);
    }

    #[test]
    fn worst_is_max() {
        use SloVerdict::*;
        assert_eq!(Healthy.worst(Degraded), Degraded);
        assert_eq!(Breached.worst(Degraded), Breached);
        assert_eq!(Healthy.worst(Healthy), Healthy);
    }
}
