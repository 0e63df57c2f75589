//! Plain-data metrics snapshots: what a [`crate::MetricsRegistry`] accumulates,
//! what one pipeline run returns, and what the evaluation harness folds — in
//! example order — into a split-level aggregate.

use crate::{Clock, Counter, Fixer, Gauge, Stage};

/// Number of histogram buckets. Bucket `i < NUM_BUCKETS - 1` counts values
/// `v <= 4^i`; the last bucket catches everything larger (~2.7e11, i.e. ≈275 s
/// when values are wall nanoseconds).
pub const NUM_BUCKETS: usize = 20;

/// A fixed-bucket histogram with power-of-four bounds plus exact sum/count/max.
///
/// The bounds cover both wall nanoseconds (1 ns .. ~275 s) and virtual work
/// units (single-digit items .. millions of tokens) without configuration, and
/// the fixed layout makes merging a branch-free element-wise add.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    /// Observation count per bucket.
    pub buckets: [u64; NUM_BUCKETS],
    /// Total observations (= sum of `buckets`).
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; NUM_BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl Histogram {
    /// Upper bound (inclusive) of bucket `i`; the last bucket is unbounded.
    pub fn bound(i: usize) -> u64 {
        debug_assert!(i < NUM_BUCKETS);
        if i >= NUM_BUCKETS - 1 {
            u64::MAX
        } else {
            4u64.saturating_pow(i as u32)
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        let idx =
            (0..NUM_BUCKETS - 1).find(|&i| value <= Self::bound(i)).unwrap_or(NUM_BUCKETS - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Element-wise merge (bucket/count/sum add, max of max) — associative and
    /// commutative, so any fold order yields the same histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Per-stage call count and latency histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Times the stage ran.
    pub calls: u64,
    /// Span durations: wall nanoseconds under [`Clock::Wall`], work units under
    /// [`Clock::Virtual`].
    pub latency: Histogram,
}

impl StageStats {
    fn merge(&mut self, other: &StageStats) {
        self.calls += other.calls;
        self.latency.merge(&other.latency);
    }
}

/// Hit/success counters for one adaption fixer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FixerStats {
    /// Applications of the fixer inside the repair loop.
    pub hits: u64,
    /// Hits belonging to a sample that ended up executable.
    pub successes: u64,
}

/// The fixed counter block (see [`Counter`] for the slot meanings).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterBlock(pub [u64; Counter::COUNT]);

impl CounterBlock {
    /// Read one counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.0[c.index()]
    }
}

/// A gauge slot: unset until first written, then the last written value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeSlot {
    /// Whether the gauge was ever set.
    pub set: bool,
    /// Last written value (0 while unset).
    pub value: u64,
}

/// A complete metrics snapshot: everything one pipeline run (or one aggregated
/// split evaluation) observed.
///
/// Snapshots merge with [`StageMetrics::merge`]; the evaluation harness folds
/// per-example snapshots **in example order** (exactly like scores), so the
/// aggregate is identical for any worker count. Under [`Clock::Virtual`] the
/// aggregate is further byte-identical across runs; under [`Clock::Wall`] the
/// latency histograms carry real (run-dependent) timings while every counter,
/// gauge, and fixer stat stays deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageMetrics {
    /// Which clock produced the latency values.
    pub clock: Clock,
    /// Per-stage stats, indexed by [`Stage::index`].
    pub stages: [StageStats; Stage::COUNT],
    /// Per-fixer hit/success counters, indexed by [`Fixer::index`].
    pub fixers: [FixerStats; Fixer::COUNT],
    /// Event/total counters.
    pub counters: CounterBlock,
    /// Last-value gauges, indexed by [`Gauge::index`].
    pub gauges: [GaugeSlot; Gauge::COUNT],
}

impl Default for StageMetrics {
    fn default() -> Self {
        StageMetrics {
            clock: Clock::Virtual,
            stages: [StageStats::default(); Stage::COUNT],
            fixers: [FixerStats::default(); Fixer::COUNT],
            counters: CounterBlock::default(),
            gauges: [GaugeSlot::default(); Gauge::COUNT],
        }
    }
}

impl StageMetrics {
    /// An empty snapshot for a given clock.
    pub fn empty(clock: Clock) -> Self {
        StageMetrics { clock, ..StageMetrics::default() }
    }

    /// Stats for one stage.
    pub fn stage(&self, s: Stage) -> &StageStats {
        &self.stages[s.index()]
    }

    /// Stats for one fixer.
    pub fn fixer(&self, f: Fixer) -> &FixerStats {
        &self.fixers[f.index()]
    }

    /// Read one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c)
    }

    /// Read one gauge (`None` while unset).
    pub fn gauge(&self, g: Gauge) -> Option<u64> {
        let slot = self.gauges[g.index()];
        slot.set.then_some(slot.value)
    }

    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.stages.iter().all(|s| s.calls == 0 && s.latency.count == 0)
            && self.counters.0.iter().all(|&c| c == 0)
            && self.fixers.iter().all(|f| f.hits == 0)
            && self.gauges.iter().all(|g| !g.set)
    }

    /// Record one latency observation for a stage (and count the call).
    pub fn observe(&mut self, stage: Stage, value: u64) {
        let s = &mut self.stages[stage.index()];
        s.calls += 1;
        s.latency.observe(value);
    }

    /// Add to a counter.
    pub fn count(&mut self, c: Counter, by: u64) {
        self.counters.0[c.index()] += by;
    }

    /// Set a gauge.
    pub fn set_gauge(&mut self, g: Gauge, value: u64) {
        self.gauges[g.index()] = GaugeSlot { set: true, value };
    }

    /// Raise a gauge to at least `value` (high-watermark semantics: the slot
    /// only ever moves up).
    pub fn raise_gauge(&mut self, g: Gauge, value: u64) {
        let slot = &mut self.gauges[g.index()];
        slot.value = if slot.set { slot.value.max(value) } else { value };
        slot.set = true;
    }

    /// Total virtual work recorded across the [`Stage::REPORT`] stages — the
    /// per-request cost under [`Clock::Virtual`]. Deterministic for a given
    /// example regardless of caching or scheduling *of other requests*, which
    /// is what the soak timeline's offered-load cost table relies on.
    pub fn report_work(&self) -> u64 {
        Stage::REPORT.iter().map(|s| self.stage(*s).latency.sum).fold(0, u64::saturating_add)
    }

    /// Record one fixer application.
    pub fn record_fix(&mut self, f: Fixer, success: bool) {
        let stats = &mut self.fixers[f.index()];
        stats.hits += 1;
        stats.successes += u64::from(success);
    }

    /// Fold another snapshot into this one. Counters, fixer stats, and
    /// histograms add; gauges take `other`'s value when set (in-example-order
    /// folding makes that "the last example's value"); the clock label follows
    /// the most recent non-empty contribution.
    pub fn merge(&mut self, other: &StageMetrics) {
        if !other.is_empty() {
            self.clock = other.clock;
        }
        for (a, b) in self.stages.iter_mut().zip(&other.stages) {
            a.merge(b);
        }
        for (a, b) in self.fixers.iter_mut().zip(&other.fixers) {
            a.hits += b.hits;
            a.successes += b.successes;
        }
        for (a, b) in self.counters.0.iter_mut().zip(&other.counters.0) {
            *a += b;
        }
        for (a, b) in self.gauges.iter_mut().zip(&other.gauges) {
            if b.set {
                *a = *b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_values_by_power_of_four() {
        let mut h = Histogram::default();
        h.observe(1); // bucket 0 (<= 1)
        h.observe(4); // bucket 1 (<= 4)
        h.observe(5); // bucket 2 (<= 16)
        h.observe(u64::MAX); // overflow bucket
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[NUM_BUCKETS - 1], 1);
        assert_eq!(h.count, 4);
        assert_eq!(h.max, u64::MAX);
    }

    #[test]
    fn merge_is_order_independent_for_counts_and_histograms() {
        let mut a = StageMetrics::default();
        a.observe(Stage::LlmCall, 100);
        a.count(Counter::PromptTokens, 10);
        a.record_fix(Fixer::MissingTable, true);
        let mut b = StageMetrics::default();
        b.observe(Stage::LlmCall, 7);
        b.count(Counter::PromptTokens, 3);

        let mut ab = StageMetrics::default();
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = StageMetrics::default();
        ba.merge(&b);
        ba.merge(&a);
        // Gauges are unset here, so even reversed order agrees.
        assert_eq!(ab, ba);
        assert_eq!(ab.counter(Counter::PromptTokens), 13);
        assert_eq!(ab.stage(Stage::LlmCall).calls, 2);
        assert_eq!(ab.fixer(Fixer::MissingTable).hits, 1);
    }

    #[test]
    fn gauges_take_the_last_set_value() {
        let mut first = StageMetrics::default();
        first.set_gauge(Gauge::DemosInPrompt, 9);
        let second = StageMetrics::default(); // never set
        let mut agg = StageMetrics::default();
        agg.merge(&first);
        agg.merge(&second);
        assert_eq!(agg.gauge(Gauge::DemosInPrompt), Some(9), "unset rhs must not clear");
        let mut third = StageMetrics::default();
        third.set_gauge(Gauge::DemosInPrompt, 4);
        agg.merge(&third);
        assert_eq!(agg.gauge(Gauge::DemosInPrompt), Some(4));
        assert_eq!(agg.gauge(Gauge::PoolSize), None);
    }

    /// Exhaustive `from_name` ↔ `name` ↔ `index` contract over every metric
    /// enum: each variant round-trips, `ALL` has exactly `COUNT` distinct
    /// entries whose positions match `index()`, names are unique, and unknown
    /// names parse to `None`.
    #[test]
    fn name_round_trips_exhaustively() {
        fn check<T: Copy + PartialEq + std::fmt::Debug>(
            all: &[T],
            count: usize,
            name: impl Fn(T) -> &'static str,
            index: impl Fn(T) -> usize,
            from_name: impl Fn(&str) -> Option<T>,
        ) {
            assert_eq!(all.len(), count, "ALL length disagrees with COUNT");
            let mut seen = std::collections::BTreeSet::new();
            for (pos, &v) in all.iter().enumerate() {
                assert_eq!(index(v), pos, "index() disagrees with ALL position for {v:?}");
                assert!(seen.insert(name(v)), "duplicate name `{}`", name(v));
                assert_eq!(from_name(name(v)), Some(v), "round trip for {v:?}");
            }
            assert_eq!(from_name("no-such-metric"), None);
            assert_eq!(from_name(""), None);
        }
        check(&Stage::ALL, Stage::COUNT, Stage::name, Stage::index, Stage::from_name);
        check(&Fixer::ALL, Fixer::COUNT, Fixer::name, Fixer::index, Fixer::from_name);
        check(&Counter::ALL, Counter::COUNT, Counter::name, Counter::index, Counter::from_name);
        check(&Gauge::ALL, Gauge::COUNT, Gauge::name, Gauge::index, Gauge::from_name);
        // The REPORT subsets (what deterministic report JSON renders) must be
        // exactly the pre-write-path prefix of ALL: the write-execution
        // variants are additive and stay out of the report surface.
        assert_eq!(&Stage::ALL[..Stage::REPORT.len()], &Stage::REPORT[..]);
        assert!(!Stage::REPORT.contains(&Stage::WriteExec));
        assert_eq!(&Counter::ALL[..Counter::REPORT.len()], &Counter::REPORT[..]);
        for c in [
            Counter::RowsInserted,
            Counter::RowsUpdated,
            Counter::RowsDeleted,
            Counter::ConflictHits,
            Counter::RequestsShed,
        ] {
            assert!(!Counter::REPORT.contains(&c), "{c:?} must stay out of report JSON");
        }
        assert_eq!(&Gauge::ALL[..Gauge::REPORT.len()], &Gauge::REPORT[..]);
        for g in [Gauge::QueueDepthHwm, Gauge::InFlightHwm] {
            assert!(!Gauge::REPORT.contains(&g), "{g:?} must stay out of report JSON");
        }
        // The clock label round-trips too (it is serialized into metrics JSON).
        for clock in [Clock::Virtual, Clock::Wall] {
            assert_eq!(Clock::from_name(clock.name()), Some(clock));
        }
        assert_eq!(Clock::from_name("sundial"), None);
    }
}
