//! The thread-safe metrics registry (stages record into it through a
//! [`crate::Probe`]).

use crate::{Counter, Fixer, Gauge, Stage, StageMetrics};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// How stage durations are measured.
///
/// The default, [`Clock::Virtual`], records the deterministic *work units*
/// declared by the instrumented code (column counts, token counts, sample
/// counts), so aggregated metrics are byte-identical across thread counts and
/// machines. [`Clock::Wall`] records real monotonic nanoseconds for profiling,
/// at the cost of byte-stability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Clock {
    /// Deterministic work units declared via [`StageScope::finish`](crate::StageScope::finish).
    #[default]
    Virtual,
    /// Real elapsed monotonic nanoseconds.
    Wall,
}

impl Clock {
    /// Stable name used in JSON.
    pub fn name(self) -> &'static str {
        match self {
            Clock::Virtual => "virtual",
            Clock::Wall => "wall",
        }
    }

    /// Parse a [`Clock::name`] back.
    pub fn from_name(name: &str) -> Option<Clock> {
        match name {
            "virtual" => Some(Clock::Virtual),
            "wall" => Some(Clock::Wall),
            _ => None,
        }
    }
}

/// A `Sync`, allocation-light metrics registry.
///
/// All state lives in fixed-size arrays behind a single mutex,
/// so the record path never allocates and [`MetricsRegistry::reset`] /
/// [`MetricsRegistry::snapshot`] are atomic with respect to concurrent
/// recording: an observer sees either all of a recorded event or none of it,
/// never a torn half (the convention `CostLedger` in `purple-llm` also
/// follows).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    clock: Clock,
    inner: Mutex<StageMetrics>,
}

impl MetricsRegistry {
    /// A registry using the given clock.
    pub fn new(clock: Clock) -> Self {
        MetricsRegistry { clock, inner: Mutex::new(StageMetrics::empty(clock)) }
    }

    /// A shareable registry (the shape `with_metrics` builders take).
    pub fn shared(clock: Clock) -> Arc<Self> {
        Arc::new(Self::new(clock))
    }

    /// The clock this registry measures stages with.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Record one latency observation for a stage.
    pub fn observe(&self, stage: Stage, value: u64) {
        lock(&self.inner).observe(stage, value);
    }

    /// Add to a counter.
    pub fn count(&self, counter: Counter, by: u64) {
        lock(&self.inner).count(counter, by);
    }

    /// Set a gauge to its latest value.
    pub fn set_gauge(&self, gauge: Gauge, value: u64) {
        lock(&self.inner).set_gauge(gauge, value);
    }

    /// Raise a gauge to at least `value` (high-watermark semantics).
    pub fn raise_gauge(&self, gauge: Gauge, value: u64) {
        lock(&self.inner).raise_gauge(gauge, value);
    }

    /// Record one fixer application (`success` = the sample it repaired ended
    /// up executable).
    pub fn record_fix(&self, fixer: Fixer, success: bool) {
        lock(&self.inner).record_fix(fixer, success);
    }

    /// Fold a finished snapshot into this registry in one critical section —
    /// this is how per-run registries publish into a shared one without
    /// interleaving with other runs' events.
    pub fn absorb(&self, snapshot: &StageMetrics) {
        lock(&self.inner).merge(snapshot);
    }

    /// Copy out the current totals.
    pub fn snapshot(&self) -> StageMetrics {
        *lock(&self.inner)
    }

    /// Zero every metric, atomically with respect to concurrent recording.
    pub fn reset(&self) {
        *lock(&self.inner) = StageMetrics::empty(self.clock);
    }

    /// Atomically copy out the current totals and zero the registry, so no
    /// event recorded between the two steps can be lost or double-counted.
    pub fn drain(&self) -> StageMetrics {
        let mut guard = lock(&self.inner);
        std::mem::replace(&mut *guard, StageMetrics::empty(self.clock))
    }
}

/// Lock `m`, ignoring poisoning: every critical section in this crate leaves
/// the data valid at every step, so a lock poisoned by a panicking thread still
/// guards valid data, and later callers keep working.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn drain_is_atomic_and_preserves_total_under_contention() {
        // N writers hammer one counter while a reaper drains repeatedly; the
        // reaped snapshots plus the final residue must sum to exactly the
        // number of events — no loss, no double count.
        const WRITERS: usize = 4;
        const EVENTS: u64 = 5_000;
        let reg = MetricsRegistry::shared(Clock::Virtual);
        let stop = AtomicBool::new(false);
        let mut reaped = 0u64;
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|_| {
                    let reg = Arc::clone(&reg);
                    scope.spawn(move || {
                        for _ in 0..EVENTS {
                            reg.count(Counter::Samples, 1);
                        }
                    })
                })
                .collect();
            let reaper = scope.spawn(|| {
                let mut total = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    total += reg.drain().counter(Counter::Samples);
                }
                total
            });
            for w in writers {
                w.join().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
            reaped = reaper.join().unwrap();
        });
        let residue = reg.snapshot().counter(Counter::Samples);
        assert_eq!(reaped + residue, WRITERS as u64 * EVENTS);
    }

    #[test]
    fn reset_and_record_do_not_tear() {
        // Concurrent record + reset: after everything joins, a final drain
        // must observe internally consistent state (count == bucket sum).
        let reg = MetricsRegistry::shared(Clock::Virtual);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let reg = Arc::clone(&reg);
                scope.spawn(move || {
                    for i in 0..2_000u64 {
                        reg.observe(Stage::Adaption, t * 1000 + i);
                        if i % 97 == 0 {
                            reg.reset();
                        }
                    }
                });
            }
        });
        let snap = reg.snapshot();
        let h = &snap.stage(Stage::Adaption).latency;
        assert_eq!(h.count, h.buckets.iter().sum::<u64>());
        assert_eq!(snap.stage(Stage::Adaption).calls, h.count);
    }

    #[test]
    fn absorb_matches_elementwise_merge() {
        let local = MetricsRegistry::new(Clock::Virtual);
        local.count(Counter::LlmCalls, 3);
        local.record_fix(Fixer::SchemaHallucination, false);
        local.set_gauge(Gauge::PoolSize, 190);
        let snap = local.snapshot();

        let shared = MetricsRegistry::new(Clock::Virtual);
        shared.absorb(&snap);
        shared.absorb(&snap);
        let agg = shared.snapshot();
        assert_eq!(agg.counter(Counter::LlmCalls), 6);
        assert_eq!(agg.fixer(Fixer::SchemaHallucination).hits, 2);
        assert_eq!(agg.gauge(Gauge::PoolSize), Some(190));
    }
}
