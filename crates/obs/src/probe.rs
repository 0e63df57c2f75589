//! The per-run probe: one open and one close per instrumented stage.
//!
//! A [`Probe`] owns everything one translation run records into — a private
//! [`MetricsRegistry`], an event recorder when the run has an [`EventSink`],
//! and the request's [`TraceRecorder`] when it is traced — so a stage is
//! instrumented by one call that opens it and one that closes it:
//!
//! ```
//! use obs::{Clock, EventValue, Probe, Stage};
//!
//! let probe = Probe::new(Clock::Virtual, 0, None, None, None);
//! let stage = probe.stage(Stage::SchemaPruning);
//! stage.finish_with(18, "pruned", &[("cols", EventValue::U64(18))]);
//! assert_eq!(probe.publish().stage(Stage::SchemaPruning).latency.sum, 18);
//! ```
//!
//! Closing a stage writes all three views at once: the registry observes the
//! stage (declared work under [`Clock::Virtual`], elapsed nanoseconds under
//! [`Clock::Wall`]), the trace span closes with the same declared work, and
//! `finish_with` emits the stage's event. Each view keeps its own determinism
//! rules (DESIGN.md §8, §9, §14); the probe only decides when they are written.

use crate::events::EventRecorder;
use crate::{
    Clock, EventSink, EventValue, MetricsRegistry, SpanToken, Stage, StageMetrics, TraceRecorder,
};
use std::time::Instant;

/// Everything one run records into; see the module docs.
#[derive(Debug)]
pub struct Probe<'a> {
    metrics: MetricsRegistry,
    shared: Option<&'a MetricsRegistry>,
    events: Option<(&'a EventSink, EventRecorder)>,
    tracer: Option<&'a TraceRecorder>,
}

impl<'a> Probe<'a> {
    /// A probe for the example at `example_idx`: a private registry on
    /// `clock` (absorbed into `shared` by [`Probe::publish`]), a recorder
    /// capped by `events`' policy (published there too), and spans recorded
    /// into `tracer`.
    pub fn new(
        clock: Clock,
        example_idx: usize,
        shared: Option<&'a MetricsRegistry>,
        events: Option<&'a EventSink>,
        tracer: Option<&'a TraceRecorder>,
    ) -> Self {
        Probe {
            metrics: MetricsRegistry::new(clock),
            shared,
            events: events.map(|sink| (sink, sink.recorder(example_idx))),
            tracer,
        }
    }

    /// A probe with no shared registry, sink or tracer, for callers that
    /// only want the work done: what it records is dropped with it unless
    /// they publish it.
    pub fn detached() -> Probe<'static> {
        Probe::new(Clock::Virtual, 0, None, None, None)
    }

    /// The run's private registry, for counters, gauges and fixer tallies.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The request's span recorder, if the run is traced (bind it to the
    /// execution session so statement leaves nest under the open stage).
    pub fn tracer(&self) -> Option<&'a TraceRecorder> {
        self.tracer
    }

    /// Open a stage: its trace span starts now, and under [`Clock::Wall`]
    /// so does its registry timing.
    pub fn stage(&self, stage: Stage) -> StageScope<'_> {
        StageScope {
            probe: self,
            stage,
            start: (self.metrics.clock() == Clock::Wall).then(Instant::now),
            token: self.tracer.map(|t| t.start(stage.name())),
        }
    }

    /// Emit one event for `stage` outside a stage close (adaption reports
    /// one per repaired sample). A no-op without an event sink.
    pub fn emit(&self, stage: Stage, kind: &'static str, fields: &[(&'static str, EventValue)]) {
        if let Some((_, rec)) = &self.events {
            rec.emit(stage.name(), kind, fields);
        }
    }

    /// Close the run: absorb the registry snapshot into the shared registry
    /// (when given) in one step, publish the events as one batch, and return
    /// the snapshot. The tracer stays with its owner, who publishes the tree.
    pub fn publish(self) -> StageMetrics {
        let metrics = self.metrics.snapshot();
        if let Some(shared) = self.shared {
            shared.absorb(&metrics);
        }
        if let Some((sink, rec)) = self.events {
            sink.publish(rec);
        }
        metrics
    }
}

/// One open stage of a [`Probe`], closed by [`StageScope::finish`] or
/// [`StageScope::finish_with`].
#[must_use = "a stage records nothing until it is finished"]
#[derive(Debug)]
pub struct StageScope<'p> {
    probe: &'p Probe<'p>,
    stage: Stage,
    start: Option<Instant>,
    token: Option<SpanToken>,
}

impl StageScope<'_> {
    /// Close the stage, declaring `work` virtual units: the registry
    /// observes it (or the elapsed nanoseconds under [`Clock::Wall`]) and
    /// the trace span closes with it.
    pub fn finish(self, work: u64) {
        let value = self.start.map_or(work, |start| start.elapsed().as_nanos() as u64);
        self.probe.metrics.observe(self.stage, value);
        if let (Some(tracer), Some(token)) = (self.probe.tracer, self.token) {
            tracer.finish(token, work);
        }
    }

    /// [`StageScope::finish`], then emit the stage's event.
    pub fn finish_with(self, work: u64, kind: &'static str, fields: &[(&'static str, EventValue)]) {
        let (probe, stage) = (self.probe, self.stage);
        self.finish(work);
        probe.emit(stage, kind, fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_stages_record_declared_work_in_every_view() {
        let shared = MetricsRegistry::new(Clock::Virtual);
        let sink = EventSink::bounded(4, 8);
        let tracer = TraceRecorder::new(3);
        let probe = Probe::new(Clock::Virtual, 3, Some(&shared), Some(&sink), Some(&tracer));
        probe.stage(Stage::SchemaPruning).finish_with(42, "pruned", &[]);
        let adapt = probe.stage(Stage::Adaption);
        tracer.leaf(crate::trace::EXEC_SPAN, 5);
        probe.emit(Stage::Adaption, "repair", &[("sample", EventValue::U64(0))]);
        adapt.finish(8);
        let snap = probe.publish();

        assert_eq!(shared.snapshot(), snap);
        assert_eq!(snap.stage(Stage::SchemaPruning).calls, 1);
        assert_eq!(snap.stage(Stage::SchemaPruning).latency.sum, 42);
        assert_eq!(snap.stage(Stage::Adaption).latency.sum, 8);
        let kinds: Vec<_> = sink.drain().events.iter().map(|e| (e.stage, e.kind)).collect();
        assert_eq!(kinds, [("schema-pruning", "pruned"), ("adaption", "repair")]);
        let (_, spans, _) = tracer.into_spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.virt())).collect();
        assert_eq!(names[1..], [("schema-pruning", 42), ("adaption", 13), ("exec", 5)]);
    }

    #[test]
    fn wall_stages_record_elapsed_nanos() {
        let probe = Probe::new(Clock::Wall, 0, None, None, None);
        let stage = probe.stage(Stage::LlmCall);
        std::thread::sleep(std::time::Duration::from_millis(1));
        stage.finish(7); // the declared work is ignored under Wall
        let snap = probe.metrics().snapshot();
        assert_eq!(snap.stage(Stage::LlmCall).calls, 1);
        assert!(snap.stage(Stage::LlmCall).latency.sum >= 1_000_000);
    }
}
