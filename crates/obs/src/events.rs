//! Structured trace events: a thread-safe, bounded, allocation-light event log
//! for the pipeline (DESIGN.md §9).
//!
//! Every pipeline stage can emit [`Event`]s describing what it saw and decided
//! for one example. Events are recorded into a per-run recorder (lock-cheap,
//! capped per example; the run's [`crate::Probe`] owns it) and published
//! into a shared [`EventSink`] as one atomic batch per example —
//! next to the per-run [`crate::MetricsRegistry`] snapshot the probe absorbs
//! into a shared registry, so concurrent runs never interleave partial event
//! streams.
//!
//! # Determinism contract
//!
//! The sink's final contents are a pure function of the *set* of published
//! batches, never of their arrival order:
//!
//! - one batch per example, keyed by example index, capped at a fixed number of
//!   events ([`EventSink::per_example_cap`]) applied at record time;
//! - the sink keeps at most [`EventSink::max_examples`] batches; on overflow it
//!   evicts the batch with the **largest** example index, so the surviving set
//!   is always the smallest-indexed examples regardless of publish order;
//! - [`EventSink::drain`] flattens batches in ascending example order.
//!
//! Events carry no timestamps (the pipeline runs on [`crate::Clock::Virtual`]
//! work units), so the drained stream — and its [`to_jsonl`] rendering
//! through [`crate::json`] — is byte-identical for any worker count.

use crate::json::{join, quote};
use crate::registry::lock;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};

/// Default bound on distinct example batches a sink retains.
pub const DEFAULT_MAX_EXAMPLES: usize = 4096;

/// Default per-example event cap applied at record time.
pub const DEFAULT_EVENTS_PER_EXAMPLE: usize = 64;

/// A typed event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum EventValue {
    /// Unsigned integer (counts, token totals, indices).
    U64(u64),
    /// Floating-point (probabilities, qualities); serialized with `{:?}`
    /// (shortest round-trippable form) so output is byte-stable.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Short static label (fixer categories, support levels): events are
    /// diagnostics, not payload storage, and a label costs no allocation.
    Str(&'static str),
}

impl EventValue {
    fn write_json(&self, out: &mut String) -> std::fmt::Result {
        match self {
            EventValue::U64(v) => write!(out, "{v}"),
            EventValue::F64(v) => write!(out, "{v:?}"),
            EventValue::Bool(v) => write!(out, "{v}"),
            EventValue::Str(v) => write!(out, "{}", quote(v)),
        }
    }
}

/// One structured trace event: which example, which stage, what happened.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Position of the example within its split.
    pub example_idx: usize,
    /// Per-example sequence number, assigned at record time (emission order
    /// within one run is deterministic, so so is `seq`).
    pub seq: u32,
    /// Stage label (a [`crate::Stage::name`]).
    pub stage: &'static str,
    /// What happened ("pruned", "voted", "fix", ...).
    pub kind: &'static str,
    /// Typed payload fields, in emission order.
    pub fields: Vec<(&'static str, EventValue)>,
}

impl Event {
    /// Render as one JSON object (one JSONL line, without the trailing
    /// newline). Field order is fixed — `example`, `seq`, `stage`, `kind`,
    /// `fields` — so equal events always produce byte-identical text.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        write!(
            out,
            "{{\"example\":{},\"seq\":{},\"stage\":{},\"kind\":{},\"fields\":{{",
            self.example_idx,
            self.seq,
            quote(self.stage),
            quote(self.kind)
        )
        .unwrap();
        join(&mut out, &self.fields, |out, (key, value)| {
            write!(out, "{}:", quote(key))?;
            value.write_json(out)
        });
        out.push_str("}}");
        out
    }
}

/// Render a drained event slice as JSONL (one event per line, trailing
/// newline included when non-empty).
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for e in events {
        out.push_str(&e.to_json());
        out.push('\n');
    }
    out
}

#[derive(Debug, Default)]
struct RecorderState {
    events: Vec<Event>,
    dropped: u64,
}

/// Per-run event recorder for one example, owned by the run's
/// [`crate::Probe`].
///
/// Cheap to create per pipeline run; `emit` appends under a private mutex,
/// the per-example cap is enforced at record time, and
/// [`EventSink::publish`] consumes the recorder as one atomic batch.
#[derive(Debug)]
pub(crate) struct EventRecorder {
    example_idx: usize,
    cap: usize,
    inner: Mutex<RecorderState>,
}

impl EventRecorder {
    /// A recorder for the example at `example_idx`, keeping at most `cap`
    /// events (further emissions are counted as dropped).
    pub(crate) fn new(example_idx: usize, cap: usize) -> Self {
        EventRecorder { example_idx, cap, inner: Mutex::new(RecorderState::default()) }
    }

    /// Record one event. Fields are copied; events beyond the cap are counted
    /// but not stored.
    pub(crate) fn emit(
        &self,
        stage: &'static str,
        kind: &'static str,
        fields: &[(&'static str, EventValue)],
    ) {
        let mut state = lock(&self.inner);
        if state.events.len() >= self.cap {
            state.dropped += 1;
            return;
        }
        let seq = state.events.len() as u32;
        state.events.push(Event {
            example_idx: self.example_idx,
            seq,
            stage,
            kind,
            fields: fields.to_vec(),
        });
    }

    fn into_batch(self) -> (usize, Vec<Event>, u64) {
        let state = self.inner.into_inner().unwrap_or_else(PoisonError::into_inner);
        (self.example_idx, state.events, state.dropped)
    }
}

#[derive(Debug, Default)]
struct SinkState {
    batches: BTreeMap<usize, Vec<Event>>,
    dropped_batches: u64,
    dropped_events: u64,
}

/// What [`EventSink::drain`] returns: the retained events in ascending example
/// order plus the drop accounting (both deterministic for any publish order).
#[derive(Debug, Clone, PartialEq)]
pub struct DrainedEvents {
    /// Retained events, ordered by `(example_idx, seq)`.
    pub events: Vec<Event>,
    /// Whole example batches evicted by the [`EventSink::max_examples`] bound.
    pub dropped_batches: u64,
    /// Events dropped by the per-example cap, summed over every published
    /// batch (including later-evicted ones — the sum is order-independent).
    pub dropped_events: u64,
}

/// The shared, bounded event sink (see the module docs for the determinism
/// contract).
#[derive(Debug)]
pub struct EventSink {
    max_examples: usize,
    per_example_cap: usize,
    inner: Mutex<SinkState>,
}

impl Default for EventSink {
    fn default() -> Self {
        EventSink::bounded(DEFAULT_MAX_EXAMPLES, DEFAULT_EVENTS_PER_EXAMPLE)
    }
}

impl EventSink {
    /// A sink retaining at most `max_examples` example batches of at most
    /// `per_example_cap` events each (both clamped to at least 1).
    pub fn bounded(max_examples: usize, per_example_cap: usize) -> Self {
        EventSink {
            max_examples: max_examples.max(1),
            per_example_cap: per_example_cap.max(1),
            inner: Mutex::new(SinkState::default()),
        }
    }

    /// The bound on retained example batches.
    pub fn max_examples(&self) -> usize {
        self.max_examples
    }

    /// The per-example event cap each run's recorder enforces.
    pub fn per_example_cap(&self) -> usize {
        self.per_example_cap
    }

    /// A fresh recorder for one example, capped to this sink's policy.
    pub(crate) fn recorder(&self, example_idx: usize) -> EventRecorder {
        EventRecorder::new(example_idx, self.per_example_cap)
    }

    /// Publish a finished recorder as one atomic batch. A second publish for
    /// the same example appends (re-sequenced, still capped). When the batch
    /// bound overflows, the largest-indexed batch is evicted — possibly the
    /// incoming one — keeping the retained set order-independent.
    pub(crate) fn publish(&self, recorder: EventRecorder) {
        let (idx, events, rec_dropped) = recorder.into_batch();
        let mut state = lock(&self.inner);
        state.dropped_events += rec_dropped;
        let cap = self.per_example_cap;
        let mut capped = 0u64;
        let slot = state.batches.entry(idx).or_default();
        for mut e in events {
            if slot.len() >= cap {
                capped += 1;
                continue;
            }
            e.seq = slot.len() as u32;
            slot.push(e);
        }
        state.dropped_events += capped;
        while state.batches.len() > self.max_examples {
            let largest = *state.batches.keys().next_back().expect("non-empty over bound");
            state.batches.remove(&largest);
            state.dropped_batches += 1;
        }
    }

    /// Number of retained example batches.
    pub fn len(&self) -> usize {
        lock(&self.inner).batches.len()
    }

    /// Whether no batch is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current `(dropped batches, dropped events)` without draining — feeds
    /// the event-loss counters of the Prometheus exposition. Both reset to
    /// zero when [`EventSink::drain`] takes the accumulated state.
    pub fn loss(&self) -> (u64, u64) {
        let st = lock(&self.inner);
        (st.dropped_batches, st.dropped_events)
    }

    /// Atomically take everything: retained events flattened in ascending
    /// example order, plus drop accounting. Resets the sink.
    pub fn drain(&self) -> DrainedEvents {
        let state = std::mem::take(&mut *lock(&self.inner));
        DrainedEvents {
            events: state.batches.into_values().flatten().collect(),
            dropped_batches: state.dropped_batches,
            dropped_events: state.dropped_events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(sink: &EventSink, idx: usize, n: usize) {
        let rec = sink.recorder(idx);
        for i in 0..n {
            rec.emit("stage", "kind", &[("i", EventValue::U64(i as u64))]);
        }
        sink.publish(rec);
    }

    #[test]
    fn recorder_caps_and_counts_drops() {
        let rec = EventRecorder::new(3, 2);
        for _ in 0..5 {
            rec.emit("s", "k", &[]);
        }
        {
            // The recorder caps at record time, before the sink re-caps.
            let s = lock(&rec.inner);
            assert_eq!((s.events.len(), s.dropped), (2, 3));
        }
        let sink = EventSink::bounded(8, 2);
        sink.publish(rec);
        let d = sink.drain();
        assert_eq!(d.events.len(), 2);
        assert_eq!(d.dropped_events, 3);
        assert_eq!(d.events[0].seq, 0);
        assert_eq!(d.events[1].seq, 1);
    }

    #[test]
    fn drain_is_independent_of_publish_order() {
        // More batches than the bound, published in three different orders:
        // the retained set must always be the smallest example indices and the
        // rendered JSONL byte-identical.
        let orders: [&[usize]; 3] = [&[0, 1, 2, 3, 4], &[4, 3, 2, 1, 0], &[2, 4, 0, 3, 1]];
        let mut renders = Vec::new();
        for order in orders {
            let sink = EventSink::bounded(3, 4);
            for &idx in order {
                batch(&sink, idx, idx + 1);
            }
            let d = sink.drain();
            assert_eq!(d.dropped_batches, 2, "order {order:?}");
            let kept: Vec<usize> = d.events.iter().map(|e| e.example_idx).collect();
            assert!(kept.iter().all(|&i| i <= 2), "kept {kept:?} for order {order:?}");
            renders.push(to_jsonl(&d.events));
        }
        assert_eq!(renders[0], renders[1]);
        assert_eq!(renders[1], renders[2]);
    }

    #[test]
    fn republish_appends_with_resequencing() {
        let sink = EventSink::bounded(4, 3);
        batch(&sink, 7, 2);
        batch(&sink, 7, 2);
        let d = sink.drain();
        assert_eq!(d.events.len(), 3, "second batch re-capped");
        assert_eq!(d.dropped_events, 1);
        let seqs: Vec<u32> = d.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn jsonl_rendering_is_stable_and_escaped() {
        let mut e = Event {
            example_idx: 12,
            seq: 0,
            stage: "schema-pruning",
            kind: "pruned",
            fields: vec![
                ("quality", EventValue::F64(0.5)),
                ("covered", EventValue::Bool(true)),
                ("note", EventValue::Str("a\"b\\c\n")),
                ("cols", EventValue::U64(18)),
            ],
        };
        assert_eq!(
            e.to_json(),
            "{\"example\":12,\"seq\":0,\"stage\":\"schema-pruning\",\"kind\":\"pruned\",\
             \"fields\":{\"quality\":0.5,\"covered\":true,\"note\":\"a\\\"b\\\\c\\n\",\"cols\":18}}"
        );
        e.fields.clear();
        assert_eq!(to_jsonl(&[e.clone()]), format!("{}\n", e.to_json()));
        assert_eq!(to_jsonl(&[]), "");
    }

    #[test]
    fn concurrent_publishes_never_tear_batches() {
        let sink = std::sync::Arc::new(EventSink::bounded(64, 8));
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let sink = std::sync::Arc::clone(&sink);
                scope.spawn(move || {
                    for idx in (t * 8)..(t * 8 + 8) {
                        let rec = sink.recorder(idx);
                        for i in 0..4 {
                            rec.emit("s", "k", &[("i", EventValue::U64(i))]);
                        }
                        sink.publish(rec);
                    }
                });
            }
        });
        let d = sink.drain();
        assert_eq!(d.events.len(), 64 * 4);
        // Every example's events are contiguous and in seq order.
        for chunk in d.events.chunks(4) {
            assert!(chunk
                .windows(2)
                .all(|w| { w[0].example_idx == w[1].example_idx && w[0].seq + 1 == w[1].seq }));
        }
    }
}
