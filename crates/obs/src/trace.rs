//! Request-scoped hierarchical tracing (DESIGN.md §14).
//!
//! A [`TraceRecorder`] captures one request's span tree: every instrumented
//! scope — admission queue wait, each pipeline
//! [`Stage`](crate::Stage), the LLM call, adaption, the consistency vote, and
//! individual statement executions — becomes a [`SpanRecord`] with a
//! parent/child causal edge to the span that was open when it started.
//!
//! Spans carry **two** timelines at once:
//!
//! * a *virtual* timeline on the work-unit clock ([`Clock::Virtual`]): each
//!   trace starts at cursor 0 and every `finish(work)` advances the cursor by
//!   the declared work, so span start/end offsets are a pure function of the
//!   request — byte-identical for any worker count or arrival order. The
//!   scheduling-dependent scope (queue wait) declares zero work, so its
//!   presence never perturbs the virtual timeline.
//! * a *wall* timeline in monotonic nanoseconds since the recorder was created
//!   (admission time), so queue wait and real stage latencies are measurable.
//!   Wall data is interleaving-dependent and therefore confined to stdout
//!   rollups and opt-in exports; it never enters report JSON.
//!
//! Completed recorders are published to a bounded, thread-safe [`SpanSink`]
//! (the span analogue of [`crate::EventSink`]): traces are keyed by
//! [`TraceId`], over-bound publication evicts the largest ids, and
//! [`SpanSink::drain`] returns traces in ascending id order — so the drained
//! stream, and the Chrome-trace JSON rendered from it by [`to_chrome_trace`],
//! are byte-identical for any completion interleaving.
//!
//! [`Clock::Virtual`]: crate::Clock::Virtual

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Identifies one request's trace. The serving layer uses the wire request id,
/// which is assigned before arrival-order shuffling — so trace identity is
/// stable across load permutations.
pub type TraceId = u64;

/// Identifies one span within its trace (dense, in start order).
pub type SpanId = u32;

/// Default bound on spans kept per trace (excess spans are counted, not kept).
pub const DEFAULT_SPANS_PER_TRACE: usize = 192;

/// Default bound on traces kept by a [`SpanSink`].
pub const DEFAULT_MAX_TRACES: usize = 1024;

/// Name of the implicit root span every recorder opens at creation.
pub const ROOT_SPAN: &str = "request";

/// Name of the admission-queue wait span (virtual work 0).
pub const QUEUE_WAIT_SPAN: &str = "queue-wait";

/// Name of the retired batch-coalesce span. The server no longer records it;
/// it stays exported because `perfbench`'s span rollup still matches on it.
pub const BATCH_SPAN: &str = "batch-coalesce";

/// Name of a single statement-execution span recorded by the engine.
pub const EXEC_SPAN: &str = "exec";

/// One closed (or force-closed at publish) span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Dense per-trace id, in span start order.
    pub id: SpanId,
    /// Span that was open when this one started (`None` for the root).
    pub parent: Option<SpanId>,
    /// Static span name: [`ROOT_SPAN`], [`QUEUE_WAIT_SPAN`], [`EXEC_SPAN`],
    /// or a [`Stage::name`](crate::Stage::name).
    pub name: &'static str,
    /// Virtual-cursor value when the span opened.
    pub start: u64,
    /// Virtual-cursor value when the span closed (`start + declared work` for
    /// leaves; covers all nested work for interior spans).
    pub end: u64,
    /// Wall nanoseconds since recorder creation when the span opened.
    pub wall_start_ns: u64,
    /// Wall nanoseconds since recorder creation when the span closed.
    pub wall_end_ns: u64,
}

impl SpanRecord {
    /// Virtual duration in work units.
    pub fn virt(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Wall duration in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.wall_end_ns.saturating_sub(self.wall_start_ns)
    }
}

/// Handle to an open span, returned by [`TraceRecorder::start`] and redeemed
/// by [`TraceRecorder::finish`]. Tokens are plain indices (no borrow), so a
/// span can be opened on one thread (admission) and closed on another (the
/// worker that dequeued the request).
#[derive(Debug, Clone, Copy)]
pub struct SpanToken(u32);

const DROPPED: u32 = u32::MAX;

#[derive(Debug, Default)]
struct TraceState {
    spans: Vec<SpanRecord>,
    /// Stack of open span ids; the top is the parent of the next span.
    open: Vec<SpanId>,
    /// Virtual work-unit cursor, advanced by every `finish`.
    cursor: u64,
    dropped: u64,
}

/// Records one request's span tree. Thread-safe; cheap to create per request.
#[derive(Debug)]
pub struct TraceRecorder {
    trace_id: TraceId,
    cap: usize,
    origin: Instant,
    state: Mutex<TraceState>,
}

impl TraceRecorder {
    /// Create a recorder with the default per-trace span cap. The root
    /// [`ROOT_SPAN`] span is opened immediately and closed at publish.
    pub fn new(trace_id: TraceId) -> Self {
        Self::with_cap(trace_id, DEFAULT_SPANS_PER_TRACE)
    }

    /// Create a recorder keeping at most `cap` spans (at least the root).
    pub fn with_cap(trace_id: TraceId, cap: usize) -> Self {
        let rec = TraceRecorder {
            trace_id,
            cap: cap.max(1),
            origin: Instant::now(),
            state: Mutex::new(TraceState::default()),
        };
        rec.start(ROOT_SPAN);
        rec
    }

    /// The trace this recorder belongs to.
    pub fn trace_id(&self) -> TraceId {
        self.trace_id
    }

    fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span as a child of the innermost open span. Over the span cap
    /// the span is counted as dropped and the returned token is inert (its
    /// `finish` still advances the virtual cursor, so sibling offsets do not
    /// depend on the cap).
    pub fn start(&self, name: &'static str) -> SpanToken {
        let now = self.elapsed_ns();
        let mut st = self.state.lock().expect("trace recorder poisoned");
        if st.spans.len() >= self.cap {
            st.dropped += 1;
            return SpanToken(DROPPED);
        }
        let id = st.spans.len() as SpanId;
        let parent = st.open.last().copied();
        let record = SpanRecord {
            id,
            parent,
            name,
            start: st.cursor,
            end: st.cursor,
            wall_start_ns: now,
            wall_end_ns: now,
        };
        st.spans.push(record);
        st.open.push(id);
        SpanToken(id)
    }

    /// Close a span, declaring `work` virtual units for the scope. Closing is
    /// defensive about ordering: the token is removed from the open stack
    /// wherever it sits, so a missed nested `finish` cannot corrupt parents.
    pub fn finish(&self, token: SpanToken, work: u64) {
        let now = self.elapsed_ns();
        let mut st = self.state.lock().expect("trace recorder poisoned");
        st.cursor = st.cursor.saturating_add(work);
        if token.0 == DROPPED {
            return;
        }
        let cursor = st.cursor;
        if let Some(span) = st.spans.get_mut(token.0 as usize) {
            span.end = cursor;
            span.wall_end_ns = now;
        }
        st.open.retain(|&id| id != token.0);
    }

    /// Record a complete leaf span in one call (start + finish with `work`).
    pub fn leaf(&self, name: &'static str, work: u64) {
        let token = self.start(name);
        self.finish(token, work);
    }

    /// Consume the recorder: force-close any still-open spans at the current
    /// cursor and return `(trace id, spans in start order, dropped count)`.
    pub fn into_spans(self) -> (TraceId, Vec<SpanRecord>, u64) {
        let now = self.elapsed_ns();
        let mut st = self.state.into_inner().expect("trace recorder poisoned");
        while let Some(id) = st.open.pop() {
            if let Some(span) = st.spans.get_mut(id as usize) {
                span.end = st.cursor;
                span.wall_end_ns = now;
            }
        }
        (self.trace_id, st.spans, st.dropped)
    }
}

/// Seeded 1-in-N trace sampling. Admission is a pure function of the request
/// id (`splitmix64(seed ^ id) % sample == 0`), so the sampled set is identical
/// for any arrival order or worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSampler {
    /// Keep one request in `sample` (0 and 1 both mean "keep all").
    pub sample: u64,
    /// Mixing seed, so different runs can sample different subsets.
    pub seed: u64,
}

impl TraceSampler {
    /// Sample every request.
    pub fn all() -> Self {
        TraceSampler { sample: 1, seed: 0 }
    }

    /// Whether the request with this id is traced.
    pub fn admits(&self, id: u64) -> bool {
        self.sample <= 1 || splitmix64(self.seed ^ id).is_multiple_of(self.sample)
    }
}

/// The splitmix64 finalizer: a cheap, high-quality 64-bit mixer.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One published trace: the request's spans in start order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpans {
    /// The trace id (wire request id under serve).
    pub trace_id: TraceId,
    /// Spans in start order ([`SpanRecord::id`] order).
    pub spans: Vec<SpanRecord>,
}

#[derive(Debug, Default)]
struct SinkState {
    traces: BTreeMap<TraceId, Vec<SpanRecord>>,
    dropped_traces: u64,
    dropped_spans: u64,
}

/// Bounded, thread-safe store of published traces.
///
/// Like [`crate::EventSink`], publication is atomic per trace and eviction is
/// deterministic: when over the bound, the *largest* trace ids are discarded,
/// so the retained set is "the first `max_traces` request ids" regardless of
/// completion order.
#[derive(Debug)]
pub struct SpanSink {
    max_traces: usize,
    inner: Mutex<SinkState>,
}

impl SpanSink {
    /// Sink keeping at most `max_traces` traces.
    pub fn bounded(max_traces: usize) -> Self {
        SpanSink { max_traces: max_traces.max(1), inner: Mutex::new(SinkState::default()) }
    }

    /// Shared sink with the default bound.
    pub fn shared() -> std::sync::Arc<Self> {
        std::sync::Arc::new(Self::bounded(DEFAULT_MAX_TRACES))
    }

    /// Publish a completed recorder (consumes it; force-closes open spans).
    pub fn publish(&self, rec: TraceRecorder) {
        let (trace_id, spans, dropped) = rec.into_spans();
        let mut st = self.inner.lock().expect("span sink poisoned");
        st.dropped_spans += dropped;
        st.traces.insert(trace_id, spans);
        while st.traces.len() > self.max_traces {
            st.traces.pop_last();
            st.dropped_traces += 1;
        }
    }

    /// Number of traces currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("span sink poisoned").traces.len()
    }

    /// Whether the sink holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current `(dropped traces, dropped spans)` without draining — feeds the
    /// trace-loss counters of the Prometheus exposition. Both reset to zero
    /// when [`SpanSink::drain`] takes the accumulated state.
    pub fn loss(&self) -> (u64, u64) {
        let st = self.inner.lock().expect("span sink poisoned");
        (st.dropped_traces, st.dropped_spans)
    }

    /// Drain everything in ascending trace-id order, resetting the sink.
    pub fn drain(&self) -> DrainedTraces {
        let mut st = self.inner.lock().expect("span sink poisoned");
        let state = std::mem::take(&mut *st);
        DrainedTraces {
            traces: state
                .traces
                .into_iter()
                .map(|(trace_id, spans)| TraceSpans { trace_id, spans })
                .collect(),
            dropped_traces: state.dropped_traces,
            dropped_spans: state.dropped_spans,
        }
    }
}

/// Everything a [`SpanSink::drain`] returns: traces ascending by id plus
/// bound-overflow accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainedTraces {
    /// Traces in ascending [`TraceId`] order.
    pub traces: Vec<TraceSpans>,
    /// Traces evicted by the sink bound.
    pub dropped_traces: u64,
    /// Spans dropped by per-trace caps.
    pub dropped_spans: u64,
}

/// Render drained traces as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto). With `wall: false` (the default export) span `ts`/`dur` are
/// virtual work units — byte-identical for any worker count or arrival
/// order. With `wall: true` they are wall microseconds since each
/// request's admission (interleaving-dependent; opt-in only).
pub fn to_chrome_trace(drained: &DrainedTraces, wall: bool) -> String {
    let mut out = String::with_capacity(256 + drained.traces.len() * 512);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":");
    out.push_str(if wall { "\"wall\"" } else { "\"virtual\"" });
    write!(
        out,
        ",\"dropped_traces\":{},\"dropped_spans\":{}}},\"traceEvents\":[",
        drained.dropped_traces, drained.dropped_spans
    )
    .unwrap();
    let mut first = true;
    for trace in &drained.traces {
        for span in &trace.spans {
            if !first {
                out.push(',');
            }
            first = false;
            let (ts, dur) = if wall {
                (span.wall_start_ns / 1_000, span.wall_ns() / 1_000)
            } else {
                (span.start, span.virt())
            };
            write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"purple\",\"ph\":\"X\",\"ts\":{ts},\
                 \"dur\":{dur},\"pid\":0,\"tid\":{},\"args\":{{\"span\":{},\"parent\":",
                span.name, trace.trace_id, span.id
            )
            .unwrap();
            match span.parent {
                Some(p) => write!(out, "{p}").unwrap(),
                None => out.push_str("null"),
            }
            out.push_str("}}");
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Aggregated latency distribution for one span path (names from root joined
/// with `/`, e.g. `request/adaption/exec`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollupRow {
    /// Root-to-span name path.
    pub path: String,
    /// Spans aggregated under this path.
    pub count: u64,
    /// Virtual-duration p50/p95/p99 in work units.
    pub virt: [u64; 3],
    /// Wall-duration p50/p95/p99 in microseconds.
    pub wall_us: [u64; 3],
}

/// Nearest-rank percentile over an ascending-sorted slice (0 when empty).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Aggregate drained traces into per-path latency rows, sorted by path.
///
/// Queue wait shows up as `request/queue-wait` with a zero virtual
/// distribution (it declares no work) and a real wall distribution.
pub fn rollup(drained: &DrainedTraces) -> Vec<RollupRow> {
    let mut by_path: BTreeMap<String, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
    for trace in &drained.traces {
        for span in &trace.spans {
            // Walk parent edges to build the path; spans are in start order so
            // every parent precedes its children.
            let mut names = vec![span.name];
            let mut cursor = span.parent;
            while let Some(pid) = cursor {
                let parent = &trace.spans[pid as usize];
                names.push(parent.name);
                cursor = parent.parent;
            }
            names.reverse();
            let path = names.join("/");
            let entry = by_path.entry(path).or_default();
            entry.0.push(span.virt());
            entry.1.push(span.wall_ns() / 1_000);
        }
    }
    by_path
        .into_iter()
        .map(|(path, (mut virt, mut wall))| {
            virt.sort_unstable();
            wall.sort_unstable();
            RollupRow {
                path,
                count: virt.len() as u64,
                virt: [0.50, 0.95, 0.99].map(|q| percentile(&virt, q)),
                wall_us: [0.50, 0.95, 0.99].map(|q| percentile(&wall, q)),
            }
        })
        .collect()
}

/// Render rollup rows as a flamegraph-style markdown table (indentation by
/// path depth). Wall columns are stdout-only diagnostics; the virtual columns
/// are deterministic.
pub fn render_rollup(rows: &[RollupRow]) -> String {
    let mut out = String::from(
        "| span path | count | p50(work) | p95(work) | p99(work) | p50(ms) | p95(ms) | p99(ms) |\n\
         |---|---:|---:|---:|---:|---:|---:|---:|\n",
    );
    for row in rows {
        let depth = row.path.matches('/').count();
        let leaf = row.path.rsplit('/').next().unwrap_or(&row.path);
        let ms = row.wall_us.map(|us| us as f64 / 1_000.0);
        writeln!(
            out,
            "| {}{} | {} | {} | {} | {} | {:.3} | {:.3} | {:.3} |",
            "&nbsp;&nbsp;".repeat(depth),
            leaf,
            row.count,
            row.virt[0],
            row.virt[1],
            row.virt[2],
            ms[0],
            ms[1],
            ms[2],
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_advance_the_virtual_cursor() {
        let rec = TraceRecorder::new(7);
        let queue = rec.start(QUEUE_WAIT_SPAN);
        rec.finish(queue, 0);
        let stage = rec.start("schema-pruning");
        rec.leaf(EXEC_SPAN, 5);
        rec.finish(stage, 10);
        let (id, spans, dropped) = rec.into_spans();
        assert_eq!(id, 7);
        assert_eq!(dropped, 0);
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, [ROOT_SPAN, QUEUE_WAIT_SPAN, "schema-pruning", EXEC_SPAN]);
        // Root opened first, parent of queue-wait and the stage.
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2), "exec nests under the open stage");
        // Virtual timeline: queue-wait is zero-width, exec spans 0..5, the
        // stage 0..15, and the root is force-closed at the final cursor.
        assert_eq!((spans[1].start, spans[1].end), (0, 0));
        assert_eq!((spans[3].start, spans[3].end), (0, 5));
        assert_eq!((spans[2].start, spans[2].end), (0, 15));
        assert_eq!((spans[0].start, spans[0].end), (0, 15));
    }

    #[test]
    fn span_cap_drops_but_keeps_the_cursor_exact() {
        let rec = TraceRecorder::with_cap(1, 2); // root + 1
        rec.leaf("kept", 3);
        rec.leaf("dropped", 4);
        let (_, spans, dropped) = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(dropped, 1);
        assert_eq!(spans[0].end, 7, "dropped span work still advances the cursor");
    }

    #[test]
    fn sink_drains_ascending_and_evicts_largest_ids() {
        let sink = SpanSink::bounded(2);
        for id in [9u64, 3, 7] {
            sink.publish(TraceRecorder::new(id));
        }
        let drained = sink.drain();
        let ids: Vec<_> = drained.traces.iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, [3, 7], "largest id evicted, ascending drain");
        assert_eq!(drained.dropped_traces, 1);
        assert!(sink.is_empty(), "drain resets");
    }

    #[test]
    fn sampler_is_arrival_order_invariant_and_covers_all_when_one() {
        let all = TraceSampler::all();
        assert!((0..100).all(|id| all.admits(id)));
        let one_in_4 = TraceSampler { sample: 4, seed: 42 };
        let kept: Vec<u64> = (0..1000).filter(|&id| one_in_4.admits(id)).collect();
        assert!(!kept.is_empty() && kept.len() < 1000);
        // Pure function of id: any evaluation order selects the same set.
        let rev: Vec<u64> = (0..1000).rev().filter(|&id| one_in_4.admits(id)).collect();
        assert_eq!(kept, rev.into_iter().rev().collect::<Vec<_>>());
    }

    #[test]
    fn chrome_export_is_valid_shape_and_virtual_by_default() {
        let sink = SpanSink::bounded(8);
        let rec = TraceRecorder::new(5);
        rec.leaf("llm-call", 100);
        sink.publish(rec);
        let json = to_chrome_trace(&sink.drain(), false);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"clock\":\"virtual\""));
        assert!(json.contains("\"name\":\"llm-call\""));
        assert!(json.contains("\"tid\":5"));
        assert!(json.contains("\"dur\":100"));
        assert!(json.ends_with("]}\n"));
    }

    #[test]
    fn rollup_builds_paths_and_percentiles() {
        let sink = SpanSink::bounded(8);
        for id in 0..3u64 {
            let rec = TraceRecorder::new(id);
            let stage = rec.start("adaption");
            rec.leaf(EXEC_SPAN, id + 1);
            rec.finish(stage, 0);
            sink.publish(rec);
        }
        let rows = rollup(&sink.drain());
        let paths: Vec<_> = rows.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, ["request", "request/adaption", "request/adaption/exec"]);
        let exec = &rows[2];
        assert_eq!(exec.count, 3);
        assert_eq!(exec.virt[0], 2, "p50 of 1,2,3");
        assert_eq!(exec.virt[2], 3);
        let rendered = render_rollup(&rows);
        assert!(rendered.contains("| request |"));
        assert!(rendered.contains("&nbsp;&nbsp;&nbsp;&nbsp;exec"));
    }
}
