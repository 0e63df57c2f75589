//! # purple-obs
//!
//! The pipeline observability layer: a hand-rolled, `Sync`, allocation-light
//! metrics registry (counters, gauges, and fixed-bucket latency histograms)
//! and the per-run [`Probe`] every stage records through. Every stage of the
//! PURPLE pipeline — schema pruning, skeleton prediction, demonstration
//! selection, prompt assembly, the LLM call, the six adaption fixers, and the
//! consistency vote — opens a stage on its run's probe and closes it once,
//! and the per-run [`StageMetrics`] snapshots merge deterministically across
//! evaluation workers (DESIGN.md §8).
//!
//! Two clocks are supported: [`Clock::Virtual`] (the default) measures stages
//! in deterministic *work units* declared by the instrumented code, so
//! aggregated metrics are byte-identical for any thread count; [`Clock::Wall`]
//! measures real monotonic nanoseconds for profiling, at the cost of
//! byte-stability.
//!
//! A probe writes three views when a stage closes: the registry histogram,
//! a structured per-example event ([`events`]: [`Event`] / [`EventSink`],
//! drained in ascending example order so the JSONL stream is byte-identical
//! for any worker count, DESIGN.md §9), and a span in the
//! request's hierarchical trace ([`trace`]: [`TraceRecorder`] / [`SpanSink`],
//! DESIGN.md §14). [`prom`] renders a snapshot as Prometheus text exposition
//! for the serving layer's live `{"cmd":"metrics"}` telemetry verb.
//!
//! The [`window`] and [`slo`] modules layer *time-resolved* telemetry on top
//! (DESIGN.md §16): ring-buffer sliding windows giving rolling rates,
//! high-watermarks, and p50/p95/p99, plus declarative latency/admission SLOs
//! reduced to a Healthy/Degraded/Breached verdict. They power the serving
//! layer's `{"cmd":"health"}` verb and the soak timeline.
//!
//! [`json`] is the workspace's one JSON codec: every artifact and wire line
//! is escaped by [`json::quote`] and read back by [`json::parse`].

#![warn(missing_docs)]

mod cache;
pub mod events;
pub mod json;
mod ops;
mod probe;
pub mod prom;
mod registry;
pub mod slo;
mod snapshot;
pub mod trace;
pub mod window;

pub use cache::{CacheCounters, CacheStats, StageCacheCounters, StageCacheStats};
pub use events::{
    to_jsonl, DrainedEvents, Event, EventSink, EventValue, DEFAULT_EVENTS_PER_EXAMPLE,
    DEFAULT_MAX_EXAMPLES,
};
pub use ops::{ExecOpCounters, ExecOpStats};
pub use probe::{Probe, StageScope};
pub use prom::{render_prometheus, SinkLoss};
pub use registry::{Clock, MetricsRegistry};
pub use slo::{SloSpec, SloStatus, SloTracker, SloVerdict};
pub use snapshot::{
    CounterBlock, FixerStats, GaugeSlot, Histogram, StageMetrics, StageStats, NUM_BUCKETS,
};
pub use trace::{
    DrainedTraces, SpanId, SpanRecord, SpanSink, SpanToken, TraceId, TraceRecorder, TraceSampler,
    TraceSpans,
};
pub use window::{SlidingWindow, WindowStats};

/// A pipeline stage with its own call counter and latency histogram.
///
/// The seven stages cover the four PURPLE modules of the paper's Fig. 3 plus
/// the prompt-assembly and vote sub-steps the ablations (Table VIII, §VII)
/// reason about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Schema Pruning (§IV-A): classifier thresholding + Steiner connectivity.
    SchemaPruning,
    /// Skeleton Prediction (§IV-B): the trained top-k predictor.
    SkeletonPrediction,
    /// Demonstration Selection (§IV-C): Algorithm 1 over the automaton set.
    DemoSelection,
    /// Prompt assembly and token-budget fitting (Fig. 11's `len`).
    PromptAssembly,
    /// The LLM generation call (tokens in/out, context overflows).
    LlmCall,
    /// Database Adaption (§IV-D1): the repair loop over all samples.
    Adaption,
    /// Execution-consistency vote (§IV-D2).
    ConsistencyVote,
    /// DML application through either engine (INSERT/UPDATE/DELETE/upsert).
    WriteExec,
}

impl Stage {
    /// Number of stages (array dimension of [`StageMetrics::stages`]).
    pub const COUNT: usize = 8;

    /// Every stage, in pipeline order. This order is the serialization order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::SchemaPruning,
        Stage::SkeletonPrediction,
        Stage::DemoSelection,
        Stage::PromptAssembly,
        Stage::LlmCall,
        Stage::Adaption,
        Stage::ConsistencyVote,
        Stage::WriteExec,
    ];

    /// The stages rendered into deterministic report JSON: the original seven
    /// pipeline stages. [`Stage::WriteExec`] stays out so every SELECT-only
    /// `EvalReport` remains byte-identical to reports produced before the
    /// write path existed.
    pub const REPORT: [Stage; 7] = [
        Stage::SchemaPruning,
        Stage::SkeletonPrediction,
        Stage::DemoSelection,
        Stage::PromptAssembly,
        Stage::LlmCall,
        Stage::Adaption,
        Stage::ConsistencyVote,
    ];

    /// Stable kebab-case name used in JSON and report tables.
    pub fn name(self) -> &'static str {
        match self {
            Stage::SchemaPruning => "schema-pruning",
            Stage::SkeletonPrediction => "skeleton-prediction",
            Stage::DemoSelection => "demo-selection",
            Stage::PromptAssembly => "prompt-assembly",
            Stage::LlmCall => "llm-call",
            Stage::Adaption => "adaption",
            Stage::ConsistencyVote => "consistency-vote",
            Stage::WriteExec => "write-exec",
        }
    }

    /// Parse a [`Stage::name`] back.
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Array index (position within [`Stage::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One of the six Database-Adaption fixers of Table 2, each with hit/success
/// counters (a *hit* is one application of the fixer inside the repair loop; a
/// *success* is a hit whose sample ended up executable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fixer {
    /// Column attached to the wrong alias (Table 2 row 1).
    TableColumnMismatch,
    /// Unqualified column resolvable to several tables (row 2).
    ColumnAmbiguity,
    /// Column whose owner table is absent from FROM (row 3).
    MissingTable,
    /// Misspelled / nonexistent table or column (row 4).
    SchemaHallucination,
    /// Unsupported function spelling (row 5).
    FunctionHallucination,
    /// Multi-argument aggregate (row 6).
    AggregationHallucination,
}

impl Fixer {
    /// Number of fixers (array dimension of [`StageMetrics::fixers`]).
    pub const COUNT: usize = 6;

    /// Every fixer, in Table-2 order. This order is the serialization order.
    pub const ALL: [Fixer; Fixer::COUNT] = [
        Fixer::TableColumnMismatch,
        Fixer::ColumnAmbiguity,
        Fixer::MissingTable,
        Fixer::SchemaHallucination,
        Fixer::FunctionHallucination,
        Fixer::AggregationHallucination,
    ];

    /// Stable category label, identical to `engine::ExecError::category`.
    pub fn name(self) -> &'static str {
        match self {
            Fixer::TableColumnMismatch => "table-column-mismatch",
            Fixer::ColumnAmbiguity => "column-ambiguity",
            Fixer::MissingTable => "missing-table",
            Fixer::SchemaHallucination => "schema-hallucination",
            Fixer::FunctionHallucination => "function-hallucination",
            Fixer::AggregationHallucination => "aggregation-hallucination",
        }
    }

    /// Parse a [`Fixer::name`] back; this is also how an
    /// `engine::ExecError::category` label maps to its fixer.
    pub fn from_name(name: &str) -> Option<Fixer> {
        Fixer::ALL.into_iter().find(|f| f.name() == name)
    }

    /// Array index (position within [`Fixer::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A monotonically increasing event/total counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// LLM generation calls issued.
    LlmCalls,
    /// Billed prompt tokens across all LLM calls.
    PromptTokens,
    /// Billed output tokens across all LLM calls.
    OutputTokens,
    /// LLM calls whose prompt exceeded the context limit and was truncated.
    ContextOverflows,
    /// Consistency samples generated.
    Samples,
    /// Samples that needed repair and ended up executable.
    RepairedSamples,
    /// Samples that needed repair and stayed broken.
    UnrepairedSamples,
    /// Rows appended by INSERT statements (both engines).
    RowsInserted,
    /// Rows rewritten by UPDATE or `ON CONFLICT DO UPDATE`.
    RowsUpdated,
    /// Rows removed by DELETE statements.
    RowsDeleted,
    /// INSERT tuples that hit an existing primary key under `ON CONFLICT`.
    ConflictHits,
    /// Serve requests rejected at admission because the queue was full
    /// (open-loop `try_submit` under overload; blocking `submit` never sheds).
    RequestsShed,
}

impl Counter {
    /// Number of counters (array dimension of [`CounterBlock`]).
    pub const COUNT: usize = 12;

    /// Every counter, in serialization order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::LlmCalls,
        Counter::PromptTokens,
        Counter::OutputTokens,
        Counter::ContextOverflows,
        Counter::Samples,
        Counter::RepairedSamples,
        Counter::UnrepairedSamples,
        Counter::RowsInserted,
        Counter::RowsUpdated,
        Counter::RowsDeleted,
        Counter::ConflictHits,
        Counter::RequestsShed,
    ];

    /// The counters rendered into deterministic report JSON: the original
    /// seven. The write-execution counters stay out so every SELECT-only
    /// `EvalReport` remains byte-identical to reports produced before the
    /// write path existed.
    pub const REPORT: [Counter; 7] = [
        Counter::LlmCalls,
        Counter::PromptTokens,
        Counter::OutputTokens,
        Counter::ContextOverflows,
        Counter::Samples,
        Counter::RepairedSamples,
        Counter::UnrepairedSamples,
    ];

    /// Stable snake_case name used in JSON.
    pub fn name(self) -> &'static str {
        match self {
            Counter::LlmCalls => "llm_calls",
            Counter::PromptTokens => "prompt_tokens",
            Counter::OutputTokens => "output_tokens",
            Counter::ContextOverflows => "context_overflows",
            Counter::Samples => "samples",
            Counter::RepairedSamples => "repaired_samples",
            Counter::UnrepairedSamples => "unrepaired_samples",
            Counter::RowsInserted => "rows_inserted",
            Counter::RowsUpdated => "rows_updated",
            Counter::RowsDeleted => "rows_deleted",
            Counter::ConflictHits => "conflict_hits",
            Counter::RequestsShed => "requests_shed",
        }
    }

    /// Parse a [`Counter::name`] back.
    pub fn from_name(name: &str) -> Option<Counter> {
        Counter::ALL.into_iter().find(|c| c.name() == name)
    }

    /// Array index (position within [`Counter::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A last-value gauge. Merging folds in example order, so the aggregated value
/// is the final example's — deterministic for any worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Demonstrations that survived budget fitting in the latest prompt.
    DemosInPrompt,
    /// Demonstration-pool size of the translator.
    PoolSize,
    /// Requests waiting in the serve admission queue (set by `purple-serve`).
    QueueDepth,
    /// Requests currently being translated by serve workers.
    InFlight,
    /// Largest queue depth ever observed by this registry (monotone).
    QueueDepthHwm,
    /// Largest in-flight count ever observed by this registry (monotone).
    InFlightHwm,
}

impl Gauge {
    /// Number of gauges (array dimension of [`StageMetrics::gauges`]).
    pub const COUNT: usize = 6;

    /// Every gauge, in serialization order.
    pub const ALL: [Gauge; Gauge::COUNT] = [
        Gauge::DemosInPrompt,
        Gauge::PoolSize,
        Gauge::QueueDepth,
        Gauge::InFlight,
        Gauge::QueueDepthHwm,
        Gauge::InFlightHwm,
    ];

    /// The gauges rendered into deterministic report JSON: the original four.
    /// The serving high-watermarks stay out so every `EvalReport` remains
    /// byte-identical to reports produced before windowed telemetry existed.
    pub const REPORT: [Gauge; 4] =
        [Gauge::DemosInPrompt, Gauge::PoolSize, Gauge::QueueDepth, Gauge::InFlight];

    /// Stable snake_case name used in JSON.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::DemosInPrompt => "demos_in_prompt",
            Gauge::PoolSize => "pool_size",
            Gauge::QueueDepth => "queue_depth",
            Gauge::InFlight => "in_flight",
            Gauge::QueueDepthHwm => "queue_depth_hwm",
            Gauge::InFlightHwm => "in_flight_hwm",
        }
    }

    /// Parse a [`Gauge::name`] back.
    pub fn from_name(name: &str) -> Option<Gauge> {
        Gauge::ALL.into_iter().find(|g| g.name() == name)
    }

    /// Array index (position within [`Gauge::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }
}
