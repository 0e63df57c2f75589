//! # purple-repro
//!
//! A from-scratch Rust reproduction of **PURPLE: Making a Large Language Model a
//! Better SQL Writer** (Ren et al., ICDE 2024) — the retrieval-augmented prompting
//! pipeline for NL2SQL translation — together with every substrate its evaluation
//! needs: a SQL toolkit, an in-memory SQLite-like engine, a Spider-like benchmark
//! generator, trained PLM stand-ins, a simulated LLM service, all baselines, and
//! the EM/EX/TS metric suite.
//!
//! This facade crate re-exports the workspace's public APIs and hosts the runnable
//! examples (`examples/`) and cross-crate integration tests (`tests/`).
//!
//! ## The five-minute tour
//!
//! ```
//! use purple_repro::prelude::*;
//!
//! // 1. Generate a benchmark suite (Spider analog).
//! let suite = generate_suite(&GenConfig::tiny(42));
//!
//! // 2. Train PURPLE on the training split (classifier + skeleton predictor +
//! //    demonstration pool + four-level automata).
//! let system = Purple::new(&suite.train, PurpleConfig::default_with(CHATGPT));
//!
//! // 3. Translate a validation question. `run` takes a Job and returns a
//! //    RunOutcome: the translation plus per-stage metrics (and a trace on
//! //    request via `Job::with_trace`).
//! let ex = &suite.dev.examples[0];
//! let outcome = system.run(Job::new(0, ex, suite.dev.db_of(ex)));
//! assert!(!outcome.translation.sql.is_empty());
//!
//! // 4. Score the whole split through an execution session: one job with
//! //    nothing cached, or four worker threads sharing a cache, with
//! //    bit-identical results (seeds derive from the example index, and a
//! //    cache hit returns what the engine would compute).
//! let report = evaluate(&system, &suite.dev, None, 1, &ExecSession::disabled());
//! assert_eq!(report, evaluate(&system, &suite.dev, None, 4, &ExecSession::shared()));
//! assert!(report.overall.em_pct() > 0.0);
//! ```
//!
//! See DESIGN.md for the architecture and the paper-substitution table, and
//! EXPERIMENTS.md for paper-vs-measured numbers of every table and figure.

pub use baselines;
pub use engine;
pub use eval;
pub use llm;
pub use nlmodel;
pub use obs;
pub use purple;
pub use spidergen;
pub use sqlkit;

/// Convenience re-exports for the common workflow.
pub mod prelude {
    pub use baselines::{LlmBaseline, PlmTranslator, SharedModels, Strategy, ALL_PLM};
    pub use engine::{
        execute, prepare, run, Database, ExecSession, Plan, ResultSet, SessionConfig, Value,
    };
    pub use eval::{
        attribute, build_suites, evaluate, evaluate_with, AttributionReport, Blame, Job, JobSpec,
        Request, Response, RunEnv, SuiteConfig, TraceSummary, Translation, Translator, Verdict,
    };
    pub use llm::{LlmService, Prompt, CHATGPT, GPT4};
    pub use obs::{Clock, EventSink, MetricsRegistry, StageMetrics};
    pub use purple::{Purple, PurpleConfig, RunOutcome};
    pub use spidergen::{generate_suite, GenConfig, Suite};
    pub use sqlkit::{parse, Hardness, Level, Query, Schema, Skeleton};
}
