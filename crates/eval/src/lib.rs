//! # purple-eval
//!
//! Evaluation metrics and harness: Exact-Set Match, Execution Match, distilled
//! Test-Suite accuracy (Zhong et al.), per-hardness breakdown, token accounting,
//! and the [`Translator`] trait every system under test implements.

#![warn(missing_docs)]

pub mod attribution;
pub mod diff;
pub mod dml;
pub mod error_analysis;
pub mod harness;
pub mod metrics;
pub mod registry;
pub mod reportio;
pub mod testsuite;
pub mod wire;

#[cfg(test)]
mod testsuite_tests_extra;

pub use attribution::{attribute, AttributionReport, Blame, TraceSummary, Verdict};
pub use diff::{
    diff_from_json, diff_reports, diff_to_json, gate, mcnemar, BlameShift, GateConfig, GateOutcome,
    MetricDiff, ReportDiff, StageLatencyDelta,
};
pub use dml::{
    dml_hardness, evaluate_dml, evaluate_dml_par, DmlJob, DmlOracle, StatementTranslator,
};
pub use error_analysis::{classify, ErrorReport, FailureMode};
pub use harness::{
    build_suites, evaluate, evaluate_with, seed_for, Bucket, EvalReport, ExampleOutcome, Job,
    JobSpec, OracleTranslator, Request, Response, RunEnv, RunOutcome, Translation, Translator,
};
pub use metrics::{em_match, ex_match, ex_match_str};
pub use registry::{fingerprint, git_rev, RunManifest, RunRegistry};
pub use reportio::{
    attribution_from_json, attribution_to_json, metrics_from_json, metrics_to_json,
    report_from_json, report_to_json, REPORT_SCHEMA_VERSION,
};
pub use testsuite::{build_suite, fuzz_instance, mutate, ts_match, SuiteConfig, TestSuite};
pub use wire::{
    line_from_json, request_from_json, request_to_json, response_from_json, response_to_json,
    ServeCommand, ServeLine,
};

// Former names kept while perfbench calls them; ROADMAP item 5 moves perfbench
// to `evaluate`, `evaluate_dml` and `ex_match_str` and deletes these (and
// `evaluate_dml_par`, which also reorders its arguments).
pub use harness::evaluate as evaluate_par_with_session;
pub use metrics::ex_match_str as ex_match_str_with;
