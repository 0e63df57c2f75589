//! Parallel-evaluation contract tests: every translator is `Send + Sync`, and
//! `evaluate` on any job count with a shared execution session is
//! bit-identical to one uncached job (seeds derive from the example index, not
//! from call order, and a cache hit returns what the engine would compute).
//! Also round-trips an `EvalReport` through the hand-rolled JSON codec.

use purple_repro::eval::{report_from_json, report_to_json, EvalReport, OracleTranslator};
use purple_repro::prelude::*;

fn suite() -> Suite {
    let mut cfg = GenConfig::tiny(777);
    cfg.dev_examples = 60;
    generate_suite(&cfg)
}

#[test]
fn translators_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Purple>();
    assert_send_sync::<LlmBaseline>();
    assert_send_sync::<PlmTranslator>();
    assert_send_sync::<OracleTranslator>();
    // The harness accepts shared trait objects across threads.
    assert_send_sync::<Box<dyn Translator + Send + Sync>>();
}

#[test]
fn parallel_evaluation_matches_serial_for_purple() {
    let suite = suite();
    let system = Purple::new(&suite.train, PurpleConfig::default_with(CHATGPT));
    let serial = evaluate(&system, &suite.dev, None, 1, &ExecSession::disabled());
    for jobs in [1usize, 4] {
        let par = evaluate(&system, &suite.dev, None, jobs, &ExecSession::shared());
        assert_eq!(serial, par, "jobs={jobs} diverged from serial for PURPLE");
    }
}

#[test]
fn parallel_evaluation_matches_serial_for_baseline() {
    let suite = suite();
    let purple_sys = Purple::new(&suite.train, PurpleConfig::default_with(CHATGPT));
    let models = SharedModels::from_purple(&purple_sys);
    let baseline = LlmBaseline::new(Strategy::DailSql, CHATGPT, models);
    let serial = evaluate(&baseline, &suite.dev, None, 1, &ExecSession::disabled());
    for jobs in [1usize, 4] {
        let par = evaluate(&baseline, &suite.dev, None, jobs, &ExecSession::shared());
        assert_eq!(serial, par, "jobs={jobs} diverged from serial for DAIL-SQL");
    }
}

#[test]
fn parallel_evaluation_matches_serial_with_test_suites() {
    let suite = suite();
    let ts = build_suites(&suite.dev, SuiteConfig::default(), 11);
    let serial = evaluate(&OracleTranslator, &suite.dev, Some(&ts), 1, &ExecSession::disabled());
    let par = evaluate(&OracleTranslator, &suite.dev, Some(&ts), 4, &ExecSession::shared());
    assert!(serial.has_ts);
    assert_eq!(serial, par, "TS-scored evaluation diverged under 4 jobs");
}

#[test]
fn eval_report_round_trips_through_json() {
    let suite = suite();
    let system = Purple::new(&suite.train, PurpleConfig::default_with(CHATGPT));
    let ts = build_suites(&suite.dev, SuiteConfig::default(), 11);
    let report = evaluate(&system, &suite.dev, Some(&ts), 1, &ExecSession::disabled());
    let json = report_to_json(&report);
    let back: EvalReport = report_from_json(&json).expect("serialized report must parse");
    assert_eq!(report, back);
    // Token averages survive the float round trip exactly.
    assert_eq!(report.avg_prompt_tokens, back.avg_prompt_tokens);
    assert_eq!(report.avg_output_tokens, back.avg_output_tokens);
}
