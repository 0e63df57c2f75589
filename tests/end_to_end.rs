//! Cross-crate integration tests: the full pipeline from benchmark generation
//! through translation to evaluation, asserting the paper's qualitative claims
//! hold end-to-end at test scale.

use purple_repro::prelude::*;

fn suite() -> Suite {
    let mut cfg = GenConfig::tiny(2024);
    cfg.dev_examples = 80;
    generate_suite(&cfg)
}

#[test]
fn purple_end_to_end_beats_zero_shot_on_both_metrics() {
    let suite = suite();
    let system = Purple::new(&suite.train, PurpleConfig::default_with(CHATGPT));
    let purple_report = evaluate(&system, &suite.dev, None, 1, &ExecSession::disabled());

    let models = SharedModels::from_purple(&system);
    let zero = LlmBaseline::new(Strategy::ChatGptSql, CHATGPT, models);
    let zero_report = evaluate(&zero, &suite.dev, None, 1, &ExecSession::disabled());

    assert!(
        purple_report.overall.em_pct() > zero_report.overall.em_pct() + 10.0,
        "PURPLE EM {:.1} should dominate zero-shot {:.1}",
        purple_report.overall.em_pct(),
        zero_report.overall.em_pct()
    );
    assert!(
        purple_report.overall.ex_pct() > zero_report.overall.ex_pct(),
        "PURPLE EX {:.1} should beat zero-shot {:.1}",
        purple_report.overall.ex_pct(),
        zero_report.overall.ex_pct()
    );
    // The zero-shot EM << EX signature of the paper's Table 1.
    assert!(
        zero_report.overall.ex_pct() > zero_report.overall.em_pct() + 8.0,
        "zero-shot EX {:.1} should far exceed its EM {:.1}",
        zero_report.overall.ex_pct(),
        zero_report.overall.em_pct()
    );
}

#[test]
fn ts_never_exceeds_ex_and_em_is_value_blind() {
    let suite = suite();
    let ts = build_suites(&suite.dev, SuiteConfig::default(), 3);
    let system = Purple::new(&suite.train, PurpleConfig::default_with(CHATGPT));
    let report = evaluate(&system, &suite.dev, Some(&ts), 1, &ExecSession::disabled());
    assert!(
        report.overall.ts <= report.overall.ex,
        "TS hits {} cannot exceed EX hits {} (suite includes the original instance)",
        report.overall.ts,
        report.overall.ex
    );
    assert!(report.has_ts);
}

#[test]
fn gpt4_profile_dominates_chatgpt_for_purple() {
    let suite = suite();
    let base = Purple::new(&suite.train, PurpleConfig::default_with(CHATGPT));
    let chatgpt = base.with_config(PurpleConfig::default_with(CHATGPT));
    let gpt4 = base.with_config(PurpleConfig::default_with(GPT4));
    let r35 = evaluate(&chatgpt, &suite.dev, None, 1, &ExecSession::disabled());
    let r4 = evaluate(&gpt4, &suite.dev, None, 1, &ExecSession::disabled());
    assert!(
        r4.overall.em_pct() >= r35.overall.em_pct(),
        "GPT4 {:.1} vs ChatGPT {:.1}",
        r4.overall.em_pct(),
        r35.overall.em_pct()
    );
}

#[test]
fn predictions_parse_and_mostly_execute() {
    let suite = suite();
    let system = Purple::new(&suite.train, PurpleConfig::default_with(CHATGPT));
    let mut parseable = 0;
    let mut executable = 0;
    let n = 40.min(suite.dev.examples.len());
    for (i, ex) in suite.dev.examples.iter().take(n).enumerate() {
        let db = suite.dev.db_of(ex);
        let t = system.run(Job::new(i, ex, db)).translation;
        if let Ok(q) = parse(&t.sql) {
            parseable += 1;
            if execute(db, &q).is_ok() {
                executable += 1;
            }
        }
    }
    assert_eq!(parseable, n, "every PURPLE output must parse");
    assert!(executable * 100 >= n * 90, "at least 90% must execute ({executable}/{n})");
}

#[test]
fn variant_splits_are_harder_than_dev() {
    let suite = suite();
    let base = Purple::new(&suite.train, PurpleConfig::default_with(CHATGPT));
    let on_dev = base.with_config(PurpleConfig::default_with(CHATGPT));
    let dev_em = evaluate(&on_dev, &suite.dev, None, 1, &ExecSession::disabled()).overall.em_pct();
    for split in [&suite.dk, &suite.syn] {
        let sys = base.with_config(PurpleConfig::default_with(CHATGPT));
        let em = evaluate(&sys, split, None, 1, &ExecSession::disabled()).overall.em_pct();
        assert!(
            em <= dev_em + 5.0,
            "{} EM {:.1} should not beat plain dev {:.1} by a margin",
            split.name,
            em,
            dev_em
        );
    }
}

#[test]
fn oracle_skeleton_does_not_hurt() {
    let suite = suite();
    let base = Purple::new(&suite.train, PurpleConfig::default_with(CHATGPT));
    let default_sys = base.with_config(PurpleConfig::default_with(CHATGPT));
    let mut oracle_cfg = PurpleConfig::default_with(CHATGPT);
    oracle_cfg.oracle_skeleton = true;
    let oracle_sys = base.with_config(oracle_cfg);
    let d = evaluate(&default_sys, &suite.dev, None, 1, &ExecSession::disabled()).overall.em_pct();
    let o = evaluate(&oracle_sys, &suite.dev, None, 1, &ExecSession::disabled()).overall.em_pct();
    assert!(o + 3.0 >= d, "oracle skeleton {:.1} should not trail default {:.1}", o, d);
}

#[test]
fn token_budgets_are_respected_end_to_end() {
    let suite = suite();
    let base = Purple::new(&suite.train, PurpleConfig::default_with(CHATGPT));
    for len in [512u64, 1024, 3072] {
        let mut cfg = PurpleConfig::default_with(CHATGPT);
        cfg.len_budget = len;
        cfg.num_consistency = 3;
        let sys = base.with_config(cfg);
        for (i, ex) in suite.dev.examples.iter().take(10).enumerate() {
            let t = sys.run(Job::new(i, ex, suite.dev.db_of(ex))).translation;
            assert!(t.prompt_tokens <= len, "prompt {} exceeded budget {len}", t.prompt_tokens);
        }
    }
}

#[test]
fn traced_run_is_consistent_with_plain_run() {
    let suite = suite();
    let base = Purple::new(&suite.train, PurpleConfig::default_with(CHATGPT));
    let a = base.with_config(PurpleConfig::default_with(CHATGPT));
    let b = base.with_config(PurpleConfig::default_with(CHATGPT));
    for (i, ex) in suite.dev.examples.iter().take(8).enumerate() {
        let db = suite.dev.db_of(ex);
        let plain = a.run(Job::new(i, ex, db));
        let traced = b.run(Job::new(i, ex, db).with_trace(true));
        assert!(plain.trace.is_none(), "trace must be opt-in");
        let trace = traced.trace.expect("trace requested");
        assert_eq!(plain.translation.sql, traced.translation.sql);
        assert_eq!(trace.sql, traced.translation.sql);
        assert_eq!(trace.prompt_tokens, traced.translation.prompt_tokens);
        assert!(trace.demos_in_prompt <= trace.selected.len());
        assert!(!trace.predictions.is_empty());
        assert!(trace.prune_quality >= 0.0 && trace.prune_quality <= 1.0);
        // Tracing must not perturb the recorded metrics.
        assert_eq!(plain.metrics, traced.metrics);
    }
}
