//! Test-suite (TS) scoring accepts a prediction that prints as the gold query
//! without executing either. This differential test checks that the verdict
//! is still exactly what running gold and prediction on every suite instance
//! gives, through a shared session and through a disabled one.

use llm::rewrites::{corrupting_rewrites, equivalent_rewrites};
use purple_repro::eval::{ts_match, TestSuite};
use purple_repro::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::sync::Arc;

/// TS as scored before the shortcut: the gold query and the prediction run
/// directly on every instance of the suite.
fn instance_loop(pred: &Query, gold: &Query, suite: &TestSuite) -> bool {
    let ordered = engine::order_matters(gold);
    for db in &suite.databases {
        let Ok(gold_rs) = execute(db, gold) else {
            continue;
        };
        let Ok(pred_rs) = execute(db, pred) else {
            return false;
        };
        if !pred_rs.same_result(&gold_rs, ordered) {
            return false;
        }
    }
    true
}

#[test]
fn ts_shortcut_matches_the_instance_loop_on_dev() {
    let (mut shortcut, mut looped, mut hits) = (0usize, 0usize, 0usize);
    for seed in 0..6u64 {
        let suite = generate_suite(&GenConfig::tiny(seed));
        let suites = build_suites(&suite.dev, SuiteConfig::default(), seed ^ 0x7e57);
        let purple = Purple::new(&suite.train, PurpleConfig::default_with(CHATGPT));
        let plm = PlmTranslator::new(
            purple_repro::baselines::RESDSQL,
            Arc::new(purple.predictor().clone()),
        );
        let shared = ExecSession::shared();
        let disabled = ExecSession::disabled();
        let mut rng = StdRng::seed_from_u64(seed);
        for (i, ex) in suite.dev.examples.iter().enumerate() {
            let db = suite.dev.db_of(ex);
            let job = Job::new(i, ex, db);
            let gold = &ex.query;
            let mut candidates =
                vec![("gold", parse(&gold.to_string()).expect("gold prints as SQL"))];
            for (name, sql) in
                [("purple", purple.run(job).translation.sql), ("plm", plm.run(job).translation.sql)]
            {
                if let Ok(q) = parse(&sql) {
                    candidates.push((name, q));
                }
            }
            if let Some(q) = equivalent_rewrites(gold).choose(&mut rng) {
                candidates.push(("equivalent", q.clone()));
            }
            if let Some(q) = corrupting_rewrites(gold).choose(&mut rng) {
                candidates.push(("corrupting", q.clone()));
            }
            let ts = &suites[ex.db_index];
            for (name, pred) in &candidates {
                let want = instance_loop(pred, gold, ts);
                let case = format!("seed {seed}, example {i}, {name}: `{pred}` vs gold `{gold}`");
                assert_eq!(ts_match(&shared, pred, gold, ts), want, "shared: {case}");
                assert_eq!(ts_match(&disabled, pred, gold, ts), want, "disabled: {case}");
                if pred.to_string() == gold.to_string() {
                    shortcut += 1;
                } else {
                    looped += 1;
                    hits += usize::from(want);
                }
            }
        }
    }
    // Both paths ran, and the instance loop accepted as well as rejected
    // (measured: 552 shortcuts; 189 of 560 looped candidates matched).
    assert!(shortcut > 400, "{shortcut} candidates took the shortcut");
    assert!(hits > 100 && looped > hits + 200, "{hits} of {looped} looped candidates matched");
}
