//! Differential integration tests of the vectorized columnar engine against
//! the row-at-a-time reference interpreter on generated Spider-like corpora:
//! the engine must agree exactly with the reference on every gold query, and
//! the evaluation report must be byte-identical with the cache on or off at
//! any job count.

use purple_repro::engine::reference;
use purple_repro::eval::report_to_json;
use purple_repro::prelude::*;

fn fixtures() -> &'static Suite {
    static SUITE: std::sync::OnceLock<Suite> = std::sync::OnceLock::new();
    SUITE.get_or_init(|| generate_suite(&GenConfig::tiny(777)))
}

/// Sweep the generated dev corpus: the vectorized engine must produce exactly
/// the rows, columns, and `Value` variants of the reference interpreter on
/// every gold query (NULL propagation, Kleene predicates, grouping and set-op
/// edge cases included — spidergen emits all of them).
#[test]
fn vectorized_matches_reference_on_generated_corpus() {
    let suite = fixtures();
    for (ix, ex) in suite.dev.examples.iter().enumerate() {
        let db = suite.dev.db_of(ex);
        let oracle = reference::execute(db, &ex.query).expect("gold query executes");
        let vectorized = execute(db, &ex.query).expect("gold query executes");
        assert_eq!(oracle, vectorized, "engine diverged from the reference at dev ix={ix}");
        // Debug formatting distinguishes Int(3) from Float(3.0) where
        // PartialEq does not; the report surface serializes variants.
        assert_eq!(
            format!("{oracle:?}"),
            format!("{vectorized:?}"),
            "value variants diverged at dev ix={ix}"
        );
    }
}

/// A second seed, swept through cached and disabled sessions: the session
/// layer (column cache included) must not change a single value either.
#[test]
fn sessions_agree_with_reference_on_generated_corpus() {
    let suite = generate_suite(&GenConfig::tiny(2024));
    let cached = ExecSession::shared();
    let disabled = ExecSession::disabled();
    for (ix, ex) in suite.dev.examples.iter().enumerate() {
        let db = suite.dev.db_of(ex);
        let oracle = reference::execute(db, &ex.query).expect("gold query executes");
        for (name, session) in [("cached", &cached), ("disabled", &disabled)] {
            let got = session.bind(db).execute(&ex.query).expect("session executes");
            assert_eq!(oracle, *got, "{name} session diverged at dev ix={ix}");
        }
    }
    assert!(cached.stats().columns.misses > 0, "cached session built no columns");
    assert!(cached.op_stats().batches > 0, "cached session ran no operators");
}

/// The hard contract of DESIGN.md §12: the full evaluation report is
/// byte-identical with the cache on or off, at --jobs 1 and 4.
#[test]
fn reports_are_byte_identical_across_cache_modes_and_job_counts() {
    let mut cfg = GenConfig::tiny(777);
    cfg.dev_examples = 40;
    let suite = generate_suite(&cfg);
    let system = Purple::new(&suite.train, PurpleConfig::default_with(CHATGPT));
    let ts = purple_repro::eval::build_suites(
        &suite.dev,
        purple_repro::eval::SuiteConfig::default(),
        11,
    );
    let baseline =
        report_to_json(&evaluate(&system, &suite.dev, Some(&ts), 1, &ExecSession::disabled()));
    for jobs in [1usize, 4] {
        for (name, session) in
            [("cached", ExecSession::shared()), ("uncached", ExecSession::disabled())]
        {
            let report = evaluate(&system, &suite.dev, Some(&ts), jobs, &session);
            assert_eq!(report_to_json(&report), baseline, "{name} report diverged at jobs={jobs}");
        }
    }
}
