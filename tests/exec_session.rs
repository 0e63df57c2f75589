//! Integration tests of the prepared-plan execution layer and the shared
//! `ExecSession` cache: `prepare`+`run` must agree with one-shot `execute` on
//! arbitrary generated workloads, cached evaluation must produce byte-identical
//! reports to uncached evaluation for any job count, and the session's LRUs
//! must respect their capacity bound under churn.

use purple_repro::eval::report_to_json;
use purple_repro::prelude::*;

fn fixtures() -> &'static Suite {
    static SUITE: std::sync::OnceLock<Suite> = std::sync::OnceLock::new();
    SUITE.get_or_init(|| generate_suite(&GenConfig::tiny(777)))
}

fn pick(suite: &Suite, ix: usize) -> (&engine::Database, &Query) {
    let ex = &suite.dev.examples[ix % suite.dev.examples.len()];
    (suite.dev.db_of(ex), &ex.query)
}

/// The two-phase API is equivalent to one-shot execution over the whole
/// generated corpus, and a prepared plan is reusable: running it twice yields
/// identical rows.
#[test]
fn prepared_plan_run_matches_execute() {
    let suite = fixtures();
    for ix in (0..10_000).step_by(79) {
        let (db, q) = pick(suite, ix);
        let plan = prepare(db, q).expect("gold query prepares");
        let two_phase = run(&plan, db);
        let one_shot = execute(db, q).expect("gold query executes");
        assert_eq!(two_phase.rows, one_shot.rows, "rows diverged at ix={ix}");
        assert_eq!(two_phase.columns, one_shot.columns, "columns diverged at ix={ix}");
        let again = run(&plan, db);
        assert_eq!(two_phase.rows, again.rows, "plan rerun diverged at ix={ix}");
    }
}

/// Session-mediated execution returns the same rows as direct execution, on
/// both the cold (miss) and warm (hit) path.
#[test]
fn session_execute_matches_direct_execute() {
    let suite = fixtures();
    let session = ExecSession::shared();
    for ix in (0..10_000).step_by(79) {
        let (db, q) = pick(suite, ix);
        let direct = execute(db, q).expect("gold query executes");
        let cold = session.bind(db).execute(q).expect("session executes");
        assert_eq!(cold.rows, direct.rows, "cold path diverged at ix={ix}");
        let warm = session.bind(db).execute(q).expect("session re-executes");
        assert_eq!(warm.rows, direct.rows, "warm path diverged at ix={ix}");
    }
    assert!(session.stats().result.hits > 0, "warm pass produced no hits");
}

/// Cache on vs cache off must not change a single byte of the report, at any
/// job count — the session only memoizes pure functions of (database, SQL).
#[test]
fn cached_reports_are_byte_identical_for_any_job_count() {
    let mut cfg = GenConfig::tiny(777);
    cfg.dev_examples = 40;
    let suite = generate_suite(&cfg);
    let system = Purple::new(&suite.train, PurpleConfig::default_with(CHATGPT));
    let ts = purple_repro::eval::build_suites(
        &suite.dev,
        purple_repro::eval::SuiteConfig::default(),
        11,
    );
    let uncached = evaluate(&system, &suite.dev, Some(&ts), 1, &ExecSession::disabled());
    let baseline = report_to_json(&uncached);
    for jobs in [1usize, 4] {
        let session = ExecSession::shared();
        let cached = evaluate(&system, &suite.dev, Some(&ts), jobs, &session);
        assert_eq!(report_to_json(&cached), baseline, "cached report diverged at jobs={jobs}");
        let stats = session.stats();
        assert!(stats.result.hits > 0, "cache saw no result hits at jobs={jobs}: {stats:?}");
    }
}

/// Bounded LRUs: after far more distinct (db, SQL) keys than capacity, every
/// stage holds at most `capacity` entries and reports evictions.
#[test]
fn lru_bound_respected_under_churn() {
    let suite = fixtures();
    let capacity = 16usize;
    let session = std::sync::Arc::new(engine::ExecSession::new(capacity));
    let split = &suite.dev;
    let mut issued = 0usize;
    'outer: for ex in &split.examples {
        let db = split.db_of(ex);
        let sdb = session.bind(db);
        // Vary the SQL text per example so every probe is a distinct key,
        // and run it from text so the parse cache churns too.
        for limit in 0..4u64 {
            let mut q = ex.query.clone();
            q.core.limit = Some(100 + limit);
            let _ = sdb.execute_sql(&q.to_string());
            issued += 1;
            if issued >= capacity * 8 {
                break 'outer;
            }
        }
    }
    assert!(issued >= capacity * 8, "corpus too small to churn the cache");
    let stats = session.stats();
    for (stage, s) in [("parse", &stats.parse), ("plan", &stats.plan), ("result", &stats.result)] {
        assert!(
            s.entries as usize <= capacity,
            "{stage} cache exceeded its bound: {} > {capacity}",
            s.entries
        );
    }
    assert!(stats.result.evictions > 0, "churn produced no result-cache evictions: {stats:?}");
    assert!(stats.parse.evictions > 0, "churn produced no parse-cache evictions: {stats:?}");
}
