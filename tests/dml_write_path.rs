//! Integration tests of the DML write path across crate boundaries: on
//! generated NL→DML corpora gold reads must match the reference interpreter
//! and gold writes must report the state they leave behind, the session caches
//! must never serve stale reads across a mutation, and the state-scored DML
//! evaluation report must be byte-identical across cache modes and job counts.

use purple_repro::engine::reference;
use purple_repro::eval::{evaluate_dml, report_to_json, DmlOracle};
use purple_repro::prelude::*;
use purple_repro::spidergen::{
    dbgen::{instantiate, GeneratedDb, PerturbConfig},
    domains::train_domains,
    generate_write_split, QueryProfile, StatementKind, WriteBenchmark,
};
use rand::{rngs::StdRng, SeedableRng};

fn gen_bench(profile: &QueryProfile, n: usize, seed: u64) -> WriteBenchmark {
    let templates = train_domains();
    let mut rng = StdRng::seed_from_u64(seed);
    let gdbs: Vec<GeneratedDb> = templates
        .iter()
        .take(6)
        .map(|t| instantiate(t, &format!("{}_it", t.name), &mut rng, PerturbConfig::default()))
        .collect();
    generate_write_split("dml", &gdbs, profile, n, &mut rng)
}

fn fixtures() -> &'static WriteBenchmark {
    static BENCH: std::sync::OnceLock<WriteBenchmark> = std::sync::OnceLock::new();
    BENCH.get_or_init(|| gen_bench(&QueryProfile::mixed_dml(), 120, 777))
}

/// Sweep the generated mixed corpus: every gold read must match the reference
/// interpreter exactly, and every gold write must report the fingerprint of
/// the state it leaves behind — through `apply_write` and through a session.
#[test]
fn gold_reads_match_reference_and_writes_report_their_post_state() {
    let bench = fixtures();
    let session = ExecSession::shared();
    let mut writes = 0usize;
    for (ix, ex) in bench.examples.iter().enumerate() {
        let db = bench.db_of(ex);
        match &ex.statement {
            sqlkit::ast::Statement::Select(q) => {
                let oracle = reference::execute(db, q).expect("gold read executes");
                let vectorized = execute(db, q).expect("gold read executes");
                assert_eq!(oracle, vectorized, "read diverged from the reference at ix={ix}");
            }
            stmt => {
                writes += 1;
                let plan = engine::prepare_write(db, stmt).expect("gold write compiles");
                let mut direct_db = db.clone();
                let direct = engine::apply_write(&plan, &mut direct_db);
                assert_eq!(
                    direct.fingerprint,
                    direct_db.fingerprint(),
                    "outcome fingerprint is not the post-state fingerprint at ix={ix}"
                );
                let mut session_db = db.clone();
                let engine::StatementOutcome::Write(via_session) =
                    session.apply(&mut session_db, stmt).expect("gold write applies")
                else {
                    panic!("a write statement must produce a write outcome at ix={ix}");
                };
                assert_eq!(direct, via_session, "session write diverged at ix={ix}");
                assert_eq!(
                    format!("{:?}", direct_db.rows),
                    format!("{:?}", session_db.rows),
                    "post-write contents diverged at ix={ix}"
                );
            }
        }
    }
    assert!(writes > 30, "mixed profile generated too few writes: {writes}");
}

/// The invalidation contract, end to end on generated corpora: a COUNT over
/// the target table, cached by a warm shared session, must reflect every gold
/// mutation immediately — `before + inserted - deleted` — and must match what
/// an uncached session computes from the mutated state.
#[test]
fn session_caches_never_serve_stale_reads_across_mutations() {
    let bench = fixtures();
    let session = ExecSession::shared();
    let uncached = ExecSession::disabled();
    let mut mutations = 0usize;
    for (ix, ex) in bench.examples.iter().enumerate() {
        let Some(table) = ex.statement.target_table() else { continue };
        let mut db = bench.db_of(ex).clone();
        let count = sqlkit::parse(&format!("SELECT COUNT(*) FROM {table}")).expect("count parses");
        // Prime the cache, twice, so the post-write read would hit stale
        // entries if invalidation were broken.
        let before = session.bind(&db).execute(&count).expect("pre-write count");
        let primed = session.bind(&db).execute(&count).expect("cached count");
        assert_eq!(before.rows, primed.rows);
        let outcome = match session.apply(&mut db, &ex.statement).expect("gold write applies") {
            engine::StatementOutcome::Write(o) => o,
            engine::StatementOutcome::Rows(_) => unreachable!("target_table implies a write"),
        };
        let after = session.bind(&db).execute(&count).expect("post-write count");
        let fresh = uncached.bind(&db).execute(&count).expect("uncached count");
        assert_eq!(after.rows, fresh.rows, "stale cached count served at ix={ix}");
        let (Value::Int(n0), Value::Int(n1)) = (&before.rows[0][0], &after.rows[0][0]) else {
            panic!("COUNT(*) must be Int at ix={ix}");
        };
        assert_eq!(
            *n1,
            *n0 + outcome.rows_inserted as i64 - outcome.rows_deleted as i64,
            "row count did not track the write outcome at ix={ix}"
        );
        if outcome.rows_affected > 0 {
            mutations += 1;
        }
    }
    assert!(mutations > 20, "corpus exercised too few effective mutations: {mutations}");
    assert!(session.stats().result.hits > 0, "priming pass produced no cache hits");
}

/// The DML analog of DESIGN.md §12: the state-scored evaluation report is
/// byte-identical with caches on or off, at --jobs 1 and 4.
#[test]
fn dml_reports_are_byte_identical_across_caches_and_jobs() {
    let bench = fixtures();
    let baseline = report_to_json(&evaluate_dml(&DmlOracle, bench, 1, &ExecSession::disabled()));
    for jobs in [1usize, 4] {
        for (name, session) in
            [("cached", ExecSession::shared()), ("disabled", ExecSession::disabled())]
        {
            let report = evaluate_dml(&DmlOracle, bench, jobs, &session);
            assert_eq!(report_to_json(&report), baseline, "{name} diverged at jobs={jobs}");
            assert_eq!(report.overall.em, report.overall.n, "oracle must score perfectly");
            assert_eq!(report.overall.ts, report.overall.n, "oracle must match every state");
        }
    }
}

/// A read-only profile degrades the write generator to a plain SELECT
/// generator: every example is a read, and the same state-scoring harness
/// evaluates it standalone.
#[test]
fn read_only_profile_generates_selects_and_scores_standalone() {
    let bench = gen_bench(&QueryProfile::read_only(), 40, 2024);
    assert_eq!(bench.examples.len(), 40);
    for ex in &bench.examples {
        assert_eq!(ex.kind, StatementKind::Read);
        assert!(!ex.statement.is_write(), "read-only profile emitted a write: {}", ex.sql);
    }
    let report = evaluate_dml(&DmlOracle, &bench, 2, &ExecSession::shared());
    assert_eq!(report.overall.em, report.overall.n, "oracle echo must EM on reads");
    assert_eq!(report.overall.ex, report.overall.n, "oracle echo must EX on reads");
}
