//! State-scored evaluation of NL→DML translations (DESIGN.md §15).
//!
//! The classic harness scores a prediction by comparing *result sets*; a write
//! has no result set, so the DML scenario family scores by the *database state
//! a statement leaves behind*. Every example is applied to a pristine clone of
//! its database — the canonical benchmark databases are never mutated — and
//! the metrics translate as:
//!
//! * **EM** — canonical-statement equality ([`sqlkit::exact_set_match_statement`]).
//! * **EX** — the predicted statement is the same statement class (read vs.
//!   write) and leaves the database at the same post-write fingerprint as the
//!   gold statement. For read draws this is ordinary execution match.
//! * **TS** — EX *and* the affected-row count matches, catching predictions
//!   that converge on the right state by touching the wrong number of rows
//!   (e.g. a `DELETE` that removes and re-creates the state of a no-op).
//!
//! Hardness buckets reuse the four read levels by statement kind: insert=0,
//! delete=1, update=2, upsert=3; read draws keep their query hardness.
//!
//! Scoring is a pure function of (database, gold, prediction): reports are
//! byte-identical across worker counts and cache configurations,
//! so DML reports flow through the registry / diff / gate machinery exactly
//! like SELECT reports.

use crate::harness::{assemble, par_map, seed_for, EvalReport, ExampleScore, Translation};
use crate::metrics::{em_match, ex_match};
use engine::{Database, ExecSession, StatementOutcome, WriteOutcome};
use obs::{Counter, Stage, StageMetrics};
use spidergen::{StatementKind, WriteBenchmark, WriteExample};
use sqlkit::{exact_set_match_statement, Statement};

/// One unit of DML translation work, the write-path analog of
/// [`crate::harness::Job`].
#[derive(Debug, Clone, Copy)]
pub struct DmlJob<'a> {
    /// Position of the example within its split; all per-run randomness must
    /// derive from this via [`seed_for`].
    pub idx: usize,
    /// The example to translate.
    pub example: &'a WriteExample,
    /// The (pristine) database the example targets.
    pub db: &'a Database,
}

impl DmlJob<'_> {
    /// The RNG seed for this job.
    pub fn seed(&self, base: u64) -> u64 {
        seed_for(base, self.idx)
    }
}

/// An NL→DML system under evaluation. Like [`crate::harness::Translator`],
/// `run` takes `&self` and must be a pure function of the job.
pub trait StatementTranslator {
    /// Display name.
    fn name(&self) -> String;
    /// Translate one job into statement text.
    fn run(&self, job: DmlJob<'_>) -> Translation;
}

/// Echoes the gold statement text — upper bound and self-check for the
/// state-scored harness.
pub struct DmlOracle;

impl StatementTranslator for DmlOracle {
    fn name(&self) -> String {
        "Oracle (gold echo)".into()
    }
    fn run(&self, job: DmlJob<'_>) -> Translation {
        Translation { sql: job.example.sql.clone(), prompt_tokens: 0, output_tokens: 0 }
    }
}

/// Hardness bucket of an example, by statement kind (reads keep their query
/// hardness).
pub fn dml_hardness(ex: &WriteExample) -> usize {
    match ex.kind {
        StatementKind::Insert => 0,
        StatementKind::Delete => 1,
        StatementKind::Update => 2,
        StatementKind::Upsert => 3,
        StatementKind::Read => match &ex.statement {
            Statement::Select(q) => sqlkit::hardness(q) as usize,
            _ => 0,
        },
    }
}

/// Apply a write statement to a clone of `db` through the session, returning
/// the outcome. `None` when the statement fails to prepare.
fn apply_to_clone(session: &ExecSession, db: &Database, stmt: &Statement) -> Option<WriteOutcome> {
    let mut scratch = db.clone();
    match session.apply(&mut scratch, stmt) {
        Ok(StatementOutcome::Write(outcome)) => Some(outcome),
        _ => None,
    }
}

fn score_dml(
    t: Translation,
    ex: &WriteExample,
    db: &Database,
    session: &ExecSession,
) -> ExampleScore {
    let hardness = dml_hardness(ex);
    let mut metrics = StageMetrics::default();
    let predicted = session.parse_statement(&t.sql);
    let (em, ex_hit, ts) = match &ex.statement {
        // Read draws score exactly like the classic harness, from the one
        // parse: a text parses as a SELECT statement exactly when it parses
        // as a query.
        Statement::Select(gold) => match predicted.as_deref() {
            Some(Statement::Select(pred)) => {
                let ex_hit = ex_match(&session.bind(db), pred, gold);
                (em_match(pred, gold, &db.schema), ex_hit, ex_hit)
            }
            _ => (false, false, false),
        },
        gold => {
            let gold_outcome =
                apply_to_clone(session, db, gold).expect("gold DML statements always apply");
            metrics.observe(Stage::WriteExec, gold_outcome.rows_affected);
            metrics.count(Counter::RowsInserted, gold_outcome.rows_inserted);
            metrics.count(Counter::RowsUpdated, gold_outcome.rows_updated);
            metrics.count(Counter::RowsDeleted, gold_outcome.rows_deleted);
            metrics.count(Counter::ConflictHits, gold_outcome.conflict_hits);
            match predicted.as_deref() {
                Some(pred) => {
                    let em = exact_set_match_statement(pred, gold, &db.schema);
                    // A read prediction never scores state match: it trivially
                    // preserves state, which would false-positive on no-op
                    // golds (e.g. a DO NOTHING upsert that conflicts).
                    let outcome =
                        if pred.is_write() { apply_to_clone(session, db, pred) } else { None };
                    let ex_hit =
                        outcome.map(|o| o.fingerprint == gold_outcome.fingerprint).unwrap_or(false);
                    let ts = ex_hit
                        && outcome
                            .map(|o| o.rows_affected == gold_outcome.rows_affected)
                            .unwrap_or(false);
                    (em, ex_hit, ts)
                }
                None => (false, false, false),
            }
        }
    };
    ExampleScore {
        prompt_tokens: t.prompt_tokens,
        output_tokens: t.output_tokens,
        em,
        ex: ex_hit,
        ts,
        hardness,
        metrics,
    }
}

/// Evaluate an NL→DML translator over a profile-driven split on up to `jobs`
/// worker threads, executing through `session` ([`ExecSession::disabled`]
/// runs uncached).
///
/// The resulting [`EvalReport`] has the standard shape (`has_ts` is always
/// set: affected-row checks need no distilled suites), so it archives, diffs
/// and gates like any SELECT report. Scores fold in example order, so the
/// report is identical for any `jobs` count and either cache mode.
pub fn evaluate_dml(
    translator: &(dyn StatementTranslator + Sync),
    bench: &WriteBenchmark,
    jobs: usize,
    session: &ExecSession,
) -> EvalReport {
    let n = bench.examples.len();
    let scores = par_map(n, jobs, |idx| {
        let ex = &bench.examples[idx];
        let db = bench.db_of(ex);
        score_dml(translator.run(DmlJob { idx, example: ex, db }), ex, db, session)
    });
    assemble(translator.name(), bench.name.clone(), scores.into_iter(), n, true)
}

/// [`evaluate_dml`] under its former name and argument order, kept while
/// perfbench calls it (ROADMAP item 5 moves perfbench and deletes this).
pub fn evaluate_dml_par(
    translator: &(dyn StatementTranslator + Sync),
    bench: &WriteBenchmark,
    session: &ExecSession,
    jobs: usize,
) -> EvalReport {
    evaluate_dml(translator, bench, jobs, session)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spidergen::dbgen::{instantiate, PerturbConfig};
    use spidergen::domains::train_domains;
    use spidergen::{generate_write_split, QueryProfile};

    fn dml_split(seed: u64, n: usize) -> WriteBenchmark {
        let templates = train_domains();
        let mut rng = StdRng::seed_from_u64(seed);
        let gdbs: Vec<_> = (0..4)
            .map(|i| {
                let t = &templates[i % templates.len()];
                instantiate(t, &format!("{}_{}", t.name, i), &mut rng, PerturbConfig::default())
            })
            .collect();
        generate_write_split("dml", &gdbs, &QueryProfile::mixed_dml(), n, &mut rng)
    }

    #[test]
    fn oracle_scores_100_on_state_metrics() {
        let bench = dml_split(31, 40);
        let report = evaluate_dml(&DmlOracle, &bench, 1, &ExecSession::disabled());
        assert_eq!(report.overall.em_pct(), 100.0, "EM");
        assert_eq!(report.overall.ex_pct(), 100.0, "EX");
        assert_eq!(report.overall.ts_pct(), 100.0, "TS");
        assert!(report.has_ts);
        assert_eq!(report.overall.n, 40);
    }

    #[test]
    fn canonical_databases_stay_pristine() {
        let bench = dml_split(33, 30);
        let before: Vec<u128> = bench.databases.iter().map(|d| d.fingerprint()).collect();
        evaluate_dml(&DmlOracle, &bench, 1, &ExecSession::disabled());
        let after: Vec<u128> = bench.databases.iter().map(|d| d.fingerprint()).collect();
        assert_eq!(before, after, "scoring must never mutate the benchmark databases");
    }

    #[test]
    fn garbage_translator_scores_zero() {
        struct Garbage;
        impl StatementTranslator for Garbage {
            fn name(&self) -> String {
                "garbage".into()
            }
            fn run(&self, _job: DmlJob<'_>) -> Translation {
                Translation { sql: "DELETE FROM".into(), prompt_tokens: 5, output_tokens: 1 }
            }
        }
        let bench = dml_split(35, 20);
        let report = evaluate_dml(&Garbage, &bench, 1, &ExecSession::disabled());
        assert_eq!(report.overall.em_pct(), 0.0);
        assert_eq!(report.overall.ex_pct(), 0.0);
        assert_eq!(report.overall.ts_pct(), 0.0);
        assert_eq!(report.avg_prompt_tokens, 5.0);
    }

    #[test]
    fn read_prediction_never_matches_a_noop_write() {
        // A DO NOTHING upsert that conflicts leaves the state unchanged, just
        // like any SELECT would. State equality alone would score such a read
        // prediction EX=1; the statement-class guard must keep it at 0.
        struct Reader;
        impl StatementTranslator for Reader {
            fn name(&self) -> String {
                "reader".into()
            }
            fn run(&self, job: DmlJob<'_>) -> Translation {
                let table = job.example.statement.target_table().unwrap_or("t");
                Translation {
                    sql: format!("SELECT COUNT(*) FROM {table}"),
                    prompt_tokens: 0,
                    output_tokens: 0,
                }
            }
        }
        let bench = dml_split(37, 40);
        let has_noop_upsert = bench.examples.iter().any(|e| e.kind == StatementKind::Upsert);
        assert!(has_noop_upsert, "split should include upserts");
        let report = evaluate_dml(&Reader, &bench, 1, &ExecSession::disabled());
        let write_ex: usize = report
            .examples
            .iter()
            .zip(&bench.examples)
            .filter(|(o, e)| e.kind != StatementKind::Read && o.ex)
            .count();
        assert_eq!(write_ex, 0, "read predictions must not score EX on writes");
    }

    /// Echoes gold on even seeds, emits a near-miss write otherwise, so the
    /// score pattern is sensitive to example position.
    struct IdxSensitive;
    impl StatementTranslator for IdxSensitive {
        fn name(&self) -> String {
            "idx-sensitive".into()
        }
        fn run(&self, job: DmlJob<'_>) -> Translation {
            let seed = job.seed(0x5eed);
            let sql = if seed.is_multiple_of(2) {
                job.example.sql.clone()
            } else {
                let table = job.example.statement.target_table().unwrap_or("t");
                format!("DELETE FROM {table} WHERE 1 = 2")
            };
            Translation { sql, prompt_tokens: seed % 89, output_tokens: seed % 11 }
        }
    }

    #[test]
    fn parallel_evaluation_matches_serial_for_any_job_count() {
        let bench = dml_split(39, 50);
        let session = ExecSession::shared();
        let serial = evaluate_dml(&IdxSensitive, &bench, 1, &session);
        for jobs in [1, 2, 4, 33] {
            let par = evaluate_dml(&IdxSensitive, &bench, jobs, &session);
            assert_eq!(serial, par, "jobs={jobs}");
        }
    }

    #[test]
    fn reports_are_identical_across_cache_configs() {
        let bench = dml_split(41, 40);
        let base = evaluate_dml(&IdxSensitive, &bench, 1, &ExecSession::disabled());
        for session in [ExecSession::shared(), ExecSession::disabled()] {
            let r = evaluate_dml(&IdxSensitive, &bench, 4, &session);
            assert_eq!(base, r, "cached={}", session.is_enabled());
        }
    }

    #[test]
    fn hardness_buckets_follow_statement_kind() {
        let bench = dml_split(43, 60);
        let report = evaluate_dml(&DmlOracle, &bench, 1, &ExecSession::disabled());
        for (outcome, ex) in report.examples.iter().zip(&bench.examples) {
            assert_eq!(outcome.hardness as usize, dml_hardness(ex));
        }
        // The mixed profile covers every write kind, so every bucket is hit.
        let with_rows: usize = report.by_hardness.iter().filter(|b| b.n > 0).count();
        assert_eq!(with_rows, 4, "all four hardness buckets populated");
    }

    #[test]
    fn dml_reports_round_trip_through_the_report_codec() {
        let bench = dml_split(45, 30);
        let report = evaluate_dml(&IdxSensitive, &bench, 1, &ExecSession::shared());
        let json = crate::reportio::report_to_json(&report);
        let back = crate::reportio::report_from_json(&json).expect("decodes");
        assert_eq!(back.overall, report.overall);
        assert_eq!(back.examples, report.examples);
        assert_eq!(back.split, "dml");
    }
}
