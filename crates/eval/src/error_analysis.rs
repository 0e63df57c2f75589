//! Failure-mode analysis: classify *why* a prediction missed, in the vocabulary the
//! paper uses — wrong operator composition (skeleton mismatch), schema linking
//! slips (right skeleton, wrong columns/tables), wrong constants (EM-exact but
//! execution-different), execution errors, and parse failures.

use crate::metrics::{em_match, ex_match};
use engine::SessionDb;
use sqlkit::{exact_set_match, Query, Skeleton, Statement};
use std::collections::BTreeMap;

/// Why a single prediction failed (or that it didn't).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailureMode {
    /// EM and EX both hold.
    Correct,
    /// Semantically right answer (EX) with a different structure (no EM) — the
    /// equivalence-rewrite band the paper's Table 1 highlights.
    EquivalentForm,
    /// The prediction's skeleton differs from the gold skeleton: the LLM picked the
    /// wrong operator composition (§I's core failure).
    WrongComposition,
    /// Same skeleton, same masked structure, but execution differs only through
    /// constants: wrong value.
    WrongValue,
    /// Same skeleton, EM fails: the structure is right but schema items are wrong
    /// (linking slip).
    WrongSchemaLinking,
    /// The prediction does not execute on the database.
    ExecutionError,
    /// The prediction does not parse.
    ParseError,
}

impl FailureMode {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FailureMode::Correct => "correct",
            FailureMode::EquivalentForm => "equivalent-form",
            FailureMode::WrongComposition => "wrong-composition",
            FailureMode::WrongValue => "wrong-value",
            FailureMode::WrongSchemaLinking => "wrong-schema-linking",
            FailureMode::ExecutionError => "execution-error",
            FailureMode::ParseError => "parse-error",
        }
    }
}

/// Classify one prediction against its gold query on the bound database.
///
/// The prediction's parse and both executions go through the session, so
/// re-classifying predictions already scored through the same session costs
/// no extra engine runs; bind [`engine::ExecSession::disabled`] to run
/// uncached, with the same verdict.
pub fn classify(sdb: &SessionDb<'_, '_>, pred_sql: &str, gold: &Query) -> FailureMode {
    let parsed = sdb.session().parse_statement(pred_sql);
    let Some(Statement::Select(pred)) = parsed.as_deref() else {
        return FailureMode::ParseError;
    };
    if sdb.execute(pred).is_err() {
        return FailureMode::ExecutionError;
    }
    let db = sdb.db();
    let em = em_match(pred, gold, &db.schema);
    let ex = ex_match(sdb, pred, gold);
    if em && ex {
        return FailureMode::Correct;
    }
    if !em && ex {
        return FailureMode::EquivalentForm;
    }
    // Execution differs; localize the cause.
    let pred_skel = Skeleton::from_query(pred);
    let gold_skel = Skeleton::from_query(gold);
    if pred_skel != gold_skel {
        return FailureMode::WrongComposition;
    }
    if em {
        // EM masks values: identical structure and schema items, different result
        // — the constant must be wrong.
        return FailureMode::WrongValue;
    }
    // Same skeleton, EM broken: schema items differ.
    debug_assert!(!exact_set_match(pred, gold, &db.schema));
    FailureMode::WrongSchemaLinking
}

/// Aggregate failure-mode counts over a set of (prediction, example) pairs.
#[derive(Debug, Clone, Default)]
pub struct ErrorReport {
    /// Mode -> count.
    pub counts: BTreeMap<FailureMode, usize>,
    /// Total classified predictions.
    pub total: usize,
}

impl ErrorReport {
    /// Add one classification.
    pub fn add(&mut self, mode: FailureMode) {
        *self.counts.entry(mode).or_insert(0) += 1;
        self.total += 1;
    }

    /// Percentage for a mode.
    pub fn pct(&self, mode: FailureMode) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * self.counts.get(&mode).copied().unwrap_or(0) as f64 / self.total as f64
        }
    }

    /// Render as an aligned text block.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (mode, n) in &self.counts {
            s.push_str(&format!("  {:<22} {:>6}  ({:>5.1}%)\n", mode.label(), n, self.pct(*mode)));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::{Database, ExecSession, Value};
    use sqlkit::{parse, Column, ColumnType, Schema, Table};

    fn db() -> Database {
        let mut s = Schema::new("d");
        s.tables.push(Table {
            name: "t".into(),
            display: "t".into(),
            columns: vec![
                Column::new("id", ColumnType::Int),
                Column::new("name", ColumnType::Text),
                Column::new("grp", ColumnType::Text),
            ],
            primary_key: Some(0),
        });
        let mut db = Database::empty(s);
        for (i, (n, g)) in [("a", "x"), ("b", "y"), ("c", "y")].iter().enumerate() {
            db.insert(
                0,
                vec![
                    Value::Int(i as i64 + 1),
                    Value::Text(n.to_string()),
                    Value::Text(g.to_string()),
                ],
            );
        }
        db
    }

    fn gold() -> Query {
        parse("SELECT name FROM t WHERE id = 1").unwrap()
    }

    #[test]
    fn classifies_every_mode() {
        let db = db();
        let gold = gold();
        let session = ExecSession::disabled();
        let sdb = session.bind(&db);
        assert_eq!(classify(&sdb, "SELECT name FROM t WHERE id = 1", &gold), FailureMode::Correct);
        assert_eq!(classify(&sdb, "not sql at all", &gold), FailureMode::ParseError);
        assert_eq!(
            classify(&sdb, "SELECT nope FROM t WHERE id = 1", &gold),
            FailureMode::ExecutionError
        );
        // Wrong constant: same structure, different rows.
        assert_eq!(
            classify(&sdb, "SELECT name FROM t WHERE id = 2", &gold),
            FailureMode::WrongValue
        );
        // Wrong linking: same skeleton, different column.
        assert_eq!(
            classify(&sdb, "SELECT grp FROM t WHERE id = 1", &gold),
            FailureMode::WrongSchemaLinking
        );
        // Wrong composition: extra operator structure with different result.
        assert_eq!(
            classify(&sdb, "SELECT name FROM t WHERE id = 1 OR id = 2", &gold),
            FailureMode::WrongComposition
        );
        // Equivalent form: boundary shift keeps the result, breaks EM.
        assert_eq!(
            classify(&sdb, "SELECT name FROM t WHERE id < 2", &gold),
            FailureMode::EquivalentForm
        );
    }

    #[test]
    fn session_classification_agrees_with_direct() {
        let db = db();
        let gold = gold();
        let session = ExecSession::shared();
        let sdb = session.bind(&db);
        let uncached = ExecSession::disabled();
        let preds = [
            "SELECT name FROM t WHERE id = 1",
            "not sql at all",
            "SELECT nope FROM t WHERE id = 1",
            "SELECT name FROM t WHERE id = 2",
            "SELECT grp FROM t WHERE id = 1",
            "SELECT name FROM t WHERE id = 1 OR id = 2",
            "SELECT name FROM t WHERE id < 2",
        ];
        for pred in preds {
            assert_eq!(
                classify(&sdb, pred, &gold),
                classify(&uncached.bind(&db), pred, &gold),
                "{pred}"
            );
        }
        // Classifying again executes through the given session: every
        // execution is a result hit.
        let before = session.stats().result;
        for pred in preds {
            classify(&sdb, pred, &gold);
        }
        let after = session.stats().result;
        assert!(after.hits > before.hits);
        assert_eq!(after.misses, before.misses);
    }

    #[test]
    fn wrong_value_vs_wrong_schema_linking_boundary() {
        let db = db();
        let gold = gold();
        let session = ExecSession::disabled();
        let sdb = session.bind(&db);
        // Same skeleton, same schema items, only the constant differs: EM holds
        // (values are masked) so the wrong result can only come from the value.
        assert_eq!(
            classify(&sdb, "SELECT name FROM t WHERE id = 3", &gold),
            FailureMode::WrongValue
        );
        // Same skeleton but a different schema item in the predicate: EM breaks
        // while the shape is right — a linking slip, not a wrong value, even
        // though the constant differs too.
        assert_eq!(
            classify(&sdb, "SELECT name FROM t WHERE grp = 'y'", &gold),
            FailureMode::WrongSchemaLinking
        );
        // Swapped columns with the gold constant land on the same side.
        assert_eq!(
            classify(&sdb, "SELECT grp FROM t WHERE id = 1", &gold),
            FailureMode::WrongSchemaLinking
        );
    }

    #[test]
    fn equivalent_form_outranks_skeleton_comparison() {
        let db = db();
        let gold = gold();
        let session = ExecSession::disabled();
        let sdb = session.bind(&db);
        // Structurally different but EX-equal: EX is checked before skeletons,
        // so this is the equivalence band, not wrong-composition.
        assert_eq!(
            classify(&sdb, "SELECT name FROM t WHERE id = 1 AND id = 1", &gold),
            FailureMode::EquivalentForm
        );
        // A schema-item substitution that happens to return the gold rows is
        // also equivalent-form (grp = 'x' selects exactly row 1).
        assert_eq!(
            classify(&sdb, "SELECT name FROM t WHERE grp = 'x'", &gold),
            FailureMode::EquivalentForm
        );
    }

    #[test]
    fn execution_and_parse_failures_outrank_everything() {
        let db = db();
        let gold = gold();
        let session = ExecSession::disabled();
        let sdb = session.bind(&db);
        // An unparsable prediction never reaches execution.
        assert_eq!(classify(&sdb, "", &gold), FailureMode::ParseError);
        assert_eq!(classify(&sdb, "SELECT FROM WHERE", &gold), FailureMode::ParseError);
        // A parsable prediction over a hallucinated schema item fails at
        // execution, before any EM/EX comparison.
        assert_eq!(
            classify(&sdb, "SELECT name FROM ghost WHERE id = 1", &gold),
            FailureMode::ExecutionError
        );
    }

    #[test]
    fn report_accumulates_and_renders() {
        let mut r = ErrorReport::default();
        r.add(FailureMode::Correct);
        r.add(FailureMode::Correct);
        r.add(FailureMode::WrongComposition);
        assert_eq!(r.total, 3);
        assert!((r.pct(FailureMode::Correct) - 66.7).abs() < 0.1);
        let text = r.render();
        assert!(text.contains("wrong-composition"));
        assert!(text.contains("66.7%"));
        assert_eq!(ErrorReport::default().pct(FailureMode::Correct), 0.0);
    }
}
