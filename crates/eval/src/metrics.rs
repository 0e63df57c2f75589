//! Exact-Set Match and Execution Match metrics (§V-A2).
//!
//! Execution goes through a bound [`SessionDb`]: results are memoized per
//! (database fingerprint, canonical SQL), so the gold query of an example
//! costs one engine run no matter how many predictions it is scored against.
//! Bind [`engine::ExecSession::disabled`] to run uncached; EX/TS verdicts are
//! identical either way because a cache hit returns exactly the result set the
//! engine would compute (DESIGN.md §10).

use engine::{order_matters, SessionDb};
use sqlkit::{exact_set_match, Query, Schema, Statement};

/// Exact-Set Match: clause-level set comparison with values masked and aliases
/// resolved (Spider's official EM).
pub fn em_match(pred: &Query, gold: &Query, schema: &Schema) -> bool {
    exact_set_match(pred, gold, schema)
}

/// Execution Match: identical results on the bound database. Order-sensitive
/// exactly when the gold query orders its output (mirroring Spider's evaluation,
/// which string-matches `ORDER BY` in the gold SQL).
pub fn ex_match(sdb: &SessionDb<'_, '_>, pred: &Query, gold: &Query) -> bool {
    let Ok(pred_rs) = sdb.execute(pred) else {
        return false;
    };
    let Ok(gold_rs) = sdb.execute(gold) else {
        return false;
    };
    pred_rs.same_result(&gold_rs, order_matters(gold))
}

/// EX on a raw predicted string, parsed through the session: a prediction
/// that is not a query never matches.
pub fn ex_match_str(sdb: &SessionDb<'_, '_>, pred_sql: &str, gold: &Query) -> bool {
    match sdb.session().parse_statement(pred_sql).as_deref() {
        Some(Statement::Select(pred)) => ex_match(sdb, pred, gold),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::{Database, ExecSession, Value};
    use sqlkit::{parse, Column, ColumnType, Table};

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
        for (i, (n, g)) in [("a", "x"), ("b", "x"), ("c", "y")].iter().enumerate() {
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

    #[test]
    fn ex_matches_semantically_different_but_coincident_queries() {
        // The EX-false-positive effect the paper discusses: different semantics,
        // same result on this data.
        let db = db();
        let session = ExecSession::disabled();
        let sdb = session.bind(&db);
        let gold = parse("SELECT name FROM t WHERE id < 3").unwrap();
        let pred = parse("SELECT name FROM t WHERE grp = 'x'").unwrap();
        assert!(ex_match(&sdb, &pred, &gold));
        assert!(!em_match(&pred, &gold, &db.schema));
    }

    #[test]
    fn ex_respects_order_when_gold_orders() {
        let db = db();
        let session = ExecSession::disabled();
        let sdb = session.bind(&db);
        let gold = parse("SELECT name FROM t ORDER BY id DESC").unwrap();
        let pred = parse("SELECT name FROM t ORDER BY id ASC").unwrap();
        assert!(!ex_match(&sdb, &pred, &gold));
        // Unordered gold tolerates row order differences.
        let gold2 = parse("SELECT name FROM t").unwrap();
        assert!(ex_match(&sdb, &pred, &gold2));
    }

    #[test]
    fn unparseable_or_failing_predictions_never_match() {
        let db = db();
        let session = ExecSession::disabled();
        let sdb = session.bind(&db);
        let gold = parse("SELECT name FROM t").unwrap();
        assert!(!ex_match_str(&sdb, "SELEC name FRM t", &gold));
        assert!(!ex_match_str(&sdb, "SELECT nope FROM t", &gold));
        assert!(!ex_match_str(&sdb, "SELECT name FROM missing", &gold));
    }

    #[test]
    fn session_ex_agrees_with_direct_ex() {
        let db = db();
        let session = ExecSession::shared();
        let sdb = session.bind(&db);
        let uncached = ExecSession::disabled();
        let gold = parse("SELECT name FROM t WHERE id < 3").unwrap();
        for pred_sql in [
            "SELECT name FROM t WHERE grp = 'x'",
            "SELECT name FROM t WHERE id = 2",
            "SELECT nope FROM t",
            "SELEC name FRM t",
        ] {
            assert_eq!(
                ex_match_str(&sdb, pred_sql, &gold),
                ex_match_str(&uncached.bind(&db), pred_sql, &gold),
                "{pred_sql}"
            );
        }
        // Scoring the same prediction again executes through the given
        // session: both runs are served from its result cache.
        let before = session.stats().result;
        assert!(ex_match_str(&sdb, "SELECT name FROM t WHERE grp = 'x'", &gold));
        let after = session.stats().result;
        assert_eq!((after.hits - before.hits, after.misses - before.misses), (2, 0));
    }

    #[test]
    fn em_ignores_values_ex_does_not() {
        let db = db();
        let session = ExecSession::disabled();
        let sdb = session.bind(&db);
        let gold = parse("SELECT name FROM t WHERE id = 1").unwrap();
        let pred = parse("SELECT name FROM t WHERE id = 2").unwrap();
        assert!(em_match(&pred, &gold, &db.schema));
        assert!(!ex_match(&sdb, &pred, &gold));
    }
}
