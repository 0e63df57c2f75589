//! Additional test-suite (TS) behaviour tests, kept in a separate module to keep
//! `testsuite.rs` focused on the implementation.

use crate::metrics::ex_match;
use crate::testsuite::{build_suite, fuzz_instance, mutate, ts_match, SuiteConfig};
use engine::{Database, ExecSession, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlkit::{parse, Column, ColumnType, Schema, Table};

fn db() -> Database {
    let mut s = Schema::new("d");
    s.tables.push(Table {
        name: "t".into(),
        display: "t".into(),
        columns: vec![
            Column::new("id", ColumnType::Int),
            Column::new("name", ColumnType::Text),
            Column::new("score", ColumnType::Float),
        ],
        primary_key: Some(0),
    });
    let mut db = Database::empty(s);
    for (i, (n, x)) in [("a", 1.5), ("b", 2.5), ("c", 3.5), ("d", 4.5)].iter().enumerate() {
        db.insert(0, vec![Value::Int(i as i64 + 1), Value::Text(n.to_string()), Value::Float(*x)]);
    }
    db
}

#[test]
fn suite_construction_is_deterministic() {
    let db = db();
    let gold = parse("SELECT name FROM t WHERE id < 3").unwrap();
    let a = build_suite(&db, &[&gold], SuiteConfig::default(), 11);
    let b = build_suite(&db, &[&gold], SuiteConfig::default(), 11);
    assert_eq!(a.databases.len(), b.databases.len());
    for (x, y) in a.databases.iter().zip(&b.databases) {
        assert_eq!(x.rows, y.rows);
    }
}

#[test]
fn original_instance_is_always_first() {
    let db = db();
    let gold = parse("SELECT name FROM t").unwrap();
    let suite = build_suite(&db, &[&gold], SuiteConfig::default(), 3);
    assert_eq!(suite.databases[0].rows, db.rows);
}

#[test]
fn ts_rejects_garbage_and_accepts_gold() {
    // The harness's path: one parse through the session, then TS on the AST;
    // a prediction that does not parse scores false without reaching TS.
    let db = db();
    let gold = parse("SELECT name FROM t WHERE id <= 2").unwrap();
    let suite = build_suite(&db, &[&gold], SuiteConfig::default(), 5);
    let session = ExecSession::disabled();
    let ts = |sql: &str| session.parse(sql).is_some_and(|p| ts_match(&session, &p, &gold, &suite));
    assert!(ts(&gold.to_string()));
    assert!(!ts("SELECT nope FROM"));
    assert!(!ts("SELECT missing FROM t"));
}

#[test]
fn ts_catches_boundary_off_by_one_that_ex_misses() {
    // id < 3 vs id <= 2: truly equivalent on integer ids -> TS must also pass.
    let db = db();
    let session = ExecSession::disabled();
    let gold = parse("SELECT name FROM t WHERE id < 3").unwrap();
    let equiv = parse("SELECT name FROM t WHERE id <= 2").unwrap();
    let suite = build_suite(&db, &[&gold], SuiteConfig::default(), 5);
    assert!(ts_match(&session, &equiv, &gold, &suite), "integer boundary shift is exact");
    // id < 3 vs id < 4: coincides only if no row has id = 3... here it differs
    // already on the original, sanity-check EX agrees.
    let wrong = parse("SELECT name FROM t WHERE id < 4").unwrap();
    assert!(!ex_match(&session.bind(&db), &wrong, &gold));
    assert!(!ts_match(&session, &wrong, &gold, &suite));
}

#[test]
fn fuzzed_instances_vary_but_keep_arity_and_types_loose() {
    let db = db();
    let mut rng = StdRng::seed_from_u64(9);
    let mut distinct_row_counts = std::collections::HashSet::new();
    for _ in 0..12 {
        let f = fuzz_instance(&db, &mut rng);
        distinct_row_counts.insert(f.rows[0].len());
        for row in &f.rows[0] {
            assert_eq!(row.len(), 3);
        }
    }
    assert!(distinct_row_counts.len() > 1, "fuzzing should vary row counts");
}

#[test]
fn mutate_of_minimal_query_still_produces_neighbors() {
    let mut rng = StdRng::seed_from_u64(4);
    let q = parse("SELECT name FROM t").unwrap();
    let ms = mutate(&q, &mut rng);
    // Only the DISTINCT toggle applies to this minimal shape.
    assert!(!ms.is_empty());
    assert!(ms.iter().all(|m| m != &q));
}

#[test]
fn empty_probe_set_still_builds_a_usable_suite() {
    let db = db();
    let suite = build_suite(&db, &[], SuiteConfig::default(), 1);
    assert_eq!(suite.databases.len(), 1, "no probes -> nothing to distill, original only");
    let gold = parse("SELECT name FROM t").unwrap();
    assert!(ts_match(&ExecSession::disabled(), &gold, &gold, &suite));
}
