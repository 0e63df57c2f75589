//! Executor integration tests over a small TV database modeled on the paper's Fig. 1
//! plus an invoice database modeled on Fig. 2.

use engine::{execute, Database, ExecError, ResultSet, Value};
use sqlkit::{parse, Column, ColumnId, ColumnType, ForeignKey, Schema, Table};

fn tv_db() -> Database {
    let mut s = Schema::new("tvdb");
    s.tables.push(Table {
        name: "tv_channel".into(),
        display: "tv channel".into(),
        columns: vec![
            Column::new("id", ColumnType::Int),
            Column::new("series_name", ColumnType::Text),
            Column::new("country", ColumnType::Text),
            Column::new("language", ColumnType::Text),
        ],
        primary_key: Some(0),
    });
    s.tables.push(Table {
        name: "cartoon".into(),
        display: "cartoon".into(),
        columns: vec![
            Column::new("id", ColumnType::Int),
            Column::new("title", ColumnType::Text),
            Column::new("written_by", ColumnType::Text),
            Column::new("channel", ColumnType::Int),
        ],
        primary_key: Some(0),
    });
    s.foreign_keys.push(ForeignKey {
        from: ColumnId { table: 1, column: 3 },
        to: ColumnId { table: 0, column: 0 },
    });
    let mut db = Database::empty(s);
    let t = |s: &str| Value::Text(s.into());
    let i = Value::Int;
    for row in [
        vec![i(1), t("Sky Radio"), t("Italy"), t("Italian")],
        vec![i(2), t("Rai 1"), t("Italy"), t("Italian")],
        vec![i(3), t("CBBC"), t("UK"), t("English")],
        vec![i(4), t("Nick"), t("USA"), t("English")],
    ] {
        db.insert(0, row);
    }
    for row in [
        vec![i(1), t("The Ball"), t("Todd Casey"), i(1)],
        vec![i(2), t("The Kite"), t("Todd Casey"), i(3)],
        vec![i(3), t("The Rock"), t("Joseph Kuhr"), i(3)],
        vec![i(4), t("The Star"), t("Joseph Kuhr"), i(4)],
    ] {
        db.insert(1, row);
    }
    db
}

fn run(db: &Database, sql: &str) -> ResultSet {
    execute(db, &parse(sql).unwrap()).unwrap_or_else(|e| panic!("exec failed for `{sql}`: {e}"))
}

fn err(db: &Database, sql: &str) -> ExecError {
    execute(db, &parse(sql).unwrap()).expect_err(&format!("expected error for `{sql}`"))
}

fn texts(rs: &ResultSet) -> Vec<String> {
    rs.rows.iter().map(|r| r.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("|")).collect()
}

#[test]
fn simple_projection_and_filter() {
    let db = tv_db();
    let rs = run(&db, "SELECT series_name FROM tv_channel WHERE country = 'Italy'");
    assert_eq!(texts(&rs), vec!["Sky Radio", "Rai 1"]);
}

#[test]
fn join_on_fk() {
    let db = tv_db();
    let rs = run(
        &db,
        "SELECT T2.title FROM tv_channel AS T1 JOIN cartoon AS T2 ON T1.id = T2.channel WHERE \
         T1.country = 'UK'",
    );
    assert_eq!(texts(&rs), vec!["The Kite", "The Rock"]);
}

#[test]
fn fig1_gold_except_query() {
    let db = tv_db();
    let rs = run(
        &db,
        "SELECT country FROM tv_channel EXCEPT SELECT T1.country FROM tv_channel AS T1 JOIN \
         cartoon AS T2 ON T1.id = T2.channel WHERE T2.written_by = 'Todd Casey'",
    );
    // Todd Casey cartoons air on channels 1 (Italy) and 3 (UK) -> USA remains.
    assert_eq!(texts(&rs), vec!["USA"]);
}

#[test]
fn fig1_not_in_variant_differs_from_except() {
    let db = tv_db();
    // The NOT IN variant keeps duplicate country rows of channels without Todd
    // Casey cartoons: channel 2 (Italy) and 4 (USA) -> {Italy, USA}, a different
    // result than the gold EXCEPT query. This is the paper's core example of EX
    // false mismatch risk.
    let rs = run(
        &db,
        "SELECT country FROM tv_channel WHERE id NOT IN (SELECT channel FROM cartoon WHERE \
         written_by = 'Todd Casey')",
    );
    let mut got = texts(&rs);
    got.sort();
    assert_eq!(got, vec!["Italy", "USA"]);
}

#[test]
fn group_by_having_order_limit() {
    let db = tv_db();
    let rs = run(
        &db,
        "SELECT written_by, COUNT(*) FROM cartoon GROUP BY written_by HAVING COUNT(*) >= 2 \
         ORDER BY COUNT(*) DESC, written_by ASC LIMIT 1",
    );
    assert_eq!(texts(&rs), vec!["Joseph Kuhr|2"]);
}

#[test]
fn aggregates_over_all_rows() {
    let db = tv_db();
    let rs = run(&db, "SELECT COUNT(*), COUNT(DISTINCT country), MAX(id), MIN(id) FROM tv_channel");
    assert_eq!(texts(&rs), vec!["4|3|4|1"]);
}

#[test]
fn sum_avg_semantics() {
    let db = tv_db();
    let rs = run(&db, "SELECT SUM(id), AVG(id) FROM cartoon");
    assert_eq!(texts(&rs), vec!["10|2.5"]);
    // SUM over an empty relation is NULL, COUNT is 0.
    let rs = run(&db, "SELECT SUM(id), COUNT(*) FROM cartoon WHERE id > 100");
    assert_eq!(texts(&rs), vec!["NULL|0"]);
}

#[test]
fn sqlite_bare_column_with_max_returns_achieving_row() {
    let db = tv_db();
    let rs = run(&db, "SELECT title, MAX(id) FROM cartoon");
    assert_eq!(texts(&rs), vec!["The Star|4"]);
    let rs = run(&db, "SELECT title, MIN(id) FROM cartoon");
    assert_eq!(texts(&rs), vec!["The Ball|1"]);
}

#[test]
fn distinct_dedupes() {
    let db = tv_db();
    let rs = run(&db, "SELECT DISTINCT country FROM tv_channel");
    assert_eq!(rs.rows.len(), 3);
}

#[test]
fn union_and_intersect() {
    let db = tv_db();
    let rs = run(
        &db,
        "SELECT country FROM tv_channel WHERE language = 'English' UNION SELECT country FROM \
         tv_channel WHERE country = 'Italy'",
    );
    assert_eq!(rs.rows.len(), 3);
    let rs = run(
        &db,
        "SELECT country FROM tv_channel WHERE language = 'English' INTERSECT SELECT country \
         FROM tv_channel WHERE id = 4",
    );
    assert_eq!(texts(&rs), vec!["USA"]);
}

#[test]
fn scalar_subquery_comparison() {
    let db = tv_db();
    let rs = run(&db, "SELECT title FROM cartoon WHERE id > (SELECT AVG(id) FROM cartoon)");
    assert_eq!(texts(&rs), vec!["The Rock", "The Star"]);
}

#[test]
fn from_subquery_with_alias() {
    let db = tv_db();
    let rs = run(
        &db,
        "SELECT t.c FROM (SELECT channel, COUNT(*) AS c FROM cartoon GROUP BY channel) AS t \
         ORDER BY t.c DESC LIMIT 1",
    );
    assert_eq!(texts(&rs), vec!["2"]);
}

#[test]
fn order_by_select_alias() {
    let db = tv_db();
    let rs = run(
        &db,
        "SELECT channel, COUNT(*) AS cnt FROM cartoon GROUP BY channel ORDER BY cnt DESC LIMIT 1",
    );
    assert_eq!(texts(&rs), vec!["3|2"]);
}

#[test]
fn like_predicates() {
    let db = tv_db();
    let rs = run(&db, "SELECT title FROM cartoon WHERE title LIKE 'The %e'");
    assert_eq!(texts(&rs), vec!["The Kite"]);
    let rs = run(&db, "SELECT title FROM cartoon WHERE title NOT LIKE '%The%'");
    assert!(rs.rows.is_empty());
}

#[test]
fn between_and_or() {
    let db = tv_db();
    let rs = run(&db, "SELECT id FROM cartoon WHERE id BETWEEN 2 AND 3 OR id = 1 ORDER BY id ASC");
    assert_eq!(texts(&rs), vec!["1", "2", "3"]);
}

#[test]
fn select_star_expands_all_columns() {
    let db = tv_db();
    let rs = run(&db, "SELECT * FROM cartoon WHERE id = 1");
    assert_eq!(rs.columns, vec!["id", "title", "written_by", "channel"]);
    assert_eq!(rs.rows.len(), 1);
    let rs = run(&db, "SELECT * FROM tv_channel JOIN cartoon ON tv_channel.id = cartoon.channel");
    assert_eq!(rs.columns.len(), 8);
}

#[test]
fn comma_join_is_cartesian_until_filtered() {
    let db = tv_db();
    let rs = run(&db, "SELECT tv_channel.id FROM tv_channel, cartoon");
    assert_eq!(rs.rows.len(), 16);
    let rs = run(
        &db,
        "SELECT tv_channel.id FROM tv_channel, cartoon WHERE tv_channel.id = cartoon.channel",
    );
    assert_eq!(rs.rows.len(), 4);
}

#[test]
fn arithmetic_in_select_and_where() {
    let db = tv_db();
    let rs = run(&db, "SELECT id * 2 FROM cartoon WHERE id + 1 >= 4 ORDER BY id ASC");
    assert_eq!(texts(&rs), vec!["6", "8"]);
}

// --------------------------- error taxonomy -------------------------------

#[test]
fn table_column_mismatch_error() {
    let db = tv_db();
    let e =
        err(&db, "SELECT T2.title FROM cartoon AS T1 JOIN tv_channel AS T2 ON T1.channel = T2.id");
    match &e {
        ExecError::TableColumnMismatch { binding, column, correct_table } => {
            assert_eq!(binding, "T2");
            assert_eq!(column, "title");
            assert_eq!(correct_table.as_deref(), Some("t1"));
        }
        other => panic!("wrong error: {other:?}"),
    }
    assert_eq!(e.category(), "table-column-mismatch");
}

#[test]
fn ambiguous_column_error() {
    let db = tv_db();
    let e = err(&db, "SELECT id FROM tv_channel JOIN cartoon ON tv_channel.id = cartoon.channel");
    assert!(matches!(e, ExecError::AmbiguousColumn { ref column, .. } if column == "id"));
    assert_eq!(e.category(), "column-ambiguity");
}

#[test]
fn missing_table_error() {
    let db = tv_db();
    // `written_by` lives in cartoon, which is not in FROM.
    let e = err(&db, "SELECT series_name FROM tv_channel WHERE written_by = 'Todd Casey'");
    match e {
        ExecError::MissingTable { column, owner_table } => {
            assert_eq!(column, "written_by");
            assert_eq!(owner_table, "cartoon");
        }
        other => panic!("wrong error: {other:?}"),
    }
}

#[test]
fn unknown_column_and_table_errors() {
    let db = tv_db();
    assert!(matches!(
        err(&db, "SELECT nonexistent FROM tv_channel"),
        ExecError::UnknownColumn { .. }
    ));
    assert!(matches!(err(&db, "SELECT x FROM no_such_table"), ExecError::UnknownTable { .. }));
    assert_eq!(err(&db, "SELECT nonexistent FROM tv_channel").category(), "schema-hallucination");
}

#[test]
fn function_hallucination_error() {
    let db = tv_db();
    let e = err(&db, "SELECT CONCAT(series_name, ' ', country) FROM tv_channel");
    assert!(matches!(e, ExecError::UnknownFunction { ref name } if name == "CONCAT"));
    assert_eq!(e.category(), "function-hallucination");
}

#[test]
fn aggregation_hallucination_error() {
    let db = tv_db();
    let e = err(&db, "SELECT COUNT(DISTINCT series_name, country) FROM tv_channel");
    assert!(matches!(e, ExecError::AggregateArity { args: 2, .. }));
    assert_eq!(e.category(), "aggregation-hallucination");
}

#[test]
fn set_op_arity_error() {
    let db = tv_db();
    let e = err(&db, "SELECT id FROM cartoon UNION SELECT id, title FROM cartoon");
    assert!(matches!(e, ExecError::SetOpArity { left: 1, right: 2 }));
}

#[test]
fn errors_surface_even_on_empty_tables() {
    // Name resolution happens at compile time, like SQLite's prepare.
    let mut db = tv_db();
    db.rows[0].clear();
    db.rows[1].clear();
    assert!(matches!(
        err(&db, "SELECT nonexistent FROM tv_channel"),
        ExecError::UnknownColumn { .. }
    ));
    assert!(matches!(
        err(&db, "SELECT CONCAT(series_name) FROM tv_channel WHERE id = 1"),
        ExecError::UnknownFunction { .. }
    ));
}

#[test]
fn aggregate_in_where_is_rejected() {
    let db = tv_db();
    let e = err(&db, "SELECT id FROM cartoon WHERE COUNT(*) > 1");
    assert!(matches!(e, ExecError::Unsupported { .. }));
}

// --------------------------- result comparison ----------------------------

#[test]
fn same_result_multiset_vs_ordered() {
    let a = ResultSet {
        columns: vec!["x".into()],
        rows: vec![vec![Value::Int(1)], vec![Value::Int(2)]],
    };
    let b = ResultSet {
        columns: vec!["x".into()],
        rows: vec![vec![Value::Int(2)], vec![Value::Int(1)]],
    };
    assert!(a.same_result(&b, false));
    assert!(!a.same_result(&b, true));
}

#[test]
fn same_result_float_tolerance() {
    let a = ResultSet { columns: vec!["x".into()], rows: vec![vec![Value::Float(0.333333333)]] };
    let b = ResultSet { columns: vec!["x".into()], rows: vec![vec![Value::Float(0.333333334)]] };
    assert!(a.same_result(&b, true));
    let c = ResultSet { columns: vec!["x".into()], rows: vec![vec![Value::Float(0.34)]] };
    assert!(!a.same_result(&c, true));
}

#[test]
fn same_result_is_reflexive_on_every_cell_kind() {
    let f = Value::Float;
    let cells = [
        f(f64::NAN),
        f(-f64::NAN),
        f(f64::INFINITY),
        f(f64::NEG_INFINITY),
        f(-0.0),
        f(0.0),
        Value::Null,
        Value::Int(3),
        f(3.0),
        Value::Int(i64::MIN),
        Value::Text("x".into()),
    ];
    // Each kind alone, then all of them in one result whose rows mix Int and
    // Float cells that the unordered mode's sort ranks as equal.
    let mut results: Vec<ResultSet> = cells
        .iter()
        .map(|c| ResultSet { columns: vec!["x".into()], rows: vec![vec![c.clone()]] })
        .collect();
    results.push(ResultSet {
        columns: vec!["a".into(), "b".into()],
        rows: cells
            .iter()
            .zip(cells.iter().rev())
            .map(|(a, b)| vec![a.clone(), b.clone()])
            .chain([vec![Value::Int(3), f(f64::NAN)], vec![f(3.0), f(f64::NAN)]])
            .collect(),
    });
    for rs in &results {
        for ordered in [true, false] {
            assert!(rs.same_result(rs, ordered), "ordered={ordered}: {:?}", rs.rows);
            assert!(rs.same_result(&rs.clone(), ordered), "ordered={ordered}: {:?}", rs.rows);
        }
    }
}

#[test]
fn same_result_tolerance_off_the_diagonal() {
    let f = Value::Float;
    let one = |v: Value| ResultSet { columns: vec!["x".into()], rows: vec![vec![v]] };
    let close = |a: Value, b: Value| {
        let (a, b) = (one(a), one(b));
        let verdict = a.same_result(&b, true);
        assert_eq!(verdict, a.same_result(&b, false), "one row: both modes agree");
        verdict
    };
    assert!(close(f(0.0), f(-0.0)));
    assert!(close(Value::Int(1), f(1.0)));
    assert!(close(f(1.0), f(1.0 + 1e-9)));
    assert!(!close(f(1.0), f(1.0 + 1e-5)));
    assert!(!close(f(f64::NAN), f(1.0)));
    // NaNs with different bits stay apart: only identical bits short-cut the
    // tolerance test.
    assert!(!close(f(f64::NAN), f(-f64::NAN)));
    // An infinite cell is close only to itself: the relative bound would be
    // infinite, so the tolerance applies to finite pairs alone.
    assert!(!close(f(f64::INFINITY), f(1.0)));
    assert!(!close(f(f64::INFINITY), Value::Int(7)));
    assert!(!close(f(f64::INFINITY), f(f64::NEG_INFINITY)));
    assert!(!close(f(f64::MAX), f(f64::INFINITY)));
    assert!(!close(Value::Null, Value::Int(0)));
    assert!(!close(Value::Text("1".into()), Value::Int(1)));
}

#[test]
fn not_in_with_null_in_set_matches_sql_semantics() {
    let mut db = tv_db();
    // Insert a cartoon with NULL channel: NOT IN over a set containing NULL is
    // never true.
    db.insert(
        1,
        vec![Value::Int(9), Value::Text("X".into()), Value::Text("A".into()), Value::Null],
    );
    let rs =
        run(&db, "SELECT country FROM tv_channel WHERE id NOT IN (SELECT channel FROM cartoon)");
    assert!(rs.rows.is_empty());
}

#[test]
fn is_null_checks() {
    let mut db = tv_db();
    db.insert(1, vec![Value::Int(9), Value::Null, Value::Text("A".into()), Value::Null]);
    let rs = run(&db, "SELECT id FROM cartoon WHERE title IS NULL");
    assert_eq!(texts(&rs), vec!["9"]);
    let rs = run(&db, "SELECT COUNT(*) FROM cartoon WHERE channel IS NOT NULL");
    assert_eq!(texts(&rs), vec!["4"]);
}

#[test]
fn count_ignores_nulls_but_count_star_does_not() {
    let mut db = tv_db();
    db.insert(1, vec![Value::Int(9), Value::Null, Value::Text("A".into()), Value::Null]);
    let rs = run(&db, "SELECT COUNT(*), COUNT(title) FROM cartoon");
    assert_eq!(texts(&rs), vec!["5|4"]);
}

#[test]
fn order_by_is_stable_across_equal_keys() {
    let db = tv_db();
    let rs = run(&db, "SELECT title FROM cartoon ORDER BY written_by ASC");
    // Joseph Kuhr rows first (insertion order preserved within key), then Todd Casey.
    assert_eq!(texts(&rs), vec!["The Rock", "The Star", "The Ball", "The Kite"]);
}

#[test]
fn group_by_with_no_matching_rows_yields_empty() {
    let db = tv_db();
    let rs = run(&db, "SELECT country, COUNT(*) FROM tv_channel WHERE id > 99 GROUP BY country");
    assert!(rs.rows.is_empty());
}

#[test]
fn three_way_join() {
    let db = tv_db();
    let rs = run(
        &db,
        "SELECT COUNT(*) FROM tv_channel AS T1 JOIN cartoon AS T2 ON T1.id = T2.channel JOIN \
         tv_channel AS T3 ON T2.channel = T3.id",
    );
    assert_eq!(texts(&rs), vec!["4"]);
}

// --------------------------- EXPLAIN -------------------------------------

#[test]
fn explain_describes_plan_stages() {
    let db = tv_db();
    let plan = engine::explain(
        &db,
        &parse(
            "SELECT T1.country, COUNT(*) FROM tv_channel AS T1 JOIN cartoon AS T2 ON T1.id = \
             T2.channel WHERE T2.written_by = 'Todd Casey' GROUP BY T1.country ORDER BY \
             COUNT(*) DESC LIMIT 1",
        )
        .unwrap(),
    )
    .unwrap();
    assert!(plan.contains("SCAN tv_channel AS T1"), "{plan}");
    assert!(plan.contains("HASH JOIN cartoon AS T2"), "{plan}");
    assert!(plan.contains("FILTER (1 predicates)"), "{plan}");
    assert!(plan.contains("HASH AGGREGATE (1 keys)"), "{plan}");
    assert!(plan.contains("SORT (1 keys)"), "{plan}");
    assert!(plan.contains("LIMIT 1"), "{plan}");
}

#[test]
fn explain_names_join_and_group_strategies() {
    let db = tv_db();
    // Degenerate ON (both sides resolve left) forces the nested-loop fallback.
    let nested = engine::explain(
        &db,
        &parse("SELECT T1.id FROM tv_channel AS T1 JOIN cartoon AS T2 ON T1.id = T1.language")
            .unwrap(),
    )
    .unwrap();
    assert!(nested.contains("NESTED LOOP JOIN (degenerate ON)"), "{nested}");
    // A single aggregate without GROUP BY is one implicit group, not a hash.
    let single = engine::explain(&db, &parse("SELECT COUNT(*) FROM tv_channel").unwrap()).unwrap();
    assert!(single.contains("AGGREGATE (single group)"), "{single}");
    assert!(!single.contains("HASH AGGREGATE"), "{single}");
}

#[test]
fn explain_covers_set_ops_and_subqueries() {
    let db = tv_db();
    let plan = engine::explain(
        &db,
        &parse(
            "SELECT country FROM tv_channel WHERE id NOT IN (SELECT channel FROM cartoon) \
             EXCEPT SELECT country FROM tv_channel WHERE language = 'English'",
        )
        .unwrap(),
    )
    .unwrap();
    assert!(plan.contains("SUBQUERY"), "{plan}");
    assert!(plan.contains("EXCEPT"), "{plan}");
    let cartesian =
        engine::explain(&db, &parse("SELECT tv_channel.id FROM tv_channel, cartoon").unwrap())
            .unwrap();
    assert!(cartesian.contains("CARTESIAN"), "{cartesian}");
}

#[test]
fn explain_errors_match_execute_compile_errors() {
    let db = tv_db();
    let bad = parse("SELECT nonexistent FROM tv_channel").unwrap();
    assert!(matches!(engine::explain(&db, &bad), Err(ExecError::UnknownColumn { .. })));
    let bad_fn = parse("SELECT CONCAT(series_name, country) FROM tv_channel").unwrap();
    assert!(matches!(engine::explain(&db, &bad_fn), Err(ExecError::UnknownFunction { .. })));
}

// --------------------------- dialect scalar functions --------------------

#[test]
fn sqlite_scalar_functions_evaluate() {
    let db = tv_db();
    let rs = run(&db, "SELECT UPPER(country) FROM tv_channel WHERE id = 1");
    assert_eq!(texts(&rs), vec!["ITALY"]);
    let rs = run(&db, "SELECT LENGTH(series_name) FROM tv_channel WHERE id = 3");
    assert_eq!(texts(&rs), vec!["4"]);
    let rs = run(&db, "SELECT SUBSTR(series_name, 1, 3) FROM tv_channel WHERE id = 1");
    assert_eq!(texts(&rs), vec!["Sky"]);
    // Functions inside WHERE predicates work too.
    let rs = run(&db, "SELECT id FROM tv_channel WHERE LENGTH(country) = 2");
    assert_eq!(texts(&rs), vec!["3"]);
}

#[test]
fn mysql_dialect_enables_concat() {
    let db = tv_db().with_dialect(engine::Dialect::mysql());
    let rs = run(&db, "SELECT CONCAT(series_name, ' / ', country) FROM tv_channel WHERE id = 4");
    assert_eq!(texts(&rs), vec!["Nick / USA"]);
}

#[test]
fn wrong_scalar_arity_is_rejected() {
    let db = tv_db();
    let e = err(&db, "SELECT LENGTH(series_name, country) FROM tv_channel");
    assert!(matches!(e, ExecError::Unsupported { .. }), "{e:?}");
}
