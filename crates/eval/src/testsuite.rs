//! Test-Suite (TS) accuracy — a reimplementation of Zhong, Yu & Klein's distilled
//! test suites (EMNLP 2020), which the paper uses as its third metric (§V-A2).
//!
//! For each benchmark database we fuzz many random instances of the same schema,
//! then *distill*: keep only instances that distinguish some gold query from one of
//! its near-miss mutants ("neighbor queries"). TS accuracy then requires the
//! prediction to match the gold query's results on **every** instance in the suite,
//! which strips away the coincidental-equality false positives of single-database EX.
//!
//! A prediction that prints as its gold query matches without running the suite:
//! print-equal queries share one execution-cache key, so every instance would
//! compare a result with itself, and [`engine::ResultSet::same_result`] is
//! reflexive (DESIGN.md §10).

use engine::{execute, order_matters, Database, ExecSession, Value};
use rand::prelude::*;
use rand::rngs::StdRng;
use sqlkit::ast::*;
use sqlkit::{ColumnType, Query};

/// A distilled test suite for one database: the original instance plus
/// distinguishing fuzzed instances.
#[derive(Debug, Clone)]
pub struct TestSuite {
    /// Database instances sharing the schema.
    pub databases: Vec<Database>,
}

/// Configuration for suite construction.
#[derive(Debug, Clone, Copy)]
pub struct SuiteConfig {
    /// Random instances to fuzz before distillation (the paper's pipeline uses a
    /// 100-fold augmentation; we default lower for wall-clock and let the bench
    /// harness raise it).
    pub candidates: usize,
    /// Maximum instances kept (including the original).
    pub max_kept: usize,
    /// Gold queries sampled to drive distillation.
    pub probe_queries: usize,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig { candidates: 24, max_kept: 8, probe_queries: 24 }
    }
}

/// Build a distilled suite for `db`, using `gold_queries` from the benchmark as
/// distillation probes.
pub fn build_suite(
    db: &Database,
    gold_queries: &[&Query],
    cfg: SuiteConfig,
    seed: u64,
) -> TestSuite {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut kept = vec![db.clone()];

    // Sample probes and their neighbors.
    let mut probes: Vec<&Query> = gold_queries.to_vec();
    probes.shuffle(&mut rng);
    probes.truncate(cfg.probe_queries);
    let neighbors: Vec<(usize, Query)> = probes
        .iter()
        .enumerate()
        .flat_map(|(i, q)| mutate(q, &mut rng).into_iter().map(move |m| (i, m)))
        .collect();

    // A neighbor is "alive" while no kept instance distinguishes it from its gold.
    let mut alive: Vec<bool> =
        neighbors.iter().map(|(i, m)| !distinguishes(db, probes[*i], m)).collect();

    for _ in 0..cfg.candidates {
        if kept.len() >= cfg.max_kept || !alive.iter().any(|a| *a) {
            break;
        }
        let candidate = fuzz_instance(db, &mut rng);
        // Instances where some gold probe errors are useless: gold must stay valid.
        if probes.iter().any(|q| execute(&candidate, q).is_err()) {
            continue;
        }
        let mut killed_any = false;
        for (k, (i, m)) in neighbors.iter().enumerate() {
            if alive[k] && distinguishes(&candidate, probes[*i], m) {
                alive[k] = false;
                killed_any = true;
            }
        }
        if killed_any {
            kept.push(candidate);
        }
    }
    TestSuite { databases: kept }
}

/// TS accuracy check: the prediction must produce the gold result on every
/// instance of the suite (gold executing successfully on all of them by
/// construction).
///
/// Every suite instance is bound to `session`, so gold executions (one per
/// instance) are memoized across all predictions scored against the same
/// suite; pass [`ExecSession::disabled`] to run uncached, with the same
/// verdict.
///
/// A prediction that prints as the gold query matches without executing
/// anything. The verdict is already fixed: print-equal queries share one
/// session cache key, so on every instance the loop would compare a result
/// with itself, and [`engine::ResultSet::same_result`] is reflexive.
pub fn ts_match(session: &ExecSession, pred: &Query, gold: &Query, suite: &TestSuite) -> bool {
    if pred.to_string() == gold.to_string() {
        return true;
    }
    let ordered = order_matters(gold);
    for db in &suite.databases {
        let sdb = session.bind(db);
        let Ok(gold_rs) = sdb.execute(gold) else {
            continue;
        };
        let Ok(pred_rs) = sdb.execute(pred) else {
            return false;
        };
        if !pred_rs.same_result(&gold_rs, ordered) {
            return false;
        }
    }
    true
}

fn distinguishes(db: &Database, gold: &Query, neighbor: &Query) -> bool {
    let ordered = order_matters(gold);
    match (execute(db, gold), execute(db, neighbor)) {
        (Ok(g), Ok(n)) => !g.same_result(&n, ordered),
        (Ok(_), Err(_)) => true,
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Fuzzing
// ---------------------------------------------------------------------------

/// Produce a random instance of `db`'s schema: row counts and values re-sampled
/// from the observed per-column domains (plus fresh values), with referential
/// integrity maintained along the schema's foreign keys.
pub fn fuzz_instance(db: &Database, rng: &mut StdRng) -> Database {
    let schema = db.schema.clone();
    let mut out = Database::empty(schema);
    // Pre-draw row counts.
    let counts: Vec<usize> = db
        .rows
        .iter()
        .map(|rows| {
            let base = rows.len().max(2);
            rng.random_range(1..=base + base / 2)
        })
        .collect();
    for ti in 0..db.schema.tables.len() {
        let table = &out.schema.tables[ti].clone();
        for row_index in 0..counts[ti] {
            let mut row: Vec<Value> = Vec::with_capacity(table.columns.len());
            for ci in 0..table.columns.len() {
                // Foreign key columns reference the (sequential) parent ids.
                if let Some(fk) = out
                    .schema
                    .foreign_keys
                    .iter()
                    .find(|f| f.from.table == ti && f.from.column == ci)
                {
                    let parent_count = counts[fk.to.table] as i64;
                    row.push(Value::Int(rng.random_range(1..=parent_count.max(1))));
                    continue;
                }
                if out.schema.tables[ti].primary_key == Some(ci) {
                    row.push(Value::Int(row_index as i64 + 1));
                    continue;
                }
                row.push(fuzz_value(db, ti, ci, rng));
            }
            out.insert(ti, row);
        }
    }
    out
}

fn fuzz_value(db: &Database, ti: usize, ci: usize, rng: &mut StdRng) -> Value {
    let observed: Vec<&Value> =
        db.rows[ti].iter().map(|r| &r[ci]).filter(|v| !v.is_null()).collect();
    let ty = db.schema.tables[ti].columns[ci].ty;
    // Mostly resample observed values (so equality predicates keep selecting), with
    // occasional novel values and NULLs to perturb boundaries.
    let roll: f64 = rng.random();
    if roll < 0.70 {
        if let Some(v) = observed.choose(rng) {
            return (*v).clone();
        }
    }
    if roll > 0.96 {
        return Value::Null;
    }
    match ty {
        ColumnType::Int => {
            let (lo, hi) = observed
                .iter()
                .filter_map(|v| v.as_f64())
                .fold((0.0f64, 10.0f64), |(lo, hi), x| (lo.min(x), hi.max(x)));
            Value::Int(rng.random_range(lo as i64..=(hi as i64 + 2)))
        }
        ColumnType::Float => {
            let (lo, hi) = observed
                .iter()
                .filter_map(|v| v.as_f64())
                .fold((0.0f64, 10.0f64), |(lo, hi), x| (lo.min(x), hi.max(x)));
            Value::Float((rng.random_range(lo..hi + 1.0) * 100.0).round() / 100.0)
        }
        ColumnType::Text => match observed.choose(rng) {
            Some(v) => (*v).clone(),
            None => Value::Text(format!("v{}", rng.random_range(0..100))),
        },
    }
}

// ---------------------------------------------------------------------------
// Neighbor-query mutations
// ---------------------------------------------------------------------------

/// Generate near-miss mutants of a query: the "neighbor queries" against which the
/// suite is distilled.
pub fn mutate(q: &Query, rng: &mut StdRng) -> Vec<Query> {
    let mut out = Vec::new();
    // Toggle SELECT DISTINCT.
    {
        let mut m = q.clone();
        m.core.distinct = !m.core.distinct;
        out.push(m);
    }
    // Flip a comparison operator in WHERE.
    if let Some(w) = &q.core.where_clause {
        let preds = w.num_predicates();
        for k in 0..preds.min(2) {
            let mut m = q.clone();
            if let Some(cond) = &mut m.core.where_clause {
                let mut idx = 0;
                flip_pred(cond, k, &mut idx);
            }
            out.push(m);
        }
        // Drop WHERE entirely.
        let mut m = q.clone();
        m.core.where_clause = None;
        out.push(m);
    }
    // Reverse ORDER BY direction / drop LIMIT.
    if !q.core.order_by.is_empty() {
        let mut m = q.clone();
        for o in &mut m.core.order_by {
            o.dir = match o.dir {
                OrderDir::Asc => OrderDir::Desc,
                OrderDir::Desc => OrderDir::Asc,
            };
        }
        out.push(m);
    }
    if q.core.limit.is_some() {
        let mut m = q.clone();
        m.core.limit = m.core.limit.map(|n| n + 1);
        out.push(m);
    }
    // Swap the set operator / replace EXCEPT with NOT IN-free plain select.
    if let Some((op, _)) = &q.compound {
        let mut m = q.clone();
        let new_op = match op {
            SetOp::Except => SetOp::Intersect,
            SetOp::Intersect => SetOp::Union,
            SetOp::Union => SetOp::Intersect,
        };
        m.compound.as_mut().expect("checked").0 = new_op;
        out.push(m);
        let mut m2 = q.clone();
        m2.compound = None;
        out.push(m2);
    }
    // Change aggregate function on the first aggregated select item.
    if let Some(pos) = q.core.items.iter().position(|i| i.expr.func.is_some()) {
        let mut m = q.clone();
        let f = m.core.items[pos].expr.func.expect("checked");
        m.core.items[pos].expr.func = Some(match f {
            AggFunc::Count => AggFunc::Max,
            AggFunc::Max => AggFunc::Min,
            AggFunc::Min => AggFunc::Max,
            AggFunc::Sum => AggFunc::Avg,
            AggFunc::Avg => AggFunc::Sum,
        });
        out.push(m);
    }
    out.shuffle(rng);
    out.truncate(4);
    out
}

fn flip_pred(c: &mut Condition, target: usize, idx: &mut usize) {
    match c {
        Condition::And(l, r) | Condition::Or(l, r) => {
            flip_pred(l, target, idx);
            flip_pred(r, target, idx);
        }
        Condition::Pred(p) => {
            if *idx == target {
                p.op = match p.op {
                    CmpOp::Eq => CmpOp::Ne,
                    CmpOp::Ne => CmpOp::Eq,
                    CmpOp::Lt => CmpOp::Ge,
                    CmpOp::Le => CmpOp::Gt,
                    CmpOp::Gt => CmpOp::Le,
                    CmpOp::Ge => CmpOp::Lt,
                    CmpOp::Like => CmpOp::NotLike,
                    CmpOp::NotLike => CmpOp::Like,
                    CmpOp::In => CmpOp::NotIn,
                    CmpOp::NotIn => CmpOp::In,
                    CmpOp::Between => CmpOp::Between,
                };
            }
            *idx += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlkit::{parse, Column, Schema, Table};

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
    fn suite_distinguishes_coincidental_ex_matches() {
        let db = db();
        let gold = parse("SELECT name FROM t WHERE id < 3").unwrap();
        let coincident = parse("SELECT name FROM t WHERE grp = 'x'").unwrap();
        // EX-equal on the original instance:
        let session = ExecSession::disabled();
        assert!(crate::metrics::ex_match(&session.bind(&db), &coincident, &gold));
        // Distillation keeps instances until every neighbor of a probe dies,
        // and `grp = 'x'` is no neighbor of `id < 3`: whether one suite
        // separates the two depends on its seed, so the claim is a rate. Over
        // seeds 0..200 the suites separate them 162 times.
        let cfg = SuiteConfig { candidates: 60, max_kept: 12, probe_queries: 8 };
        let mut separated = 0;
        for seed in 0..200 {
            let suite = build_suite(&db, &[&gold, &coincident], cfg, seed);
            assert!(suite.databases.len() > 1, "seed {seed}: distillation kept no fuzzed instance");
            assert!(ts_match(&session, &gold, &gold, &suite));
            separated += usize::from(!ts_match(&session, &coincident, &gold, &suite));
        }
        assert!(separated >= 140, "suites separated the coincident query on {separated}/200 seeds");
    }

    #[test]
    fn ts_is_at_most_ex() {
        // Anything failing EX on the original instance fails TS too (instance 0 is
        // always in the suite).
        let db = db();
        let gold = parse("SELECT name FROM t").unwrap();
        let wrong = parse("SELECT grp FROM t WHERE id = 1").unwrap();
        let suite = build_suite(&db, &[&gold], SuiteConfig::default(), 7);
        let session = ExecSession::disabled();
        assert!(!crate::metrics::ex_match(&session.bind(&db), &wrong, &gold));
        assert!(!ts_match(&session, &wrong, &gold, &suite));
    }

    #[test]
    fn session_ts_agrees_with_direct_ts() {
        let db = db();
        let gold = parse("SELECT name FROM t WHERE id < 3").unwrap();
        let coincident = parse("SELECT name FROM t WHERE grp = 'x'").unwrap();
        let suite = build_suite(
            &db,
            &[&gold, &coincident],
            SuiteConfig { candidates: 60, max_kept: 12, probe_queries: 8 },
            1234,
        );
        let session = ExecSession::shared();
        let uncached = ExecSession::disabled();
        // Two rewrites of the gold that print differently but match it on
        // every instance (ids are integer primary keys from 1), so each walks
        // the whole suite.
        for pred in
            ["SELECT name FROM t WHERE id <= 2", "SELECT name FROM t WHERE id BETWEEN 1 AND 2"]
        {
            let pred = parse(pred).unwrap();
            assert_ne!(pred.to_string(), gold.to_string());
            assert!(ts_match(&session, &pred, &gold, &suite), "{pred}");
            assert!(ts_match(&uncached, &pred, &gold, &suite), "{pred}");
        }
        // The gold executions were cached per suite instance on the first call
        // and reused for the second prediction; each prediction ran once per
        // instance.
        let n = suite.databases.len() as u64;
        let result = session.stats().result;
        assert_eq!((result.misses, result.hits), (3 * n, n));
        assert_eq!(
            ts_match(&session, &coincident, &gold, &suite),
            ts_match(&uncached, &coincident, &gold, &suite)
        );
    }

    #[test]
    fn fuzzed_instances_preserve_schema_and_fk_integrity() {
        let mut s = Schema::new("d");
        s.tables.push(Table {
            name: "parent".into(),
            display: "parent".into(),
            columns: vec![Column::new("id", ColumnType::Int)],
            primary_key: Some(0),
        });
        s.tables.push(Table {
            name: "child".into(),
            display: "child".into(),
            columns: vec![Column::new("id", ColumnType::Int), Column::new("pid", ColumnType::Int)],
            primary_key: Some(0),
        });
        s.foreign_keys.push(sqlkit::ForeignKey {
            from: sqlkit::ColumnId { table: 1, column: 1 },
            to: sqlkit::ColumnId { table: 0, column: 0 },
        });
        let mut db = Database::empty(s);
        db.insert(0, vec![Value::Int(1)]);
        db.insert(0, vec![Value::Int(2)]);
        db.insert(1, vec![Value::Int(1), Value::Int(2)]);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let f = fuzz_instance(&db, &mut rng);
            assert_eq!(f.schema, db.schema);
            let parents = f.rows[0].len() as i64;
            for row in &f.rows[1] {
                if let Value::Int(p) = row[1] {
                    assert!(p >= 1 && p <= parents, "dangling fk after fuzz");
                }
            }
        }
    }

    #[test]
    fn mutants_differ_from_original() {
        let mut rng = StdRng::seed_from_u64(5);
        let q = parse(
            "SELECT DISTINCT name FROM t WHERE id > 1 AND grp = 'x' ORDER BY id DESC LIMIT 2",
        )
        .unwrap();
        let ms = mutate(&q, &mut rng);
        assert!(!ms.is_empty());
        for m in &ms {
            assert_ne!(*m, q, "mutant identical to original");
        }
    }

    #[test]
    fn mutants_cover_set_operators() {
        let mut rng = StdRng::seed_from_u64(5);
        let q = parse("SELECT name FROM t EXCEPT SELECT name FROM t WHERE grp = 'x'").unwrap();
        let ms = mutate(&q, &mut rng);
        assert!(ms
            .iter()
            .any(|m| m.compound.is_none() || m.compound.as_ref().unwrap().0 != SetOp::Except));
    }
}
