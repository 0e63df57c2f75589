//! The SQL-writing backend of the simulated LLM: starts from the understood
//! intent (the gold AST — see DESIGN.md's substitution table), chooses an operator
//! composition (gold or a near-miss per the composition coin), then layers in the
//! error processes every real LLM exhibits: schema-linking slips, wrong constants,
//! and the six hallucination categories of Table 2.

use crate::profile::LlmProfile;
use crate::rewrites::near_miss;
use engine::{Database, Value};
use rand::prelude::*;
use rand::rngs::StdRng;
use sqlkit::ast::*;
use sqlkit::Query;

/// Produce one SQL sample.
#[allow(clippy::too_many_arguments)]
pub fn write_sample(
    profile: &LlmProfile,
    gold: &Query,
    db: &Database,
    linking_noise: f64,
    schema_pruned: bool,
    composition_ok: bool,
    rng: &mut StdRng,
) -> String {
    let mut q = if composition_ok {
        gold.clone()
    } else {
        let uncached = engine::ExecSession::new(0);
        near_miss(gold, &uncached.bind(db), profile.equivalent_bias, rng)
            .unwrap_or_else(|| gold.clone())
    };
    let link_factor = if schema_pruned { profile.pruned_linking_factor } else { 1.0 };
    let p_link = ((profile.linking_error + linking_noise) * link_factor).min(0.9);
    if rng.random_bool(p_link) {
        inject_linking_slip(&mut q, db, rng);
    }
    if rng.random_bool(profile.value_error) {
        inject_value_error(&mut q, db, rng);
    }
    let p_h = profile.halluc_rate * if schema_pruned { profile.pruned_halluc_factor } else { 1.0 };
    if rng.random_bool(p_h) {
        inject_hallucination(&mut q, db, rng);
    }
    q.to_string()
}

/// Resolve which schema table a column reference binds to in this query.
fn owning_table(q: &Query, col: &ColumnRef, db: &Database) -> Option<usize> {
    if let Some(t) = &col.table {
        // Alias or table name.
        for tr in q.core.from.table_refs() {
            if let TableRef::Named { name, alias } = tr {
                let binding = alias.as_deref().unwrap_or(name);
                if binding.eq_ignore_ascii_case(t) {
                    return db.schema.table_index(name);
                }
            }
        }
        return db.schema.table_index(t);
    }
    for tr in q.core.from.table_refs() {
        if let TableRef::Named { name, .. } = tr {
            if let Some(ti) = db.schema.table_index(name) {
                if db.schema.tables[ti].column_index(&col.column).is_some() {
                    return Some(ti);
                }
            }
        }
    }
    None
}

/// Swap one referenced column for a sibling column of the same table — an
/// executable but semantically wrong schema-linking slip.
pub fn inject_linking_slip(q: &mut Query, db: &Database, rng: &mut StdRng) -> bool {
    // Prefer slipping a select column; fall back to a where column.
    let candidates: Vec<usize> = (0..q.core.items.len()).collect();
    for idx in candidates {
        let ValUnit::Column(c) = &q.core.items[idx].expr.unit else {
            continue;
        };
        let Some(ti) = owning_table(q, c, db) else {
            continue;
        };
        let table = &db.schema.tables[ti];
        let current = c.column.to_ascii_lowercase();
        let siblings: Vec<&str> = table
            .columns
            .iter()
            .map(|col| col.name.as_str())
            .filter(|n| !n.eq_ignore_ascii_case(&current))
            .collect();
        if let Some(new_name) = siblings.choose(rng) {
            if let ValUnit::Column(c) = &mut q.core.items[idx].expr.unit {
                c.column = new_name.to_string();
            }
            return true;
        }
    }
    false
}

/// Perturb one constant in the WHERE clause: wrong value, right shape.
pub fn inject_value_error(q: &mut Query, db: &Database, rng: &mut StdRng) -> bool {
    let Some(w) = &mut q.core.where_clause else {
        return false;
    };
    fn has_literal(c: &Condition) -> bool {
        match c {
            Condition::And(l, r) | Condition::Or(l, r) => has_literal(l) || has_literal(r),
            Condition::Pred(p) => matches!(p.right, Operand::Literal(_)),
        }
    }
    fn first_literal_pred(c: &mut Condition) -> Option<&mut Predicate> {
        match c {
            Condition::And(l, r) | Condition::Or(l, r) => {
                if has_literal(l) {
                    first_literal_pred(l)
                } else {
                    first_literal_pred(r)
                }
            }
            Condition::Pred(p) => {
                if matches!(p.right, Operand::Literal(_)) {
                    Some(p)
                } else {
                    None
                }
            }
        }
    }
    let Some(pred) = first_literal_pred(w) else {
        return false;
    };
    let Operand::Literal(lit) = &mut pred.right else {
        return false;
    };
    *lit = match lit.clone() {
        Literal::Int(i) => Literal::Int(i + if rng.random_bool(0.5) { 1 } else { -1 }),
        Literal::Float(x) => Literal::Float(x * 1.1 + 1.0),
        Literal::Str(s) => {
            // Pick a different observed value for the same column when possible.
            let mut replacement = None;
            if let ValUnit::Column(c) = &pred.left.unit {
                'outer: for (ti, t) in db.schema.tables.iter().enumerate() {
                    if let Some(ci) = t.column_index(&c.column) {
                        for v in db.sample_values(ti, ci, 8) {
                            if let Value::Text(other) = v {
                                if other != s {
                                    replacement = Some(other);
                                    break 'outer;
                                }
                            }
                        }
                    }
                }
            }
            Literal::Str(replacement.unwrap_or_else(|| format!("{s}x")))
        }
        Literal::Null => Literal::Null,
    };
    true
}

/// Inject one of the six Table-2 hallucinations, trying applicable injectors in
/// random order. Returns the category label, or `None` when the query shape admits
/// no injection.
pub fn inject_hallucination(
    q: &mut Query,
    db: &Database,
    rng: &mut StdRng,
) -> Option<&'static str> {
    type Injector = fn(&mut Query, &Database, &mut StdRng) -> Option<&'static str>;
    let mut injectors: Vec<Injector> = vec![
        inject_function_halluc,
        inject_agg_multi,
        inject_schema_col,
        inject_wrong_qualifier,
        inject_ambiguity,
        inject_missing_table,
    ];
    injectors.shuffle(rng);
    for inj in injectors {
        if let Some(label) = inj(q, db, rng) {
            return Some(label);
        }
    }
    None
}

/// `SELECT name ...` → `SELECT CONCAT(name, ' ', other) ...` (Function-Hallucination).
pub fn inject_function_halluc(
    q: &mut Query,
    db: &Database,
    _rng: &mut StdRng,
) -> Option<&'static str> {
    for idx in 0..q.core.items.len() {
        let item = &q.core.items[idx];
        let ValUnit::Column(c) = &item.expr.unit else {
            continue;
        };
        if item.expr.func.is_some() {
            continue;
        }
        let ti = owning_table(q, c, db)?;
        let table = &db.schema.tables[ti];
        let other = table
            .columns
            .iter()
            .find(|col| {
                col.ty == sqlkit::ColumnType::Text && !col.name.eq_ignore_ascii_case(&c.column)
            })?
            .name
            .clone();
        let col = c.clone();
        q.core.items[idx].expr.unit = ValUnit::Func {
            name: "CONCAT".into(),
            args: vec![
                ValUnit::Column(col),
                ValUnit::Literal(Literal::Str(" ".into())),
                ValUnit::Column(ColumnRef::bare(other)),
            ],
        };
        return Some("function-hallucination");
    }
    None
}

/// `COUNT(DISTINCT a)` → `COUNT(DISTINCT a, b)` (Aggregation-Hallucination).
pub fn inject_agg_multi(q: &mut Query, db: &Database, _rng: &mut StdRng) -> Option<&'static str> {
    // Clone the column list up-front to appease the borrow checker.
    for idx in 0..q.core.items.len() {
        let item = &q.core.items[idx];
        if item.expr.func != Some(AggFunc::Count) || matches!(item.expr.unit, ValUnit::Star) {
            continue;
        }
        let ValUnit::Column(c) = &item.expr.unit else {
            continue;
        };
        let ti = owning_table(q, c, db)?;
        let other = db.schema.tables[ti]
            .columns
            .iter()
            .find(|col| !col.name.eq_ignore_ascii_case(&c.column))?
            .name
            .clone();
        q.core.items[idx].expr.extra_args.push(ValUnit::Column(ColumnRef::bare(other)));
        return Some("aggregation-hallucination");
    }
    None
}

/// Mangle a column name into a near-miss identifier (Schema-Hallucination).
pub fn inject_schema_col(q: &mut Query, db: &Database, rng: &mut StdRng) -> Option<&'static str> {
    for item in &mut q.core.items {
        let ValUnit::Column(c) = &mut item.expr.unit else {
            continue;
        };
        let mangled = if rng.random_bool(0.5) {
            format!("{}s", c.column)
        } else {
            format!("{}_value", c.column)
        };
        // A near-miss that lexes as a keyword (`a` → `as`) would break the
        // parse, not schema linking; the `_value` suffix never collides.
        let mangled = if sqlkit::lexer::KEYWORDS.iter().any(|k| k.eq_ignore_ascii_case(&mangled)) {
            format!("{}_value", c.column)
        } else {
            mangled
        };
        // Only inject when the mangled name really does not exist.
        if db.schema.tables.iter().any(|t| t.column_index(&mangled).is_some()) {
            continue;
        }
        c.column = mangled;
        return Some("schema-hallucination");
    }
    None
}

/// In a join, move a column to the wrong alias (Table-Column-Mismatch).
pub fn inject_wrong_qualifier(
    q: &mut Query,
    db: &Database,
    _rng: &mut StdRng,
) -> Option<&'static str> {
    if q.core.from.joins.is_empty() {
        return None;
    }
    let bindings: Vec<String> = q
        .core
        .from
        .table_refs()
        .iter()
        .filter_map(|tr| tr.binding_name().map(str::to_string))
        .collect();
    if bindings.len() < 2 {
        return None;
    }
    // Table names for checking "breaks": map binding -> schema table.
    let table_of = |b: &str| -> Option<usize> {
        for tr in q.core.from.table_refs() {
            if let TableRef::Named { name, alias } = tr {
                if alias.as_deref().unwrap_or(name).eq_ignore_ascii_case(b) {
                    return db.schema.table_index(name);
                }
            }
        }
        None
    };
    for item in &mut q.core.items {
        let ValUnit::Column(c) = &mut item.expr.unit else {
            continue;
        };
        let Some(current) = c.table.clone() else {
            continue;
        };
        for other in &bindings {
            if other.eq_ignore_ascii_case(&current) {
                continue;
            }
            if let Some(ti) = table_of(other) {
                if db.schema.tables[ti].column_index(&c.column).is_none() {
                    c.table = Some(other.clone());
                    return Some("table-column-mismatch");
                }
            }
        }
    }
    None
}

/// Drop the qualifier from a column present in several joined tables
/// (Column-Ambiguity).
pub fn inject_ambiguity(q: &mut Query, db: &Database, _rng: &mut StdRng) -> Option<&'static str> {
    if q.core.from.joins.is_empty() {
        return None;
    }
    let from_tables: Vec<usize> = q
        .core
        .from
        .table_refs()
        .iter()
        .filter_map(|tr| match tr {
            TableRef::Named { name, .. } => db.schema.table_index(name),
            _ => None,
        })
        .collect();
    let ambiguous = |col: &str| {
        from_tables.iter().filter(|ti| db.schema.tables[**ti].column_index(col).is_some()).count()
            > 1
    };
    for item in &mut q.core.items {
        let ValUnit::Column(c) = &mut item.expr.unit else {
            continue;
        };
        if c.table.is_some() && ambiguous(&c.column) {
            c.table = None;
            return Some("column-ambiguity");
        }
    }
    // Join keys are the usual ambiguity victims.
    for j in &mut q.core.from.joins {
        for (l, r) in &mut j.on {
            for c in [&mut *l, &mut *r] {
                if c.table.is_some() && ambiguous(&c.column) {
                    c.table = None;
                    return Some("column-ambiguity");
                }
            }
        }
    }
    None
}

/// Remove a join but keep table-qualified references to the removed table
/// (Missing-Table). The adaption fixer re-joins it via the FK path, recovering the
/// original query.
pub fn inject_missing_table(
    q: &mut Query,
    db: &Database,
    _rng: &mut StdRng,
) -> Option<&'static str> {
    if q.core.from.joins.len() != 1 {
        return None;
    }
    let join = q.core.from.joins[0].clone();
    let TableRef::Named { name: removed_name, alias: removed_alias } = &join.table else {
        return None;
    };
    let removed_binding = removed_alias.as_deref().unwrap_or(removed_name).to_string();
    // Requalify references to the removed binding with the real table name, so the
    // engine reports MissingTable rather than UnknownTable.
    let rename = |c: &mut ColumnRef| {
        if c.table.as_deref().map(|t| t.eq_ignore_ascii_case(&removed_binding)) == Some(true) {
            c.table = Some(removed_name.clone());
        }
    };
    let mut touched = false;
    if let Some(w) = &mut q.core.where_clause {
        fn walk(c: &mut Condition, f: &impl Fn(&mut ColumnRef), touched: &mut bool) {
            match c {
                Condition::And(l, r) | Condition::Or(l, r) => {
                    walk(l, f, touched);
                    walk(r, f, touched);
                }
                Condition::Pred(p) => {
                    if let ValUnit::Column(col) = &mut p.left.unit {
                        f(col);
                        *touched = true;
                    }
                }
            }
        }
        walk(w, &rename, &mut touched);
    }
    if !touched {
        return None;
    }
    // A WHERE predicate must actually reference the removed table, otherwise the
    // result is valid SQL and not a hallucination.
    let references_removed = q
        .core
        .where_clause
        .as_ref()
        .map(|w| {
            w.flatten().iter().any(|(p, _)| {
                matches!(&p.left.unit, ValUnit::Column(c)
                    if c.table.as_deref().map(|t| t.eq_ignore_ascii_case(removed_name)) == Some(true))
            })
        })
        .unwrap_or(false);
    if !references_removed {
        return None;
    }
    let _ = db;
    q.core.from.joins.clear();
    // Select columns qualified with the *kept* alias lose their alias binding when
    // the first table keeps its alias; leave them — they still resolve.
    Some("missing-table")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sqlkit::{parse, Column, ColumnId, ColumnType, ForeignKey, Schema, Table};

    fn db() -> Database {
        let mut s = Schema::new("tvdb");
        s.tables.push(Table {
            name: "tv_channel".into(),
            display: "tv channel".into(),
            columns: vec![
                Column::new("id", ColumnType::Int),
                Column::new("series_name", ColumnType::Text),
                Column::new("country", ColumnType::Text),
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
        let mut d = Database::empty(s);
        d.insert(0, vec![Value::Int(1), Value::Text("Sky".into()), Value::Text("Italy".into())]);
        d.insert(0, vec![Value::Int(2), Value::Text("Rai".into()), Value::Text("USA".into())]);
        d.insert(
            1,
            vec![
                Value::Int(1),
                Value::Text("Ball".into()),
                Value::Text("Todd".into()),
                Value::Int(1),
            ],
        );
        d
    }

    #[test]
    fn linking_slip_swaps_a_select_column() {
        let db = db();
        let mut q = parse("SELECT country FROM tv_channel WHERE id = 1").unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(inject_linking_slip(&mut q, &db, &mut rng));
        let text = q.to_string();
        assert!(!text.starts_with("SELECT country"), "{text}");
        // Still executes.
        engine::execute(&db, &q).unwrap();
    }

    #[test]
    fn value_error_changes_constant_only() {
        let db = db();
        let mut q = parse("SELECT country FROM tv_channel WHERE series_name = 'Sky'").unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        assert!(inject_value_error(&mut q, &db, &mut rng));
        let text = q.to_string();
        assert!(!text.contains("'Sky'"), "{text}");
        engine::execute(&db, &q).unwrap();
    }

    #[test]
    fn each_hallucination_category_produces_its_engine_error() {
        let db = db();
        let mut rng = StdRng::seed_from_u64(3);

        let mut q = parse("SELECT series_name FROM tv_channel").unwrap();
        assert_eq!(inject_function_halluc(&mut q, &db, &mut rng), Some("function-hallucination"));
        assert_eq!(engine::execute(&db, &q).unwrap_err().category(), "function-hallucination");

        let mut q = parse("SELECT COUNT(DISTINCT series_name) FROM tv_channel").unwrap();
        assert_eq!(inject_agg_multi(&mut q, &db, &mut rng), Some("aggregation-hallucination"));
        assert_eq!(engine::execute(&db, &q).unwrap_err().category(), "aggregation-hallucination");

        let mut q = parse("SELECT country FROM tv_channel").unwrap();
        assert_eq!(inject_schema_col(&mut q, &db, &mut rng), Some("schema-hallucination"));
        assert_eq!(engine::execute(&db, &q).unwrap_err().category(), "schema-hallucination");

        let mut q = parse(
            "SELECT T2.title FROM cartoon AS T2 JOIN tv_channel AS T1 ON T2.channel = T1.id \
             WHERE T1.country = 'Italy'",
        )
        .unwrap();
        // Move `title` to T1 (tv_channel lacks it).
        let r = inject_wrong_qualifier(&mut q, &db, &mut rng);
        assert_eq!(r, Some("table-column-mismatch"));
        assert_eq!(engine::execute(&db, &q).unwrap_err().category(), "table-column-mismatch");

        let mut q =
            parse("SELECT T1.id FROM tv_channel AS T1 JOIN cartoon AS T2 ON T1.id = T2.channel")
                .unwrap();
        assert_eq!(inject_ambiguity(&mut q, &db, &mut rng), Some("column-ambiguity"));
        assert_eq!(engine::execute(&db, &q).unwrap_err().category(), "column-ambiguity");

        let mut q = parse(
            "SELECT T1.country FROM tv_channel AS T1 JOIN cartoon AS T2 ON T1.id = T2.channel \
             WHERE T2.written_by = 'Todd'",
        )
        .unwrap();
        assert_eq!(inject_missing_table(&mut q, &db, &mut rng), Some("missing-table"));
        assert_eq!(engine::execute(&db, &q).unwrap_err().category(), "missing-table");
    }

    #[test]
    fn write_sample_with_perfect_settings_returns_gold() {
        let db = db();
        let gold = parse("SELECT country FROM tv_channel WHERE id = 1").unwrap();
        let profile = crate::profile::LlmProfile {
            linking_error: 0.0,
            value_error: 0.0,
            halluc_rate: 0.0,
            ..crate::profile::CHATGPT
        };
        let mut rng = StdRng::seed_from_u64(4);
        let sql = write_sample(&profile, &gold, &db, 0.0, true, true, &mut rng);
        assert_eq!(sql, gold.to_string());
    }

    #[test]
    fn write_sample_wrong_composition_differs_from_gold() {
        let db = db();
        let gold = parse(
            "SELECT country FROM tv_channel EXCEPT SELECT T1.country FROM tv_channel AS T1 JOIN \
             cartoon AS T2 ON T1.id = T2.channel WHERE T2.written_by = 'Todd'",
        )
        .unwrap();
        let profile = crate::profile::LlmProfile {
            linking_error: 0.0,
            value_error: 0.0,
            halluc_rate: 0.0,
            ..crate::profile::CHATGPT
        };
        let mut rng = StdRng::seed_from_u64(5);
        let sql = write_sample(&profile, &gold, &db, 0.0, true, false, &mut rng);
        assert_ne!(sql, gold.to_string());
        sqlkit::parse(&sql).unwrap();
    }
}
