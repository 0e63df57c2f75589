//! Near-miss rewrites: how the simulated LLM writes a *different* operator
//! composition for the same intent.
//!
//! Two families, matching the paper's Fig. 1 taxonomy:
//!
//! * **Equivalence-preserving** rewrites express the same semantics with different
//!   operators (`EXCEPT` ↔ `NOT IN`+join, `IN`-subquery ↔ `JOIN`, `ORDER BY..LIMIT
//!   1` ↔ `MAX` subquery, `BETWEEN` ↔ two comparisons, `UNION` ↔ `OR`). They
//!   usually keep Execution Match while always breaking Exact-Set Match — the
//!   EM ≪ EX signature of every LLM row in Table 1. ("Usually": duplicates and
//!   ties make some of them near-equivalent, which is exactly the DIN-SQL
//!   de-duplication failure of Fig. 1.)
//! * **Corrupting** rewrites change the semantics (dropped conjuncts, flipped
//!   operators, wrong aggregates...), breaking both metrics most of the time.

use rand::prelude::*;
use rand::rngs::StdRng;
use sqlkit::ast::*;

/// All applicable equivalence-preserving rewrites of a query.
pub fn equivalent_rewrites(q: &Query) -> Vec<Query> {
    let mut out = Vec::new();
    out.extend(except_to_not_in(q));
    out.extend(not_in_to_except(q));
    out.extend(in_to_join(q));
    out.extend(join_to_in(q));
    out.extend(order_limit_to_extremum(q));
    out.extend(union_to_or(q));
    out.extend(add_distinct(q));
    // Exact equivalences are the most common LLM form differences ("the SQL is
    // right, just phrased differently"): weight them up by listing them thrice.
    let exact: Vec<Query> =
        [between_to_cmp(q), shift_integer_boundary(q), count_star_to_count_pk(q)]
            .into_iter()
            .flatten()
            .collect();
    for _ in 0..3 {
        out.extend(exact.iter().cloned());
    }
    out
}

/// A redundant-but-harmless join the schema's FK integrity makes lossless
/// (`SELECT c FROM child` → `child JOIN parent ON fk = pk`): the classic LLM
/// "unnecessary JOIN" that Exact-Set Match punishes and execution does not. Needs
/// schema knowledge, hence a separate entry point used by the writer.
pub fn add_redundant_join(q: &Query, db: &engine::Database) -> Option<Query> {
    if q.compound.is_some()
        || q.core.from.len() != 1
        || !q.core.group_by.is_empty()
        || q.core
            .items
            .iter()
            .any(|i| matches!(i.expr.unit, ValUnit::Star) && i.expr.func.is_none())
    {
        return None;
    }
    let TableRef::Named { name, alias: None } = &q.core.from.first else {
        return None;
    };
    let ti = db.schema.table_index(name)?;
    let (other, fk) = db.schema.fk_neighbors(ti).into_iter().next()?;
    // The generator's FK columns are non-null, so the inner join is lossless.
    let (my_end, other_end) = if fk.from.table == ti { (fk.from, fk.to) } else { (fk.to, fk.from) };
    let mut out = q.clone();
    // Qualify the query's bare column references with the original table, the way a
    // careful LLM does when it joins — otherwise shared column names (id, name)
    // would turn ambiguous.
    let table_name = name.clone();
    qualify_query_columns(&mut out, &table_name);
    out.core.from.joins.push(Join {
        table: TableRef::named(db.schema.tables[other].name.clone()),
        on: vec![(
            ColumnRef::qualified(table_name, db.schema.column(my_end).name.clone()),
            ColumnRef::qualified(
                db.schema.tables[other].name.clone(),
                db.schema.column(other_end).name.clone(),
            ),
        )],
    });
    Some(out)
}

/// Qualify every bare column reference in the outer core with a table name
/// (select list, conditions, group/order keys; subqueries are left alone).
fn qualify_query_columns(q: &mut Query, table: &str) {
    fn unit(v: &mut ValUnit, table: &str) {
        match v {
            ValUnit::Column(c) => {
                if c.table.is_none() {
                    c.table = Some(table.to_string());
                }
            }
            ValUnit::Arith { left, right, .. } => {
                unit(left, table);
                unit(right, table);
            }
            ValUnit::Func { args, .. } => {
                for a in args {
                    unit(a, table);
                }
            }
            ValUnit::Star | ValUnit::Literal(_) => {}
        }
    }
    fn cond(c: &mut Condition, table: &str) {
        match c {
            Condition::And(l, r) | Condition::Or(l, r) => {
                cond(l, table);
                cond(r, table);
            }
            Condition::Pred(p) => {
                unit(&mut p.left.unit, table);
                if let Operand::Column(col) = &mut p.right {
                    if col.table.is_none() {
                        col.table = Some(table.to_string());
                    }
                }
            }
        }
    }
    for item in &mut q.core.items {
        unit(&mut item.expr.unit, table);
    }
    if let Some(w) = &mut q.core.where_clause {
        cond(w, table);
    }
    for g in &mut q.core.group_by {
        if g.table.is_none() {
            g.table = Some(table.to_string());
        }
    }
    if let Some(h) = &mut q.core.having {
        cond(h, table);
    }
    for o in &mut q.core.order_by {
        unit(&mut o.expr.unit, table);
    }
}

/// `a >= 5` ↔ `a > 4` on integer literals: exactly equivalent, EM-breaking.
fn shift_integer_boundary(q: &Query) -> Option<Query> {
    let mut out = q.clone();
    let w = out.core.where_clause.as_mut()?;
    fn shift(c: &mut Condition) -> bool {
        match c {
            Condition::And(l, r) | Condition::Or(l, r) => shift(l) || shift(r),
            Condition::Pred(p) => {
                let Operand::Literal(Literal::Int(v)) = &mut p.right else {
                    return false;
                };
                match p.op {
                    CmpOp::Ge => {
                        p.op = CmpOp::Gt;
                        *v -= 1;
                        true
                    }
                    CmpOp::Gt => {
                        p.op = CmpOp::Ge;
                        *v += 1;
                        true
                    }
                    CmpOp::Le => {
                        p.op = CmpOp::Lt;
                        *v += 1;
                        true
                    }
                    CmpOp::Lt => {
                        p.op = CmpOp::Le;
                        *v -= 1;
                        true
                    }
                    _ => false,
                }
            }
        }
    }
    if shift(w) {
        Some(out)
    } else {
        None
    }
}

/// `COUNT(*)` → `COUNT(<first select column>)`-style head-column count: exact when
/// the counted column is non-null (primary keys are). We use the bare first column
/// of the query when one exists.
fn count_star_to_count_pk(q: &Query) -> Option<Query> {
    let mut out = q.clone();
    // Count the group key when grouping, else fall back to `id`, the universal
    // primary key of the generated schemas.
    let col = out.core.group_by.first().cloned().unwrap_or_else(|| ColumnRef::bare("id"));
    let item =
        out.core.items.iter_mut().find(|i| {
            i.expr.func == Some(AggFunc::Count) && matches!(i.expr.unit, ValUnit::Star)
        })?;
    item.expr.unit = ValUnit::Column(col);
    Some(out)
}

/// All applicable corrupting rewrites of a query.
pub fn corrupting_rewrites(q: &Query) -> Vec<Query> {
    let mut out = Vec::new();
    out.extend(drop_where_conjunct(q));
    out.extend(and_to_or(q));
    out.extend(flip_cmp(q));
    out.extend(wrong_agg(q));
    out.extend(toggle_count_distinct(q));
    out.extend(flip_order_dir(q));
    out.extend(bump_limit(q));
    out.extend(drop_having(q));
    out.extend(drop_compound(q));
    out.extend(drop_group_by(q));
    out.extend(except_to_wrong_not_in(q));
    out
}

/// Pick a near-miss: an equivalence-preserving rewrite with probability
/// `equivalent_bias` (falling back across families when one is empty), else a
/// corrupting one. `None` when the query admits no rewrite at all.
///
/// The gold query and the equivalent rewrites execute through `db`'s
/// session, so a shared session serves repeats from its caches; the choice
/// and the draws from `rng` do not depend on the session.
pub fn near_miss(
    q: &Query,
    db: &engine::SessionDb<'_, '_>,
    equivalent_bias: f64,
    rng: &mut StdRng,
) -> Option<Query> {
    let mut eq = equivalent_rewrites(q);
    if let Some(join) = add_redundant_join(q, db.db()) {
        eq.extend(std::iter::repeat_n(join, 3));
    }
    let bad = corrupting_rewrites(q);
    let use_eq = rng.random_bool(equivalent_bias);
    if use_eq && !eq.is_empty() {
        // The LLM's alternative phrasings are *usually* semantically faithful: its
        // training distribution pairs these forms, so when it reaches for NOT IN
        // instead of EXCEPT it mostly does so in contexts where they coincide.
        // Model that by preferring a result-preserving candidate (when the data
        // admits one) with high probability; the residual mass covers the Fig.-1
        // de-duplication traps.
        if rng.random_bool(0.9) {
            if let Ok(gold_rs) = db.execute(q) {
                let ordered = engine::order_matters(q);
                let preserving: Vec<&Query> = eq
                    .iter()
                    .filter(|m| {
                        db.execute(m).map(|rs| rs.same_result(&gold_rs, ordered)).unwrap_or(false)
                    })
                    .collect();
                if let Some(pick) = preserving.choose(rng) {
                    return Some((*pick).clone());
                }
            }
        }
        return eq.choose(rng).cloned();
    }
    let pool = if !bad.is_empty() {
        &bad
    } else if !eq.is_empty() {
        &eq
    } else {
        return None;
    };
    pool.choose(rng).cloned()
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

fn strip_qualifiers(c: &Condition) -> Condition {
    match c {
        Condition::And(l, r) => {
            Condition::And(Box::new(strip_qualifiers(l)), Box::new(strip_qualifiers(r)))
        }
        Condition::Or(l, r) => {
            Condition::Or(Box::new(strip_qualifiers(l)), Box::new(strip_qualifiers(r)))
        }
        Condition::Pred(p) => {
            let mut p = p.clone();
            if let ValUnit::Column(ref mut col) = p.left.unit {
                col.table = None;
            }
            Condition::Pred(p)
        }
    }
}

fn qualify(c: &Condition, alias: &str) -> Condition {
    match c {
        Condition::And(l, r) => {
            Condition::And(Box::new(qualify(l, alias)), Box::new(qualify(r, alias)))
        }
        Condition::Or(l, r) => {
            Condition::Or(Box::new(qualify(l, alias)), Box::new(qualify(r, alias)))
        }
        Condition::Pred(p) => {
            let mut p = p.clone();
            if let ValUnit::Column(ref mut col) = p.left.unit {
                if col.table.is_none() {
                    col.table = Some(alias.to_string());
                }
            }
            Condition::Pred(p)
        }
    }
}

/// Matches the generator's join shape: `FROM a AS T1 JOIN b AS T2 ON T1.x = T2.y`.
struct JoinShape {
    t1_name: String,
    t2_name: String,
    t1_col: String,
    t2_col: String,
}

fn match_join(core: &SelectCore) -> Option<JoinShape> {
    if core.from.joins.len() != 1 {
        return None;
    }
    let TableRef::Named { name: t1_name, .. } = &core.from.first else {
        return None;
    };
    let join = &core.from.joins[0];
    let TableRef::Named { name: t2_name, .. } = &join.table else {
        return None;
    };
    if join.on.len() != 1 {
        return None;
    }
    let (l, r) = &join.on[0];
    let t1_binding = core.from.first.binding_name()?.to_ascii_lowercase();
    let (t1_ref, t2_ref) = if l.table.as_deref().map(|t| t.to_ascii_lowercase()).as_deref()
        == Some(t1_binding.as_str())
    {
        (l, r)
    } else {
        (r, l)
    };
    Some(JoinShape {
        t1_name: t1_name.clone(),
        t2_name: t2_name.clone(),
        t1_col: t1_ref.column.clone(),
        t2_col: t2_ref.column.clone(),
    })
}

// ---------------------------------------------------------------------------
// equivalence-preserving rewrites
// ---------------------------------------------------------------------------

/// `SELECT c FROM t EXCEPT SELECT T1.c FROM t T1 JOIN u T2 ON k = f WHERE P`
/// → `SELECT c FROM t WHERE k NOT IN (SELECT f FROM u WHERE P)`.
fn except_to_not_in(q: &Query) -> Option<Query> {
    let (SetOp::Except, rhs) = (&q.compound.as_ref()?.0, &q.compound.as_ref()?.1) else {
        return None;
    };
    if rhs.compound.is_some() {
        return None;
    }
    let shape = match_join(&rhs.core)?;
    let TableRef::Named { name: left_t, .. } = &q.core.from.first else {
        return None;
    };
    if !shape.t1_name.eq_ignore_ascii_case(left_t) || !q.core.from.joins.is_empty() {
        return None;
    }
    let inner_where = rhs.core.where_clause.as_ref().map(strip_qualifiers);
    let mut inner = SelectCore::simple(
        AggExpr::unit(ValUnit::Column(ColumnRef::bare(shape.t2_col))),
        shape.t2_name,
    );
    inner.where_clause = inner_where;
    let mut core = q.core.clone();
    let pred = Condition::Pred(Predicate {
        left: AggExpr::unit(ValUnit::Column(ColumnRef::bare(shape.t1_col))),
        op: CmpOp::NotIn,
        right: Operand::Subquery(Box::new(Query::single(inner))),
        right2: None,
    });
    core.where_clause = Some(match core.where_clause.take() {
        Some(w) => Condition::And(Box::new(w), Box::new(pred)),
        None => pred,
    });
    Some(Query::single(core))
}

/// The reverse: `WHERE k NOT IN (SELECT f FROM u WHERE P)` → `EXCEPT` + join.
fn not_in_to_except(q: &Query) -> Option<Query> {
    if q.compound.is_some() || q.core.from.len() != 1 {
        return None;
    }
    let w = q.core.where_clause.as_ref()?;
    let Condition::Pred(p) = w else { return None };
    if p.op != CmpOp::NotIn {
        return None;
    }
    let Operand::Subquery(sub) = &p.right else {
        return None;
    };
    if sub.compound.is_some() || sub.core.from.len() != 1 {
        return None;
    }
    let ValUnit::Column(outer_key) = &p.left.unit else {
        return None;
    };
    let ValUnit::Column(inner_key) = &sub.core.items.first()?.expr.unit else {
        return None;
    };
    let TableRef::Named { name: t1, .. } = &q.core.from.first else {
        return None;
    };
    let TableRef::Named { name: t2, .. } = &sub.core.from.first else {
        return None;
    };
    let mut left = q.core.clone();
    left.where_clause = None;
    let right = SelectCore {
        distinct: false,
        items: q
            .core
            .items
            .iter()
            .map(|i| {
                let mut i = i.clone();
                if let ValUnit::Column(ref mut c) = i.expr.unit {
                    c.table = Some("T1".into());
                }
                i
            })
            .collect(),
        from: FromClause {
            first: TableRef::aliased(t1.clone(), "T1"),
            joins: vec![Join {
                table: TableRef::aliased(t2.clone(), "T2"),
                on: vec![(
                    ColumnRef::qualified("T1", outer_key.column.clone()),
                    ColumnRef::qualified("T2", inner_key.column.clone()),
                )],
            }],
        },
        where_clause: sub.core.where_clause.as_ref().map(|w| qualify(w, "T2")),
        group_by: vec![],
        having: None,
        order_by: vec![],
        limit: None,
    };
    Some(Query { core: left, compound: Some((SetOp::Except, Box::new(Query::single(right)))) })
}

/// `WHERE k IN (SELECT f FROM u WHERE P)` → join form.
fn in_to_join(q: &Query) -> Option<Query> {
    if q.compound.is_some() || q.core.from.len() != 1 {
        return None;
    }
    let w = q.core.where_clause.as_ref()?;
    let Condition::Pred(p) = w else { return None };
    if p.op != CmpOp::In {
        return None;
    }
    let Operand::Subquery(sub) = &p.right else {
        return None;
    };
    if sub.compound.is_some() || sub.core.from.len() != 1 {
        return None;
    }
    let ValUnit::Column(outer_key) = &p.left.unit else {
        return None;
    };
    let ValUnit::Column(inner_key) = &sub.core.items.first()?.expr.unit else {
        return None;
    };
    let TableRef::Named { name: t1, .. } = &q.core.from.first else {
        return None;
    };
    let TableRef::Named { name: t2, .. } = &sub.core.from.first else {
        return None;
    };
    let core = SelectCore {
        // DISTINCT compensates for join fan-out — the LLM sometimes remembers it,
        // modeled by keeping the original distinct flag (near-equivalence).
        distinct: q.core.distinct,
        items: q
            .core
            .items
            .iter()
            .map(|i| {
                let mut i = i.clone();
                if let ValUnit::Column(ref mut c) = i.expr.unit {
                    c.table = Some("T1".into());
                }
                i
            })
            .collect(),
        from: FromClause {
            first: TableRef::aliased(t1.clone(), "T1"),
            joins: vec![Join {
                table: TableRef::aliased(t2.clone(), "T2"),
                on: vec![(
                    ColumnRef::qualified("T1", outer_key.column.clone()),
                    ColumnRef::qualified("T2", inner_key.column.clone()),
                )],
            }],
        },
        where_clause: sub.core.where_clause.as_ref().map(|w| qualify(w, "T2")),
        group_by: q.core.group_by.clone(),
        having: q.core.having.clone(),
        order_by: q.core.order_by.clone(),
        limit: q.core.limit,
    };
    Some(Query::single(core))
}

/// Join form → `IN` subquery, when the select list only touches the first table.
fn join_to_in(q: &Query) -> Option<Query> {
    if q.compound.is_some() || !q.core.group_by.is_empty() || !q.core.order_by.is_empty() {
        return None;
    }
    let shape = match_join(&q.core)?;
    let t1_binding = q.core.from.first.binding_name()?.to_ascii_lowercase();
    // Select list must reference only T1.
    for i in &q.core.items {
        match &i.expr.unit {
            ValUnit::Column(c) => {
                let t = c.table.as_deref()?.to_ascii_lowercase();
                if t != t1_binding {
                    return None;
                }
            }
            _ => return None,
        }
    }
    // WHERE must reference only T2 (the generator's join_select shape).
    let t2_binding = q.core.from.joins[0].table.binding_name()?.to_ascii_lowercase();
    if let Some(w) = &q.core.where_clause {
        for (p, _) in w.flatten() {
            let ValUnit::Column(c) = &p.left.unit else {
                return None;
            };
            if c.table.as_deref().map(|t| t.to_ascii_lowercase()) != Some(t2_binding.clone()) {
                return None;
            }
        }
    }
    let mut inner = SelectCore::simple(
        AggExpr::unit(ValUnit::Column(ColumnRef::bare(shape.t2_col))),
        shape.t2_name,
    );
    inner.where_clause = q.core.where_clause.as_ref().map(strip_qualifiers);
    let core = SelectCore {
        distinct: q.core.distinct,
        items: q
            .core
            .items
            .iter()
            .map(|i| {
                let mut i = i.clone();
                if let ValUnit::Column(ref mut c) = i.expr.unit {
                    c.table = None;
                }
                i
            })
            .collect(),
        from: FromClause::table(shape.t1_name),
        where_clause: Some(Condition::Pred(Predicate {
            left: AggExpr::unit(ValUnit::Column(ColumnRef::bare(shape.t1_col))),
            op: CmpOp::In,
            right: Operand::Subquery(Box::new(Query::single(inner))),
            right2: None,
        })),
        group_by: vec![],
        having: None,
        order_by: vec![],
        limit: q.core.limit,
    };
    Some(Query::single(core))
}

/// `ORDER BY col DESC LIMIT 1` → `WHERE col = (SELECT MAX(col) ...)`.
fn order_limit_to_extremum(q: &Query) -> Option<Query> {
    if q.compound.is_some() || !q.core.group_by.is_empty() || q.core.limit != Some(1) {
        return None;
    }
    if q.core.order_by.len() != 1 || q.core.from.len() != 1 {
        return None;
    }
    let o = &q.core.order_by[0];
    if o.expr.func.is_some() {
        return None;
    }
    let ValUnit::Column(key) = &o.expr.unit else {
        return None;
    };
    let TableRef::Named { name, .. } = &q.core.from.first else {
        return None;
    };
    let func = if o.dir == OrderDir::Desc { AggFunc::Max } else { AggFunc::Min };
    let mut inner =
        SelectCore::simple(AggExpr::agg(func, ValUnit::Column(key.clone())), name.clone());
    inner.where_clause = q.core.where_clause.clone();
    let mut core = q.core.clone();
    core.order_by.clear();
    core.limit = None;
    let pred = Condition::Pred(Predicate {
        left: AggExpr::unit(ValUnit::Column(key.clone())),
        op: CmpOp::Eq,
        right: Operand::Subquery(Box::new(Query::single(inner))),
        right2: None,
    });
    core.where_clause = Some(match core.where_clause.take() {
        Some(w) => Condition::And(Box::new(w), Box::new(pred)),
        None => pred,
    });
    Some(Query::single(core))
}

/// `BETWEEN a AND b` → `>= a AND <= b` (exact equivalence).
fn between_to_cmp(q: &Query) -> Option<Query> {
    let mut out = q.clone();
    let w = out.core.where_clause.as_mut()?;
    fn rewrite(c: &mut Condition) -> bool {
        match c {
            Condition::And(l, r) | Condition::Or(l, r) => rewrite(l) || rewrite(r),
            Condition::Pred(p) if p.op == CmpOp::Between => {
                let lo = p.right.clone();
                let hi = p.right2.take().expect("BETWEEN has an upper bound");
                let left = p.left.clone();
                *c = Condition::And(
                    Box::new(Condition::Pred(Predicate {
                        left: left.clone(),
                        op: CmpOp::Ge,
                        right: lo,
                        right2: None,
                    })),
                    Box::new(Condition::Pred(Predicate {
                        left,
                        op: CmpOp::Le,
                        right: hi,
                        right2: None,
                    })),
                );
                true
            }
            Condition::Pred(_) => false,
        }
    }
    if rewrite(w) {
        Some(out)
    } else {
        None
    }
}

/// `UNION` of two filters on the same table → single core with `OR`.
fn union_to_or(q: &Query) -> Option<Query> {
    let (op, rhs) = q.compound.as_ref()?;
    if *op != SetOp::Union || rhs.compound.is_some() {
        return None;
    }
    if q.core.from.len() != 1 || rhs.core.from.len() != 1 {
        return None;
    }
    let (TableRef::Named { name: a, .. }, TableRef::Named { name: b, .. }) =
        (&q.core.from.first, &rhs.core.from.first)
    else {
        return None;
    };
    if !a.eq_ignore_ascii_case(b) || q.core.items != rhs.core.items {
        return None;
    }
    let (Some(w1), Some(w2)) = (&q.core.where_clause, &rhs.core.where_clause) else {
        return None;
    };
    let mut core = q.core.clone();
    core.where_clause = Some(Condition::Or(Box::new(w1.clone()), Box::new(w2.clone())));
    // UNION de-duplicates; the equivalent single-core form needs DISTINCT. The
    // simulated LLM remembers that (this is the *equivalent* family).
    core.distinct = true;
    Some(Query::single(core))
}

/// Add DISTINCT to a plain single-column select (near-equivalent when the data
/// happens to be duplicate-free; the DIN-SQL mistake of Fig. 1 in reverse).
fn add_distinct(q: &Query) -> Option<Query> {
    if q.core.distinct
        || q.compound.is_some()
        || q.core.items.len() != 1
        || q.core.items[0].expr.func.is_some()
    {
        return None;
    }
    let mut out = q.clone();
    out.core.distinct = true;
    Some(out)
}

// ---------------------------------------------------------------------------
// corrupting rewrites
// ---------------------------------------------------------------------------

fn drop_where_conjunct(q: &Query) -> Option<Query> {
    let mut out = q.clone();
    match out.core.where_clause.take() {
        Some(Condition::And(l, _)) => {
            out.core.where_clause = Some(*l);
            Some(out)
        }
        Some(Condition::Pred(_)) if q.core.from.len() > 1 || q.compound.is_some() => {
            // Dropping the only predicate is too destructive for simple queries but
            // plausible for complex ones.
            out.core.where_clause = None;
            Some(out)
        }
        _ => None,
    }
}

fn and_to_or(q: &Query) -> Option<Query> {
    let mut out = q.clone();
    let w = out.core.where_clause.as_mut()?;
    if let Condition::And(l, r) = w.clone() {
        *w = Condition::Or(l, r);
        return Some(out);
    }
    None
}

fn flip_cmp(q: &Query) -> Option<Query> {
    let mut out = q.clone();
    let w = out.core.where_clause.as_mut()?;
    fn flip(c: &mut Condition) -> bool {
        match c {
            Condition::And(l, r) | Condition::Or(l, r) => flip(l) || flip(r),
            Condition::Pred(p) => {
                let new = match p.op {
                    CmpOp::Gt => CmpOp::Ge,
                    CmpOp::Ge => CmpOp::Gt,
                    CmpOp::Lt => CmpOp::Le,
                    CmpOp::Le => CmpOp::Lt,
                    CmpOp::Eq => CmpOp::Ne,
                    _ => return false,
                };
                p.op = new;
                true
            }
        }
    }
    if flip(w) {
        Some(out)
    } else {
        None
    }
}

fn wrong_agg(q: &Query) -> Option<Query> {
    let mut out = q.clone();
    let item = out.core.items.iter_mut().find(|i| i.expr.func.is_some())?;
    let f = item.expr.func.expect("checked");
    item.expr.func = Some(match f {
        AggFunc::Count => AggFunc::Sum,
        AggFunc::Sum => AggFunc::Count,
        AggFunc::Avg => AggFunc::Sum,
        AggFunc::Max => AggFunc::Min,
        AggFunc::Min => AggFunc::Max,
    });
    if matches!(item.expr.unit, ValUnit::Star) {
        // SUM(*) is not a thing; keep COUNT for star.
        return None;
    }
    Some(out)
}

fn toggle_count_distinct(q: &Query) -> Option<Query> {
    let mut out = q.clone();
    let item =
        out.core.items.iter_mut().find(|i| {
            i.expr.func == Some(AggFunc::Count) && !matches!(i.expr.unit, ValUnit::Star)
        })?;
    item.expr.distinct = !item.expr.distinct;
    Some(out)
}

fn flip_order_dir(q: &Query) -> Option<Query> {
    if q.core.order_by.is_empty() {
        return None;
    }
    let mut out = q.clone();
    for o in &mut out.core.order_by {
        o.dir = match o.dir {
            OrderDir::Asc => OrderDir::Desc,
            OrderDir::Desc => OrderDir::Asc,
        };
    }
    Some(out)
}

fn bump_limit(q: &Query) -> Option<Query> {
    let n = q.core.limit?;
    let mut out = q.clone();
    out.core.limit = Some(if n == 1 { 3 } else { n - 1 });
    Some(out)
}

fn drop_having(q: &Query) -> Option<Query> {
    q.core.having.as_ref()?;
    let mut out = q.clone();
    out.core.having = None;
    Some(out)
}

fn drop_compound(q: &Query) -> Option<Query> {
    q.compound.as_ref()?;
    let mut out = q.clone();
    out.compound = None;
    Some(out)
}

fn drop_group_by(q: &Query) -> Option<Query> {
    if q.core.group_by.is_empty() {
        return None;
    }
    let mut out = q.clone();
    out.core.group_by.clear();
    out.core.having = None;
    Some(out)
}

/// The C3 failure of Fig. 1: `EXCEPT` replaced by `NOT IN` over the *wrong* column
/// (the select column instead of the key).
fn except_to_wrong_not_in(q: &Query) -> Option<Query> {
    let (op, rhs) = q.compound.as_ref()?;
    if *op != SetOp::Except || rhs.compound.is_some() {
        return None;
    }
    let shape = match_join(&rhs.core)?;
    let TableRef::Named { name: left_t, .. } = &q.core.from.first else {
        return None;
    };
    if !shape.t1_name.eq_ignore_ascii_case(left_t) {
        return None;
    }
    // Compare the *select* column against the child fk values — type-confused and
    // semantically wrong, but executable.
    let ValUnit::Column(sel) = &q.core.items.first()?.expr.unit else {
        return None;
    };
    let mut inner = SelectCore::simple(
        AggExpr::unit(ValUnit::Column(ColumnRef::bare(shape.t2_col))),
        shape.t2_name,
    );
    inner.where_clause = rhs.core.where_clause.as_ref().map(strip_qualifiers);
    let mut core = q.core.clone();
    core.where_clause = Some(Condition::Pred(Predicate {
        left: AggExpr::unit(ValUnit::Column(sel.clone())),
        op: CmpOp::NotIn,
        right: Operand::Subquery(Box::new(Query::single(inner))),
        right2: None,
    }));
    Some(Query::single(core))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sqlkit::parse;

    fn empty_db() -> engine::Database {
        engine::Database::empty(sqlkit::Schema::new("empty"))
    }

    const FIG1_GOLD: &str = "SELECT Country FROM tv_channel EXCEPT SELECT T1.Country FROM \
                             tv_channel AS T1 JOIN cartoon AS T2 ON T1.id = T2.channel WHERE \
                             T2.written_by = 'Todd Casey'";

    #[test]
    fn except_to_not_in_produces_fig1_confusion() {
        let q = parse(FIG1_GOLD).unwrap();
        let r = except_to_not_in(&q).expect("rewrite applies");
        let text = r.to_string();
        assert!(text.contains("NOT IN"), "{text}");
        assert!(!text.contains("EXCEPT"), "{text}");
        // Must re-parse.
        sqlkit::parse(&text).unwrap();
    }

    #[test]
    fn not_in_to_except_roundtrips_shape() {
        let q = parse(
            "SELECT country FROM tv_channel WHERE id NOT IN (SELECT channel FROM cartoon WHERE \
             written_by = 'x')",
        )
        .unwrap();
        let r = not_in_to_except(&q).expect("rewrite applies");
        assert!(r.to_string().contains("EXCEPT"));
        sqlkit::parse(&r.to_string()).unwrap();
    }

    #[test]
    fn in_join_rewrites_both_ways() {
        let q = parse(
            "SELECT name FROM singer WHERE id IN (SELECT singer_id FROM singer_in_concert WHERE \
             concert_id = 2)",
        )
        .unwrap();
        let j = in_to_join(&q).expect("in->join applies");
        assert!(j.to_string().contains("JOIN"));
        let back = join_to_in(&j).expect("join->in applies");
        assert!(back.to_string().contains(" IN ("));
    }

    #[test]
    fn order_limit_to_extremum_builds_scalar_subquery() {
        let q = parse("SELECT name FROM singer ORDER BY age DESC LIMIT 1").unwrap();
        let r = order_limit_to_extremum(&q).expect("applies");
        let text = r.to_string();
        assert!(text.contains("MAX(age)"), "{text}");
        assert!(!text.contains("LIMIT"), "{text}");
        // ASC flavors use MIN.
        let q = parse("SELECT name FROM singer ORDER BY age ASC LIMIT 1").unwrap();
        assert!(order_limit_to_extremum(&q).unwrap().to_string().contains("MIN(age)"));
    }

    #[test]
    fn between_rewrite_is_exact() {
        let q = parse("SELECT a FROM t WHERE b BETWEEN 1 AND 5").unwrap();
        let r = between_to_cmp(&q).expect("applies");
        let text = r.to_string();
        assert!(text.contains(">= 1") && text.contains("<= 5"), "{text}");
    }

    #[test]
    fn union_to_or_merges_same_table_filters() {
        let q = parse("SELECT a FROM t WHERE b = 1 UNION SELECT a FROM t WHERE c = 2").unwrap();
        let r = union_to_or(&q).expect("applies");
        let text = r.to_string();
        assert!(text.contains("OR"), "{text}");
        assert!(text.contains("DISTINCT"), "{text}");
        // Different tables must not merge.
        let q2 = parse("SELECT a FROM t WHERE b = 1 UNION SELECT a FROM u WHERE c = 2").unwrap();
        assert!(union_to_or(&q2).is_none());
    }

    #[test]
    fn corrupting_rewrites_apply_where_shaped() {
        let q = parse("SELECT a FROM t WHERE b = 1 AND c > 2 ORDER BY d DESC LIMIT 1").unwrap();
        assert!(drop_where_conjunct(&q).is_some());
        assert!(and_to_or(&q).is_some());
        assert!(flip_cmp(&q).is_some());
        assert!(flip_order_dir(&q).is_some());
        assert!(bump_limit(&q).is_some());
        assert!(wrong_agg(&q).is_none());
        let q2 = parse("SELECT COUNT(DISTINCT a) FROM t GROUP BY b HAVING COUNT(*) > 1").unwrap();
        assert!(wrong_agg(&q2).is_some());
        assert!(toggle_count_distinct(&q2).is_some());
        assert!(drop_having(&q2).is_some());
        assert!(drop_group_by(&q2).is_some());
    }

    #[test]
    fn every_rewrite_output_reparses() {
        let mut rng = StdRng::seed_from_u64(3);
        for sql in [
            FIG1_GOLD,
            "SELECT name FROM singer WHERE id IN (SELECT singer_id FROM singer_in_concert)",
            "SELECT a FROM t WHERE b BETWEEN 1 AND 5 ORDER BY c ASC LIMIT 2",
            "SELECT COUNT(DISTINCT a) FROM t WHERE b = 1 AND c = 2",
            "SELECT a FROM t WHERE b = 1 UNION SELECT a FROM t WHERE b = 2",
            "SELECT T1.a FROM t AS T1 JOIN u AS T2 ON T1.x = T2.y WHERE T2.b = 1",
        ] {
            let q = parse(sql).unwrap();
            for r in equivalent_rewrites(&q).iter().chain(corrupting_rewrites(&q).iter()) {
                let text = r.to_string();
                sqlkit::parse(&text)
                    .unwrap_or_else(|e| panic!("rewrite of `{sql}` unparseable: `{text}`: {e}"));
                assert_ne!(r, &q, "rewrite of `{sql}` is identical");
            }
            // near_miss returns something for all these shapes.
            let (session, db) = (engine::ExecSession::new(0), empty_db());
            assert!(near_miss(&q, &session.bind(&db), 0.5, &mut rng).is_some());
        }
    }

    /// `equivalent_rewrites` as written before each exact rewrite was built
    /// once: the three exact rewrites are rebuilt on every repetition.
    fn equivalent_rewrites_rebuilt(q: &Query) -> Vec<Query> {
        let mut out = Vec::new();
        out.extend(except_to_not_in(q));
        out.extend(not_in_to_except(q));
        out.extend(in_to_join(q));
        out.extend(join_to_in(q));
        out.extend(order_limit_to_extremum(q));
        out.extend(union_to_or(q));
        out.extend(add_distinct(q));
        for _ in 0..3 {
            out.extend(between_to_cmp(q));
            out.extend(shift_integer_boundary(q));
            out.extend(count_star_to_count_pk(q));
        }
        out
    }

    /// `near_miss` as written before the redundant join was built once.
    fn near_miss_rebuilt(
        q: &Query,
        db: &engine::SessionDb<'_, '_>,
        equivalent_bias: f64,
        rng: &mut StdRng,
    ) -> Option<Query> {
        let mut eq = equivalent_rewrites_rebuilt(q);
        for _ in 0..3 {
            eq.extend(add_redundant_join(q, db.db()));
        }
        let bad = corrupting_rewrites(q);
        let use_eq = rng.random_bool(equivalent_bias);
        if use_eq && !eq.is_empty() {
            if rng.random_bool(0.9) {
                if let Ok(gold_rs) = db.execute(q) {
                    let ordered = engine::order_matters(q);
                    let preserving: Vec<&Query> = eq
                        .iter()
                        .filter(|m| {
                            db.execute(m)
                                .map(|rs| rs.same_result(&gold_rs, ordered))
                                .unwrap_or(false)
                        })
                        .collect();
                    if let Some(pick) = preserving.choose(rng) {
                        return Some((*pick).clone());
                    }
                }
            }
            return eq.choose(rng).cloned();
        }
        let pool = if !bad.is_empty() {
            &bad
        } else if !eq.is_empty() {
            &eq
        } else {
            return None;
        };
        pool.choose(rng).cloned()
    }

    #[test]
    fn rewrites_built_once_match_the_rebuilt_lists() {
        let suite = spidergen::generate_suite(&spidergen::GenConfig::tiny(555));
        let examples = &suite.train.examples;
        let session = engine::ExecSession::shared();
        let (mut exact, mut joined) = (0, 0);
        for case in 0..64u64 {
            let ex = &examples[StdRng::seed_from_u64(case).random_range(0..examples.len())];
            let (q, db) = (&ex.query, session.bind(suite.train.db_of(ex)));
            let eq = equivalent_rewrites(q);
            assert_eq!(eq, equivalent_rewrites_rebuilt(q), "case {case}: `{q}`");
            let exact_rewrites =
                [between_to_cmp(q), shift_integer_boundary(q), count_star_to_count_pk(q)];
            exact += usize::from(exact_rewrites.iter().any(Option::is_some));
            joined += usize::from(add_redundant_join(q, db.db()).is_some());
            for bias in [0.0, 0.5, 0.9, 1.0] {
                let mut a = StdRng::seed_from_u64(case);
                let mut b = a.clone();
                assert_eq!(
                    near_miss(q, &db, bias, &mut a),
                    near_miss_rebuilt(q, &db, bias, &mut b),
                    "case {case}, bias {bias}: `{q}`"
                );
                assert_eq!(a.next_u64(), b.next_u64(), "case {case}, bias {bias}: rng stream");
            }
        }
        assert!(exact > 0 && joined > 0, "{exact} cases had exact rewrites, {joined} a join");
    }

    #[test]
    fn near_miss_respects_bias_direction() {
        let q = parse(FIG1_GOLD).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let (session, db) = (engine::ExecSession::new(0), empty_db());
        let mut eq_count = 0;
        for _ in 0..200 {
            let m = near_miss(&q, &session.bind(&db), 0.9, &mut rng).unwrap();
            if equivalent_rewrites(&q).contains(&m) {
                eq_count += 1;
            }
        }
        assert!(eq_count > 120, "high bias should mostly pick equivalent rewrites: {eq_count}");
    }
}
