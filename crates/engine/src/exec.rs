//! Query executor.
//!
//! Execution happens in two explicit phases, mirroring SQLite's prepare/step split:
//!
//! 1. **[`prepare`]** — bind `FROM` sources (executing derived subqueries), resolve
//!    every column reference to a flat index into the joined row, pre-execute
//!    uncorrelated predicate subqueries, and validate functions/aggregates. All of
//!    the paper's Table-2 error categories surface here, independent of data, so
//!    `prepare` errors exactly when `execute` would.
//! 2. **[`run`]** — join, filter, group/aggregate, project, de-duplicate, sort,
//!    limit on the vectorized pipeline ([`crate::batch`]). Pure evaluation over
//!    a [`Plan`]; it cannot fail.
//!
//! [`execute`] is the thin wrapper (`prepare` + `run`). A [`Plan`] is reusable:
//! callers that execute the same query repeatedly (the adaption vote, EX/TS
//! scoring) keep plans in an [`ExecSession`](crate::ExecSession) instead of
//! recompiling.
//!
//! Unsupported on purpose (documented substitution): correlated subqueries and
//! non-aggregate SQL functions — SQLite's built-in scalar functions are outside the
//! Spider grammar, and the paper's Function-Hallucination fixer *removes* such calls.

use crate::batch::{self, ColumnTable};
use crate::database::{Database, Row};
use crate::error::ExecError;
use crate::value::{Value, ValueRef};
use sqlkit::ast::*;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The result of executing a query.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names (aliases applied, lower-case).
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// Compare against another result. When `ordered` is false rows compare as a
    /// multiset. Numeric cells compare with a small relative tolerance, as the
    /// test-suite evaluation of Zhong et al. does.
    pub fn same_result(&self, other: &ResultSet, ordered: bool) -> bool {
        if self.columns.len() != other.columns.len() || self.rows.len() != other.rows.len() {
            return false;
        }
        if ordered {
            self.rows.iter().zip(&other.rows).all(|(a, b)| rows_close(a, b))
        } else {
            // Multiset comparison via sorting references with the engine's total
            // order — no row is cloned.
            let mut a: Vec<&Row> = self.rows.iter().collect();
            let mut b: Vec<&Row> = other.rows.iter().collect();
            let cmp = |x: &&Row, y: &&Row| {
                x.iter()
                    .zip(y.iter())
                    .map(|(u, v)| u.total_cmp(v))
                    .find(|o| *o != Ordering::Equal)
                    .unwrap_or(Ordering::Equal)
            };
            a.sort_by(cmp);
            b.sort_by(cmp);
            a.iter().zip(&b).all(|(x, y)| rows_close(x, y))
        }
    }
}

fn rows_close(a: &Row, b: &Row) -> bool {
    a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| values_close(x, y))
}

/// Cell comparison with relative tolerance for floats (AVG results etc.).
///
/// Numbers with identical bits are close before any tolerance applies, so a
/// cell is always close to itself, NaN and ±inf included (where the tolerance
/// test alone is false). That makes [`ResultSet::same_result`] reflexive,
/// which TS scoring relies on to accept a prediction that prints as the gold
/// query without executing either.
fn values_close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Text(x), Value::Text(y)) => x == y,
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) if x.to_bits() == y.to_bits() => true,
            (Some(x), Some(y)) => {
                let scale = x.abs().max(y.abs()).max(1.0);
                (x - y).abs() <= 1e-6 * scale
            }
            _ => false,
        },
    }
}

/// Whether result-order matters for this query. Spider's evaluation checks for an
/// `ORDER BY` anywhere in the gold SQL text; we mirror that exactly.
pub fn order_matters(q: &Query) -> bool {
    q.all_cores().iter().any(|c| !c.order_by.is_empty())
}

/// Describe the plan the executor will use for a query, without running it:
/// sources, join strategies, filter/aggregate/sort stages. Errors exactly when
/// `execute` would error at compile time (name resolution, dialect functions).
pub fn explain(db: &Database, q: &Query) -> Result<String, ExecError> {
    let mut out = String::new();
    explain_into(db, q, 0, &mut out)?;
    Ok(out)
}

fn explain_into(db: &Database, q: &Query, depth: usize, out: &mut String) -> Result<(), ExecError> {
    // Compile-time validation matches `execute`: prepare against an empty clone,
    // so the plan report fails exactly when preparation would fail. (The clone
    // is schema-only; no row work happens.) The prepared core also tells us
    // which join/group strategies `run` will actually pick, so the report names
    // the real strategy instead of guessing from the AST.
    let mut probe = Database::empty(db.schema.clone());
    probe.dialect = db.dialect.clone();
    let plan = prepare(&probe, q)?;
    let pad = "  ".repeat(depth);
    let core = &q.core;
    out.push_str(&format!(
        "{pad}SCAN {}
",
        source_name(&core.from.first)
    ));
    if let TableRef::Subquery { query, .. } = &core.from.first {
        explain_into(db, query, depth + 1, out)?;
    }
    for (j, step) in core.from.joins.iter().zip(&plan.core.joins) {
        let strategy = match step.strategy() {
            JoinStrategy::Cartesian => "CARTESIAN".to_string(),
            JoinStrategy::Hash(pairs) if pairs.len() == 1 => "HASH JOIN".to_string(),
            JoinStrategy::Hash(_) => "HASH JOIN (multi-key)".to_string(),
            JoinStrategy::NestedLoop => "NESTED LOOP JOIN (degenerate ON)".to_string(),
        };
        out.push_str(&format!(
            "{pad}{strategy} {}
",
            source_name(&j.table)
        ));
        if let TableRef::Subquery { query, .. } = &j.table {
            explain_into(db, query, depth + 1, out)?;
        }
    }
    if let Some(w) = &core.where_clause {
        out.push_str(&format!(
            "{pad}FILTER ({} predicates)
",
            w.num_predicates()
        ));
        for (p, _) in w.flatten() {
            for operand in [Some(&p.right), p.right2.as_ref()].into_iter().flatten() {
                if let Operand::Subquery(sub) = operand {
                    out.push_str(&format!(
                        "{pad}  SUBQUERY (materialized once)
"
                    ));
                    explain_into(db, sub, depth + 2, out)?;
                }
            }
        }
    }
    if !plan.core.group_cols.is_empty() {
        out.push_str(&format!(
            "{pad}HASH AGGREGATE ({} keys)
",
            plan.core.group_cols.len()
        ));
    } else if plan.core.aggregate_path {
        out.push_str(&format!(
            "{pad}AGGREGATE (single group)
"
        ));
    }
    if core.having.is_some() {
        out.push_str(&format!(
            "{pad}HAVING
"
        ));
    }
    if core.distinct {
        out.push_str(&format!(
            "{pad}DISTINCT
"
        ));
    }
    if !core.order_by.is_empty() {
        out.push_str(&format!(
            "{pad}SORT ({} keys)
",
            core.order_by.len()
        ));
    }
    if let Some(n) = core.limit {
        out.push_str(&format!(
            "{pad}LIMIT {n}
"
        ));
    }
    if let Some((op, rhs)) = &q.compound {
        out.push_str(&format!(
            "{pad}{} (hash set semantics)
",
            op.keyword()
        ));
        explain_into(db, rhs, depth, out)?;
    }
    Ok(())
}

fn source_name(tr: &TableRef) -> String {
    match tr {
        TableRef::Named { name, alias } => match alias {
            Some(a) => format!("{name} AS {a}"),
            None => name.clone(),
        },
        TableRef::Subquery { alias, .. } => {
            format!("(subquery){}", alias.as_ref().map(|a| format!(" AS {a}")).unwrap_or_default())
        }
    }
}

/// Execute a query against a database: [`prepare`] then [`run`].
pub fn execute(db: &Database, q: &Query) -> Result<ResultSet, ExecError> {
    Ok(run(&prepare(db, q)?, db))
}

// ---------------------------------------------------------------------------
// Prepared plans
// ---------------------------------------------------------------------------

/// A prepared query: every name resolved to a flat row index, every expression
/// compiled, derived tables and uncorrelated subqueries pre-executed. Produced
/// by [`prepare`]; evaluated any number of times by [`run`].
///
/// A plan is only meaningful for the database it was prepared against: named
/// tables are stored as indices into [`Database::rows`], and subqueries were
/// materialized from that database's data at prepare time.
#[derive(Debug, Clone)]
pub struct Plan {
    pub(crate) core: CorePlan,
    pub(crate) compound: Option<(SetOp, Box<Plan>)>,
}

impl Plan {
    /// Output column names (aliases applied, lower-case).
    pub fn columns(&self) -> &[String] {
        &self.core.out_columns
    }
}

#[derive(Debug, Clone)]
pub(crate) struct CorePlan {
    /// FROM sources, first then join targets, in binding order.
    pub(crate) sources: Vec<PlanSource>,
    /// One step per JOIN, parallel to `sources[1..]`.
    pub(crate) joins: Vec<JoinStep>,
    pub(crate) select: Vec<(CAgg, String)>,
    pub(crate) select_all: bool,
    pub(crate) star_width: usize,
    pub(crate) where_c: Option<CCond>,
    pub(crate) group_cols: Vec<usize>,
    pub(crate) having_c: Option<CCond>,
    pub(crate) order: Vec<(OrderTarget, OrderDir)>,
    pub(crate) distinct: bool,
    pub(crate) limit: Option<u64>,
    pub(crate) aggregate_path: bool,
    pub(crate) out_columns: Vec<String>,
}

/// Where a bound FROM source reads its rows at run time.
#[derive(Debug, Clone)]
pub(crate) enum PlanSource {
    /// A named table: read `db.rows[index]` when the plan runs.
    Table(usize),
    /// A derived table, materialized at prepare time.
    Materialized(Vec<Row>),
}

impl PlanSource {
    pub(crate) fn rows<'a>(&'a self, db: &'a Database) -> &'a [Row] {
        match self {
            PlanSource::Table(ti) => &db.rows[*ti],
            PlanSource::Materialized(rows) => rows,
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct JoinStep {
    /// Offset of the join target's first column in the joined row.
    pub(crate) right_offset: usize,
    /// Resolved ON equality pairs (flat indices into the extended row).
    pub(crate) on: Vec<(usize, usize)>,
}

/// How [`run`] (and the reference interpreter) will evaluate one JOIN step.
/// Derived deterministically from the resolved ON pairs; both drivers consult
/// the same classification so `explain` output names the strategy actually
/// used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum JoinStrategy {
    /// No ON condition: cartesian product, left-major order.
    Cartesian,
    /// All ON pairs are cross-source equalities, as `(left flat index,
    /// right-local index)`: build a hash table on the right side, probe with
    /// the left rows in order (NULL keys never join).
    Hash(Vec<(usize, usize)>),
    /// Some ON pair is degenerate (both sides resolve into one input, e.g.
    /// from repaired or hallucinated SQL): filter the cartesian product with
    /// row-level `sql_eq` over every pair.
    NestedLoop,
}

impl JoinStep {
    /// Classify this step. Mirrors the historical `join_rows` fallback rule
    /// exactly: the first degenerate pair forces the nested-loop path.
    pub(crate) fn strategy(&self) -> JoinStrategy {
        if self.on.is_empty() {
            return JoinStrategy::Cartesian;
        }
        let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(self.on.len());
        for (a, b) in &self.on {
            let (l, r) = if *a < self.right_offset { (*a, *b) } else { (*b, *a) };
            if r < self.right_offset || l >= self.right_offset {
                return JoinStrategy::NestedLoop;
            }
            pairs.push((l, r - self.right_offset));
        }
        JoinStrategy::Hash(pairs)
    }
}

/// Compile a query against a database without evaluating it.
///
/// Surfaces exactly the errors [`execute`] reports, in the same order — every
/// error the engine can produce (the six Table-2 categories, set-op arity,
/// unsupported constructs) is data-independent, so a successfully prepared
/// plan always [`run`]s.
pub fn prepare(db: &Database, q: &Query) -> Result<Plan, ExecError> {
    let core = prepare_core(db, &q.core)?;
    let compound = match &q.compound {
        None => None,
        Some((op, rhs)) => {
            let rhs_plan = prepare(db, rhs)?;
            let (left, right) = (core.out_columns.len(), rhs_plan.core.out_columns.len());
            if left != right {
                return Err(ExecError::SetOpArity { left, right });
            }
            Some((*op, Box::new(rhs_plan)))
        }
    };
    Ok(Plan { core, compound })
}

/// Evaluate a prepared plan against the database it was prepared on: join,
/// filter, group/aggregate, project, de-duplicate, sort, limit. Pure data work;
/// every failure mode was already surfaced by [`prepare`].
///
/// Runs the vectorized pipeline over ad-hoc column tables: each named table is
/// transposed at most once per call and nothing is cached. Sessions run the
/// same pipeline over their fingerprint-keyed column cache.
pub fn run(plan: &Plan, db: &Database) -> ResultSet {
    let mut fresh: HashMap<usize, Arc<ColumnTable>> = HashMap::new();
    let mut provider = |ti: usize| {
        fresh.entry(ti).or_insert_with(|| Arc::new(ColumnTable::from_table(db, ti))).clone()
    };
    batch::run_plan_with(plan, &mut provider, None)
}

/// Apply a compound set operation with hash set semantics (first-occurrence
/// order, duplicates removed). Shared verbatim by the engine and the reference
/// interpreter so compound results cannot diverge.
pub(crate) fn combine_compound(op: SetOp, left: ResultSet, right: ResultSet) -> ResultSet {
    let mut out_rows: Vec<Row> = Vec::new();
    let mut seen: HashSet<Row> = HashSet::new();
    match op {
        SetOp::Union => {
            for r in left.rows.into_iter().chain(right.rows) {
                if seen.insert(r.clone()) {
                    out_rows.push(r);
                }
            }
        }
        SetOp::Intersect => {
            let right_set: HashSet<Row> = right.rows.into_iter().collect();
            for r in left.rows {
                if right_set.contains(&r) && seen.insert(r.clone()) {
                    out_rows.push(r);
                }
            }
        }
        SetOp::Except => {
            let right_set: HashSet<Row> = right.rows.into_iter().collect();
            for r in left.rows {
                if !right_set.contains(&r) && seen.insert(r.clone()) {
                    out_rows.push(r);
                }
            }
        }
    }
    ResultSet { columns: left.columns, rows: out_rows }
}

// ---------------------------------------------------------------------------
// Binding environment
// ---------------------------------------------------------------------------

struct BoundSource {
    /// Binding name (alias or table name), lower-case. Derived tables without an
    /// alias get an empty name (columns still resolvable unqualified).
    name: String,
    /// Column names, lower-case.
    col_names: Vec<String>,
    /// Offset of this source's first column in the joined row.
    offset: usize,
}

struct Env {
    sources: Vec<BoundSource>,
    width: usize,
    /// Sources at this index and beyond resolve only through their qualifier.
    /// `usize::MAX` (every constructor but the upsert env) means all sources
    /// participate in unqualified resolution; the `DO UPDATE` env sets it to 1
    /// so a bare column means the existing row, never `excluded` (SQLite).
    qualified_only_from: usize,
}

impl Env {
    /// Resolve a column reference to a flat index, reproducing the paper's error
    /// taxonomy for every failure mode.
    fn resolve(&self, c: &ColumnRef, db: &Database) -> Result<usize, ExecError> {
        let col = c.column.to_ascii_lowercase();
        if let Some(q) = &c.table {
            let q_l = q.to_ascii_lowercase();
            if let Some(src) = self.sources.iter().find(|s| s.name == q_l) {
                if let Some(ci) = src.col_names.iter().position(|n| *n == col) {
                    return Ok(src.offset + ci);
                }
                // Qualified binding exists but lacks the column: mismatch if another
                // bound source has it.
                let correct = self
                    .sources
                    .iter()
                    .find(|s| s.col_names.contains(&col))
                    .map(|s| s.name.clone());
                if correct.is_some() {
                    return Err(ExecError::TableColumnMismatch {
                        binding: q.clone(),
                        column: c.column.clone(),
                        correct_table: correct,
                    });
                }
                return match owner_table(db, &col) {
                    Some(owner) => Err(ExecError::MissingTable {
                        column: c.column.clone(),
                        owner_table: owner,
                    }),
                    None => Err(ExecError::UnknownColumn { column: c.column.clone() }),
                };
            }
            // Unknown binding: a real table not present in FROM means Missing-Table.
            if let Some(ti) = db.schema.table_index(&q_l) {
                if db.schema.tables[ti].column_index(&col).is_some() {
                    return Err(ExecError::MissingTable {
                        column: c.column.clone(),
                        owner_table: db.schema.tables[ti].name.clone(),
                    });
                }
            }
            return Err(ExecError::UnknownTable { name: q.clone() });
        }
        // Unqualified.
        let hits: Vec<&BoundSource> = self
            .sources
            .iter()
            .take(self.qualified_only_from)
            .filter(|s| s.col_names.contains(&col))
            .collect();
        match hits.len() {
            1 => {
                let src = hits[0];
                let ci = src.col_names.iter().position(|n| *n == col).unwrap();
                Ok(src.offset + ci)
            }
            0 => match owner_table(db, &col) {
                Some(owner) => {
                    Err(ExecError::MissingTable { column: c.column.clone(), owner_table: owner })
                }
                None => Err(ExecError::UnknownColumn { column: c.column.clone() }),
            },
            _ => Err(ExecError::AmbiguousColumn {
                column: c.column.clone(),
                candidates: hits.iter().map(|s| s.name.clone()).collect(),
            }),
        }
    }
}

fn owner_table(db: &Database, col_lower: &str) -> Option<String> {
    db.schema.tables.iter().find(|t| t.column_index(col_lower).is_some()).map(|t| t.name.clone())
}

// ---------------------------------------------------------------------------
// Compiled expressions
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub(crate) enum CExpr {
    Col(usize),
    Lit(Value),
    Star,
    Arith(ArithOp, Box<CExpr>, Box<CExpr>),
    Func(crate::dialect::ScalarFunc, Vec<CExpr>),
}

#[derive(Debug, Clone)]
pub(crate) struct CAgg {
    pub(crate) func: Option<AggFunc>,
    pub(crate) distinct: bool,
    pub(crate) expr: CExpr,
}

#[derive(Debug, Clone)]
pub(crate) enum COperand {
    Lit(Value),
    Col(usize),
    /// Pre-executed uncorrelated subquery: first column of its rows.
    SubColumn(Vec<Value>),
}

#[derive(Debug, Clone)]
pub(crate) struct CPred {
    pub(crate) left: CAgg,
    pub(crate) op: CmpOp,
    pub(crate) right: COperand,
    pub(crate) right2: Option<COperand>,
}

#[derive(Debug, Clone)]
pub(crate) enum CCond {
    And(Box<CCond>, Box<CCond>),
    Or(Box<CCond>, Box<CCond>),
    Pred(CPred),
}

fn compile_val_unit(v: &ValUnit, env: &Env, db: &Database) -> Result<CExpr, ExecError> {
    match v {
        ValUnit::Column(c) => Ok(CExpr::Col(env.resolve(c, db)?)),
        ValUnit::Star => Ok(CExpr::Star),
        ValUnit::Literal(l) => Ok(CExpr::Lit(Value::from_literal(l))),
        ValUnit::Arith { op, left, right } => Ok(CExpr::Arith(
            *op,
            Box::new(compile_val_unit(left, env, db)?),
            Box::new(compile_val_unit(right, env, db)?),
        )),
        ValUnit::Func { name, args } => {
            // Resolve arguments first: a hallucinated function over a hallucinated
            // column should report the deepest error deterministically left-to-right.
            let compiled: Vec<CExpr> =
                args.iter().map(|a| compile_val_unit(a, env, db)).collect::<Result<_, _>>()?;
            // The database's dialect decides which scalar functions exist
            // (SQLite has no CONCAT — the paper's Function-Hallucination).
            let Some(f) = db.dialect.function(name) else {
                return Err(ExecError::UnknownFunction { name: name.clone() });
            };
            let (lo, hi) = f.arity();
            if compiled.len() < lo || compiled.len() > hi {
                return Err(ExecError::Unsupported {
                    message: format!("wrong number of arguments to {}()", f.name()),
                });
            }
            Ok(CExpr::Func(f, compiled))
        }
    }
}

fn compile_agg(a: &AggExpr, env: &Env, db: &Database) -> Result<CAgg, ExecError> {
    if !a.extra_args.is_empty() {
        // Validate the argument columns first so repairs can still find them.
        compile_val_unit(&a.unit, env, db)?;
        for e in &a.extra_args {
            compile_val_unit(e, env, db)?;
        }
        return Err(ExecError::AggregateArity {
            func: a.func.map(|f| f.keyword()).unwrap_or("?").to_string(),
            args: 1 + a.extra_args.len(),
        });
    }
    let expr = compile_val_unit(&a.unit, env, db)?;
    if matches!(expr, CExpr::Star) && a.func != Some(AggFunc::Count) && a.func.is_some() {
        return Err(ExecError::Unsupported { message: "aggregate over * requires COUNT".into() });
    }
    Ok(CAgg { func: a.func, distinct: a.distinct, expr })
}

fn compile_operand(o: &Operand, env: &Env, db: &Database) -> Result<COperand, ExecError> {
    match o {
        Operand::Literal(l) => Ok(COperand::Lit(Value::from_literal(l))),
        Operand::Column(c) => Ok(COperand::Col(env.resolve(c, db)?)),
        Operand::Subquery(q) => {
            let rs = execute(db, q)?;
            let col: Vec<Value> = rs
                .rows
                .into_iter()
                .map(|mut r| if r.is_empty() { Value::Null } else { r.swap_remove(0) })
                .collect();
            Ok(COperand::SubColumn(col))
        }
    }
}

fn compile_cond(
    c: &Condition,
    env: &Env,
    db: &Database,
    allow_agg: bool,
) -> Result<CCond, ExecError> {
    match c {
        Condition::And(l, r) => Ok(CCond::And(
            Box::new(compile_cond(l, env, db, allow_agg)?),
            Box::new(compile_cond(r, env, db, allow_agg)?),
        )),
        Condition::Or(l, r) => Ok(CCond::Or(
            Box::new(compile_cond(l, env, db, allow_agg)?),
            Box::new(compile_cond(r, env, db, allow_agg)?),
        )),
        Condition::Pred(p) => {
            if !allow_agg && p.left.func.is_some() {
                return Err(ExecError::Unsupported {
                    message: "aggregate function in WHERE clause".into(),
                });
            }
            Ok(CCond::Pred(CPred {
                left: compile_agg(&p.left, env, db)?,
                op: p.op,
                right: compile_operand(&p.right, env, db)?,
                right2: p.right2.as_ref().map(|r| compile_operand(r, env, db)).transpose()?,
            }))
        }
    }
}

// ---------------------------------------------------------------------------
// Evaluation over rows / groups
// ---------------------------------------------------------------------------
//
// Every evaluation primitive below is generic over [`RowRef`], an abstract,
// copyable handle that can produce the value at a flat column index. The write
// path and the reference interpreter ([`crate::reference`]) instantiate it with
// `&Row` (materialized rows); the vectorized engine in [`crate::batch`]
// instantiates it with a virtual row over typed column vectors. Both drivers
// therefore run the *same* monomorphized logic for expressions, aggregates,
// predicates and Kleene combinators, which is what lets the reference
// interpreter serve as an independent oracle for the drivers alone.

/// A copyable handle onto one (possibly virtual) row of the joined relation.
pub(crate) trait RowRef<'a>: Copy {
    /// The value at flat column index `flat`, borrowed from the backing store.
    fn at(self, flat: usize) -> ValueRef<'a>;
}

impl<'a> RowRef<'a> for &'a Row {
    fn at(self, flat: usize) -> ValueRef<'a> {
        self[flat].as_ref()
    }
}

/// A lazily-materialized evaluation result: borrowed for bare columns (the hot
/// predicate path allocates nothing), owned for computed aggregates.
enum EvalVal<'a> {
    Owned(Value),
    Ref(ValueRef<'a>),
}

impl<'a> EvalVal<'a> {
    fn view(&self) -> ValueRef<'_> {
        match self {
            EvalVal::Owned(v) => v.as_ref(),
            EvalVal::Ref(r) => *r,
        }
    }
}

fn eval_expr<'a, R: RowRef<'a>>(e: &CExpr, row: R) -> Value {
    match e {
        CExpr::Col(i) => row.at(*i).to_value(),
        CExpr::Lit(v) => v.clone(),
        CExpr::Star => Value::Int(1),
        CExpr::Arith(op, l, r) => eval_expr(l, row).arith(*op, &eval_expr(r, row)),
        CExpr::Func(f, args) => {
            let vals: Vec<Value> = args.iter().map(|a| eval_expr(a, row)).collect();
            f.eval(&vals)
        }
    }
}

/// Evaluate an (optionally aggregated) expression over a group of rows.
/// `rep` is the representative row for bare columns under aggregation.
pub(crate) fn eval_agg<'a, R: RowRef<'a>>(a: &CAgg, group: &[R], rep: Option<R>) -> Value {
    let Some(func) = a.func else {
        let row = rep.or_else(|| group.first().copied());
        return match row {
            Some(r) => eval_expr(&a.expr, r),
            None => Value::Null,
        };
    };
    match func {
        AggFunc::Count => {
            if matches!(a.expr, CExpr::Star) {
                return Value::Int(group.len() as i64);
            }
            let vals = group.iter().map(|r| eval_expr(&a.expr, *r)).filter(|v| !v.is_null());
            if a.distinct {
                let mut seen: HashSet<Value> = HashSet::new();
                Value::Int(vals.filter(|v| seen.insert(v.clone())).count() as i64)
            } else {
                Value::Int(vals.count() as i64)
            }
        }
        AggFunc::Max | AggFunc::Min => {
            let mut best: Option<Value> = None;
            for r in group {
                let v = eval_expr(&a.expr, *r);
                if v.is_null() {
                    continue;
                }
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let keep_new = if func == AggFunc::Max {
                            v.total_cmp(&b) == Ordering::Greater
                        } else {
                            v.total_cmp(&b) == Ordering::Less
                        };
                        if keep_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            best.unwrap_or(Value::Null)
        }
        AggFunc::Sum | AggFunc::Avg => {
            let mut vals: Vec<f64> = Vec::new();
            let mut seen: HashSet<Value> = HashSet::new();
            for r in group {
                let v = eval_expr(&a.expr, *r);
                if v.is_null() {
                    continue;
                }
                if a.distinct && !seen.insert(v.clone()) {
                    continue;
                }
                vals.push(v.coerce_f64().unwrap_or(0.0));
            }
            if vals.is_empty() {
                return Value::Null;
            }
            let sum: f64 = vals.iter().sum();
            let out = if func == AggFunc::Sum { sum } else { sum / vals.len() as f64 };
            // SUM over integers stays integral in SQLite.
            if func == AggFunc::Sum && out.fract() == 0.0 && out.abs() < i64::MAX as f64 {
                Value::Int(out as i64)
            } else {
                Value::Float(out)
            }
        }
    }
}

/// The left-hand side of a predicate, borrowed when it is a bare column so the
/// common `col CMP literal` filter allocates nothing per row.
fn eval_left<'a, R: RowRef<'a>>(a: &CAgg, group: &[R], rep: Option<R>) -> EvalVal<'a> {
    if a.func.is_none() {
        if let CExpr::Col(i) = &a.expr {
            let row = rep.or_else(|| group.first().copied());
            return match row {
                Some(r) => EvalVal::Ref(r.at(*i)),
                None => EvalVal::Owned(Value::Null),
            };
        }
    }
    EvalVal::Owned(eval_agg(a, group, rep))
}

/// A scalar operand as a borrowed view. Literals borrow from the plan, columns
/// from the representative row; a missing row yields NULL.
fn operand_scalar<'a, R: RowRef<'a>>(o: &'a COperand, group: &[R], rep: Option<R>) -> ValueRef<'a> {
    match o {
        COperand::Lit(v) => v.as_ref(),
        COperand::Col(i) => {
            let row = rep.or_else(|| group.first().copied());
            match row {
                Some(r) => r.at(*i),
                None => ValueRef::Null,
            }
        }
        // Scalar context: SQLite takes the first row of a subquery.
        COperand::SubColumn(vals) => match vals.first() {
            Some(v) => v.as_ref(),
            None => ValueRef::Null,
        },
    }
}

fn eval_pred<'a, R: RowRef<'a>>(p: &'a CPred, group: &[R], rep: Option<R>) -> Option<bool> {
    let left_val = eval_left(&p.left, group, rep);
    let left = left_val.view();
    match p.op {
        CmpOp::Eq => {
            let r = operand_scalar(&p.right, group, rep);
            // `= NULL` is parsed from IS NULL: evaluate as the IS test.
            if r.is_null() {
                return Some(left.is_null());
            }
            left.sql_eq(r)
        }
        CmpOp::Ne => {
            let r = operand_scalar(&p.right, group, rep);
            if r.is_null() {
                return Some(!left.is_null());
            }
            left.sql_eq(r).map(|b| !b)
        }
        CmpOp::Lt => {
            left.sql_cmp(operand_scalar(&p.right, group, rep)).map(|o| o == Ordering::Less)
        }
        CmpOp::Le => {
            left.sql_cmp(operand_scalar(&p.right, group, rep)).map(|o| o != Ordering::Greater)
        }
        CmpOp::Gt => {
            left.sql_cmp(operand_scalar(&p.right, group, rep)).map(|o| o == Ordering::Greater)
        }
        CmpOp::Ge => {
            left.sql_cmp(operand_scalar(&p.right, group, rep)).map(|o| o != Ordering::Less)
        }
        CmpOp::Like => left.sql_like(operand_scalar(&p.right, group, rep)),
        CmpOp::NotLike => left.sql_like(operand_scalar(&p.right, group, rep)).map(|b| !b),
        CmpOp::Between => {
            let lo = operand_scalar(&p.right, group, rep);
            let hi = match &p.right2 {
                Some(o) => operand_scalar(o, group, rep),
                None => ValueRef::Null,
            };
            let ge = left.sql_cmp(lo).map(|o| o != Ordering::Less);
            let le = left.sql_cmp(hi).map(|o| o != Ordering::Greater);
            kleene_and(ge, le)
        }
        CmpOp::In | CmpOp::NotIn => {
            if left.is_null() {
                return None;
            }
            let single;
            let vals: &[Value] = match &p.right {
                COperand::SubColumn(v) => v,
                other => {
                    single = [operand_scalar(other, group, rep).to_value()];
                    &single
                }
            };
            let mut saw_null = false;
            for v in vals {
                match left.sql_eq(v.as_ref()) {
                    Some(true) => {
                        return Some(p.op == CmpOp::In);
                    }
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                // Unknown membership: three-valued NOT IN trap.
                None
            } else {
                Some(p.op == CmpOp::NotIn)
            }
        }
    }
}

fn kleene_and(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn kleene_or(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

pub(crate) fn eval_cond<'a, R: RowRef<'a>>(
    c: &'a CCond,
    group: &[R],
    rep: Option<R>,
) -> Option<bool> {
    match c {
        CCond::And(l, r) => kleene_and(eval_cond(l, group, rep), eval_cond(r, group, rep)),
        CCond::Or(l, r) => kleene_or(eval_cond(l, group, rep), eval_cond(r, group, rep)),
        CCond::Pred(p) => eval_pred(p, group, rep),
    }
}

// ---------------------------------------------------------------------------
// Core preparation
// ---------------------------------------------------------------------------

/// Bind one FROM source: resolve a named table to its index, or materialize a
/// derived table. Returns the environment entry plus the run-time row source.
fn bind_source(db: &Database, tr: &TableRef) -> Result<(BoundSource, PlanSource), ExecError> {
    match tr {
        TableRef::Named { name, alias } => {
            let ti = db
                .schema
                .table_index(name)
                .ok_or_else(|| ExecError::UnknownTable { name: name.clone() })?;
            let t = &db.schema.tables[ti];
            Ok((
                BoundSource {
                    name: alias.as_deref().unwrap_or(name).to_ascii_lowercase(),
                    col_names: t.columns.iter().map(|c| c.name.to_ascii_lowercase()).collect(),
                    offset: 0,
                },
                PlanSource::Table(ti),
            ))
        }
        TableRef::Subquery { query, alias } => {
            let rs = execute(db, query)?;
            Ok((
                BoundSource {
                    name: alias.as_deref().unwrap_or("").to_ascii_lowercase(),
                    col_names: rs.columns.clone(),
                    offset: 0,
                },
                PlanSource::Materialized(rs.rows),
            ))
        }
    }
}

/// Compile one SELECT core. Error order matches the historical fused executor
/// exactly: bind first source, then per-join bind + ON resolution, then select
/// items, WHERE, GROUP BY, HAVING, ORDER BY, and finally the data-independent
/// aggregation checks.
fn prepare_core(db: &Database, core: &SelectCore) -> Result<CorePlan, ExecError> {
    // --- Phase 1: bind FROM and resolve join keys --------------------------
    let mut env = Env { sources: Vec::new(), width: 0, qualified_only_from: usize::MAX };
    let mut sources: Vec<PlanSource> = Vec::new();
    let mut joins: Vec<JoinStep> = Vec::new();
    {
        let (mut first, rows) = bind_source(db, &core.from.first)?;
        first.offset = 0;
        env.width = first.col_names.len();
        env.sources.push(first);
        sources.push(rows);
    }
    for join in &core.from.joins {
        let (mut src, rows) = bind_source(db, &join.table)?;
        src.offset = env.width;
        env.width += src.col_names.len();
        env.sources.push(src);
        sources.push(rows);
        // Resolve ON conditions against the extended environment.
        let mut on = Vec::new();
        for (l, r) in &join.on {
            on.push((env.resolve(l, db)?, env.resolve(r, db)?));
        }
        joins.push(JoinStep { right_offset: env.sources.last().unwrap().offset, on });
    }

    // --- Phase 2: compile expressions -------------------------------------
    let star_width = env.width;
    let mut select: Vec<(CAgg, String)> = Vec::new();
    let mut select_all = false;
    for item in &core.items {
        if matches!(item.expr.unit, ValUnit::Star) && item.expr.func.is_none() {
            select_all = true;
            continue;
        }
        let name = item
            .alias
            .clone()
            .map(|a| a.to_ascii_lowercase())
            .unwrap_or_else(|| output_name(&item.expr));
        select.push((compile_agg(&item.expr, &env, db)?, name));
    }
    let where_c =
        core.where_clause.as_ref().map(|c| compile_cond(c, &env, db, false)).transpose()?;
    let group_cols: Vec<usize> =
        core.group_by.iter().map(|g| env.resolve(g, db)).collect::<Result<_, _>>()?;
    let having_c = core.having.as_ref().map(|c| compile_cond(c, &env, db, true)).transpose()?;
    let order: Vec<(OrderTarget, OrderDir)> = core
        .order_by
        .iter()
        .map(|o| {
            // An ORDER BY key naming a select alias sorts by that output column.
            if let (None, ValUnit::Column(c)) = (&o.expr.func, &o.expr.unit) {
                if c.table.is_none() {
                    let lower = c.column.to_ascii_lowercase();
                    if let Some(ix) = select.iter().position(|(_, n)| *n == lower) {
                        return Ok((OrderTarget::OutputCol(ix), o.dir));
                    }
                }
            }
            Ok((OrderTarget::Expr(compile_agg(&o.expr, &env, db)?), o.dir))
        })
        .collect::<Result<_, _>>()?;

    let has_agg = select.iter().any(|(a, _)| a.func.is_some())
        || order.iter().any(|(t, _)| matches!(t, OrderTarget::Expr(a) if a.func.is_some()));
    let aggregate_path = !group_cols.is_empty() || has_agg || having_c.is_some();
    if aggregate_path && select_all {
        return Err(ExecError::Unsupported { message: "SELECT * with aggregation".into() });
    }

    let mut out_columns: Vec<String> = Vec::new();
    if select_all {
        for s in &env.sources {
            out_columns.extend(s.col_names.iter().cloned());
        }
    }
    out_columns.extend(select.iter().map(|(_, n)| n.clone()));

    Ok(CorePlan {
        sources,
        joins,
        select,
        select_all,
        star_width,
        where_c,
        group_cols,
        having_c,
        order,
        distinct: core.distinct,
        limit: core.limit,
        aggregate_path,
        out_columns,
    })
}

// ---------------------------------------------------------------------------
// Core evaluation
// ---------------------------------------------------------------------------

/// The shared tail of core evaluation: DISTINCT (insertion-order hash dedup),
/// stable multi-key sort, LIMIT. The engine and the reference interpreter feed
/// their `(output row, sort keys)` stream through this single implementation.
pub(crate) fn finish_core(mut produced: Vec<(Row, Vec<Value>)>, p: &CorePlan) -> ResultSet {
    if p.distinct {
        let mut seen: HashSet<Row> = HashSet::new();
        produced.retain(|(row, _)| seen.insert(row.clone()));
    }
    if !p.order.is_empty() {
        produced.sort_by(|(_, ka), (_, kb)| {
            for ((_, dir), (a, b)) in p.order.iter().zip(ka.iter().zip(kb.iter())) {
                let ord = a.total_cmp(b);
                let ord = if *dir == OrderDir::Desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }
    let mut rows: Vec<Row> = produced.into_iter().map(|(r, _)| r).collect();
    if let Some(n) = p.limit {
        rows.truncate(n as usize);
    }
    ResultSet { columns: p.out_columns.clone(), rows }
}

#[derive(Debug, Clone)]
pub(crate) enum OrderTarget {
    Expr(CAgg),
    OutputCol(usize),
}

/// SQLite quirk: `SELECT name, MAX(age) FROM t` returns the row that achieves the
/// MAX/MIN when there is exactly one such aggregate; otherwise bare columns read
/// from the first row of the group.
pub(crate) fn representative_row<'a, R: RowRef<'a>>(
    select: &[(CAgg, String)],
    group: &[R],
) -> Option<R> {
    let minmax: Vec<&CAgg> = select
        .iter()
        .map(|(a, _)| a)
        .filter(|a| matches!(a.func, Some(AggFunc::Max) | Some(AggFunc::Min)))
        .collect();
    let has_bare = select.iter().any(|(a, _)| a.func.is_none());
    if has_bare && minmax.len() == 1 {
        let agg = minmax[0];
        let mut best: Option<(R, Value)> = None;
        for r in group {
            let v = eval_expr(&agg.expr, *r);
            if v.is_null() {
                continue;
            }
            let better = match &best {
                None => true,
                Some((_, b)) => {
                    if agg.func == Some(AggFunc::Max) {
                        v.total_cmp(b) == Ordering::Greater
                    } else {
                        v.total_cmp(b) == Ordering::Less
                    }
                }
            };
            if better {
                best = Some((*r, v));
            }
        }
        return best.map(|(r, _)| r).or_else(|| group.first().copied());
    }
    group.first().copied()
}

fn output_name(a: &AggExpr) -> String {
    match (&a.func, &a.unit) {
        (None, ValUnit::Column(c)) => c.column.to_ascii_lowercase(),
        _ => format!("{a}").to_ascii_lowercase(),
    }
}

// ---------------------------------------------------------------------------
// Write path: DML preparation and application (DESIGN.md §15)
// ---------------------------------------------------------------------------

/// The result of applying a write plan: per-kind row deltas plus the
/// database's post-state fingerprint.
///
/// `rows_affected` follows SQLite's `changes()`: rows actually inserted,
/// updated, or deleted. An `ON CONFLICT DO NOTHING` hit counts in
/// `conflict_hits` only; a `DO UPDATE` hit counts in both `conflict_hits` and
/// `rows_updated`. The fingerprint is [`Database::fingerprint`] *after* the
/// mutation — the value state-based evaluation scores against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Rows inserted + updated + deleted (SQLite `changes()` semantics).
    pub rows_affected: u64,
    /// Rows appended by INSERT.
    pub rows_inserted: u64,
    /// Rows rewritten by UPDATE or `ON CONFLICT DO UPDATE`.
    pub rows_updated: u64,
    /// Rows removed by DELETE.
    pub rows_deleted: u64,
    /// INSERT tuples that hit an existing primary key under `ON CONFLICT`.
    pub conflict_hits: u64,
    /// [`Database::fingerprint`] after the write.
    pub fingerprint: u128,
}

/// A prepared [`Statement`]: a read [`Plan`] or a compiled [`WritePlan`].
///
/// This is the `Statement`-level analogue of [`prepare`]'s `Query → Plan`
/// contract: every error a write can produce (unknown table/column, invalid
/// conflict target, arity mismatches) surfaces at prepare time, so a prepared
/// write always applies.
#[derive(Debug, Clone)]
// Read plans dominate the size, but prepared statements are cached behind
// `Arc` and matched into `&Plan` on the execution hot path; indirection here
// would cost more than the inline size saves.
#[allow(clippy::large_enum_variant)]
pub enum StatementPlan {
    /// A read-only query plan; run with [`run`].
    Read(Plan),
    /// A write plan; apply with [`apply_write`].
    Write(WritePlan),
}

/// A compiled DML statement: target table resolved to its index, literal
/// tuples widened to full schema rows, assignment targets and filter
/// expressions resolved to flat column indices.
///
/// Like a read [`Plan`], a write plan is only meaningful for the database
/// state it was prepared against: WHERE-operand subqueries were materialized
/// at prepare time. Sessions key cached write plans by the *pre-write*
/// fingerprint, so any mutation naturally invalidates them.
#[derive(Debug, Clone)]
pub struct WritePlan {
    pub(crate) table: usize,
    pub(crate) kind: WriteKind,
}

impl WritePlan {
    /// Index of the target table in [`Database::rows`].
    pub fn table(&self) -> usize {
        self.table
    }
}

#[derive(Debug, Clone)]
pub(crate) enum WriteKind {
    Insert {
        /// Full-width rows (missing columns filled with NULL).
        rows: Vec<Row>,
        /// Primary-key column of the target table, if declared.
        pk: Option<usize>,
        on_conflict: Option<CompiledConflict>,
    },
    Update {
        /// `(column index, value expression)`; expressions see the OLD row.
        sets: Vec<(usize, CExpr)>,
        filter: Option<CCond>,
    },
    Delete {
        filter: Option<CCond>,
    },
}

#[derive(Debug, Clone)]
pub(crate) enum CompiledConflict {
    DoNothing,
    /// Assignments evaluated over the concatenated row `[existing ++ excluded]`
    /// (width 2 × table width; `excluded.<col>` resolves at offset ncols).
    DoUpdate {
        sets: Vec<(usize, CExpr)>,
    },
}

/// Compile any statement against a database without evaluating it. The
/// `Statement`-level entry point mirroring [`prepare`].
pub fn prepare_statement(db: &Database, stmt: &Statement) -> Result<StatementPlan, ExecError> {
    match stmt {
        Statement::Select(q) => prepare(db, q).map(StatementPlan::Read),
        _ => prepare_write(db, stmt).map(StatementPlan::Write),
    }
}

/// Compile a write statement. Errors on `SELECT` — use [`prepare`] or
/// [`prepare_statement`] for reads.
pub fn prepare_write(db: &Database, stmt: &Statement) -> Result<WritePlan, ExecError> {
    match stmt {
        Statement::Select(_) => {
            Err(ExecError::Unsupported { message: "SELECT is not a write statement".into() })
        }
        Statement::Insert(i) => prepare_insert(db, i),
        Statement::Update(u) => prepare_update(db, u),
        Statement::Delete(d) => prepare_delete(db, d),
    }
}

/// Prepare and apply a write in one step. The write-path analogue of
/// [`execute`].
pub fn execute_write(db: &mut Database, stmt: &Statement) -> Result<WriteOutcome, ExecError> {
    let plan = prepare_write(db, stmt)?;
    Ok(apply_write(&plan, db))
}

fn resolve_target_table(db: &Database, name: &str) -> Result<usize, ExecError> {
    db.schema.table_index(name).ok_or_else(|| ExecError::UnknownTable { name: name.to_string() })
}

/// A single-table environment binding the write target, so column resolution
/// in DML reuses the full error taxonomy of [`Env::resolve`].
fn table_env(db: &Database, ti: usize) -> Env {
    let t = &db.schema.tables[ti];
    let col_names: Vec<String> = t.columns.iter().map(|c| c.name.to_ascii_lowercase()).collect();
    let width = col_names.len();
    Env {
        sources: vec![BoundSource { name: t.name.to_ascii_lowercase(), col_names, offset: 0 }],
        width,
        qualified_only_from: usize::MAX,
    }
}

/// The `DO UPDATE` environment: the target table at offset 0 plus the
/// `excluded` pseudo-table (same columns) at offset ncols. A bare column name
/// means the existing row; `excluded` is reachable only through its qualifier.
fn upsert_env(db: &Database, ti: usize) -> Env {
    let mut env = table_env(db, ti);
    let col_names = env.sources[0].col_names.clone();
    let n = col_names.len();
    env.sources.push(BoundSource { name: "excluded".into(), col_names, offset: n });
    env.width = 2 * n;
    env.qualified_only_from = 1;
    env
}

/// Compile assignments: targets resolve in `target_env` (the table alone, so
/// `excluded.c = ...` is rejected), values in `value_env` (which adds the
/// `excluded` binding for `DO UPDATE`).
fn compile_sets(
    sets: &[Assignment],
    target_env: &Env,
    value_env: &Env,
    db: &Database,
) -> Result<Vec<(usize, CExpr)>, ExecError> {
    let mut out = Vec::with_capacity(sets.len());
    for a in sets {
        let col = target_env.resolve(&a.column, db)?;
        let expr = compile_val_unit(&a.value, value_env, db)?;
        if matches!(expr, CExpr::Star) {
            return Err(ExecError::Unsupported { message: "* as an assignment value".into() });
        }
        out.push((col, expr));
    }
    Ok(out)
}

fn prepare_insert(db: &Database, ins: &InsertStmt) -> Result<WritePlan, ExecError> {
    let ti = resolve_target_table(db, &ins.table)?;
    let ncols = db.schema.tables[ti].columns.len();
    let env = table_env(db, ti);
    // Explicit column list → schema positions; empty list means all columns
    // in schema order.
    let positions: Vec<usize> = if ins.columns.is_empty() {
        (0..ncols).collect()
    } else {
        ins.columns
            .iter()
            .map(|c| env.resolve(&ColumnRef { table: None, column: c.clone() }, db))
            .collect::<Result<_, _>>()?
    };
    let mut rows: Vec<Row> = Vec::with_capacity(ins.rows.len());
    for tuple in &ins.rows {
        if tuple.len() != positions.len() {
            return Err(ExecError::Unsupported {
                message: format!(
                    "INSERT has {} values for {} columns",
                    tuple.len(),
                    positions.len()
                ),
            });
        }
        // Unnamed columns stay NULL.
        let mut row: Row = vec![Value::Null; ncols];
        for (pos, lit) in positions.iter().zip(tuple) {
            row[*pos] = Value::from_literal(lit);
        }
        rows.push(row);
    }
    let pk = db.schema.tables[ti].primary_key;
    let on_conflict = match &ins.on_conflict {
        None => None,
        Some(oc) => {
            let Some(pk) = pk else {
                return Err(ExecError::Unsupported {
                    message: format!("ON CONFLICT on table {} which has no primary key", ins.table),
                });
            };
            // An explicit conflict target must name the primary key — the only
            // uniqueness constraint this engine enforces.
            for c in &ins.conflict_target {
                let ix = env.resolve(&ColumnRef { table: None, column: c.clone() }, db)?;
                if ix != pk {
                    return Err(ExecError::Unsupported {
                        message: format!(
                            "ON CONFLICT target {c} is not the primary key of {}",
                            ins.table
                        ),
                    });
                }
            }
            Some(match oc {
                OnConflict::DoNothing => CompiledConflict::DoNothing,
                OnConflict::DoUpdate { sets } => {
                    let value_env = upsert_env(db, ti);
                    CompiledConflict::DoUpdate { sets: compile_sets(sets, &env, &value_env, db)? }
                }
            })
        }
    };
    Ok(WritePlan { table: ti, kind: WriteKind::Insert { rows, pk, on_conflict } })
}

fn prepare_update(db: &Database, up: &UpdateStmt) -> Result<WritePlan, ExecError> {
    let ti = resolve_target_table(db, &up.table)?;
    let env = table_env(db, ti);
    let sets = compile_sets(&up.sets, &env, &env, db)?;
    let filter = up.where_clause.as_ref().map(|c| compile_cond(c, &env, db, false)).transpose()?;
    Ok(WritePlan { table: ti, kind: WriteKind::Update { sets, filter } })
}

fn prepare_delete(db: &Database, del: &DeleteStmt) -> Result<WritePlan, ExecError> {
    let ti = resolve_target_table(db, &del.table)?;
    let env = table_env(db, ti);
    let filter = del.where_clause.as_ref().map(|c| compile_cond(c, &env, db, false)).transpose()?;
    Ok(WritePlan { table: ti, kind: WriteKind::Delete { filter } })
}

/// Assemble the outcome after a mutation: invalidate the fingerprint memo and
/// re-hash.
fn write_outcome(
    db: &mut Database,
    inserted: u64,
    updated: u64,
    deleted: u64,
    conflicts: u64,
) -> WriteOutcome {
    db.invalidate_fingerprint();
    WriteOutcome {
        rows_affected: inserted + updated + deleted,
        rows_inserted: inserted,
        rows_updated: updated,
        rows_deleted: deleted,
        conflict_hits: conflicts,
        fingerprint: db.fingerprint(),
    }
}

/// Apply a write plan to the database it was prepared against: the engine's
/// only write path. Rows are filtered and rewritten in place in the row store;
/// no column table is built. Infallible, like [`run`]: every failure mode
/// surfaced in [`prepare_write`].
pub fn apply_write(plan: &WritePlan, db: &mut Database) -> WriteOutcome {
    let ti = plan.table;
    let (mut inserted, mut updated, mut deleted, mut conflicts) = (0u64, 0u64, 0u64, 0u64);
    match &plan.kind {
        WriteKind::Insert { rows, pk, on_conflict } => {
            for new in rows {
                // Scan the *live* table so later VALUES tuples conflict with
                // rows inserted earlier in the same statement. NULL primary
                // keys never conflict (SQLite).
                let hit = match (pk, on_conflict) {
                    (Some(pk), Some(_)) if !new[*pk].is_null() => {
                        db.rows[ti].iter().position(|r| r[*pk].sql_eq(&new[*pk]) == Some(true))
                    }
                    _ => None,
                };
                match (hit, on_conflict) {
                    (Some(_), Some(CompiledConflict::DoNothing)) => conflicts += 1,
                    (Some(i), Some(CompiledConflict::DoUpdate { sets })) => {
                        conflicts += 1;
                        let concat: Row =
                            db.rows[ti][i].iter().chain(new.iter()).cloned().collect();
                        let vals: Vec<(usize, Value)> =
                            sets.iter().map(|(c, e)| (*c, eval_expr(e, &concat))).collect();
                        for (c, v) in vals {
                            db.rows[ti][i][c] = v;
                        }
                        updated += 1;
                    }
                    _ => {
                        db.rows[ti].push(new.clone());
                        inserted += 1;
                    }
                }
            }
        }
        WriteKind::Update { sets, filter } => {
            // Evaluate every assignment against the OLD row before applying
            // any, so `SET a = b, b = a` swaps.
            let mut pending: Vec<(usize, Vec<(usize, Value)>)> = Vec::new();
            for (i, row) in db.rows[ti].iter().enumerate() {
                let matched = match filter {
                    Some(c) => eval_cond(c, &[row], Some(row)) == Some(true),
                    None => true,
                };
                if matched {
                    pending.push((i, sets.iter().map(|(c, e)| (*c, eval_expr(e, row))).collect()));
                }
            }
            updated = pending.len() as u64;
            for (i, vals) in pending {
                for (c, v) in vals {
                    db.rows[ti][i][c] = v;
                }
            }
        }
        WriteKind::Delete { filter } => {
            let before = db.rows[ti].len();
            match filter {
                // UNKNOWN keeps the row: only definite TRUE deletes.
                Some(c) => db.rows[ti].retain(|r| eval_cond(c, &[r], Some(r)) != Some(true)),
                None => db.rows[ti].clear(),
            }
            deleted = (before - db.rows[ti].len()) as u64;
        }
    }
    write_outcome(db, inserted, updated, deleted, conflicts)
}

#[cfg(test)]
mod null_semantics {
    //! Three-valued-logic edges at the prepare/run seam: the private evaluation
    //! primitives (`kleene_and`/`kleene_or`/`eval_pred`) hold SQL NULL semantics
    //! that the cache layer must preserve bit-for-bit.

    use super::*;

    #[test]
    fn kleene_truth_tables() {
        use kleene_and as and;
        use kleene_or as or;
        let (t, f, u) = (Some(true), Some(false), None);
        // AND: FALSE dominates, UNKNOWN absorbs TRUE.
        assert_eq!(and(t, t), t);
        assert_eq!(and(t, f), f);
        assert_eq!(and(f, u), f);
        assert_eq!(and(u, f), f);
        assert_eq!(and(t, u), u);
        assert_eq!(and(u, t), u);
        assert_eq!(and(u, u), u);
        // OR: TRUE dominates, UNKNOWN absorbs FALSE.
        assert_eq!(or(f, f), f);
        assert_eq!(or(f, t), t);
        assert_eq!(or(t, u), t);
        assert_eq!(or(u, t), t);
        assert_eq!(or(f, u), u);
        assert_eq!(or(u, f), u);
        assert_eq!(or(u, u), u);
    }

    fn pred(left: Value, op: CmpOp, right: COperand, right2: Option<COperand>) -> CPred {
        CPred {
            left: CAgg { func: None, distinct: false, expr: CExpr::Lit(left) },
            op,
            right,
            right2,
        }
    }

    fn eval(p: &CPred) -> Option<bool> {
        let row: Row = vec![];
        eval_pred(p, &[&row], Some(&row))
    }

    #[test]
    fn eq_with_null_right_is_the_is_null_test() {
        // `x = NULL` parses from IS NULL, so it must be the two-valued IS test.
        let p = pred(Value::Null, CmpOp::Eq, COperand::Lit(Value::Null), None);
        assert_eq!(eval(&p), Some(true));
        let p = pred(Value::Int(1), CmpOp::Eq, COperand::Lit(Value::Null), None);
        assert_eq!(eval(&p), Some(false));
        let p = pred(Value::Null, CmpOp::Ne, COperand::Lit(Value::Null), None);
        assert_eq!(eval(&p), Some(false));
        let p = pred(Value::Int(1), CmpOp::Ne, COperand::Lit(Value::Null), None);
        assert_eq!(eval(&p), Some(true));
    }

    #[test]
    fn null_left_comparisons_are_unknown() {
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let p = pred(Value::Null, op, COperand::Lit(Value::Int(3)), None);
            assert_eq!(eval(&p), None, "{op:?} with NULL left must be UNKNOWN");
        }
        let p = pred(Value::Null, CmpOp::Like, COperand::Lit(Value::Text("a%".into())), None);
        assert_eq!(eval(&p), None);
    }

    #[test]
    fn between_with_null_bound_is_kleene_and() {
        // 5 BETWEEN 1 AND NULL: ge = TRUE, le = UNKNOWN -> UNKNOWN.
        let p = pred(
            Value::Int(5),
            CmpOp::Between,
            COperand::Lit(Value::Int(1)),
            Some(COperand::Lit(Value::Null)),
        );
        assert_eq!(eval(&p), None);
        // 0 BETWEEN 1 AND NULL: ge = FALSE dominates -> FALSE.
        let p = pred(
            Value::Int(0),
            CmpOp::Between,
            COperand::Lit(Value::Int(1)),
            Some(COperand::Lit(Value::Null)),
        );
        assert_eq!(eval(&p), Some(false));
    }

    #[test]
    fn in_and_not_in_null_traps() {
        let list = COperand::SubColumn(vec![Value::Int(1), Value::Null, Value::Int(3)]);
        // NULL IN (...) is always UNKNOWN.
        let p = pred(Value::Null, CmpOp::In, list.clone(), None);
        assert_eq!(eval(&p), None);
        // A match short-circuits even past NULL members.
        let p = pred(Value::Int(3), CmpOp::In, list.clone(), None);
        assert_eq!(eval(&p), Some(true));
        let p = pred(Value::Int(3), CmpOp::NotIn, list.clone(), None);
        assert_eq!(eval(&p), Some(false));
        // No match but a NULL member: the three-valued NOT IN trap.
        let p = pred(Value::Int(2), CmpOp::In, list.clone(), None);
        assert_eq!(eval(&p), None);
        let p = pred(Value::Int(2), CmpOp::NotIn, list, None);
        assert_eq!(eval(&p), None);
        // Without NULL members, NOT IN over a non-matching list is TRUE.
        let clean = COperand::SubColumn(vec![Value::Int(1), Value::Int(3)]);
        let p = pred(Value::Int(2), CmpOp::NotIn, clean, None);
        assert_eq!(eval(&p), Some(true));
        // Empty list: IN is FALSE, NOT IN is TRUE, even for NULL-free lefts.
        let empty = COperand::SubColumn(vec![]);
        let p = pred(Value::Int(2), CmpOp::In, empty.clone(), None);
        assert_eq!(eval(&p), Some(false));
        let p = pred(Value::Int(2), CmpOp::NotIn, empty, None);
        assert_eq!(eval(&p), Some(true));
    }

    #[test]
    fn where_filter_keeps_only_definite_true() {
        // The WHERE phase treats UNKNOWN like FALSE: only Some(true) survives.
        let p = pred(Value::Null, CmpOp::Eq, COperand::Lit(Value::Int(1)), None);
        let c = CCond::Pred(p);
        let row: Row = vec![];
        assert_ne!(eval_cond(&c, &[&row], Some(&row)), Some(true));
    }
}

#[cfg(test)]
mod write_path {
    use super::*;
    use sqlkit::{parse_statement, Column, ColumnType, Schema, Table};

    fn db() -> Database {
        let mut schema = Schema::new("d");
        schema.tables.push(Table {
            name: "t".into(),
            display: "t".into(),
            columns: vec![
                Column::new("id", ColumnType::Int),
                Column::new("name", ColumnType::Text),
                Column::new("score", ColumnType::Int),
            ],
            primary_key: Some(0),
        });
        schema.tables.push(Table {
            name: "nopk".into(),
            display: "nopk".into(),
            columns: vec![Column::new("v", ColumnType::Int)],
            primary_key: None,
        });
        let mut d = Database::empty(schema);
        for (id, name, score) in [(1, "a", 10), (2, "b", 20), (3, "c", 30)] {
            d.insert(0, vec![Value::Int(id), Value::Text(name.into()), Value::Int(score)]);
        }
        d
    }

    fn write(d: &mut Database, sql: &str) -> WriteOutcome {
        let stmt = parse_statement(sql).unwrap();
        execute_write(d, &stmt).unwrap()
    }

    fn write_err(d: &mut Database, sql: &str) -> ExecError {
        let stmt = parse_statement(sql).unwrap();
        execute_write(d, &stmt).unwrap_err()
    }

    #[test]
    fn insert_appends_and_reports_post_state() {
        let mut d = db();
        let o = write(&mut d, "INSERT INTO t VALUES (4, 'd', 40), (5, 'e', 50)");
        assert_eq!((o.rows_affected, o.rows_inserted), (2, 2));
        assert_eq!((o.rows_updated, o.rows_deleted, o.conflict_hits), (0, 0, 0));
        assert_eq!(d.row_count(0), 5);
        assert_eq!(o.fingerprint, d.fingerprint(), "outcome carries the post-write print");
    }

    #[test]
    fn insert_with_column_list_null_fills_the_rest() {
        let mut d = db();
        write(&mut d, "INSERT INTO t (id, name) VALUES (9, 'z')");
        assert_eq!(d.rows[0][3], vec![Value::Int(9), Value::Text("z".into()), Value::Null]);
    }

    #[test]
    fn plain_insert_appends_even_on_duplicate_pk() {
        // Without an ON CONFLICT clause the engine does not enforce the key.
        let mut d = db();
        let o = write(&mut d, "INSERT INTO t VALUES (1, 'dup', 0)");
        assert_eq!((o.rows_inserted, o.conflict_hits), (1, 0));
        assert_eq!(d.row_count(0), 4);
    }

    #[test]
    fn upsert_do_nothing_skips_conflicts_without_counting_changes() {
        let mut d = db();
        let o =
            write(&mut d, "INSERT INTO t VALUES (1, 'x', 0), (4, 'd', 40) ON CONFLICT DO NOTHING");
        assert_eq!((o.rows_affected, o.rows_inserted, o.conflict_hits), (1, 1, 1));
        assert_eq!(d.row_count(0), 4);
        // The conflicting tuple left the existing row untouched.
        assert_eq!(d.rows[0][0][1], Value::Text("a".into()));
    }

    #[test]
    fn upsert_do_update_sees_excluded_and_old_row() {
        let mut d = db();
        let o = write(
            &mut d,
            "INSERT INTO t VALUES (2, 'B', 5) \
             ON CONFLICT (id) DO UPDATE SET name = excluded.name, score = score + excluded.score",
        );
        assert_eq!((o.rows_affected, o.rows_updated, o.conflict_hits), (1, 1, 1));
        assert_eq!(d.rows[0][1], vec![Value::Int(2), Value::Text("B".into()), Value::Int(25)]);
    }

    #[test]
    fn upsert_conflicts_with_rows_inserted_by_the_same_statement() {
        let mut d = db();
        let o = write(
            &mut d,
            "INSERT INTO t VALUES (7, 'n', 1), (7, 'm', 2) ON CONFLICT DO UPDATE SET name = excluded.name",
        );
        assert_eq!((o.rows_inserted, o.rows_updated, o.conflict_hits), (1, 1, 1));
        let row = d.rows[0].last().unwrap();
        assert_eq!(row[1], Value::Text("m".into()), "second tuple upserted the first");
    }

    #[test]
    fn null_pk_never_conflicts() {
        let mut d = db();
        write(&mut d, "INSERT INTO t VALUES (NULL, 'n1', 0) ON CONFLICT DO NOTHING");
        let o = write(&mut d, "INSERT INTO t VALUES (NULL, 'n2', 0) ON CONFLICT DO NOTHING");
        assert_eq!((o.rows_inserted, o.conflict_hits), (1, 0));
        assert_eq!(d.row_count(0), 5);
    }

    #[test]
    fn update_evaluates_sets_against_the_old_row() {
        let mut d = db();
        // A swap only works if both expressions see the pre-update values.
        let o = write(&mut d, "UPDATE t SET id = score, score = id WHERE id = 2");
        assert_eq!(o.rows_updated, 1);
        assert_eq!(d.rows[0][1], vec![Value::Int(20), Value::Text("b".into()), Value::Int(2)]);
    }

    #[test]
    fn update_without_where_touches_every_row() {
        let mut d = db();
        let o = write(&mut d, "UPDATE t SET score = 0");
        assert_eq!((o.rows_affected, o.rows_updated), (3, 3));
        assert!(d.rows[0].iter().all(|r| r[2] == Value::Int(0)));
    }

    #[test]
    fn delete_keeps_unknown_rows() {
        let mut d = db();
        d.insert(0, vec![Value::Int(4), Value::Text("d".into()), Value::Null]);
        // score > 15 is UNKNOWN for the NULL row: it must survive.
        let o = write(&mut d, "DELETE FROM t WHERE score > 15");
        assert_eq!((o.rows_affected, o.rows_deleted), (2, 2));
        assert_eq!(d.row_count(0), 2);
        let o = write(&mut d, "DELETE FROM t");
        assert_eq!(o.rows_deleted, 2);
        assert_eq!(d.row_count(0), 0);
    }

    #[test]
    fn write_errors_surface_at_prepare_time() {
        let mut d = db();
        assert!(matches!(
            write_err(&mut d, "INSERT INTO missing VALUES (1)"),
            ExecError::UnknownTable { .. }
        ));
        assert!(matches!(
            write_err(&mut d, "INSERT INTO t (nope) VALUES (1)"),
            ExecError::UnknownColumn { .. } | ExecError::MissingTable { .. }
        ));
        assert!(matches!(
            write_err(&mut d, "INSERT INTO t VALUES (1, 'a')"),
            ExecError::Unsupported { .. }
        ));
        assert!(matches!(
            write_err(&mut d, "UPDATE t SET nope = 1"),
            ExecError::UnknownColumn { .. } | ExecError::MissingTable { .. }
        ));
        assert!(matches!(
            write_err(&mut d, "DELETE FROM t WHERE nope = 1"),
            ExecError::UnknownColumn { .. } | ExecError::MissingTable { .. }
        ));
        // Conflict target must be the primary key; no-PK tables reject upserts.
        assert!(matches!(
            write_err(&mut d, "INSERT INTO t VALUES (1, 'a', 0) ON CONFLICT (name) DO NOTHING"),
            ExecError::Unsupported { .. }
        ));
        assert!(matches!(
            write_err(&mut d, "INSERT INTO nopk VALUES (1) ON CONFLICT DO NOTHING"),
            ExecError::Unsupported { .. }
        ));
        // Aggregates cannot appear in a write filter.
        assert!(matches!(
            write_err(&mut d, "DELETE FROM t WHERE COUNT(*) > 1"),
            ExecError::Unsupported { .. }
        ));
        // A failed prepare never mutates: full table intact.
        assert_eq!(d.row_count(0), 3);
    }

    #[test]
    fn prepare_statement_dispatches_reads_and_writes() {
        let d = db();
        let read = parse_statement("SELECT id FROM t").unwrap();
        assert!(matches!(prepare_statement(&d, &read).unwrap(), StatementPlan::Read(_)));
        let ins = parse_statement("INSERT INTO t VALUES (8, 'h', 80)").unwrap();
        match prepare_statement(&d, &ins).unwrap() {
            StatementPlan::Write(w) => assert_eq!(w.table(), 0),
            other => panic!("expected write plan, got {other:?}"),
        }
        assert!(prepare_write(&d, &read).is_err());
    }

    #[test]
    fn update_filter_with_subquery_operand_materializes_at_prepare() {
        let mut d = db();
        let o = write(
            &mut d,
            "UPDATE t SET score = 99 WHERE id IN (SELECT id FROM t WHERE score > 15)",
        );
        assert_eq!(o.rows_updated, 2);
        assert_eq!(d.rows[0][0][2], Value::Int(10));
        assert_eq!(d.rows[0][1][2], Value::Int(99));
    }
}
