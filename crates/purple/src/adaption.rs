//! Database Adaption (§IV-D): heuristic fixers for the six LLM error categories of
//! Table 2, applied in a repair loop (up to five attempts, as in the paper), plus
//! the execution-consistency vote over n samples.
//!
//! The fixers only run on SQL that fails to execute, so they "do not introduce
//! undesired side effects to the valid SQL" (§IV-D1).
//!
//! All execution flows through the run's [`engine::SessionDb`], so the repair
//! loop and the vote share one memoization layer: the 30 vote samples are
//! typically a handful of distinct strings, and identical samples cost one
//! execution. Bind [`engine::ExecSession::disabled`] to run uncached; repair
//! outcomes and vote winners are identical either way, because a cache hit
//! returns exactly the result set the engine would compute (DESIGN.md §10).
//! Every vote records into the run's [`Probe`] ([`Probe::detached`] when
//! nobody is watching).

use engine::{Database, ExecError, ExecSession, SessionDb};
use obs::{Counter, EventValue, Fixer, MetricsRegistry, Probe, Stage};
use rand::prelude::*;
use rand::rngs::StdRng;
use sqlkit::ast::*;
use sqlkit::Query;

/// Record one sample's adaption outcome: each applied fix is a *hit* for its
/// fixer, a *success* when the sample ended up executable; samples that needed
/// repair also bump the repaired/unrepaired counters.
pub fn record_adaption(reg: &MetricsRegistry, result: &AdaptResult) {
    reg.count(Counter::Samples, 1);
    for category in &result.fixes {
        if let Some(fixer) = Fixer::from_name(category) {
            reg.record_fix(fixer, result.executable);
        }
    }
    if !result.fixes.is_empty() {
        let c =
            if result.executable { Counter::RepairedSamples } else { Counter::UnrepairedSamples };
        reg.count(c, 1);
    }
}

/// Result of adapting one SQL string.
#[derive(Debug, Clone)]
pub struct AdaptResult {
    /// The (possibly repaired) SQL text.
    pub sql: String,
    /// Whether the final SQL executes.
    pub executable: bool,
    /// Categories of the fixes applied, in order.
    pub fixes: Vec<&'static str>,
}

/// Maximum repair attempts (the paper: "we attempt to rectify a non-executable SQL
/// up to five times").
pub const MAX_ATTEMPTS: usize = 5;

/// Adapt one SQL string to the bound database: the parse goes through the
/// session's parse cache, and every execution in the repair loop (and its
/// final check) through its result cache.
pub fn adapt_sql(sdb: &SessionDb<'_, '_>, sql: &str, rng: &mut StdRng) -> AdaptResult {
    adapt_inner(sdb, sql, rng).0
}

/// The repair loop. The second return value reports whether the loop consumed
/// any randomness (only the Column-Ambiguity fixer draws): rng-free outcomes
/// are safe to replay for duplicate samples without touching the rng stream.
fn adapt_inner(sdb: &SessionDb<'_, '_>, sql: &str, rng: &mut StdRng) -> (AdaptResult, bool) {
    let parsed = sdb.session().parse_statement(sql);
    let Some(Statement::Select(q)) = parsed.as_deref() else {
        return (AdaptResult { sql: sql.to_string(), executable: false, fixes: vec![] }, false);
    };
    let mut q = q.clone();
    let mut fixes = Vec::new();
    let mut used_rng = false;
    for _ in 0..=MAX_ATTEMPTS {
        match sdb.execute(&q) {
            Ok(_) => {
                return (AdaptResult { sql: q.to_string(), executable: true, fixes }, used_rng);
            }
            Err(e) => {
                let category = e.category();
                if matches!(e, ExecError::AmbiguousColumn { .. }) {
                    used_rng = true;
                }
                if !apply_fix(&mut q, &e, sdb.db(), rng) {
                    return (
                        AdaptResult { sql: q.to_string(), executable: false, fixes },
                        used_rng,
                    );
                }
                fixes.push(category);
            }
        }
    }
    let executable = sdb.execute(&q).is_ok();
    (AdaptResult { sql: q.to_string(), executable, fixes }, used_rng)
}

// ---------------------------------------------------------------------------
// AST traversal helpers
// ---------------------------------------------------------------------------

/// Visit every column reference in the query (all cores, conditions, joins,
/// group/order keys), mutably.
pub fn visit_columns_mut(q: &mut Query, f: &mut impl FnMut(&mut ColumnRef)) {
    visit_core_columns(&mut q.core, f);
    if let Some((_, rhs)) = &mut q.compound {
        visit_columns_mut(rhs, f);
    }
}

fn visit_core_columns(core: &mut SelectCore, f: &mut impl FnMut(&mut ColumnRef)) {
    for item in &mut core.items {
        visit_unit_columns(&mut item.expr.unit, f);
        for e in &mut item.expr.extra_args {
            visit_unit_columns(e, f);
        }
    }
    for tr in std::iter::once(&mut core.from.first)
        .chain(core.from.joins.iter_mut().map(|j| &mut j.table))
    {
        if let TableRef::Subquery { query, .. } = tr {
            visit_columns_mut(query, f);
        }
    }
    for j in &mut core.from.joins {
        for (l, r) in &mut j.on {
            f(l);
            f(r);
        }
    }
    for cond in [&mut core.where_clause, &mut core.having].into_iter().flatten() {
        visit_cond_columns(cond, f);
    }
    for g in &mut core.group_by {
        f(g);
    }
    for o in &mut core.order_by {
        visit_unit_columns(&mut o.expr.unit, f);
    }
}

fn visit_cond_columns(c: &mut Condition, f: &mut impl FnMut(&mut ColumnRef)) {
    match c {
        Condition::And(l, r) | Condition::Or(l, r) => {
            visit_cond_columns(l, f);
            visit_cond_columns(r, f);
        }
        Condition::Pred(p) => {
            visit_unit_columns(&mut p.left.unit, f);
            for operand in [Some(&mut p.right), p.right2.as_mut()].into_iter().flatten() {
                match operand {
                    Operand::Column(c) => f(c),
                    Operand::Subquery(q) => visit_columns_mut(q, f),
                    Operand::Literal(_) => {}
                }
            }
        }
    }
}

fn visit_unit_columns(v: &mut ValUnit, f: &mut impl FnMut(&mut ColumnRef)) {
    match v {
        ValUnit::Column(c) => f(c),
        ValUnit::Arith { left, right, .. } => {
            visit_unit_columns(left, f);
            visit_unit_columns(right, f);
        }
        ValUnit::Func { args, .. } => {
            for a in args {
                visit_unit_columns(a, f);
            }
        }
        ValUnit::Star | ValUnit::Literal(_) => {}
    }
}

fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Schema tables bound anywhere in the query's FROM clauses.
fn bound_tables(q: &Query, db: &Database) -> Vec<usize> {
    let mut out = Vec::new();
    for core in all_cores(q) {
        for tr in core.from.table_refs() {
            if let TableRef::Named { name, .. } = tr {
                if let Some(ti) = db.schema.table_index(name) {
                    if !out.contains(&ti) {
                        out.push(ti);
                    }
                }
            }
        }
    }
    out
}

fn all_cores(q: &Query) -> Vec<&SelectCore> {
    let mut out = Vec::new();
    let mut cur = q;
    loop {
        out.push(&cur.core);
        match &cur.compound {
            Some((_, rhs)) => cur = rhs,
            None => break,
        }
    }
    out
}

// ---------------------------------------------------------------------------
// fixers
// ---------------------------------------------------------------------------

fn apply_fix(q: &mut Query, e: &ExecError, db: &Database, rng: &mut StdRng) -> bool {
    match e {
        ExecError::TableColumnMismatch { binding, column, correct_table } => {
            let Some(correct) = correct_table else {
                return false;
            };
            let mut changed = false;
            visit_columns_mut(q, &mut |c| {
                if c.column.eq_ignore_ascii_case(column)
                    && c.table.as_deref().map(|t| t.eq_ignore_ascii_case(binding)) == Some(true)
                {
                    c.table = Some(correct.clone());
                    changed = true;
                }
            });
            changed
        }
        ExecError::AmbiguousColumn { column, candidates } => {
            // "We randomly assign the column to one of its potential tables."
            let Some(pick) = candidates.choose(rng).cloned() else {
                return false;
            };
            let mut changed = false;
            visit_columns_mut(q, &mut |c| {
                if c.table.is_none() && c.column.eq_ignore_ascii_case(column) {
                    c.table = Some(pick.clone());
                    changed = true;
                }
            });
            changed
        }
        ExecError::MissingTable { column: _, owner_table } => {
            join_in_missing_table(q, owner_table, db)
        }
        ExecError::UnknownColumn { column } => {
            // Substitute the column with minimal string edit distance (§IV-D1),
            // preferring columns of the tables actually bound in FROM and breaking
            // ties by shared-prefix length.
            let from_tables = bound_tables(q, db);
            let candidates: Vec<&sqlkit::Table> = if from_tables.is_empty() {
                db.schema.tables.iter().collect()
            } else {
                from_tables.iter().map(|ti| &db.schema.tables[*ti]).collect()
            };
            let target = column.to_ascii_lowercase();
            let mut best: Option<(usize, usize, String)> = None; // (dist, -prefix, name)
            for t in candidates {
                for c in &t.columns {
                    let name = c.name.to_ascii_lowercase();
                    let d = levenshtein(&target, &name);
                    let prefix =
                        target.bytes().zip(name.bytes()).take_while(|(a, b)| a == b).count();
                    let key = (d, usize::MAX - prefix, c.name.clone());
                    if best.as_ref().map(|b| (key.0, key.1) < (b.0, b.1)).unwrap_or(true) {
                        best = Some(key);
                    }
                }
            }
            let Some((_, _, replacement)) = best else {
                return false;
            };
            if replacement.eq_ignore_ascii_case(column) {
                return false;
            }
            let mut changed = false;
            visit_columns_mut(q, &mut |c| {
                if c.column.eq_ignore_ascii_case(column) {
                    c.column = replacement.clone();
                    changed = true;
                }
            });
            changed
        }
        ExecError::UnknownTable { name } => {
            let best = db
                .schema
                .tables
                .iter()
                .map(|t| {
                    (levenshtein(&name.to_ascii_lowercase(), &t.name.to_ascii_lowercase()), &t.name)
                })
                .min_by_key(|(d, _)| *d);
            let Some((d, replacement)) = best else {
                return false;
            };
            // Far-off names are aliases gone missing, not typos; bail out.
            if d > 4 {
                return false;
            }
            let replacement = replacement.clone();
            let mut changed = false;
            rename_tables(q, name, &replacement, &mut changed);
            changed
        }
        ExecError::UnknownFunction { name } => {
            // Future-work upgrade (§IV-D1): first try *mapping* the function onto
            // the target dialect's spelling (UCASE -> UPPER, SUBSTRING -> SUBSTR);
            // only when no equivalent exists, fall back to the paper's immediate
            // solution — "omit the unsupported function call".
            if let Some(mapped) = engine::map_function(name, &db.dialect) {
                let mut changed = false;
                rename_functions(q, name, mapped, &mut changed);
                if changed {
                    return true;
                }
            }
            let mut changed = false;
            strip_functions(q, &mut changed);
            changed
        }
        ExecError::AggregateArity { .. } => {
            // Split multi-argument aggregates into one aggregate per argument,
            // "preserving the DISTINCT keyword for both columns".
            let mut changed = false;
            split_aggregates(&mut q.core, &mut changed);
            changed
        }
        ExecError::SetOpArity { .. } | ExecError::Unsupported { .. } => false,
    }
}

/// Join the owner table of an orphaned column into FROM along a foreign key.
fn join_in_missing_table(q: &mut Query, owner_table: &str, db: &Database) -> bool {
    // The error may originate in any core; fix the first core whose FROM lacks the
    // owner but references it.
    fn fix_core(core: &mut SelectCore, owner_table: &str, db: &Database) -> bool {
        let Some(owner_ti) = db.schema.table_index(owner_table) else {
            return false;
        };
        let from_tables: Vec<(String, usize)> = core
            .from
            .table_refs()
            .iter()
            .filter_map(|tr| match tr {
                TableRef::Named { name, alias } => db
                    .schema
                    .table_index(name)
                    .map(|ti| (alias.as_deref().unwrap_or(name).to_string(), ti)),
                _ => None,
            })
            .collect();
        if from_tables.iter().any(|(_, ti)| *ti == owner_ti) {
            return false;
        }
        // Find an FK between the owner and any bound table.
        for (binding, ti) in &from_tables {
            if let Some(fk) = db.schema.fk_between(*ti, owner_ti) {
                let (bound_end, owner_end) =
                    if fk.from.table == *ti { (fk.from, fk.to) } else { (fk.to, fk.from) };
                let bound_col = db.schema.column(bound_end).name.clone();
                let owner_col = db.schema.column(owner_end).name.clone();
                core.from.joins.push(Join {
                    table: TableRef::named(db.schema.tables[owner_ti].name.clone()),
                    on: vec![(
                        ColumnRef::qualified(binding.clone(), bound_col),
                        ColumnRef::qualified(db.schema.tables[owner_ti].name.clone(), owner_col),
                    )],
                });
                return true;
            }
        }
        false
    }
    let mut fixed = fix_core(&mut q.core, owner_table, db);
    if !fixed {
        if let Some((_, rhs)) = &mut q.compound {
            fixed = join_in_missing_table(rhs, owner_table, db);
        }
    }
    fixed
}

fn rename_tables(q: &mut Query, from: &str, to: &str, changed: &mut bool) {
    fn fix_ref(tr: &mut TableRef, from: &str, to: &str, changed: &mut bool) {
        match tr {
            TableRef::Named { name, .. } => {
                if name.eq_ignore_ascii_case(from) {
                    *name = to.to_string();
                    *changed = true;
                }
            }
            TableRef::Subquery { query, .. } => rename_tables(query, from, to, changed),
        }
    }
    fix_ref(&mut q.core.from.first, from, to, changed);
    for j in &mut q.core.from.joins {
        fix_ref(&mut j.table, from, to, changed);
    }
    // Qualifiers that are the stale table name (not an alias) get renamed too.
    visit_columns_mut(q, &mut |c| {
        if c.table.as_deref().map(|t| t.eq_ignore_ascii_case(from)) == Some(true) {
            c.table = Some(to.to_string());
            *changed = true;
        }
    });
    if let Some((_, rhs)) = &mut q.compound {
        rename_tables(rhs, from, to, changed);
    }
}

fn rename_functions(q: &mut Query, from: &str, to: &str, changed: &mut bool) {
    fn rename_unit(v: &mut ValUnit, from: &str, to: &str, changed: &mut bool) {
        match v {
            ValUnit::Func { name, args } => {
                if name.eq_ignore_ascii_case(from) {
                    *name = to.to_string();
                    *changed = true;
                }
                for a in args {
                    rename_unit(a, from, to, changed);
                }
            }
            ValUnit::Arith { left, right, .. } => {
                rename_unit(left, from, to, changed);
                rename_unit(right, from, to, changed);
            }
            _ => {}
        }
    }
    for core in all_cores_mut(q) {
        for item in &mut core.items {
            rename_unit(&mut item.expr.unit, from, to, changed);
        }
        for o in &mut core.order_by {
            rename_unit(&mut o.expr.unit, from, to, changed);
        }
    }
}

fn strip_functions(q: &mut Query, changed: &mut bool) {
    fn strip_unit(v: &mut ValUnit, changed: &mut bool) {
        if let ValUnit::Func { args, .. } = v {
            // Prefer the first column argument; fall back to the first argument.
            let replacement = args
                .iter()
                .find(|a| matches!(a, ValUnit::Column(_)))
                .or_else(|| args.first())
                .cloned()
                .unwrap_or(ValUnit::Star);
            *v = replacement;
            *changed = true;
        }
        match v {
            ValUnit::Arith { left, right, .. } => {
                strip_unit(left, changed);
                strip_unit(right, changed);
            }
            ValUnit::Func { .. } => strip_unit(v, changed),
            _ => {}
        }
    }
    for core in all_cores_mut(q) {
        for item in &mut core.items {
            strip_unit(&mut item.expr.unit, changed);
        }
        for o in &mut core.order_by {
            strip_unit(&mut o.expr.unit, changed);
        }
    }
}

fn split_aggregates(core: &mut SelectCore, changed: &mut bool) {
    let mut new_items = Vec::with_capacity(core.items.len());
    for item in core.items.drain(..) {
        if item.expr.extra_args.is_empty() {
            new_items.push(item);
            continue;
        }
        *changed = true;
        let func = item.expr.func;
        let distinct = item.expr.distinct;
        let mut units = vec![item.expr.unit];
        units.extend(item.expr.extra_args);
        for unit in units {
            new_items.push(SelectItem::expr(AggExpr { func, distinct, unit, extra_args: vec![] }));
        }
    }
    core.items = new_items;
}

fn all_cores_mut(q: &mut Query) -> Vec<&mut SelectCore> {
    // Only top-level chain cores: nested subquery select lists rarely hold
    // functions and the borrow gymnastics are not worth it.
    let mut out = Vec::new();
    let mut cur = q;
    loop {
        let Query { core, compound } = cur;
        out.push(core);
        match compound {
            Some((_, rhs)) => cur = rhs,
            None => break,
        }
    }
    out
}

// ---------------------------------------------------------------------------
// execution-consistency vote
// ---------------------------------------------------------------------------

/// Outcome of the consistency vote.
#[derive(Debug, Clone)]
pub struct VoteOutcome {
    /// The chosen SQL.
    pub sql: String,
    /// Whether the chosen SQL executes.
    pub executable: bool,
    /// All fixes applied across samples.
    pub fixes: Vec<&'static str>,
    /// Every sample's post-adaption SQL, parallel to the input samples (what
    /// the blame analyzer compares against the raw samples).
    pub adapted: Vec<String>,
}

/// Majority vote over *raw* samples by execution result, without any repair — the
/// plain execution-consistency of C3 / DAIL-SQL / SQL-PaLM, and what remains of
/// §IV-D when the "-Database Adaption" ablation removes the fixers. The vote is
/// the run's consistency-vote stage on `probe`: it counts the samples and emits
/// one `voted` event. Samples execute through the bound session, so duplicate
/// samples execute once and EX scoring later reuses the same cached results.
pub fn raw_vote(samples: &[String], sdb: &SessionDb<'_, '_>, probe: &Probe<'_>) -> String {
    let stage = probe.stage(Stage::ConsistencyVote);
    probe.metrics().count(Counter::Samples, samples.len() as u64);
    let (result, executable) = raw_vote_inner(samples, sdb);
    stage.finish_with(
        samples.len() as u64,
        "voted",
        &[
            ("samples", EventValue::U64(samples.len() as u64)),
            ("executable", EventValue::Bool(executable)),
            ("adapted", EventValue::Bool(false)),
        ],
    );
    result
}

fn raw_vote_inner(samples: &[String], sdb: &SessionDb<'_, '_>) -> (String, bool) {
    let mut keys: Vec<Option<String>> = Vec::with_capacity(samples.len());
    for s in samples {
        let key = sdb.execute_sql(s).and_then(|r| r.ok()).map(|rs| result_key(&rs));
        keys.push(key);
    }
    match majority(&keys) {
        Some(i) => (samples[i].clone(), true),
        None => (samples.first().cloned().unwrap_or_default(), false),
    }
}

/// The index of the first sample in a largest class of equal keys; `None`
/// keys never vote. Ties between equally-sized classes go to the earliest
/// sample, so the winner never depends on hash-map iteration order.
fn majority(keys: &[Option<String>]) -> Option<usize> {
    let mut counts: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for k in keys.iter().flatten() {
        *counts.entry(k).or_insert(0) += 1;
    }
    let best = counts.values().copied().max()?;
    keys.iter().position(|k| k.as_deref().is_some_and(|k| counts[k] == best))
}

fn result_key(rs: &engine::ResultSet) -> String {
    let mut rows: Vec<String> = rs
        .rows
        .iter()
        .map(|r| r.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\u{1}"))
        .collect();
    rows.sort();
    format!("{}:{}", rs.columns.len(), rows.join("\u{2}"))
}

/// Adapt every sample, execute the executable ones, and return the first sample
/// whose result agrees with the consensus (§IV-D2).
///
/// On `probe`, the repair loop is the adaption stage (per-fixer hit/success
/// counters included, and one `repair` event per sample the loop touched) and
/// the tally is the consistency-vote stage, closed with one `voted` event.
///
/// Every execution goes through the bound session. Identical samples are
/// deduplicated *before* adaption: the first occurrence runs the repair loop,
/// later occurrences replay its memoized outcome, so 30 samples with 8
/// distinct strings cost 8 repair loops. Two invariants keep this invisible:
///
/// * **rng stream** — outcomes whose repair drew randomness (Column-Ambiguity)
///   are never memoized; those samples re-run the loop per occurrence, drawing
///   exactly the values the undeduplicated code drew.
/// * **reports** — metrics and repair events are recorded per *occurrence*,
///   replayed or not, so `StageMetrics` and the event stream are byte-identical.
pub fn consistency_vote(
    samples: &[String],
    sdb: &SessionDb<'_, '_>,
    rng: &mut StdRng,
    probe: &Probe<'_>,
) -> VoteOutcome {
    let adaption = probe.stage(Stage::Adaption);
    let mut adapted: Vec<AdaptResult> = Vec::with_capacity(samples.len());
    let mut keys: Vec<Option<String>> = Vec::with_capacity(samples.len());
    let mut fixes = Vec::new();
    let mut memo: std::collections::HashMap<&str, (AdaptResult, Option<String>)> =
        std::collections::HashMap::new();
    for (i, s) in samples.iter().enumerate() {
        let (a, key) = match memo.get(s.as_str()) {
            Some((a, key)) => (a.clone(), key.clone()),
            None => {
                let (a, used_rng) = adapt_inner(sdb, s, rng);
                let key = if a.executable {
                    sdb.execute_sql(&a.sql).and_then(|r| r.ok()).map(|rs| result_key(&rs))
                } else {
                    None
                };
                if !used_rng {
                    memo.insert(s.as_str(), (a.clone(), key.clone()));
                }
                (a, key)
            }
        };
        record_adaption(probe.metrics(), &a);
        if !a.fixes.is_empty() {
            probe.emit(
                Stage::Adaption,
                "repair",
                &[
                    ("sample", EventValue::U64(i as u64)),
                    ("fixes", EventValue::U64(a.fixes.len() as u64)),
                    ("category", EventValue::Str(a.fixes[0])),
                    ("executable", EventValue::Bool(a.executable)),
                ],
            );
        }
        fixes.extend(a.fixes.iter().copied());
        keys.push(key);
        adapted.push(a);
    }
    adaption.finish(samples.len() as u64);
    let vote = probe.stage(Stage::ConsistencyVote);
    let outcome = tally(adapted, keys, fixes);
    vote.finish_with(
        samples.len() as u64,
        "voted",
        &[
            ("samples", EventValue::U64(samples.len() as u64)),
            ("executable", EventValue::Bool(outcome.executable)),
            ("adapted", EventValue::Bool(true)),
        ],
    );
    outcome
}

/// Execution-consistency vote over *write* samples, scored by the state each
/// candidate would leave behind (DESIGN.md §15).
///
/// Each sample is parsed as a [`sqlkit::Statement`] and applied to a
/// **transient clone** of the database — the canonical `db` is never mutated,
/// which is what makes voting on destructive statements safe. Candidates are
/// keyed by `(post-write fingerprint, rows affected)`; the majority key wins
/// and the first sample producing it is returned. Read statements and
/// statements that fail to parse or prepare never key (a `SELECT` trivially
/// "preserves" state and must not collide with a no-op write).
///
/// The repair loop does not run here: the six fixers of Table 2 target
/// SELECT-shaped errors, so write voting is the plain consistency vote, and
/// records on `probe` as [`raw_vote`] does.
pub fn write_vote(
    samples: &[String],
    db: &Database,
    session: &ExecSession,
    probe: &Probe<'_>,
) -> VoteOutcome {
    let stage = probe.stage(Stage::ConsistencyVote);
    probe.metrics().count(Counter::Samples, samples.len() as u64);
    let mut keys: Vec<Option<String>> = Vec::with_capacity(samples.len());
    for s in samples {
        let key = session.parse_statement(s).filter(|stmt| stmt.is_write()).and_then(|stmt| {
            let mut scratch = db.clone();
            match session.apply(&mut scratch, &stmt) {
                Ok(engine::StatementOutcome::Write(o)) => {
                    Some(format!("{:032x}:{}", o.fingerprint, o.rows_affected))
                }
                _ => None,
            }
        });
        keys.push(key);
    }
    let outcome = match majority(&keys) {
        Some(i) => VoteOutcome {
            sql: samples[i].clone(),
            executable: true,
            fixes: Vec::new(),
            adapted: samples.to_vec(),
        },
        None => VoteOutcome {
            sql: samples.first().cloned().unwrap_or_default(),
            executable: false,
            fixes: Vec::new(),
            adapted: samples.to_vec(),
        },
    };
    stage.finish_with(
        samples.len() as u64,
        "voted",
        &[
            ("samples", EventValue::U64(samples.len() as u64)),
            ("executable", EventValue::Bool(outcome.executable)),
            ("adapted", EventValue::Bool(false)),
        ],
    );
    outcome
}

fn tally(
    adapted: Vec<AdaptResult>,
    keys: Vec<Option<String>>,
    fixes: Vec<&'static str>,
) -> VoteOutcome {
    let adapted_sql: Vec<String> = adapted.iter().map(|a| a.sql.clone()).collect();
    if let Some(i) = majority(&keys) {
        return VoteOutcome {
            sql: adapted_sql[i].clone(),
            executable: true,
            fixes,
            adapted: adapted_sql,
        };
    }
    // Nothing executable: fall back to the first sample.
    let first = adapted.into_iter().next();
    match first {
        Some(a) => {
            VoteOutcome { sql: a.sql, executable: a.executable, fixes, adapted: adapted_sql }
        }
        None => VoteOutcome { sql: String::new(), executable: false, fixes, adapted: adapted_sql },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::Value;
    use rand::SeedableRng;
    use sqlkit::{Column, ColumnId, ColumnType, ForeignKey, Schema, Table};

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

    fn adapt(sql: &str) -> AdaptResult {
        adapt_sql(&ExecSession::disabled().bind(&db()), sql, &mut StdRng::seed_from_u64(7))
    }

    #[test]
    fn fixes_table_column_mismatch() {
        // `title` hangs off the wrong alias (Table 2 row 1).
        let r =
            adapt("SELECT T2.title FROM cartoon AS T1 JOIN tv_channel AS T2 ON T1.channel = T2.id");
        assert!(r.executable, "{}", r.sql);
        assert_eq!(r.fixes, vec!["table-column-mismatch"]);
        assert!(
            r.sql.contains("T1.title") || r.sql.to_lowercase().contains("t1.title"),
            "{}",
            r.sql
        );
    }

    #[test]
    fn fixes_column_ambiguity() {
        let r = adapt("SELECT id FROM tv_channel JOIN cartoon ON tv_channel.id = cartoon.channel");
        assert!(r.executable, "{}", r.sql);
        assert_eq!(r.fixes, vec!["column-ambiguity"]);
    }

    #[test]
    fn fixes_missing_table_by_joining_fk_path() {
        // `written_by` belongs to cartoon, absent from FROM (Table 2 row 3).
        let r = adapt("SELECT series_name FROM tv_channel WHERE cartoon.written_by = 'Todd'");
        assert!(r.executable, "{}", r.sql);
        assert!(r.fixes.contains(&"missing-table"));
        assert!(r.sql.contains("JOIN cartoon"), "{}", r.sql);
    }

    #[test]
    fn maps_foreign_function_spellings_onto_the_dialect() {
        // UCASE is MySQL spelling; SQLite's equivalent is UPPER -> mapped, not
        // dropped (the paper's future-work function mapping).
        let r = adapt("SELECT UCASE(country) FROM tv_channel");
        assert!(r.executable, "{}", r.sql);
        assert_eq!(r.fixes, vec!["function-hallucination"]);
        assert!(r.sql.contains("UPPER(country)"), "{}", r.sql);
        let r = adapt("SELECT SUBSTRING(series_name, 1, 3) FROM tv_channel");
        assert!(r.executable, "{}", r.sql);
        assert!(r.sql.contains("SUBSTR(series_name"), "{}", r.sql);
    }

    #[test]
    fn concat_executes_under_mysql_dialect_without_fixes() {
        let d = db().with_dialect(engine::Dialect::mysql());
        let r = adapt_sql(
            &ExecSession::disabled().bind(&d),
            "SELECT CONCAT(series_name, ' ', country) FROM tv_channel",
            &mut StdRng::seed_from_u64(7),
        );
        assert!(r.executable, "{}", r.sql);
        assert!(r.fixes.is_empty(), "{:?}", r.fixes);
        assert!(r.sql.contains("CONCAT"), "{}", r.sql);
    }

    #[test]
    fn fixes_function_hallucination_by_omission() {
        let r = adapt("SELECT CONCAT(series_name, ' ', country) FROM tv_channel");
        assert!(r.executable, "{}", r.sql);
        assert_eq!(r.fixes, vec!["function-hallucination"]);
        assert!(r.sql.contains("series_name"), "{}", r.sql);
        assert!(!r.sql.contains("CONCAT"), "{}", r.sql);
    }

    #[test]
    fn fixes_schema_hallucination_by_edit_distance() {
        let r = adapt("SELECT countrys FROM tv_channel");
        assert!(r.executable, "{}", r.sql);
        assert_eq!(r.fixes, vec!["schema-hallucination"]);
        assert!(r.sql.contains("country"), "{}", r.sql);
        // Unknown table gets the same treatment.
        let r = adapt("SELECT country FROM tv_channels");
        assert!(r.executable, "{}", r.sql);
        assert!(r.sql.contains("FROM tv_channel"), "{}", r.sql);
    }

    #[test]
    fn fixes_aggregation_hallucination_by_splitting() {
        let r = adapt("SELECT COUNT(DISTINCT series_name, country) FROM tv_channel");
        assert!(r.executable, "{}", r.sql);
        assert_eq!(r.fixes, vec!["aggregation-hallucination"]);
        assert!(
            r.sql.contains("COUNT(DISTINCT series_name), COUNT(DISTINCT country)"),
            "{}",
            r.sql
        );
    }

    #[test]
    fn chains_multiple_fixes_within_budget() {
        let r = adapt("SELECT CONCAT(countrys, ' ') FROM tv_channel");
        assert!(r.executable, "{}", r.sql);
        assert!(r.fixes.len() >= 2, "{:?}", r.fixes);
    }

    #[test]
    fn valid_sql_is_untouched() {
        let sql = "SELECT country FROM tv_channel WHERE id = 1";
        let r = adapt(sql);
        assert!(r.executable);
        assert!(r.fixes.is_empty());
        assert_eq!(r.sql, sql);
    }

    #[test]
    fn unparseable_sql_is_returned_as_is() {
        let r = adapt("SELEC oops FROM");
        assert!(!r.executable);
        assert_eq!(r.sql, "SELEC oops FROM");
    }

    #[test]
    fn consistency_vote_prefers_majority_result() {
        let d = db();
        let mut rng = StdRng::seed_from_u64(1);
        let samples = vec![
            "SELECT country FROM tv_channel WHERE id = 1".to_string(),
            "SELECT country FROM tv_channel WHERE id = 2".to_string(),
            "SELECT country FROM tv_channel WHERE id = 1".to_string(),
        ];
        let session = ExecSession::disabled();
        let v = consistency_vote(&samples, &session.bind(&d), &mut rng, &Probe::detached());
        assert!(v.executable);
        assert!(v.sql.contains("id = 1"), "{}", v.sql);
        assert_eq!(v.adapted.len(), samples.len(), "one adapted SQL per sample");
        assert_eq!(v.adapted, samples, "valid samples survive adaption untouched");
    }

    #[test]
    fn tied_votes_go_to_the_earliest_sample() {
        // Two result classes of equal size: `id = 1` (samples 0 and 3) and
        // `id = 2` (samples 1 and 2). Fresh hash maps iterate in a different
        // order each time, so a hash-ordered tally flips between them.
        let d = db();
        let samples: Vec<String> = [1, 2, 2, 1]
            .iter()
            .map(|id| format!("SELECT country FROM tv_channel WHERE id = {id}"))
            .collect();
        let session = ExecSession::disabled();
        let sdb = session.bind(&d);
        for round in 0..64 {
            let probe = Probe::detached();
            assert_eq!(raw_vote(&samples, &sdb, &probe), samples[0], "raw_vote, round {round}");
            let v = consistency_vote(&samples, &sdb, &mut StdRng::seed_from_u64(5), &probe);
            assert_eq!(v.sql, samples[0], "consistency_vote, round {round}");
        }
    }

    #[test]
    fn consistency_vote_skips_unfixable_samples() {
        let d = db();
        let mut rng = StdRng::seed_from_u64(2);
        let samples =
            vec!["totally not sql".to_string(), "SELECT country FROM tv_channel".to_string()];
        let session = ExecSession::disabled();
        let sdb = session.bind(&d);
        let v = consistency_vote(&samples, &sdb, &mut rng, &Probe::detached());
        assert!(v.executable);
        assert!(v.sql.contains("country"));
        // And when nothing works, the first sample comes back.
        let v = consistency_vote(&["garbage".to_string()], &sdb, &mut rng, &Probe::detached());
        assert!(!v.executable);
        assert_eq!(v.sql, "garbage");
    }

    #[test]
    fn cached_vote_matches_uncached_including_rng_stream() {
        let d = db();
        // A duplicate-heavy mix exercising the memo (repeated strings), the
        // rng-dependent ambiguity fixer (never memoized), and repairs.
        let samples: Vec<String> = [
            "SELECT id FROM tv_channel JOIN cartoon ON tv_channel.id = cartoon.channel",
            "SELECT country FROM tv_channel WHERE id = 1",
            "SELECT id FROM tv_channel JOIN cartoon ON tv_channel.id = cartoon.channel",
            "SELECT countrys FROM tv_channel",
            "SELECT country FROM tv_channel WHERE id = 1",
            "SELECT country FROM tv_channel WHERE id = 1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let probe = Probe::detached();
        let uncached = consistency_vote(
            &samples,
            &ExecSession::disabled().bind(&d),
            &mut StdRng::seed_from_u64(11),
            &probe,
        );
        let session = ExecSession::shared();
        let cached =
            consistency_vote(&samples, &session.bind(&d), &mut StdRng::seed_from_u64(11), &probe);
        assert_eq!(cached.sql, uncached.sql);
        assert_eq!(cached.executable, uncached.executable);
        assert_eq!(cached.fixes, uncached.fixes);
        assert_eq!(cached.adapted, uncached.adapted, "per-sample SQL must be identical");
        let stats = session.stats();
        assert!(stats.result.hits > 0, "duplicate samples must hit the result cache");
    }

    #[test]
    fn votes_emit_repair_and_vote_events() {
        let d = db();
        let mut rng = StdRng::seed_from_u64(3);
        let samples = vec![
            "SELECT countrys FROM tv_channel".to_string(),
            "SELECT country FROM tv_channel".to_string(),
        ];
        let sink = obs::EventSink::bounded(1, 16);
        let probe = Probe::new(obs::Clock::Virtual, 0, None, Some(&sink), None);
        let session = ExecSession::disabled();
        let sdb = session.bind(&d);
        let v = consistency_vote(&samples, &sdb, &mut rng, &probe);
        assert!(v.executable);
        probe.publish();
        let events = sink.drain().events;
        let repair = events
            .iter()
            .find(|e| e.kind == "repair")
            .expect("misspelled sample produces a repair event");
        assert_eq!(repair.stage, "adaption");
        assert!(repair
            .fields
            .iter()
            .any(|(k, f)| *k == "category" && *f == EventValue::Str("schema-hallucination")));
        let voted = events.iter().find(|e| e.kind == "voted").expect("tally emits voted");
        assert_eq!(voted.stage, "consistency-vote");

        let probe = Probe::new(obs::Clock::Virtual, 0, None, Some(&sink), None);
        raw_vote(&samples, &sdb, &probe);
        probe.publish();
        assert_eq!(sink.drain().events.len(), 1, "raw vote emits exactly one event");
    }

    #[test]
    fn raw_vote_executes_through_the_given_session() {
        let d = db();
        let samples: Vec<String> = [1, 2, 1, 3]
            .iter()
            .map(|id| format!("SELECT country FROM tv_channel WHERE id = {id}"))
            .collect();
        let session = ExecSession::shared();
        let sdb = session.bind(&d);
        let uncached = ExecSession::disabled();
        let winner = raw_vote(&samples, &sdb, &Probe::detached());
        assert_eq!(winner, raw_vote(&samples, &uncached.bind(&d), &Probe::detached()));
        assert_eq!(winner, samples[0]);
        // A second vote is served from the session's result cache, one hit
        // per sample.
        let before = session.stats().result;
        raw_vote(&samples, &sdb, &Probe::detached());
        let after = session.stats().result;
        assert_eq!((after.hits - before.hits, after.misses - before.misses), (4, 0));
    }

    #[test]
    fn write_vote_picks_the_majority_state_and_never_mutates_the_db() {
        let d = db();
        let before = d.fingerprint();
        // Two spellings of the same single-row update agree on post-state;
        // the third candidate lands elsewhere.
        let samples = vec![
            "UPDATE tv_channel SET country = 'France' WHERE id = 1".to_string(),
            "UPDATE tv_channel SET country = 'France' WHERE id = 1 AND id = 1".to_string(),
            "UPDATE tv_channel SET country = 'Spain' WHERE id = 1".to_string(),
        ];
        let session = ExecSession::shared();
        let v = write_vote(&samples, &d, &session, &Probe::detached());
        assert!(v.executable);
        assert_eq!(v.sql, samples[0], "first sample with the majority state wins");
        assert!(v.fixes.is_empty(), "write vote never repairs");
        assert_eq!(d.fingerprint(), before, "canonical database must stay pristine");
        assert_eq!(d.rows[0][0][2], Value::Text("Italy".into()), "rows untouched");
    }

    #[test]
    fn write_vote_ignores_reads_and_broken_candidates() {
        let d = db();
        // A SELECT preserves state exactly like a conflicting DO NOTHING
        // upsert would — it must not key into the vote.
        let samples = vec![
            "SELECT * FROM tv_channel".to_string(),
            "DELETE FROM nowhere".to_string(),
            "DELETE FROM tv_channel WHERE id = 2".to_string(),
        ];
        let session = ExecSession::shared();
        let v = write_vote(&samples, &d, &session, &Probe::detached());
        assert!(v.executable);
        assert_eq!(v.sql, samples[2]);
        assert_eq!(d.rows[0].len(), 2, "vote executed against transient copies only");
    }

    #[test]
    fn write_vote_with_no_viable_candidate_falls_back_to_the_first() {
        let d = db();
        let samples =
            vec!["DELETE FROM nowhere".to_string(), "UPDATE ghosts SET x = 1".to_string()];
        let v = write_vote(&samples, &d, &ExecSession::disabled(), &Probe::detached());
        assert!(!v.executable);
        assert_eq!(v.sql, samples[0]);
        assert_eq!(v.adapted, samples);
    }

    #[test]
    fn write_vote_agrees_across_cache_modes_and_records_observability() {
        let d = db();
        let samples = vec![
            "INSERT INTO cartoon VALUES (2, 'Kite', 'Maria', 1)".to_string(),
            "INSERT INTO cartoon (id, title, written_by, channel) VALUES (2, 'Kite', 'Maria', 1)"
                .to_string(),
        ];
        let sink = obs::EventSink::bounded(1, 16);
        let probe = Probe::new(obs::Clock::Virtual, 0, None, Some(&sink), None);
        let cached = write_vote(&samples, &d, &ExecSession::shared(), &probe);
        let uncached = write_vote(&samples, &d, &ExecSession::disabled(), &Probe::detached());
        assert_eq!(cached.sql, uncached.sql, "cache modes agree on the winner");
        assert!(cached.executable);
        let snap = probe.publish();
        assert_eq!(snap.counter(Counter::Samples), 2);
        assert_eq!(sink.drain().events.len(), 1, "write vote emits exactly one voted event");
    }
}
