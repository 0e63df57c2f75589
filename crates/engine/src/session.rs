//! Shared execution session: a thread-safe, bounded memoization layer over
//! [`exec::prepare`]/[`exec::run`].
//!
//! PURPLE's hottest loop is redundant execution: the consistency vote executes
//! up to 30 samples per example (many byte-identical), then EX/TS scoring
//! re-parses and re-executes predictions and golds across every test-suite
//! database. An [`ExecSession`] sits in front of the engine and memoizes the
//! three expensive stages independently:
//!
//! * **parse** — SQL text → AST, keyed by the raw string (db-independent);
//! * **plan** — `(db fingerprint, canonical SQL)` → prepared [`Plan`];
//! * **result** — `(db fingerprint, canonical SQL)` → executed [`ResultSet`];
//! * **columns** — `(db fingerprint, table index)` → columnar [`ColumnTable`]
//!   read by the vectorized pipeline (see [`crate::batch`]).
//!
//! Every session runs plans on that one pipeline and applies writes through
//! [`exec::apply_write`]; a disabled session differs only in caching nothing.
//!
//! Keys use [`Database::fingerprint`] (content hash), never pointer identity,
//! so logically identical databases share entries and mutated ones never alias.
//! Values are `Arc`-shared and immutable; errors are memoized like successes.
//!
//! # Determinism
//!
//! The cache is *semantically invisible*: a hit returns exactly the value the
//! miss path would have computed (engine execution is deterministic), so every
//! consumer produces byte-identical output with the cache on, off, or shared
//! across any number of threads. Hit/miss/eviction counters **are**
//! interleaving-dependent, which is why they live in [`obs::CacheStats`] and
//! are rendered to stdout only — never into the deterministic report surface.
//!
//! Each cache is an independent bounded LRU behind its own [`Mutex`]; lock
//! scope is a hash lookup plus list splice, never an execution. Concurrent
//! misses on one key may both compute — both compute the same value, so the
//! second insert is a harmless overwrite.

use crate::batch::{self, ColumnTable};
use crate::database::Database;
use crate::error::ExecError;
use crate::exec::{self, Plan, ResultSet, WriteOutcome, WritePlan};
use obs::{CacheCounters, CacheStats, ExecOpCounters, ExecOpStats, StageCacheCounters};
use sqlkit::ast::{Query, Statement};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Default per-stage LRU capacity: comfortably holds a full Spider-scale eval
/// run (dev split × vote samples) while bounding worst-case memory.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Sizing of an [`ExecSession`].
///
/// One bound serves every cached stage, so a server sizes its caches to its
/// workload in one number (e.g. [`SessionConfig::for_workers`] scales with
/// the worker count of a translation service). Capacity 0 disables caching
/// entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Bound of each LRU: parse, plan, result and column caches alike.
    pub capacity: usize,
}

impl Default for SessionConfig {
    /// [`DEFAULT_CACHE_CAPACITY`] — the configuration [`ExecSession::shared`]
    /// has always used.
    fn default() -> Self {
        SessionConfig { capacity: DEFAULT_CACHE_CAPACITY }
    }
}

impl SessionConfig {
    /// A configuration sized for a translation server with `workers` worker
    /// threads: the bound grows linearly with the worker count (each worker
    /// keeps its own working set of vote samples and gold executions warm)
    /// without ever shrinking below the single-process default.
    pub fn for_workers(workers: usize) -> Self {
        SessionConfig { capacity: DEFAULT_CACHE_CAPACITY.max(workers * 1024) }
    }
}

/// Cache key for the per-database stages: (database fingerprint, canonical SQL).
type DbKey = (u128, String);

/// A shared, bounded, thread-safe execution cache. Thread one per run, exactly
/// like `MetricsRegistry`: construct with [`ExecSession::shared`], hand clones
/// of the `Arc` to every worker, and read [`ExecSession::stats`] at the end.
pub struct ExecSession {
    cfg: SessionConfig,
    parse: Mutex<Lru<String, Option<Arc<Query>>>>,
    plans: Mutex<Lru<DbKey, Result<Arc<Plan>, ExecError>>>,
    results: Mutex<Lru<DbKey, Result<Arc<ResultSet>, ExecError>>>,
    columns: Mutex<Lru<(u128, usize), Arc<ColumnTable>>>,
    /// Statement-level parse cache (reads *and* writes), keyed by raw SQL.
    /// Its traffic reports under the parse counters.
    stmts: Mutex<Lru<String, Option<Arc<Statement>>>>,
    /// Write plans keyed by the *pre-write* fingerprint: applying the plan
    /// changes the fingerprint, so stale write plans can never be replayed
    /// against the mutated state. Its traffic reports under the plan
    /// counters.
    wplans: Mutex<Lru<DbKey, Result<Arc<WritePlan>, ExecError>>>,
    counters: CacheCounters,
    ops: ExecOpCounters,
}

/// What applying a [`Statement`] through a session produced: result rows for
/// reads, a [`WriteOutcome`] (row deltas + post-state fingerprint) for writes.
#[derive(Debug, Clone)]
pub enum StatementOutcome {
    /// A read executed; the memoized result set.
    Rows(Arc<ResultSet>),
    /// A write applied; the database was mutated.
    Write(WriteOutcome),
}

impl std::fmt::Debug for ExecSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecSession")
            .field("config", &self.cfg)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ExecSession {
    /// A session with the given per-stage LRU capacity. Capacity 0 disables
    /// caching entirely (every call computes directly, no cache stats
    /// recorded).
    pub fn new(capacity: usize) -> Self {
        Self::with_config(SessionConfig { capacity })
    }

    /// A session whose every LRU is bounded by `cfg.capacity`.
    pub fn with_config(cfg: SessionConfig) -> Self {
        let cap = cfg.capacity;
        ExecSession {
            cfg,
            parse: Mutex::new(Lru::new(cap)),
            plans: Mutex::new(Lru::new(cap)),
            results: Mutex::new(Lru::new(cap)),
            columns: Mutex::new(Lru::new(cap)),
            stmts: Mutex::new(Lru::new(cap)),
            wplans: Mutex::new(Lru::new(cap)),
            counters: CacheCounters::default(),
            ops: ExecOpCounters::default(),
        }
    }

    /// The standard enabled session ([`SessionConfig::default`]), ready to
    /// share.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::with_config(SessionConfig::default()))
    }

    /// A shared session with an explicit [`SessionConfig`] (e.g.
    /// [`SessionConfig::for_workers`] for a translation server).
    pub fn shared_with(cfg: SessionConfig) -> Arc<Self> {
        Arc::new(Self::with_config(cfg))
    }

    /// A pass-through session: identical API and engine, capacity 0, so
    /// nothing is memoized. The uncached path (`repro --no-exec-cache`), and
    /// what a caller passes to any session-taking function to run uncached.
    pub fn disabled() -> Arc<Self> {
        Arc::new(Self::new(0))
    }

    /// Whether this session caches at all.
    pub fn is_enabled(&self) -> bool {
        self.cfg.capacity > 0
    }

    /// The sizing configuration of this session.
    pub fn config(&self) -> SessionConfig {
        self.cfg
    }

    /// Point-in-time snapshot of hit/miss/eviction counts and entry gauges.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            parse: self.counters.parse.snapshot(lock(&self.parse).len() as u64),
            plan: self.counters.plan.snapshot(lock(&self.plans).len() as u64),
            result: self.counters.result.snapshot(lock(&self.results).len() as u64),
            columns: self.counters.columns.snapshot(lock(&self.columns).len() as u64),
        }
    }

    /// Point-in-time snapshot of the vectorized engine's per-operator traffic.
    pub fn op_stats(&self) -> ExecOpStats {
        self.ops.snapshot()
    }

    /// Fetch (or build and memoize) the column vectors for one base table.
    fn columns_for(&self, db: &Database, fp: u128, ti: usize) -> Arc<ColumnTable> {
        let build = || {
            self.ops.column_build();
            Arc::new(ColumnTable::from_table(db, ti))
        };
        if !self.is_enabled() {
            return build();
        }
        lookup(&self.columns, &self.counters.columns, (fp, ti), build)
    }

    /// Parse SQL text, memoizing by the raw string. `None` means the text does
    /// not parse (parse failures are memoized too — broken LLM samples repeat).
    pub fn parse(&self, sql: &str) -> Option<Arc<Query>> {
        if !self.is_enabled() {
            return sqlkit::parse(sql).ok().map(Arc::new);
        }
        {
            let mut cache = lock(&self.parse);
            if let Some(hit) = cache.get_ref(sql) {
                self.counters.parse.hit();
                return hit.clone();
            }
        }
        self.counters.parse.miss();
        let parsed = sqlkit::parse(sql).ok().map(Arc::new);
        if lock(&self.parse).insert(sql.to_string(), parsed.clone()) {
            self.counters.parse.eviction();
        }
        parsed
    }

    /// Parse SQL text as a [`Statement`] (read or write), memoizing by the raw
    /// string. `None` means the text does not parse. Traffic counts under the
    /// parse stage.
    pub fn parse_statement(&self, sql: &str) -> Option<Arc<Statement>> {
        if !self.is_enabled() {
            return sqlkit::parse_statement(sql).ok().map(Arc::new);
        }
        {
            let mut cache = lock(&self.stmts);
            if let Some(hit) = cache.get_ref(sql) {
                self.counters.parse.hit();
                return hit.clone();
            }
        }
        self.counters.parse.miss();
        let parsed = sqlkit::parse_statement(sql).ok().map(Arc::new);
        if lock(&self.stmts).insert(sql.to_string(), parsed.clone()) {
            self.counters.parse.eviction();
        }
        parsed
    }

    /// Apply a statement: reads execute through the memoized query path;
    /// writes compile to a [`WritePlan`] (cached under the *pre-write*
    /// fingerprint), mutate `db` through [`exec::apply_write`], and return the
    /// [`WriteOutcome`].
    ///
    /// Mutation-aware by construction: a write changes
    /// [`Database::fingerprint`], so every plan/result/column entry cached for
    /// the old state simply stops matching — a read after a write can never
    /// observe stale cached data.
    pub fn apply(
        &self,
        db: &mut Database,
        stmt: &Statement,
    ) -> Result<StatementOutcome, ExecError> {
        match stmt {
            Statement::Select(q) => self.bind(db).execute(q).map(StatementOutcome::Rows),
            write => {
                let plan = if self.is_enabled() {
                    let key = (db.fingerprint(), write.to_string());
                    lookup(&self.wplans, &self.counters.plan, key, || {
                        exec::prepare_write(db, write).map(Arc::new)
                    })?
                } else {
                    Arc::new(exec::prepare_write(db, write)?)
                };
                Ok(StatementOutcome::Write(exec::apply_write(&plan, db)))
            }
        }
    }

    /// Parse and apply SQL text (read or write). `None` means the text does
    /// not parse; `Some(Err(_))` carries the engine error.
    pub fn apply_sql(
        &self,
        db: &mut Database,
        sql: &str,
    ) -> Option<Result<StatementOutcome, ExecError>> {
        let stmt = self.parse_statement(sql)?;
        Some(self.apply(db, &stmt))
    }

    /// Bind this session to a database, fixing the fingerprint half of the
    /// cache key once. All plan/result traffic flows through the returned
    /// [`SessionDb`].
    pub fn bind<'s, 'd>(&'s self, db: &'d Database) -> SessionDb<'s, 'd> {
        // A disabled session never consults keys, so skip the content hash.
        let fp = if self.is_enabled() { db.fingerprint() } else { 0 };
        SessionDb { session: self, db, fp, tracer: None }
    }
}

/// An [`ExecSession`] bound to one database: the handle call sites actually
/// execute through. Cheap to construct per (session, database) pair; the
/// database content hash is computed once at bind time.
#[derive(Clone, Copy)]
pub struct SessionDb<'s, 'd> {
    session: &'s ExecSession,
    db: &'d Database,
    fp: u128,
    /// Optional request-scoped span recorder: every `execute` records one
    /// `exec` leaf span with virtual work = result rows (identical on cache
    /// hit and miss, so traces stay interleaving-independent).
    tracer: Option<&'s obs::TraceRecorder>,
}

impl std::fmt::Debug for SessionDb<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionDb").field("fp", &self.fp).finish()
    }
}

impl<'s, 'd> SessionDb<'s, 'd> {
    /// The bound database.
    pub fn db(&self) -> &'d Database {
        self.db
    }

    /// Attach (or detach) a request-scoped span recorder (DESIGN.md §14):
    /// pass the run's `obs::Probe::tracer`, so execution leaves nest under
    /// the stage the probe has open.
    pub fn with_tracer(mut self, tracer: Option<&'s obs::TraceRecorder>) -> Self {
        self.tracer = tracer;
        self
    }

    /// The owning session.
    pub fn session(&self) -> &'s ExecSession {
        self.session
    }

    /// Execute a query, memoized by `(db fingerprint, canonical SQL)`. Misses
    /// go through the plan cache, so re-executing a query against a mutated
    /// database recompiles at most once.
    ///
    /// When a tracer is attached ([`SessionDb::with_tracer`]) each call
    /// records one `exec` leaf span whose virtual work is the result row
    /// count (0 on error) — a pure function of the query and database, so
    /// trace timelines do not depend on cache hits or thread interleaving.
    pub fn execute(&self, q: &Query) -> Result<Arc<ResultSet>, ExecError> {
        let outcome = self.execute_inner(q);
        if let Some(tracer) = self.tracer {
            let work = outcome.as_ref().map_or(0, |r| r.rows.len() as u64);
            tracer.leaf(obs::trace::EXEC_SPAN, work);
        }
        outcome
    }

    fn execute_inner(&self, q: &Query) -> Result<Arc<ResultSet>, ExecError> {
        if !self.session.is_enabled() {
            return exec::prepare(self.db, q).map(|plan| Arc::new(self.run_plan(&plan)));
        }
        let key = (self.fp, q.to_string());
        {
            let mut cache = lock(&self.session.results);
            if let Some(hit) = cache.get_ref(&key) {
                self.session.counters.result.hit();
                return hit.clone();
            }
        }
        self.session.counters.result.miss();
        // Compute outside any lock: plans can take milliseconds on join-heavy
        // queries and must not serialize other workers.
        let outcome = self.prepare_keyed(&key, q).map(|plan| Arc::new(self.run_plan(&plan)));
        if lock(&self.session.results).insert(key, outcome.clone()) {
            self.session.counters.result.eviction();
        }
        outcome
    }

    /// Run a prepared plan on the vectorized pipeline over the session's
    /// column cache, counting operator traffic.
    fn run_plan(&self, plan: &Plan) -> ResultSet {
        let (session, db, fp) = (self.session, self.db, self.fp);
        let mut provider = |ti: usize| session.columns_for(db, fp, ti);
        batch::run_plan_with(plan, &mut provider, Some(&session.ops))
    }

    /// Parse and execute SQL text. `None` means the text does not parse;
    /// `Some(Err(_))` carries the engine error for repair/attribution.
    pub fn execute_sql(&self, sql: &str) -> Option<Result<Arc<ResultSet>, ExecError>> {
        let q = self.session.parse(sql)?;
        Some(self.execute(&q))
    }

    /// Plan-cache lookup reusing an already-built key (avoids re-serializing
    /// the query on the execute miss path).
    fn prepare_keyed(&self, key: &(u128, String), q: &Query) -> Result<Arc<Plan>, ExecError> {
        lookup(&self.session.plans, &self.session.counters.plan, key.clone(), || {
            exec::prepare(self.db, q).map(Arc::new)
        })
    }
}

/// Shared hit-or-compute path over one LRU stage.
fn lookup<K, V>(
    cache: &Mutex<Lru<K, V>>,
    counters: &StageCacheCounters,
    key: K,
    compute: impl FnOnce() -> V,
) -> V
where
    K: Eq + Hash + Clone,
    V: Clone,
{
    {
        let mut guard = lock(cache);
        if let Some(hit) = guard.get(&key) {
            counters.hit();
            return hit.clone();
        }
    }
    counters.miss();
    let value = compute();
    if lock(cache).insert(key, value.clone()) {
        counters.eviction();
    }
    value
}

/// Lock `m`, ignoring poisoning: every critical section in this file leaves the
/// data valid at every step, so a lock poisoned by a panicking thread still
/// guards valid data, and later callers keep working.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Bounded LRU (hand-rolled: no external cache crates in the workspace)
// ---------------------------------------------------------------------------

const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    val: V,
    prev: usize,
    next: usize,
}

/// An O(1) bounded LRU: slab-allocated doubly-linked recency list plus a
/// key → slot index. Not thread-safe on its own; callers wrap it in a `Mutex`.
struct Lru<K, V> {
    cap: usize,
    map: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    fn new(cap: usize) -> Self {
        Lru { cap, map: HashMap::new(), nodes: Vec::new(), free: Vec::new(), head: NIL, tail: NIL }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    /// Look up a key, refreshing its recency on hit.
    fn get(&mut self, key: &K) -> Option<&V> {
        let ix = *self.map.get(key)?;
        self.unlink(ix);
        self.push_front(ix);
        Some(&self.nodes[ix].val)
    }

    /// `get` for borrowed key forms (`&str` against `String` keys).
    fn get_ref<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let ix = *self.map.get(key)?;
        self.unlink(ix);
        self.push_front(ix);
        Some(&self.nodes[ix].val)
    }

    /// Insert (or refresh) a key. Returns `true` when the bound forced an
    /// eviction. Capacity 0 stores nothing.
    fn insert(&mut self, key: K, val: V) -> bool {
        if self.cap == 0 {
            return false;
        }
        if let Some(&ix) = self.map.get(&key) {
            self.nodes[ix].val = val;
            self.unlink(ix);
            self.push_front(ix);
            return false;
        }
        let ix = match self.free.pop() {
            Some(ix) => {
                self.nodes[ix] = Node { key: key.clone(), val, prev: NIL, next: NIL };
                ix
            }
            None => {
                self.nodes.push(Node { key: key.clone(), val, prev: NIL, next: NIL });
                self.nodes.len() - 1
            }
        };
        self.map.insert(key, ix);
        self.push_front(ix);
        if self.map.len() > self.cap {
            let tail = self.tail;
            debug_assert_ne!(tail, NIL);
            self.unlink(tail);
            self.map.remove(&self.nodes[tail].key);
            self.free.push(tail);
            return true;
        }
        false
    }

    fn unlink(&mut self, ix: usize) {
        let (prev, next) = (self.nodes[ix].prev, self.nodes[ix].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else if self.head == ix {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else if self.tail == ix {
            self.tail = prev;
        }
        self.nodes[ix].prev = NIL;
        self.nodes[ix].next = NIL;
    }

    fn push_front(&mut self, ix: usize) {
        self.nodes[ix].prev = NIL;
        self.nodes[ix].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = ix;
        }
        self.head = ix;
        if self.tail == NIL {
            self.tail = ix;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use sqlkit::{Column, ColumnType, Schema, Table};

    fn db() -> Database {
        let mut schema = Schema::new("d");
        schema.tables.push(Table {
            name: "t".into(),
            display: "t".into(),
            columns: vec![Column::new("a", ColumnType::Int), Column::new("b", ColumnType::Text)],
            primary_key: Some(0),
        });
        let mut d = Database::empty(schema);
        for i in 0..5 {
            d.insert(0, vec![Value::Int(i), Value::Text(format!("r{i}"))]);
        }
        d
    }

    #[test]
    fn lru_is_bounded_and_evicts_least_recent() {
        let mut lru: Lru<i32, i32> = Lru::new(2);
        assert!(!lru.insert(1, 10));
        assert!(!lru.insert(2, 20));
        assert_eq!(lru.get(&1), Some(&10)); // refresh 1; 2 is now LRU
        assert!(lru.insert(3, 30)); // evicts 2
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some(&10));
        assert_eq!(lru.get(&3), Some(&30));
        // Refreshing an existing key never evicts.
        assert!(!lru.insert(3, 31));
        assert_eq!(lru.get(&3), Some(&31));
    }

    #[test]
    fn lru_capacity_zero_stores_nothing() {
        let mut lru: Lru<i32, i32> = Lru::new(0);
        assert!(!lru.insert(1, 10));
        assert_eq!(lru.len(), 0);
        assert_eq!(lru.get(&1), None);
    }

    #[test]
    fn lru_slot_reuse_after_eviction() {
        let mut lru: Lru<i32, i32> = Lru::new(3);
        for i in 0..50 {
            lru.insert(i, i);
        }
        assert_eq!(lru.len(), 3);
        assert!(lru.nodes.len() <= 4, "evicted slots must be reused");
        for i in 47..50 {
            assert_eq!(lru.get(&i), Some(&i));
        }
    }

    #[test]
    fn session_memoizes_results_and_counts_traffic() {
        let session = ExecSession::new(64);
        let d = db();
        let bound = session.bind(&d);
        let q = sqlkit::parse("SELECT a FROM t WHERE a > 1").unwrap();
        let first = bound.execute(&q).unwrap();
        let second = bound.execute(&q).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "hit must return the same Arc");
        let stats = session.stats();
        assert_eq!(stats.result.misses, 1);
        assert_eq!(stats.result.hits, 1);
        assert_eq!(stats.plan.misses, 1);
        assert_eq!(stats.result.entries, 1);
    }

    #[test]
    fn session_results_match_direct_execution_including_errors() {
        let session = ExecSession::new(64);
        let d = db();
        let bound = session.bind(&d);
        for sql in ["SELECT a FROM t", "SELECT nope FROM t", "SELECT a FROM missing"] {
            let q = sqlkit::parse(sql).unwrap();
            let direct = exec::execute(&d, &q);
            let cached = bound.execute(&q);
            match (direct, cached) {
                (Ok(rs), Ok(arc)) => assert_eq!(rs, *arc),
                (Err(e1), Err(e2)) => assert_eq!(e1, e2),
                other => panic!("cached path diverged: {other:?}"),
            }
            // Errors are memoized: the second lookup is a hit.
            let _ = bound.execute(&q);
        }
        let stats = session.stats();
        assert_eq!(stats.result.misses, 3);
        assert_eq!(stats.result.hits, 3);
    }

    #[test]
    fn mutated_database_keys_separately() {
        let session = ExecSession::new(64);
        let d1 = db();
        let mut d2 = db();
        d2.insert(0, vec![Value::Int(99), Value::Text("extra".into())]);
        let q = sqlkit::parse("SELECT COUNT(*) FROM t").unwrap();
        let r1 = session.bind(&d1).execute(&q).unwrap();
        let r2 = session.bind(&d2).execute(&q).unwrap();
        assert_eq!(r1.rows[0][0], Value::Int(5));
        assert_eq!(r2.rows[0][0], Value::Int(6));
        // Identical content shares entries even across separate values.
        let d3 = db();
        let r3 = session.bind(&d3).execute(&q).unwrap();
        assert!(Arc::ptr_eq(&r1, &r3));
    }

    #[test]
    fn parse_cache_memoizes_failures() {
        let session = ExecSession::new(64);
        assert!(session.parse("SELECT FROM WHERE").is_none());
        assert!(session.parse("SELECT FROM WHERE").is_none());
        let stats = session.stats();
        assert_eq!(stats.parse.misses, 1);
        assert_eq!(stats.parse.hits, 1);
    }

    #[test]
    fn disabled_session_is_pass_through() {
        let session = ExecSession::disabled();
        assert!(!session.is_enabled());
        let d = db();
        let bound = session.bind(&d);
        let q = sqlkit::parse("SELECT a FROM t").unwrap();
        let a = bound.execute(&q).unwrap();
        let b = bound.execute(&q).unwrap();
        assert_eq!(*a, *b);
        assert!(!Arc::ptr_eq(&a, &b), "disabled session must not memoize");
        assert_eq!(session.stats(), CacheStats::default());
    }

    #[test]
    fn column_cache_memoizes_per_table_and_counts_builds() {
        let session = ExecSession::new(64);
        let d = db();
        let bound = session.bind(&d);
        let q1 = sqlkit::parse("SELECT a FROM t").unwrap();
        let q2 = sqlkit::parse("SELECT b FROM t").unwrap();
        bound.execute(&q1).unwrap();
        bound.execute(&q2).unwrap();
        let stats = session.stats();
        assert_eq!(stats.columns.misses, 1, "one table transposed exactly once");
        assert_eq!(stats.columns.hits, 1);
        assert_eq!(stats.columns.entries, 1);
        let ops = session.op_stats();
        assert_eq!(ops.column_builds, 1);
        assert!(ops.rows_scanned > 0);
        assert!(ops.batches > 0);
    }

    #[test]
    fn write_through_session_never_serves_stale_reads() {
        // The invalidation contract: a write recomputes the fingerprint, so
        // the plan/result/column entries cached for the old state stop
        // matching. A read after a write must see the new rows.
        let session = ExecSession::new(64);
        let mut d = db();
        let q = sqlkit::parse("SELECT COUNT(*) FROM t").unwrap();
        let before = session.bind(&d).execute(&q).unwrap();
        assert_eq!(before.rows[0][0], Value::Int(5));
        let stmt = sqlkit::parse_statement("INSERT INTO t VALUES (99, 'new')").unwrap();
        let outcome = session.apply(&mut d, &stmt).unwrap();
        let StatementOutcome::Write(w) = outcome else { panic!("expected write outcome") };
        assert_eq!(w.rows_inserted, 1);
        assert_eq!(w.fingerprint, d.fingerprint());
        let after = session.bind(&d).execute(&q).unwrap();
        assert_eq!(after.rows[0][0], Value::Int(6), "stale cached result served after write");
        // Same story for the column cache (vectorized engine) and plan cache:
        // both recomputed under the new fingerprint, old entries dormant.
        let stats = session.stats();
        assert_eq!(stats.result.misses, 2, "post-write read recomputed");
        assert_eq!(stats.columns.misses, 2, "post-write read re-transposed");
        // Deleting the row restores the original content, and with it the
        // original fingerprint: the pre-write entries become valid hits again.
        let del = sqlkit::parse_statement("DELETE FROM t WHERE a = 99").unwrap();
        session.apply(&mut d, &del).unwrap();
        let restored = session.bind(&d).execute(&q).unwrap();
        assert!(Arc::ptr_eq(&before, &restored), "content-addressed keys must re-hit");
    }

    #[test]
    fn write_plans_cache_under_the_pre_write_fingerprint() {
        let session = ExecSession::new(64);
        let mut d1 = db();
        let mut d2 = db();
        let stmt = sqlkit::parse_statement("UPDATE t SET b = 'z' WHERE a = 1").unwrap();
        session.apply(&mut d1, &stmt).unwrap();
        // d2 has the same starting content, so the write plan is a hit...
        let plan_misses = session.stats().plan.misses;
        session.apply(&mut d2, &stmt).unwrap();
        assert_eq!(session.stats().plan.misses, plan_misses, "identical state shares write plans");
        assert_eq!(session.stats().plan.hits, 1);
        // ...but replaying against the *mutated* state recompiles: the old
        // fingerprint no longer matches, so the stale plan cannot be reused.
        session.apply(&mut d1, &stmt).unwrap();
        assert_eq!(session.stats().plan.misses, plan_misses + 1);
        assert_eq!(d1.fingerprint(), d2.fingerprint(), "idempotent update converges");
    }

    #[test]
    fn apply_matches_across_cached_and_disabled_sessions() {
        let scripts = [
            "INSERT INTO t VALUES (10, 'j'), (11, 'k')",
            "INSERT INTO t VALUES (10, 'J2') ON CONFLICT (a) DO UPDATE SET b = excluded.b",
            "INSERT INTO t VALUES (11, 'dup') ON CONFLICT DO NOTHING",
            "UPDATE t SET b = 'x' WHERE a > 9",
            "DELETE FROM t WHERE a = 3",
        ];
        let (on_s, off_s) = (ExecSession::shared(), ExecSession::disabled());
        let (mut don, mut doff) = (db(), db());
        for sql in scripts {
            let on = on_s.apply_sql(&mut don, sql).unwrap().unwrap();
            let off = off_s.apply_sql(&mut doff, sql).unwrap().unwrap();
            let (StatementOutcome::Write(on), StatementOutcome::Write(off)) = (on, off) else {
                panic!("expected write outcomes for {sql}");
            };
            assert_eq!(on, off, "disabled session diverged on {sql}");
            assert_eq!(on.fingerprint, don.fingerprint(), "outcome carries the post-write print");
        }
        assert_eq!(don.fingerprint(), doff.fingerprint());
        assert_eq!(don.rows, doff.rows);
    }

    #[test]
    fn statement_parse_cache_memoizes_both_outcomes() {
        let session = ExecSession::new(64);
        assert!(session.parse_statement("INSERT INTO").is_none());
        assert!(session.parse_statement("INSERT INTO").is_none());
        let a = session.parse_statement("DELETE FROM t").unwrap();
        let b = session.parse_statement("DELETE FROM t").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = session.stats();
        assert_eq!(stats.parse.misses, 2);
        assert_eq!(stats.parse.hits, 2);
    }

    #[test]
    fn eviction_counters_fire_under_churn() {
        let session = ExecSession::new(2);
        let d = db();
        let bound = session.bind(&d);
        for i in 0..6 {
            let q = sqlkit::parse(&format!("SELECT a FROM t WHERE a = {i}")).unwrap();
            bound.execute(&q).unwrap();
        }
        let stats = session.stats();
        assert_eq!(stats.result.misses, 6);
        assert_eq!(stats.result.evictions, 4);
        assert_eq!(stats.result.entries, 2);
    }
}
