//! In-memory database: a [`Schema`] plus row storage per table.

use crate::dialect::Dialect;
use crate::value::Value;
use sqlkit::{ColumnId, Schema};
use std::sync::OnceLock;

/// A row of values, one per column of the owning table.
pub type Row = Vec<Value>;

/// An in-memory database instance.
#[derive(Debug, Clone)]
pub struct Database {
    /// The schema.
    pub schema: Schema,
    /// Row storage, parallel to `schema.tables`.
    pub rows: Vec<Vec<Row>>,
    /// The SQL dialect this database speaks (default SQLite, as in the paper).
    pub dialect: Dialect,
    /// Memoized [`Self::fingerprint`]. Every `&mut self` method invalidates it;
    /// code that mutates the pub fields directly must call
    /// [`Self::invalidate_fingerprint`] before the next fingerprint read.
    fp_cache: OnceLock<u128>,
    /// Memoized [`Self::lexicon`], invalidated with the fingerprint.
    lexicon: OnceLock<Lexicon>,
}

impl Database {
    /// An empty database over the given schema (SQLite dialect).
    pub fn empty(schema: Schema) -> Self {
        let rows = vec![Vec::new(); schema.tables.len()];
        Database {
            schema,
            rows,
            dialect: Dialect::sqlite(),
            fp_cache: OnceLock::new(),
            lexicon: OnceLock::new(),
        }
    }

    /// Switch the database's dialect (builder style).
    pub fn with_dialect(mut self, dialect: Dialect) -> Self {
        self.dialect = dialect;
        self.invalidate_fingerprint();
        self
    }

    /// Drop the memoized fingerprint and lexicon so the next
    /// [`Self::fingerprint`] or [`Self::lexicon`] call recomputes them from
    /// content. Called by every mutating method on this type; callers that
    /// write through the pub fields directly must call it themselves.
    pub fn invalidate_fingerprint(&mut self) {
        self.fp_cache = OnceLock::new();
        self.lexicon = OnceLock::new();
    }

    /// Append a row to a table by index. Panics if the arity differs from the table
    /// definition — population code is the only writer and must be consistent.
    pub fn insert(&mut self, table: usize, row: Row) {
        assert_eq!(
            row.len(),
            self.schema.tables[table].columns.len(),
            "row arity mismatch for table {}",
            self.schema.tables[table].name
        );
        self.invalidate_fingerprint();
        self.rows[table].push(row);
    }

    /// Append a row to a table by name. Returns false when the table is unknown.
    pub fn insert_by_name(&mut self, table: &str, row: Row) -> bool {
        match self.schema.table_index(table) {
            Some(t) => {
                self.insert(t, row);
                true
            }
            None => false,
        }
    }

    /// Number of rows in a table.
    pub fn row_count(&self, table: usize) -> usize {
        self.rows[table].len()
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// A stable 128-bit content fingerprint over schema, dialect, and every row.
    ///
    /// Used by [`crate::ExecSession`] as the database half of its cache keys, so
    /// two `Database` values with identical content share cache entries while
    /// any mutation (different rows, dialect, schema) keys separately. Pointer
    /// identity is deliberately not used — it is unsound under reallocation.
    ///
    /// The hash is FNV-1a-128 over an unambiguous encoding: `Debug` of the
    /// schema and dialect, then each table's rows with per-value type tags and
    /// length prefixes (so `Text("1")` and `Int(1)` cannot collide).
    ///
    /// Memoized per instance; mutation through any `&mut self` method
    /// invalidates the memo (see [`Self::invalidate_fingerprint`]).
    pub fn fingerprint(&self) -> u128 {
        *self.fp_cache.get_or_init(|| self.compute_fingerprint())
    }

    fn compute_fingerprint(&self) -> u128 {
        use std::fmt::Write as _;
        let mut h = Fnv128(FNV128_OFFSET);
        // Debug output is a total, stable rendering of the schema/dialect trees.
        let _ = write!(h, "{:?}|{:?}|", self.schema, self.dialect);
        for table in &self.rows {
            h.byte(0xF0);
            h.bytes(&(table.len() as u64).to_le_bytes());
            for row in table {
                h.byte(0xF1);
                for v in row {
                    match v {
                        Value::Null => h.byte(0),
                        Value::Int(i) => {
                            h.byte(1);
                            h.bytes(&i.to_le_bytes());
                        }
                        Value::Float(f) => {
                            h.byte(2);
                            h.bytes(&f.to_bits().to_le_bytes());
                        }
                        Value::Text(s) => {
                            h.byte(3);
                            h.bytes(&(s.len() as u64).to_le_bytes());
                            h.bytes(s.as_bytes());
                        }
                    }
                }
            }
        }
        h.0
    }

    /// A small sample of distinct non-null values for a column, used when rendering
    /// representative values into prompts (§III-A, following BRIDGE).
    pub fn sample_values(&self, table: usize, column: usize, limit: usize) -> Vec<Value> {
        let mut seen = Vec::new();
        for row in &self.rows[table] {
            let v = &row[column];
            if v.is_null() || seen.contains(v) {
                continue;
            }
            seen.push(v.clone());
            if seen.len() >= limit {
                break;
            }
        }
        seen
    }

    /// The lowercased text that questions are matched against: every display
    /// name with its words, and the sample values of every column. Built on
    /// first use and memoized like [`Self::fingerprint`], so a database pays
    /// for it once however many questions are scored against it.
    pub fn lexicon(&self) -> &Lexicon {
        self.lexicon.get_or_init(|| Lexicon::build(self))
    }
}

/// Distinct values per column that a [`Lexicon`] samples.
const LEXICON_VALUES: usize = 24;

/// A display name as questions are matched against it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexName {
    /// The name, ASCII-lowercased.
    pub lower: String,
    /// `lower` split on whitespace.
    pub words: Vec<String>,
}

impl LexName {
    /// The matching form of a display name.
    pub fn new(display: &str) -> Self {
        let lower = display.to_ascii_lowercase();
        let words = lower.split_whitespace().map(str::to_string).collect();
        LexName { lower, words }
    }
}

/// A column as questions are matched against it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexColumn {
    /// The column's display name.
    pub name: LexName,
    /// The ASCII-lowercased texts of the column's first 24 distinct non-null
    /// values ([`Database::sample_values`]) that are 2 bytes or longer,
    /// concatenated in row order.
    values: String,
    /// End offset in `values` of each text.
    ends: Vec<usize>,
}

impl LexColumn {
    /// The sampled value texts, in row order.
    pub fn values(&self) -> impl Iterator<Item = &str> {
        self.ends.iter().scan(0, |start, &end| {
            let text = &self.values[*start..end];
            *start = end;
            Some(text)
        })
    }
}

/// The lowercased text of one database that questions are matched against
/// ([`Database::lexicon`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lexicon {
    /// Table display names, in schema order.
    pub tables: Vec<LexName>,
    /// Columns per table, in schema order.
    columns: Vec<Vec<LexColumn>>,
}

impl Lexicon {
    fn build(db: &Database) -> Self {
        let tables = db.schema.tables.iter().map(|t| LexName::new(&t.display)).collect();
        let columns = (db.schema.tables.iter().enumerate())
            .map(|(ti, t)| {
                (t.columns.iter().enumerate())
                    .map(|(ci, c)| {
                        let (mut values, mut ends) = (String::new(), Vec::new());
                        for v in db.sample_values(ti, ci, LEXICON_VALUES) {
                            let text = v.to_string().to_ascii_lowercase();
                            if text.len() >= 2 {
                                values.push_str(&text);
                                ends.push(values.len());
                            }
                        }
                        values.shrink_to_fit();
                        LexColumn { name: LexName::new(&c.display), values, ends }
                    })
                    .collect()
            })
            .collect();
        Lexicon { tables, columns }
    }

    /// One column's entry.
    pub fn column(&self, id: ColumnId) -> &LexColumn {
        &self.columns[id.table][id.column]
    }
}

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013B;

/// Minimal FNV-1a-128 accumulator. Implements `fmt::Write` so `Debug` renderings
/// feed the hash without building intermediate strings.
struct Fnv128(u128);

impl Fnv128 {
    #[inline]
    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u128).wrapping_mul(FNV128_PRIME);
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }
}

impl std::fmt::Write for Fnv128 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlkit::{Column, ColumnType, Table};

    fn db() -> Database {
        let mut schema = Schema::new("d");
        schema.tables.push(Table {
            name: "t".into(),
            display: "t".into(),
            columns: vec![Column::new("a", ColumnType::Int), Column::new("b", ColumnType::Text)],
            primary_key: Some(0),
        });
        Database::empty(schema)
    }

    #[test]
    fn insert_and_count() {
        let mut d = db();
        assert!(d.insert_by_name("T", vec![Value::Int(1), Value::Text("x".into())]));
        assert!(!d.insert_by_name("missing", vec![]));
        assert_eq!(d.row_count(0), 1);
        assert_eq!(d.total_rows(), 1);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut d = db();
        d.insert(0, vec![Value::Int(1)]);
    }

    #[test]
    fn fingerprint_is_content_addressed() {
        let a = db();
        let mut b = db();
        assert_eq!(a.fingerprint(), b.fingerprint(), "identical content, identical print");
        b.insert(0, vec![Value::Int(1), Value::Text("x".into())]);
        assert_ne!(a.fingerprint(), b.fingerprint(), "rows change the print");
        let c = db().with_dialect(crate::Dialect::mysql());
        assert_ne!(a.fingerprint(), c.fingerprint(), "dialect changes the print");
        // Type tags keep Int(1) and Text("1") apart even at equal display width.
        let mut d = db();
        d.insert(0, vec![Value::Int(1), Value::Text("1".into())]);
        let mut e = db();
        e.insert(0, vec![Value::Int(1), Value::Text("1".into())]);
        assert_eq!(d.fingerprint(), e.fingerprint());
    }

    #[test]
    fn fingerprint_memo_invalidates_on_mutation() {
        let mut d = db();
        let fp0 = d.fingerprint();
        assert_eq!(d.fingerprint(), fp0, "memoized read is stable");
        d.insert(0, vec![Value::Int(7), Value::Text("x".into())]);
        let fp1 = d.fingerprint();
        assert_ne!(fp0, fp1, "insert invalidates the memo");
        // A clone carries the memo but stays correct: content is identical.
        let c = d.clone();
        assert_eq!(c.fingerprint(), fp1);
        // Direct pub-field writers must invalidate explicitly.
        let mut e = d.clone();
        e.rows[0].clear();
        e.invalidate_fingerprint();
        assert_eq!(e.fingerprint(), fp0);
    }

    #[test]
    fn sample_values_dedupes_and_skips_null() {
        let mut d = db();
        for v in [1, 1, 2, 3, 3, 4] {
            d.insert(0, vec![Value::Int(v), Value::Null]);
        }
        assert_eq!(d.sample_values(0, 0, 3), vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert!(d.sample_values(0, 1, 3).is_empty());
    }

    #[test]
    fn lexicon_lowercases_samples_and_follows_mutation() {
        let mut d = db();
        d.schema.tables[0].display = "Tv Channel".into();
        for (a, b) in [(1, "Alpha"), (22, "Alpha"), (1, "b"), (333, "Gamma  Ray")] {
            d.insert(0, vec![Value::Int(a), Value::Text(b.into())]);
        }
        let lex = d.lexicon();
        assert_eq!(
            lex.tables,
            [LexName { lower: "tv channel".into(), words: vec!["tv".into(), "channel".into()] }]
        );
        fn values(lex: &Lexicon, column: usize) -> Vec<&str> {
            lex.column(ColumnId { table: 0, column }).values().collect()
        }
        // Distinct values in row order, texts shorter than 2 bytes dropped.
        assert_eq!(values(lex, 0), ["22", "333"]);
        assert_eq!(values(lex, 1), ["alpha", "gamma  ray"]);
        d.insert(0, vec![Value::Int(4444), Value::Text("Delta".into())]);
        assert_eq!(
            values(d.lexicon(), 1),
            ["alpha", "gamma  ray", "delta"],
            "insert invalidates the memo"
        );
        d.rows[0].truncate(1);
        d.invalidate_fingerprint();
        assert_eq!(values(d.lexicon(), 1), ["alpha"]);
    }
}
