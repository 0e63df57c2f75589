//! Relational schema model shared by the parser, engine, generator and pipeline.
//!
//! The paper (§IV-A1) denotes a database as `D = <T, C, P, F>`: tables, columns,
//! primary keys and foreign-primary key pairs. This module is the Rust embodiment
//! of that tuple, plus the column typing the execution engine needs.

use std::fmt;

/// Logical column type. The engine follows SQLite's storage-class spirit:
/// values of any type can be compared, but arithmetic requires numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 text.
    Text,
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnType::Int => write!(f, "int"),
            ColumnType::Float => write!(f, "real"),
            ColumnType::Text => write!(f, "text"),
        }
    }
}

/// A column definition inside a [`Table`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Identifier as it appears in SQL (snake_case, case-insensitive match).
    pub name: String,
    /// Human-readable phrase used by NL rendering ("customer id" for `customer_id`).
    pub display: String,
    /// Value type.
    pub ty: ColumnType,
}

impl Column {
    /// Convenience constructor deriving the display phrase from the identifier.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        let name = name.into();
        let display = name.replace('_', " ");
        Column { name, display, ty }
    }
}

/// A table definition inside a [`Schema`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Identifier as it appears in SQL.
    pub name: String,
    /// Human-readable phrase used by NL rendering.
    pub display: String,
    /// Ordered column list.
    pub columns: Vec<Column>,
    /// Index into `columns` of the primary key, if any.
    pub primary_key: Option<usize>,
}

impl Table {
    /// Look up a column index by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Look up a column by case-insensitive name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.column_index(name).map(|i| &self.columns[i])
    }
}

/// A fully-qualified column position: table index and column index within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnId {
    /// Index of the table in [`Schema::tables`].
    pub table: usize,
    /// Index of the column in [`Table::columns`].
    pub column: usize,
}

/// A foreign-key edge: `from` references `to` (which is a primary key in the paper's
/// formulation; we keep the general form).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ForeignKey {
    /// Referencing column.
    pub from: ColumnId,
    /// Referenced column.
    pub to: ColumnId,
}

/// A database schema: the `D = <T, C, P, F>` of the paper.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    /// Database identifier (Spider's `db_id`).
    pub db_id: String,
    /// Tables with their columns and primary keys.
    pub tables: Vec<Table>,
    /// Foreign-key edges between tables.
    pub foreign_keys: Vec<ForeignKey>,
}

impl Schema {
    /// Create an empty schema with the given id.
    pub fn new(db_id: impl Into<String>) -> Self {
        Schema { db_id: db_id.into(), tables: Vec::new(), foreign_keys: Vec::new() }
    }

    /// Look up a table index by case-insensitive name.
    pub fn table_index(&self, name: &str) -> Option<usize> {
        self.tables.iter().position(|t| t.name.eq_ignore_ascii_case(name))
    }

    /// Look up a table by case-insensitive name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.table_index(name).map(|i| &self.tables[i])
    }

    /// Resolve a `table.column` pair by name.
    pub fn column_id(&self, table: &str, column: &str) -> Option<ColumnId> {
        let t = self.table_index(table)?;
        let c = self.tables[t].column_index(column)?;
        Some(ColumnId { table: t, column: c })
    }

    /// All tables that contain a column with this (case-insensitive) name.
    pub fn tables_with_column(&self, column: &str) -> Vec<usize> {
        self.tables
            .iter()
            .enumerate()
            .filter(|(_, t)| t.column_index(column).is_some())
            .map(|(i, _)| i)
            .collect()
    }

    /// Column definition for an id. Panics on out-of-range ids (they can only be
    /// produced by this schema).
    pub fn column(&self, id: ColumnId) -> &Column {
        &self.tables[id.table].columns[id.column]
    }

    /// Total number of columns across all tables.
    pub fn total_columns(&self) -> usize {
        self.tables.iter().map(|t| t.columns.len()).sum()
    }

    /// Foreign-key edges incident to a table, as `(neighbor_table, fk)` pairs.
    pub fn fk_neighbors(&self, table: usize) -> Vec<(usize, ForeignKey)> {
        let mut out = Vec::new();
        for fk in &self.foreign_keys {
            if fk.from.table == table && fk.to.table != table {
                out.push((fk.to.table, *fk));
            } else if fk.to.table == table && fk.from.table != table {
                out.push((fk.from.table, *fk));
            }
        }
        out
    }

    /// The foreign key connecting two tables (in either direction), if one exists.
    pub fn fk_between(&self, a: usize, b: usize) -> Option<ForeignKey> {
        self.foreign_keys
            .iter()
            .find(|fk| {
                (fk.from.table == a && fk.to.table == b) || (fk.from.table == b && fk.to.table == a)
            })
            .copied()
    }

    /// Render the schema as `CREATE TABLE`-style text for prompts. When `keep` is
    /// `Some`, only listed `(table, columns)` pairs are emitted (the pruned schema of
    /// §IV-A); otherwise the whole schema is emitted.
    pub fn to_prompt_text(&self, keep: Option<&[(usize, Vec<usize>)]>) -> String {
        let mut out = String::new();
        let full: Vec<(usize, Vec<usize>)>;
        let kept: &[(usize, Vec<usize>)] = match keep {
            Some(k) => k,
            None => {
                full = self
                    .tables
                    .iter()
                    .enumerate()
                    .map(|(ti, t)| (ti, (0..t.columns.len()).collect()))
                    .collect();
                &full
            }
        };
        for (ti, cols) in kept {
            let t = &self.tables[*ti];
            out.push_str("create table ");
            out.push_str(&t.name);
            out.push_str(" (");
            for (i, ci) in cols.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let c = &t.columns[*ci];
                out.push_str(&c.name);
                out.push(' ');
                out.push_str(&c.ty.to_string());
                if t.primary_key == Some(*ci) {
                    out.push_str(" primary key");
                }
            }
            out.push_str(")\n");
        }
        for fk in &self.foreign_keys {
            let from_kept = kept
                .iter()
                .any(|(ti, cols)| *ti == fk.from.table && cols.contains(&fk.from.column));
            let to_kept =
                kept.iter().any(|(ti, cols)| *ti == fk.to.table && cols.contains(&fk.to.column));
            if from_kept && to_kept {
                let f = self.column(fk.from);
                let t = self.column(fk.to);
                out.push_str(&format!(
                    "-- {}.{} references {}.{}\n",
                    self.tables[fk.from.table].name, f.name, self.tables[fk.to.table].name, t.name
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
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
        s
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let s = sample();
        assert_eq!(s.table_index("TV_Channel"), Some(0));
        assert_eq!(s.column_id("CARTOON", "Written_By"), Some(ColumnId { table: 1, column: 2 }));
        assert_eq!(s.column_id("cartoon", "nope"), None);
        assert_eq!(s.table_index("missing"), None);
    }

    #[test]
    fn tables_with_column_finds_ambiguity() {
        let s = sample();
        assert_eq!(s.tables_with_column("id"), vec![0, 1]);
        assert_eq!(s.tables_with_column("title"), vec![1]);
    }

    #[test]
    fn fk_neighbors_are_bidirectional() {
        let s = sample();
        assert_eq!(s.fk_neighbors(0).len(), 1);
        assert_eq!(s.fk_neighbors(0)[0].0, 1);
        assert_eq!(s.fk_neighbors(1)[0].0, 0);
        assert!(s.fk_between(0, 1).is_some());
        assert!(s.fk_between(1, 0).is_some());
    }

    #[test]
    fn prompt_text_prunes_and_keeps_fks() {
        let s = sample();
        let all = s.to_prompt_text(None);
        assert!(all.contains("create table tv_channel"));
        assert!(all.contains("references tv_channel.id"));
        let pruned = s.to_prompt_text(Some(&[(1, vec![1, 2])]));
        assert!(pruned.contains("cartoon"));
        assert!(!pruned.contains("tv_channel ("));
        // FK endpoint pruned away, so the FK comment must disappear.
        assert!(!pruned.contains("references"));
    }

    #[test]
    fn total_columns_counts_all() {
        assert_eq!(sample().total_columns(), 7);
    }
}
