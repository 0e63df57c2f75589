//! # purple-engine
//!
//! An in-memory relational engine executing the [`sqlkit`] AST with SQLite-flavored
//! semantics. It is the SQLite stand-in of the PURPLE reproduction: the Execution
//! Match / Test-Suite metrics, the execution-consistency vote, and the Database
//! Adaption fixers all run against this engine.
//!
//! Dialect notes (deliberately mirroring SQLite where the paper depends on it):
//!
//! * `NULL < numbers < text` collation order; integer division truncates.
//! * No non-aggregate SQL functions — `CONCAT(...)` fails with
//!   [`ExecError::UnknownFunction`], exactly the Function-Hallucination of Table 2.
//! * Aggregates take a single argument — `COUNT(DISTINCT a, b)` fails with
//!   [`ExecError::AggregateArity`] (Aggregation-Hallucination).
//! * Name-resolution failures are typed per the paper's remaining categories:
//!   [`ExecError::TableColumnMismatch`], [`ExecError::AmbiguousColumn`],
//!   [`ExecError::MissingTable`], [`ExecError::UnknownColumn`]/[`ExecError::UnknownTable`].
//!
//! One engine executes every prepared [`Plan`]: the vectorized columnar
//! pipeline ([`batch`]), reached through [`execute`]/[`run`] (ad-hoc column
//! tables) or an [`ExecSession`] (cached ones). Every write goes through
//! [`apply_write`]. The row-at-a-time interpreter survives only as the
//! differential-test oracle in the hidden `reference` module; it shares every
//! scalar/aggregate/predicate primitive with the engine, so only the join,
//! filter and grouping drivers are compared (DESIGN.md §12).

#![warn(missing_docs)]

pub mod batch;
pub mod database;
pub mod dialect;
pub mod error;
pub mod exec;
#[doc(hidden)]
pub mod reference;
pub mod session;
pub mod value;

pub use batch::ColumnTable;
pub use database::{Database, LexColumn, LexName, Lexicon, Row};
pub use dialect::{map_function, Dialect, ScalarFunc};
pub use error::ExecError;
pub use exec::{
    apply_write, execute, execute_write, explain, order_matters, prepare, prepare_statement,
    prepare_write, run, Plan, ResultSet, StatementPlan, WriteOutcome, WritePlan,
};
pub use session::{
    ExecSession, SessionConfig, SessionDb, StatementOutcome, DEFAULT_CACHE_CAPACITY,
};
pub use value::{Value, ValueRef};
