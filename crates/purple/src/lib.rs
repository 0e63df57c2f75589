//! # purple
//!
//! The paper's primary contribution: **PURPLE** — Pre-trained models Utilized to
//! Retrieve Prompts for Logical Enhancement (ICDE 2024). Four modules compose the
//! pipeline of Fig. 3:
//!
//! 1. [`pruning`] — Schema Pruning: classifier thresholding + an exact Steiner-tree
//!    connectivity pass with a redundant boundary (§IV-A).
//! 2. Skeleton Prediction — the trained top-k predictor from [`nlmodel`] (§IV-B).
//! 3. [`automaton`] + [`selection`] — the four-level skeleton automaton and the
//!    Algorithm-1 demonstration selection (§IV-C).
//! 4. [`adaption`] — the six hallucination fixers and execution-consistency vote
//!    (§IV-D).
//!
//! [`Purple`] wires them into an [`eval::Translator`].

#![warn(missing_docs)]

pub mod adaption;
pub mod automaton;
pub mod generation;
pub mod pipeline;
pub mod pruning;
pub mod selection;

pub use adaption::{
    adapt_sql, consistency_vote, raw_vote, record_adaption, write_vote, AdaptResult, VoteOutcome,
    MAX_ATTEMPTS,
};
pub use automaton::{Automaton, AutomatonSet};
pub use generation::{synthesize_demonstration, DemoMode};
pub use pipeline::{Purple, PurpleConfig, RunOutcome, TranslationTrace};
pub use pruning::{
    steiner_tree, steiner_tree_approx, steiner_tree_auto, PruneConfig, PrunedSchema, SchemaPruner,
    EXACT_STEINER_MAX_TERMINALS,
};
pub use selection::{random_fill, select_demonstrations, Growth, SelectionConfig};
