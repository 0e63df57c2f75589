//! # nlmodel
//!
//! The trainable model substrates standing in for the paper's fine-tuned PLMs:
//!
//! * [`SchemaClassifier`] — the table-column relevance classifier of §IV-A1
//!   (RESDSQL-style, focal loss).
//! * [`SkeletonPredictor`] — the skeleton generator of §IV-B (T5-3B stand-in) with
//!   top-k beam output and sequence probabilities.
//! * Label extraction ([`labels::used_items`]) and shared lexical features.
//!
//! Both models match a question against a database's [`engine::Lexicon`]:
//! every table and column display name lowercased and split into words, and
//! the lowercased texts (2 bytes or longer) of each column's first 24 distinct
//! values. A database builds its lexicon on first use and keeps it until it is
//! mutated, so scoring a question lowercases and tokenizes only the question,
//! and [`SchemaClassifier::train`] matches each training item once rather than
//! once per epoch.

#![warn(missing_docs)]

pub mod classifier;
pub mod features;
pub mod labels;
pub mod metrics;
pub mod skeleton_model;

pub use classifier::{SchemaClassifier, TrainConfig};
pub use labels::{used_items, UsedItems};
pub use metrics::{classifier_report, skeleton_topk_recall, ClassifierReport, Prf};
pub use skeleton_model::{cues, SkeletonPrediction, SkeletonPredictor, NUM_CUES};
