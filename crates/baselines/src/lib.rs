//! # baselines
//!
//! Every comparison system of the paper's evaluation (§V-A3): the LLM-based
//! strategies (ChatGPT-SQL, C3, zero-shot, few-shot, DIN-SQL, DAIL-SQL) and the
//! PLM-based family (PICARD, RASAT, RESDSQL, Graphix-T5 analogs), all implementing
//! [`eval::Translator`] over the same simulated LLM / trained predictor substrates
//! so the comparisons isolate strategy.

#![warn(missing_docs)]

pub mod common;
pub mod llm_baselines;
pub mod plm;

pub use common::fixed_demo_indices;
pub use llm_baselines::{LlmBaseline, SharedModels, Strategy};
pub use plm::{PlmConfig, PlmTranslator, ALL_PLM, GRAPHIX, PICARD, RASAT, RESDSQL};
