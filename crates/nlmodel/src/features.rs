//! Lexical feature extraction shared by the schema classifier and the skeleton
//! predictor. Features are computed from the NL question surface plus schema
//! display names and (for columns) sampled cell values — the same signal families
//! RESDSQL's cross-encoder consumes.
//!
//! The schema side of every feature comes from the database's
//! [`engine::Lexicon`], which lowercases and splits each display name and
//! samples each column's values once per database; only the question is
//! processed per call.

use engine::{Database, LexName};
use sqlkit::ColumnId;

/// Lower-cased word tokens of an NL question.
pub fn tokenize_nl(nl: &str) -> Vec<String> {
    nl.to_ascii_lowercase()
        .chars()
        .map(|c| if c.is_alphanumeric() || c == '.' { c } else { ' ' })
        .collect::<String>()
        .split_whitespace()
        .map(str::to_string)
        .collect()
}

/// Number of features produced by [`item_features`].
pub const ITEM_FEATURES: usize = 7;

/// Features of one schema item (table or column) against a question.
///
/// 0. exact phrase match (display phrase is a substring of the question)
/// 1. fraction of the item's words appearing in the question
/// 2. any-word match
/// 3. value match (a sampled cell value appears in the question; 0 for tables)
/// 4. primary-key flag
/// 5. item word count (normalized) — longer compounds match more reliably
/// 6. bias
///
/// `name` is the item's entry in its database's [`engine::Lexicon`].
pub fn item_features(
    nl_lower: &str,
    nl_words: &[String],
    name: &LexName,
    is_pk: bool,
    value_match: bool,
) -> [f64; ITEM_FEATURES] {
    ItemMatch::of(nl_lower, nl_words, name, is_pk, value_match).features()
}

/// How one schema item matches a question: everything [`item_features`]
/// depends on, in a few bytes, so a trainer can keep one per item and expand
/// it at every step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ItemMatch {
    /// Words of the item's name that occur among the question's words.
    hit: u32,
    /// Words in the item's name.
    words: u32,
    exact: bool,
    value_match: bool,
    is_pk: bool,
}

impl ItemMatch {
    /// Match one item (see [`item_features`]).
    pub(crate) fn of(
        nl_lower: &str,
        nl_words: &[String],
        name: &LexName,
        is_pk: bool,
        value_match: bool,
    ) -> Self {
        let hit = name.words.iter().filter(|w| nl_words.iter().any(|n| n == *w)).count();
        let count = |n: usize| u32::try_from(n).expect("display names are shorter than 2^32 words");
        ItemMatch {
            hit: count(hit),
            words: count(name.words.len()),
            exact: nl_lower.contains(&name.lower),
            value_match,
            is_pk,
        }
    }

    /// The feature row [`item_features`] returns for this match.
    pub(crate) fn features(self) -> [f64; ITEM_FEATURES] {
        let frac = if self.words == 0 { 0.0 } else { self.hit as f64 / self.words as f64 };
        [
            self.exact as u8 as f64,
            frac,
            (self.hit > 0) as u8 as f64,
            self.value_match as u8 as f64,
            self.is_pk as u8 as f64,
            (self.words as f64).min(3.0) / 3.0,
            1.0,
        ]
    }
}

/// Does any sampled value of this column appear verbatim in the question?
/// Reads the column's sample texts from the database's [`engine::Lexicon`].
pub fn column_value_match(nl_lower: &str, db: &Database, col: ColumnId) -> bool {
    db.lexicon().column(col).values().any(|v| nl_lower.contains(v))
}

/// The per-call feature extraction the lexicon replaced, kept verbatim as the
/// oracle for [`item_features`] and [`column_value_match`] and for the trainer
/// that matches every epoch.
#[cfg(test)]
pub(crate) mod per_call {
    use engine::Database;
    use sqlkit::ColumnId;

    pub fn item_features(
        nl_lower: &str,
        nl_words: &[String],
        display: &str,
        is_pk: bool,
        value_match: bool,
    ) -> [f64; super::ITEM_FEATURES] {
        let display_lower = display.to_ascii_lowercase();
        let words: Vec<&str> = display_lower.split_whitespace().collect();
        let exact = nl_lower.contains(&display_lower);
        let mut hit = 0usize;
        for w in &words {
            if nl_words.iter().any(|n| n == w) {
                hit += 1;
            }
        }
        let frac = if words.is_empty() { 0.0 } else { hit as f64 / words.len() as f64 };
        [
            exact as u8 as f64,
            frac,
            (hit > 0) as u8 as f64,
            value_match as u8 as f64,
            is_pk as u8 as f64,
            (words.len() as f64).min(3.0) / 3.0,
            1.0,
        ]
    }

    pub fn column_value_match(nl_lower: &str, db: &Database, col: ColumnId) -> bool {
        for v in db.sample_values(col.table, col.column, 24) {
            let s = v.to_string().to_ascii_lowercase();
            if s.len() >= 2 && nl_lower.contains(&s) {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spidergen::{generate_suite, GenConfig};

    #[test]
    fn tokenizer_lowercases_and_splits() {
        assert_eq!(
            tokenize_nl("What are the Countries, whose id=3?"),
            vec!["what", "are", "the", "countries", "whose", "id", "3"]
        );
    }

    #[test]
    fn exact_and_partial_matches() {
        let nl = "what is the series name of the tv channel?";
        let words = tokenize_nl(nl);
        let f = item_features(nl, &words, &LexName::new("series name"), false, false);
        assert_eq!(f[0], 1.0);
        assert_eq!(f[1], 1.0);
        let f = item_features(nl, &words, &LexName::new("series rating"), false, false);
        assert_eq!(f[0], 0.0);
        assert_eq!(f[1], 0.5);
        let f = item_features(nl, &words, &LexName::new("budget"), false, false);
        assert_eq!(f[2], 0.0);
    }

    #[test]
    fn bias_is_always_one() {
        let f = item_features("", &[], &LexName::new("x"), true, true);
        assert_eq!(f[ITEM_FEATURES - 1], 1.0);
        assert_eq!(f[4], 1.0);
        assert_eq!(f[3], 1.0);
    }

    /// Every example × table and example × column of a tiny suite, on every
    /// split: the lexicon's features equal the per-call extraction's to the bit.
    #[test]
    fn lexicon_features_match_per_call_extraction() {
        let suite = generate_suite(&GenConfig::tiny(31));
        let (mut tables, mut columns, mut value_hits) = (0, 0, 0);
        for bench in [&suite.train, &suite.dev] {
            for ex in &bench.examples {
                let db = bench.db_of(ex);
                let nl_lower = ex.nl.to_ascii_lowercase();
                let words = tokenize_nl(&ex.nl);
                let lexicon = db.lexicon();
                for (ti, t) in db.schema.tables.iter().enumerate() {
                    let got = item_features(&nl_lower, &words, &lexicon.tables[ti], false, false);
                    let want = per_call::item_features(&nl_lower, &words, &t.display, false, false);
                    assert_eq!(
                        got.map(f64::to_bits),
                        want.map(f64::to_bits),
                        "{}: {}",
                        ex.nl,
                        t.display
                    );
                    tables += 1;
                    for (ci, c) in t.columns.iter().enumerate() {
                        let id = ColumnId { table: ti, column: ci };
                        let value_match = column_value_match(&nl_lower, db, id);
                        assert_eq!(
                            value_match,
                            per_call::column_value_match(&nl_lower, db, id),
                            "{}: {}",
                            ex.nl,
                            c.display
                        );
                        let is_pk = t.primary_key == Some(ci);
                        let got = item_features(
                            &nl_lower,
                            &words,
                            &lexicon.column(id).name,
                            is_pk,
                            value_match,
                        );
                        let want = per_call::item_features(
                            &nl_lower,
                            &words,
                            &c.display,
                            is_pk,
                            value_match,
                        );
                        assert_eq!(
                            got.map(f64::to_bits),
                            want.map(f64::to_bits),
                            "{}: {}",
                            ex.nl,
                            c.display
                        );
                        columns += 1;
                        value_hits += usize::from(value_match);
                    }
                }
            }
        }
        assert!(tables > 100 && columns > 500 && value_hits > 0, "{tables} {columns} {value_hits}");
    }
}
