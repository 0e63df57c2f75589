//! Skeleton prediction (§IV-B), standing in for the paper's fine-tuned T5-3B.
//!
//! The model is a multinomial naive-Bayes scorer over NL cue features: the
//! candidate space is the set of distinct SQL skeletons observed in training, each
//! with a learned prior and per-cue Bernoulli likelihoods. `predict` returns the
//! top-k candidates with normalized sequence probabilities — the same interface a
//! beam-searched seq2seq provides, including realistically imperfect recall (the
//! property the demonstration-selection robustness experiments of Fig. 12 stress).

use crate::features::tokenize_nl;
use engine::Database;
use spidergen::types::Benchmark;
use sqlkit::Skeleton;
use std::collections::HashMap;

/// Number of binary NL cues.
pub const NUM_CUES: usize = 26;

/// Extract the binary cue vector from a question (schema used for the join cue).
pub fn cues(nl: &str, db: &Database) -> [bool; NUM_CUES] {
    let lower = nl.to_ascii_lowercase();
    let words = tokenize_nl(nl);
    let has = |s: &str| lower.contains(s);
    let table_mentions = db.lexicon().tables.iter().filter(|t| lower.contains(&t.lower)).count();
    [
        has("how many"),                                      // 0 count
        has("different"),                                     // 1 distinct
        has("average"),                                       // 2 avg
        has("total"),                                         // 3 sum
        has("maximum"),                                       // 4 max
        has("minimum"),                                       // 5 min
        has("highest") || has("most"),                        // 6 order desc limit
        has("lowest") || has("fewest"),                       // 7 order asc limit
        has("top "),                                          // 8 top-n
        has("sorted"),                                        // 9 order by
        has("descending"),                                    // 10
        has("ascending"),                                     // 11
        has("at least"),                                      // 12 >=
        has("at most"),                                       // 13 <=
        has("greater") || has("more than") || has("over"),    // 14 >
        has("less than") || has("under"),                     // 15 <
        has("between"),                                       // 16
        has("containing") || has("contains"),                 // 17 LIKE
        has("not ") || has(" no ") || has("have no"),         // 18 negation
        has("both") || has("and also"),                       // 19 intersect
        has("either"),                                        // 20 union
        has("each"),                                          // 21 group by
        has("above the average") || has("below the average"), // 22 scalar sub
        has("that have"),                                     // 23 in-subquery
        words.iter().filter(|w| *w == "and").count() >= 2,    // 24 multi-predicate
        table_mentions >= 2,                                  // 25 join
    ]
}

/// A top-k skeleton prediction with its sequence probability.
#[derive(Debug, Clone, PartialEq)]
pub struct SkeletonPrediction {
    /// Predicted skeleton.
    pub skeleton: Skeleton,
    /// Normalized probability across the returned beam.
    pub probability: f64,
}

/// The trained predictor.
#[derive(Debug, Clone)]
pub struct SkeletonPredictor {
    skeletons: Vec<Skeleton>,
    log_prior: Vec<f64>,
    /// `log_like[s][c]` = (log P(cue_c = 0 | s), log P(cue_c = 1 | s)).
    log_like: Vec<Vec<(f64, f64)>>,
}

impl SkeletonPredictor {
    /// Fit on a training split.
    pub fn train(bench: &Benchmark) -> Self {
        let mut index: HashMap<Skeleton, usize> = HashMap::new();
        let mut counts: Vec<f64> = Vec::new();
        let mut cue_counts: Vec<[f64; NUM_CUES]> = Vec::new();
        for ex in &bench.examples {
            let db = bench.db_of(ex);
            let skel = Skeleton::from_query(&ex.query);
            let c = cues(&ex.nl, db);
            let si = *index.entry(skel.clone()).or_insert_with(|| {
                counts.push(0.0);
                cue_counts.push([0.0; NUM_CUES]);
                counts.len() - 1
            });
            counts[si] += 1.0;
            for (j, v) in c.iter().enumerate() {
                if *v {
                    cue_counts[si][j] += 1.0;
                }
            }
        }
        let total: f64 = counts.iter().sum();
        let n = counts.len();
        let mut skeletons = vec![Skeleton::from_tokens(vec![]); n];
        for (s, i) in index {
            skeletons[i] = s;
        }
        let log_prior = counts.iter().map(|c| ((c + 1.0) / (total + n as f64)).ln()).collect();
        let log_like = counts
            .iter()
            .zip(&cue_counts)
            .map(|(c, cc)| {
                cc.iter()
                    .map(|hits| {
                        let p1: f64 = (hits + 0.5) / (c + 1.0);
                        (((1.0 - p1).max(1e-9)).ln(), p1.max(1e-9).ln())
                    })
                    .collect()
            })
            .collect();
        SkeletonPredictor { skeletons, log_prior, log_like }
    }

    /// Number of distinct candidate skeletons.
    pub fn vocabulary_size(&self) -> usize {
        self.skeletons.len()
    }

    /// Top-k beam with normalized probabilities.
    pub fn predict(&self, nl: &str, db: &Database, k: usize) -> Vec<SkeletonPrediction> {
        let c = cues(nl, db);
        let mut scored: Vec<(usize, f64)> = (0..self.skeletons.len())
            .map(|si| {
                let mut score = self.log_prior[si];
                for (j, v) in c.iter().enumerate() {
                    let (l0, l1) = self.log_like[si][j];
                    score += if *v { l1 } else { l0 };
                }
                (si, score)
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        scored.truncate(k);
        let max = scored.first().map(|(_, s)| *s).unwrap_or(0.0);
        let weights: Vec<f64> = scored.iter().map(|(_, s)| (s - max).exp()).collect();
        let z: f64 = weights.iter().sum();
        scored
            .iter()
            .zip(&weights)
            .map(|((si, _), w)| SkeletonPrediction {
                skeleton: self.skeletons[*si].clone(),
                probability: w / z,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spidergen::{generate_suite, GenConfig};

    #[test]
    fn predictor_has_useful_topk_recall_on_dev() {
        // Recall on one tiny dev split (40 examples) swings with the seed, so
        // the claim pools the dev examples of the tiny seeds 30..60: 1,200
        // examples, top-1 recall 0.383 and top-3 recall 0.548.
        let (mut n, mut top1, mut top3) = (0usize, 0usize, 0usize);
        for seed in 30..60 {
            let suite = generate_suite(&GenConfig::tiny(seed));
            let model = SkeletonPredictor::train(&suite.train);
            assert!(model.vocabulary_size() > 10);
            let mut seed_top3 = 0usize;
            for ex in &suite.dev.examples {
                let db = suite.dev.db_of(ex);
                let gold = Skeleton::from_query(&ex.query);
                let preds = model.predict(&ex.nl, db, 3);
                top1 += usize::from(preds.first().is_some_and(|p| p.skeleton == gold));
                seed_top3 += usize::from(preds.iter().any(|p| p.skeleton == gold));
            }
            assert!(
                seed_top3 < suite.dev.examples.len(),
                "seed {seed}: perfect recall would make the oracle ablation vacuous"
            );
            n += suite.dev.examples.len();
            top3 += seed_top3;
        }
        let t1 = top1 as f64 / n as f64;
        let t3 = top3 as f64 / n as f64;
        assert!(t3 >= t1);
        assert!(t1 > 0.30, "pooled top-1 skeleton recall too low: {t1:.3}");
        assert!(t3 > 0.45, "pooled top-3 skeleton recall too low: {t3:.3}");
    }

    #[test]
    fn probabilities_normalize_and_sort() {
        let suite = generate_suite(&GenConfig::tiny(42));
        let model = SkeletonPredictor::train(&suite.train);
        let ex = &suite.dev.examples[0];
        let preds = model.predict(&ex.nl, suite.dev.db_of(ex), 5);
        assert!(preds.len() <= 5 && !preds.is_empty());
        let sum: f64 = preds.iter().map(|p| p.probability).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        for w in preds.windows(2) {
            assert!(w[0].probability >= w[1].probability);
        }
    }

    #[test]
    fn cue_extraction_spot_checks() {
        let mut db = engine::Database::empty(sqlkit::Schema::new("x"));
        db.schema.tables.push(sqlkit::Table {
            name: "singer".into(),
            display: "singer".into(),
            columns: vec![],
            primary_key: None,
        });
        db.schema.tables.push(sqlkit::Table {
            name: "concert".into(),
            display: "concert".into(),
            columns: vec![],
            primary_key: None,
        });
        let c = cues("How many singer are there whose age is at least 30?", &db);
        assert!(c[0], "how many");
        assert!(c[12], "at least");
        let c = cues("Which singer performed in both a concert and ...", &db);
        assert!(c[19], "both");
        assert!(c[25], "two table mentions");
    }
}
