//! The table-column relevance classifier (§IV-A1), standing in for RESDSQL's
//! cross-encoder: a logistic model over lexical features, trained with **focal
//! loss** (Lin et al., ICCV 2017) by SGD on the training split, exactly as the
//! paper prescribes ("Training adopts focal loss in line with RESDSQL").

use crate::features::{column_value_match, item_features, tokenize_nl, ItemMatch, ITEM_FEATURES};
use crate::labels::used_items;
use engine::Database;
use rand::prelude::*;
use rand::rngs::StdRng;
use spidergen::types::Benchmark;
use sqlkit::ColumnId;

/// Focal-loss hyper-parameters and SGD schedule.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Focal-loss alpha (positive-class weight).
    pub alpha: f64,
    /// Focal-loss gamma (down-weighting of easy examples).
    pub gamma: f64,
    /// Learning rate.
    pub lr: f64,
    /// Epochs over the training split.
    pub epochs: usize,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { alpha: 0.75, gamma: 2.0, lr: 0.15, epochs: 4, seed: 17 }
    }
}

/// Trained classifier: separate weight vectors for tables and columns.
#[derive(Debug, Clone)]
pub struct SchemaClassifier {
    w_table: [f64; ITEM_FEATURES],
    w_col: [f64; ITEM_FEATURES],
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Gradient of the focal loss wrt the logit `z`, for label `y`.
///
/// For y=1: L = -alpha (1-p)^gamma log(p)
/// For y=0: L = -(1-alpha) p^gamma log(1-p)
fn focal_grad(p: f64, y: bool, alpha: f64, gamma: f64) -> f64 {
    let p = p.clamp(1e-7, 1.0 - 1e-7);
    if y {
        // dL/dz = alpha (1-p)^gamma (gamma p ln p + p - 1), via dp/dz = p(1-p).
        alpha * (1.0 - p).powf(gamma) * (gamma * p * p.ln() + p - 1.0)
    } else {
        // dL/dz = (1-alpha) p^gamma (p - gamma (1-p) ln(1-p)).
        (1.0 - alpha) * p.powf(gamma) * (p - gamma * (1.0 - p) * (1.0 - p).ln())
    }
}

/// Numerically exact focal-loss value (used by the gradient check test).
#[cfg_attr(not(test), allow(dead_code))]
fn focal_loss(p: f64, y: bool, alpha: f64, gamma: f64) -> f64 {
    let p = p.clamp(1e-7, 1.0 - 1e-7);
    if y {
        -alpha * (1.0 - p).powf(gamma) * p.ln()
    } else {
        -(1.0 - alpha) * p.powf(gamma) * (1.0 - p).ln()
    }
}

impl SchemaClassifier {
    /// Train on a benchmark's examples (gold labels extracted from the SQL).
    ///
    /// The features do not depend on the weights, so every example's items are
    /// matched once, before the first epoch, and each SGD step expands its
    /// stored match into a feature row. The steps run in the same order as matching inside the
    /// epoch loop would, so the weights are the same to the bit.
    pub fn train(bench: &Benchmark, cfg: TrainConfig) -> Self {
        // `focal_grad` raises to `cfg.gamma` with `powf`. Were `gamma` a
        // constant the optimizer could see (the default 2.0), it could turn
        // `powf(p, 2.0)` into `p * p`, which rounds differently in the last
        // bit; an opaque config keeps the weights independent of inlining.
        let cfg = std::hint::black_box(cfg);
        let steps = TrainingSteps::extract(bench);
        let mut w_table = [0.0; ITEM_FEATURES];
        let mut w_col = [0.0; ITEM_FEATURES];
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..bench.examples.len()).collect();
        for epoch in 0..cfg.epochs {
            order.shuffle(&mut rng);
            let lr = cfg.lr / (1.0 + epoch as f64);
            for &i in &order {
                for step in steps.of(i) {
                    let w = if step.table { &mut w_table } else { &mut w_col };
                    sgd_step(w, &step.item.features(), step.label, lr, cfg);
                }
            }
        }
        SchemaClassifier { w_table, w_col }
    }

    /// The raw weight vectors (tables, columns).
    pub fn weights(&self) -> (&[f64; ITEM_FEATURES], &[f64; ITEM_FEATURES]) {
        (&self.w_table, &self.w_col)
    }

    fn score(&self, w: &[f64; ITEM_FEATURES], x: &[f64; ITEM_FEATURES]) -> f64 {
        sigmoid(w.iter().zip(x.iter()).map(|(a, b)| a * b).sum())
    }

    /// Relevance probability for each table.
    pub fn score_tables(&self, nl: &str, db: &Database) -> Vec<f64> {
        let nl_lower = nl.to_ascii_lowercase();
        let words = tokenize_nl(nl);
        (db.lexicon().tables.iter())
            .map(|name| {
                self.score(&self.w_table, &item_features(&nl_lower, &words, name, false, false))
            })
            .collect()
    }

    /// Relevance probability for each column of each table.
    pub fn score_columns(&self, nl: &str, db: &Database) -> Vec<Vec<f64>> {
        let nl_lower = nl.to_ascii_lowercase();
        let words = tokenize_nl(nl);
        let lexicon = db.lexicon();
        (db.schema.tables.iter().enumerate())
            .map(|(ti, t)| {
                (0..t.columns.len())
                    .map(|ci| {
                        let id = ColumnId { table: ti, column: ci };
                        let x = item_features(
                            &nl_lower,
                            &words,
                            &lexicon.column(id).name,
                            t.primary_key == Some(ci),
                            column_value_match(&nl_lower, db, id),
                        );
                        self.score(&self.w_col, &x)
                    })
                    .collect()
            })
            .collect()
    }
}

/// One SGD step's input.
#[derive(Debug, Clone, Copy)]
struct Step {
    item: ItemMatch,
    /// A table (else a column) step: which weight vector it updates.
    table: bool,
    /// The item is used by the gold SQL.
    label: bool,
}

/// Every example's steps, matched once: the tables of the example's
/// database in schema order, each followed by its columns.
struct TrainingSteps {
    steps: Vec<Step>,
    /// Example `i`'s steps are `steps[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
}

impl TrainingSteps {
    fn extract(bench: &Benchmark) -> Self {
        let mut steps = Vec::new();
        let mut starts = vec![0];
        for ex in &bench.examples {
            let db = bench.db_of(ex);
            let lexicon = db.lexicon();
            let used = used_items(&ex.query, &db.schema);
            let nl_lower = ex.nl.to_ascii_lowercase();
            let words = tokenize_nl(&ex.nl);
            for (ti, t) in db.schema.tables.iter().enumerate() {
                let item = ItemMatch::of(&nl_lower, &words, &lexicon.tables[ti], false, false);
                steps.push(Step { item, table: true, label: used.tables.contains(&ti) });
                for ci in 0..t.columns.len() {
                    let id = ColumnId { table: ti, column: ci };
                    let item = ItemMatch::of(
                        &nl_lower,
                        &words,
                        &lexicon.column(id).name,
                        t.primary_key == Some(ci),
                        column_value_match(&nl_lower, db, id),
                    );
                    steps.push(Step { item, table: false, label: used.columns.contains(&id) });
                }
            }
            starts.push(steps.len());
        }
        TrainingSteps { steps, starts }
    }

    /// Example `i`'s steps, in order.
    fn of(&self, i: usize) -> &[Step] {
        &self.steps[self.starts[i]..self.starts[i + 1]]
    }
}

fn sgd_step(
    w: &mut [f64; ITEM_FEATURES],
    x: &[f64; ITEM_FEATURES],
    y: bool,
    lr: f64,
    cfg: TrainConfig,
) {
    let z: f64 = w.iter().zip(x.iter()).map(|(a, b)| a * b).sum();
    let p = sigmoid(z);
    let g = focal_grad(p, y, cfg.alpha, cfg.gamma);
    for (wi, xi) in w.iter_mut().zip(x.iter()) {
        *wi -= lr * g * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::per_call;
    use spidergen::{generate_suite, GenConfig};

    /// The trainer before extraction moved ahead of the epoch loop: it
    /// matches every item again in every epoch, through the per-call features.
    fn train_per_epoch(bench: &Benchmark, cfg: TrainConfig) -> SchemaClassifier {
        let mut w_table = [0.0; ITEM_FEATURES];
        let mut w_col = [0.0; ITEM_FEATURES];
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..bench.examples.len()).collect();
        for epoch in 0..cfg.epochs {
            order.shuffle(&mut rng);
            let lr = cfg.lr / (1.0 + epoch as f64);
            for &i in &order {
                let ex = &bench.examples[i];
                let db = bench.db_of(ex);
                let used = used_items(&ex.query, &db.schema);
                let nl_lower = ex.nl.to_ascii_lowercase();
                let words = tokenize_nl(&ex.nl);
                for (ti, t) in db.schema.tables.iter().enumerate() {
                    let x = per_call::item_features(&nl_lower, &words, &t.display, false, false);
                    let y = used.tables.contains(&ti);
                    sgd_step(&mut w_table, &x, y, lr, cfg);
                    for (ci, c) in t.columns.iter().enumerate() {
                        let id = ColumnId { table: ti, column: ci };
                        let x = per_call::item_features(
                            &nl_lower,
                            &words,
                            &c.display,
                            db.schema.tables[ti].primary_key == Some(ci),
                            per_call::column_value_match(&nl_lower, db, id),
                        );
                        let y = used.columns.contains(&id);
                        sgd_step(&mut w_col, &x, y, lr, cfg);
                    }
                }
            }
        }
        SchemaClassifier { w_table, w_col }
    }

    /// The weights' bits, tables then columns.
    fn bits(clf: &SchemaClassifier) -> [[u64; ITEM_FEATURES]; 2] {
        let (t, c) = clf.weights();
        [t.map(f64::to_bits), c.map(f64::to_bits)]
    }

    #[test]
    fn trained_weights_are_bit_identical_to_per_epoch_matching() {
        // Recorded from the trainer that matched every item in every epoch.
        #[rustfmt::skip]
        const RECORDED: [(u64, [[u64; ITEM_FEATURES]; 2]); 2] = [
            (31, [
                [4607387212622342946, 4607127764055211717, 4606663521665754944, 0, 0, 13824131836287866436, 13830438183561382951],
                [4605132055296345398, 4605670872228743905, 4604221350012966529, 4598869310082519376, 4603259029855369314, 13823212330749811953, 13830783616722587323],
            ]),
            (32, [
                [4607286758017037374, 4606932168230605003, 4606473239227152677, 0, 0, 13824116058611256739, 13830425097748376827],
                [4602663063052842446, 4605684235710841448, 4604624092758516915, 4600177054937972666, 4603043610418518497, 13823482716436848672, 13829172124504200168],
            ]),
        ];
        for (seed, recorded) in RECORDED {
            let suite = generate_suite(&GenConfig::tiny(seed));
            let trained = bits(&SchemaClassifier::train(&suite.train, TrainConfig::default()));
            assert_eq!(trained, recorded, "seed {seed}: against the recorded weights");
            // Through `black_box`, as `train` takes it: with a visible `gamma`
            // the optimizer may rewrite this copy's `powf` (see `train`).
            let cfg = std::hint::black_box(TrainConfig::default());
            let per_epoch = bits(&train_per_epoch(&suite.train, cfg));
            assert_eq!(trained, per_epoch, "seed {seed}: against the per-epoch trainer");
        }
    }

    #[test]
    fn focal_gradient_matches_numerical_derivative_for_positives() {
        // Check d(focal)/dz against central differences through p = sigmoid(z).
        for &z in &[-2.0, -0.5, 0.0, 0.7, 2.3] {
            {
                let &y = &true;
                let h = 1e-6;
                let l1 = focal_loss(sigmoid(z + h), y, 0.75, 2.0);
                let l0 = focal_loss(sigmoid(z - h), y, 0.75, 2.0);
                let numeric = (l1 - l0) / (2.0 * h);
                let analytic = focal_grad(sigmoid(z), y, 0.75, 2.0);
                assert!(
                    (numeric - analytic).abs() < 1e-4,
                    "z={z} y={y}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn focal_gradient_matches_numerical_derivative_for_negatives() {
        for &z in &[-2.0, -0.5, 0.0, 0.7, 2.3] {
            let h = 1e-6;
            let l1 = focal_loss(sigmoid(z + h), false, 0.75, 2.0);
            let l0 = focal_loss(sigmoid(z - h), false, 0.75, 2.0);
            let numeric = (l1 - l0) / (2.0 * h);
            let analytic = focal_grad(sigmoid(z), false, 0.75, 2.0);
            assert!(
                (numeric - analytic).abs() < 1e-4,
                "z={z}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn trained_classifier_beats_chance_on_held_out_data() {
        let suite = generate_suite(&GenConfig::tiny(31));
        let clf = SchemaClassifier::train(&suite.train, TrainConfig::default());
        // Evaluate table recall/precision at tau = 0.5 on dev (unseen domains).
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut fns = 0usize;
        for ex in &suite.dev.examples {
            let db = suite.dev.db_of(ex);
            let used = crate::labels::used_items(&ex.query, &db.schema);
            let scores = clf.score_tables(&ex.nl, db);
            for (ti, s) in scores.iter().enumerate() {
                let pred = *s > 0.5;
                let gold = used.tables.contains(&ti);
                match (pred, gold) {
                    (true, true) => tp += 1,
                    (true, false) => fp += 1,
                    (false, true) => fns += 1,
                    _ => {}
                }
            }
        }
        let recall = tp as f64 / (tp + fns).max(1) as f64;
        let precision = tp as f64 / (tp + fp).max(1) as f64;
        assert!(recall > 0.6, "table recall too low: {recall:.2} (tp={tp} fn={fns})");
        assert!(precision > 0.4, "table precision too low: {precision:.2}");
    }

    #[test]
    fn classifier_scores_are_probabilities() {
        let suite = generate_suite(&GenConfig::tiny(32));
        let clf = SchemaClassifier::train(&suite.train, TrainConfig::default());
        let ex = &suite.dev.examples[0];
        let db = suite.dev.db_of(ex);
        for s in clf.score_tables(&ex.nl, db) {
            assert!((0.0..=1.0).contains(&s));
        }
        for col_scores in clf.score_columns(&ex.nl, db) {
            for s in col_scores {
                assert!((0.0..=1.0).contains(&s));
            }
        }
    }
}
