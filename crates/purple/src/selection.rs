//! Demonstration selection — Algorithm 1 of the paper.
//!
//! The preferential matching sequence `I` has one cell per (abstraction level,
//! predicted skeleton), in row-major order: level-1 cells for the k predictions,
//! then level-2, etc. A cell holds the demonstration indices whose automaton state
//! sequence matches that prediction at that level. Selection proceeds in rounds:
//! round `r` pops one demonstration from each of the first `p_r` non-exhausted
//! cells (skipping duplicates), with `p` grown by the Increase-Generalization
//! schedule, until every cell is exhausted. The caller fills any remaining prompt
//! budget with random demonstrations (§IV-C3).

use crate::automaton::AutomatonSet;
use nlmodel::SkeletonPrediction;
use rand::prelude::*;
use rand::rngs::StdRng;
use sqlkit::Level;

/// The Increase-Generalization schedule for `p` (Fig. 12-left variants).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Growth {
    /// `p += i` per round (the paper's default is Linear-1).
    Linear(usize),
    /// `p *= b` per round (Exp-2 in Fig. 12).
    Exp(usize),
}

impl Growth {
    fn next(&self, p: usize) -> usize {
        match self {
            Growth::Linear(i) => p + i.max(&1),
            Growth::Exp(b) => (p * b.max(&2)).max(p + 1),
        }
    }
}

/// Selection hyper-parameters, including the Fig. 12 noise knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectionConfig {
    /// Initial `p` (the paper sets 1).
    pub p0: usize,
    /// Increase-Generalization schedule.
    pub growth: Growth,
    /// Ignore the first `masking_number` abstraction levels (Fig. 12-right noise:
    /// `masking number = x`).
    pub masking_number: usize,
    /// Probability of dropping one predicted skeleton (Fig. 12-right `Drop-y`).
    pub drop_prob: f64,
    /// Hard cap on selected demonstrations before budget fitting.
    pub max_selected: usize,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        SelectionConfig {
            p0: 1,
            growth: Growth::Linear(1),
            masking_number: 0,
            drop_prob: 0.0,
            max_selected: 48,
        }
    }
}

/// Run Algorithm 1. Returns demonstration indices, best-first, de-duplicated.
pub fn select_demonstrations(
    automata: &AutomatonSet,
    predictions: &[SkeletonPrediction],
    cfg: &SelectionConfig,
    pool_size: usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    // Fig. 12 noise: optionally drop one prediction.
    let mut preds: Vec<&SkeletonPrediction> = predictions.iter().collect();
    if preds.len() > 1 && cfg.drop_prob > 0.0 && rng.random_bool(cfg.drop_prob) {
        let victim = rng.random_range(0..preds.len());
        preds.remove(victim);
    }

    // Build the preferential matching sequence I (lines 2-5). Each cell is
    // the unpopped tail of an end state's demonstration slice: popping
    // advances its start.
    let mut cells: Vec<&[usize]> = Vec::new();
    for level in Level::ALL.iter().skip(cfg.masking_number.min(3)) {
        for pred in &preds {
            cells.push(automata.at(*level).matches(&pred.skeleton));
        }
    }

    // Selection rounds (lines 6-9).
    let mut selected: Vec<usize> = Vec::new();
    let mut seen = vec![false; pool_size];
    let mut p = cfg.p0.max(1);
    while cells.iter().any(|c| !c.is_empty()) && selected.len() < cfg.max_selected {
        let mut taken_this_round = 0usize;
        for cell in cells.iter_mut() {
            if taken_this_round >= p {
                break;
            }
            if cell.is_empty() {
                continue;
            }
            taken_this_round += 1;
            // Pop-Demo: skip duplicates already in E'.
            while let Some((&d, rest)) = cell.split_first() {
                *cell = rest;
                if !seen[d] {
                    seen[d] = true;
                    selected.push(d);
                    break;
                }
            }
            if selected.len() >= cfg.max_selected {
                break;
            }
        }
        p = cfg.growth.next(p);
    }
    selected
}

/// Fill the tail of a selection with random unused demonstrations, "to fully
/// utilize the budget" (§IV-C3).
pub fn random_fill(selected: &mut Vec<usize>, pool_size: usize, target: usize, rng: &mut StdRng) {
    if selected.len() >= target || pool_size == 0 {
        return;
    }
    let mut unused: Vec<usize> = (0..pool_size).filter(|i| !selected.contains(i)).collect();
    unused.shuffle(rng);
    for d in unused {
        if selected.len() >= target {
            break;
        }
        selected.push(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sqlkit::{parse, Skeleton};

    fn pool() -> Vec<Skeleton> {
        [
            "SELECT a FROM t WHERE b = 1",           // 0: exact match target
            "SELECT a FROM t WHERE b = 'x'",         // 1: same detail skeleton
            "SELECT a FROM t WHERE b > 2",           // 2: structure-level sibling
            "SELECT a, c FROM t WHERE b = 1",        // 3: keywords differ, clause same
            "SELECT COUNT(*) FROM t GROUP BY a",     // 4: unrelated
            "SELECT a FROM t WHERE b = 1 AND c = 2", // 5: clause-level sibling
        ]
        .iter()
        .map(|s| Skeleton::from_query(&parse(s).unwrap()))
        .collect()
    }

    fn pred(text: &str, p: f64) -> SkeletonPrediction {
        SkeletonPrediction { skeleton: Skeleton::parse(text), probability: p }
    }

    /// Algorithm 1 as implemented before the slice cursors: every cell's
    /// matches copied into a deque and popped from the front.
    fn select_by_deques(
        automata: &AutomatonSet,
        predictions: &[SkeletonPrediction],
        cfg: &SelectionConfig,
        pool_size: usize,
        rng: &mut StdRng,
    ) -> Vec<usize> {
        let mut preds: Vec<&SkeletonPrediction> = predictions.iter().collect();
        if preds.len() > 1 && cfg.drop_prob > 0.0 && rng.random_bool(cfg.drop_prob) {
            let victim = rng.random_range(0..preds.len());
            preds.remove(victim);
        }
        let levels: Vec<Level> =
            Level::ALL.iter().copied().skip(cfg.masking_number.min(3)).collect();
        let mut cells: Vec<std::collections::VecDeque<usize>> = Vec::new();
        for level in &levels {
            for pred in &preds {
                let matched = automata.at(*level).matches(&pred.skeleton);
                cells.push(matched.iter().copied().collect());
            }
        }
        let mut selected: Vec<usize> = Vec::new();
        let mut seen = vec![false; pool_size];
        let mut p = cfg.p0.max(1);
        while cells.iter().any(|c| !c.is_empty()) && selected.len() < cfg.max_selected {
            let mut taken_this_round = 0usize;
            for cell in cells.iter_mut() {
                if taken_this_round >= p {
                    break;
                }
                if cell.is_empty() {
                    continue;
                }
                taken_this_round += 1;
                while let Some(d) = cell.pop_front() {
                    if !seen[d] {
                        seen[d] = true;
                        selected.push(d);
                        break;
                    }
                }
                if selected.len() >= cfg.max_selected {
                    break;
                }
            }
            p = cfg.growth.next(p);
        }
        selected
    }

    #[test]
    fn cursor_selection_matches_the_deque_version_on_dev() {
        use nlmodel::SkeletonPredictor;
        use spidergen::{generate_suite, GenConfig};
        let mut configs = Vec::new();
        for p0 in [1, 3] {
            for growth in [Growth::Linear(1), Growth::Linear(2), Growth::Exp(2)] {
                for masking_number in 0..=3 {
                    for (drop_prob, max_selected) in [(0.0, 48), (0.5, 48), (0.0, 5), (0.5, 5)] {
                        configs.push(SelectionConfig {
                            p0,
                            growth,
                            masking_number,
                            drop_prob,
                            max_selected,
                        });
                    }
                }
            }
        }
        for seed in [5, 23] {
            let suite = generate_suite(&GenConfig::tiny(seed));
            let skeletons: Vec<Skeleton> =
                suite.train.examples.iter().map(|e| Skeleton::from_query(&e.query)).collect();
            let (autos, n) = (AutomatonSet::build(&skeletons), skeletons.len());
            let predictor = SkeletonPredictor::train(&suite.train);
            for (i, ex) in suite.dev.examples.iter().enumerate() {
                let preds = predictor.predict(&ex.nl, suite.dev.db_of(ex), 3);
                for (c, cfg) in configs.iter().enumerate() {
                    let mut a = StdRng::seed_from_u64((i * configs.len() + c) as u64);
                    let mut b = a.clone();
                    assert_eq!(
                        select_demonstrations(&autos, &preds, cfg, n, &mut a),
                        select_by_deques(&autos, &preds, cfg, n, &mut b),
                        "seed {seed}, example {i}, {cfg:?}"
                    );
                    assert_eq!(a.next_u64(), b.next_u64(), "seed {seed}, example {i}: rng stream");
                }
            }
        }
    }

    #[test]
    fn exact_matches_come_first() {
        let autos = AutomatonSet::build(&pool());
        let preds = vec![pred("SELECT _ FROM _ WHERE _ = _", 0.9)];
        let mut rng = StdRng::seed_from_u64(1);
        let sel = select_demonstrations(&autos, &preds, &SelectionConfig::default(), 6, &mut rng);
        // Detail-level matches (0, 1) must precede structure-level (2).
        let pos = |d: usize| sel.iter().position(|x| *x == d).unwrap();
        assert!(pos(0) < pos(2));
        assert!(pos(1) < pos(2));
        assert!(sel.contains(&2), "structure-level sibling should appear");
        assert!(!sel.contains(&4), "unrelated demo must not be selected");
    }

    #[test]
    fn higher_probability_prediction_is_preferred_within_a_level() {
        let autos = AutomatonSet::build(&pool());
        // First prediction matches demo 3's detail skeleton, second matches 0/1.
        let preds = vec![
            pred("SELECT _ , _ FROM _ WHERE _ = _", 0.7),
            pred("SELECT _ FROM _ WHERE _ = _", 0.3),
        ];
        let mut rng = StdRng::seed_from_u64(2);
        let sel = select_demonstrations(&autos, &preds, &SelectionConfig::default(), 6, &mut rng);
        // Round 1 (p=1) pops from cell (Detail, pred1) = demo 3.
        assert_eq!(sel[0], 3);
    }

    #[test]
    fn no_duplicates_and_caps_respected() {
        let autos = AutomatonSet::build(&pool());
        let preds = vec![
            pred("SELECT _ FROM _ WHERE _ = _", 0.6),
            pred("SELECT _ FROM _ WHERE _ > _", 0.4),
        ];
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = SelectionConfig { max_selected: 3, ..Default::default() };
        let sel = select_demonstrations(&autos, &preds, &cfg, 6, &mut rng);
        assert!(sel.len() <= 3);
        let mut dedup = sel.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), sel.len(), "duplicates in selection");
    }

    #[test]
    fn masking_number_skips_fine_levels() {
        let autos = AutomatonSet::build(&pool());
        let preds = vec![pred("SELECT _ FROM _ WHERE _ = _", 1.0)];
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = SelectionConfig { masking_number: 3, ..Default::default() };
        let sel = select_demonstrations(&autos, &preds, &cfg, 6, &mut rng);
        // Clause level only: every SELECT-FROM-WHERE demo matches, including the
        // multi-predicate one.
        assert!(sel.contains(&5));
        assert!(!sel.contains(&4));
    }

    #[test]
    fn drop_prob_one_always_drops_a_prediction() {
        let autos = AutomatonSet::build(&pool());
        // Two predictions with disjoint matches at every level: a filter shape and
        // an aggregate-group shape (demo 4).
        let preds = vec![
            pred("SELECT _ FROM _ WHERE _ = _", 0.6),
            pred("SELECT COUNT ( _ ) FROM _ GROUP BY _", 0.4),
        ];
        let cfg = SelectionConfig { drop_prob: 1.0, ..Default::default() };
        let mut saw_first_dropped = false;
        let mut saw_second_dropped = false;
        for seed in 0..30 {
            let mut rng = StdRng::seed_from_u64(seed);
            let sel = select_demonstrations(&autos, &preds, &cfg, 6, &mut rng);
            if !sel.contains(&4) {
                saw_second_dropped = true;
            }
            if !sel.contains(&0) {
                saw_first_dropped = true;
            }
        }
        assert!(saw_first_dropped && saw_second_dropped);
    }

    #[test]
    fn growth_schedules() {
        assert_eq!(Growth::Linear(1).next(1), 2);
        assert_eq!(Growth::Linear(3).next(2), 5);
        assert_eq!(Growth::Exp(2).next(2), 4);
        // Degenerate parameters still advance.
        assert_eq!(Growth::Linear(0).next(4), 5);
        assert_eq!(Growth::Exp(0).next(1), 2);
    }

    #[test]
    fn random_fill_tops_up_without_duplicates() {
        let mut sel = vec![2, 0];
        let mut rng = StdRng::seed_from_u64(5);
        random_fill(&mut sel, 6, 5, &mut rng);
        assert_eq!(sel.len(), 5);
        let mut d = sel.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 5);
        // Target below current length is a no-op.
        let mut sel2 = vec![1, 2, 3];
        random_fill(&mut sel2, 6, 2, &mut rng);
        assert_eq!(sel2, vec![1, 2, 3]);
    }
}
