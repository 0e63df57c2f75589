//! Shared plumbing for the baseline systems: fixed demonstration sets. Their
//! raw execution-consistency vote (without PURPLE's adaption fixers) is
//! [`purple::raw_vote`].

use rand::prelude::*;
use rand::rngs::StdRng;

/// Pick a fixed demonstration index set from a pool (the few-shot / DIN-SQL
/// hand-curated prompt), deterministic for a seed.
pub fn fixed_demo_indices(pool_size: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..pool_size).collect();
    idx.shuffle(&mut rng);
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::{Database, ExecSession, Value};
    use obs::Probe;
    use purple::raw_vote;
    use sqlkit::{Column, ColumnType, Schema, Table};

    fn db() -> Database {
        let mut s = Schema::new("d");
        s.tables.push(Table {
            name: "t".into(),
            display: "t".into(),
            columns: vec![Column::new("id", ColumnType::Int)],
            primary_key: Some(0),
        });
        let mut d = Database::empty(s);
        d.insert(0, vec![Value::Int(1)]);
        d.insert(0, vec![Value::Int(2)]);
        d
    }

    #[test]
    fn raw_vote_picks_majority() {
        let d = db();
        let session = ExecSession::disabled();
        let d = session.bind(&d);
        let samples = vec![
            "SELECT id FROM t WHERE id = 1".to_string(),
            "SELECT id FROM t WHERE id = 2".to_string(),
            "SELECT id FROM t WHERE id = 1".to_string(),
        ];
        assert_eq!(raw_vote(&samples, &d, &Probe::detached()), "SELECT id FROM t WHERE id = 1");
    }

    #[test]
    fn raw_vote_ignores_broken_samples_and_falls_back() {
        let d = db();
        let session = ExecSession::disabled();
        let d = session.bind(&d);
        let samples = vec!["garbage".to_string(), "SELECT id FROM t".to_string()];
        assert_eq!(raw_vote(&samples, &d, &Probe::detached()), "SELECT id FROM t");
        assert_eq!(raw_vote(&["x".to_string()], &d, &Probe::detached()), "x");
        assert_eq!(raw_vote(&[], &d, &Probe::detached()), "");
    }

    #[test]
    fn fixed_demo_indices_are_deterministic_and_bounded() {
        let a = fixed_demo_indices(100, 8, 42);
        let b = fixed_demo_indices(100, 8, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert!(a.iter().all(|i| *i < 100));
        let c = fixed_demo_indices(5, 8, 42);
        assert_eq!(c.len(), 5);
    }
}
