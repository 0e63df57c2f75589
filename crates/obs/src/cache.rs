//! Execution-cache observability: lock-free hit/miss/eviction counters for the
//! four memoization stages of an execution session (statement parse, write
//! plan, result, columns), with a point-in-time snapshot.
//!
//! These counters live deliberately *outside* [`StageMetrics`]: cache traffic
//! depends on thread interleaving under parallel evaluation, so it must never
//! enter the deterministic report surface (which is byte-identical for any
//! `--jobs` count). They are rendered on stdout by `repro --metrics` instead.
//!
//! [`StageMetrics`]: crate::StageMetrics

use std::sync::atomic::{AtomicU64, Ordering};

/// Live hit/miss/eviction counters for one cache stage. All operations are
/// relaxed atomics: the counters are diagnostics, not synchronization.
#[derive(Debug, Default)]
pub struct StageCacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl StageCacheCounters {
    /// Record a cache hit.
    pub fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a cache miss.
    pub fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an LRU eviction.
    pub fn eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time snapshot (the `entries` gauge is filled by the owner,
    /// which knows the cache's current size).
    pub fn snapshot(&self, entries: u64) -> StageCacheStats {
        StageCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
        }
    }
}

/// Live counters for every stage of an execution session.
#[derive(Debug, Default)]
pub struct CacheCounters {
    /// SQL-text → statement memoization (reads and writes).
    pub parse: StageCacheCounters,
    /// (pre-write db, SQL) → compiled write-plan memoization. Reads cache
    /// their results, not their plans, so a read makes no plan lookup.
    pub plan: StageCacheCounters,
    /// (db, SQL) → result-set memoization.
    pub result: StageCacheCounters,
    /// (db, table) → column-vector memoization (vectorized engine).
    pub columns: StageCacheCounters,
}

/// Snapshot of one cache stage: monotonic hit/miss/eviction counts plus the
/// current entry gauge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
}

impl StageCacheStats {
    /// Hit ratio in percent (0 when the stage saw no traffic).
    pub fn hit_pct(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 * 100.0 / total as f64
        }
    }
}

/// Snapshot of a whole execution session's cache behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Parse-stage stats.
    pub parse: StageCacheStats,
    /// Write-plan stats (reads make no plan lookup).
    pub plan: StageCacheStats,
    /// Result-stage stats.
    pub result: StageCacheStats,
    /// Column-store stats (the vectorized engine's per-table column cache).
    pub columns: StageCacheStats,
}

impl CacheStats {
    /// Render an aligned stdout table (the `repro --metrics` cache section).
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Exec cache         hits     misses  evictions    entries   hit%\n\
             -----------------------------------------------------------------\n",
        );
        for (name, s) in [
            ("parse", &self.parse),
            ("plan", &self.plan),
            ("result", &self.result),
            ("columns", &self.columns),
        ] {
            out.push_str(&format!(
                "{name:<12} {:>10} {:>10} {:>10} {:>10} {:>6.1}\n",
                s.hits,
                s.misses,
                s.evictions,
                s.entries,
                s.hit_pct()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_snapshot_and_render() {
        let c = CacheCounters::default();
        c.parse.hit();
        c.parse.hit();
        c.parse.miss();
        c.result.miss();
        c.result.eviction();
        let stats = CacheStats {
            parse: c.parse.snapshot(1),
            plan: c.plan.snapshot(0),
            result: c.result.snapshot(0),
            columns: c.columns.snapshot(0),
        };
        assert_eq!(stats.parse.hits, 2);
        assert_eq!(stats.parse.misses, 1);
        assert_eq!(stats.result.evictions, 1);
        assert_eq!(stats.parse.entries, 1);
        assert!((stats.parse.hit_pct() - 200.0 / 3.0).abs() < 1e-9);
        let rendered = stats.render();
        assert!(rendered.contains("parse"));
        assert!(rendered.contains("result"));
        assert!(rendered.contains("columns"));
    }
}
