//! Cost accounting across LLM calls: cumulative token counts and a dollar
//! estimate at the 2023-era OpenAI prices the paper's budget discussion (§V-D)
//! implicitly uses. Thread-safe so parallel evaluations can share one ledger.

use crate::profile::LlmProfile;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Cumulative totals recorded by a [`CostLedger`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Number of API calls.
    pub calls: u64,
    /// Total prompt tokens billed.
    pub prompt_tokens: u64,
    /// Total completion tokens billed.
    pub output_tokens: u64,
}

impl Totals {
    /// Dollar estimate at a profile's per-1k-token prices.
    pub fn cost_usd(&self, profile: &LlmProfile) -> f64 {
        (self.prompt_tokens as f64 / 1000.0) * profile.usd_per_1k_prompt
            + (self.output_tokens as f64 / 1000.0) * profile.usd_per_1k_output
    }
}

/// A shared, thread-safe token/cost accumulator.
///
/// All three fields of [`Totals`] live behind one mutex, so every operation is
/// atomic with respect to the others: a [`CostLedger::record`] concurrent with
/// [`CostLedger::reset`] either lands entirely before the reset (and is wiped)
/// or entirely after (and survives whole) — `totals` can never observe a call
/// counted without its tokens. This matches the `obs::MetricsRegistry`
/// convention; `eval::evaluate` workers rely on it when sharing one ledger.
#[derive(Debug, Default)]
pub struct CostLedger {
    inner: Mutex<Totals>,
}

impl CostLedger {
    /// A fresh shared ledger.
    pub fn shared() -> Arc<CostLedger> {
        Arc::new(CostLedger::default())
    }

    /// Record one call.
    pub fn record(&self, prompt_tokens: u64, output_tokens: u64) {
        let mut t = lock(&self.inner);
        t.calls += 1;
        t.prompt_tokens += prompt_tokens;
        t.output_tokens += output_tokens;
    }

    /// Snapshot the totals.
    pub fn totals(&self) -> Totals {
        *lock(&self.inner)
    }

    /// Reset to zero, atomically with respect to concurrent [`CostLedger::record`]
    /// calls (no partially-recorded call can straddle the reset).
    pub fn reset(&self) {
        *lock(&self.inner) = Totals::default();
    }

    /// Atomically snapshot the totals and reset them, so no call recorded
    /// between the two steps is lost or double-counted.
    pub fn drain(&self) -> Totals {
        let mut t = lock(&self.inner);
        std::mem::take(&mut *t)
    }
}

/// Lock `m`, ignoring poisoning: every critical section in this file leaves the
/// data valid at every step, so a lock poisoned by a panicking thread still
/// guards valid data, and later callers keep working.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{CHATGPT, GPT4};

    #[test]
    fn records_and_totals() {
        let l = CostLedger::shared();
        l.record(1000, 500);
        l.record(2000, 100);
        let t = l.totals();
        assert_eq!(t.calls, 2);
        assert_eq!(t.prompt_tokens, 3000);
        assert_eq!(t.output_tokens, 600);
        l.reset();
        assert_eq!(l.totals(), Totals::default());
    }

    #[test]
    fn gpt4_is_an_order_of_magnitude_pricier() {
        let t = Totals { calls: 1, prompt_tokens: 3000, output_tokens: 1000 };
        let cheap = t.cost_usd(&CHATGPT);
        let pricey = t.cost_usd(&GPT4);
        assert!(pricey > cheap * 10.0, "{pricey} vs {cheap}");
        // ChatGPT at the paper's default budget: ~fractions of a cent per query.
        assert!(cheap < 0.01);
    }

    #[test]
    fn reset_is_atomic_with_respect_to_concurrent_records() {
        // Writers record calls with a fixed tokens-per-call ratio while a
        // reaper drains concurrently. Atomicity means every observed snapshot
        // (and the final residue) keeps the ratio intact — a torn record or a
        // lost update would break calls*[10,1] == [prompt,output] — and the
        // reaped + residual totals must account for every call exactly once.
        const WRITERS: u64 = 4;
        const CALLS: u64 = 5_000;
        let ledger = CostLedger::shared();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let mut reaped = Totals::default();
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|_| {
                    let ledger = ledger.clone();
                    scope.spawn(move || {
                        for _ in 0..CALLS {
                            ledger.record(10, 1);
                        }
                    })
                })
                .collect();
            let reaper = scope.spawn(|| {
                let mut acc = Totals::default();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let t = ledger.drain();
                    assert_eq!(t.prompt_tokens, t.calls * 10, "torn record observed");
                    assert_eq!(t.output_tokens, t.calls, "torn record observed");
                    acc.calls += t.calls;
                    acc.prompt_tokens += t.prompt_tokens;
                    acc.output_tokens += t.output_tokens;
                }
                acc
            });
            for w in writers {
                w.join().unwrap();
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            reaped = reaper.join().unwrap();
        });
        let rest = ledger.totals();
        assert_eq!(reaped.calls + rest.calls, WRITERS * CALLS);
        assert_eq!(reaped.prompt_tokens + rest.prompt_tokens, WRITERS * CALLS * 10);
        assert_eq!(reaped.output_tokens + rest.output_tokens, WRITERS * CALLS);
    }

    #[test]
    fn ledger_is_shareable_across_threads() {
        let l = CostLedger::shared();
        record_from_threads(&l);
        assert_eq!(l.totals().calls, 8);

        fn record_from_threads(l: &Arc<CostLedger>) {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let l = l.clone();
                    std::thread::spawn(move || l.record(10, 1))
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
    }
}
