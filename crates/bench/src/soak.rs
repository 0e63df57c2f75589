//! Sustained-soak driver (DESIGN.md §16): open-loop seeded arrivals at a
//! fixed rate against a running [`crate::serve::Server`], producing a
//! per-tick timeline of window snapshots plus an end-of-run summary.
//!
//! **Open loop** means arrivals are paced by the driver's clock, not by the
//! server's backpressure: each request is submitted with
//! [`SubmitHandle::try_submit`], and a full queue *sheds* the request instead
//! of slowing the arrival process. This is the discipline that makes overload
//! observable — a closed-loop driver ([`crate::serve::run_load`]) can never
//! overload the server because its own blocking throttles it.
//!
//! ## Determinism contract
//!
//! The timeline's virtual columns are **offered-load** statistics, not
//! measured ones: tick `k` covers arrival sequence numbers
//! `[k*per_tick, (k+1)*per_tick)`, each sequence number maps to a dev example
//! by cycling the split in order, and the virtual columns are exact
//! nearest-rank percentiles over the *per-example cost table* for that
//! cohort. The cost table ([`warmup_costs`]) is primed by one sequential
//! pass over the split before any concurrent traffic, so it — and therefore
//! every `virt_*` column and `virt_work` — is byte-identical for any worker
//! count or arrival seed ([`virt_prefix`] isolates that prefix of a timeline
//! line).
//!
//! The measured columns (`completed`, `shed`, `wall_ms`, the windowed
//! high-watermarks, the verdict) are operational: they depend on real
//! scheduling and carry no determinism contract. The arrival seed shuffles
//! submission order *within* each tick only, so it perturbs the measured
//! columns without touching cohort membership.

use crate::serve::{shuffle, Completion, HealthSnapshot, SubmitError, SubmitHandle};
use obs::{SlidingWindow, SloVerdict, WindowStats};
use purple::Purple;
use spidergen::Benchmark;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Wire request ids during a soak are `id_base + sequence number`, keeping
/// them disjoint from any earlier closed-loop load-gen ids on the same
/// server (which number from 0).
pub const SOAK_ID_BASE: u64 = 1 << 40;

/// Soak knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoakConfig {
    /// Total offered-load duration (the drain phase afterwards is extra).
    pub duration: Duration,
    /// Offered arrival rate, requests per second.
    pub rate: f64,
    /// Shuffles submission order within each tick (measured columns only).
    pub arrival_seed: u64,
    /// Snapshot period: one timeline row per tick.
    pub tick: Duration,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            duration: Duration::from_secs(10),
            rate: 16.0,
            arrival_seed: 1,
            tick: Duration::from_secs(1),
        }
    }
}

/// One timeline row. The `virt` statistics and the cohort bounds are
/// deterministic; everything else is measured.
#[derive(Debug, Clone)]
pub struct SoakTick {
    /// Tick number, from 0.
    pub tick: u64,
    /// First arrival sequence number of this tick's cohort.
    pub id_lo: u64,
    /// One past the last sequence number of the cohort.
    pub id_hi: u64,
    /// Requests offered this tick (`id_hi - id_lo`).
    pub offered: u64,
    /// Offered-load cost distribution of the cohort (virtual work units,
    /// exact nearest-rank percentiles; `sum` is the cohort's total work).
    pub virt: WindowStats,
    /// Completions the server published during this tick (measured).
    pub completed: u64,
    /// Requests shed at admission during this tick (measured).
    pub shed: u64,
    /// Wall time the tick actually took (measured).
    pub wall_ms: f64,
    /// Windowed queue-depth high-watermark at tick close (measured).
    pub queue_depth_hwm: u64,
    /// Windowed in-flight high-watermark at tick close (measured).
    pub in_flight_hwm: u64,
    /// SLO verdict at tick close (measured).
    pub verdict: SloVerdict,
}

/// Everything a soak run produced: the timeline plus the summary the
/// `BENCH_serve.json` v3 `soak` section is rendered from.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// Per-tick timeline, in tick order.
    pub ticks: Vec<SoakTick>,
    /// Requests offered (ticks × per-tick cohort size).
    pub offered: u64,
    /// Requests completed (admitted and translated).
    pub completed: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Offered load to drain: total wall time including the drain phase.
    pub wall: Duration,
    /// Completions per wall second over the whole run.
    pub sustained_rps: f64,
    /// Total virtual work offered (sum of cohort cost sums; deterministic).
    pub virt_work_offered: u64,
    /// Largest windowed latency p95 seen at any tick close (measured).
    pub peak_p95: u64,
    /// Largest windowed latency p99 seen at any tick close (measured).
    pub peak_p99: u64,
    /// SLO-objective transitions into Degraded/Breached during the run.
    pub episodes: u64,
    /// Worst verdict seen at any tick close or at drain.
    pub verdict: SloVerdict,
    /// Health at the end of the drain phase.
    pub final_health: HealthSnapshot,
}

/// Prime the per-example cost table: one *sequential* pass over the dev
/// split, in index order, recording each example's report-stage virtual work
/// ([`obs::StageMetrics::report_work`]).
///
/// Run this before any concurrent traffic: a sequential pass warms the
/// shared session caches in a fixed order, so the recorded costs — and every
/// timeline `virt_*` column derived from them — are reproducible across
/// worker counts. (After concurrent traffic, cache state depends on
/// scheduling and the recorded costs would too.)
pub fn warmup_costs(purple: &Purple, bench: &Benchmark) -> Vec<u64> {
    bench
        .examples
        .iter()
        .enumerate()
        .map(|(idx, ex)| {
            let out = purple.run(eval::Job::new(idx, ex, bench.db_of(ex)));
            out.metrics.report_work()
        })
        .collect()
}

/// Exact percentile statistics over one cohort's offered costs, reusing the
/// window machinery (single bucket, cap sized to the cohort → no sampling).
fn cohort_stats(costs: &[u64], id_lo: u64, id_hi: u64) -> WindowStats {
    let n = costs.len() as u64;
    let mut w = SlidingWindow::new(u64::MAX, 1, (id_hi - id_lo).max(1) as usize);
    for id in id_lo..id_hi {
        w.observe(0, costs[(id % n) as usize]);
    }
    w.snapshot(0)
}

/// Drive one soak: `cfg.duration` of open-loop arrivals at `cfg.rate`
/// against `handle`, one timeline row per `cfg.tick`, then a drain phase
/// waiting for the queue to empty. `costs` is the [`warmup_costs`] table
/// (one entry per dev example).
///
/// Errors only on structural refusals ([`SubmitError::Closed`],
/// [`SubmitError::UnknownDatabase`]); a full queue is not an error, it is
/// the shed path being exercised.
pub fn run_soak(
    handle: &SubmitHandle,
    bench: &Benchmark,
    costs: &[u64],
    cfg: &SoakConfig,
) -> Result<SoakOutcome, SubmitError> {
    let n = bench.examples.len() as u64;
    assert!(n > 0, "cannot soak an empty split");
    assert_eq!(costs.len() as u64, n, "cost table must cover the split");
    let tick = cfg.tick.max(Duration::from_millis(1));
    let ticks = (cfg.duration.as_secs_f64() / tick.as_secs_f64()).ceil().max(1.0) as u64;
    let per_tick = ((cfg.rate * tick.as_secs_f64()).round() as u64).max(1);
    let (tx, rx) = mpsc::channel::<Completion>();
    // Completions carry full outcomes; drain them as they arrive so a long
    // soak holds a bounded number in memory.
    let collector = thread::spawn(move || {
        let mut drained = 0u64;
        while rx.recv().is_ok() {
            drained += 1;
        }
        drained
    });
    let baseline = handle.health();
    let mut prev = baseline.clone();
    let mut rows = Vec::with_capacity(ticks as usize);
    let mut verdict = SloVerdict::Healthy;
    let mut peak_p95 = 0u64;
    let mut peak_p99 = 0u64;
    let mut virt_work_offered = 0u64;
    let t0 = Instant::now();
    for k in 0..ticks {
        let id_lo = k * per_tick;
        let id_hi = id_lo + per_tick;
        let virt = cohort_stats(costs, id_lo, id_hi);
        virt_work_offered = virt_work_offered.saturating_add(virt.sum);
        // Within-tick arrival shuffle: cohort membership is fixed, order is
        // seeded per tick.
        let mut ids: Vec<u64> = (id_lo..id_hi).collect();
        shuffle(&mut ids, cfg.arrival_seed ^ k.wrapping_mul(0x9e3779b97f4a7c15));
        let tick_start = t0 + tick.mul_f64(k as f64);
        let wall0 = Instant::now();
        for (j, &seq) in ids.iter().enumerate() {
            // Even pacing across the tick; if the driver falls behind it
            // submits immediately (open loop: never slower than offered).
            let target = tick_start + tick.mul_f64(j as f64 / per_tick as f64);
            let now = Instant::now();
            if target > now {
                thread::sleep(target - now);
            }
            let idx = (seq % n) as usize;
            let req = eval::Request::new(
                SOAK_ID_BASE + seq,
                eval::JobSpec::of(idx, &bench.examples[idx]),
            );
            match handle.try_submit(req, tx.clone()) {
                Ok(()) | Err(SubmitError::QueueFull) => {}
                Err(e) => return Err(e),
            }
        }
        let tick_end = tick_start + tick;
        let now = Instant::now();
        if tick_end > now {
            thread::sleep(tick_end - now);
        }
        let h = handle.health();
        verdict = verdict.worst(h.verdict);
        peak_p95 = peak_p95.max(h.latency.p95);
        peak_p99 = peak_p99.max(h.latency.p99);
        rows.push(SoakTick {
            tick: k,
            id_lo,
            id_hi,
            offered: per_tick,
            virt,
            completed: h.completed - prev.completed,
            shed: h.shed - prev.shed,
            wall_ms: wall0.elapsed().as_secs_f64() * 1e3,
            queue_depth_hwm: h.queue_window.max,
            in_flight_hwm: h.in_flight_window.max,
            verdict: h.verdict,
        });
        prev = h;
    }
    // Drain: offered load has stopped; wait (bounded) for the queue and
    // in-flight work to empty so `completed` is final.
    let drain_deadline = Instant::now() + cfg.duration.max(Duration::from_secs(30));
    let final_health = loop {
        let h = handle.health();
        if (h.queue_depth == 0 && h.in_flight == 0) || Instant::now() > drain_deadline {
            break h;
        }
        thread::sleep(Duration::from_millis(5));
    };
    drop(tx);
    collector.join().expect("soak collector panicked");
    let wall = t0.elapsed();
    let completed = final_health.completed - baseline.completed;
    Ok(SoakOutcome {
        offered: ticks * per_tick,
        completed,
        shed: final_health.shed - baseline.shed,
        wall,
        sustained_rps: completed as f64 / wall.as_secs_f64().max(1e-9),
        virt_work_offered,
        peak_p95,
        peak_p99,
        episodes: final_health.episodes - baseline.episodes,
        verdict: verdict.worst(final_health.verdict),
        ticks: rows,
        final_health,
    })
}

/// Render one timeline row as an LDJSON line (no trailing newline). The
/// deterministic fields come first, so [`virt_prefix`] of the line is
/// byte-identical across worker counts and arrival seeds.
pub fn tick_to_json(t: &SoakTick) -> String {
    format!(
        "{{\"tick\":{},\"id_lo\":{},\"id_hi\":{},\"offered\":{},\"virt_p50\":{},\"virt_p95\":{},\
         \"virt_p99\":{},\"virt_work\":{},\"completed\":{},\"shed\":{},\"wall_ms\":{:.3},\
         \"queue_depth_hwm\":{},\"in_flight_hwm\":{},\"verdict\":\"{}\"}}",
        t.tick,
        t.id_lo,
        t.id_hi,
        t.offered,
        t.virt.p50,
        t.virt.p95,
        t.virt.p99,
        t.virt.sum,
        t.completed,
        t.shed,
        t.wall_ms,
        t.queue_depth_hwm,
        t.in_flight_hwm,
        t.verdict.name()
    )
}

/// The deterministic prefix of a timeline line: everything up to (not
/// including) the first measured field. This is the byte-identity contract
/// the soak tests and CI compare across worker counts and arrival seeds.
pub fn virt_prefix(line: &str) -> &str {
    match line.find(",\"completed\":") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Render the whole timeline as LDJSON (one line per tick, trailing newline).
pub fn timeline_to_ldjson(outcome: &SoakOutcome) -> String {
    let mut out = String::new();
    for t in &outcome.ticks {
        out.push_str(&tick_to_json(t));
        out.push('\n');
    }
    out
}

/// Render the timeline and summary as a markdown report.
pub fn render_markdown(outcome: &SoakOutcome) -> String {
    let mut out = String::new();
    out.push_str("## Soak timeline\n\n");
    out.push_str(
        "| tick | seq | offered | virt p50 | virt p95 | virt p99 | virt work | completed | shed \
         | q hwm | verdict |\n",
    );
    out.push_str("|---:|---|---:|---:|---:|---:|---:|---:|---:|---:|---|\n");
    for t in &outcome.ticks {
        out.push_str(&format!(
            "| {} | {}..{} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
            t.tick,
            t.id_lo,
            t.id_hi,
            t.offered,
            t.virt.p50,
            t.virt.p95,
            t.virt.p99,
            t.virt.sum,
            t.completed,
            t.shed,
            t.queue_depth_hwm,
            t.verdict.name()
        ));
    }
    out.push_str("\n## Soak summary\n\n");
    out.push_str(&format!(
        "- offered {} request(s) over {} tick(s), {} virtual work units\n",
        outcome.offered,
        outcome.ticks.len(),
        outcome.virt_work_offered
    ));
    out.push_str(&format!(
        "- completed {} ({:.1} req/s sustained), shed {}\n",
        outcome.completed, outcome.sustained_rps, outcome.shed
    ));
    out.push_str(&format!(
        "- rolling latency extremes: p95 {} / p99 {} work units\n",
        outcome.peak_p95, outcome.peak_p99
    ));
    out.push_str(&format!(
        "- overload episodes: {}, worst verdict: {}\n",
        outcome.episodes,
        outcome.verdict.name()
    ));
    out
}
