#!/usr/bin/env bash
# CI smoke checks against the release `repro` binary.
#
# Usage: ci/smoke.sh <metrics|cache|exec-bench|diagnose|diff|serve|trace|dml|soak|perfbench>
#
# Every mode but `perfbench` runs at --scale tiny and enforces the
# repository's determinism contract: observable artifacts must be
# byte-identical for any --jobs count (for `cache`, `exec-bench` and
# `diagnose`, with the execution cache on or off, and `exec-bench` also
# checks the engine against the reference interpreter; for `serve` and
# `trace`, at any worker
# count and arrival order; for `dml`, across --jobs counts
# and cache modes; for `soak`, the timeline's virt_* columns across worker
# counts and arrival seeds). `perfbench` builds and briefly runs the
# benchmark that BENCHMARK.json declares.
set -euo pipefail

REPRO=${REPRO:-./target/release/repro}
SERVE=${SERVE:-./target/release/purple-serve}
mode=${1:?usage: ci/smoke.sh <metrics|cache|exec-bench|diagnose|diff|serve|trace|dml|soak|perfbench>}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Run `repro --archive`, echoing the run id it prints.
archive_run() {
    "$REPRO" "$@" | sed -n 's/^run_id=//p'
}

case "$mode" in
metrics)
    "$REPRO" --scale tiny --jobs 2 --metrics "$work/metrics.json"
    python3 -c "import json; m = json.load(open('$work/metrics.json')); assert m['counters']['llm_calls'] > 0, m"
    ;;
cache)
    "$REPRO" --scale tiny --jobs 2 --metrics "$work/cached.json"
    "$REPRO" --scale tiny --jobs 2 --metrics "$work/uncached.json" --no-exec-cache
    cmp "$work/cached.json" "$work/uncached.json"
    # The metrics JSON holds no TS verdict; Table 4's printed EM/EX/TS does.
    "$REPRO" --scale tiny --only table4 --jobs 2 >"$work/table4-cached.txt"
    "$REPRO" --scale tiny --only table4 --jobs 2 --no-exec-cache >"$work/table4-uncached.txt"
    cmp "$work/table4-cached.txt" "$work/table4-uncached.txt"
    ;;
exec-bench)
    # 1. The engine matches the reference interpreter on the bench mix, plus
    #    a few cold runs of each (panics nonzero on divergence).
    EXEC_BENCH_SMOKE=1 cargo bench -q -p purple-bench --bench exec_cache

    # 2. The metrics JSON must be byte-identical with the cache on and off,
    #    across --jobs counts.
    "$REPRO" --scale tiny --jobs 2 --metrics "$work/cached.json"
    "$REPRO" --scale tiny --jobs 1 --metrics "$work/uncached.json" --no-exec-cache
    cmp "$work/cached.json" "$work/uncached.json"

    # 3. So must the full archived report (EM/EX/TS + metrics + attribution):
    #    identical runs with the cache on or off archive to the same run id,
    #    and the cache flip gates clean with an all-zero diff.
    reg="$work/runs"
    cached_run=$(archive_run --scale tiny --seed 42 --jobs 2 --archive "$reg")
    test -n "$cached_run"
    "$REPRO" --scale tiny --seed 42 --jobs 2 --archive "$reg" --baseline "$cached_run" \
        --no-exec-cache --gate --diff-out "$work/cache-flip.md" >/dev/null
    grep -q 'All-zero diff' "$work/cache-flip.md"
    ;;
diagnose)
    "$REPRO" --scale tiny --jobs 1 --diagnose "$work/blame1.md" --events "$work/events1.jsonl"
    "$REPRO" --scale tiny --jobs 4 --diagnose "$work/blame4.md" --events "$work/events4.jsonl"
    cmp "$work/blame1.md" "$work/blame4.md"
    cmp "$work/events1.jsonl" "$work/events4.jsonl"
    # Attribution executes through the run's session: the same verdicts and
    # events with the execution cache off.
    "$REPRO" --scale tiny --jobs 4 --no-exec-cache \
        --diagnose "$work/blame4-uncached.md" --events "$work/events4-uncached.jsonl"
    cmp "$work/blame4.md" "$work/blame4-uncached.md"
    cmp "$work/events4.jsonl" "$work/events4-uncached.jsonl"
    python3 - "$work" <<'EOF'
import json, sys
work = sys.argv[1]
md = open(f"{work}/blame1.md").read()
for cls in ["pruning-recall-miss", "skeleton-topk-miss", "demo-support-gap",
            "llm-hallucination", "adaption-regression", "vote-misselection"]:
    assert f"| {cls} |" in md, f"missing blame row: {cls}"
events = [json.loads(line) for line in open(f"{work}/events1.jsonl")]
assert events, "no trace events emitted"
assert all({"example", "seq", "stage", "kind", "fields"} <= e.keys() for e in events)
EOF
    ;;
diff)
    reg="$work/runs"
    # 1. Archive the seed baseline (PURPLE/ChatGPT, seed 42).
    base=$(archive_run --scale tiny --seed 42 --jobs 2 --archive "$reg")
    test -n "$base"

    # 2. Re-running the identical config must gate clean with an all-zero
    #    diff, byte-identical between --jobs 1 and --jobs 4.
    "$REPRO" --scale tiny --seed 42 --jobs 1 --archive "$reg" --baseline "$base" \
        --gate --diff-out "$work/d1.md" --diff-json "$work/d1.json" >/dev/null
    "$REPRO" --scale tiny --seed 42 --jobs 4 --archive "$reg" --baseline "$base" \
        --gate --diff-out "$work/d4.md" --diff-json "$work/d4.json" >/dev/null
    cmp "$work/d1.md" "$work/d4.md"
    cmp "$work/d1.json" "$work/d4.json"
    grep -q 'All-zero diff' "$work/d1.md"

    # 3. Perturbing the model profile must produce flips, and the weaker
    #    candidate must trip the gate (nonzero exit).
    strong=$(archive_run --scale tiny --seed 42 --jobs 2 --archive "$reg" --profile gpt4)
    test "$strong" != "$base"
    if "$REPRO" --scale tiny --seed 42 --jobs 2 --archive "$reg" --baseline "$strong" \
        --gate --diff-out "$work/regression.md" >/dev/null; then
        echo "expected the gate to fail for the ChatGPT candidate vs the GPT4 baseline" >&2
        exit 1
    fi
    grep -q 'regressed' "$work/regression.md"

    # 4. `--baseline latest` must resolve to the most recent *pre-existing*
    #    run (the GPT4 one), not the candidate being archived — a self-diff
    #    would gate vacuously clean on any config change.
    if "$REPRO" --scale tiny --seed 42 --jobs 2 --archive "$reg" --baseline latest \
        --gate --diff-json "$work/latest.json" >/dev/null; then
        echo "expected --baseline latest to diff against the GPT4 run and fail the gate" >&2
        exit 1
    fi
    grep -q "\"baseline\":\"$strong\"" "$work/latest.json"
    ;;
serve)
    # 1. Drive seeded load through the concurrent serving front-end and
    #    archive the replayed evaluation report in the run registry.
    reg="$work/runs"
    run1=$("$SERVE" --load-gen 60 --scale tiny --seed 42 --workers 4 \
        --bench-out "$work/BENCH_serve.json" --archive "$reg" | sed -n 's/^run_id=//p')
    test -n "$run1"
    python3 -c "
import json
b = json.load(open('$work/BENCH_serve.json'))
assert b['bench'] == 'serve' and b['requests'] >= 60, b
assert b['throughput_rps'] > 0 and b['p50_ms'] <= b['p99_ms'], b
assert b['run_id'] == '$run1', b"

    # 2. A different worker count and arrival order must gate clean against
    #    the first run with an all-zero diff: serving changes scheduling,
    #    never results.
    "$SERVE" --load-gen 60 --scale tiny --seed 42 --workers 1 \
        --arrival-seed 9 --bench-out "$work/BENCH_serve2.json" \
        --archive "$reg" --baseline "$run1" --gate --diff-out "$work/serve.md" >/dev/null
    grep -q 'All-zero diff' "$work/serve.md"

    # 3. The stdio LDJSON frontend answers well-formed request lines and
    #    flags malformed ones without dying.
    printf '%s\n%s\n' \
        '{"id":5,"idx":0,"db_index":0,"nl":"how many","sql":"SELECT a FROM b","linking_noise":0.0,"trace":false,"seed":null}' \
        'not json' \
        | "$SERVE" --stdio --scale tiny --seed 42 --workers 2 > "$work/stdio.out"
    grep -q '"id":5' "$work/stdio.out"
    grep -q '"error":' "$work/stdio.out"
    ;;
trace)
    # 1. Export request span trees from a load-gen run and check the Chrome
    #    trace-event JSON parses with the expected shape: every event is a
    #    complete-span ("ph":"X") with virtual-clock ts/dur and a
    #    span/parent edge, and every trace has exactly one "request" root.
    "$SERVE" --load-gen 60 --scale tiny --seed 42 --workers 4 \
        --trace-out "$work/t4.json" --bench-out "$work/B4.json" >/dev/null
    python3 - "$work" <<'EOF'
import json, sys
work = sys.argv[1]
t = json.load(open(f"{work}/t4.json"))
assert t["otherData"]["clock"] == "virtual", t["otherData"]
assert t["otherData"]["dropped_traces"] == 0 and t["otherData"]["dropped_spans"] == 0
events = t["traceEvents"]
assert events, "no trace events exported"
roots = {}
for e in events:
    assert e["ph"] == "X" and e["dur"] >= 0 and e["ts"] >= 0, e
    if e["args"]["parent"] is None:
        roots.setdefault(e["tid"], []).append(e["name"])
assert all(names == ["request"] for names in roots.values()), roots
names = {e["name"] for e in events}
for required in ["request", "queue-wait", "schema-pruning",
                 "skeleton-prediction", "demo-selection", "prompt-assembly",
                 "llm-call", "adaption", "consistency-vote"]:
    assert required in names, f"missing span {required} (have {sorted(names)})"
b = json.load(open(f"{work}/B4.json"))
assert b["schema_version"] == 4 and b["stages"], b
assert b["run_id"].startswith("run-") and b["soak"] is None, b
assert any(s["path"] == "request/queue-wait" for s in b["stages"]), b["stages"]
EOF

    # 2. The exported trace must be byte-identical at any worker count and
    #    any arrival order (virtual clock only — wall time never enters the
    #    export by default).
    "$SERVE" --load-gen 60 --scale tiny --seed 42 --workers 1 \
        --arrival-seed 9 --trace-out "$work/t1.json" \
        --bench-out "$work/B1.json" >/dev/null
    "$SERVE" --load-gen 60 --scale tiny --seed 42 --workers 8 \
        --arrival-seed 7 --trace-out "$work/t8.json" \
        --bench-out "$work/B8.json" >/dev/null
    cmp "$work/t4.json" "$work/t1.json"
    cmp "$work/t4.json" "$work/t8.json"

    # 3. The live telemetry verb answers over the stdio frontend with a
    #    Prometheus text exposition of the shared registry and session.
    printf '%s\n%s\n' \
        '{"id":5,"idx":0,"db_index":0,"nl":"how many","sql":"SELECT a FROM b","linking_noise":0.0,"trace":false,"seed":null}' \
        '{"cmd":"metrics"}' \
        | "$SERVE" --stdio --scale tiny --seed 42 --workers 2 > "$work/stdio.out"
    grep -q '"metrics":' "$work/stdio.out"
    grep -q 'purple_stage_calls_total' "$work/stdio.out"
    grep -q 'purple_llm_calls_total' "$work/stdio.out"
    ;;
dml)
    # 1. The state-scored NL→DML report (DESIGN.md §15) must be byte-identical
    #    at --jobs 1 vs 4 and with the execution cache on or off.
    "$REPRO" --scale tiny --dml --jobs 1 --metrics "$work/dml1.json"
    "$REPRO" --scale tiny --dml --jobs 4 --metrics "$work/dml4.json"
    "$REPRO" --scale tiny --dml --jobs 4 --metrics "$work/dml-uncached.json" --no-exec-cache
    cmp "$work/dml1.json" "$work/dml4.json"
    cmp "$work/dml1.json" "$work/dml-uncached.json"
    python3 -c "
import json
m = json.load(open('$work/dml1.json'))
assert m['split'] == 'dml', m['split']
assert m['overall']['n'] > 0 and m['overall']['ex'] > 0, m['overall']
assert m['has_ts'], 'DML reports are state-scored and must carry TS'"

    # 2. The family is archivable and diffable like any other run: a cache
    #    flip against the archived baseline gates clean with an all-zero diff.
    reg="$work/runs"
    dml_run=$(archive_run --scale tiny --dml --seed 42 --jobs 2 --archive "$reg")
    test -n "$dml_run"
    "$REPRO" --scale tiny --dml --seed 42 --jobs 4 --archive "$reg" --baseline "$dml_run" \
        --no-exec-cache --gate --diff-out "$work/dml.md" >/dev/null
    grep -q 'All-zero diff' "$work/dml.md"
    ;;
soak)
    # 1. A short bounded soak (DESIGN.md §16): open-loop arrivals for 2s at
    #    30 req/s, one timeline row per 500ms tick, soak section in the
    #    schema-v4 bench summary.
    "$SERVE" --soak 2 --rate 30 --tick-ms 500 --scale tiny --seed 42 --workers 4 \
        --timeline "$work/tl4.ldjson" --bench-out "$work/S4.json" >/dev/null
    python3 - "$work" <<'EOF'
import json, sys
work = sys.argv[1]
rows = [json.loads(line) for line in open(f"{work}/tl4.ldjson")]
assert len(rows) == 4, f"2s at 500ms ticks must give 4 rows, got {len(rows)}"
per_tick = rows[0]["id_hi"] - rows[0]["id_lo"]
for k, r in enumerate(rows):
    for key in ["tick", "id_lo", "id_hi", "offered", "virt_p50", "virt_p95",
                "virt_p99", "virt_work", "completed", "shed", "wall_ms",
                "queue_depth_hwm", "in_flight_hwm", "verdict"]:
        assert key in r, f"timeline row missing {key}: {r}"
    assert r["tick"] == k and r["id_lo"] == k * per_tick, r
    assert r["offered"] == r["id_hi"] - r["id_lo"] == per_tick, r
    assert r["verdict"] in ("healthy", "degraded", "breached"), r
b = json.load(open(f"{work}/S4.json"))
assert b["schema_version"] == 4 and b["run_id"].startswith("run-"), b
s = b["soak"]
assert s and s["ticks"] == 4 and s["offered"] == s["completed"] + s["shed"], s
assert s["virt_work_offered"] == sum(r["virt_work"] for r in rows), s
EOF

    # 2. The virt_* columns (everything before the first measured field) must
    #    be byte-identical across worker counts and arrival seeds; the
    #    measured columns are operational and carry no such contract.
    "$SERVE" --soak 2 --rate 30 --tick-ms 500 --scale tiny --seed 42 --workers 1 \
        --arrival-seed 9 --timeline "$work/tl1.ldjson" \
        --bench-out "$work/S1.json" >/dev/null
    sed 's/,"completed":.*//' "$work/tl4.ldjson" > "$work/virt4"
    sed 's/,"completed":.*//' "$work/tl1.ldjson" > "$work/virt1"
    cmp "$work/virt4" "$work/virt1"

    # 3. The health verb answers over the stdio frontend with the windowed
    #    SLO snapshot as one JSON object.
    printf '%s\n%s\n' \
        '{"id":5,"idx":0,"db_index":0,"nl":"how many","sql":"SELECT a FROM b","linking_noise":0.0,"trace":false,"seed":null}' \
        '{"cmd":"health"}' \
        | "$SERVE" --stdio --scale tiny --seed 42 --workers 2 > "$work/stdio.out"
    grep -q '"health":{"now":' "$work/stdio.out"
    grep -q '"slos":\[{"name":"translate_latency"' "$work/stdio.out"
    grep -q '"verdict":' "$work/stdio.out"
    ;;
perfbench)
    # The benchmark calls the workspace's public API by name, so it must keep
    # building. Each workload exits nonzero when an output check fails:
    # served SQL must equal the direct translation, and every example must be
    # scored.
    bench=(--offline --manifest-path perfbench/Cargo.toml)
    cargo test -q "${bench[@]}"
    for workload in serve eval dml; do
        cargo run -q --release "${bench[@]}" -- \
            --workload "$workload" --seed 1 --seconds 2 --trace 1 > "$work/$workload.out"
    done
    ;;
*)
    echo "unknown mode \`$mode\` (metrics|cache|exec-bench|diagnose|diff|serve|trace|dml|soak|perfbench)" >&2
    exit 2
    ;;
esac
