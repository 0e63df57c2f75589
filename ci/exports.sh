#!/usr/bin/env bash
# Write every artifact the byte-identity oracle compares, with wall-clock
# fields stripped, so two builds can be compared with one `diff -r`.
#
# Usage: ci/exports.sh BIN_DIR OUT_DIR
#
# BIN_DIR holds the release `repro` and `purple-serve` binaries (for example
# target/release). OUT_DIR must not exist yet; it receives:
#
#   all.txt            stdout of `repro --scale tiny --all --jobs 2`
#   metrics.json       `repro --scale medium --jobs 2 --metrics` JSON
#   diagnose.md        tiny-scale `--diagnose` blame table
#   events.jsonl       tiny-scale `--events` JSONL
#   archive.txt        the `--archive` run id line
#   dml.txt, dml.json  stdout and report JSON of `repro --scale tiny --dml --metrics`
#   serve-trace.json   `purple-serve` Chrome trace (virtual clock) from the soak below
#   serve-bench.json   its bench summary without wall-clock fields: run id,
#                      every stage's path/count/virt_*, and the soak's
#                      virt_work_offered
#   serve-timeline.txt its soak timeline, each line cut at `,"completed":`
#
# Comparing a parent build with a change:
#
#   ci/exports.sh parent/target/release out-parent
#   ci/exports.sh target/release out-change
#   diff -r out-parent out-change
#
# Both runs start in a temporary directory, so neither writes into the caller's
# working tree. The commands' stderr goes to a log that is printed if the
# script fails.
set -euo pipefail

bin=$(cd "${1:?usage: ci/exports.sh BIN_DIR OUT_DIR}" && pwd)
out=${2:?usage: ci/exports.sh BIN_DIR OUT_DIR}
mkdir "$out"
out=$(cd "$out" && pwd)
work=$(mktemp -d)
log="$work/stderr.log"
: > "$log"
trap 'status=$?; [ "$status" -eq 0 ] || cat "$log" >&2; rm -rf "$work"' EXIT
cd "$work"

repro() { "$bin/repro" "$@" 2>>"$log"; }

repro --scale tiny --all --jobs 2 > "$out/all.txt"
repro --scale medium --jobs 2 --metrics "$out/metrics.json" > /dev/null
repro --scale tiny --jobs 2 --diagnose "$out/diagnose.md" --events "$out/events.jsonl" > /dev/null
repro --scale tiny --seed 42 --jobs 2 --archive "$work/runs" | grep '^run_id=' > "$out/archive.txt"
repro --scale tiny --dml --jobs 2 --metrics "$out/dml.json" > "$out/dml.txt"

"$bin/purple-serve" --load-gen 200 --soak 10 --rate 24 --tick-ms 1000 --scale tiny \
    --seed 42 --workers 4 --trace-out "$out/serve-trace.json" \
    --bench-out "$work/serve-bench.json" --timeline "$work/timeline.ldjson" \
    > /dev/null 2>>"$log"
sed 's/,"completed":.*//' "$work/timeline.ldjson" > "$out/serve-timeline.txt"
python3 - "$work/serve-bench.json" > "$out/serve-bench.json" <<'EOF'
import json, sys
b = json.load(open(sys.argv[1]))
kept = {
    "run_id": b["run_id"],
    "stages": [
        {k: v for k, v in s.items() if k in ("path", "count") or k.startswith("virt_")}
        for s in b["stages"]
    ],
    "soak_virt_work_offered": b["soak"]["virt_work_offered"],
}
print(json.dumps(kept, indent=1, sort_keys=True))
EOF
