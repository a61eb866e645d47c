#!/usr/bin/env sh
# CI stage: bench smoke. Runs every criterion bench target once under the
# shim's quick mode (CRITERION_QUICK=1 → one iteration per benchmark), so
# regressions that only break `benches/` are caught before merge without
# paying real measurement time.
#
# Every run also emits a machine-readable BENCH_<stage>.json at the repo
# root (bench name → ns/iter), assembled from the shim's CRITERION_JSON
# NDJSON stream, so the perf trajectory of a branch can be tracked by
# diffing two JSON files instead of scraping bench stdout.
set -eu
cd "$(dirname "$0")/.."

# Absolute paths: cargo runs each bench binary from its package directory,
# so a relative CRITERION_JSON would scatter files across the workspace.
root="$(pwd)"
stage=bench-smoke
ndjson="$root/target/criterion-${stage}.ndjson"
json="$root/BENCH_${stage}.json"
mkdir -p "$root/target"
rm -f "$ndjson"

# Keep the committed numbers around: the kernel regression gate below
# compares the fresh run against them before they are overwritten.
old_json="$root/target/criterion-${stage}-committed.json"
rm -f "$old_json"
if [ -s "$json" ]; then
    cp "$json" "$old_json"
fi

echo "==> CRITERION_QUICK=1 cargo bench -p posit-bench"
CRITERION_QUICK=1 CRITERION_JSON="$ndjson" cargo bench -p posit-bench

# Assemble {"bench": ns, …} from the one-object-per-line NDJSON stream.
if [ -s "$ndjson" ]; then
    awk '
        {
            line = $0
            sub(/^\{"bench":/, "", line)
            sub(/,"ns_per_iter":/, ": ", line)
            sub(/\}$/, "", line)
            lines[NR] = line
        }
        END {
            print "{"
            for (i = 1; i <= NR; i++)
                printf "  %s%s\n", lines[i], (i < NR ? "," : "")
            print "}"
        }
    ' "$ndjson" > "$json"
    echo "==> wrote ${json#"$root"/} ($(wc -l < "$ndjson") benchmarks)"
else
    echo "==> no bench records captured; $json not written" >&2
    exit 1
fi

# Regression gate: the posit-quire GEMM rows, the serve rows built on
# them, the plane_decode rows (the decode LUT fast paths feeding every
# kernel) and the quantize_slice / eq3_shifted_quantize rows (the Eq. 3
# P(.) operator on the encode table, run at every Fig. 3 edge) must not
# regress more than 1.5x against the previous run's JSON. The
# telemetry-overhead rows (mlp.obs-off/posit-quire and
# mlp.obs-on/posit-quire from benches/backends.rs) match the same
# pattern, so both the disabled cost of posit-obs (one relaxed atomic
# load per kernel call) and its enabled cost are held inside the gate.
# The baseline is always same-machine: BENCH_*.json is
# gitignored, so the file at the repo root is whatever the *last run on
# this box* wrote (a fresh clone has no baseline and skips the gate) —
# absolute wall times are never compared across machines. Other rows are
# informational — micro-bench noise is real even with the shim's
# quick-mode warm-up — but a >1.5x slide on a millisecond-scale GEMM on
# the same box is a code change, not noise.
if [ -s "$old_json" ]; then
    echo "==> kernel regression gate (limit 1.5x vs committed JSON)"
    awk '
        # "  "lenet.fc1/posit-quire": 1234," -> key | value
        match($0, /"((lenet|mlp|serve)\.[^"]*\/posit-quire|(plane_decode|quantize_slice|eq3_shifted_quantize)\/[^"]*)"/) {
            key = substr($0, RSTART + 1, RLENGTH - 2)
            val = $0
            sub(/^[^:]*: */, "", val)
            sub(/,?[[:space:]]*$/, "", val)
            if (FNR == NR) { old[key] = val + 0 }
            else { new[key] = val + 0 }
        }
        END {
            status = 0
            for (key in old) {
                if (!(key in new)) {
                    printf "    MISSING  %-28s (was %.0f ns/iter)\n", key, old[key]
                    status = 1
                    continue
                }
                ratio = old[key] > 0 ? new[key] / old[key] : 0
                verdict = ratio > 1.5 ? "REGRESSED" : "ok"
                printf "    %-9s %-28s %12.0f -> %12.0f ns/iter (%.2fx)\n", \
                    verdict, key, old[key], new[key], ratio
                if (ratio > 1.5) status = 1
            }
            if (status) {
                print "==> FAIL: a gated kernel row regressed >1.5x vs committed BENCH json" \
                    > "/dev/stderr"
            }
            exit status
        }
    ' "$old_json" "$json"
else
    echo "==> no committed BENCH json to gate against (first run)"
fi
