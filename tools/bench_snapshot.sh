#!/usr/bin/env bash
# Record a machine-readable benchmark snapshot.
#
# Runs the configuration-search-relevant benches (keyword_mapping, the
# search_stress scenarios, join_inference), the tracing-overhead pair, and
# the serving plane (service_throughput: in-process throughput plus the
# closed-loop socket load harness, whose BENCHJSON lines carry client-side
# p50/p99 latency, shed rate at fixed offered load, and wire bytes per
# request for each codec, plus the Zipfian translation-cache phases whose
# lines carry hot-repeat/cold-miss p50/p99 and hit rate) through the
# vendored criterion harness, and
# collects their BENCHJSON result lines into one JSON document, so the
# repository's perf trajectory is recorded per PR instead of living in
# commit messages.  The scale_data_plane group records the data plane's
# macro phases (scaled-log build, post-churn publish, v4 snapshot
# write/read, bounded-memory WAL recovery) at 1x/100x/1000x MAS scale.
#
# Usage:
#   tools/bench_snapshot.sh <output.json> [mean|smoke]
#
#   <output.json>    — where the snapshot is written (required; the output
#                      name is the caller's, not a hard-coded BENCH_PRn)
#   mean   (default) — measure and record mean ns/iter for every benchmark
#   smoke            — run every benchmark body once, unmeasured (CI-fast;
#                      records null means, proving the benches execute)

set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
  echo "usage: $0 <output.json> [mean|smoke]" >&2
  exit 2
fi
OUT="$1"
MODE="${2:-mean}"
BENCHES=(keyword_mapping search_stress join_inference tracing_overhead service_throughput scale_data_plane)

EXTRA_ARGS=()
if [ "$MODE" = "smoke" ]; then
  EXTRA_ARGS+=(--test)
elif [ "$MODE" != "mean" ]; then
  echo "usage: $0 <output.json> [mean|smoke]" >&2
  exit 2
fi

lines="$(mktemp)"
trap 'rm -f "$lines"' EXIT

for bench in "${BENCHES[@]}"; do
  echo "== cargo bench -p bench --bench $bench (${MODE})" >&2
  BENCH_JSON=1 cargo bench -p bench --bench "$bench" -- ${EXTRA_ARGS[@]+"${EXTRA_ARGS[@]}"} \
    | tee /dev/stderr \
    | sed -n 's/^BENCHJSON //p' >> "$lines"
done

{
  printf '{\n  "mode": "%s",\n  "results": [\n' "$MODE"
  sed 's/^/    /' "$lines" | sed '$!s/$/,/'
  printf '  ]\n}\n'
} > "$OUT"

echo "wrote $(wc -l < "$lines") benchmark results to $OUT" >&2

# Per-benchmark deltas against the most recent previous BENCH_*.json, so a
# PR's perf movement is visible the moment the snapshot is recorded instead
# of requiring a by-hand diff in review.  Criterion-style entries compare
# mean ns/iter; load-harness entries compare client-side p50.
prev=""
for candidate in $(ls -1 BENCH_*.json 2>/dev/null | sort -V); do
  [ "$candidate" -ef "$OUT" ] && continue
  prev="$candidate"
done

if [ -n "$prev" ] && command -v jq >/dev/null 2>&1; then
  echo "== deltas vs $prev" >&2
  jq -r --slurpfile old "$prev" '
    ($old[0].results | map({key: .id, value: .}) | from_entries) as $base
    | .results[]
    | . as $new
    | $base[$new.id] as $o
    | select($o != null)
    | (if ($new.mean_ns != null and $o.mean_ns != null) then
         {metric: "mean", nv: ($new.mean_ns / 1000), ov: ($o.mean_ns / 1000)}
       elif ($new.p50_us != null and $o.p50_us != null) then
         {metric: "p50", nv: $new.p50_us, ov: $o.p50_us}
       else empty end) as $m
    | select($m.ov > 0)
    | "\($new.id)\t\($m.metric)\t\($m.nv)\t\($m.ov)"
  ' "$OUT" | awk -F'\t' '{
      d = $3 - $4
      printf "  %-50s %-4s %12.1f µs  (%+10.1f µs, %+7.1f%%)\n", $1, $2, $3, d, 100 * d / $4
    }' >&2
elif [ -z "$prev" ]; then
  echo "no previous BENCH_*.json snapshot — skipping deltas" >&2
fi
