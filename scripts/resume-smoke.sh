#!/usr/bin/env bash
# Interrupt-rerun smoke test: a sweep killed mid-run and then rerun over the
# same -cachedir must produce byte-identical CSV and telemetry to an
# uninterrupted sweep, must store each cell exactly once, and must answer
# every cell the interrupted run finished from the cache.
#
# Run from the repository root: ./scripts/resume-smoke.sh
set -euo pipefail

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/cameo-sweep" ./cmd/cameo-sweep

args=(-org cameo -bench sphinx3,milc,gcc -sweep seed -values 1,2,3,4,5,6
  -instr 1000000 -cores 16 -jobs 2 -quiet)
cells=18

# records prints how many cells a cache's entry log holds: each record's
# envelope names its schema once.
records() {
  if [ -e "$1/entries.log" ]; then
    grep -a -o 'cameo-cache-entry-v1' "$1/entries.log" | wc -l
  else
    echo 0
  fi
}

# counter prints a runner counter from a -telemetry-timing dump (a zero
# counter has no value line).
counter() {
  awk -v name="\"$2\"," '
    $1 == "\"name\":" && $2 == name { found = 1; next }
    found && /"value"/ { gsub(/[^0-9]/, ""); print; exit }
    found && /}/ { print 0; exit }' "$1"
}

# Reference: an uninterrupted run.
"$workdir/cameo-sweep" "${args[@]}" -cachedir "$workdir/cache-ref" \
  -out "$workdir/ref.csv" -telemetry "$workdir/ref-tel.json"

# Interrupted run: SIGINT mid-sweep. Exit 130 (interrupted) and exit 0
# (the sweep happened to finish before the signal landed) are both fine —
# the checks below hold either way, so this test is not timing-fragile.
"$workdir/cameo-sweep" "${args[@]}" -cachedir "$workdir/cache" \
  -out "$workdir/int.csv" &
pid=$!
sleep 1.5
kill -INT "$pid" 2>/dev/null || true
wait "$pid" && status=0 || status=$?
done_before=$(records "$workdir/cache")
echo "interrupted run exited with status $status after storing $done_before of $cells cells"
cp -r "$workdir/cache" "$workdir/cache-check"

# Rerun over the same cache: completed cells load from it, the rest run.
"$workdir/cameo-sweep" "${args[@]}" -cachedir "$workdir/cache" \
  -out "$workdir/res.csv" -telemetry "$workdir/res-tel.json"

cmp "$workdir/ref.csv" "$workdir/res.csv"
cmp "$workdir/ref-tel.json" "$workdir/res-tel.json"

# The rerun's cache knew every record the interrupted run left: the two
# entry logs are the same size only when no cell was stored twice.
ref_size=$(wc -c < "$workdir/cache-ref/entries.log")
size=$(wc -c < "$workdir/cache/entries.log")
if [ "$size" -ne "$ref_size" ]; then
  echo "entries.log is $size bytes after the rerun, want $ref_size: a cell was stored twice" >&2
  exit 1
fi

# The rerun simulated only what the interrupted run had not stored. A
# store of a cell the cache already holds is dropped, so the log cannot
# show this; an identical rerun over a copy of the interrupted cache, with
# the runner's counters in its telemetry, does.
"$workdir/cameo-sweep" "${args[@]}" -cachedir "$workdir/cache-check" \
  -out "$workdir/check.csv" -telemetry "$workdir/check-tel.json" -telemetry-timing
cmp "$workdir/ref.csv" "$workdir/check.csv"
hits=$(counter "$workdir/check-tel.json" runner/cache_hits)
executed=$(counter "$workdir/check-tel.json" runner/cells_executed)
if [ "$hits" -ne "$done_before" ] || [ "$executed" -ne $((cells - done_before)) ]; then
  echo "rerun: $hits cache hits and $executed cells executed, want $done_before and $((cells - done_before))" >&2
  exit 1
fi
echo "interrupt-rerun smoke test passed ($hits cells from the cache, $executed simulated)"
