#!/usr/bin/env bash
# Fleet smoke test: coordinators sharding real sweeps across cameod
# workers with cross-wired peer caches. Asserts that
#   (a) the fleet's merged report is byte-identical to a single-node run,
#   (b) SIGKILL-ing a worker mid-sweep turns it suspect, the survivor
#       steals its queued cells and the sweep still completes
#       byte-identically,
#   (c) a second fleet run of the same sweep recomputes nothing — the
#       workers' cells_executed counters do not move,
#   (d) a worker SIGKILLed mid-sweep turns suspect and, once restarted,
#       is alive again at the failure detector's next probe; a repeat
#       sweep then recomputes nothing,
#   (e) a coordinator SIGKILLed mid-sweep and restarted at the same
#       address answers the re-posted sweep byte-identically,
#   (f) a heartbeat partition turns a worker suspect and back to alive,
#       with no failed cell and a byte-identical sweep after it,
#   (g) of two coordinators over the same workers, SIGKILL-ing one
#       mid-sweep and re-posting to the other gives the same bytes.
# In (e) and (g) the workers simulate each of the sweep's 16 cells exactly
# once across the killed sweep and the re-post: a coordinator keeps
# nothing on disk, and the workers answer what the lost one completed.
#
# Run from the repository root: ./scripts/fleet-smoke.sh
set -euo pipefail

workdir=$(mktemp -d)
pids=()
trap 'rm -rf "$workdir"; for p in "${pids[@]}"; do kill "$p" 2>/dev/null || true; done' EXIT

go build -o "$workdir/cameod" ./cmd/cameod

ref_addr=127.0.0.1:18440
w1_addr=127.0.0.1:18441
w2_addr=127.0.0.1:18442
co_addr=127.0.0.1:18443

wait_healthy() { # url logfile
  for _ in $(seq 1 50); do
    curl -fsS "$1/healthz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "service at $1 did not become healthy"; cat "$2"; exit 1
}

metric() { # url name
  curl -fsS "$1/metrics" | python3 -c "
import json, sys
for s in json.load(sys.stdin):
    if s['name'] == '$2':
        print(s.get('value', 0)); break
else:
    print(0)"
}

sweep='{"org":"cameo","benchmarks":["sphinx3","milc","gcc"],"sweep":"seed","values":[1,2,3,4],"instr":200000,"cores":4}'

# --- Reference: one standalone worker answers the sweep. -------------------
"$workdir/cameod" -addr "$ref_addr" -cachedir "$workdir/ref-cache" -jobs 2 \
  2>"$workdir/ref.log" &
refpid=$!; pids+=("$refpid")
wait_healthy "http://$ref_addr" "$workdir/ref.log"
curl -fsS -X POST -d "$sweep" "http://$ref_addr/sweep" -o "$workdir/reference.json"
kill -TERM "$refpid"; wait "$refpid" || true

start_worker() { # addr cachedir peer logfile
  "$workdir/cameod" -addr "$1" -cachedir "$2" -peers "http://$3" -jobs 2 \
    -max-inflight 2 2>"$4" &
  pids+=("$!")
  wait_healthy "http://$1" "$4"
}

start_worker "$w1_addr" "$workdir/w1-cache" "$w2_addr" "$workdir/w1.log"
w1pid=${pids[-1]}
start_worker "$w2_addr" "$workdir/w2-cache" "$w1_addr" "$workdir/w2.log"

"$workdir/cameod" -addr "$co_addr" -coordinator \
  -workers "http://$w1_addr,http://$w2_addr" 2>"$workdir/co.log" &
pids+=("$!")
wait_healthy "http://$co_addr" "$workdir/co.log"

# --- (a) Fleet result is byte-identical to the single-node reference. ------
curl -fsS -X POST -d "$sweep" "http://$co_addr/sweep" -o "$workdir/fleet1.json"
cmp "$workdir/reference.json" "$workdir/fleet1.json" || {
  echo "fleet sweep differs from single-node reference"; exit 1; }

# --- (c) A repeat run recomputes nothing anywhere in the fleet. ------------
before=$(( $(metric "http://$w1_addr" server/cells_executed) \
         + $(metric "http://$w2_addr" server/cells_executed) ))
curl -fsS -X POST -d "$sweep" "http://$co_addr/sweep" -o "$workdir/fleet2.json"
cmp "$workdir/reference.json" "$workdir/fleet2.json"
after=$(( $(metric "http://$w1_addr" server/cells_executed) \
        + $(metric "http://$w2_addr" server/cells_executed) ))
if [ "$after" -ne "$before" ]; then
  echo "second fleet run recomputed $((after - before)) cells, want 0"; exit 1
fi

# --- (b) SIGKILL a worker mid-sweep; the survivor absorbs its cells. -------
# A bigger, uncached sweep so the kill lands while cells are in flight.
bigsweep='{"org":"cameo","benchmarks":["sphinx3","milc","gcc","mcf"],"sweep":"seed","values":[5,6,7,8],"instr":2000000,"cores":4}'
curl -fsS -X POST -d "$bigsweep" "http://$ref_addr/sweep" -o /dev/null 2>/dev/null || true
curl -sS -X POST -d "$bigsweep" "http://$co_addr/sweep" -o "$workdir/fleet3.json" &
curlpid=$!
sleep 0.4
kill -KILL "$w1pid" 2>/dev/null || true
wait "$curlpid"

# The sweep completed despite the kill. Verify against a fresh single-node
# reference of the same request.
"$workdir/cameod" -addr "$ref_addr" -cachedir "$workdir/ref2-cache" -jobs 2 \
  2>"$workdir/ref2.log" &
refpid=$!; pids+=("$refpid")
wait_healthy "http://$ref_addr" "$workdir/ref2.log"
curl -fsS -X POST -d "$bigsweep" "http://$ref_addr/sweep" -o "$workdir/reference3.json"
cmp "$workdir/reference3.json" "$workdir/fleet3.json" || {
  echo "post-kill fleet sweep differs from single-node reference"
  cat "$workdir/co.log"; exit 1; }

grep -q "worker http://$w1_addr suspect" "$workdir/co.log" || {
  echo "coordinator log has no suspicion line for the killed worker"; cat "$workdir/co.log"; exit 1; }

echo "fleet smoke test passed"

# === Membership drills: failure detector, recovery on a ready probe, =====
# === coordinator loss, and a bounded heartbeat partition. =================
# A fresh fleet whose coordinator probes every 100 ms, so the detector's
# verdicts land within the drills.
w3_addr=127.0.0.1:18444
w4_addr=127.0.0.1:18445
co2_addr=127.0.0.1:18446
co3_addr=127.0.0.1:18447

wait_metric_ge() { # url name floor
  for _ in $(seq 1 100); do
    v=$(metric "$1" "$2")
    [ "${v%.*}" -ge "$3" ] 2>/dev/null && return 0
    sleep 0.1
  done
  echo "metric $2 at $1 never reached $3 (last: $v)"; return 1
}

executed() { # summed cells_executed of w3 and w4
  echo $(( $(metric "http://$w3_addr" server/cells_executed) \
         + $(metric "http://$w4_addr" server/cells_executed) ))
}

start_coordinator() { # addr logfile
  "$workdir/cameod" -addr "$1" -coordinator \
    -workers "http://$w3_addr,http://$w4_addr" \
    -heartbeat 100ms -suspect-misses 1 2>"$2" &
  pids+=("$!")
  wait_healthy "http://$1" "$2"
}

post_and_kill() { # sweep coordinator-url coordinator-pid
  curl -sS -X POST -d "$1" "$2/sweep" -o /dev/null &
  local curlpid=$!
  sleep 0.4
  kill -KILL "$3" 2>/dev/null || true
  wait "$curlpid" || true
}

# check_repost re-posts a sweep, byte-compares the answer with the
# reference, and requires the workers to have simulated the sweep's 16
# cells exactly once since base (taken before the killed post).
check_repost() { # sweep reference coordinator-url out logfile base
  curl -fsS -X POST -d "$1" "$3/sweep" -o "$4"
  cmp "$2" "$4" || {
    echo "re-posted sweep differs from single-node reference"; cat "$5"; exit 1; }
  local total=$(( $(executed) - $6 ))
  if [ "$total" -ne 16 ]; then
    echo "killed sweep and re-post simulated $total cells, want 16"; cat "$5"; exit 1
  fi
}

start_worker "$w3_addr" "$workdir/w3-cache" "$w4_addr" "$workdir/w3.log"
start_worker "$w4_addr" "$workdir/w4-cache" "$w3_addr" "$workdir/w4.log"
w4pid=${pids[-1]}

start_coordinator "$co2_addr" "$workdir/co2.log"
co2pid=${pids[-1]}

# --- (d) SIGKILL a worker mid-sweep; a probe finds its restart ready. ------
d1sweep='{"org":"cameo","benchmarks":["sphinx3","milc","gcc","mcf"],"sweep":"seed","values":[11,12,13,14],"instr":2000000,"cores":4}'
curl -fsS -X POST -d "$d1sweep" "http://$ref_addr/sweep" -o "$workdir/reference-d1.json"
curl -sS -X POST -d "$d1sweep" "http://$co2_addr/sweep" -o "$workdir/fleet-d1.json" &
curlpid=$!
sleep 0.4
kill -KILL "$w4pid" 2>/dev/null || true
wait "$curlpid"
cmp "$workdir/reference-d1.json" "$workdir/fleet-d1.json" || {
  echo "sweep across a worker loss differs from single-node reference"
  cat "$workdir/co2.log"; exit 1; }

# The failure detector turns the killed worker suspect...
wait_metric_ge "http://$co2_addr" fleet/suspects 1 || { cat "$workdir/co2.log"; exit 1; }
# ...and once the worker restarts, the next heartbeat finds it ready and
# it is alive again.
"$workdir/cameod" -addr "$w4_addr" -cachedir "$workdir/w4-cache" \
  -peers "http://$w3_addr" -jobs 2 -max-inflight 2 \
  2>"$workdir/w4b.log" &
pids+=("$!")
wait_healthy "http://$w4_addr" "$workdir/w4b.log"
recovered="worker http://$w4_addr ready again"
for _ in $(seq 1 50); do
  grep -q "$recovered" "$workdir/co2.log" && break
  sleep 0.1
done
grep -q "$recovered" "$workdir/co2.log" || {
  echo "coordinator log has no recovery line"; cat "$workdir/co2.log"; exit 1; }

# Already-cached cells are not recomputed on the recovered fleet: a repeat
# of the same sweep moves no cells_executed counter anywhere.
before=$(executed)
curl -fsS -X POST -d "$d1sweep" "http://$co2_addr/sweep" -o "$workdir/fleet-d1b.json"
cmp "$workdir/reference-d1.json" "$workdir/fleet-d1b.json"
after=$(executed)
if [ "$after" -ne "$before" ]; then
  echo "recovered fleet recomputed $((after - before)) already-cached cells, want 0"; exit 1
fi

# --- (e) SIGKILL the coordinator mid-sweep; re-post to its restart. -------
# The restarted coordinator has no -cachedir and no state of the lost one:
# its ring places every cell as the lost one's did.
d2sweep='{"org":"cameo","benchmarks":["sphinx3","milc","gcc","mcf"],"sweep":"seed","values":[21,22,23,24],"instr":2000000,"cores":4}'
curl -fsS -X POST -d "$d2sweep" "http://$ref_addr/sweep" -o "$workdir/reference-d2.json"
base=$(executed)
post_and_kill "$d2sweep" "http://$co2_addr" "$co2pid"
echo "(e) cells simulated before the kill: $(( $(executed) - base )) of 16"
start_coordinator "$co2_addr" "$workdir/co2b.log"
check_repost "$d2sweep" "$workdir/reference-d2.json" "http://$co2_addr" \
  "$workdir/fleet-d2.json" "$workdir/co2b.log" "$base"

# --- (f) A bounded heartbeat partition. ------------------------------------
# Inject a deterministic partition that swallows the first 3 heartbeat
# probes to w3: long enough to turn it suspect. The fourth probe finds it
# ready, so it must return to alive, with no failed cell and a
# byte-identical sweep after it.
"$workdir/cameod" -addr "$co3_addr" -coordinator \
  -workers "http://$w3_addr,http://$w4_addr" \
  -heartbeat 100ms -suspect-misses 2 \
  -chaos "fleet/heartbeat:partition:match=$w3_addr:max=3" 2>"$workdir/co3.log" &
pids+=("$!")
wait_healthy "http://$co3_addr" "$workdir/co3.log"

wait_metric_ge "http://$co3_addr" fleet/suspects 1 || { cat "$workdir/co3.log"; exit 1; }
for _ in $(seq 1 100); do
  ready=$(curl -fsS "http://$co3_addr/readyz" | python3 -c "
import json, sys
r = json.load(sys.stdin)
print(1 if len(r.get('workers', [])) == 2 and not r.get('suspect') else 0)")
  [ "$ready" = 1 ] && break
  sleep 0.1
done
[ "$ready" = 1 ] || { echo "partitioned worker never returned to alive"; cat "$workdir/co3.log"; exit 1; }

grep -q "worker http://$w3_addr ready again" "$workdir/co3.log" || {
  echo "coordinator log has no recovery line for the partitioned worker"; cat "$workdir/co3.log"; exit 1; }

# The healed fleet still answers byte-identically (everything is cached)
# and fails no cell.
curl -fsS -X POST -d "$d1sweep" "http://$co3_addr/sweep" -o "$workdir/fleet-d3.json"
cmp "$workdir/reference-d1.json" "$workdir/fleet-d3.json"
v=$(metric "http://$co3_addr" fleet/cells_failed)
if [ "${v%.*}" -ne 0 ]; then
  echo "partition drill failed $v cells, want 0"; cat "$workdir/co3.log"; exit 1
fi

echo "fleet membership drills passed"

# === (g) Two coordinators over one roster: SIGKILL one mid-sweep and =====
# === re-post the sweep to the other. ======================================
co4_addr=127.0.0.1:18448
co5_addr=127.0.0.1:18449

start_coordinator "$co4_addr" "$workdir/co4.log"
co4pid=${pids[-1]}
start_coordinator "$co5_addr" "$workdir/co5.log"

d4sweep='{"org":"cameo","benchmarks":["sphinx3","milc","gcc","mcf"],"sweep":"seed","values":[31,32,33,34],"instr":2000000,"cores":4}'
curl -fsS -X POST -d "$d4sweep" "http://$ref_addr/sweep" -o "$workdir/reference-d4.json"
base=$(executed)
post_and_kill "$d4sweep" "http://$co4_addr" "$co4pid"
echo "(g) cells simulated before the kill: $(( $(executed) - base )) of 16"
check_repost "$d4sweep" "$workdir/reference-d4.json" "http://$co5_addr" \
  "$workdir/fleet-d4.json" "$workdir/co5.log" "$base"

echo "coordinator loss drills passed"
