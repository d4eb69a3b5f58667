#!/usr/bin/env bash
# Distributed-mining smoke: launches real `frapp worker` OS processes on
# loopback ports, mines through the coordinator, and asserts the report is
# byte-identical to the single-process pipeline's on the same data — the
# cross-process half of the bit-identity invariant the ctest grid proves
# in-process.
#
# Scenario 2 is the fault-tolerance drill: 3 workers, one SIGKILLed the
# moment it enters the session. The coordinator must detect the death,
# re-assign the dead worker's rows to the survivors, and STILL produce the
# byte-identical report.
#
# Usage: tools/dist_smoke.sh [build-dir]    (default: <repo-root>/build)

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
frapp="$build_dir/frapp_cli"

if [[ ! -x "$frapp" ]]; then
  echo "FATAL: $frapp not built (cmake --build $build_dir --target frapp_cli)" >&2
  exit 1
fi

rows=20000
gen_seed=321
perturb_seed=17
num_workers=2
tmp_dir="$(mktemp -d)"
worker_pids=()

cleanup() {
  # SIGKILL, not SIGTERM: a worker blocked in recv() must die NOW, and a
  # half-dead worker holding its port would poison a rerun.
  for pid in "${worker_pids[@]}"; do
    kill -9 "$pid" 2>/dev/null || true
  done
  for pid in "${worker_pids[@]}"; do
    wait "$pid" 2>/dev/null || true
  done
  rm -rf "$tmp_dir"
}
trap cleanup EXIT

# Every worker holds the SAME deterministic generated table and is assigned
# a disjoint row range by the coordinator; --once exits after one session.
# Workers bind ephemeral ports (--listen 0) and announce the real one on
# stdout, so the smoke never races another process for a fixed port.
# Set hang_worker=N to give worker N a FIFO with no writer as its input:
# it accepts the coordinator's session, then blocks forever in ingest — a
# deterministic stand-in for a hung or about-to-die worker (no timing
# races: it CANNOT answer until killed). Its data never matters because it
# never ingests a row.
launch_workers() {
  worker_pids=()
  endpoints=""
  for w in $(seq 1 "$num_workers"); do
    local src_args=(--rows "$rows" --gen-seed "$gen_seed")
    if [[ -n "${hang_worker:-}" && "$w" -eq "$hang_worker" ]]; then
      rm -f "$tmp_dir/hang.csv"
      mkfifo "$tmp_dir/hang.csv"
      src_args=(--in "$tmp_dir/hang.csv")
    fi
    "$frapp" worker --listen 0 --dataset census \
      "${src_args[@]}" --once \
      > "$tmp_dir/worker_$w.log" 2>&1 &
    worker_pids+=($!)
  done
  for w in $(seq 1 "$num_workers"); do
    local port="" tries=0
    while [[ -z "$port" ]]; do
      port="$(sed -n 's/^frapp worker listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
              "$tmp_dir/worker_$w.log")"
      [[ -n "$port" ]] && break
      tries=$((tries + 1))
      if [[ $tries -gt 100 ]]; then
        echo "FAIL: worker $w never announced its port" >&2
        cat "$tmp_dir/worker_$w.log" >&2 || true
        exit 1
      fi
      sleep 0.1
    done
    endpoints="${endpoints:+$endpoints,}127.0.0.1:$port"
  done
}

for mechanism in det-gd mask cp; do
  echo "=== $mechanism: $num_workers workers vs single-process pipeline ==="
  launch_workers

  "$frapp" mine --dataset census --mechanism "$mechanism" \
    --workers "$endpoints" --rows "$rows" --seed "$perturb_seed" \
    > "$tmp_dir/dist_$mechanism.out" 2> "$tmp_dir/dist_$mechanism.err"

  "$frapp" mine --dataset census --mechanism "$mechanism" --run-pipeline \
    --rows "$rows" --gen-seed "$gen_seed" --seed "$perturb_seed" \
    > "$tmp_dir/local_$mechanism.out" 2> /dev/null

  if ! diff "$tmp_dir/local_$mechanism.out" "$tmp_dir/dist_$mechanism.out"; then
    echo "FAIL: $mechanism distributed output differs from the pipeline" >&2
    cat "$tmp_dir"/worker_*.log >&2 || true
    exit 1
  fi

  for pid in "${worker_pids[@]}"; do
    wait "$pid"
  done
  cat "$tmp_dir/dist_$mechanism.err"
  echo "OK: $mechanism parity holds"
done

# --- Scenario 2: SIGKILL a worker mid-mine ----------------------------------
# 3 workers; worker 3 hangs in ingest (FIFO input), so the mine is pinned
# on its handshake ack when the SIGKILL lands (no FIN, no cleanup — the
# worst death; the kernel resets its sockets). The coordinator must declare
# it dead, re-assign its rows to the two survivors, and the final report
# must STILL be byte-identical to the pipeline's.
echo "=== recovery: 3 workers, worker 3 SIGKILLed mid-mine ==="
num_workers=3
hang_worker=3
launch_workers
hang_worker=""
victim_pid="${worker_pids[2]}"

"$frapp" mine --dataset census --mechanism det-gd \
  --workers "$endpoints" --rows "$rows" --seed "$perturb_seed" \
  --request-deadline-ms 10000 \
  > "$tmp_dir/dist_recovery.out" 2> "$tmp_dir/dist_recovery.err" &
coord_pid=$!

tries=0
until grep -q "accepted session" "$tmp_dir/worker_3.log" 2>/dev/null; do
  tries=$((tries + 1))
  if [[ $tries -gt 600 ]]; then
    echo "FAIL: worker 3 never entered a session" >&2
    kill "$coord_pid" 2>/dev/null || true
    exit 1
  fi
  sleep 0.05
done
kill -9 "$victim_pid"
echo "SIGKILLed worker 3 (pid $victim_pid) mid-mine"

if ! wait "$coord_pid"; then
  echo "FAIL: coordinator did not survive the worker kill" >&2
  cat "$tmp_dir/dist_recovery.err" >&2
  cat "$tmp_dir"/worker_*.log >&2 || true
  exit 1
fi
if ! diff "$tmp_dir/local_det-gd.out" "$tmp_dir/dist_recovery.out"; then
  echo "FAIL: recovered distributed output differs from the pipeline" >&2
  cat "$tmp_dir/dist_recovery.err" >&2
  exit 1
fi
if ! grep -q "dist recovery: 1 worker(s) failed" "$tmp_dir/dist_recovery.err"; then
  echo "FAIL: coordinator never reported the recovery" >&2
  cat "$tmp_dir/dist_recovery.err" >&2
  exit 1
fi
for pid in "${worker_pids[@]}"; do
  [[ "$pid" == "$victim_pid" ]] && continue
  wait "$pid"
done
wait "$victim_pid" 2>/dev/null || true
cat "$tmp_dir/dist_recovery.err"
echo "OK: kill-mid-mine recovery preserves parity"

# --- Scenario 2b: a HUNG worker (no death, no FIN — just silence) -----------
# Worker 3 hangs in ingest and is never killed during the mine: nothing
# ever closes its sockets, so only the receive DEADLINE can unmask it. The
# coordinator must time out its handshake ack, declare it dead, and
# recover to the identical report.
echo "=== recovery: 3 workers, worker 3 hung (deadline detection) ==="
num_workers=3
hang_worker=3
launch_workers
hang_worker=""
victim_pid="${worker_pids[2]}"

if ! "$frapp" mine --dataset census --mechanism det-gd \
  --workers "$endpoints" --rows "$rows" --seed "$perturb_seed" \
  --request-deadline-ms 2000 --retry-attempts 2 \
  > "$tmp_dir/dist_hung.out" 2> "$tmp_dir/dist_hung.err"; then
  echo "FAIL: coordinator did not survive the hung worker" >&2
  cat "$tmp_dir/dist_hung.err" >&2
  exit 1
fi
if ! diff "$tmp_dir/local_det-gd.out" "$tmp_dir/dist_hung.out"; then
  echo "FAIL: hung-worker output differs from the pipeline" >&2
  cat "$tmp_dir/dist_hung.err" >&2
  exit 1
fi
if ! grep -q "dist recovery: 1 worker(s) failed" "$tmp_dir/dist_hung.err"; then
  echo "FAIL: coordinator never reported the hung worker" >&2
  cat "$tmp_dir/dist_hung.err" >&2
  exit 1
fi
kill -9 "$victim_pid"
for pid in "${worker_pids[@]}"; do
  [[ "$pid" == "$victim_pid" ]] && continue
  wait "$pid"
done
wait "$victim_pid" 2>/dev/null || true
cat "$tmp_dir/dist_hung.err"
echo "OK: hung-worker deadline detection preserves parity"

# --- Scenario 3: deterministic fault injection ------------------------------
# No timing races: the coordinator's own connection to worker 1 is scripted
# (--fault-spec) to close right after the handshake, forcing the same
# dead-worker re-assignment path on every run.
echo "=== fault injection: worker 1's connection closes after its handshake ==="
rows=20000
num_workers=2
launch_workers

"$frapp" mine --dataset census --mechanism det-gd \
  --workers "$endpoints" --rows "$rows" --seed "$perturb_seed" \
  --fault-spec "1:close-recv=1" \
  > "$tmp_dir/dist_fault.out" 2> "$tmp_dir/dist_fault.err"

if ! diff "$tmp_dir/local_det-gd.out" "$tmp_dir/dist_fault.out"; then
  echo "FAIL: fault-injected output differs from the pipeline" >&2
  cat "$tmp_dir/dist_fault.err" >&2
  exit 1
fi
if ! grep -q "dist recovery: 1 worker(s) failed" "$tmp_dir/dist_fault.err"; then
  echo "FAIL: coordinator never reported the injected failure" >&2
  cat "$tmp_dir/dist_fault.err" >&2
  exit 1
fi
# Worker 1's session ends with a transport error (its peer vanished), so
# only worker 0 is expected to exit cleanly.
wait "${worker_pids[0]}"
wait "${worker_pids[1]}" 2>/dev/null || true
cat "$tmp_dir/dist_fault.err"
echo "OK: injected-fault recovery preserves parity"

echo "dist smoke passed: parity, kill + hung recovery, injected faults"
