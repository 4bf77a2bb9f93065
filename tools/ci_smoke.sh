#!/usr/bin/env bash
# End-to-end CI smoke steps, factored out of .github/workflows/ci.yml so
# the same logic runs locally under ctest (`ctest -R smoke`) and in the
# workflow — the workflow keeps only build/matrix/artifact plumbing.
#
# Usage:
#   tools/ci_smoke.sh fit_ingest    MLPCTL WORKDIR
#   tools/ci_smoke.sh fit_barrier   MLPCTL WORKDIR
#   tools/ci_smoke.sh scale_serve   MLPCTL WORKDIR
#   tools/ci_smoke.sh live_pipeline MLPCTL WORKDIR
#   tools/ci_smoke.sh bench_micro   BENCH_MICRO_BINARY
#   tools/ci_smoke.sh perf_bench    BUILDDIR
#
# World sizes are small (bitrot gates, not perf runs) and overridable via
# MLP_SMOKE_* so a beefier machine can scale them up.
set -euo pipefail

step="${1:?usage: ci_smoke.sh <step> <binary-or-builddir> [workdir]}"

log() { printf '== %s\n' "$*"; }

# Fit a small model end to end, stream a delta into it, and publish the
# snapshot — every run leaves a loadable artifact of the current on-disk
# format, exercised through the offline ingest path too.
fit_ingest() {
  local mlpctl="${1:?mlpctl path}" work="${2:?workdir}"
  rm -rf "$work" && mkdir -p "$work"
  local users="${MLP_SMOKE_FIT_USERS:-800}"

  "$mlpctl" generate --users "$users" --seed 7 --out "$work/data"
  "$mlpctl" fit --data "$work/data" --save "$work/model.snap" \
    --burn 4 --sampling 4 --threads 4 --profile \
    --trace "$work/trace.json" | tee "$work/fit.log"
  "$mlpctl" eval --data "$work/data" --load "$work/model.snap"

  mkdir -p "$work/delta"
  printf 'handle,profile_location,registered_city\nsmoke_new_a,"Austin, TX",3\nsmoke_new_b,,-1\n' \
    > "$work/delta/users.csv"
  printf 'follower,friend\n%s,5\n%s,%s\n10,%s\n' \
    "$users" "$((users + 1))" "$users" "$((users + 1))" \
    > "$work/delta/following.csv"
  printf 'user,venue\n%s,3\n%s,7\n' "$users" "$((users + 1))" \
    > "$work/delta/tweeting.csv"
  "$mlpctl" ingest --data "$work/data" --load "$work/model.snap" \
    --delta "$work/delta" --save "$work/model2.snap" \
    --save-data "$work/data2"
  # Ingest is deterministic end to end: the same delta on the same base
  # writes the same bytes.
  "$mlpctl" ingest --data "$work/data" --load "$work/model.snap" \
    --delta "$work/delta" --save "$work/model2b.snap"
  cmp "$work/model2.snap" "$work/model2b.snap" \
    || { log "repeated ingest wrote a different snapshot"; exit 1; }
  "$mlpctl" eval --data "$work/data2" --load "$work/model2.snap"
  log "fit_ingest OK"
}

# The parallel engine must not idle at the barrier: barrier wait under 25%
# of sweep time for a 4-worker fit. A wall-clock share, so it is a
# measurement only on an otherwise idle machine — not a ctest (parallel
# tests inflate it); CI's Release leg runs it explicitly. Derived barrier
# time is only meaningful when the 4 workers have real cores —
# oversubscribed machines count descheduled time as "waiting" — so the
# assertion requires >= 4 hardware threads.
fit_barrier() {
  local mlpctl="${1:?mlpctl path}" work="${2:?workdir}"
  rm -rf "$work" && mkdir -p "$work"
  local users="${MLP_SMOKE_FIT_USERS:-800}"

  "$mlpctl" generate --users "$users" --seed 7 --out "$work/data"
  "$mlpctl" fit --data "$work/data" --save "$work/model.snap" \
    --burn 4 --sampling 4 --threads 4 --profile | tee "$work/fit.log"
  local barrier_pct
  barrier_pct=$(awk '/^barrier wait/ { gsub("%", "", $NF); print $NF }' \
    "$work/fit.log")
  log "barrier wait share: ${barrier_pct}%"
  if [ "$(nproc)" -ge 4 ]; then
    awk -v p="$barrier_pct" 'BEGIN { if (p == "" || p + 0 >= 25.0) exit 1 }' \
      || { log "barrier wait ${barrier_pct}% >= 25% of sweep time"; exit 1; }
  else
    log "skipping barrier assertion: $(nproc) hardware threads (< 4)"
  fi
  log "fit_barrier OK"
}

# ISSUE 8 out-of-core pipeline: stream-generate a world, fit it under a
# memory budget, pack the snapshot with the serve section, and self-check
# the mmap-backed server — all through the CLI.
scale_serve() {
  local mlpctl="${1:?mlpctl path}" work="${2:?workdir}"
  rm -rf "$work" && mkdir -p "$work"
  local users="${MLP_SMOKE_SCALE_USERS:-2000}"

  "$mlpctl" genworld --users "$users" --seed 11 --stream --out "$work/data"
  "$mlpctl" fit --data "$work/data" --save "$work/model.snap" \
    --burn 3 --sampling 2 --threads 2 --mem_budget_mb 512 --profile
  "$mlpctl" pack --data "$work/data" --load "$work/model.snap"
  "$mlpctl" serve --load "$work/model.snap" --mmap --selfcheck
  log "scale_serve OK"
}

# ISSUE 10 live ingest+serve daemon: start `serve --spool`, drop three
# delta batches (one deliberately malformed) while a query hammer runs,
# and assert the generation advanced twice, the malformed batch was
# quarantined with a receipt, zero non-2xx responses landed, the drain
# checkpointed, and the access log covers the whole run.
live_pipeline() {
  local mlpctl="${1:?mlpctl path}" work="${2:?workdir}"
  rm -rf "$work" && mkdir -p "$work/spool"
  local users="${MLP_SMOKE_LIVE_USERS:-400}"

  "$mlpctl" generate --users "$users" --seed 19 --out "$work/data"
  "$mlpctl" fit --data "$work/data" --save "$work/model.snap" \
    --burn 2 --sampling 2 --threads 2

  # Fail-fast satellite: a nonexistent spool dir must abort startup.
  if "$mlpctl" serve --data "$work/data" --load "$work/model.snap" \
      --port 0 --spool "$work/no-such-spool" > "$work/badspool.log" 2>&1; then
    log "serve accepted a nonexistent spool dir"; exit 1
  fi
  grep -q "live ingest failed" "$work/badspool.log" \
    || { log "missing fail-fast diagnostic"; cat "$work/badspool.log"; exit 1; }

  "$mlpctl" serve --data "$work/data" --load "$work/model.snap" --port 0 \
    --spool "$work/spool" --spool_poll_ms 50 --save "$work/final.snap" \
    --access_log="$work/access.log" > "$work/serve.log" 2>&1 &
  local serve_pid=$!
  local port=""
  for _ in $(seq 1 100); do
    port=$(grep -oE 'http://127\.0\.0\.1:[0-9]+' "$work/serve.log" \
      | head -n1 | grep -oE '[0-9]+$' || true)
    [ -n "$port" ] && break
    sleep 0.1
  done
  [ -n "$port" ] || { log "server never reported its port"; cat "$work/serve.log"; exit 1; }
  log "live server on port $port (pid $serve_pid)"

  # Query hammer: loop bounded probes until told to stop, so the 2xx
  # assertion spans every swap no matter how long the applies take.
  (
    while [ ! -f "$work/hammer.stop" ]; do
      if ! "$mlpctl" probe --port "$port" --target /v1/user/0 \
          --count 200 --interval_ms 2 >> "$work/hammer.log" 2>&1; then
        echo fail >> "$work/hammer.failures"
      fi
    done
  ) &
  local hammer_pid=$!

  # Three batches through the rename-in protocol; batch-002 is malformed
  # (non-numeric registered_city) and must quarantine without a swap, so
  # batch-003's user ids follow batch-001's directly.
  spool_batch() {  # name first_user_id malformed?
    local name="$1" first="$2" malformed="${3:-}"
    mkdir -p "$work/spool/tmp.$name"
    if [ -n "$malformed" ]; then
      printf 'handle,profile_location,registered_city\nbad_user,,notanumber\n' \
        > "$work/spool/tmp.$name/users.csv"
    else
      printf 'handle,profile_location,registered_city\nlive_%s_a,"Austin, TX",3\nlive_%s_b,,-1\n' \
        "$name" "$name" > "$work/spool/tmp.$name/users.csv"
      printf 'follower,friend\n%s,5\n%s,%s\n10,%s\n' \
        "$first" "$((first + 1))" "$first" "$((first + 1))" \
        > "$work/spool/tmp.$name/following.csv"
      printf 'user,venue\n%s,3\n%s,7\n' "$first" "$((first + 1))" \
        > "$work/spool/tmp.$name/tweeting.csv"
    fi
    mv "$work/spool/tmp.$name" "$work/spool/$name"
  }
  spool_batch batch-001 "$users"
  spool_batch batch-002 0 malformed
  spool_batch batch-003 "$((users + 2))"

  # Wait for two applies + one quarantine to land (spool moves are the
  # post-swap commit markers).
  local ok=""
  for _ in $(seq 1 600); do
    if [ -d "$work/spool/done/batch-001" ] \
        && [ -d "$work/spool/done/batch-003" ] \
        && [ -f "$work/spool/failed/batch-002/receipt.json" ]; then
      ok=1; break
    fi
    sleep 0.1
  done
  [ -n "$ok" ] || { log "batches never finished"; ls -R "$work/spool"; cat "$work/serve.log"; exit 1; }

  # Generation advanced twice (1 -> 3) and the daemon's counters agree.
  "$mlpctl" probe --port "$port" --target /statsz --out "$work/statsz.json"
  grep -q '"model_generation":"3"' "$work/statsz.json" \
    || { log "generation did not reach 3"; cat "$work/statsz.json"; exit 1; }
  grep -q '"live_batches_applied":"2"' "$work/statsz.json" \
    || { log "expected 2 applied batches"; cat "$work/statsz.json"; exit 1; }
  grep -q '"live_batches_failed":"1"' "$work/statsz.json" \
    || { log "expected 1 quarantined batch"; cat "$work/statsz.json"; exit 1; }
  # /statsz and /metricsz read the same registry: the swap count and the
  # applied-batch count agree across both pages.
  grep -q '"model_swaps":"2"' "$work/statsz.json" \
    || { log "expected 2 model swaps in /statsz"; cat "$work/statsz.json"; exit 1; }
  "$mlpctl" probe --port "$port" --target /metricsz --out "$work/metricsz.txt"
  grep -qx 'serve_model_swaps_total 2' "$work/metricsz.txt" \
    || { log "expected serve_model_swaps_total 2"; cat "$work/metricsz.txt"; exit 1; }
  grep -qx 'ingest_live_batches_total 2' "$work/metricsz.txt" \
    || { log "expected ingest_live_batches_total 2"; cat "$work/metricsz.txt"; exit 1; }
  grep -q '"error"' "$work/spool/failed/batch-002/receipt.json" \
    || { log "receipt lacks an error"; exit 1; }
  # The new users serve (both swaps are live).
  "$mlpctl" probe --port "$port" --target "/v1/user/$users" --count 1
  "$mlpctl" probe --port "$port" --target "/v1/user/$((users + 3))" --count 1

  # Stop the hammer: every bounded probe must have exited 2xx-clean.
  touch "$work/hammer.stop"
  wait "$hammer_pid"
  if [ -f "$work/hammer.failures" ]; then
    log "hammer saw non-2xx responses"; tail "$work/hammer.log"; exit 1
  fi
  local loops
  loops=$(grep -c 'all 2xx' "$work/hammer.log" || true)
  [ "${loops:-0}" -ge 1 ] || { log "hammer never completed a pass"; exit 1; }

  # Graceful drain: SIGTERM finishes in-flight work, checkpoints, exits 0.
  kill -TERM "$serve_pid"
  wait "$serve_pid" || { log "serve exited nonzero on SIGTERM"; cat "$work/serve.log"; exit 1; }
  [ -s "$work/final.snap" ] || { log "drain checkpoint missing"; exit 1; }
  grep -q 'live ingest: 2 batches applied, 1 quarantined' "$work/serve.log" \
    || { log "drain summary mismatch"; cat "$work/serve.log"; exit 1; }

  # Access log covers the whole run: at least every hammer request logged.
  local expect_lines=$((loops * 200)) got_lines
  got_lines=$(wc -l < "$work/access.log")
  [ "$got_lines" -ge "$expect_lines" ] \
    || { log "access log too short: $got_lines < $expect_lines"; exit 1; }
  log "live_pipeline OK: $loops hammer passes, $got_lines access-log lines"
}

# Prove the google-benchmark micro suite still builds and executes; its
# main() also runs the obs overhead guards (fit-sweep + per-request trace).
bench_micro() {
  local bench="${1:?bench_micro path}"
  # BM_JsonDouble/BM_ReadModelBuild keep the serve-section render cost in
  # the job log, BM_EngineSweepW2 the two-worker engine sweep's. No
  # wall-clock bound on either. Bare-double min_time parses on every
  # google-benchmark vintage; the "0.01s" suffix form is rejected before 1.8.
  "$bench" \
    --benchmark_filter='BM_Haversine|BM_JsonDouble|BM_ReadModelBuild|BM_EngineSweepW2' \
    --benchmark_min_time=0.01
  log "bench_micro OK"
}

# Machine-readable perf trajectory, tracked PR-over-PR. Small worlds —
# these runs gate bitrot and archive the numbers, not absolute perf.
perf_bench() {
  local build="${1:?build dir}"
  MLP_BENCH_PRUNE_USERS="${MLP_BENCH_PRUNE_USERS:-2000}" \
    MLP_BENCH_JSON_DIR="$build" "$build/bench_candidate_pruning"
  MLP_BENCH_SCALING_USERS="${MLP_BENCH_SCALING_USERS:-10000}" \
    MLP_BENCH_JSON_DIR="$build" "$build/bench_parallel_scaling"
  MLP_BENCH_SERVE_USERS="${MLP_BENCH_SERVE_USERS:-600}" \
    MLP_BENCH_JSON_DIR="$build" "$build/bench_serving_latency"
  MLP_BENCH_STREAM_USERS="${MLP_BENCH_STREAM_USERS:-2000}" \
    MLP_BENCH_JSON_DIR="$build" "$build/bench_streaming_ingest"
  MLP_BENCH_LIVE_USERS="${MLP_BENCH_LIVE_USERS:-1200}" \
    MLP_BENCH_JSON_DIR="$build" "$build/bench_live_ingest"
  # ISSUE 8 scale sweep, capped at the 100k leg on CI runners; the
  # committed baseline carries the full 1M artifact.
  MLP_SCALE_MAX_USERS="${MLP_SCALE_MAX_USERS:-100000}" \
    MLP_BENCH_JSON_DIR="$build" "$build/bench_scale"
  log "perf_bench OK"
}

case "$step" in
  fit_ingest)    fit_ingest "${2:?}" "${3:?}" ;;
  fit_barrier)   fit_barrier "${2:?}" "${3:?}" ;;
  scale_serve)   scale_serve "${2:?}" "${3:?}" ;;
  live_pipeline) live_pipeline "${2:?}" "${3:?}" ;;
  bench_micro)   bench_micro "${2:?}" ;;
  perf_bench)    perf_bench "${2:?}" ;;
  *) echo "unknown step '$step'" >&2; exit 2 ;;
esac
