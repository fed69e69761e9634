#!/usr/bin/env bash
#===- fault_sweep.sh - USPEC_FAULT sweep over the real binary ------------===#
#
# Part of the USpec reproduction (PLDI 2019). MIT license.
#
# Drives `uspec` under injected faults (USPEC_FAULT=<site>:<nth>[:action],
# see DESIGN.md §10) and asserts the recovery contracts:
#
#   artifact.write*  kill -9 during the artifact write leaves either no
#                    artifact or a complete one, never a torn file, and
#                    `train --resume` converges to the uninterrupted bytes;
#   analysis.step /  a per-program soft fault quarantines that program
#   learn.analyze    (reported in --stats) instead of sinking the run;
#   service.worker   a worker death mid-request yields a structured
#                    `internal` error, the pool self-heals, and the server
#                    still answers and drains cleanly;
#   journal.append   kill -9 during `uspec ingest` leaves the previous
#                    journal intact, and re-running the ingest converges to
#                    the uninterrupted journal bytes;
#   service.reload.load  a failed hot-swap load answers `reload_failed`
#                    and keeps serving the old model; the next reload
#                    succeeds.
#   router.respawn   a soft fault swallows the supervisor's first respawn
#                    attempt; the deterministic backoff schedule retries
#                    and the second attempt cold-starts the replica, after
#                    which routed answers are byte-identical to one-shot
#                    analyze.
#
# solver.step is exercised in-process by the Fault ctest suites (the
# constraint solver has no standalone CLI path).
#
# Usage: scripts/fault_sweep.sh [path/to/uspec]
#
#===----------------------------------------------------------------------===#
set -euo pipefail

USPEC=${1:-build/tools/uspec}

WORK=$(mktemp -d)
SERVER=
cleanup() {
  [ -n "$SERVER" ] && kill "$SERVER" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail=0

echo "== corpus + uninterrupted baseline"
"$USPEC" gen --profile java -n 12 -o "$WORK/corpus" --seed 19
"$USPEC" train "$WORK/corpus"/*.mini -o "$WORK/base.uspb" --seed 19

echo "== kill -9 at every artifact.write site, then train --resume"
for site in artifact.write artifact.write.data artifact.write.fsync \
            artifact.write.rename; do
  out="$WORK/killed.uspb"
  rm -f "$out" "$out.tmp"
  rc=0
  USPEC_FAULT="$site:1:kill" "$USPEC" train "$WORK/corpus"/*.mini \
    -o "$out" --seed 19 >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 137 ]; then
    echo "FAIL: $site: expected exit 137 (injected kill), got $rc" >&2
    fail=1
  fi
  # Never a torn artifact: absent, or complete and loadable.
  if [ -f "$out" ] && ! "$USPEC" info "$out" >/dev/null 2>&1; then
    echo "FAIL: $site: kill left a torn artifact" >&2
    fail=1
  fi
  "$USPEC" train "$WORK/corpus"/*.mini -o "$out" --seed 19 --resume \
    >/dev/null 2>&1
  if ! cmp -s "$out" "$WORK/base.uspb"; then
    echo "FAIL: $site: resumed artifact differs from uninterrupted run" >&2
    fail=1
  fi
  if [ -f "$out.tmp" ]; then
    echo "FAIL: $site: stale temp survived resume" >&2
    fail=1
  fi
  echo "   $site: kill -> resume OK"
done

echo "== per-program quarantine (soft analysis fault, injected throw)"
for spec in analysis.step:1:soft learn.analyze:0; do
  stats=$(USPEC_FAULT="$spec" "$USPEC" train "$WORK/corpus"/*.mini \
    -o "$WORK/quarantine.uspb" --seed 19 --threads 1 --stats 2>&1 >/dev/null)
  if ! echo "$stats" | grep -q '"quarantined_count": 1'; then
    echo "FAIL: $spec: expected exactly one quarantined program; stats:" >&2
    echo "$stats" | tail -1 >&2
    fail=1
  else
    echo "   $spec: quarantined 1 program, run survived"
  fi
done

echo "== service.worker death: structured error, pool self-heals"
"$USPEC" train "$WORK/corpus"/*.mini -o "$WORK/run.uspb" --seed 19 \
  >/dev/null 2>&1
USPEC_FAULT=service.worker:1 "$USPEC" serve --model "$WORK/run.uspb" \
  --socket "$WORK/uspec.sock" --workers 2 2>/dev/null &
SERVER=$!
for _ in $(seq 100); do
  [ -S "$WORK/uspec.sock" ] && break
  sleep 0.1
done
[ -S "$WORK/uspec.sock" ] || {
  echo "FAIL: server socket never appeared" >&2
  exit 1
}

first=$("$USPEC" query --socket "$WORK/uspec.sock" specs 2>&1 || true)
if ! echo "$first" | grep -q '"kind":"internal"'; then
  echo "FAIL: expected structured internal error from dying worker, got:" >&2
  echo "$first" >&2
  fail=1
fi
second=$("$USPEC" query --socket "$WORK/uspec.sock" \
  analyze "$WORK/corpus/prog0.mini" 2>&1 || true)
if ! echo "$second" | grep -q '"alias_count"'; then
  echo "FAIL: server did not recover after worker death, got:" >&2
  echo "$second" >&2
  fail=1
fi
stats=$("$USPEC" query --socket "$WORK/uspec.sock" stats)
if ! echo "$stats" | grep -q '"worker_deaths":1'; then
  echo "FAIL: stats did not record the worker death: $stats" >&2
  fail=1
fi
"$USPEC" query --socket "$WORK/uspec.sock" shutdown >/dev/null
rc=0
wait "$SERVER" || rc=$?
SERVER=
if [ "$rc" -ne 0 ]; then
  echo "FAIL: server exited with status $rc after worker death + drain" >&2
  fail=1
fi
[ "$fail" -eq 0 ] && echo "   worker death -> internal error -> recovery OK"

echo "== kill -9 at journal.append: ingest converges"
# Uninterrupted baseline: two ingest generations.
"$USPEC" ingest "$WORK/corpus"/prog{0,1,2,3}.mini -j "$WORK/base.uspj" \
  >/dev/null 2>&1
"$USPEC" ingest "$WORK/corpus"/prog{4,5}.mini -j "$WORK/base.uspj" \
  >/dev/null 2>&1
# Killed variant: the second generation dies at the append site.
"$USPEC" ingest "$WORK/corpus"/prog{0,1,2,3}.mini -j "$WORK/killed.uspj" \
  >/dev/null 2>&1
rc=0
USPEC_FAULT=journal.append:1:kill "$USPEC" ingest \
  "$WORK/corpus"/prog{4,5}.mini -j "$WORK/killed.uspj" >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 137 ]; then
  echo "FAIL: journal.append: expected exit 137 (injected kill), got $rc" >&2
  fail=1
fi
# The previous journal must still be loadable (train validates it), and
# re-running the ingest must converge to the uninterrupted bytes.
if ! "$USPEC" train --journal "$WORK/killed.uspj" -o "$WORK/jtrain.uspb" \
  --seed 19 >/dev/null 2>&1; then
  echo "FAIL: journal.append: kill left an unloadable journal" >&2
  fail=1
fi
"$USPEC" ingest "$WORK/corpus"/prog{4,5}.mini -j "$WORK/killed.uspj" \
  >/dev/null 2>&1
if ! cmp -s "$WORK/killed.uspj" "$WORK/base.uspj"; then
  echo "FAIL: journal.append: re-ingest differs from uninterrupted journal" >&2
  fail=1
fi
if [ -f "$WORK/killed.uspj.tmp" ]; then
  echo "FAIL: journal.append: stale temp survived" >&2
  fail=1
fi
echo "   journal.append: kill -> re-ingest converges OK"

echo "== service.reload.load fault: reload fails, old model keeps serving"
# Nth=2: the site's first hit is the startup --model load; the second is
# the first hot-swap attempt.
USPEC_FAULT=service.reload.load:2 "$USPEC" serve --model "$WORK/run.uspb" \
  --socket "$WORK/uspec3.sock" --workers 2 2>/dev/null &
SERVER=$!
for _ in $(seq 100); do
  [ -S "$WORK/uspec3.sock" ] && break
  sleep 0.1
done
[ -S "$WORK/uspec3.sock" ] || {
  echo "FAIL: reload-fault server socket never appeared" >&2
  exit 1
}
"$USPEC" analyze "$WORK/corpus/prog0.mini" --model "$WORK/run.uspb" --json \
  > "$WORK/reload.expected.json"
first=$("$USPEC" query --socket "$WORK/uspec3.sock" reload 2>&1 || true)
if ! echo "$first" | grep -q '"kind":"reload_failed"'; then
  echo "FAIL: armed reload did not answer reload_failed, got:" >&2
  echo "$first" >&2
  fail=1
fi
"$USPEC" query --socket "$WORK/uspec3.sock" \
  analyze "$WORK/corpus/prog0.mini" > "$WORK/reload.after.json" || true
if ! cmp -s "$WORK/reload.expected.json" "$WORK/reload.after.json"; then
  echo "FAIL: old model stopped serving byte-identically after failed" \
       "reload" >&2
  fail=1
fi
second=$("$USPEC" query --socket "$WORK/uspec3.sock" reload 2>&1 || true)
if ! echo "$second" | grep -q '"generation"'; then
  echo "FAIL: reload after disarmed fault did not succeed: $second" >&2
  fail=1
fi
stats=$("$USPEC" query --socket "$WORK/uspec3.sock" stats)
if ! echo "$stats" | grep -q '"reloads":1'; then
  echo "FAIL: stats did not count exactly the successful reload: $stats" >&2
  fail=1
fi
"$USPEC" query --socket "$WORK/uspec3.sock" shutdown >/dev/null
rc=0
wait "$SERVER" || rc=$?
SERVER=
if [ "$rc" -ne 0 ]; then
  echo "FAIL: reload-fault server exited with status $rc" >&2
  fail=1
fi
[ "$fail" -eq 0 ] && echo "   reload fault -> reload_failed -> recovery OK"

echo "== router.respawn fault: supervisor backoff survives a lost attempt"
# No replica process exists at $WORK/f0.sock; the supervisor must create
# it. router.respawn:1:soft swallows the first attempt, so recovery proves
# the backoff rescheduled and the second attempt did the spawn.
RESPAWN_CMD="$USPEC serve --socket {socket} --model $WORK/run.uspb"
USPEC_FAULT=router.respawn:1:soft "$USPEC" route \
  --socket "$WORK/frouter.sock" --replicas "$WORK/f0.sock" \
  --supervise --respawn-cmd "$RESPAWN_CMD" --probe-interval-ms 100 \
  --respawn-seed 11 2>/dev/null &
SERVER=$!
for _ in $(seq 100); do
  [ -S "$WORK/frouter.sock" ] && break
  sleep 0.1
done
[ -S "$WORK/frouter.sock" ] || {
  echo "FAIL: supervised router socket never appeared" >&2
  exit 1
}
"$USPEC" analyze "$WORK/corpus/prog0.mini" --model "$WORK/run.uspb" --json \
  > "$WORK/frouter.expected.json"
ok=0
for _ in $(seq 100); do
  if "$USPEC" query --socket "$WORK/frouter.sock" --retries 3 \
      analyze "$WORK/corpus/prog0.mini" > "$WORK/frouter.got.json" \
      2>/dev/null &&
      cmp -s "$WORK/frouter.expected.json" "$WORK/frouter.got.json"; then
    ok=1
    break
  fi
  sleep 0.1
done
if [ "$ok" -ne 1 ]; then
  echo "FAIL: router.respawn: supervisor never recovered the replica" >&2
  fail=1
fi
stats=$("$USPEC" query --socket "$WORK/frouter.sock" stats)
# The swallowed attempt still counts, so recovery implies at least two.
if ! echo "$stats" | grep -Eq '"respawns":[2-9]'; then
  echo "FAIL: router.respawn: expected >= 2 respawn attempts: $stats" >&2
  fail=1
fi
if ! echo "$stats" | grep -Eq '"rejoins":[1-9]'; then
  echo "FAIL: router.respawn: replica never rejoined the ring: $stats" >&2
  fail=1
fi
if ! echo "$stats" | grep -Eq '"probe_failures":[1-9]'; then
  echo "FAIL: router.respawn: down replica produced no probe failures" >&2
  fail=1
fi
"$USPEC" query --socket "$WORK/frouter.sock" shutdown >/dev/null
rc=0
wait "$SERVER" || rc=$?
SERVER=
if [ "$rc" -ne 0 ]; then
  echo "FAIL: router.respawn: router exited with status $rc" >&2
  fail=1
fi
# The broadcast shutdown drains the respawned replica (not our child).
for _ in $(seq 50); do
  [ -S "$WORK/f0.sock" ] || break
  sleep 0.1
done
if [ -S "$WORK/f0.sock" ]; then
  echo "FAIL: router.respawn: replica still alive after shutdown" >&2
  pkill -9 -f "serve --socket $WORK/f0.sock" || true
  fail=1
fi
[ "$fail" -eq 0 ] && echo "   router.respawn: lost attempt -> backoff -> recovery OK"

if [ "$fail" -eq 0 ]; then
  echo "fault sweep: OK"
else
  echo "fault sweep: FAILED" >&2
fi
exit "$fail"
