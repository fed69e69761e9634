#!/usr/bin/env bash
#===- obs_smoke.sh - Fleet-wide observability smoke ----------------------===#
#
# Part of the USpec reproduction (PLDI 2019). MIT license.
#
# End-to-end smoke of the DESIGN.md §16 layer through the real binary:
#
#   1. A supervised 2-replica routed fleet runs under --trace and --events;
#      routed queries carry a trace_id.
#   2. kill -9 of a replica: the structured event log records the recovery
#      in order — replica_down -> respawn -> warm_replay -> rejoin — with a
#      gap-free seq, and `uspec obs top` still renders the fleet snapshot.
#   3. `train` under USPEC_TRACE writes its trace shard and stays
#      byte-identical to the untraced train.
#   4. `uspec obs stitch` merges the router, replica and training shards
#      into one valid Chrome-trace document with >= 3 distinct pids,
#      process_name metadata, and s/f flow events linking the router's
#      forwards to the replica's request spans.
#
# Usage: scripts/obs_smoke.sh [path/to/uspec]
#
#===----------------------------------------------------------------------===#
set -euo pipefail

USPEC=${1:-build/tools/uspec}

WORK=$(mktemp -d)
PIDS=()
cleanup() {
  for p in "${PIDS[@]:-}"; do
    kill "$p" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT
fail=0

echo "== corpus + model"
"$USPEC" gen --profile java -n 12 -o "$WORK/corpus" --seed 31
"$USPEC" train "$WORK/corpus"/*.mini -o "$WORK/model.uspb" --seed 31 \
  --threads 1 2>/dev/null

echo "== supervised routed fleet under --trace + --events"
for i in 1 2; do
  "$USPEC" serve --model "$WORK/model.uspb" --socket "$WORK/r$i.sock" \
    --workers 2 --trace "$WORK/replica$i.json" 2>/dev/null &
  PIDS+=($!)
done
for _ in $(seq 100); do
  [ -S "$WORK/r1.sock" ] && [ -S "$WORK/r2.sock" ] && break
  sleep 0.1
done
"$USPEC" route --socket "$WORK/router.sock" \
  --replicas "$WORK/r1.sock,$WORK/r2.sock" \
  --supervise --model "$WORK/model.uspb" --probe-interval-ms 100 \
  --trace "$WORK/router.json" --events "$WORK/events.jsonl" \
  2>"$WORK/router.err" &
ROUTER=$!
PIDS+=("$ROUTER")
for _ in $(seq 100); do
  [ -S "$WORK/router.sock" ] && break
  sleep 0.1
done
[ -S "$WORK/router.sock" ] || {
  echo "FAIL: router socket never appeared" >&2
  exit 1
}

for i in 0 1 2 3; do
  "$USPEC" query --socket "$WORK/router.sock" --trace-id "smoke-$i" \
    analyze "$WORK/corpus/prog$i.mini" >/dev/null
done

echo "== kill -9 a replica: event log records the recovery in order"
R2PID=${PIDS[1]}
kill -9 "$R2PID" 2>/dev/null || true
for _ in $(seq 200); do
  grep -q '"type":"rejoin"' "$WORK/events.jsonl" 2>/dev/null && break
  sleep 0.1
done
grep -q '"type":"rejoin"' "$WORK/events.jsonl" || {
  echo "FAIL: replica never rejoined (no rejoin event)" >&2
  cat "$WORK/events.jsonl" >&2 || true
  exit 1
}
python3 - "$WORK/events.jsonl" <<'EOF' || fail=1
import json, sys
want = ["replica_down", "respawn", "warm_replay", "rejoin"]
seen, last_seq = [], -1
for line in open(sys.argv[1]):
    line = line.strip()
    if not line:
        continue
    ev = json.loads(line)   # every line must parse
    assert ev["v"] == 1, f"unknown schema version: {ev}"
    assert ev["seq"] == last_seq + 1, f"seq gap at {ev}"
    last_seq = ev["seq"]
    if ev["type"] in want and ev["type"] not in seen:
        seen.append(ev["type"])
if seen != want:
    print(f"FAIL: recovery events out of order: {seen}", file=sys.stderr)
    sys.exit(1)
print(f"   {len(seen)} recovery events in order, seq gap-free to {last_seq}")
EOF

echo "== obs top renders the fleet snapshot"
top=$("$USPEC" obs top --socket "$WORK/router.sock")
echo "$top" | grep -q 'fleet: 2 replicas' || {
  echo "FAIL: obs top missing fleet header:" >&2
  echo "$top" >&2
  fail=1
}

echo "== obs events filters by type"
"$USPEC" obs events "$WORK/events.jsonl" --type rejoin \
  | grep -q '"type":"rejoin"' || {
  echo "FAIL: obs events --type rejoin found nothing" >&2
  fail=1
}

echo "== drain the fleet (replicas + router write their trace shards)"
"$USPEC" query --socket "$WORK/router.sock" shutdown >/dev/null
rc=0
wait "$ROUTER" || rc=$?
[ "$rc" -eq 0 ] || {
  echo "FAIL: router exited with status $rc after shutdown" >&2
  fail=1
}
PIDS=()

echo "== train under USPEC_TRACE: trace shard written, bytes equal"
USPEC_TRACE="$WORK/train.json" "$USPEC" train "$WORK/corpus"/*.mini \
  -o "$WORK/traced.uspb" --seed 31 2>/dev/null
cmp -s "$WORK/model.uspb" "$WORK/traced.uspb" || {
  echo "FAIL: traced train differs from untraced baseline" >&2
  fail=1
}
[ -s "$WORK/train.json" ] || {
  echo "FAIL: traced train wrote no trace shard" >&2
  fail=1
}

echo "== obs stitch merges fleet + training shards"
# replica2's shard died with the kill -9 (traces are written at exit);
# stitch the router, the surviving replica, and the training process.
"$USPEC" obs stitch "$WORK/merged.json" "$WORK/router.json" \
  "$WORK/replica1.json" "$WORK/train.json" 2>"$WORK/stitch.log"
cat "$WORK/stitch.log"
python3 - "$WORK/merged.json" <<'EOF' || fail=1
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
pids = {e["pid"] for e in events}
metas = [e for e in events if e.get("ph") == "M"
         and e.get("name") == "process_name"]
starts = [e for e in events if e.get("ph") == "s"]
finishes = [e for e in events if e.get("ph") == "f"]
assert len(pids) >= 3, f"expected >= 3 processes, got {sorted(pids)}"
assert len(metas) == len(pids), "every pid needs process_name metadata"
assert starts and finishes, "stitched trace has no flow events"
cross = {(s["id"]) for s in starts} & {(f["id"]) for f in finishes}
assert cross, "no matched s/f flow pair"
print(f"   {len(pids)} processes, {len(starts)} flow links: OK")
EOF

if [ "$fail" -eq 0 ]; then
  echo "obs smoke: OK"
else
  echo "obs smoke: FAILED" >&2
fi
exit "$fail"
